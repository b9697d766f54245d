"""Plain-text scan logs: range observations with a small header block.

Format, one record per line, whitespace separated:

    # scanlog v1
    # window <xmin> <ymin> <xmax> <ymax>
    LASER <t> <x> <y> <heading> <bearing> <range> <flag>
    SONAR <t> <x> <y> <heading> <bearing> <half_angle> <range> <flag>
    POINT <x> <y> <value> <mu_black> <mu_white> <sigma>

``t`` is a timestamp (any float; carried, never interpreted) and ``flag``
is 1 when the reading is a max-range miss, else 0.  Per-sensor maximum
ranges ride in ``# laser_max_range`` / ``# sonar_max_range`` headers so
readings round-trip without repeating the limit on every line.
Unrecognized ``#`` lines are comments.  Malformed records, non-finite
numbers, an empty or inverted window, a window after the first record, a
non-positive maximum range, a position outside the window and readings the
observation records reject raise with their line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import Point2, Rect
from .sensors import LaserObs, PointColorObs, SonarObs


@dataclass
class ScanLog:
    """A parsed scan log: window header plus observation lists."""

    window: Rect | None = None
    laser_max_range: float | None = None
    sonar_max_range: float | None = None
    lasers: list[LaserObs] = field(default_factory=list)
    sonars: list[SonarObs] = field(default_factory=list)
    points: list[PointColorObs] = field(default_factory=list)


def _fmt(v: float) -> str:
    return repr(float(v))


def dump_scanlog(log: ScanLog) -> str:
    lines = ["# scanlog v1"]
    if log.window is not None:
        w = log.window
        lines.append(f"# window {_fmt(w.xmin)} {_fmt(w.ymin)} "
                     f"{_fmt(w.xmax)} {_fmt(w.ymax)}")
    if log.laser_max_range is not None:
        lines.append(f"# laser_max_range {_fmt(log.laser_max_range)}")
    if log.sonar_max_range is not None:
        lines.append(f"# sonar_max_range {_fmt(log.sonar_max_range)}")
    for o in log.lasers:
        lines.append(f"LASER {_fmt(o.t)} {_fmt(o.x)} {_fmt(o.y)} "
                     f"{_fmt(o.heading)} {_fmt(o.bearing)} {_fmt(o.range)} "
                     f"{1 if o.is_max_range else 0}")
    for o in log.sonars:
        lines.append(f"SONAR {_fmt(o.t)} {_fmt(o.x)} {_fmt(o.y)} "
                     f"{_fmt(o.heading)} {_fmt(o.bearing)} {_fmt(o.half_angle)} "
                     f"{_fmt(o.range)} {1 if o.is_max_range else 0}")
    for o in log.points:
        lines.append(f"POINT {_fmt(o.x)} {_fmt(o.y)} {_fmt(o.value)} "
                     f"{_fmt(o.mu_black)} {_fmt(o.mu_white)} {_fmt(o.sigma)}")
    return "\n".join(lines) + "\n"


def _parse_flag(tok: str, lineno: int) -> bool:
    if tok == "1":
        return True
    if tok == "0":
        return False
    raise ValueError(f"line {lineno}: max-range flag must be 0 or 1, got {tok!r}")


def _floats(toks: list[str], lineno: int) -> list[float]:
    try:
        vals = [float(t) for t in toks]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad number in {toks!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"line {lineno}: non-finite number in {toks!r}")
    return vals


def _record(cls, lineno: int, window: Rect | None, x: float, y: float, *args):
    """Construct an observation record at (x, y), locating its ValueError.

    Once a window is known, the position must lie in it (boundary included).
    """
    if window is not None and not window.contains(Point2(x, y)):
        raise ValueError(f"line {lineno}: position ({x!r}, {y!r}) outside the window")
    try:
        return cls(x, y, *args)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def parse_scanlog(text: str) -> ScanLog:
    log = ScanLog()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "#":
            if len(toks) >= 6 and toks[1] == "window":
                x0, y0, x1, y1 = _floats(toks[2:6], lineno)
                if not (x0 < x1 and y0 < y1):
                    raise ValueError(f"line {lineno}: window must have xmin < xmax "
                                     f"and ymin < ymax, got {toks[2:6]!r}")
                if log.lasers or log.sonars or log.points:
                    raise ValueError(f"line {lineno}: window must come before "
                                     "the first record")
                log.window = Rect(x0, y0, x1, y1)
            elif len(toks) >= 3 and toks[1] in ("laser_max_range", "sonar_max_range"):
                r = _floats(toks[2:3], lineno)[0]
                if r <= 0.0:
                    raise ValueError(f"line {lineno}: {toks[1]} must be positive, "
                                     f"got {toks[2]!r}")
                setattr(log, toks[1], r)
            continue
        kind = toks[0]
        if kind == "LASER":
            if len(toks) != 8:
                raise ValueError(f"line {lineno}: LASER needs 7 fields, "
                                 f"got {len(toks) - 1}")
            if log.laser_max_range is None:
                raise ValueError(f"line {lineno}: LASER record before a "
                                 "'# laser_max_range' header")
            t, x, y, h, b, r = _floats(toks[1:7], lineno)
            log.lasers.append(_record(LaserObs, lineno, log.window, x, y, h, b, r,
                                      log.laser_max_range,
                                      _parse_flag(toks[7], lineno), t))
        elif kind == "SONAR":
            if len(toks) != 9:
                raise ValueError(f"line {lineno}: SONAR needs 8 fields, "
                                 f"got {len(toks) - 1}")
            if log.sonar_max_range is None:
                raise ValueError(f"line {lineno}: SONAR record before a "
                                 "'# sonar_max_range' header")
            t, x, y, h, b, ha, r = _floats(toks[1:8], lineno)
            log.sonars.append(_record(SonarObs, lineno, log.window, x, y, h, b, ha, r,
                                      log.sonar_max_range,
                                      _parse_flag(toks[8], lineno), t))
        elif kind == "POINT":
            if len(toks) != 7:
                raise ValueError(f"line {lineno}: POINT needs 6 fields, "
                                 f"got {len(toks) - 1}")
            x, y, v, mb, mw, s = _floats(toks[1:7], lineno)
            log.points.append(_record(PointColorObs, lineno, log.window,
                                      x, y, v, mb, mw, s))
        else:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    return log


def write_scanlog(path: str, log: ScanLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_scanlog(log))


def read_scanlog(path: str) -> ScanLog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scanlog(fh.read())
