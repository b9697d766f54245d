"""Range-sensor observation models over polygonal colorings.

Three observation families condition the coloring posterior:

* laser beams — a narrow ray whose likelihood depends only on the distance
  from the sensor to the first edge along the beam (Gaussian measurement
  noise mixed with a uniform outlier term and a max-range point mass);
* sonar cones — a wide field of view whose visible faces and corners each
  get a logistic *independent return probability*, combined depth-first
  into exclusive return probabilities that weight a Gaussian mixture over
  the reading, plus an outlier component (uniform + truncated exponential
  + max-range point mass);
* point color measurements — a Gaussian reading of a per-color mean at a
  fixed location.

Any observation model reports -inf when its sensor sits in occupied
(black) space.  Laser beams are cast by :func:`cast_beams`, one numpy pass
of beams x live edges in increasing edge id, wherever beams are evaluated
(one beam or many).  Sonar cones are swept by :func:`visibility_sweep`,
which picks each cone's candidate edges and runs
:func:`cone_sweep.cone_features` over many cones at once, wherever cones
are evaluated: the chain's likelihoods, the simulator's rings and the
one-cone :func:`sonar_features`.  Both read the coloring's edge table.

:class:`ObservationCache` binds a log's laser and sonar observations to a
chain through one array-backed part per family (:class:`_LaserBeams`,
:class:`_SonarCones`).  A part caches each observation's log likelihood and
*sensitivity extent* (beam up to the impact point; cone up to the farthest
contact) with a box around it.  On a proposed edit it meets all changed
segments' boxes with its boxes in one numpy pass, runs its exact touch test
on the pairs that meet, and re-evaluates the touched observations together.
An edit that changes the color of any sensor position has likelihood zero
and returns -inf before anything is evaluated.  No cell index is kept.

The batched paths give the results of the scalar reference functions in
``tests/reference.py`` (one beam or one cone at a time) bit for bit: numpy
arithmetic runs the scalar's operations in the scalar's order, and a
likelihood delta or a total is summed left to right, as a Python loop adds,
not by numpy's pairwise ``sum``.

Transcendental functions have one source.  Every array path and every
scalar function it is tested against (here, in :mod:`cone_sweep`,
:mod:`baseline` and the reference) takes ``cos``, ``sin``,
``arctan2``, ``hypot``, ``arcsin``, ``exp``, ``expm1`` and ``log`` from
numpy, on arrays and on floats alike, since numpy's SIMD loops may round
differently from :mod:`math`.  Scalar code with no batched twin (the
coloring, the moves, the prior, the sampler and the simulator's random
draws) keeps :mod:`math`, whose calls on floats cost a fraction of numpy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import Coloring, changed_points
from .cone_sweep import (
    ConeRows,
    EdgePairs,
    Features,
    cone_features,
    first_of_runs,
    ray_hits,
    wedge_clip,
)
from .geometry import (
    EPS_ANGLE,
    ZERO_WIDTH_FACE_TOL,
    Point2,
    Rect,
    grid_trace_segment,  # noqa: F401  (unused; perfbench/layers.py patches this name)
    point_segment_distance_batch,
    pymax,
    pymin,
    sector_boxes,
    sector_reach,
    unit_vector,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# observation and parameter records


@dataclass(frozen=True)
class LaserObs:
    """One laser beam: sensor pose, beam bearing, and the range reading.

    ``t`` is a free-form timestamp carried through logs; the likelihood
    never reads it.
    """
    x: float
    y: float
    heading: float
    bearing: float
    range: float
    max_range: float
    is_max_range: bool = False
    t: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.range <= self.max_range):
            raise ValueError(f"laser range {self.range} outside (0, {self.max_range}]")


@dataclass(frozen=True)
class SonarObs:
    """One sonar ping: pose, cone geometry, and the range reading.

    ``t`` is a free-form timestamp carried through logs; the likelihood
    never reads it.
    """
    x: float
    y: float
    heading: float
    bearing: float
    half_angle: float
    range: float
    max_range: float
    is_max_range: bool = False
    t: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.range <= self.max_range):
            raise ValueError(f"sonar range {self.range} outside (0, {self.max_range}]")
        check_half_angle("sonar half_angle", self.half_angle)


def check_half_angle(name: str, value: float) -> None:
    """Raise a ValueError naming ``name`` unless ``EPS_ANGLE <= value < pi/2``.

    A cone narrower than the floor has no use as a sonar model, and below
    about 1e-8 rad the occupancy-grid baseline's cone test (a cosine against
    ``cos(half_angle)``, which rounds to 1) passes cell centres outside the
    ping's box.
    """
    if not EPS_ANGLE <= value < math.pi / 2:
        raise ValueError(f"{name} must be in [{EPS_ANGLE!r}, pi/2), got {value!r}")


@dataclass(frozen=True)
class PointColorObs:
    """A scalar reading whose mean depends on the color at a fixed point."""
    x: float
    y: float
    value: float
    mu_black: float
    mu_white: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class LaserParams:
    """Laser mixture: Gaussian + uniform outlier + max-range point mass.

    The Gaussian's standard deviation is ``sigma_frac`` of the predicted
    distance with a floor of ``sigma_floor`` (beam rangefinders have
    roughly proportional error with a small absolute minimum).
    """
    sigma_frac: float = 0.01
    sigma_floor: float = 0.01
    w_gauss: float = 0.9
    w_uniform: float = 0.05
    w_maxrange: float = 0.05

    def __post_init__(self):
        if self.sigma_frac < 0 or self.sigma_floor <= 0:
            raise ValueError("sigma_frac must be >= 0 and sigma_floor > 0")
        w = (self.w_gauss, self.w_uniform, self.w_maxrange)
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be nonnegative and sum to 1")

    def sigma(self, predicted: float) -> float:
        return max(self.sigma_frac * predicted, self.sigma_floor)


@dataclass(frozen=True)
class SonarParams:
    """Logistic return models plus the reading mixture for sonar.

    Independent return probabilities are logistic in pose-relative feature
    coordinates.  Corners: ``corner_intercept + corner_distance_slope * d``.
    Faces: ``face_intercept + face_distance_slope * d +
    face_projection_slope * projection_angle + face_subtended_slope *
    subtended_angle`` (angles in radians; a square-on face has projection
    angle pi/2).  Defaults put a perpendicular face at 1 m subtending 10
    degrees near q = 0.95, dropping through 0.5 when the face is tilted 60
    degrees away from square-on, and a corner at 1 m near q = 0.5.

    The outlier component (weight = probability no feature returned) mixes
    a uniform density on (0, max_range], an exponential with rate
    ``outlier_rate`` truncated to the same interval, and a point mass at
    max range that applies to max-range-flagged readings.
    """
    corner_intercept: float = 0.8
    corner_distance_slope: float = -0.8
    face_intercept: float = -1.543
    face_distance_slope: float = -0.8
    face_projection_slope: float = 2.81
    face_subtended_slope: float = 5.0
    sigma: float = 0.03
    w_uniform: float = 0.3
    w_exponential: float = 0.3
    w_maxrange: float = 0.4
    outlier_rate: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0 or self.outlier_rate <= 0:
            raise ValueError("sigma and outlier_rate must be positive")
        w = (self.w_uniform, self.w_exponential, self.w_maxrange)
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("outlier weights must be nonnegative and sum to 1")


# ---------------------------------------------------------------------------
# scalar density helpers


def _log_density(dens):
    """Log of each density, -inf where it is not positive; a float of a float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(dens > 0.0, np.log(dens), -math.inf)
    return ll if ll.ndim else float(ll)


def beam_direction(heading: float, bearing: float) -> tuple[float, float]:
    return unit_vector(heading + bearing)


def beam_directions(angle) -> tuple[np.ndarray, np.ndarray]:
    """:func:`beam_direction` of many beams at once, bit for bit: the cosine
    and sine of each beam's ``heading + bearing``."""
    angle = np.asarray(angle, dtype=np.float64)
    return np.cos(angle), np.sin(angle)


def beam_caps(window: Rect, sx, sy, dirx, diry, max_range) -> np.ndarray:
    """Distance each beam can reach: its window exit, capped at
    ``max_range``.  The window boundary itself is a viewing frame, not an
    obstacle.  Python's ``min``/``max`` picks are kept, so a beam leaving
    from the window edge keeps its signed zero, as the reference
    ``beam_cap`` does."""
    t = np.full(len(sx), math.inf)
    for d, s, lo, hi in ((dirx, sx, window.xmin, window.xmax),
                         (diry, sy, window.ymin, window.ymax)):
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = (np.where(d > 0.0, hi, lo) - s) / d
        t = pymin(t, np.where(d != 0.0, reach, math.inf))
    return pymin(pymax(t, 0.0), max_range)


# Beams x edges pairs per numpy pass of cast_beams.  A pass holds about a
# dozen float arrays of this many elements, so this bounds its memory below
# a megabyte however many beams and edges there are.
_CAST_BLOCK = 1 << 13


def cast_beams(col: Coloring, ox, oy, dx, dy, cap) -> tuple[np.ndarray, np.ndarray]:
    """First hit ``(t, eid)`` of each beam against the coloring's live edges.

    Beam k starts at ``(ox[k], oy[k])`` along the unit vector
    ``(dx[k], dy[k])`` and reaches ``cap[k]``.  Beams x edges are tested at
    once by :func:`cone_sweep.ray_hits`, then ``t <= cap``.  Edges are
    taken in increasing id, and the first minimum wins, so ties in t go to
    the smaller id.  A beam that hits nothing gets ``t = cap`` and
    ``eid = -1``.
    """
    ox, oy, dx, dy, cap = (np.asarray(v, dtype=np.float64) for v in (ox, oy, dx, dy, cap))
    t_hit = cap.copy()
    eid_hit = np.full(len(cap), -1, dtype=np.int64)
    eids, ax, ay, bx, by = col.live_edges()
    if not len(eids):
        return t_hit, eid_hit
    step = max(1, _CAST_BLOCK // len(eids))
    for lo in range(0, len(cap), step):
        blk = slice(lo, lo + step)
        with np.errstate(divide="ignore", invalid="ignore"):
            hit, t = ray_hits(ox[blk, None], oy[blk, None], dx[blk, None], dy[blk, None],
                              ax, ay, bx, by)
        hit &= t <= cap[blk, None]
        first = np.argmin(np.where(hit, t, np.inf), axis=1)
        rows = np.flatnonzero(hit[np.arange(len(first)), first])
        t_hit[lo + rows] = t[rows, first[rows]]
        eid_hit[lo + rows] = eids[first[rows]]
    return t_hit, eid_hit


def laser_true_distance(col: Coloring, origin: Point2,
                        direction: tuple[float, float],
                        max_range: float) -> tuple[float, int | None]:
    """Predicted impact distance for a beam and the edge hit, if any.

    The beam is cast against the coloring's edges; with no hit its
    :func:`beam_caps` distance stands in.
    """
    ox, oy, dx, dy = (np.array([v], dtype=np.float64) for v in (*origin, *direction))
    t, eid = cast_beams(col, ox, oy, dx, dy,
                        beam_caps(col.window, ox, oy, dx, dy, max_range))
    return float(t[0]), (int(eid[0]) if eid[0] >= 0 else None)


def _laser_density_log_batch(r: np.ndarray, flagged: np.ndarray, d_star: np.ndarray,
                             max_range: np.ndarray, p: LaserParams) -> np.ndarray:
    """The log density of each reading: the laser mixture about the
    predicted distance, with the reference ``_laser_density_log``'s
    arithmetic, operation by operation."""
    sigma = np.maximum(p.sigma_frac * d_star, p.sigma_floor)
    z = (r - d_star) / sigma
    gauss = np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
    dens = p.w_gauss * gauss + p.w_uniform / max_range
    return _log_density(np.where(flagged, dens + p.w_maxrange, dens))


# ---------------------------------------------------------------------------
# sonar model


def _sonar_outlier(r, flagged, max_range, p: SonarParams):
    """Density of reading ``r`` when no feature produced the return; the
    arguments are floats or arrays of one entry per reading."""
    rate = p.outlier_rate
    outlier = (p.w_uniform / max_range
               + p.w_exponential * rate * np.exp(-rate * r) / -np.expm1(-rate * max_range))
    return np.where(flagged, outlier + p.w_maxrange, outlier)


class Cones:
    """Sonar cones as arrays, one entry each: apex ``(sx, sy)``, heading and
    its unit vector ``(hx, hy)``, half-angle ``beta``, ``max_range``, the
    wedge's bounding unit vectors ``(ulox, uloy)`` and ``(uhix, uhiy)``, the
    sector's :func:`sector_reach` and its box at full range (``box``),
    widened by ``_TOUCH_EPS`` so that rounding never makes it smaller than
    the sector."""

    def __init__(self, x, y, heading, beta, max_range):
        self.sx, self.sy, self.heading, self.beta, self.max_range = (
            np.asarray(v, dtype=np.float64) for v in (x, y, heading, beta, max_range))
        self.hx, self.hy = np.cos(self.heading), np.sin(self.heading)
        self.ulox, self.uloy = np.cos(self.heading - self.beta), np.sin(self.heading - self.beta)
        self.uhix, self.uhiy = np.cos(self.heading + self.beta), np.sin(self.heading + self.beta)
        self.reach = sector_reach(self.ulox, self.uloy, self.uhix, self.uhiy)
        self.box = sector_boxes(self.sx, self.sy, self.max_range, self.reach, _TOUCH_EPS)

    def rows(self, cid) -> ConeRows:
        """The constants of the cones ``cid``, one row each."""
        return ConeRows(*(v[cid] for v in (self.sx, self.sy, self.heading, self.hx, self.hy,
                                           self.beta, self.max_range, self.ulox, self.uloy,
                                           self.uhix, self.uhiy)))


def visibility_sweep(cones: Cones, idx, col: Coloring) -> Features:
    """The faces and corners that each cone ``idx[k]`` sees among the
    coloring's live edges, with ``c = k``, cone by cone in depth order.

    A cone's features depend only on the edges that meet its sector, taken
    in increasing id: the id order breaks ties in ``(t, id)`` and names the
    owner of a shared corner, and any edge a sight line inside the sector
    reaches meets the sector.  So any superset of those edges gives the same
    features.  The candidates are the live edges whose box meets the cone's
    ``box``.  The cones that have one go through
    :func:`cone_sweep.cone_features` in groups whose (cone, interval, edge)
    triples, at most n (2 n + 1) for a cone with n candidates, stay near
    ``_CAST_BLOCK``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    eids, ax, ay, bx, by = col.live_edges()
    if not len(idx) or not len(eids):
        return _no_features()
    # candidate (cone, edge) pairs, cone by cone in increasing edge id
    exlo, exhi = np.minimum(ax, bx), np.maximum(ax, bx)
    eylo, eyhi = np.minimum(ay, by), np.maximum(ay, by)
    rows, cols = [], []
    step = max(1, _CAST_BLOCK // len(eids))
    for first in range(0, len(idx), step):
        xlo, xhi, ylo, yhi = (v[:, None] for v in cones.box[:, idx[first:first + step]])
        r, e = np.nonzero((exlo <= xhi) & (exhi >= xlo) & (eylo <= yhi) & (eyhi >= ylo))
        rows.append(r + first)
        cols.append(e)
    row, edge = np.concatenate(rows), np.concatenate(cols)
    n = np.bincount(row, minlength=len(idx))
    seen = np.flatnonzero(n)
    cost = n[seen] * (2 * n[seen] + 1)
    group = (np.cumsum(cost) - cost) // _CAST_BLOCK
    end = np.cumsum(n[seen])
    starts = np.flatnonzero(first_of_runs(group))
    out = []
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(seen)]):
        c = seen[lo:hi]
        e = edge[int(end[lo] - n[c[0]]):int(end[hi - 1])]
        pairs = EdgePairs(np.repeat(np.arange(hi - lo), n[c]), eids[e], ax[e], ay[e],
                          bx[e], by[e])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = cone_features(cones.rows(idx[c]), pairs)
        out.append(f._replace(c=c[f.c]))
    if not out:
        return _no_features()
    return out[0] if len(out) == 1 else Features(*(np.concatenate(v) for v in zip(*out)))


def _no_features() -> Features:
    none = np.empty(0, dtype=np.int64)
    return Features(none, none, *(np.empty(0) for _ in range(6)))


def _columns(c: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """The column of each entry in an ``(m, width)`` table of rows ``c``
    (sorted), the entries of a row from column 1 in order, and the width;
    column 0 is left free."""
    counts = np.bincount(c, minlength=m)
    return np.arange(len(c)) - (np.cumsum(counts) - counts)[c] + 1, int(counts.max(initial=0)) + 1


def exclusive_returns(f: Features, m: int, p: SonarParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Each feature's exclusive return probability ``r``, and its
    :func:`_columns` column and the width, for the features of ``m`` cones.

    A feature returns the ping on its own with the logistic probability
    ``q`` of :class:`SonarParams` in its coordinates.  The exclusive return
    probability discounts it by the chance that no closer feature of its
    cone returned: ``r = q * (1 - q_1) * (1 - q_2) * ...``, the product
    taken left to right in depth order (``multiply.accumulate`` along each
    cone's row), so the r values of a cone sum to at most 1.
    """
    pos, width = _columns(f.c, m)
    g = np.where(f.kind == 0,
                 p.face_intercept + p.face_distance_slope * f.depth
                 + p.face_projection_slope * f.proj + p.face_subtended_slope * f.subt,
                 p.corner_intercept + p.corner_distance_slope * f.depth)
    with np.errstate(over="ignore"):
        q = 1.0 / (1.0 + np.exp(-g))
    # none_closer[:, k]: the chance that none of features 0..k-1 returned
    none_closer = np.ones((m, width))
    none_closer[f.c, pos] = 1.0 - q
    np.multiply.accumulate(none_closer, axis=1, out=none_closer)
    return q * none_closer[f.c, pos - 1], pos, width


def sonar_features(o: SonarObs, col: Coloring,
                   params: SonarParams) -> tuple[Features, np.ndarray]:
    """The features visible in one ping's cone, in depth order, and each
    one's exclusive return probability: :func:`visibility_sweep` of one
    cone."""
    f = visibility_sweep(Cones([o.x], [o.y], [o.heading + o.bearing], [o.half_angle],
                               [o.max_range]), [0], col)
    return f, exclusive_returns(f, 1, params)[0]


# ---------------------------------------------------------------------------
# sensitivity extents

# Tolerance for "the edit touches this extent": changed segments within
# this distance of a beam, or protruding this far into a cone, trigger a
# recompute.  It only needs to absorb floating-point slack (an impact point
# reconstructed from a ray parameter sits within ~1e-12 of its edge).
_TOUCH_EPS = 1e-9


def _orient(ox, oy, px, py, qx, qy):
    """Cross product ``(p - o) x (q - o)``: twice the signed area of o, p, q."""
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


# A pair of segments that do not cross properly is within _TOUCH_EPS only if
# an endpoint of one lies within _TOUCH_EPS of the other segment, hence of its
# line: |orient| = L * (line distance) <= _TOUCH_EPS * L, with L the length of
# the segment the line runs along.  The computed orient and point-segment
# distance are off by a few ulps of coordinate products, about
# 1e-15 * L * (L + |coordinates|) in all.  Testing |orient| against
# _NEAR_LINE * (|dx| + |dy|) >= _NEAR_LINE * L leaves a slack of at least
# _TOUCH_EPS * L, which covers that for lengths and coordinates up to about
# 1e5 m.  A zero-length segment has orient exactly 0 and always passes.
_NEAR_LINE = 2.0 * _TOUCH_EPS


def _segments_touch(ax, ay, bx, by, cx, cy, ex, ey) -> np.ndarray:
    """Whether segments (a[i], b[i]) and (c[i], e[i]) lie within _TOUCH_EPS.

    Pair by pair the same decision as the reference
    ``_seg_batch_min_dist(...) <= _TOUCH_EPS``, with its operations (the
    proper-crossing test, then the least of the four endpoint-to-segment
    distances), except that the four point-segment
    distances are taken only where an endpoint lies near the other
    segment's line (see ``_NEAR_LINE``).
    """
    d1 = _orient(cx, cy, ex, ey, ax, ay)
    d2 = _orient(cx, cy, ex, ey, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, ex, ey)
    touch = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
        & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    near = ~touch & (
        (np.minimum(np.abs(d1), np.abs(d2))
         <= _NEAR_LINE * (np.abs(ex - cx) + np.abs(ey - cy)))
        | (np.minimum(np.abs(d3), np.abs(d4))
           <= _NEAR_LINE * (np.abs(bx - ax) + np.abs(by - ay))))
    k = np.flatnonzero(near)
    ax, ay, bx, by, cx, cy, ex, ey = (v[k] for v in (ax, ay, bx, by, cx, cy, ex, ey))
    d = np.minimum(
        np.minimum(point_segment_distance_batch(ax, ay, cx, cy, ex, ey),
                   point_segment_distance_batch(bx, by, cx, cy, ex, ey)),
        np.minimum(point_segment_distance_batch(cx, cy, ax, ay, bx, by),
                   point_segment_distance_batch(ex, ey, ax, ay, bx, by)))
    touch[k] = d <= _TOUCH_EPS
    return touch


def _wedge_clip_distance(px, py, ulox, uloy, uhix, uhiy, seg) -> np.ndarray:
    """Apex distance of the piece of seg inside each wedge; inf if none.

    Wedge i has apex (px[i], py[i]) and bounding unit vectors u_lo[i],
    u_hi[i].  This is the wedge clip of :func:`visibility_sweep`
    (:func:`cone_sweep.wedge_clip`) followed by the apex-to-piece distance
    that the sweep compares with the range, with the same float operations.
    The coordinates of ``seg`` may also be arrays, one segment per wedge.
    """
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    t0, t1, inside = wedge_clip(px, py, ulox, uloy, uhix, uhiy, ax, ay, dx, dy)
    d = point_segment_distance_batch(px, py, ax + t0 * dx, ay + t0 * dy,
                                     ax + t1 * dx, ay + t1 * dy)
    return np.where(inside, d, np.inf)


def _boxes_meet(box, ax, ay, bx, by):
    """``(segment, observation)`` index pairs whose boxes meet, segment by
    segment: segment k runs from (ax[k], ay[k]) to (bx[k], by[k]) and its box
    is widened by ``_TOUCH_EPS``; observation j's box is ``box[:, j]``, as
    ``(xlo, xhi, ylo, yhi)``."""
    xlo, xhi, ylo, yhi = box
    return np.nonzero((xlo <= (np.maximum(ax, bx) + _TOUCH_EPS)[:, None])
                      & (xhi >= (np.minimum(ax, bx) - _TOUCH_EPS)[:, None])
                      & (ylo <= (np.maximum(ay, by) + _TOUCH_EPS)[:, None])
                      & (yhi >= (np.minimum(ay, by) - _TOUCH_EPS)[:, None]))


# ---------------------------------------------------------------------------
# the observation families as arrays


class _LaserBeams:
    """Laser beams as arrays, evaluated and touch-tested many at a time.

    :meth:`evaluate` gives each beam its log likelihood, equal to the scalar
    laser likelihood of ``tests/reference.py`` bit for bit, and its extent,
    the impact distance: one :func:`cast_beams` call against caps (window
    exit or max range) computed once, then :func:`_laser_density_log_batch`.

    :meth:`touched` runs the exact test (:func:`_segments_touch`) on the
    pairs whose boxes meet.  A beam's touch box is its ``[sensor, impact]``
    box widened by ``_TOUCH_EPS``: a beam within ``_TOUCH_EPS`` of a segment
    has that box within ``_TOUCH_EPS`` of the segment's box, so with the
    segment's own widening the boxes of every touched pair meet, with room
    to spare for rounding.
    """

    def __init__(self, lasers: list[LaserObs], col: Coloring, p: LaserParams):
        self.p = p
        n = len(lasers)
        self.sx = np.array([o.x for o in lasers], dtype=np.float64)
        self.sy = np.array([o.y for o in lasers], dtype=np.float64)
        self.reading = np.array([o.range for o in lasers], dtype=np.float64)
        self.flagged = np.array([o.is_max_range for o in lasers], dtype=bool)
        self.max_range = np.array([o.max_range for o in lasers], dtype=np.float64)
        self.dirx, self.diry = beam_directions([o.heading + o.bearing for o in lasers])
        self.cap = beam_caps(col.window, self.sx, self.sy, self.dirx, self.diry,
                             self.max_range)
        self.ll = np.zeros(n)
        self.impact_x, self.impact_y = np.zeros(n), np.zeros(n)
        self.touch_box = np.zeros((4, n))

    def touched(self, ax, ay, bx, by) -> np.ndarray:
        """Increasing indices of the beams within ``_TOUCH_EPS`` of any
        segment from (ax[k], ay[k]) to (bx[k], by[k])."""
        seg, beam = _boxes_meet(self.touch_box, ax, ay, bx, by)
        touch = _segments_touch(self.sx[beam], self.sy[beam], self.impact_x[beam],
                                self.impact_y[beam], ax[seg], ay[seg], bx[seg], by[seg])
        hit = np.zeros(len(self.ll), dtype=bool)
        hit[beam[touch]] = True
        return np.flatnonzero(hit)

    def evaluate(self, idx: np.ndarray, col: Coloring) -> tuple[np.ndarray, np.ndarray]:
        """``(ll, ext)`` of the beams ``idx`` against the coloring's live edges."""
        ext, _ = cast_beams(col, self.sx[idx], self.sy[idx], self.dirx[idx],
                            self.diry[idx], self.cap[idx])
        return _laser_density_log_batch(self.reading[idx], self.flagged[idx], ext,
                                        self.max_range[idx], self.p), ext

    def store(self, idx: np.ndarray, ll: np.ndarray, ext: np.ndarray) -> None:
        """Cache the beams' log likelihoods, impact points and touch boxes."""
        self.ll[idx] = ll
        sx, sy = self.sx[idx], self.sy[idx]
        ix = self.impact_x[idx] = sx + ext * self.dirx[idx]
        iy = self.impact_y[idx] = sy + ext * self.diry[idx]
        self.touch_box[:, idx] = (np.minimum(sx, ix) - _TOUCH_EPS,
                                  np.maximum(sx, ix) + _TOUCH_EPS,
                                  np.minimum(sy, iy) - _TOUCH_EPS,
                                  np.maximum(sy, iy) + _TOUCH_EPS)


class _SonarCones(Cones):
    """Sonar pings as arrays, evaluated many cones at a time.

    :meth:`evaluate` gives each cone its ``(log likelihood, sensitivity
    radius)``: :func:`visibility_sweep` finds the features, then the
    density (:meth:`_density_log`) and the contact radius
    (:func:`_contact_radius`) run as numpy passes over them.  Both equal the
    scalar sonar likelihood and contact radius of ``tests/reference.py`` bit
    for bit: they keep its float operations in its order, and take its
    products and sums left to right (``multiply``/``add.accumulate`` along
    each cone's row).

    :meth:`touched` runs the wedge clip (:func:`_wedge_clip_distance`) on
    the pairs whose boxes meet.  A touching segment has a point in the wedge
    within the truncated radius (``trunc_radius``) plus ``_TOUCH_EPS`` of the
    apex, so a cone's touch box bounds its sector of that radius, and every
    touched pair's boxes meet.
    """

    def __init__(self, sonars: list[SonarObs], p: SonarParams):
        # each list becomes an array before the next is built, so that only
        # one is alive at a time
        super().__init__(np.array([o.x for o in sonars], dtype=np.float64),
                         np.array([o.y for o in sonars], dtype=np.float64),
                         np.array([o.heading + o.bearing for o in sonars], dtype=np.float64),
                         np.array([o.half_angle for o in sonars], dtype=np.float64),
                         np.array([o.max_range for o in sonars], dtype=np.float64))
        self.p = p
        self.reading = np.array([o.range for o in sonars], dtype=np.float64)
        self.outlier = _sonar_outlier(self.reading,
                                      np.array([o.is_max_range for o in sonars], dtype=bool),
                                      self.max_range, p)
        # a cone that sees nothing: the density of no feature
        self.ll_bare = _log_density(0.0 + 1.0 * self.outlier)
        self.ll = np.zeros(len(sonars))
        self.trunc_radius = np.zeros(len(sonars))
        self.touch_box = np.zeros((4, len(sonars)))

    def touched(self, ax, ay, bx, by) -> np.ndarray:
        """Increasing indices of the cones any segment from (ax[k], ay[k]) to
        (bx[k], by[k]) touches."""
        seg, cone = _boxes_meet(self.touch_box, ax, ay, bx, by)
        d = _wedge_clip_distance(self.sx[cone], self.sy[cone], self.ulox[cone],
                                 self.uloy[cone], self.uhix[cone], self.uhiy[cone],
                                 ((ax[seg], ay[seg]), (bx[seg], by[seg])))
        hit = np.zeros(len(self.ll), dtype=bool)
        hit[cone[d <= self.trunc_radius[cone] + _TOUCH_EPS]] = True
        return np.flatnonzero(hit)

    def store(self, idx: np.ndarray, ll: np.ndarray, ext: np.ndarray) -> None:
        """Cache the cones' log likelihoods, truncated radii and touch boxes."""
        self.ll[idx] = ll
        self.trunc_radius[idx] = ext
        self.touch_box[:, idx] = sector_boxes(self.sx[idx], self.sy[idx], ext + _TOUCH_EPS,
                                              self.reach[:, idx])

    def evaluate(self, idx: np.ndarray, col: Coloring) -> tuple[np.ndarray, np.ndarray]:
        """``(ll, ext)`` of the cones ``idx`` against the coloring's live edges."""
        idx = np.asarray(idx, dtype=np.int64)
        f = visibility_sweep(self, idx, col)
        if not len(f.c):
            return self.ll_bare[idx], self.max_range[idx]
        return (self._density_log(idx, f),
                _contact_radius(f, self.beta[idx], self.max_range[idx]))

    def _density_log(self, cid, f: Features) -> np.ndarray:
        """The log density of each cone's reading: the Gaussian about each
        feature's depth weighted by its :func:`exclusive_returns`, plus the
        outlier density weighted by the rest."""
        p = self.p
        m = len(cid)
        r, pos, width = exclusive_returns(f, m, p)
        z = (self.reading[cid][f.c] - f.depth) / p.sigma
        gauss = np.exp(-0.5 * z * z) / (p.sigma * _SQRT_2PI)
        dens = np.zeros((m, width))
        total_r = np.zeros((m, width))
        dens[f.c, pos] = r * gauss
        total_r[f.c, pos] = r
        return _log_density(np.add.accumulate(dens, axis=1)[:, -1]
                            + (1.0 - np.add.accumulate(total_r, axis=1)[:, -1])
                            * self.outlier[cid])


def _contact_radius(f: Features, beta, rng) -> np.ndarray:
    """Sensitivity radius of each cone given its features.

    Full angular coverage by faces bounds sensitivity at the farthest
    visible point, plus ``_TOUCH_EPS``; any gap leaves it at max range.
    The gap tolerance must not exceed the width below which the sweep
    suppresses faces: a crack wider than the suppression threshold can host
    a reportable face, so it must force max-range sensitivity.
    """
    m = len(beta)
    fc, alo, ahi = f.c, f.alo, f.ahi
    # faces in (lo, hi) order; the reach before each is the running max of
    # -beta and the his before it
    k = np.flatnonzero(f.kind == 0)
    k = k[np.lexsort((ahi[k], alo[k], fc[k]))]
    pos, width = _columns(fc[k], m)
    reach = np.full((m, width), -np.inf)
    reach[:, 0] = -beta
    reach[fc[k], pos] = ahi[k]
    np.maximum.accumulate(reach, axis=1, out=reach)
    tol = ZERO_WIDTH_FACE_TOL
    gap = reach[:, -1] < beta - tol
    gap[fc[k][alo[k] > reach[fc[k], pos - 1] + tol]] = True
    farthest = np.zeros(m)
    np.maximum.at(farthest, fc, f.far)
    return np.where(gap, rng, pymin(farthest + _TOUCH_EPS, rng))


# ---------------------------------------------------------------------------
# the incremental observation cache


class ObservationCache:
    """Caches per-observation log likelihoods and sensitivity extents.

    Implements the chain's Likelihood protocol over one part per
    observation family the log has (``parts``: :class:`_LaserBeams`, then
    :class:`_SonarCones`).  Each part keeps its observations' log
    likelihoods, extents and touch boxes, and has the same operations:
    ``touched`` (a box pass, then the exact test on the pairs whose boxes
    meet), ``evaluate`` and ``store``.  ``delta_for_edit`` evaluates each
    part's touched observations and stages them; ``commit`` stores the
    staging and ``rollback`` drops it.

    Every cached value equals the scalar likelihoods of
    ``tests/reference.py`` bit for bit.  Observations are numbered lasers
    first, then sonars; the cached total, a delta and a
    :meth:`recompute_total` are all summed left to right in that order.

    The construction-time coloring must give every sensor a free (white)
    position.  A state with a black sensor has likelihood zero and is never
    accepted, so every committed state keeps all sensors white: an edit
    that changes the color of any sensor position stages nothing and
    returns -inf at once.
    """

    def __init__(self, col: Coloring, lasers: list[LaserObs],
                 sonars: list[SonarObs],
                 laser_params: LaserParams | None = None,
                 sonar_params: SonarParams | None = None):
        self.parts: list[_LaserBeams | _SonarCones] = []
        if lasers:
            self.parts.append(_LaserBeams(lasers, col, laser_params or LaserParams()))
        if sonars:
            self.parts.append(_SonarCones(sonars, sonar_params or SonarParams()))
        self.sx = np.concatenate([[], *(part.sx for part in self.parts)])
        self.sy = np.concatenate([[], *(part.sy for part in self.parts)])
        if bool(col.colors_at(self.sx, self.sy).any()):
            raise ValueError("every sensor position must start in free space")
        staged = self._evaluate(col, _every)
        zero = np.flatnonzero(np.concatenate([[], *(ll for _, _, ll, _ in staged)])
                              == -math.inf)
        if len(zero):
            raise ValueError(f"observation {zero[0]} starts with zero likelihood")
        for part, idx, ll, ext in staged:
            part.store(idx, ll, ext)
        self._total = _running_sum(*(part.ll for part in self.parts))
        self._staged: list | None = None
        self._staged_delta = 0.0

    # -- protocol ---------------------------------------------------------

    def log_likelihood(self) -> float:
        return self._total

    def delta_for_edit(self, col: Coloring, result) -> float:
        if len(changed_points(col, result, self.sx, self.sy)):
            return -math.inf
        segs = np.array(result.delta_segments, dtype=np.float64).reshape(-1, 4).T
        self._staged = self._evaluate(col, lambda part: part.touched(*segs))
        self._staged_delta = _running_sum(*(ll - part.ll[idx]
                                            for part, idx, ll, _ in self._staged))
        return self._staged_delta

    def commit(self) -> None:
        assert self._staged is not None
        for part, idx, ll, ext in self._staged:
            part.store(idx, ll, ext)
        self._total += self._staged_delta
        self._staged = None

    def rollback(self) -> None:
        self._staged = None

    # -- full recompute (oracle hook) -------------------------------------

    def recompute_total(self, col: Coloring) -> float:
        """From-scratch total log likelihood of the current coloring."""
        if bool(col.colors_at(self.sx, self.sy).any()):
            return -math.inf
        return _running_sum(*(ll for _, _, ll, _ in self._evaluate(col, _every)))

    # -- internals --------------------------------------------------------

    def _evaluate(self, col: Coloring, pick) -> list:
        """``(part, idx, ll, ext)`` of each part with observations to
        evaluate: the log likelihoods and extents of its observations
        ``idx = pick(part)`` (increasing), whose sensors are all free."""
        out = []
        for part in self.parts:
            idx = pick(part)
            if len(idx):
                out.append((part, idx, *part.evaluate(idx, col)))
        return out


def _every(part) -> np.ndarray:
    """Indices of all the part's observations."""
    return np.arange(len(part.ll))


def _running_sum(*arrays: np.ndarray) -> float:
    """``0.0 + a[0] + a[1] + ...`` over the arrays in turn, left to right,
    as a Python loop adds."""
    return float(np.cumsum(np.concatenate(([0.0], *arrays)))[-1])


# ---------------------------------------------------------------------------
# point-color observations


class PointColorLikelihood:
    """Likelihood-protocol adapter for Gaussian point-color observations."""

    def __init__(self, col: Coloring, observations: list[PointColorObs]):
        self.obs = list(observations)
        self.qx = np.array([o.x for o in self.obs], dtype=np.float64)
        self.qy = np.array([o.y for o in self.obs], dtype=np.float64)
        self.term_white = np.array(
            [-0.5 * ((o.value - o.mu_white) / o.sigma) ** 2 for o in self.obs])
        self.term_black = np.array(
            [-0.5 * ((o.value - o.mu_black) / o.sigma) ** 2 for o in self.obs])
        self.black = col.colors_at(self.qx, self.qy).astype(bool)
        self._total = float(np.where(self.black, self.term_black,
                                     self.term_white).sum())
        self._staged_idx: np.ndarray | None = None
        self._staged_delta = 0.0

    def log_likelihood(self) -> float:
        return self._total

    def delta_for_edit(self, col: Coloring, result) -> float:
        cand = changed_points(col, result, self.qx, self.qy)
        old = np.where(self.black[cand], self.term_black[cand], self.term_white[cand])
        new = np.where(self.black[cand], self.term_white[cand], self.term_black[cand])
        self._staged_idx = cand
        self._staged_delta = float((new - old).sum())
        return self._staged_delta

    def commit(self) -> None:
        assert self._staged_idx is not None
        self.black[self._staged_idx] ^= True
        self._total += self._staged_delta
        self._staged_idx = None

    def rollback(self) -> None:
        self._staged_idx = None


class CompositeLikelihood:
    """Sum of several likelihood components sharing one coloring; each
    part is staged, then committed or rolled back, with the composite."""

    def __init__(self, parts: list):
        self.parts = list(parts)

    def log_likelihood(self) -> float:
        return sum(p.log_likelihood() for p in self.parts)

    def delta_for_edit(self, col: Coloring, result) -> float:
        total = 0.0
        for part in self.parts:
            total += part.delta_for_edit(col, result)
        return total

    def commit(self) -> None:
        for p in self.parts:
            p.commit()

    def rollback(self) -> None:
        for p in self.parts:
            p.rollback()
