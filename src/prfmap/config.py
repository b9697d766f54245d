"""Flat key=value run configuration with strict key checking.

One option per line, ``key = value`` (the ``=`` is optional), ``#``
comments allowed.  Unknown keys are errors naming the line; every option
has a default, so an empty file is a valid configuration.  The same keys
are exposed as command-line flags by the CLI, and flags take precedence
over the file.  ``config_from_env_or_default()`` honors the
``PRFMAP_CONFIG`` environment variable as a default file path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import get_type_hints

from .baseline import BaselineParams
from .moves import INVERSE_KIND, KIND_ORDER, MoveParams, default_weights
from .prior import PriorParams
from .sensors import LaserParams, SonarParams

ENV_CONFIG_PATH = "PRFMAP_CONFIG"
_W = default_weights()  # the defaults of RunConfig.weight_*
_POSITIVE = ("p", "cell_size", "index_cell_size", "temperature", "t_start", "t_end",
             "relocate_radius", "boundary_slide_delta", "kink_area",
             "sim_cell_size", "laser_max_range", "sonar_max_range", "point_sigma")


@dataclass
class RunConfig:
    """Every tunable across chain, sensors, baseline, and simulation."""

    # prior
    p: float = 0.1

    # chain
    seed: int = 0
    proposals: int = 2_000_000
    burn_in: int = 200_000
    sample_every: int = 1_000
    chains: int = 1
    temperature: float = 1.0
    anneal_proposals: int = 1_000_000
    t_start: float = 1.0
    t_end: float = 0.01

    # rasters and spatial indexing
    cell_size: float = 0.05
    index_cell_size: float = 0.5

    # proposal distribution
    relocate_radius: float = 0.25
    boundary_slide_delta: float = 0.25
    kink_area: float = 0.25
    weight_triangle_birth: float = _W["triangle_birth"]
    weight_triangle_death: float = _W["triangle_death"]
    weight_wedge_birth: float = _W["wedge_birth"]
    weight_wedge_death: float = _W["wedge_death"]
    weight_chord_birth: float = _W["chord_birth"]
    weight_chord_death: float = _W["chord_death"]
    weight_kink_birth: float = _W["kink_birth"]
    weight_kink_death: float = _W["kink_death"]
    weight_relocate: float = _W["relocate"]
    weight_boundary_slide: float = _W["boundary_slide"]
    weight_edge_slide: float = _W["edge_slide"]
    weight_recolor_pair: float = _W["recolor_pair"]
    weight_recolor_local: float = _W["recolor_local"]

    # laser observation model
    laser_sigma_frac: float = 0.01
    laser_sigma_floor: float = 0.01
    laser_w_gauss: float = 0.9
    laser_w_uniform: float = 0.05
    laser_w_maxrange: float = 0.05

    # sonar observation model
    sonar_corner_intercept: float = 0.8
    sonar_corner_distance_slope: float = -0.8
    sonar_face_intercept: float = -1.543
    sonar_face_distance_slope: float = -0.8
    sonar_face_projection_slope: float = 2.81
    sonar_face_subtended_slope: float = 5.0
    sonar_sigma: float = 0.03
    sonar_w_uniform: float = 0.3
    sonar_w_exponential: float = 0.3
    sonar_w_maxrange: float = 0.4
    sonar_outlier_rate: float = 1.0

    # occupancy-grid baseline
    baseline_laser_occupied: float = 0.4
    baseline_laser_free: float = 0.4
    baseline_sonar_occupied: float = 0.15
    baseline_sonar_free: float = 0.15
    baseline_sonar_arc_halfwidth: float = 0.05

    # simulation
    world: str = "corridor"
    sim_seed: int = 42
    sim_cell_size: float = 0.25
    sim_sensors: str = "auto"
    laser_beams: int = 180
    laser_fov: float = math.pi
    laser_max_range: float = 8.0
    sonar_transducers: int = 16
    sonar_half_angle: float = math.radians(10.0)
    sonar_max_range: float = 3.5
    point_grid_nx: int = 25
    point_grid_ny: int = 25
    point_mu_black: float = 1.0
    point_mu_white: float = 0.0
    point_sigma: float = 0.3

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for name in _POSITIVE:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("proposals", "burn_in", "sample_every", "anneal_proposals",
                     "baseline_sonar_arc_halfwidth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        for name in ("chains", "laser_beams", "sonar_transducers",
                     "point_grid_nx", "point_grid_ny"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0.0 < self.sonar_half_angle < math.pi / 2:
            raise ValueError(f"sonar_half_angle must be in (0, pi/2), "
                             f"got {self.sonar_half_angle!r}")
        weights = self.move_weights()
        if any(w < 0.0 for w in weights.values()):
            raise ValueError("move weights must be nonnegative")
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"move weights must sum to 1, got {total!r}")
        for kind, inverse in INVERSE_KIND.items():
            if abs(weights[kind] - weights[inverse]) > 1e-12:
                raise ValueError(f"weights for {kind} and {inverse} must be "
                                 "equal (inverse move pair)")
        if self.sim_sensors not in ("auto", "laser", "sonar", "both"):
            raise ValueError(f"sim_sensors must be auto|laser|sonar|both, "
                             f"got {self.sim_sensors!r}")
        # delegate range checks on sensor weights to the param constructors
        self.laser_params()
        self.sonar_params()

    # -- views ----------------------------------------------------------
    def prior_params(self) -> PriorParams:
        return PriorParams(intensity=self.p)

    def move_weights(self) -> dict[str, float]:
        return {k: getattr(self, f"weight_{k}") for k in KIND_ORDER}

    def move_params(self) -> MoveParams:
        return MoveParams(relocate_radius=self.relocate_radius,
                          boundary_slide_delta=self.boundary_slide_delta,
                          kink_area=self.kink_area,
                          weights=self.move_weights())

    def laser_params(self) -> LaserParams:
        return LaserParams(sigma_frac=self.laser_sigma_frac,
                           sigma_floor=self.laser_sigma_floor,
                           w_gauss=self.laser_w_gauss,
                           w_uniform=self.laser_w_uniform,
                           w_maxrange=self.laser_w_maxrange)

    def sonar_params(self) -> SonarParams:
        return SonarParams(
            corner_intercept=self.sonar_corner_intercept,
            corner_distance_slope=self.sonar_corner_distance_slope,
            face_intercept=self.sonar_face_intercept,
            face_distance_slope=self.sonar_face_distance_slope,
            face_projection_slope=self.sonar_face_projection_slope,
            face_subtended_slope=self.sonar_face_subtended_slope,
            sigma=self.sonar_sigma,
            w_uniform=self.sonar_w_uniform,
            w_exponential=self.sonar_w_exponential,
            w_maxrange=self.sonar_w_maxrange,
            outlier_rate=self.sonar_outlier_rate)

    def baseline_params(self) -> BaselineParams:
        return BaselineParams(
            laser_occupied=self.baseline_laser_occupied,
            laser_free=self.baseline_laser_free,
            sonar_occupied=self.baseline_sonar_occupied,
            sonar_free=self.baseline_sonar_free,
            sonar_arc_halfwidth=self.baseline_sonar_arc_halfwidth)


_TYPES: dict[str, type] = {
    f.name: t for f, t in
    ((f, get_type_hints(RunConfig)[f.name]) for f in fields(RunConfig))
}


def config_keys() -> list[str]:
    return [f.name for f in fields(RunConfig)]


def convert_value(key: str, raw: str, where: str = "") -> object:
    """Parse a raw string for a known key.

    Raises ValueError, prefixed with ``where``, on bad input; floats must be
    finite.
    """
    prefix = f"{where}: " if where else ""
    if key not in _TYPES:
        raise ValueError(f"{prefix}unknown option {key!r}")
    target = _TYPES[key]
    raw = raw.strip()
    try:
        if target is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if target is int:
            return int(raw)
        if target is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        return raw
    except ValueError as exc:
        expected = "finite float" if target is float else target.__name__
        raise ValueError(f"{prefix}bad value {raw!r} for {key} "
                         f"(expected {expected})") from exc


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'key = value', "
                                 f"got {line!r}")
            key, val = parts
        key = key.strip()
        setattr(cfg, key, convert_value(key, val, where=f"line {lineno}"))
    cfg.validate()
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        rep = repr(v) if isinstance(v, float) else str(v)
        lines.append(f"{f.name} = {rep}")
    return "\n".join(lines) + "\n"


def read_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base=base)


def config_from_env_or_default() -> RunConfig:
    """RunConfig from $PRFMAP_CONFIG when set, else library defaults."""
    path = os.environ.get(ENV_CONFIG_PATH)
    if path:
        return read_config(path)
    return RunConfig()
