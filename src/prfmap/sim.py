"""Synthetic worlds, scan simulation, and map-quality metrics.

Ground-truth environments are polygonal colorings built from disjoint
rectangular walls inside a viewing window.  Scan simulation reuses the
observation models in :mod:`prfmap.sensors` generatively — readings are
drawn from exactly the mixtures the likelihoods evaluate — so the
inference problem posed to the chain is well specified by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sensors
from .coloring import BLACK, Coloring
from .geometry import Point2, Rect, cell_centers, point_segment_distance_batch
from .sensors import (
    Cones,
    LaserObs,
    LaserParams,
    PointColorObs,
    SonarObs,
    SonarParams,
    beam_caps,
    beam_directions,
    cast_beams,
    exclusive_returns,
)

# ---------------------------------------------------------------------------
# worlds


@dataclass(frozen=True)
class WorldSpec:
    """Named ground-truth layout. Supported: corridor, rooms, two_region."""
    name: str = "corridor"

    def __post_init__(self):
        if self.name not in WORLD_BUILDERS:
            raise ValueError(f"unknown world {self.name!r}; "
                             f"choose from {sorted(WORLD_BUILDERS)}")


def _corridor_layout() -> tuple[Rect, list[Rect]]:
    window = Rect(0.0, 0.0, 8.0, 6.0)
    walls = [
        Rect(0.5, 2.0, 7.5, 2.2),   # south wall
        Rect(0.5, 3.8, 7.5, 4.0),   # north wall
        Rect(0.5, 2.3, 0.7, 3.7),   # west cap
        Rect(7.3, 2.3, 7.5, 3.7),   # east cap
    ]
    return window, walls


def _rooms_layout() -> tuple[Rect, list[Rect]]:
    window = Rect(0.0, 0.0, 10.0, 7.0)
    walls = [
        # hallway south wall, doors at x in (2.6, 3.3) and (5.6, 6.3)
        Rect(0.5, 2.65, 2.6, 3.0),
        Rect(3.3, 2.65, 5.6, 3.0),
        Rect(6.3, 2.65, 9.5, 3.0),
        # hallway north wall, door at x in (4.1, 4.8)
        Rect(0.5, 4.2, 4.1, 4.55),
        Rect(4.8, 4.2, 9.5, 4.55),
        # divider between the two south rooms, and one in the north room
        Rect(4.3, 0.4, 4.65, 2.45),
        Rect(6.4, 4.75, 6.75, 6.6),
        # free-standing pillars (furniture) in the south rooms
        Rect(1.5, 0.6, 2.1, 1.2),
        Rect(7.9, 0.7, 8.5, 1.3),
    ]
    return window, walls


def _two_region_layout() -> tuple[Rect, list[Rect]]:
    window = Rect(0.0, 0.0, 1.0, 1.0)
    return window, [Rect(0.08, 0.08, 0.5, 0.92)]


WORLD_BUILDERS = {
    "corridor": _corridor_layout,
    "rooms": _rooms_layout,
    "two_region": _two_region_layout,
}


def make_world(spec: WorldSpec, cell_size: float = 0.25) -> Coloring:
    """Ground-truth coloring for a named layout (validated on build)."""
    window, walls = WORLD_BUILDERS[spec.name]()
    col = Coloring.from_rectangles(window, walls, cell_size=cell_size)
    col.validate()
    return col


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class LaserScanSpec:
    """A planar scan: n_beams spread evenly across fov around the heading."""
    n_beams: int = 180
    fov: float = math.pi
    max_range: float = 8.0

    def bearings(self) -> np.ndarray:
        if self.n_beams == 1:
            return np.zeros(1)
        return np.linspace(-self.fov / 2.0, self.fov / 2.0, self.n_beams)


@dataclass(frozen=True)
class SonarRingSpec:
    """A ring of transducers at evenly spaced bearings around the robot."""
    n_transducers: int = 16
    half_angle: float = math.radians(10.0)
    max_range: float = 3.5

    def bearings(self) -> np.ndarray:
        return np.arange(self.n_transducers) * (2.0 * math.pi / self.n_transducers)


@dataclass(frozen=True)
class TrajectorySpec:
    """Waypoint polyline sampled every ``spacing`` meters of arc length.

    Pose headings follow the local direction of travel.
    """
    waypoints: tuple[tuple[float, float], ...]
    spacing: float = 0.4

    def poses(self) -> list[tuple[float, float, float]]:
        pts = [Point2(x, y) for x, y in self.waypoints]
        if len(pts) < 2:
            raise ValueError("need at least two waypoints")
        out = []
        carry = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            dx, dy = b.x - a.x, b.y - a.y
            L = math.hypot(dx, dy)
            if L == 0.0:
                continue
            heading = math.atan2(dy, dx)
            s = carry
            while s <= L + 1e-12:
                t = s / L
                out.append((a.x + t * dx, a.y + t * dy, heading))
                s += self.spacing
            carry = s - L
        return out


def corridor_trajectories(spacing: float = 1.2) -> list[TrajectorySpec]:
    """Both sides of the corridor walls: the inside pass and an outside loop.

    Observing a wall from one side only leaves its far extent unconstrained,
    and the prior then extends black space arbitrarily far behind it; the
    outside loop pins the backs of the walls the way a real mapping run
    would by circling the structure.
    """
    inside = TrajectorySpec(((1.2, 3.0), (6.8, 3.0), (1.2, 3.0)), spacing)
    loop = TrajectorySpec(((0.25, 1.0), (7.75, 1.0), (7.75, 5.0),
                           (0.25, 5.0), (0.25, 1.0)), spacing)
    return [inside, loop]


def rooms_trajectory(spacing: float = 0.25) -> TrajectorySpec:
    """Hallway sweep with excursions through each doorway.

    The south-room excursions dip below the pillars so that every pillar
    face gets observed; unobserved back sides would otherwise leave their
    extent unconstrained.
    """
    return TrajectorySpec((
        (1.0, 3.6),
        (2.95, 3.6), (2.95, 1.5), (1.2, 1.5), (1.2, 0.3), (3.9, 0.3),
        (3.9, 1.5), (2.95, 1.5), (2.95, 3.6),
        (4.45, 3.6), (4.45, 5.6), (2.3, 5.6), (4.45, 5.6), (4.45, 3.6),
        (5.95, 3.6), (5.95, 1.5), (7.1, 1.5), (7.1, 0.3), (9.3, 0.3),
        (9.3, 1.6), (7.1, 1.6), (7.1, 1.5), (5.95, 1.5), (5.95, 3.6),
        (9.0, 3.6),
    ), spacing)


def world_trajectories(name: str) -> list[TrajectorySpec]:
    """The standard scan campaign for a named world."""
    if name == "corridor":
        return corridor_trajectories()
    if name == "rooms":
        return [rooms_trajectory()]
    if name == "two_region":
        return []
    raise ValueError(f"unknown world {name!r}")


# ---------------------------------------------------------------------------
# scan simulation


def simulate_laser_scan(col: Coloring, x: float, y: float, heading: float,
                        spec: LaserScanSpec, params: LaserParams,
                        rng: np.random.Generator) -> list[LaserObs]:
    """One reading per bearing; the beams are cast in one ``cast_beams`` pass
    and the readings drawn in bearing order (:func:`_draw_laser_obs`)."""
    _free_pose(col, x, y, "laser")
    bearings = spec.bearings()
    sx, sy = (np.full(len(bearings), v, dtype=np.float64) for v in (x, y))
    dirx, diry = beam_directions(heading + bearings)
    caps = beam_caps(col.window, sx, sy, dirx, diry, spec.max_range)
    d_star, _ = cast_beams(col, sx, sy, dirx, diry, caps)
    return [_draw_laser_obs(x, y, heading, b, d, spec, params, rng)
            for b, d in zip(bearings, d_star.tolist())]


def _free_pose(col: Coloring, x: float, y: float, sensor: str) -> Point2:
    origin = Point2(x, y)
    if col.color_at(origin) == BLACK:
        raise ValueError(f"{sensor} pose ({x}, {y}) is in occupied space")
    return origin


def _draw_laser_obs(x: float, y: float, heading: float, bearing: float,
                    d_star: float, spec: LaserScanSpec, params: LaserParams,
                    rng: np.random.Generator) -> LaserObs:
    """A reading drawn from the laser mixture around the true distance."""
    u = rng.random()
    if u < params.w_maxrange:
        return LaserObs(x, y, heading, bearing, spec.max_range, spec.max_range, True)
    if u < params.w_maxrange + params.w_uniform:
        r = rng.random() * spec.max_range
        while r <= 0.0:
            r = rng.random() * spec.max_range
        return LaserObs(x, y, heading, bearing, r, spec.max_range, False)
    sigma = params.sigma(d_star)
    r = d_star + sigma * rng.standard_normal()
    while r <= 0.0:
        r = d_star + sigma * rng.standard_normal()
    if r >= spec.max_range:
        return LaserObs(x, y, heading, bearing, spec.max_range, spec.max_range, True)
    return LaserObs(x, y, heading, bearing, r, spec.max_range, False)


def _draw_truncated_exponential(rate: float, max_range: float,
                                rng: np.random.Generator) -> float:
    u = rng.random()
    r = -math.log1p(-u * -math.expm1(-rate * max_range)) / rate
    return min(max(r, 1e-12), max_range)


def _draw_sonar_obs(x: float, y: float, heading: float, bearing: float,
                    depth: list[float], returns: list[float], spec: SonarRingSpec,
                    params: SonarParams, rng: np.random.Generator) -> SonarObs:
    """A reading drawn from the sonar mixture: feature k of the cone, at
    ``depth[k]`` in depth order, returns with its exclusive return
    probability ``returns[k]``; with the rest, the outlier component does."""
    u = rng.random()
    acc = 0.0
    for d, rf in zip(depth, returns):
        acc += rf
        if u < acc:
            r = d + params.sigma * rng.standard_normal()
            while r <= 0.0:
                r = d + params.sigma * rng.standard_normal()
            if r >= spec.max_range:
                return SonarObs(x, y, heading, bearing, spec.half_angle,
                                spec.max_range, spec.max_range, True)
            return SonarObs(x, y, heading, bearing, spec.half_angle,
                            r, spec.max_range, False)
    # outlier component
    v = rng.random()
    if v < params.w_maxrange:
        return SonarObs(x, y, heading, bearing, spec.half_angle,
                        spec.max_range, spec.max_range, True)
    if v < params.w_maxrange + params.w_uniform:
        r = rng.random() * spec.max_range
        while r <= 0.0:
            r = rng.random() * spec.max_range
        return SonarObs(x, y, heading, bearing, spec.half_angle,
                        r, spec.max_range, False)
    r = _draw_truncated_exponential(params.outlier_rate, spec.max_range, rng)
    return SonarObs(x, y, heading, bearing, spec.half_angle,
                    r, spec.max_range, False)


def simulate_sonar_ring(col: Coloring, x: float, y: float, heading: float,
                        spec: SonarRingSpec, params: SonarParams,
                        rng: np.random.Generator) -> list[SonarObs]:
    """One reading per transducer; the ring's cones are swept in one
    :func:`sensors.visibility_sweep` call and the readings drawn in bearing
    order (:func:`_draw_sonar_obs`)."""
    _free_pose(col, x, y, "sonar")
    bearings = spec.bearings()
    n = len(bearings)
    cones = Cones(np.full(n, x), np.full(n, y), heading + bearings,
                  np.full(n, spec.half_angle), np.full(n, spec.max_range))
    # looked up on the module, so that a wrapper set there sees the sweep
    f = sensors.visibility_sweep(cones, np.arange(n), col)
    returns = exclusive_returns(f, n, params)[0].tolist()
    depth = f.depth.tolist()
    ends = np.cumsum(np.bincount(f.c, minlength=n)).tolist()
    return [_draw_sonar_obs(x, y, heading, b, depth[lo:hi], returns[lo:hi], spec,
                            params, rng)
            for b, lo, hi in zip(bearings, [0, *ends], ends)]


def simulate_trajectory(col: Coloring, traj: TrajectorySpec,
                        laser: LaserScanSpec | None = None,
                        sonar: SonarRingSpec | None = None,
                        laser_params: LaserParams | None = None,
                        sonar_params: SonarParams | None = None,
                        rng: np.random.Generator | None = None):
    """(laser observations, sonar observations, poses) along a trajectory."""
    if rng is None:
        rng = np.random.default_rng()
    if laser_params is None:
        laser_params = LaserParams()
    if sonar_params is None:
        sonar_params = SonarParams()
    lasers: list[LaserObs] = []
    sonars: list[SonarObs] = []
    poses = traj.poses()
    for t, (x, y, heading) in enumerate(poses):
        if laser is not None:
            lasers.extend(replace(o, t=float(t)) for o in
                          simulate_laser_scan(col, x, y, heading, laser,
                                              laser_params, rng))
        if sonar is not None:
            sonars.extend(replace(o, t=float(t)) for o in
                          simulate_sonar_ring(col, x, y, heading, sonar,
                                              sonar_params, rng))
    return lasers, sonars, poses


def simulate_point_grid(col: Coloring, nx: int, ny: int, mu_black: float,
                        mu_white: float, sigma: float,
                        rng: np.random.Generator,
                        margin: float = 0.02) -> list[PointColorObs]:
    """Noisy color readings on a regular point grid inside the window."""
    w = col.window
    xs = np.linspace(w.xmin + margin, w.xmax - margin, nx)
    ys = np.linspace(w.ymin + margin, w.ymax - margin, ny)
    out = []
    for y in ys:
        for x in xs:
            mu = mu_black if col.color_at(Point2(x, y)) == BLACK else mu_white
            out.append(PointColorObs(float(x), float(y),
                                     float(mu + sigma * rng.standard_normal()),
                                     mu_black, mu_white, sigma))
    return out


# ---------------------------------------------------------------------------
# metrics


def truth_raster(col: Coloring, grid) -> np.ndarray:
    """Boolean (ny, nx) array: cell center is black."""
    cx, cy = cell_centers(grid)
    return col.colors_at(cx.ravel(), cy.ravel()).reshape(cx.shape).astype(bool)


def near_edge_mask(col: Coloring, grid, radius: float | None = None) -> np.ndarray:
    """Cells whose center lies within ``radius`` of a ground-truth edge.

    These straddle a color boundary, so their "true" color is ambiguous at
    the raster resolution; accuracy scoring excludes them.  Default radius
    is half a cell.
    """
    if radius is None:
        radius = grid.cell_size / 2.0
    cx, cy = cell_centers(grid)
    mask = np.zeros(cx.shape, dtype=bool)
    for eid in col.edges:
        seg = col.segment_of(eid)
        x0 = min(seg.a.x, seg.b.x) - radius
        x1 = max(seg.a.x, seg.b.x) + radius
        y0 = min(seg.a.y, seg.b.y) - radius
        y1 = max(seg.a.y, seg.b.y) + radius
        box = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
        if not box.any():
            continue
        sel = np.nonzero(box)
        d = point_segment_distance_batch(cx[sel], cy[sel], *seg.a, *seg.b)
        hit = d <= radius
        mask[sel[0][hit], sel[1][hit]] = True
    return mask


def classification_accuracy(prob_black: np.ndarray, truth: Coloring, grid,
                            threshold: float = 0.5,
                            exclude: np.ndarray | None = None) -> float:
    """Fraction of unambiguous cells whose thresholded estimate is correct.

    A cell is classified occupied when its estimate strictly exceeds the
    threshold (ties break to free).  ``exclude`` defaults to the cells
    within half a cell of a ground-truth edge.
    """
    if prob_black.shape != (grid.ny, grid.nx):
        raise ValueError(f"raster shape {prob_black.shape} does not match grid "
                         f"({grid.ny}, {grid.nx})")
    truth_black = truth_raster(truth, grid)
    if exclude is None:
        exclude = near_edge_mask(truth, grid)
    keep = ~exclude
    pred_black = prob_black > threshold
    agree = pred_black == truth_black
    return float(agree[keep].mean())
