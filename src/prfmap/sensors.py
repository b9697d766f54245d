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
(black) space.

:class:`ObservationCache` binds a set of laser and sonar observations to a
chain: it keeps every observation's log likelihood cached together with its
current *sensitivity extent* (beam up to the impact point; cone up to the
farthest contact), and on each proposed edit recomputes only the
observations whose extent the edit touches or whose sensor position changed
color.  It keeps no cell index: each changed segment is tested against every
beam, and against every cone, in one vectorised pass per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import BLACK, Coloring, changed_points
from .geometry import (
    ZERO_WIDTH_FACE_TOL,
    Cone,
    Point2,
    Segment,
    VisibleFeature,
    grid_trace_segment,  # noqa: F401  (unused; perfbench/layers.py patches this name)
    point_segment_distance_batch,
    ray_rect_exit,
    unit_vector,
    visibility_sweep,
)
from .grid_index import cone_cells

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
        if not (0.0 < self.half_angle < math.pi / 2):
            raise ValueError("sonar half_angle must be in (0, pi/2)")


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

    def independent_return_probability(self, f: VisibleFeature) -> float:
        if f.kind == "corner":
            g = self.corner_intercept + self.corner_distance_slope * f.depth
        else:
            g = (self.face_intercept
                 + self.face_distance_slope * f.depth
                 + self.face_projection_slope * f.projection_angle
                 + self.face_subtended_slope * f.subtended_angle)
        return 1.0 / (1.0 + math.exp(-g))


# ---------------------------------------------------------------------------
# scalar density helpers


def _gauss_pdf(x: float, mu: float, sigma: float) -> float:
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def beam_direction(heading: float, bearing: float) -> tuple[float, float]:
    return unit_vector(heading + bearing)


def laser_true_distance(col: Coloring, origin: Point2,
                        direction: tuple[float, float],
                        max_range: float) -> tuple[float, int | None]:
    """Predicted impact distance for a beam and the edge hit, if any.

    The beam is cast against the coloring's edges; with no hit the window
    exit distance stands in, capped at ``max_range`` (the window boundary
    itself is a viewing frame, not an obstacle).
    """
    exit_cap = min(ray_rect_exit(origin, direction, col.window), max_range)
    hit = col.index.ray_cast(origin, direction, exit_cap, col.segment_of)
    if hit is None:
        return exit_cap, None
    return hit[0], hit[1]


def laser_log_likelihood(o: LaserObs, col: Coloring, p: LaserParams) -> float:
    origin = Point2(o.x, o.y)
    if col.color_at(origin) == BLACK:
        return -math.inf
    d_star, _ = laser_true_distance(col, origin, beam_direction(o.heading, o.bearing),
                                    o.max_range)
    return _laser_density_log(o.range, o.is_max_range, d_star, o.max_range, p)


def _laser_density_log(r: float, flagged: bool, d_star: float,
                       max_range: float, p: LaserParams) -> float:
    dens = (p.w_gauss * _gauss_pdf(r, d_star, p.sigma(d_star))
            + p.w_uniform / max_range)
    if flagged:
        dens += p.w_maxrange
    return math.log(dens)


# ---------------------------------------------------------------------------
# sonar model


def sonar_cone(o: SonarObs) -> Cone:
    return Cone(Point2(o.x, o.y), o.heading + o.bearing, o.half_angle, o.max_range)


def _candidate_segments(col: Coloring, cells) -> list[tuple[int, Segment]]:
    return [(eid, col.segment_of(eid)) for eid in sorted(col.index.edges_in_cells(cells))]


def return_probabilities(features: list[VisibleFeature],
                         params: SonarParams) -> list[tuple[VisibleFeature, float, float]]:
    """Attach (independent q, exclusive r) to depth-sorted features.

    The exclusive return probability discounts each feature by the chance
    that no *closer* feature already produced the return:
    ``r_f = q_f * prod_(g closer) (1 - r_g)``, so the r values always sum
    to at most 1.
    """
    out = []
    none_closer = 1.0
    for f in features:
        q = params.independent_return_probability(f)
        r = q * none_closer
        none_closer *= 1.0 - q
        out.append((f, q, r))
    return out


def sonar_features(o: SonarObs, col: Coloring,
                   params: SonarParams) -> list[tuple[VisibleFeature, float, float]]:
    """Visible features in the cone with their return probabilities."""
    cone = sonar_cone(o)
    cells = cone_cells(col.grid, cone.apex, cone.heading, cone.half_angle,
                       cone.max_range)
    feats = visibility_sweep(_candidate_segments(col, cells), cone)
    return return_probabilities(feats, params)


def _sonar_density_log(r: float, flagged: bool,
                       triples: list[tuple[VisibleFeature, float, float]],
                       max_range: float, p: SonarParams) -> float:
    dens = 0.0
    total_r = 0.0
    for f, _, rf in triples:
        dens += rf * _gauss_pdf(r, f.depth, p.sigma)
        total_r += rf
    outlier = p.w_uniform / max_range
    rate = p.outlier_rate
    outlier += (p.w_exponential * rate * math.exp(-rate * r)
                / -math.expm1(-rate * max_range))
    if flagged:
        outlier += p.w_maxrange
    dens += (1.0 - total_r) * outlier
    return math.log(dens) if dens > 0.0 else -math.inf


def sonar_log_likelihood(o: SonarObs, col: Coloring, p: SonarParams) -> float:
    if col.color_at(Point2(o.x, o.y)) == BLACK:
        return -math.inf
    triples = sonar_features(o, col, p)
    return _sonar_density_log(o.range, o.is_max_range, triples, o.max_range, p)


# ---------------------------------------------------------------------------
# sensitivity extents

# Tolerance for "the edit touches this extent": changed segments within
# this distance of a beam, or protruding this far into a cone, trigger a
# recompute.  It only needs to absorb floating-point slack (an impact point
# reconstructed from a ray parameter sits within ~1e-12 of its edge).
_TOUCH_EPS = 1e-9


def _seg_batch_min_dist(ax, ay, bx, by, seg: Segment) -> np.ndarray:
    """Min distance between segments (a[i], b[i]) and a fixed segment."""
    sax, say = seg.a
    sbx, sby = seg.b

    def orient(ox, oy, px_, py_, qx, qy):
        return (px_ - ox) * (qy - oy) - (py_ - oy) * (qx - ox)

    d1 = orient(sax, say, sbx, sby, ax, ay)
    d2 = orient(sax, say, sbx, sby, bx, by)
    d3 = orient(ax, ay, bx, by, np.float64(sax), np.float64(say))
    d4 = orient(ax, ay, bx, by, np.float64(sbx), np.float64(sby))
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
        & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    d = np.minimum(
        np.minimum(point_segment_distance_batch(ax, ay, sax, say, sbx, sby),
                   point_segment_distance_batch(bx, by, sax, say, sbx, sby)),
        np.minimum(point_segment_distance_batch(sax, say, ax, ay, bx, by),
                   point_segment_distance_batch(sbx, sby, ax, ay, bx, by)))
    d[proper] = 0.0
    return d


def _wedge_clip_distance(px, py, ulox, uloy, uhix, uhiy, seg: Segment) -> np.ndarray:
    """Apex distance of the piece of seg inside each wedge; inf if none.

    Wedge i has apex (px[i], py[i]) and bounding unit vectors u_lo[i],
    u_hi[i].  This is :func:`geometry._clip_to_wedge` followed by the
    apex-to-piece distance that :func:`visibility_sweep` compares with the
    range, done with the same float operations over all wedges at once.
    """
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    t0 = np.zeros(len(px))
    t1 = np.ones(len(px))
    inside = np.ones(len(px), dtype=bool)
    # cross(u_lo, p - apex) >= 0  and  cross(u_hi, p - apex) <= 0
    for ux, uy, sign in ((ulox, uloy, 1.0), (uhix, uhiy, -1.0)):
        want = sign * (ux * (ay - py) - uy * (ax - px))
        srate = sign * (ux * dy - uy * dx)
        with np.errstate(divide="ignore", invalid="ignore"):
            tcut = -want / srate
        t0 = np.where(srate > 0.0, np.maximum(t0, tcut), t0)
        t1 = np.where(srate < 0.0, np.minimum(t1, tcut), t1)
        inside &= (srate != 0.0) | (want >= 0.0)
    inside &= t0 <= t1
    d = point_segment_distance_batch(px, py, ax + t0 * dx, ay + t0 * dy,
                                     ax + t1 * dx, ay + t1 * dy)
    return np.where(inside, d, np.inf)


# ---------------------------------------------------------------------------
# the incremental observation cache


class ObservationCache:
    """Caches per-observation log likelihoods and sensitivity extents.

    Implements the chain's Likelihood protocol: ``delta_for_edit`` stages
    recomputes for the observations an applied edit could affect — beams
    whose ``[sensor, impact]`` segment lies within ``_TOUCH_EPS`` of a
    changed segment, cones whose wedge holds a piece of a changed segment
    within ``_TOUCH_EPS`` of the truncated radius, plus every observation
    whose sensor position changed color — and ``commit``/``rollback``
    finalize or discard the staging.  No cell index is kept: each family is
    tested against every changed segment in one numpy pass.  The
    construction-time coloring must give every sensor a free (white)
    position.
    """

    def __init__(self, col: Coloring, lasers: list[LaserObs],
                 sonars: list[SonarObs],
                 laser_params: LaserParams | None = None,
                 sonar_params: SonarParams | None = None):
        self.lp = laser_params if laser_params is not None else LaserParams()
        self.sp = sonar_params if sonar_params is not None else SonarParams()
        self.grid = col.grid
        self.obs: list[LaserObs | SonarObs] = list(lasers) + list(sonars)
        n = len(self.obs)
        self.n_laser = len(lasers)
        self.sx = np.array([o.x for o in self.obs], dtype=np.float64)
        self.sy = np.array([o.y for o in self.obs], dtype=np.float64)
        self.sensor_black = np.zeros(n, dtype=bool)
        self.ll = np.zeros(n, dtype=np.float64)

        # laser geometry
        self.dirx = np.zeros(n)
        self.diry = np.zeros(n)
        self.exit_cap = np.zeros(n)
        self.impact_x = np.zeros(n)
        self.impact_y = np.zeros(n)
        for i, o in enumerate(lasers):
            ux, uy = beam_direction(o.heading, o.bearing)
            self.dirx[i], self.diry[i] = ux, uy
            self.exit_cap[i] = min(ray_rect_exit(Point2(o.x, o.y), (ux, uy), col.window),
                                   o.max_range)

        # sonar geometry: fixed wedge vectors plus full-range cell scans
        self.ulox = np.zeros(n)
        self.uloy = np.zeros(n)
        self.uhix = np.zeros(n)
        self.uhiy = np.zeros(n)
        self.trunc_radius = np.zeros(n)
        self._full_cells: list[list[tuple[int, int]] | None] = [None] * n
        for j, o in enumerate(sonars):
            i = self.n_laser + j
            c = sonar_cone(o)
            self.ulox[i], self.uloy[i] = unit_vector(c.heading - c.half_angle)
            self.uhix[i], self.uhiy[i] = unit_vector(c.heading + c.half_angle)
            self._full_cells[i] = cone_cells(self.grid, c.apex, c.heading,
                                             c.half_angle, c.max_range)

        if bool(col.colors_at(self.sx, self.sy).any()):
            raise ValueError("every sensor position must start in free space")
        for i in range(n):
            ll, ext = self._evaluate(i, col, False)
            if ll == -math.inf:
                raise ValueError(f"observation {i} starts with zero likelihood")
            self.ll[i] = ll
            self._set_extent(i, ext)
        self._total = float(self.ll.sum())
        self._staged: list[tuple[int, float, float]] | None = None
        self._staged_flips: np.ndarray | None = None
        self._staged_delta = 0.0

    # -- protocol ---------------------------------------------------------

    def log_likelihood(self) -> float:
        return self._total

    def delta_for_edit(self, col: Coloring, result) -> float | None:
        delta_segs = result.delta_segments
        flipped = changed_points(col, result, self.sx, self.sy)
        touched = self._touched_observations(delta_segs)
        affected = np.union1d(flipped, touched) if len(flipped) else touched
        flipset = set(int(i) for i in flipped)
        staged = []
        delta = 0.0
        for i in affected:
            i = int(i)
            ll, ext = self._evaluate(i, col, i in flipset)
            staged.append((i, ll, ext))
            delta += ll - self.ll[i]
        self._staged = staged
        self._staged_flips = flipped
        self._staged_delta = delta
        return delta

    def commit(self) -> None:
        assert self._staged is not None
        for i, ll, ext in self._staged:
            self.ll[i] = ll
            self._set_extent(i, ext)
        if len(self._staged_flips):
            self.sensor_black[self._staged_flips] ^= True
        self._total += self._staged_delta
        self._staged = None
        self._staged_flips = None

    def rollback(self) -> None:
        self._staged = None
        self._staged_flips = None

    # -- full recompute (oracle hook) -------------------------------------

    def recompute_total(self, col: Coloring) -> float:
        """From-scratch total log likelihood of the current coloring."""
        total = 0.0
        for i, o in enumerate(self.obs):
            if i < self.n_laser:
                total += laser_log_likelihood(o, col, self.lp)
            else:
                total += sonar_log_likelihood(o, col, self.sp)
        return total

    # -- internals --------------------------------------------------------

    def _touched_observations(self, delta_segs) -> np.ndarray:
        nl = self.n_laser
        hit = np.zeros(len(self.obs), dtype=bool)
        beams, cones = hit[:nl], hit[nl:]
        for seg in delta_segs:
            if nl:
                d = _seg_batch_min_dist(self.sx[:nl], self.sy[:nl],
                                        self.impact_x[:nl], self.impact_y[:nl], seg)
                beams |= d <= _TOUCH_EPS
            if len(cones):
                d = _wedge_clip_distance(self.sx[nl:], self.sy[nl:], self.ulox[nl:],
                                         self.uloy[nl:], self.uhix[nl:], self.uhiy[nl:], seg)
                cones |= d <= self.trunc_radius[nl:] + _TOUCH_EPS
        return np.flatnonzero(hit)

    def _evaluate(self, i: int, col: Coloring, color_flipped: bool):
        """(log likelihood, new extent scalar) for observation i on col."""
        o = self.obs[i]
        black = bool(self.sensor_black[i]) ^ color_flipped
        if i < self.n_laser:
            if black:
                return -math.inf, 0.0
            origin = Point2(o.x, o.y)
            exit_cap = self.exit_cap[i]
            hit = col.index.ray_cast(origin, (self.dirx[i], self.diry[i]),
                                     exit_cap, col.segment_of)
            d_star = exit_cap if hit is None else hit[0]
            ll = _laser_density_log(o.range, o.is_max_range, d_star,
                                    o.max_range, self.lp)
            return ll, d_star
        if black:
            return -math.inf, o.max_range
        cone = sonar_cone(o)
        feats = visibility_sweep(_candidate_segments(col, self._full_cells[i]), cone)
        triples = return_probabilities(feats, self.sp)
        ll = _sonar_density_log(o.range, o.is_max_range, triples,
                                o.max_range, self.sp)
        radius = _sweep_contact_radius_points(triples, cone)
        return ll, radius

    def _set_extent(self, i: int, ext: float) -> None:
        if i < self.n_laser:
            self.impact_x[i] = self.sx[i] + ext * self.dirx[i]
            self.impact_y[i] = self.sy[i] + ext * self.diry[i]
        else:
            self.trunc_radius[i] = ext


def _sweep_contact_radius_points(triples, cone: Cone) -> float:
    """Sensitivity radius of a cone given its visible features.

    Full angular coverage by faces bounds sensitivity at the farthest
    visible point; any gap leaves it at max range.  The gap tolerance must
    not exceed the width below which the sweep suppresses faces: a crack
    wider than the suppression threshold can host a reportable face, so it
    must force max-range sensitivity.
    """
    tol = ZERO_WIDTH_FACE_TOL
    intervals = sorted((f.angle_lo, f.angle_hi) for f, _, _ in triples
                       if f.kind == "face")
    reach = -cone.half_angle
    for lo, hi in intervals:
        if lo > reach + tol:
            return cone.max_range
        reach = max(reach, hi)
    if reach < cone.half_angle - tol:
        return cone.max_range
    farthest = 0.0
    ax, ay = cone.apex
    for f, _, _ in triples:
        for pt in (f.point_a, f.point_b):
            farthest = max(farthest, math.hypot(pt.x - ax, pt.y - ay))
    return min(farthest + _TOUCH_EPS, cone.max_range)


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

    def delta_for_edit(self, col: Coloring, result) -> float | None:
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
    """Sum of several likelihood components sharing one coloring.

    Stages each part in order; if any part reports an impossible post
    state (None), already-staged parts are rolled back so every part sees
    exactly one commit or rollback per staged edit.
    """

    def __init__(self, parts: list):
        self.parts = list(parts)

    def log_likelihood(self) -> float:
        return sum(p.log_likelihood() for p in self.parts)

    def delta_for_edit(self, col: Coloring, result) -> float | None:
        total = 0.0
        for i, part in enumerate(self.parts):
            d = part.delta_for_edit(col, result)
            if d is None:
                for done in self.parts[:i]:
                    done.rollback()
                return None
            total += d
        return total

    def commit(self) -> None:
        for p in self.parts:
            p.commit()

    def rollback(self) -> None:
        for p in self.parts:
            p.rollback()
