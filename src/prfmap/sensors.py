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
(one beam or many).  A single sonar cone (:func:`sonar_features`, used by
the simulator) is swept by :func:`visibility_sweep` over the edges whose
box meets :meth:`Cone.bbox`, widened by ``_TOUCH_EPS``.  Both read the
coloring's edge table.

:class:`ObservationCache` binds a log's laser and sonar observations to a
chain through one array-backed part per family (:class:`_LaserBeams`,
:class:`_SonarCones`).  A part caches each observation's log likelihood and
*sensitivity extent* (beam up to the impact point; cone up to the farthest
contact) with a box around it.  On a proposed edit it meets all changed
segments' boxes with its boxes in one numpy pass, runs its exact touch test
on the pairs that meet, and re-evaluates the touched observations together.
An edit that changes the color of any sensor position has likelihood zero
and returns -inf before anything is evaluated.  No cell index is kept.

The batched paths give the scalar functions' results bit for bit: numpy
arithmetic runs the scalar's operations in the scalar's order, and a
likelihood delta or a total is summed left to right, as a Python loop adds,
not by numpy's pairwise ``sum``.

Transcendental functions have one source.  Every array path and every
scalar function it is tested against (here, in :mod:`cone_sweep`,
:mod:`geometry`'s sweep and :mod:`baseline`) takes ``cos``, ``sin``,
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

from .coloring import BLACK, Coloring, changed_points
from .cone_sweep import (
    ConeRows,
    EdgePairs,
    cone_features,
    first_of_runs,
    ray_hits,
    wedge_clip,
)
from .geometry import (
    ZERO_WIDTH_FACE_TOL,
    Cone,
    Point2,
    Rect,
    Segment,
    VisibleFeature,
    grid_trace_segment,  # noqa: F401  (unused; perfbench/layers.py patches this name)
    point_segment_distance_batch,
    pymax,
    pymin,
    ray_rect_exit,
    unit_vector,
    visibility_sweep,
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
        return 1.0 / (1.0 + float(np.exp(-g)))


# ---------------------------------------------------------------------------
# scalar density helpers


def _log_density(dens):
    """Log of each density, -inf where it is not positive; a float of a float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(dens > 0.0, np.log(dens), -math.inf)
    return ll if ll.ndim else float(ll)


def _gauss_pdf(x: float, mu: float, sigma: float) -> float:
    z = (x - mu) / sigma
    return float(np.exp(-0.5 * z * z)) / (sigma * _SQRT_2PI)


def beam_direction(heading: float, bearing: float) -> tuple[float, float]:
    return unit_vector(heading + bearing)


def beam_directions(angle) -> tuple[np.ndarray, np.ndarray]:
    """:func:`beam_direction` of many beams at once, bit for bit: the cosine
    and sine of each beam's ``heading + bearing``."""
    angle = np.asarray(angle, dtype=np.float64)
    return np.cos(angle), np.sin(angle)


def beam_cap(col: Coloring, origin: Point2, direction: tuple[float, float],
             max_range: float) -> float:
    """Distance a beam can reach: the window exit, capped at ``max_range``.

    The window boundary itself is a viewing frame, not an obstacle.
    """
    return min(ray_rect_exit(origin, direction, col.window), max_range)


def beam_caps(window: Rect, sx, sy, dirx, diry, max_range) -> np.ndarray:
    """:func:`beam_cap` of many beams at once, bit for bit: the divisions of
    :func:`ray_rect_exit` as numpy passes, with Python's ``min``/``max``
    picks (so a beam leaving from the window edge keeps its signed zero)."""
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

    The beam is cast against the coloring's edges; with no hit the
    :func:`beam_cap` distance stands in.
    """
    cap = beam_cap(col, origin, direction, max_range)
    t, eid = cast_beams(col, [origin.x], [origin.y], [direction[0]],
                        [direction[1]], [cap])
    return float(t[0]), (int(eid[0]) if eid[0] >= 0 else None)


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
    return _log_density(dens)


def _laser_density_log_batch(r: np.ndarray, flagged: np.ndarray, d_star: np.ndarray,
                             max_range: np.ndarray, p: LaserParams) -> np.ndarray:
    """:func:`_laser_density_log` of each reading, bit for bit: the
    scalar's arithmetic, operation by operation."""
    sigma = np.maximum(p.sigma_frac * d_star, p.sigma_floor)
    z = (r - d_star) / sigma
    gauss = np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
    dens = p.w_gauss * gauss + p.w_uniform / max_range
    return _log_density(np.where(flagged, dens + p.w_maxrange, dens))


# ---------------------------------------------------------------------------
# sonar model


def sonar_cone(o: SonarObs) -> Cone:
    return Cone(Point2(o.x, o.y), o.heading + o.bearing, o.half_angle, o.max_range)


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
    cands = [(eid, col.segment_of(eid))
             for eid in col.edges_near_bbox(*cone.bbox(), pad=_TOUCH_EPS)]
    return return_probabilities(visibility_sweep(cands, cone), params)


def _sonar_outlier(r, flagged, max_range, p: SonarParams):
    """Density of reading ``r`` when no feature produced the return; the
    arguments are floats or arrays of one entry per reading."""
    rate = p.outlier_rate
    outlier = (p.w_uniform / max_range
               + p.w_exponential * rate * np.exp(-rate * r) / -np.expm1(-rate * max_range))
    return np.where(flagged, outlier + p.w_maxrange, outlier)


def _sonar_density_log(r: float, flagged: bool,
                       triples: list[tuple[VisibleFeature, float, float]],
                       max_range: float, p: SonarParams) -> float:
    dens = 0.0
    total_r = 0.0
    for f, _, rf in triples:
        dens += rf * _gauss_pdf(r, f.depth, p.sigma)
        total_r += rf
    dens += (1.0 - total_r) * float(_sonar_outlier(r, flagged, max_range, p))
    return _log_density(dens)


def sonar_log_likelihood(o: SonarObs, col: Coloring, p: SonarParams) -> float:
    if col.color_at(Point2(o.x, o.y)) == BLACK:
        return -math.inf
    return _sonar_eval(o, col, p)[0]


def _sonar_eval(o: SonarObs, col: Coloring, p: SonarParams) -> tuple[float, float]:
    """(log likelihood, sensitivity radius) of a cone whose sensor is free."""
    triples = sonar_features(o, col, p)
    ll = _sonar_density_log(o.range, o.is_max_range, triples, o.max_range, p)
    return ll, _sweep_contact_radius_points(triples, o)


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


def _seg_batch_min_dist(ax, ay, bx, by, seg: Segment) -> np.ndarray:
    """Min distance between segments (a[i], b[i]) and a fixed segment."""
    sax, say = seg.a
    sbx, sby = seg.b
    d1 = _orient(sax, say, sbx, sby, ax, ay)
    d2 = _orient(sax, say, sbx, sby, bx, by)
    d3 = _orient(ax, ay, bx, by, np.float64(sax), np.float64(say))
    d4 = _orient(ax, ay, bx, by, np.float64(sbx), np.float64(sby))
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
        & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    d = np.minimum(
        np.minimum(point_segment_distance_batch(ax, ay, sax, say, sbx, sby),
                   point_segment_distance_batch(bx, by, sax, say, sbx, sby)),
        np.minimum(point_segment_distance_batch(sax, say, ax, ay, bx, by),
                   point_segment_distance_batch(sbx, sby, ax, ay, bx, by)))
    d[proper] = 0.0
    return d


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

    Pair by pair the same decision as ``_seg_batch_min_dist(...) <=
    _TOUCH_EPS``, with its operations, except that the four point-segment
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
    u_hi[i].  This is :func:`geometry._clip_to_wedge` followed by the
    apex-to-piece distance that :func:`visibility_sweep` compares with the
    range, done with the same float operations over all wedges at once.
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

    :meth:`evaluate` gives each beam the log likelihood of
    :func:`laser_log_likelihood` bit for bit and its extent, the impact
    distance: one :func:`cast_beams` call against caps (window exit or max
    range) computed once, then :func:`_laser_density_log_batch`.

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


class _SonarCones:
    """Sonar pings as arrays, evaluated many cones at a time.

    :meth:`evaluate` gives each cone the ``(log likelihood, sensitivity
    radius)`` of :func:`_sonar_eval`, bit for bit, without building a
    :class:`VisibleFeature`: :func:`cone_sweep.cone_features` does the
    sweep and the depth sort, and :func:`return_probabilities`,
    :func:`_sonar_density_log` and :func:`_sweep_contact_radius_points` run
    as numpy passes over the features, with the scalar code's float
    operations in its order, and products and sums taken left to right
    (``multiply``/``add.accumulate`` along each cone's row).

    A cone's features depend only on the edges that meet its sector, taken
    in increasing id: the id order breaks ties in ``(t, id)`` and names the
    owner of a shared corner, and any edge a sight line inside the sector
    reaches meets the sector.  So any superset of those edges gives the same
    features.  The batch takes the live edges whose box meets the cone's
    sector box at full range (``box``), widened by ``_TOUCH_EPS`` so that
    rounding never makes it smaller than the sector; the scalar path takes
    the edges whose box meets :meth:`Cone.bbox`, widened likewise.

    :meth:`touched` runs the wedge clip (:func:`_wedge_clip_distance`) on
    the pairs whose boxes meet.  A touching segment has a point in the wedge
    within the truncated radius (``trunc_radius``) plus ``_TOUCH_EPS`` of the
    apex, so a cone's touch box bounds its sector of that radius (as
    :meth:`Cone.bbox` bounds a sector), and every touched pair's boxes meet.
    """

    def __init__(self, sonars: list[SonarObs], p: SonarParams):
        self.p = p
        self.sx = np.array([o.x for o in sonars], dtype=np.float64)
        self.sy = np.array([o.y for o in sonars], dtype=np.float64)
        self.heading = np.array([o.heading + o.bearing for o in sonars], dtype=np.float64)
        self.beta = np.array([o.half_angle for o in sonars], dtype=np.float64)
        self.max_range = np.array([o.max_range for o in sonars], dtype=np.float64)
        self.reading = np.array([o.range for o in sonars], dtype=np.float64)
        self.hx, self.hy = np.cos(self.heading), np.sin(self.heading)
        self.ulox, self.uloy = np.cos(self.heading - self.beta), np.sin(self.heading - self.beta)
        self.uhix, self.uhiy = np.cos(self.heading + self.beta), np.sin(self.heading + self.beta)
        # how far toward -x, +x, -y and +y each wedge reaches per unit of
        # radius: 1 where its arc crosses that axis direction, else the
        # farther of its two edges (or 0, the apex)
        lox, loy, hix, hiy = self.ulox, self.uloy, self.uhix, self.uhiy
        self.reach = np.array([
            np.where((loy >= 0.0) & (hiy <= 0.0), 1.0, np.maximum(0.0, -np.minimum(lox, hix))),
            np.where((loy <= 0.0) & (hiy >= 0.0), 1.0, np.maximum(0.0, np.maximum(lox, hix))),
            np.where((lox <= 0.0) & (hix >= 0.0), 1.0, np.maximum(0.0, -np.minimum(loy, hiy))),
            np.where((lox >= 0.0) & (hix <= 0.0), 1.0, np.maximum(0.0, np.maximum(loy, hiy)))])
        r = self.max_range
        self.box = np.array([self.sx - r * self.reach[0] - _TOUCH_EPS,
                             self.sx + r * self.reach[1] + _TOUCH_EPS,
                             self.sy - r * self.reach[2] - _TOUCH_EPS,
                             self.sy + r * self.reach[3] + _TOUCH_EPS])
        self.outlier = _sonar_outlier(self.reading,
                                      np.array([o.is_max_range for o in sonars], dtype=bool),
                                      self.max_range, p)
        # a cone that sees nothing: _sonar_density_log of no feature
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
        r = ext + _TOUCH_EPS
        self.touch_box[:, idx] = (self.sx[idx] - r * self.reach[0, idx],
                                  self.sx[idx] + r * self.reach[1, idx],
                                  self.sy[idx] - r * self.reach[2, idx],
                                  self.sy[idx] + r * self.reach[3, idx])

    def evaluate(self, idx: np.ndarray, col: Coloring) -> tuple[np.ndarray, np.ndarray]:
        """``(ll, ext)`` of the cones ``idx`` against the coloring's live edges."""
        idx = np.asarray(idx, dtype=np.int64)
        eids, ax, ay, bx, by = col.live_edges()
        ll = self.ll_bare[idx]
        ext = self.max_range[idx]
        if not len(idx) or not len(eids):
            return ll, ext
        # candidate (cone, edge) pairs, cone by cone in increasing edge id
        exlo, exhi = np.minimum(ax, bx), np.maximum(ax, bx)
        eylo, eyhi = np.minimum(ay, by), np.maximum(ay, by)
        rows, cols = [], []
        step = max(1, _CAST_BLOCK // len(eids))
        for first in range(0, len(idx), step):
            xlo, xhi, ylo, yhi = (v[:, None] for v in self.box[:, idx[first:first + step]])
            r, e = np.nonzero((exlo <= xhi) & (exhi >= xlo) & (eylo <= yhi) & (eyhi >= ylo))
            rows.append(r + first)
            cols.append(e)
        row, edge = np.concatenate(rows), np.concatenate(cols)
        n = np.bincount(row, minlength=len(idx))
        seen = np.flatnonzero(n)
        # Cones in groups whose (cone, interval, edge) triples, at most
        # n * (2 n + 1) for a cone with n candidates, stay near _CAST_BLOCK.
        cost = n[seen] * (2 * n[seen] + 1)
        group = (np.cumsum(cost) - cost) // _CAST_BLOCK
        end = np.cumsum(n[seen])
        starts = np.flatnonzero(first_of_runs(group))
        for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(seen)]):
            cones = seen[lo:hi]
            e = edge[int(end[lo] - n[cones[0]]):int(end[hi - 1])]
            pairs = EdgePairs(np.repeat(np.arange(hi - lo), n[cones]), eids[e], ax[e], ay[e],
                           bx[e], by[e])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ll[cones], ext[cones] = self._sweep(idx[cones], pairs)
        return ll, ext

    def _sweep(self, cid, e: EdgePairs) -> tuple[np.ndarray, np.ndarray]:
        """``(ll, ext)`` of the cones ``cid``, whose candidate edges are
        ``e`` (rows index ``cid``)."""
        g = ConeRows(*(v[cid] for v in (self.sx, self.sy, self.heading, self.hx, self.hy,
                                        self.beta, self.max_range, self.ulox, self.uloy,
                                        self.uhix, self.uhiy)))
        fc, kind, depth, proj, subt, alo, ahi, far = cone_features(g, e)
        return (self._density_log(cid, fc, kind, depth, proj, subt),
                _contact_radius(fc, kind, alo, ahi, far, g.beta, g.rng))

    def _density_log(self, cid, fc, kind, depth, proj, subt) -> np.ndarray:
        """:func:`return_probabilities` and :func:`_sonar_density_log` over
        the features, sorted cone by cone in depth order."""
        p = self.p
        m = len(cid)
        g = np.where(kind == 0,
                     p.face_intercept + p.face_distance_slope * depth
                     + p.face_projection_slope * proj + p.face_subtended_slope * subt,
                     p.corner_intercept + p.corner_distance_slope * depth)
        q = 1.0 / (1.0 + np.exp(-g))
        counts = np.bincount(fc, minlength=m)
        pos = np.arange(len(fc)) - (np.cumsum(counts) - counts)[fc] + 1
        width = int(counts.max(initial=0)) + 1
        # none_closer[:, k]: the chance that none of features 0..k-1 returned
        none_closer = np.ones((m, width))
        none_closer[fc, pos] = 1.0 - q
        np.multiply.accumulate(none_closer, axis=1, out=none_closer)
        r = q * none_closer[fc, pos - 1]
        z = (self.reading[cid][fc] - depth) / p.sigma
        gauss = np.exp(-0.5 * z * z) / (p.sigma * _SQRT_2PI)
        dens = np.zeros((m, width))
        total_r = np.zeros((m, width))
        dens[fc, pos] = r * gauss
        total_r[fc, pos] = r
        return _log_density(np.add.accumulate(dens, axis=1)[:, -1]
                            + (1.0 - np.add.accumulate(total_r, axis=1)[:, -1])
                            * self.outlier[cid])


def _contact_radius(fc, kind, alo, ahi, far, beta, rng) -> np.ndarray:
    """:func:`_sweep_contact_radius_points` of each cone, given its features
    sorted by cone."""
    m = len(beta)
    # faces in (lo, hi) order; the reach before each is the running max of
    # -beta and the his before it
    f = np.flatnonzero(kind == 0)
    f = f[np.lexsort((ahi[f], alo[f], fc[f]))]
    counts = np.bincount(fc[f], minlength=m)
    pos = np.arange(len(f)) - (np.cumsum(counts) - counts)[fc[f]] + 1
    reach = np.full((m, int(counts.max(initial=0)) + 1), -np.inf)
    reach[:, 0] = -beta
    reach[fc[f], pos] = ahi[f]
    np.maximum.accumulate(reach, axis=1, out=reach)
    tol = ZERO_WIDTH_FACE_TOL
    gap = reach[:, -1] < beta - tol
    gap[fc[f][alo[f] > reach[fc[f], pos - 1] + tol]] = True
    farthest = np.zeros(m)
    np.maximum.at(farthest, fc, far)
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

    Every cached value equals the scalar functions' bit for bit
    (``laser_log_likelihood``, ``sonar_log_likelihood``).  Observations are
    numbered lasers first, then sonars; the cached total, a delta and a
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


def _sweep_contact_radius_points(triples, o: SonarObs) -> float:
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
    reach = -o.half_angle
    for lo, hi in intervals:
        if lo > reach + tol:
            return o.max_range
        reach = max(reach, hi)
    if reach < o.half_angle - tol:
        return o.max_range
    farthest = 0.0
    for f, _, _ in triples:
        for pt in (f.point_a, f.point_b):
            farthest = max(farthest, float(np.hypot(pt.x - o.x, pt.y - o.y)))
    return min(farthest + _TOUCH_EPS, o.max_range)


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
