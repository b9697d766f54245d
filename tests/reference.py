"""Scalar reference implementations that the tests check the package against.

The package sweeps sonar cones with one batched sweep
(:func:`prfmap.sensors.visibility_sweep`) and casts laser beams with one
batched cast (:func:`prfmap.sensors.cast_beams`).  The functions here
compute the same quantities one cone, one beam or one value at a time, in
plain Python over :mod:`prfmap.geometry` records.  They are the oracles of
the bit-for-bit tests and are imported by tests only:

* :func:`visibility_sweep`, the sweep of one cone over ``(id, Segment)``
  candidates, giving :class:`VisibleFeature` records, with :class:`Cone`
  and its bounding box, :func:`relative_angle` and the sweep's helpers;
* the scalar likelihoods :func:`laser_log_likelihood` and
  :func:`sonar_log_likelihood` with their densities, the exclusive-return
  recursion (:func:`return_probabilities`), the scalar
  :func:`sonar_features` (candidates from :meth:`Cone.bbox`) and the
  contact radius of a cone;
* the beam-by-beam and ping-by-ping simulators;
* :func:`ray_rect_exit`, :func:`beam_cap`, and the grid look-ups
  :func:`cell_of` and :func:`index_spans`.

Transcendental functions come from numpy, as in the batched paths (see
:mod:`prfmap.sensors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prfmap.coloring import BLACK, Coloring
from prfmap.geometry import (
    EPS_GEOM,
    ZERO_WIDTH_FACE_TOL,
    GridSpec,
    Point2,
    Rect,
    Segment,
    _index_range,
    point_segment_distance_batch,
    ray_segment_intersection,
    unit_vector,
)
from prfmap.sensors import (
    _TOUCH_EPS,
    LaserObs,
    LaserParams,
    SonarObs,
    SonarParams,
    _log_density,
    _orient,
    _sonar_outlier,
    beam_direction,
    laser_true_distance,
)
from prfmap.sim import (
    LaserScanSpec,
    SonarRingSpec,
    _draw_laser_obs,
    _draw_sonar_obs,
    _free_pose,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# grid look-ups and window exits


def cell_of(grid: GridSpec, p: Point2) -> tuple[int, int]:
    """The cell holding ``p``, clamped to the grid."""
    ix = int(math.floor((p.x - grid.window.xmin) / grid.cell_size))
    iy = int(math.floor((p.y - grid.window.ymin) / grid.cell_size))
    return (min(max(ix, 0), grid.nx - 1), min(max(iy, 0), grid.ny - 1))


def index_spans(grid: GridSpec, xmin: float, ymin: float, xmax: float,
                ymax: float) -> tuple[int, int, int, int]:
    """Inclusive spans ``(ix0, ix1, iy0, iy1)`` of the cells whose closed
    rectangle meets the closed bbox; a span is empty when its start
    exceeds its end."""
    ix0, ix1 = _index_range(xmin, xmax, grid.window.xmin, grid.cell_size, grid.nx)
    iy0, iy1 = _index_range(ymin, ymax, grid.window.ymin, grid.cell_size, grid.ny)
    return ix0, ix1, iy0, iy1


def ray_rect_exit(origin: Point2, direction: tuple[float, float], rect: Rect) -> float:
    """Distance at which a ray from inside the rectangle leaves it."""
    dx, dy = direction
    t = math.inf
    if dx > 0.0:
        t = min(t, (rect.xmax - origin.x) / dx)
    elif dx < 0.0:
        t = min(t, (rect.xmin - origin.x) / dx)
    if dy > 0.0:
        t = min(t, (rect.ymax - origin.y) / dy)
    elif dy < 0.0:
        t = min(t, (rect.ymin - origin.y) / dy)
    return max(t, 0.0)


def beam_cap(col: Coloring, origin: Point2, direction: tuple[float, float],
             max_range: float) -> float:
    """Distance a beam can reach: the window exit, capped at ``max_range``.

    The window boundary itself is a viewing frame, not an obstacle.
    """
    return min(ray_rect_exit(origin, direction, col.window), max_range)


# ---------------------------------------------------------------------------
# the visibility sweep of one cone


@dataclass(frozen=True)
class Cone:
    """Angular field of view: apex, central heading, half-angle, range limit."""
    apex: Point2
    heading: float
    half_angle: float
    max_range: float

    def bbox(self) -> tuple[float, float, float, float]:
        """Closed box (xmin, ymin, xmax, ymax) holding the circular sector.

        The sector's extremes are among the apex, both arc ends and the arc
        point in each axis direction that the arc crosses.
        """
        ax, ay, r = self.apex.x, self.apex.y, self.max_range
        xs, ys = [ax], [ay]
        for a in (self.heading - self.half_angle, self.heading + self.half_angle):
            xs.append(ax + r * math.cos(a))
            ys.append(ay + r * math.sin(a))
        # abs(relative_angle(heading, ux, uy)), with the heading's unit
        # vector taken once
        hx, hy = unit_vector(self.heading)
        for ux, uy in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            if abs(float(np.arctan2(hx * uy - hy * ux, hx * ux + hy * uy))) <= self.half_angle:
                xs.append(ax + r * ux)
                ys.append(ay + r * uy)
        return min(xs), min(ys), max(xs), max(ys)


def relative_angle(heading: float, vx: float, vy: float) -> float:
    """Signed angle of vector v relative to a heading, in (-pi, pi]."""
    hx, hy = unit_vector(heading)
    return float(np.arctan2(hx * vy - hy * vx, hx * vx + hy * vy))


@dataclass(frozen=True)
class VisibleFeature:
    """A piece of scene geometry visible from a cone apex.

    Faces are maximal visible sub-segments; corners are visible segment
    endpoints.  Angles are relative to the cone heading.  projection_angle is
    the acute angle between the sight line to the closest point and the face
    line (pi/2 for a square-on view); it is 0.0 for corners, as is
    subtended_angle.
    """
    kind: str                  # "face" or "corner"
    source_id: int
    point_a: Point2
    point_b: Point2
    depth: float
    projection_angle: float
    subtended_angle: float
    angle_lo: float
    angle_hi: float


def _clip_to_wedge(seg: Segment, apex: Point2, u_lo, u_hi):
    """Parameter interval of seg inside the closed angular wedge, or None."""
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    # cross(u_lo, p - apex) >= 0  and  cross(u_hi, p - apex) <= 0
    for (ux, uy), keep_nonneg in ((u_lo, True), (u_hi, False)):
        c0 = ux * (ay - apex.y) - uy * (ax - apex.x)
        slope = ux * dy - uy * dx
        want = c0 if keep_nonneg else -c0
        srate = slope if keep_nonneg else -slope
        # want + t * srate >= 0
        if srate == 0.0:
            if want < 0.0:
                return None
            continue
        tcut = -want / srate
        if srate > 0.0:
            t0 = max(t0, tcut)
        else:
            t1 = min(t1, tcut)
        if t0 > t1:
            return None
    return (t0, t1)


def _point_at(seg: Segment, t: float) -> Point2:
    return Point2(seg.a.x + t * (seg.b.x - seg.a.x),
                  seg.a.y + t * (seg.b.y - seg.a.y))


def visibility_sweep(segments, cone: Cone) -> list[VisibleFeature]:
    """Visible faces and corners of non-crossing segments within a cone.

    Parameters
    ----------
    segments : iterable of (id, Segment)
        Candidate scene edges; segments wholly outside the cone are ignored.
        Segments must not properly intersect each other (shared endpoints
        are fine) and must not contain the apex.
    cone : Cone
        Field of view; half_angle must be below pi/2.

    Returns
    -------
    Features sorted by increasing depth.  Face angular intervals are
    disjoint and lie within [-half_angle, +half_angle]; depths do not exceed
    max_range.
    """
    apex = cone.apex
    beta = cone.half_angle
    rng_max = cone.max_range
    u_lo = unit_vector(cone.heading - beta)
    u_hi = unit_vector(cone.heading + beta)
    seg_list = list(segments)

    clipped = []  # (id, seg, alpha_start, alpha_end) with alpha_start <= alpha_end
    for sid, seg in seg_list:
        span = _clip_to_wedge(seg, apex, u_lo, u_hi)
        if span is None:
            continue
        t0, t1 = span
        pa = _point_at(seg, t0)
        pb = _point_at(seg, t1)
        if pa == pb:
            continue
        if point_segment_distance_batch(apex.x, apex.y, pa.x, pa.y, pb.x, pb.y) > rng_max:
            continue
        a0 = _clamp(relative_angle(cone.heading, pa.x - apex.x, pa.y - apex.y), -beta, beta)
        a1 = _clamp(relative_angle(cone.heading, pb.x - apex.x, pb.y - apex.y), -beta, beta)
        if a0 > a1:
            a0, a1 = a1, a0
        clipped.append((sid, seg, a0, a1))

    features: list[VisibleFeature] = []
    if clipped:
        features.extend(_sweep_faces(clipped, cone))
    features.extend(_corner_features(seg_list, cone))
    features.sort(key=lambda f: (f.depth, 0 if f.kind == "face" else 1,
                                 f.source_id, f.angle_lo))
    return features


def _clamp(v, lo, hi):
    return min(hi, max(lo, v))


def _sweep_faces(clipped, cone: Cone) -> list[VisibleFeature]:
    apex = cone.apex
    beta = cone.half_angle
    events = {-beta, beta}
    for _, _, a0, a1 in clipped:
        events.add(a0)
        events.add(a1)
    angles = sorted(events)

    starts = sorted(range(len(clipped)), key=lambda i: clipped[i][2])
    ends = sorted(range(len(clipped)), key=lambda i: clipped[i][3])
    active: set[int] = set()
    si = ei = 0

    runs = []  # (angle_start, angle_end, clipped_index)
    for k in range(len(angles) - 1):
        th0, th1 = angles[k], angles[k + 1]
        while si < len(starts) and clipped[starts[si]][2] <= th0:
            active.add(starts[si])
            si += 1
        while ei < len(ends) and clipped[ends[ei]][3] <= th0:
            active.discard(ends[ei])
            ei += 1
        if th1 <= th0 or not active:
            continue
        mid = 0.5 * (th0 + th1)
        d = unit_vector(cone.heading + mid)
        best = None
        for idx in active:
            t = ray_segment_intersection(apex, d, clipped[idx][1])
            if t is None:
                continue
            key = (t, clipped[idx][0])
            if best is None or key < best[0]:
                best = (key, idx)
        if best is None:
            continue
        idx = best[1]
        if runs and runs[-1][2] == idx and runs[-1][1] == th0:
            runs[-1] = (runs[-1][0], th1, idx)
        else:
            runs.append((th0, th1, idx))

    feats = []
    for th0, th1, idx in runs:
        sid, seg, _, _ = clipped[idx]
        (c0, s0), (c1, s1) = unit_vector(cone.heading + th0), unit_vector(cone.heading + th1)
        t_lo = _ray_hit_lenient(apex, (c0, s0), seg)
        t_hi = _ray_hit_lenient(apex, (c1, s1), seg)
        if t_lo is None or t_hi is None:
            continue
        pa = Point2(apex.x + t_lo * c0, apex.y + t_lo * s0)
        pb = Point2(apex.x + t_hi * c1, apex.y + t_hi * s1)
        sub = _clip_subsegment_to_range(pa, pb, apex, cone.max_range)
        if sub is None:
            continue
        pa, pb = sub
        depth = float(point_segment_distance_batch(apex.x, apex.y, pa.x, pa.y, pb.x, pb.y))
        if depth > cone.max_range:
            continue
        a0 = relative_angle(cone.heading, pa.x - apex.x, pa.y - apex.y)
        a1 = relative_angle(cone.heading, pb.x - apex.x, pb.y - apex.y)
        if a0 > a1:
            a0, a1 = a1, a0
            pa, pb = pb, pa
        if a1 - a0 <= ZERO_WIDTH_FACE_TOL:
            # Rounding at run boundaries can carve out faces of essentially
            # zero angular width (an occluder ending exactly on a wedge ray);
            # a face subtending no angle reflects nothing, and emitting it
            # would make the feature set flicker between near-identical
            # scenes, so drop it.
            continue
        proj = _projection_angle(apex, pa, pb)
        feats.append(VisibleFeature("face", sid, pa, pb, depth, proj,
                                    max(0.0, a1 - a0),
                                    _clamp(a0, -beta, beta),
                                    _clamp(a1, -beta, beta)))
    return feats


def _ray_hit_lenient(origin: Point2, direction, seg: Segment):
    # Run boundaries touch faces exactly at event angles; tolerate tiny
    # parameter overshoot there instead of dropping the face.
    (ax, ay), (bx, by) = seg
    ex, ey = bx - ax, by - ay
    dx, dy = direction
    denom = dx * ey - dy * ex
    if denom == 0.0:
        return None
    sx, sy = ax - origin.x, ay - origin.y
    t = (sx * ey - sy * ex) / denom
    u = (sx * dy - sy * dx) / denom
    if t < -EPS_GEOM or u < -1e-6 or u > 1.0 + 1e-6:
        return None
    return max(t, 0.0)


def _clip_subsegment_to_range(pa: Point2, pb: Point2, apex: Point2, R: float):
    """Portion of segment pa-pb within distance R of apex, or None."""
    ex, ey = pb.x - pa.x, pb.y - pa.y
    fx, fy = pa.x - apex.x, pa.y - apex.y
    a = ex * ex + ey * ey
    if a == 0.0:
        return (pa, pb) if np.hypot(fx, fy) <= R else None
    b = 2.0 * (fx * ex + fy * ey)
    c = fx * fx + fy * fy - R * R
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    s0 = (-b - sq) / (2.0 * a)
    s1 = (-b + sq) / (2.0 * a)
    s0 = max(s0, 0.0)
    s1 = min(s1, 1.0)
    if s0 > s1:
        return None
    qa = Point2(pa.x + s0 * ex, pa.y + s0 * ey)
    qb = Point2(pa.x + s1 * ex, pa.y + s1 * ey)
    if qa == qb:
        return None
    return (qa, qb)


def _projection_angle(apex: Point2, pa: Point2, pb: Point2) -> float:
    ex, ey = pb.x - pa.x, pb.y - pa.y
    L2 = ex * ex + ey * ey
    if L2 == 0.0:
        return 0.0
    t = ((apex.x - pa.x) * ex + (apex.y - pa.y) * ey) / L2
    t = min(1.0, max(0.0, t))
    cx, cy = pa.x + t * ex - apex.x, pa.y + t * ey - apex.y
    nu, nv = np.hypot(cx, cy), np.hypot(ex, ey)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.arcsin(min(1.0, abs(cx * ey - cy * ex) / (nu * nv))))


def _corner_features(segments, cone: Cone) -> list[VisibleFeature]:
    apex = cone.apex
    beta = cone.half_angle
    seen: set[tuple[float, float]] = set()
    corners = []
    seg_list = list(segments)
    for sid, seg in seg_list:
        for v in (seg.a, seg.b):
            key = (v.x, v.y)
            if key in seen:
                continue
            seen.add(key)
            vx, vy = v.x - apex.x, v.y - apex.y
            d = float(np.hypot(vx, vy))
            if d == 0.0 or d > cone.max_range:
                continue
            alpha = relative_angle(cone.heading, vx, vy)
            if alpha < -beta or alpha > beta:
                continue
            direction = (vx / d, vy / d)
            occluded = False
            for _, other in seg_list:
                t = ray_segment_intersection(apex, direction, other)
                if t is not None and t < d - EPS_GEOM:
                    occluded = True
                    break
            if not occluded:
                corners.append(VisibleFeature("corner", sid, v, v, d,
                                              0.0, 0.0, alpha, alpha))
    return corners


# ---------------------------------------------------------------------------
# laser likelihood


def _gauss_pdf(x: float, mu: float, sigma: float) -> float:
    z = (x - mu) / sigma
    return float(np.exp(-0.5 * z * z)) / (sigma * _SQRT_2PI)


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


# ---------------------------------------------------------------------------
# sonar likelihood


def independent_return_probability(p: SonarParams, f: VisibleFeature) -> float:
    """The logistic return model of :class:`SonarParams` for one feature."""
    if f.kind == "corner":
        g = p.corner_intercept + p.corner_distance_slope * f.depth
    else:
        g = (p.face_intercept
             + p.face_distance_slope * f.depth
             + p.face_projection_slope * f.projection_angle
             + p.face_subtended_slope * f.subtended_angle)
    return 1.0 / (1.0 + float(np.exp(-g)))


def sonar_cone(o: SonarObs) -> Cone:
    return Cone(Point2(o.x, o.y), o.heading + o.bearing, o.half_angle, o.max_range)


def return_probabilities(features: list[VisibleFeature], params,
                         q=independent_return_probability
                         ) -> list[tuple[VisibleFeature, float, float]]:
    """Attach (independent q, exclusive r) to depth-sorted features.

    The exclusive return probability discounts each feature by the chance
    that no *closer* feature already produced the return:
    ``r_f = q_f * prod_(g closer) (1 - r_g)``, so the r values always sum
    to at most 1.  ``q(params, f)`` gives each feature's independent
    return probability.
    """
    out = []
    none_closer = 1.0
    for f in features:
        qf = q(params, f)
        r = qf * none_closer
        none_closer *= 1.0 - qf
        out.append((f, qf, r))
    return out


def sonar_features(o: SonarObs, col: Coloring,
                   params: SonarParams) -> list[tuple[VisibleFeature, float, float]]:
    """Visible features in the cone with their return probabilities; the
    candidates are the edges whose box meets :meth:`Cone.bbox`, widened by
    ``_TOUCH_EPS``."""
    cone = sonar_cone(o)
    cands = [(eid, col.segment_of(eid))
             for eid in col.edges_near_bbox(*cone.bbox(), pad=_TOUCH_EPS)]
    return return_probabilities(visibility_sweep(cands, cone), params)


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


# ---------------------------------------------------------------------------
# simulation one beam or one ping at a time


def simulate_laser_beam(col: Coloring, x: float, y: float, heading: float,
                        bearing: float, spec: LaserScanSpec, params: LaserParams,
                        rng: np.random.Generator) -> LaserObs:
    origin = _free_pose(col, x, y, "laser")
    d_star, _ = laser_true_distance(col, origin, beam_direction(heading, bearing),
                                    spec.max_range)
    return _draw_laser_obs(x, y, heading, bearing, d_star, spec, params, rng)


def simulate_sonar_ping(col: Coloring, x: float, y: float, heading: float,
                        bearing: float, spec: SonarRingSpec, params: SonarParams,
                        rng: np.random.Generator) -> SonarObs:
    """One reading drawn from the features the scalar :func:`sonar_features`
    finds in the ping's cone."""
    _free_pose(col, x, y, "sonar")
    probe = SonarObs(x, y, heading, bearing, spec.half_angle,
                     spec.max_range, spec.max_range, True)
    triples = sonar_features(probe, col, params)
    return _draw_sonar_obs(x, y, heading, bearing, [f.depth for f, _, _ in triples],
                           [r for _, _, r in triples], spec, params, rng)
