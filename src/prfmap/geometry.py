"""Planar geometry kernel: points, segments, grids, ray casts, visibility.

All coordinates are metric doubles.  Predicates that feed crossing-parity
counts use a half-open tie rule (a point exactly on a query line counts as
lying on its positive side) so that paths grazing a shared vertex are counted
consistently.  Validity predicates are exact; tolerance handling for
near-degenerate proposals lives with the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EPS_GEOM = 1e-9
EPS_ANGLE = 1e-6
# Visible faces narrower than this (radians) are treated as nonexistent.
ZERO_WIDTH_FACE_TOL = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    a: Point2
    b: Point2


class Rect(NamedTuple):
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point2:
        return Point2(0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def contains(self, p: Point2) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_strict(self, p: Point2, margin: float = 0.0) -> bool:
        return (self.xmin + margin < p.x < self.xmax - margin
                and self.ymin + margin < p.y < self.ymax - margin)


@dataclass(frozen=True)
class Cone:
    """Angular field of view: apex, central heading, half-angle, range limit."""
    apex: Point2
    heading: float
    half_angle: float
    max_range: float


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid covering a rectangular window.

    Cells are addressed (ix, iy) with ix in [0, nx) counting from xmin and
    iy in [0, ny) counting from ymin.  The last row/column may overhang the
    window when the extent is not a multiple of cell_size.
    """
    window: Rect
    cell_size: float

    @property
    def nx(self) -> int:
        return max(1, math.ceil(self.window.width / self.cell_size - 1e-12))

    @property
    def ny(self) -> int:
        return max(1, math.ceil(self.window.height / self.cell_size - 1e-12))

    def cell_of(self, p: Point2) -> tuple[int, int]:
        ix = int(math.floor((p.x - self.window.xmin) / self.cell_size))
        iy = int(math.floor((p.y - self.window.ymin) / self.cell_size))
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    def cell_rect(self, ix: int, iy: int) -> Rect:
        x0 = self.window.xmin + ix * self.cell_size
        y0 = self.window.ymin + iy * self.cell_size
        return Rect(x0, y0, x0 + self.cell_size, y0 + self.cell_size)

    def cells_in_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float):
        """Cells whose closed rectangle meets the closed bbox."""
        ix0, ix1 = _index_range(xmin, xmax, self.window.xmin, self.cell_size, self.nx)
        iy0, iy1 = _index_range(ymin, ymax, self.window.ymin, self.cell_size, self.ny)
        if ix0 > ix1 or iy0 > iy1:
            return []
        return [(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)]


def cell_centers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid arrays (ny, nx) of cell-center coordinates."""
    w = grid.window
    xs = w.xmin + (np.arange(grid.nx) + 0.5) * grid.cell_size
    ys = w.ymin + (np.arange(grid.ny) + 0.5) * grid.cell_size
    return np.meshgrid(xs, ys)


def cross(ox: float, oy: float, ax: float, ay: float) -> float:
    return ox * ay - oy * ax


def orient(a: Point2, b: Point2, c: Point2) -> float:
    """Twice the signed area of triangle abc (> 0 when counter-clockwise)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def dist(a: Point2, b: Point2) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def _strictly_inside_bbox(p: Point2, a: Point2, b: Point2) -> bool:
    # For collinear p: strictly interior to segment ab iff inside the closed
    # bbox and not equal to either endpoint.
    if p == a or p == b:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_properly_intersect(s: Segment, t: Segment) -> bool:
    """Exact proper-intersection predicate.

    True when the open interiors meet or an endpoint of one segment lies in
    the other's interior.  Sharing an endpoint alone does not count.
    """
    a, b = s
    c, d = t
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 == 0.0 and o2 == 0.0 and o3 == 0.0 and o4 == 0.0:
        # Collinear: proper iff the parameter overlap has positive length.
        if abs(b.x - a.x) >= abs(b.y - a.y):
            lo1, hi1 = sorted((a.x, b.x))
            lo2, hi2 = sorted((c.x, d.x))
        else:
            lo1, hi1 = sorted((a.y, b.y))
            lo2, hi2 = sorted((c.y, d.y))
        return min(hi1, hi2) > max(lo1, lo2)
    if ((o1 > 0) != (o2 > 0)) and o1 != 0.0 and o2 != 0.0 \
            and ((o3 > 0) != (o4 > 0)) and o3 != 0.0 and o4 != 0.0:
        return True
    if o1 == 0.0 and _strictly_inside_bbox(c, a, b):
        return True
    if o2 == 0.0 and _strictly_inside_bbox(d, a, b):
        return True
    if o3 == 0.0 and _strictly_inside_bbox(a, c, d):
        return True
    if o4 == 0.0 and _strictly_inside_bbox(b, c, d):
        return True
    return False


def segment_crosses_halfopen(p: Point2, q: Point2, a: Point2, b: Point2) -> bool:
    """Crossing test for parity counts along the path p -> q.

    Uses the half-open side rule: an endpoint exactly on a splitting line is
    assigned to the non-negative side.  With this rule a path passing exactly
    through a degree-2 vertex still accumulates the correct total parity.
    """
    d1 = orient(p, q, a)
    d2 = orient(p, q, b)
    if (d1 < 0.0) == (d2 < 0.0):
        return False
    d3 = orient(a, b, p)
    d4 = orient(a, b, q)
    return (d3 < 0.0) != (d4 < 0.0)


def crossing_parity(p: Point2, q: Point2, segments) -> int:
    """Parity of crossings of path p->q with an iterable of Segments."""
    n = 0
    for seg in segments:
        if segment_crosses_halfopen(p, q, seg.a, seg.b):
            n += 1
    return n & 1


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ex, ey = b.x - a.x, b.y - a.y
    L2 = ex * ex + ey * ey
    if L2 == 0.0:
        return dist(p, a)
    t = ((p.x - a.x) * ex + (p.y - a.y) * ey) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(a.x + t * ex - p.x, a.y + t * ey - p.y)


def point_segment_distance_batch(px, py, ax, ay, bx, by) -> np.ndarray:
    """:func:`point_segment_distance` from points (px, py) to segments (a, b).

    Every argument is a scalar or an array; they broadcast together.
    """
    ex, ey = bx - ax, by - ay
    L2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.divide((px - ax) * ex + (py - ay) * ey, L2), 0.0, 1.0)
    t = np.where(L2 > 0.0, t, 0.0)
    return np.hypot(px - (ax + t * ex), py - (ay + t * ey))


def segment_min_distance(s: Segment, t: Segment) -> float:
    if segments_properly_intersect(s, t):
        return 0.0
    return min(point_segment_distance(s.a, t.a, t.b),
               point_segment_distance(s.b, t.a, t.b),
               point_segment_distance(t.a, s.a, s.b),
               point_segment_distance(t.b, s.a, s.b))


def sin_angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    """Sine of the angle in [0, pi] between two direction vectors."""
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    s = abs(ux * vy - uy * vx) / (nu * nv)
    return min(1.0, s)


def clip_segment_to_rect(seg: Segment, rect: Rect):
    """Closed Liang-Barsky clip; returns (t0, t1) in [0, 1] or None."""
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    for d, lo, hi, p0 in ((dx, rect.xmin, rect.xmax, ax),
                          (dy, rect.ymin, rect.ymax, ay)):
        if d == 0.0:
            if p0 < lo or p0 > hi:
                return None
            continue
        ta = (lo - p0) / d
        tb = (hi - p0) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return None
    return (t0, t1)


def _index_range(lo: float, hi: float, origin: float, cell: float, n: int):
    """Inclusive index span of the closed interval [lo, hi] on a cell axis.

    A value exactly on an interior cell boundary belongs to the closed cells
    on both sides, matching a brute-force closed-rectangle intersection test.
    """
    tlo = (lo - origin) / cell
    i0 = math.floor(tlo)
    if tlo == i0:
        i0 -= 1
    i1 = math.floor((hi - origin) / cell)
    return max(int(i0), 0), min(int(i1), n - 1)


def grid_trace_segment(seg: Segment, grid: GridSpec) -> list[tuple[int, int]]:
    """Supercover trace: every cell whose closed square meets the segment.

    The segment is first clipped to the grid window; a segment wholly outside
    yields an empty list.  Cells are ordered by the ray parameter at which
    the segment first touches them (ties by cell index), so a walk of the
    result visits cells front to back.
    """
    return [(ix, iy) for (_, ix, iy) in grid_trace_with_entries(seg, grid)]


def grid_trace_with_entries(seg: Segment, grid: GridSpec) -> list[tuple[float, int, int]]:
    """Supercover trace annotated with the entry parameter of each cell."""
    win = grid.window
    clip = clip_segment_to_rect(seg, win)
    if clip is None:
        return []
    t0, t1 = clip
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    px0, py0 = ax + t0 * dx, ay + t0 * dy
    px1, py1 = ax + t1 * dx, ay + t1 * dy
    cell = grid.cell_size
    ix0, ix1 = _index_range(min(px0, px1), max(px0, px1), win.xmin, cell, grid.nx)
    cells: list[tuple[float, int, int]] = []
    if ix0 > ix1:
        return []
    for ix in range(ix0, ix1 + 1):
        x_lo = win.xmin + ix * cell
        x_hi = x_lo + cell
        if dx == 0.0:
            ya, yb = min(py0, py1), max(py0, py1)
        else:
            ta = (x_lo - ax) / dx
            tb = (x_hi - ax) / dx
            if ta > tb:
                ta, tb = tb, ta
            ta = max(ta, t0)
            tb = min(tb, t1)
            if ta > tb:
                continue
            ya = ay + ta * dy
            yb = ay + tb * dy
            if ya > yb:
                ya, yb = yb, ya
        iy0, iy1 = _index_range(ya, yb, win.ymin, cell, grid.ny)
        for iy in range(iy0, iy1 + 1):
            entry = _cell_entry_param(seg, grid.cell_rect(ix, iy))
            if entry is None:
                # Touches only through an exact boundary contact; order by
                # the nearest clip of the infinite strip instead.
                entry = t0
            cells.append((entry, ix, iy))
    cells.sort()
    return cells


def _cell_entry_param(seg: Segment, rect: Rect):
    clip = clip_segment_to_rect(seg, rect)
    if clip is None:
        return None
    return clip[0]


def ray_segment_intersection(origin: Point2, direction: tuple[float, float],
                             seg: Segment):
    """Distance t >= 0 along a unit-direction ray to a segment, or None.

    Rays parallel to the segment (including collinear grazes) miss.  Hits at
    segment endpoints count.
    """
    (ax, ay), (bx, by) = seg
    ex, ey = bx - ax, by - ay
    dx, dy = direction
    denom = dx * ey - dy * ex
    if denom == 0.0:
        return None
    sx, sy = ax - origin.x, ay - origin.y
    t = (sx * ey - sy * ex) / denom
    u = (sx * dy - sy * dx) / denom
    if t < 0.0 or u < 0.0 or u > 1.0:
        return None
    return t


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


def boundary_point(rect: Rect, s: float) -> Point2:
    """Point at arc length s along the window boundary.

    The parameterization starts at (xmin, ymin) and runs counter-clockwise:
    bottom, right, top, left.  s is taken modulo the perimeter.
    """
    s = s % rect.perimeter
    w, h = rect.width, rect.height
    if s < w:
        return Point2(rect.xmin + s, rect.ymin)
    s -= w
    if s < h:
        return Point2(rect.xmax, rect.ymin + s)
    s -= h
    if s < w:
        return Point2(rect.xmax - s, rect.ymax)
    s -= w
    return Point2(rect.xmin, rect.ymax - s)


def boundary_arclength(rect: Rect, p: Point2) -> float:
    """Inverse of boundary_point for points exactly on one side.

    Corners resolve to the side that starts there in the counter-clockwise
    order.  Raises for points off the boundary.
    """
    w, h = rect.width, rect.height
    if p.y == rect.ymin and rect.xmin <= p.x < rect.xmax:
        return p.x - rect.xmin
    if p.x == rect.xmax and rect.ymin <= p.y < rect.ymax:
        return w + (p.y - rect.ymin)
    if p.y == rect.ymax and rect.xmin < p.x <= rect.xmax:
        return w + h + (rect.xmax - p.x)
    if p.x == rect.xmin and rect.ymin < p.y <= rect.ymax:
        return 2.0 * w + h + (rect.ymax - p.y)
    raise ValueError(f"point {p} not on the boundary of {rect}")


def boundary_tangent(rect: Rect, p: Point2) -> tuple[float, float]:
    """Tangent direction of the boundary side containing p (not a corner)."""
    on_x = p.x == rect.xmin or p.x == rect.xmax
    on_y = p.y == rect.ymin or p.y == rect.ymax
    if on_x == on_y:
        raise ValueError(f"point {p} is a corner or off the boundary of {rect}")
    return (0.0, 1.0) if on_x else (1.0, 0.0)


def shorter_arc_chain(rect: Rect, p1: Point2, p2: Point2):
    """Polyline along the boundary from p1 to p2 the short way round.

    Returns (points, arc_length) where points runs from p1 to p2 through any
    corners passed.  When the two arcs tie, the counter-clockwise one from
    p1 is used.
    """
    P = rect.perimeter
    s1 = boundary_arclength(rect, p1)
    s2 = boundary_arclength(rect, p2)
    fwd = (s2 - s1) % P
    if fwd <= P - fwd:
        lo, hi, pts = s1, s1 + fwd, [p1]
        arc = fwd
        reverse = False
    else:
        lo, hi, pts = s2, s2 + (P - fwd), [p2]
        arc = P - fwd
        reverse = True
    w, h = rect.width, rect.height
    corner_s = (0.0, w, w + h, 2.0 * w + h)
    for base in (0.0, P):
        for cs in corner_s:
            s = cs + base
            if lo < s < hi:
                pts.append(boundary_point(rect, cs))
    pts.append(p2 if not reverse else p1)
    if reverse:
        pts.reverse()
    return pts, arc


def unit_vector(angle: float) -> tuple[float, float]:
    return (math.cos(angle), math.sin(angle))


def relative_angle(heading: float, vx: float, vy: float) -> float:
    """Signed angle of vector v relative to a heading, in (-pi, pi]."""
    hx, hy = math.cos(heading), math.sin(heading)
    return math.atan2(hx * vy - hy * vx, hx * vx + hy * vy)


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
        if point_segment_distance(apex, pa, pb) > rng_max:
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
        t_lo = _ray_hit_lenient(apex, unit_vector(cone.heading + th0), seg)
        t_hi = _ray_hit_lenient(apex, unit_vector(cone.heading + th1), seg)
        if t_lo is None or t_hi is None:
            continue
        pa = Point2(apex.x + t_lo * math.cos(cone.heading + th0),
                    apex.y + t_lo * math.sin(cone.heading + th0))
        pb = Point2(apex.x + t_hi * math.cos(cone.heading + th1),
                    apex.y + t_hi * math.sin(cone.heading + th1))
        sub = _clip_subsegment_to_range(pa, pb, apex, cone.max_range)
        if sub is None:
            continue
        pa, pb = sub
        depth = point_segment_distance(apex, pa, pb)
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
        return (pa, pb) if math.hypot(fx, fy) <= R else None
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
    return math.asin(sin_angle_between(cx, cy, ex, ey))


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
            d = math.hypot(vx, vy)
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
