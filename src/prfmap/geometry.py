"""Planar geometry kernel: points, segments, grids, ray casts, sector boxes.

All coordinates are metric doubles.  Predicates that feed crossing-parity
counts use a half-open tie rule (a point exactly on a query line counts as
lying on its positive side) so that paths grazing a shared vertex are counted
consistently.  Validity predicates are exact; tolerance handling for
near-degenerate proposals lives with the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
class GridSpec:
    """Uniform cell grid covering a rectangular window.

    Cells are addressed (ix, iy) with ix in [0, nx) counting from xmin and
    iy in [0, ny) counting from ymin.  The last row/column may overhang the
    window when the extent is not a multiple of cell_size.
    """
    window: Rect
    cell_size: float

    @cached_property
    def nx(self) -> int:
        return max(1, math.ceil(self.window.width / self.cell_size - 1e-12))

    @cached_property
    def ny(self) -> int:
        return max(1, math.ceil(self.window.height / self.cell_size - 1e-12))

    def cell_rect(self, ix: int, iy: int) -> Rect:
        x0 = self.window.xmin + ix * self.cell_size
        y0 = self.window.ymin + iy * self.cell_size
        return Rect(x0, y0, x0 + self.cell_size, y0 + self.cell_size)


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


def pymax(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def pymin(a, b):
    """Python's ``min(a, b)`` elementwise: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def expand_counts(counts: np.ndarray, first=0) -> tuple[np.ndarray, np.ndarray]:
    """``(row, first[row] + k)`` for every ``k < counts[row]``, row by row."""
    row = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(row))
    k -= (np.cumsum(counts) - counts - first)[row]
    return row, k


def _slab(lo: float, hi: float, p0: float, d: float) -> tuple[float, float]:
    """Unclamped parameter interval on which p0 + t * d lies in [lo, hi].

    For d == 0 it is (-inf, inf) when p0 lies in [lo, hi] and the empty
    (inf, -inf) otherwise.
    """
    if d == 0.0:
        return (-math.inf, math.inf) if lo <= p0 <= hi else (math.inf, -math.inf)
    ta = (lo - p0) / d
    tb = (hi - p0) / d
    return (ta, tb) if ta <= tb else (tb, ta)


def _cell_slabs(origin: float, cell: float, i0: int, i1: int, p0: float,
                d: float) -> list[tuple[float, float]]:
    """:func:`_slab` of the closed cells i0..i1 of one grid axis."""
    out = []
    for i in range(i0, i1 + 1):
        lo = origin + i * cell
        out.append(_slab(lo, lo + cell, p0, d))
    return out


def clip_segment_to_rect(seg: Segment, rect: Rect):
    """Closed Liang-Barsky clip; returns (t0, t1) in [0, 1] or None."""
    (ax, ay), (bx, by) = seg
    xa, xb = _slab(rect.xmin, rect.xmax, ax, bx - ax)
    ya, yb = _slab(rect.ymin, rect.ymax, ay, by - ay)
    t0 = max(0.0, xa, ya)
    t1 = min(1.0, xb, yb)
    return (t0, t1) if t0 <= t1 else None


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
    """Supercover trace annotated with the entry parameter of each cell.

    A cell's entry is its closed Liang-Barsky entry on the unclipped
    segment, in [0, 1]: ``clip_segment_to_rect(seg, grid.cell_rect(ix,
    iy))[0]``.  It is computed as the cell's column slab intersected with
    its row slab, each slab computed once per trace, with the float
    operations of that clip in the same order.  A cell that
    :func:`_index_range` admits but whose own clip is empty (an exact
    boundary contact lost to rounding) gets the window-clip ``t0``.  The
    list is sorted by (entry, ix, iy).
    """
    win = grid.window
    clip = clip_segment_to_rect(seg, win)
    if clip is None:
        return []
    t0, t1 = clip
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    px0, py0 = ax + t0 * dx, ay + t0 * dy
    px1, py1 = ax + t1 * dx, ay + t1 * dy
    cell, xmin, ymin, ny = grid.cell_size, win.xmin, win.ymin, grid.ny
    ix0, ix1 = _index_range(min(px0, px1), max(px0, px1), xmin, cell, grid.nx)
    ylo, yhi = min(py0, py1), max(py0, py1)
    # Rounded ay + t * dy is monotone in t, so every column's row span lies
    # inside the clipped segment's.
    ry0, ry1 = _index_range(ylo, yhi, ymin, cell, ny)
    rows = _cell_slabs(ymin, cell, ry0, ry1, ay, dy)
    cells: list[tuple[float, int, int]] = []
    for ix, (ta, tb) in enumerate(_cell_slabs(xmin, cell, ix0, ix1, ax, dx), ix0):
        # max(0.0, ta), min(1.0, tb), max(ta, t0) and min(tb, t1) with their
        # argument order kept, so signed zeros match clip_segment_to_rect.
        cx0 = ta if ta > 0.0 else 0.0
        cx1 = tb if tb < 1.0 else 1.0
        if dx == 0.0:
            ya, yb = ylo, yhi
        else:
            ua = t0 if t0 > ta else ta
            ub = t1 if t1 < tb else tb
            if ua > ub:
                continue
            ya = ay + ua * dy
            yb = ay + ub * dy
            if ya > yb:
                ya, yb = yb, ya
        iy0, iy1 = _index_range(ya, yb, ymin, cell, ny)
        for iy in range(iy0, iy1 + 1):
            sa, sb = rows[iy - ry0]
            e0 = sa if sa > cx0 else cx0
            e1 = sb if sb < cx1 else cx1
            cells.append((e0 if e0 <= e1 else t0, ix, iy))
    cells.sort()
    return cells


def _slabs(lo, hi, p0, d) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_slab` elementwise."""
    with np.errstate(all="ignore"):    # inf as in Python; nan at d == 0, replaced below
        ta = np.subtract(lo, p0)
        ta /= d
        tb = np.subtract(hi, p0)
        tb /= d
    swap = ta > tb
    a = np.where(swap, tb, ta)
    np.copyto(tb, ta, where=swap)
    del ta, swap
    flat = d == 0.0
    if flat.any():
        out = flat & ~((lo <= p0) & (p0 <= hi))
        a[flat], tb[flat] = -math.inf, math.inf
        a[out], tb[out] = math.inf, -math.inf
    return a, tb


def index_ranges(lo, hi, origin: float, cell: float, n: int):
    """:func:`_index_range` elementwise.  An empty span stays empty; its
    ends are clipped to ``[0, n]`` and ``[-1, n - 1]``."""
    tlo = (lo - origin) / cell
    i0 = np.floor(tlo)
    i0 -= tlo == i0
    i1 = np.floor((hi - origin) / cell)
    return np.clip(i0, 0, n).astype(np.intp), np.clip(i1, -1, n - 1).astype(np.intp)


def grid_trace_many(ax, ay, bx, by, grid: GridSpec):
    """:func:`grid_trace_with_entries` of many segments at once, bit for bit.

    Segment k runs from ``(ax[k], ay[k])`` to ``(bx[k], by[k])``.  Returns
    the arrays ``(seg, ix, iy, entry)`` of every traced cell, grouped by
    segment in increasing ``seg``; a segment's cells come column after
    column, each column's in increasing ``iy``.  Sorting a segment's rows
    by ``(entry, ix, iy)`` gives its trace in order.
    The scalar trace's stages run as numpy passes: the window clip and the
    column spans over segments, the column slabs and row spans over
    columns, the row slabs and entries over cells.  Each keeps the scalar
    float operations in their order, and Python's ``max``/``min`` picks
    (:func:`pymax`, :func:`pymin`), so even the sign of a zero matches.
    Temporaries are dropped or overwritten as soon as they are used: a
    call peaks at about 110 bytes per traced cell, in the row slabs, and
    returns 32.
    """
    win, cell = grid.window, grid.cell_size
    ax, ay, bx, by = (np.asarray(v, dtype=np.float64) for v in (ax, ay, bx, by))
    dx, dy = bx - ax, by - ay
    xa, xb = _slabs(win.xmin, win.xmax, ax, dx)
    ya, yb = _slabs(win.ymin, win.ymax, ay, dy)
    t0 = pymax(pymax(0.0, xa), ya)
    t1 = pymin(pymin(1.0, xb), yb)
    seg = np.flatnonzero(t0 <= t1)
    ax, ay, dx, dy, t0, t1 = (v[seg] for v in (ax, ay, dx, dy, t0, t1))
    px0, px1 = ax + t0 * dx, ax + t1 * dx
    py0, py1 = ay + t0 * dy, ay + t1 * dy
    ix0, ix1 = index_ranges(pymin(px0, px1), pymax(px0, px1), win.xmin, cell, grid.nx)

    # Columns: c is the segment of each, ix its index.
    c, ix = expand_counts(np.maximum(ix1 - ix0 + 1, 0), ix0)
    lo = win.xmin + ix * cell
    ua, ub = _slabs(lo, lo + cell, ax[c], dx[c])
    del lo
    cx0, cx1 = pymax(0.0, ua), pymin(1.0, ub)
    # ua = pymax(ua, t0) and ub = pymin(ub, t1), in place
    tc = t0[c]
    np.copyto(ua, tc, where=tc > ua)
    tc = t1[c]
    np.copyto(ub, tc, where=tc < ub)
    del tc
    upright = dx[c] == 0.0
    keep = upright | ~(ua > ub)
    # ya = ay + ua * dy and yb = ay + ub * dy, in place; upright columns
    # (inf * 0.0 here) take the clipped segment's span instead.
    with np.errstate(invalid="ignore"):
        for v in (ua, ub):
            v *= dy[c]
            v += ay[c]
    swap = ua > ub
    ylo = np.where(swap, ub, ua)
    np.copyto(ub, ua, where=swap)
    yhi = ub
    del ua, ub, swap
    cu = c[upright]
    ylo[upright] = pymin(py0, py1)[cu]
    yhi[upright] = pymax(py0, py1)[cu]
    del cu, upright
    if not keep.all():
        c, ix, cx0, cx1, ylo, yhi = (v[keep] for v in (c, ix, cx0, cx1, ylo, yhi))
    del keep
    iy0, iy1 = index_ranges(ylo, yhi, win.ymin, cell, grid.ny)
    del ylo, yhi

    # Cells: r is the column of each, s its segment, iy its row.
    r, iy = expand_counts(np.maximum(iy1 - iy0 + 1, 0), iy0)
    del iy0, iy1
    s = c[r]
    lo = win.ymin + iy * cell
    e0, e1 = _slabs(lo, lo + cell, ay[s], dy[s])
    del lo
    # e0 = pymax(cx0, e0), e1 = pymin(cx1, e1), then the entry: e0 if
    # e0 <= e1 else t0, all in place
    cr = cx0[r]
    np.copyto(e0, cr, where=~(e0 > cr))
    cr = cx1[r]
    np.copyto(e1, cr, where=~(e1 < cr))
    del cr
    np.copyto(e0, t0[s], where=~(e0 <= e1))
    del e1
    return seg[s], ix[r], iy, e0


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
    return (float(np.cos(angle)), float(np.sin(angle)))


def sector_reach(lox, loy, hix, hiy) -> np.ndarray:
    """How far toward -x, +x, -y and +y circular sectors reach per unit of
    radius, as a ``(4, n)`` array.

    Sector k runs counter-clockwise from the unit vector ``(lox[k],
    loy[k])`` to ``(hix[k], hiy[k])`` and spans less than pi.  Its reach in
    an axis direction is 1 where its arc crosses that direction, else the
    farther of its two edges, or 0 (the apex).
    """
    return np.array([
        np.where((loy >= 0.0) & (hiy <= 0.0), 1.0, np.maximum(0.0, -np.minimum(lox, hix))),
        np.where((loy <= 0.0) & (hiy >= 0.0), 1.0, np.maximum(0.0, np.maximum(lox, hix))),
        np.where((lox <= 0.0) & (hix >= 0.0), 1.0, np.maximum(0.0, -np.minimum(loy, hiy))),
        np.where((lox >= 0.0) & (hix <= 0.0), 1.0, np.maximum(0.0, np.maximum(loy, hiy)))])


def sector_boxes(x, y, radius, reach, pad=0.0) -> np.ndarray:
    """Boxes ``(xmin, xmax, ymin, ymax)``, as a ``(4, n)`` array, of the
    sectors of :func:`sector_reach` ``reach`` with apex ``(x[k], y[k])``
    and radius ``radius[k]``, widened by ``pad``."""
    return np.array([x - radius * reach[0] - pad, x + radius * reach[1] + pad,
                     y - radius * reach[2] - pad, y + radius * reach[3] + pad])
