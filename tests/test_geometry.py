"""Geometry kernel tests.

Oracles here are written independently of the library code: the supercover
oracle enumerates grid cells and tests closed rectangle/segment overlap from
the definition, the ray oracle solves the 2x2 system per edge, and the
visibility oracle casts dense fans of rays.  The visibility sweep checked
here is the scalar one of ``tests/reference.py``, itself the oracle of the
package's batched sweep.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prfmap.geometry import (
    GridSpec,
    Point2,
    Rect,
    Segment,
    _index_range,
    boundary_arclength,
    boundary_point,
    boundary_tangent,
    clip_segment_to_rect,
    crossing_parity,
    dist,
    grid_trace_many,
    grid_trace_segment,
    grid_trace_with_entries,
    point_segment_distance,
    ray_segment_intersection,
    segment_crosses_halfopen,
    segment_min_distance,
    sector_boxes,
    sector_reach,
    segments_properly_intersect,
    shorter_arc_chain,
    sin_angle_between,
    unit_vector,
)
from reference import (
    Cone,
    cell_of,
    index_spans,
    ray_rect_exit,
    relative_angle,
    visibility_sweep,
)

# ---------------------------------------------------------------------------
# Oracles


def oracle_rect_segment_overlap(rect, seg):
    """Closed rect vs closed segment, from the interval definition.

    The segment point set is {p(t): t in [0,1]}; intersect the closed
    parameter intervals where each coordinate lies within the rect.
    """
    (ax, ay), (bx, by) = seg
    t_lo, t_hi = 0.0, 1.0
    for p0, d, lo, hi in ((ax, bx - ax, rect.xmin, rect.xmax),
                          (ay, by - ay, rect.ymin, rect.ymax)):
        if d == 0.0:
            if not (lo <= p0 <= hi):
                return None
        else:
            u0 = (lo - p0) / d
            u1 = (hi - p0) / d
            if u0 > u1:
                u0, u1 = u1, u0
            t_lo = max(t_lo, u0)
            t_hi = min(t_hi, u1)
    if t_lo > t_hi:
        return None
    return t_lo


def oracle_supercover(seg, grid):
    hits = []
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            t = oracle_rect_segment_overlap(grid.cell_rect(ix, iy), seg)
            if t is not None:
                hits.append((t, ix, iy))
    hits.sort()
    return [(ix, iy) for (_, ix, iy) in hits]


def oracle_ray_hit(origin, direction, seg):
    """Solve origin + t*d = a + u*(b-a) by Cramer's rule; endpoint hits count."""
    (ax, ay), (bx, by) = seg
    ex, ey = bx - ax, by - ay
    dx, dy = direction
    det = dx * ey - dy * ex
    if det == 0.0:
        return None
    rx, ry = ax - origin[0], ay - origin[1]
    t = (rx * ey - ry * ex) / det
    u = (rx * dy - ry * dx) / det
    if 0.0 <= u <= 1.0 and t >= 0.0:
        return t
    return None


def oracle_nearest_hit(origin, direction, segments):
    """(t, id) of the closest hit with ties broken by smaller id, or None."""
    best = None
    for sid, seg in segments:
        t = oracle_ray_hit(origin, direction, seg)
        if t is None:
            continue
        if best is None or (t, sid) < best:
            best = (t, sid)
    return best


def random_disjoint_segments(rng, n, box, min_len=0.05):
    segs = []
    attempts = 0
    while len(segs) < n and attempts < 50 * n:
        attempts += 1
        a = Point2(rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
        b = Point2(rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
        if dist(a, b) < min_len:
            continue
        cand = Segment(a, b)
        if any(segments_properly_intersect(cand, s) for _, s in segs):
            continue
        segs.append((len(segs), cand))
    return segs


# ---------------------------------------------------------------------------
# Exact predicates


def test_proper_intersection_cases():
    S = lambda ax, ay, bx, by: Segment(Point2(ax, ay), Point2(bx, by))
    # plain crossing
    assert segments_properly_intersect(S(0, 0, 2, 2), S(0, 2, 2, 0))
    # T-contact: endpoint in the other's interior
    assert segments_properly_intersect(S(0, 0, 2, 0), S(1, 0, 1, 1))
    assert segments_properly_intersect(S(1, 0, 1, 1), S(0, 0, 2, 0))
    # shared endpoint only
    assert not segments_properly_intersect(S(0, 0, 1, 1), S(1, 1, 2, 0))
    assert not segments_properly_intersect(S(0, 0, 1, 0), S(1, 0, 1, 1))
    # collinear overlap of positive length
    assert segments_properly_intersect(S(0, 0, 2, 0), S(1, 0, 3, 0))
    assert segments_properly_intersect(S(0, 0, 3, 0), S(1, 0, 2, 0))
    # collinear, touching at one point only
    assert not segments_properly_intersect(S(0, 0, 1, 0), S(1, 0, 2, 0))
    # collinear, disjoint
    assert not segments_properly_intersect(S(0, 0, 1, 0), S(2, 0, 3, 0))
    # parallel, offset
    assert not segments_properly_intersect(S(0, 0, 1, 0), S(0, 1, 1, 1))
    # fully disjoint in general position
    assert not segments_properly_intersect(S(0, 0, 1, 0), S(2, 2, 3, 1))


@given(st.lists(st.floats(-10, 10).filter(lambda v: abs(v) > 1e-6 or v == 0.0),
                min_size=8, max_size=8))
def test_proper_intersection_symmetry(coords):
    a, b, c, d = (Point2(coords[0], coords[1]), Point2(coords[2], coords[3]),
                  Point2(coords[4], coords[5]), Point2(coords[6], coords[7]))
    assume(a != b and c != d)
    s, t = Segment(a, b), Segment(c, d)
    r = segments_properly_intersect(s, t)
    assert segments_properly_intersect(t, s) == r
    assert segments_properly_intersect(Segment(b, a), t) == r
    assert segments_properly_intersect(s, Segment(d, c)) == r
    if r:
        assert segment_min_distance(s, t) == 0.0


def test_point_segment_distance_basics():
    a, b = Point2(0, 0), Point2(2, 0)
    assert point_segment_distance(Point2(1, 1), a, b) == pytest.approx(1.0)
    assert point_segment_distance(Point2(-1, 0), a, b) == pytest.approx(1.0)
    assert point_segment_distance(Point2(3, 4), a, b) == pytest.approx(math.hypot(1, 4))
    assert point_segment_distance(Point2(0.5, 0), a, b) == 0.0


def test_sin_angle_between():
    assert sin_angle_between(1, 0, 0, 1) == pytest.approx(1.0)
    assert sin_angle_between(1, 0, 1, 1) == pytest.approx(math.sin(math.pi / 4))
    assert sin_angle_between(1, 0, -1, 0) == pytest.approx(0.0, abs=1e-15)
    assert sin_angle_between(1, 0, 2, 0) == 0.0


# ---------------------------------------------------------------------------
# Half-open crossing rule


def _perturbed_parity(p, q, segments, rng):
    """Parity of a generic path near p->q; None if perturbations disagree."""
    outcomes = set()
    for _ in range(3):
        ex = rng.uniform(-1e-7, 1e-7)
        ey = rng.uniform(-1e-7, 1e-7)
        pp = Point2(p.x + ex, p.y + ey)
        qq = Point2(q.x + ex, q.y + ey)
        n = 0
        for seg in segments:
            d1 = (qq.x - pp.x) * (seg.a.y - pp.y) - (qq.y - pp.y) * (seg.a.x - pp.x)
            d2 = (qq.x - pp.x) * (seg.b.y - pp.y) - (qq.y - pp.y) * (seg.b.x - pp.x)
            d3 = (seg.b.x - seg.a.x) * (pp.y - seg.a.y) - (seg.b.y - seg.a.y) * (pp.x - seg.a.x)
            d4 = (seg.b.x - seg.a.x) * (qq.y - seg.a.y) - (seg.b.y - seg.a.y) * (qq.x - seg.a.x)
            if d1 * d2 < 0 and d3 * d4 < 0:
                n += 1
        outcomes.add(n & 1)
    return outcomes.pop() if len(outcomes) == 1 else None


def test_halfopen_crossing_through_shared_vertex():
    # Chain a-v-b forming a V; a path passing exactly through v must count
    # exactly one crossing in total.
    a, v, b = Point2(0, 1), Point2(1, 0), Point2(2, 1)
    chain = [Segment(a, v), Segment(v, b)]
    p, q = Point2(1, -1), Point2(1, 0.5)
    total = sum(segment_crosses_halfopen(p, q, s.a, s.b) for s in chain)
    assert total == 1
    # Path through v that stays outside the V: zero or two crossings.
    p2, q2 = Point2(0, -1), Point2(2, 1.5)  # passes through v, exits right arm
    total2 = sum(segment_crosses_halfopen(p2, q2, s.a, s.b) for s in chain)
    rng = random.Random(7)
    expected = _perturbed_parity(p2, q2, chain, rng)
    assert expected is not None
    assert total2 & 1 == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_halfopen_crossing_matches_generic_parity(seed):
    rng = random.Random(seed)
    pts = [Point2(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(4)]
    chain = [Segment(pts[i], pts[i + 1]) for i in range(3)]
    p = Point2(rng.uniform(-1, 5), rng.uniform(-1, 5))
    q = Point2(rng.uniform(-1, 5), rng.uniform(-1, 5))
    if rng.random() < 0.5:
        # Force the path to pass exactly through an interior chain vertex
        # (degree 2; at chain ends the parity is genuinely side-dependent).
        mid = pts[rng.randrange(1, 3)]
        q = Point2(p.x + 2.0 * (mid.x - p.x), p.y + 2.0 * (mid.y - p.y))
    expected = _perturbed_parity(p, q, chain, rng)
    assume(expected is not None)
    got = sum(segment_crosses_halfopen(p, q, s.a, s.b) for s in chain) & 1
    assert got == expected
    assert crossing_parity(p, q, chain) == expected


# ---------------------------------------------------------------------------
# Rect clipping and grid tracing


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_clip_segment_to_rect_matches_membership(seed):
    rng = random.Random(seed)
    rect = Rect(0.0, 0.0, 2.0, 1.5)
    a = Point2(rng.uniform(-1, 3), rng.uniform(-1, 2.5))
    b = Point2(rng.uniform(-1, 3), rng.uniform(-1, 2.5))
    assume(a != b)
    seg = Segment(a, b)
    clip = clip_segment_to_rect(seg, rect)
    for k in range(41):
        t = k / 40.0
        p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        inside = rect.contains(p)
        if clip is None:
            if inside:
                # Only boundary grazes may be lost to rounding.
                assert min(abs(p.x - rect.xmin), abs(p.x - rect.xmax),
                           abs(p.y - rect.ymin), abs(p.y - rect.ymax)) < 1e-9
        else:
            t0, t1 = clip
            if t0 + 1e-12 < t < t1 - 1e-12:
                assert inside
            elif inside and not (t0 - 1e-12 <= t <= t1 + 1e-12):
                raise AssertionError("inside point outside clip interval")


def test_supercover_axis_aligned_on_boundary():
    # A horizontal segment lying exactly on an interior cell boundary touches
    # the closed cells on both sides.
    grid = GridSpec(Rect(0.0, 0.0, 1.0, 1.0), 0.25)
    cells = grid_trace_segment(Segment(Point2(0.0, 0.5), Point2(1.0, 0.5)), grid)
    assert set(cells) == {(ix, iy) for ix in range(4) for iy in (1, 2)}
    cells = oracle_supercover(Segment(Point2(0.0, 0.5), Point2(1.0, 0.5)), grid)
    assert set(cells) == {(ix, iy) for ix in range(4) for iy in (1, 2)}


def test_supercover_through_cell_corner():
    # The diagonal hits cell corners exactly; all four closed cells around
    # each corner are touched.
    grid = GridSpec(Rect(0.0, 0.0, 1.0, 1.0), 0.5)
    seg = Segment(Point2(0.0, 0.0), Point2(1.0, 1.0))
    assert set(grid_trace_segment(seg, grid)) == set(oracle_supercover(seg, grid))
    assert set(grid_trace_segment(seg, grid)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_supercover_outside_window():
    grid = GridSpec(Rect(0.0, 0.0, 1.0, 1.0), 0.25)
    assert grid_trace_segment(Segment(Point2(2.0, 2.0), Point2(3.0, 2.5)), grid) == []


def test_supercover_single_point_cell():
    grid = GridSpec(Rect(0.0, 0.0, 1.0, 1.0), 0.25)
    seg = Segment(Point2(0.6, 0.6), Point2(0.61, 0.62))
    assert grid_trace_segment(seg, grid) == [(2, 2)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_supercover_matches_oracle(seed):
    rng = random.Random(seed)
    grid = GridSpec(Rect(0.0, 0.0, 2.0, 1.5), 0.25)
    a = Point2(rng.uniform(-0.5, 2.5), rng.uniform(-0.5, 2.0))
    b = Point2(rng.uniform(-0.5, 2.5), rng.uniform(-0.5, 2.0))
    assume(dist(a, b) > 1e-6)
    seg = Segment(a, b)
    got = grid_trace_segment(seg, grid)
    want = oracle_supercover(seg, grid)
    assert got == want


def reference_trace_with_entries(seg, grid):
    """Per-cell definition of the entry parameters.

    The column walk admits cells by the closed index spans; each admitted
    cell's entry is the t0 of its own closed clip, or the window-clip t0
    when that clip is empty (a boundary contact lost to rounding).
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
    cell = grid.cell_size
    ix0, ix1 = _index_range(min(px0, px1), max(px0, px1), win.xmin, cell, grid.nx)
    cells = []
    for ix in range(ix0, ix1 + 1):
        x_lo = win.xmin + ix * cell
        if dx == 0.0:
            ya, yb = min(py0, py1), max(py0, py1)
        else:
            ta = (x_lo - ax) / dx
            tb = (x_lo + cell - ax) / dx
            if ta > tb:
                ta, tb = tb, ta
            ta, tb = max(ta, t0), min(tb, t1)
            if ta > tb:
                continue
            ya, yb = sorted((ay + ta * dy, ay + tb * dy))
        iy0, iy1 = _index_range(ya, yb, win.ymin, cell, grid.ny)
        for iy in range(iy0, iy1 + 1):
            own = clip_segment_to_rect(seg, grid.cell_rect(ix, iy))
            cells.append((t0 if own is None else own[0], ix, iy))
    cells.sort()
    return cells


# The extent (2.17 x 1.23) is a multiple of none of the cell sizes.
TRACE_WINDOW = Rect(-0.3, 0.1, 1.87, 1.33)


@st.composite
def grid_and_segment(draw):
    """A grid and a segment drawn to hit the trace's edge cases: endpoints
    on cell lines and corners, axis-parallel segments (on a cell boundary
    when the shared coordinate is snapped), zero-length segments, and
    segments partly or wholly outside the window."""
    grid = GridSpec(TRACE_WINDOW, draw(st.sampled_from((0.05, 0.25, 0.5))))
    return grid, _draw_segment(draw, grid)


@st.composite
def grid_and_segments(draw):
    """A grid and up to a dozen segments, each drawn as grid_and_segment
    draws one."""
    grid = GridSpec(TRACE_WINDOW, draw(st.sampled_from((0.05, 0.25, 0.5))))
    return grid, [_draw_segment(draw, grid) for _ in range(draw(st.integers(0, 12)))]


def _draw_segment(draw, grid):
    cell, w = grid.cell_size, grid.window

    def coord(lo, hi, n):
        return draw(st.one_of(
            st.floats(lo - 0.5, hi + 0.5),
            st.integers(-2, n + 2).map(lambda k: lo + k * cell)))

    ax, ay = coord(w.xmin, w.xmax, grid.nx), coord(w.ymin, w.ymax, grid.ny)
    kind = draw(st.sampled_from(("free", "horizontal", "vertical", "point")))
    bx = ax if kind in ("vertical", "point") else coord(w.xmin, w.xmax, grid.nx)
    by = ay if kind in ("horizontal", "point") else coord(w.ymin, w.ymax, grid.ny)
    return Segment(Point2(ax, ay), Point2(bx, by))


@settings(max_examples=1000, deadline=None)
@given(grid_and_segment())
def test_trace_entries_match_per_cell_clip(case):
    grid, seg = case
    got = grid_trace_with_entries(seg, grid)
    want = reference_trace_with_entries(seg, grid)
    # float.hex compares bit for bit, signed zeros included.
    assert [(t.hex(), ix, iy) for t, ix, iy in got] == \
        [(t.hex(), ix, iy) for t, ix, iy in want]
    assert trace_many_rows([seg], grid) == scalar_trace_rows([seg], grid)


def scalar_trace_rows(segs, grid):
    """Each segment's grid_trace_with_entries, as (segment, entry as
    float.hex, ix, iy) rows, segment after segment."""
    return [(k, t.hex(), ix, iy) for k, seg in enumerate(segs)
            for t, ix, iy in grid_trace_with_entries(seg, grid)]


def trace_many_rows(segs, grid):
    """One grid_trace_many call over all the segments, as the same rows:
    its cells, which come by segment, then column, then row, sorted by
    (segment, entry, ix, iy)."""
    ends = np.array([(a.x, a.y, b.x, b.y) for a, b in segs], dtype=np.float64).reshape(-1, 4)
    seg, ix, iy, entry = grid_trace_many(*ends.T, grid)
    assert np.array_equal(np.lexsort((iy, ix, seg)), np.arange(len(seg)))
    rows = sorted(zip(seg.tolist(), entry.tolist(), ix.tolist(), iy.tolist()))
    return [(k, t.hex(), i, j) for k, t, i, j in rows]


def structured_segments(rng, grid, n):
    """Random segments in and around the window: endpoints snapped to cell
    lines, axis-parallel (some along a cell boundary), zero-length, wholly
    outside, through a window corner, and free."""
    w, cell = grid.window, grid.cell_size
    corners = [(w.xmin, w.ymin), (w.xmax, w.ymin), (w.xmax, w.ymax), (w.xmin, w.ymax)]

    def coord(lo, hi, cells):
        if rng.random() < 0.5:
            return lo + rng.randint(-2, cells + 2) * cell
        return rng.uniform(lo - 1.0, hi + 1.0)

    out = []
    for _ in range(n):
        ax, ay = coord(w.xmin, w.xmax, grid.nx), coord(w.ymin, w.ymax, grid.ny)
        bx, by = coord(w.xmin, w.xmax, grid.nx), coord(w.ymin, w.ymax, grid.ny)
        kind = rng.choice(("free", "horizontal", "vertical", "point", "outside", "corner"))
        if kind == "horizontal":
            by = ay
        elif kind == "vertical":
            bx = ax
        elif kind == "point":
            bx, by = ax, ay
        elif kind == "outside":
            ax, bx = w.xmax + rng.uniform(0.0, 1.0), w.xmax + rng.uniform(0.0, 1.0)
        elif kind == "corner":
            # from the corner, or across it along a diagonal
            (ax, ay), u, v = rng.choice(corners), rng.choice((0.25, 0.5, 1.5)), 0.75
            if rng.random() < 0.5:
                sx, sy = rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0))
                ax, ay, bx, by = ax - sx * u, ay - sy * u, ax + sx * v, ay + sy * v
        out.append(Segment(Point2(ax, ay), Point2(bx, by)))
    return out


def test_trace_many_matches_the_scalar_trace(corridor_log):
    # The corridor log's beams, on the benchmark's grid, with random
    # segments of every awkward kind, all in one call.
    grid = GridSpec(corridor_log.window, 0.05)
    segs = []
    for o in corridor_log.lasers:
        ux, uy = unit_vector(o.heading + o.bearing)
        segs.append(Segment(Point2(o.x, o.y), Point2(o.x + o.range * ux, o.y + o.range * uy)))
    segs += structured_segments(random.Random(5), grid, 3_000)
    want = scalar_trace_rows(segs, grid)
    assert len(want) > 250_000
    assert trace_many_rows(segs, grid) == want
    for seed, cell in enumerate((0.05, 0.25, 0.5)):
        grid = GridSpec(TRACE_WINDOW, cell)
        segs = structured_segments(random.Random(seed), grid, 2_000)
        assert trace_many_rows(segs, grid) == scalar_trace_rows(segs, grid)


@settings(max_examples=300, deadline=None)
@given(grid_and_segments())
def test_trace_many_matches_the_scalar_trace_on_drawn_segments(case):
    # Mixes of test_trace_entries_match_per_cell_clip's cases, one call each.
    grid, segs = case
    assert trace_many_rows(segs, grid) == scalar_trace_rows(segs, grid)


def test_trace_many_of_no_segment_is_empty():
    grid = GridSpec(TRACE_WINDOW, 0.25)
    seg, ix, iy, entry = grid_trace_many([], [], [], [], grid)
    assert len(seg) == len(ix) == len(iy) == len(entry) == 0
    assert trace_many_rows([], grid) == []


@settings(max_examples=500, deadline=None)
@given(grid_and_segment(), st.integers(0, 10**9))
def test_clip_entry_matches_interval_oracle(case, seed):
    # The clip's t0 is the interval definition's, bit for bit, on window
    # and cell rectangles.
    grid, seg = case
    rng = random.Random(seed)
    rects = [grid.window] + [grid.cell_rect(rng.randrange(grid.nx), rng.randrange(grid.ny))
                             for _ in range(10)]
    for c in grid_trace_segment(seg, grid):
        rects.append(grid.cell_rect(*c))
    for rect in rects:
        clip = clip_segment_to_rect(seg, rect)
        want = oracle_rect_segment_overlap(rect, seg)
        assert (None if clip is None else clip[0].hex()) == \
            (None if want is None else want.hex())


def test_supercover_front_to_back_order():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 4.0), 0.5)
    seg = Segment(Point2(0.1, 0.2), Point2(3.9, 3.7))
    cells = grid_trace_segment(seg, grid)
    entries = []
    for c in cells:
        t = oracle_rect_segment_overlap(grid.cell_rect(*c), seg)
        assert t is not None
        entries.append(t)
    assert entries == sorted(entries)


def test_index_spans_match_bruteforce():
    grid = GridSpec(Rect(0.0, 0.0, 2.0, 1.5), 0.25)
    rng = random.Random(3)
    for _ in range(200):
        x0, x1 = sorted((rng.uniform(-0.3, 2.3), rng.uniform(-0.3, 2.3)))
        y0, y1 = sorted((rng.uniform(-0.3, 1.8), rng.uniform(-0.3, 1.8)))
        ix0, ix1, iy0, iy1 = index_spans(grid, x0, y0, x1, y1)
        got = {(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)}
        want = set()
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                r = grid.cell_rect(ix, iy)
                if r.xmin <= x1 and x0 <= r.xmax and r.ymin <= y1 and y0 <= r.ymax:
                    want.add((ix, iy))
        assert got == want


def test_gridspec_counts_and_cell_of():
    grid = GridSpec(Rect(0.0, 0.0, 8.0, 6.0), 0.05)
    assert grid.nx == 160 and grid.ny == 120
    assert cell_of(grid, Point2(0.0, 0.0)) == (0, 0)
    assert cell_of(grid, Point2(8.0, 6.0)) == (159, 119)
    assert cell_of(grid, Point2(0.07, 0.11)) == (1, 2)


# ---------------------------------------------------------------------------
# Rays


def test_ray_segment_intersection_basics():
    seg = Segment(Point2(1.0, -1.0), Point2(1.0, 1.0))
    t = ray_segment_intersection(Point2(0, 0), (1.0, 0.0), seg)
    assert t == pytest.approx(1.0)
    # endpoint hit counts
    t = ray_segment_intersection(Point2(0, 0), unit_vector(math.atan2(1.0, 1.0)), seg)
    assert t == pytest.approx(math.sqrt(2.0))
    # behind the origin
    assert ray_segment_intersection(Point2(0, 0), (-1.0, 0.0), seg) is None
    # parallel (collinear graze treated as miss)
    assert ray_segment_intersection(Point2(1.0, -2.0), (0.0, 1.0), seg) is None
    assert ray_segment_intersection(Point2(0.0, 0.0), (0.0, 1.0), seg) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_ray_segment_matches_oracle(seed):
    rng = random.Random(seed)
    o = Point2(rng.uniform(0, 4), rng.uniform(0, 4))
    ang = rng.uniform(-math.pi, math.pi)
    d = unit_vector(ang)
    seg = Segment(Point2(rng.uniform(0, 4), rng.uniform(0, 4)),
                  Point2(rng.uniform(0, 4), rng.uniform(0, 4)))
    assume(seg.a != seg.b)
    got = ray_segment_intersection(o, d, seg)
    want = oracle_ray_hit((o.x, o.y), d, seg)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == pytest.approx(want, abs=1e-12)
        hit = Point2(o.x + got * d[0], o.y + got * d[1])
        assert point_segment_distance(hit, seg.a, seg.b) < 1e-7


def test_ray_rect_exit():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    assert ray_rect_exit(Point2(1, 1), (1.0, 0.0), rect) == pytest.approx(3.0)
    assert ray_rect_exit(Point2(1, 1), (0.0, -1.0), rect) == pytest.approx(1.0)
    d = unit_vector(math.pi / 4)
    t = ray_rect_exit(Point2(1, 1), d, rect)
    p = Point2(1 + t * d[0], 1 + t * d[1])
    assert min(abs(p.x - 4.0), abs(p.y - 3.0)) < 1e-12
    # random: exit point sits on the boundary
    rng = random.Random(11)
    for _ in range(100):
        o = Point2(rng.uniform(0.01, 3.99), rng.uniform(0.01, 2.99))
        d = unit_vector(rng.uniform(-math.pi, math.pi))
        t = ray_rect_exit(o, d, rect)
        p = Point2(o.x + t * d[0], o.y + t * d[1])
        assert -1e-9 <= p.x <= 4.0 + 1e-9 and -1e-9 <= p.y <= 3.0 + 1e-9
        assert (min(abs(p.x), abs(p.x - 4.0)) < 1e-9
                or min(abs(p.y), abs(p.y - 3.0)) < 1e-9)


def test_relative_angle():
    assert relative_angle(0.0, 1.0, 0.0) == pytest.approx(0.0)
    assert relative_angle(0.0, 0.0, 1.0) == pytest.approx(math.pi / 2)
    assert relative_angle(math.pi / 2, 0.0, 1.0) == pytest.approx(0.0)
    assert relative_angle(0.0, 1.0, -1.0) == pytest.approx(-math.pi / 4)


def reference_cone_bbox(cone):
    """Cone.bbox as four relative_angle calls, one per axis direction."""
    ax, ay, r = cone.apex.x, cone.apex.y, cone.max_range
    xs, ys = [ax], [ay]
    for a in (cone.heading - cone.half_angle, cone.heading + cone.half_angle):
        xs.append(ax + r * math.cos(a))
        ys.append(ay + r * math.sin(a))
    for ux, uy in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
        if abs(relative_angle(cone.heading, ux, uy)) <= cone.half_angle:
            xs.append(ax + r * ux)
            ys.append(ay + r * uy)
    return min(xs), min(ys), max(xs), max(ys)


def random_cones(rng, n):
    """Cones with random headings, headings on an axis, and an arc end on
    an axis (heading = axis angle -+ half-angle)."""
    for _ in range(n):
        half = rng.uniform(0.01, 1.5)
        kind = rng.random()
        axis = rng.randrange(-2, 3) * (math.pi / 2)
        if kind < 0.3:
            heading = axis
        elif kind < 0.6:
            heading = axis + rng.choice((-half, half))
        else:
            heading = rng.uniform(-math.pi, math.pi)
        yield Cone(Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                   heading, half, rng.uniform(0.1, 5.0))


def test_cone_bbox_is_bit_identical_to_four_relative_angles():
    rng = random.Random(41)
    for cone in random_cones(rng, 3_000):
        got, want = cone.bbox(), reference_cone_bbox(cone)
        assert [v.hex() for v in got] == [v.hex() for v in want], cone


def test_sector_boxes_bound_the_cone_bbox():
    # The reach-factor box of a sector is Cone.bbox up to rounding.
    cones = list(random_cones(random.Random(43), 2_000))
    heading = np.array([c.heading for c in cones])
    half = np.array([c.half_angle for c in cones])
    reach = sector_reach(np.cos(heading - half), np.sin(heading - half),
                         np.cos(heading + half), np.sin(heading + half))
    box = sector_boxes(np.array([c.apex.x for c in cones]), np.array([c.apex.y for c in cones]),
                       np.array([c.max_range for c in cones]), reach)
    want = np.array([c.bbox() for c in cones]).T     # xmin, ymin, xmax, ymax
    assert np.allclose(box, want[[0, 2, 1, 3]], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Visibility


def test_visibility_single_wall():
    # Wall two units ahead, fully spanning a narrow cone.
    wall = Segment(Point2(2.0, -3.0), Point2(2.0, 3.0))
    cone = Cone(Point2(0.0, 0.0), 0.0, math.radians(10.0), 10.0)
    feats = visibility_sweep([(7, wall)], cone)
    faces = [f for f in feats if f.kind == "face"]
    corners = [f for f in feats if f.kind == "corner"]
    assert len(faces) == 1 and not corners
    f = faces[0]
    assert f.source_id == 7
    assert f.depth == pytest.approx(2.0, abs=1e-9)
    assert f.projection_angle == pytest.approx(math.pi / 2, abs=1e-6)
    assert f.angle_lo == pytest.approx(-math.radians(10.0), abs=1e-9)
    assert f.angle_hi == pytest.approx(math.radians(10.0), abs=1e-9)
    assert f.subtended_angle == pytest.approx(math.radians(20.0), abs=1e-9)
    # endpoints of the visible piece sit on the wall
    assert point_segment_distance(f.point_a, wall.a, wall.b) < 1e-9
    assert point_segment_distance(f.point_b, wall.a, wall.b) < 1e-9


def test_visibility_wall_with_visible_end():
    wall = Segment(Point2(2.0, 0.0), Point2(2.0, 5.0))
    cone = Cone(Point2(0.0, 1.0), 0.0, math.radians(45.0), 10.0)
    feats = visibility_sweep([(0, wall)], cone)
    faces = [f for f in feats if f.kind == "face"]
    corners = [f for f in feats if f.kind == "corner"]
    assert len(faces) == 1
    # The lower wall end (2, 0) is inside the cone and unoccluded.
    assert any(c.point_a == Point2(2.0, 0.0) for c in corners)
    f = faces[0]
    assert f.angle_lo == pytest.approx(math.atan2(-1.0, 2.0), abs=1e-9)


def test_visibility_occlusion():
    near = Segment(Point2(1.0, -0.5), Point2(1.0, 0.5))
    far = Segment(Point2(2.0, -3.0), Point2(2.0, 3.0))
    cone = Cone(Point2(0.0, 0.0), 0.0, math.radians(40.0), 10.0)
    feats = visibility_sweep([(0, far), (1, near)], cone)
    faces = sorted((f for f in feats if f.kind == "face"),
                   key=lambda f: f.angle_lo)
    assert [f.source_id for f in faces] == [0, 1, 0]
    # the near wall's face spans exactly the angles subtended by it
    a_lo = math.atan2(-0.5, 1.0)
    assert faces[1].angle_lo == pytest.approx(a_lo, abs=1e-7)
    assert faces[1].angle_hi == pytest.approx(-a_lo, abs=1e-7)
    # features come back sorted by depth
    depths = [f.depth for f in feats]
    assert depths == sorted(depths)
    # near wall endpoints are visible corners; far wall pieces at depth 2
    corner_pts = {f.point_a for f in feats if f.kind == "corner"}
    assert Point2(1.0, -0.5) in corner_pts and Point2(1.0, 0.5) in corner_pts


def test_visibility_beyond_range():
    wall = Segment(Point2(5.0, -1.0), Point2(5.0, 1.0))
    cone = Cone(Point2(0.0, 0.0), 0.0, math.radians(20.0), 3.0)
    assert visibility_sweep([(0, wall)], cone) == []


def test_visibility_range_clips_face():
    wall = Segment(Point2(2.0, -5.0), Point2(2.0, 5.0))
    cone = Cone(Point2(0.0, 0.0), 0.0, math.radians(60.0), 2.5)
    feats = visibility_sweep([(0, wall)], cone)
    faces = [f for f in feats if f.kind == "face"]
    assert len(faces) == 1
    f = faces[0]
    # visible piece limited to |y| <= 1.5 where distance <= 2.5
    assert max(abs(f.point_a.y), abs(f.point_b.y)) == pytest.approx(1.5, abs=1e-9)
    assert dist(cone.apex, f.point_a) <= 2.5 + 1e-9
    assert dist(cone.apex, f.point_b) <= 2.5 + 1e-9
    assert f.depth == pytest.approx(2.0, abs=1e-9)


def test_visibility_shared_endpoint_corner_not_occluded():
    # Two segments meeting at a vertex: incident edges must not occlude it.
    v = Point2(2.0, 0.0)
    s1 = Segment(Point2(2.0, -1.0), v)
    s2 = Segment(v, Point2(3.0, 1.0))
    cone = Cone(Point2(0.0, 0.0), 0.0, math.radians(45.0), 10.0)
    feats = visibility_sweep([(0, s1), (1, s2)], cone)
    assert any(f.kind == "corner" and f.point_a == v for f in feats)


def _check_scene_against_dense_oracle(segs, cone, n_rays, rng):
    feats = visibility_sweep(segs, cone)
    faces = [f for f in feats if f.kind == "face"]
    for f in faces:
        assert -cone.half_angle - 1e-9 <= f.angle_lo <= f.angle_hi <= cone.half_angle + 1e-9
        assert f.depth <= cone.max_range + 1e-9
        assert f.depth == pytest.approx(
            point_segment_distance(cone.apex, f.point_a, f.point_b), abs=1e-9)
    # face intervals must be disjoint
    ordered = sorted(faces, key=lambda f: f.angle_lo)
    for f1, f2 in zip(ordered, ordered[1:]):
        assert f1.angle_hi <= f2.angle_lo + 1e-9
    slack = 2.0 * (2.0 * cone.half_angle) / n_rays
    boundaries = sorted({b for f in faces for b in (f.angle_lo, f.angle_hi)})
    for _ in range(n_rays):
        alpha = rng.uniform(-cone.half_angle, cone.half_angle)
        if any(abs(alpha - b) < slack for b in boundaries):
            continue
        d = unit_vector(cone.heading + alpha)
        want = oracle_nearest_hit((cone.apex.x, cone.apex.y), d, segs)
        cover = [f for f in ordered if f.angle_lo <= alpha <= f.angle_hi]
        if want is not None and want[0] <= cone.max_range - 1e-6:
            assert len(cover) == 1, f"angle {alpha}: no unique covering face"
            f = cover[0]
            assert f.source_id == want[1]
            t_face = oracle_ray_hit((cone.apex.x, cone.apex.y), d,
                                    Segment(f.point_a, f.point_b))
            assert t_face is not None
            assert t_face == pytest.approx(want[0], abs=1e-6)
        elif want is None or want[0] > cone.max_range + 1e-6:
            assert not cover, f"angle {alpha}: spurious face cover"
    # corner correctness, both directions
    corner_pts = {f.point_a for f in feats if f.kind == "corner"}
    endpoints = {}
    for sid, s in segs:
        for v in (s.a, s.b):
            endpoints.setdefault(v, sid)
    for v in endpoints:
        dv = dist(cone.apex, v)
        if dv == 0.0 or dv > cone.max_range:
            assert v not in corner_pts
            continue
        alpha = relative_angle(cone.heading, v.x - cone.apex.x, v.y - cone.apex.y)
        if abs(alpha) > cone.half_angle:
            assert v not in corner_pts
            continue
        unit = ((v.x - cone.apex.x) / dv, (v.y - cone.apex.y) / dv)
        hit = oracle_nearest_hit((cone.apex.x, cone.apex.y), unit, segs)
        occluded = hit is not None and hit[0] < dv - 1e-9
        assert (v in corner_pts) == (not occluded)


# ---------------------------------------------------------------------------
# Window boundary parameterization


def test_boundary_point_corners_and_sides():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    assert boundary_point(rect, 0.0) == Point2(0.0, 0.0)
    assert boundary_point(rect, 2.0) == Point2(2.0, 0.0)
    assert boundary_point(rect, 4.0) == Point2(4.0, 0.0)
    assert boundary_point(rect, 5.5) == Point2(4.0, 1.5)
    assert boundary_point(rect, 7.0) == Point2(4.0, 3.0)
    assert boundary_point(rect, 9.0) == Point2(2.0, 3.0)
    assert boundary_point(rect, 11.0) == Point2(0.0, 3.0)
    assert boundary_point(rect, 12.5) == Point2(0.0, 1.5)
    assert boundary_point(rect, 14.0) == Point2(0.0, 0.0)
    assert rect.perimeter == 14.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 14.0, exclude_max=True))
def test_boundary_arclength_roundtrip(s):
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    p = boundary_point(rect, s)
    s2 = boundary_arclength(rect, p)
    assert s2 == pytest.approx(s % 14.0, abs=1e-9)
    # and the induced point is identical
    assert boundary_point(rect, s2) == p


def test_boundary_tangent():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    assert boundary_tangent(rect, Point2(2.0, 0.0)) == (1.0, 0.0)
    assert boundary_tangent(rect, Point2(2.0, 3.0)) == (1.0, 0.0)
    assert boundary_tangent(rect, Point2(0.0, 1.0)) == (0.0, 1.0)
    assert boundary_tangent(rect, Point2(4.0, 1.0)) == (0.0, 1.0)
    with pytest.raises(ValueError):
        boundary_tangent(rect, Point2(0.0, 0.0))
    with pytest.raises(ValueError):
        boundary_tangent(rect, Point2(1.0, 1.0))


def test_shorter_arc_chain_same_side():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    pts, arc = shorter_arc_chain(rect, Point2(1.0, 0.0), Point2(3.0, 0.0))
    assert pts == [Point2(1.0, 0.0), Point2(3.0, 0.0)]
    assert arc == pytest.approx(2.0)


def test_shorter_arc_chain_through_corner():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    pts, arc = shorter_arc_chain(rect, Point2(3.0, 0.0), Point2(4.0, 2.0))
    assert pts == [Point2(3.0, 0.0), Point2(4.0, 0.0), Point2(4.0, 2.0)]
    assert arc == pytest.approx(3.0)
    # direction-independent: same chain (as a set of points) both ways
    pts2, arc2 = shorter_arc_chain(rect, Point2(4.0, 2.0), Point2(3.0, 0.0))
    assert pts2 == list(reversed(pts))
    assert arc2 == pytest.approx(arc)


def test_shorter_arc_chain_wraps_origin_corner():
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    pts, arc = shorter_arc_chain(rect, Point2(0.0, 1.0), Point2(1.0, 0.0))
    assert pts == [Point2(0.0, 1.0), Point2(0.0, 0.0), Point2(1.0, 0.0)]
    assert arc == pytest.approx(2.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 14.0, exclude_max=True), st.floats(0.0, 14.0, exclude_max=True))
def test_shorter_arc_chain_length_consistency(s1, s2):
    rect = Rect(0.0, 0.0, 4.0, 3.0)
    p1, p2 = boundary_point(rect, s1), boundary_point(rect, s2)
    pts, arc = shorter_arc_chain(rect, p1, p2)
    d = abs(s1 - s2)
    want = min(d, 14.0 - d)
    assert arc == pytest.approx(want, abs=1e-9)
    assert pts[0] == p1 and pts[-1] == p2
    # chain length equals the reported arc length
    total = sum(dist(a, b) for a, b in zip(pts, pts[1:]))
    assert total == pytest.approx(arc, abs=1e-9)


def test_visibility_matches_dense_oracle_random_scenes():
    rng = random.Random(2024)
    box = Rect(-3.0, -3.0, 3.0, 3.0)
    for scene in range(40):
        segs = random_disjoint_segments(rng, rng.randrange(1, 8), box)
        if not segs:
            continue
        apex = Point2(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if any(point_segment_distance(apex, s.a, s.b) < 1e-3 for _, s in segs):
            continue
        cone = Cone(apex, rng.uniform(-math.pi, math.pi),
                    rng.uniform(0.1, 1.4), rng.uniform(1.0, 5.0))
        _check_scene_against_dense_oracle(segs, cone, 400, rng)
