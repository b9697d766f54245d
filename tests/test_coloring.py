"""State-representation tests: colors by parity, incremental edits, revert."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prfmap.coloring
from prfmap.coloring import (
    BLACK,
    BOUNDARY,
    INTERIOR,
    WHITE,
    Coloring,
    Edit,
    changed_mask,
    point_changed,
)
from prfmap.geometry import (
    Point2,
    Rect,
    Segment,
    boundary_point,
    grid_trace_segment,
    shorter_arc_chain,
)
from prfmap.moves import MoveParams, propose
from prfmap.prior import PriorParams
from prfmap.sampler import Sampler, run_chain

WIN = Rect(0.0, 0.0, 4.0, 3.0)


def triangle_edit(cx, cy, r, rot=0.3):
    verts = []
    for k in range(3):
        a = rot + 2.0 * math.pi * k / 3.0
        verts.append((-(k + 1), cx + r * math.cos(a), cy + r * math.sin(a), INTERIOR))
    return Edit(new_vertices=tuple(verts),
                added_edges=((-1, -2), (-2, -3), (-3, -1)))


def chord_edit(win, s1, s2):
    p1 = boundary_point(win, s1)
    p2 = boundary_point(win, s2)
    chain, _ = shorter_arc_chain(win, p1, p2)
    closure = tuple(Segment(a, b) for a, b in zip(chain, chain[1:]))
    return Edit(new_vertices=((-1, p1.x, p1.y, BOUNDARY), (-2, p2.x, p2.y, BOUNDARY)),
                added_edges=((-1, -2),), closure=closure)


def grid_points(win, n=21):
    xs = np.linspace(win.xmin + 0.01, win.xmax - 0.013, n)
    ys = np.linspace(win.ymin + 0.017, win.ymax - 0.011, n)
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def test_empty_coloring():
    col = Coloring.empty(WIN)
    assert col.n_edges == 0
    assert col.color_at(Point2(1.0, 1.0)) == WHITE
    assert col.stats.total_length == 0.0
    col.validate()


def test_from_rectangles_colors():
    col = Coloring.from_rectangles(WIN, [Rect(1.0, 1.0, 2.0, 2.0)])
    col.validate()
    assert col.color_at(Point2(1.5, 1.5)) == BLACK
    assert col.color_at(Point2(0.5, 0.5)) == WHITE
    assert col.color_at(Point2(3.5, 2.5)) == WHITE
    assert col.color_at(Point2(1.5, 2.5)) == WHITE
    # batch query agrees with the scalar one everywhere
    xs, ys = grid_points(WIN)
    got = col.colors_at(xs, ys)
    want = np.array([col.color_at(Point2(x, y)) for x, y in zip(xs, ys)], dtype=np.int8)
    assert np.array_equal(got, want)


def test_from_rectangles_nested_even_odd():
    col = Coloring.from_rectangles(WIN, [Rect(0.5, 0.5, 3.5, 2.5),
                                         Rect(1.5, 1.0, 2.5, 2.0)])
    col.validate()
    assert col.color_at(Point2(1.0, 0.75)) == BLACK   # in outer only
    assert col.color_at(Point2(2.0, 1.5)) == WHITE    # inside both
    assert col.color_at(Point2(0.2, 0.2)) == WHITE    # outside both


def test_apply_triangle_edit_and_revert():
    col = Coloring.empty(WIN)
    edit = triangle_edit(2.0, 1.5, 0.6)
    assert col.edit_is_valid(edit)
    before = col.clone()
    res = col.apply_edit(edit)
    col.validate()
    assert col.n_edges == 3
    assert len(col.vertices) == 3
    # anchor (window center) sits inside the triangle: its color flips
    assert res.anchor_flipped
    assert col.anchor_color == BLACK
    assert col.color_at(Point2(2.0, 1.5)) == BLACK
    assert col.color_at(Point2(0.3, 0.3)) == WHITE
    live = col.stats
    fresh = col.recompute_stats()
    assert live.n_edges == fresh.n_edges
    assert live.total_length == pytest.approx(fresh.total_length, abs=1e-12)
    assert live.sum_log_length == pytest.approx(fresh.sum_log_length, abs=1e-12)
    assert live.sum_log_sin == pytest.approx(fresh.sum_log_sin, abs=1e-12)
    col.stats = live
    col.revert(res.token)
    col.validate()
    assert col.semantically_equal(before)
    assert col.stats.total_length == before.stats.total_length
    assert col.stats.sum_log_length == before.stats.sum_log_length
    assert col.stats.sum_log_sin == before.stats.sum_log_sin
    assert col.anchor_color == WHITE


def test_apply_chord_edit_flips_short_side():
    col = Coloring.empty(WIN)
    # chord across the bottom-left corner region: from bottom side to left side
    edit = chord_edit(WIN, 1.0, 13.0)  # (1,0) to (0,1)
    assert col.edit_is_valid(edit)
    res = col.apply_edit(edit)
    col.validate()
    assert not res.anchor_flipped  # anchor is on the long-arc side
    assert col.color_at(Point2(0.2, 0.2)) == BLACK
    assert col.color_at(Point2(2.0, 1.5)) == WHITE
    assert col.color_at(Point2(3.0, 2.0)) == WHITE


def test_changed_mask_matches_color_diff():
    rng = random.Random(9)
    col = Coloring.empty(WIN)
    xs, ys = grid_points(WIN)
    applied = []
    for step in range(12):
        pre = col.colors_at(xs, ys)
        if applied and rng.random() < 0.3:
            res = applied.pop()
            delta = res.delta_segments
            flip = res.anchor_flipped
            col.revert(res.token)
        else:
            cx = rng.uniform(0.8, 3.2)
            cy = rng.uniform(0.8, 2.2)
            edit = triangle_edit(cx, cy, rng.uniform(0.2, 0.7), rng.random() * 6)
            if not col.edit_is_valid(edit):
                continue
            res = col.apply_edit(edit)
            applied.append(res)
            delta = res.delta_segments
            flip = res.anchor_flipped
        post = col.colors_at(xs, ys)
        mask = changed_mask(col.anchor, xs, ys, delta, flip)
        assert np.array_equal(mask, pre != post)
        # scalar agrees with the batch version
        for i in (0, len(xs) // 2, len(xs) - 1):
            assert point_changed(col.anchor, Point2(xs[i], ys[i]), delta, flip) \
                == bool(mask[i])
    col.validate()


def test_changed_region_bbox_bounds_changes():
    col = Coloring.empty(WIN)
    xs, ys = grid_points(WIN, n=41)
    pre = col.colors_at(xs, ys)
    res = col.apply_edit(triangle_edit(1.0, 1.0, 0.4))
    post = col.colors_at(xs, ys)
    x0, y0, x1, y1 = res.region
    outside = (xs < x0) | (xs > x1) | (ys < y0) | (ys > y1)
    assert np.all(pre[outside] == post[outside])
    assert np.any(pre != post)


def test_edit_validity_rejections():
    col = Coloring.empty(WIN)
    col.apply_edit(triangle_edit(2.0, 1.5, 0.6))
    # crossing triangle rejected
    assert not col.edit_is_valid(triangle_edit(2.3, 1.5, 0.6))
    # disjoint triangle accepted
    assert col.edit_is_valid(triangle_edit(0.7, 0.7, 0.3))
    # triangle poking outside the window rejected
    assert not col.edit_is_valid(triangle_edit(0.1, 0.1, 0.3))
    # near-collinear sliver rejected by the angle floor
    sliver = Edit(new_vertices=((-1, 0.5, 0.5, INTERIOR),
                                (-2, 1.1, 0.5, INTERIOR),
                                (-3, 0.8, 0.5 + 1e-9, INTERIOR)),
                  added_edges=((-1, -2), (-2, -3), (-3, -1)))
    assert not col.edit_is_valid(sliver)
    # tiny edge rejected
    tiny = triangle_edit(0.7, 0.7, 1e-8)
    assert not col.edit_is_valid(tiny)


def test_edit_validity_anchor_clearance():
    col = Coloring.empty(WIN)
    a = col.anchor
    through = Edit(new_vertices=((-1, a.x - 0.5, a.y, INTERIOR),
                                 (-2, a.x + 0.5, a.y, INTERIOR),
                                 (-3, a.x, a.y + 0.5, INTERIOR)),
                   added_edges=((-1, -2), (-2, -3), (-3, -1)))
    assert not col.edit_is_valid(through)


def test_edit_validity_boundary_corner_margin():
    col = Coloring.empty(WIN)
    bad = chord_edit(WIN, 4.0 - 1e-9, 6.0)  # first endpoint almost at a corner
    assert not col.edit_is_valid(bad)


def test_move_vertex_edit():
    col = Coloring.empty(WIN)
    res0 = col.apply_edit(triangle_edit(2.0, 1.5, 0.6))
    vid = res0.vertex_id_map[-1]
    old_x, old_y = col.vertices[vid].x, col.vertices[vid].y
    edit = Edit(moved=((vid, old_x + 0.2, old_y - 0.1),))
    assert col.edit_is_valid(edit)
    before = col.clone()
    res = col.apply_edit(edit)
    col.validate()
    assert col.vertices[vid].x == pytest.approx(old_x + 0.2)
    assert len(res.delta_segments) == 4  # two incident edges, pre and post
    col.revert(res.token)
    assert col.semantically_equal(before)
    col.validate()


def test_remove_edges_garbage_collects_vertices():
    col = Coloring.empty(WIN)
    res = col.apply_edit(triangle_edit(2.0, 1.5, 0.6))
    kill = Edit(removed_edges=tuple(res.added_edge_ids))
    res2 = col.apply_edit(kill)
    assert col.n_edges == 0
    assert not col.vertices
    assert col.anchor_color == WHITE  # flipped in, flipped back out
    col.revert(res2.token)
    col.validate()
    assert col.n_edges == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_edit_apply_revert_roundtrip(seed):
    rng = random.Random(seed)
    col = Coloring.empty(WIN)
    stack = []
    snapshots = [col.clone()]
    for _ in range(8):
        if stack and rng.random() < 0.35:
            res = stack.pop()
            col.revert(res.token)
            snapshots.pop()
            assert col.semantically_equal(snapshots[-1])
        else:
            edit = triangle_edit(rng.uniform(0.5, 3.5), rng.uniform(0.5, 2.5),
                                 rng.uniform(0.1, 0.8), rng.random() * 6)
            if not col.edit_is_valid(edit):
                continue
            stack.append(col.apply_edit(edit))
            snapshots.append(col.clone())
    col.validate()
    while stack:
        col.revert(stack.pop().token)
        snapshots.pop()
        assert col.semantically_equal(snapshots[-1])
    assert col.n_edges == 0
    assert col.stats.total_length == 0.0
    assert col.stats.sum_log_length == 0.0
    assert col.stats.sum_log_sin == 0.0


def test_json_roundtrip_bit_exact():
    col = Coloring.from_rectangles(WIN, [Rect(1.0, 1.0, 2.0, 2.0),
                                         Rect(2.7, 0.4, 3.33, 2.91)])
    col.apply_edit(chord_edit(WIN, 0.5, 13.5))
    text = col.to_json()
    col2 = Coloring.from_json(text)
    assert col2.to_json() == text
    assert col2.semantically_equal(col)
    col2.validate()
    # colors are identical everywhere
    xs, ys = grid_points(WIN)
    assert np.array_equal(col.colors_at(xs, ys), col2.colors_at(xs, ys))


def test_json_rejects_unknown_kind():
    col = Coloring.empty(WIN)
    obj = col.to_json_obj()
    obj["vertices"] = [{"id": 0, "x": 1.0, "y": 1.0, "kind": "mystery"}]
    with pytest.raises(ValueError):
        Coloring.from_json_obj(obj)


def _square_map_obj():
    """JSON of one square: interior vertices 0..3, edge k joins k and k+1."""
    return Coloring.from_rectangles(WIN, [Rect(1.0, 1.0, 2.0, 2.0)]).to_json_obj()


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: obj["vertices"].append(dict(obj["vertices"][0])), "vertex 0: duplicate id"),
    (lambda obj: obj["edges"].append(dict(obj["edges"][0])), "edge 0: duplicate id"),
    (lambda obj: obj["edges"][0].update(vertices=[0, 7]), r"edge 0: unknown vertices \[7\]"),
    (lambda obj: obj["vertices"][0].update(x=math.nan), "vertex 0: non-finite"),
    (lambda obj: obj["anchor"].update(point=[math.inf, 1.0]), "anchor: non-finite"),
    (lambda obj: obj["vertices"][0].update(x=5.0), "vertex 0 outside window"),
    (lambda obj: obj["vertices"][0].update(x=0.0), "vertex 0 outside window"),
    (lambda obj: obj["edges"].pop(0), "interior vertex 0 degree 1"),
])
def test_json_rejects_malformed_map(corrupt, message):
    obj = _square_map_obj()
    Coloring.from_json_obj(obj).validate()
    corrupt(obj)
    with pytest.raises(ValueError, match=message):
        Coloring.from_json_obj(obj)


def test_clone_is_independent():
    col = Coloring.empty(WIN)
    col.apply_edit(triangle_edit(2.0, 1.5, 0.6))
    twin = col.clone()
    assert twin.semantically_equal(col)
    col.apply_edit(triangle_edit(0.7, 0.7, 0.25))
    assert not twin.semantically_equal(col)
    twin.validate()


def test_co_occupant_edges_sorted_and_local():
    col = Coloring.from_rectangles(WIN, [Rect(1.0, 1.0, 2.0, 2.0)])
    for eid in col.edges:
        co = col.co_occupant_edges(eid)
        assert co == sorted(co)
        assert eid not in co
        # rectangle edges meet their neighbors in corner cells
        assert len(co) >= 2


def _churned_colorings():
    """Prior-only chains from three rectangles, cell size 0.3: edges have
    been born, moved and removed, and ids run well past the live count."""
    out = []
    for seed in range(4):
        col = Coloring.from_rectangles(
            WIN, [Rect(2.0, 0.5, 2.2, 2.5), Rect(0.4, 0.3, 0.9, 0.8),
                  Rect(2.8, 1.9, 3.6, 2.6)], cell_size=0.3)
        run_chain(Sampler(col, PriorParams(intensity=3.0), MoveParams(),
                          np.random.default_rng(200 + seed)), 600)
        out.append(col)
    # sides on cell boundaries: every side touches two rows or columns of cells
    out.append(Coloring.from_rectangles(WIN, [Rect(1.0, 0.5, 2.5, 2.0),
                                              Rect(3.0, 1.0, 3.5, 2.5)], cell_size=0.5))
    return out


@pytest.fixture(scope="module")
def churned():
    return _churned_colorings()


def _random_segments(col, rng, n=40):
    segs = []
    for _ in range(n):
        x0, x1 = rng.uniform(WIN.xmin, WIN.xmax, 2)
        y0, y1 = rng.uniform(WIN.ymin, WIN.ymax, 2)
        segs.append(Segment(Point2(x0, y0), Point2(x1, y1)))
    # segments lying on cell boundaries
    c = col.grid.cell_size
    segs += [Segment(Point2(2 * c, 0.1), Point2(2 * c, 2.9)),
             Segment(Point2(0.1, 3 * c), Point2(3.9, 3 * c))]
    return segs


def test_cell_co_occupancy_matches_all_pairs_trace(churned):
    rng = np.random.default_rng(3)
    for col in churned:
        col.validate()
        traces = {e: set(grid_trace_segment(col.segment_of(e), col.grid)) for e in col.edges}

        def oracle(seg):
            cells = set(grid_trace_segment(seg, col.grid))
            return sorted(e for e, got in traces.items() if cells & got)

        for eid in col.edges:
            want = oracle(col.segment_of(eid))
            assert col.edges_sharing_a_cell(col.segment_of(eid)) == want
            want.remove(eid)
            assert col.co_occupant_edges(eid) == want
        for seg in _random_segments(col, rng):
            assert col.edges_sharing_a_cell(seg) == oracle(seg)
    assert max(max(c.edges) for c in churned) > 2 * max(c.n_edges for c in churned)


def test_cells_are_traced_on_demand_only(monkeypatch):
    """Chains that mix co-occupancy queries, applied edits and reverts: every
    answer equals the all-pairs trace oracle, validate() passes after each
    step, neither apply_edit nor revert traces a cell, and a revert puts
    back the cells the edit dropped."""
    calls = []
    trace = prfmap.coloring.grid_trace_segment
    monkeypatch.setattr(prfmap.coloring, "grid_trace_segment",
                        lambda seg, grid: calls.append(seg) or trace(seg, grid))

    def check_queries(col, rng):
        cells = {e: set(grid_trace_segment(col.segment_of(e), col.grid)) for e in col.edges}

        def oracle(seg):
            mine = set(grid_trace_segment(seg, col.grid))
            return sorted(e for e, got in cells.items() if mine & got)

        for eid in sorted(col.edges):
            if rng.random() < 0.5:
                want = oracle(col.segment_of(eid))
                want.remove(eid)
                assert col.co_occupant_edges(eid) == want
        for seg in _random_segments(col, rng, n=1):
            assert col.edges_sharing_a_cell(seg) == oracle(seg)
        col.validate()

    def untraced(action):
        before = len(calls)
        out = action()
        assert len(calls) == before
        return out

    kept = reverted = 0
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        col = Coloring.from_rectangles(WIN, [Rect(2.0, 0.5, 2.2, 2.5), Rect(0.4, 0.3, 0.9, 0.8)],
                                       cell_size=0.3)
        for _ in range(120):
            check_queries(col, rng)
            prop = propose(col, rng, MoveParams())
            if prop is None or not col.edit_is_valid(prop.edit):
                continue
            cached = dict(col._cells)
            result = untraced(lambda: col.apply_edit(prop.edit))
            check_queries(col, rng)
            if col.n_edges > 24 or rng.random() < 0.5:
                untraced(lambda: col.revert(result.token))
                assert cached.items() <= col._cells.items()
                reverted += 1
            else:
                kept += 1
    assert kept >= 40 and reverted >= 40, (kept, reverted)
    assert len(calls) > 1000


def test_edges_near_bbox_matches_brute_force(churned):
    rng = np.random.default_rng(4)
    found = 0
    for col in churned:
        eids, ax, ay, bx, by = col.live_edges()
        assert eids.tolist() == sorted(col.edges)
        for k, eid in enumerate(eids.tolist()):
            assert col.segment_of(eid) == ((ax[k], ay[k]), (bx[k], by[k]))
        for k, seg in enumerate(_random_segments(col, rng)):
            (x0, y0), (x1, y1) = seg
            pad = 0.05 * (k % 2)

            def meets(e):
                (px, py), (qx, qy) = col.segment_of(e)
                return (min(px, qx) <= max(x0, x1) + pad and max(px, qx) >= min(x0, x1) - pad
                        and min(py, qy) <= max(y0, y1) + pad and max(py, qy) >= min(y0, y1) - pad)

            want = [e for e in sorted(col.edges) if meets(e)]
            got = col.edges_near_bbox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1), pad=pad)
            assert got == want
            found += len(want)
    assert found > 500


@pytest.mark.parametrize("corrupt, message", [
    (lambda col: col._geom.__setitem__((1, 0), col._geom[1, 0] + 0.25), "row 1 stale"),
    (lambda col: col._geom.__setitem__((2, 7), col._geom[2, 7] + 0.25), "row 2 stale"),
    (lambda col: col._cells.__setitem__(3, frozenset()), "edge 3 cells stale"),
    (lambda col: col._eid.__setitem__(0, 99), "row 0 stale"),
    (lambda col: col._cells.__setitem__(99, frozenset()), "cells cached for dead edge 99"),
])
def test_validate_catches_stale_table_row(corrupt, message):
    col = Coloring.from_rectangles(WIN, [Rect(1.0, 1.0, 2.0, 2.0)])
    col.validate()
    corrupt(col)
    with pytest.raises(AssertionError, match=message):
        col.validate()
