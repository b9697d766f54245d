"""Move catalogue tests: densities, enumeration, and exact reversibility."""

import math
from collections import Counter

import numpy as np
import pytest

from prfmap.coloring import BLACK, BOUNDARY, INTERIOR, WHITE, Coloring, Edit
from prfmap.geometry import Point2, Rect, Segment
from prfmap.moves import (
    INVERSE_KIND,
    KIND_ORDER,
    PROPOSERS,
    MoveParams,
    _in_kink_rect,
    build_inverse,
    default_weights,
    list_chords,
    list_triangles,
    list_wedges,
    pick_kind,
    propose,
    propose_edge_slide,
    propose_kink_death,
    propose_recolor_local,
    propose_recolor_pair,
)

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def triangle_edit(cx, cy, r, rot=0.3):
    pts = [Point2(cx + r * math.cos(rot + k * 2.0 * math.pi / 3.0),
                  cy + r * math.sin(rot + k * 2.0 * math.pi / 3.0))
           for k in range(3)]
    return Edit(new_vertices=tuple((-(i + 1), p.x, p.y, INTERIOR)
                                   for i, p in enumerate(pts)),
                added_edges=((-1, -2), (-2, -3), (-3, -1)))


def apply_or_fail(col, edit):
    assert col.edit_is_valid(edit)
    return col.apply_edit(edit)


def find_edge_by_coords(col, p1, p2):
    want = {p1, p2}
    for eid in col.edges:
        seg = col.segment_of(eid)
        if {tuple(seg.a), tuple(seg.b)} == want:
            return eid
    raise AssertionError(f"no edge with endpoints {want}")


# ---------------------------------------------------------------------------
# densities on simple states


def test_density_formulas_on_empty_state():
    col = Coloring.empty(UNIT)
    mp = MoveParams()
    rng = np.random.default_rng(5)

    prop = PROPOSERS["triangle_birth"](col, rng, mp)
    assert prop.log_forward == pytest.approx(math.log(0.08) + math.log(6.0))
    assert prop.log_reverse == pytest.approx(math.log(0.08) - math.log(1.0))

    prop = PROPOSERS["chord_birth"](col, rng, mp)
    assert prop.log_forward == pytest.approx(
        math.log(0.08) + math.log(2.0) - 2.0 * math.log(4.0))
    assert prop.log_reverse == pytest.approx(math.log(0.08))

    prop = PROPOSERS["wedge_birth"](col, rng, mp)
    assert prop.log_forward == pytest.approx(
        math.log(0.08) + math.log(2.0) - 2.0 * math.log(4.0) - math.log(1.0))
    assert prop.log_reverse == pytest.approx(math.log(0.08))

    for kind in ("triangle_death", "wedge_death", "chord_death", "kink_birth",
                 "kink_death", "relocate", "boundary_slide", "edge_slide",
                 "recolor_pair", "recolor_local"):
        assert PROPOSERS[kind](col, rng, mp) is None


def test_area_scaling_of_birth_density():
    col = Coloring.empty(Rect(0.0, 0.0, 2.0, 3.0))
    mp = MoveParams()
    rng = np.random.default_rng(6)
    prop = PROPOSERS["triangle_birth"](col, rng, mp)
    assert prop.log_forward == pytest.approx(
        math.log(0.08) + math.log(6.0) - 3.0 * math.log(6.0))
    prop = PROPOSERS["chord_birth"](col, rng, mp)
    assert prop.log_forward == pytest.approx(
        math.log(0.08) + math.log(2.0) - 2.0 * math.log(10.0))


def test_pick_kind_matches_weights():
    rng = np.random.default_rng(99)
    mp = MoveParams()
    n = 50_000
    counts = Counter(pick_kind(rng, mp) for _ in range(n))
    for kind in KIND_ORDER:
        assert abs(counts[kind] / n - mp.weights[kind]) < 0.01


def test_default_weights_sum_to_one():
    assert sum(default_weights().values()) == pytest.approx(1.0)
    assert set(default_weights()) == set(KIND_ORDER)
    for kind, inv in INVERSE_KIND.items():
        assert INVERSE_KIND[inv] == kind


# ---------------------------------------------------------------------------
# component enumeration


def test_enumerators_identify_components():
    col = Coloring.empty(UNIT)
    apply_or_fail(col, triangle_edit(0.3, 0.7, 0.12))
    assert len(list_triangles(col)) == 1
    assert list_wedges(col) == []
    assert list_chords(col) == []

    # a chord low on the left and right sides
    from prfmap.geometry import boundary_point, shorter_arc_chain
    b1 = boundary_point(UNIT, 0.2)          # bottom side
    b2 = boundary_point(UNIT, 4.0 - 0.3)    # left side (arc length wraps ccw)
    chain, _ = shorter_arc_chain(UNIT, b1, b2)
    closure = tuple(Segment(a, b) for a, b in zip(chain, chain[1:]))
    chord = Edit(new_vertices=((-1, b1.x, b1.y, BOUNDARY), (-2, b2.x, b2.y, BOUNDARY)),
                 added_edges=((-1, -2),), closure=closure)
    apply_or_fail(col, chord)
    assert len(list_chords(col)) == 1
    (tri,) = list_triangles(col)
    assert all(col.vertices[v].kind == INTERIOR for v in tri)

    # a wedge into the top-right corner area
    b3 = boundary_point(UNIT, 0.8)
    b4 = boundary_point(UNIT, 1.0 + 0.6)   # right side
    apex = Point2(0.75, 0.25)
    chain2, _ = shorter_arc_chain(UNIT, b3, b4)
    closure2 = tuple(Segment(a, b) for a, b in zip(chain2, chain2[1:]))
    wedge = Edit(new_vertices=((-1, b3.x, b3.y, BOUNDARY),
                               (-2, apex.x, apex.y, INTERIOR),
                               (-3, b4.x, b4.y, BOUNDARY)),
                 added_edges=((-1, -2), (-2, -3)), closure=closure2)
    apply_or_fail(col, wedge)
    assert len(list_wedges(col)) == 1
    apex_id = list_wedges(col)[0]
    assert col.vertices[apex_id].point == apex
    assert len(list_chords(col)) == 1
    assert len(list_triangles(col)) == 1
    col.validate()


# ---------------------------------------------------------------------------
# kink support geometry


def test_kink_rect_membership():
    a = Point2(0.0, 0.0)
    b = Point2(2.0, 0.0)
    area = 0.25
    half_w = 0.5 * area / 2.0  # 0.0625
    assert _in_kink_rect(Point2(1.0, 0.0), a, b, area)
    assert _in_kink_rect(Point2(1.0, half_w - 1e-9), a, b, area)
    assert not _in_kink_rect(Point2(1.0, half_w + 1e-9), a, b, area)
    assert not _in_kink_rect(Point2(-0.01, 0.0), a, b, area)
    assert not _in_kink_rect(Point2(2.01, 0.0), a, b, area)
    # degenerate base edge
    assert not _in_kink_rect(Point2(0.0, 0.0), a, a, area)


def test_kink_death_on_triangle_always_rejected():
    col = Coloring.empty(UNIT)
    apply_or_fail(col, triangle_edit(0.5, 0.5, 0.15))
    mp = MoveParams()
    for seed in range(24):
        assert propose_kink_death(col, np.random.default_rng(seed), mp) is None


# ---------------------------------------------------------------------------
# recoloring moves on hand-built scenes


def two_ring_coloring():
    # two stacked rings with offset x-extents so the merged contour has no
    # straight-through vertices
    r1 = Rect(0.2, 0.2, 0.8, 0.45)
    r2 = Rect(0.25, 0.55, 0.75, 0.8)
    col = Coloring.from_rectangles(UNIT, [r1, r2])
    e1 = find_edge_by_coords(col, (0.2, 0.45), (0.8, 0.45))
    e2 = find_edge_by_coords(col, (0.25, 0.55), (0.75, 0.55))
    return col, e1, e2


def test_recolor_pair_merges_rings_and_inverts():
    col, e1, e2 = two_ring_coloring()
    assert col.color_at(Point2(0.5, 0.5)) == WHITE
    assert col.color_at(Point2(0.5, 0.3)) == BLACK
    mp = MoveParams()
    prop = None
    for seed in range(40_000):
        rng = np.random.default_rng(seed)
        cand = propose_recolor_pair(col, rng, mp)
        if cand is None or set(cand.edit.removed_edges) != {e1, e2}:
            continue
        if col.edit_is_valid(cand.edit):
            prop = cand
            break
    assert prop is not None, "never drew the ring-merging swap"
    n = len(col.edge_ids)
    expect = math.log(0.03) - math.log(n) - math.log(n - 1)
    assert prop.log_forward == pytest.approx(expect)
    assert prop.log_reverse == pytest.approx(expect)

    sig_pre = col.geometry_signature()
    res = col.apply_edit(prop.edit)
    assert col.color_at(Point2(0.5, 0.5)) == BLACK  # waist joined the region
    assert col.color_at(Point2(0.5, 0.3)) == BLACK
    assert col.color_at(Point2(0.1, 0.5)) == WHITE
    inv = build_inverse(col, prop, res, mp)
    assert inv.kind == "recolor_pair"
    assert inv.log_forward == pytest.approx(prop.log_reverse, abs=1e-9)
    assert col.edit_is_valid(inv.edit)
    col.apply_edit(inv.edit)
    assert col.geometry_signature() == sig_pre
    assert col.color_at(Point2(0.5, 0.5)) == WHITE
    col.validate()


def narrow_ring_coloring():
    # rings narrow enough that old and new recolored pairs share grid cells,
    # with offset x-extents so the swap creates no straight-through vertices
    r1 = Rect(0.3, 0.3, 0.45, 0.52)
    r2 = Rect(0.32, 0.56, 0.43, 0.8)
    col = Coloring.from_rectangles(UNIT, [r1, r2])
    e1 = find_edge_by_coords(col, (0.3, 0.52), (0.45, 0.52))
    e2 = find_edge_by_coords(col, (0.32, 0.56), (0.43, 0.56))
    return col, e1, e2


def test_recolor_local_on_co_occupant_pair():
    col, e1, e2 = narrow_ring_coloring()
    assert e2 in col.co_occupant_edges(e1)
    mp = MoveParams()
    prop = None
    for seed in range(40_000):
        rng = np.random.default_rng(seed)
        cand = propose_recolor_local(col, rng, mp)
        if cand is None or set(cand.edit.removed_edges) != {e1, e2}:
            continue
        if col.edit_is_valid(cand.edit):
            prop = cand
            break
    assert prop is not None, "never drew the local swap"
    sig_pre = col.geometry_signature()
    res = col.apply_edit(prop.edit)
    inv = build_inverse(col, prop, res, mp)
    assert inv.kind == "recolor_local"
    assert inv.log_forward == pytest.approx(prop.log_reverse, abs=1e-9)
    assert inv.log_reverse == pytest.approx(prop.log_forward, abs=1e-9)
    assert col.edit_is_valid(inv.edit)
    col.apply_edit(inv.edit)
    assert col.geometry_signature() == sig_pre
    col.validate()


# ---------------------------------------------------------------------------
# slide density identity


def test_edge_slide_density_tracks_length_ratio():
    col = Coloring.empty(UNIT)
    apply_or_fail(col, triangle_edit(0.5, 0.5, 0.18))
    mp = MoveParams()
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        prop = propose_edge_slide(col, rng, mp)
        assert prop is not None
        (vid, nx, ny) = prop.edit.moved[0]
        v = col.vertices[vid]
        # identify the incident edge collinear with the displacement
        ratios = []
        for eid in v.edges:
            w = col.vertices[col.other_endpoint(eid, vid)].point
            pre = math.hypot(v.x - w.x, v.y - w.y)
            post = math.hypot(nx - w.x, ny - w.y)
            cr = abs((v.x - w.x) * (ny - w.y) - (v.y - w.y) * (nx - w.x))
            if cr < 1e-9 * max(1.0, pre * post):
                ratios.append(post / pre)
        assert len(ratios) == 1
        assert prop.log_forward - prop.log_reverse == pytest.approx(
            math.log(ratios[0]), abs=1e-9)
        assert 0.5 - 1e-9 <= ratios[0] <= 2.0 + 1e-9
        checked += 1
    assert checked == 60


# ---------------------------------------------------------------------------
# chain-level reversibility: apply, invert, restore


ROBUST_KINDS = ("triangle_birth", "relocate", "edge_slide", "kink_birth")


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_chain_apply_inverse_revert(seed):
    rng = np.random.default_rng(seed)
    col = Coloring.empty(Rect(0.0, 0.0, 1.5, 1.2))
    mp = MoveParams()
    applied = Counter()
    inverted = Counter()
    for it in range(600):
        prop = propose(col, rng, mp)
        if prop is None or not col.edit_is_valid(prop.edit):
            continue
        assert math.isfinite(prop.log_forward)
        assert math.isfinite(prop.log_reverse)
        sig_pre = col.geometry_signature()
        stats_pre = col.stats.copy()
        res = col.apply_edit(prop.edit)
        inv = build_inverse(col, prop, res, mp)
        assert inv is not None, f"{prop.kind} inverse outside its support"
        assert inv.kind == INVERSE_KIND[prop.kind]
        inverted[prop.kind] += 1
        assert inv.log_forward == pytest.approx(prop.log_reverse, abs=1e-9)
        assert inv.log_reverse == pytest.approx(prop.log_forward, abs=1e-9)
        assert col.edit_is_valid(inv.edit)
        res2 = col.apply_edit(inv.edit)
        assert col.geometry_signature() == sig_pre
        assert col.stats.n_edges == stats_pre.n_edges
        assert col.stats.total_length == pytest.approx(
            stats_pre.total_length, abs=1e-9)
        assert col.stats.sum_log_sin == pytest.approx(
            stats_pre.sum_log_sin, abs=1e-8)
        col.revert(res2.token)
        col.revert(res.token)
        assert col.stats == stats_pre        # bit-exact after double revert
        assert col.geometry_signature() == sig_pre
        if rng.random() < 0.7:               # evolve the state
            col.apply_edit(prop.edit)
            applied[prop.kind] += 1
        if it % 150 == 149:
            col.validate()
    col.validate()
    for kind in ROBUST_KINDS:
        assert applied[kind] > 0, f"chain never applied {kind}: {applied}"
    for kind in KIND_ORDER:
        assert inverted[kind] > 0, f"chain never inverted {kind}: {inverted}"


def test_chain_covers_every_kind():
    rng = np.random.default_rng(20_2024)
    col = Coloring.empty(Rect(0.0, 0.0, 1.5, 1.2))
    mp = MoveParams()
    applied = Counter()
    for _ in range(4000):
        prop = propose(col, rng, mp)
        if prop is None or not col.edit_is_valid(prop.edit):
            continue
        col.apply_edit(prop.edit)
        applied[prop.kind] += 1
    col.validate()
    for kind in ("triangle_birth", "triangle_death", "wedge_birth", "wedge_death",
                 "chord_birth", "chord_death", "kink_birth", "kink_death",
                 "relocate", "boundary_slide", "edge_slide"):
        assert applied[kind] > 0, f"{kind} never applied: {applied}"
