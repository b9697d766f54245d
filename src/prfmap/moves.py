"""Chain moves: reversible edits of a polygonal coloring.

Every move kind builds a Proposal holding the Edit plus log forward and
reverse proposal densities.  Densities are with respect to Lebesgue measure
on unordered configurations — the same base measure as the prior — so a move
that draws ordered tuples multiplies by the number of ordered draws mapping
to the same unordered result (6 for a triangle's vertex triple, 2 for a
boundary point pair).  Discrete choices (components, vertices, edges,
reconnection patterns) contribute plain probabilities.  The kind-selection
weight is folded into both densities.

Kinds come in inverse pairs: birth/death of triangles, boundary wedges and
chords, kink insertion/removal, and the self-inverse relocation, slide and
recoloring moves.  Each kind has a constructor (``_triangle_birth``,
``_kink_death``, ...) that turns drawn arguments into the Proposal with both
densities; its ``propose_*`` function only draws them.  ``build_inverse``
reads the inverse kind's arguments off the post state and apply result and
calls the chain's constructor (edge slides share ``_edge_slide_densities``);
tests use it to check that forward and reverse densities agree and that the
inverse restores the original configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coloring import BOUNDARY, INTERIOR, ApplyResult, Coloring, Edit
from .geometry import (
    Point2,
    Rect,
    Segment,
    boundary_arclength,
    boundary_point,
    grid_trace_segment,
    shorter_arc_chain,
)

KIND_ORDER = (
    "triangle_birth", "triangle_death",
    "wedge_birth", "wedge_death",
    "chord_birth", "chord_death",
    "kink_birth", "kink_death",
    "relocate",
    "boundary_slide",
    "edge_slide",
    "recolor_pair",
    "recolor_local",
)

INVERSE_KIND = {
    "triangle_birth": "triangle_death", "triangle_death": "triangle_birth",
    "wedge_birth": "wedge_death", "wedge_death": "wedge_birth",
    "chord_birth": "chord_death", "chord_death": "chord_birth",
    "kink_birth": "kink_death", "kink_death": "kink_birth",
    "relocate": "relocate",
    "boundary_slide": "boundary_slide",
    "edge_slide": "edge_slide",
    "recolor_pair": "recolor_pair",
    "recolor_local": "recolor_local",
}


def default_weights() -> dict[str, float]:
    w = {
        "triangle_birth": 0.08, "triangle_death": 0.08,
        "wedge_birth": 0.08, "wedge_death": 0.08,
        "chord_birth": 0.08, "chord_death": 0.08,
        "kink_birth": 0.08, "kink_death": 0.08,
        "relocate": 0.10,
        "boundary_slide": 0.05,
        "edge_slide": 0.10,
        "recolor_pair": 0.03,
        "recolor_local": 0.08,
    }
    assert abs(sum(w.values()) - 1.0) < 1e-12
    return w


@dataclass(frozen=True)
class MoveParams:
    """Tunable proposal parameters.

    relocate_radius: disk radius for interior vertex relocation.
    boundary_slide_delta: half-width of the arc-length slide interval.
    kink_area: area of the rectangle around an edge in which a new kink
        vertex is placed (width scales as kink_area / edge length).
    weights: kind-selection probabilities; inverse pairs should get equal
        weight (unequal weights are correct but slow mixing).
    """
    relocate_radius: float = 0.25
    boundary_slide_delta: float = 0.25
    kink_area: float = 0.25
    weights: dict[str, float] = field(default_factory=default_weights)

    def log_weight(self, kind: str) -> float:
        w = self.weights.get(kind, 0.0)
        return math.log(w) if w > 0.0 else -math.inf


@dataclass(frozen=True)
class Proposal:
    kind: str
    edit: Edit
    log_forward: float
    log_reverse: float


# ---------------------------------------------------------------------------
# component enumeration


def list_triangles(col: Coloring) -> list[tuple[int, int, int]]:
    """Interior 3-cycles as sorted vertex triples, canonically ordered."""
    out = []
    for v in sorted(col.interior_ids):
        nbrs = col.neighbors(v)
        if len(nbrs) != 2:
            continue
        w1, w2 = nbrs
        if w1 <= v or w2 <= v:
            continue
        if col.vertices[w1].kind != INTERIOR or col.vertices[w2].kind != INTERIOR:
            continue
        if w2 in col.neighbors(w1):
            out.append(tuple(sorted((v, w1, w2))))
    return out


def list_wedges(col: Coloring) -> list[int]:
    """Apex vertex ids of boundary wedges (interior, both neighbors boundary)."""
    out = []
    for v in sorted(col.interior_ids):
        nbrs = col.neighbors(v)
        if len(nbrs) == 2 and all(col.vertices[w].kind == BOUNDARY for w in nbrs):
            out.append(v)
    return out


def list_chords(col: Coloring) -> list[int]:
    """Edge ids whose both endpoints are boundary vertices."""
    out = []
    for eid in sorted(col.edge_ids):
        v1, v2 = col.edges[eid]
        if col.vertices[v1].kind == BOUNDARY and col.vertices[v2].kind == BOUNDARY:
            out.append(eid)
    return out


def _arc_closure(col: Coloring, p1: Point2, p2: Point2) -> tuple[Segment, ...]:
    chain, _ = shorter_arc_chain(col.window, p1, p2)
    return tuple(Segment(a, b) for a, b in zip(chain, chain[1:]))


def _triangle_edges(col: Coloring, tri: tuple[int, int, int]) -> tuple[int, ...]:
    v1, v2, _ = tri  # every vertex of a triangle has degree 2
    return tuple(sorted(set(col.vertices[v1].edges) | set(col.vertices[v2].edges)))


def _edge_between(col: Coloring, a: int, b: int) -> int | None:
    for eid in col.vertices[a].edges:
        if col.other_endpoint(eid, a) == b:
            return eid
    return None


def _in_kink_rect(v: Point2, a: Point2, b: Point2, area: float) -> bool:
    """Is v inside the kink-placement rectangle of edge a-b?"""
    ex, ey = b.x - a.x, b.y - a.y
    L2 = ex * ex + ey * ey
    if L2 == 0.0:
        return False
    L = math.sqrt(L2)
    t = ((v.x - a.x) * ex + (v.y - a.y) * ey) / L2
    if t < 0.0 or t > 1.0:
        return False
    perp = abs((v.x - a.x) * ey - (v.y - a.y) * ex) / L
    return perp <= 0.5 * area / L


# ---------------------------------------------------------------------------
# constructors: drawn arguments in, Proposal with both densities out


def _log_pick(mp: MoveParams, kind: str, n: int) -> float:
    """Choose the kind, then one of n items uniformly."""
    return mp.log_weight(kind) - math.log(n)


def _log_birth(mp: MoveParams, kind: str, w: Rect) -> float:
    """Density of a born component's unordered points (triangle, wedge, chord)."""
    if kind == "triangle_birth":
        return mp.log_weight(kind) + math.log(6.0) - 3.0 * math.log(w.area)
    if kind == "wedge_birth":
        return (mp.log_weight(kind) + math.log(2.0)
                - 2.0 * math.log(w.perimeter) - math.log(w.area))
    return mp.log_weight(kind) + math.log(2.0) - 2.0 * math.log(w.perimeter)


def _birth(col: Coloring, mp: MoveParams, kind: str, edit: Edit,
           n_present: int) -> Proposal:
    """A birth beside n_present components; its death picks 1 of n_present + 1."""
    return Proposal(kind, edit, _log_birth(mp, kind, col.window),
                    _log_pick(mp, INVERSE_KIND[kind], n_present + 1))


def _death(col: Coloring, mp: MoveParams, kind: str, edit: Edit,
           n_present: int) -> Proposal:
    return Proposal(kind, edit, _log_pick(mp, kind, n_present),
                    _log_birth(mp, INVERSE_KIND[kind], col.window))


def _triangle_birth(col: Coloring, mp: MoveParams, pts) -> Proposal:
    edit = Edit(
        new_vertices=tuple((-(i + 1), p.x, p.y, INTERIOR) for i, p in enumerate(pts)),
        added_edges=((-1, -2), (-2, -3), (-3, -1)))
    return _birth(col, mp, "triangle_birth", edit, len(list_triangles(col)))


def _triangle_death(col: Coloring, mp: MoveParams, tri: tuple[int, int, int],
                    n_tris: int) -> Proposal:
    edit = Edit(removed_edges=_triangle_edges(col, tri))
    return _death(col, mp, "triangle_death", edit, n_tris)


def _wedge_birth(col: Coloring, mp: MoveParams, b1: Point2, apex: Point2,
                 b2: Point2) -> Proposal:
    edit = Edit(
        new_vertices=((-1, b1.x, b1.y, BOUNDARY), (-2, apex.x, apex.y, INTERIOR),
                      (-3, b2.x, b2.y, BOUNDARY)),
        added_edges=((-1, -2), (-2, -3)),
        closure=_arc_closure(col, b1, b2))
    return _birth(col, mp, "wedge_birth", edit, len(list_wedges(col)))


def _wedge_death(col: Coloring, mp: MoveParams, apex: int,
                 n_wedges: int) -> Proposal:
    e1, e2 = col.vertices[apex].edges
    b1 = col.vertices[col.other_endpoint(e1, apex)].point
    b2 = col.vertices[col.other_endpoint(e2, apex)].point
    edit = Edit(removed_edges=tuple(sorted((e1, e2))),
                closure=_arc_closure(col, b1, b2))
    return _death(col, mp, "wedge_death", edit, n_wedges)


def _chord_birth(col: Coloring, mp: MoveParams, b1: Point2, b2: Point2) -> Proposal:
    edit = Edit(
        new_vertices=((-1, b1.x, b1.y, BOUNDARY), (-2, b2.x, b2.y, BOUNDARY)),
        added_edges=((-1, -2),),
        closure=_arc_closure(col, b1, b2))
    return _birth(col, mp, "chord_birth", edit, len(list_chords(col)))


def _chord_death(col: Coloring, mp: MoveParams, eid: int, n_chords: int) -> Proposal:
    v1, v2 = col.edges[eid]
    edit = Edit(removed_edges=(eid,),
                closure=_arc_closure(col, col.vertices[v1].point,
                                     col.vertices[v2].point))
    return _death(col, mp, "chord_death", edit, n_chords)


def _log_kink_birth(mp: MoveParams, n_edges: int) -> float:
    """Choose one of n_edges, then a point of its kink_area rectangle."""
    return _log_pick(mp, "kink_birth", n_edges) - math.log(mp.kink_area)


def _kink_birth(col: Coloring, mp: MoveParams, eid: int, u: Point2) -> Proposal:
    v1, v2 = col.edges[eid]
    edit = Edit(removed_edges=(eid,),
                new_vertices=((-1, u.x, u.y, INTERIOR),),
                added_edges=((v1, -1), (-1, v2)))
    return Proposal("kink_birth", edit, _log_kink_birth(mp, len(col.edge_ids)),
                    _log_pick(mp, "kink_death", len(col.interior_ids) + 1))


def _kink_death(col: Coloring, mp: MoveParams, vid: int) -> Proposal | None:
    e1, e2 = col.vertices[vid].edges
    a = col.other_endpoint(e1, vid)
    b = col.other_endpoint(e2, vid)
    if _edge_between(col, a, b) is not None:
        return None  # would duplicate an existing edge (e.g. a triangle side)
    if not _in_kink_rect(col.vertices[vid].point, col.vertices[a].point,
                         col.vertices[b].point, mp.kink_area):
        return None  # outside the support of the reverse kink placement
    edit = Edit(removed_edges=tuple(sorted((e1, e2))), added_edges=((a, b),))
    return Proposal("kink_death", edit,
                    _log_pick(mp, "kink_death", len(col.interior_ids)),
                    _log_kink_birth(mp, len(col.edge_ids) - 1))


def _relocate(col: Coloring, mp: MoveParams, vid: int, new: Point2) -> Proposal:
    edit = Edit(moved=((vid, new.x, new.y),))
    dens = (_log_pick(mp, "relocate", len(col.interior_ids))
            - math.log(math.pi * mp.relocate_radius ** 2))
    return Proposal("relocate", edit, dens, dens)


def _boundary_slide(col: Coloring, mp: MoveParams, vid: int, new: Point2) -> Proposal:
    # The recolored sliver is bounded by the old edge, the new edge, and the
    # boundary arc the vertex slid along; close the loop along that arc so the
    # anchor-flip parity test sees a closed curve.
    edit = Edit(moved=((vid, new.x, new.y),),
                closure=_arc_closure(col, col.vertices[vid].point, new))
    dens = (_log_pick(mp, "boundary_slide", len(col.boundary_ids))
            - math.log(2.0 * mp.boundary_slide_delta))
    return Proposal("boundary_slide", edit, dens, dens)


def _edge_slide_densities(col: Coloring, mp: MoveParams, L: float,
                          L2: float) -> tuple[float, float]:
    """Log densities of a slide taking the slid edge from length L to L2, and back."""
    base = _log_pick(mp, "edge_slide", len(col.interior_ids)) - math.log(2.0)
    return base - math.log(1.5 * L), base - math.log(1.5 * L2)


def _recolor(col: Coloring, mp: MoveParams, kind: str, e1: int, e2: int,
             added: tuple[tuple[int, int], tuple[int, int]],
             co1: list[int] | None = None) -> Proposal | None:
    """Swap edges e1, e2 for the two edges ``added``.

    recolor_pair draws e1 and e2 from all edges.  recolor_local draws e2
    from co1, the co-occupants of e1, and its reverse needs the new pair to
    share a grid cell.
    """
    for x, y in added:
        if _edge_between(col, x, y) is not None:
            return None
    edit = Edit(removed_edges=tuple(sorted((e1, e2))), added_edges=added)
    n = len(col.edge_ids)
    if kind == "recolor_pair":
        dens = _log_pick(mp, kind, n) - math.log(n - 1)
        return Proposal(kind, edit, dens, dens)
    if e2 not in co1:
        return None  # e2 cannot be drawn beside e1
    co2 = col.co_occupant_edges(e2)
    segs = [Segment(col.vertices[x].point, col.vertices[y].point) for x, y in added]
    cells = [frozenset(grid_trace_segment(f, col.grid)) for f in segs]
    if cells[0].isdisjoint(cells[1]):
        return None  # the new pair would not co-occupy; reverse impossible
    # co-occupant counts of the new edges once e1, e2 are gone, each other
    # included (edges_sharing_a_cell on the traces already in hand)
    n1, n2 = (len(set(col._sharing(f, c)) - {e1, e2}) + 1 for f, c in zip(segs, cells))
    base = _log_pick(mp, kind, n) - math.log(2.0)
    return Proposal(kind, edit, base + math.log(1.0 / len(co1) + 1.0 / len(co2)),
                    base + math.log(1.0 / n1 + 1.0 / n2))


# ---------------------------------------------------------------------------
# proposers: draw the constructor's arguments from rng


def propose_triangle_birth(col: Coloring, rng: np.random.Generator,
                           mp: MoveParams) -> Proposal | None:
    w = col.window
    pts = [Point2(w.xmin + rng.random() * w.width, w.ymin + rng.random() * w.height)
           for _ in range(3)]
    return _triangle_birth(col, mp, pts)


def propose_triangle_death(col: Coloring, rng: np.random.Generator,
                           mp: MoveParams) -> Proposal | None:
    tris = list_triangles(col)
    if not tris:
        return None
    return _triangle_death(col, mp, tris[int(rng.integers(len(tris)))], len(tris))


def propose_wedge_birth(col: Coloring, rng: np.random.Generator,
                        mp: MoveParams) -> Proposal | None:
    w = col.window
    P = w.perimeter
    b1 = boundary_point(w, rng.random() * P)
    b2 = boundary_point(w, rng.random() * P)
    apex = Point2(w.xmin + rng.random() * w.width, w.ymin + rng.random() * w.height)
    if b1 == b2:
        return None
    return _wedge_birth(col, mp, b1, apex, b2)


def propose_wedge_death(col: Coloring, rng: np.random.Generator,
                        mp: MoveParams) -> Proposal | None:
    wedges = list_wedges(col)
    if not wedges:
        return None
    return _wedge_death(col, mp, wedges[int(rng.integers(len(wedges)))], len(wedges))


def propose_chord_birth(col: Coloring, rng: np.random.Generator,
                        mp: MoveParams) -> Proposal | None:
    w = col.window
    P = w.perimeter
    b1 = boundary_point(w, rng.random() * P)
    b2 = boundary_point(w, rng.random() * P)
    if b1 == b2:
        return None
    return _chord_birth(col, mp, b1, b2)


def propose_chord_death(col: Coloring, rng: np.random.Generator,
                        mp: MoveParams) -> Proposal | None:
    chords = list_chords(col)
    if not chords:
        return None
    return _chord_death(col, mp, chords[int(rng.integers(len(chords)))], len(chords))


def propose_kink_birth(col: Coloring, rng: np.random.Generator,
                       mp: MoveParams) -> Proposal | None:
    if len(col.edge_ids) == 0:
        return None
    eid = col.edge_ids.pick(rng)
    a, b = col.segment_of(eid)
    ex, ey = b.x - a.x, b.y - a.y
    L = math.hypot(ex, ey)
    t = rng.random()
    off = (rng.random() - 0.5) * mp.kink_area / L
    # unit normal of the edge
    nx, ny = -ey / L, ex / L
    u = Point2(a.x + t * ex + off * nx, a.y + t * ey + off * ny)
    return _kink_birth(col, mp, eid, u)


def propose_kink_death(col: Coloring, rng: np.random.Generator,
                       mp: MoveParams) -> Proposal | None:
    if len(col.interior_ids) == 0:
        return None
    return _kink_death(col, mp, col.interior_ids.pick(rng))


def propose_relocate(col: Coloring, rng: np.random.Generator,
                     mp: MoveParams) -> Proposal | None:
    if len(col.interior_ids) == 0:
        return None
    vid = col.interior_ids.pick(rng)
    v = col.vertices[vid]
    r = mp.relocate_radius * math.sqrt(rng.random())
    ang = rng.random() * 2.0 * math.pi
    return _relocate(col, mp, vid, Point2(v.x + r * math.cos(ang), v.y + r * math.sin(ang)))


def propose_boundary_slide(col: Coloring, rng: np.random.Generator,
                           mp: MoveParams) -> Proposal | None:
    if len(col.boundary_ids) == 0:
        return None
    vid = col.boundary_ids.pick(rng)
    s = boundary_arclength(col.window, col.vertices[vid].point)
    s2 = (s + (rng.random() * 2.0 - 1.0) * mp.boundary_slide_delta) % col.window.perimeter
    return _boundary_slide(col, mp, vid, boundary_point(col.window, s2))


def propose_edge_slide(col: Coloring, rng: np.random.Generator,
                       mp: MoveParams) -> Proposal | None:
    if len(col.interior_ids) == 0:
        return None
    vid = col.interior_ids.pick(rng)
    v = col.vertices[vid]
    j = int(rng.integers(2))
    eid = v.edges[j]
    w = col.vertices[col.other_endpoint(eid, vid)]
    ex, ey = v.x - w.x, v.y - w.y  # from the fixed endpoint toward v
    L = math.hypot(ex, ey)
    t = rng.random() * 1.5 - 0.5  # in [-1/2, 1]
    new = Point2(v.x + t * ex, v.y + t * ey)
    log_f, log_r = _edge_slide_densities(col, mp, L, (1.0 + t) * L)
    return Proposal("edge_slide", Edit(moved=((vid, new.x, new.y),)), log_f, log_r)


def _pair_targets(col: Coloring, e1: int, e2: int, psi: int):
    a, b = col.edges[e1]
    c, d = col.edges[e2]
    if len({a, b, c, d}) != 4:
        return None
    if psi == 0:
        return ((a, c), (b, d))
    return ((a, d), (b, c))


def propose_recolor_pair(col: Coloring, rng: np.random.Generator,
                         mp: MoveParams) -> Proposal | None:
    if len(col.edge_ids) < 2:
        return None
    e1 = col.edge_ids.pick(rng)
    e2 = col.edge_ids.pick(rng)
    while e2 == e1:
        e2 = col.edge_ids.pick(rng)
    added = _pair_targets(col, e1, e2, int(rng.integers(2)))
    if added is None:
        return None
    return _recolor(col, mp, "recolor_pair", e1, e2, added)


def propose_recolor_local(col: Coloring, rng: np.random.Generator,
                          mp: MoveParams) -> Proposal | None:
    if len(col.edge_ids) < 2:
        return None
    e1 = col.edge_ids.pick(rng)
    co1 = col.co_occupant_edges(e1)
    if not co1:
        return None
    e2 = co1[int(rng.integers(len(co1)))]
    added = _pair_targets(col, e1, e2, int(rng.integers(2)))
    if added is None:
        return None
    return _recolor(col, mp, "recolor_local", e1, e2, added, co1)


PROPOSERS = {
    "triangle_birth": propose_triangle_birth,
    "triangle_death": propose_triangle_death,
    "wedge_birth": propose_wedge_birth,
    "wedge_death": propose_wedge_death,
    "chord_birth": propose_chord_birth,
    "chord_death": propose_chord_death,
    "kink_birth": propose_kink_birth,
    "kink_death": propose_kink_death,
    "relocate": propose_relocate,
    "boundary_slide": propose_boundary_slide,
    "edge_slide": propose_edge_slide,
    "recolor_pair": propose_recolor_pair,
    "recolor_local": propose_recolor_local,
}


def pick_kind(rng: np.random.Generator, mp: MoveParams) -> str:
    r = rng.random() * sum(mp.weights.get(k, 0.0) for k in KIND_ORDER)
    acc = 0.0
    for k in KIND_ORDER:
        acc += mp.weights.get(k, 0.0)
        if r < acc:
            return k
    return KIND_ORDER[-1]


def propose(col: Coloring, rng: np.random.Generator,
            mp: MoveParams) -> Proposal | None:
    kind = pick_kind(rng, mp)
    return PROPOSERS[kind](col, rng, mp)


# ---------------------------------------------------------------------------
# inverse construction (used by reversibility tests)


def build_inverse(post: Coloring, prop: Proposal, result: ApplyResult,
                  mp: MoveParams) -> Proposal | None:
    """Proposal that undoes an applied one, from the post state.

    Reads the inverse kind's arguments off ``post`` and ``result`` and calls
    that kind's constructor, so densities and support checks are the
    chain's own; None means the undoing edit lies outside that support.
    """
    kind = prop.kind
    token = result.token
    new_vid = result.vertex_id_map
    gone = [(Point2(x, y), vkind) for _, x, y, vkind in token.deleted_vertex_records]
    if kind == "triangle_birth":
        tri = tuple(sorted(new_vid.values()))
        return _triangle_death(post, mp, tri, len(list_triangles(post)))
    if kind == "triangle_death":
        return _triangle_birth(post, mp, [p for p, _ in gone])
    if kind == "wedge_birth":
        return _wedge_death(post, mp, new_vid[-2], len(list_wedges(post)))
    if kind == "wedge_death":
        (apex,) = [p for p, vkind in gone if vkind == INTERIOR]
        b1, b2 = [p for p, vkind in gone if vkind == BOUNDARY]
        return _wedge_birth(post, mp, b1, apex, b2)
    if kind == "chord_birth":
        (eid,) = result.added_edge_ids
        return _chord_death(post, mp, eid, len(list_chords(post)))
    if kind == "chord_death":
        (b1, _), (b2, _) = gone
        return _chord_birth(post, mp, b1, b2)
    if kind == "kink_birth":
        return _kink_death(post, mp, new_vid[-1])
    if kind == "kink_death":
        (eid,) = result.added_edge_ids
        ((u, _),) = gone
        return _kink_birth(post, mp, eid, u)
    if kind in ("recolor_pair", "recolor_local"):
        f1, f2 = result.added_edge_ids
        added = tuple((v1, v2) for _, v1, v2 in token.removed_edge_records)
        co1 = post.co_occupant_edges(f1) if kind == "recolor_local" else None
        return _recolor(post, mp, kind, f1, f2, added, co1)
    (vid, ox, oy) = token.moved_old[0]
    if kind == "relocate":
        return _relocate(post, mp, vid, Point2(ox, oy))
    if kind == "boundary_slide":
        return _boundary_slide(post, mp, vid, Point2(ox, oy))
    if kind != "edge_slide":
        raise ValueError(f"unknown kind {kind}")
    # edge_slide: the slid edge is the incident edge collinear with the
    # motion (smallest cross); its length goes back from post to pre
    v = post.vertices[vid]
    best = None
    for eid in v.edges:
        wpt = post.vertices[post.other_endpoint(eid, vid)].point
        cur = math.hypot(v.x - wpt.x, v.y - wpt.y)
        old = math.hypot(ox - wpt.x, oy - wpt.y)
        cross = abs((v.x - wpt.x) * (oy - wpt.y) - (v.y - wpt.y) * (ox - wpt.x))
        score = cross / max(cur * old, 1e-300)
        if best is None or score < best[0]:
            best = (score, cur, old)
    assert best is not None and best[0] < 1e-6, \
        "slide inverse: no collinear incident edge"
    _, L_post, L_pre = best
    log_f, log_r = _edge_slide_densities(post, mp, L_post, L_pre)
    return Proposal(kind, Edit(moved=((vid, ox, oy),)), log_f, log_r)
