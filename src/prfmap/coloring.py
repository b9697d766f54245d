"""Polygonal two-colorings of a rectangular window.

A coloring is a planar graph of non-crossing segments: interior vertices have
degree 2, boundary vertices (on the window edge, never at corners) degree 1.
Colors are induced by crossing parity from an anchor point with a stored
color, so the edge set plus one bit determines the color of every point.

Edits (the unit of change used by chain moves) are applied incrementally:
cached edge/angle statistics, the edge table, and id sets are all updated in
place, and a revert token restores the previous state exactly, including
bit-identical cached statistics.
The edge table's rows (each live edge's id, ends and box) serve the
sensors' edge arrays and box queries; co-occupancy queries read supercover
cells traced on demand and kept until their edge moves or goes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EPS_ANGLE,
    EPS_GEOM,
    GridSpec,
    Point2,
    Rect,
    Segment,
    boundary_tangent,
    crossing_parity,
    grid_trace_segment,
    point_segment_distance,
    segment_min_distance,
    segments_properly_intersect,
    sin_angle_between,
)

WHITE = 0
BLACK = 1

INTERIOR = "interior"
BOUNDARY = "boundary"

# The density rewards short edges as 1/length, so without a floor a chain
# can ratchet a polygon down to microscopic size and never recover (the
# removal acceptance decays like the cube of the scale).  Like the corner
# angle floor, truncating below a centimetre removes only negligible mass
# while keeping every configuration escapable.
MIN_EDGE_LENGTH = 1e-2
MIN_SIN_ANGLE = EPS_ANGLE
CORNER_MARGIN = 1e-6


@dataclass
class Vertex:
    x: float
    y: float
    kind: str
    edges: list[int] = field(default_factory=list)

    @property
    def point(self) -> Point2:
        return Point2(self.x, self.y)


@dataclass
class PriorStats:
    """Sufficient statistics of the edge set for the smooth-coloring prior."""
    n_edges: int = 0
    total_length: float = 0.0
    sum_log_length: float = 0.0
    sum_log_sin: float = 0.0

    def copy(self) -> "PriorStats":
        return PriorStats(self.n_edges, self.total_length,
                          self.sum_log_length, self.sum_log_sin)


class IndexedSet:
    """Set of ints with O(1) add/discard and O(1) uniform sampling."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._items: list[int] = []
        self._pos: dict[int, int] = {}
        for x in items:
            self.add(x)

    def __len__(self):
        return len(self._items)

    def __contains__(self, x):
        return x in self._pos

    def __iter__(self):
        return iter(self._items)

    def add(self, x: int) -> None:
        if x not in self._pos:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def position(self, x: int) -> int:
        return self._pos[x]

    def remove(self, x: int) -> int:
        """Remove x; the last item takes its position, which is returned."""
        i = self._pos.pop(x)
        last = self._items.pop()
        if last != x:
            self._items[i] = last
            self._pos[last] = i
        return i

    def pick(self, rng: np.random.Generator) -> int:
        return self._items[int(rng.integers(len(self._items)))]


@dataclass(frozen=True)
class Edit:
    """Declarative state change: remove edges, move vertices, add geometry.

    New vertices get negative placeholder ids that added_edges may reference;
    apply assigns real ids.  ``closure`` lists extra segments (along the
    window boundary) that close the recolored curve when it is anchored to
    the boundary; they take part in the flip-parity test only.
    """
    removed_edges: tuple[int, ...] = ()
    new_vertices: tuple[tuple[int, float, float, str], ...] = ()
    added_edges: tuple[tuple[int, int], ...] = ()
    moved: tuple[tuple[int, float, float], ...] = ()
    closure: tuple[Segment, ...] = ()


@dataclass
class RevertToken:
    stats: PriorStats
    anchor_color: int
    added_edge_ids: list[int]
    created_vertex_ids: list[int]
    removed_edge_records: list[tuple[int, int, int]]
    deleted_vertex_records: list[tuple[int, float, float, str]]
    moved_old: list[tuple[int, float, float]]
    cells: dict[int, frozenset[tuple[int, int]]]  # traced cells of removed and moved edges


@dataclass
class ApplyResult:
    token: RevertToken
    delta_segments: list[Segment]
    region: tuple[float, float, float, float]
    anchor_flipped: bool
    added_edge_ids: list[int]
    removed_edge_ids: list[int]
    vertex_id_map: dict[int, int]


class Coloring:
    """Mutable polygonal coloring with cached statistics and an edge table."""

    def __init__(self, window: Rect, cell_size: float = 0.25,
                 anchor: Point2 | None = None, anchor_color: int = WHITE):
        self.window = window
        self.vertices: dict[int, Vertex] = {}
        self.edges: dict[int, tuple[int, int]] = {}
        self.anchor = anchor if anchor is not None else window.center
        self.anchor_color = anchor_color
        self.stats = PriorStats()
        self.grid = GridSpec(window, cell_size)
        self.interior_ids = IndexedSet()
        self.boundary_ids = IndexedSet()
        self.edge_ids = IndexedSet()
        # Table row i (arrays over-allocated) holds the id and geometry of
        # edge_ids' item i: ends (ax, ay, bx, by), then box (xmin, ymin,
        # -xmax, -ymax).  Rows are swap-removed as ids are, so they never
        # outnumber the live edges.  Cells are keyed by id and traced only
        # when a co-occupancy query reads them: moving or removing an edge
        # drops its entry (a revert token keeps it to put back), so edits
        # and reverts trace nothing.
        self._eid = np.empty(8, dtype=np.int64)
        self._geom = np.empty((8, 8))
        self._cells: dict[int, frozenset[tuple[int, int]]] = {}
        self._next_vid = 0
        self._next_eid = 0
        self.external_ref = self._pick_external_ref()

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, window: Rect, cell_size: float = 0.25,
              anchor: Point2 | None = None, anchor_color: int = WHITE) -> "Coloring":
        return cls(window, cell_size, anchor, anchor_color)

    @classmethod
    def from_rectangles(cls, window: Rect, rects, cell_size: float = 0.25,
                        clearance: float = 0.05) -> "Coloring":
        """Coloring whose black set is the even-odd union of rectangles.

        Rectangle sides must lie strictly inside the window and must not
        cross each other.  The anchor is auto-placed away from all sides.
        """
        anchor = _clear_anchor(window, rects, clearance)
        inside = sum(1 for r in rects if r.xmin < anchor.x < r.xmax
                     and r.ymin < anchor.y < r.ymax)
        col = cls(window, cell_size, anchor, BLACK if inside % 2 else WHITE)
        for r in rects:
            vids = [col._add_vertex(x, y, INTERIOR) for x, y in
                    ((r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmax, r.ymax), (r.xmin, r.ymax))]
            for i in range(4):
                col._add_edge(vids[i], vids[(i + 1) % 4])
        col.recompute_stats()
        return col

    def _pick_external_ref(self) -> Point2:
        # A fixed point outside the window whose sight line to the anchor
        # clears all four window corners, so flip-parity tests along it are
        # never degenerate at a corner of a closure chain.
        w = self.window
        corners = [Point2(w.xmin, w.ymin), Point2(w.xmax, w.ymin),
                   Point2(w.xmax, w.ymax), Point2(w.xmin, w.ymax)]
        for k in range(100):
            cand = Point2(w.xmin - 0.7 - 0.137 * k, w.ymin - 1.1 - 0.0731 * k)
            if all(point_segment_distance(c, cand, self.anchor) > 1e-6 for c in corners):
                return cand
        raise RuntimeError("could not place external reference point")

    # -- basic accessors --------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def segment_of(self, eid: int) -> Segment:
        v1, v2 = self.edges[eid]
        return Segment(self.vertices[v1].point, self.vertices[v2].point)

    def edge_length(self, eid: int) -> float:
        s = self.segment_of(eid)
        return math.hypot(s.b.x - s.a.x, s.b.y - s.a.y)

    def other_endpoint(self, eid: int, vid: int) -> int:
        v1, v2 = self.edges[eid]
        return v2 if vid == v1 else v1

    def neighbors(self, vid: int) -> list[int]:
        return [self.other_endpoint(e, vid) for e in self.vertices[vid].edges]

    # -- edge table queries -----------------------------------------------

    def live_edges(self):
        """Arrays ``(eids, ax, ay, bx, by)`` of the live edges in increasing
        id: each edge's id and the coordinates of its two ends."""
        order = np.argsort(self._eid[:len(self.edge_ids)])
        return (self._eid[order], *self._geom[order, :4].T)

    def edges_near_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float,
                        pad: float = 0.0) -> list[int]:
        """Live edges whose box meets the closed box widened by ``pad``, in
        increasing id."""
        n = len(self.edge_ids)
        # -max <= pad - min exactly when max >= min - pad: one comparison
        meet = (self._geom[:n, 4:] <= (xmax + pad, ymax + pad, pad - xmin, pad - ymin)).all(axis=1)
        return sorted(self._eid[:n][meet].tolist())

    def edges_sharing_a_cell(self, seg: Segment) -> list[int]:
        """Live edges whose supercover cells meet seg's, in increasing id."""
        return self._sharing(seg, frozenset(grid_trace_segment(seg, self.grid)))

    def co_occupant_edges(self, eid: int) -> list[int]:
        """Edges sharing at least one grid cell with eid, sorted, excluding it."""
        got = self._sharing(self.segment_of(eid), self._cells_of(eid))
        got.remove(eid)
        return got

    def _sharing(self, seg: Segment, cells) -> list[int]:
        # Segments whose traces share a cell both meet its closed square, up
        # to rounding, so their boxes lie within one cell size of each other.
        near = self.edges_near_bbox(*_box_of(seg), pad=2.0 * self.grid.cell_size)
        return [e for e in near if not cells.isdisjoint(self._cells_of(e))]

    def _cells_of(self, eid: int) -> frozenset[tuple[int, int]]:
        cells = self._cells.get(eid)
        if cells is None:
            cells = frozenset(grid_trace_segment(self.segment_of(eid), self.grid))
            self._cells[eid] = cells
        return cells

    # -- structural primitives (no stats bookkeeping) ---------------------

    def _add_vertex(self, x: float, y: float, kind: str) -> int:
        vid = self._next_vid
        self._next_vid += 1
        self._insert_vertex(vid, x, y, kind)
        return vid

    def _insert_vertex(self, vid: int, x: float, y: float, kind: str) -> None:
        self.vertices[vid] = Vertex(x, y, kind)
        (self.interior_ids if kind == INTERIOR else self.boundary_ids).add(vid)
        self._next_vid = max(self._next_vid, vid + 1)

    def _delete_vertex(self, vid: int) -> None:
        v = self.vertices.pop(vid)
        assert not v.edges, f"deleting vertex {vid} with incident edges"
        (self.interior_ids if v.kind == INTERIOR else self.boundary_ids).remove(vid)

    def _add_edge(self, v1: int, v2: int, eid: int | None = None) -> int:
        if eid is None:
            eid = self._next_eid
        self._next_eid = max(self._next_eid, eid + 1)
        self.edges[eid] = (v1, v2)
        self.vertices[v1].edges.append(eid)
        self.vertices[v2].edges.append(eid)
        self.edge_ids.add(eid)
        row = len(self.edge_ids) - 1
        if row == len(self._eid):
            self._eid, self._geom = (np.concatenate((a, a)) for a in (self._eid, self._geom))
        self._store_row(row, eid)
        return eid

    def _remove_edge(self, eid: int) -> tuple[int, int]:
        v1, v2 = self.edges.pop(eid)
        self.vertices[v1].edges.remove(eid)
        self.vertices[v2].edges.remove(eid)
        row, last = self.edge_ids.remove(eid), len(self.edge_ids)
        for a in (self._eid, self._geom):
            a[row] = a[last]  # the last row fills the gap, as in edge_ids
        self._cells.pop(eid, None)
        return v1, v2

    def _move_vertex(self, vid: int, x: float, y: float) -> None:
        v = self.vertices[vid]
        v.x, v.y = x, y
        for eid in v.edges:
            self._store_row(self.edge_ids.position(eid), eid)

    def _store_row(self, row: int, eid: int) -> None:
        """Write edge eid's id, ends and box into table row ``row``; its
        cells, if traced, are dropped."""
        (ax, ay), (bx, by) = self.segment_of(eid)
        self._eid[row] = eid
        self._geom[row] = ax, ay, bx, by, min(ax, bx), min(ay, by), -max(ax, bx), -max(ay, by)
        self._cells.pop(eid, None)

    # -- statistics -------------------------------------------------------

    def angle_term(self, vid: int) -> float:
        """log sin of the corner angle at a vertex (see prior)."""
        v = self.vertices[vid]
        if v.kind == INTERIOR:
            e1, e2 = v.edges
            w1 = self.vertices[self.other_endpoint(e1, vid)]
            w2 = self.vertices[self.other_endpoint(e2, vid)]
            s = sin_angle_between(w1.x - v.x, w1.y - v.y, w2.x - v.x, w2.y - v.y)
        else:
            (e1,) = v.edges
            w1 = self.vertices[self.other_endpoint(e1, vid)]
            tx, ty = boundary_tangent(self.window, v.point)
            s = sin_angle_between(w1.x - v.x, w1.y - v.y, tx, ty)
        assert s > 0.0, f"degenerate angle at vertex {vid}"
        return math.log(s)

    def recompute_stats(self) -> PriorStats:
        st = PriorStats()
        for eid in self.edges:
            L = self.edge_length(eid)
            st.n_edges += 1
            st.total_length += L
            st.sum_log_length += math.log(L)
        for vid in self.vertices:
            st.sum_log_sin += self.angle_term(vid)
        self.stats = st
        return st

    # -- colors -----------------------------------------------------------

    def color_at(self, q: Point2) -> int:
        segs = (self.segment_of(eid) for eid in self.edges)
        return self.anchor_color ^ crossing_parity(self.anchor, q, segs)

    def colors_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized color query; same crossing rule as color_at."""
        segs = [self.segment_of(eid) for eid in self.edges]
        par = crossing_parity_batch(self.anchor, xs, ys, segs)
        return (par ^ self.anchor_color).astype(np.int8)

    # -- edit application -------------------------------------------------

    def apply_edit(self, edit: Edit) -> ApplyResult:
        """Apply an edit; caller must have established validity first."""
        stats = self.stats
        token = RevertToken(stats.copy(), self.anchor_color, [], [], [], [], [], {})
        delta: list[Segment] = []

        removed_set = set(edit.removed_edges)
        moved_ids = [vid for vid, _, _ in edit.moved]
        moved_incident: list[int] = []
        seen = set()
        for vid in moved_ids:
            for eid in self.vertices[vid].edges:
                if eid not in removed_set and eid not in seen:
                    seen.add(eid)
                    moved_incident.append(eid)

        affected = set(moved_ids)
        for eid in edit.removed_edges:
            affected.update(self.edges[eid])
        for vid in moved_ids:
            affected.update(self.neighbors(vid))
        for a, b in edit.added_edges:
            if a >= 0:
                affected.add(a)
            if b >= 0:
                affected.add(b)

        # retract old contributions
        for vid in affected:
            stats.sum_log_sin -= self.angle_term(vid)
        for eid in edit.removed_edges:
            L = self.edge_length(eid)
            stats.n_edges -= 1
            stats.total_length -= L
            stats.sum_log_length -= math.log(L)
        for eid in moved_incident:
            L = self.edge_length(eid)
            stats.total_length -= L
            stats.sum_log_length -= math.log(L)

        # structural changes
        for eid in (*edit.removed_edges, *moved_incident):
            if eid in self._cells:
                token.cells[eid] = self._cells[eid]
        for eid in edit.removed_edges:
            delta.append(self.segment_of(eid))
            v1, v2 = self._remove_edge(eid)
            token.removed_edge_records.append((eid, v1, v2))
        for eid in moved_incident:
            delta.append(self.segment_of(eid))
        for vid, x, y in edit.moved:
            v = self.vertices[vid]
            token.moved_old.append((vid, v.x, v.y))
            self._move_vertex(vid, x, y)
        for eid in moved_incident:
            delta.append(self.segment_of(eid))
        vid_map: dict[int, int] = {}
        for tmp, x, y, kind in edit.new_vertices:
            vid = self._add_vertex(x, y, kind)
            vid_map[tmp] = vid
            token.created_vertex_ids.append(vid)
        for a, b in edit.added_edges:
            ra = vid_map.get(a, a)
            rb = vid_map.get(b, b)
            eid = self._add_edge(ra, rb)
            token.added_edge_ids.append(eid)
            delta.append(self.segment_of(eid))
        for vid in affected:
            if vid in self.vertices and not self.vertices[vid].edges:
                v = self.vertices[vid]
                token.deleted_vertex_records.append((vid, v.x, v.y, v.kind))
                self._delete_vertex(vid)

        # new contributions
        for eid in token.added_edge_ids:
            L = self.edge_length(eid)
            stats.n_edges += 1
            stats.total_length += L
            stats.sum_log_length += math.log(L)
        for eid in moved_incident:
            L = self.edge_length(eid)
            stats.total_length += L
            stats.sum_log_length += math.log(L)
        post_affected = {v for v in affected if v in self.vertices}
        post_affected.update(vid_map.values())
        for vid in post_affected:
            stats.sum_log_sin += self.angle_term(vid)

        flip_segs = delta + list(edit.closure)
        flipped = bool(crossing_parity(self.external_ref, self.anchor, flip_segs))
        if flipped:
            self.anchor_color ^= 1

        xs = [p.x for s in flip_segs for p in (s.a, s.b)]
        ys = [p.y for s in flip_segs for p in (s.a, s.b)]
        region = (min(xs), min(ys), max(xs), max(ys)) if xs else \
            (self.anchor.x, self.anchor.y, self.anchor.x, self.anchor.y)

        return ApplyResult(token, delta, region, flipped,
                           list(token.added_edge_ids),
                           list(edit.removed_edges), vid_map)

    def revert(self, token: RevertToken) -> None:
        for eid in reversed(token.added_edge_ids):
            self._remove_edge(eid)
        for vid in reversed(token.created_vertex_ids):
            self._delete_vertex(vid)
        for vid, x, y, kind in token.deleted_vertex_records:
            self._insert_vertex(vid, x, y, kind)
        for vid, x, y in token.moved_old:
            self._move_vertex(vid, x, y)
        for eid, v1, v2 in token.removed_edge_records:
            self._add_edge(v1, v2, eid=eid)
        self._cells.update(token.cells)
        self.stats = token.stats
        self.anchor_color = token.anchor_color

    # -- validity ---------------------------------------------------------

    def edit_is_valid(self, edit: Edit) -> bool:
        """Geometric admissibility of an edit against the current state.

        Checks window containment, minimum edge lengths, the corner-angle
        floor at every touched vertex, anchor clearance, and non-crossing
        (plus a minimum separation) against all surviving edges.
        """
        removed_set = set(edit.removed_edges)
        moved_pos = {vid: Point2(x, y) for vid, x, y in edit.moved}
        new_pos = {tmp: Point2(x, y) for tmp, x, y, _ in edit.new_vertices}
        new_kind = {tmp: kind for tmp, x, y, kind in edit.new_vertices}

        def pos(vid: int) -> Point2:
            if vid < 0:
                return new_pos[vid]
            if vid in moved_pos:
                return moved_pos[vid]
            return self.vertices[vid].point

        def kind(vid: int) -> str:
            return new_kind[vid] if vid < 0 else self.vertices[vid].kind

        # vertex placement
        for vid in list(new_pos) + list(moved_pos):
            p = pos(vid)
            if kind(vid) == INTERIOR:
                if not self.window.contains_strict(p, EPS_GEOM):
                    return False
            else:
                if not _on_boundary_clear_of_corners(self.window, p):
                    return False

        # no added edge may duplicate a surviving edge or another added edge
        seen_pairs: set[frozenset[int]] = set()
        for a, b in edit.added_edges:
            pair = frozenset((a, b))
            if len(pair) != 2 or pair in seen_pairs:
                return False
            seen_pairs.add(pair)
            if a >= 0 and b >= 0:
                for eid in self.vertices[a].edges:
                    if eid not in removed_set and self.other_endpoint(eid, a) == b:
                        return False

        # candidate segments: added edges plus post images of moved edges
        moved_incident = {e for vid in moved_pos for e in self.vertices[vid].edges} - removed_set
        pairs = [*edit.added_edges, *(self.edges[e] for e in moved_incident)]
        cands = [((a, b), Segment(pos(a), pos(b))) for a, b in pairs]

        for i, ((a, b), seg) in enumerate(cands):
            L = math.hypot(seg.b.x - seg.a.x, seg.b.y - seg.a.y)
            if L < MIN_EDGE_LENGTH:
                return False
            if point_segment_distance(self.anchor, seg.a, seg.b) < EPS_GEOM:
                return False
            # an edge within EPS_GEOM of seg has a box that meets the padded box
            nearby = self.edges_near_bbox(*_box_of(seg), pad=EPS_GEOM)
            others = [(self.edges[e], self.segment_of(e)) for e in nearby
                      if e not in removed_set and e not in moved_incident]
            for (o1, o2), oseg in others + cands[i + 1:]:
                # segment_min_distance is 0 where the two cross
                if not {a, b} & {o1, o2} and segment_min_distance(seg, oseg) < EPS_GEOM:
                    return False

        # angle floor at every touched vertex, in the post state
        touched: set[int] = set(moved_pos)
        for eid in edit.removed_edges:
            touched.update(self.edges[eid])
        for vid in moved_pos:
            touched.update(self.neighbors(vid))
        for a, b in edit.added_edges:
            touched.add(a)
            touched.add(b)
        post_edges: dict[int, list[tuple[int, int]]] = {}
        for vid in touched:
            if vid >= 0:
                post_edges[vid] = [tuple(self.edges[e]) for e in self.vertices[vid].edges
                                   if e not in removed_set]
            else:
                post_edges[vid] = []
        for a, b in edit.added_edges:
            post_edges.setdefault(a, []).append((a, b))
            post_edges.setdefault(b, []).append((a, b))
        for vid, inc in post_edges.items():
            if not inc:
                continue  # vertex disappears
            want = 2 if kind(vid) == INTERIOR else 1
            if len(inc) != want:
                return False
            p = pos(vid)
            dirs = []
            for v1, v2 in inc:
                w = pos(v2 if v1 == vid else v1)
                dirs.append((w.x - p.x, w.y - p.y))
            if want == 2:
                s = sin_angle_between(dirs[0][0], dirs[0][1], dirs[1][0], dirs[1][1])
            else:
                tx, ty = boundary_tangent(self.window, p)
                s = sin_angle_between(dirs[0][0], dirs[0][1], tx, ty)
            if s < MIN_SIN_ANGLE:
                return False
        return True

    # -- integrity --------------------------------------------------------

    def validate(self) -> None:
        """Full structural check (quadratic; for tests and debugging): the
        graph and geometry (:meth:`_check_structure`), then the bookkeeping
        that mirrors them, asserted: id sets, incidence lists, the edge
        table, traced cells and cached statistics."""
        self._check_structure()
        for vid, v in self.vertices.items():
            assert vid in (self.interior_ids if v.kind == INTERIOR else self.boundary_ids)
            for eid in v.edges:
                assert vid in self.edges[eid], f"vertex {vid} not in edge {eid}"
        assert len(self.interior_ids) + len(self.boundary_ids) == len(self.vertices)
        assert sorted(self.edge_ids) == sorted(self.edges)
        for eid, (v1, v2) in self.edges.items():
            assert eid in self.vertices[v1].edges and eid in self.vertices[v2].edges
        for row, eid in enumerate(self.edge_ids):
            seg = self.segment_of(eid)
            x0, y0, x1, y1 = _box_of(seg)
            assert [self._eid[row], *self._geom[row]] == \
                [eid, *seg.a, *seg.b, x0, y0, -x1, -y1], f"table row {row} stale"
        for eid, cells in self._cells.items():
            assert eid in self.edges, f"cells cached for dead edge {eid}"
            assert cells == frozenset(grid_trace_segment(self.segment_of(eid), self.grid)), \
                f"edge {eid} cells stale"
        live = self.stats
        fresh = self.recompute_stats()
        assert live.n_edges == fresh.n_edges
        for a, b in ((live.total_length, fresh.total_length),
                     (live.sum_log_length, fresh.sum_log_length),
                     (live.sum_log_sin, fresh.sum_log_sin)):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)), \
                f"cached stats drifted: {a} vs {b}"
        self.stats = live

    def _check_structure(self) -> None:
        """Raise ValueError unless the graph and its geometry form a valid
        map: vertex degrees and placement, edge lengths, the anchor clear of
        every edge and no two edges crossing."""
        for vid, v in self.vertices.items():
            if v.kind == INTERIOR:
                if len(v.edges) != 2:
                    raise ValueError(f"interior vertex {vid} degree {len(v.edges)}")
                if not self.window.contains_strict(v.point):
                    raise ValueError(f"vertex {vid} outside window")
            else:
                if len(v.edges) != 1:
                    raise ValueError(f"boundary vertex {vid} degree {len(v.edges)}")
                if not _on_boundary_clear_of_corners(self.window, v.point):
                    raise ValueError(f"boundary vertex {vid} misplaced")
        for eid, (v1, v2) in self.edges.items():
            if v1 == v2:
                raise ValueError(f"edge {eid} is a loop at vertex {v1}")
            if self.edge_length(eid) < MIN_EDGE_LENGTH:
                raise ValueError(f"edge {eid} too short")
        eids = sorted(self.edges)
        for i, e1 in enumerate(eids):
            s1 = self.segment_of(e1)
            if point_segment_distance(self.anchor, s1.a, s1.b) < EPS_GEOM:
                raise ValueError(f"edge {e1} touches the anchor")
            for e2 in eids[i + 1:]:
                if (not set(self.edges[e1]) & set(self.edges[e2])
                        and segments_properly_intersect(s1, self.segment_of(e2))):
                    raise ValueError(f"edges {e1} and {e2} cross")

    def semantically_equal(self, other: "Coloring") -> bool:
        if self.window != other.window or self.anchor != other.anchor:
            return False
        if self.anchor_color != other.anchor_color:
            return False
        if set(self.vertices) != set(other.vertices):
            return False
        for vid, v in self.vertices.items():
            o = other.vertices[vid]
            if (v.x, v.y, v.kind) != (o.x, o.y, o.kind):
                return False
            if sorted(v.edges) != sorted(o.edges):
                return False
        if set(self.edges) != set(other.edges):
            return False
        for eid, (v1, v2) in self.edges.items():
            if {v1, v2} != set(other.edges[eid]):
                return False
        return True

    def geometry_signature(self):
        """Canonical id-free description: compares states up to relabeling."""
        verts = tuple(sorted((v.x, v.y, v.kind) for v in self.vertices.values()))
        edges = []
        for v1, v2 in self.edges.values():
            p1 = self.vertices[v1]
            p2 = self.vertices[v2]
            edges.append(tuple(sorted(((p1.x, p1.y), (p2.x, p2.y)))))
        return (self.anchor, self.anchor_color, verts, tuple(sorted(edges)))

    def clone(self) -> "Coloring":
        out = Coloring(self.window, self.grid.cell_size, self.anchor, self.anchor_color)
        for vid, v in self.vertices.items():
            out._insert_vertex(vid, v.x, v.y, v.kind)
        for eid in sorted(self.edges):
            v1, v2 = self.edges[eid]
            out._add_edge(v1, v2, eid=eid)
        out.recompute_stats()
        return out

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        w = self.window
        return {
            "window": [w.xmin, w.ymin, w.xmax, w.ymax],
            "anchor": {
                "point": [self.anchor.x, self.anchor.y],
                "color": "black" if self.anchor_color == BLACK else "white",
            },
            "vertices": [
                {"id": vid, "x": v.x, "y": v.y, "kind": v.kind}
                for vid, v in sorted(self.vertices.items())
            ],
            "edges": [
                {"id": eid, "vertices": list(self.edges[eid])}
                for eid in sorted(self.edges)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict, cell_size: float = 0.25) -> "Coloring":
        """Coloring of a :meth:`to_json_obj` record; a malformed map raises
        ValueError naming the record at fault."""
        win = Rect(*_finite("window", obj["window"]))
        ax, ay = _finite("anchor", obj["anchor"]["point"])
        color = BLACK if obj["anchor"]["color"] == "black" else WHITE
        col = cls(win, cell_size, Point2(ax, ay), color)
        for rec in obj["vertices"]:
            vid, kind = int(rec["id"]), rec["kind"]
            if kind not in (INTERIOR, BOUNDARY):
                raise ValueError(f"vertex {vid}: unknown vertex kind {kind!r}")
            if vid in col.vertices:
                raise ValueError(f"vertex {vid}: duplicate id")
            col._insert_vertex(vid, *_finite(f"vertex {vid}", (rec["x"], rec["y"])), kind)
        for rec in obj["edges"]:
            eid = int(rec["id"])
            v1, v2 = (int(v) for v in rec["vertices"])
            if eid in col.edges:
                raise ValueError(f"edge {eid}: duplicate id")
            if unknown := sorted({v1, v2} - col.vertices.keys()):
                raise ValueError(f"edge {eid}: unknown vertices {unknown}")
            col._add_edge(v1, v2, eid=eid)
        try:
            col._check_structure()
            col.recompute_stats()
        except (AssertionError, ValueError) as exc:
            raise ValueError(f"invalid map: {exc}") from None
        return col

    @classmethod
    def from_json(cls, text: str, cell_size: float = 0.25) -> "Coloring":
        return cls.from_json_obj(json.loads(text), cell_size)


def crossing_parity_batch(anchor: Point2, xs: np.ndarray, ys: np.ndarray,
                          segments) -> np.ndarray:
    """Crossing parity of anchor->(xs, ys) paths against segments (uint8).

    Vectorized over query points with the same half-open tie rule as the
    scalar predicate.
    """
    par = np.zeros(np.shape(xs), dtype=np.uint8)
    ax, ay = anchor
    for seg in segments:
        sax, say = seg.a
        sbx, sby = seg.b
        d1 = (xs - ax) * (say - ay) - (ys - ay) * (sax - ax)
        d2 = (xs - ax) * (sby - ay) - (ys - ay) * (sbx - ax)
        ex, ey = sbx - sax, sby - say
        d3 = ex * (ay - say) - ey * (ax - sax)
        d4 = ex * (ys - say) - ey * (xs - sax)
        hit = ((d1 < 0.0) != (d2 < 0.0)) & ((d3 < 0.0) != (d4 < 0.0))
        par ^= hit.astype(np.uint8)
    return par


def changed_mask(anchor: Point2, xs: np.ndarray, ys: np.ndarray,
                 delta_segments, anchor_flipped: bool) -> np.ndarray:
    """Boolean mask of points whose color changed under an applied edit."""
    par = crossing_parity_batch(anchor, xs, ys, delta_segments)
    if anchor_flipped:
        par ^= 1
    return par.astype(bool)


def changed_points(col: Coloring, result: ApplyResult, xs: np.ndarray,
                   ys: np.ndarray) -> np.ndarray:
    """Indices of points (xs, ys) whose color the applied edit changed.

    Only points inside ``result.region`` can change, so the crossing test
    of :func:`changed_mask` runs on those alone.
    """
    x0, y0, x1, y1 = result.region
    cand = np.flatnonzero((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
    if len(cand) == 0:
        return cand
    return cand[changed_mask(col.anchor, xs[cand], ys[cand],
                             result.delta_segments, result.anchor_flipped)]


def point_changed(anchor: Point2, q: Point2, delta_segments,
                  anchor_flipped: bool) -> bool:
    par = crossing_parity(anchor, q, delta_segments)
    return bool(par ^ int(anchor_flipped))


def _box_of(seg: Segment) -> tuple[float, float, float, float]:
    (ax, ay), (bx, by) = seg
    return min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)


def _finite(what: str, vals) -> list[float]:
    out = [float(v) for v in vals]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what}: non-finite coordinates {out}")
    return out


def _on_boundary_clear_of_corners(window: Rect, p: Point2) -> bool:
    on_x = p.x == window.xmin or p.x == window.xmax
    on_y = p.y == window.ymin or p.y == window.ymax
    if on_x == on_y:
        return False
    if on_x:
        return window.ymin + CORNER_MARGIN <= p.y <= window.ymax - CORNER_MARGIN
    return window.xmin + CORNER_MARGIN <= p.x <= window.xmax - CORNER_MARGIN


def _clear_anchor(window: Rect, rects, clearance: float) -> Point2:
    sides = []
    for r in rects:
        sides.extend([
            Segment(Point2(r.xmin, r.ymin), Point2(r.xmax, r.ymin)),
            Segment(Point2(r.xmax, r.ymin), Point2(r.xmax, r.ymax)),
            Segment(Point2(r.xmax, r.ymax), Point2(r.xmin, r.ymax)),
            Segment(Point2(r.xmin, r.ymax), Point2(r.xmin, r.ymin)),
        ])
    cands = [window.center]
    for frac_x in (0.5, 0.25, 0.75, 0.1, 0.9, 0.37, 0.63):
        for frac_y in (0.5, 0.25, 0.75, 0.1, 0.9, 0.37, 0.63):
            cands.append(Point2(window.xmin + frac_x * window.width,
                                window.ymin + frac_y * window.height))
    for cand in cands:
        if not window.contains_strict(cand, clearance):
            continue
        if all(point_segment_distance(cand, s.a, s.b) >= clearance for s in sides):
            return cand
    raise ValueError("no anchor position clear of rectangle sides")
