"""Uniform-grid spatial index over segment sets.

Each edge is registered in every cell its segment touches (supercover), so a
cell walk along a ray tests exactly the edges that could intersect it, and a
bounding box query over-approximates but never misses nearby edges.
"""

from __future__ import annotations

import math

from .geometry import (
    GridSpec,
    Point2,
    Segment,
    grid_trace_with_entries,
    ray_segment_intersection,
)


class EdgeGridIndex:
    """Mutable cell -> edge-id index with front-to-back ray casting."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._edge_cells: dict[int, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._edge_cells)

    def __contains__(self, eid: int) -> bool:
        return eid in self._edge_cells

    def add(self, eid: int, seg: Segment) -> None:
        if eid in self._edge_cells:
            raise ValueError(f"edge {eid} already indexed")
        cells = [(ix, iy) for (_, ix, iy) in grid_trace_with_entries(seg, self.grid)]
        self._edge_cells[eid] = cells
        for c in cells:
            self._cells.setdefault(c, set()).add(eid)

    def remove(self, eid: int) -> None:
        for c in self._edge_cells.pop(eid):
            bucket = self._cells[c]
            bucket.discard(eid)
            if not bucket:
                del self._cells[c]

    def cells_of(self, eid: int) -> list[tuple[int, int]]:
        return self._edge_cells[eid]

    def edges_in_cells(self, cells) -> set[int]:
        out: set[int] = set()
        for c in cells:
            got = self._cells.get(c)
            if got:
                out |= got
        return out

    def edges_near_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float) -> set[int]:
        return self.edges_in_cells(self.grid.cells_in_bbox(xmin, ymin, xmax, ymax))

    def ray_cast(self, origin: Point2, direction: tuple[float, float],
                 max_t: float, get_segment):
        """Nearest hit ``(t, eid)`` along a ray, or None.

        Ties in t go to the smaller edge id.  ``get_segment`` maps an edge id
        to its Segment.  The walk visits cells front to back and stops as
        soon as the best hit is strictly closer than the next cell's entry,
        which cannot discard a winner: an untested edge lives only in
        unvisited cells, so any hit of it lies at or beyond that entry.
        """
        end = Point2(origin.x + max_t * direction[0],
                     origin.y + max_t * direction[1])
        walk = grid_trace_with_entries(Segment(origin, end), self.grid)
        best: tuple[float, int] | None = None
        tested: set[int] = set()
        for entry_frac, ix, iy in walk:
            if best is not None and best[0] < entry_frac * max_t:
                break
            bucket = self._cells.get((ix, iy))
            if not bucket:
                continue
            for eid in bucket:
                if eid in tested:
                    continue
                tested.add(eid)
                t = ray_segment_intersection(origin, direction, get_segment(eid))
                if t is not None and t <= max_t:
                    cand = (t, eid)
                    if best is None or cand < best:
                        best = cand
        return best

    def check_coherent(self, segments: dict[int, Segment]) -> None:
        """Validate the two-way mapping against a fresh trace (test hook)."""
        assert set(self._edge_cells) == set(segments)
        for eid, seg in segments.items():
            want = [(ix, iy) for (_, ix, iy) in grid_trace_with_entries(seg, self.grid)]
            assert self._edge_cells[eid] == want, f"edge {eid} cells stale"
            for c in want:
                assert eid in self._cells.get(c, ()), f"cell {c} missing edge {eid}"
        for c, bucket in self._cells.items():
            assert bucket, f"empty bucket {c} retained"
            for eid in bucket:
                assert c in self._edge_cells[eid], f"edge {eid} not tracking cell {c}"


def cone_cells(grid: GridSpec, apex: Point2, heading: float,
               half_angle: float, radius: float) -> list[tuple[int, int]]:
    """Cells conservatively overlapping a circular sector.

    A cell passes when its rectangle meets the sector's disc and both closed
    half-planes bounding the wedge (half_angle < pi/2).  This over-covers
    slightly near the apex but never misses a cell that the true sector
    touches.
    """
    ux_lo, uy_lo = math.cos(heading - half_angle), math.sin(heading - half_angle)
    ux_hi, uy_hi = math.cos(heading + half_angle), math.sin(heading + half_angle)
    out = []
    for (ix, iy) in grid.cells_in_bbox(apex.x - radius, apex.y - radius,
                                       apex.x + radius, apex.y + radius):
        r = grid.cell_rect(ix, iy)
        # nearest point of the rect to the apex within the disc?
        nx = min(max(apex.x, r.xmin), r.xmax)
        ny = min(max(apex.y, r.ymin), r.ymax)
        if (nx - apex.x) ** 2 + (ny - apex.y) ** 2 > radius * radius:
            continue
        corners = ((r.xmin, r.ymin), (r.xmin, r.ymax), (r.xmax, r.ymin), (r.xmax, r.ymax))
        # some corner on the non-negative side of the lower wedge boundary
        if all(ux_lo * (cy - apex.y) - uy_lo * (cx - apex.x) < 0.0 for cx, cy in corners):
            continue
        if all(ux_hi * (cy - apex.y) - uy_hi * (cx - apex.x) > 0.0 for cx, cy in corners):
            continue
        out.append((ix, iy))
    return out
