"""Reference ray cast over a uniform-grid index of segments.

The chain reads edge geometry from the coloring's edge table; this index
is the exact reference that batched beam casts are tested against.  Each
edge is registered in every cell its segment touches (supercover), so a
cell walk along a ray tests exactly the edges that could intersect it.
"""

from __future__ import annotations

from .geometry import (
    GridSpec,
    Point2,
    Segment,
    grid_trace_with_entries,
    ray_segment_intersection,
)


class EdgeGridIndex:
    """Cell -> edge-id index with front-to-back ray casting."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._ids: set[int] = set()

    def add(self, eid: int, seg: Segment) -> None:
        if eid in self._ids:
            raise ValueError(f"edge {eid} already indexed")
        self._ids.add(eid)
        for _, ix, iy in grid_trace_with_entries(seg, self.grid):
            self._cells.setdefault((ix, iy), set()).add(eid)

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
