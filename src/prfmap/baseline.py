"""Log-odds occupancy-grid mapping (the classical comparison baseline).

Each cell carries an independent log-odds of occupancy, starting at 0
(probability one half).  Observations apply additive inverse-sensor-model
updates.  A laser beam frees the cells it traverses and marks its impact
cell, the cell that holds the impact point, occupied; when the impact
point lies outside the grid window there is no impact cell and every
traversed cell is freed.  A sonar ping marks its impact arc occupied (the
cells in the cone whose square meets the band of half-width
``sonar_arc_halfwidth`` around the reading) and frees the other cone cells
short of that band.  Each observation changes a cell by at most one
constant, so in exact arithmetic the final grid does not depend on
observation order.  The increments are added in observation order, lasers
first, so a rebuild from the same log is bit-identical.  The lasers are
traced many beams per pass, and each pass adds its increments with one
``np.add.at`` call, beam after beam.  ``np.add.at`` is unbuffered and adds
its increments one at a time, in the order given, so every cell still
receives its increments in observation order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Cone,
    GridSpec,
    Point2,
    grid_trace_many,
    grid_trace_segment,  # noqa: F401  (unused; perfbench/layers.py patches this name)
    unit_vector,
)
from .sensors import LaserObs, SonarObs, beam_directions


@dataclass(frozen=True)
class BaselineParams:
    """Inverse-sensor-model increments (log-odds units)."""
    laser_occupied: float = 0.4
    laser_free: float = 0.4
    sonar_occupied: float = 0.15
    sonar_free: float = 0.15
    # half-thickness of the sonar impact arc band, in meters; a cell is on
    # the arc when its square (not just its centre) meets the band
    sonar_arc_halfwidth: float = 0.05


class OccupancyGrid:
    """Independent-cell log-odds raster over a GridSpec."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.logodds = np.zeros((grid.ny, grid.nx), dtype=np.float64)

    def probability(self) -> np.ndarray:
        """Per-cell occupancy probability (sigmoid of the log-odds)."""
        return 1.0 / (1.0 + np.exp(-self.logodds))


# Estimated traced cells per pass of grid_update_laser.  grid_trace_many
# peaks at about 110 bytes per traced cell; with this budget one build from
# the corridor log peaks at 0.44 MB under tracemalloc.
_LASER_PASS_CELLS = 1 << 11


def _laser_passes(lasers: Sequence[LaserObs], cell_size: float):
    """``(start, stop)`` slices of consecutive beams, each estimated to
    trace about ``_LASER_PASS_CELLS`` cells: about sqrt(2) cells per cell
    length of its range, plus 3."""
    per_m = math.sqrt(2.0) / cell_size
    start, cells = 0, 0.0
    for k, o in enumerate(lasers, 1):
        cells += o.range * per_m + 3.0
        if cells >= _LASER_PASS_CELLS:
            yield start, k
            start, cells = k, 0.0
    if start < len(lasers):
        yield start, len(lasers)


def grid_update_laser(g: OccupancyGrid, lasers: Sequence[LaserObs],
                      params: BaselineParams | None = None) -> None:
    """Free the cells each beam traverses and mark its impact cell occupied.

    A beam's impact cell is the last cell of its trace, the one that holds
    the impact point.  A max-range beam has no impact; neither has a beam
    whose impact point lies outside the closed grid window, so all its
    traversed cells are freed.

    The beams go in passes (:func:`_laser_passes`): the directions
    (:func:`beam_directions`), end points and all-free mask of the pass's
    beams, one :func:`grid_trace_many` call, then one ``np.add.at`` of the
    increments.
    """
    p = params if params is not None else BaselineParams()
    grid = g.grid
    win = grid.window
    flat = g.logodds.reshape(-1)
    for a, b in _laser_passes(lasers, grid.cell_size):
        beams = lasers[a:b]
        sx = np.array([o.x for o in beams], dtype=np.float64)
        sy = np.array([o.y for o in beams], dtype=np.float64)
        r = np.array([o.range for o in beams], dtype=np.float64)
        ux, uy = beam_directions([o.heading + o.bearing for o in beams])
        ex, ey = sx + r * ux, sy + r * uy
        free = (np.array([o.is_max_range for o in beams], dtype=bool)
                | ~((win.xmin <= ex) & (ex <= win.xmax) & (win.ymin <= ey) & (ey <= win.ymax)))
        seg, ix, iy = grid_trace_many(sx, sy, ex, ey, grid)[:3]
        inc = np.full(len(seg), -p.laser_free)
        # The last cell of each beam's trace, where seg changes, is its impact cell.
        last = np.flatnonzero(np.diff(seg, append=-1))
        inc[last[~free[seg[last]]]] = p.laser_occupied
        iy *= grid.nx
        iy += ix
        np.add.at(flat, iy, inc)


def grid_update_sonar(g: OccupancyGrid, o: SonarObs,
                      params: BaselineParams | None = None) -> None:
    """Free the cone interior short of the reading and mark the impact arc.

    A cell is in the cone when the direction to its centre lies within
    ``half_angle`` of the ping's heading.  A cone cell is on the arc when
    its closed square meets the band ``|d - range| <= sonar_arc_halfwidth``
    around the apex; it is then marked occupied and not freed.  Other cone
    cells whose centre lies short of the band are freed.  A max-range ping
    has no arc: it frees every cone cell whose centre lies within ``range``.

    The cells of the box around the ping's sector are tested in one numpy
    pass (:func:`_sonar_increments`), and the increments are added to the
    grid's slice for that box.  A cell occurs once per ping, so every cell
    receives its increments in observation order.
    """
    p = params if params is not None else BaselineParams()
    grid = g.grid
    heading = o.heading + o.bearing
    size = grid.cell_size
    # A square lies within half a diagonal of its centre, so only a cell
    # whose centre is that close to the band can meet it.
    slack = p.sonar_arc_halfwidth + math.sqrt(0.5) * size
    reach = o.range if o.is_max_range else o.range + slack
    # A centre that passes the cone test lies in the sector, up to rounding
    # far below half a cell, so the cell's closed square meets its box.
    ix0, ix1, iy0, iy1 = grid.index_spans(
        *Cone(Point2(o.x, o.y), heading, o.half_angle, reach).bbox())
    if ix0 > ix1 or iy0 > iy1:
        return
    win = grid.window
    x0 = win.xmin + np.arange(ix0, ix1 + 1) * size               # columns
    y0 = (win.ymin + np.arange(iy0, iy1 + 1) * size)[:, None]    # rows
    box = g.logodds[iy0:iy1 + 1, ix0:ix1 + 1]
    box += _sonar_increments(o, p, reach, slack, x0, y0, size)


def _sonar_increments(o: SonarObs, p: BaselineParams, reach: float, slack: float,
                      x0: np.ndarray, y0: np.ndarray, size: float) -> np.ndarray:
    """Increments of one ping on a box of cells of side ``size``:
    ``+sonar_occupied``, ``-sonar_free`` or 0.0.

    ``x0`` holds the box's column left edges and ``y0`` its row bottom
    edges, as a column vector.  Each test repeats the float operations of
    the scalar definition, in its order.
    """
    x1, y1 = x0 + size, y0 + size
    cx = 0.5 * (x0 + x1) - o.x
    cy = 0.5 * (y0 + y1) - o.y
    ux, uy = unit_vector(o.heading + o.bearing)
    cos_half = float(np.cos(o.half_angle))
    d = np.hypot(cx, cy)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_off = (cx * ux + cy * uy) / d    # nan at d == 0: not in the cone
    cone = (d <= reach) & (cos_off >= cos_half)
    if o.is_max_range:
        return np.where(cone, -p.sonar_free, 0.0)
    r, w = o.range, p.sonar_arc_halfwidth
    # Nearest and farthest point of each closed square from the apex.
    near = np.hypot(np.maximum(np.maximum(x0 - o.x, 0.0), o.x - x1),
                    np.maximum(np.maximum(y0 - o.y, 0.0), o.y - y1))
    far = np.hypot(np.maximum(np.abs(x0 - o.x), np.abs(x1 - o.x)),
                   np.maximum(np.abs(y0 - o.y), np.abs(y1 - o.y)))
    gap = np.abs(d - r)
    arc = cone & (gap <= slack) & (near <= r + w) & (far >= r - w)
    free = cone & ~arc & (d < r - w)
    return np.where(arc, p.sonar_occupied, np.where(free, -p.sonar_free, 0.0))


def build_occupancy_grid(grid: GridSpec, lasers, sonars,
                         params: BaselineParams | None = None) -> OccupancyGrid:
    """Grid from scratch: the lasers' increments, then the sonars', each
    family in observation order."""
    g = OccupancyGrid(grid)
    p = params if params is not None else BaselineParams()
    if lasers:
        grid_update_laser(g, lasers, p)
    for o in sonars:
        grid_update_sonar(g, o, p)
    return g
