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
first, so a rebuild from the same log is bit-identical.  Both families go
in passes of many observations: a laser pass traces many beams, a sonar
pass tests the box cells of many pings.  Each pass adds its increments with
one ``np.add.at`` call, observation after observation.  ``np.add.at`` is
unbuffered and adds its increments one at a time, in the order given, and
an observation adds to a cell at most once, so every cell still receives
its increments in observation order.  A sonar pass leaves out its zero
increments; that changes no bit, since no cell ever holds -0.0
(:func:`grid_update_sonar`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GridSpec,
    expand_counts,
    grid_trace_many,
    grid_trace_segment,  # noqa: F401  (unused; perfbench/layers.py patches this name)
    index_ranges,
    sector_boxes,
    sector_reach,
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


# Box cells per pass of grid_update_sonar.  With this budget one build from
# the rooms log peaks at 1.4 MB under tracemalloc (0.43 MB one ping at a
# time).  Of budgets from 2,048 to 16,384 cells it left the rooms
# benchmark's peak RSS lowest, within 0.1 MB of the per-ping update.
_SONAR_PASS_CELLS = 1 << 13


def _sonar_passes(cells: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` slices of consecutive pings, the pings whose first
    box cell falls in the same run of ``_SONAR_PASS_CELLS`` cells; ``cells``
    holds each ping's box cell count."""
    group = (np.cumsum(cells) - cells) // _SONAR_PASS_CELLS
    starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    return list(zip(starts, [*starts[1:], len(cells)]))


def grid_update_sonar(g: OccupancyGrid, sonars: Sequence[SonarObs],
                      params: BaselineParams | None = None) -> None:
    """Free the cone interior short of each reading and mark the impact arc.

    A cell is in a ping's cone when the direction to its centre lies within
    ``half_angle`` of the ping's heading.  A cone cell is on the arc when
    its closed square meets the band ``|d - range| <= sonar_arc_halfwidth``
    around the apex; it is then marked occupied and not freed.  Other cone
    cells whose centre lies short of the band are freed.  A max-range ping
    has no arc: it frees every cone cell whose centre lies within ``range``.

    Every ping's constants and its box of cells (the cells whose centre lies
    in its sector's box, widened past rounding) are taken in one numpy pass
    each.  The pings then go in passes of about ``_SONAR_PASS_CELLS`` box
    cells.  A pass runs the cone test on all its box cells and the
    square-meets-band test only on the cone cells near the band, each with
    the float operations of the scalar definition in its order.  It drops
    the zero increments and adds the rest with one unbuffered ``np.add.at``,
    ping after ping.  A ping adds to a cell at most once, so every cell
    receives its increments in observation order.  Dropping a zero changes
    no bit: ``x + 0.0 == x`` for every ``x`` but -0.0, and no cell holds
    -0.0, since cells start at +0.0 and a sum is -0.0 only when both terms
    are.
    """
    p = params if params is not None else BaselineParams()
    grid = g.grid
    win, size = grid.window, grid.cell_size
    w = p.sonar_arc_halfwidth
    # A square lies within half a diagonal of its centre, so only a cell
    # whose centre is that close to the band can meet it.
    slack = w + math.sqrt(0.5) * size
    sx = np.array([o.x for o in sonars], dtype=np.float64)
    sy = np.array([o.y for o in sonars], dtype=np.float64)
    heading = np.array([o.heading + o.bearing for o in sonars], dtype=np.float64)
    half = np.array([o.half_angle for o in sonars], dtype=np.float64)
    r = np.array([o.range for o in sonars], dtype=np.float64)
    max_range = np.array([o.is_max_range for o in sonars], dtype=bool)
    reach = np.where(max_range, r, r + slack)
    ux, uy = np.cos(heading), np.sin(heading)
    cos_half = np.cos(half)
    # A max-range ping frees every cone cell; the others free those short
    # of the band.
    free_below = np.where(max_range, math.inf, r - w)
    # A centre that passes the cone test lies in the sector up to rounding
    # many orders below this widening.
    pad = 1e-9 * (1.0 + np.maximum(np.abs(sx), np.abs(sy)) + reach)
    # The cells whose centre lies in the widened sector box: those whose
    # closed square meets that box shrunk by half a cell.
    box = sector_boxes(sx, sy, reach, sector_reach(
        np.cos(heading - half), np.sin(heading - half),
        np.cos(heading + half), np.sin(heading + half)), pad - 0.5 * size)
    ix0, ix1 = index_ranges(box[0], box[1], win.xmin, size, grid.nx)
    iy0, iy1 = index_ranges(box[2], box[3], win.ymin, size, grid.ny)
    ncol = np.maximum(ix1 - ix0 + 1, 0)
    nrow = np.maximum(iy1 - iy0 + 1, 0)
    flat = g.logodds.reshape(-1)
    for a, b in _sonar_passes(ncol * nrow):
        # (ping, column) pairs: centre offsets, x terms of the cone test and
        # the square's nearest and farthest x from the apex
        cp, ix = expand_counts(ncol[a:b], ix0[a:b])
        cp += a
        x0 = win.xmin + ix * size
        x1 = x0 + size
        cx = 0.5 * (x0 + x1) - sx[cp]
        dot_x = cx * ux[cp]
        near_x = np.maximum(np.maximum(x0 - sx[cp], 0.0), sx[cp] - x1)
        far_x = np.maximum(np.abs(x0 - sx[cp]), np.abs(x1 - sx[cp]))
        # (ping, row) pairs, likewise
        rp, iy = expand_counts(nrow[a:b], iy0[a:b])
        rp += a
        y0 = win.ymin + iy * size
        y1 = y0 + size
        cy = 0.5 * (y0 + y1) - sy[rp]
        dot_y = cy * uy[rp]
        near_y = np.maximum(np.maximum(y0 - sy[rp], 0.0), sy[rp] - y1)
        far_y = np.maximum(np.abs(y0 - sy[rp]), np.abs(y1 - sy[rp]))
        # box cells, row by row: the row and the (ping, column) pair of each
        per_row = ncol[rp]
        row = np.repeat(np.arange(len(rp)), per_row)
        first_col = np.cumsum(ncol[a:b]) - ncol[a:b]     # of each ping, in cp
        col = np.arange(len(row))
        col += np.repeat(first_col[rp - a] - (np.cumsum(per_row) - per_row), per_row)
        d = np.hypot(cx[col], cy[row])
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_off = (dot_x[col] + dot_y[row]) / d    # nan at d == 0: not in the cone
        cone = np.flatnonzero((d <= reach[rp][row]) & (cos_off >= cos_half[rp][row]))
        d, row, col = d[cone], row[cone], col[cone]
        ping = rp[row]
        band = np.flatnonzero((np.abs(d - r[ping]) <= slack) & ~max_range[ping])
        bp, br, bc = ping[band], row[band], col[band]
        arc = np.zeros(len(d), dtype=bool)
        # Nearest and farthest point of each closed square from the apex.
        arc[band] = ((np.hypot(near_x[bc], near_y[br]) <= r[bp] + w)
                     & (np.hypot(far_x[bc], far_y[br]) >= r[bp] - w))
        free = ~arc & (d < free_below[ping])
        keep = np.flatnonzero(arc | free)
        inc = np.where(arc[keep], p.sonar_occupied, -p.sonar_free)
        np.add.at(flat, iy[row[keep]] * grid.nx + ix[col[keep]], inc)


def build_occupancy_grid(grid: GridSpec, lasers, sonars,
                         params: BaselineParams | None = None) -> OccupancyGrid:
    """Grid from scratch: the lasers' increments, then the sonars', each
    family in observation order."""
    g = OccupancyGrid(grid)
    p = params if params is not None else BaselineParams()
    if lasers:
        grid_update_laser(g, lasers, p)
    if sonars:
        grid_update_sonar(g, sonars, p)
    return g
