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
in passes of many observations, grouped by one rule (:func:`_passes`), and
each pass costs in proportion to the cells it may change.  A laser pass
traces many beams and takes each beam's impact cell from its trace's
entries, without sorting the trace.  A sonar pass tests, on each row of a
ping's box, only the columns near a triangle that holds the ping's sector.
Each pass adds its increments with one ``np.add.at`` call, observation
after observation.  ``np.add.at`` is unbuffered and adds its increments one
at a time, in the order given, and an observation adds to a cell at most
once, so every cell still receives its increments in observation order.  A
sonar pass leaves out its zero increments; that changes no bit, since no
cell ever holds -0.0 (:func:`grid_update_sonar`).
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


def _passes(cells: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """``(start, stop)`` slices of consecutive observations, those whose
    first cell falls in the same run of ``budget`` cells; ``cells`` holds
    each observation's cell count."""
    group = (np.cumsum(cells) - cells) // budget
    starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    return list(zip(starts, [*starts[1:], len(cells)]))


# Estimated traced cells per pass of grid_update_laser.  grid_trace_many
# peaks at about 110 bytes per traced cell; with this budget one build from
# the corridor log peaks at 1.14 MB under tracemalloc, and the corridor
# benchmark's peak RSS stayed where 2,048 cells with a sorted trace left it.
_LASER_PASS_CELLS = 1 << 13


def grid_update_laser(g: OccupancyGrid, lasers: Sequence[LaserObs],
                      params: BaselineParams | None = None) -> None:
    """Free the cells each beam traverses and mark its impact cell occupied.

    A beam's impact cell is the last cell of its trace, the one that holds
    the impact point.  A max-range beam has no impact; neither has a beam
    whose impact point lies outside the closed grid window, so all its
    traversed cells are freed.

    The directions (:func:`beam_directions`), end points and all-free mask
    of every beam are taken in one numpy pass each.  The beams then go in
    passes of about ``_LASER_PASS_CELLS`` cells, about sqrt(2) per cell
    length of range plus 3 per beam: one :func:`grid_trace_many` call, each
    beam's impact cell, then one ``np.add.at`` of the increments.
    """
    p = params if params is not None else BaselineParams()
    grid = g.grid
    win = grid.window
    sx = np.array([o.x for o in lasers], dtype=np.float64)
    sy = np.array([o.y for o in lasers], dtype=np.float64)
    r = np.array([o.range for o in lasers], dtype=np.float64)
    # the end points sx + r * ux and sy + r * uy, in place
    ex, ey = beam_directions([o.heading + o.bearing for o in lasers])
    for e, s in ((ex, sx), (ey, sy)):
        e *= r
        e += s
    free = (np.array([o.is_max_range for o in lasers], dtype=bool)
            | ~((win.xmin <= ex) & (ex <= win.xmax) & (win.ymin <= ey) & (ey <= win.ymax)))
    r *= math.sqrt(2.0) / grid.cell_size
    cells = r.astype(np.intp)
    cells += 3
    del r
    flat = g.logodds.reshape(-1)
    for a, b in _passes(cells, _LASER_PASS_CELLS):
        _add_laser_pass(flat, grid, sx[a:b], sy[a:b], ex[a:b], ey[a:b], free[a:b], p)


def _add_laser_pass(flat, grid, sx, sy, ex, ey, free, p) -> None:
    """One pass of :func:`grid_update_laser` over the beams from ``(sx,
    sy)`` to ``(ex, ey)``.  Its temporaries go when it returns, so passes
    do not overlap in memory."""
    seg, ix, iy, entry = grid_trace_many(sx, sy, ex, ey, grid)
    if not len(seg):
        return
    # A beam's impact cell, the last of its trace in (entry, ix, iy) order,
    # is the cell of largest entry, ties going to the last one in
    # grid_trace_many's (ix, iy) order.
    first = np.flatnonzero(np.diff(seg, prepend=-1))
    top = np.repeat(np.maximum.reduceat(entry, first), np.diff(first, append=len(seg)))
    impact = np.maximum.reduceat(np.where(entry == top, np.arange(len(seg)), -1), first)
    inc = np.full(len(seg), -p.laser_free)
    inc[impact[~free[seg[impact]]]] = p.laser_occupied
    iy *= grid.nx
    iy += ix
    np.add.at(flat, iy, inc)


# Box cells per pass of grid_update_sonar; about a third of them lie in the
# rows' spans on the rooms log.  With this budget one build from that log
# peaks at 1.51 MB under tracemalloc.  Half the budget ran about 25%
# slower; twice it peaked at 2.2 MB and ran about 20% slower.  A pass must
# keep few temporaries alive, so that it fits in the heap a chain run
# leaves: at about 62 bytes per span cell, a build after a chain run took
# at most 7 minor page faults in every directory and environment of the
# process tried; at about 90, it took 24 to 1,387.
_SONAR_PASS_CELLS = 1 << 15

# Cones wider than this take every box column of a row.  A triangle that
# holds the sector reaches reach / cos(half_angle) along its edges: twice
# the reach here, about 1e16 times it at the widest cone, where a row's x
# would carry metres of rounding.
_SPAN_MAX_HALF = math.pi / 3


@dataclass(frozen=True)
class _Pings:
    """The constants of :func:`grid_update_sonar`, one entry per ping."""
    x: np.ndarray
    y: np.ndarray
    ux: np.ndarray             # the heading's unit vector
    uy: np.ndarray
    cos_half: np.ndarray
    r: np.ndarray
    max_range: np.ndarray
    reach: np.ndarray          # radius of the cone test
    free_below: np.ndarray     # cone cells whose centre is nearer are freed
    pad: np.ndarray            # widening past rounding
    ix0: np.ndarray            # column and row spans of the box
    ix1: np.ndarray
    iy0: np.ndarray
    iy1: np.ndarray
    tx: np.ndarray             # (3, n): a triangle holding the sector,
    ty: np.ndarray             # vertices by increasing y
    slope: np.ndarray          # (3, n): dx/dy of its edges
    wide: np.ndarray           # takes whole box rows (_row_spans)


def _sonar_pings(sonars: Sequence[SonarObs], grid: GridSpec, p: BaselineParams,
                 slack: float) -> _Pings:
    """Every ping's constants, each in one numpy pass.  A ping's box holds
    the cells whose centre lies in its sector's box, widened by ``pad``.
    Its triangle has the apex and the points ``reach / cos(half_angle)``
    along both edges of the wedge, so the arc's middle tangent closes it.
    A ping is wide when its half-angle exceeds ``_SPAN_MAX_HALF``."""
    win, size = grid.window, grid.cell_size
    x = np.array([o.x for o in sonars], dtype=np.float64)
    y = np.array([o.y for o in sonars], dtype=np.float64)
    heading = np.array([o.heading + o.bearing for o in sonars], dtype=np.float64)
    half = np.array([o.half_angle for o in sonars], dtype=np.float64)
    r = np.array([o.range for o in sonars], dtype=np.float64)
    max_range = np.array([o.is_max_range for o in sonars], dtype=bool)
    reach = np.where(max_range, r, r + slack)
    cos_half = np.cos(half)
    # A centre that passes the cone test lies in the sector up to rounding
    # many orders below this widening.
    pad = 1e-9 * (1.0 + np.maximum(np.abs(x), np.abs(y)) + reach)
    lox, loy = np.cos(heading - half), np.sin(heading - half)
    hix, hiy = np.cos(heading + half), np.sin(heading + half)
    # The cells whose centre lies in the widened sector box: those whose
    # closed square meets that box shrunk by half a cell.
    box = sector_boxes(x, y, reach, sector_reach(lox, loy, hix, hiy), pad - 0.5 * size)
    ix0, ix1 = index_ranges(box[0], box[1], win.xmin, size, grid.nx)
    iy0, iy1 = index_ranges(box[2], box[3], win.ymin, size, grid.ny)
    edge = reach / cos_half
    tx = np.array([x, x + edge * lox, x + edge * hix])
    ty = np.array([y, y + edge * loy, y + edge * hiy])
    order = np.argsort(ty, axis=0)
    tx, ty = np.take_along_axis(tx, order, 0), np.take_along_axis(ty, order, 0)
    # dx/dy of the edges from the lowest vertex to the highest, from the
    # lowest to the middle one and from the middle one to the highest; 0
    # on a level edge.  With a half-angle of at least EPS_ANGLE
    # (check_half_angle) an edge that is not level rises by far more than
    # dx / 1e308, so every slope is finite.
    dx, dy = tx[[2, 1, 2]] - tx[[0, 0, 1]], ty[[2, 1, 2]] - ty[[0, 0, 1]]
    slope = np.divide(dx, dy, out=np.zeros_like(dx), where=dy > 0.0)
    wide = half > _SPAN_MAX_HALF
    slope[:, wide] = 0.0     # their rows are whole; this keeps their x finite
    return _Pings(
        x, y, np.cos(heading), np.sin(heading), cos_half, r, max_range, reach,
        # A max-range ping frees every cone cell; the others free those
        # short of the band.
        np.where(max_range, math.inf, r - p.sonar_arc_halfwidth), pad,
        ix0, ix1, iy0, iy1, tx, ty, slope, wide)


def _row_spans(k: _Pings, rp: np.ndarray, iy: np.ndarray, grid: GridSpec):
    """First and last column of the cells that (ping, row) pair ``(rp[j],
    iy[j])`` tests: the ping's box columns whose centre lies within ``pad``
    of its triangle, or its whole box row for a wide cone.

    Those centres lie in the x-range of the triangle's part in the strip
    within ``pad`` of the row's centre line, widened by ``pad``.  The
    strip's edges are clamped to the triangle's height.  The range is
    spanned by the triangle's two boundary chains at those edges and by the
    middle vertex when it lies in the strip.  Each x is taken from a vertex
    of its edge, no farther along it than the other vertex, so it stays
    well conditioned for an edge nearly parallel to the row.
    """
    win, size = grid.window, grid.cell_size
    y0 = win.ymin + iy * size
    yc = 0.5 * (y0 + (y0 + size))
    pad = k.pad[rp]
    tx, ty, slope = (v.take(rp, axis=1) for v in (k.tx, k.ty, k.slope))
    lo, hi = np.clip(yc - pad, ty[0], ty[2]), np.clip(yc + pad, ty[0], ty[2])
    # the long chain at both edges of the strip, and the short one, which
    # turns at the middle vertex, at both and at that vertex if it is inside
    xs = [tx[0] + (lo - ty[0]) * slope[0], tx[2] + (hi - ty[2]) * slope[0]]
    xs += [tx[1] + (y - ty[1]) * np.where(y > ty[1], slope[2], slope[1])
           for y in (lo, np.clip(ty[1], lo, hi), hi)]
    xlo, xhi = np.minimum.reduce(xs), np.maximum.reduce(xs)
    wide = k.wide[rp]
    xlo[wide], xhi[wide] = -math.inf, math.inf
    c0, c1 = index_ranges(xlo - pad + 0.5 * size, xhi + pad - 0.5 * size,
                          win.xmin, size, grid.nx)
    return np.maximum(c0, k.ix0[rp]), np.minimum(c1, k.ix1[rp])


def grid_update_sonar(g: OccupancyGrid, sonars: Sequence[SonarObs],
                      params: BaselineParams | None = None) -> None:
    """Free the cone interior short of each reading and mark the impact arc.

    A cell is in a ping's cone when the direction to its centre lies within
    ``half_angle`` of the ping's heading.  A cone cell is on the arc when
    its closed square meets the band ``|d - range| <= sonar_arc_halfwidth``
    around the apex; it is then marked occupied and not freed.  Other cone
    cells whose centre lies short of the band are freed.  A max-range ping
    has no arc: it frees every cone cell whose centre lies within ``range``.

    Every ping's constants come first (:func:`_sonar_pings`).  The pings
    then go in passes of about ``_SONAR_PASS_CELLS`` box cells.  A pass
    takes each (ping, row) pair's span of columns (:func:`_row_spans`), runs
    the cone test on the cells of those spans and the square-meets-band test
    only on the cone cells near the band, each with the float operations of
    the scalar definition in its order.  It drops the zero increments and
    adds the rest with one unbuffered ``np.add.at``, ping after ping.  A
    ping adds to a cell at most once, so every cell receives its increments
    in observation order.  Dropping a zero changes no bit: ``x + 0.0 == x``
    for every ``x`` but -0.0, and no cell holds -0.0, since cells start at
    +0.0 and a sum is -0.0 only when both terms are.
    """
    p = params if params is not None else BaselineParams()
    grid = g.grid
    # A square lies within half a diagonal of its centre, so only a cell
    # whose centre is that close to the band can meet it.
    slack = p.sonar_arc_halfwidth + math.sqrt(0.5) * grid.cell_size
    k = _sonar_pings(sonars, grid, p, slack)
    ncol = np.maximum(k.ix1 - k.ix0 + 1, 0)
    nrow = np.maximum(k.iy1 - k.iy0 + 1, 0)
    flat = g.logodds.reshape(-1)
    for a, b in _passes(ncol * nrow, _SONAR_PASS_CELLS):
        _add_sonar_pass(flat, grid, k, a, b, ncol, nrow, p, slack)


def _add_sonar_pass(flat, grid, k: _Pings, a, b, ncol, nrow, p, slack) -> None:
    """One pass of :func:`grid_update_sonar`, over pings ``a`` to ``b``,
    whose boxes have ``ncol`` columns and ``nrow`` rows.  Its per-cell
    temporaries are updated in place and dropped once used; the rest go
    when it returns, so passes do not overlap in memory."""
    win, size = grid.window, grid.cell_size
    w = p.sonar_arc_halfwidth
    sx, sy, r, max_range = k.x, k.y, k.r, k.max_range
    # (ping, column) pairs: centre offsets, x terms of the cone test and
    # the square's nearest and farthest x from the apex
    cp, ix = expand_counts(ncol[a:b], k.ix0[a:b])
    cp += a
    x0 = win.xmin + ix * size
    x1 = x0 + size
    cx = 0.5 * (x0 + x1) - sx[cp]
    dot_x = cx * k.ux[cp]
    near_x = np.maximum(np.maximum(x0 - sx[cp], 0.0), sx[cp] - x1)
    far_x = np.maximum(np.abs(x0 - sx[cp]), np.abs(x1 - sx[cp]))
    # (ping, row) pairs, likewise
    rp, iy = expand_counts(nrow[a:b], k.iy0[a:b])
    rp += a
    y0 = win.ymin + iy * size
    y1 = y0 + size
    cy = 0.5 * (y0 + y1) - sy[rp]
    dot_y = cy * k.uy[rp]
    near_y = np.maximum(np.maximum(y0 - sy[rp], 0.0), sy[rp] - y1)
    far_y = np.maximum(np.abs(y0 - sy[rp]), np.abs(y1 - sy[rp]))
    # span cells, row by row: the row and the (ping, column) pair of each
    c0, c1 = _row_spans(k, rp, iy, grid)
    per_row = np.maximum(c1 - c0 + 1, 0)
    row = np.repeat(np.arange(len(rp)), per_row)
    first_col = np.cumsum(ncol[a:b]) - ncol[a:b]     # of each ping, in cp
    col = np.arange(len(row))
    col += np.repeat(first_col[rp - a] + (c0 - k.ix0[rp])
                     - (np.cumsum(per_row) - per_row), per_row)
    d = np.hypot(cx[col], cy[row])
    cos_off = dot_x[col]
    cos_off += dot_y[row]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_off /= d                 # nan at d == 0: not in the cone
    cone = cos_off >= k.cos_half[rp][row]
    del cos_off
    cone &= d <= k.reach[rp][row]
    # the band's slack of each (ping, row) pair; a max-range ping has no
    # band, and no |d - r| is at most -inf
    band_slack = np.where(max_range[rp], -math.inf, slack)
    band = np.flatnonzero(cone & (np.abs(d - r[rp][row]) <= band_slack[row]))
    br, bc = row[band], col[band]
    bp = rp[br]
    arc = np.zeros(len(d), dtype=bool)
    # Nearest and farthest point of each closed square from the apex.
    arc[band] = ((np.hypot(near_x[bc], near_y[br]) <= r[bp] + w)
                 & (np.hypot(far_x[bc], far_y[br]) >= r[bp] - w))
    # the arc cells and the other cone cells that are freed
    keep = d < k.free_below[rp][row]
    del d
    keep &= cone
    keep |= arc
    keep = np.flatnonzero(keep)
    cell = (iy * grid.nx)[row[keep]]
    del row
    cell += ix[col[keep]]
    del col
    np.add.at(flat, cell, np.where(arc[keep], p.sonar_occupied, -p.sonar_free))


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
