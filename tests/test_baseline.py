"""Tests for the independent-cell log-odds occupancy grid."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np

import prfmap.baseline
from prfmap.baseline import (
    BaselineParams,
    OccupancyGrid,
    build_occupancy_grid,
    grid_update_laser,
    grid_update_sonar,
)
from prfmap.cli import cmd_simulate, main
from prfmap.config import RunConfig
from prfmap.geometry import GridSpec, Point2, Rect, Segment, grid_trace_segment, unit_vector
from prfmap.scanlog import read_scanlog
from prfmap.sensors import LaserObs, SonarObs, beam_direction


def grid_4x3() -> GridSpec:
    return GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 1.0)


def test_fresh_grid_is_maximum_uncertainty():
    g = OccupancyGrid(grid_4x3())
    assert np.all(g.logodds == 0.0)
    assert np.all(g.probability() == 0.5)


def test_laser_frees_traversed_cells_and_occupies_impact_cell():
    g = OccupancyGrid(grid_4x3())
    # Beam east from (0.5, 1.5), reading 1.9: crosses cells (0..2, 1),
    # impact at x = 2.4 falls in cell (2, 1).
    obs = LaserObs(0.5, 1.5, 0.0, 0.0, 1.9, 8.0, False)
    grid_update_laser(g, [obs])
    p = BaselineParams()
    assert g.logodds[1, 0] == -p.laser_free
    assert g.logodds[1, 1] == -p.laser_free
    assert g.logodds[1, 2] == p.laser_occupied
    assert g.logodds[1, 3] == 0.0
    assert np.all(g.logodds[0, :] == 0.0) and np.all(g.logodds[2, :] == 0.0)


def test_max_range_laser_frees_every_cell_it_crosses():
    g = OccupancyGrid(grid_4x3())
    obs = LaserObs(0.5, 1.5, 0.0, 0.0, 3.4, 8.0, True)
    grid_update_laser(g, [obs])
    p = BaselineParams()
    assert np.all(g.logodds[1, :] == -p.laser_free)


def test_updates_are_additive():
    g = OccupancyGrid(grid_4x3())
    obs = LaserObs(0.5, 1.5, 0.0, 0.0, 1.9, 8.0, False)
    for _ in range(3):
        grid_update_laser(g, [obs])
    p = BaselineParams()
    assert g.logodds[1, 2] == 3 * p.laser_occupied
    assert g.logodds[1, 0] == -3 * p.laser_free
    assert g.probability()[1, 2] == 1.0 / (1.0 + math.exp(-3 * p.laser_occupied))


def test_order_independence():
    lasers = [LaserObs(0.5, 1.5, 0.0, 0.0, 2.9, 8.0, False),
              LaserObs(0.5, 0.5, 0.0, 0.3, 2.0, 8.0, False),
              LaserObs(3.5, 2.5, math.pi, 0.0, 3.0, 8.0, True)]
    sonars = [SonarObs(2.0, 1.5, 0.0, 0.0, 0.3, 1.2, 3.5, False),
              SonarObs(1.0, 1.0, 1.0, 0.0, 0.3, 2.0, 3.5, True)]
    a = build_occupancy_grid(grid_4x3(), lasers, sonars)
    b = build_occupancy_grid(grid_4x3(), list(reversed(lasers)),
                             list(reversed(sonars)))
    assert np.array_equal(a.logodds, b.logodds)


def test_sonar_frees_cone_interior_and_occupies_impact_arc():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25)
    g = OccupancyGrid(grid)
    # Ping east from (0.5, 1.5), reading 2.0, 20 degree half-angle.
    obs = SonarObs(0.5, 1.5, 0.0, 0.0, math.radians(20.0), 2.0, 3.5, False)
    grid_update_sonar(g, obs)
    p = BaselineParams()

    def cell_at(x, y):
        return g.logodds[int(y / 0.25), int(x / 0.25)]

    assert cell_at(1.6, 1.6) == -p.sonar_free        # interior, short of reading
    assert cell_at(2.55, 1.6) == p.sonar_occupied    # on the 2.0 m arc
    # Cell (9, 6) spans x 2.25-2.5: its centre (1.879 m) is short of the
    # band but its square reaches 2.0 m, so it is marked, not also freed.
    assert g.logodds[6, 9] == p.sonar_occupied
    assert cell_at(3.3, 1.6) == 0.0                  # beyond the arc
    assert cell_at(1.6, 0.3) == 0.0                  # outside the cone angle
    assert cell_at(0.3, 1.6) == 0.0                  # behind the apex


def test_max_range_sonar_frees_whole_cone_no_arc():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25)
    g = OccupancyGrid(grid)
    obs = SonarObs(0.5, 1.5, 0.0, 0.0, math.radians(20.0), 3.0, 3.5, True)
    grid_update_sonar(g, obs)
    assert np.all(g.logodds <= 0.0)
    assert g.logodds.min() == -BaselineParams().sonar_free
    # The cell just inside the reading distance is freed, not marked.
    assert g.logodds[6, 11] == -BaselineParams().sonar_free


def test_sonar_respects_heading_plus_bearing():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25)
    a = OccupancyGrid(grid)
    b = OccupancyGrid(grid)
    half = math.radians(15.0)
    grid_update_sonar(a, SonarObs(2.0, 1.5, 0.3, 0.4, half, 1.0, 3.5, False))
    grid_update_sonar(b, SonarObs(2.0, 1.5, 0.7, 0.0, half, 1.0, 3.5, False))
    assert np.array_equal(a.logodds, b.logodds)


def test_custom_params_scale_increments():
    g = OccupancyGrid(grid_4x3())
    params = BaselineParams(laser_occupied=1.0, laser_free=0.2)
    grid_update_laser(g, [LaserObs(0.5, 1.5, 0.0, 0.0, 1.9, 8.0, False)], params)
    assert g.logodds[1, 2] == 1.0
    assert g.logodds[1, 0] == -0.2


def test_beam_leaving_the_window_is_clipped():
    g = OccupancyGrid(grid_4x3())
    # Beam pointing west exits the window after cell (0, 1).
    grid_update_laser(g, [LaserObs(0.5, 1.5, math.pi, 0.0, 5.0, 8.0, True)])
    assert g.logodds[1, 0] == -BaselineParams().laser_free
    assert np.count_nonzero(g.logodds) == 1


def test_impact_outside_the_window_frees_every_traversed_cell():
    g = OccupancyGrid(grid_4x3())
    # Beam pointing west, reading 2.0: the impact at x = -1.5 lies outside
    # the window, so no traversed cell holds it and cell (0, 1) is freed.
    grid_update_laser(g, [LaserObs(0.5, 1.5, math.pi, 0.0, 2.0, 8.0, False)])
    assert g.logodds[1, 0] == -BaselineParams().laser_free
    assert np.count_nonzero(g.logodds) == 1


def test_impact_on_the_window_boundary_is_occupied():
    g = OccupancyGrid(grid_4x3())
    # The impact at x = 4.0 lies on the closed window's edge, in cell (3, 1).
    grid_update_laser(g, [LaserObs(0.5, 1.5, 0.0, 0.0, 3.5, 8.0, False)])
    p = BaselineParams()
    assert np.all(g.logodds[1, :3] == -p.laser_free)
    assert g.logodds[1, 3] == p.laser_occupied


def test_sonar_arc_matches_brute_force_band_overlap():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25)
    p = BaselineParams()
    rng = np.random.default_rng(7)
    for _ in range(20):
        obs = SonarObs(rng.uniform(0.5, 3.5), rng.uniform(0.5, 2.5),
                       rng.uniform(-math.pi, math.pi), 0.0,
                       math.radians(rng.uniform(5.0, 30.0)),
                       rng.uniform(0.3, 2.5), 3.5, False)
        g = OccupancyGrid(grid)
        grid_update_sonar(g, obs)
        heading = obs.heading + obs.bearing
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                r = grid.cell_rect(ix, iy)
                cx, cy = r.center.x - obs.x, r.center.y - obs.y
                d = math.hypot(cx, cy)
                in_cone = d > 0.0 and (
                    math.cos(heading) * cx + math.sin(heading) * cy
                ) / d >= math.cos(obs.half_angle)
                # Distance interval of the closed square, from a 5 mm
                # sampling of it (so within 4 mm of the exact one).
                xs, ys = np.meshgrid(np.linspace(r.xmin, r.xmax, 51),
                                     np.linspace(r.ymin, r.ymax, 51))
                ds = np.hypot(xs - obs.x, ys - obs.y)
                lo = obs.range - p.sonar_arc_halfwidth
                hi = obs.range + p.sonar_arc_halfwidth
                got = g.logodds[iy, ix]
                if not in_cone:
                    assert got == 0.0
                elif ds.min() < hi - 5e-3 and ds.max() > lo + 5e-3:
                    assert got == p.sonar_occupied
                elif ds.min() > hi + 5e-3 or ds.max() < lo - 5e-3:
                    assert got == (-p.sonar_free if d < lo else 0.0)


# ---------------------------------------------------------------------------
# the laser update against its scalar definition


def reference_laser_update(g, o, p):
    """The laser update one beam at a time: its supercover trace, each cell
    freed, then the last one marked when the impact lies in the window."""
    origin = Point2(o.x, o.y)
    ux, uy = beam_direction(o.heading, o.bearing)
    end = Point2(o.x + o.range * ux, o.y + o.range * uy)
    cells = grid_trace_segment(Segment(origin, end), g.grid)
    if not cells:
        return
    win = g.grid.window
    if (o.is_max_range or not win.xmin <= end.x <= win.xmax
            or not win.ymin <= end.y <= win.ymax):
        for ix, iy in cells:
            g.logodds[iy, ix] -= p.laser_free
        return
    for ix, iy in cells[:-1]:
        g.logodds[iy, ix] -= p.laser_free
    ix, iy = cells[-1]
    g.logodds[iy, ix] += p.laser_occupied


def random_beams(rng, grid, n):
    """Beams from in and around the window: some max-range, some along an
    axis, some of the least positive range (a zero-length trace), some
    ending on the window's edge."""
    win, size = grid.window, grid.cell_size
    for _ in range(n):
        x = rng.uniform(win.xmin - 1.0, win.xmax + 1.0)
        y = rng.uniform(win.ymin - 1.0, win.ymax + 1.0)
        if rng.random() < 0.25:
            x = win.xmin + int(rng.integers(grid.nx + 1)) * size
        heading, bearing = rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)
        if rng.random() < 0.25:
            heading, bearing = int(rng.integers(-1, 3)) * (math.pi / 2), 0.0
        max_range = 5.0
        r = rng.uniform(0.0, max_range)
        kind = rng.random()
        if kind < 0.1:
            r = math.ulp(0.0)
        elif kind < 0.25 and win.xmin < x < win.xmax:
            # east or west to the window's edge, where the impact lands
            heading, bearing = int(rng.integers(2)) * math.pi, 0.0
            r = win.xmax - x if heading == 0.0 else x - win.xmin
        elif kind < 0.45:
            yield LaserObs(x, y, heading, bearing, max_range, max_range, True)
            continue
        yield LaserObs(x, y, heading, bearing, r, max_range, False)


def _marks_impact(o, grid):
    marks = OccupancyGrid(grid)
    reference_laser_update(marks, o, BaselineParams(laser_free=0.0))
    return marks.logodds.any()


def test_laser_update_is_bit_identical_to_scalar_definition(monkeypatch):
    # A small cell budget splits the beams over many passes.
    monkeypatch.setattr(prfmap.baseline, "_LASER_PASS_CELLS", 40)
    p = BaselineParams(laser_occupied=0.7, laser_free=0.3)
    rng = np.random.default_rng(23)
    for grid in (GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25),
                 GridSpec(Rect(-1.0, 0.5, 2.0, 2.5), 0.1)):
        beams = list(random_beams(rng, grid, 400))
        got, want = OccupancyGrid(grid), OccupancyGrid(grid)
        grid_update_laser(got, beams, p)
        for o in beams:
            reference_laser_update(want, o, p)
        assert got.logodds.tobytes() == want.logodds.tobytes()
        # Enough beams mark an impact cell, and the budget makes many passes.
        assert sum(_marks_impact(o, grid) for o in beams) > 50
        assert len(list(prfmap.baseline._laser_passes(beams, grid.cell_size))) > 50


def test_laser_update_in_one_pass_or_many_is_the_same(corridor_log, monkeypatch):
    grid = GridSpec(corridor_log.window, RunConfig().cell_size)
    beams = corridor_log.lasers[:300]
    want = OccupancyGrid(grid)
    for o in beams:
        reference_laser_update(want, o, BaselineParams())
    for budget in (1, 500, 10**9):
        monkeypatch.setattr(prfmap.baseline, "_LASER_PASS_CELLS", budget)
        got = OccupancyGrid(grid)
        grid_update_laser(got, beams)
        assert got.logodds.tobytes() == want.logodds.tobytes()


# ---------------------------------------------------------------------------
# the sonar update against its scalar definition


def reference_sonar_update(g, o, p):
    """The sonar update one cell at a time: every cell of the square of side
    2 * reach around the apex, tested with np.hypot on floats."""
    grid = g.grid
    heading = o.heading + o.bearing
    cos_half = float(np.cos(o.half_angle))
    ux, uy = unit_vector(heading)
    w = p.sonar_arc_halfwidth
    win, size = grid.window, grid.cell_size
    slack = w + math.sqrt(0.5) * size
    reach = o.range if o.is_max_range else o.range + slack
    ix0, ix1, iy0, iy1 = grid.index_spans(o.x - reach, o.y - reach, o.x + reach, o.y + reach)
    for ix, iy in itertools.product(range(ix0, ix1 + 1), range(iy0, iy1 + 1)):
        x0 = win.xmin + ix * size
        y0 = win.ymin + iy * size
        cx = 0.5 * (x0 + (x0 + size)) - o.x
        cy = 0.5 * (y0 + (y0 + size)) - o.y
        d = float(np.hypot(cx, cy))
        if d == 0.0 or d > reach:
            continue
        if (cx * ux + cy * uy) / d < cos_half:
            continue
        if o.is_max_range:
            g.logodds[iy, ix] -= p.sonar_free
        elif (abs(d - o.range) <= slack
              and reference_square_meets_band(grid.cell_rect(ix, iy), o, w)):
            g.logodds[iy, ix] += p.sonar_occupied
        elif d < o.range - w:
            g.logodds[iy, ix] -= p.sonar_free


def reference_square_meets_band(r, o, w):
    near_x = max(r.xmin - o.x, 0.0, o.x - r.xmax)
    near_y = max(r.ymin - o.y, 0.0, o.y - r.ymax)
    far_x = max(abs(r.xmin - o.x), abs(r.xmax - o.x))
    far_y = max(abs(r.ymin - o.y), abs(r.ymax - o.y))
    return (np.hypot(near_x, near_y) <= o.range + w
            and np.hypot(far_x, far_y) >= o.range - w)


def random_pings(rng, grid, n):
    """Pings around and beyond the window: some max-range, some along an
    axis, some with the apex on a cell centre."""
    win, size = grid.window, grid.cell_size
    for _ in range(n):
        x = rng.uniform(win.xmin - 1.5, win.xmax + 1.5)
        y = rng.uniform(win.ymin - 1.5, win.ymax + 1.5)
        if rng.random() < 0.25:
            x = win.xmin + (rng.integers(grid.nx) + 0.5) * size
            y = win.ymin + (rng.integers(grid.ny) + 0.5) * size
        heading = rng.uniform(-math.pi, math.pi)
        bearing = rng.uniform(-1.0, 1.0)
        if rng.random() < 0.25:
            heading, bearing = rng.integers(-1, 3) * (math.pi / 2), 0.0
        half = math.radians(rng.uniform(1.0, 40.0))
        max_range = 3.5
        if rng.random() < 0.25:
            yield SonarObs(x, y, heading, bearing, half, max_range, max_range, True)
        else:
            yield SonarObs(x, y, heading, bearing, half,
                           rng.uniform(0.02, max_range), max_range, False)


def test_sonar_update_is_bit_identical_to_scalar_definition():
    p = BaselineParams()
    rng = np.random.default_rng(19)
    for grid in (GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25),
                 GridSpec(Rect(-1.0, 0.5, 2.0, 2.5), 0.1)):
        got, want = OccupancyGrid(grid), OccupancyGrid(grid)
        for o in random_pings(rng, grid, 150):
            grid_update_sonar(got, o, p)
            reference_sonar_update(want, o, p)
            assert got.logodds.tobytes() == want.logodds.tobytes(), o
        assert np.count_nonzero(got.logodds) > grid.nx * grid.ny // 2


def test_sonar_box_wholly_outside_the_window_changes_nothing():
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.25)
    g = OccupancyGrid(grid)
    grid_update_sonar(g, SonarObs(-0.5, 1.5, math.pi, 0.0, 0.3, 2.0, 3.5, False))
    grid_update_sonar(g, SonarObs(2.0, 4.0, math.pi / 2, 0.0, 0.3, 3.5, 3.5, True))
    assert not g.logodds.any()


def test_sonar_reach_tie_frees_the_cell_on_the_limit():
    # A max-range ping whose range is np.hypot's distance to one cell
    # centre: that cell lies exactly on the range limit and is freed.  The
    # cell is one where math.hypot rounds that distance up, so an update
    # that took its distances from math.hypot would leave it out.
    grid = GridSpec(Rect(0.0, 0.0, 4.0, 3.0), 0.05)
    ox, oy = 0.513, 0.277

    def offset(ix, iy):
        x0, y0 = ix * 0.05, iy * 0.05
        return 0.5 * (x0 + (x0 + 0.05)) - ox, 0.5 * (y0 + (y0 + 0.05)) - oy

    cells = [(ix, iy) for iy in range(20, grid.ny) for ix in range(20, grid.nx)]
    ix, iy = next(c for c in cells if math.hypot(*offset(*c)) > np.hypot(*offset(*c)))
    cx, cy = offset(ix, iy)
    r = float(np.hypot(cx, cy))
    o = SonarObs(ox, oy, math.atan2(cy, cx), 0.0, math.radians(10.0), r, r, True)
    p = BaselineParams()
    got, want = OccupancyGrid(grid), OccupancyGrid(grid)
    grid_update_sonar(got, o, p)
    reference_sonar_update(want, o, p)
    assert want.logodds[iy, ix] == -p.sonar_free
    assert got.logodds.tobytes() == want.logodds.tobytes()


def test_sonar_arc_band_is_closed():
    # Squares that meet the band only at one corner, (0.75, 1.0) from the
    # apex at distance 1.25: the far corner of cell (10, 11) at range - w,
    # and the near corner of cell (11, 12) at range + w.  Both are on the arc.
    grid = GridSpec(Rect(-2.0, -2.0, 2.0, 2.0), 0.25)
    p = BaselineParams(sonar_arc_halfwidth=0.25)
    for (ix, iy), r in (((10, 11), 1.5), ((11, 12), 1.0)):
        cx, cy = -2.0 + (ix + 0.5) * 0.25, -2.0 + (iy + 0.5) * 0.25
        o = SonarObs(0.0, 0.0, math.atan2(cy, cx), 0.0, 0.2, r, 3.5, False)
        got, want = OccupancyGrid(grid), OccupancyGrid(grid)
        grid_update_sonar(got, o, p)
        reference_sonar_update(want, o, p)
        assert want.logodds[iy, ix] == p.sonar_occupied
        assert got.logodds.tobytes() == want.logodds.tobytes()


def test_rooms_baseline_is_pinned(tmp_path):
    # The grid built from the rooms log of sim seed 0, the rooms_sonar
    # benchmark input, bit for bit as the scalar definition builds it.
    out = str(tmp_path / "sim")
    assert main(["simulate", "--world", "rooms", "--sim-seed", "0", "--out", out]) == 0
    log = read_scanlog(out + ".log")
    cfg = RunConfig()
    g = build_occupancy_grid(GridSpec(log.window, cfg.cell_size), log.lasers,
                             log.sonars, cfg.baseline_params())
    assert len(log.sonars) == 2_688 and not log.lasers
    assert hashlib.sha256(g.logodds.tobytes()).hexdigest()[:16] == "36fa7e4268929136"


def test_corridor_baseline_is_pinned(tmp_path):
    # The grid built from the corridor log of sim seed 0, the corridor_laser
    # benchmark input, bit for bit as the per-cell supercover trace built it.
    out = str(tmp_path / "sim")
    assert main(["simulate", "--world", "corridor", "--sim-seed", "0", "--out", out]) == 0
    log = read_scanlog(out + ".log")
    cfg = RunConfig()
    g = build_occupancy_grid(GridSpec(log.window, cfg.cell_size), log.lasers,
                             log.sonars, cfg.baseline_params())
    assert len(log.lasers) == 5_400 and not log.sonars
    assert hashlib.sha256(g.logodds.tobytes()).hexdigest()[:16] == "2c33bd4f69cb6e64"


def _corridor_baseline_digest(tmp_path, **options):
    cfg = dataclasses.replace(RunConfig(), world="corridor", **options)
    out = str(tmp_path / "sim")
    assert cmd_simulate(cfg, out) == 0
    log = read_scanlog(out + ".log")
    g = build_occupancy_grid(GridSpec(log.window, cfg.cell_size), log.lasers,
                             log.sonars, cfg.baseline_params())
    return len(log.lasers), len(log.sonars), hashlib.sha256(g.logodds.tobytes()).hexdigest()[:16]


def test_corridor_baseline_of_another_seed_is_pinned(tmp_path):
    # Held-out sim seed 4, recorded with the per-beam laser update.
    assert _corridor_baseline_digest(tmp_path, sim_seed=4) == (5_400, 0, "626ad1e32573f952")


def test_mixed_corridor_baseline_is_pinned(tmp_path):
    # Lasers, then sonars, into one grid; recorded with the per-beam laser update.
    assert _corridor_baseline_digest(tmp_path, sim_seed=0, sim_sensors="both") == \
        (5_400, 480, "6bd75898316f5c2e")
