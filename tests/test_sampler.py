"""Chain mechanics: determinism, incremental trackers, annealing, accumulators."""

import dataclasses
import hashlib
import math

import numpy as np

from prfmap.cli import cmd_simulate, likelihood_for_log, main, run_posterior_chain
from prfmap.coloring import Coloring
from prfmap.config import RunConfig
from prfmap.geometry import GridSpec, Rect, cell_centers
from prfmap.moves import MoveParams
from prfmap.prior import (PriorParams, expected_edge_count_unit_square,
                          log_prior_from_stats)
from prfmap.raster import write_pgm
from prfmap.sampler import (OccupancyAccumulator, PointColorTracker,
                            RasterTracker, Sampler, all_white_cells, anneal,
                            run_chain)
from prfmap.scanlog import read_scanlog
from prfmap.sim import WorldSpec, make_world

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def make_sampler(seed, p=0.5, temperature=1.0, likelihood=None):
    col = Coloring.empty(UNIT)
    return Sampler(col, PriorParams(intensity=p), MoveParams(),
                   np.random.default_rng(seed), likelihood=likelihood,
                   temperature=temperature)


def test_same_seed_same_trajectory():
    def trace(seed):
        s = make_sampler(seed)
        snap = []
        for i in range(20_000):
            s.step()
            if i % 500 == 499:
                snap.append((s.col.n_edges, round(s.log_prior, 12)))
        return snap, s.col.geometry_signature(), s.log_prior

    t1 = trace(40)
    t2 = trace(40)
    assert t1 == t2
    t3 = trace(41)
    assert t3[0] != t1[0]


def test_move_stream_is_pinned():
    # Any change to a proposal density, a draw or its order changes log_alpha
    # and so this digest; a change of the stream on purpose updates it.
    s = Sampler(Coloring.empty(Rect(0, 0, 1.5, 1.2)), PriorParams(intensity=0.5),
                MoveParams(), np.random.default_rng(2024))
    rows = []
    for _ in range(5_000):
        info = s.step()
        rows.append((info.kind, info.applied, info.accepted, info.log_alpha))
    assert sum(r[1] for r in rows) == 2_190
    assert sum(r[2] for r in rows) == 1_105
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "1091bffac5ba8664"


def test_corridor_laser_chain_is_pinned(tmp_path):
    # The corridor_laser benchmark chain (sim seed 0, chain seed 0): any
    # change to the laser likelihood path, the touched set or a delta's last
    # bit moves this trajectory, which the prior-only tests above never run.
    cfg = dataclasses.replace(RunConfig(), world="corridor", seed=0, sim_seed=0,
                              proposals=2_000, burn_in=200, sample_every=20, chains=1)
    assert cmd_simulate(cfg, str(tmp_path / "corridor")) == 0
    log = read_scanlog(str(tmp_path / "corridor.log"))
    assert len(log.lasers) == 5_400 and not log.sonars
    _, samp, _ = run_posterior_chain(log, cfg, 0)
    st = samp.stats
    assert (st.proposals, st.applied, st.accepted) == (2_000, 774, 102)
    sig = hashlib.sha256(repr(samp.col.geometry_signature()).encode()).hexdigest()[:16]
    assert sig == "1e803587bbd22583"


def _signature(samp) -> str:
    return hashlib.sha256(repr(samp.col.geometry_signature()).encode()).hexdigest()[:16]


def test_rooms_sonar_chain_is_pinned(rooms_log, delta_stream):
    # The rooms_sonar benchmark chain (sim seed 0, chain seed 0) from the
    # empty map: any change to a cone's features, its extent, the touched
    # set or a delta's last bit moves the delta stream.
    cfg = dataclasses.replace(RunConfig(), world="rooms", seed=0, sim_seed=0,
                              proposals=300, burn_in=30, sample_every=3, chains=1)
    _, samp, _ = run_posterior_chain(rooms_log, cfg, 0)
    st = samp.stats
    assert (st.proposals, st.applied, st.accepted) == (300, 59, 0)
    assert _signature(samp) == "b6c375326c7532c1"
    assert len(delta_stream.deltas) == 59
    assert delta_stream.digest() == "626c6938a500f9dc"


def test_rooms_sonar_chain_from_the_true_walls_is_pinned(rooms_log, delta_stream):
    # The same chain started from the true rooms walls, where every touched
    # cone sees faces and corners: the populated-map sonar path.
    cfg = dataclasses.replace(RunConfig(), world="rooms", seed=0, sim_seed=0)
    col = make_world(WorldSpec("rooms"), cell_size=cfg.index_cell_size)
    lik = likelihood_for_log(col, rooms_log, cfg)
    samp = Sampler(col, cfg.prior_params(), cfg.move_params(),
                   np.random.default_rng([0, 0]), lik, temperature=cfg.temperature)
    run_chain(samp, 300)
    st = samp.stats
    assert (st.proposals, st.applied, st.accepted) == (300, 76, 4)
    assert _signature(samp) == "093be356d7239474"
    assert len(delta_stream.deltas) == 76
    assert delta_stream.digest() == "993fe853b892e0bb"


def test_corridor_mixed_chain_is_pinned(tmp_path, delta_stream):
    # The corridor world scanned by lasers and sonars together: the only
    # pinned chain whose edits touch both families, so it guards the touched
    # set across them and the order in which a delta adds beams and cones.
    cfg = dataclasses.replace(RunConfig(), world="corridor", seed=0, sim_seed=0,
                              sim_sensors="both", proposals=500, burn_in=50,
                              sample_every=5, chains=1)
    assert cmd_simulate(cfg, str(tmp_path / "mixed")) == 0
    log = read_scanlog(str(tmp_path / "mixed.log"))
    assert (len(log.lasers), len(log.sonars)) == (5_400, 480)
    _, samp, _ = run_posterior_chain(log, cfg, 0)
    st = samp.stats
    assert (st.proposals, st.applied, st.accepted) == (500, 136, 11)
    assert _signature(samp) == "1a25d126c7ec95c1"
    assert len(delta_stream.deltas) == 136
    assert delta_stream.digest() == "a5605ecc8d0a288b"


def test_tally_accounting():
    s = make_sampler(8)
    n = 30_000
    for _ in range(n):
        s.step()
    st = s.stats
    assert st.proposals == n
    assert st.accepted <= st.applied <= st.proposals
    assert sum(t.applied for t in st.by_kind.values()) == st.applied
    assert sum(t.accepted for t in st.by_kind.values()) == st.accepted
    for t in st.by_kind.values():
        assert t.accepted <= t.applied <= t.proposed


def test_incremental_log_prior_matches_recomputed_stats():
    s = make_sampler(3)
    for i in range(30_000):
        s.step()
        if i % 5_000 == 4_999:
            s.col.validate()
            assert s.log_prior == log_prior_from_stats(s.col.stats, s.prior_params)


def test_point_tracker_matches_recompute():
    s = make_sampler(14)
    rng = np.random.default_rng(0)
    xs = rng.random(300)
    ys = rng.random(300)
    tracker = PointColorTracker(s.col, xs, ys)
    s.listeners.append(tracker)
    for i in range(30_000):
        s.step()
        if i % 3_000 == 2_999:
            np.testing.assert_array_equal(tracker.colors, s.col.colors_at(xs, ys))


def test_raster_tracker_matches_recompute():
    s = make_sampler(15)
    grid = GridSpec(UNIT, 0.1)
    tracker = RasterTracker(s.col, grid)
    s.listeners.append(tracker)
    for i in range(30_000):
        s.step()
        if i % 3_000 == 2_999:
            fresh = RasterTracker(s.col, grid)
            np.testing.assert_array_equal(tracker.colors, fresh.colors)


def test_prior_chain_edge_count_smoke():
    s = make_sampler(7, p=0.25)
    vals = []
    run_chain(s, 500_000, burn_in=100_000, sample_every=50,
              on_sample=lambda smp, i: vals.append(smp.col.n_edges))
    mean = float(np.mean(vals))
    target = expected_edge_count_unit_square(0.25)
    assert abs(mean - target) / target < 0.25


def test_anneal_without_data_empties_the_graph():
    col = Coloring.from_rectangles(UNIT, [Rect(0.3, 0.3, 0.7, 0.7)],
                                   clearance=0.02)
    s = Sampler(col, PriorParams(intensity=0.1), MoveParams(),
                np.random.default_rng(5))
    start = s.map_score()
    res = anneal(s, 60_000, t_start=1.0, t_end=0.01)
    assert res.best_score >= start
    assert res.best_coloring.n_edges == 0
    assert res.best_score == 0.0


def test_run_chain_zero_budget_no_ticks():
    s = make_sampler(1)
    ticks = []
    run_chain(s, 0, burn_in=0, sample_every=1,
              on_sample=lambda smp, i: ticks.append(i))
    assert ticks == []
    assert s.col.n_edges == 0


class _VetoLikelihood:
    """Rejects every edit; counts protocol calls."""

    def __init__(self):
        self.deltas = 0
        self.commits = 0
        self.rollbacks = 0

    def log_likelihood(self):
        return 0.0

    def delta_for_edit(self, col, result):
        self.deltas += 1
        return None

    def commit(self):
        self.commits += 1

    def rollback(self):
        self.rollbacks += 1


class _NeutralLikelihood(_VetoLikelihood):
    def delta_for_edit(self, col, result):
        self.deltas += 1
        return 0.0


def test_vetoing_likelihood_freezes_state():
    lik = _VetoLikelihood()
    s = make_sampler(9, likelihood=lik)
    sig0 = s.col.geometry_signature()
    for _ in range(5_000):
        s.step()
    assert s.stats.accepted == 0
    assert s.col.geometry_signature() == sig0
    assert lik.deltas == s.stats.applied
    assert lik.commits == 0 and lik.rollbacks == 0


def test_neutral_likelihood_call_balance():
    lik = _NeutralLikelihood()
    s = make_sampler(9, likelihood=lik)
    for _ in range(5_000):
        s.step()
    assert lik.deltas == s.stats.applied
    assert lik.commits == s.stats.accepted
    assert lik.rollbacks == s.stats.applied - s.stats.accepted
    assert s.stats.accepted > 0


def test_accumulator_merge_commutes():
    grid = GridSpec(UNIT, 0.25)
    rng = np.random.default_rng(2)

    def filled(seed, k):
        acc = OccupancyAccumulator(grid)
        r = np.random.default_rng(seed)
        for _ in range(k):
            acc.add(r.integers(0, 2, size=(grid.ny, grid.nx), dtype=np.int64),
                    r.integers(0, 2, size=(grid.ny, grid.nx)) > 0)
        return acc

    ab = filled(1, 5).merge(filled(2, 3))
    ba = filled(2, 3).merge(filled(1, 5))
    np.testing.assert_array_equal(ab.black, ba.black)
    np.testing.assert_array_equal(ab.white_cells, ba.white_cells)
    assert ab.samples == ba.samples == 8
    assert (ab.black <= ab.samples).all()
    assert (ab.white_cells <= ab.samples).all()
    del rng


def test_sample_with_two_chains_writes_the_merged_accumulators(tmp_path, monkeypatch):
    monkeypatch.delenv("PRFMAP_CONFIG", raising=False)
    log_path = tmp_path / "points.log"
    log_path.write_text("# scanlog v1\n# window 0 0 1 1\n" + "".join(
        f"POINT {x} {y} {1.0 if x < 0.5 else 0.0} 1 0 0.3\n"
        for x in (0.1, 0.3, 0.5, 0.7, 0.9) for y in (0.1, 0.5, 0.9)))
    cfg = RunConfig(proposals=400, burn_in=100, sample_every=20, cell_size=0.25,
                    chains=2)
    out = str(tmp_path / "out")
    assert main(["sample", "--log", str(log_path), "--out", out, "--chains", "2",
                 "--proposals", "400", "--burn-in", "100", "--sample-every", "20",
                 "--cell-size", "0.25"]) == 0

    log = read_scanlog(str(log_path))
    acc = run_posterior_chain(log, cfg, 0)[0].merge(run_posterior_chain(log, cfg, 1)[0])
    assert acc.samples == 2 * 15
    ref = str(tmp_path / "ref")
    write_pgm(ref + "_black.pgm", acc.mean(), acc.grid)
    write_pgm(ref + "_allwhite.pgm", 1.0 - acc.all_white_fraction(), acc.grid)
    for name in ("_black.pgm", "_allwhite.pgm"):
        with open(out + name, "rb") as got, open(ref + name, "rb") as want:
            assert got.read() == want.read(), name
        with open(out + name + ".meta", encoding="utf-8") as fh:
            assert f"samples {acc.samples}\n" in fh.read()


def test_all_white_cells_against_geometry():
    win = Rect(0.0, 0.0, 4.0, 4.0)
    col = Coloring.from_rectangles(win, [Rect(1.0, 1.0, 2.0, 2.0)])
    grid = GridSpec(win, 0.25)
    aw = all_white_cells(col, grid)
    # interior of the black rectangle: never all-white
    assert not aw[5, 5]
    # cell crossed by the rectangle boundary: not all-white even though white outside
    assert not aw[4, 4]
    # far corner: all-white
    assert aw[14, 14]
    # empty coloring: everything all-white
    empty = Coloring.empty(win)
    assert all_white_cells(empty, grid).all()


def test_all_white_cells_with_carried_traces_equals_a_fresh_call():
    # A prior chain checked at every proposal, after the edit is applied and
    # again after the step: moved edges keep their ids with new segments and
    # get them back on revert, and removed edges come back on revert.
    win = Rect(0.0, 0.0, 4.0, 3.0)
    grid = GridSpec(win, 0.05)
    traces: dict = {}
    seen = {"moved": 0, "removed": 0}

    def check(col):
        colors = col.colors_at(*(c.ravel() for c in cell_centers(grid))).reshape(grid.ny, grid.nx)
        got = all_white_cells(col, grid, colors, traces)
        np.testing.assert_array_equal(got, all_white_cells(col, grid, colors))
        assert traces.keys() == col.edges.keys()

    class Checker:
        def log_likelihood(self):
            return 0.0

        def delta_for_edit(self, col, result):
            check(col)
            self.edit = result.token
            return 0.0

        def commit(self):
            pass

        def rollback(self):
            seen["moved"] += bool(self.edit.moved_old)
            seen["removed"] += bool(self.edit.removed_edge_records)

    col = Coloring.from_rectangles(win, [Rect(2.0, 0.5, 2.2, 2.5), Rect(0.4, 0.3, 0.9, 0.8)],
                                   cell_size=0.3)
    s = Sampler(col, PriorParams(intensity=3.0), MoveParams(), np.random.default_rng(7),
                likelihood=Checker())
    for _ in range(400):
        s.step()
        check(col)
    assert s.stats.accepted >= 50 and min(seen.values()) >= 20, (s.stats, seen)
