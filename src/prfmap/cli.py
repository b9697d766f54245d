"""Command-line entry points: simulate | sample | map | baseline | prior-stats.

Every configuration key (see :mod:`prfmap.config`) is also a flag
(underscores become dashes); flags override the config file, which
defaults to ``$PRFMAP_CONFIG`` when set.  Subcommands:

- ``simulate``: build a named world, drive its trajectories, and write a
  scan log plus ground-truth map files.
- ``sample``: posterior chain(s) over a scan log; writes a P(occupied)
  raster, a P(cell-entirely-free) raster, and a chain report.
- ``map``: simulated annealing to a single best polygonal map; writes
  the polygon JSON and a rendered raster.
- ``baseline``: classical log-odds occupancy grid from the same log.
- ``prior-stats``: data-free chain checks against the closed-form edge
  count and two-point color correlation; prints PASS/FAIL lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import build_occupancy_grid
from .coloring import Coloring
from .config import (RunConfig, config_from_env_or_default, config_keys,
                     convert_value, dump_config, parse_config, read_config)
from .geometry import GridSpec, Rect
from .prior import expected_edge_count_unit_square, same_color_probability
from .sampler import (OccupancyAccumulator, PointColorTracker, RasterTracker,
                      Sampler, all_white_cells, anneal, run_chain)
from .raster import write_pgm
from .scanlog import ScanLog, read_scanlog, write_scanlog
from .sensors import (CompositeLikelihood, ObservationCache,
                      PointColorLikelihood)
from .sim import (LaserScanSpec, SonarRingSpec, WorldSpec, make_world,
                  simulate_point_grid, simulate_trajectory, truth_raster,
                  world_trajectories)

CORRELATION_DISTANCES = (0.05, 0.1, 0.2, 0.4)


# ---------------------------------------------------------------------------
# chain assembly


def likelihood_for_log(col: Coloring, log: ScanLog, cfg: RunConfig):
    """Observation model for whatever the log contains; None when empty."""
    parts = []
    if log.lasers or log.sonars:
        parts.append(ObservationCache(col, log.lasers, log.sonars,
                                      laser_params=cfg.laser_params(),
                                      sonar_params=cfg.sonar_params()))
    if log.points:
        parts.append(PointColorLikelihood(col, log.points))
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return CompositeLikelihood(parts)


def _require_window(log: ScanLog, path: str) -> Rect:
    if log.window is None:
        raise ValueError(f"{path}: scan log has no '# window' header")
    return log.window


def chain_report(samp: Sampler, elapsed: float) -> str:
    st = samp.stats
    lines = ["move kind            proposed   applied  accepted  acc-rate"]
    for kind in sorted(st.by_kind):
        t = st.by_kind[kind]
        rate = t.accepted / t.proposed if t.proposed else 0.0
        lines.append(f"{kind:<20} {t.proposed:8d}  {t.applied:8d}  "
                     f"{t.accepted:8d}    {rate:6.4f}")
    total_rate = st.accepted / st.proposals if st.proposals else 0.0
    lines.append(f"{'total':<20} {st.proposals:8d}  {st.applied:8d}  "
                 f"{st.accepted:8d}    {total_rate:6.4f}")
    lines.append(f"edges {len(samp.col.edges)}  vertices {len(samp.col.vertices)}")
    lines.append(f"log_posterior {samp.log_posterior():.6f}")
    lines.append(f"map_score {samp.map_score():.6f}")
    if elapsed > 0.0:
        lines.append(f"proposals_per_second {st.proposals / elapsed:.0f}")
    return "\n".join(lines) + "\n"


def run_posterior_chain(log: ScanLog, cfg: RunConfig, chain_index: int,
                        ) -> tuple[OccupancyAccumulator, Sampler, float]:
    """One posterior chain over a parsed log; returns accumulator + sampler."""
    window = _require_window(log, "run_posterior_chain")
    col = Coloring.empty(window, cell_size=cfg.index_cell_size)
    lik = likelihood_for_log(col, log, cfg)
    rng = np.random.default_rng([cfg.seed, chain_index])
    samp = Sampler(col, cfg.prior_params(), cfg.move_params(), rng, lik,
                   temperature=cfg.temperature)
    grid = GridSpec(window, cfg.cell_size)
    tracker = RasterTracker(col, grid)
    samp.listeners.append(tracker)
    acc = OccupancyAccumulator(grid)
    traces: dict = {}

    def on_sample(s: Sampler, i: int) -> None:
        colors = tracker.colors
        acc.add(colors.copy(), all_white_cells(col, grid, colors, traces))

    t0 = time.perf_counter()
    run_chain(samp, cfg.proposals, burn_in=cfg.burn_in,
              sample_every=cfg.sample_every, on_sample=on_sample)
    return acc, samp, time.perf_counter() - t0


def _sample_worker(payload: tuple[str, str, int]):
    log_path, cfg_text, chain_index = payload
    cfg = parse_config(cfg_text)
    log = read_scanlog(log_path)
    acc, samp, elapsed = run_posterior_chain(log, cfg, chain_index)
    return acc, chain_report(samp, elapsed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out_prefix: str) -> int:
    col = make_world(WorldSpec(cfg.world), cell_size=cfg.sim_cell_size)
    rng = np.random.default_rng(cfg.sim_seed)
    log = ScanLog(window=col.window)
    if cfg.world == "two_region":
        log.points = simulate_point_grid(col, cfg.point_grid_nx,
                                         cfg.point_grid_ny, cfg.point_mu_black,
                                         cfg.point_mu_white, cfg.point_sigma,
                                         rng)
    else:
        mode = cfg.sim_sensors
        if mode == "auto":
            mode = "sonar" if cfg.world == "rooms" else "laser"
        lspec = sspec = None
        if mode in ("laser", "both"):
            lspec = LaserScanSpec(cfg.laser_beams, cfg.laser_fov,
                                  cfg.laser_max_range)
            log.laser_max_range = cfg.laser_max_range
        if mode in ("sonar", "both"):
            sspec = SonarRingSpec(cfg.sonar_transducers, cfg.sonar_half_angle,
                                  cfg.sonar_max_range)
            log.sonar_max_range = cfg.sonar_max_range
        for traj in world_trajectories(cfg.world):
            lasers, sonars, _ = simulate_trajectory(
                col, traj, laser=lspec, sonar=sspec,
                laser_params=cfg.laser_params(),
                sonar_params=cfg.sonar_params(), rng=rng)
            log.lasers.extend(lasers)
            log.sonars.extend(sonars)
    write_scanlog(out_prefix + ".log", log)
    with open(out_prefix + "_truth.json", "w", encoding="utf-8") as fh:
        fh.write(col.to_json())
    grid = GridSpec(col.window, cfg.cell_size)
    write_pgm(out_prefix + "_truth.pgm",
              truth_raster(col, grid).astype(float), grid)
    print(f"wrote {out_prefix}.log: {len(log.lasers)} laser, "
          f"{len(log.sonars)} sonar, {len(log.points)} point readings")
    print(f"wrote {out_prefix}_truth.json and {out_prefix}_truth.pgm")
    return 0


def cmd_sample(cfg: RunConfig, log_path: str, out_prefix: str) -> int:
    log = read_scanlog(log_path)
    window = _require_window(log, log_path)
    grid = GridSpec(window, cfg.cell_size)
    reports: list[str] = []
    t0 = time.perf_counter()
    if cfg.chains == 1:
        acc, samp, elapsed = run_posterior_chain(log, cfg, 0)
        reports.append(chain_report(samp, elapsed))
    else:
        acc = OccupancyAccumulator(grid)
        payloads = [(log_path, dump_config(cfg), i) for i in range(cfg.chains)]
        with ProcessPoolExecutor(max_workers=cfg.chains) as pool:
            for part, report in pool.map(_sample_worker, payloads):
                acc.merge(part)
                reports.append(report)
    if acc.samples == 0:
        raise ValueError("no samples retained; increase proposals or lower "
                         "burn_in/sample_every")
    extra = {"samples": acc.samples, "chains": cfg.chains}
    write_pgm(out_prefix + "_black.pgm", acc.mean(), grid, extra=extra)
    write_pgm(out_prefix + "_allwhite.pgm", 1.0 - acc.all_white_fraction(), grid,
              extra=extra)
    report_path = out_prefix + "_report.txt"
    with open(report_path, "w", encoding="utf-8") as fh:
        for i, rep in enumerate(reports):
            fh.write(f"# chain {i}\n{rep}\n")
    print(f"{acc.samples} samples from {cfg.chains} chain(s) in "
          f"{time.perf_counter() - t0:.1f}s")
    print(f"wrote {out_prefix}_black.pgm, {out_prefix}_allwhite.pgm, "
          f"{report_path}")
    return 0


def cmd_map(cfg: RunConfig, log_path: str, out_prefix: str) -> int:
    log = read_scanlog(log_path)
    window = _require_window(log, log_path)
    col = Coloring.empty(window, cell_size=cfg.index_cell_size)
    lik = likelihood_for_log(col, log, cfg)
    rng = np.random.default_rng([cfg.seed, 0])
    samp = Sampler(col, cfg.prior_params(), cfg.move_params(), rng, lik,
                   temperature=cfg.temperature)
    t0 = time.perf_counter()
    if cfg.burn_in:
        run_chain(samp, cfg.burn_in)
    res = anneal(samp, cfg.anneal_proposals, t_start=cfg.t_start,
                 t_end=cfg.t_end)
    best = res.best_coloring
    best.validate()
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        fh.write(best.to_json())
    grid = GridSpec(window, cfg.cell_size)
    write_pgm(out_prefix + ".pgm", truth_raster(best, grid).astype(float),
              grid)
    print(f"annealed map: {len(best.edges)} edges, best score "
          f"{res.best_score:.3f}, {time.perf_counter() - t0:.1f}s")
    print(f"wrote {out_prefix}.json and {out_prefix}.pgm")
    return 0


def cmd_baseline(cfg: RunConfig, log_path: str, out_path: str) -> int:
    log = read_scanlog(log_path)
    window = _require_window(log, log_path)
    grid = GridSpec(window, cfg.cell_size)
    occ = build_occupancy_grid(grid, log.lasers, log.sonars,
                               cfg.baseline_params())
    write_pgm(out_path, occ.probability(), grid,
              extra={"lasers": len(log.lasers), "sonars": len(log.sonars)})
    print(f"wrote {out_path} from {len(log.lasers)} laser and "
          f"{len(log.sonars)} sonar readings")
    return 0


# ---------------------------------------------------------------------------
# prior-stats


@dataclass(frozen=True)
class StatCheck:
    name: str
    value: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.expected) <= self.tolerance




def correlation_pairs(window: Rect, distances, n_pairs: int,
                      rng: np.random.Generator):
    """Random point pairs at exact separations, all inside the window."""
    xs, ys = [], []
    for d in distances:
        for _ in range(n_pairs):
            while True:
                cx = window.xmin + rng.random() * window.width
                cy = window.ymin + rng.random() * window.height
                ang = rng.random() * 2.0 * math.pi
                ax = cx - 0.5 * d * math.cos(ang)
                ay = cy - 0.5 * d * math.sin(ang)
                bx = cx + 0.5 * d * math.cos(ang)
                by = cy + 0.5 * d * math.sin(ang)
                eps = 1e-6
                if (window.xmin + eps < ax < window.xmax - eps
                        and window.ymin + eps < ay < window.ymax - eps
                        and window.xmin + eps < bx < window.xmax - eps
                        and window.ymin + eps < by < window.ymax - eps):
                    xs.extend((ax, bx))
                    ys.extend((ay, by))
                    break
    return np.array(xs), np.array(ys)


def run_prior_statistics(cfg: RunConfig, p_values=(0.25, 0.5),
                         n_pairs: int = 64,
                         progress=None) -> list[StatCheck]:
    """Data-free chain vs closed forms; one StatCheck per comparison.

    For each p: mean edge count vs p*perimeter + 4 pi p^2 * area (5%
    relative tolerance as an absolute margin), and same-color frequency
    vs (1 + exp(-4 p d)) / 2 at each probe distance (±0.02).
    """
    window = Rect(0.0, 0.0, 1.0, 1.0)
    checks: list[StatCheck] = []
    for p in p_values:
        col = Coloring.empty(window, cell_size=cfg.index_cell_size)
        pair_rng = np.random.default_rng([cfg.seed, 271828])
        xs, ys = correlation_pairs(window, CORRELATION_DISTANCES, n_pairs,
                                   pair_rng)
        tracker = PointColorTracker(col, xs, ys)
        run_cfg = dataclasses.replace(cfg, p=p)
        samp = Sampler(col, run_cfg.prior_params(), run_cfg.move_params(),
                       np.random.default_rng([cfg.seed, int(p * 1000)]),
                       None, temperature=cfg.temperature)
        samp.listeners.append(tracker)
        edge_sum = 0
        same_sum = np.zeros(len(CORRELATION_DISTANCES))
        samples = 0

        def on_sample(s: Sampler, i: int) -> None:
            nonlocal edge_sum, samples
            edge_sum += len(s.col.edges)
            pair_colors = tracker.colors.reshape(len(CORRELATION_DISTANCES),
                                                 n_pairs, 2)
            same_sum[:] += (pair_colors[:, :, 0]
                            == pair_colors[:, :, 1]).mean(axis=1)
            samples += 1

        t0 = time.perf_counter()
        run_chain(samp, cfg.proposals, burn_in=cfg.burn_in,
                  sample_every=cfg.sample_every, on_sample=on_sample)
        if progress is not None:
            progress(f"p={p}: {cfg.proposals} proposals, {samples} samples, "
                     f"{time.perf_counter() - t0:.1f}s")
        if samples == 0:
            raise ValueError("no samples retained; adjust proposals/burn_in")
        mean_edges = edge_sum / samples
        expect = expected_edge_count_unit_square(p)
        checks.append(StatCheck(f"p={p} mean edge count", mean_edges, expect,
                                0.05 * expect))
        for j, d in enumerate(CORRELATION_DISTANCES):
            freq = same_sum[j] / samples
            expect_f = same_color_probability(p, d)
            checks.append(StatCheck(f"p={p} same-color freq at d={d}", freq,
                                    expect_f, 0.02))
    return checks


def cmd_prior_stats(cfg: RunConfig) -> int:
    checks = run_prior_statistics(cfg, progress=lambda msg: print(msg))
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        ok &= c.passed
        print(f"{status} {c.name}: {c.value:.4f} vs {c.expected:.4f} "
              f"(tol {c.tolerance:.4f})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH",
                    help="key=value config file (default: $PRFMAP_CONFIG)")
    for key in config_keys():
        sp.add_argument("--" + key.replace("_", "-"), dest=f"opt_{key}",
                        metavar="V", help=argparse.SUPPRESS)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        cfg = read_config(args.config)
    else:
        cfg = config_from_env_or_default()
    for key in config_keys():
        raw = getattr(args, f"opt_{key}", None)
        if raw is not None:
            setattr(cfg, key,
                    convert_value(key, raw, where="--" + key.replace("_", "-")))
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prfmap",
        description="Mapping with polygonal random fields: simulate range "
                    "data, run posterior/MAP chains, render rasters.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a scan log from a world")
    sp.add_argument("--out", required=True, metavar="PREFIX")
    _add_config_flags(sp)

    sp = sub.add_parser("sample", help="posterior occupancy rasters via MCMC")
    sp.add_argument("--log", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="PREFIX")
    _add_config_flags(sp)

    sp = sub.add_parser("map", help="annealed MAP polygonal map")
    sp.add_argument("--log", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="PREFIX")
    _add_config_flags(sp)

    sp = sub.add_parser("baseline", help="log-odds occupancy grid raster")
    sp.add_argument("--log", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="PATH")
    _add_config_flags(sp)

    sp = sub.add_parser("prior-stats",
                        help="chain statistics vs closed forms (PASS/FAIL)")
    _add_config_flags(sp)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "sample":
            return cmd_sample(cfg, args.log, args.out)
        if args.command == "map":
            return cmd_map(cfg, args.log, args.out)
        if args.command == "baseline":
            return cmd_baseline(cfg, args.log, args.out)
        if args.command == "prior-stats":
            return cmd_prior_stats(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
