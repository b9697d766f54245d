#!/usr/bin/env python3
"""prfmap benchmark: simulate, sample and baseline one workload end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corridor_laser --seed 0 \\
        --seconds 15 --trace 0

The run generates the workload's scan log from ``--seed`` with
``prfmap simulate`` (not timed).  It then repeats one posterior chain
``repeats_for(--seconds)`` times through ``run_posterior_chain``, the path
of ``prfmap sample`` with ``chains = 1``.  The repeats do identical work
and must end in identical states; the fastest one gives the throughput.
The occupancy-grid baseline is then built on the same log a fixed number
of times per workload, and the fastest build counts.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
repeats untraced and then traced, and reports per-layer metrics.  The
last line of standard output is one JSON object.  Metric names and units
are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "prfmap").is_dir():
    sys.exit(f"prfmap sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from prfmap.baseline import build_occupancy_grid  # noqa: E402
from prfmap.cli import cmd_simulate, run_posterior_chain  # noqa: E402
from prfmap.geometry import GridSpec, Point2  # noqa: E402
from prfmap.scanlog import read_scanlog  # noqa: E402
from prfmap.sensors import (beam_direction, laser_true_distance,  # noqa: E402
                            sonar_features)
from prfmap.sim import WorldSpec, make_world  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 3   # set-ups timed per run, the chain repeats' included


@dataclass
class Repeats:
    """Timings of identical chain runs and the state of the first."""
    setup_s: list[float] = field(default_factory=list)
    chain_s: list[float] = field(default_factory=list)
    proposals: int = 0
    digest: tuple = ()
    acc: object = None       # OccupancyAccumulator of the first repeat
    failed: int = 0

    @property
    def proposals_per_s(self) -> float:
        return self.proposals / min(self.chain_s)


def generate_inputs(wl: Workload, cfg, workdir: Path):
    """Simulate the workload's scan log and parse it back, as a user would."""
    prefix = str(workdir / wl.name)
    with contextlib.redirect_stdout(sys.stderr):
        cmd_simulate(cfg, prefix)
    log = read_scanlog(prefix + ".log")
    truth = make_world(WorldSpec(cfg.world), cell_size=cfg.sim_cell_size)
    return log, truth


def run_repeats(log, cfg, repeats: int, check: bool, between=None) -> Repeats:
    """Run the same single-process chain ``repeats`` times.

    The first repeat is checked against recomputation from scratch (when
    ``check``); every later one must reproduce its digest and posterior.
    ``between(slot)``, if given, runs untimed before repeat ``slot`` and,
    with ``slot == repeats``, after the last one.
    """
    out = Repeats()
    for r in range(repeats):
        if between is not None:
            between(r)
        gc.collect()
        t0 = time.perf_counter()
        acc, samp, elapsed = run_posterior_chain(log, cfg, 0)
        out.setup_s.append(time.perf_counter() - t0 - elapsed)
        out.chain_s.append(elapsed)
        digest = checks.chain_digest(samp)
        errors = []
        if r == 0:
            out.proposals, out.digest, out.acc = (
                samp.stats.proposals, digest, acc)
            if check:
                errors = checks.check_chain(samp)
        elif digest != out.digest or (acc.black != out.acc.black).any():
            errors = [f"differs from repeat 0: {digest} vs {out.digest}"]
        for msg in errors:
            print(f"check failed, repeat {r}: {msg}", file=sys.stderr)
        out.failed += bool(errors)
    if between is not None:
        between(repeats)
    return out


def time_setups(log, cfg, n: int) -> list[float]:
    """Set-up times of ``n`` chains that make no proposals."""
    bare = dataclasses.replace(cfg, proposals=0, burn_in=0)
    out = []
    for _ in range(n):
        gc.collect()
        t0 = time.perf_counter()
        _, _, elapsed = run_posterior_chain(log, bare, 0)
        out.append(time.perf_counter() - t0 - elapsed)
    return out


def time_baseline(log, cfg, grid, builds: int):
    """Build the occupancy grid ``builds`` times; the last grid and times."""
    occ, times = None, []
    params = cfg.baseline_params()
    for _ in range(builds):
        t0 = time.perf_counter()
        occ = build_occupancy_grid(grid, log.lasers, log.sonars, params)
        times.append(time.perf_counter() - t0)
    return occ, times


def frozen_passes(log, cfg) -> dict[str, float]:
    """Cast every beam and every cone of the log once against the true map.

    The true walls are indexed at the chain's index cell size.  The chain's
    own final map is too sparse for this (empty on ``rooms_sonar``), so
    the passes would time index look-ups, not the cast or the sweep.
    """
    col = make_world(WorldSpec(cfg.world), cell_size=cfg.index_cell_size)
    t0 = time.perf_counter()
    for o in log.lasers:
        laser_true_distance(col, Point2(o.x, o.y),
                            beam_direction(o.heading, o.bearing), o.max_range)
    t1 = time.perf_counter()
    sp = cfg.sonar_params()
    for o in log.sonars:
        sonar_features(o, col, sp)
    t2 = time.perf_counter()
    return {"grid_index.ray_cast.frozen_pass_s": t1 - t0,
            "geometry.visibility_sweep.frozen_pass_s": t2 - t1}


def raster_failures(runs: Repeats, occ) -> int:
    """Posterior and baseline rasters must be finite and in [0, 1]."""
    errors = (checks.check_raster("posterior mean", runs.acc.mean())
              + checks.check_raster("all-white", runs.acc.all_white_fraction())
              + checks.check_raster("baseline", occ.probability()))
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    return int(bool(errors))


def print_digest(wl: Workload, cfg, runs: Repeats) -> None:
    p, a, c, sig = runs.digest
    print(f"digest {wl.name} seed={cfg.sim_seed} proposals={p} applied={a} "
          f"accepted={c} sig={sig}")


def split(n: int, parts: int) -> list[int]:
    """``n`` as ``parts`` near-equal counts; the last is 0 only if n is."""
    return [n * (i + 1) // parts - n * i // parts for i in range(parts)]


def end_to_end(wl, cfg, log, truth, repeats):
    grid = GridSpec(log.window, cfg.cell_size)
    # The baseline builds and the extra set-ups are spread over the slots
    # before, between and after the chain repeats, so that they sample the
    # machine's speed at several times; the fastest build and the median
    # set-up count.
    builds = split(wl.baseline_builds, repeats + 1)
    setups = split(max(0, SETUP_SAMPLES - repeats), repeats + 1)
    build_s, setup_s, occ = [], [], None

    def side_work(slot: int) -> None:
        nonlocal occ
        built, times = time_baseline(log, cfg, grid, builds[slot])
        occ = occ if built is None else built
        build_s.extend(times)
        setup_s.extend(time_setups(log, cfg, setups[slot]))

    runs = run_repeats(log, cfg, repeats, check=True, between=side_work)
    setup_s += runs.setup_s
    q_map = checks.map_quality(runs.acc.mean(), truth, grid)
    q_base = checks.map_quality(occ.probability(), truth, grid)
    failed = runs.failed + raster_failures(runs, occ)
    print_digest(wl, cfg, runs)
    print(f"quality {wl.name} map_occupied_iou={q_map['occupied_iou']:.6f} "
          f"baseline_occupied_iou={q_base['occupied_iou']:.6f}")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "proposals_per_s": runs.proposals_per_s,
        "baseline_s": min(build_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "map_balanced_accuracy": q_map["balanced_accuracy"],
        "map_accuracy": q_map["accuracy"],
        "baseline_balanced_accuracy": q_base["balanced_accuracy"],
        "baseline_accuracy": q_base["accuracy"],
    }
    return repeats + 1, failed, metrics


def per_layer(wl, cfg, log, truth, repeats, sim_tracer):
    grid = GridSpec(log.window, cfg.cell_size)
    plain = run_repeats(log, cfg, repeats, check=True)
    with Tracer(layers.chain_patches()) as chain_tracer:
        traced = run_repeats(log, cfg, repeats, check=False)
    with Tracer(layers.baseline_patches()) as base_tracer:
        occ = build_occupancy_grid(grid, log.lasers, log.sonars,
                                   cfg.baseline_params())
    q_traced = checks.map_quality(traced.acc.mean(), truth, grid)
    failed = plain.failed + traced.failed + raster_failures(plain, occ)
    if (traced.digest != plain.digest
            or q_traced != checks.map_quality(plain.acc.mean(), truth, grid)):
        print("check failed: traced chain diverged from untraced chain",
              file=sys.stderr)
        failed += 1
    print_digest(wl, cfg, traced)
    values = layers.layer_metrics(chain_tracer, base_tracer, sim_tracer,
                                  repeats)
    values.update(frozen_passes(log, cfg))
    values["trace.overhead_frac"] = (
        1.0 - traced.proposals_per_s / plain.proposals_per_s)
    values["cli.map_occupied_iou"] = q_traced["occupied_iou"]
    values["baseline.occupied_iou"] = checks.map_quality(
        occ.probability(), truth, grid)["occupied_iou"]
    return 2 * repeats + 1, failed, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal measuring time; sets the number of repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--proposals", type=int, default=None,
                    help="override the chain budget (smoke tests)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed, args.proposals)
    repeats = wl.repeats_for(args.seconds)
    work_root = Path(__file__).resolve().parent / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        sim_patches = layers.sim_patches() if args.trace else []
        with Tracer(sim_patches) as sim_tracer:
            log, truth = generate_inputs(wl, cfg, Path(tmp))
    if args.trace:
        attempted, failed, values = per_layer(wl, cfg, log, truth, repeats,
                                              sim_tracer)
        spec = SPEC["per_layer"]
    else:
        attempted, failed, values = end_to_end(wl, cfg, log, truth, repeats)
        spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    for name, m in metrics.items():
        note = f"  -> {layers.MOVES[name]}" if args.trace else ""
        print(f"{wl.name:<18} {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
