"""Per-layer metrics of the traced run and the spans they are built from.

Layers are prfmap's modules.  Each public function of interest is wrapped
under the name its caller looks it up by (``prfmap.sampler.propose``,
``prfmap.sensors.visibility_sweep``, a method on its class, ...), so the
package itself is never edited.  Names and units of the metrics are in
``BENCHMARK.json``.
"""

from __future__ import annotations

import math

import numpy as np

import prfmap.baseline
import prfmap.cli
import prfmap.grid_index
import prfmap.moves
import prfmap.sampler
import prfmap.sensors
from prfmap.coloring import Coloring
from prfmap.grid_index import EdgeGridIndex
from prfmap.sampler import OccupancyAccumulator, RasterTracker, Sampler
from prfmap.sensors import ObservationCache, PointColorLikelihood

from tracer import Patch, Tracer

CHAIN = "sampler.run_chain"     # root span of the sampling loop
GRID_TRACE = "geometry.grid_trace"

# What each per-layer metric is expected to move, and on which workload.
MOVES = {
    "sampler.step.p50_us": "proposals_per_s, all workloads",
    "sampler.step.p99_us": "proposals_per_s, all workloads",
    "sampler.applied_frac":
        "proposals_per_s, all; map_balanced_accuracy on rooms_sonar",
    "sampler.accepted_frac":
        "proposals_per_s, all; map_balanced_accuracy on rooms_sonar",
    "moves.propose.self_s": "proposals_per_s on two_region_points",
    "moves.no_proposal_frac":
        "proposals_per_s on two_region_points; map quality on rooms_sonar",
    "coloring.edit_is_valid.self_s": "proposals_per_s on two_region_points",
    "coloring.invalid_frac": "proposals_per_s on two_region_points",
    "coloring.apply_edit.self_s": "proposals_per_s on two_region_points",
    "coloring.revert.self_s": "proposals_per_s on two_region_points",
    "prior.self_s": "proposals_per_s on two_region_points",
    "sensors.delta_for_edit.calls": "proposals_per_s on rooms_sonar",
    "sensors.delta_for_edit.self_s": "proposals_per_s on rooms_sonar",
    "sensors.zero_lik_frac": "proposals_per_s on rooms_sonar",
    "sensors.commit.self_s": "proposals_per_s on corridor_laser",
    "sensors.rollback.self_s": "proposals_per_s on corridor_laser",
    "grid_index.ray_cast.calls": "proposals_per_s on corridor_laser",
    "grid_index.ray_cast.self_s": "proposals_per_s on corridor_laser",
    "grid_index.ray_cast.per_applied": "proposals_per_s on corridor_laser",
    "grid_index.ray_cast.frozen_pass_s":
        "proposals_per_s and setup_s on corridor_laser",
    "geometry.visibility_sweep.calls": "proposals_per_s on rooms_sonar",
    "geometry.visibility_sweep.self_s": "proposals_per_s on rooms_sonar",
    "geometry.visibility_sweep.per_applied": "proposals_per_s on rooms_sonar",
    "geometry.visibility_sweep.frozen_pass_s":
        "proposals_per_s and setup_s on rooms_sonar",
    "geometry.grid_trace.calls":
        "proposals_per_s and baseline_s on corridor_laser; setup_s",
    "geometry.grid_trace.self_s":
        "proposals_per_s and baseline_s on corridor_laser; setup_s",
    "sampler.raster_tracker.self_s": "proposals_per_s on two_region_points",
    "cli.accumulate.self_s": "proposals_per_s on two_region_points",
    "sensors.cache_init.s": "setup_s on rooms_sonar",
    "baseline.grid_update_laser.s": "baseline_s on corridor_laser",
    "baseline.grid_update_sonar.s": "baseline_s on rooms_sonar",
    "sim.simulate_trajectory.s": "input generation, reported only",
    "trace.overhead_frac": "tracing cost against proposals_per_s",
    "cli.map_occupied_iou": "map quality on rooms_sonar",
    "baseline.occupied_iou": "baseline quality",
}


def _step_outcome(info):
    if info.kind is None:
        return "no_proposal"
    if info.accepted:
        return ("applied", "accepted")
    return "applied" if info.applied else None


def _zero_lik(delta):
    return "zero_lik" if delta is None or delta == -math.inf else None


def chain_patches() -> list[Patch]:
    """Everything a posterior chain calls, from set-up to accumulation."""
    P = Patch
    out = [
        P(prfmap.cli, "run_chain", CHAIN),
        P(Sampler, "step", "sampler.step", _step_outcome),
        P(prfmap.sampler, "propose", "moves.propose"),
        P(Coloring, "edit_is_valid", "coloring.edit_is_valid",
          lambda ok: None if ok else "invalid"),
        P(Coloring, "apply_edit", "coloring.apply_edit"),
        P(Coloring, "revert", "coloring.revert"),
        P(prfmap.sampler, "log_prior_from_stats", "prior"),
        P(prfmap.sampler, "energy", "prior"),
        P(EdgeGridIndex, "ray_cast", "grid_index.ray_cast"),
        P(prfmap.sensors, "visibility_sweep", "geometry.visibility_sweep"),
        P(RasterTracker, "on_accept", "sampler.raster_tracker"),
        P(prfmap.cli, "all_white_cells", "cli.accumulate"),
        P(OccupancyAccumulator, "add", "cli.accumulate"),
    ]
    for cls in (ObservationCache, PointColorLikelihood):
        out += [P(cls, "__init__", "sensors.cache_init"),
                P(cls, "delta_for_edit", "sensors.delta_for_edit", _zero_lik),
                P(cls, "commit", "sensors.commit"),
                P(cls, "rollback", "sensors.rollback")]
    return out + grid_trace_patches()


def grid_trace_patches() -> list[Patch]:
    """Both trace functions at every module that imports one."""
    return [Patch(prfmap.grid_index, "grid_trace_with_entries", GRID_TRACE),
            Patch(prfmap.moves, "grid_trace_segment", GRID_TRACE),
            Patch(prfmap.sampler, "grid_trace_segment", GRID_TRACE),
            Patch(prfmap.sensors, "grid_trace_segment", GRID_TRACE),
            Patch(prfmap.baseline, "grid_trace_segment", GRID_TRACE)]


def baseline_patches() -> list[Patch]:
    return [Patch(prfmap.baseline, "grid_update_laser",
                  "baseline.grid_update_laser"),
            Patch(prfmap.baseline, "grid_update_sonar",
                  "baseline.grid_update_sonar")] + grid_trace_patches()


def sim_patches() -> list[Patch]:
    return [Patch(prfmap.cli, "simulate_trajectory", "sim.simulate_trajectory")]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(chain: Tracer, base: Tracer, sim: Tracer,
                  repeats: int) -> dict[str, float]:
    """Per-layer values of one chain, one baseline build and the simulation.

    The traced chain ran ``repeats`` times; counts and seconds of its
    tracer are divided by that number.
    """
    steps = chain.calls("sampler.step", CHAIN)
    applied = chain.count("sampler.step", "applied")
    step_us = np.array(chain.durations("sampler.step")) * 1e6
    deltas = chain.calls("sensors.delta_for_edit", CHAIN)
    ray_casts = chain.calls("grid_index.ray_cast", CHAIN)
    sweeps = chain.calls("geometry.visibility_sweep", CHAIN)
    per = 1.0 / repeats

    def self_s(span: str) -> float:
        return chain.self_s(span, CHAIN) * per

    return {
        "sampler.step.p50_us": float(np.percentile(step_us, 50)),
        "sampler.step.p99_us": float(np.percentile(step_us, 99)),
        "sampler.applied_frac": _frac(applied, steps),
        "sampler.accepted_frac": _frac(chain.count("sampler.step", "accepted"),
                                       steps),
        "moves.propose.self_s": self_s("moves.propose"),
        "moves.no_proposal_frac": _frac(
            chain.count("sampler.step", "no_proposal"), steps),
        "coloring.edit_is_valid.self_s": self_s("coloring.edit_is_valid"),
        "coloring.invalid_frac": _frac(
            chain.count("coloring.edit_is_valid", "invalid"),
            chain.calls("coloring.edit_is_valid", CHAIN)),
        "coloring.apply_edit.self_s": self_s("coloring.apply_edit"),
        "coloring.revert.self_s": self_s("coloring.revert"),
        "prior.self_s": self_s("prior"),
        "sensors.delta_for_edit.calls": deltas * per,
        "sensors.delta_for_edit.self_s": self_s("sensors.delta_for_edit"),
        "sensors.zero_lik_frac": _frac(
            chain.count("sensors.delta_for_edit", "zero_lik"), deltas),
        "sensors.commit.self_s": self_s("sensors.commit"),
        "sensors.rollback.self_s": self_s("sensors.rollback"),
        "grid_index.ray_cast.calls": ray_casts * per,
        "grid_index.ray_cast.self_s": self_s("grid_index.ray_cast"),
        "grid_index.ray_cast.per_applied": _frac(ray_casts, applied),
        "geometry.visibility_sweep.calls": sweeps * per,
        "geometry.visibility_sweep.self_s": self_s("geometry.visibility_sweep"),
        "geometry.visibility_sweep.per_applied": _frac(sweeps, applied),
        "geometry.grid_trace.calls": (chain.calls(GRID_TRACE) * per
                                      + base.calls(GRID_TRACE)),
        "geometry.grid_trace.self_s": (chain.self_s(GRID_TRACE) * per
                                       + base.self_s(GRID_TRACE)),
        "sampler.raster_tracker.self_s": self_s("sampler.raster_tracker"),
        "cli.accumulate.self_s": self_s("cli.accumulate"),
        "sensors.cache_init.s": chain.total_s("sensors.cache_init") * per,
        "baseline.grid_update_laser.s": base.total_s("baseline.grid_update_laser"),
        "baseline.grid_update_sonar.s": base.total_s("baseline.grid_update_sonar"),
        "sim.simulate_trajectory.s": sim.total_s("sim.simulate_trajectory"),
    }
