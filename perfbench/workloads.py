"""The benchmark's workloads: one simulated world and sensor family each.

Every workload runs the library defaults (``RunConfig()``) except the
world and the chain budget.  The benchmark's ``--seed`` becomes the
simulation seed, so it draws the scan log.  The chain seed is pinned, so
the proposal stream is the same for every log and the figures of two
seeds differ by the data, not by a luckier chain.  The budget is fixed
per chain, so a chain's trajectory, and with it the map quality, depends
only on the seed.  A run repeats the chain
``repeats_for(seconds)`` times; that count depends only on ``--seconds``,
never on how fast the machine is, so two commits measured with the same
arguments do exactly the same work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from prfmap.config import RunConfig

MAX_REPEATS = 64
CHAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    world: str
    proposals: int          # chain budget, burn-in and thinning follow from it
    chain_seconds: float    # nominal seconds per chain, set-up included
    baseline_builds: int    # timed occupancy-grid builds; the fastest counts

    def config(self, seed: int, proposals: int | None = None) -> RunConfig:
        """Run configuration for one seed; ``proposals`` overrides the budget."""
        n = self.proposals if proposals is None else proposals
        return dataclasses.replace(
            RunConfig(), world=self.world, seed=CHAIN_SEED, sim_seed=seed,
            proposals=n, burn_in=n // 10, sample_every=max(1, n // 100),
            chains=1)

    def repeats_for(self, seconds: float) -> int:
        return max(1, min(MAX_REPEATS, round(seconds / self.chain_seconds)))


# The corridor chain accepts its first walls near proposal 250, and its
# proposals get cheaper as walls shorten the beams, so its budget keeps most
# proposals past that point.  The rooms baseline takes about 16 s to build,
# so it is built once.
WORKLOADS = {w.name: w for w in (
    Workload("corridor_laser", "corridor", proposals=2_000,
             chain_seconds=30.0, baseline_builds=4),
    Workload("rooms_sonar", "rooms", proposals=300,
             chain_seconds=5.0, baseline_builds=1),
    Workload("two_region_points", "two_region", proposals=10_000,
             chain_seconds=1.5, baseline_builds=200),
)}
