"""Metropolis-Hastings chain over polygonal colorings.

The sampler proposes an edit, applies it tentatively, scores the change of
log prior (from cached statistics) plus log likelihood (from an optional
observation cache), and accepts with the Metropolis-Hastings probability at
the current temperature; rejected edits are reverted bit-exactly.  Helper
trackers maintain point colors or full rasters incrementally across accepted
moves so posterior accumulation does not require fresh global recoloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .coloring import ApplyResult, Coloring, changed_mask, changed_points
from .geometry import GridSpec, cell_centers, grid_trace_segment
from .moves import MoveParams, Proposal, propose
from .prior import PriorParams, energy, log_prior_from_stats, log_reference_mass


class Likelihood(Protocol):
    """Incremental observation model attached to a chain.

    ``delta_for_edit`` is called with the coloring already mutated to the
    post state; it stages internal updates and returns the change in total
    log likelihood.  A post state of zero likelihood may return either -inf
    or None.  Both reject the edit, but they differ in the random stream:
    after -inf the step still draws its uniform, after None it draws
    nothing.  A float return is followed by exactly one ``commit`` (edit
    accepted) or ``rollback`` (edit rejected, coloring reverted); after
    None neither is called, so nothing may stay staged.
    """

    def log_likelihood(self) -> float: ...

    def delta_for_edit(self, col: Coloring, result: ApplyResult) -> float | None: ...

    def commit(self) -> None: ...

    def rollback(self) -> None: ...


@dataclass
class StepInfo:
    kind: str | None
    applied: bool
    accepted: bool
    log_alpha: float
    result: ApplyResult | None


@dataclass
class KindTally:
    proposed: int = 0
    applied: int = 0
    accepted: int = 0


@dataclass
class ChainStats:
    proposals: int = 0
    applied: int = 0
    accepted: int = 0
    by_kind: dict[str, KindTally] = field(default_factory=dict)

    def tally(self, kind: str) -> KindTally:
        t = self.by_kind.get(kind)
        if t is None:
            t = self.by_kind[kind] = KindTally()
        return t


class Sampler:
    def __init__(self, coloring: Coloring, prior_params: PriorParams,
                 move_params: MoveParams | None = None,
                 rng: np.random.Generator | None = None,
                 likelihood: Likelihood | None = None,
                 temperature: float = 1.0):
        self.col = coloring
        self.prior_params = prior_params
        self.mp = move_params if move_params is not None else MoveParams()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.likelihood = likelihood
        self.temperature = temperature
        self.log_prior = log_prior_from_stats(coloring.stats, prior_params)
        self.energy = energy(coloring.stats, prior_params)
        self.listeners: list = []
        self.stats = ChainStats()

    # -- scores -----------------------------------------------------------

    def log_posterior(self) -> float:
        lik = self.likelihood.log_likelihood() if self.likelihood is not None else 0.0
        return self.log_prior + lik

    def map_score(self) -> float:
        """Negated potential −(energy − log likelihood); the anneal objective.

        Zero for the empty coloring with no data, and the quantity whose
        best-so-far value anneal() reports.
        """
        lik = self.likelihood.log_likelihood() if self.likelihood is not None else 0.0
        return lik - self.energy

    # -- one MH step ------------------------------------------------------

    def step(self) -> StepInfo:
        self.stats.proposals += 1
        prop: Proposal | None = propose(self.col, self.rng, self.mp)
        if prop is None:
            return StepInfo(None, False, False, -math.inf, None)
        tally = self.stats.tally(prop.kind)
        tally.proposed += 1
        if not self.col.edit_is_valid(prop.edit):
            return StepInfo(prop.kind, False, False, -math.inf, None)
        result = self.col.apply_edit(prop.edit)
        tally.applied += 1
        self.stats.applied += 1
        new_log_prior = log_prior_from_stats(self.col.stats, self.prior_params)
        new_energy = energy(self.col.stats, self.prior_params)
        d_lik = 0.0
        if self.likelihood is not None:
            d = self.likelihood.delta_for_edit(self.col, result)
            if d is None:
                self.col.revert(result.token)
                return StepInfo(prop.kind, True, False, -math.inf, None)
            d_lik = d
        # The temperature scales only the potential (edge-length energy) and
        # the data term; the reference-mass factor |E| log p − Σlog|e| + Σlog
        # sin stays untempered so cooling drives the chain toward the
        # zero-energy empty graph instead of short-edge degeneracies.
        d_reference = ((new_log_prior + new_energy)
                       - (self.log_prior + self.energy))
        d_potential = (self.energy - new_energy) + d_lik
        log_alpha = (d_reference + d_potential / self.temperature
                     + prop.log_reverse - prop.log_forward)
        accept = log_alpha >= 0.0 or math.log(self.rng.random()) < log_alpha
        if accept:
            self.log_prior = new_log_prior
            self.energy = new_energy
            if self.likelihood is not None:
                self.likelihood.commit()
            tally.accepted += 1
            self.stats.accepted += 1
            for listener in self.listeners:
                listener.on_accept(self.col, result)
            return StepInfo(prop.kind, True, True, log_alpha, result)
        if self.likelihood is not None:
            self.likelihood.rollback()
        self.col.revert(result.token)
        return StepInfo(prop.kind, True, False, log_alpha, None)


def run_chain(sampler: Sampler, n_proposals: int, *, burn_in: int = 0,
              sample_every: int = 0,
              on_sample: Callable[[Sampler, int], None] | None = None) -> ChainStats:
    """Drive the chain; call on_sample at each thinning tick after burn-in."""
    for i in range(n_proposals):
        sampler.step()
        if (on_sample is not None and sample_every > 0 and i >= burn_in
                and (i - burn_in) % sample_every == sample_every - 1):
            on_sample(sampler, i)
    return sampler.stats


@dataclass
class AnnealResult:
    best_score: float
    best_coloring: Coloring
    final_score: float


def anneal(sampler: Sampler, n_proposals: int, *, t_start: float = 1.0,
           t_end: float = 0.01) -> AnnealResult:
    """Geometric cooling; returns the best coloring by map_score visited."""
    factor = (t_end / t_start) ** (1.0 / max(1, n_proposals - 1)) \
        if n_proposals > 1 else 1.0
    sampler.temperature = t_start
    best_score = sampler.map_score()
    best = sampler.col.clone()
    for _ in range(n_proposals):
        info = sampler.step()
        if info.accepted:
            score = sampler.map_score()
            if score > best_score + 1e-12:
                best_score = score
                best = sampler.col.clone()
        sampler.temperature *= factor
    return AnnealResult(best_score, best, sampler.map_score())


# ---------------------------------------------------------------------------
# incremental color tracking


class PointColorTracker:
    """Colors of a fixed point list, updated across accepted moves."""

    def __init__(self, col: Coloring, xs: np.ndarray, ys: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.colors = col.colors_at(self.xs, self.ys)

    def on_accept(self, col: Coloring, result: ApplyResult) -> None:
        self.colors[changed_points(col, result, self.xs, self.ys)] ^= 1


class RasterTracker:
    """Color raster at grid cell centers, updated across accepted moves."""

    def __init__(self, col: Coloring, grid: GridSpec):
        self.grid = grid
        px, py = cell_centers(grid)  # shape (ny, nx)
        self.xs = px[0]
        self.ys = py[:, 0]
        self._px = px
        self._py = py
        self.colors = col.colors_at(px.ravel(), py.ravel()).reshape(grid.ny, grid.nx)

    def on_accept(self, col: Coloring, result: ApplyResult) -> None:
        x0, y0, x1, y1 = result.region
        ix0 = int(np.searchsorted(self.xs, x0, side="left"))
        ix1 = int(np.searchsorted(self.xs, x1, side="right"))
        iy0 = int(np.searchsorted(self.ys, y0, side="left"))
        iy1 = int(np.searchsorted(self.ys, y1, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            return
        sub_x = self._px[iy0:iy1, ix0:ix1].ravel()
        sub_y = self._py[iy0:iy1, ix0:ix1].ravel()
        flip = changed_mask(col.anchor, sub_x, sub_y,
                            result.delta_segments, result.anchor_flipped)
        if flip.any():
            block = self.colors[iy0:iy1, ix0:ix1]
            block ^= flip.reshape(block.shape).astype(np.int8)


def all_white_cells(col: Coloring, grid: GridSpec,
                    center_colors: np.ndarray | None = None,
                    traces: dict | None = None) -> np.ndarray:
    """Boolean raster: cell contains no edge and is colored white throughout.

    A cell with no edge through it is single-colored, so its center color
    decides; cells crossed by an edge are conservatively not all-white.

    ``traces``, carried by the caller from one call to the next on the same
    grid, keeps each live edge's segment and cells keyed by edge id: an
    entry is traced again only when its edge's segment changed, and the
    entries of dead ids are dropped.
    """
    if center_colors is None:
        px, py = cell_centers(grid)
        center_colors = col.colors_at(px.ravel(), py.ravel()).reshape(grid.ny, grid.nx)
    out = center_colors == 0
    if traces is None:
        traces = {}
    for eid in traces.keys() - col.edges.keys():
        del traces[eid]
    for eid in col.edges:
        seg = col.segment_of(eid)
        hit = traces.get(eid)
        if hit is None or hit[0] != seg:
            cells = np.array(grid_trace_segment(seg, grid), dtype=np.intp).reshape(-1, 2)
            traces[eid] = seg, cells
    if traces:
        ix, iy = np.concatenate([cells for _, cells in traces.values()]).T
        out[iy, ix] = False
    return out


class OccupancyAccumulator:
    """Posterior fractions over raster samples: black points, all-white cells.

    Counts are plain sums, so accumulators from independent chains merge by
    element-wise addition in any order.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.black = np.zeros((grid.ny, grid.nx), dtype=np.int64)
        self.white_cells = np.zeros((grid.ny, grid.nx), dtype=np.int64)
        self.samples = 0

    def add(self, colors: np.ndarray,
            all_white: np.ndarray | None = None) -> None:
        assert colors.shape == self.black.shape
        self.black += colors
        if all_white is not None:
            self.white_cells += all_white.astype(np.int64)
        self.samples += 1

    def merge(self, other: "OccupancyAccumulator") -> "OccupancyAccumulator":
        assert other.black.shape == self.black.shape
        self.black += other.black
        self.white_cells += other.white_cells
        self.samples += other.samples
        return self

    def mean(self) -> np.ndarray:
        if self.samples == 0:
            return np.full(self.black.shape, 0.5)
        return self.black / float(self.samples)

    def all_white_fraction(self) -> np.ndarray:
        if self.samples == 0:
            return np.zeros(self.black.shape)
        return self.white_cells / float(self.samples)
