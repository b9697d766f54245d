"""Correctness checks, map-quality scores and trajectory digests.

Every check compares state the chain maintains incrementally with a
recomputation from scratch.  A check returns a list of failure messages;
an empty list means the chain passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from prfmap.sampler import RasterTracker, Sampler
from prfmap.sensors import ObservationCache, PointColorLikelihood
from prfmap.sim import classification_accuracy, near_edge_mask, truth_raster

# Incremental totals are sums of many float deltas; the seed code drifts by
# about 2e-10 on the corridor.  Allow 1e-6 relative to the total.
LIKELIHOOD_RTOL = 1e-6
STATS_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def recompute_likelihood(lik, col) -> float:
    """From-scratch total log likelihood of ``col``."""
    if isinstance(lik, ObservationCache):
        return lik.recompute_total(col)
    if isinstance(lik, PointColorLikelihood):
        black = col.colors_at(lik.qx, lik.qy).astype(bool)
        total = 0.0
        for o, b in zip(lik.obs, black):
            mu = o.mu_black if b else o.mu_white
            total += -0.5 * ((o.value - mu) / o.sigma) ** 2
        return total
    raise TypeError(f"no recompute for {type(lik).__name__}")


def check_chain(samp: Sampler) -> list[str]:
    """Cached chain state against recomputation from scratch."""
    col = samp.col
    errors = []
    lik = samp.likelihood
    if lik is not None:
        live = lik.log_likelihood()
        fresh = recompute_likelihood(lik, col)
        if not (math.isfinite(live) and _close(live, fresh, LIKELIHOOD_RTOL)):
            errors.append(f"log likelihood {live!r} vs recomputed {fresh!r}")
    live_stats = col.stats
    fresh_stats = col.recompute_stats()     # overwrites col.stats
    col.stats = live_stats
    if live_stats.n_edges != fresh_stats.n_edges or not all(
            _close(getattr(live_stats, f), getattr(fresh_stats, f), STATS_RTOL)
            for f in ("total_length", "sum_log_length", "sum_log_sin")):
        errors.append(f"prior stats {live_stats} vs recomputed {fresh_stats}")
    for tracker in samp.listeners:
        if isinstance(tracker, RasterTracker):
            fresh_raster = truth_raster(col, tracker.grid)
            bad = int((tracker.colors.astype(bool) != fresh_raster).sum())
            if bad:
                errors.append(f"raster tracker differs in {bad} cells")
    try:
        col.validate()
    except AssertionError as exc:
        errors.append(f"coloring invalid: {exc}")
    return errors


def check_raster(name: str, raster: np.ndarray) -> list[str]:
    if not np.isfinite(raster).all():
        return [f"{name} raster has non-finite cells"]
    if raster.min() < 0.0 or raster.max() > 1.0:
        return [f"{name} raster leaves [0, 1]"]
    return []


def map_quality(prob_black: np.ndarray, truth, grid) -> dict[str, float]:
    """Occupied IoU, balanced and plain accuracy of a thresholded raster.

    Cells within half a cell of a ground-truth edge are excluded, as in
    ``classification_accuracy``; a cell is predicted occupied when its
    probability strictly exceeds 0.5.
    """
    keep = ~near_edge_mask(truth, grid)
    want = truth_raster(truth, grid)[keep]
    got = (prob_black > 0.5)[keep]
    tp = int((got & want).sum())
    fp = int((got & ~want).sum())
    fn = int((~got & want).sum())
    tn = int((~got & ~want).sum())
    return {
        "occupied_iou": tp / (tp + fp + fn),
        "balanced_accuracy": 0.5 * (tp / (tp + fn) + tn / (tn + fp)),
        "accuracy": classification_accuracy(prob_black, truth, grid),
    }


def chain_digest(samp: Sampler) -> tuple[int, int, int, str]:
    """(proposals, applied, accepted, hash of the final geometry)."""
    st = samp.stats
    sig = hashlib.sha256(repr(samp.col.geometry_signature()).encode())
    return st.proposals, st.applied, st.accepted, sig.hexdigest()[:16]

