"""Trace summaries: PARE tables, ergodic averages, borrowing, HPDIs, KDEs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import POSITIVE, UNIT, in_domain
from .errors import InsufficientSamplesError, TruthUnavailableError


def pare(estimate: float, truth: float) -> float:
    """Percentage absolute relative error.

    Convention for a zero truth value: 100 * |estimate - truth| (absolute
    error on the percent scale), applied uniformly.
    """
    if truth == 0.0:
        return 100.0 * abs(estimate - truth)
    return 100.0 * abs(estimate - truth) / abs(truth)


def ergodic_average(samples: Sequence[float]) -> np.ndarray:
    """Running means (1/k) sum_{i<=k} samples_i."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample sequence")
    return np.cumsum(samples) / np.arange(1, samples.size + 1)


def posterior_mean_matrix(p) -> np.ndarray:
    """Elementwise average of a trace's (records, m, m) selection-probability
    column ``p``."""
    if p is None:
        raise ValueError("trace carries no selection probabilities")
    return np.mean(p, axis=0)


def boi(p, series_index: int, donor_indices: Sequence[int]) -> float:
    """Posterior-mean borrowing: E(sum of p_{j,l} over donors l | data), from a
    trace's (records, m, m) selection-probability column ``p``."""
    donors = list(donor_indices)
    if series_index in donors:
        raise ValueError("donor set must exclude the receiving series")
    mean_p = posterior_mean_matrix(p)
    return float(mean_p[series_index, donors].sum())


def quantile(samples, q) -> np.ndarray:
    """``np.quantile(samples, q)`` of 1-D samples (its default "linear"
    method), equal value for value (a zero may differ in sign), without the
    import of ``numpy.ma`` that np.quantile's first call in a process makes.
    Returns an array shaped like ``q``; all NaN where a sample is NaN."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    v = (n - 1) * np.asarray(q, dtype=float)
    lo = np.floor(v)
    t = v - lo
    lo = lo.astype(np.intp)
    a, b = samples[lo], samples[np.minimum(lo + 1, n - 1)]
    d = b - a
    # numpy's _lerp: from the nearer neighbour, so a weight of 1 gives b exactly
    values = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return np.full(values.shape, np.nan) if np.isnan(samples[-1]) else values


@dataclass(frozen=True)
class Hpdi:
    lower: float
    upper: float
    mass: float


def hpdi(samples: Sequence[float], mass: float = 0.95) -> Hpdi:
    """Shortest contiguous order-statistic window holding the requested mass.

    Assumes a unimodal marginal; on multimodal marginals this still returns a
    single shortest interval, matching single-interval reporting.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 100 or not np.isfinite(samples).all():
        raise InsufficientSamplesError(f"need >= 100 samples, all finite; got {n}")
    mass = in_domain("mass", mass, UNIT)
    window = min(int(math.ceil(mass * n)), n)
    widths = samples[window - 1:] - samples[: n - window + 1]
    best = int(np.argmin(widths))
    return Hpdi(float(samples[best]), float(samples[best + window - 1]), mass)


KDE_GRID_SIZE = 512  # points of every KDE grid

# Most doubles one block of the kernel sum holds. Small blocks reuse the same
# heap memory across calls; a 512 x n temporary is large enough to be mapped
# and page-faulted afresh every time.
KDE_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class KdeGrid:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 sigma-hat n^(-1/5), floored to stay positive on degenerate input."""
    sd = float(np.std(samples))
    n = samples.size
    return max(1.06 * sd * n ** (-0.2), 1e-12)


def kde(samples: Sequence[float], grid: Optional[np.ndarray] = None,
        bandwidth: Optional[float] = None) -> KdeGrid:
    """Gaussian-kernel density estimate on an equally spaced grid.

    Without an explicit grid, the grid spans the sample range extended by
    four bandwidths on each side, so the trapezoid integral is close to 1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2 or not np.isfinite(samples).all():
        raise InsufficientSamplesError(f"need >= 2 samples, all finite; got {samples.size}")
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(samples)
    h = in_domain("bandwidth", h, POSITIVE)
    if grid is None:
        lo, hi = samples.min() - 4.0 * h, samples.max() + 4.0 * h
        grid = np.linspace(lo, hi, KDE_GRID_SIZE)
    grid = np.asarray(grid, dtype=float)
    sums = np.empty(grid.size)
    rows = max(1, KDE_BLOCK_CELLS // samples.size)  # each row's sum is unchanged
    for start in range(0, grid.size, rows):
        z = (grid[start:start + rows, None] - samples[None, :]) / h
        sums[start:start + rows] = np.exp(-0.5 * z ** 2).sum(axis=1)
    density = sums / (samples.size * h * math.sqrt(2.0 * math.pi))
    return KdeGrid(grid=grid, density=density, bandwidth=h)


def pare_table(theta, data) -> dict:
    """PARE of posterior-mean coefficients per series, plus row means, from a
    trace's (records, m, R+1) coefficient column ``theta``.

    Returns {"per_coefficient": m x (R+1) array, "row_mean": length-m array,
    "posterior_mean_theta": m x (R+1) array}.
    """
    if data.maps_true is None:
        raise TruthUnavailableError("data carries no ground-truth maps")
    theta_mean = np.mean(theta, axis=0)
    rows = []
    for est, truth in zip(theta_mean, data.maps_true):
        truth = np.asarray(truth, dtype=float)
        if est.size != truth.size:
            width = max(est.size, truth.size)
            truth = np.pad(truth, (0, width - truth.size))
            est = np.pad(est, (0, width - est.size))
        rows.append([pare(e, t) for e, t in zip(est, truth)])
    table = np.asarray(rows)
    return {
        "per_coefficient": table,
        "row_mean": table.mean(axis=1),
        "posterior_mean_theta": theta_mean,
    }
