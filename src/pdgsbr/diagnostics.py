"""Trace summaries: PARE tables, ergodic averages, borrowing, HPDIs, KDEs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import UNIT, in_domain
from .errors import InsufficientSamplesError, TruthUnavailableError


def pare(estimate, truth):
    """Percentage absolute relative error, elementwise.

    Convention for a zero truth value: 100 * |estimate - truth| (absolute
    error on the percent scale), applied uniformly.
    """
    truth = np.asarray(truth, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python floats give them
        return 100.0 * np.abs(estimate - truth) / np.where(truth == 0.0, 1.0, np.abs(truth))


def ergodic_average(samples) -> np.ndarray:
    """Running means (1/k) sum_{i<=k} samples_i down axis 0: per column of a block."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample sequence")
    return (np.cumsum(samples, axis=0).T / np.arange(1, len(samples) + 1)).T


def boi(mean_p, series_index: int, donor_indices: Sequence[int]) -> float:
    """Posterior-mean borrowing: E(sum of p_{j,l} over donors l | data), from
    the (m, m) posterior mean ``mean_p`` of the selection probabilities."""
    donors = list(donor_indices)
    if series_index in donors:
        raise ValueError("donor set must exclude the receiving series")
    return float(np.asarray(mean_p)[series_index, donors].sum())


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


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 sigma-hat n^(-1/5), floored to stay positive on degenerate input;
    inf or NaN where finite samples spread too far for a double to hold it."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(samples))
    n = samples.size
    return max(1.06 * sd * n ** (-0.2), 1e-12)


def kde(samples: Sequence[float], grid: Optional[np.ndarray] = None) -> KdeGrid:
    """Gaussian-kernel density estimate at Silverman's bandwidth on an even grid.

    Without an explicit grid, the grid spans the sample range extended by
    four bandwidths on each side, so the trapezoid integral is close to 1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2 or not np.isfinite(samples).all():
        raise InsufficientSamplesError(f"need >= 2 samples, all finite; got {samples.size}")
    h = silverman_bandwidth(samples)
    if not math.isfinite(h):
        raise InsufficientSamplesError(f"no finite bandwidth for {samples.size} samples")
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
    return KdeGrid(grid=grid, density=density)


def pare_table(theta, data) -> dict:
    """PARE of posterior-mean coefficients per series, plus row means, from a
    trace's (records, m, R+1) coefficient column ``theta``.

    Series j's own width is max(R+1, len(map_j)): a fit or a truth shorter
    than that has zeros past its end. The table has the widest series' W
    columns; a cell past a series' own width is NaN, and its row mean runs
    over its own cells only.

    Returns {"per_coefficient": m x W array, "row_mean": length-m array}.
    """
    if data.maps_true is None:
        raise TruthUnavailableError("data carries no ground-truth maps")
    theta_mean = np.mean(theta, axis=0)
    fit = theta_mean.shape[1]
    own = np.maximum(fit, [len(truth) for truth in data.maps_true])
    inside = np.arange(own.max()) < own[:, None]  # (m, W): the cells of each series' width
    est, truth = np.zeros(inside.shape), np.zeros(inside.shape)
    est[:, :fit] = theta_mean
    for row, coefficients in zip(truth, data.maps_true):
        row[:len(coefficients)] = coefficients
    table = np.where(inside, pare(est, truth), np.nan)
    return {"per_coefficient": table, "row_mean": np.where(inside, table, 0.0).sum(axis=1) / own}
