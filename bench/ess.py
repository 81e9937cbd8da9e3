"""Rank-normalized multi-chain bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC" (arXiv 1903.08008): every chain is split in half, all
draws are replaced by normal scores of their pooled ranks, and the
multi-chain autocorrelation is truncated with Geyer's (1992) initial
monotone sequence estimator.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_INV_CDF = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _autocov(chains: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) autocovariance of every row, by zero-padded FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array, ties sharing their mean rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], sorted_vals.size]
    mean_rank = (starts + ends + 1) / 2.0  # mean of the 1-based ranks start+1..end
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ranks


def _split(chains: np.ndarray) -> np.ndarray:
    half = chains.shape[1] // 2
    return np.vstack((chains[:, :half], chains[:, -half:]))


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    ranks = _average_ranks(chains.ravel())
    scores = _INV_CDF((ranks - 0.375) / (ranks.size + 0.25))
    return scores.reshape(chains.shape)


def ess(chains) -> float:
    """Multi-chain ESS of an (M chains, n draws) array, Geyer-truncated.

    A constant input carries no autocorrelation to estimate; it returns the
    number of draws, as every draw reproduces the (degenerate) posterior.
    """
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = chains.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    if not np.all(np.isfinite(chains)):
        raise ValueError("draws must be finite")
    total = m * n
    if np.ptp(chains) < np.finfo(float).resolution:
        return float(total)
    acov = _autocov(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(total)
    rho = np.zeros(n)
    rho[0] = rho_even = 1.0
    rho[1] = rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    # Geyer's initial positive sequence over pairs of lags
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # ... made monotone
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1: max_t + 2].sum()
    return float(total / max(tau, 1.0 / math.log10(total)))


def bulk_ess(chains) -> float:
    """Bulk ESS: split chains, rank-normalize the pooled draws, then :func:`ess`."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    if chains.shape[1] < 8:
        raise ValueError(f"need at least 8 draws per chain, got {chains.shape[1]}")
    split = _split(chains)
    if np.ptp(split) < np.finfo(float).resolution:
        return float(split.size)
    return ess(_rank_normalize(split))
