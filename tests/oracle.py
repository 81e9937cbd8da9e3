"""Reference implementations the tests compare the chain against.

The densities of the marginalization oracle (acceptance criterion 2) are
never evaluated by the chain: they state the slice-augmented joint and the
transition mixture it must marginalize to, term by term, so the tests can sum
one and compare it with the other. The dense allocation block is the plain
form of the chunked kernel the chain runs.
"""

import math

import numpy as np

from pdgsbr.dynamics import eval_map
from pdgsbr.gibbs import residuals


def normal_pdf(x: float, mean: float, tau: float) -> float:
    """Gaussian density with precision parameterization."""
    return math.sqrt(tau / (2.0 * math.pi)) * math.exp(-0.5 * tau * (x - mean) ** 2)


def augmented_joint_density(x, x_prev, r, k, l, theta, p_row, lam_row, tau_rows) -> float:
    """Joint density of (x, N=r, d=k, delta=l) given the rest of one series' block.

    Zero outside the slice constraint k <= r.
    """
    if k > r or k < 1 or r < 1:
        return 0.0
    lam = lam_row[l]
    tau = tau_rows[l][k - 1]
    g = eval_map(theta, x_prev)
    return p_row[l] * lam ** 2 * (1.0 - lam) ** (r - 1) * normal_pdf(x, g, tau)


def mixture_partial_density(x, x_prev, theta, p_row, lam_row, tau_rows, K: int) -> float:
    """Leading-K part of the noise-convolved transition mixture density."""
    g = eval_map(theta, x_prev)
    total = 0.0
    for l in range(len(p_row)):
        lam = lam_row[l]
        for k in range(1, K + 1):
            total += p_row[l] * lam * (1.0 - lam) ** (k - 1) * normal_pdf(x, g, tau_rows[l][k - 1])
    return total


def dense_alloc_block(state, data, rng):
    """The allocation block as one dense (n_j, m, N*) block per series: every
    point is scored against the whole atom matrix and the cells above its
    slice bound are masked. ``gibbs.update_alloc_block`` must draw the same
    (delta, d) from the same generator state."""
    for j in range(state.m):
        h = residuals(state, data, j)
        taus = state.atoms.matrix(j)  # (m, K)
        K = taus.shape[1]
        with np.errstate(invalid="ignore"):
            base = np.log(state.p[j])[:, None] + 0.5 * np.log(taus)
        logw = base[None, :, :] - 0.5 * taus[None, :, :] * h[:, None, None]
        karange = np.arange(K)
        mask = karange[None, None, :] >= state.alloc.N[j][:, None, None]
        logw = np.where(mask | ~np.isfinite(logw), -np.inf, logw)
        flat = logw.reshape(h.size, state.m * K)
        peak = flat.max(axis=1, keepdims=True)
        weights = np.exp(flat - peak)
        cdf = np.cumsum(weights, axis=1)
        u = rng.generator.random(h.size) * cdf[:, -1]
        idx = np.minimum((cdf < u[:, None]).sum(axis=1), state.m * K - 1)
        state.alloc.delta[j] = (idx // K).astype(int)
        state.alloc.d[j] = (idx % K + 1).astype(int)
    return state
