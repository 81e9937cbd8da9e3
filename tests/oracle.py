"""Reference densities of the marginalization oracle (acceptance criterion 2).

The chain never evaluates these: they state the slice-augmented joint and the
transition mixture it must marginalize to, term by term, so the tests can sum
one and compare it with the other.
"""

import math

from pdgsbr.dynamics import eval_map


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
