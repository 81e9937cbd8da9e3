"""The benchmark's ESS estimator against cases with known answers."""

import numpy as np
import pytest

from ess import bulk_ess, ess


def ar1(rho, n, rng):
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1.0 - rho ** 2)
    noise = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    return x


def test_iid_draws_give_ess_near_n():
    draws = np.random.default_rng(1).standard_normal((4, 2000))
    assert bulk_ess(draws) == pytest.approx(draws.size, rel=0.1)


def test_ar1_matches_its_integrated_autocorrelation_time():
    rho, n = 0.9, 20_000
    rng = np.random.default_rng(2)
    chains = np.stack([ar1(rho, n, rng) for _ in range(2)])
    expected = chains.size * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(chains) == pytest.approx(expected, rel=0.15)
    assert ess(chains) == pytest.approx(expected, rel=0.15)


def test_constant_chain_needs_no_division_by_zero():
    with np.errstate(all="raise"):
        assert bulk_ess(np.full((3, 50), 0.25)) == 150.0
        assert ess(np.full(40, -1.0)) == 40.0


def test_chains_in_different_modes_pool_to_a_small_ess():
    rng = np.random.default_rng(3)
    chains = rng.standard_normal((4, 1000))
    chains[:2] += 5.0
    assert bulk_ess(chains) < 0.05 * chains.size


def test_ties_share_their_rank():
    draws = np.random.default_rng(4).integers(0, 3, size=(4, 500)).astype(float)
    value = bulk_ess(draws)
    assert np.isfinite(value) and value > 0.5 * draws.size


def test_too_short_chains_are_refused():
    with pytest.raises(ValueError):
        bulk_ess(np.zeros((2, 5)))
