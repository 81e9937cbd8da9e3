import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdgsbr.diagnostics import (
    boi,
    ergodic_average,
    hpdi,
    kde,
    pare,
    pare_table,
    quantile,
    silverman_bandwidth,
)
from pdgsbr.dynamics import NAMED_MAPS
from pdgsbr.errors import InsufficientSamplesError, TruthUnavailableError


class TestQuantile:
    @given(arrays(float, st.integers(1, 40), elements=st.one_of(
               st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -2.5]),
               st.floats(-1e6, 1e6))),
           st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6).map(sorted))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_quantile(self, samples, q):
        # NaN, infinities and ties included; the samples are left unsorted
        before = samples.copy()
        with np.errstate(invalid="ignore"):
            got, expected = quantile(samples, q), np.quantile(samples, q)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(samples, before, equal_nan=True)


class TestPare:
    def test_simple_relative_error(self):
        assert pare(1.1, 1.0) == pytest.approx(10.0)
        assert pare(-0.9, -1.0) == pytest.approx(10.0)
        assert pare(2.0, 1.0) == pytest.approx(100.0)

    def test_exact_estimate_is_zero(self):
        assert pare(3.7, 3.7) == 0.0
        assert pare(0.0, 0.0) == 0.0

    def test_zero_truth_convention(self):
        # absolute error on the percent scale when the truth is exactly 0
        assert pare(0.05, 0.0) == pytest.approx(5.0)
        assert pare(-0.02, 0.0) == pytest.approx(2.0)

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=1e-6, max_value=100, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_symmetric_in_error_sign(self, truth, err):
        assert pare(truth + err, truth) == pytest.approx(pare(truth - err, truth))

    def test_nonnegative(self):
        for e, t in [(0.3, -2.0), (-5.0, 1.0), (0.0, 4.0)]:
            assert pare(e, t) >= 0.0


class TestErgodicAverage:
    def test_running_mean_oracle(self):
        out = ergodic_average([1.0, 2.0, 3.0, 6.0])
        assert np.allclose(out, [1.0, 1.5, 2.0, 3.0])
        # a (records, k) block: each column's running means, bit for bit the 1-D ones
        block = np.random.default_rng(3).normal(size=(200, 3)) * np.array([1e-8, 1.0, 1e8])
        running = ergodic_average(block)
        assert running.shape == (200, 3)
        for k in range(3):
            assert running[:, k].tobytes() == ergodic_average(block[:, k]).tobytes()

    def test_final_value_is_plain_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        assert ergodic_average(x)[-1] == pytest.approx(np.mean(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ergodic_average([])

    def test_thinning_agrees_in_the_limit(self):
        # on i.i.d. input the t=1 and t=5 final averages agree within 4 MC SEs
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, size=100_000)
        full = ergodic_average(x)[-1]
        thinned = ergodic_average(x[::5])[-1]
        se = 1.0 / math.sqrt(x[::5].size)
        assert abs(full - thinned) < 4 * se


class TestBoi:
    def test_boi_sums_donor_columns(self):
        mean_p = np.array([[0.1, 0.5, 0.4], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]])
        assert boi(mean_p, 1, [0, 2]) == pytest.approx(0.4)
        assert boi(mean_p, 2, [1]) == pytest.approx(0.3)

    def test_boi_rejects_self_donation(self):
        with pytest.raises(ValueError):
            boi(np.full((2, 2), 0.5), 0, [0, 1])


class TestHpdi:
    def test_normal_quantile_oracle(self):
        rng = np.random.default_rng(11)
        iv = hpdi(rng.normal(size=100_000), 0.95)
        assert iv.lower == pytest.approx(-1.96, abs=0.05)
        assert iv.upper == pytest.approx(1.96, abs=0.05)
        assert iv.mass == 0.95

    def test_finds_the_dense_cluster(self):
        # 110 points packed in [0, 0.01] plus 90 spread over [5, 15]
        tight = np.linspace(0.0, 0.01, 110)
        wide = np.linspace(5.0, 15.0, 90)
        iv = hpdi(np.concatenate([tight, wide]), 0.5)
        assert 0.0 <= iv.lower and iv.upper <= 0.02

    def test_interval_contains_requested_mass(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=5_000)
        iv = hpdi(x, 0.9)
        inside = np.mean((x >= iv.lower) & (x <= iv.upper))
        assert inside >= 0.9

    def test_width_monotone_in_mass(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=10_000)
        widths = []
        for mass in (0.5, 0.8, 0.9, 0.95, 0.99):
            iv = hpdi(x, mass)
            widths.append(iv.upper - iv.lower)
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamplesError):
            hpdi(np.zeros(99), 0.95)

    def test_mass_validation(self):
        x = np.arange(200.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                hpdi(x, bad)


class TestKde:
    def test_silverman_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4_000)
        expected = 1.06 * np.std(x) * 4_000 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected)

    def test_silverman_degenerate_floor(self):
        assert silverman_bandwidth(np.full(50, 2.5)) == 1e-12

    def test_matches_normal_density(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=100_000)
        est = kde(x)
        truth = np.exp(-0.5 * est.grid ** 2) / math.sqrt(2.0 * math.pi)
        assert np.abs(est.density - truth).max() < 0.02

    def test_reintegrates_to_one(self):
        rng = np.random.default_rng(23)
        est = kde(rng.exponential(size=20_000))
        assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=0.02)

    def test_explicit_grid_and_bandwidth_respected(self):
        grid = np.linspace(-1.0, 1.0, 21)
        x = np.array([0.0, 0.5])
        est = kde(x, grid=grid)
        assert np.array_equal(est.grid, grid)
        h = silverman_bandwidth(x)
        # two-point mixture of Gaussian kernels at Silverman's width, evaluated by hand at 0
        expected = 0.5 * (
            math.exp(0.0) + math.exp(-0.5 * (0.5 / h) ** 2)
        ) / (h * math.sqrt(2.0 * math.pi))
        assert est.density[10] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [200, 5_000])
    def test_blocked_sum_equals_one_shot_formula(self, n):
        x = np.random.default_rng(n).normal(size=n)
        est = kde(x)
        h = silverman_bandwidth(x)
        z = (est.grid[:, None] - x[None, :]) / h
        one_shot = np.exp(-0.5 * z ** 2).sum(axis=1) / (n * h * math.sqrt(2.0 * math.pi))
        assert np.array_equal(est.density, one_shot)

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientSamplesError):
            kde(np.array([1.0]))

    @pytest.mark.parametrize("x", [[1e200, -1e200] * 50, [1.7e308] * 4 + [-1.7e308] * 4],
                             ids=["std-overflows", "mean-overflows"])
    def test_finite_samples_too_spread_for_a_bandwidth(self, x):
        # np.std overflows to inf (or to NaN by inf - inf), once refused as
        # "bandwidth holds inf": a ValueError that report did not catch
        with pytest.raises(InsufficientSamplesError, match="finite bandwidth"):
            kde(np.array(x))


class TestPareTable:
    def test_exact_two_series(self):
        truth = [NAMED_MAPS["Q1"], NAMED_MAPS["C1"]]
        data = SimpleNamespace(maps_true=truth)
        theta = np.array(truth)
        theta[0] *= 1.1  # uniform 10% inflation on series 1
        out = pare_table(np.array([theta, theta]), data)
        # zero coefficients of Q1 get the absolute convention: |0*1.1 - 0| = 0
        assert np.allclose(out["per_coefficient"][0], np.where(np.asarray(truth[0]) != 0, 10.0, 0.0))
        assert np.allclose(out["per_coefficient"][1], 0.0)
        assert out["row_mean"][1] == 0.0

    def test_pads_quintic_fit_of_short_truth(self):
        truth = [(1.0, 0.0, -1.65)]
        data = SimpleNamespace(maps_true=truth)
        est = np.zeros(6)
        est[:3] = truth[0]
        est[5] = 0.04  # spurious quintic term against an implicit zero truth
        out = pare_table(np.array([[est]]), data)
        assert out["per_coefficient"].shape == (1, 6)
        assert out["per_coefficient"][0, 5] == pytest.approx(4.0)

    def test_truth_required(self):
        data = SimpleNamespace(maps_true=None)
        with pytest.raises(TruthUnavailableError):
            pare_table(np.zeros((1, 1, 3)), data)
