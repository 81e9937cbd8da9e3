import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdgsbr import cli
from pdgsbr.distributions import RngHandle, draw_categorical
from pdgsbr.dynamics import (
    DIVERGENCE_BOUND,
    NAMED_MAPS,
    MultiSeries,
    NoiseMixtureSpec,
    as_map,
    compound_noise,
    cubic_map,
    eval_map,
    quadratic_map,
    sample_noise,
    simulate_multi,
    simulate_series,
)
from pdgsbr.errors import DivergenceError

NOISE = NoiseMixtureSpec((1.0,), (1e-4,))


class TestEvalMap:
    def test_quadratic_at_one(self):
        assert eval_map(quadratic_map(1.65), 1.0) == pytest.approx(-0.65, abs=1e-15)

    def test_cubic_at_one(self):
        assert eval_map(cubic_map(2.55), 1.0) == pytest.approx(1.61, abs=1e-12)

    def test_constant_map(self):
        assert eval_map((3.0,), 123.456) == 3.0

    def test_matches_numpy_polyval(self):
        # bit for bit, on a scalar and elementwise on an array: the chain's
        # residuals rely on it
        polyval = np.polynomial.polynomial.polyval
        rng = np.random.default_rng(0)
        for _ in range(50):
            coeffs = rng.normal(size=6)
            x = rng.normal()
            assert eval_map(tuple(coeffs.tolist()), x) == polyval(x, coeffs)
            xs = rng.normal(scale=3.0, size=40)
            assert np.array_equal(eval_map(coeffs, xs), polyval(xs, coeffs))

    def test_array_pass_has_the_bits_of_the_scalar_recursion(self):
        # the in-place pass over one buffer equals acc = acc * x + c from
        # acc = 0.0, on zero, negative and non-finite x and per-point
        # coefficient rows (as the chain's residuals pass them), down to the
        # sign of a zero and the NaNs
        xs = np.array([0.0, -0.0, -2.5, 3.0, -1e-300, 1e300, np.inf, -np.inf, np.nan])
        rows = np.random.default_rng(1).normal(size=(4, xs.size))
        rows[:, :2] = 0.0
        for coeffs in ([0.0, 0.0], [1.5, -0.0, 0.0, -2.0], NAMED_MAPS["C1"], rows):
            acc = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                for c in reversed(coeffs):
                    acc = acc * xs + c
                assert eval_map(coeffs, xs).tobytes() == acc.tobytes()

    def test_named_maps_are_quintic(self):
        for poly in NAMED_MAPS.values():
            assert len(poly) == 6

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            as_map([])
        assert as_map([1, "2.5"]) == (1.0, 2.5)


class TestDeterministicOrbit:
    def test_first_two_iterates(self):
        # x1 = 1 - 1.65 * 1 = -0.65; x2 = 1 - 1.65 * 0.65^2 = 0.302875
        poly = quadratic_map(1.65)
        x1 = eval_map(poly, 1.0)
        x2 = eval_map(poly, x1)
        assert x1 == pytest.approx(-0.65, abs=1e-15)
        assert x2 == pytest.approx(0.302875, abs=1e-12)

    def test_near_zero_noise_tracks_deterministic(self):
        poly = quadratic_map(1.65)
        noise = NoiseMixtureSpec((1.0,), (1e-30,))
        obs, fut = simulate_series(poly, noise, 20, 1.0, 0, RngHandle(3))
        x, det = 1.0, []
        for _ in range(20):
            x = eval_map(poly, x)
            det.append(x)
        assert np.allclose(obs, det, atol=1e-6)
        assert fut.size == 0


class TestNoise:
    def test_zero_mean_and_variance(self):
        spec = NoiseMixtureSpec((0.6, 0.4), (3e-3, 0.3))
        rng = RngHandle(11)
        draws = np.array([sample_noise(spec, rng) for _ in range(200_000)])
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se
        sq = draws ** 2
        se_var = sq.std() / math.sqrt(draws.size)
        assert abs(draws.var() - (0.6 * 3e-3 + 0.4 * 0.3)) < 3 * se_var

    def test_excess_kurtosis_positive_for_scale_mixture(self):
        # a two-variance scale mixture is leptokurtic; a single Gaussian is not
        spec = NoiseMixtureSpec((0.9, 0.1), (1e-6, 4e-2))
        rng = RngHandle(12)
        draws = np.array([sample_noise(spec, rng) for _ in range(100_000)])
        kurt = ((draws - draws.mean()) ** 4).mean() / draws.var() ** 2 - 3.0
        assert kurt > 1.0

    def test_compound_shares_component_objects(self):
        shared = NoiseMixtureSpec((1.0,), (1e-6,))
        own = NoiseMixtureSpec((1.0,), (4e-2,))
        mix = compound_noise([0.25, 0.75], [own, shared])
        assert mix.weights == (0.25, 0.75)
        assert mix.variances == (4e-2, 1e-6)

    def test_compound_skips_zero_rows(self):
        shared = NoiseMixtureSpec((1.0,), (1e-6,))
        mix = compound_noise([0.0, 1.0], [None, shared])
        assert mix.weights == (1.0,)

    def test_compound_missing_component(self):
        with pytest.raises(ValueError):
            compound_noise([0.5, 0.5], [None, NoiseMixtureSpec((1.0,), (1.0,))])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NoiseMixtureSpec((0.5, 0.4), (1.0, 1.0))
        with pytest.raises(ValueError):
            NoiseMixtureSpec((1.0,), (0.0,))

    @pytest.mark.parametrize("weights, variances", [
        ((math.nan, 1.0), (1.0, 1.0)), ((1.0,), (math.inf,)), ((0.5, 0.5), (1.0, math.nan)),
    ])
    def test_non_finite_values_rejected(self, weights, variances):
        # a NaN weight once passed the sum and sign checks, an infinite variance every check
        with pytest.raises(ValueError, match="finite"):
            NoiseMixtureSpec(weights, variances)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_draws_follow_the_categorical_stream(self, raw, seed):
        # one uniform picks the component as draw_categorical picks it, then one normal
        total = sum(raw)
        assume(total > 0.0)
        weights = tuple(w / total for w in raw)
        assume(abs(sum(weights) - 1.0) <= 1e-12)
        spec = NoiseMixtureSpec(weights, tuple(0.1 * (k + 1) for k in range(len(weights))))
        a, b = RngHandle(seed), RngHandle(seed)
        for _ in range(20):
            k = draw_categorical(np.asarray(spec.weights), b)
            expected = float(b.generator.normal(0.0, math.sqrt(spec.variances[k])))
            assert sample_noise(spec, a) == expected


class TestEscape:
    def test_divergence_error_names_series_and_step(self):
        # q = 3 pushes the quadratic orbit out of its invariant set immediately
        poly = quadratic_map(3.0)
        noise = NoiseMixtureSpec((1.0,), (1e-6,))
        with pytest.raises(DivergenceError) as exc:
            simulate_series(poly, noise, 500, 1.0, 0, RngHandle(1), series_index=0)
        err = exc.value
        assert err.series == 0
        assert 1 <= err.index < 500
        assert f"series 1, step {err.index + 1}" in str(err)


class TestSimulation:
    def make_multi(self, seed=42):
        specs = [
            (NAMED_MAPS["C1"], NoiseMixtureSpec((1.0,), (1e-4,)), 60, 1.0),
            (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-4,)), 30, 1.0),
        ]
        return simulate_multi(specs, [1, 2], RngHandle(seed))

    def test_lengths_and_truth(self):
        data = self.make_multi()
        assert data.m == 2
        assert data.lengths == [60, 30]
        assert [f.size for f in data.futures_true] == [1, 2]
        assert data.x0_true == [1.0, 1.0]
        assert data.maps_true[0] is NAMED_MAPS["C1"]

    def test_seed_reproducibility(self):
        a, b = self.make_multi(7), self.make_multi(7)
        for sa, sb in zip(a.series, b.series):
            assert np.array_equal(sa, sb)
        for fa, fb in zip(a.futures_true, b.futures_true):
            assert np.array_equal(fa, fb)

    def test_different_seeds_differ(self):
        a, b = self.make_multi(7), self.make_multi(8)
        assert not np.array_equal(a.series[0], b.series[0])

    def test_json_roundtrip_is_exact(self, tmp_path):
        data = cli.cmd_simulate(cli.bundled_config("4A"), tmp_path)  # writes data.json
        back = MultiSeries.load_json(tmp_path / "data.json")
        for sa, sb in zip(data.series, back.series):
            assert np.array_equal(sa, sb)  # bit-exact via repr-style JSON floats
        assert back.maps_true[0] == data.maps_true[0]
        assert back.noise_true[1].variances == data.noise_true[1].variances
        assert np.array_equal(back.futures_true[1], data.futures_true[1])

    def test_json_without_truth(self):
        data = MultiSeries(series=[np.arange(5.0), np.arange(3.0) + 1])
        back = MultiSeries.from_json_dict(json.loads(json.dumps(data.to_json_dict())))
        assert back.maps_true is None
        assert np.array_equal(back.series[0], np.arange(5.0))

    def test_json_with_the_former_m_field_loads(self):
        # data.json once also held "m", which no reader read: m is len(series)
        data = MultiSeries(series=[np.arange(5.0), np.arange(3.0) + 1])
        doc = json.loads(json.dumps(data.to_json_dict()))
        assert "m" not in doc
        back = MultiSeries.from_json_dict({"m": 2, **doc})
        assert back.m == 2 and all(map(np.array_equal, back.series, data.series))

    @pytest.mark.parametrize("truth, message", [
        (dict(maps_true=[NAMED_MAPS["Q1"]]), "needs both its maps and its noise"),
        (dict(noise_true=[NOISE] * 2), "needs both its maps and its noise"),
        (dict(maps_true=[NAMED_MAPS["Q1"]], noise_true=[NOISE] * 2),
         "truth maps holds 1 series, not 2"),
        (dict(maps_true=[NAMED_MAPS["Q1"]] * 3, noise_true=[NOISE] * 2),
         "truth maps holds 3 series, not 2"),
        (dict(maps_true=[NAMED_MAPS["Q1"]] * 2, noise_true=[NOISE]),
         "truth noise holds 1 series, not 2"),
        (dict(x0_true=[0.5]), "truth x0 holds 1 series, not 2"),
        (dict(futures_true=[np.zeros(1)] * 3), "truth futures holds 3 series, not 2"),
        (dict(selection_true=[[1.0]]), "truth selection has shape"),
    ])
    def test_truth_describes_every_series(self, truth, message):
        # a truth of one map and no noise was once built, and its to_json_dict
        # then raised TypeError
        with pytest.raises(ValueError, match=message):
            MultiSeries(series=[np.arange(5.0), np.arange(3.0) + 1], **truth)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            MultiSeries(series=[[1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MultiSeries(series=[[1.0, float("inf")]])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_orbit_stays_in_invariant_set(self, seed):
        # with tiny noise the Q1 orbit stays inside [-1, 1] up to noise slack
        noise = NoiseMixtureSpec((1.0,), (1e-8,))
        try:
            obs, _ = simulate_series(NAMED_MAPS["Q1"], noise, 100, 0.5, 0, RngHandle(seed))
        except DivergenceError:
            return
        assert np.all(np.abs(obs) <= 1.0 + 1e-2)
