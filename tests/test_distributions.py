import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdgsbr import distributions
from pdgsbr.distributions import (
    REAL,
    RngHandle,
    draw_beta,
    draw_categorical,
    draw_dirichlet,
    draw_gamma,
    draw_truncated_geometric,
    in_domain,
    json_numbers,
    slice_sample_1d,
)
from pdgsbr.errors import InvalidStateError, ParameterDomainError

from oracle import (former_draw_beta, former_draw_dirichlet, former_draw_gamma,
                    former_slice_sample_1d)

N_DRAWS = 100_000


def mc_se(samples):
    return np.std(samples) / math.sqrt(len(samples))


@pytest.fixture
def rng():
    return RngHandle(12345)


class TestGamma:
    def test_exponential_special_case_mean(self, rng):
        draws = np.array([draw_gamma(1.0, 1.0, rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(N_DRAWS)

    def test_tiny_shape_draws_positive_finite(self, rng):
        draws = [draw_gamma(1e-3, 1e-3, rng) for _ in range(20_000)]
        assert all(d > 0 and math.isfinite(d) for d in draws)

    def test_variance_against_moment_oracle(self, rng):
        # oracle: quadrature of the density x^(a-1) e^(-b x) gives Var = a / b^2
        from scipy.integrate import quad
        from scipy.special import gammaln

        a, b = 2.0, 4.0
        norm = math.exp(a * math.log(b) - gammaln(a))
        mean, _ = quad(lambda x: norm * x * x ** (a - 1) * math.exp(-b * x), 0, 50)
        second, _ = quad(lambda x: norm * x ** 2 * x ** (a - 1) * math.exp(-b * x), 0, 50)
        oracle_var = second - mean ** 2
        assert abs(oracle_var - 0.125) < 1e-9

        draws = np.array([draw_gamma(a, b, rng) for _ in range(N_DRAWS)])
        centered_sq = (draws - draws.mean()) ** 2
        assert abs(draws.var() - oracle_var) < 3.0 * mc_se(centered_sq)

    @pytest.mark.parametrize("shape", [0.5, 0.05])
    def test_boosted_small_shape_mean_and_variance(self, rng, shape):
        # shape < 1 draws through the boost G(shape + 1) U^(1/shape):
        # Gamma(shape, rate) has mean shape / rate and variance shape / rate^2
        rate = 2.0
        draws = np.array([draw_gamma(shape, rate, rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - shape / rate) < 3.0 * mc_se(draws)
        centered_sq = (draws - shape / rate) ** 2
        assert abs(centered_sq.mean() - shape / rate ** 2) < 3.0 * mc_se(centered_sq)

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, rng, shape, rate):
        with pytest.raises(ParameterDomainError):
            draw_gamma(shape, rate, rng)


class TestBeta:
    def test_jeffreys_mean(self, rng):
        draws = np.array([draw_beta(0.5, 0.5, rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 0.5) < 3.0 * mc_se(draws)

    def test_uniform_special_case_ks(self, rng):
        draws = np.sort([draw_beta(1.0, 1.0, rng) for _ in range(N_DRAWS)])
        grid = np.arange(1, N_DRAWS + 1) / N_DRAWS
        ks = max(np.abs(grid - draws).max(), np.abs(draws - (grid - 1.0 / N_DRAWS)).max())
        assert ks < 1.63 / math.sqrt(N_DRAWS)

    def test_posterior_shape_mean(self, rng):
        draws = np.array([draw_beta(28.5, 32.5, rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 28.5 / 61.0) < 3.0 * mc_se(draws)

    def test_domain_errors(self, rng):
        with pytest.raises(ParameterDomainError):
            draw_beta(0.0, 1.0, rng)
        with pytest.raises(ParameterDomainError):
            draw_beta(1.0, -1.0, rng)
        with pytest.raises(ParameterDomainError):  # one bad element of an array
            draw_beta(np.array([0.5, 2.0]), np.array([1.0, math.nan]), rng)


class TestDirichlet:
    def test_marginal_mean_10_1(self, rng):
        draws = np.array([draw_dirichlet([10.0, 1.0], rng)[0] for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 10.0 / 11.0) < 3.0 * mc_se(draws)

    def test_flat_marginals(self, rng):
        draws = np.array([draw_dirichlet([1.0, 1.0], rng) for _ in range(N_DRAWS)])
        assert np.allclose(draws.mean(axis=0), 0.5, atol=3.0 * mc_se(draws[:, 0]))

    def test_weak_borrowing_row(self, rng):
        draws = np.array([draw_dirichlet([10.0, 1.0, 1.0], rng) for _ in range(N_DRAWS)])
        expected = np.array([10.0, 1.0, 1.0]) / 12.0
        for l in range(3):
            assert abs(draws[:, l].mean() - expected[l]) < 3.0 * mc_se(draws[:, l])

    @given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, alpha):
        rng = RngHandle(7)
        for _ in range(5):
            p = draw_dirichlet(alpha, rng)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    def test_domain_errors(self, rng):
        with pytest.raises(ParameterDomainError):
            draw_dirichlet([], rng)
        with pytest.raises(ParameterDomainError):
            draw_dirichlet([1.0, 0.0], rng)
        with pytest.raises(ParameterDomainError):  # one bad row of a matrix
            draw_dirichlet([[1.0, 2.0], [math.inf, 1.0]], rng)
        with pytest.raises(ParameterDomainError):
            draw_dirichlet(np.ones((2, 2, 2)), rng)


class TestCategorical:
    def test_point_mass(self, rng):
        assert all(draw_categorical([0.0, 5.0, 0.0], rng) == 1 for _ in range(1000))

    def test_fair_coin(self, rng):
        draws = np.array([draw_categorical([1.0, 1.0], rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 0.5) < 3.0 * mc_se(draws)

    def test_unnormalized_weights(self, rng):
        # oracle: direct normalization, P(index 1) = 10 / 11
        draws = np.array([draw_categorical([1.0, 10.0], rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - 10.0 / 11.0) < 3.0 * mc_se(draws)

    def test_scale_invariance_chi_square(self, rng):
        from scipy.stats import chisquare

        weights = np.array([2.0, 3.0, 5.0])
        expected = weights / weights.sum()
        for scale in (1e-6, 1.0, 1e6):
            counts = np.bincount(
                [draw_categorical(weights * scale, rng) for _ in range(N_DRAWS)], minlength=3
            )
            _, p = chisquare(counts, expected * N_DRAWS)
            assert p > 0.001

    def test_degenerate_weights(self, rng):
        with pytest.raises(ParameterDomainError):
            draw_categorical([0.0, 0.0], rng)
        with pytest.raises(ParameterDomainError):
            draw_categorical([1.0, -1.0], rng)
        with pytest.raises(ParameterDomainError):
            draw_categorical([1.0, float("nan")], rng)


    def test_array_draws_equal_scalar_draws(self):
        # one uniform per draw, in order: size draws at once are size scalar
        # draws at the same seed, and leave the generator in the same state
        weights = np.array([0.2, 0.0, 1.3, 0.5])
        a, b = RngHandle(41), RngHandle(41)
        draws = draw_categorical(weights, a, 500)
        expected = [draw_categorical(weights, b) for _ in range(500)]
        assert draws.shape == (500,) and draws.dtype.kind == "i"
        assert draws.tolist() == expected
        assert all(isinstance(v, int) for v in expected)
        assert a.get_state() == b.get_state()
        assert draw_categorical(weights, a, 0).shape == (0,)
        assert a.get_state() == b.get_state()

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, -1.0], [1.0, float("nan")], [],
                                         [[1.0, 2.0]]])
    def test_array_form_has_the_same_domain_errors(self, rng, weights):
        with pytest.raises(ParameterDomainError):
            draw_categorical(weights, rng)
        with pytest.raises(ParameterDomainError):
            draw_categorical(weights, rng, 3)


class TestTruncatedGeometric:
    def test_tail_enumeration(self, rng):
        # oracle: normalized tail series lam (1-lam)^(r - 2) for r >= 2
        draws = np.array([draw_truncated_geometric(0.5, 2, rng) for _ in range(N_DRAWS)])
        freq2 = (draws == 2).mean()
        freq3 = (draws == 3).mean()
        assert abs(freq2 - 0.5) < 3.0 * mc_se(draws == 2)
        assert abs(freq3 - 0.25) < 3.0 * mc_se(draws == 3)
        assert draws.min() >= 2

    def test_near_degenerate(self, rng):
        draws = np.array([draw_truncated_geometric(0.999, 1, rng) for _ in range(10_000)])
        assert (draws == 1).mean() > 0.99

    def test_shifted_mean_oracle(self, rng):
        draws = np.array([draw_truncated_geometric(0.3, 5, rng) for _ in range(N_DRAWS)])
        assert abs(draws.mean() - (5 + 0.7 / 0.3)) < 3.0 * mc_se(draws)

    def test_domain_errors(self, rng):
        with pytest.raises(ParameterDomainError):
            draw_truncated_geometric(0.0, 1, rng)
        with pytest.raises(ParameterDomainError):
            draw_truncated_geometric(1.0, 1, rng)
        with pytest.raises(ParameterDomainError):
            draw_truncated_geometric(0.5, 0, rng)
        with pytest.raises(ParameterDomainError):
            draw_truncated_geometric(np.array([0.5, 1.0]), np.array([1, 1]), rng)
        with pytest.raises(ParameterDomainError):  # the draw would overflow int64
            draw_truncated_geometric(np.full(10, 1e-300), 1, rng)

    def test_array_draws_equal_scalar_draws(self):
        # one uniform per element, in order: the vectorized draw is the
        # scalar draw applied element by element at the same seed
        lam = np.array([0.5, 0.999, 0.3, 1e-3, 0.05] * 40)
        min_value = np.arange(1, lam.size + 1)
        a, b = RngHandle(77), RngHandle(77)
        draws = draw_truncated_geometric(lam, min_value, a)
        assert draws.shape == lam.shape and draws.dtype == np.int64
        expected = [draw_truncated_geometric(x, k, b) for x, k in zip(lam, min_value)]
        assert draws.tolist() == expected
        assert all(isinstance(v, int) for v in expected)
        assert a.generator.random() == b.generator.random()


def batch_means_se(samples, n_batches=100):
    """MC standard error adjusted for autocorrelation via batch means."""
    samples = np.asarray(samples)
    size = len(samples) // n_batches
    means = samples[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


class TestSliceSampler:
    def test_truncated_normal_moments(self, rng):
        logf = lambda x: -2.0 * (x - 0.5) ** 2
        x, chain = 0.0, np.empty(N_DRAWS)
        for i in range(N_DRAWS):
            x = slice_sample_1d(logf, -10.0, 10.0, x, 1.0, 16, rng)
            chain[i] = x
        assert abs(chain.mean() - 0.5) < 3.0 * batch_means_se(chain)
        sq = (chain - 0.5) ** 2
        assert abs(sq.mean() - 0.25) < 3.0 * batch_means_se(sq)

    def test_flat_target_uniform(self, rng):
        x, n = 0.5, 20_000
        draws = np.empty(n)
        for i in range(n):
            x = slice_sample_1d(lambda x: 0.0, 0.0, 1.0, x, 0.3, 8, rng)
            draws[i] = x
        draws.sort()
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(grid - draws).max(), np.abs(draws - (grid - 1.0 / n)).max())
        assert ks < 2.5 / math.sqrt(n)  # generous: slice chain is autocorrelated

    def test_bimodal_mass_ratio(self, rng):
        # quadrature oracle: symmetric double well, half the mass on each side
        from scipy.integrate import quad

        # the barrier at 0 sits at exp(-2) of the peak so stepping out can
        # bridge the two wells at low slice levels
        logf = lambda x: -((x ** 2 - 1.0) ** 2) / 0.5
        left, _ = quad(lambda x: math.exp(logf(x)), -3.0, 0.0)
        right, _ = quad(lambda x: math.exp(logf(x)), 0.0, 3.0)
        oracle_ratio = left / right
        x, n = 1.0, N_DRAWS
        signs = np.empty(n)
        for i in range(n):
            x = slice_sample_1d(logf, -3.0, 3.0, x, 0.5, 16, rng)
            signs[i] = 1.0 if x < 0 else 0.0
        frac_left = signs.mean()
        ratio = frac_left / (1.0 - frac_left)
        assert abs(ratio - oracle_ratio) / oracle_ratio < 0.10

    def test_output_stays_in_support(self, rng):
        x = 0.0
        for _ in range(2000):
            x = slice_sample_1d(lambda x: -0.5 * x ** 2, -0.2, 0.3, x, 5.0, 16, rng)
            assert -0.2 <= x <= 0.3

    def test_invalid_state(self, rng):
        with pytest.raises(InvalidStateError):
            slice_sample_1d(lambda x: -0.5 * x ** 2, 0.0, 1.0, 5.0, 1.0, 16, rng)  # outside the support

    def test_bad_width(self, rng):
        with pytest.raises(ParameterDomainError):
            slice_sample_1d(lambda x: 0.0, 0.0, 1.0, 0.5, 0.0, 16, rng)

    @pytest.mark.parametrize("width", [math.nan, math.inf, np.float64(math.nan)])
    def test_non_finite_width_is_refused(self, rng, width):
        # a NaN or infinite width once made the shrinkage loop run forever
        with pytest.raises(ParameterDomainError, match="finite"):
            slice_sample_1d(lambda x: 0.0, 0.0, 1.0, 0.5, width, 16, rng)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_support(self, rng, lo, hi):
        with pytest.raises(ParameterDomainError):
            slice_sample_1d(lambda x: 0.0, lo, hi, 1.0, 0.5, 16, rng)

    def test_long_run_total_variation(self, rng):
        # discretizable target: truncated standard normal on [-3, 3]
        logf = lambda x: -0.5 * x ** 2
        n = 1_000_000
        x = 0.0
        gen = np.empty(n)
        for i in range(n):
            x = slice_sample_1d(logf, -3.0, 3.0, x, 1.0, 10, rng)
            gen[i] = x
        bins = np.linspace(-3, 3, 61)
        hist, _ = np.histogram(gen, bins=bins)
        centers = 0.5 * (bins[:-1] + bins[1:])
        density = np.exp(-0.5 * centers ** 2)
        probs = density / density.sum()
        tv = 0.5 * np.abs(hist / n - probs).sum()
        assert tv < 0.02


def double_well(x):
    return -((x ** 2 - 1.0) ** 2) / 0.5


def inside(lo, hi):
    """The double well, failing the test if it is evaluated outside [lo, hi]."""
    def log_f(x):
        assert lo <= x <= hi, f"log_f evaluated at {x!r} outside [{lo!r}, {hi!r}]"
        return double_well(x)
    return log_f


class Scripted:
    """A stand-in generator whose uniforms are given, then 0.5 for ever."""

    def __init__(self, uniforms):
        self.generator, self.uniforms = self, iter(uniforms)

    def random(self):
        return next(self.uniforms, 0.5)


class TestSliceSamplerKeepsItsFormerStream:
    """The sampler gives the draws of its former form (tests/oracle.py), whose
    every evaluation sat behind a [lo, hi] test, leaves the generator in the
    same state, and never evaluates log_f outside [lo, hi]."""

    @pytest.mark.parametrize("lo, hi, width, max_stepout, start, chained", [
        (-3.0, 3.0, 0.5, 16, 1.0, True),
        (-3.0, 3.0, 0.5, 16, -3.0, False),
        (-3.0, 3.0, 0.5, 16, 3.0, False),
        (-3.0, 3.0, 0.5, 1, 0.0, True),
        (-0.2, 0.3, 5.0, 16, 0.0, True),
        (-0.2, 0.3, 5.0, 16, -0.2, False),
        (1.0, 1.0 + 1e-9, 0.25, 16, 1.0, True),
        (1.0, 1.0 + 1e-9, 0.25, 16, 1.0 + 1e-9, False),
        (-7.231090023290769, 0.0, 2.1824326502773332, 4, -7.231090023290769, False),
    ], ids=["chain", "start-at-lo", "start-at-hi", "one-step", "wide", "wide-at-lo",
            "width-1e-9", "width-1e-9-at-hi", "negative-lo"])
    def test_draws_and_generator_state_equal_the_former_form(self, lo, hi, width,
                                                             max_stepout, start, chained):
        new, old = RngHandle(2024), RngHandle(2024)
        x = y = start
        for _ in range(2000):
            x = slice_sample_1d(inside(lo, hi), lo, hi, x if chained else start,
                                width, max_stepout, new)
            y = former_slice_sample_1d(double_well, lo, hi, y if chained else start,
                                       width, max_stepout, old)
            assert type(x) is float and x == y
        assert new.get_state() == old.get_state()

    def test_a_right_end_rounded_below_lo_is_never_evaluated(self):
        # from current = lo, right = (lo - width u) + width rounds below lo when u
        # is the largest uniform; the shrinkage then proposes below lo as well
        lo, width, u = -7.231090023290769, 2.1824326502773332, 1.0 - 2.0 ** -53
        assert (lo - width * u) + width < lo
        uniforms = [0.5, u, 0.0]  # level, left end, all steps to the right
        got = slice_sample_1d(inside(lo, 0.0), lo, 0.0, lo, width, 4, Scripted(uniforms))
        assert got == former_slice_sample_1d(double_well, lo, 0.0, lo, width, 4,
                                             Scripted(uniforms)) == lo


class TestDeterminism:
    def test_equal_seeds_equal_sequences(self):
        a, b = RngHandle(99), RngHandle(99)
        seq_a = [
            draw_gamma(2.0, 3.0, a), draw_beta(0.5, 0.5, a),
            tuple(draw_dirichlet([1.0, 2.0, 3.0], a)),
            draw_categorical([1.0, 2.0], a), draw_truncated_geometric(0.4, 2, a),
        ]
        seq_b = [
            draw_gamma(2.0, 3.0, b), draw_beta(0.5, 0.5, b),
            tuple(draw_dirichlet([1.0, 2.0, 3.0], b)),
            draw_categorical([1.0, 2.0], b), draw_truncated_geometric(0.4, 2, b),
        ]
        assert seq_a == seq_b

    def test_state_roundtrip(self):
        a = RngHandle(5)
        [draw_gamma(1.0, 1.0, a) for _ in range(10)]
        assert sorted(a.get_state()) == ["bit_generator"]
        b = RngHandle.from_state(a.get_state())
        # states once also held the seed, which the generator state overrides
        c = RngHandle.from_state({"seed": 99, **a.get_state()})
        assert [a.generator.random() for _ in range(5)] == [
            b.generator.random() for _ in range(5)
        ] == [c.generator.random() for _ in range(5)]


class TestDrawHelpersKeepTheirStream:
    """Each helper gives the draws of its former form (tests/oracle.py) and
    leaves the generator in the same state; it refuses the same parameters,
    Python floats and numpy scalars alike, before drawing anything."""

    @pytest.mark.parametrize("helper, former, args", [
        # shape >= 1 only: the boost for shape < 1 draws its uniform as 1 - U now
        (draw_gamma, former_draw_gamma, [(s, r) for s in (1.0, 2.5, 300.0)
                                         for r in (1e-3, 1.0, 50.0)]),
        (draw_gamma, former_draw_gamma, [(np.float64(1.7), np.float64(3.0)), (2, 1)]),
        (draw_beta, former_draw_beta, [(0.5, 0.5), (np.float64(28.5), 32.5), (1e-3, 1e3),
                                       (np.array([0.5, 2.0, 1e-3]), np.array([0.5, 7.0, 1e3])),
                                       (np.full((2, 3), 0.5), 2.0)]),
        (draw_dirichlet, former_draw_dirichlet, [([10.0, 1.0],), ([1e-3, 1e-3, 5.0],),
                                                 (np.array([[1.0, 2.0], [3.0, 1e-3]]),)]),
    ], ids=["gamma", "gamma-numpy-and-int", "beta", "dirichlet"])
    def test_draws_and_generator_state_equal_the_former_form(self, helper, former, args):
        new, old = RngHandle(2024), RngHandle(2024)
        for _ in range(50):
            for arg in args:
                got, want = helper(*arg, new), former(*arg, old)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert new.get_state() == old.get_state()

    BAD = [0.0, -1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD + [np.float64(v) for v in BAD],
                             ids=[*map(str, BAD), *(f"np-{v}" for v in BAD)])
    def test_the_same_parameters_are_refused(self, bad):
        rng = RngHandle(3)
        before = rng.get_state()
        for helper, former, args in [
            (draw_gamma, former_draw_gamma, (bad, 1.0)),
            (draw_gamma, former_draw_gamma, (1.0, bad)),
            (draw_beta, former_draw_beta, (bad, 1.0)),
            (draw_beta, former_draw_beta, (1.0, bad)),
            (draw_beta, former_draw_beta, (np.array([0.5, bad, 2.0]), np.ones(3))),
            (draw_dirichlet, former_draw_dirichlet, ([1.0, bad],)),
            (draw_dirichlet, former_draw_dirichlet, ([[1.0, 2.0], [bad, 1.0]],)),
        ]:
            messages = []
            for f in (helper, former):
                with pytest.raises(ParameterDomainError) as refused:
                    f(*args, rng)
                messages.append(str(refused.value))
            assert messages[0] == messages[1]
        for lam in (bad, np.array([0.5, bad])):
            with pytest.raises(ParameterDomainError):
                draw_truncated_geometric(lam, 1, rng)
        assert rng.get_state() == before  # nothing was drawn


class TestShapes:
    def test_a_declared_shape_is_checked(self):
        assert in_domain("x", [1.0, 2.0], REAL, (None,)).tolist() == [1.0, 2.0]
        assert in_domain("x", [[1, 2]], REAL, (1, None)).shape == (1, 2)
        assert type(in_domain("x", 3, REAL)) is float
        for values, shape in (([1.0], ()), (1.0, (None,)), ([[1.0]], (None,)),
                              ([1.0, 2.0], (3,)), ([[1.0, 2.0]], (2, None))):
            message = re.escape(f"x has shape {np.asarray(values).shape} where {shape} is expected")
            for check in (in_domain, json_numbers):
                with pytest.raises(ValueError, match=message):
                    check("x", values, domain=REAL, shape=shape)

    @pytest.mark.parametrize("check, values, shape", [
        (in_domain, "abc", ()),
        (in_domain, ["abc", 50], (2,)),
        (in_domain, [[-5, 5], [-5]], (2, 2)),
        (in_domain, {"a": 1}, ()),
        (json_numbers, [1.0, "abc"], (None,)),
        (json_numbers, [[1.0, 2.0], [3.0]], (None, None)),
        (json_numbers, [1.0, [2.0]], (None,)),
    ], ids=["word", "word-in-list", "ragged", "mapping", "json-word", "json-ragged",
            "json-list-for-number"])
    def test_a_value_that_is_no_number_is_named(self, check, values, shape):
        with pytest.raises(ValueError, match="^x cannot be read as numbers: "):
            check("x", values, domain=REAL, shape=shape)


def test_in_domain_is_the_one_shape_check():
    # every numeric input declares its shape to in_domain (json_numbers calls the same
    # check); np.shape or .ndim anywhere else would be a second, hand-written rule
    found = []
    for path in sorted(Path(distributions.__file__).parent.glob("*.py")):
        if path.name == "distributions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and (node.attr == "ndim" or (
                    node.attr == "shape" and isinstance(node.value, ast.Name)
                    and node.value.id == "np")):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
