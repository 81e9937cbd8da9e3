"""Acceptance gate: ten end-to-end criteria with fixed thresholds.

Each test prints exactly one pass/fail line. The thresholds are part of the
contract of this package and must not be loosened to make a run pass.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare

from pdgsbr import cli
from pdgsbr.diagnostics import pare_table
from pdgsbr.distributions import (
    RngHandle,
    draw_gamma,
    slice_sample_1d,
)
from pdgsbr.dynamics import NAMED_MAPS, NoiseMixtureSpec, simulate_multi
from pdgsbr.gibbs import (
    GibbsConfig,
    geometric_posterior_params,
    parametric_tau_params,
    precision_posterior_params,
    run_chain,
    run_parametric_gaussian,
    selection_posterior_alpha,
    sweep,
    update_alloc_block,
    update_geometric_probs,
    update_precisions,
    update_selection_probs,
    update_x0,
)
from pdgsbr.model import PriorConfig, ensure_atoms, init_chain

from oracle import augmented_joint_density, mixture_partial_density, normal_pdf, residuals
from test_gibbs import batch_means_se, make_prior, single_series_state


def verdict(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def fixture_state(seed, m=2, n=10):
    rng = RngHandle(seed)
    specs = [
        (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-3,)), n, 0.4 + 0.1 * j)
        for j in range(m)
    ]
    data = simulate_multi(specs, [1] * m, rng)
    prior = make_prior(m)
    state = init_chain(data, prior, rng)
    config = GibbsConfig(iterations=5)
    for _ in range(5):
        sweep(state, data, prior, config, rng)
    return state, data, prior, rng


class TestCriterion1Conjugacy:
    def test_conjugate_kernels(self):
        ok = True
        # exact posterior parameters on 20 randomized fixtures
        for seed in range(20):
            state, data, prior, _ = fixture_state(seed)
            h = [residuals(state, data, j) for j in range(state.m)]

            shapes, rates = precision_posterior_params(state, data, prior)
            ok &= shapes.shape == rates.shape == state.atoms.values.shape
            for row, (j, l) in enumerate(state.atoms.pairs()):
                for k in range(1, state.atoms.max_size() + 1):
                    count, rsum = 0.0, 0.0
                    for jj in ((j, l) if j != l else (j,)):
                        other = l if jj == j else j
                        sel = (state.alloc.delta[jj] == other) & (state.alloc.d[jj] == k)
                        count += float(sel.sum())
                        rsum += float(h[jj][sel].sum())
                    ok &= shapes[row, k - 1] == prior.gamma_a + 0.5 * count
                    ok &= rates[row, k - 1] == pytest.approx(prior.gamma_b + 0.5 * rsum,
                                                             rel=1e-12)

            alpha = selection_posterior_alpha(state, prior)
            for j in range(state.m):
                for l in range(state.m):
                    ok &= alpha[j, l] == prior.dirichlet_alpha[j, l] + float(
                        (state.alloc.delta[j] == l).sum()
                    )

            a_post, b_post = geometric_posterior_params(state, prior)
            for (j, l), a, b in zip(state.atoms.pairs(), a_post, b_post):
                S = Sp = 0.0
                for jj in ((j, l) if j != l else (j,)):
                    other = l if jj == j else j
                    sel = state.alloc.delta[jj] == other
                    S += float(sel.sum())
                    Sp += float((state.alloc.N[jj][sel] - 1).sum())
                ok &= a == prior.beta_a[j, l] + 2.0 * S
                ok &= b == prior.beta_b[j, l] + Sp

            shape, rate = parametric_tau_params(state, data, prior)
            total_n = sum(data.lengths[j] + len(state.future[j]) for j in range(state.m))
            rss = sum(float(hj.sum()) for hj in h)
            ok &= shape == prior.gamma_a + 0.5 * total_n
            ok &= rate == pytest.approx(prior.gamma_b + 0.5 * rss, rel=1e-12)

        # empirical first two moments over 1e5 kernel draws on a frozen state
        n_draws = 100_000
        state, data, prior, rng = fixture_state(99, n=8)

        def check_moments(draws, mean, var):
            draws = np.asarray(draws)
            good = abs(draws.mean() - mean) < 4.0 * draws.std() / math.sqrt(draws.size)
            dev = (draws - mean) ** 2
            good &= abs(dev.mean() - var) < 4.0 * dev.std() / math.sqrt(draws.size)
            return good

        row = state.atoms.index[0, 1]
        shapes, rates = precision_posterior_params(state, data, prior)
        shape, rate = shapes[row, 0], rates[row, 0]
        tau_draws = np.empty(n_draws)
        for t in range(n_draws):
            update_precisions(state, data, prior, rng)
            tau_draws[t] = state.atoms.values[row, 0]
        ok &= check_moments(tau_draws, shape / rate, shape / rate ** 2)

        alpha = selection_posterior_alpha(state, prior)[0]
        a0, asum = alpha[0], alpha.sum()
        p_draws = np.empty(n_draws)
        for t in range(n_draws):
            update_selection_probs(state, prior, rng)
            p_draws[t] = state.p[0, 0]
        mean = a0 / asum
        ok &= check_moments(p_draws, mean, mean * (1.0 - mean) / (asum + 1.0))

        a_post, b_post = geometric_posterior_params(state, prior)
        a, b = a_post[state.atoms.index[0, 1]], b_post[state.atoms.index[0, 1]]
        lam_draws = np.empty(n_draws)
        for t in range(n_draws):
            update_geometric_probs(state, prior, rng)
            lam_draws[t] = state.lam[0, 1]
        mean = a / (a + b)
        ok &= check_moments(lam_draws, mean, a * b / ((a + b) ** 2 * (a + b + 1.0)))

        shape, rate = parametric_tau_params(state, data, prior)
        common = np.array([draw_gamma(shape, rate, rng) for _ in range(n_draws)])
        ok &= check_moments(common, shape / rate, shape / rate ** 2)

        verdict(1, "conjugate kernel posteriors", ok)


class TestCriterion2MarginalizationOracle:
    def test_augmented_joint_marginalizes_to_mixture(self):
        rng = np.random.default_rng(7)
        p_row = rng.dirichlet([1.0, 1.0])
        lam_row = rng.uniform(0.2, 0.8, size=2)
        tau_rows = [rng.uniform(0.5, 5.0, size=3) for _ in range(2)]
        theta = rng.normal(0.0, 0.5, size=3)
        max_err = 0.0
        for _ in range(20):
            x, x_prev = rng.uniform(-1.0, 1.0, size=2)
            total = 0.0
            for l in range(2):
                lam = lam_row[l]
                for k in range(1, 4):
                    for r in range(k, k + 60):
                        total += augmented_joint_density(
                            x, x_prev, r, k, l, theta, p_row, lam_row, tau_rows
                        )
                    # analytic geometric tail: sum_{r > R} lam^2 (1-lam)^(r-1)
                    tail = lam * (1.0 - lam) ** (k + 60)
                    g = np.polynomial.polynomial.polyval(x_prev, theta)
                    total += p_row[l] * tail * normal_pdf(x, g, tau_rows[l][k - 1])
            mix = mixture_partial_density(x, x_prev, theta, p_row, lam_row, tau_rows, 3)
            max_err = max(max_err, abs(total - mix))
        verdict(2, "slice-augmented joint marginalizes to the mixture", max_err < 1e-10)


class TestCriterion3DiscreteBlock:
    def test_block_draws_match_enumeration(self):
        n_draws = 100_000
        ok = True
        for m in (1, 2, 3):
            rng = RngHandle(100 + m)
            specs = [
                (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-2,)), 4, 0.4 + 0.05 * j)
                for j in range(m)
            ]
            data = simulate_multi(specs, [0] * m, rng)
            prior = make_prior(m, horizon=np.zeros(m, dtype=int))
            state = init_chain(data, prior, rng)
            state.p = np.full((m, m), 1.0 / m)
            state.lam = np.full((m, m), 0.3)
            # slice bounds under test on the first three points of series 1
            for j in range(m):
                state.alloc.N[j][:] = 5
                state.alloc.d[j][:] = 1
            state.alloc.N[0][:3] = [1, 2, 5]
            ensure_atoms(state, prior, rng)
            gen = np.random.default_rng(55 + m)
            # pair by pair, k = 1..5 ascending
            state.atoms.values = gen.uniform(0.5, 4.0, size=state.atoms.values.shape)

            h = residuals(state, data, 0)
            taus = state.atoms.values[state.atoms.index[0]]
            counts = {i: np.zeros((m, 5)) for i in range(3)}
            for _ in range(n_draws):
                update_alloc_block(state, data, prior, rng)
                for i in range(3):
                    counts[i][state.alloc.delta[0][i], state.alloc.d[0][i] - 1] += 1
            for i, n_slice in enumerate((1, 2, 5)):
                w = state.p[0][:, None] * np.sqrt(taus) * np.exp(-0.5 * taus * h[i])
                w[:, n_slice:] = 0.0
                w = (w / w.sum()).ravel()
                observed = counts[i].ravel()
                keep = w > 0
                if keep.sum() == 1:
                    # a single support cell leaves no degrees of freedom
                    ok &= observed[keep][0] == n_draws
                else:
                    result = chisquare(observed[keep], n_draws * w[keep])
                    ok &= result.pvalue > 0.001
        verdict(3, "joint (d, delta) block matches enumerated law", ok)


class TestCriterion4SliceSampler:
    def test_analytic_normal_target(self):
        # linear map, one observation: the x0 conditional is exactly N(0.5, 1/4)
        state, data = single_series_state([1.0, 0.5], [0.0, 2.0], [1.0], x0=0.0)
        prior = make_prior(1, R=1)
        config = GibbsConfig(iterations=1, slice_width=0.5)
        rng = RngHandle(41)
        draws = np.empty(200_000)
        for t in range(draws.size):
            update_x0(state, data, prior, rng, config)
            draws[t] = state.x0[0]
        ok = abs(draws.mean() - 0.5) < 3.0 * batch_means_se(draws)
        sq = (draws - 0.5) ** 2
        ok &= abs(sq.mean() - 0.25) < 3.0 * batch_means_se(sq)

        # trimodal cubic-well target: total variation vs quadrature
        logf = lambda x: -((x ** 3 - 3.0 * x - 0.5) ** 2) / 6.0
        rng = RngHandle(42)
        x = 0.0
        samples = np.empty(400_000)
        for t in range(samples.size):
            x = slice_sample_1d(logf, -3.0, 3.0, x, 0.5, 16, rng)
            samples[t] = x
        edges = np.linspace(-3.0, 3.0, 61)
        norm, _ = quad(lambda v: math.exp(logf(v)), -3.0, 3.0)
        expected = np.array([
            quad(lambda v: math.exp(logf(v)), a, b)[0] / norm
            for a, b in zip(edges[:-1], edges[1:])
        ])
        observed = np.histogram(samples, bins=edges)[0] / samples.size
        tv = 0.5 * np.abs(observed - expected).sum()
        ok &= tv < 0.05
        verdict(4, "slice sampler long-run law", ok)


class TestCriterion5SingleSeriesRecovery:
    def test_quintic_fit_of_quadratic_map(self):
        rng = RngHandle(314)
        specs = [(NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-4,)), 200, 1.0)]
        data = simulate_multi(specs, [1], rng)
        prior = make_prior(1)
        config = GibbsConfig(iterations=10_000, burn_in=5_000, seed=77)
        trace = run_chain(data, prior, config)
        table = pare_table(trace.theta, data)
        verdict(5, "single-series quintic recovery", table["row_mean"][0] < 2.0)


@pytest.fixture(scope="module")
def reproduce(tmp_path_factory):
    def run(experiment):
        out = tmp_path_factory.mktemp(f"acc_{experiment.lower()}")
        return cli.cmd_reproduce(experiment, "desk", out), out
    return run


class TestCriterion6BorrowingTwoQuadratics:
    def test_strong_prior_transfers_strength(self, reproduce):
        comparison, _ = reproduce("4A")
        ok = comparison["mean_pare_strong"]["2"] < comparison["mean_pare_weak"]["2"]
        ok &= comparison["boi_strong"] > 0.8
        ok &= comparison["boi_weak"] < 0.4
        verdict(6, "two-quadratic borrowing", ok)


class TestCriterion7BorrowingThreeSeries:
    def test_dependence_rescues_the_short_series(self, reproduce):
        comparison, _ = reproduce("4C")
        ok = comparison["boi_strong"] > 0.8
        ok &= comparison["boi_weak"] < 0.1
        ok &= comparison["mean_pare_strong"]["2"] < 5.0
        ok &= comparison["mean_pare_weak"]["2"] > 5.0
        verdict(7, "three-series borrowing", ok)


class TestCriterion8ParametricBaseline:
    def test_common_precision_recovery(self):
        # data seed picked so the realized noise variance sits close to the
        # nominal 1e-4; the posterior concentrates on the realized value
        rng = RngHandle(3)
        specs = [
            (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-4,)), 300, 1.0),
            (NAMED_MAPS["C1"], NoiseMixtureSpec((1.0,), (1e-4,)), 300, 1.0),
        ]
        data = simulate_multi(specs, [1, 1], rng)
        prior = make_prior(2)
        config = GibbsConfig(iterations=3_000, burn_in=1_000, seed=13)
        records = run_parametric_gaussian(data, prior, config)
        tau_mean = float(np.mean([r.tau_common for r in records]))
        verdict(8, "parametric common precision", abs(tau_mean - 1e4) / 1e4 < 0.10)


class TestCriterion9HpdiShrinkage:
    def test_strong_prior_future_interval_no_wider(self, reproduce):
        comparison, _ = reproduce("4B")
        ok = comparison["hpdi_width_strong"] <= comparison["hpdi_width_weak"]
        verdict(9, "predictive interval shrinkage", ok)


class TestCriterion10Determinism:
    def test_manifest_replay_is_byte_identical(self, tmp_path):
        doc = {
            "data": {
                "seed": 9,
                "maps": ["Q1", "C1"],
                "n": [40, 25],
                "x0": [1.0, 1.0],
                "horizon": [1, 1],
                "components": {
                    "1,1": {"weights": [1.0], "variances": [1.0e-4]},
                    "2,2": {"weights": [1.0], "variances": [1.0e-4]},
                },
                "selection": [[1.0, 0.0], [0.0, 1.0]],
            },
            "prior": {"poly_degree": 3, "horizon": [1, 1],
                      "dirichlet_alpha": [[1, 1], [1, 1]]},
            "sampler": {"iterations": 150, "burn_in": 30, "seed": 5},
        }
        sim = tmp_path / "sim"
        cli.cmd_simulate(doc, sim)
        run = tmp_path / "run"
        cli.cmd_run(doc, sim / "data.json", run)

        ok = True
        for original in (sim, run):
            manifest = json.loads((original / "manifest.json").read_text())
            replay = tmp_path / f"replay_{original.name}"
            if manifest["command"] == "simulate":
                cli.cmd_simulate(manifest["config"], replay)
            else:
                cli.cmd_run(manifest["config"], sim / "data.json", replay)
            for name in sorted(os.listdir(original)):
                if name == "checkpoint.json" and not (replay / name).exists():
                    ok = False
                    continue
                with open(original / name, "rb") as fa, open(replay / name, "rb") as fb:
                    ok &= fa.read() == fb.read()
        verdict(10, "manifest replay determinism", ok)
