import copy
import inspect
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

from pdgsbr import cli, gibbs
from pdgsbr.distributions import RngHandle, draw_gamma
from pdgsbr.dynamics import (
    NAMED_MAPS,
    MultiSeries,
    NoiseMixtureSpec,
    eval_map,
    simulate_multi,
)
from pdgsbr.errors import ConfigError, SingularDesignError
from pdgsbr.gibbs import (
    SLICE_BOUND_CAP,
    GibbsConfig,
    _alloc_chunks,
    geometric_posterior_params,
    parametric_tau_params,
    precision_posterior_params,
    run_chain,
    run_parametric_gaussian,
    sample_noise_predictive,
    selection_posterior_alpha,
    sweep,
    update_alloc_block,
    update_future,
    update_geometric_probs,
    update_precisions,
    update_selection_probs,
    update_slice_N,
    update_theta,
    update_x0,
)
from pdgsbr.model import (
    Allocations,
    AtomTable,
    ChainState,
    PriorConfig,
    ensure_atoms,
    init_chain,
    load_checkpoint,
    write_trace_jsonl,
)

from oracle import (
    alloc_cell_probs,
    augmented_joint_density,
    former_sample_noise_predictive,
    former_update_alloc_block,
    loop_precision_posterior_params,
    loop_update_future,
    loop_update_geometric_probs,
    loop_update_selection_probs,
    loop_update_slice_N,
    mixture_partial_density,
    normal_pdf,
    residuals,
)

N_KERNEL = 20_000


def batch_means_se(samples, n_batches=100):
    samples = np.asarray(samples)
    size = len(samples) // n_batches
    means = samples[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


def forward_paths_in_support(theta, x_n, taus, support, size=400_000, seed=53):
    """Rejection-sampled reference law of an out-of-sample path: forward-chain
    paths x_k = g(x_{k-1}) + N(0, 1/tau_k) from x_n, kept iff every point
    lies in ``support``. Returns the kept paths and the share cut off."""
    gen = np.random.default_rng(seed)
    paths = np.empty((size, len(taus)))
    x = np.full(size, x_n)
    for k, tau in enumerate(taus):
        x = paths[:, k] = eval_map(theta, x) + gen.standard_normal(size) / math.sqrt(tau)
    lo, hi = support
    inside = np.all((paths >= lo) & (paths <= hi), axis=1)
    return paths[inside], 1.0 - inside.mean()


def path_moments(found, expected):
    """(found, expected) sample pairs of the first and second moments of a
    two-point path: x1, x2, x1^2, x2^2 and x1 x2."""
    def stats(paths):
        x1, x2 = paths.T
        return x1, x2, x1 ** 2, x2 ** 2, x1 * x2
    return list(zip(stats(found), stats(expected)))


def make_prior(m, R=5, **kw):
    defaults = dict(
        m=m,
        dirichlet_alpha=np.full((m, m), 1.0),
        beta_a=np.full((m, m), 0.5),
        beta_b=np.full((m, m), 0.5),
        poly_degree=R,
    )
    defaults.update(kw)
    return PriorConfig(**defaults)


def single_series_state(series, theta, atom_values, horizon=0, lam=0.5,
                        future=None, d=None, N=None, x0=0.0):
    """Hand-built m = 1 chain state with every latent pinned."""
    n = len(series) + horizon
    atoms = AtomTable(1)
    for v in atom_values:
        atoms.append(0, 0, v)
    K = len(atom_values)
    alloc = Allocations(
        delta=[np.zeros(n, dtype=int)],
        d=[np.asarray(d if d is not None else np.ones(n), dtype=int)],
        N=[np.asarray(N if N is not None else np.full(n, K), dtype=int)],
    )
    state = ChainState(
        atoms=atoms,
        alloc=alloc,
        p=np.array([[1.0]]),
        lam=np.array([[lam]]),
        theta=[np.asarray(theta, dtype=float)],
        x0=np.array([x0]),
        future=[np.asarray(future if future is not None else [], dtype=float)],
    )
    data = MultiSeries(series=[np.asarray(series, dtype=float)])
    return state, data


def random_fixture(seed, m=2, n=25):
    """A randomized multi-series state after a few warm-up sweeps."""
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


def fourc_state(seed=5):
    """A 4C chain state (m = 3, 423 points) after a few warm-up sweeps."""
    doc = cli.bundled_config("4C")
    specs, horizons, selection, data_seed = cli.parse_data_block(doc["data"])
    data = simulate_multi(specs, horizons, RngHandle(data_seed), selection)
    prior = cli.parse_prior_block(doc["prior"], data.m, alpha_key="dirichlet_alpha_strong")
    rng = RngHandle(seed)
    state = init_chain(data, prior, rng)
    config = GibbsConfig(iterations=5)
    for _ in range(5):
        sweep(state, data, prior, config, rng)
    return state, data, prior, rng


def pin_slice_bounds(state, prior, rng, bounds):
    """Set every N_ji to ``bounds`` (one array per series), keep d <= N and
    grow the atoms to the new N*."""
    for j, N in enumerate(bounds):
        state.alloc.N[j][:] = N
        state.alloc.d[j][:] = np.minimum(state.alloc.d[j], state.alloc.N[j])
    ensure_atoms(state, prior, rng)


def live_cells(state):
    """Live cells of every point, flat in series order: m min(N_ji, N*)."""
    return state.m * np.minimum(state.alloc.flat[2], state.atoms.max_size())


def assert_alloc_follows_its_law(state, data, prior, rng, draws=N_KERNEL):
    """Per point, the chi-square statistic of ``draws`` kernel draws against
    the oracle's normalized cell probabilities, cells of expected count
    below 5 pooled. The points are independent, so the sum of their
    statistics is chi-square with the summed degrees of freedom; it must not
    fall in the top 1e-3 tail. A cell of probability 0 must never be drawn."""
    probs = alloc_cell_probs(state, data)
    K = state.atoms.max_size()
    counts = np.zeros(probs.shape, dtype=np.int32)
    points = np.arange(probs.shape[0])
    for _ in range(draws):
        update_alloc_block(state, data, prior, rng)
        pair, d = state.alloc.flat[:2]
        delta = pair - state.alloc.series * state.m
        counts[points, delta * K + d - 1] += 1
    assert counts[probs == 0].sum() == 0
    total = dof = 0.0
    for p, observed in zip(probs, counts):
        expected = draws * p
        common = expected >= 5
        obs, exp = list(observed[common]), list(expected[common])
        rare_obs, rare_exp = observed[~common].sum(), expected[~common].sum()
        if rare_exp >= 5:
            obs.append(rare_obs)
            exp.append(rare_exp)
        else:  # too rare for a bin of its own: pool it with the largest one
            top = int(np.argmax(exp))
            obs[top] += rare_obs
            exp[top] += rare_exp
        total += chisquare(obs, exp).statistic if len(exp) > 1 else 0.0
        dof += len(exp) - 1
    assert dof > 0 and chi2.sf(total, dof) > 1e-3


class TestPosteriorParameterAudits:
    """Compare the vectorized posterior-parameter helpers against plain loops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_precision_params_match_brute_force(self, seed):
        state, data, prior, _ = random_fixture(seed)
        shape, rate = precision_posterior_params(state, data, prior)
        assert shape.shape == rate.shape == state.atoms.values.shape
        h = [residuals(state, data, j) for j in range(state.m)]
        for row, (j, l) in enumerate(state.atoms.pairs()):
            for k in range(1, state.atoms.max_size() + 1):
                count, rsum = 0.0, 0.0
                for jj in ((j, l) if j != l else (j,)):
                    other = l if jj == j else j
                    sel = (state.alloc.delta[jj] == other) & (state.alloc.d[jj] == k)
                    count += sel.sum()
                    rsum += h[jj][sel].sum()
                assert shape[row, k - 1] == pytest.approx(prior.gamma_a + 0.5 * count, rel=1e-12)
                assert rate[row, k - 1] == pytest.approx(prior.gamma_b + 0.5 * rsum, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_selection_alpha_matches_brute_force(self, seed):
        state, _, prior, _ = random_fixture(seed)
        alpha = selection_posterior_alpha(state, prior)
        for j in range(state.m):
            for l in range(state.m):
                expected = prior.dirichlet_alpha[j, l] + (state.alloc.delta[j] == l).sum()
                assert alpha[j, l] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_geometric_params_match_brute_force(self, seed):
        state, _, prior, _ = random_fixture(seed)
        a_post, b_post = geometric_posterior_params(state, prior)
        assert a_post.shape == b_post.shape == (len(state.atoms.pairs()),)
        for (j, l), a, b in zip(state.atoms.pairs(), a_post, b_post):
            S, Sp = 0.0, 0.0
            for jj in ((j, l) if j != l else (j,)):
                other = l if jj == j else j
                sel = state.alloc.delta[jj] == other
                S += sel.sum()
                Sp += (state.alloc.N[jj][sel] - 1).sum()
            assert a == pytest.approx(prior.beta_a[j, l] + 2.0 * S, rel=1e-14)
            assert b == pytest.approx(prior.beta_b[j, l] + Sp, rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_parametric_params_match_brute_force(self, seed):
        state, data, prior, _ = random_fixture(seed)
        shape, rate = parametric_tau_params(state, data, prior)
        total = sum(data.lengths[j] + len(state.future[j]) for j in range(state.m))
        rss = sum(residuals(state, data, j).sum() for j in range(state.m))
        assert shape == pytest.approx(prior.gamma_a + 0.5 * total, rel=1e-14)
        assert rate == pytest.approx(prior.gamma_b + 0.5 * rss, rel=1e-12)


class TestKernelsKeepTheLoopStream:
    """The vectorized kernels that keep the random stream: from equal
    generator states on a 4C state, each gives the outputs of its former
    per-series loop (tests/oracle.py) bit for bit and leaves the generators
    in equal states."""

    def test_residuals_equal_the_per_series_eval_map(self):
        # zero and negative predecessors included: x0 of series 2, and points
        # of series 1 pinned to 0.0, -0.0 and a negative value
        state, data, _, _ = fourc_state()
        data.series[0][:3] = 0.0, -0.0, -1.5
        state.x0[1] = -0.0
        expected = np.concatenate([residuals(state, data, j) for j in range(state.m)])
        assert np.array_equal(gibbs.residuals(state, data), expected)

    def test_precision_params_equal_the_loop(self):
        state, data, prior, _ = fourc_state()
        shape, rate = precision_posterior_params(state, data, prior)
        loop_shape, loop_rate = loop_precision_posterior_params(state, data, prior)
        assert np.array_equal(shape, loop_shape) and np.array_equal(rate, loop_rate)

    @pytest.mark.parametrize("kernel, loop", [
        (update_slice_N, loop_update_slice_N),
        (update_selection_probs, loop_update_selection_probs),
        (update_geometric_probs, loop_update_geometric_probs),
    ], ids=["slice_N", "selection", "geometric"])
    def test_kernel_equals_the_loop(self, kernel, loop):
        state, data, prior, rng = fourc_state()
        expected, loop_rng = copy.deepcopy(state), RngHandle.from_state(rng.get_state())
        for _ in range(3):
            kernel(state, prior, rng)
            loop(expected, prior, loop_rng)
            assert state.to_dict() == expected.to_dict()
            assert rng.get_state() == loop_rng.get_state()
            update_alloc_block(state, data, prior, rng)  # move on to new counts
            expected.alloc = copy.deepcopy(state.alloc)
            loop_rng = RngHandle.from_state(rng.get_state())


class TestMarginalizationIdentity:
    def test_summing_out_the_augmentation_recovers_the_mixture(self):
        # summing the joint of (x, N, d, delta) over d <= N and delta recovers
        # the leading-K mixture transition density, term by analytic term
        rng = np.random.default_rng(17)
        theta = rng.normal(size=4)
        p_row = np.array([0.3, 0.7])
        lam_row = np.array([0.4, 0.6])
        tau_rows = [rng.gamma(2.0, 1.0, size=3) + 0.1 for _ in range(2)]
        K, R_MAX = 3, 4000
        for _ in range(10):
            x, x_prev = rng.normal(size=2)
            total = 0.0
            for l in range(2):
                for k in range(1, K + 1):
                    for r in range(k, R_MAX + 1):
                        total += augmented_joint_density(
                            x, x_prev, r, k, l, theta, p_row, lam_row, tau_rows
                        )
            expected = mixture_partial_density(x, x_prev, theta, p_row, lam_row, tau_rows, K)
            assert total == pytest.approx(expected, abs=1e-10)

    def test_slice_constraint_zeroes_the_joint(self):
        args = (0.1, 0.2, 1, 2, 0, [0.0], [1.0], [0.5], [[1.0, 2.0]])
        assert augmented_joint_density(*args) == 0.0

    def test_normal_pdf_oracle(self):
        # scipy.stats.norm.pdf(0.3, 1.0, 0.5) with precision 4
        assert normal_pdf(0.3, 1.0, 4.0) == pytest.approx(0.29945493127148975, rel=1e-12)


class TestAllocBlockKernel:
    def test_exact_enumeration_frequencies(self):
        # m = 1, flat map g = 0, two atoms: the block probabilities are
        # proportional to sqrt(tau_k) exp(-tau_k x_i^2 / 2) for k <= N_i = 2
        state, data = single_series_state([0.1, 0.2], [0.0], [1.0, 4.0])
        prior = make_prior(1, R=0)
        rng = RngHandle(21)
        w = np.sqrt([1.0, 4.0]) * np.exp(-0.5 * np.array([1.0, 4.0]) * 0.1 ** 2)
        expected_p2 = w[1] / w.sum()
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_alloc_block(state, data, prior, rng)
            draws[t] = state.alloc.d[0][0]
        freq2 = (draws == 2).mean()
        assert abs(freq2 - expected_p2) < 3.0 * math.sqrt(expected_p2 * (1 - expected_p2) / N_KERNEL)
        assert np.all(state.alloc.delta[0] == 0)

    def test_slice_bound_masks_higher_clusters(self):
        state, data = single_series_state(
            [0.1, 0.2], [0.0], [1e-8, 1e8], N=[1, 1]
        )
        prior = make_prior(1, R=0)
        rng = RngHandle(3)
        for _ in range(200):
            update_alloc_block(state, data, prior, rng)
            assert np.all(state.alloc.d[0] == 1)  # k = 2 is above every N_i

    def test_two_series_measure_selection(self):
        # one shared pair with a precision wildly better-matched to the data
        # pulls the off-diagonal measure with high probability
        rng = RngHandle(8)
        specs = [
            (NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-4,)), 30, 0.4),
            (NAMED_MAPS["Q2"], NoiseMixtureSpec((1.0,), (1e-4,)), 30, 0.5),
        ]
        data = simulate_multi(specs, [0, 0], rng)
        prior = make_prior(2)
        state = init_chain(data, prior, rng)
        state.p = np.array([[0.5, 0.5], [0.5, 0.5]])
        for j in range(2):
            # pin every slice bound to 1 so only the first atom is reachable
            state.alloc.d[j][:] = 1
            state.alloc.N[j][:] = 1
        # diagonal atom is hopeless (tiny precision), shared atom is right
        state.atoms.values[state.atoms.index[0, 0], 0] = 1e-10
        state.atoms.values[state.atoms.index[0, 1], 0] = 1e4
        state.atoms.values[state.atoms.index[1, 1], 0] = 1e-10
        update_alloc_block(state, data, prior, rng)
        assert (state.alloc.delta[0] == 1).mean() > 0.95
        assert (state.alloc.delta[1] == 0).mean() > 0.95


def ragged_nan_state():
    """An m = 2 state on a hand-built ragged atom table: 6 of its 15 cells
    are NaN, and slice bounds up to 7 run past its K = 5 atoms."""
    rng = RngHandle(4)
    specs = [(NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-3,)), 30, 0.4),
             (NAMED_MAPS["Q2"], NoiseMixtureSpec((1.0,), (1e-3,)), 20, 0.5)]
    data = simulate_multi(specs, [1, 1], rng)
    prior = make_prior(2)
    state = init_chain(data, prior, rng)
    atoms = AtomTable(2)
    for (j, l), values in {(0, 0): [50.0, 900.0, 2.0], (0, 1): [300.0],
                           (1, 1): [1e3, 10.0, 4e4, 0.5, 80.0]}.items():
        for v in values:
            atoms.append(j, l, v)
    assert np.isnan(atoms.values).sum() == 6
    state.atoms = atoms
    state.p = np.array([[0.3, 0.7], [0.6, 0.4]])
    mix = np.random.default_rng(3)
    for j in range(2):  # bounds past K = 5 score every stored atom
        state.alloc.N[j][:] = mix.integers(1, 8, size=state.alloc.N[j].size)
    return state, data, prior, rng


def mixed_bounds_fourc_state():
    """A 4C state whose bounds are a third 1-10, a third 100-600 and a third
    at the cap: about 1 M live cells, several chunks of the block."""
    state, data, prior, rng = fourc_state()
    mix = np.random.default_rng(11)
    bounds = []
    for N in state.alloc.N:
        kind = mix.integers(3, size=N.size)
        bounds.append(np.select([kind == 0, kind == 1],
                                [mix.integers(1, 11, size=N.size),
                                 mix.integers(100, 601, size=N.size)],
                                SLICE_BOUND_CAP))
    pin_slice_bounds(state, prior, rng, bounds)
    return state, data, prior, rng


def mixed_bounds_single_series_state():
    """An m = 1 state of 8 points with bounds 1-4 on 4 atoms."""
    state, data = single_series_state(np.linspace(-0.4, 0.5, 8), [0.1, 0.9],
                                      [1.0, 30.0, 4.0, 900.0], N=[1, 4, 2, 4, 3, 1, 4, 2])
    return state, data, make_prior(1, R=1), RngHandle(6)


class TestAllocBlockMatchesDenseOracle:
    """The Gumbel-max kernel against the law of the dense oracle. Its draws
    cannot equal those of an inverse-CDF oracle, so each law test is a
    per-point chi-square of N_KERNEL draws. A state too large for that is
    checked exactly: the block must draw the same in one chunk as in many."""

    def test_4c_state_with_mixed_bounds(self):
        # each cell gets one uniform in point order, whatever the chunking, so
        # the block in one chunk and in chunks of ALLOC_CELL_BUDGET cells must
        # draw the same, and it is exact (a law test at this size would take
        # minutes)
        state, data, prior, rng = mixed_bounds_fourc_state()
        assert len(list(_alloc_chunks(live_cells(state)))) >= 3
        whole, whole_rng = copy.deepcopy(state), RngHandle.from_state(rng.get_state())
        for _ in range(3):
            update_alloc_block(state, data, prior, rng)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gibbs, "ALLOC_CELL_BUDGET", 2 ** 40)
                assert len(list(_alloc_chunks(live_cells(whole)))) == 1
                update_alloc_block(whole, data, prior, whole_rng)
            assert state.to_dict() == whole.to_dict()
            assert rng.get_state() == whole_rng.get_state()

    def test_4c_state_with_a_few_large_bounds(self):
        # most bounds small, one per series in the hundreds, two at the cap
        # with 6 000 live cells each, so the block splits in chunks
        state, data, prior, rng = fourc_state()
        mix = np.random.default_rng(11)
        bounds = [mix.integers(1, 11, size=N.size) for N in state.alloc.N]
        for N in bounds:
            N[mix.integers(N.size)] = mix.integers(100, 601)
        bounds[0][7] = bounds[2][3] = SLICE_BOUND_CAP
        pin_slice_bounds(state, prior, rng, bounds)
        assert len(list(_alloc_chunks(live_cells(state)))) >= 2
        assert_alloc_follows_its_law(state, data, prior, rng)

    def test_ragged_atom_table_with_nan_cells(self):
        assert_alloc_follows_its_law(*ragged_nan_state())

    def test_single_series(self):
        assert_alloc_follows_its_law(*mixed_bounds_single_series_state())

    def test_small_cell_budget_splits_the_block_in_chunks(self, monkeypatch):
        monkeypatch.setattr(gibbs, "ALLOC_CELL_BUDGET", 64)
        state, data, prior, rng = ragged_nan_state()
        assert len(list(_alloc_chunks(live_cells(state)))) >= 3
        assert_alloc_follows_its_law(state, data, prior, rng)

    def test_peak_memory_is_bounded_by_the_cell_budget(self):
        # one dense array at the cap is 423 x 3 x 2000 doubles, about 20 MB
        state, data, prior, rng = fourc_state()
        pin_slice_bounds(state, prior, rng, [np.full(N.size, SLICE_BOUND_CAP)
                                             for N in state.alloc.N])
        tracemalloc.start()
        try:
            update_alloc_block(state, data, prior, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestAllocChunks:
    """The points whose first live cell falls in the same block of
    ALLOC_CELL_BUDGET cells form one chunk of the allocation block."""

    @pytest.mark.parametrize("budget", [64, 1000, gibbs.ALLOC_CELL_BUDGET])
    def test_chunks_are_the_blocks_of_the_first_cells(self, budget, monkeypatch):
        monkeypatch.setattr(gibbs, "ALLOC_CELL_BUDGET", budget)
        mix = np.random.default_rng(budget)
        for trial in range(200):
            m, n = mix.integers(1, 4), mix.integers(1, 500)
            width = mix.integers(1, [11, 601, SLICE_BOUND_CAP + 1][trial % 3], size=n)
            width[mix.random(n) < 0.05] = SLICE_BOUND_CAP
            cells = m * width
            first = cells.cumsum() - cells
            chunks = list(_alloc_chunks(cells))
            assert [start for start, _, _ in chunks] == [0] + [stop for _, stop, _ in chunks[:-1]]
            assert chunks[-1][1] == n
            for start, stop, offset in chunks:
                assert start < stop
                assert np.array_equal(offset, np.cumsum([0, *cells[start:stop - 1]]))
                held = offset[-1] + cells[stop - 1]
                assert held < budget + cells[stop - 1]
            block = first // budget
            assert all(block[start] == block[stop - 1] for start, stop, _ in chunks)
            assert all(block[stop - 1] < block[stop] for _, stop, _ in chunks[:-1])


FORMER_STATES = {"4c-mixed-bounds": mixed_bounds_fourc_state, "ragged-nan": ragged_nan_state,
                 "single-series": mixed_bounds_single_series_state}


class TestKernelsKeepTheirFormerStream:
    """The allocation block and the noise predictive give what their former
    forms (tests/oracle.py) give, bit for bit, and leave the generators in
    equal states."""

    @pytest.mark.parametrize("make", FORMER_STATES.values(), ids=FORMER_STATES)
    def test_alloc_block_equals_the_former_form(self, make):
        state, data, prior, rng = make()
        former, former_rng = copy.deepcopy(state), RngHandle.from_state(rng.get_state())
        for _ in range(3):
            update_alloc_block(state, data, prior, rng)
            former_update_alloc_block(former, data, prior, former_rng)
            assert np.array_equal(state.alloc.flat, former.alloc.flat)
            assert rng.get_state() == former_rng.get_state()

    @pytest.mark.parametrize("make", FORMER_STATES.values(), ids=FORMER_STATES)
    def test_noise_predictive_equals_the_former_form(self, make):
        # 200 calls a state; on the NaN-ragged and single-series states about 39
        # and 10 of them draw a fresh tail atom
        state, _, prior, rng = make()
        former_rng = RngHandle.from_state(rng.get_state())
        for _ in range(200):
            got = sample_noise_predictive(state, prior, rng)
            want = former_sample_noise_predictive(state, prior, former_rng)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.get_state() == former_rng.get_state()

    def test_pooling_keeps_an_infinite_sum(self):
        # a residual that overflowed to inf, on a diagonal atom row and on an
        # off-diagonal one: each row's rate stays inf, and no rate is NaN
        state, data, prior, _ = fourc_state()
        pair, d, _ = state.alloc.flat
        row = state.atoms.index.ravel()[pair]
        diagonal = pair // state.m == pair % state.m
        h = gibbs.residuals(state, data)
        picks = [np.flatnonzero(diagonal)[0], np.flatnonzero(~diagonal)[-1]]
        h[picks] = np.inf
        shape, rate = precision_posterior_params(state, data, prior, h)
        assert not np.isnan(rate).any()
        assert np.isinf(rate[row[picks], d[picks] - 1]).all()
        assert np.isfinite(rate).sum() == rate.size - 2


class TestSliceBoundKernel:
    def test_truncated_geometric_law(self):
        state, data = single_series_state([0.1, 0.2], [0.0], [1.0], d=[3, 1], N=[3, 1])
        prior = make_prior(1, R=0)
        rng = RngHandle(13)
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            state.alloc.d[0][:] = [3, 1]  # keep the conditioning fixed
            update_slice_N(state, prior, rng)
            assert np.all(state.alloc.N[0] >= state.alloc.d[0])
            draws[t] = state.alloc.N[0][0]
        # N - d is geometric(lam = 0.5): P(N = 3) = 0.5, mean = 3 + 1
        freq = (draws == 3).mean()
        assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / N_KERNEL)
        assert abs(draws.mean() - 4.0) < 3.0 * draws.std() / math.sqrt(N_KERNEL)

    def test_atoms_grow_with_the_bound(self):
        state, data, prior, rng = random_fixture(2)
        update_slice_N(state, prior, rng)
        n_star = max(int(N.max()) for N in state.alloc.N)
        assert state.atoms.max_size() >= n_star
        for j, l in state.atoms.pairs():
            assert state.atoms.size(j, l) >= n_star


class TestConjugateKernels:
    def test_precision_kernel_moments(self):
        state, data, prior, rng = random_fixture(1)
        row = state.atoms.index[0, 1]
        shapes, rates = precision_posterior_params(state, data, prior)
        shape, rate = shapes[row, 0], rates[row, 0]
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_precisions(state, data, prior, rng)
            draws[t] = state.atoms.values[row, 0]
        se = draws.std() / math.sqrt(N_KERNEL)
        assert abs(draws.mean() - shape / rate) < 4.0 * se

    def test_selection_kernel_moments(self):
        state, _, prior, rng = random_fixture(3)
        data = None
        alpha = selection_posterior_alpha(state, prior)
        draws = np.empty((N_KERNEL, state.m))
        for t in range(N_KERNEL):
            update_selection_probs(state, prior, rng)
            draws[t] = state.p[0]
        expected = alpha[0] / alpha[0].sum()
        for l in range(state.m):
            se = draws[:, l].std() / math.sqrt(N_KERNEL)
            assert abs(draws[:, l].mean() - expected[l]) < 4.0 * se
        assert np.allclose(state.p.sum(axis=1), 1.0)

    def test_geometric_kernel_moments_and_symmetry(self):
        state, _, prior, rng = random_fixture(4)
        a_post, b_post = geometric_posterior_params(state, prior)
        a, b = a_post[state.atoms.index[0, 1]], b_post[state.atoms.index[0, 1]]
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_geometric_probs(state, prior, rng)
            assert state.lam[0, 1] == state.lam[1, 0]
            draws[t] = state.lam[0, 1]
        se = draws.std() / math.sqrt(N_KERNEL)
        assert abs(draws.mean() - a / (a + b)) < 4.0 * se


class TestThetaKernel:
    def test_constant_map_exact_posterior(self):
        # flat prior, unit precisions, targets (1, 2, 3): theta ~ N(2, 1/3)
        state, data = single_series_state([1.0, 2.0, 3.0], [0.0], [1.0])
        prior = make_prior(1, R=0)
        rng = RngHandle(31)
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_theta(state, data, prior, rng)
            draws[t] = state.theta[0][0]
        se = draws.std() / math.sqrt(N_KERNEL)
        assert abs(draws.mean() - 2.0) < 4.0 * se
        sq = (draws - 2.0) ** 2
        assert abs(sq.mean() - 1.0 / 3.0) < 4.0 * sq.std() / math.sqrt(N_KERNEL)

    def test_weighted_least_squares_oracle(self):
        # heteroskedastic linear fit: the posterior mean solves the normal
        # equations with per-point precision weights
        gen = np.random.default_rng(5)
        series = gen.normal(size=12).cumsum() / 3.0
        taus = [2.0, 8.0]
        d = gen.integers(1, 3, size=12)
        state, data = single_series_state(series, [0.0, 0.0], taus, d=d, N=np.full(12, 2), x0=0.3)
        prior = make_prior(1, R=1)
        xs = np.concatenate(([0.3], series))
        V = np.vander(xs[:-1], 2, increasing=True)
        w = np.asarray(taus)[d - 1]
        A = V.T @ (V * w[:, None])
        mu = np.linalg.solve(A, V.T @ (w * xs[1:]))
        cov = np.linalg.inv(A)
        rng = RngHandle(32)
        draws = np.empty((N_KERNEL, 2))
        for t in range(N_KERNEL):
            update_theta(state, data, prior, rng)
            draws[t] = state.theta[0]
        for r in range(2):
            se = draws[:, r].std() / math.sqrt(N_KERNEL)
            assert abs(draws[:, r].mean() - mu[r]) < 4.0 * se
        sample_cov = np.cov(draws.T)
        assert np.allclose(sample_cov, cov, rtol=0.1, atol=1e-4)

    def test_singular_design_raises(self):
        state, data = single_series_state(np.full(20, 0.7), np.zeros(6), [1.0])
        prior = make_prior(1, R=5)
        with pytest.raises(SingularDesignError) as exc:
            update_theta(state, data, prior, RngHandle(0))
        assert exc.value.series == 0


class TestInitialConditionKernel:
    def test_linear_map_gives_exact_normal(self):
        # g(x) = 2x, x_1 = 1, tau = 1: the full conditional is N(0.5, 1/4)
        state, data = single_series_state([1.0, 0.5], [0.0, 2.0], [1.0], x0=0.0)
        prior = make_prior(1, R=1)
        config = GibbsConfig(iterations=1, slice_width=0.5)
        rng = RngHandle(41)
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_x0(state, data, prior, rng, config)
            draws[t] = state.x0[0]
        assert abs(draws.mean() - 0.5) < 3.0 * batch_means_se(draws)
        sq = (draws - 0.5) ** 2
        assert abs(sq.mean() - 0.25) < 3.0 * batch_means_se(sq)

    def test_respects_support(self):
        state, data = single_series_state([1.0, 0.5], [0.0, 2.0], [1.0], x0=0.0)
        prior = make_prior(1, R=1, x0_support=np.array([[-0.1, 0.1]]))
        rng = RngHandle(42)
        for _ in range(500):
            update_x0(state, data, prior, rng, GibbsConfig(iterations=1))
            assert -0.1 <= state.x0[0] <= 0.1

    def test_target_equals_the_eval_map_expression(self):
        # bit for bit, as the out-of-sample kernel's forward steps are checked
        # against tests/oracle.py's eval_map loop
        for coeffs in (NAMED_MAPS["Q1"], NAMED_MAPS["C1"], (0.3, -1.2, 0.0, 2.0)):
            log_f = gibbs._point_target(list(coeffs), 37.5, -0.41)
            for v in (0.0, -0.0, -1.3, 0.55, 4.9, -5.0):
                assert log_f(v) == -0.5 * 37.5 * (-0.41 - eval_map(coeffs, v)) ** 2

    def test_multimodal_target_visits_both_roots(self):
        # quadratic g: two real roots of g(x) = x_1 give two posterior modes;
        # a moderate precision keeps the valley shallow enough for the
        # stepping-out procedure to bridge
        state, data = single_series_state(
            [0.5, 0.2], NAMED_MAPS["Q1"], [10.0], x0=0.55
        )
        prior = make_prior(1, R=5)
        rng = RngHandle(43)
        draws = np.empty(4000)
        for t in range(4000):
            update_x0(state, data, prior, rng, GibbsConfig(iterations=1))
            draws[t] = state.x0[0]
        # roots of 1 - 1.65 x^2 = 0.5 are +/- sqrt(0.5/1.65) ~ +/- 0.5505
        assert (draws > 0.3).any() and (draws < -0.3).any()


class TestFutureKernel:
    def test_terminal_point_is_exact_normal(self):
        state, data = single_series_state(
            [0.2, -0.4], [0.0, 1.5], [4.0], horizon=1, future=[0.0]
        )
        prior = make_prior(1, R=1, horizon=np.array([1]))
        rng = RngHandle(51)
        mean = 1.5 * -0.4
        draws = np.empty(N_KERNEL)
        for t in range(N_KERNEL):
            update_future(state, data, prior, rng, GibbsConfig(iterations=1))
            draws[t] = state.future[0][0]
        se = draws.std() / math.sqrt(N_KERNEL)
        assert abs(draws.mean() - mean) < 4.0 * se
        sq = (draws - mean) ** 2
        assert abs(sq.mean() - 0.25) < 4.0 * sq.std() / math.sqrt(N_KERNEL)

    @pytest.mark.parametrize("theta, rejected", [
        ([0.0, 0.8], (0.0, 0.0)),
        (list(NAMED_MAPS["Q1"][:3]), (0.02, 0.05)),
    ], ids=["linear", "quadratic"])
    def test_path_follows_the_forward_chain_in_the_support(self, theta, rejected):
        # nothing after x_{n+2} is observed, so the path's law is the forward
        # chain from x_n restricted to the support [-5, 5]; under Q1 at
        # tau = 2 the support cuts off about 3 % of the chain's paths
        tau, x_n = 2.0, -0.5
        state, data = single_series_state([0.2, x_n], theta, [tau], horizon=2, future=[0.0, 0.0])
        prior = make_prior(1, R=len(theta) - 1, horizon=np.array([2]))
        reference, cut = forward_paths_in_support(theta, x_n, [tau, tau], prior.x0_support[0])
        assert rejected[0] <= cut <= rejected[1]
        rng = RngHandle(52)
        draws = np.empty((N_KERNEL, 2))
        for t in range(N_KERNEL):
            update_future(state, data, prior, rng, GibbsConfig(iterations=1))
            draws[t] = state.future[0]
        assert np.all(np.abs(draws) <= 5.0)
        for found, expected in path_moments(draws, reference):
            bound = 4.0 * math.hypot(batch_means_se(found),
                                     expected.std() / math.sqrt(expected.size))
            assert abs(found.mean() - expected.mean()) < bound

    def test_one_update_from_the_truncated_joint_keeps_it(self):
        # N_KERNEL independent states start from exact draws of the
        # truncated joint of (x_{n+1}, x_{n+2}) under Q1 and take one update
        # each; the new paths must follow that joint, and a path is kept
        # about as often as the support cuts a forward path off
        tau, x_n, theta = 2.0, -0.5, list(NAMED_MAPS["Q1"][:3])
        state, data = single_series_state([0.2, x_n], theta, [tau], horizon=2)
        prior = make_prior(1, R=2, horizon=np.array([2]))
        reference, cut = forward_paths_in_support(theta, x_n, [tau, tau], prior.x0_support[0])
        old, reference = reference[:N_KERNEL], reference[N_KERNEL:]
        rng = RngHandle(63)
        new = np.empty((N_KERNEL, 2))
        for t in range(N_KERNEL):
            state.future[0] = old[t].copy()
            update_future(state, data, prior, rng, GibbsConfig(iterations=1))
            new[t] = state.future[0]
        kept = np.all(new == old, axis=1).mean()
        assert abs(kept - cut) < 4.0 * math.sqrt(cut / N_KERNEL)
        for found, expected in path_moments(new, reference):
            bound = 4.0 * math.hypot(found.std() / math.sqrt(N_KERNEL),
                                     expected.std() / math.sqrt(expected.size))
            assert abs(found.mean() - expected.mean()) < bound

    def test_new_path_is_independent_of_the_old(self):
        # linear map, precisions (2, 2e5): x_{n+1} and x_{n+2} are coupled
        # with correlation about 0.99999, which froze point-wise updates. A
        # block draw that the support never rejects moves every point, and
        # the new path is uncorrelated with the old one
        a, x_n = 0.8, -0.5
        state, data = single_series_state(
            [0.2, x_n], [0.0, a], [50.0, 2.0, 2e5], horizon=2, d=[1, 1, 2, 3]
        )
        prior = make_prior(1, R=1, horizon=np.array([2]))
        joint = np.random.default_rng(61)
        old = np.empty((N_KERNEL, 2))
        old[:, 0] = a * x_n + joint.standard_normal(N_KERNEL) / math.sqrt(2.0)
        old[:, 1] = a * old[:, 0] + joint.standard_normal(N_KERNEL) / math.sqrt(2e5)
        rng = RngHandle(62)
        new = np.empty((N_KERNEL, 2))
        for t in range(N_KERNEL):
            state.future[0] = old[t].copy()
            update_future(state, data, prior, rng, GibbsConfig(iterations=1))
            new[t] = state.future[0]
        assert np.all(new != old)
        for x in new.T:
            for y in old.T:
                r = np.corrcoef(x, y)[0, 1]
                assert abs(r) < 4.0 / math.sqrt(N_KERNEL)

    def test_proposal_leaving_a_tight_support_keeps_the_path(self):
        # g(x) = 2x from x_n = 0.04 with near-zero noise: the proposal's first
        # point 0.08 lies in [-0.1, 0.1], its second 0.16 does not, so the
        # whole old path stays; the draw still uses one normal per point
        state, data = single_series_state([0.2, 0.04], [0.0, 2.0], [1e12], horizon=2,
                                          future=[0.0, 0.05])
        prior = make_prior(1, R=1, horizon=np.array([2]), x0_support=np.array([[-0.1, 0.1]]))
        rng = RngHandle(73)
        gen = RngHandle.from_state(rng.get_state()).generator
        gen.standard_normal(2)
        update_future(state, data, prior, rng, GibbsConfig(iterations=1))
        assert state.future[0].tolist() == [0.0, 0.05]
        assert rng.generator.bit_generator.state == gen.bit_generator.state

    def test_tiny_precision_terminal_point_stays_in_the_support(self):
        # a terminal point allocated to tau = 8e-6 proposes with sd ~350: it
        # must stay in [-5, 5] and move only when a proposal lands there
        state, data = single_series_state([0.2, -0.4], [0.0, 1.5], [8e-6], horizon=1,
                                          future=[0.0])
        prior = make_prior(1, R=1, horizon=np.array([1]))
        rng = RngHandle(74)
        draws = np.empty(2000)
        for t in range(draws.size):
            update_future(state, data, prior, rng, GibbsConfig(iterations=1))
            draws[t] = state.future[0][0]
        assert np.all(np.abs(draws) <= 5.0)
        assert 0.0 < np.mean(np.diff(draws) != 0) < 0.05

    def test_long_horizon_parametric_chain_stays_in_the_support(self):
        # 4A with 20 held-out points per series: an unbounded forward draw
        # runs away here and halts the chain with a singular theta design
        doc = cli.bundled_config("4A")
        doc["data"]["horizon"] = [20, 20]
        specs, horizons, selection, data_seed = cli.parse_data_block(doc["data"])
        data = simulate_multi(specs, horizons, RngHandle(data_seed), selection)
        doc["prior"]["horizon"] = horizons
        prior = cli.parse_prior_block(doc["prior"], data.m)
        records = run_parametric_gaussian(data, prior, GibbsConfig(iterations=400, seed=75))
        assert len(records) == 400
        for record in records:
            for f, (lo, hi) in zip(record.future, prior.x0_support):
                assert f.size == 20 and np.all((f >= lo) & (f <= hi))

    @pytest.mark.parametrize("tau_override", [None, 2.0], ids=["mixture", "common"])
    def test_mixed_horizons_follow_the_point_loop(self, tau_override):
        # horizons (0, 1, 4): the one-call forward pass must give the
        # futures of a loop of scalar normal draws bit for bit from equal
        # generators; the third series' tight support rejects some paths
        rng = RngHandle(71)
        specs = [(NAMED_MAPS[name], NoiseMixtureSpec((0.7, 0.3), (1e-4, 1e-2)), 20, 0.3)
                 for name in ("Q1", "Q2", "Q3")]
        data = simulate_multi(specs, [0, 1, 4], rng)
        prior = make_prior(3, R=2, horizon=np.array([0, 1, 4]),
                           x0_support=np.array([[-5.0, 5.0], [-5.0, 5.0], [-1.0, 0.7]]))
        state = init_chain(data, prior, rng)
        config = GibbsConfig(iterations=1)
        for _ in range(3):
            sweep(state, data, prior, config, rng)
        kept = 0
        for _ in range(20):
            expected, loop_rng = copy.deepcopy(state), RngHandle.from_state(rng.get_state())
            untouched, before = state.future[0], state.future[2].copy()
            update_future(state, data, prior, rng, config, tau_override)
            loop_update_future(expected, data, prior, loop_rng, tau_override)
            assert [f.size for f in state.future] == [0, 1, 4]
            assert state.future[0] is untouched
            assert all(np.array_equal(f, e) for f, e in zip(state.future, expected.future))
            assert rng.get_state() == loop_rng.get_state()
            kept += np.array_equal(state.future[2], before)
            update_alloc_block(state, data, prior, rng)  # move on to new precisions
        assert 0 < kept < 20

    def test_unit_horizons_draw_one_scalar_normal_per_series(self):
        state, data, prior, rng = random_fixture(8)
        assert [f.size for f in state.future] == [1, 1]
        gen = RngHandle.from_state(rng.get_state()).generator
        expected = []
        for j in range(state.m):
            delta, d = state.alloc.delta[j][-1], state.alloc.d[j][-1]
            tau = float(state.atoms.values[state.atoms.index[j, delta], d - 1])
            expected.append([gen.normal(eval_map(state.theta[j].tolist(), float(data.series[j][-1])),
                                        tau ** -0.5)])
        update_future(state, data, prior, rng, GibbsConfig(iterations=1))
        assert [f.tolist() for f in state.future] == expected
        assert rng.generator.bit_generator.state == gen.bit_generator.state

    def test_zero_horizon_is_a_no_op(self):
        state, data = single_series_state([0.2, -0.4], [0.0, 1.5], [4.0])
        prior = make_prior(1, R=1, horizon=np.array([0]))
        before = RngHandle(1).generator.random()
        rng = RngHandle(1)
        update_future(state, data, prior, rng, GibbsConfig(iterations=1))
        assert rng.generator.random() == before  # no randomness consumed


class TestNoisePredictive:
    def test_degenerate_geometric_uses_first_atom(self):
        tau = 25.0
        state, _ = single_series_state([0.1, 0.2], [0.0], [tau], lam=1 - 1e-12)
        prior = make_prior(1, R=0)
        rng = RngHandle(61)
        draws = np.array([sample_noise_predictive(state, prior, rng)[0] for _ in range(N_KERNEL)])
        sq = draws ** 2
        se = sq.std() / math.sqrt(N_KERNEL)
        assert abs(sq.mean() - 1.0 / tau) < 4.0 * se

    def test_tail_lump_frequency(self):
        # lam = 0.01 with one stored atom: the tail carries mass 0.99 and its
        # fresh base-measure atoms (a = b = 1000, tau ~ 1) give visibly wider
        # draws than the stored tau = 1e8 atom
        state, _ = single_series_state([0.1, 0.2], [0.0], [1e8], lam=0.01)
        prior = make_prior(1, R=0, gamma_a=1000.0, gamma_b=1000.0)
        rng = RngHandle(62)
        draws = np.array([sample_noise_predictive(state, prior, rng)[0] for _ in range(N_KERNEL)])
        wide = (np.abs(draws) > 1e-3).mean()
        assert abs(wide - 0.99) < 3.0 * math.sqrt(0.99 * 0.01 / N_KERNEL) + 1e-3


    def test_selection_row_picks_the_pair(self):
        # m = 2, lam ~ 1 so only each pair's first atom is drawn: the pairs
        # {0, 0} and {1, 1} have tau = 1e8 (|z| < 1e-3 almost surely), {0, 1}
        # has tau = 1, so a series draws a wide z with its probability of
        # selecting the other one: 0.8 for series 0, 0.5 for series 1
        atoms = AtomTable(2, [[1e8], [1.0], [1e8]])
        state = ChainState(
            atoms=atoms,
            alloc=Allocations(delta=[np.zeros(1, dtype=int)] * 2, d=[np.ones(1, dtype=int)] * 2,
                              N=[np.ones(1, dtype=int)] * 2),
            p=np.array([[0.2, 0.8], [0.5, 0.5]]), lam=np.full((2, 2), 1 - 1e-12),
            theta=[np.zeros(1)] * 2, x0=np.zeros(2), future=[np.zeros(0)] * 2)
        rng = RngHandle(63)
        draws = np.array([sample_noise_predictive(state, make_prior(2, R=0), rng)
                          for _ in range(N_KERNEL)])
        wide = (np.abs(draws) > 1e-3).mean(axis=0)
        assert abs(wide[0] - 0.8) < 4.0 * math.sqrt(0.16 / N_KERNEL)
        assert abs(wide[1] - 0.5) < 4.0 * math.sqrt(0.25 / N_KERNEL)


def kernel_by_kernel_sweep(state, data, prior, config, rng):
    """``sweep`` as its kernels called one by one in scan order, each
    building its own per-point arrays."""
    update_alloc_block(state, data, prior, rng)
    update_slice_N(state, prior, rng)
    update_precisions(state, data, prior, rng)
    update_selection_probs(state, prior, rng)
    update_geometric_probs(state, prior, rng)
    update_theta(state, data, prior, rng)
    update_x0(state, data, prior, rng, config)
    update_future(state, data, prior, rng, config)
    z = sample_noise_predictive(state, prior, rng)
    state.iteration += 1
    return state, z


def kernel_by_kernel_parametric_sweep(state, data, prior, config, rng):
    """``parametric_sweep`` likewise."""
    shape, rate = parametric_tau_params(state, data, prior)
    state.tau_common = tau = draw_gamma(shape, rate, rng)
    update_theta(state, data, prior, rng, tau_override=tau)
    update_x0(state, data, prior, rng, config, tau_override=tau)
    update_future(state, data, prior, rng, config, tau_override=tau)
    z = rng.generator.normal(0.0, tau ** -0.5, size=state.m)
    state.iteration += 1
    return state, z


def test_kernels_read_the_stored_pair_labels():
    # Allocations.flat[0] holds each point's pair label j * m + delta_ji, so no
    # kernel rebuilds it or takes it as an argument
    assert not hasattr(gibbs, "_pair_labels")
    takes_pair = [name for name, function in inspect.getmembers(gibbs, inspect.isfunction)
                  if function.__module__ == gibbs.__name__
                  and "pair" in inspect.signature(function).parameters]
    assert takes_pair == []


class TestSweepSharesItsArrays:
    """A sweep builds each per-point array (path points, residuals, allocated
    precisions) once and hands it on; it must give what its kernels give
    called one by one, bit for bit."""

    def assert_same_chain(self, step, replay, state, data, prior, rng, sweeps=24):
        """Run ``step`` and ``replay`` from equal states and generators;
        returns the number of sweeps that grew the atom table."""
        alone, alone_rng = copy.deepcopy(state), RngHandle.from_state(rng.get_state())
        config = GibbsConfig(iterations=sweeps)
        grew = 0
        for _ in range(sweeps):
            n_star = state.atoms.max_size()
            _, z = step(state, data, prior, config, rng)
            _, z_alone = replay(alone, data, prior, config, alone_rng)
            assert np.array_equal(z, z_alone)
            assert state.to_dict() == alone.to_dict()
            assert rng.get_state() == alone_rng.get_state()
            grew += state.atoms.max_size() > n_star
        return grew

    def test_mixture_sweep_on_a_4c_state(self):
        state, data, prior, rng = fourc_state(seed=8)
        assert self.assert_same_chain(sweep, kernel_by_kernel_sweep,
                                      state, data, prior, rng) >= 1

    def test_mixture_sweep_with_a_chunked_allocation_block(self, monkeypatch):
        monkeypatch.setattr(gibbs, "ALLOC_CELL_BUDGET", 256)
        state, data, prior, rng = fourc_state(seed=9)
        assert len(list(_alloc_chunks(live_cells(state)))) >= 3
        assert self.assert_same_chain(sweep, kernel_by_kernel_sweep,
                                      state, data, prior, rng) >= 1

    def test_parametric_sweep_on_a_horizon_20_4a_state(self):
        doc = cli.bundled_config("4A")
        doc["data"]["horizon"] = doc["prior"]["horizon"] = [20, 20]
        specs, horizons, selection, data_seed = cli.parse_data_block(doc["data"])
        data = simulate_multi(specs, horizons, RngHandle(data_seed), selection)
        prior = cli.parse_prior_block(doc["prior"], data.m)
        rng = RngHandle(12)
        state = init_chain(data, prior, rng)
        state.tau_common = 1.0
        self.assert_same_chain(gibbs.parametric_sweep, kernel_by_kernel_parametric_sweep,
                               state, data, prior, rng)


class TestDrivers:
    def small_run(self, seed=7, **cfg):
        rng = RngHandle(seed)
        specs = [(NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-3,)), 30, 0.4)]
        data = simulate_multi(specs, [1], rng)
        prior = make_prior(1)
        defaults = dict(iterations=40, burn_in=0, thinning=1, seed=5)
        defaults.update(cfg)
        return data, prior, GibbsConfig(**defaults)

    def test_retention_arithmetic(self):
        data, prior, _ = self.small_run()
        config = GibbsConfig(iterations=100, burn_in=50, thinning=5, seed=5)
        records = run_chain(data, prior, config)
        assert len(records) == 10
        assert records[0].iteration == 55
        assert records[-1].iteration == 100

    def test_sweep_determinism(self):
        data, prior, config = self.small_run()
        a = run_chain(data, prior, config)
        b = run_chain(data, prior, config)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.theta[0], rb.theta[0])
            assert np.array_equal(ra.x0, rb.x0)
            assert np.array_equal(ra.z_pred, rb.z_pred)
            assert ra.n_star == rb.n_star

    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        data, prior, _ = self.small_run()
        full_cfg = GibbsConfig(iterations=60, burn_in=0, thinning=1, seed=5)
        full = run_chain(data, prior, full_cfg)

        part_cfg = GibbsConfig(iterations=30, burn_in=0, thinning=1, seed=5)
        ck = tmp_path / "checkpoint.json"
        first = run_chain(data, prior, part_cfg, checkpoint_path=ck)
        state, rng = load_checkpoint(ck, data, prior)
        second = run_chain(data, prior, full_cfg, resume=(state, rng))

        combined = list(first) + list(second)
        assert len(combined) == len(full)
        for ra, rb in zip(combined, full):
            assert ra.iteration == rb.iteration
            assert np.array_equal(ra.theta[0], rb.theta[0])
            assert np.array_equal(ra.x0, rb.x0)
            assert np.array_equal(ra.future[0], rb.future[0])
            assert np.array_equal(ra.z_pred, rb.z_pred)

    def former_form_resumes_byte_for_byte(self, tmp_path, former):
        """A 30-sweep checkpoint rewritten by ``former`` (its doc -> text)
        resumes to the end checkpoint and trace bytes of the checkpoint as written."""
        data, prior, _ = self.small_run()
        part_cfg = GibbsConfig(iterations=30, burn_in=0, thinning=1, seed=5)
        compact = tmp_path / "compact.json"
        run_chain(data, prior, part_cfg, checkpoint_path=compact)
        old = tmp_path / "old.json"
        old.write_text(former(json.loads(compact.read_text()), part_cfg))
        assert old.read_bytes() != compact.read_bytes()
        full_cfg = GibbsConfig(iterations=60, burn_in=0, thinning=1, seed=5,
                               checkpoint_interval=10)
        for name in ("compact", "old"):
            state, rng = load_checkpoint(tmp_path / f"{name}.json", data, prior)
            records = run_chain(data, prior, full_cfg, resume=(state, rng),
                                checkpoint_path=tmp_path / f"{name}_end.json")
            write_trace_jsonl(tmp_path / f"{name}.jsonl", records,
                              csv_path=tmp_path / f"{name}.csv")
        for suffix in ("_end.json", ".jsonl", ".csv"):
            assert (tmp_path / f"old{suffix}").read_bytes() == \
                (tmp_path / f"compact{suffix}").read_bytes()

    def test_indented_checkpoint_resumes_byte_for_byte(self, tmp_path):
        # checkpoints were once written by json.dump(doc, fh, indent=1)
        self.former_form_resumes_byte_for_byte(
            tmp_path, lambda doc, config: json.dumps(doc, indent=1))

    def test_checkpoint_with_its_config_resumes_byte_for_byte(self, tmp_path):
        # checkpoints once also carried the run's GibbsConfig, which no reader used
        self.former_form_resumes_byte_for_byte(
            tmp_path, lambda doc, config: json.dumps({**doc, "config": asdict(config)}))

    def test_checkpoint_with_m_and_seed_resumes_byte_for_byte(self, tmp_path):
        # checkpoints once also carried the state's m and the rng's seed, which
        # the data and the generator state fix
        self.former_form_resumes_byte_for_byte(tmp_path, lambda doc, config: json.dumps({
            "state": {"m": 1, **doc["state"]}, "rng": {"seed": config.seed, **doc["rng"]}}))

    @pytest.mark.parametrize("writer, reader", [(run_parametric_gaussian, run_chain),
                                                (run_chain, run_parametric_gaussian)])
    def test_resume_from_the_other_sampler_is_refused_before_any_sweep(
            self, tmp_path, monkeypatch, writer, reader):
        data, prior, _ = self.small_run()
        writer(data, prior, GibbsConfig(iterations=20, seed=5), checkpoint_path=tmp_path / "ck")
        state, rng = load_checkpoint(tmp_path / "ck", data, prior)

        def swept(*args):
            raise AssertionError("a sweep ran")
        monkeypatch.setattr(gibbs, "sweep", swept)
        monkeypatch.setattr(gibbs, "parametric_sweep", swept)
        with pytest.raises(ConfigError, match="written by the"):
            reader(data, prior, GibbsConfig(iterations=40, seed=5), resume=(state, rng))
        # the library call keeps the run's own check too: nothing left to keep
        with pytest.raises(ConfigError, match="keeps no sweep"):
            writer(data, prior, GibbsConfig(iterations=20, seed=5), resume=(state, rng))

    def test_halt_records_sweep_index(self):
        # constant series: the control-parameter draw must fail on sweep 1
        data = MultiSeries(series=[np.full(25, 0.7)])
        prior = make_prior(1)
        with pytest.raises(SingularDesignError) as exc:
            run_chain(data, prior, GibbsConfig(iterations=5, seed=3))
        assert exc.value.iteration == 1

    def test_parametric_precision_recovery(self):
        # well-specified Gaussian noise: the pooled precision concentrates
        # near the generating value 1 / sigma^2 = 100
        rng = RngHandle(71)
        specs = [(NAMED_MAPS["Q1"], NoiseMixtureSpec((1.0,), (1e-2,)), 150, 0.4)]
        data = simulate_multi(specs, [1], rng)
        prior = make_prior(1)
        config = GibbsConfig(iterations=600, burn_in=200, seed=9)
        records = run_parametric_gaussian(data, prior, config)
        taus = np.array([r.tau_common for r in records])
        assert records[0].p is None and records[0].n_star is None
        assert 60 < taus.mean() < 160

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, thinning=0)
        with pytest.raises(ValueError):  # would keep no sweep
            GibbsConfig(iterations=20, burn_in=10, thinning=11)
        assert GibbsConfig(iterations=20, burn_in=10, thinning=10).thinning == 10
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, slice_width=-1.0)
        for width in (math.nan, math.inf):  # a NaN width once hung the slice sampler
            with pytest.raises(ValueError):
                GibbsConfig(iterations=10, slice_width=width)
