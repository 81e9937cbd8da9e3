"""Full-conditional kernels and chain drivers.

One sweep applies, in a fixed documented order: the (d, delta) block, the
slice bounds N (with atom growth), the precisions, the selection rows, the
geometric probabilities, the control parameters, the initial conditions, the
out-of-sample points, and finally the noise-predictive draws. Any fixed scan
order is a valid Gibbs sampler; fixing it makes traces reproducible.

All mixture weights are computed in log space with max-subtraction: the
precisions span many orders of magnitude and linear-space products underflow.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass
from typing import Optional, get_type_hints

import numpy as np

from .distributions import (
    RngHandle,
    draw_beta,
    draw_categorical,
    draw_dirichlet,
    draw_gamma,
    draw_truncated_geometric,
    slice_sample_1d,
)
from .dynamics import MultiSeries, eval_map
from .errors import SingularDesignError
from .model import (
    ChainState,
    PriorConfig,
    TraceRecord,
    as_int,
    ensure_atoms,
    geometric_weights,
    init_chain,
    save_checkpoint,
)

logger = logging.getLogger(__name__)

# Slice-sampling window for interior out-of-sample points (their flat prior
# needs a bounded support; orbits of interest live deep inside it).
FUTURE_SUPPORT = (-1e6, 1e6)

# Condition-number threshold beyond which a control-parameter draw refuses to
# proceed; silently regularizing would change the stated model.
THETA_COND_LIMIT = 1e12

# Hard ceiling on the slice bounds N. A freshly drawn geometric probability
# on a currently unused pair can be arbitrarily close to 0, which would make
# the bound (and with it the atom table and the allocation block) explode by
# orders of magnitude for one transient sweep. Truncating at 2000 discards
# mixture mass of at most (1 - lambda)^2000, which only matters in exactly
# those transient states.
SLICE_BOUND_CAP = 2000

# Most cells one chunk of the allocation block scores at once (see
# update_alloc_block), so its memory does not grow with N*.
ALLOC_CELL_BUDGET = 2 ** 16


@dataclass
class GibbsConfig:
    """Run-length and tuning knobs of one chain."""

    iterations: int
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    slice_width: float = 0.25
    max_stepout: int = 16
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        for name, kind in get_type_hints(GibbsConfig).items():  # "100" -> 100, 1 -> 1.0
            setattr(self, name, (as_int if kind is int else kind)(getattr(self, name)))
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError("need iterations > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.slice_width <= 0 or self.max_stepout < 1:
            raise ValueError("invalid slice-sampler tuning")


# --- shared helpers -----------------------------------------------------------

def full_path(state: ChainState, data: MultiSeries, j: int) -> np.ndarray:
    """The complete state sequence x_{j,0}, ..., x_{j,n_j+T_j} of series j."""
    return np.concatenate(([state.x0[j]], data.series[j], state.future[j]))


def residuals(state: ChainState, data: MultiSeries, j: int) -> np.ndarray:
    """Squared residuals h_i = (x_{ji} - g_j(theta_j, x_{j,i-1}))^2, i = 1..n_j+T_j."""
    xs = full_path(state, data, j)
    preds = eval_map(state.theta[j], xs[:-1])
    return (xs[1:] - preds) ** 2


def _tau_per_point(state: ChainState, j: int, tau_common: Optional[float] = None) -> np.ndarray:
    """Precision of every point of series j: ``tau_common`` when given (the
    parametric baseline), else the allocated tau_{j, delta_ji, d_ji}."""
    delta = state.alloc.delta[j]
    if tau_common is not None:
        return np.full(delta.size, tau_common, dtype=float)
    return state.atoms.values[state.atoms.index[j, delta], state.alloc.d[j] - 1]


def _point_target(coefficients, tau_in, g_prev, tau_out, x_next):
    """Log full conditional of a latent point v between x_prev and x_next:
    -1/2 (tau_in (v - g(x_prev))^2 + tau_out (x_next - g(v))^2). The initial
    condition has no predecessor: tau_in = 0."""
    def log_f(v):
        return -0.5 * (tau_in * (v - g_prev) ** 2
                       + tau_out * (x_next - eval_map(coefficients, v)) ** 2)
    return log_f


def pool_pairs(x: np.ndarray, upper) -> np.ndarray:
    """Per-series sums x[j, l, ...] pooled over the pairs ``upper`` (atom-row
    order): x[j, j] on the diagonal, x[j, l] + x[l, j] off it."""
    j, l = upper
    pooled = x[j, l]
    off = j < l
    pooled[off] += x[l[off], j[off]]
    return pooled


# --- posterior-parameter helpers (kernels draw from these; tests audit them) ---

def precision_posterior_params(state: ChainState, data: MultiSeries, prior: PriorConfig):
    """Gamma (shape, rate) of every atom's full conditional, as two (P, K)
    arrays laid out like ``state.atoms.values``.

    Counts and residual sums run over the whole augmented index range
    i = 1..n_j+T_j and pool both series of an off-diagonal pair.
    """
    m = state.m
    K = state.atoms.max_size()
    counts = np.zeros((m, m, K))
    rsums = np.zeros((m, m, K))
    for j in range(m):
        h = residuals(state, data, j)
        cells = (state.alloc.delta[j], state.alloc.d[j] - 1)
        np.add.at(counts[j], cells, 1.0)
        np.add.at(rsums[j], cells, h)
    upper = state.atoms.upper
    return (prior.gamma_a + 0.5 * pool_pairs(counts, upper),
            prior.gamma_b + 0.5 * pool_pairs(rsums, upper))


def selection_posterior_alpha(state: ChainState, prior: PriorConfig) -> np.ndarray:
    """Dirichlet parameters alpha_{jl} + #{i : delta_ji = l} for every row."""
    m = state.m
    counts = np.zeros((m, m))
    for j in range(m):
        np.add.at(counts[j], state.alloc.delta[j], 1.0)
    return prior.dirichlet_alpha + counts


def geometric_posterior_params(state: ChainState, prior: PriorConfig):
    """Beta (a, b) of every lambda_{jl} full conditional, as two length-P
    arrays over the pairs j <= l in atom-row order.

    Uses S_{jl} = #{i : delta_ji = l} and S'_{jl} = sum over those i of
    (N_ji - 1); an off-diagonal pair pools both orientations.
    """
    m = state.m
    S = np.zeros((m, m))
    Sp = np.zeros((m, m))
    for j in range(m):
        np.add.at(S[j], state.alloc.delta[j], 1.0)
        np.add.at(Sp[j], state.alloc.delta[j], state.alloc.N[j] - 1.0)
    upper = state.atoms.upper
    return (prior.beta_a[upper] + 2.0 * pool_pairs(S, upper),
            prior.beta_b[upper] + pool_pairs(Sp, upper))


def parametric_tau_params(state: ChainState, data: MultiSeries, prior: PriorConfig):
    """Gamma (shape, rate) of the common-precision full conditional."""
    total_n = sum(data.lengths[j] + len(state.future[j]) for j in range(state.m))
    rss = sum(float(residuals(state, data, j).sum()) for j in range(state.m))
    return prior.gamma_a + 0.5 * total_n, prior.gamma_b + 0.5 * rss


# --- the nine kernels -----------------------------------------------------------

def _alloc_chunks(bounds: np.ndarray, m: int):
    """Cut points sorted by ascending slice bound into consecutive (start,
    stop) runs whose dense block (points x m x largest bound) stays within
    ALLOC_CELL_BUDGET cells; a single point always forms a run."""
    start = 0
    while start < bounds.size:
        cells = np.arange(1, bounds.size - start + 1) * m * bounds[start:]
        stop = start + max(1, int(np.searchsorted(cells, ALLOC_CELL_BUDGET, side="right")))
        yield start, stop
        start = stop


def update_alloc_block(state: ChainState, data: MultiSeries, prior: PriorConfig,
                       rng: RngHandle) -> ChainState:
    """Jointly redraw (d_ji, delta_ji) from p_{jl} N(x_ji | g_j, 1/tau_{jlk}).

    The support is l = 1..m, k = 1..N_ji; weights are normalized in log space
    so extreme precisions can never underflow the whole block to zero.

    All series are scored in one pass, in chunks of points with similar N_ji
    (see ``_alloc_chunks``), each at the width of its largest bound. A cell
    past a point's bound weighs exactly 0, so it leaves the running sum of
    the inverse CDF unchanged and is never the cell drawn: the draws equal
    those of one dense (n_j, m, N*) block per series, with one uniform per
    point in series order.
    """
    m = state.m
    sizes = [delta.size for delta in state.alloc.delta]
    h = np.concatenate([residuals(state, data, j) for j in range(m)])
    u = rng.generator.random(h.size)
    taus = state.atoms.values[state.atoms.index]  # (m, m, K): series j scores taus[j]
    with np.errstate(invalid="ignore"):
        base = np.log(state.p)[:, :, None] + 0.5 * np.log(taus)
    half_taus = 0.5 * taus
    bounds = np.minimum(np.concatenate(state.alloc.N), taus.shape[2])
    order = np.argsort(bounds, kind="stable")
    h, u, bounds = h[order], u[order], bounds[order]
    series = np.repeat(np.arange(m), sizes)[order]
    delta, d = np.empty(h.size, dtype=int), np.empty(h.size, dtype=int)
    for start, stop in _alloc_chunks(bounds, m):
        width = int(bounds[stop - 1])
        rows = series[start:stop]
        logw = base[rows, :, :width]
        logw -= half_taus[rows, :, :width] * h[start:stop, None, None]
        dead = np.arange(width) >= bounds[start:stop, None, None]
        np.copyto(logw, -np.inf, where=dead | ~np.isfinite(logw))
        flat = logw.reshape(stop - start, m * width)
        flat -= flat.max(axis=1, keepdims=True)
        cdf = np.cumsum(np.exp(flat, out=flat), axis=1, out=flat)
        target = u[start:stop] * cdf[:, -1]
        idx = np.minimum((cdf < target[:, None]).sum(axis=1), m * width - 1)
        points = order[start:stop]
        delta[points], d[points] = idx // width, idx % width + 1
    offsets = [0, *itertools.accumulate(sizes)]
    state.alloc.delta[:] = [delta[a:b] for a, b in zip(offsets, offsets[1:])]
    state.alloc.d[:] = [d[a:b] for a, b in zip(offsets, offsets[1:])]
    return state


def update_slice_N(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Redraw every slice bound (capped at SLICE_BOUND_CAP) and resize the atoms."""
    for j in range(state.m):
        d = state.alloc.d[j]
        bound = draw_truncated_geometric(state.lam[j, state.alloc.delta[j]], d, rng)
        state.alloc.N[j] = np.maximum(np.minimum(bound, SLICE_BOUND_CAP), d)
    return ensure_atoms(state, prior, rng)


def update_precisions(state: ChainState, data: MultiSeries, prior: PriorConfig,
                      rng: RngHandle) -> ChainState:
    """Conjugate gamma redraw of every stored atom, in row order."""
    shape, rate = precision_posterior_params(state, data, prior)
    draws = [draw_gamma(a, b, rng)
             for a, b in zip(shape.ravel().tolist(), rate.ravel().tolist())]
    state.atoms.values = np.reshape(draws, shape.shape)
    return state


def update_selection_probs(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Conjugate Dirichlet redraw of every selection row."""
    alpha_post = selection_posterior_alpha(state, prior)
    for j in range(state.m):
        state.p[j] = draw_dirichlet(alpha_post[j], rng)
    return state


def update_geometric_probs(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Conjugate beta redraw of every geometric probability (mirrored)."""
    a, b = geometric_posterior_params(state, prior)
    j, l = state.atoms.upper
    draws = [draw_beta(x, y, rng) for x, y in zip(a.tolist(), b.tolist())]
    state.lam[j, l] = state.lam[l, j] = draws
    return state


def update_theta(state: ChainState, data: MultiSeries, prior: PriorConfig,
                 rng: RngHandle, tau_override: Optional[float] = None) -> ChainState:
    """Exact multivariate-normal redraw of each coefficient vector.

    Under the flat prior the full conditional is Gaussian with precision
    matrix sum_i tau_i v_i v_i' over the monomial designs v_i. A condition
    estimate above THETA_COND_LIMIT is an error, never a silent ridge.
    """
    R = prior.poly_degree
    for j in range(state.m):
        xs = full_path(state, data, j)
        V = np.vander(xs[:-1], R + 1, increasing=True)
        tau_i = _tau_per_point(state, j, tau_override)
        A = V.T @ (V * tau_i[:, None])
        b = V.T @ (tau_i * xs[1:])
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > THETA_COND_LIMIT:
            raise SingularDesignError(j, cond)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(j) from exc
        mu = np.linalg.solve(A, b)
        z = rng.generator.standard_normal(R + 1)
        state.theta[j] = mu + np.linalg.solve(L.T, z)
    return state


def update_x0(state: ChainState, data: MultiSeries, prior: PriorConfig,
              rng: RngHandle, config: GibbsConfig,
              tau_override: Optional[float] = None) -> ChainState:
    """One slice transition per initial condition.

    The exponent is a polynomial in x0 and can be multimodal (modes near the
    real roots of g(x) - x_1), hence the slice sampler instead of anything
    assuming log-concavity.
    """
    for j in range(state.m):
        tau = float(_tau_per_point(state, j, tau_override)[0])
        log_f = _point_target(state.theta[j].tolist(), 0.0, 0.0, tau, float(data.series[j][0]))
        lo, hi = prior.x0_support[j].tolist()
        current = min(max(float(state.x0[j]), lo), hi)
        state.x0[j] = slice_sample_1d(log_f, lo, hi, current,
                                      config.slice_width, config.max_stepout, rng)
    return state


def update_future(state: ChainState, data: MultiSeries, prior: PriorConfig,
                  rng: RngHandle, config: GibbsConfig,
                  tau_override: Optional[float] = None) -> ChainState:
    """Redraw the out-of-sample points: slice transitions for the interior
    ones (two Gaussian factors in the exponent) and an exact normal for the
    terminal one."""
    lo, hi = FUTURE_SUPPORT
    for j in range(state.m):
        T = len(state.future[j])
        if T == 0:
            continue
        n = data.lengths[j]
        coefficients = state.theta[j].tolist()
        # xs[k] is x_{j,n+k}, k = 0..T; taus[k - 1] is its precision, k = 1..T
        xs = [float(data.series[j][-1])] + state.future[j].tolist()
        taus = _tau_per_point(state, j, tau_override)[n:].tolist()

        for k in range(1, T):
            log_f = _point_target(coefficients, taus[k - 1], eval_map(coefficients, xs[k - 1]),
                                  taus[k], xs[k + 1])
            xs[k] = slice_sample_1d(log_f, lo, hi, min(max(xs[k], lo), hi),
                                    config.slice_width, config.max_stepout, rng)

        mean = eval_map(coefficients, xs[T - 1])
        xs[T] = rng.generator.normal(mean, taus[T - 1] ** -0.5)
        state.future[j] = np.asarray(xs[1:])
    return state


def sample_noise_predictive(state: ChainState, prior: PriorConfig, rng: RngHandle) -> np.ndarray:
    """Per-series draw from the noise predictive.

    Scans the updated selection row, then the geometric weights with the
    exact tail lump; a tail selection draws a fresh atom from the base
    measure.
    """
    n_star = state.atoms.max_size()
    z = np.empty(state.m)
    for j in range(state.m):
        l = draw_categorical(state.p[j], rng)
        weights = geometric_weights(state.lam[j, l], n_star)
        k = draw_categorical(weights, rng)
        if k == n_star:  # tail lump
            tau = draw_gamma(prior.gamma_a, prior.gamma_b, rng)
        else:
            tau = float(state.atoms.values[state.atoms.index[j, l], k])
        z[j] = rng.generator.normal(0.0, tau ** -0.5)
    return z


def sweep(state: ChainState, data: MultiSeries, prior: PriorConfig,
          config: GibbsConfig, rng: RngHandle):
    """One full Gibbs scan. Returns the state and the noise-predictive draws."""
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


def parametric_sweep(state: ChainState, data: MultiSeries, prior: PriorConfig,
                     config: GibbsConfig, rng: RngHandle):
    """One scan of the common-precision Gaussian baseline."""
    shape, rate = parametric_tau_params(state, data, prior)
    state.tau_common = draw_gamma(shape, rate, rng)
    tau = state.tau_common
    update_theta(state, data, prior, rng, tau_override=tau)
    update_x0(state, data, prior, rng, config, tau_override=tau)
    update_future(state, data, prior, rng, config, tau_override=tau)
    z = rng.generator.normal(0.0, tau ** -0.5, size=state.m)
    state.iteration += 1
    return state, z


def _record(state: ChainState, z: np.ndarray) -> TraceRecord:
    parametric = state.tau_common is not None  # only the baseline sets it
    return TraceRecord(
        iteration=state.iteration,
        theta=[t.copy() for t in state.theta],
        p=None if parametric else state.p.copy(),
        lam=None if parametric else state.lam.copy(),
        x0=state.x0.copy(),
        future=[f.copy() for f in state.future],
        z_pred=np.asarray(z, dtype=float).copy(),
        atom_counts=None if parametric else dict.fromkeys(
            (f"{j},{l}" for j, l in state.atoms.pairs()), state.atoms.max_size()),
        tau_common=state.tau_common,
    )


def _drive(state: ChainState, data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
           rng: RngHandle, step, checkpoint_path=None):
    records = []
    while state.iteration < config.iterations:
        current = state.iteration + 1
        try:
            state, z = step(state, data, prior, config, rng)
        except Exception as exc:
            exc.iteration = current
            logger.error("chain halted at sweep %d: %s", current, exc)
            raise
        if current > config.burn_in and (current - config.burn_in) % config.thinning == 0:
            records.append(_record(state, z))
        if checkpoint_path and (current == config.iterations or (
                config.checkpoint_interval and current % config.checkpoint_interval == 0)):
            save_checkpoint(checkpoint_path, state, rng, {"config": asdict(config)})
        if current % 1000 == 0:
            logger.info("sweep %d/%d", current, config.iterations)
    return records


def run_chain(data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
              checkpoint_path=None, resume=None):
    """Run the pairwise-dependent sampler; returns the retained trace records.
    With m = 1 it is the single-series GSBR sampler.

    ``resume`` is an optional (state, rng) pair from a checkpoint; the replay
    is bit-exact because the generator state is serialized alongside.
    """
    if resume is not None:
        state, rng = resume
    else:
        rng = RngHandle(config.seed)
        state = init_chain(data, prior, rng)
    return _drive(state, data, prior, config, rng, sweep, checkpoint_path)


def run_parametric_gaussian(data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
                            checkpoint_path=None, resume=None):
    """Common-precision Gaussian baseline over (tau, theta, x0, futures)."""
    if resume is not None:
        state, rng = resume
    else:
        rng = RngHandle(config.seed)
        state = init_chain(data, prior, rng)
        state.tau_common = 1.0
    return _drive(state, data, prior, config, rng, parametric_sweep, checkpoint_path)
