"""Full-conditional kernels and chain drivers.

One sweep applies, in a fixed documented order: the (d, delta) block, the
slice bounds N (with atom growth), the precisions, the selection rows, the
geometric probabilities, the control parameters, the initial conditions, the
out-of-sample paths (one block each), and finally the noise-predictive draws.
Any fixed scan order is a valid Gibbs sampler; fixing it makes traces
reproducible.

The precisions span many orders of magnitude, so linear-space mixture
weights underflow. The allocation block draws in log space by Gumbel-max,
which needs no max-subtraction or normalization. The kernels work on all
series at once, on the flat point layout of ``model.Allocations``: they read
and write its (3, n) label array ``flat`` (pair labels j * m + delta_ji, d,
N) directly. A kernel that reads a flat per-point array (path points,
residuals, allocated precisions) takes it as an optional argument and builds
it when None; ``sweep`` builds each once and hands it on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat

import numpy as np

from .distributions import (
    COUNT,
    POSITIVE,
    WHOLE,
    RngHandle,
    declared,
    draw_beta,
    draw_dirichlet,
    draw_gamma,
    draw_truncated_geometric,
    in_domain,
    slice_sample_1d,
    whole_from,
)
from .dynamics import MultiSeries, eval_map
from .errors import ConfigError, SingularDesignError
from .model import (
    ChainState,
    PriorConfig,
    Trace,
    ensure_atoms,
    init_chain,
    save_checkpoint,
)

logger = logging.getLogger(__name__)

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

# Live cells in each block that cuts the allocation block into chunks (see
# _alloc_chunks), so its memory does not grow with N*. Each cell holds
# about ten 8-byte temporaries.
ALLOC_CELL_BUDGET = 2 ** 14


@dataclass
class GibbsConfig:
    """Run-length and tuning knobs of one chain, each in its declared domain."""

    iterations: int = declared(COUNT)
    burn_in: int = declared(COUNT, 0)
    thinning: int = declared(whole_from(1), 1)
    seed: int = declared(WHOLE, 0)
    slice_width: float = declared(POSITIVE, 0.25)
    max_stepout: int = declared(whole_from(1), 16)
    checkpoint_interval: int = declared(COUNT, 0)  # 0 disables periodic checkpoints

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, in_domain(f.name, getattr(self, f.name), f.metadata["domain"]))
        if not self.iterations > self.burn_in:
            raise ValueError("need iterations > burn_in >= 0")
        if not self.thinning <= self.iterations - self.burn_in:
            raise ValueError("need 1 <= thinning <= iterations - burn_in, "
                             "or the run keeps no sweep")


# --- shared helpers -----------------------------------------------------------

def _path_points(state: ChainState, data: MultiSeries):
    """Predecessor x_{j,i-1} and value x_{ji} of every point, flat in series
    order, over the complete paths x_{j,0}, ..., x_{j,n_j+T_j}."""
    nxt = np.concatenate([x for pair in zip(data.series, state.future) for x in pair])
    prev = np.empty_like(nxt)
    prev[1:] = nxt[:-1]
    prev[state.alloc.first] = state.x0
    return prev, nxt


def residuals(state: ChainState, data: MultiSeries, points=None) -> np.ndarray:
    """Squared residuals h_ji = (x_{ji} - g_j(theta_j, x_{j,i-1}))^2 of every
    point, flat in series order: one Horner pass with per-point coefficients."""
    prev, nxt = _path_points(state, data) if points is None else points
    h = eval_map(np.asarray(state.theta).T[:, state.alloc.series], prev)
    return np.square(np.subtract(nxt, h, out=h), out=h)


def _point_target(coefficients, tau, x_next):
    """Log full conditional of an initial condition v, which has no
    predecessor: -1/2 tau (x_next - g(v))^2, g by ``eval_map``'s Horner
    steps run inline."""
    reverse = coefficients[::-1]

    def log_f(v):
        g = 0.0
        for c in reverse:
            g = g * v + c
        return -0.5 * tau * (x_next - g) ** 2
    return log_f


@cache
def _hankel(R: int) -> np.ndarray:
    """Index r + s of the Hankel matrix A_rs = sums_{r+s}, r, s = 0..R (read-only)."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * R + 1), R + 1)


def _tau_per_point(state: ChainState) -> np.ndarray:
    """Allocated precision tau_{j, delta_ji, d_ji} of every point, flat in
    series order."""
    pair, d, _ = state.alloc.flat
    return state.atoms.values[state.atoms.index.ravel()[pair], d - 1]


# --- posterior-parameter helpers (kernels draw from these; tests audit them) ---

def precision_posterior_params(state: ChainState, data: MultiSeries, prior: PriorConfig,
                               h=None):
    """Gamma (shape, rate) of every atom's full conditional, as two (P, K)
    arrays laid out like ``state.atoms.values``.

    Counts and residual sums run over the whole augmented index range
    i = 1..n_j+T_j; an off-diagonal pair pools both orientations, since both
    map to its atom row, and its residual sum adds them in point order.
    """
    rows, K = state.atoms.values.shape
    pair, d, _ = state.alloc.flat
    cell = state.atoms.index.ravel()[pair] * K + d - 1  # atom row and k of each point
    counts = np.bincount(cell, None, rows * K).reshape(rows, K)
    rsums = np.bincount(cell, residuals(state, data) if h is None else h,
                        rows * K).reshape(rows, K)
    return prior.gamma_a + 0.5 * counts, prior.gamma_b + 0.5 * rsums


def selection_posterior_alpha(state: ChainState, prior: PriorConfig) -> np.ndarray:
    """Dirichlet parameters alpha_{jl} + #{i : delta_ji = l} for every row."""
    m = state.m
    return prior.dirichlet_alpha + np.bincount(state.alloc.flat[0], None, m * m).reshape(m, m)


def geometric_posterior_params(state: ChainState, prior: PriorConfig):
    """Beta (a, b) of every lambda_{jl} full conditional, as two length-P
    arrays over the pairs j <= l in atom-row order.

    Uses S_{jl} = #{i : delta_ji = l} and S'_{jl} = sum over those i of
    (N_ji - 1); an off-diagonal pair pools both orientations, since both map
    to its atom row. The sums are of whole numbers, so exact in any order.
    """
    rows = state.atoms.values.shape[0]
    row = state.atoms.index.ravel()[state.alloc.flat[0]]  # atom row of each point's pair
    S = np.bincount(row, None, rows)
    Sp = np.bincount(row, state.alloc.flat[2] - 1.0, rows)
    upper = state.atoms.upper
    return prior.beta_a[upper] + 2.0 * S, prior.beta_b[upper] + Sp


def parametric_tau_params(state: ChainState, data: MultiSeries, prior: PriorConfig,
                          points=None):
    """Gamma (shape, rate) of the common-precision full conditional."""
    h = residuals(state, data, points)
    return prior.gamma_a + 0.5 * h.size, prior.gamma_b + 0.5 * float(h.sum())


# --- the nine kernels -----------------------------------------------------------

def _alloc_chunks(cells: np.ndarray):
    """Cut consecutive points, given the live cells of each, into the (start,
    stop) runs whose first cells lie in one block of ALLOC_CELL_BUDGET cells,
    so a run holds fewer cells than the budget plus its last point's. Yields
    each run's (start, stop) and the first cell of each of its points in it."""
    first = cells.cumsum() - cells
    cuts = first.searchsorted(range(ALLOC_CELL_BUDGET, first[-1] + 1, ALLOC_CELL_BUDGET)).tolist()
    for start, stop in zip([0, *cuts], [*cuts, cells.size]):
        if start < stop:  # a point of more cells than the budget can leave blocks empty
            yield start, stop, first[start:stop] - first[start]


def update_alloc_block(state: ChainState, data: MultiSeries, prior: PriorConfig,
                       rng: RngHandle, h=None) -> ChainState:
    """Jointly redraw (d_ji, delta_ji) from p_{jl} N(x_ji | g_j, 1/tau_{jlk}).

    The support of point (j, i) is its m min(N_ji, N*) live cells l = 1..m,
    k = 1..N_ji. Each cell's log weight log p_{jl} + 1/2 log tau_{jlk}
    - 1/2 tau_{jlk} h_ji gets standard Gumbel noise (``Generator.gumbel``,
    finite), and the point takes its first highest cell: a Gumbel-max draw
    from the normalized weights (Maddison, Tarlow & Minka 2014). Nothing is
    exponentiated or normalized, so extreme precisions cannot underflow the
    block. A non-finite weight (an unused NaN cell of a hand-built ragged
    table) counts as -inf.

    Two (m m, K) tables, log p_{jl} + 1/2 log tau_{jlk} and tau_{jlk}, are
    gathered once. A cell's flat index (j m + l) K + k into both rises with
    (l, k), so a point's first highest cell is its smallest index among its
    maxima, and divmod by K decodes it into the pair label and d. The live
    cells of all series lie flat in point order, one Gumbel draw each, cut
    into chunks by ``_alloc_chunks``.
    """
    m = state.m
    K = state.atoms.max_size()
    half_h = 0.5 * (residuals(state, data) if h is None else h)
    width = np.minimum(state.alloc.flat[2], K)  # live k of each point
    cells = m * width
    first = state.alloc.series * (m * K)  # flat index of each point's cell (l, k) = (0, 0)
    lanes = np.arange(m)[:, None]
    pair, d, _ = state.alloc.flat
    tau = state.atoms.values[state.atoms.index.ravel()]  # (m m, K), row j m + l
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.log(state.p).reshape(-1, 1) + 0.5 * np.log(tau)
        for start, stop, offset in _alloc_chunks(cells):
            count, w = cells[start:stop], width[start:stop]
            # run (point, l) holds cell first + l K + k at offset + l w + k; (m, points) layout
            shift = (first[start:stop] - offset) + lanes * (K - w)
            cell = shift.T.ravel().repeat(w.repeat(m)) + np.arange(offset[-1] + count[-1])
            score = base.take(cell) - tau.take(cell) * half_h[start:stop].repeat(count)
            score += rng.generator.gumbel(size=score.size)
            np.fmax(score, -np.inf, out=score)  # a NaN weight counts as -inf
            best = np.maximum.reduceat(score, offset).repeat(count)
            pick = np.minimum.reduceat(np.where(score == best, cell, tau.size), offset)
            np.divmod(pick, K, out=(pair[start:stop], d[start:stop]))  # d from 0 until the += 1
    d += 1
    return state


def update_slice_N(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Redraw every slice bound (capped at SLICE_BOUND_CAP) and resize the atoms."""
    pair, d, N = state.alloc.flat
    bound = draw_truncated_geometric(state.lam.ravel()[pair], d, rng)
    N[:] = np.maximum(np.minimum(bound, SLICE_BOUND_CAP), d)
    return ensure_atoms(state, prior, rng)


def update_precisions(state: ChainState, data: MultiSeries, prior: PriorConfig,
                      rng: RngHandle, h=None) -> ChainState:
    """Conjugate gamma redraw of every stored atom, in row order."""
    shape, rate = precision_posterior_params(state, data, prior, h)
    draws = list(map(draw_gamma, shape.ravel().tolist(), rate.ravel().tolist(), repeat(rng)))
    state.atoms.values = np.reshape(draws, shape.shape)
    return state


def update_selection_probs(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Conjugate Dirichlet redraw of every selection row."""
    state.p[:] = draw_dirichlet(selection_posterior_alpha(state, prior), rng)
    return state


def update_geometric_probs(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Conjugate beta redraw of every geometric probability (mirrored)."""
    a, b = geometric_posterior_params(state, prior)
    j, l = state.atoms.upper
    state.lam[j, l] = state.lam[l, j] = draw_beta(a, b, rng)
    return state


def update_theta(state: ChainState, data: MultiSeries, prior: PriorConfig,
                 rng: RngHandle, tau_override=None, points=None) -> ChainState:
    """Exact multivariate-normal redraw of every coefficient vector.

    Under the flat prior the full conditional of theta_j is Gaussian with
    precision matrix A_j = sum_i tau_i v_i v_i' over the monomial designs v_i
    of x_{j,i-1}: the Hankel matrix of the tau-weighted power sums of degree
    0..2R. One batched eigendecomposition A_j = Q Lambda Q' serves all
    series, and theta_j = Q (Lambda^-1 Q' b_j + Lambda^-1/2 z) with z
    standard normal. An eigenvalue ratio above THETA_COND_LIMIT (or a
    non-positive eigenvalue) is an error, never a silent ridge.
    ``tau_override`` is the points' precision: one common float, or an
    array of one per point.
    """
    R = prior.poly_degree
    first = state.alloc.first
    prev, nxt = _path_points(state, data) if points is None else points
    powers = np.empty((2 * R + 1, prev.size))  # tau_i x_{j,i-1}^r, r = 0..2R
    powers[0] = _tau_per_point(state) if tau_override is None else tau_override
    for r in range(1, 2 * R + 1):
        np.multiply(powers[r - 1], prev, out=powers[r])
    sums = np.add.reduceat(powers, first, axis=1).T  # (m, 2R + 1)
    A = sums[:, _hankel(R)]
    b = np.add.reduceat(powers[:R + 1] * nxt, first, axis=1).T
    w, Q = np.linalg.eigh(A)  # eigenvalues ascending
    bad = ~(w[:, -1] <= THETA_COND_LIMIT * w[:, 0])  # NaN and w <= 0 included
    if bad.any():
        j = int(np.argmax(bad))
        with np.errstate(divide="ignore"):
            raise SingularDesignError(j, float(abs(w[j, -1] / w[j, 0])))
    z = rng.generator.standard_normal((state.m, R + 1))
    y = (b[:, None, :] @ Q)[:, 0] / w + z / np.sqrt(w)
    state.theta[:] = (Q @ y[:, :, None])[:, :, 0]
    return state


def update_x0(state: ChainState, data: MultiSeries, prior: PriorConfig,
              rng: RngHandle, config: GibbsConfig, tau_override=None) -> ChainState:
    """One slice transition per initial condition.

    The exponent is a polynomial in x0 and can be multimodal (modes near the
    real roots of g(x) - x_1), hence the slice sampler instead of anything
    assuming log-concavity. ``tau_override`` is as in ``update_theta``.
    """
    tau = _tau_per_point(state) if tau_override is None else tau_override
    taus = (tau[state.alloc.first].tolist() if isinstance(tau, np.ndarray)  # first points
            else [float(tau)] * state.m)
    for j in range(state.m):
        log_f = _point_target(state.theta[j].tolist(), taus[j], float(data.series[j][0]))
        lo, hi = prior.x0_support[j].tolist()
        current = min(max(float(state.x0[j]), lo), hi)
        state.x0[j] = slice_sample_1d(log_f, lo, hi, current,
                                      config.slice_width, config.max_stepout, rng)
    return state


def update_future(state: ChainState, data: MultiSeries, prior: PriorConfig,
                  rng: RngHandle, config: GibbsConfig, tau_override=None) -> ChainState:
    """Redraw each series' out-of-sample path x_{j,n_j+1..n_j+T_j} as one block.

    Nothing after the path is observed, so given the rest of the chain its
    full conditional is the forward Markov chain x_{n+k} ~ N(g_j(x_{n+k-1}),
    1/tau_k), k = 1..T_j, restricted to the series' state support
    ``prior.x0_support[j]``. A forward pass draws a path from that chain, and
    the path is kept iff every point lies in the support; otherwise the old
    path stays. This is an independence Metropolis-Hastings step whose
    acceptance ratio is the support indicator, so it is exact (Tierney 1994).

    One standard_normal(sum T_j) call serves all series, series by series
    with k ascending; each step is g_j(x) + tau_k^-1/2 z in Python floats,
    which gives the draws of scalar ``Generator.normal`` calls bit for bit.
    ``tau_override`` is as in ``update_theta``. ``config`` is unused; callers
    pass it as they do to ``update_x0``.
    """
    horizon = [f.size for f in state.future]
    total = sum(horizon)
    tau = _tau_per_point(state) if tau_override is None else tau_override
    if isinstance(tau, np.ndarray):  # each series' last T_j points are its future ones
        ahead = [tau[stop - steps:stop] for (_, stop), steps in zip(state.alloc.bounds, horizon)]
        sd = [t ** -0.5 for t in np.concatenate(ahead).tolist()]
    else:
        sd = [float(tau) ** -0.5] * total
    z = rng.generator.standard_normal(total).tolist()
    k = 0
    for j, steps in enumerate(horizon):
        if not steps:
            continue
        reverse = state.theta[j].tolist()[::-1]
        lo, hi = prior.x0_support[j].tolist()
        x, path = float(data.series[j][-1]), []
        for noise, scale in zip(z[k:k + steps], sd[k:k + steps]):
            g = 0.0  # g_j(x) by eval_map's Horner steps
            for c in reverse:
                g = g * x + c
            x = g + scale * noise
            if not lo <= x <= hi:
                break
            path.append(x)
        else:
            state.future[j] = np.array(path)
        k += steps
    return state


def sample_noise_predictive(state: ChainState, prior: PriorConfig, rng: RngHandle) -> np.ndarray:
    """Per-series draw from the noise predictive, all series at once.

    Inverts each updated selection row at one uniform for the pair l, then
    draws the geometric index k by the closed form of
    ``draw_truncated_geometric``. k >= N* is the exact tail lump, of mass
    (1 - lambda)^N*: only there is a fresh atom drawn from the base measure.
    """
    m, n_star = state.m, state.atoms.max_size()
    rows = np.arange(m)
    cdf = np.cumsum(state.p, axis=1)
    u = rng.generator.random(m) * cdf[:, -1]
    l = np.minimum((cdf <= u[:, None]).sum(axis=1), m - 1)
    k = draw_truncated_geometric(state.lam[rows, l], 1, rng) - 1
    tau = state.atoms.values[state.atoms.index[rows, l], np.minimum(k, n_star - 1)]
    for j in np.flatnonzero(k >= n_star).tolist():  # tail lump
        tau[j] = draw_gamma(prior.gamma_a, prior.gamma_b, rng)
    return 0.0 + tau ** -0.5 * rng.generator.standard_normal(m)  # normal(0.0, scale)'s arithmetic


def sweep(state: ChainState, data: MultiSeries, prior: PriorConfig,
          config: GibbsConfig, rng: RngHandle):
    """One full Gibbs scan. Returns the state and the noise-predictive draws.

    Each flat per-point array is built once, where its inputs last change,
    and handed to the kernels that read it: the path points and residuals at
    the start (theta, x0 and the paths hold until ``update_theta``), the
    allocated precisions after ``update_precisions`` (the last kernel before
    theta that writes atoms or labels).
    """
    points = _path_points(state, data)
    h = residuals(state, data, points)
    update_alloc_block(state, data, prior, rng, h)
    update_slice_N(state, prior, rng)
    update_precisions(state, data, prior, rng, h)
    update_selection_probs(state, prior, rng)
    update_geometric_probs(state, prior, rng)
    tau = _tau_per_point(state)
    update_theta(state, data, prior, rng, tau, points)
    update_x0(state, data, prior, rng, config, tau)
    update_future(state, data, prior, rng, config, tau)
    z = sample_noise_predictive(state, prior, rng)
    state.iteration += 1
    return state, z


def parametric_sweep(state: ChainState, data: MultiSeries, prior: PriorConfig,
                     config: GibbsConfig, rng: RngHandle):
    """One scan of the common-precision Gaussian baseline."""
    points = _path_points(state, data)
    shape, rate = parametric_tau_params(state, data, prior, points)
    state.tau_common = draw_gamma(shape, rate, rng)
    tau = state.tau_common
    update_theta(state, data, prior, rng, tau_override=tau, points=points)
    update_x0(state, data, prior, rng, config, tau_override=tau)
    update_future(state, data, prior, rng, config, tau_override=tau)
    z = rng.generator.normal(0.0, tau ** -0.5, size=state.m)
    state.iteration += 1
    return state, z


def _run(parametric: bool, data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
         checkpoint_path=None, resume=None):
    """Run one chain of the mixture sampler, or of the parametric baseline,
    from a fresh start or from ``resume``, a checkpoint's (state, rng) pair
    (bit-exact: the generator state is saved with it); returns the Trace of
    the kept sweeps. ConfigError, before any sweep, for a state of the other
    sampler (only the baseline sets ``tau_common``) or one that keeps no sweep."""
    if resume is None:
        rng = RngHandle(config.seed)
        state = init_chain(data, prior, rng)
        state.tau_common = 1.0 if parametric else None
    else:
        state, rng = resume
        if (state.tau_common is not None) != parametric:
            raise ConfigError("the state to resume was written by the "
                              + ("mixture sampler" if parametric else "parametric baseline"))
    kept = max(state.iteration - config.burn_in, 0) // config.thinning
    if kept >= (config.iterations - config.burn_in) // config.thinning:
        raise ConfigError(f"the state to resume is at sweep {state.iteration}: the rest "
                          f"of a {config.iterations}-sweep run keeps no sweep")
    step = parametric_sweep if parametric else sweep  # per call: the benchmark rebinds them
    rows = []
    while state.iteration < config.iterations:
        current = state.iteration + 1
        try:
            state, z = step(state, data, prior, config, rng)
        except Exception as exc:
            exc.iteration = current
            logger.error("chain halted at sweep %d: %s", current, exc)
            raise
        if current > config.burn_in and (current - config.burn_in) % config.thinning == 0:
            rows.append({
                "iteration": state.iteration, "theta": np.array(state.theta),
                "p": None if parametric else state.p.copy(),
                "lam": None if parametric else state.lam.copy(),
                "x0": state.x0.copy(), "future": [f.copy() for f in state.future],
                "z_pred": z, "n_star": None if parametric else state.atoms.max_size(),
                "tau_common": state.tau_common,
            })
        if checkpoint_path and (current == config.iterations or (
                config.checkpoint_interval and current % config.checkpoint_interval == 0)):
            save_checkpoint(checkpoint_path, state, rng)
        if current % 1000 == 0:
            logger.info("sweep %d/%d", current, config.iterations)
    return Trace.stack(rows)


def run_chain(data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
              checkpoint_path=None, resume=None):
    """Run the pairwise-dependent sampler (see ``_run``). With m = 1 it is
    the single-series GSBR sampler."""
    return _run(False, data, prior, config, checkpoint_path, resume)


def run_parametric_gaussian(data: MultiSeries, prior: PriorConfig, config: GibbsConfig,
                            checkpoint_path=None, resume=None):
    """Run the common-precision Gaussian baseline (see ``_run``)."""
    return _run(True, data, prior, config, checkpoint_path, resume)
