"""Reference implementations the tests compare the chain against.

The densities of the marginalization oracle (acceptance criterion 2) are
never evaluated by the chain: they state the slice-augmented joint and the
transition mixture it must marginalize to, term by term, so the tests can sum
one and compare it with the other. The rest are plain per-series loops: the
allocation block's cell probabilities, the former loop form of the kernels
whose random stream the vectorized chain keeps bit for bit, the
out-of-sample kernel point by point with scalar normal draws, the trace
writers record by record, the report's former CSV writer and KDE range, the
gamma, beta and Dirichlet draw helpers as they were before their checks
took one pass, the allocation block and the noise predictive as they were
before their fixed cost was cut, the slice sampler
as it was before its support wrapper went, and the chain's start as it was
before its three loops over the series became one.
"""

import csv
import json
import math

import numpy as np

from pdgsbr.diagnostics import kde, quantile
from pdgsbr import gibbs, model
from pdgsbr.distributions import (draw_beta, draw_categorical, draw_dirichlet, draw_gamma,
                                  draw_truncated_geometric)
from pdgsbr.dynamics import eval_map
from pdgsbr.errors import InvalidStateError, ParameterDomainError
from pdgsbr.gibbs import SLICE_BOUND_CAP
from pdgsbr.model import (INIT_SLICE_BOUND, Allocations, AtomTable, ChainState, _root_start,
                          ensure_atoms)


def full_path(state, data, j: int) -> np.ndarray:
    """The complete state sequence x_{j,0}, ..., x_{j,n_j+T_j} of series j."""
    return np.concatenate(([state.x0[j]], data.series[j], state.future[j]))


def residuals(state, data, j: int) -> np.ndarray:
    """Squared residuals h_i = (x_{ji} - g_j(theta_j, x_{j,i-1}))^2, i = 1..n_j+T_j."""
    xs = full_path(state, data, j)
    return (xs[1:] - eval_map(state.theta[j], xs[:-1])) ** 2


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


def alloc_cell_probs(state, data) -> np.ndarray:
    """Law of the allocation block: for every point, flat in series order,
    the normalized probability of each (delta, d) cell as one row of m * N*
    entries, cell l * N* + k - 1. Cells above the point's slice bound and
    non-finite weights (the NaN cells of a hand-built ragged table) get 0."""
    rows = []
    for j in range(state.m):
        h = residuals(state, data, j)
        taus = state.atoms.values[state.atoms.index[j]]  # (m, K)
        K = taus.shape[1]
        with np.errstate(invalid="ignore"):
            base = np.log(state.p[j])[:, None] + 0.5 * np.log(taus)
        logw = base[None, :, :] - 0.5 * taus[None, :, :] * h[:, None, None]
        mask = np.arange(K)[None, None, :] >= state.alloc.N[j][:, None, None]
        logw = np.where(mask | ~np.isfinite(logw), -np.inf, logw).reshape(h.size, state.m * K)
        weights = np.exp(logw - logw.max(axis=1, keepdims=True))
        rows.append(weights / weights.sum(axis=1, keepdims=True))
    return np.concatenate(rows)


# --- the per-series loop kernels the vectorized ones must reproduce exactly ---

def loop_precision_posterior_params(state, data, prior):
    """Counts and residual sums per atom row, series by series in point
    order: np.add.at adds each point in turn, so an off-diagonal row adds
    both orientations in the order of the points."""
    counts = np.zeros(state.atoms.values.shape)
    rsums = np.zeros(state.atoms.values.shape)
    for j in range(state.m):
        h = residuals(state, data, j)
        cells = (state.atoms.index[j, state.alloc.delta[j]], state.alloc.d[j] - 1)
        np.add.at(counts, cells, 1.0)
        np.add.at(rsums, cells, h)
    return prior.gamma_a + 0.5 * counts, prior.gamma_b + 0.5 * rsums


def loop_update_slice_N(state, prior, rng):
    for j in range(state.m):
        d = state.alloc.d[j]
        bound = draw_truncated_geometric(state.lam[j, state.alloc.delta[j]], d, rng)
        state.alloc.N[j][:] = np.maximum(np.minimum(bound, SLICE_BOUND_CAP), d)
    return ensure_atoms(state, prior, rng)


def loop_update_selection_probs(state, prior, rng):
    m = state.m
    counts = np.zeros((m, m))
    for j in range(m):
        np.add.at(counts[j], state.alloc.delta[j], 1.0)
    alpha_post = prior.dirichlet_alpha + counts
    for j in range(m):
        state.p[j] = draw_dirichlet(alpha_post[j], rng)
    return state


def loop_update_geometric_probs(state, prior, rng):
    m = state.m
    S = np.zeros((m, m))
    Sp = np.zeros((m, m))
    for j in range(m):
        np.add.at(S[j], state.alloc.delta[j], 1.0)
        np.add.at(Sp[j], state.alloc.delta[j], state.alloc.N[j] - 1.0)
    # pool both orientations of an off-diagonal pair; the sums are whole numbers
    for j, l in zip(*state.atoms.upper):
        pooled_S = S[j, l] + S[l, j] if j < l else S[j, j]
        pooled_Sp = Sp[j, l] + Sp[l, j] if j < l else Sp[j, j]
        a, b = prior.beta_a[j, l] + 2.0 * pooled_S, prior.beta_b[j, l] + pooled_Sp
        state.lam[j, l] = state.lam[l, j] = draw_beta(a, b, rng)
    return state


def loop_update_future(state, data, prior, rng, tau_override=None):
    """update_future series by series and point by point: each path draws
    one ``Generator.normal`` per point, x_k ~ N(g_j(x_{k-1}), 1/tau_k) from
    x_{j,n_j}, and replaces the old path only if every point lies in
    ``prior.x0_support[j]``."""
    for j in range(state.m):
        n, horizon = data.lengths[j], state.future[j].size
        if not horizon:
            continue
        if tau_override is not None:
            taus = [tau_override] * horizon
        else:
            delta, d = state.alloc.delta[j][n:], state.alloc.d[j][n:]
            taus = state.atoms.values[state.atoms.index[j, delta], d - 1].tolist()
        x, path = float(data.series[j][-1]), []
        for tau in taus:
            x = rng.generator.normal(eval_map(state.theta[j].tolist(), x), tau ** -0.5)
            path.append(x)
        lo, hi = prior.x0_support[j]
        if all(lo <= v <= hi for v in path):
            state.future[j] = np.asarray(path)
    return state


# --- the per-record trace writers the stacked ones must reproduce byte for byte ---
# A record here is one trace row: a dict of the Trace fields in trace.jsonl order.

def plain(value):
    """JSON-ready form of a field value: arrays become nested lists, dicts
    and sequences keep their order; anything else is returned as it is."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {name: plain(v) for name, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def loop_flat_columns(record) -> dict:
    """A record's CSV columns, element by element."""
    cols = {"iteration": record["iteration"]}
    for j, t in enumerate(record["theta"]):
        for r, v in enumerate(np.asarray(t)):
            cols[f"theta_{j + 1}_{r}"] = float(v)
    if record["p"] is not None:
        m = np.asarray(record["p"]).shape[0]
        for j in range(m):
            for l in range(m):
                cols[f"p_{j + 1}_{l + 1}"] = float(record["p"][j][l])
        for j in range(m):
            for l in range(j, m):
                cols[f"lam_{j + 1}_{l + 1}"] = float(record["lam"][j][l])
    for j, v in enumerate(np.asarray(record["x0"])):
        cols[f"x0_{j + 1}"] = float(v)
    for j, f in enumerate(record["future"]):
        for k, v in enumerate(np.asarray(f)):
            cols[f"future_{j + 1}_{k + 1}"] = float(v)
    for j, v in enumerate(np.asarray(record["z_pred"])):
        cols[f"z_pred_{j + 1}"] = float(v)
    if record["n_star"] is not None:
        cols["n_star"] = int(record["n_star"])
    if record["tau_common"] is not None:
        cols["tau"] = float(record["tau_common"])
    return cols


def loop_write_trace_csv(path, records) -> None:
    fieldnames = list(loop_flat_columns(records[0]).keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            row = loop_flat_columns(record)
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def loop_write_trace_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(plain(record)) + "\n")


# --- the former report writer the one-call one must reproduce byte for byte ---

def csv_write_table(path, header, table) -> None:
    """csv.writer over the header and the ``repr`` of each row's values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(v) for v in row.tolist()])


def two_call_default_kde(samples):
    """The KDE on the default range: the samples between their 0.5 % and
    99.5 % quantiles, each quantile taken by its own call."""
    core = samples[(samples >= np.quantile(samples, 0.005))
                   & (samples <= np.quantile(samples, 0.995))]
    return kde(core if core.size >= 2 else samples)


# --- the draw helpers as written before their checks took one pass -----------

def former_draw_gamma(shape, rate, rng):
    if not (shape > 0 and rate > 0) or not (math.isfinite(shape) and math.isfinite(rate)):
        raise ParameterDomainError(f"gamma parameters must be positive, got ({shape}, {rate})")
    gen = rng.generator
    if shape >= 1.0:
        value = gen.standard_gamma(shape) / rate
    else:
        g = gen.standard_gamma(shape + 1.0)
        u = gen.random()
        while u <= 0.0:
            u = gen.random()
        value = math.exp(math.log(g) + math.log(u) / shape - math.log(rate))
    return max(value, 1e-300)


def former_draw_beta(a, b, rng):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (a.min() > 0 and b.min() > 0 and a.max() < math.inf and b.max() < math.inf):
        raise ParameterDomainError(f"beta parameters must be positive, got ({a}, {b})")
    value = np.clip(rng.generator.beta(a, b), 1e-15, 1.0 - 1e-15)
    return value if value.ndim else float(value)


def former_draw_dirichlet(alpha, rng):
    alpha = np.asarray(alpha, dtype=float)
    if not (alpha.min() > 0 and alpha.max() < math.inf):
        raise ParameterDomainError(f"alpha entries must be positive, got {alpha}")
    g = np.maximum(rng.generator.standard_gamma(alpha), 1e-300)
    return g / g.sum(axis=-1, keepdims=True)


# --- the slice sampler as written before its support wrapper went -------------

def former_slice_sample_1d(log_f, lo, hi, current, width, max_stepout, rng):
    """The slice sampler with every evaluation behind a [lo, hi] test."""
    if not lo < hi:
        raise ParameterDomainError(f"empty support [{lo}, {hi}]")
    if not 0 < width < math.inf:
        raise ParameterDomainError(f"width must be positive and finite, got {width}")

    def target(x):
        return log_f(x) if lo <= x <= hi else -math.inf

    gen = rng.generator
    log_fx = target(current)
    if not math.isfinite(log_fx):
        raise InvalidStateError(f"non-finite log-density {log_fx} at current point {current}")
    log_y = log_fx + math.log1p(-gen.random())
    left = current - width * gen.random()
    right = left + width
    steps_left = int(math.floor(max_stepout * gen.random()))
    steps_right = max_stepout - 1 - steps_left
    while steps_left > 0 and left > lo and target(left) > log_y:
        left -= width
        steps_left -= 1
    while steps_right > 0 and right < hi and target(right) > log_y:
        right += width
        steps_right -= 1
    left = max(left, lo)
    right = min(right, hi)
    while True:
        proposal = left + gen.random() * (right - left)
        if target(proposal) > log_y:
            return proposal
        if proposal < current:
            left = proposal
        else:
            right = proposal
        if right - left < 1e-300:
            return current


# --- the kernels as written before their fixed cost was cut -------------------

def former_update_alloc_block(state, data, prior, rng, h=None):
    """The Gumbel-max block with each cell's (l, k) decoded from its position
    in the point's run and three gathers per cell; its noise is drawn as the
    block draws it now, so the two agree bit for bit."""
    m = state.m
    K = state.atoms.max_size()
    half_h = 0.5 * (gibbs.residuals(state, data) if h is None else h)
    width = np.minimum(state.alloc.flat[2], K)
    cells = m * width
    pair_base = state.alloc.series * m
    rows = state.atoms.index.ravel() * K
    pick = np.empty(width.size, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(state.p).ravel()
        half_log_tau = 0.5 * np.log(state.atoms.values)
        for start, stop, offset in gibbs._alloc_chunks(cells):
            count = cells[start:stop]
            pos = np.arange(offset[-1] + count[-1]) - np.repeat(offset, count)
            l, k = np.divmod(pos, np.repeat(width[start:stop], count))
            pair = np.repeat(pair_base[start:stop], count) + l
            atom = rows[pair] + k
            score = (np.take(log_p, pair) + np.take(half_log_tau, atom)
                     - np.take(state.atoms.values, atom) * np.repeat(half_h[start:stop], count))
            score -= np.log(rng.generator.standard_exponential(score.size))
            np.fmax(score, -np.inf, out=score)
            best = np.repeat(np.maximum.reduceat(score, offset), count)
            pick[start:stop] = np.minimum.reduceat(np.where(score == best, pos, m * K), offset)
    delta, d = np.divmod(pick, width)
    state.alloc.flat[:2] = pair_base + delta, d + 1
    return state


def former_sample_noise_predictive(state, prior, rng):
    """The noise predictive with one array ``Generator.normal`` call."""
    m, n_star = state.m, state.atoms.max_size()
    rows = np.arange(m)
    cdf = np.cumsum(state.p, axis=1)
    u = rng.generator.random(m) * cdf[:, -1]
    l = np.minimum((cdf <= u[:, None]).sum(axis=1), m - 1)
    k = draw_truncated_geometric(state.lam[rows, l], 1, rng) - 1
    tau = state.atoms.values[state.atoms.index[rows, l], np.minimum(k, n_star - 1)]
    for j in np.flatnonzero(k >= n_star):
        tau[j] = draw_gamma(prior.gamma_a, prior.gamma_b, rng)
    return rng.generator.normal(0.0, tau ** -0.5)


# --- the chain's start as written before its per-series loops became one ----

def former_init_chain(data, prior, rng):
    """init_chain with three loops over the series: the least-squares fits,
    then, after the label draws, the x0 starts and the future paths."""
    m = data.m
    if prior.m != m:
        raise ValueError(f"prior is for m={prior.m} but data has m={m} series")
    R = prior.poly_degree

    p = draw_dirichlet(prior.dirichlet_alpha, rng)
    upper = np.triu_indices(m)
    lam = np.empty((m, m))
    lam[upper] = lam[upper[::-1]] = draw_beta(prior.beta_a[upper], prior.beta_b[upper], rng)

    theta, sq_resid = np.zeros((m, R + 1)), []
    for j in range(m):
        x = data.series[j]
        design = np.vander(x[:-1], R + 1, increasing=True)
        coeffs, _, rank, _ = np.linalg.lstsq(design, x[1:], rcond=None)
        if rank < R + 1 or not np.all(np.isfinite(coeffs)):
            model.logger.warning("series %d: singular least-squares start; theta starts at 0",
                                 j + 1)
        else:
            theta[j] = coeffs
        sq_resid.append((x[1:] - design @ theta[j]) ** 2)

    probs = (np.arange(INIT_SLICE_BOUND) + 0.5) / INIT_SLICE_BOUND
    scales = [
        quantile(sq_resid[j] if j == l else np.concatenate((sq_resid[j], sq_resid[l])), probs)
        for j, l in zip(*np.triu_indices(m))
    ]
    atoms = AtomTable(m, 1.0 / np.maximum(scales, 1e-12))

    delta, d, N = [], [], []
    for j in range(m):
        total = data.lengths[j] + int(prior.horizon[j])
        delta.append(draw_categorical(p[j], rng, total))
        d.append(rng.generator.integers(1, INIT_SLICE_BOUND + 1, size=total))
        N.append(np.full(total, INIT_SLICE_BOUND, dtype=int))
    alloc = Allocations(delta=delta, d=d, N=N)

    x0 = np.asarray([_root_start(theta[j], float(data.series[j][0]), *prior.x0_support[j].tolist())
                     for j in range(m)])
    future = []
    for j in range(m):
        vals, x = [], float(data.series[j][-1])
        lo, hi = prior.x0_support[j].tolist()
        for _ in range(int(prior.horizon[j])):
            x = eval_map(theta[j], x)
            if not lo <= x <= hi:
                x = float(data.series[j][-1])
            vals.append(x)
        future.append(np.asarray(vals))

    state = ChainState(
        atoms=atoms, alloc=alloc, p=p, lam=lam, theta=theta, x0=x0,
        future=future, iteration=0,
    )
    state.validate()
    return state
