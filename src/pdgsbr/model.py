"""Latent state, hyperparameters and shared-atom bookkeeping for the sampler.

Index conventions: series are 0-based internally (j = 0..m-1), measure and
cluster labels in allocations are 0-based (delta in 0..m-1, stored as the
pair label j * m + delta) except for the cluster index d which stays 1-based
to match the slice constraint d <= N. Allocations are stored flat, series
after series (see Allocations), each over i = 0..n_j+T_j-1: observed points,
then the out-of-sample latent points. The shared atoms form one (P, K) array
over the P = m(m+1)/2 unordered series pairs, rows in sorted pair order,
with a symmetric (m, m) pair-to-row index (see AtomTable).
"""

from __future__ import annotations

import itertools
import json
import logging
import operator
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .diagnostics import quantile
from .distributions import (COUNT, POSITIVE, PROBABILITY, REAL, UNIT, WHOLE, RngHandle, declared,
                            draw_beta, draw_categorical, draw_dirichlet, draw_gamma, in_domain,
                            json_numbers)
from .dynamics import MultiSeries, eval_map

logger = logging.getLogger(__name__)

# Starting slice bound. Starting from N = d = 1 is degenerate: the first
# geometric-probability update then sees zero tail counts, jumps to the
# lambda ~ 1 corner and locks every point into a single cluster, a
# self-reinforcing mode the chain escapes only slowly. A dispersed start
# gives the allocation block room to form clusters before lambda settles.
INIT_SLICE_BOUND = 10


@dataclass
class PriorConfig:
    """Every fixed hyperparameter of the hierarchical model, each in its domain.

    Flat priors are used for the control parameters (improper) and for the
    unobserved states x_{j0} and x_{j,n_j+1..n_j+T_j}, which are uniform on
    x0_support[j], series j's state support.
    """

    m: int = declared(COUNT)
    dirichlet_alpha: np.ndarray = declared(POSITIVE)  # m x m, row j the Dirichlet parameters of p_j
    beta_a: np.ndarray = declared(POSITIVE, 0.5)  # m x m symmetric; a scalar fills every entry
    beta_b: np.ndarray = declared(POSITIVE, 0.5)
    gamma_a: float = declared(POSITIVE, 1e-3)
    gamma_b: float = declared(POSITIVE, 1e-3)
    poly_degree: int = declared(COUNT, 5)
    horizon: np.ndarray = declared(COUNT, 1)  # T_j per series
    x0_support: np.ndarray = declared(REAL, (-5.0, 5.0))  # state support (lo, hi) per series

    def __post_init__(self):
        m = self.m = in_domain("m", self.m, COUNT)
        shapes = {"dirichlet_alpha": (m, m), "beta_a": (m, m), "beta_b": (m, m),
                  "horizon": (m,), "x0_support": (m, 2)}
        for f in fields(self)[1:]:
            shape, value = shapes.get(f.name, ()), getattr(self, f.name)
            with suppress(ValueError):  # a value of another shape: in_domain names it
                value = np.broadcast_to(np.array(value, dtype=object), shape)  # bools kept
            setattr(self, f.name, in_domain(f.name, value, f.metadata["domain"], shape))
        for name in ("beta_a", "beta_b"):
            mat = getattr(self, name)
            if not np.allclose(mat, mat.T):
                raise ValueError(f"{name} must be symmetric")
        if not np.all(np.less(*self.x0_support.T)):
            raise ValueError("x0_support rows must be (lo, hi) with lo < hi")


class AtomTable:
    """Precision atoms of the shared measures: ``values`` is (P, K), one row
    per sorted pair (0, 0), (0, 1), ..., (m-1, m-1), and the symmetric (m, m)
    ``index`` maps both (j, l) and (l, j) to that row, so the shared measures
    are equal by construction. Atom k (1-based, like cluster labels) of pair
    {j, l} is ``values[index[j, l], k - 1]``.

    Every sweep resizes all rows to N*. Only ``append``, for hand-built
    states, makes rows of different lengths; their unused cells are NaN,
    which the allocation block scores as unreachable.
    """

    def __init__(self, m: int, values=None):
        self.upper = np.triu_indices(m)
        rows = np.arange(self.upper[0].size)
        self.index = np.empty((m, m), dtype=int)
        self.index[self.upper] = self.index[self.upper[::-1]] = rows
        values = np.empty((rows.size, 0)) if values is None else values
        self.values = in_domain("atoms", values, POSITIVE, (rows.size, None))

    def size(self, j: int, l: int) -> int:
        return int(np.count_nonzero(~np.isnan(self.values[self.index[j, l]])))

    def max_size(self) -> int:
        return self.values.shape[1]

    def pairs(self):
        return list(zip(*(u.tolist() for u in self.upper)))

    def append(self, j: int, l: int, value: float) -> None:
        """Add one atom to pair {j, l}, for building a state by hand."""
        value = in_domain("atoms", value, POSITIVE)
        k = self.size(j, l)
        if k == self.max_size():
            self.values = np.hstack((self.values, np.full((self.values.shape[0], 1), np.nan)))
        self.values[self.index[j, l], k] = value


def _plain(value):
    """JSON-ready form of a field value: a dataclass (or the allocations, as
    per-series lists) becomes a dict of its fields in declaration order,
    arrays and the atom table nested lists, sequences lists; anything else
    is returned as it is."""
    if isinstance(value, AtomTable):
        value = value.values
    if isinstance(value, Allocations):
        return {name: _plain(getattr(value, name)) for name in ("delta", "d", "N")}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _per_series(name: str, values, sizes, domain) -> list:
    """One array per series, series j's read by ``json_numbers`` at length sizes[j]."""
    if len(values) != len(sizes):
        raise ValueError(f"{name} holds {len(values)} series where {len(sizes)} are expected")
    return [json_numbers(name, v, (size,), domain) for v, size in zip(values, sizes)]


def _series_views(row: int, doc: str) -> property:
    return property(lambda self: tuple(self.flat[row, start:stop] for start, stop in self.bounds),
                    doc=doc)


class Allocations:
    """Latent labels of every point, in the flat layout every kernel works in:
    ``flat`` is a (3, n) int array with rows pair, d and N over the points of
    all series, series after series, where point (j, i)'s pair label
    j * m + delta_ji (m the number of series held) indexes a flat (m, m)
    array; ``series`` is each point's series label and ``first`` the flat
    index of each series' first point; ``bounds`` holds each series' (start,
    stop) in ``flat``. ``delta`` (decoded, read-only), ``d`` and ``N`` are
    tuples of per-series arrays made on each access, ``d`` and ``N`` slices
    of ``flat``, so that a copy never holds views of the original's ``flat``."""

    def __init__(self, delta, d, N):
        sizes = [len(a) for a in delta]
        if [len(a) for a in d] != sizes or [len(a) for a in N] != sizes:
            raise ValueError("delta, d and N must have the same size in every series")
        self.flat = np.array([np.concatenate([np.asarray(a, dtype=int) for a in rows])
                              for rows in (delta, d, N)])
        self.series = np.repeat(np.arange(len(sizes)), sizes)
        self.flat[0] += self.series * len(sizes)
        self.first = np.cumsum(sizes) - sizes
        self.bounds = list(zip(self.first.tolist(), np.cumsum(sizes).tolist()))

    @property
    def delta(self) -> tuple:
        """per series: measure labels in 0..m-1, decoded from the pair labels (read-only)"""
        labels = self.flat[0] - self.series * len(self.bounds)
        labels.flags.writeable = False
        return tuple(labels[start:stop] for start, stop in self.bounds)

    d = _series_views(1, "per series: 1-based cluster labels")
    N = _series_views(2, "per series: slice bounds, N >= d")

    def validate(self, m: int) -> None:
        if len(self.bounds) != m:
            raise ValueError(f"the allocations hold {len(self.bounds)} series where m = {m}")
        pair, d, N = self.flat
        delta = pair - self.series * m
        for bad, what in (((d > N) | (d < 1), "slice constraint d <= N violated"),
                          ((delta < 0) | (delta >= m), "measure label out of range")):
            if bad.any():
                raise ValueError(f"{what} in series {self.series[np.argmax(bad)] + 1}")

    @classmethod
    def from_dict(cls, doc: dict, sizes) -> "Allocations":
        return cls(*(_per_series(name, doc[name], sizes, COUNT) for name in ("delta", "d", "N")))


@dataclass
class ChainState:
    """All latent variables of one Gibbs chain."""

    atoms: AtomTable
    alloc: Allocations
    p: np.ndarray  # m x m stochastic matrix
    lam: np.ndarray  # m x m symmetric, entries in (0, 1)
    theta: np.ndarray  # (m, R+1): row j the coefficients of series j
    x0: np.ndarray  # per series initial condition
    future: list  # per series: array of T_j out-of-sample values
    iteration: int = 0
    tau_common: Optional[float] = None  # only used by the parametric baseline

    @property
    def m(self) -> int:
        return self.p.shape[0]

    def validate(self) -> None:
        if self.atoms.max_size() < 1:
            raise ValueError("the atom table is empty")
        if np.max(np.abs(self.p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("selection-probability rows must sum to 1")
        if not np.allclose(self.lam, self.lam.T):
            raise ValueError("lambda matrix must be symmetric")
        self.alloc.validate(self.m)

    def to_dict(self) -> dict:
        return {"m": self.m, **_plain(self)}

    @classmethod
    def from_dict(cls, doc: dict, data: MultiSeries, prior: PriorConfig) -> "ChainState":
        """The state ``to_dict`` wrote, each field read at the shape that ``data``
        and ``prior`` fix, then validated; ValueError for another shape, a value
        that fails ``json_numbers``' checks or its domain, or a ``validate`` failure."""
        m, horizon = data.m, prior.horizon.tolist()
        tau = doc.get("tau_common")
        state = cls(
            atoms=AtomTable(m, json_numbers("atoms", doc["atoms"], (None, None))),
            alloc=Allocations.from_dict(doc["alloc"], np.add(data.lengths, horizon).tolist()),
            p=json_numbers("p", doc["p"], (m, m), PROBABILITY),
            lam=json_numbers("lam", doc["lam"], (m, m), UNIT),
            theta=json_numbers("theta", doc["theta"], (m, prior.poly_degree + 1), REAL),
            x0=json_numbers("x0", doc["x0"], (m,), REAL),
            future=_per_series("future", doc["future"], horizon, REAL),
            iteration=json_numbers("iteration", doc["iteration"], (), COUNT),
            tau_common=None if tau is None else json_numbers("tau_common", tau, (), POSITIVE),
        )
        state.validate()
        return state


@dataclass
class Trace:
    """The retained (post burn-in, post thinning) sweeps of one chain, as
    columns with the record on axis 0, in ``trace.jsonl`` field order. A
    field that does not apply to the sampler is None: p, lam and n_star for
    the parametric baseline, tau_common for the mixture."""

    iteration: np.ndarray  # (n,) int
    theta: np.ndarray  # (n, m, R+1)
    p: Optional[np.ndarray]  # (n, m, m)
    lam: Optional[np.ndarray]  # (n, m, m)
    x0: np.ndarray  # (n, m)
    future: list  # per series: (n, T_j)
    z_pred: np.ndarray  # (n, m)
    n_star: Optional[np.ndarray] = None  # (n,) int: atoms per pair row, N*
    tau_common: Optional[np.ndarray] = None  # (n,)

    @classmethod
    def stack(cls, rows) -> "Trace":
        """The trace of ``rows``, each a mapping of the field names to one
        record's values (a ``trace.jsonl`` object). ValueError if there are
        none, if the records disagree in shape, if a field is null in some
        but not all of them (only p, lam, n_star and tau_common may be null),
        or if a value fails ``json_numbers``' checks (counts: iteration, n_star)."""
        if not rows:
            raise ValueError("empty trace")
        n = len(rows)

        def column(name, values, shape, domain=None):
            if type(None) in set(map(type, values)):
                nulls = sum(value is None for value in values)
                if nulls == n and name in ("p", "lam", "n_star", "tau_common"):
                    return None
                raise ValueError(f"{name} is null in {nulls} of {n} records")
            return json_numbers(name, values, (n, *shape), domain)

        theta_shape = json_numbers("theta", rows[0]["theta"], (None, None)).shape
        m = theta_shape[0]
        paths = [row["future"] for row in rows]
        if any(len(path) != m for path in paths):
            raise ValueError(f"future does not hold m = {m} paths in every record")
        return cls(
            column("iteration", [row["iteration"] for row in rows], (), WHOLE),
            column("theta", [row["theta"] for row in rows], theta_shape),
            *(column(name, [row.get(name) for row in rows], (m, m)) for name in ("p", "lam")),
            column("x0", [row["x0"] for row in rows], (m,)),
            [column("future", [path[j] for path in paths], (len(paths[0][j]),))
             for j in range(m)],
            column("z_pred", [row["z_pred"] for row in rows], (m,)),
            column("n_star", [row.get("n_star") for row in rows], (), WHOLE),
            column("tau_common", [row.get("tau_common") for row in rows], ()),
        )

    def __len__(self) -> int:
        return len(self.iteration)

    def __getitem__(self, i) -> "Trace":
        """Record i: every field with the record axis dropped, arrays as views."""
        def pick(value):
            return value if value is None else (
                [v[i] for v in value] if isinstance(value, list) else value[i])
        return Trace(*(pick(getattr(self, f.name)) for f in fields(self)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _blocks(trace: Trace) -> list:
    """Every trace scalar, in JSONL field order: (names, values) blocks,
    ``values`` of shape (records, k) in the order of the JSON nesting and
    ``names`` their trace.csv columns, in the documented order. λ is
    symmetric, so its lower triangle has no column (name None). A field that
    is None has no block."""
    n, m, width = trace.theta.shape
    series = range(1, m + 1)
    pairs = list(itertools.product(series, repeat=2))
    blocks = [(["iteration"], trace.iteration),
              ([f"theta_{j}_{r}" for j in series for r in range(width)], trace.theta)]
    if trace.p is not None:
        blocks += [([f"p_{j}_{l}" for j, l in pairs], trace.p),
                   ([f"lam_{j}_{l}" if j <= l else None for j, l in pairs], trace.lam)]
    blocks.append(([f"x0_{j}" for j in series], trace.x0))
    blocks += [([f"future_{j}_{k}" for k in range(1, path.shape[1] + 1)], path)
               for j, path in zip(series, trace.future)]
    blocks.append(([f"z_pred_{j}" for j in series], trace.z_pred))
    if trace.n_star is not None:
        blocks.append((["n_star"], trace.n_star))
    if trace.tau_common is not None:
        blocks.append((["tau"], trace.tau_common))
    return [(names, values.reshape(n, len(names))) for names, values in blocks]


def ensure_atoms(state: ChainState, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Resize every pair's atom row to exactly N* = max N_{ji}.

    Surplus atoms lie above every slice bound, where no full conditional sees
    them, so dropping them leaves the chain's law unchanged. Missing atoms are
    fresh Gamma(a, b) base-measure draws, row by row with k ascending.
    """
    n_star = int(state.alloc.flat[2].max())
    atoms = state.atoms
    missing = n_star - atoms.max_size()
    if missing <= 0:
        atoms.values = atoms.values[:, :n_star]
        return state
    fresh = [[draw_gamma(prior.gamma_a, prior.gamma_b, rng) for _ in range(missing)]
             for _ in range(atoms.values.shape[0])]
    atoms.values = np.hstack((atoms.values, fresh))
    return state


def _root_start(coefficients, x1: float, lo: float, hi: float) -> float:
    """Starting initial condition: the real root of g(x) = x1 in [lo, hi]
    nearest to x1. Each such root is a mode of the x0 full conditional;
    starting at x1 itself, usually far below every mode, lets the first slice
    transitions wander the whole support and settle in a spurious mode. With
    no root there, x1 itself."""
    poly = np.array(coefficients[::-1], dtype=float)
    poly[-1] -= x1
    roots = np.roots(poly)
    real = roots.real[(np.abs(roots.imag) < 1e-9) & (roots.real >= lo) & (roots.real <= hi)]
    if real.size == 0:
        return x1
    return float(real[np.argmin(np.abs(real - x1))])


def init_chain(data: MultiSeries, prior: PriorConfig, rng: RngHandle) -> ChainState:
    """Starting state: prior draws for (p, lambda, delta), least squares for
    theta, residual-quantile precisions for the initial atoms, and each x0 at
    a mode of its full conditional (see ``_root_start``).

    The model is silent about initialization; any finite start is valid under
    the flat priors, and least squares shortens burn-in considerably. A
    singular design falls back to theta = 0, with a logged warning. The
    out-of-sample path starts on the least-squares orbit, a point outside
    the state support replaced by the last observation.
    """
    m = data.m
    if prior.m != m:
        raise ValueError(f"prior is for m={prior.m} but data has m={m} series")
    R = prior.poly_degree

    p = draw_dirichlet(prior.dirichlet_alpha, rng)
    upper = np.triu_indices(m)
    lam = np.empty((m, m))
    lam[upper] = lam[upper[::-1]] = draw_beta(prior.beta_a[upper], prior.beta_b[upper], rng)

    theta, sq_resid, x0, future = np.zeros((m, R + 1)), [], np.empty(m), []
    for j, x in enumerate(data.series):
        design = np.vander(x[:-1], R + 1, increasing=True)
        coeffs, _, rank, _ = np.linalg.lstsq(design, x[1:], rcond=None)
        if rank < R + 1 or not np.all(np.isfinite(coeffs)):
            logger.warning("series %d: singular least-squares start; theta starts at 0", j + 1)
        else:
            theta[j] = coeffs
        sq_resid.append((x[1:] - design @ theta[j]) ** 2)
        lo, hi = prior.x0_support[j].tolist()
        x0[j] = _root_start(theta[j], float(x[0]), lo, hi)
        path, y = [], float(x[-1])
        for _ in range(int(prior.horizon[j])):
            y = eval_map(theta[j], y)
            if not lo <= y <= hi:
                y = float(x[-1])
            path.append(y)
        future.append(np.asarray(path))

    # Initial atoms matched to the least-squares residual scales. Base-measure
    # draws with shape 1e-3 are so diffuse that early allocation sweeps rarely
    # form more than one usable cluster, which can lock the geometric
    # probabilities near 1 for a long stretch of the run.
    probs = (np.arange(INIT_SLICE_BOUND) + 0.5) / INIT_SLICE_BOUND
    scales = [
        quantile(sq_resid[j] if j == l else np.concatenate((sq_resid[j], sq_resid[l])), probs)
        for j, l in zip(*upper)
    ]
    atoms = AtomTable(m, 1.0 / np.maximum(scales, 1e-12))

    delta, d, N = [], [], []
    for j in range(m):
        total = data.lengths[j] + int(prior.horizon[j])
        delta.append(draw_categorical(p[j], rng, total))
        d.append(rng.generator.integers(1, INIT_SLICE_BOUND + 1, size=total))
        N.append(np.full(total, INIT_SLICE_BOUND, dtype=int))
    alloc = Allocations(delta=delta, d=d, N=N)

    state = ChainState(
        atoms=atoms, alloc=alloc, p=p, lam=lam, theta=theta, x0=x0,
        future=future, iteration=0,
    )
    state.validate()
    return state


# --- file output: the one writer, checkpoints and traces -------------------

@contextmanager
def atomic_write(path, newline=None):
    """The package's one file writer: a text handle on ``<path>.tmp``, its
    directory made if missing, renamed over ``path`` when the block ends and
    removed if it raises, so an interrupted write leaves the previous file
    whole. A path that exists but is not a regular file, such as
    ``os.devnull``, is written in place, since a rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    parent = os.path.dirname(os.fspath(path))
    if parent and not os.path.isdir(parent):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # a kill or Ctrl-C too; re-raised
        os.remove(tmp)
        raise


def write_text(path, text: str, newline=None) -> None:
    """Write ``text`` to ``path`` whole, through ``atomic_write``."""
    with atomic_write(path, newline) as fh:
        fh.write(text)


def save_checkpoint(path, state: ChainState, rng: RngHandle, extra: Optional[dict] = None) -> None:
    """Write the checkpoint, compact JSON, whole: a run killed mid-write
    keeps the previous checkpoint."""
    doc = {"state": state.to_dict(), "rng": rng.get_state()}
    if extra:
        doc.update(extra)
    write_text(path, json.dumps(doc))


def load_checkpoint(path, data: MultiSeries, prior: PriorConfig):
    """(state, rng, doc) of a checkpoint, its state read by ``ChainState.from_dict``."""
    with open(path) as fh:
        doc = json.load(fh)
    return ChainState.from_dict(doc["state"], data, prior), RngHandle.from_state(doc["rng"]), doc


# json.dumps's spelling of the non-finite floats whose repr is the key
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _slots(value) -> str:
    """``json.dumps`` of a ``_plain`` value with every number a ``%s`` slot."""
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(map(_slots, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_slots(v)}" for k, v in value.items()) + "}"
    return "%s"


def _trace_lines(trace: Trace):
    """The trace rendered once: the trace.csv header, then each record's
    (JSONL line, CSV line). Every value is formatted once, by ``repr``,
    which is also ``json.dumps``'s text of an int and a finite float: the
    JSON line fills its slots with the texts and the CSV line picks its
    columns from them. Only a non-finite float is spelled apart in JSON."""
    block_names, columns = zip(*_blocks(trace))
    names = [name for block in block_names for name in block]
    csv_columns = operator.itemgetter(*[k for k, name in enumerate(names) if name])
    finite = np.logical_and.reduce([np.isfinite(values).all(axis=1) for values in columns])
    template = _slots(_plain(trace[0])) + "\n"
    yield ",".join(filter(None, names)) + "\r\n"
    for i, is_finite in enumerate(finite.tolist()):
        texts = []
        for values in columns:
            texts += map(repr, values[i].tolist())
        csv_line = ",".join(csv_columns(texts)) + "\r\n"
        if not is_finite:
            texts = [_JSON_NONFINITE.get(text, text) for text in texts]
        yield template % tuple(texts), csv_line


def write_trace_jsonl(path, trace: Trace, csv_path=None) -> None:
    """One JSON object per record, keyed by the Trace fields in order, as
    ``json.dumps`` writes it. With ``csv_path``, trace.csv too: a header of
    the column names, then one line per record, each value as its ``repr``
    (an exact round trip), every line ended by csv's CRLF. Both files are
    written record by record from one rendering, each whole (``atomic_write``)."""
    lines = _trace_lines(trace)
    header = next(lines)
    with atomic_write(path) as jsonl:
        if csv_path is None:
            jsonl.writelines(json_line for json_line, _ in lines)
            return
        with atomic_write(csv_path, newline="") as csv:
            csv.write(header)
            for json_line, csv_line in lines:
                jsonl.write(json_line)
                csv.write(csv_line)


def read_trace_jsonl(path) -> Trace:
    with open(path) as fh:
        return Trace.stack([json.loads(line) for line in fh if line.strip()])
