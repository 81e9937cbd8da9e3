"""Spans and counters for the traced benchmark run, kept in the benchmark.

The package is measured from outside: :func:`instrumented` replaces
``gibbs.sweep`` and ``gibbs.parametric_sweep`` with replays that call the
public kernels one at a time inside spans, and rebinds the distributions,
dynamics, model and diagnostics functions that ``gibbs``, ``model`` and
``cli`` import to counting timers. Every binding is restored on exit.
Span times are inclusive: ``slice_sample_1d`` contains the ``eval_map`` calls
it makes, and ``gibbs.x0``/``gibbs.future`` contain both.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pdgsbr import cli, gibbs, model

# Functions timed and counted at every place they are imported, by layer.
TIMED = {
    "distributions": ("draw_gamma", "draw_beta", "draw_dirichlet", "draw_categorical",
                      "slice_sample_1d"),
    "dynamics": ("eval_map", "simulate_series"),
    "model": ("init_chain", "save_checkpoint", "write_trace_csv", "write_trace_jsonl",
              "read_trace_jsonl"),
    "diagnostics": ("kde", "pare_table", "hpdi", "ergodic_average"),
}
IMPORTERS = (gibbs, model, cli)

MIXTURE_KERNELS = ("alloc_block", "slice_N", "precisions", "selection", "geometric",
                   "noise_predictive")
SHARED_KERNELS = ("theta", "x0", "future", "tau_common")


# --- work counters, read from the chain state between kernel calls -----------

def alloc_cells(state) -> tuple:
    """(cells, live) of the next allocation block.

    The block scores every point of series j against an (m, K_j) atom matrix,
    K_j the longest atom row of j, so it attempts sum_j (n_j+T_j) m K_j cells;
    only the m min(N_ji, K_j) cells under each point's own slice bound can be
    drawn.
    """
    cells = live = 0
    for j, N in enumerate(state.alloc.N):
        width = max(state.atoms.size(j, l) for l in range(state.m))
        cells += N.size * state.m * width
        live += state.m * int(np.minimum(N, width).sum())
    return cells, live


def cap_hits(state) -> int:
    """Points whose slice bound sits at gibbs.SLICE_BOUND_CAP."""
    return sum(int(np.count_nonzero(N >= gibbs.SLICE_BOUND_CAP)) for N in state.alloc.N)


def precision_draws(state) -> int:
    """Scalar gamma draws of one update_precisions call: one per stored atom."""
    return sum(state.atoms.size(j, l) for j, l in state.atoms.pairs())


class Tracer:
    """In-memory span and counter totals of one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.sweep_s = []
        self.nstar = []
        self.cap_hits = 0
        self.cells = 0
        self.live = 0
        self.precision_draws = 0

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start
            self.calls[name] += 1

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - start
                self.calls[name] += 1
        return timed

    def mixture_sweep(self, state, data, prior, config, rng):
        """gibbs.sweep, one span per kernel, with the counters between them."""
        start = perf_counter()
        cells, live = alloc_cells(state)
        self.cells += cells
        self.live += live
        with self.span("gibbs.alloc_block"):
            gibbs.update_alloc_block(state, data, prior, rng)
        with self.span("gibbs.slice_N"):
            gibbs.update_slice_N(state, prior, rng)
        self.nstar.append(state.atoms.max_size())
        self.cap_hits += cap_hits(state)
        self.precision_draws += precision_draws(state)
        with self.span("gibbs.precisions"):
            gibbs.update_precisions(state, data, prior, rng)
        with self.span("gibbs.selection"):
            gibbs.update_selection_probs(state, prior, rng)
        with self.span("gibbs.geometric"):
            gibbs.update_geometric_probs(state, prior, rng)
        with self.span("gibbs.theta"):
            gibbs.update_theta(state, data, prior, rng)
        with self.span("gibbs.x0"):
            gibbs.update_x0(state, data, prior, rng, config)
        with self.span("gibbs.future"):
            gibbs.update_future(state, data, prior, rng, config)
        with self.span("gibbs.noise_predictive"):
            z = gibbs.sample_noise_predictive(state, prior, rng)
        state.iteration += 1
        self.sweep_s.append(perf_counter() - start)
        return state, z

    def parametric_sweep(self, state, data, prior, config, rng):
        """gibbs.parametric_sweep, one span per kernel."""
        start = perf_counter()
        with self.span("gibbs.tau_common"):
            shape, rate = gibbs.parametric_tau_params(state, data, prior)
            state.tau_common = gibbs.draw_gamma(shape, rate, rng)
        tau = state.tau_common
        with self.span("gibbs.theta"):
            gibbs.update_theta(state, data, prior, rng, tau_override=tau)
        with self.span("gibbs.x0"):
            gibbs.update_x0(state, data, prior, rng, config, tau_override=tau)
        with self.span("gibbs.future"):
            gibbs.update_future(state, data, prior, rng, config, tau_override=tau)
        z = rng.generator.normal(0.0, tau ** -0.5, size=state.m)
        state.iteration += 1
        self.sweep_s.append(perf_counter() - start)
        return state, z


@contextmanager
def instrumented(tracer: Tracer):
    """Route the package through ``tracer`` for the duration of the block."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        rebind(gibbs, "sweep", tracer.mixture_sweep)
        rebind(gibbs, "parametric_sweep", tracer.parametric_sweep)
        for layer, names in TIMED.items():
            for module in IMPORTERS:
                if module.__name__ == f"pdgsbr.{layer}":
                    continue
                for name in names:
                    if hasattr(module, name):
                        rebind(module, name, tracer.counted(f"{layer}.{name}",
                                                            getattr(module, name)))
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

