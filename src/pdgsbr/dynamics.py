"""Deterministic polynomial maps and synthetic multi-series generation.

Series are generated by the lag-one recursion x_i = g(theta, x_{i-1}) + z_i
with z_i drawn from a finite zero-mean Gaussian mixture. Pairs of series may
share mixture components; sharing is by construction (one immutable spec
object compounded into each series' noise).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import (POSITIVE, PROBABILITY, REAL, RngHandle, in_domain, json_numbers,
                            whole_from)
from .errors import DivergenceError

# Values beyond this magnitude mean the orbit has left any basin of interest;
# polynomial maps then explode super-exponentially.
DIVERGENCE_BOUND = 1e12

# How far from 1 the weights of a mixture, or a selection row, may sum.
WEIGHT_SUM_TOLERANCE = 1e-12


def as_map(coefficients) -> tuple:
    """A map from outside the program as finite float coefficients theta_0..theta_R."""
    coefficients = tuple(map(float, in_domain("map coefficients", coefficients, REAL, (None,))))
    if not coefficients:
        raise ValueError("a polynomial map needs at least a constant term")
    return coefficients


def eval_map(coefficients, x):
    """Horner evaluation of g(theta, x) = sum_r theta_r x^r, on a scalar or
    elementwise on an array (the multiplies and adds run in the order of
    numpy's polyval, so the two agree bit for bit). An array ``x`` is
    evaluated in place, on one buffer of its shape."""
    acc = np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
    for c in reversed(coefficients):
        acc *= x
        acc += c
    return acc


def quadratic_map(q: float) -> tuple:
    """1 - q x^2, padded to quintic length."""
    return (1.0, 0.0, -q, 0.0, 0.0, 0.0)


def cubic_map(c: float) -> tuple:
    """0.05 + c x - 0.99 x^3, padded to quintic length."""
    return (0.05, c, 0.0, -0.99, 0.0, 0.0)


# The synthetic maps used throughout the numerical experiments.
NAMED_MAPS = {
    "Q1": quadratic_map(1.65),
    "Q2": quadratic_map(1.71),
    "Q3": quadratic_map(1.75),
    "C1": cubic_map(2.55),
    "C2": cubic_map(2.65),
}


@dataclass(frozen=True)
class NoiseMixtureSpec:
    """Finite zero-mean Gaussian mixture: weights over per-component variances.

    Checked once, when built. It then keeps what each draw needs: the running
    sums of the weights, their total and each component's standard deviation.
    """

    weights: tuple
    variances: tuple
    cumulative: tuple = field(init=False, repr=False, compare=False)
    total: float = field(init=False, repr=False, compare=False)
    sd: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = tuple(map(float, in_domain("weights", self.weights, PROBABILITY, (None,))))
        v = tuple(map(float, in_domain("variances", self.variances, POSITIVE, (None,))))
        if len(w) != len(v) or len(w) == 0:
            raise ValueError("weights and variances must be non-empty and equal length")
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")
        for name, value in (("weights", w), ("variances", v),
                            ("cumulative", tuple(np.cumsum(w).tolist())),
                            ("total", float(np.sum(w))), ("sd", tuple(map(math.sqrt, v)))):
            object.__setattr__(self, name, value)


def compound_noise(selection: Sequence[float], components: Sequence[Optional[NoiseMixtureSpec]]) -> NoiseMixtureSpec:
    """Compound a selection-probability row with shared component mixtures.

    Entries of ``components`` with zero selection weight may be None. The
    result is one flat mixture whose shared sub-blocks carry identical
    parameters wherever the same component object is reused across series.
    Its weights are scaled to sum to 1, so rounding cannot fail its check.
    """
    weights, variances = [], []
    for p, comp in zip(selection, components):
        if p == 0:
            continue
        if comp is None:
            raise ValueError("nonzero selection weight on a missing component")
        for w, v in zip(comp.weights, comp.variances):
            weights.append(p * w)
            variances.append(v)
    total = sum(weights)
    return NoiseMixtureSpec(tuple(w / total for w in weights), tuple(variances))


def sample_noise(spec: NoiseMixtureSpec, rng: RngHandle) -> float:
    """One draw from the finite mixture: the component by one uniform, as
    ``distributions.draw_categorical`` draws it, then its normal."""
    k = min(bisect_right(spec.cumulative, rng.generator.random() * spec.total),
            len(spec.sd) - 1)
    return float(rng.generator.normal(0.0, spec.sd[k]))


@dataclass
class MultiSeries:
    """Observed multi-series with optional synthetic truth: its maps and held-out futures."""

    series: list  # list of 1-d float arrays
    maps_true: Optional[list] = None
    futures_true: Optional[list] = None

    def __post_init__(self):
        self.series = [in_domain(f"series {j}", s, REAL, (None,))
                       for j, s in enumerate(self.series, 1)]
        for j, s in enumerate(self.series, 1):
            if np.size(s) < 2:
                raise ValueError(f"series {j} has fewer than 2 observations")
        for name, value in (("maps", self.maps_true), ("futures", self.futures_true)):
            if value is not None and len(value) != self.m:
                raise ValueError(f"truth {name} holds {len(value)} series, not {self.m}")

    @property
    def m(self) -> int:
        return len(self.series)

    @property
    def lengths(self) -> list:
        return [int(s.size) for s in self.series]

    def to_json_dict(self) -> dict:
        doc = {"series": [s.tolist() for s in self.series]}
        if self.maps_true is not None:
            futures = self.futures_true
            doc["truth"] = {
                "maps": [list(p) for p in self.maps_true],
                "futures": None if futures is None else [list(map(float, f)) for f in futures],
            }
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MultiSeries":
        truth = doc.get("truth") if isinstance(doc, dict) else None
        if not isinstance(doc, dict) or not isinstance(truth, (dict, type(None))):
            raise ValueError("a data file and its truth must be JSON objects")
        kwargs = {}
        if truth is not None:
            futures = truth.get("futures")  # an older file's x0, noise and selection go unread
            kwargs = {
                "maps_true": [as_map(json_numbers("maps", c, (None,))) for c in truth["maps"]],
                "futures_true": None if futures is None else
                [json_numbers("futures", f, (None,), REAL) for f in futures],
            }
        return cls(series=[json_numbers(f"series {j}", s, (None,))
                           for j, s in enumerate(doc["series"], 1)], **kwargs)

    @classmethod
    def load_json(cls, path) -> "MultiSeries":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def simulate_series(
    poly: tuple,
    noise: NoiseMixtureSpec,
    n: int,
    x0: float,
    horizon: int,
    rng: RngHandle,
    series_index: Optional[int] = None,
):
    """Simulate n observations plus ``horizon`` held-out futures from one map.

    The futures continue the recursion in the same RNG stream, so the truth is
    reproducible from the data seed alone. Raises DivergenceError when a
    value leaves the guard region.
    """
    n = in_domain("n", n, whole_from(1))
    values = np.empty(n + horizon)
    x = float(x0)
    for i in range(n + horizon):
        x = eval_map(poly, x) + sample_noise(noise, rng)
        if not math.isfinite(x) or abs(x) > DIVERGENCE_BOUND:
            raise DivergenceError(i, series=series_index)
        values[i] = x
    return values[:n].copy(), values[n:].copy()


def simulate_multi(specs, horizons, rng: RngHandle) -> MultiSeries:
    """Simulate m series from per-series (map, noise, n, x0) specs with
    ``horizons`` held-out points each; a diverging one raises DivergenceError."""
    obs, futs = [], []
    for j, ((poly, noise, n, x0), horizon) in enumerate(zip(specs, horizons)):
        series, future = simulate_series(poly, noise, n, x0, horizon, rng, series_index=j)
        obs.append(series)
        futs.append(future)
    return MultiSeries(series=obs, maps_true=[spec[0] for spec in specs], futures_true=futs)
