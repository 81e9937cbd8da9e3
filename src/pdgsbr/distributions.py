"""Seeded random-variate primitives, a slice sampler and numeric-input domains.

Every draw goes through an explicit :class:`RngHandle`; there is no module or
global generator state. One handle belongs to exactly one chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidStateError, ParameterDomainError

# Positive floor applied to gamma variates so that extreme shapes (e.g. the
# 1e-3 reference-prior setting) can never underflow to exactly zero.
_GAMMA_FLOOR = 1e-300


class Domain(NamedTuple):
    """Where a numeric input may lie: ``holds`` marks the values of a float
    array inside; a ``whole`` domain holds whole numbers only, read as ints."""

    text: str
    holds: Callable
    whole: bool = False


def whole_from(low: int) -> Domain:
    """The whole numbers from ``low`` up, each within an int64."""
    return Domain(f"a whole number >= {low}", lambda x: (low <= x) & (x < 2.0 ** 63), True)


REAL = Domain("a finite number", np.isfinite)
POSITIVE = Domain("a finite number > 0", lambda x: (0 < x) & (x < math.inf))
PROBABILITY = Domain("a finite number in [0, 1]", lambda x: (0 <= x) & (x <= 1))
UNIT = Domain("a finite number in (0, 1)", lambda x: (0 < x) & (x < 1))
WHOLE = Domain("a whole number", np.isfinite, True)
COUNT = whole_from(0)


def declared(domain: Domain, default=MISSING):
    """A dataclass field whose values must lie in ``domain``."""
    return field(default=default, metadata={"domain": domain})


def _check_shape(name: str, got: tuple, shape: tuple) -> None:
    """ValueError unless ``got`` is ``shape``, None there for an axis of any length."""
    if got != shape and (len(got) != len(shape) or any(want not in (None, size)
                                                        for size, want in zip(got, shape))):
        raise ValueError(f"{name} has shape {got} where {shape} is expected")


def in_domain(name: str, values, domain: Domain, shape: tuple = ()):
    """``values``, a number or an array of them, checked against ``shape``
    (None there for an axis of any length) and ``domain``: a float or float
    array, or for a whole-number domain an int (exact, however large) or int
    array. ValueError naming ``name`` if it cannot be read as numbers, and
    the shape if it differs, a bool, or the first value outside the domain;
    a string reads as its number."""
    try:
        array = np.asarray(values)
        real = array.astype(float)
    except (TypeError, ValueError) as error:  # a string that is no number, or ragged lists
        raise ValueError(f"{name} cannot be read as numbers: {error}") from None
    _check_shape(name, array.shape, shape)
    if (values is not array or array.dtype.kind in "bO") and any(  # ints and bools read as ints
            isinstance(v, (bool, np.bool_)) for v in np.array(values, dtype=object).flat):
        raise ValueError(f"{name} holds a bool where a number is expected")
    inside = domain.holds(real)
    if domain.whole:
        inside &= real == np.trunc(real)
    if not inside.all():
        raise ValueError(f"{name} holds {array[~inside][0]} where {domain.text} is expected")
    if not shape:
        return int(array) if domain.whole else float(real)
    return real.astype(int) if domain.whole else real


def json_numbers(name: str, values, shape: tuple, domain=None):
    """``values`` (nested lists as JSON holds them, or lists of arrays) as a
    float array of ``shape``, None there for an axis of any length, checked
    by ``in_domain`` where a ``domain`` is given. ValueError naming ``name``
    if the shape differs, if a value is not a number (a string, a boolean or
    null, say) or the lists are ragged, or if a value lies outside the domain."""
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError) as error:  # a string that is no number, or ragged lists
        raise ValueError(f"{name} cannot be read as numbers: {error}") from None
    _check_shape(name, array.shape, shape)
    if shape and set(map(type, values)) == {np.ndarray}:  # the chain driver's rows
        kinds = {value.dtype.type for value in values}
    else:  # every scalar, one type check each
        scalars = [values]
        for _ in shape:
            scalars = itertools.chain.from_iterable(scalars)
        kinds = set(map(type, scalars))
    odd = [kind.__name__ for kind in kinds
           if kind is bool or not issubclass(kind, (int, float, np.number))]
    if odd:
        raise ValueError(f"{name} holds a {odd[0]} where a number is expected")
    return array if domain is None else in_domain(name, array, domain, shape)


class RngHandle:
    """A seeded pseudo-random generator confined to one chain.

    Identical seeds produce bit-identical draw sequences. The internal state
    is serializable, so a chain can be checkpointed and resumed exactly.
    """

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))

    def get_state(self) -> dict:
        return {"bit_generator": self.generator.bit_generator.state}

    @classmethod
    def from_state(cls, state: dict) -> "RngHandle":
        """The handle ``get_state`` recorded; any other key, such as the seed
        older checkpoints carried, is ignored."""
        handle = cls(0)
        handle.generator.bit_generator.state = state["bit_generator"]
        return handle


def draw_gamma(shape: float, rate: float, rng: RngHandle) -> float:
    """Draw from Gamma(shape, rate) with density proportional to x^(shape-1) e^(-rate x).

    Valid for arbitrarily small shapes: for shape < 1 the draw is boosted
    through Gamma(shape+1) and scaled by U^(1/shape), which keeps the result
    strictly positive where a direct draw would underflow.
    """
    if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
        raise ParameterDomainError(f"gamma parameters must be positive, got ({shape}, {rate})")
    gen = rng.generator
    if shape >= 1.0:
        value = gen.standard_gamma(shape) / rate
    else:
        # log-space boost: X = G(shape+1) * U^(1/shape), U = 1 - random() in (0, 1]
        g = gen.standard_gamma(shape + 1.0)
        value = math.exp(math.log(g) + math.log1p(-gen.random()) / shape - math.log(rate))
    return value if value > _GAMMA_FLOOR else _GAMMA_FLOOR


def draw_beta(a, b, rng: RngHandle):
    """Draw from Beta(a, b). Works elementwise on arrays of ``a`` and ``b``,
    one scalar ``Generator.beta`` call per element in C order (an array
    call's per-element routine); scalar arguments give a float."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not all(0.0 < v < math.inf for v in a.ravel().tolist() + b.ravel().tolist()):
        raise ParameterDomainError(f"beta parameters must be positive, got ({a}, {b})")
    pairs = np.broadcast(a, b)  # (a, b) pairs in C order
    # keep strictly inside (0, 1): downstream geometric weights need both tails open
    eps = 1e-15
    value = [min(max(rng.generator.beta(x, y), eps), 1.0 - eps) for x, y in pairs]
    return np.reshape(value, pairs.shape) if pairs.shape else value[0]


def draw_dirichlet(alpha: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Draw a probability vector from Dirichlet(alpha); a 2-D ``alpha`` draws
    one vector per row, in row order."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.size == 0:
        raise ParameterDomainError("alpha must be a non-empty vector or matrix")
    if not all(0.0 < v < math.inf for v in alpha.ravel().tolist()):
        raise ParameterDomainError(f"alpha entries must be positive, got {alpha}")
    g = rng.generator.standard_gamma(alpha)
    np.maximum(g, _GAMMA_FLOOR, out=g)
    return np.divide(g, g.sum(axis=-1, keepdims=True), out=g)


def draw_categorical(weights: np.ndarray, rng: RngHandle, size=None):
    """Draw a zero-based index with probability proportional to ``weights``.

    Weights need not be normalized; the draw is scale-invariant. With
    ``size``, an int array of that many independent draws, which equals
    ``size`` scalar calls: one uniform per draw, in order.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ParameterDomainError("weights must be a non-empty vector")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ParameterDomainError(f"weights must be finite and non-negative, got {weights}")
    total = weights.sum()
    if total <= 0:
        raise ParameterDomainError("all weights are zero")
    cumulative = np.cumsum(weights)
    index = np.searchsorted(cumulative, rng.generator.random(size) * total, side="right")
    if size is None:
        return int(min(index, weights.size - 1))
    return np.minimum(index, weights.size - 1)


def draw_truncated_geometric(lam, min_value, rng: RngHandle):
    """Draw N with P{N = r} = lam (1 - lam)^(r - min_value) for r >= min_value.

    Sampled by inversion on the closed-form tail CDF, O(1) and exact. Works
    elementwise on arrays of ``lam`` and ``min_value``, drawing one uniform
    per element in order; scalar arguments give an int.
    """
    lam = np.asarray(lam, dtype=float)
    min_value = np.asarray(min_value)
    if not (lam.min() > 0.0 and lam.max() < 1.0):
        raise ParameterDomainError(f"lambda must lie in (0, 1), got {lam}")
    if min_value.min() < 1:
        raise ParameterDomainError(f"min_value must be >= 1, got {min_value}")
    u = rng.generator.random(np.broadcast(lam, min_value).shape)
    # floor(log(1-u) / log(1-lam)) is a Geometric(lam) variate on {0, 1, ...}
    offset = np.floor(np.log1p(-u) / np.log1p(-lam))
    if offset.max() >= 2.0 ** 62:  # would wrap as int64; needs lam below about 1e-17
        raise ParameterDomainError(f"lambda too close to 0 for an int64 draw, got {lam}")
    draw = min_value + offset.astype(np.int64)
    return draw if draw.ndim else int(draw)


def slice_sample_1d(
    log_f: Callable[[float], float],
    lo: float,
    hi: float,
    current: float,
    width: float,
    max_stepout: int,
    rng: RngHandle,
) -> float:
    """One stepping-out/shrinkage slice-sampling transition of the density
    proportional to exp(log_f) on [lo, hi] (-inf outside).

    The stepping-out interval is expanded by at most ``max_stepout`` widths in
    total (split randomly between the two sides, Neal 2003) and is always
    clipped to [lo, hi], the only points where ``log_f`` is evaluated. Leaves
    the normalized target invariant; suitable for the multimodal
    polynomial-exponent target of the initial-condition kernel.
    """
    if not lo < hi:
        raise ParameterDomainError(f"empty support [{lo}, {hi}]")
    if not 0 < width < math.inf:
        raise ParameterDomainError(f"width must be positive and finite, got {width}")
    log_fx = log_f(current) if lo <= current <= hi else -math.inf
    if not math.isfinite(log_fx):
        raise InvalidStateError(f"non-finite log-density {log_fx} at current point {current}")

    gen = rng.generator
    # vertical level: log u + log f(x) with u in (0, 1]
    log_y = log_fx + math.log1p(-gen.random())

    # stepping out, clipped to the support; left stays <= current, right can round below lo
    left = current - width * gen.random()
    right = left + width
    steps_left = int(math.floor(max_stepout * gen.random()))
    steps_right = max_stepout - 1 - steps_left
    while steps_left > 0 and left > lo and log_f(left) > log_y:
        left -= width
        steps_left -= 1
    while steps_right > 0 and lo <= right < hi and log_f(right) > log_y:
        right += width
        steps_right -= 1
    left = max(left, lo)
    right = min(right, hi)

    # shrinkage; rounding can put a proposal outside [lo, hi] (below lo when right is)
    while True:
        proposal = left + gen.random() * (right - left)
        if lo <= proposal <= hi and log_f(proposal) > log_y:
            return proposal
        if proposal < current:
            left = proposal
        else:
            right = proposal
        if right - left < 1e-300:
            return current
