"""Finite-support random matrices and product models of independent inputs.

All expectations here are exact enumerations; the joint size of a product
model is guarded so nothing above desk scale is attempted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge
from .linalg import UNIT_INTERVAL, _require_hermitian_stack, eigenvalues, hermitian_part

MAX_ENUMERATION = 10**6
PLAN_CACHE_BYTES = 2**18  # resampling plans above this are built per call, never kept
PLAN_CACHE_SIZE = 32  # so the kept plans hold at most 8 MiB of indices


def weighted_sum(weights: np.ndarray, stack: np.ndarray, item: int) -> np.ndarray:
    """sum_k weights[..., k] stack[..., k, ...] for (..., K) weights and a
    stack whose last ``item`` axes hold one summand and whose K axis comes
    just before them; the leading axes broadcast. One matmul on the
    flattened summands makes the BLAS call that np.tensordot(row, stack,
    axes=1) makes for each row of weights, so on a stack of the same
    memory layout it rounds each sum as tensordot does, without
    tensordot's overhead."""
    lead, shape = stack.shape[:stack.ndim - item], stack.shape[stack.ndim - item:]
    mixed = weights[..., None, :] @ stack.reshape(lead + (math.prod(shape),))
    return mixed.reshape(mixed.shape[:-2] + shape)


def require_probabilities(probs, what: str, positive: bool = True) -> np.ndarray:
    """probs as floats, a vector or each row of a matrix a probability vector:
    entries strictly positive (nonnegative unless ``positive``) and summing
    to 1 within 1e-12; NaN fails the sum. Otherwise a one-line ValueError
    names the first bad row."""
    probs = np.asarray(probs, dtype=float)
    low = probs <= 0 if positive else probs < 0
    off = ~(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12)
    if low.any() or off.any():
        rows, low = np.atleast_2d(probs), np.atleast_2d(low)
        k = int(np.argmax(low.any(axis=-1) | off.ravel()))
        name = f"{what} row {k}" if probs.ndim > 1 else what
        if low[k].any():
            sign = "strictly positive" if positive else "nonnegative"
            raise ValueError(f"{name}: entry {float(rows[k][low[k]][0])!r} is not {sign}")
        raise ValueError(f"{name}: sum {float(rows[k].sum())!r} is not 1")
    return probs


@dataclass(frozen=True)
class DiscreteRandomMatrix:
    """Finite-support law {(p_k, Z_k)} over Hermitian matrices.

    Positivity of the support values is a property of the operations that
    need it (entropy evaluation checks spectra against the generator's
    domain); sign-indefinite laws are allowed for the moment identities.
    """

    probs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(f"values must be (K, d, d), got {values.shape}")
        if probs.shape != (values.shape[0],):
            raise DimensionMismatch("probabilities and values disagree in length")
        probs = require_probabilities(probs, "support probabilities")
        values = _require_hermitian_stack(values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def mean(self) -> np.ndarray:
        return hermitian_part(self.expect(self.values))

    def expect(self, stack) -> np.ndarray:
        """sum_k p_k stack[k] over a (K, ...) stack of per-value quantities."""
        stack = np.asarray(stack)
        return weighted_sum(self.probs, stack, stack.ndim - 1)


@dataclass(frozen=True)
class FiniteLaw:
    """One independent input: probabilities over opaque outcomes
    (labels, scalars, or matrices)."""

    probs: np.ndarray
    outcomes: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(self.outcomes) != probs.size:
            raise DimensionMismatch("probabilities and outcomes disagree in length")
        object.__setattr__(self, "probs", require_probabilities(probs, "input probabilities"))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @classmethod
    def uniform(cls, outcomes: Sequence) -> "FiniteLaw":
        k = len(outcomes)
        return cls(np.full(k, 1.0 / k), tuple(outcomes))

    @property
    def size(self) -> int:
        return self.probs.size


def _require_enumerable(laws: Sequence[FiniteLaw]) -> tuple[FiniteLaw, ...]:
    """The laws as a tuple, refused when their joint support exceeds MAX_ENUMERATION."""
    laws = tuple(laws)
    size = math.prod(law.size for law in laws)
    if size > MAX_ENUMERATION:
        raise EnumerationTooLarge(f"joint support size {size} exceeds {MAX_ENUMERATION}")
    return laws


@dataclass(frozen=True)
class ResamplingPlan:
    """Joint-table indices shared by every product model of one tuple of
    input sizes: ``rows``, each input's ``_rows`` in turn; ``pairs[i]``, the
    ends k < l of input i's pairs within a slice, row-major; ``ends``, the
    (2, P) table indices of both ends of every slice's pairs, input after input."""

    rows: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    ends: np.ndarray


def _rows(sizes: tuple[int, ...], i: int) -> np.ndarray:
    """The (rest, s_i) joint-table indices of input i's slices, row-major."""
    table = np.arange(math.prod(sizes)).reshape(-1, sizes[i], math.prod(sizes[i + 1:]))
    return table.swapaxes(1, 2).reshape(-1, sizes[i])


def _build_plan(sizes: tuple[int, ...]) -> ResamplingPlan:
    cuts = [_rows(sizes, i) for i in range(len(sizes))]
    pairs = tuple(np.triu_indices(s, 1) for s in sizes)
    rows = np.concatenate([np.empty(0, dtype=np.intp)] + [cut.ravel() for cut in cuts])
    ends = np.concatenate(
        [np.empty((2, 0), dtype=np.intp)]
        + [np.stack([cut[:, k].ravel(), cut[:, l].ravel()]) for cut, (k, l) in zip(cuts, pairs)],
        axis=1,
    )
    for a in (rows, ends, *(end for pair in pairs for end in pair)):
        a.flags.writeable = False  # shared by every model of these sizes
    return ResamplingPlan(rows, pairs, ends)


_cached_plan = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(_build_plan)


def resampling_plan(sizes: tuple[int, ...]) -> ResamplingPlan:
    """The plan of these input sizes. It holds joint * sum(sizes) indices
    (each input's rows and each pair's two ends); one of at most
    PLAN_CACHE_BYTES is kept for the next model of the same sizes."""
    if math.prod(sizes) * sum(sizes) * np.dtype(np.intp).itemsize > PLAN_CACHE_BYTES:
        return _build_plan(sizes)
    return _cached_plan(sizes)


def cut(values: np.ndarray, sizes: tuple[int, ...], i: int) -> np.ndarray:
    """(..., joint, d, d) tables of these input sizes cut along input i by
    its ``_rows`` alone, no plan built, into C-contiguous (..., rest, s_i, d, d)."""
    return np.take(values, _rows(sizes, i), axis=-3)


def _tabulate(laws: Sequence[FiniteLaw], evaluator: Callable[[tuple], np.ndarray]):
    """The laws after the size guard, and evaluator(x) in table order (``iter_joint``'s)."""
    laws = _require_enumerable(laws)
    return laws, [evaluator(x) for x in itertools.product(*(law.outcomes for law in laws))]


@dataclass(frozen=True)
class ProductModel:
    """Independent inputs X_1..X_n and the (joint_size, d, d) table of
    Z = f(X_1, ..., X_n) over their joint outcomes, indexed in mixed radix
    with the first input varying slowest. The constructor guards the size,
    takes the joint probabilities from ``iter_joint`` and validates the
    table once, as the joint law that ``to_law`` returns."""

    laws: tuple[FiniteLaw, ...]
    values: np.ndarray
    _law: DiscreteRandomMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "laws", _require_enumerable(self.laws))
        values = np.asarray(self.values, dtype=complex)
        if values.shape[:1] != (self.joint_size,):
            raise DimensionMismatch(
                f"values of shape {values.shape} for {self.joint_size} joint outcomes"
            )
        probs = np.array([p for p, _ in self.iter_joint()])
        # n inputs, each within 1e-12 of summing to 1, can put the joint law
        # n times as far off; a joint within 1e-12 keeps its probabilities
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            probs = probs / probs.sum()
        law = DiscreteRandomMatrix(probs, values)
        object.__setattr__(self, "values", law.values)
        object.__setattr__(self, "_law", law)

    @classmethod
    def tabulate(
        cls, laws: Sequence[FiniteLaw], evaluator: Callable[[tuple], np.ndarray]
    ) -> "ProductModel":
        """The model of Z = evaluator(outcome tuple), called once per joint
        outcome in table order after the size guard."""
        return cls(*_tabulate(laws, evaluator))

    @property
    def n(self) -> int:
        return len(self.laws)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(law.size for law in self.laws)

    @property
    def joint_size(self) -> int:
        return math.prod(self.sizes)

    @functools.cached_property
    def rest_weights(self) -> tuple[np.ndarray, ...]:
        """For each input, the probabilities of the other inputs' joint
        assignments (first input slowest), multiplied left to right: the
        outer products of the earlier inputs are shared, then each goes on
        over the later ones."""
        weights, prefix = [], np.ones(())
        for i, law in enumerate(self.laws):
            w = prefix
            for later in self.laws[i + 1:]:
                w = np.multiply.outer(w, later.probs)
            w = w.ravel()
            w.flags.writeable = False
            weights.append(w)
            prefix = np.multiply.outer(prefix, law.probs)
        return tuple(weights)

    def iter_joint(self) -> Iterator[tuple[float, tuple]]:
        """(probability, outcome tuple) of each joint outcome in table order;
        the probability multiplies the inputs' first input first."""
        inputs = (zip(law.probs.tolist(), law.outcomes) for law in self.laws)
        for pairs in itertools.product(*inputs):
            yield math.prod(p for p, _ in pairs), tuple(x for _, x in pairs)

    def slices(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The joint table cut along the i-th input: the weights (rest,)
        of the other inputs' assignments (first input slowest), the i-th
        input's probabilities (s_i,) and the values (rest, s_i, d, d) of
        Z as the i-th input varies with the others pinned (``cut``)."""
        if not 0 <= i < self.n:
            raise IndexError(f"input index {i} out of range for n={self.n}")
        return self.rest_weights[i], self.laws[i].probs, cut(self.values, self.sizes, i)

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """Joint probabilities, values, each input's probabilities, then each
        input's rest weights: the model's own arrays, stacking over models of one sizes."""
        return (self._law.probs, self.values, *(law.probs for law in self.laws), *self.rest_weights)

    def to_law(self) -> DiscreteRandomMatrix:
        return self._law


@dataclass(frozen=True, init=False)
class MatrixInputModel(ProductModel):
    """Product model whose inputs are matrices in the interval [0, I],
    tabulated from ``evaluator``; the evaluator stays for the convexity
    probes that leave the support.

    ``partial_norm(xs, i)`` returns the exact induced norm of the i-th
    partial derivative of the evaluator at the tuple ``xs``.
    """

    evaluator: Callable[[tuple], np.ndarray]
    partial_norm: Callable[[tuple, int], float]

    def __init__(self, laws, evaluator, partial_norm):
        laws = tuple(laws)
        for law in laws:
            UNIT_INTERVAL.admit(eigenvalues(_require_hermitian_stack(np.stack(law.outcomes))))
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "partial_norm", partial_norm)
        ProductModel.__init__(self, *_tabulate(laws, evaluator))
