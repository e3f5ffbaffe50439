"""Finite-support random matrices and product models of independent inputs.

All expectations here are exact enumerations; the joint size of a product
model is guarded so nothing above desk scale is attempted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge
from .linalg import UNIT_INTERVAL, _require_hermitian_stack, eigenvalues, hermitian_part

MAX_ENUMERATION = 10**6


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

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, np.ndarray]]) -> "DiscreteRandomMatrix":
        probs = np.array([p for p, _ in pairs], dtype=float)
        values = np.stack([np.asarray(v, dtype=complex) for _, v in pairs])
        return cls(probs, values)

    @classmethod
    def from_scalars(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteRandomMatrix":
        return cls.from_pairs([(p, np.array([[complex(v)]])) for p, v in pairs])

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
        return np.tensordot(self.probs, stack, axes=1)

    def scaled(self, c: float) -> "DiscreteRandomMatrix":
        return DiscreteRandomMatrix(self.probs, c * self.values)


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
        object.__setattr__(self, "laws", tuple(self.laws))
        self._require_enumerable()
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
        model = object.__new__(cls)
        model._tabulate(laws, evaluator)
        return model

    def _tabulate(self, laws, evaluator) -> None:
        object.__setattr__(self, "laws", tuple(laws))
        self._require_enumerable()
        ProductModel.__init__(self, self.laws, [evaluator(x) for _, x in self.iter_joint()])

    def _require_enumerable(self) -> None:
        if self.joint_size > MAX_ENUMERATION:
            raise EnumerationTooLarge(
                f"joint support size {self.joint_size} exceeds {MAX_ENUMERATION}"
            )

    @property
    def n(self) -> int:
        return len(self.laws)

    @property
    def joint_size(self) -> int:
        return math.prod(law.size for law in self.laws)

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
        Z as the i-th input varies with the others pinned."""
        if not 0 <= i < self.n:
            raise IndexError(f"input index {i} out of range for n={self.n}")
        weights = np.ones(())
        for law in self.laws[:i] + self.laws[i + 1:]:
            weights = np.multiply.outer(weights, law.probs)
        table = self.values.reshape(*(law.size for law in self.laws), *self.values.shape[1:])
        table = np.moveaxis(table, i, self.n - 1)
        return weights.ravel(), self.laws[i].probs, table.reshape(-1, *table.shape[self.n - 1:])

    def to_law(self) -> DiscreteRandomMatrix:
        return self._law


@dataclass(frozen=True, init=False)
class MatrixInputModel(ProductModel):
    """Product model whose inputs are matrices in the interval [0, I],
    tabulated from ``evaluator``; the evaluator stays for the derivative
    estimates and convexity probes that leave the support.

    ``partial_norm(xs, i)``, when supplied, returns the exact induced norm
    of the i-th partial derivative of the evaluator at the tuple ``xs``.
    """

    evaluator: Callable[[tuple], np.ndarray]
    partial_norm: Callable[[tuple, int], float] | None = None

    def __init__(self, laws, evaluator, partial_norm=None):
        laws = tuple(laws)
        for law in laws:
            UNIT_INTERVAL.admit(eigenvalues(_require_hermitian_stack(np.stack(law.outcomes))))
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "partial_norm", partial_norm)
        self._tabulate(laws, evaluator)
