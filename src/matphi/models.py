"""Finite-support random matrices and product models of independent inputs.

All expectations here are exact enumerations; the joint size of a product
model is guarded so nothing above desk scale is attempted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge
from .linalg import (
    _require_hermitian_stack,
    eigenvalues,
    hermitian_part,
    require_hermitian,
    spectral_tolerance,
)

MAX_ENUMERATION = 10**6


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
        if np.any(probs <= 0):
            raise ValueError("support probabilities must be strictly positive")
        if not abs(float(probs.sum()) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
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
        if np.any(probs <= 0):
            raise ValueError("input probabilities must be strictly positive")
        if not abs(float(probs.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"input probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", probs)
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
    """Independent inputs X_1..X_n and a total evaluator mapping outcome
    tuples to Hermitian matrices."""

    laws: tuple[FiniteLaw, ...]
    evaluator: Callable[[tuple], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        if self.joint_size > MAX_ENUMERATION:
            raise EnumerationTooLarge(
                f"joint support size {self.joint_size} exceeds {MAX_ENUMERATION}"
            )

    @property
    def n(self) -> int:
        return len(self.laws)

    @property
    def joint_size(self) -> int:
        size = 1
        for law in self.laws:
            size *= law.size
        return size

    def iter_joint(self) -> Iterator[tuple[float, tuple]]:
        for idx in itertools.product(*(range(law.size) for law in self.laws)):
            prob = math.prod(float(law.probs[k]) for law, k in zip(self.laws, idx))
            yield prob, tuple(law.outcomes[k] for law, k in zip(self.laws, idx))

    @cached_property
    def _joint(self) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities (K,) and validated values (K, d, d) of the joint
        law, from one enumeration and one evaluator call per outcome."""
        joint = list(self.iter_joint())
        values = np.stack([np.asarray(self.evaluator(x), dtype=complex) for _, x in joint])
        probs = np.array([p for p, _ in joint])
        # n inputs, each within 1e-12 of summing to 1, can put the joint law
        # n times as far off; a joint within 1e-12 keeps its probabilities
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            probs = probs / probs.sum()
        return probs, _require_hermitian_stack(values)

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
        values = self._joint[1]
        table = values.reshape(*(law.size for law in self.laws), *values.shape[1:])
        table = np.moveaxis(table, i, self.n - 1)
        return weights.ravel(), self.laws[i].probs, table.reshape(-1, *table.shape[self.n - 1:])

    def to_law(self) -> DiscreteRandomMatrix:
        return DiscreteRandomMatrix(*self._joint)

    @classmethod
    def from_table(
        cls, laws: Sequence[FiniteLaw], table: np.ndarray
    ) -> "ProductModel":
        """Evaluator backed by a dense table indexed in mixed radix with
        the first input varying slowest."""
        laws = tuple(laws)
        sizes = [law.size for law in laws]
        table = np.asarray(table, dtype=complex)
        index_of = [
            {outcome: k for k, outcome in enumerate(law.outcomes)} for law in laws
        ]

        def evaluator(outcome_tuple):
            flat = 0
            for size, lookup, outcome in zip(sizes, index_of, outcome_tuple):
                flat = flat * size + lookup[outcome]
            return table[flat]

        return cls(laws, evaluator)


@dataclass(frozen=True)
class MatrixInputModel(ProductModel):
    """Product model whose inputs are matrices in the interval [0, I].

    ``partial_norm(xs, i)``, when supplied, returns the exact induced norm
    of the i-th partial derivative of the evaluator at the tuple ``xs``.
    """

    partial_norm: Callable[[tuple, int], float] | None = None

    def __post_init__(self):
        super().__post_init__()
        for law in self.laws:
            for outcome in law.outcomes:
                w = eigenvalues(require_hermitian(outcome))
                tol = spectral_tolerance(w.size)
                if w[0] < -tol or w[-1] > 1.0 + tol:
                    raise ValueError(
                        f"matrix outcome spectrum [{w[0]:.3e}, {w[-1]:.3e}] leaves [0, 1]"
                    )
