"""Dense Hermitian linear algebra at desk scale.

Matrices are plain complex numpy arrays treated as immutable; helpers
validate hermiticity where it matters and return fresh arrays.
Logarithms are natural throughout, eigenvalues come back ascending, and
PSD-intended inputs get their tiny negative eigenvalues (within the
spectral tolerance) clamped to zero.

The numeric core (``hermitian_part``, ``eigenvalues``, ``spectral_map``,
``psd_power``, ``tr_xlogx``) works on stacks of shape ``(..., d, d)`` and
trusts its input; validation belongs to the public entry points that call
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExponent,
    NotHermitian,
    SpectrumOutOfDomain,
)


def spectral_tolerance(d: int) -> float:
    return 1e-9 * d


def hermitian_part(a) -> np.ndarray:
    """(A + A†) / 2 for each matrix of a (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a Hermitian (..., d, d) stack.

    A 1 x 1 stack reads its real diagonal, which is exactly what LAPACK
    returns, without the per-call cost of LAPACK.
    """
    a = np.asarray(a)
    if a.shape[-1] == 1:
        return a[..., 0].real.copy()
    return np.linalg.eigvalsh(a)


def spectral_map(fn: Callable[[np.ndarray], np.ndarray], a) -> np.ndarray:
    """U diag(fn(w)) U† for each matrix A = U diag(w) U† of a Hermitian
    (..., d, d) stack; the result is not hermitized.

    ``fn`` may return several spectra stacked on new leading axes; they
    all share the one decomposition.
    """
    w, u = np.linalg.eigh(a)
    fw = np.asarray(fn(w), dtype=float)
    return (u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2)


def psd_power(a, expo: float) -> np.ndarray:
    """A^expo for each matrix of a (..., d, d) stack, eigenvalues clamped
    at zero; the result is not hermitized."""
    return spectral_map(lambda w: np.clip(w, 0.0, None) ** expo, hermitian_part(a))


def tr_xlogx(a) -> np.ndarray:
    """(1/d) tr[A log A] for each matrix of a PSD (..., d, d) stack.

    Eigenvalues are clamped at zero and those at or below 1e-14 contribute
    nothing (0 log 0 = 0).
    """
    w = np.maximum(eigenvalues(hermitian_part(a)), 0.0)
    pos = w > 1e-14
    terms = np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)
    return terms.sum(axis=-1) / w.shape[-1]


def _require_hermitian_stack(a) -> np.ndarray:
    """Validate each matrix of a (..., d, d) stack against its own
    scale-aware tolerance 1e-10 (1 + max|A_k|) and return the (exactly)
    hermitized copy; the first offending matrix names the deviation."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected square matrices, got shape {a.shape}")
    tol = 1e-10 * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = dev > tol
    if bad.any():
        k = np.argmax(bad)
        raise NotHermitian(
            f"hermiticity deviation {dev.flat[k]:.3e} exceeds tolerance {tol.flat[k]:.3e}"
        )
    return hermitian_part(a)


def require_hermitian(a) -> np.ndarray:
    """Validate and return the (exactly) hermitized copy of ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    return _require_hermitian_stack(a)


def spectral_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector unitary with A = U diag(w) U†."""
    return np.linalg.eigh(require_hermitian(a))


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval of admissible eigenvalues; endpoints may be infinite."""

    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def admit(self, w: np.ndarray) -> np.ndarray:
        """Check eigenvalues against the interval and return a clamped copy.

        Eigenvalues within the spectral tolerance of the endpoints are
        clamped onto them (this implements the PSD convention at lo == 0);
        anything further outside raises SpectrumOutOfDomain.
        """
        w = np.asarray(w, dtype=float)
        tol = spectral_tolerance(w.shape[-1])
        bad = (w < self.lo - tol) | (w > self.hi + tol)
        if np.any(bad):
            raise SpectrumOutOfDomain(
                f"eigenvalues {w[bad]} outside [{self.lo}, {self.hi}]",
                offending=w[bad],
            )
        return np.clip(w, self.lo, self.hi)


REALS = SpectralInterval()
NONNEGATIVE = SpectralInterval(0.0, np.inf)


def apply_standard_function(fn: Callable[[np.ndarray], np.ndarray], a) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix, or to each matrix of
    a (..., d, d) stack, through its spectrum."""
    return hermitian_part(spectral_map(fn, _require_hermitian_stack(a)))


def normalized_trace(a) -> float:
    """(1/d) Tr a, imaginary round-off discarded."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return float(np.trace(a).real) / a.shape[0]


def schatten_norm(a, p: float, normalized: bool = False) -> float | np.ndarray:
    """Schatten p-norm of a Hermitian matrix, or of each matrix of a
    (..., d, d) stack; the normalized variant averages instead of summing
    before the 1/p power."""
    if p < 1:
        raise InvalidExponent(f"Schatten exponent must be >= 1, got {p}")
    w = np.abs(eigenvalues(_require_hermitian_stack(a)))
    # a kept axis sends one matrix through the array power a stack takes
    powsum = np.sum(w**p, axis=-1, keepdims=True)
    if normalized:
        powsum = powsum / w.shape[-1]
    return (powsum ** (1.0 / p))[..., 0]


def positive_part(a) -> np.ndarray:
    """Spectral projection onto nonnegative eigenvalues, (A)_+, of a
    Hermitian matrix or of each matrix of a (..., d, d) stack."""
    return apply_standard_function(lambda w: np.clip(w, 0.0, None), a)


def negative_part(a) -> np.ndarray:
    """(A)_- = (-A)_+, so that A = (A)_+ - (A)_-, matrix by matrix."""
    return positive_part(-np.asarray(a, dtype=complex))


class LoewnerCheck(NamedTuple):
    holds: bool
    min_eigenvalue: float
    witness: np.ndarray | None


def loewner_leq(a, b, tol: float | None = None) -> LoewnerCheck:
    """Test A <= B in the Loewner order; on failure the witness is the
    eigenvector of B - A with the most negative eigenvalue."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    diff = hermitian_part(b - a)
    if tol is None:
        tol = spectral_tolerance(diff.shape[0]) * (1.0 + float(np.max(np.abs(diff))))
    w, u = spectral_decompose(diff)
    lam = float(w[0])
    if lam >= -tol:
        return LoewnerCheck(True, lam, None)
    return LoewnerCheck(False, lam, u[:, 0].copy())
