"""Dense Hermitian linear algebra at desk scale.

Matrices are plain complex numpy arrays treated as immutable; helpers
validate hermiticity where it matters and return fresh arrays.
Logarithms are natural throughout, eigenvalues come back ascending, and
PSD-intended inputs get their tiny negative eigenvalues (within the
spectral tolerance) clamped to zero.

The numeric core (``hermitian_part``, ``eigenvalues``, ``spectral_map``,
``psd_power``) works on stacks of shape ``(..., d, d)`` and trusts its
input; validation belongs to the public entry points that call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExponent,
    NotHermitian,
    SpectrumOutOfDomain,
)


FLOAT_MAX = float(np.finfo(float).max)


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
    (..., d, d) stack; the result is not hermitized. An fn that returns m
    spectra stacked as (m, ..., d) gets all m maps, (m, ..., d, d), from
    one decomposition."""
    w, u = np.linalg.eigh(a)
    fw = np.asarray(fn(w), dtype=float)
    return (u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2)


def frobenius_norm(a) -> np.ndarray:
    """np.linalg.norm of each matrix of a (..., m, n) stack, with the bits
    of that call on the matrix alone: the square root of the dot products
    of its real and its imaginary entries with themselves, added."""
    a = np.asarray(a)
    flat = a.reshape(a.shape[:-2] + (1, -1))
    parts = (flat.real, flat.imag) if np.iscomplexobj(a) else (flat,)
    squares = [x @ x.swapaxes(-1, -2) for x in parts]  # one BLAS dot per matrix
    return np.sqrt(sum(squares[1:], squares[0]))[..., 0, 0]


def psd_power(a, expo: float) -> np.ndarray:
    """A^expo for each matrix of a (..., d, d) stack, eigenvalues clamped
    at zero; the result is not hermitized."""
    return spectral_map(lambda w: np.clip(w, 0.0, None) ** expo, hermitian_part(a))


def _require_hermitian_stack(a) -> np.ndarray:
    """Validate each matrix of a (..., d, d) stack against its own
    scale-aware tolerance 1e-10 (1 + max|A_k|) and return the (exactly)
    hermitized copy; the first offending matrix names the deviation. A
    non-finite entry fails first."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected square matrices, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():  # NaN and inf pass every deviation test
        raise NotHermitian("matrix entries must be finite")
    tol = 1e-10 * (1.0 + scale)
    ah = a.conj().swapaxes(-1, -2)
    dev = np.abs(a - ah).max(axis=(-2, -1), initial=0.0)
    bad = dev > tol
    if bad.any():
        k = np.argmax(bad)
        raise NotHermitian(
            f"hermiticity deviation {dev.flat[k]:.3e} exceeds tolerance {tol.flat[k]:.3e}"
        )
    return 0.5 * (a + ah)  # hermitian_part(a), from the transpose taken once


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
        anything further outside, and any non-finite eigenvalue, raises
        SpectrumOutOfDomain, whose one-line message names the count and the
        worst offender and whose ``offending`` keeps them all.
        """
        w = np.asarray(w, dtype=float)
        tol = spectral_tolerance(w.shape[-1])
        # finite bounds refuse an infinite eigenvalue, and NaN fails both tests
        lo, hi = max(self.lo - tol, -FLOAT_MAX), min(self.hi + tol, FLOAT_MAX)
        ok = (w >= lo) & (w <= hi)
        if not ok.all():
            out = w[~ok]
            worst = out[np.argmax(np.maximum(lo - out, out - hi))]
            raise SpectrumOutOfDomain(
                f"{out.size} eigenvalue(s) outside [{self.lo}, {self.hi}], worst {worst:.3e}",
                offending=out,
            )
        return w.clip(self.lo, self.hi)  # the ufunc without np.clip's dispatch


REALS = SpectralInterval()
NONNEGATIVE = SpectralInterval(0.0, np.inf)
UNIT_INTERVAL = SpectralInterval(0.0, 1.0)


def apply_standard_function(fn: Callable[[np.ndarray], np.ndarray], a) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix, or to each matrix of
    a (..., d, d) stack, through its spectrum."""
    return hermitian_part(spectral_map(fn, _require_hermitian_stack(a)))


def normalized_trace(a):
    """(1/d) Tr a of a square matrix, or of each matrix of a (..., d, d)
    stack, imaginary round-off discarded."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return np.trace(a, axis1=-2, axis2=-1).real / a.shape[-1]


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
