"""Derivatives of standard matrix functions via divided differences.

First derivatives are Schur multipliers of the first divided-difference
table F in the eigenbasis (Daleckii-Krein), so their inverses divide by
F; second derivatives use the second-order table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, MatPhiError, NotCommuting, SingularSuperoperator
from .linalg import _require_hermitian_stack, hermitian_part, require_hermitian
from .phifun import ScalarFunction

COND_MAX = 1e12


def _confluent(x, y):
    """Where nodes x and y are too close for a difference quotient, so the
    divided difference takes its derivative limit instead."""
    return abs(x - y) < 1e-7 * (1.0 + abs(x) + abs(y))


def dd1_table(sf: ScalarFunction, w: np.ndarray) -> np.ndarray:
    """f[w_i, w_j] over each spectrum of a (..., d) stack."""
    w = np.asarray(w, dtype=float)
    a, b = w[..., :, None], w[..., None, :]
    conf = _confluent(a, b)
    f = sf.fn(w)
    table = (f[..., :, None] - f[..., None, :]) / np.where(conf, 1.0, a - b)
    table[conf] = sf.d1((0.5 * (a + b))[conf])
    return table


def dd2_table(sf: ScalarFunction, w: np.ndarray) -> np.ndarray:
    """f[w_i, w_k, w_j] over each spectrum of a (..., d) stack.

    Divided differences are symmetric in their nodes, so each entry
    recurses through its widest outer pair (the first of equal widths, in
    the order (i, j), (k, j), (i, k)).
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    flat = w.reshape(-1, d)
    t1 = dd1_table(sf, flat)
    s = np.arange(len(flat))[:, None, None, None]  # each spectrum indexes its own table
    i, k, j = np.indices((d,) * 3)
    w_i, w_k, w_j = flat[s, i], flat[s, k], flat[s, j]
    w_ij, w_kj, w_ik = abs(w_i - w_j), abs(w_k - w_j), abs(w_i - w_k)
    outer_ik = w_ik > np.maximum(w_ij, w_kj)
    outer_kj = ~outer_ik & (w_kj > w_ij)
    x = np.where(outer_kj, k, i)
    y = np.where(outer_ik, j, np.where(outer_kj, i, k))
    z = np.where(outer_ik, k, j)
    w_x, w_z = flat[s, x], flat[s, z]
    conf = _confluent(w_x, w_z)
    table = (t1[s, x, y] - t1[s, y, z]) / np.where(conf, 1.0, w_x - w_z)
    table[conf] = 0.5 * sf.d2(((w_i + w_k + w_j) / 3.0)[conf])
    return table.reshape(w.shape + (d, d))


def _in_turn(step: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """``step`` of a (..., d) stack of spectra at once. A stack it refuses
    raises what its first refused spectrum raises alone, so a stack is
    refused as its matrices would be one at a time."""
    try:
        return step(w)
    except MatPhiError:
        for row in w.reshape(-1, w.shape[-1]):
            step(row)
        raise


def _eigensystem(a: np.ndarray, step: Callable[[np.ndarray], np.ndarray]):
    """``step`` of the spectra (an admit, or an admit and a table) and the
    eigenvectors of each matrix of a validated (..., d, d) stack."""
    w, u = np.linalg.eigh(a)
    return _in_turn(step, w), u


def _same_shape(a: np.ndarray, *directions: np.ndarray) -> None:
    """Refuse a direction, or a stack of them, whose matrices are not A's shape."""
    for e in directions:
        if e.shape[-2:] != a.shape:
            raise DimensionMismatch(f"direction of shape {e.shape} for a matrix of shape {a.shape}")


def _schur(u: np.ndarray, table: np.ndarray, e: np.ndarray) -> np.ndarray:
    """U (table o U†EU) U†, hermitized, for each eigenbasis U and table of a
    stack and E or a (..., d, d) stack of them."""
    uh = u.conj().swapaxes(-1, -2)
    return hermitian_part(u @ (table * (uh @ e @ u)) @ uh)


def _second(u: np.ndarray, t2: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """D^2 f(E1, E2) from the second-order table t2 in the eigenbasis U,
    hermitized; each of U, t2, E1 and E2 may be a stack."""
    uh = u.conj().swapaxes(-1, -2)
    e1t, e2t = uh @ e1 @ u, uh @ e2 @ u
    core = np.einsum("...ikj,...ik,...kj->...ij", t2, e1t, e2t) + np.einsum(
        "...ikj,...ik,...kj->...ij", t2, e2t, e1t
    )
    return hermitian_part(u @ core @ uh)


def _inverse_table(sf: ScalarFunction, w: np.ndarray) -> np.ndarray:
    """1/F for the divided-difference table F of each admitted spectrum of
    a (..., d) stack; the first singular F is refused.

    Df[A] = W diag(vec F) W† with W = conj(U) (x) U unitary, so min|F| is
    its smallest singular value and max|F| / min|F| its condition number.
    """
    table = dd1_table(sf, sf.admit(w))
    size = np.abs(table)
    smallest, largest = size.min(axis=(-2, -1)), size.max(axis=(-2, -1))
    cond = np.divide(largest, smallest, out=np.full_like(largest, np.inf), where=smallest > 0)
    singular = cond > COND_MAX
    if singular.any():
        raise SingularSuperoperator(
            f"derivative condition number above {COND_MAX:.1e}",
            smallest_singular_value=float(smallest.flat[np.argmax(singular)]),
        )
    return 1.0 / table


def frechet_derivative(sf: ScalarFunction, a, e) -> np.ndarray:
    """Df[A](E) as the divided-difference Schur multiplier in A's eigenbasis."""
    a, e = require_hermitian(a), require_hermitian(e)
    _same_shape(a, e)
    w, u = _eigensystem(a, sf.admit)
    return _schur(u, dd1_table(sf, w), e)


def frechet_second(sf: ScalarFunction, a, e1, e2) -> np.ndarray:
    """D^2 f[A](E1, E2), symmetric and bilinear in the directions."""
    a, e1, e2 = require_hermitian(a), require_hermitian(e1), require_hermitian(e2)
    _same_shape(a, e1, e2)
    w, u = _eigensystem(a, sf.admit)
    return _second(u, dd2_table(sf, w), e1, e2)


def inverse_frechet_derivative(sf: ScalarFunction, a, x) -> np.ndarray:
    """(Df[A])^{-1}(X) by Schur division in A's eigenbasis; X may be a
    (..., d, d) stack."""
    a, x = require_hermitian(a), _require_hermitian_stack(x)
    _same_shape(a, x)
    inv, u = _eigensystem(a, partial(_inverse_table, sf))
    return _schur(u, inv, x)


def inverse_derivative_superoperator(sf: ScalarFunction, a) -> np.ndarray:
    """(Df[A])^{-1} as the d^2 x d^2 Hermitian matrix W diag(1/vec F) W†
    acting on column-stacked matrices, W = conj(U) (x) U; for each matrix
    of a (..., d, d) stack, refused as they would be one at a time."""
    inv, u = _eigensystem(_require_hermitian_stack(a), partial(_inverse_table, sf))
    *lead, d, _ = u.shape
    w = (u.conj()[..., :, None, :, None] * u[..., None, :, None, :]).reshape(*lead, d * d, d * d)
    vec = inv.swapaxes(-1, -2).reshape(*lead, 1, d * d)
    return hermitian_part((w * vec) @ w.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class MultivariateScalarFunction:
    """Scalar function of n real variables with partial derivatives."""

    n: int
    fn: Callable[[np.ndarray], float]
    partial: Callable[[int, np.ndarray], float]


def commuting_eigensystem(xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneously diagonalize a commuting Hermitian tuple.

    Returns (lambdas, u) with lambdas[i, k] the k-th joint eigenvalue of
    xs[i]. Commutators above 1e-8 d in norm raise; degeneracies are split
    by diagonalizing a random-coefficient combination of the tuple.
    """
    xs = [require_hermitian(x) for x in xs]
    d = xs[0].shape[0]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            comm = xs[i] @ xs[j] - xs[j] @ xs[i]
            norm = float(np.linalg.norm(comm))
            if norm > 1e-8 * d:
                raise NotCommuting(
                    f"inputs {i} and {j} fail to commute (||[X_i, X_j]||_2 = {norm:.3e})",
                    pair=(i, j),
                    commutator_norm=norm,
                )
    rng = np.random.default_rng(7)
    scale = max(float(np.max(np.abs(x))) for x in xs) + 1.0
    for _ in range(4):
        coeffs = 1.0 + rng.random(len(xs))
        mix = sum(c * x for c, x in zip(coeffs, xs))
        _, u = np.linalg.eigh(mix)
        lambdas = np.empty((len(xs), d))
        ok = True
        for i, x in enumerate(xs):
            rotated = u.conj().T @ x @ u
            off = rotated - np.diag(np.diag(rotated))
            if float(np.max(np.abs(off))) > 1e-7 * scale:
                ok = False
                break
            lambdas[i] = np.diag(rotated).real
        if ok:
            return lambdas, u
    raise NotCommuting("failed to split joint degeneracies", pair=None, commutator_norm=0.0)


def multivariate_dd_table(
    mf: MultivariateScalarFunction, lambdas: np.ndarray, i: int
) -> np.ndarray:
    """Partial divided-difference table for coordinate i over the joint
    eigenvalue tuples: the univariate divided difference in slot i with
    the remaining coordinates frozen at the row tuple."""
    lambdas = np.asarray(lambdas, dtype=float)
    d = lambdas.shape[1]
    table = np.empty((d, d))
    for k in range(d):
        xk = lambdas[:, k].copy()
        for ell in range(d):
            ti, tj = lambdas[i, k], lambdas[i, ell]
            if _confluent(ti, tj):
                table[k, ell] = mf.partial(i, xk)
            else:
                ymod = xk.copy()
                ymod[i] = tj
                table[k, ell] = (mf.fn(xk) - mf.fn(ymod)) / (ti - tj)
    return table


def multivariate_apply(
    mf: MultivariateScalarFunction, lambdas: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """f(X_1, ..., X_n) for a commuting tuple from its joint eigensystem
    (``commuting_eigensystem``)."""
    vals = np.array([mf.fn(lambdas[:, k]) for k in range(lambdas.shape[1])])
    return hermitian_part((u * vals) @ u.conj().T)


def _fd_scale(a: np.ndarray) -> float:
    return 1.0 + float(np.linalg.norm(a))


def fd_frechet(apply_fn: Callable[[np.ndarray], np.ndarray], a, e) -> np.ndarray:
    """Central finite-difference directional derivative of a matrix map,
    with step 1e-5 (1 + ||A||_2)."""
    a = np.asarray(a, dtype=complex)
    e = np.asarray(e, dtype=complex)
    h = 1e-5 * _fd_scale(a)
    return (apply_fn(a + h * e) - apply_fn(a - h * e)) / (2.0 * h)


def fd_frechet_second(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    a,
    e1,
    e2,
    h: float | None = None,
) -> np.ndarray:
    """Second directional derivative by central differences at steps h and
    h/2, Richardson-extrapolated; mixed directions via polarization. The
    default h = 1e-3 (1 + ||A||_2) balances O(h^4) truncation and eps/h^2 rounding."""
    a = np.asarray(a, dtype=complex)
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    if h is None:
        h = 1e-3 * _fd_scale(a)

    def second_along(e, step):
        return (apply_fn(a + step * e) - 2.0 * apply_fn(a) + apply_fn(a - step * e)) / step**2

    def mixed(step):
        if e1 is e2 or np.array_equal(e1, e2):
            return second_along(e1, step)
        plus = second_along(e1 + e2, step)
        minus = second_along(e1 - e2, step)
        return 0.25 * (plus - minus)

    return (4.0 * mixed(h / 2.0) - mixed(h)) / 3.0
