"""Derivatives of standard matrix functions via divided differences.

First derivatives are Schur multipliers of the first divided-difference
table in the eigenbasis; second derivatives use the second-order table.
Superoperators materialize those linear maps as d^2 x d^2 matrices under
the column-stacking vectorization convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotCommuting, SingularMatrix, SingularSuperoperator
from .linalg import hermitian_part, require_hermitian, spectral_decompose
from .phifun import ScalarFunction

COND_MAX = 1e12


def _confluent(x, y):
    """Where nodes x and y are too close for a difference quotient, so the
    divided difference takes its derivative limit instead."""
    return abs(x - y) < 1e-7 * (1.0 + abs(x) + abs(y))


def divided_difference(sf: ScalarFunction, nodes: Sequence[float], order: int = 1) -> float:
    """f^[order] at the given nodes, with confluent nodes handled by the
    derivative limits f'(a) and f''(a)/2."""
    nodes = np.array([float(t) for t in nodes])
    sf.admit(nodes)
    if order == 1:
        if nodes.size != 2:
            raise ValueError("order-1 divided difference takes two nodes")
        return float(dd1_table(sf, nodes)[0, 1])
    if order == 2:
        if nodes.size != 3:
            raise ValueError("order-2 divided difference takes three nodes")
        return float(dd2_table(sf, nodes)[0, 1, 2])
    raise ValueError(f"order must be 1 or 2, got {order}")


def dd1_table(sf: ScalarFunction, w: np.ndarray) -> np.ndarray:
    """f[w_i, w_j] over one spectrum."""
    w = np.asarray(w, dtype=float)
    a, b = w[:, None], w[None, :]
    conf = _confluent(a, b)
    f = sf.fn(w)
    table = (f[:, None] - f[None, :]) / np.where(conf, 1.0, a - b)
    table[conf] = sf.d1((0.5 * (a + b))[conf])
    return table


def dd2_table(sf: ScalarFunction, w: np.ndarray) -> np.ndarray:
    """f[w_i, w_k, w_j] over one spectrum.

    Divided differences are symmetric in their nodes, so each entry
    recurses through its widest outer pair (the first of equal widths, in
    the order (i, j), (k, j), (i, k)).
    """
    w = np.asarray(w, dtype=float)
    t1 = dd1_table(sf, w)
    i, k, j = np.indices((w.size,) * 3)
    w_ij, w_kj, w_ik = abs(w[i] - w[j]), abs(w[k] - w[j]), abs(w[i] - w[k])
    outer_ik = w_ik > np.maximum(w_ij, w_kj)
    outer_kj = ~outer_ik & (w_kj > w_ij)
    x = np.where(outer_kj, k, i)
    y = np.where(outer_ik, j, np.where(outer_kj, i, k))
    z = np.where(outer_ik, k, j)
    conf = _confluent(w[x], w[z])
    table = (t1[x, y] - t1[y, z]) / np.where(conf, 1.0, w[x] - w[z])
    table[conf] = 0.5 * sf.d2(((w[i] + w[k] + w[j]) / 3.0)[conf])
    return table


def frechet_derivative(sf: ScalarFunction, a, e) -> np.ndarray:
    """Df[A](E) as the divided-difference Schur multiplier in A's eigenbasis."""
    w, u = spectral_decompose(a)
    w = sf.admit(w)
    e = require_hermitian(e)
    et = u.conj().T @ e @ u
    out = u @ (dd1_table(sf, w) * et) @ u.conj().T
    return hermitian_part(out)


def frechet_second(sf: ScalarFunction, a, e1, e2) -> np.ndarray:
    """D^2 f[A](E1, E2), symmetric and bilinear in the directions."""
    w, u = spectral_decompose(a)
    w = sf.admit(w)
    t2 = dd2_table(sf, w)
    e1t = u.conj().T @ require_hermitian(e1) @ u
    e2t = u.conj().T @ require_hermitian(e2) @ u
    core = np.einsum("ikj,ik,kj->ij", t2, e1t, e2t) + np.einsum(
        "ikj,ik,kj->ij", t2, e2t, e1t
    )
    return hermitian_part(u @ core @ u.conj().T)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def superoperator_of_derivative(sf: ScalarFunction, a) -> np.ndarray:
    """The d^2 x d^2 matrix T with T vec(E) = vec(Df[A](E)).

    T = W diag(vec F) W† with W = conj(U) (x) U unitary, so T is Hermitian
    (self-adjoint for the Hilbert-Schmidt inner product) with the divided
    differences as its spectrum.
    """
    w, u = spectral_decompose(a)
    w = sf.admit(w)
    table = dd1_table(sf, w)
    big = np.kron(u.conj(), u)
    return hermitian_part(big @ np.diag(vec(table)) @ big.conj().T)


def apply_superoperator(t: np.ndarray, x) -> np.ndarray:
    return unvec(np.asarray(t, dtype=complex) @ vec(x))


def invert_superoperator(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=complex)
    s = np.linalg.svd(t, compute_uv=False)
    smallest = float(s[-1])
    if smallest <= 0 or float(s[0]) / smallest > COND_MAX:
        raise SingularSuperoperator(
            f"superoperator condition number above {COND_MAX:.1e}",
            smallest_singular_value=smallest,
        )
    inv = np.linalg.inv(t)
    if np.max(np.abs(t - t.conj().T)) < 1e-10 * (1.0 + float(s[0])):
        inv = hermitian_part(inv)
    return inv


def frechet_norm(sf: ScalarFunction, a) -> float:
    """Induced norm sup ||Df[A](E)||_2 / ||E||_2, i.e. the absolute
    condition number; equals the largest singular value of the
    materialized superoperator."""
    t = superoperator_of_derivative(sf, a)
    return float(np.linalg.svd(t, compute_uv=False)[0])


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


def multivariate_apply(mf: MultivariateScalarFunction, xs: Sequence[np.ndarray]) -> np.ndarray:
    """f(X_1, ..., X_n) for a commuting tuple via the joint spectrum."""
    lambdas, u = commuting_eigensystem(xs)
    vals = np.array([mf.fn(lambdas[:, k]) for k in range(lambdas.shape[1])])
    return hermitian_part((u * vals) @ u.conj().T)


def multivariate_partial_frechet(
    mf: MultivariateScalarFunction,
    xs: Sequence[np.ndarray],
    i: int,
    e,
) -> np.ndarray:
    """Partial derivative of a multivariate standard matrix function with
    respect to the i-th input, as a Schur multiplier in the common
    eigenbasis. Reduces to frechet_derivative when n = 1."""
    if not 0 <= i < mf.n:
        raise IndexError(f"coordinate {i} out of range for n={mf.n}")
    lambdas, u = commuting_eigensystem(xs)
    table = multivariate_dd_table(mf, lambdas, i)
    et = u.conj().T @ require_hermitian(e) @ u
    return hermitian_part(u @ (table * et) @ u.conj().T)


def inverse_map_derivatives(g_at_a, dg, d2g):
    """First and second derivatives of X -> X^{-1} composed with a map G,
    given G(A), DG[A](h), and D^2 G[A](h, h)."""
    g = np.asarray(g_at_a, dtype=complex)
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > COND_MAX:
        raise SingularMatrix("G(A) is numerically singular")
    ginv = np.linalg.inv(g)
    dg = np.asarray(dg, dtype=complex)
    d2g = np.asarray(d2g, dtype=complex)
    first = -ginv @ dg @ ginv
    second = 2.0 * ginv @ dg @ ginv @ dg @ ginv - ginv @ d2g @ ginv
    return first, second


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
    h/2, Richardson-extrapolated; mixed directions via polarization."""
    a = np.asarray(a, dtype=complex)
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    if h is None:
        h = 1e-5 * _fd_scale(a)

    def second_along(e, step):
        return (apply_fn(a + step * e) - 2.0 * apply_fn(a) + apply_fn(a - step * e)) / step**2

    def mixed(step):
        if e1 is e2 or np.array_equal(e1, e2):
            return second_along(e1, step)
        plus = second_along(e1 + e2, step)
        minus = second_along(e1 - e2, step)
        return 0.25 * (plus - minus)

    return (4.0 * mixed(h / 2.0) - mixed(h)) / 3.0
