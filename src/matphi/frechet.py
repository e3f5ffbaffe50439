"""Derivatives of standard matrix functions via divided differences.

First derivatives are Schur multipliers of the first divided-difference
table F in the eigenbasis (Daleckii-Krein), so their inverses divide by
F; second derivatives use the second-order table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    MatPhiError,
    NotCommuting,
    NotHermitian,
    SingularSuperoperator,
)
from .linalg import _require_hermitian_stack, hermitian_part
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


def _in_turn(step: Callable[[np.ndarray], object], w: np.ndarray, item: int = 1):
    """``step`` of a stack of spectra at once, each item of the stack its
    last ``item`` axes (one spectrum by default). A stack it refuses
    raises what its first refused item raises alone, so a stack is
    refused as its items would be one at a time."""
    try:
        return step(w)
    except MatPhiError:
        for one in w.reshape(-1, *w.shape[w.ndim - item:]):
            step(one)
        raise


def _eigensystem(a: np.ndarray, step: Callable[[np.ndarray], np.ndarray]):
    """``step`` of the spectra (an admit, or an admit and a table) and the
    eigenvectors of each matrix of a validated (..., d, d) stack."""
    w, u = np.linalg.eigh(a)
    return _in_turn(step, w), u


def _operands(a, *directions, stacks: bool = False) -> list[np.ndarray]:
    """A and its directions, hermitized by one validation of their stack,
    each matrix against its own tolerance. A must be one square matrix and
    each direction A's shape, or with ``stacks`` a (..., d, d) stack of
    A-shaped matrices; shapes are refused before entries."""
    a = np.asarray(a, dtype=complex)
    directions = [np.asarray(e, dtype=complex) for e in directions]
    operands = (a, *directions)
    for m in operands:
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or (m.ndim > 2 and (m is a or not stacks)):
            raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    for e in directions:
        if e.shape[-2:] != a.shape:
            raise DimensionMismatch(f"direction of shape {e.shape} for a matrix of shape {a.shape}")
    counts = [math.prod(m.shape[:-2]) for m in operands]
    stack = np.concatenate([m.reshape((n,) + a.shape) for m, n in zip(operands, counts)])
    flat = _require_hermitian_stack(stack)
    ends = itertools.accumulate(counts)
    return [flat[end - n : end].reshape(m.shape) for m, n, end in zip(operands, counts, ends)]


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
    a, e = _operands(a, e)
    w, u = _eigensystem(a, sf.admit)
    return _schur(u, dd1_table(sf, w), e)


def frechet_second(sf: ScalarFunction, a, e1, e2) -> np.ndarray:
    """D^2 f[A](E1, E2), symmetric and bilinear in the directions."""
    a, e1, e2 = _operands(a, e1, e2)
    w, u = _eigensystem(a, sf.admit)
    return _second(u, dd2_table(sf, w), e1, e2)


def inverse_frechet_derivative(sf: ScalarFunction, a, x) -> np.ndarray:
    """(Df[A])^{-1}(X) by Schur division in A's eigenbasis; X may be a
    (..., d, d) stack."""
    a, x = _operands(a, x, stacks=True)
    inv, u = _eigensystem(a, partial(_inverse_table, sf))
    return _schur(u, inv, x)


def inverse_derivative_superoperator(sf: ScalarFunction, a) -> np.ndarray:
    """(Df[A])^{-1} as the d^2 x d^2 Hermitian matrix W diag(1/vec F) W†
    acting on column-stacked matrices, W = conj(U) (x) U; for each matrix
    of a (..., d, d) stack, refused as they would be one at a time."""
    return _inverse_superoperator(sf, _require_hermitian_stack(a))


def _inverse_superoperator(sf: ScalarFunction, a: np.ndarray) -> np.ndarray:
    """inverse_derivative_superoperator of a validated (..., d, d) stack."""
    inv, u = _eigensystem(a, partial(_inverse_table, sf))
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
    if not len(xs):
        raise ValueError("a commuting tuple needs at least one matrix")
    shape = np.shape(xs[0])
    for x in xs[1:]:
        if np.shape(x) != shape:
            raise DimensionMismatch(f"commuting tuple mixes shapes {shape} and {np.shape(x)}")
    if len(shape) != 2:
        raise NotHermitian(f"expected a square matrix, got shape {shape}")
    xs = _require_hermitian_stack(np.stack(xs))
    d = xs.shape[-1]
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
    with step h = 1e-5 (1 + ||A||_2). ``apply_fn`` maps each matrix of a
    (k, d, d) stack; it is called once, on [A + hE, A - hE]."""
    a = np.asarray(a, dtype=complex)
    e = np.asarray(e, dtype=complex)
    h = 1e-5 * _fd_scale(a)
    plus, minus = apply_fn(np.stack([a + h * e, a - h * e]))
    return (plus - minus) / (2.0 * h)


def fd_frechet_second(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    a,
    e1,
    e2,
    h: float | None = None,
) -> np.ndarray:
    """Second directional derivative by central differences at steps h and
    h/2, Richardson-extrapolated; mixed directions via polarization. The
    default h = 1e-3 (1 + ||A||_2) balances O(h^4) truncation and eps/h^2
    rounding; a given h must be finite and positive.

    ``apply_fn`` maps each matrix of a (k, d, d) stack; it is called once,
    on A and then, for each step s in (h/2, h) and each direction E, the
    pair A + sE, A - sE. The direction is E1 when E2 equals it (5
    matrices), else E1 + E2 and then E1 - E2 (9 matrices)."""
    a = np.asarray(a, dtype=complex)
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    if h is None:
        h = 1e-3 * _fd_scale(a)
    elif not 0.0 < h < math.inf:
        raise ValueError(f"finite-difference step must be finite and positive, got {h}")
    equal = e1 is e2 or np.array_equal(e1, e2)
    directions = [e1] if equal else [e1 + e2, e1 - e2]
    steps = (h / 2.0, h)
    points = [a] + [m for s in steps for e in directions for m in (a + s * e, a - s * e)]
    f = apply_fn(np.stack(points))
    mixed = []
    for s, pairs in zip(steps, f[1:].reshape(len(steps), len(directions), 2, *f.shape[1:])):
        # the central second difference along each direction, then polarization
        seconds = [(plus - 2.0 * f[0] + minus) / s**2 for plus, minus in pairs]
        mixed.append(seconds[0] if equal else 0.25 * (seconds[0] - seconds[1]))
    return (4.0 * mixed[0] - mixed[1]) / 3.0
