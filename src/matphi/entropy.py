"""Matrix entropy functionals and their equivalent convexity checks.

H(Z) = tr[E Phi(Z) - Phi(E Z)] with the normalized trace. The checkers
below are sampling falsifiers: they certify "no violation in N trials"
for members of the entropy class and are expected to produce explicit
witnesses for the out-of-class cube control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NotHermitian
from .frechet import (
    dd1_table,
    frechet_second,
    inverse_derivative_superoperator,
    inverse_frechet_derivative,
)
from .linalg import _require_hermitian_stack, eigenvalues, hermitian_part
from .models import DiscreteRandomMatrix, ProductModel
from .phifun import PhiFunction, ScalarFunction
from .report import CheckReport, matrix_to_obj, relative_tol, sweep, verdict
from .sampling import random_pd, random_psd


def phi_entropy(phi: PhiFunction, law: DiscreteRandomMatrix) -> float:
    """tr[E Phi(Z) - Phi(E Z)]; nonnegative for convex Phi, zero on
    single-point laws."""
    return float(_phi_entropies(phi, law.probs, law.values, law.mean()))


def _phi_traces(phi: PhiFunction, values, means) -> np.ndarray:
    """tr Phi of each (..., s, d, d) value, then of the (..., d, d) mean: (..., s + 1)."""
    scalar = phi.scalar()
    w = scalar.admit(eigenvalues(np.concatenate([values, means[..., None, :, :]], axis=-3)))
    return scalar.fn(w).mean(axis=-1)


def _phi_entropies(phi: PhiFunction, probs, values, means) -> np.ndarray:
    """tr[E Phi(Z) - Phi(E Z)] of each law over the (..., s, d, d) values
    with probabilities (s,) and means (..., d, d), from one spectrum call."""
    traces = _phi_traces(phi, values, means)
    return np.tensordot(traces[..., :-1], probs, axes=1) - traces[..., -1]


@dataclass(frozen=True)
class ConditionalEntropyTable:
    """Entropy of Z over the i-th input for every assignment of the rest."""

    probs: np.ndarray
    entropies: np.ndarray

    @property
    def expectation(self) -> float:
        return float(np.dot(self.probs, self.entropies))


def conditional_phi_entropy(
    phi: PhiFunction, model: ProductModel, i: int
) -> ConditionalEntropyTable:
    weights, probs, values = model.slices(i)
    means = hermitian_part(np.tensordot(probs, values, axes=(0, 1)))
    return ConditionalEntropyTable(weights, _phi_entropies(phi, probs, values, means))


def check_subadditivity(phi: PhiFunction, model: ProductModel) -> CheckReport:
    """Whole-entropy vs summed conditional entropies, by exact enumeration."""
    law = model.to_law()
    lhs = phi_entropy(phi, law)
    rhs = sum(conditional_phi_entropy(phi, model, i).expectation for i in range(model.n))
    return verdict(
        "subadditivity", lhs - rhs, relative_tol(1e-9, lhs, rhs), phi=phi.label, d=law.d,
        n=model.n, details={"lhs": lhs, "rhs": rhs},
    )


def bregman_maps(phi: PhiFunction, u, v) -> tuple[float, float, float]:
    """The three trace maps whose joint convexity characterizes the class:

    A = Tr[Phi(u+v) - Phi(u) - DPhi[u](v)]
    B = Tr[DPhi[u+v](v) - DPhi[u](v)]
    C = Tr[D^2 Phi[u](v, v)]

    As traces they need only the eigensystems of u and u + v (Daleckii-Krein):
    Tr DPhi[X](v) = sum_i Psi(x_i) v~_ii with v~ = v in X's eigenbasis, and
    C = sum_ij Psi[lam_i, lam_j] |v~_ij|^2 at u's spectrum lam, Psi = Phi'.
    """
    pair = np.stack([u, v])
    if pair.ndim != 3:
        raise NotHermitian(f"expected two square matrices, got shape {pair.shape[1:]}")
    u, v = _require_hermitian_stack(pair)
    scalar, psi = phi.scalar(), phi.psi()
    w, q = np.linalg.eigh(np.stack([u, u + v]))
    phi_w, w = scalar.fn(scalar.admit(w)), psi.admit(w)
    rotated = q.conj().swapaxes(-1, -2) @ v @ q
    first = (psi.fn(w) * rotated.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)
    a_val = phi_w[1].sum() - phi_w[0].sum() - first[0]
    c_val = (dd1_table(psi, w[0]) * np.abs(rotated[0]) ** 2).sum()
    return float(a_val), float(first[1] - first[0]), float(c_val)


def joint_convexity_probes(
    map_fn: Callable[[np.ndarray, np.ndarray], float],
    pairs: tuple,
    rng: np.random.Generator,
) -> list[tuple[float, float, dict | None]]:
    """Joint-convexity probes of a bivariate matrix map at the argument
    pairs ((u1, v1), (u2, v2)), mixed at 1/2 and at a weight drawn from
    ``rng``: one ``(gap, tol, witness)`` triple per mixing weight."""
    (u1, v1), (u2, v2) = pairs
    ends = map_fn(u1, v1), map_fn(u2, v2)
    probes = []
    for t in (0.5, float(rng.uniform(0.05, 0.95))):
        lhs = t * ends[0] + (1.0 - t) * ends[1]
        rhs = map_fn(t * u1 + (1 - t) * u2, t * v1 + (1 - t) * v2)
        gap, probe_tol = rhs - lhs, relative_tol(1e-8, lhs, rhs)
        witness = None
        if gap > probe_tol:
            witness = {"t": t, "u1": matrix_to_obj(u1), "v1": matrix_to_obj(v1),
                       "u2": matrix_to_obj(u2), "v2": matrix_to_obj(v2)}
        probes.append((gap, probe_tol, witness))
    return probes


def check_joint_convexity(
    map_fn: Callable[[np.ndarray, np.ndarray], float],
    sampler: Callable[[np.random.Generator], tuple],
    trials: int,
    seed: int = 0,
    label: str = "joint-convexity",
) -> CheckReport:
    """Falsifier for joint convexity of a bivariate matrix map: samples
    argument pairs and two mixing weights per trial, reports any violating
    witnesses."""
    return sweep(
        label, lambda rng, trial: joint_convexity_probes(map_fn, sampler(rng), rng),
        trials, seed,
    )


def char_a_probe(
    psi: ScalarFunction, d: int, rng: np.random.Generator
) -> tuple[float, float, dict | None]:
    """One midpoint-concavity probe of X -> (D Psi[X])^{-1} at a sampled
    positive-definite pair, as a ``(gap, tol, witness)`` triple."""
    a = random_pd(rng, d)
    b = random_pd(rng, d)
    inv = {
        key: inverse_derivative_superoperator(psi, m)
        for key, m in (("a", a), ("b", b), ("mid", 0.5 * (a + b)))
    }
    diff = hermitian_part(inv["mid"] - 0.5 * (inv["a"] + inv["b"]))
    lam = float(eigenvalues(diff)[0])
    probe_tol = relative_tol(1e-8, max(float(np.linalg.norm(inv[k])) for k in inv))
    witness = None
    if -lam > probe_tol:
        witness = {"min_eigenvalue": lam, "a": matrix_to_obj(a), "b": matrix_to_obj(b)}
    return -lam, probe_tol, witness


def check_char_a(phi: PhiFunction, trials: int, d: int, seed: int = 0) -> CheckReport:
    """Midpoint operator concavity of X -> (D Psi[X])^{-1} on sampled
    positive-definite pairs."""
    if phi.is_affine:
        raise DomainError("the concavity characterization needs a non-affine generator")
    psi = phi.psi()
    return sweep(
        "char-a", lambda rng, trial: char_a_probe(psi, d, rng), trials, seed,
        phi=phi.label, d=d,
    )


@dataclass(frozen=True)
class CharEResult:
    lhs: float
    rhs: float
    tol: float

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs - self.tol


def check_char_e(phi: PhiFunction, a, h, k) -> CharEResult:
    """Fourth-order trace inequality equivalent to class membership.

    lhs = Tr[h T^{-1} D^3Psi[A](k, k, T^{-1} h)]
    rhs = 2 Tr[h T^{-1} D^2Psi[A](k, T^{-1} D^2Psi[A](k, T^{-1} h))]

    with T = D Psi[A]. The third derivative is taken by central
    differences of the exact second derivative along k, which bounds the
    attainable accuracy and sets the 1e-6 relative tolerance ``tol``; at
    d = 1 everything reduces to
    Phi'''' k^2 h^2 / Phi''^2 >= 2 Phi'''^2 k^2 h^2 / Phi''^3.
    """
    if phi.is_affine:
        return CharEResult(0.0, 0.0, relative_tol(1e-6))
    psi = phi.psi()
    a = np.asarray(a, dtype=complex)
    h = np.asarray(h, dtype=complex)
    k = np.asarray(k, dtype=complex)
    fd_step = 1e-4 * (1.0 + float(np.linalg.norm(a)))
    tinv_h = inverse_frechet_derivative(psi, a, h)
    d3_psi = (
        frechet_second(psi, a + fd_step * k, k, tinv_h)
        - frechet_second(psi, a - fd_step * k, k, tinv_h)
    ) / (2.0 * fd_step)
    lhs_mat, inner = inverse_frechet_derivative(
        psi, a, np.stack([d3_psi, frechet_second(psi, a, k, tinv_h)])
    )
    lhs = float(np.trace(h @ lhs_mat).real)
    rhs_mat = inverse_frechet_derivative(psi, a, frechet_second(psi, a, k, inner))
    rhs = 2.0 * float(np.trace(h @ rhs_mat).real)
    return CharEResult(lhs, rhs, relative_tol(1e-6, lhs, rhs))


def duality_lower_bound(
    phi: PhiFunction, z_law: DiscreteRandomMatrix, t_law: DiscreteRandomMatrix
) -> float:
    """tr E[(Phi'(T) - Phi'(E T))(Z - T)] + H(T), a lower bound for H(Z)
    over couplings sharing the support index; exact equality at T = Z."""
    if z_law.size != t_law.size or not np.allclose(z_law.probs, t_law.probs, atol=1e-12):
        raise DomainError("duality bound needs Z and T coupled on the same index law")
    psi_t = phi.psi().apply(np.concatenate([t_law.values, t_law.mean()[None]]))
    terms = np.einsum("kij,kji->k", psi_t[:-1] - psi_t[-1], z_law.values - t_law.values)
    return float(z_law.expect(terms.real)) / z_law.d + phi_entropy(phi, t_law)


def check_char_g(phi: PhiFunction, model: ProductModel) -> CheckReport:
    """Conditional Jensen inequality: averaging the conditional entropy
    over the first input dominates the entropy of the partial average."""
    if model.n != 2:
        raise DomainError("the conditional-Jensen check uses two-input models")
    # row x_1 of the table is the law of Z(x_1, .); rows weigh by the first input
    weights, probs, rows = model.slices(1)
    cond = conditional_phi_entropy(phi, model, 1).expectation
    rhs = phi_entropy(phi, DiscreteRandomMatrix(probs, np.tensordot(weights, rows, axes=1)))
    return verdict(
        "char-g", rhs - cond, relative_tol(1e-9, cond, rhs), phi=phi.label, n=2,
        details={"lhs": cond, "rhs": rhs},
    )


def check_char_h(
    phi: PhiFunction,
    z1: DiscreteRandomMatrix,
    z2: DiscreteRandomMatrix,
    t: float,
) -> CheckReport:
    """Convexity of the entropy functional along shared-index couplings."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"mixing weight must lie in [0, 1], got {t}")
    if z1.size != z2.size or not np.allclose(z1.probs, z2.probs, atol=1e-12):
        raise DomainError("convexity check needs laws coupled on the same index")
    mixed = DiscreteRandomMatrix(z1.probs, t * z1.values + (1 - t) * z2.values)
    lhs = phi_entropy(phi, mixed)
    rhs = t * phi_entropy(phi, z1) + (1 - t) * phi_entropy(phi, z2)
    return verdict(
        "char-h", lhs - rhs, relative_tol(1e-9, lhs, rhs), phi=phi.label, d=z1.d,
        details={"lhs": lhs, "rhs": rhs, "t": t},
    )


def bregman_pair_sampler(d: int):
    """Sampler of ((u1, v1), (u2, v2)) with PSD u and PSD v, suitable for
    the convexity falsifiers of the three trace maps."""

    def sampler(rng: np.random.Generator):
        u1, v1, u2, v2 = random_psd(rng, d, (4,))
        return (u1 + 0.05 * np.eye(d), v1), (u2 + 0.05 * np.eye(d), v2)

    return sampler
