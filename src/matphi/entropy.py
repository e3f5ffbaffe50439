"""Matrix entropy functionals and their equivalent convexity checks.

H(Z) = tr[E Phi(Z) - Phi(E Z)] with the normalized trace. The checkers
below are sampling falsifiers: they certify "no violation in N trials"
for members of the entropy class and are expected to produce explicit
witnesses for the out-of-class cube control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, NotHermitian
from .frechet import (
    _in_turn,
    _inverse_superoperator,
    _inverse_table,
    _operands,
    _schur,
    _second,
    dd1_table,
    dd2_table,
)
from .linalg import (
    _require_hermitian_stack,
    eigenvalues,
    frobenius_norm,
    hermitian_part,
    spectral_map,
)
from .models import DiscreteRandomMatrix, ProductModel, cut, weighted_sum
from .phifun import PhiFunction, ScalarFunction
from .report import CheckReport, Inequality, matrix_to_obj, relative_tol, sweep
from .sampling import BLOCK_ENTRIES, random_pd, random_psd


def phi_entropy(phi: PhiFunction, law: DiscreteRandomMatrix) -> float:
    """tr[E Phi(Z) - Phi(E Z)]; nonnegative for convex Phi, zero on
    single-point laws."""
    return float(_law_entropies(phi, law.probs, law.values))


def _phi_traces(phi: PhiFunction, values, means) -> np.ndarray:
    """tr Phi of each (..., s, d, d) value, then of the (..., d, d) mean:
    (..., s + 1). Each law, its values and mean, is admitted in turn."""
    scalar = phi.scalar()
    spectra = eigenvalues(np.concatenate([values, means[..., None, :, :]], axis=-3))
    w = _in_turn(scalar.admit, spectra, 2)
    return scalar.fn(w).sum(axis=-1) / w.shape[-1]  # np.mean's arithmetic, without its overhead


def _law_entropies(phi: PhiFunction, probs, values) -> np.ndarray:
    """phi_entropy of each law of a stack, with probabilities (..., s) and
    values (..., s, d, d), taken C-contiguous: one weighted sum per law, so
    each rounds as it does alone, whatever the stack's layout. Apart from
    it stay holevo._total_variance (one spectrum call serves its total,
    conditional and outer entropies) and fourier._square_entropy with the
    LSI caches (they share the sum / k mean, pinned by LSI_SEARCH_PINS)."""
    values = np.ascontiguousarray(values)
    means = hermitian_part(weighted_sum(probs, values, 2))
    traces = _phi_traces(phi, values, means)
    return weighted_sum(probs, traces[..., :-1], 0) - traces[..., -1]


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
    return ConditionalEntropyTable(weights, _law_entropies(phi, probs, values))


def _expected_entropy(phi: PhiFunction, rows, probs, weights) -> np.ndarray:
    """The expected entropy of one input's conditional laws (cut rows (..., rest,
    s, d, d), probabilities (..., s)) under rest weights (..., rest), rounded as np.dot."""
    return weighted_sum(weights, _law_entropies(phi, probs[..., None, :], rows), 0)


def _subadditivity_sides(phi: PhiFunction, probs, values, *parts) -> tuple:
    """H(Z) and the summed expected conditional entropies of ``ProductModel.arrays`` or stacks."""
    n = len(parts) // 2
    sizes = tuple(np.shape(p)[-1] for p in parts[:n])
    lhs = _law_entropies(phi, probs, values)
    return lhs, sum(_expected_entropy(phi, cut(values, sizes, i), *parts[i::n]) for i in range(n))


def check_subadditivity(phi: PhiFunction, model: ProductModel) -> CheckReport:
    """Whole-entropy vs summed conditional entropies, by exact enumeration."""
    return SUBADDITIVITY.verdict(phi, *model.arrays, phi=phi.label, d=model.to_law().d, n=model.n)


def bregman_maps(phi: PhiFunction, u, v) -> tuple[float, float, float]:
    """The three trace maps whose joint convexity characterizes the class:

    A = Tr[Phi(u+v) - Phi(u) - DPhi[u](v)]
    B = Tr[DPhi[u+v](v) - DPhi[u](v)]
    C = Tr[D^2 Phi[u](v, v)]

    As traces they need only the eigensystems of u and u + v (Daleckii-Krein):
    Tr DPhi[X](v) = sum_i Psi(x_i) v~_ii with v~ = v in X's eigenbasis, and
    C = sum_ij Psi[lam_i, lam_j] |v~_ij|^2 at u's spectrum lam, Psi = Phi'.
    """
    if np.shape(u) != np.shape(v):
        raise DimensionMismatch(
            f"direction of shape {np.shape(v)} for a matrix of shape {np.shape(u)}"
        )
    pair = np.stack([u, v])
    if pair.ndim != 3:
        raise NotHermitian(f"expected two square matrices, got shape {pair.shape[1:]}")
    return tuple(map(float, _bregman_values(phi, *_require_hermitian_stack(pair))))


def _bregman_values(phi: PhiFunction, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) of ``bregman_maps`` for each pair of two validated
    (..., d, d) stacks u, v, three (...) arrays; the pairs are refused in
    turn."""
    scalar, psi = phi.scalar(), phi.psi()
    w, q = np.linalg.eigh(np.stack([u, u + v], axis=-3))
    phi_w, w = _in_turn(lambda w: (scalar.fn(scalar.admit(w)), psi.admit(w)), w, 2)
    rotated = q.conj().swapaxes(-1, -2) @ v[..., None, :, :] @ q
    first = (psi.fn(w) * rotated.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)
    traces = phi_w.sum(axis=-1)
    c_val = (dd1_table(psi, w[..., 0, :]) * np.abs(rotated[..., 0, :, :]) ** 2).sum(axis=(-2, -1))
    return traces[..., 1] - traces[..., 0] - first[..., 0], first[..., 1] - first[..., 0], c_val


def _mix(t, x, y):
    """t x + (1 - t) y, of floats or of broadcasting arrays."""
    return t * x + (1.0 - t) * y


def _convexity_sides(t, x_value, y_value, mixed):
    """Both sides of a joint-convexity probe at weight t: the map's two
    end values mixed, and its value at the mixed arguments, of floats or
    of broadcasting arrays."""
    return _mix(t, x_value, y_value), mixed


def _pair_witness(t, pairs) -> dict:
    (u1, v1), (u2, v2) = pairs
    return {"t": float(t), "u1": matrix_to_obj(u1), "v1": matrix_to_obj(v1),
            "u2": matrix_to_obj(u2), "v2": matrix_to_obj(v2)}


def convexity_draw(pairs, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A trial of ``convexity_judge``: the argument pairs ((u1, v1), (u2,
    v2)) as one (2, 2, d, d) array and a mixing weight drawn from rng."""
    return np.asarray(pairs), float(rng.uniform(0.05, 0.95))


def convexity_judge(map_values: Callable, pairs: np.ndarray, weight: np.ndarray):
    """Joint-convexity probes of a bivariate matrix map at T trials, as a
    sweep's judge: pairs (T, 2, 2, d, d) and weights (T,) are the trials'
    ``convexity_draw``s, and each trial's pairs are mixed at 1/2 and at
    its weight, two probes. map_values maps (T, 4, d, d) stacks u, v to
    the (T, 4) values of the map at both ends, then at both mixes."""
    t = np.stack([np.full(len(weight), 0.5), weight], axis=-1)
    mixed = _mix(t[..., None, None, None], pairs[:, :1], pairs[:, 1:])
    args = np.concatenate([pairs, mixed], axis=1)
    values = map_values(args[:, :, 0], args[:, :, 1])
    sides = JOINT_CONVEXITY.sides(t, values[:, :1], values[:, 1:2], values[:, 2:])
    gap, tol = JOINT_CONVEXITY.rule(*sides)

    def witness(trial, probe):
        if gap[trial, probe] > tol[trial, probe]:
            return _pair_witness(t[trial, probe], pairs[trial])
        return None

    return gap, tol, witness


def check_joint_convexity(
    map_fn: Callable[[np.ndarray, np.ndarray], float],
    sampler: Callable[[np.random.Generator], tuple],
    trials: int,
    seed: int = 0,
    label: str = "joint-convexity",
) -> CheckReport:
    """Falsifier for joint convexity of a bivariate matrix map: samples
    argument pairs and two mixing weights per trial, reports any violating
    witnesses.

    A sweep of one trial per block: ``convexity_draw`` draws the trial's
    pairs ``sampler(rng)`` and its weight, and ``convexity_judge`` mixes
    them and judges the trial's two probes. ``map_fn`` is called on one
    pair (u, v) at a time, at both ends and then at both mixes, so a
    user's sampler and map run trial by trial and memory does not grow
    with the trials."""

    def map_values(u, v):
        return np.array([[map_fn(*pair) for pair in zip(*trial)] for trial in zip(u, v)])

    return sweep(
        label, lambda rng, trial: convexity_draw(sampler(rng), rng),
        partial(convexity_judge, map_values), trials, seed, entries=BLOCK_ENTRIES,
    )


def char_a_draw(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The positive-definite pair (a, b) of one midpoint-concavity probe."""
    return random_pd(rng, d), random_pd(rng, d)


def char_a_judge(psi: ScalarFunction, a: np.ndarray, b: np.ndarray):
    """Midpoint-concavity probes of X -> (D Psi[X])^{-1} at T pairs, the
    (T, d, d) stacks a and b, as a sweep's judge: the least
    eigenvalue of the superoperator at the midpoint minus the mean of
    those at the ends, against 1e-8 relative to the largest of their
    norms. The matrices a, b, (a + b) / 2 of each pair are refused in
    turn."""
    d = a.shape[-1]
    stack = np.stack([a, b, 0.5 * (a + b)], axis=1).reshape(-1, d, d)
    inv = _inverse_superoperator(psi, stack).reshape(len(a), 3, d * d, d * d)
    lam = eigenvalues(hermitian_part(inv[:, 2] - 0.5 * (inv[:, 0] + inv[:, 1])))[:, :1]
    probe_tol = relative_tol(1e-8, frobenius_norm(inv).max(axis=-1, keepdims=True))

    def witness(trial, probe):
        if -lam[trial, 0] > probe_tol[trial, 0]:
            return {"min_eigenvalue": float(lam[trial, 0]), "a": matrix_to_obj(a[trial]),
                    "b": matrix_to_obj(b[trial])}
        return None

    return -lam, probe_tol, witness


def char_a_entries(d: int) -> int:
    """Complex entries of one char-a trial's superoperators."""
    return 3 * d**4


def check_char_a(phi: PhiFunction, trials: int, d: int, seed: int = 0) -> CheckReport:
    """Midpoint operator concavity of X -> (D Psi[X])^{-1} on sampled
    positive-definite pairs."""
    if phi.is_affine:
        raise DomainError("the concavity characterization needs a non-affine generator")
    psi = phi.psi()
    return sweep(
        "char-a", lambda rng, trial: char_a_draw(rng, d), partial(char_a_judge, psi), trials,
        seed, entries=char_a_entries(d), phi=phi.label, d=d,
    )


@dataclass(frozen=True)
class CharEResult:
    lhs: float
    rhs: float
    tol: float

    @property
    def holds(self) -> bool:
        return CHAR_E.rule(self.lhs, self.rhs)[0] <= self.tol


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
    lhs, rhs = (float(side) for side in _char_e_sides(phi, *_operands(a, h, k)))
    return CharEResult(lhs, rhs, CHAR_E.rule(lhs, rhs)[1])


def _char_e_sides(phi: PhiFunction, a, h, k) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of ``check_char_e`` for each instance of validated
    (..., d, d) stacks a, h and k, both zero for an affine generator. One
    instance is refused as ``check_char_e`` refuses it; a stack of several
    is refused by one of its instances, not necessarily the first."""
    if phi.is_affine:
        zero = np.zeros(np.shape(a)[:-2])
        return zero, zero
    psi = phi.psi()
    fd_step = 1e-4 * (1.0 + frobenius_norm(a))
    step = fd_step[..., None, None]
    # one eigensystem each for A and A +- fd_step k; A is admitted and its
    # derivative tested for singularity before the shifted spectra
    w, u = np.linalg.eigh(np.stack([a, a + step * k, a - step * k], axis=-3))
    inv = _inverse_table(psi, w[..., 0, :])
    t2 = dd2_table(psi, _in_turn(psi.admit, w))
    u0 = u[..., 0, :, :]
    tinv_h = _schur(u0, inv, h)
    # D^2 Psi(k, T^{-1} h) at A, A + fd_step k and A - fd_step k
    second = _second(u, t2, k[..., None, :, :], tinv_h[..., None, :, :])
    d3_psi = (second[..., 1, :, :] - second[..., 2, :, :]) / (2.0 * step)
    both = _schur(
        u[..., :1, :, :], inv[..., None, :, :], np.stack([d3_psi, second[..., 0, :, :]], axis=-3)
    )
    lhs = np.trace(h @ both[..., 0, :, :], axis1=-2, axis2=-1).real
    rhs_mat = _schur(u0, inv, _second(u0, t2[..., 0, :, :, :], k, both[..., 1, :, :]))
    rhs = 2.0 * np.trace(h @ rhs_mat, axis1=-2, axis2=-1).real
    return lhs, rhs


def char_e_judge(phi: PhiFunction, a: np.ndarray, h: np.ndarray, k: np.ndarray):
    """``CHAR_E.judge`` at T instances, the (T, d, d) stacks a, h and k,
    with a witness where the gap exceeds its tol."""
    lhs, rhs = _char_e_sides(phi, a, h, k)
    gap, tol = CHAR_E.rule(lhs, rhs)

    def witness(trial, probe):
        if gap[trial] <= tol[trial]:
            return None
        return {"lhs": float(lhs[trial]), "rhs": float(rhs[trial]), "a": matrix_to_obj(a[trial]),
                "h": matrix_to_obj(h[trial]), "k": matrix_to_obj(k[trial])}

    return gap[:, None], tol[:, None], witness


def duality_lower_bound(
    phi: PhiFunction, z_law: DiscreteRandomMatrix, t_law: DiscreteRandomMatrix
) -> float:
    """tr E[(Phi'(T) - Phi'(E T))(Z - T)] + H(T), a lower bound for H(Z)
    over couplings sharing the support index; exact equality at T = Z."""
    if z_law.size != t_law.size or not np.allclose(z_law.probs, t_law.probs, atol=1e-12):
        raise DomainError("duality bound needs Z and T coupled on the same index law")
    terms = _duality_terms(phi, z_law.probs, z_law.values, t_law.values)
    return float(terms) + phi_entropy(phi, t_law)


def _duality_terms(phi: PhiFunction, probs, z, t) -> np.ndarray:
    """tr E[(Phi'(T) - Phi'(E T))(Z - T)] of each pair of laws coupled on
    probabilities (..., s), with values z and t (..., s, d, d); each T,
    its values and mean, is admitted in turn."""
    psi = phi.psi()
    stack = np.concatenate([t, hermitian_part(weighted_sum(probs, t, 2))[..., None, :, :]], axis=-3)
    psi_t = hermitian_part(spectral_map(lambda w: psi.fn(_in_turn(psi.admit, w, 2)), stack))
    terms = np.einsum("...kij,...kji->...k", psi_t[..., :-1, :, :] - psi_t[..., -1:, :, :], z - t)
    return weighted_sum(probs, terms.real, 0) / z.shape[-1]


def _char_i_sides(phi: PhiFunction, probs, z, t) -> tuple[np.ndarray, np.ndarray]:
    """The duality lower bound of H(Z) and H(Z) for each coupled pair of
    laws, probabilities (..., s) and values z, t (..., s, d, d). One pair
    is refused as ``duality_lower_bound`` and then ``phi_entropy`` of Z
    refuse it: T's Psi spectra, then H(T), then H(Z)."""
    terms = _duality_terms(phi, probs, z, t)
    entropies = _law_entropies(phi, probs[..., None, :], np.stack([t, z], axis=-4))
    return terms + entropies[..., 0], entropies[..., 1]


def _char_g_sides(phi: PhiFunction, probs, values, p1, p2, w1, w2) -> tuple:
    """The averaged conditional entropy and the entropy of the partial
    average, of one two-input model's ``ProductModel.arrays`` or of their stacks."""
    rows = cut(values, (np.shape(p1)[-1], np.shape(p2)[-1]), 1)
    # row x_1 of the cut is the law of Z(x_1, .); rows weigh by the first input
    mixed = hermitian_part(weighted_sum(w2, rows, 3))
    return _expected_entropy(phi, rows, p2, w2), _law_entropies(phi, p2, mixed)


def check_char_g(phi: PhiFunction, model: ProductModel) -> CheckReport:
    """Conditional Jensen inequality: averaging the conditional entropy
    over the first input dominates the entropy of the partial average."""
    if model.n != 2:
        raise DomainError("the conditional-Jensen check uses two-input models")
    return CHAR_G.verdict(phi, *model.arrays, phi=phi.label, n=2)


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
    z = np.stack([z1.values, z2.values])
    return CHAR_H.verdict(phi, z1.probs, z, t, details={"t": t}, phi=phi.label, d=z1.d)


def _char_h_sides(phi: PhiFunction, probs, z, t) -> tuple[np.ndarray, np.ndarray]:
    """(H of the mix, the mix of the Hs) of ``check_char_h`` for each pair
    of laws coupled on probabilities (..., s), with values z (..., 2, s,
    d, d), z1 then z2, and mixing weights t (...); the mix, then z1, then
    z2 is admitted in turn."""
    t, z1, z2 = np.asarray(t), z[..., 0, :, :, :], z[..., 1, :, :, :]
    mixed = _mix(t[..., None, None, None], z1, z2)
    h = _law_entropies(phi, probs[..., None, :], np.stack([mixed, z1, z2], axis=-4))
    return h[..., 0], _mix(t, h[..., 1], h[..., 2])


def bregman_pair_sampler(d: int):
    """Sampler of ((u1, v1), (u2, v2)) with PSD u and PSD v, suitable for
    the convexity falsifiers of the three trace maps."""

    def sampler(rng: np.random.Generator):
        u1, v1, u2, v2 = random_psd(rng, d, (4,))
        return (u1 + 0.05 * np.eye(d), v1), (u2 + 0.05 * np.eye(d), v2)

    return sampler


# The inequalities of this module, each judged by its record; the
# convexity record serves the probes of char-b to char-d, char-f and
# check_joint_convexity
SUBADDITIVITY = Inequality("subadditivity", 1e-9, _subadditivity_sides)
JOINT_CONVEXITY = Inequality("joint-convexity", 1e-8, _convexity_sides, sense=">=")
CHAR_E = Inequality("char-e", 1e-6, _char_e_sides, sense=">=")
CHAR_G = Inequality("char-g", 1e-9, _char_g_sides, sense=">=")
CHAR_H = Inequality("char-h", 1e-9, _char_h_sides)
CHAR_I = Inequality("char-i", 1e-9, _char_i_sides)
