"""Classical-quantum ensembles under Markov kernels.

The Holevo quantity of an ensemble {(mu(x), rho_x)} equals d times the
x log x entropy functional of the ensemble viewed as a random matrix;
both paths are computed and compared on every call. Kernel evolution
pushes the label law forward and mixes states through the backward
(Bayes) channel, which preserves the average state and contracts the
Holevo quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidC,
    MatPhiError,
    NotAdmissible,
    SupportError,
)
from .entropy import phi_entropy
from .linalg import eigenvalues, hermitian_part, require_hermitian, spectral_map, spectral_tolerance
from .models import DiscreteRandomMatrix
from .phifun import PhiFunction
from .report import CheckReport
from .sampling import random_complex_gaussian, random_density, rng_for

XLOGX = PhiFunction.xlogx()
CHI_FLOOR = 1e-12
SUPPORT_CUTOFF = 1e-13


@dataclass(frozen=True)
class CQEnsemble:
    """Labelled family {(mu(x), rho_x)} of density matrices."""

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise DimensionMismatch(f"states must be (|X|, d, d), got {states.shape}")
        if probs.shape != (states.shape[0],):
            raise DimensionMismatch("label law and state count disagree")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("label probabilities must be nonnegative and sum to 1")
        tol = spectral_tolerance(states.shape[1])
        checked = []
        for rho in states:
            rho = require_hermitian(rho)
            w = eigenvalues(rho)
            if w[0] < -tol:
                raise ValueError(f"state has negative eigenvalue {w[0]:.3e}")
            if abs(float(np.trace(rho).real) - 1.0) > tol:
                raise ValueError(f"state trace {np.trace(rho).real!r} is not 1")
            checked.append(rho)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", np.stack(checked))

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def size(self) -> int:
        return self.probs.size

    def average_state(self) -> np.ndarray:
        return hermitian_part(np.tensordot(self.probs, self.states, axes=1))

    def as_law(self) -> DiscreteRandomMatrix:
        keep = self.probs > 0
        probs = self.probs[keep]
        return DiscreteRandomMatrix(probs / probs.sum(), self.states[keep])


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic transition table K(y|x)."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatch(f"kernel rows must be a matrix, got shape {rows.shape}")
        if np.any(rows < 0):
            raise ValueError("kernel entries must be nonnegative")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"kernel rows must sum to 1, got {sums}")
        object.__setattr__(self, "rows", rows)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def identity(cls, k: int) -> "MarkovKernel":
        return cls(np.eye(k))

    @classmethod
    def constant(cls, k_in: int, q: Sequence[float]) -> "MarkovKernel":
        q = np.asarray(q, dtype=float)
        return cls(np.tile(q, (k_in, 1)))

    @classmethod
    def binary_symmetric(cls, delta: float) -> "MarkovKernel":
        return cls(np.array([[1 - delta, delta], [delta, 1 - delta]]))


def kernel_push(mu: np.ndarray, kernel: MarkovKernel) -> np.ndarray:
    """(mu K)(y) = sum_x mu(x) K(y|x)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (kernel.input_size,):
        raise DimensionMismatch(
            f"distribution of size {mu.size} vs kernel input {kernel.input_size}"
        )
    return mu @ kernel.rows


def require_admissible(mu: np.ndarray, kernel: MarkovKernel) -> np.ndarray:
    """mu and mu K must be strictly positive; returns mu K."""
    mu = np.asarray(mu, dtype=float)
    zeros_mu = np.where(mu <= 0)[0]
    if zeros_mu.size:
        raise NotAdmissible(
            f"input law vanishes at {zeros_mu.tolist()}", zero_entries=zeros_mu.tolist()
        )
    pushed = kernel_push(mu, kernel)
    zeros_out = np.where(pushed <= 0)[0]
    if zeros_out.size:
        raise NotAdmissible(
            f"output law vanishes at {zeros_out.tolist()}", zero_entries=zeros_out.tolist()
        )
    return pushed


def backward_channel(mu: np.ndarray, kernel: MarkovKernel) -> MarkovKernel:
    """Bayes inverse K*(x|y) = K(y|x) mu(x) / (mu K)(y), rows indexed by y."""
    pushed = require_admissible(mu, kernel)
    mu = np.asarray(mu, dtype=float)
    rows = (kernel.rows * mu[:, None]).T / pushed[:, None]
    rows = rows / rows.sum(axis=1, keepdims=True)
    return MarkovKernel(rows)


def evolve_ensemble(ens: CQEnsemble, kernel: MarkovKernel) -> CQEnsemble:
    """Push labels through K and states through the backward channel; the
    average state is preserved."""
    pushed = require_admissible(ens.probs, kernel)
    back = backward_channel(ens.probs, kernel)
    states = np.stack(
        [
            hermitian_part(np.tensordot(back.rows[y], ens.states, axes=1))
            for y in range(kernel.output_size)
        ]
    )
    out = CQEnsemble(pushed, states)
    drift = float(np.max(np.abs(out.average_state() - ens.average_state())))
    if drift > 1e-12 * (1.0 + ens.d):
        raise MatPhiError(f"average state drifted by {drift:.3e} under evolution")
    return out


def _support_log(m: np.ndarray):
    """log m on the support of a Hermitian m (eigenvalues above
    SUPPORT_CUTOFF) and the projector onto that support, from one
    decomposition."""

    def log_and_support(w):
        keep = w > SUPPORT_CUTOFF
        return np.stack([np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0), keep])

    log_m, projector = hermitian_part(spectral_map(log_and_support, m))
    return log_m, projector


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma) in nats, on the support of sigma."""
    return float(_relative_entropy(require_hermitian(rho)[None], require_hermitian(sigma))[0])


def _relative_entropy(rhos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """relative_entropy of each state of an exactly Hermitian (k, d, d)
    stack against one exactly Hermitian reference, unchecked."""
    logs, supports = _support_log(np.concatenate([rhos, sigma[None]]))
    outside = np.trace(rhos @ (np.eye(sigma.shape[0]) - supports[-1]), axis1=-2, axis2=-1).real
    bad = outside > 1e-9
    if np.any(bad):
        raise SupportError(
            f"state carries weight {outside[np.argmax(bad)]:.3e} outside the reference support"
        )
    return np.trace(rhos @ (logs[:-1] - logs[-1]), axis1=-2, axis2=-1).real


def holevo_chi(ens: CQEnsemble, cross_check: bool = True) -> float:
    """chi = sum_x mu(x) S(rho_x || rho_bar), cross-checked against
    d * H_{x log x} of the ensemble as a random matrix."""
    keep = ens.probs > 0
    chi = 0.0
    for p, s in zip(ens.probs[keep], _relative_entropy(ens.states[keep], ens.average_state())):
        chi += p * s
    chi = max(chi, 0.0)
    if cross_check:
        dual = ens.d * phi_entropy(XLOGX, ens.as_law())
        if abs(chi - dual) > 1e-9 * (1.0 + abs(chi)):
            raise MatPhiError(
                f"Holevo dual paths disagree: {chi!r} vs {dual!r}"
            )
    return chi


def _chi_of_scalar_family(mu: np.ndarray, f: np.ndarray) -> float:
    """d * H_{x log x} for a family of nonnegative scalars (1x1 PSD
    matrices); equals the Kullback-Leibler divergence when f = d nu/d mu."""
    law = DiscreteRandomMatrix(mu, f.reshape(-1, 1, 1).astype(complex))
    return phi_entropy(XLOGX, law)


def check_data_processing(ens: CQEnsemble, kernel: MarkovKernel) -> CheckReport:
    """chi never increases under kernel evolution."""
    chi_in = holevo_chi(ens)
    chi_out = holevo_chi(evolve_ensemble(ens, kernel))
    tol = 1e-9 * (1.0 + chi_in)
    return CheckReport(
        check="data-processing",
        passed=chi_out - chi_in <= tol,
        max_gap=float(chi_out - chi_in),
        tol=tol,
        d=ens.d,
        details={"chi_in": chi_in, "chi_out": chi_out},
    )


@dataclass(frozen=True)
class EtaResult:
    eta_hat: float
    witness: object
    seed: int


def _ratio(chi_in: float, chi_out: float) -> float | None:
    if chi_in <= 1e-10:
        return None
    if chi_out <= CHI_FLOOR * (1.0 + chi_in):
        return 0.0
    return chi_out / chi_in


def _enforce_contraction(chi_in: float, chi_out: float) -> None:
    if chi_out > chi_in + 1e-9 * (1.0 + chi_in):
        raise MatPhiError(
            f"entropy contraction violated in the search: {chi_out!r} > {chi_in!r}"
        )


def _simplex_grid(k: int, resolution: float):
    steps = int(round(1.0 / resolution))
    if k == 1:
        yield np.array([1.0])
        return

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for units in range(remaining + 1):
            yield from rec(prefix + [units], remaining - units, slots - 1)

    for combo in rec([], steps, k):
        yield np.array(combo, dtype=float) / steps


def eta_phi(
    mu: np.ndarray,
    kernel: MarkovKernel,
    d: int = 2,
    grid_resolution: float = 0.05,
    restarts: int = 50,
    hill_steps: int = 150,
    seed: int = 0,
) -> EtaResult:
    """Lower bound for the strong data-processing ratio
    sup chi(evolved) / chi(original) over state families.

    For d = 1 the family ranges over likelihood ratios d nu / d mu, which
    reduces the ratio to the classical divergence contraction
    D(nu K || mu K) / D(nu || mu). For d >= 2 a grid over diagonal
    ensembles is combined with random-restart hill climbs over general
    state tuples. Every evaluation enforces the contraction bound, so the
    returned value lies in [0, 1]."""
    mu = np.asarray(mu, dtype=float)
    require_admissible(mu, kernel)
    best = 0.0
    best_witness = None

    if d == 1:
        pushed = kernel_push(mu, kernel)
        back = backward_channel(mu, kernel)

        def evaluate(nu):
            f_in = nu / mu
            chi_in = _chi_of_scalar_family(mu, f_in)
            f_out = back.rows @ f_in
            chi_out = _chi_of_scalar_family(pushed, f_out)
            _enforce_contraction(chi_in, chi_out)
            return _ratio(chi_in, chi_out)

        candidates = list(_simplex_grid(mu.size, grid_resolution))
        for r in range(restarts):
            rng = rng_for(seed, "eta-scalar", r)
            v = rng.random(mu.size) + 1e-3
            candidates.append(v / v.sum())
        for nu in candidates:
            ratio = evaluate(nu)
            if ratio is not None and ratio > best:
                best, best_witness = ratio, nu
        # Local refinement around the best grid candidate.
        if best_witness is not None:
            nu = best_witness.copy()
            step = grid_resolution
            rng = rng_for(seed, "eta-scalar-refine", 0)
            for _ in range(hill_steps):
                prop = np.clip(nu + step * rng.standard_normal(mu.size), 1e-9, None)
                prop = prop / prop.sum()
                ratio = evaluate(prop)
                if ratio is not None and ratio > best:
                    best, nu = ratio, prop
                else:
                    step *= 0.7
                    if step < 1e-6:
                        break
            best_witness = nu
    else:
        def evaluate(states):
            ens = CQEnsemble(mu, states)
            chi_in = holevo_chi(ens, cross_check=False)
            chi_out = holevo_chi(evolve_ensemble(ens, kernel), cross_check=False)
            _enforce_contraction(chi_in, chi_out)
            return _ratio(chi_in, chi_out)

        if d == 2 and mu.size <= 4:
            qs = np.arange(0.0, 1.0 + 1e-9, grid_resolution)
            grid_axes = [qs] * mu.size
            mesh = np.stack(np.meshgrid(*grid_axes, indexing="ij"), axis=-1).reshape(
                -1, mu.size
            )
            for row in mesh:
                states = np.stack([np.diag([q, 1.0 - q]).astype(complex) for q in row])
                ratio = evaluate(states)
                if ratio is not None and ratio > best:
                    best, best_witness = ratio, states
        for r in range(restarts):
            rng = rng_for(seed, "eta-states", r)
            gs = [random_complex_gaussian(rng, (d, d)) for _ in range(mu.size)]

            def states_of(gl):
                out = []
                for g in gl:
                    m = g.conj().T @ g + 1e-9 * np.eye(d)
                    out.append(m / float(np.trace(m).real))
                return np.stack(out)

            current = evaluate(states_of(gs))
            step = 0.2
            for _ in range(hill_steps):
                proposal = [g + step * random_complex_gaussian(rng, (d, d)) for g in gs]
                cand = evaluate(states_of(proposal))
                if cand is not None and (current is None or cand > current):
                    gs, current = proposal, cand
                else:
                    step *= 0.7
                    if step < 1e-5:
                        break
            if current is not None and current > best:
                best, best_witness = current, states_of(gs)

    eta_hat = min(max(best, 0.0), 1.0 + 1e-9)
    witness = best_witness
    if d > 1 and witness is not None:
        witness = CQEnsemble(mu, witness)
    return EtaResult(eta_hat=eta_hat, witness=witness, seed=seed)


def classical_sdpi_ratio(mu: np.ndarray, kernel: MarkovKernel, nu: np.ndarray) -> float | None:
    """D(nu K || mu K) / D(nu || mu), the directly computed divergence
    contraction for one candidate input law."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)

    def kl(a, b):
        pos = a > 0
        return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))

    denom = kl(nu, mu)
    if denom <= 1e-10:
        return None
    num = kl(kernel_push(nu, kernel), kernel_push(mu, kernel))
    return num / denom


def check_law_total_variance(
    phi: PhiFunction,
    probs: np.ndarray,
    values: np.ndarray,
    labels: Sequence,
) -> CheckReport:
    """Exact conditional decomposition H(Z) = E_Y H(Z|Y) + H(E[Z|Y]) for a
    finite joint law of (Z, Y)."""
    law = DiscreteRandomMatrix(probs, values)
    total = phi_entropy(phi, law)
    labels = list(labels)
    uniq = sorted(set(labels), key=repr)
    cond_term = 0.0
    mean_pairs = []
    for y in uniq:
        idx = [k for k, lab in enumerate(labels) if lab == y]
        py = float(law.probs[idx].sum())
        cond_probs = law.probs[idx] / py
        cond_law = DiscreteRandomMatrix(cond_probs, law.values[idx])
        cond_term += py * phi_entropy(phi, cond_law)
        mean_pairs.append((py, cond_law.mean()))
    outer = phi_entropy(phi, DiscreteRandomMatrix.from_pairs(mean_pairs))
    dev = abs(total - (cond_term + outer))
    tol = 1e-10 * (1.0 + abs(total))
    return CheckReport(
        check="law-total-variance",
        passed=dev <= tol,
        max_gap=float(dev),
        tol=tol,
        phi=phi.label,
        d=law.d,
        details={"total": total, "conditional": cond_term, "outer": outer},
    )


def check_functional_sdpi(
    mu: np.ndarray,
    kernel: MarkovKernel,
    states: np.ndarray,
    c: float,
) -> CheckReport:
    """Given a contraction constant c in [0, 1), verify both
    H[f(X)] <= (1 - c)^{-1} E_Y H[f(X)|Y] and the chained inequality
    H(evolved) <= c H[f(X)] on the same instance."""
    if not 0.0 <= c < 1.0:
        raise InvalidC(f"the contraction constant must lie in [0, 1), got {c}")
    mu = np.asarray(mu, dtype=float)
    pushed = require_admissible(mu, kernel)
    ens = CQEnsemble(mu, states)
    h_total = phi_entropy(XLOGX, ens.as_law())
    back = backward_channel(mu, kernel)
    cond = 0.0
    for y in range(kernel.output_size):
        cond_law = DiscreteRandomMatrix(back.rows[y], ens.states)
        cond += pushed[y] * phi_entropy(XLOGX, cond_law)
    evolved = evolve_ensemble(ens, kernel)
    h_evolved = phi_entropy(XLOGX, evolved.as_law())
    tol = 1e-9 * (1.0 + h_total)
    functional_ok = h_total <= cond / (1.0 - c) + tol
    chain_ok = h_evolved <= c * h_total + tol
    gap = float(max(h_total - cond / (1.0 - c), h_evolved - c * h_total))
    return CheckReport(
        check="functional-sdpi",
        passed=gap <= tol,
        max_gap=gap,
        tol=tol,
        d=ens.d,
        details={
            "h_total": h_total,
            "conditional": cond,
            "h_evolved": h_evolved,
            "c": c,
            "functional_ok": functional_ok,
            "chain_ok": chain_ok,
        },
    )


def random_ensemble(rng: np.random.Generator, nx: int, d: int) -> CQEnsemble:
    probs = rng.random(nx) + 0.1
    probs = probs / probs.sum()
    return CQEnsemble(probs, np.stack([random_density(rng, d) for _ in range(nx)]))
