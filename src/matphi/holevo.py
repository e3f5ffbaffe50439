"""Classical-quantum ensembles under Markov kernels.

The Holevo quantity of an ensemble {(mu(x), rho_x)} equals d times the
x log x entropy functional of the ensemble viewed as a random matrix;
both paths are computed and compared on every call. Kernel evolution
pushes the label law forward and mixes states through the backward
(Bayes) channel, which preserves the average state and contracts the
Holevo quantity.
"""

from __future__ import annotations

import itertools
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
from .entropy import _phi_entropies, _phi_traces, phi_entropy
from .linalg import (
    NONNEGATIVE,
    _require_hermitian_stack,
    eigenvalues,
    hermitian_part,
    require_hermitian,
    spectral_map,
    spectral_tolerance,
)
from .models import DiscreteRandomMatrix, require_probabilities
from .phifun import XLOGX, PhiFunction
from .report import CheckReport, relative_tol, verdict
from .sampling import BLOCK_ENTRIES, climb, random_density, rng_for

CHI_FLOOR = 1e-12
SUPPORT_CUTOFF = 1e-13
GRID_RESOLUTION = 0.05  # eta_phi's default simplex grid step


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
        probs = require_probabilities(probs, "label probabilities", positive=False)
        states = _require_hermitian_stack(states)
        NONNEGATIVE.admit(eigenvalues(states))
        traces = np.trace(states, axis1=1, axis2=2).real
        off = np.abs(traces - 1.0) > spectral_tolerance(states.shape[1])
        if np.any(off):
            raise ValueError(f"state trace {traces[np.argmax(off)]!r} is not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def size(self) -> int:
        return self.probs.size

    def average_state(self) -> np.ndarray:
        return _average_state(self.probs, self.states)

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
        object.__setattr__(self, "rows", require_probabilities(rows, "kernel", positive=False))

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


def _average_state(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_x p(x) rho_x for (..., k) weights and (..., k, d, d) states, by a
    matmul on flat states: it rounds each sum as tensordot rounds it alone."""
    k, d = states.shape[-3:-1]
    mixed = probs[..., None, :] @ states.reshape(*states.shape[:-3], k, d * d)
    return hermitian_part(mixed.reshape(*mixed.shape[:-2], d, d))


def _evolution_drift(probs, states, pushed, back_rows):
    """Exactly Hermitian states mixed through each backward row, unchecked,
    with the drift of each ensemble's average and the tolerance it is held to."""
    out = _average_state(back_rows, states[..., None, :, :, :])
    drift = np.abs(_average_state(pushed, out) - _average_state(probs, states)).max(axis=(-2, -1))
    return out, drift, 1e-12 * (1.0 + states.shape[-1])


def _evolve(probs, states, pushed, back_rows) -> np.ndarray:
    """_evolution_drift's states; raises when an average state drifts."""
    out, drift, tol = _evolution_drift(probs, states, pushed, back_rows)
    if np.any(drift > tol):
        raise MatPhiError(f"average state drifted by {np.max(drift):.3e} under evolution")
    return out


def evolve_ensemble(ens: CQEnsemble, kernel: MarkovKernel) -> CQEnsemble:
    """Push labels through K and states through the backward channel; the
    average state is preserved."""
    pushed = require_admissible(ens.probs, kernel)
    back = backward_channel(ens.probs, kernel)
    return CQEnsemble(pushed, _evolve(ens.probs, ens.states, pushed, back.rows))


def _support_log(m: np.ndarray):
    """log m on the support of a Hermitian m (eigenvalues above
    SUPPORT_CUTOFF) and the projector onto that support, from one
    decomposition."""

    def log_and_support(w):
        keep = w > SUPPORT_CUTOFF
        return np.stack([np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0), keep])

    return hermitian_part(spectral_map(log_and_support, m))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma) in nats, on the support of sigma."""
    return float(_relative_entropy(require_hermitian(rho)[None], require_hermitian(sigma))[0])


def _relative_entropy(rhos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """relative_entropy of each state of an exactly Hermitian (..., k, d, d)
    stack against its exactly Hermitian (..., d, d) reference, unchecked."""
    logs, supports = _support_log(np.concatenate([rhos, sigma[..., None, :, :]], axis=-3))
    outside = np.trace(rhos @ (np.eye(sigma.shape[-1]) - supports[..., -1:, :, :]),
                       axis1=-2, axis2=-1).real
    bad = outside > 1e-9
    if np.any(bad):
        raise SupportError(
            f"state carries weight {outside[bad][0]:.3e} outside the reference support"
        )
    return np.trace(rhos @ (logs[..., :-1, :, :] - logs[..., -1:, :, :]), axis1=-2, axis2=-1).real


def _chi(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_x mu(x) S(rho_x || rho_bar) of each ensemble of exactly
    Hermitian density states, unchecked and floored at 0."""
    keep = probs > 0
    entropies = _relative_entropy(states[..., keep, :, :], _average_state(probs, states))
    chi = sum(p * s for p, s in zip(probs[keep], np.moveaxis(entropies, -1, 0)))  # label order
    return np.maximum(chi, 0.0)


def _dual_path_gap(ens: CQEnsemble, chi: float) -> tuple[float, float]:
    """|chi - d * H_{x log x}| of the ensemble as a random matrix, and its tolerance."""
    dual = ens.d * phi_entropy(XLOGX, ens.as_law())
    return abs(chi - dual), relative_tol(1e-9, chi)


def holevo_chi(ens: CQEnsemble) -> float:
    """chi = sum_x mu(x) S(rho_x || rho_bar), cross-checked against
    d * H_{x log x} of the ensemble as a random matrix."""
    chi = float(_chi(ens.probs, ens.states))
    gap, tol = _dual_path_gap(ens, chi)
    if gap > tol:
        raise MatPhiError(f"Holevo dual paths disagree by {gap:.3e} at chi = {chi!r}")
    return chi


def _scalar_chi(probs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """H_{x log x} of each (..., k) family of nonnegative scalars (1x1 PSD
    matrices), unchecked; the Kullback-Leibler divergence when f = d nu/d mu."""
    values = f[..., None, None].astype(complex)
    traces = _phi_traces(XLOGX, values, _average_state(probs, values))
    # one dot per family: tensordot over a stack rounds differently
    return (traces[..., None, :-1] @ probs[:, None])[..., 0, 0] - traces[..., -1]


def check_data_processing(ens: CQEnsemble, kernel: MarkovKernel) -> CheckReport:
    """chi never increases under kernel evolution."""
    chi_in = holevo_chi(ens)
    chi_out = holevo_chi(evolve_ensemble(ens, kernel))
    return verdict(
        "data-processing", chi_out - chi_in, relative_tol(1e-9, chi_in), d=ens.d,
        details={"chi_in": chi_in, "chi_out": chi_out},
    )


@dataclass(frozen=True)
class EtaResult:
    eta_hat: float
    witness: object
    seed: int


def _contraction_ratios(chi_in: np.ndarray, chi_out: np.ndarray) -> np.ndarray:
    """chi_out / chi_in, -inf where chi_in vanishes, 0 where chi_out does; raises on increase."""
    up = chi_out > chi_in + relative_tol(1e-9, chi_in)
    if np.any(up):
        raise MatPhiError(f"entropy contraction violated: {chi_out[up]} > {chi_in[up]}")
    with np.errstate(divide="ignore", invalid="ignore"):  # quotients masked out below
        ratio = np.where(chi_out <= relative_tol(CHI_FLOOR, chi_in), 0.0, chi_out / chi_in)
    return np.where(chi_in <= 1e-10, -np.inf, ratio)


def _blockwise(score, xs: np.ndarray, entries: int) -> np.ndarray:
    """score on a stack of candidates in blocks of at most BLOCK_ENTRIES entries."""
    size = max(1, BLOCK_ENTRIES // entries)
    return np.concatenate([np.empty(0), *(score(xs[i:i + size]) for i in range(0, len(xs), size))])


def _simplex_grid(k: int, resolution: float):
    steps = int(round(1.0 / resolution))
    for bars in itertools.combinations(range(steps + k - 1), k - 1):  # stars and bars
        yield (np.diff([-1, *bars, steps + k - 1]) - 1).astype(float) / steps


def _states_of(block: np.ndarray) -> np.ndarray:
    """Normalized G†G + 1e-9 I for G = X + iY of each real (..., 2, d, d) block [X, Y]."""
    g = block[..., 0, :, :] + 1j * block[..., 1, :, :]
    m = g.conj().swapaxes(-1, -2) @ g + 1e-9 * np.eye(g.shape[-1])
    return hermitian_part(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def eta_phi(
    mu: np.ndarray,
    kernel: MarkovKernel,
    d: int = 2,
    grid_resolution: float = GRID_RESOLUTION,
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
    state tuples, scored in stacked blocks and climbed in lock-step. Every
    evaluation enforces the contraction bound, so the returned value lies
    in [0, 1]."""
    pushed = require_admissible(mu, kernel)
    mu = require_probabilities(mu, "mu")
    back = backward_channel(mu, kernel).rows

    if d == 1:
        def ratios(nus):
            f_in = nus / mu
            f_out = (back @ f_in[..., None])[..., 0]
            return _contraction_ratios(_scalar_chi(mu, f_in), _scalar_chi(pushed, f_out))

        draws = (rng_for(seed, "eta-scalar", r).random(mu.size) + 1e-3 for r in range(restarts))
        candidates = np.array([*_simplex_grid(mu.size, grid_resolution),
                               *(v / v.sum() for v in draws)]).reshape(-1, mu.size)
        values = _blockwise(ratios, candidates, mu.size)
    else:
        def ratios(states):
            chi_in = _chi(mu, states)
            return _contraction_ratios(chi_in, _chi(pushed, _evolve(mu, states, pushed, back)))

        grid = np.empty((0, mu.size, 2, 1))  # the diagonals of qubit states diag(q, 1 - q)
        if d == 2 and mu.size <= 4:
            qs = np.arange(0.0, 1.0 + 1e-9, grid_resolution)
            q = np.stack(np.meshgrid(*[qs] * mu.size, indexing="ij"), -1).reshape(-1, mu.size)
            grid = np.stack([q, 1.0 - q], axis=-1)[..., None]
        values = _blockwise(lambda w: ratios(w * np.eye(2, dtype=complex)), grid, mu.size * d * d)
        rngs = [rng_for(seed, "eta-states", r) for r in range(restarts)]

        def propose(live, g, step):
            noise = np.array([rngs[r].standard_normal(g.shape[1:]) for r in live.tolist()])
            return g + step[:, None, None, None, None] * noise

        starts = np.array([rng.standard_normal((mu.size, 2, d, d)) for rng in rngs])
        g, climbed = climb(lambda g: ratios(_states_of(g)), propose,
                           starts.reshape(restarts, mu.size, 2, d, d), 0.2, 1e-5, hill_steps, 0.7)
        values = np.concatenate([values, climbed])

    i = int(np.argmax(np.concatenate([[0.0], values]))) - 1  # the first strict maximum above 0
    best, witness = 0.0, None
    if i >= 0 and d == 1:  # local refinement around the best candidate
        rng = rng_for(seed, "eta-scalar-refine", 0)

        def propose(live, nus, step):
            prop = np.clip(nus + step[:, None] * rng.standard_normal(nus.shape), 1e-9, None)
            return prop / prop.sum(axis=-1, keepdims=True)

        nus, refined = climb(ratios, propose, candidates[i:i + 1].copy(), grid_resolution, 1e-6,
                             hill_steps, 0.7)
        best, witness = refined[0], nus[0]
    elif i >= 0:
        states = (grid[i] * np.eye(2, dtype=complex) if i < len(grid)
                  else _states_of(g[i - len(grid)]))
        best, witness = values[i], CQEnsemble(mu, states)
    return EtaResult(eta_hat=float(min(best, 1.0 + 1e-9)), witness=witness, seed=seed)


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
    return verdict(
        "law-total-variance", abs(total - (cond_term + outer)), relative_tol(1e-10, total),
        phi=phi.label, d=law.d,
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
    back = backward_channel(mu, kernel).rows
    cond = 0.0
    for p, row in zip(pushed, back):  # zero-weight states add exactly 0
        mean = hermitian_part(np.tensordot(row, ens.states, axes=1))
        cond += p * float(_phi_entropies(XLOGX, row, ens.states, mean))
    evolved = CQEnsemble(pushed, _evolve(mu, ens.states, pushed, back))
    h_evolved = phi_entropy(XLOGX, evolved.as_law())
    tol = relative_tol(1e-9, h_total)
    functional_ok = h_total <= cond / (1.0 - c) + tol
    chain_ok = h_evolved <= c * h_total + tol
    return verdict(
        "functional-sdpi", max(h_total - cond / (1.0 - c), h_evolved - c * h_total), tol,
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
