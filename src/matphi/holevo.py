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
)
from .entropy import _law_entropies, _phi_traces, phi_entropy
from .linalg import (
    NONNEGATIVE,
    _require_hermitian_stack,
    eigenvalues,
    hermitian_part,
    spectral_map,
    spectral_tolerance,
)
from .models import DiscreteRandomMatrix, require_probabilities, weighted_sum
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
    """(mu K)(y) = sum_x mu(x) K(y|x) for a probability vector mu over the
    kernel's inputs (zeros allowed)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (kernel.input_size,):
        raise DimensionMismatch(
            f"distribution of size {mu.size} vs kernel input {kernel.input_size}"
        )
    return require_probabilities(mu, "mu", positive=False) @ kernel.rows


def require_admissible(mu: np.ndarray, kernel: MarkovKernel) -> np.ndarray:
    """mu and mu K must be strictly positive; returns mu K. A mu that is not
    a probability vector fails the probability rule first."""
    pushed = kernel_push(mu, kernel)
    zeros_mu = np.where(np.asarray(mu) <= 0)[0]
    if zeros_mu.size:
        raise NotAdmissible(
            f"input law vanishes at {zeros_mu.tolist()}", zero_entries=zeros_mu.tolist()
        )
    zeros_out = np.where(pushed <= 0)[0]
    if zeros_out.size:
        raise NotAdmissible(
            f"output law vanishes at {zeros_out.tolist()}", zero_entries=zeros_out.tolist()
        )
    return pushed


def _bayes_inverse(mu: np.ndarray, kernel: MarkovKernel) -> tuple[np.ndarray, np.ndarray]:
    """mu K, after require_admissible, and the rows K*(x|y) = K(y|x) mu(x) /
    (mu K)(y) of the Bayes inverse, indexed by y."""
    pushed = require_admissible(mu, kernel)
    mu = np.asarray(mu, dtype=float)
    rows = (kernel.rows * mu[:, None]).T / pushed[:, None]
    return pushed, rows / rows.sum(axis=1, keepdims=True)


def _average_state(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_x p(x) rho_x for (..., k) weights and (..., k, d, d) states."""
    return hermitian_part(weighted_sum(probs, states, 2))


def _evolution_drift(probs, states, pushed, back_rows):
    """Exactly Hermitian states mixed through each backward row, unchecked,
    with the drift of each ensemble's average and the tolerance it is held to."""
    out = _average_state(back_rows, states[..., None, :, :, :])
    drift = np.abs(_average_state(pushed, out) - _average_state(probs, states)).max(axis=(-2, -1))
    return out, drift, 1e-12 * (1.0 + states.shape[-1])


def _evolve(probs, states, pushed, back_rows) -> np.ndarray:
    """_evolution_drift's states; raises when an average state drifts."""
    out, drift, tol = _evolution_drift(probs, states, pushed, back_rows)
    if not np.all(drift <= tol):
        raise MatPhiError(f"average state drifted by {np.max(drift):.3e} under evolution")
    return out


def evolve_ensemble(ens: CQEnsemble, kernel: MarkovKernel) -> CQEnsemble:
    """Push labels through K and states through the backward channel; the
    average state is preserved."""
    pushed, back = _bayes_inverse(ens.probs, kernel)
    return CQEnsemble(pushed, _evolve(ens.probs, ens.states, pushed, back))


def _support_log(m: np.ndarray) -> np.ndarray:
    """log m on the support of each Hermitian m (eigenvalues above
    SUPPORT_CUTOFF) and 0 off it."""

    def log_on_support(w):
        keep = w > SUPPORT_CUTOFF
        return np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0)

    return hermitian_part(spectral_map(log_on_support, m))


def _relative_entropy(rhos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr rho (log rho - log sigma) in nats, each log taken on its own
    support, for each state rho of an exactly Hermitian (..., k, d, d) stack
    against its exactly Hermitian (..., d, d) reference sigma, unchecked.
    The value is the relative entropy when sigma's support holds rho's, as
    it does for an ensemble's average: rho_bar >= mu(x) rho_x."""
    logs = _support_log(np.concatenate([rhos, sigma[..., None, :, :]], axis=-3))
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
    if not gap <= tol:
        raise MatPhiError(f"Holevo dual paths disagree by {gap:.3e} at chi = {chi!r}")
    return chi


def _scalar_chi(probs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """H_{x log x} of each (..., k) family of nonnegative scalars (1x1 PSD
    matrices), unchecked; the Kullback-Leibler divergence when f = d nu/d mu."""
    return _law_entropies(XLOGX, probs, f[..., None, None].astype(complex))


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
    """chi_out / chi_in, -inf where chi_in vanishes, 0 where chi_out does; raises on an
    increase or a NaN."""
    up = ~(chi_out <= chi_in + relative_tol(1e-9, chi_in))
    if np.any(up):
        raise MatPhiError(f"entropy contraction violated: {chi_out[up]} > {chi_in[up]}")
    with np.errstate(divide="ignore", invalid="ignore"):  # quotients masked out below
        ratio = np.where(chi_out <= relative_tol(CHI_FLOOR, chi_in), 0.0, chi_out / chi_in)
    return np.where(chi_in <= 1e-10, -np.inf, ratio)


def _blockwise(score, xs: np.ndarray, entries: int) -> np.ndarray:
    """score on a stack of candidates in blocks of at most BLOCK_ENTRIES entries."""
    size = max(1, BLOCK_ENTRIES // entries)
    return np.concatenate([np.empty(0), *(score(xs[i:i + size]) for i in range(0, len(xs), size))])


def _keep_into(x: np.ndarray):
    """climb's accept for moves that are whole candidates: the kept rows
    overwrite the winning restarts of the (restarts, ...) stack x."""

    def accept(won, kept, cand):
        x[won] = cand[kept]

    return accept


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
    mu = require_probabilities(mu, "mu")
    pushed, back = _bayes_inverse(mu, kernel)

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
        g = np.array([rng.standard_normal((mu.size, 2, d, d)) for rng in rngs]).reshape(
            restarts, mu.size, 2, d, d)

        def propose(live, step):
            noise = np.array([rngs[r].standard_normal(g.shape[1:]) for r in live.tolist()])
            return g[live] + step[:, None, None, None, None] * noise

        climbed = climb(ratios(_states_of(g)), propose, lambda live, cand: ratios(_states_of(cand)),
                        _keep_into(g), 0.2, 1e-5, hill_steps, 0.7)
        values = np.concatenate([values, climbed])

    i = int(np.argmax(np.concatenate([[0.0], values]))) - 1  # the first strict maximum above 0
    best, witness = 0.0, None
    if i >= 0 and d == 1:  # local refinement around the best candidate
        rng = rng_for(seed, "eta-scalar-refine", 0)

        nus = candidates[i:i + 1].copy()  # one restart: live is [0] while it climbs

        def propose(live, step):
            prop = np.clip(nus + step[:, None] * rng.standard_normal(nus.shape), 1e-9, None)
            return prop / prop.sum(axis=-1, keepdims=True)

        refined = climb(ratios(nus), propose, lambda live, cand: ratios(cand), _keep_into(nus),
                        grid_resolution, 1e-6, hill_steps, 0.7)
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


def _total_variance(phi: PhiFunction, law: DiscreteRandomMatrix, conditionals, means, py):
    """H(Z), each H(Z | Y = y) and H(E[Z | Y]) of the law of Z, its
    conditional laws as (support indices, probabilities), their (|Y|, d, d)
    means and the law py of Y. One spectrum call takes the support values, the
    conditional means, the mean of E[Z | Y] and E Z; every term reads its
    traces from it."""
    outer_mean = hermitian_part(weighted_sum(py, means, 2))
    traces = _phi_traces(phi, np.concatenate([law.values, means, outer_mean[None]]), law.mean())
    total = float(weighted_sum(law.probs, traces[:law.size], 0) - traces[-1])
    conditional = [float(weighted_sum(q, traces[idx], 0) - mean_trace)
                   for (idx, q), mean_trace in zip(conditionals, traces[law.size:])]
    return total, conditional, float(weighted_sum(py, traces[law.size:-2], 0) - traces[-2])


def check_law_total_variance(
    phi: PhiFunction,
    probs: np.ndarray,
    values: np.ndarray,
    labels: Sequence,
) -> CheckReport:
    """Exact conditional decomposition H(Z) = E_Y H(Z|Y) + H(E[Z|Y]) for a
    finite joint law of (Z, Y), validated once."""
    law = DiscreteRandomMatrix(probs, values)
    labels = list(labels)
    if len(labels) != law.size:
        raise DimensionMismatch(f"{len(labels)} labels for {law.size} support values")
    uniq = sorted(set(labels), key=repr)
    groups = [[k for k, lab in enumerate(labels) if lab == y] for y in uniq]
    py = [float(law.probs[idx].sum()) for idx in groups]
    conditionals = [(idx, law.probs[idx] / p) for idx, p in zip(groups, py)]
    means = np.stack([hermitian_part(weighted_sum(q, law.values[idx], 2))
                      for idx, q in conditionals])
    total, entropies, outer = _total_variance(phi, law, conditionals, means, np.array(py))
    cond_term = sum(p * h for p, h in zip(py, entropies))
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
    H(evolved) <= c H[f(X)] on the same instance. The evolved states are the
    means E[f(X) | Y], so one total-variance decomposition gives all three."""
    if not 0.0 <= c < 1.0:
        raise InvalidC(f"the contraction constant must lie in [0, 1), got {c}")
    mu = np.asarray(mu, dtype=float)
    pushed, back = _bayes_inverse(mu, kernel)
    law = CQEnsemble(mu, states).as_law()  # mu > 0, so every state stays
    # validated states mixed through stochastic rows need no ensemble check:
    # their spectra are admitted through x log x's domain
    evolved = _evolve(mu, law.values, pushed, back)
    h_total, entropies, h_evolved = _total_variance(
        XLOGX, law, [(slice(law.size), row) for row in back], evolved, pushed / pushed.sum())
    cond = sum(p * h for p, h in zip(pushed, entropies))  # zero-weight states add 0
    tol = relative_tol(1e-9, h_total)
    functional_ok = h_total <= cond / (1.0 - c) + tol
    chain_ok = h_evolved <= c * h_total + tol
    return verdict(
        "functional-sdpi", max(h_total - cond / (1.0 - c), h_evolved - c * h_total), tol,
        d=law.d,
        details={"h_total": h_total, "conditional": cond, "h_evolved": h_evolved, "c": c,
                 "functional_ok": functional_ok, "chain_ok": chain_ok},
    )


def random_ensemble(rng: np.random.Generator, nx: int, d: int) -> CQEnsemble:
    probs = rng.random(nx) + 0.1
    probs = probs / probs.sum()
    return CQEnsemble(probs, np.stack([random_density(rng, d) for _ in range(nx)]))
