"""Fourier-Walsh analysis of matrix-valued functions on the hypercube.

Functions live on {0,1}^n as dense 2^n tables of Hermitian matrices,
indexed by the integer whose i-th bit is the i-th coordinate. Characters
are chi_S(x) = (-1)^{|S & x|}; transforms run through Walsh-Hadamard
butterflies. The hypercontractive and entropy inequalities below use the
normalized trace and natural logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .entropy import _phi_traces
from .errors import DomainError
from .linalg import (
    NONNEGATIVE,
    _require_hermitian_stack,
    eigenvalues,
    hermitian_part,
    normalized_trace,
    psd_power,
    schatten_norm,
    spectral_map,
)
from .models import DiscreteRandomMatrix, FiniteLaw, ProductModel, weighted_sum
from .phifun import XLOGX
from .report import CheckReport, Inequality, relative_tol, verdict
from .sampling import BLOCK_ENTRIES, climb, random_complex_gaussian, rng_for

P_VARIANCE_PS = (1.9, 1.99, 1.999)  # exponents extrapolated toward p = 2
P_VARIANCE_TOL = 1e-4
LSI_STEP0 = 0.1  # largest hill-climbing step of the LSI search
LSI_THRESHOLD = 1e-6  # objective above which a table is a counterexample
PROPOSAL_CHUNK = 32  # steps of proposals each LSI restart draws at once


def _popcounts(points: int) -> np.ndarray:
    return np.array([bin(s).count("1") for s in range(points)])


@dataclass(frozen=True)
class MatrixBooleanFunction:
    """Total map {0,1}^n -> Hermitian d x d matrices as a 2^n table."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=complex)
        if table.ndim != 3 or table.shape[0] != 2**self.n:
            raise ValueError(f"table must have shape (2^{self.n}, d, d), got {table.shape}")
        table = _require_hermitian_stack(table)
        object.__setattr__(self, "table", table)

    @property
    def d(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class FourierTable:
    """Coefficients indexed by subsets of [n] as bitmasks."""

    n: int
    coeffs: np.ndarray


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterflies along axis -3 of a (..., 2^n, d, d) stack:
    the sums and differences of the halves of each block of 2h points."""
    shape, width, a = a.shape, a.shape[-2] * a.shape[-1], a.copy()
    while width < shape[-3] * shape[-2] * shape[-1]:
        blocks = a.reshape(*shape[:-3], -1, 2 * width)
        top, bottom = blocks[..., :width], blocks[..., width:]
        a = np.concatenate([top + bottom, top - bottom], axis=-1)
        width *= 2
    return a.reshape(shape)


def _transform(table: np.ndarray) -> np.ndarray:
    """Coefficients 2^{-n} sum_x f(x) chi_S(x) of each (..., 2^n, d, d) table."""
    return _fwht(table) / table.shape[-3]


def fourier_transform(f: MatrixBooleanFunction) -> FourierTable:
    """Coefficient table: 2^{-n} sum_x f(x) chi_S(x)."""
    return FourierTable(f.n, _transform(f.table))


def inverse_fourier(table: FourierTable) -> MatrixBooleanFunction:
    """f(x) = sum_S coeffs(S) chi_S(x); exact round trip with the forward
    transform."""
    return MatrixBooleanFunction(table.n, _fwht(table.coeffs))


def _noise(coeffs: np.ndarray, gamma) -> np.ndarray:
    """coeffs(S) gamma^{|S|} of each (..., 2^n, d, d) table, at one rate or one per table."""
    weights = np.asarray(gamma, dtype=float)[..., None] ** _popcounts(coeffs.shape[-3])
    return coeffs * weights[..., None, None]


def noise_operator(table: FourierTable, gamma: float) -> FourierTable:
    """Scale the S coefficient by gamma^{|S|}."""
    return FourierTable(table.n, _noise(table.coeffs, gamma))


def _parseval_gap(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gap, tol) of Parseval's identity, entrywise, of each (..., 2^n, d, d) table."""
    coeffs = _transform(table)
    rhs = np.einsum("...kij,...kjl->...il", coeffs, coeffs)
    lhs = np.mean(np.einsum("...kij,...kjl->...kil", table, table), axis=-3)
    gap = np.abs(lhs - rhs).max(axis=(-2, -1))
    # np.float_power is libm pow, which the scalar float ** 2 calls
    return gap, relative_tol(1e-10, np.float_power(np.abs(table).max(axis=(-3, -2, -1)), 2))


def parseval_check(f: MatrixBooleanFunction) -> CheckReport:
    """E[f(X)^2] = sum_S coeffs(S)^2, entrywise."""
    return verdict("parseval", *_parseval_gap(f.table), d=f.d, n=f.n)


def _spectral_energy(table: np.ndarray) -> np.ndarray:
    """sum_S |S| tr coeffs(S)^2 / d of each (..., 2^n, d, d) table."""
    coeffs = _transform(table)
    traces = np.einsum("...kij,...kji->...k", coeffs, coeffs).real
    return weighted_sum(_popcounts(table.shape[-3]), traces, 0) / table.shape[-1]


def dirichlet_energy_spectral(f: MatrixBooleanFunction) -> float:
    """sum_S |S| tr coeffs(S)^2 / d: the Dirichlet energy in the
    normalized trace, the units of ``dirichlet_energy_flip``."""
    return float(_spectral_energy(f.table))


# Table kernels shared by the public functions and the LSI search. They
# take (..., 2^n, d, d) stacks of trusted tables and return one value per
# table; the search evaluates all of its live restarts in one call. Means
# are written as sum / count: the same arithmetic as np.mean without its
# call overhead.

def _square_entropy(table: np.ndarray) -> np.ndarray:
    k = table.shape[-3]
    f2 = np.einsum("...ij,...jl->...il", table, table)
    # H_{x log x} of the uniform law of the k squares; the squares and their
    # mean share one spectral call
    traces = _phi_traces(XLOGX, f2, f2.sum(axis=-3) / k)
    return traces[..., :k].sum(axis=-1) / k - traces[..., k]


def _flip_energy(table: np.ndarray, n: int) -> np.ndarray:
    k, d = table.shape[-3:-1]
    total = np.zeros(table.shape[:-3])
    for i in range(n):
        diff = table - table[..., np.arange(k) ^ (1 << i), :, :]
        total = total + 0.25 * (np.einsum("...ij,...ji->...", diff, diff).real.sum(axis=-1) / k) / d
    return total


def dirichlet_energy_flip(f: MatrixBooleanFunction) -> float:
    """(1/4) tr E sum_i (f(x) - f(x with bit i flipped))^2."""
    return float(_flip_energy(f.table, f.n))


def uniform_cube_model(f: MatrixBooleanFunction) -> ProductModel:
    """The function as a product model of n fair bits. The model's table
    runs first input slowest, so its index is the table's bit-reversed."""
    laws = tuple(FiniteLaw.uniform((0, 1)) for _ in range(f.n))
    bits = f.table.reshape((2,) * f.n + f.table.shape[1:])
    table = bits.transpose(*range(f.n - 1, -1, -1), f.n, f.n + 1)
    return ProductModel(laws, table.reshape(f.table.shape))


def _bonami_beckner_sides(table: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of ``check_bonami_beckner``'s bound for each (..., 2^n, d, d) table."""
    norms = schatten_norm(_transform(table), p, normalized=True)
    lhs = np.sqrt(weighted_sum((p - 1.0) ** _popcounts(table.shape[-3]), norms**2, 0))
    mean = np.mean(schatten_norm(table, p, normalized=True) ** p, axis=-1)
    # np.float_power is libm pow, which the scalar float ** (1 / p) calls
    return lhs, np.float_power(mean, 1.0 / p)


def check_bonami_beckner(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Hypercontractive coefficient bound
    (sum_S (p-1)^{|S|} ||coeffs(S)||_{*p}^2)^{1/2}
    <= (2^{-n} sum_x ||f(x)||_{*p}^p)^{1/p} for p in [1, 2]."""
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"exponent must lie in [1, 2], got {p}")
    return BONAMI_BECKNER.verdict(f.table, p, details={"p": p}, d=f.d, n=f.n)


def entropy_of_square(f: MatrixBooleanFunction) -> float:
    """Ent(f^2) = tr E[f^2 log f^2] - tr[(E f^2) log(E f^2)], natural log,
    zero eigenvalues contributing zero."""
    return float(_square_entropy(f.table))


def _require_sobolev_exponent(p: float) -> None:
    """The phi-Sobolev exponent must lie in the open interval (1, 2)."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"p must lie in (1, 2), got {p}")


def _phi_sobolev_sides(values: np.ndarray, energy, p: float) -> tuple:
    """Both sides of H(f^p) <= (2-p) E(f) d^{1-2/p} + tr E[f^2] (1 - d^{1-2/p})
    for each (..., k, d, d) stack of k equally likely values and its
    energy; p outside (1, 2) or a value that is not PSD is a DomainError.
    The PSD test reads the spectra that f^p is taken from."""
    _require_sobolev_exponent(p)
    f2_mean = np.mean(np.einsum("...kij,...kjl->...kil", values, values), axis=-3)
    fp = spectral_map(lambda w: NONNEGATIVE.admit(w) ** p, hermitian_part(values))
    lhs = normalized_trace(f2_mean) - normalized_trace(psd_power(fp.mean(axis=-3), 2.0 / p))
    dim_factor = values.shape[-1] ** (1.0 - 2.0 / p)
    return lhs, (2.0 - p) * energy * dim_factor + normalized_trace(f2_mean) * (1.0 - dim_factor)


def _log_sobolev_sides(values: np.ndarray, energy) -> tuple:
    """Both sides of Ent(f^2) <= 2 E(f) + log(d) tr E[f^2] for each
    (..., k, d, d) stack of k equally likely values and its energy; a value
    that is not PSD is a DomainError."""
    NONNEGATIVE.admit(eigenvalues(values))
    f2_mean = np.mean(np.einsum("...kij,...kjl->...kil", values, values), axis=-3)
    rhs = 2.0 * energy + np.log(values.shape[-1]) * normalized_trace(f2_mean)
    return _square_entropy(values), rhs


BONAMI_BECKNER = Inequality("bonami-beckner", 1e-10, _bonami_beckner_sides)
PHI_SOBOLEV = Inequality("phi-sobolev", 1e-10, _phi_sobolev_sides)
LOG_SOBOLEV = Inequality("log-sobolev", 1e-10, _log_sobolev_sides, names=("entropy", "rhs"))


def check_phi_sobolev(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Interpolation entropy bound with generator u^{2/p} on fair bits:
    H(f^p) <= (2-p) E(f) d^{1-2/p} + tr E[f^2] (1 - d^{1-2/p})."""
    return PHI_SOBOLEV.verdict(
        f.table, dirichlet_energy_spectral(f), p, details={"p": p}, d=f.d, n=f.n
    )


def check_log_sobolev(f: MatrixBooleanFunction) -> CheckReport:
    """Defective log-Sobolev bound on fair bits:
    Ent(f^2) <= 2 E(f) + log(d) tr E[f^2]."""
    energy = dirichlet_energy_spectral(f)
    return LOG_SOBOLEV.verdict(f.table, energy, details={"energy": energy}, d=f.d, n=f.n)


def p_variance(law: DiscreteRandomMatrix, p: float) -> np.ndarray:
    """Matrix-valued p-variance E[Z^2] - (E[Z^p])^{2/p}."""
    second = law.expect(law.values @ law.values)
    p_mean = law.expect(psd_power(law.values, p))
    return hermitian_part(second - psd_power(p_mean, 2.0 / p))


def check_p_variance_limit(law: DiscreteRandomMatrix) -> CheckReport:
    """Richardson-extrapolated Var_p / (2 - p) against its closed-form
    limit (1/2) E[Z^2 log Z^2] - (1/2) E[Z^2] log E[Z^2], with the residuals
    of the two finest exponents required to shrink linearly in 2 - p."""
    if np.any(eigenvalues(law.values)[:, 0] <= 1e-13):
        raise DomainError("p-variance limit needs strictly positive support values")

    squares = law.values @ law.values
    second = law.expect(squares)
    limit = hermitian_part(
        0.5 * law.expect(squares @ spectral_map(np.log, hermitian_part(squares)))
        - 0.5 * second @ spectral_map(np.log, hermitian_part(second))
    )
    scaled = [p_variance(law, p) / (2.0 - p) for p in P_VARIANCE_PS]
    eps = np.array([2.0 - p for p in P_VARIANCE_PS])
    extrapolated = scaled[-1] + (scaled[-1] - scaled[-2]) * (
        eps[-1] / (eps[-2] - eps[-1])
    )
    # spectral norms, unchanged by unitary conjugation and by Z -> Z ⊗ I_k
    errors = hermitian_part(np.stack([extrapolated, *scaled]) - limit)
    dev, *residuals = (float(r) for r in np.max(np.abs(eigenvalues(errors)), axis=-1))
    # the finest pair, the one the extrapolation uses, must shrink linearly;
    # residuals that do not fail the check at any deviation
    r_prev, r_next = residuals[-2:]
    shrink_ok = bool(r_prev < 1e-12 or not r_next / r_prev > 3.0 * (eps[-1] / eps[-2]))
    return verdict(
        "p-variance-limit", dev, P_VARIANCE_TOL if shrink_ok else -np.inf, d=law.d,
        details={"residuals": residuals, "linear_shrink": shrink_ok},
    )


@dataclass(frozen=True)
class LsiSearchResult:
    found: bool
    f: MatrixBooleanFunction
    entropy: float
    energy: float
    objective: float


def _lsi_objective(table: np.ndarray, n: int) -> np.ndarray:
    """Ent(f^2) - 2 E(f) of each trusted table of a (..., 2^n, d, d) stack."""
    return _square_entropy(table) - 2.0 * _flip_energy(table, n)


def _gram(g: np.ndarray) -> np.ndarray:
    """G†G + 1e-12 I of each factor of a (..., d, d) stack."""
    return np.einsum("...ji,...jl->...il", g.conj(), g) + 1e-12 * np.eye(g.shape[-1])


def _table_of(g: np.ndarray) -> np.ndarray:
    """The PSD tables G†G + 1e-12 I of a (..., 2^n, d, d) stack of
    factors, each scaled to tr E f^2 = 1."""
    ms = _gram(g)
    norm = np.sqrt(np.mean(np.einsum("...ij,...ji->...", ms, ms).real, axis=-1) / g.shape[-1])
    return ms / np.maximum(norm, 1e-30)[..., None, None, None]


# The LSI search climbs plain (restarts, 2^n, ...) arrays: the factor g and
# caches of the unscaled table ms = G†G + 1e-12 I (ms, its square sq, the
# trace ent = tr phi(ms^2) for phi = x log x, and the n flip-pair terms
# flip = tr (ms_x - ms_{x^i})^2, each pair stored at both ends). A move
# changes one point per restart; its score re-sums the caches with that
# point's terms swapped in, carrying no running total, and scales the value
# to tr E f^2 = 1 by homogeneity: Ent(c f^2) = c Ent(f^2), E(sqrt(c) f) = c E(f).

class _LsiState(NamedTuple):
    g: np.ndarray
    ms: np.ndarray
    sq: np.ndarray
    ent: np.ndarray
    flip: np.ndarray


class _LsiMove(NamedTuple):
    """The moved point ks[j] of live restart j and its new factor and
    caches; ent is filled in by _lsi_score."""

    ks: np.ndarray
    g: np.ndarray
    ms: np.ndarray
    sq: np.ndarray
    flip: np.ndarray
    ent: np.ndarray


def _lsi_state(g: np.ndarray, n: int) -> _LsiState:
    """The climbed state of a (restarts, 2^n, d, d) stack of factors, which
    it keeps as its g; every cache computed from the whole table."""
    k = g.shape[-3]
    ms = _gram(g)
    sq = ms @ ms
    ent = _phi_traces(XLOGX, sq, sq.sum(axis=-3) / k)[..., :k].copy()
    flip = np.empty((*g.shape[:-2], n))
    for i in range(n):
        diff = ms - ms[..., np.arange(k) ^ (1 << i), :, :]
        flip[..., i] = np.einsum("...ij,...ji->...", diff, diff).real
    return _LsiState(g, ms, sq, ent, flip)


def _lsi_move(s: _LsiState, live: np.ndarray, ks: np.ndarray, dg: np.ndarray) -> _LsiMove:
    """Live restart j's factor at point ks[j] plus dg[j], with that point's
    new ms, square and flip pairs; s is only read."""
    n = s.flip.shape[-1]
    g = s.g[live, ks] + dg
    ms = _gram(g)
    diff = ms[:, None] - s.ms[live[:, None], ks[:, None] ^ (1 << np.arange(n))]
    flip = np.einsum("...ij,...ji->...", diff, diff).real
    return _LsiMove(ks, g, ms, ms @ ms, flip, np.empty(len(ks)))


def _lsi_score(s: _LsiState, live: np.ndarray, move: _LsiMove) -> np.ndarray:
    """Ent(f^2) - 2 E(f) of each live restart with its move made: one
    spectral call on the moved point's square and the new mean square, the
    rest re-summed from the caches of s, which is only read."""
    k, d = s.sq.shape[-3:-1]
    ks = move.ks
    mean = (s.sq.sum(axis=-3)[live] - s.sq[live, ks] + move.sq) / k
    traces = _phi_traces(XLOGX, move.sq[:, None], mean)
    move.ent[:] = traces[:, 0]
    entropy = (s.ent.sum(axis=-1)[live] - s.ent[live, ks] + move.ent) / k - traces[:, 1]
    flips = s.flip.sum(axis=(-2, -1))[live] + 2.0 * (move.flip - s.flip[live, ks]).sum(axis=-1)
    energy = 0.25 * (flips / k) / d
    return (entropy - 2.0 * energy) / (np.einsum("...ii->...", mean).real / d)


def _lsi_accept(s: _LsiState, won: np.ndarray, kept: np.ndarray, move: _LsiMove) -> None:
    """Write the kept rows of the move into the restarts won of s."""
    if not won.size:
        return
    ks = move.ks[kept]
    s.g[won, ks] = move.g[kept]
    s.ms[won, ks] = move.ms[kept]
    s.sq[won, ks] = move.sq[kept]
    s.ent[won, ks] = move.ent[kept]
    flip = move.flip[kept]
    s.flip[won, ks] = flip
    bits = np.arange(flip.shape[-1])
    s.flip[won[:, None], ks[:, None] ^ (1 << bits), bits] = flip


def search_lsi_counterexample(
    d: int,
    n: int,
    restarts: int = 20,
    steps: int = 300,
    seed: int = 0,
) -> LsiSearchResult:
    """Random-restart hill climbing on Ent(f^2) - 2 E(f) over PSD-valued
    tables parameterized as G†G per point.

    Restart r draws from its own generator rng_for(seed, "lsi-search", r)
    and keeps its own step size and early stop. It draws its proposals
    PROPOSAL_CHUNK steps at a time: at step t with t % PROPOSAL_CHUNK == 0,
    PROPOSAL_CHUNK points, then PROPOSAL_CHUNK (2, d, d) normal blocks, and
    step t reads row t % PROPOSAL_CHUNK. The restarts climb in lock-step
    (sampling.climb), in blocks of at most BLOCK_ENTRIES table entries,
    bit-identical to running the restarts one after another. A block's
    start tables are scored whole; a move changes one point, so a step
    scores each live restart from its per-point caches with one spectral
    call on two matrices, the moved point's square and the mean square,
    and writes only the moves it keeps.

    The tight scalar bound makes the objective nonpositive at d = 1; for
    d >= 2 nearly-aligned low-rank tables violate it, and every candidate
    maximum is re-verified from the raw table before being reported.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    points = 2**n
    best_obj = -np.inf
    best_table = None

    def start_table(rng, style):
        if d == 1 or style == 0:
            return random_complex_gaussian(rng, (points, d, d))
        if style == 1:
            # u w^T + 0.05 e per point, with complex Gaussian u, w (d,) and
            # e (d, d) read point by point, each as a real then an imaginary block
            z = rng.standard_normal((points, 4 * d + 2 * d * d))
            u = z[:, :d] + 1j * z[:, d:2 * d]
            w = z[:, 2 * d:3 * d] + 1j * z[:, 3 * d:4 * d]
            e = z[:, 4 * d:].reshape(points, 2, d, d)
            return u[:, :, None] * w[:, None, :] + 0.05 * (e[:, 0] + 1j * e[:, 1])
        # Two nearly-aligned rank-1 factors along one random coordinate;
        # slightly tilted low-rank pairs sit in the violating region.
        j = int(rng.integers(max(n, 1)))
        u0 = random_complex_gaussian(rng, (d,))
        u0 = u0 / np.linalg.norm(u0)
        tilt = random_complex_gaussian(rng, (d,))
        tilt = tilt - (u0.conj() @ tilt) * u0
        tilt = tilt / max(np.linalg.norm(tilt), 1e-12)
        angle = float(rng.uniform(0.05, 0.45))
        u1 = np.cos(angle) * u0 + np.sin(angle) * tilt
        w0 = random_complex_gaussian(rng, (d,))
        w1 = w0 + 0.1 * random_complex_gaussian(rng, (d,))
        g0, g1 = np.outer(w0, u0), np.outer(w1, u1)
        return np.where(((np.arange(points) >> j) & 1)[:, None, None] == 1, g1, g0)

    block = max(1, BLOCK_ENTRIES // (points * d * d))
    for first in range(0, restarts, block):
        rngs = [rng_for(seed, "lsi-search", r) for r in range(first, min(first + block, restarts))]
        ks = np.empty((len(rngs), PROPOSAL_CHUNK), dtype=np.intp)
        z = np.empty((len(rngs), PROPOSAL_CHUNK, 2, d, d))
        steps_taken = 0

        def propose(live, step):
            # each restart's stream, chunk by chunk: PROPOSAL_CHUNK points,
            # then PROPOSAL_CHUNK (2, d, d) normal draws, each the real and
            # imaginary parts of one step's complex Gaussian (d, d) delta
            nonlocal steps_taken
            row = steps_taken % PROPOSAL_CHUNK
            steps_taken += 1
            if row == 0:
                for r in live.tolist():
                    ks[r] = rngs[r].integers(points, size=PROPOSAL_CHUNK)
                    rngs[r].standard_normal(out=z[r])
            dz = z[live, row]
            return _lsi_move(s, live, ks[live, row],
                             step[:, None, None] * (dz[:, 0] + 1j * dz[:, 1]))

        starts = np.stack([start_table(rng, r % 3) for r, rng in enumerate(rngs, first)])
        # the block's start tables, scored whole
        start_values = _lsi_objective(_table_of(starts), n)
        s = _lsi_state(starts, n)
        values = climb(start_values, propose, partial(_lsi_score, s), partial(_lsi_accept, s),
                       LSI_STEP0, 1e-7, steps, 0.5, grow=2.0)
        # the first maximum, as a strict > scan in restart order keeps
        i = int(np.argmax(values))
        if values[i] > best_obj:
            best_obj, best_table = values[i], _table_of(s.g[i])

    f = MatrixBooleanFunction(n, best_table)
    ent = entropy_of_square(f)
    energy = dirichlet_energy_flip(f)
    objective = ent - 2.0 * energy
    return LsiSearchResult(
        found=objective > LSI_THRESHOLD,
        f=f,
        entropy=ent,
        energy=energy,
        objective=objective,
    )

