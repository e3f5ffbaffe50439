"""Fourier-Walsh analysis of matrix-valued functions on the hypercube.

Functions live on {0,1}^n as dense 2^n tables of Hermitian matrices,
indexed by the integer whose i-th bit is the i-th coordinate. Characters
are chi_S(x) = (-1)^{|S & x|}; transforms run through Walsh-Hadamard
butterflies. The hypercontractive and entropy inequalities below use the
normalized trace and natural logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .models import DiscreteRandomMatrix, FiniteLaw, ProductModel
from .phifun import XLOGX
from .report import CheckReport, relative_tol, verdict
from .sampling import BLOCK_ENTRIES, climb, random_complex_gaussian, rng_for

P_VARIANCE_PS = (1.9, 1.99, 1.999)  # exponents extrapolated toward p = 2
P_VARIANCE_TOL = 1e-4
LSI_STEP0 = 0.1  # largest hill-climbing step of the LSI search
LSI_THRESHOLD = 1e-6  # objective above which a table is a counterexample


def _popcounts(n: int) -> np.ndarray:
    return np.array([bin(s).count("1") for s in range(2**n)])


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

    @classmethod
    def constant(cls, n: int, value: np.ndarray) -> "MatrixBooleanFunction":
        value = np.asarray(value, dtype=complex)
        return cls(n, np.stack([value] * (2**n)))


@dataclass(frozen=True)
class FourierTable:
    """Coefficients indexed by subsets of [n] as bitmasks."""

    n: int
    coeffs: np.ndarray

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterflies along axis 0, one reshaped pass per level."""
    a = a.copy()
    h = 1
    m = a.shape[0]
    while h < m:
        blocks = a.reshape(m // (2 * h), 2, h, *a.shape[1:])
        a = np.stack([blocks[:, 0] + blocks[:, 1], blocks[:, 0] - blocks[:, 1]], axis=1)
        a = a.reshape(m, *a.shape[3:])
        h *= 2
    return a


def fourier_transform(f: MatrixBooleanFunction) -> FourierTable:
    """Coefficient table: 2^{-n} sum_x f(x) chi_S(x)."""
    return FourierTable(f.n, _fwht(f.table) / 2**f.n)


def inverse_fourier(table: FourierTable) -> MatrixBooleanFunction:
    """f(x) = sum_S coeffs(S) chi_S(x); exact round trip with the forward
    transform."""
    return MatrixBooleanFunction(table.n, _fwht(table.coeffs))


def noise_operator(table: FourierTable, gamma: float) -> FourierTable:
    """Scale the S coefficient by gamma^{|S|}."""
    weights = np.asarray(float(gamma) ** _popcounts(table.n), dtype=float)
    return FourierTable(table.n, table.coeffs * weights[:, None, None])


def parseval_check(f: MatrixBooleanFunction) -> CheckReport:
    """E[f(X)^2] = sum_S coeffs(S)^2, entrywise."""
    coeffs = fourier_transform(f).coeffs
    lhs = np.mean(np.einsum("kij,kjl->kil", f.table, f.table), axis=0)
    rhs = np.einsum("kij,kjl->il", coeffs, coeffs)
    return verdict(
        "parseval", float(np.max(np.abs(lhs - rhs))),
        relative_tol(1e-10, float(np.max(np.abs(f.table))) ** 2), d=f.d, n=f.n,
    )


def dirichlet_energy_spectral(f: MatrixBooleanFunction) -> float:
    """sum_S |S| tr coeffs(S)^2."""
    coeffs = fourier_transform(f).coeffs
    traces = np.einsum("kij,kji->k", coeffs, coeffs).real
    return float(_popcounts(f.n) @ traces) / f.d


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


def dirichlet_energy_forms(f: MatrixBooleanFunction) -> tuple[float, float, float]:
    """The spectral, flip and resampling forms of the Dirichlet energy of f:
    exact rewritings of the resampling quantity over fair bits."""
    from .concentration import efron_stein_quantity

    return (dirichlet_energy_spectral(f), dirichlet_energy_flip(f),
            efron_stein_quantity(uniform_cube_model(f)))


def dirichlet_energy(f: MatrixBooleanFunction) -> float:
    """The Dirichlet energy of f; its three forms are cross-checked on every call."""
    from .concentration import agreed_form

    return agreed_form(dirichlet_energy_forms(f), "Dirichlet energy forms")


def check_bonami_beckner(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Hypercontractive coefficient bound
    (sum_S (p-1)^{|S|} ||coeffs(S)||_{*p}^2)^{1/2}
    <= (2^{-n} sum_x ||f(x)||_{*p}^p)^{1/p} for p in [1, 2]."""
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"exponent must lie in [1, 2], got {p}")
    coeffs = fourier_transform(f).coeffs
    weights = (p - 1.0) ** _popcounts(f.n)
    lhs = float(np.sqrt(weights @ schatten_norm(coeffs, p, normalized=True) ** 2))
    rhs = float(np.mean(schatten_norm(f.table, p, normalized=True) ** p)) ** (1.0 / p)
    return verdict(
        "bonami-beckner", lhs - rhs, relative_tol(1e-10, lhs, rhs), d=f.d, n=f.n,
        details={"lhs": lhs, "rhs": rhs, "p": p},
    )


def entropy_of_square(f: MatrixBooleanFunction) -> float:
    """Ent(f^2) = tr E[f^2 log f^2] - tr[(E f^2) log(E f^2)], natural log,
    zero eigenvalues contributing zero."""
    return float(_square_entropy(f.table))


def _phi_sobolev_sides(values: np.ndarray, energy: float, p: float) -> tuple[float, float]:
    """Both sides of H(f^p) <= (2-p) E(f) d^{1-2/p} + tr E[f^2] (1 - d^{1-2/p})
    for a (k, d, d) stack of equally likely values and an energy; p outside
    (1, 2) or a value that is not PSD is a DomainError. The PSD test reads
    the spectra that f^p is taken from."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"p must lie in (1, 2), got {p}")
    f2_mean = np.mean(np.einsum("kij,kjl->kil", values, values), axis=0)
    fp = spectral_map(lambda w: NONNEGATIVE.admit(w) ** p, hermitian_part(values))
    lhs = normalized_trace(f2_mean) - normalized_trace(psd_power(fp.mean(axis=0), 2.0 / p))
    dim_factor = values.shape[-1] ** (1.0 - 2.0 / p)
    return lhs, (2.0 - p) * energy * dim_factor + normalized_trace(f2_mean) * (1.0 - dim_factor)


def _log_sobolev_sides(values: np.ndarray, energy: float) -> tuple[float, float]:
    """Both sides of Ent(f^2) <= 2 E(f) + log(d) tr E[f^2] for a (k, d, d)
    stack of equally likely values and an energy; a value that is not PSD
    is a DomainError."""
    NONNEGATIVE.admit(eigenvalues(values))
    f2_mean = np.mean(np.einsum("kij,kjl->kil", values, values), axis=0)
    rhs = 2.0 * energy + np.log(values.shape[-1]) * normalized_trace(f2_mean)
    return float(_square_entropy(values)), rhs


def check_phi_sobolev(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Interpolation entropy bound with generator u^{2/p} on fair bits:
    H(f^p) <= (2-p) E(f) d^{1-2/p} + tr E[f^2] (1 - d^{1-2/p})."""
    lhs, rhs = _phi_sobolev_sides(f.table, dirichlet_energy_spectral(f), p)
    return verdict(
        "phi-sobolev", lhs - rhs, relative_tol(1e-10, lhs, rhs), d=f.d, n=f.n,
        details={"lhs": lhs, "rhs": rhs, "p": p},
    )


def check_log_sobolev(f: MatrixBooleanFunction) -> CheckReport:
    """Defective log-Sobolev bound on fair bits:
    Ent(f^2) <= 2 E(f) + log(d) tr E[f^2]."""
    energy = dirichlet_energy_spectral(f)
    ent, rhs = _log_sobolev_sides(f.table, energy)
    return verdict(
        "log-sobolev", ent - rhs, relative_tol(1e-10, ent, rhs), d=f.d, n=f.n,
        details={"entropy": ent, "energy": energy, "rhs": rhs},
    )


def p_variance(law: DiscreteRandomMatrix, p: float) -> np.ndarray:
    """Matrix-valued p-variance E[Z^2] - (E[Z^p])^{2/p}."""
    second = law.expect(law.values @ law.values)
    p_mean = law.expect(psd_power(law.values, p))
    return hermitian_part(second - psd_power(p_mean, 2.0 / p))


def check_p_variance_limit(law: DiscreteRandomMatrix) -> CheckReport:
    """Richardson-extrapolated Var_p / (2 - p) against its closed-form
    limit (1/2) E[Z^2 log Z^2] - (1/2) E[Z^2] log E[Z^2], with residuals
    required to shrink linearly in 2 - p."""
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
    shrink_ok = True
    for r_prev, r_next, e_prev, e_next in zip(residuals, residuals[1:], eps, eps[1:]):
        if r_prev < 1e-12:
            continue
        expected = e_next / e_prev
        if r_next / r_prev > 3.0 * expected:
            shrink_ok = False
    return CheckReport(
        check="p-variance-limit",
        passed=dev < P_VARIANCE_TOL and shrink_ok,
        max_gap=dev,
        tol=P_VARIANCE_TOL,
        d=law.d,
        details={
            "residuals": residuals,
            "linear_shrink": shrink_ok,
        },
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


def _table_of(g: np.ndarray) -> np.ndarray:
    """The PSD tables G†G + 1e-12 I of a (..., 2^n, d, d) stack of
    factors, each scaled to tr E f^2 = 1."""
    d = g.shape[-1]
    ms = np.einsum("...ji,...jl->...il", g.conj(), g) + 1e-12 * np.eye(d)
    norm = np.sqrt(np.mean(np.einsum("...ij,...ji->...", ms, ms).real, axis=-1) / d)
    return ms / np.maximum(norm, 1e-30)[..., None, None, None]


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
    and keeps its own step size and early stop. The restarts climb in
    lock-step (sampling.climb), in blocks of at most BLOCK_ENTRIES table
    entries: each step scores every live restart's proposal in one stacked
    call, bit-identical to running the restarts one after another.

    The tight scalar bound makes the objective nonpositive at d = 1; for
    d >= 2 nearly-aligned low-rank tables violate it, and every candidate
    maximum is re-verified from the raw table before being reported.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    points = 2**n
    best_obj = -np.inf
    best_table = None

    def low_rank(rng):
        return np.outer(
            random_complex_gaussian(rng, (d,)), random_complex_gaussian(rng, (d,))
        ) + 0.05 * random_complex_gaussian(rng, (d, d))

    def start_table(rng, style):
        if d == 1 or style == 0:
            return random_complex_gaussian(rng, (points, d, d))
        if style == 1:
            return np.stack([low_rank(rng) for _ in range(points)])
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
        return np.stack([g1 if (x >> j) & 1 else g0 for x in range(points)])

    block = max(1, BLOCK_ENTRIES // (points * d * d))
    for first in range(0, restarts, block):
        rngs = [rng_for(seed, "lsi-search", r) for r in range(first, min(first + block, restarts))]

        def propose(live, g, step):
            # each restart's stream: the point, then one (2, d, d) normal
            # draw, which reads the same values as random_complex_gaussian's
            # real and imaginary (d, d) draws
            live_rngs = [rngs[r] for r in live.tolist()]
            ks = np.array([rng.integers(points) for rng in live_rngs])
            z = np.array([rng.standard_normal((2, d, d)) for rng in live_rngs])
            g[np.arange(live.size), ks] += step[:, None, None] * (z[:, 0] + 1j * z[:, 1])
            return g

        starts = np.stack([start_table(rng, r % 3) for r, rng in enumerate(rngs, first)])
        g, values = climb(lambda g: _lsi_objective(_table_of(g), n), propose, starts,
                          LSI_STEP0, 1e-7, steps, 0.5, grow=2.0)
        # the first maximum, as a strict > scan in restart order keeps
        i = int(np.argmax(values))
        if values[i] > best_obj:
            best_obj, best_table = values[i], _table_of(g[i])

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

