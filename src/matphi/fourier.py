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

from .errors import DomainError
from .linalg import (
    eigenvalues,
    hermitian_part,
    normalized_trace,
    psd_power,
    require_hermitian,
    schatten_norm,
    spectral_map,
    tr_xlogx,
)
from .models import DiscreteRandomMatrix, FiniteLaw, ProductModel
from .report import CheckReport
from .sampling import random_complex_gaussian, rng_for

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
        table = np.stack([require_hermitian(m) for m in table])
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
    """In-place-style Walsh-Hadamard butterflies along axis 0."""
    a = a.copy()
    h = 1
    m = a.shape[0]
    while h < m:
        for start in range(0, m, 2 * h):
            top = a[start : start + h].copy()
            bottom = a[start + h : start + 2 * h]
            a[start : start + h] = top + bottom
            a[start + h : start + 2 * h] = top - bottom
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
    dev = float(np.max(np.abs(lhs - rhs)))
    tol = 1e-10 * (1.0 + float(np.max(np.abs(f.table))) ** 2)
    return CheckReport(
        check="parseval",
        passed=dev <= tol,
        max_gap=dev,
        tol=tol,
        d=f.d,
        n=f.n,
    )


def dirichlet_energy_spectral(f: MatrixBooleanFunction) -> float:
    """sum_S |S| tr coeffs(S)^2."""
    coeffs = fourier_transform(f).coeffs
    sizes = _popcounts(f.n)
    total = 0.0
    for s, c in zip(sizes, coeffs):
        total += s * normalized_trace(c @ c)
    return total


# Table kernels shared by the public functions and the LSI search, which
# calls them once per step on a trusted table. Means are written as
# sum / count: the same arithmetic as np.mean without its call overhead.

def _square_entropy(table: np.ndarray) -> float:
    k = table.shape[0]
    f2 = np.einsum("kij,kjl->kil", table, table)
    return float(tr_xlogx(f2).sum() / k) - float(tr_xlogx(f2.sum(axis=0) / k))


def _flip_energy(table: np.ndarray, n: int) -> float:
    k, d = table.shape[:2]
    total = 0.0
    for i in range(n):
        diff = table - table[np.arange(k) ^ (1 << i)]
        total += 0.25 * float(np.einsum("kij,kji->k", diff, diff).real.sum() / k) / d
    return total


def dirichlet_energy_flip(f: MatrixBooleanFunction) -> float:
    """(1/4) tr E sum_i (f(x) - f(x with bit i flipped))^2."""
    return _flip_energy(f.table, f.n)


def uniform_cube_model(f: MatrixBooleanFunction) -> ProductModel:
    """The function as a product model of n fair bits."""
    laws = [FiniteLaw.uniform((0, 1)) for _ in range(f.n)]

    def evaluator(bits):
        idx = 0
        for i, b in enumerate(bits):
            idx |= int(b) << i
        return f.table[idx]

    return ProductModel(tuple(laws), evaluator)


def dirichlet_energy(f: MatrixBooleanFunction) -> float:
    """The Dirichlet energy of f; the spectral and flip forms are exact
    rewritings of the resampling quantity over fair bits, so disagreement
    raises."""
    from .concentration import efron_stein_quantity

    spectral = dirichlet_energy_spectral(f)
    flip = dirichlet_energy_flip(f)
    resampled = efron_stein_quantity(uniform_cube_model(f))
    scale = 1.0 + abs(spectral)
    if abs(spectral - flip) > 1e-10 * scale or abs(spectral - resampled) > 1e-10 * scale:
        raise DomainError(
            f"Dirichlet energy forms disagree: {spectral!r} {flip!r} {resampled!r}"
        )
    return spectral


def check_bonami_beckner(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Hypercontractive coefficient bound
    (sum_S (p-1)^{|S|} ||coeffs(S)||_{*p}^2)^{1/2}
    <= (2^{-n} sum_x ||f(x)||_{*p}^p)^{1/p} for p in [1, 2]."""
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"exponent must lie in [1, 2], got {p}")
    coeffs = fourier_transform(f).coeffs
    sizes = _popcounts(f.n)
    lhs_sq = 0.0
    for s, c in zip(sizes, coeffs):
        lhs_sq += (p - 1.0) ** int(s) * schatten_norm(c, p, normalized=True) ** 2
    lhs = float(np.sqrt(lhs_sq))
    rhs_pow = float(
        np.mean([schatten_norm(m, p, normalized=True) ** p for m in f.table])
    )
    rhs = rhs_pow ** (1.0 / p)
    tol = 1e-10 * (1.0 + lhs + rhs)
    return CheckReport(
        check="bonami-beckner",
        passed=lhs - rhs <= tol,
        max_gap=float(lhs - rhs),
        tol=tol,
        d=f.d,
        n=f.n,
        details={"lhs": lhs, "rhs": rhs, "p": p},
    )


def _require_psd_table(f: MatrixBooleanFunction) -> None:
    if np.any(eigenvalues(f.table)[:, 0] < -1e-9 * f.d):
        raise DomainError("the entropy inequalities need PSD-valued tables")


def entropy_of_square(f: MatrixBooleanFunction) -> float:
    """Ent(f^2) = tr E[f^2 log f^2] - tr[(E f^2) log(E f^2)], natural log,
    zero eigenvalues contributing zero."""
    return _square_entropy(f.table)


def check_phi_sobolev(f: MatrixBooleanFunction, p: float) -> CheckReport:
    """Interpolation entropy bound with generator u^{2/p} on fair bits:
    H(f^p) <= (2-p) E(f) d^{1-2/p} + tr E[f^2] (1 - d^{1-2/p})."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"p must lie in (1, 2), got {p}")
    _require_psd_table(f)
    f2_mean = np.mean(np.einsum("kij,kjl->kil", f.table, f.table), axis=0)
    fp_mean = np.mean(psd_power(f.table, p), axis=0)
    lhs = normalized_trace(f2_mean) - normalized_trace(psd_power(fp_mean, 2.0 / p))
    energy = dirichlet_energy_spectral(f)
    dim_factor = f.d ** (1.0 - 2.0 / p)
    rhs = (2.0 - p) * energy * dim_factor + normalized_trace(f2_mean) * (1.0 - dim_factor)
    tol = 1e-10 * (1.0 + abs(lhs) + abs(rhs))
    return CheckReport(
        check="phi-sobolev",
        passed=lhs - rhs <= tol,
        max_gap=float(lhs - rhs),
        tol=tol,
        d=f.d,
        n=f.n,
        details={"lhs": lhs, "rhs": rhs, "p": p},
    )


def check_log_sobolev(f: MatrixBooleanFunction) -> CheckReport:
    """Defective log-Sobolev bound on fair bits:
    Ent(f^2) <= 2 E(f) + log(d) tr E[f^2]."""
    _require_psd_table(f)
    ent = entropy_of_square(f)
    energy = dirichlet_energy_spectral(f)
    f2_mean = np.mean(np.einsum("kij,kjl->kil", f.table, f.table), axis=0)
    rhs = 2.0 * energy + np.log(f.d) * normalized_trace(f2_mean)
    tol = 1e-10 * (1.0 + abs(ent) + abs(rhs))
    return CheckReport(
        check="log-sobolev",
        passed=ent - rhs <= tol,
        max_gap=float(ent - rhs),
        tol=tol,
        d=f.d,
        n=f.n,
        details={"entropy": ent, "energy": energy, "rhs": rhs},
    )


def p_variance(law: DiscreteRandomMatrix, p: float) -> np.ndarray:
    """Matrix-valued p-variance E[Z^2] - (E[Z^p])^{2/p}."""
    second = law.expect(lambda v: v @ v)
    p_mean = law.expect(lambda v: psd_power(v, p))
    return hermitian_part(second - psd_power(p_mean, 2.0 / p))


def check_p_variance_limit(law: DiscreteRandomMatrix) -> CheckReport:
    """Richardson-extrapolated Var_p / (2 - p) against its closed-form
    limit (1/2) E[Z^2 log Z^2] - (1/2) E[Z^2] log E[Z^2], with residuals
    required to shrink linearly in 2 - p."""
    if np.any(eigenvalues(law.values)[:, 0] <= 1e-13):
        raise DomainError("p-variance limit needs strictly positive support values")

    second = law.expect(lambda v: v @ v)
    limit = hermitian_part(
        0.5 * law.expect(lambda v: (v @ v) @ spectral_map(np.log, hermitian_part(v @ v)))
        - 0.5 * second @ spectral_map(np.log, hermitian_part(second))
    )
    scaled = [p_variance(law, p) / (2.0 - p) for p in P_VARIANCE_PS]
    eps = np.array([2.0 - p for p in P_VARIANCE_PS])
    extrapolated = scaled[-1] + (scaled[-1] - scaled[-2]) * (
        eps[-1] / (eps[-2] - eps[-1])
    )
    dev = float(np.linalg.norm(extrapolated - limit))
    residuals = np.array([float(np.linalg.norm(s - limit)) for s in scaled])
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
            "residuals": [float(r) for r in residuals],
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


def _lsi_objective(table: np.ndarray, n: int) -> float:
    """Ent(f^2) - 2 E(f) straight from a trusted table."""
    return _square_entropy(table) - 2.0 * _flip_energy(table, n)


def search_lsi_counterexample(
    d: int,
    n: int,
    restarts: int = 20,
    steps: int = 300,
    seed: int = 0,
) -> LsiSearchResult:
    """Random-restart hill climbing on Ent(f^2) - 2 E(f) over PSD-valued
    tables parameterized as G†G per point.

    The tight scalar bound makes the objective nonpositive at d = 1; for
    d >= 2 nearly-aligned low-rank tables violate it, and every candidate
    maximum is re-verified from the raw table before being reported.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    points = 2**n
    best_obj = -np.inf
    best_table = None

    def table_of(g):
        ms = np.einsum("kji,kjl->kil", g.conj(), g)
        ms = ms + 1e-12 * np.eye(d)
        norm = np.sqrt(np.mean(np.einsum("kij,kji->k", ms, ms).real) / d)
        return ms / max(norm, 1e-30)

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

    for restart in range(restarts):
        rng = rng_for(seed, "lsi-search", restart)
        g = start_table(rng, restart % 3)
        current = _lsi_objective(table_of(g), n)
        step = LSI_STEP0
        for _ in range(steps):
            k = int(rng.integers(points))
            proposal = g.copy()
            proposal[k] = g[k] + step * random_complex_gaussian(rng, (d, d))
            cand = _lsi_objective(table_of(proposal), n)
            if cand > current:
                g, current = proposal, cand
                step = min(2.0 * step, LSI_STEP0)
            else:
                step *= 0.5
                if step < 1e-7:
                    break
        if current > best_obj:
            best_obj = current
            best_table = table_of(g)

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

