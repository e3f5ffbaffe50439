"""Named check suites over seeded random instances.

Each check is a top-level function of a RunConfig so suite execution can
fan out to worker processes; randomness is always derived from
(config.seed, check name, trial index), which makes reports independent
of the parallelism degree.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import concentration, entropy, fourier, holevo
from .errors import ConfigError
from .frechet import MultivariateScalarFunction
from .linalg import eigenvalues, normalized_trace, positive_part
from .models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel
from .phifun import PhiFunction
from .report import ARTIFACT_VERSION, CheckReport, SuiteReport, matrix_to_obj, sweep
from .sampling import (
    random_boolean_function,
    random_kernel,
    random_law,
    random_pd,
    random_probability_vector,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    trials: int = 50
    tol: float | None = None
    d: int = 2
    n: int = 3
    phi: str = "xlogx"
    samples: int = 10000
    jobs: int = 1
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.n < 0:
            raise ConfigError("n must be nonnegative")
        if self.samples < concentration.MC_BATCHES:
            raise ConfigError(
                f"samples must be at least {concentration.MC_BATCHES}, the Monte Carlo batch count"
            )
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        PhiFunction.parse(self.phi)

    @property
    def phi_fn(self) -> PhiFunction:
        return PhiFunction.parse(self.phi)

    def to_dict(self) -> dict:
        return asdict(self)


def _entropy_d(config: RunConfig) -> int:
    return max(1, min(config.d, 3))


def _sweep(config, label, body, phi=None):
    """The shared seeded sweep (``report.sweep``) over config.trials, with
    config.tol as the tolerance override."""
    return sweep(
        label, body, config.trials, config.seed, tol=config.tol,
        phi=phi, d=config.d, n=config.n,
    )


# ---------------------------------------------------------------- entropy

def check_char_a(config: RunConfig) -> CheckReport:
    return entropy.check_char_a(
        config.phi_fn, trials=config.trials, d=_entropy_d(config), seed=config.seed,
        tol=config.tol,
    )


def _bregman_component(config: RunConfig, index: int, label: str) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)

    def map_fn(u, v):
        return entropy.bregman_maps(phi, u, v)[index]

    report = entropy.check_joint_convexity(
        map_fn,
        entropy.bregman_pair_sampler(d),
        trials=config.trials,
        seed=config.seed,
        label=label,
        tol=config.tol,
    )
    report.phi = phi.label
    report.d = d
    return report


def check_char_b(config: RunConfig) -> CheckReport:
    return _bregman_component(config, 0, "char-b")


def check_char_c(config: RunConfig) -> CheckReport:
    return _bregman_component(config, 1, "char-c")


def check_char_d(config: RunConfig) -> CheckReport:
    return _bregman_component(config, 2, "char-d")


def check_char_e(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)

    def body(rng, trial):
        a = random_pd(rng, d, floor=0.3)
        h = random_unit_hermitian(rng, d)
        k = random_unit_hermitian(rng, d)
        result = entropy.check_char_e(phi, a, h, k)
        witness = None
        if not result.holds:
            witness = {
                "lhs": result.lhs,
                "rhs": result.rhs,
                "a": matrix_to_obj(a),
                "h": matrix_to_obj(h),
                "k": matrix_to_obj(k),
            }
        return result.rhs - result.lhs, result.tol, witness

    return _sweep(config, "char-e", body, phi=phi.label)


def check_char_f(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)
    scalar = phi.scalar()

    def body(rng, trial):
        t = float(rng.uniform(0.05, 0.95))

        def f_t(u, v):
            mixed = t * u + (1 - t) * v
            return float(
                d
                * normalized_trace(
                    t * scalar.apply(u) + (1 - t) * scalar.apply(v) - scalar.apply(mixed)
                )
            )

        u1, v1 = random_pd(rng, d, 0.05), random_pd(rng, d, 0.05)
        u2, v2 = random_pd(rng, d, 0.05), random_pd(rng, d, 0.05)
        worst = -np.inf
        tol = 0.0
        for s in (0.5, float(rng.uniform(0.05, 0.95))):
            lhs = s * f_t(u1, v1) + (1 - s) * f_t(u2, v2)
            rhs = f_t(s * u1 + (1 - s) * u2, s * v1 + (1 - s) * v2)
            worst = max(worst, rhs - lhs)
            tol = max(tol, 1e-8 * (1.0 + abs(lhs) + abs(rhs)))
        witness = None
        if worst > tol:
            witness = {"t": t, "u1": matrix_to_obj(u1), "v1": matrix_to_obj(v1)}
        return worst, tol, witness

    return _sweep(config, "char-f", body, phi=phi.label)


def check_char_g(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)

    def body(rng, trial):
        return entropy.check_char_g(phi, random_product_model(rng, d, 2, arity=2))

    return _sweep(config, "char-g", body, phi=phi.label)


def check_char_h(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)

    def body(rng, trial):
        probs = random_probability_vector(rng, 3)
        z1 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, d) for _ in range(3)]))
        z2 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, d) for _ in range(3)]))
        t = float(rng.uniform())
        return entropy.check_char_h(phi, z1, z2, t)

    return _sweep(config, "char-h", body, phi=phi.label)


def check_char_i(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)

    def body(rng, trial):
        probs = random_probability_vector(rng, 3)
        z = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, d) for _ in range(3)]))
        t = DiscreteRandomMatrix(
            probs, np.stack([random_pd(rng, d, floor=0.05) for _ in range(3)])
        )
        bound = entropy.duality_lower_bound(phi, z, t)
        h = entropy.phi_entropy(phi, z)
        tol = entropy.entropy_tolerance(bound, h)
        return bound - h, tol, None

    return _sweep(config, "char-i", body, phi=phi.label)


def check_char_j(config: RunConfig) -> CheckReport:
    phi = config.phi_fn
    d = _entropy_d(config)
    n = max(1, min(config.n, 3))

    def body(rng, trial):
        return entropy.check_subadditivity(phi, random_product_model(rng, d, n, arity=2))

    return _sweep(config, "char-j", body, phi=phi.label)


# ----------------------------------------------------------- efron-stein

def check_efron_stein_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = max(1, min(config.n, 3))

    def body(rng, trial):
        model = random_product_model(rng, d, n, arity=2, psd=False)
        return concentration.check_efron_stein(model)

    return _sweep(config, "efron-stein", body)


def check_efron_stein_forms(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = max(1, min(config.n, 3))

    def body(rng, trial):
        model = random_product_model(rng, d, n, arity=2, psd=False)
        forms = concentration.efron_stein_forms(model)
        dev = max(abs(forms[0] - forms[1]), abs(forms[0] - forms[2]))
        return dev, 1e-10 * (1.0 + abs(forms[0])), None

    return _sweep(config, "efron-stein-forms", body)


def check_plus_identities_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)

    def body(rng, trial):
        q = 1 + trial % 3
        return concentration.check_plus_identities(random_law(rng, d, 2, psd=False), q)

    return _sweep(config, "plus-identities", body)


# --------------------------------------------------------------- poincare

def _contraction(rng, d):
    a = random_psd(rng, d)
    top = float(eigenvalues(a)[-1])
    return a / (top + float(rng.uniform(0.1, 1.0)))


def _two_point_matrix_law(rng, d):
    return FiniteLaw(
        np.array([0.5, 0.5]), (_contraction(rng, d), _contraction(rng, d))
    )


def check_poincare_linear(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)

    def body(rng, trial):
        n = 2
        coeffs = rng.uniform(0.3, 1.0, size=n)
        laws = tuple(_two_point_matrix_law(rng, d) for _ in range(n))
        model = MatrixInputModel(
            laws,
            lambda xs: sum(c * x for c, x in zip(coeffs, xs)),
            partial_norm=lambda xs, i: float(coeffs[i]),
        )
        return concentration.check_poincare(model, spot_check_probes=10, seed=config.seed)

    return _sweep(config, "poincare-linear", body)


def check_poincare_square_sum(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)

    def body(rng, trial):
        n = 2
        laws = tuple(_two_point_matrix_law(rng, d) for _ in range(n))
        model = MatrixInputModel(
            laws,
            lambda xs: sum(x @ x for x in xs),
            partial_norm=lambda xs, i: 2.0 * float(eigenvalues(xs[i])[-1]),
        )
        return concentration.check_poincare(model, spot_check_probes=10, seed=config.seed)

    return _sweep(config, "poincare-square-sum", body)


def _diagonal_law(rng, d):
    return FiniteLaw(
        np.array([0.5, 0.5]),
        (
            np.diag(rng.uniform(0, 1, size=d)).astype(complex),
            np.diag(rng.uniform(0, 1, size=d)).astype(complex),
        ),
    )


_SUM_OF_SQUARES = MultivariateScalarFunction(
    n=2,
    fn=lambda x: float(x[0] ** 2 + x[1] ** 2),
    partial=lambda i, x: float(2 * x[i]),
)


def check_poincare_commuting_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)

    def body(rng, trial):
        laws = (_diagonal_law(rng, d), _diagonal_law(rng, d))
        return concentration.check_poincare_commuting(laws, _SUM_OF_SQUARES)

    return _sweep(config, "poincare-commuting", body)


def check_lipschitz_ratio(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    rng = rng_for(config.seed, "lipschitz-ratio", 0)
    f = MultivariateScalarFunction(
        n=2,
        fn=lambda x: float(abs(x[0] - x[1])),
        partial=lambda i, x: float(np.sign(x[i] - x[1 - i])),
    )
    laws = (_diagonal_law(rng, d), _diagonal_law(rng, d))
    result = concentration.lipschitz_report(laws, f)
    finite = np.isfinite(result["ratio"])
    return CheckReport(
        check="lipschitz-ratio",
        passed=bool(finite),
        max_gap=0.0,
        d=d,
        n=2,
        seed=config.seed,
        details=result,
    )


# --------------------------------------------------------------- gaussian

def check_gue_moments(config: RunConfig) -> CheckReport:
    draws = min(config.samples, 10000)
    rng = rng_for(config.seed, "gue-moments", 0)
    scalars = np.array(
        [concentration.gue_clt_sample(1, 64, rng)[0, 0].real for _ in range(draws)]
    )
    var = float(scalars.var())
    # the [0.95, 1.05] band is calibrated for 1e4 draws; widen for fewer
    var_band = max(0.05, 3.5 * np.sqrt(2.0 / draws))
    ok_var = abs(var - 1.0) <= var_band

    chunks = []
    remaining = draws
    while remaining > 0:
        take = min(500, remaining)
        chunk = np.stack(
            [concentration.gue_clt_sample(3, 256, rng) for _ in range(take)]
        )
        chunks.append(chunk)
        remaining -= take
    samples3 = np.concatenate(chunks)
    entries = np.stack(
        [
            samples3[:, 0, 0].real,
            samples3[:, 0, 1].real,
            samples3[:, 0, 1].imag,
            samples3[:, 1, 2].real,
            samples3[:, 2, 2].real,
        ]
    )
    corr = np.corrcoef(entries)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    max_corr = float(np.max(np.abs(off)))
    ok_corr = max_corr < max(0.05, 3.5 / np.sqrt(draws))
    return CheckReport(
        check="gue-moments",
        passed=ok_var and ok_corr,
        max_gap=max(abs(var - 1.0), max_corr),
        d=3,
        seed=config.seed,
        samples=draws,
        details={"scalar_variance": var, "max_cross_correlation": max_corr},
    )


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, exactly
    h / lcm(n_a, n_b) with the integer h found from integer counts."""
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    c_a = np.searchsorted(np.sort(a), pooled, "right")
    c_b = np.searchsorted(np.sort(b), pooled, "right")
    g = math.gcd(n_a, n_b)
    h = int(np.max(np.abs(c_a * n_b - c_b * n_a))) // g
    return h / ((n_a // g) * n_b)


def check_gue_ks(config: RunConfig) -> CheckReport:
    draws = min(config.samples, 10000)
    rng = rng_for(config.seed, "gue-ks", 0)
    clt = np.array(
        [concentration.gue_clt_sample(2, 256, rng)[0, 1].real for _ in range(draws)]
    )
    direct = np.array(
        [concentration.sample_gue(2, rng)[0, 1].real for _ in range(draws)]
    )
    ks = _ks_statistic(clt, direct)
    return CheckReport(
        check="gue-ks",
        passed=ks < max(0.05, 2.5 * np.sqrt(2.0 / draws)),
        max_gap=ks,
        d=2,
        seed=config.seed,
        samples=draws,
        details={"ks_distance": ks},
    )


def check_gaussian_poincare_additive(config: RunConfig) -> CheckReport:
    n = max(1, min(config.n, 4))
    rep = concentration.check_gaussian_poincare(
        lambda x: float(np.sum(x)),
        n=n,
        samples=config.samples,
        seed=config.seed,
        partials=lambda x, i: 1.0,
    )
    rep.check = "gaussian-poincare-additive"
    return rep


def check_gaussian_poincare_square(config: RunConfig) -> CheckReport:
    rep = concentration.check_gaussian_poincare(
        lambda x: float(x[0] ** 2),
        n=1,
        samples=config.samples,
        seed=config.seed,
        partials=lambda x, i: 2.0 * x[0],
    )
    rep.check = "gaussian-poincare-square"
    return rep


_SOBOLEV_BASE = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]], dtype=complex)


def check_gaussian_sobolev_exp(config: RunConfig) -> CheckReport:
    rep = concentration.check_gaussian_sobolev(
        lambda x: float(np.exp(x[0] / 4.0)) * _SOBOLEV_BASE,
        p=1.5,
        n=2,
        samples=config.samples,
        seed=config.seed,
    )
    rep.check = "gaussian-sobolev-exp"
    return rep


_LSI_B0 = np.array([[1.0, 0.2], [0.2, 0.7]], dtype=complex)
_LSI_B1 = np.array([[0.3, 0.1j], [-0.1j, -0.2]], dtype=complex)
_LSI_B2 = np.array([[-0.1, 0.2], [0.2, 0.4]], dtype=complex)


def _clipped_poly(x):
    m = _LSI_B0 + x[0] * _LSI_B1 + x[1] * _LSI_B2
    return positive_part(m) + 0.2 * np.eye(2)


def check_gaussian_logsobolev_poly(config: RunConfig) -> CheckReport:
    rep = concentration.check_gaussian_logsobolev(
        _clipped_poly,
        n=2,
        samples=config.samples,
        seed=config.seed,
    )
    rep.check = "gaussian-log-sobolev-poly"
    return rep


# ---------------------------------------------------------------- fourier

def _random_cube_function(rng, n, d, psd=True):
    return fourier.MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=psd))


def check_fourier_round_trip(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 6)

    def body(rng, trial):
        f = _random_cube_function(rng, n, d, psd=False)
        back = fourier.inverse_fourier(fourier.fourier_transform(f))
        dev = float(np.max(np.abs(back.table - f.table)))
        return dev, 1e-12 * (1.0 + float(np.max(np.abs(f.table)))), None

    return _sweep(config, "fourier-round-trip", body)


def check_parseval_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 6)

    def body(rng, trial):
        return fourier.parseval_check(_random_cube_function(rng, n, d, psd=False))

    return _sweep(config, "parseval", body)


def check_dirichlet_identity(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 5)

    def body(rng, trial):
        f = _random_cube_function(rng, n, d, psd=False)
        spectral = fourier.dirichlet_energy_spectral(f)
        flip = fourier.dirichlet_energy_flip(f)
        resampled = concentration.efron_stein_quantity(fourier.uniform_cube_model(f))
        dev = max(abs(spectral - flip), abs(spectral - resampled))
        return dev, 1e-10 * (1.0 + abs(spectral)), None

    return _sweep(config, "dirichlet-identity", body)


def check_noise_composition(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 6)

    def body(rng, trial):
        f = _random_cube_function(rng, n, d, psd=False)
        table = fourier.fourier_transform(f)
        gamma, delta = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        twice = fourier.noise_operator(fourier.noise_operator(table, gamma), delta)
        once = fourier.noise_operator(table, gamma * delta)
        dev = float(np.max(np.abs(twice.coeffs - once.coeffs)))
        return dev, 1e-12 * (1.0 + float(np.max(np.abs(table.coeffs)))), None

    return _sweep(config, "noise-composition", body)


# ---------------------------------------------------------------- sobolev

def check_bonami_beckner_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 5)
    ps = (1.0, 1.25, 1.5, 1.75, 2.0)

    def body(rng, trial):
        f = _random_cube_function(rng, n, d, psd=True)
        p = ps[trial % len(ps)]
        rep = fourier.check_bonami_beckner(f, p)
        return rep.max_gap, rep.tol, {"p": p} if rep.max_gap > rep.tol else None

    return _sweep(config, "bonami-beckner", body)


def check_phi_sobolev_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 4)
    ps = (1.1, 1.5, 1.9)

    def body(rng, trial):
        f = _random_cube_function(rng, n, d, psd=True)
        p = ps[trial % len(ps)]
        rep = fourier.check_phi_sobolev(f, p)
        return rep.max_gap, rep.tol, {"p": p} if rep.max_gap > rep.tol else None

    return _sweep(config, "phi-sobolev", body)


def check_log_sobolev_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)
    n = min(config.n, 4)

    def body(rng, trial):
        return fourier.check_log_sobolev(_random_cube_function(rng, n, d, psd=True))

    return _sweep(config, "log-sobolev", body)


def check_p_variance_sweep(config: RunConfig) -> CheckReport:
    d = _entropy_d(config)

    def body(rng, trial):
        law = random_law(rng, d, 2, psd=True, pd_floor=0.2)
        rep = fourier.check_p_variance_limit(law)
        # the verdict also needs linear shrink, which max_gap does not show
        return (0.0 if rep.passed else rep.max_gap + 1.0), rep.tol, None

    return _sweep(config, "p-variance-limit", body)


# ----------------------------------------------------------------- holevo

def check_data_processing_sweep(config: RunConfig) -> CheckReport:
    d = min(config.d, 3)

    def body(rng, trial):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        ens = holevo.random_ensemble(rng, nx, d)
        kernel = holevo.MarkovKernel(random_kernel(rng, nx, ny))
        return holevo.check_data_processing(ens, kernel)

    return _sweep(config, "data-processing", body)


def check_law_total_variance_sweep(config: RunConfig) -> CheckReport:
    phi = config.phi_fn if config.phi_fn.in_entropy_class else PhiFunction.xlogx()
    d = _entropy_d(config)

    def body(rng, trial):
        k = 6
        probs = random_probability_vector(rng, k)
        values = np.stack([random_psd(rng, d) for _ in range(k)])
        labels = [int(rng.integers(0, 3)) for _ in range(k)]
        return holevo.check_law_total_variance(phi, probs, values, labels)

    return _sweep(config, "law-total-variance", body, phi=phi.label)


def check_holevo_dual_path(config: RunConfig) -> CheckReport:
    d = min(config.d, 3)

    def body(rng, trial):
        ens = holevo.random_ensemble(rng, 3, d)
        chi = holevo.holevo_chi(ens, cross_check=False)
        dual = ens.d * entropy.phi_entropy(PhiFunction.xlogx(), ens.as_law())
        return abs(chi - dual), 1e-9 * (1.0 + abs(chi)), None

    return _sweep(config, "holevo-dual-path", body)


def check_average_state(config: RunConfig) -> CheckReport:
    d = min(config.d, 3)

    def body(rng, trial):
        nx = int(rng.integers(2, 4))
        ens = holevo.random_ensemble(rng, nx, d)
        kernel = holevo.MarkovKernel(random_kernel(rng, nx, nx))
        out = holevo.evolve_ensemble(ens, kernel)
        drift = float(np.max(np.abs(out.average_state() - ens.average_state())))
        return drift, 1e-12 * (1.0 + d), None

    return _sweep(config, "average-state", body)


def check_eta_bounds(config: RunConfig) -> CheckReport:
    mu = np.array([0.5, 0.5])
    identity = holevo.eta_phi(
        mu, holevo.MarkovKernel.identity(2), d=2, grid_resolution=0.25,
        restarts=2, hill_steps=20, seed=config.seed,
    )
    constant = holevo.eta_phi(
        mu, holevo.MarkovKernel.constant(2, [0.4, 0.6]), d=2, grid_resolution=0.25,
        restarts=2, hill_steps=20, seed=config.seed,
    )
    rng = rng_for(config.seed, "eta-bounds", 0)
    random_k = holevo.MarkovKernel(random_kernel(rng, 2, 2))
    rand = holevo.eta_phi(
        mu, random_k, d=2, grid_resolution=0.25, restarts=3, hill_steps=30,
        seed=config.seed,
    )
    ok = (
        identity.eta_hat == 1.0
        and constant.eta_hat == 0.0
        and 0.0 <= rand.eta_hat <= 1.0 + 1e-9
    )
    return CheckReport(
        check="eta-bounds",
        passed=ok,
        max_gap=abs(identity.eta_hat - 1.0) + constant.eta_hat,
        d=2,
        seed=config.seed,
        details={
            "identity": identity.eta_hat,
            "constant": constant.eta_hat,
            "random": rand.eta_hat,
        },
    )


def check_functional_sdpi_sweep(config: RunConfig) -> CheckReport:
    mu = np.array([0.5, 0.5])
    kernel = holevo.MarkovKernel.binary_symmetric(0.1)
    eta = holevo.eta_phi(
        mu, kernel, d=2, grid_resolution=0.1, restarts=5, hill_steps=50,
        seed=config.seed,
    )
    c = min(eta.eta_hat + 0.05, 0.999)

    def body(rng, trial):
        states = np.stack([holevo.random_density(rng, 2) for _ in range(2)])
        return holevo.check_functional_sdpi(mu, kernel, states, c)

    report = _sweep(config, "functional-sdpi", body)
    report.details["c"] = c
    report.details["eta_hat"] = eta.eta_hat
    return report


SUITES = {
    "characterizations": {
        "char-a": check_char_a,
        "char-b": check_char_b,
        "char-c": check_char_c,
        "char-d": check_char_d,
        "char-e": check_char_e,
        "char-f": check_char_f,
        "char-g": check_char_g,
        "char-h": check_char_h,
        "char-i": check_char_i,
        "char-j": check_char_j,
    },
    "efron-stein": {
        "efron-stein": check_efron_stein_sweep,
        "efron-stein-forms": check_efron_stein_forms,
        "plus-identities": check_plus_identities_sweep,
    },
    "poincare": {
        "poincare-linear": check_poincare_linear,
        "poincare-square-sum": check_poincare_square_sum,
        "poincare-commuting": check_poincare_commuting_sweep,
        "lipschitz-ratio": check_lipschitz_ratio,
    },
    "gaussian": {
        "gue-moments": check_gue_moments,
        "gue-ks": check_gue_ks,
        "gaussian-poincare-additive": check_gaussian_poincare_additive,
        "gaussian-poincare-square": check_gaussian_poincare_square,
        "gaussian-sobolev-exp": check_gaussian_sobolev_exp,
        "gaussian-log-sobolev-poly": check_gaussian_logsobolev_poly,
    },
    "fourier": {
        "fourier-round-trip": check_fourier_round_trip,
        "parseval": check_parseval_sweep,
        "dirichlet-identity": check_dirichlet_identity,
        "noise-composition": check_noise_composition,
    },
    "sobolev": {
        "bonami-beckner": check_bonami_beckner_sweep,
        "phi-sobolev": check_phi_sobolev_sweep,
        "log-sobolev": check_log_sobolev_sweep,
        "p-variance-limit": check_p_variance_sweep,
    },
    "holevo": {
        "data-processing": check_data_processing_sweep,
        "law-total-variance": check_law_total_variance_sweep,
        "holevo-dual-path": check_holevo_dual_path,
        "average-state": check_average_state,
        "eta-bounds": check_eta_bounds,
        "functional-sdpi": check_functional_sdpi_sweep,
    },
}
SUITES["all"] = {name: check for suite in SUITES.values() for name, check in suite.items()}
CHECKS = SUITES["all"]

SUITE_ALIASES = {"entropy": "characterizations"}


def _run_check(name: str, config_dict: dict) -> tuple[str, CheckReport, float]:
    config = RunConfig(**config_dict)
    start = time.perf_counter()
    report = CHECKS[name](config)
    return name, report, time.perf_counter() - start


def validate_suite_config(config: RunConfig, suite: str) -> str:
    suite = SUITE_ALIASES.get(suite, suite)
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES) + sorted(SUITE_ALIASES)}"
        )
    if not config.phi_fn.in_entropy_class and suite not in ("characterizations", "all"):
        raise ConfigError(
            "the cube negative control is only usable in characterization suites"
        )
    return suite


def run_suite(config: RunConfig, suite: str) -> SuiteReport:
    """Execute every check of a suite; reports are sorted by check name
    and independent of the parallelism degree."""
    suite = validate_suite_config(config, suite)
    names = list(SUITES[suite])
    # the concavity characterization (a) is undefined for affine generators
    skipped = [name for name in names if name == "char-a" and config.phi_fn.is_affine]
    names = [name for name in names if name not in skipped]
    reports: list[CheckReport] = []
    wall: dict[str, float] = {}
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_run_check, name, config.to_dict()) for name in names]
            for fut in futures:
                name, report, elapsed = fut.result()
                reports.append(report)
                wall[name] = elapsed
    else:
        for name in names:
            _, report, elapsed = _run_check(name, config.to_dict())
            reports.append(report)
            wall[name] = elapsed
    reports.sort(key=lambda r: r.check)
    return SuiteReport(
        version=ARTIFACT_VERSION,
        config=config.to_dict(),
        reports=reports,
        skipped=skipped,
        wall_clock=wall,
    )
