"""Named check suites over seeded random instances.

Every registry value is a callable ``(name, config) -> CheckReport``:
a ``Sweep`` spec, whose per-trial draw and judge one runner turns into a
seeded sweep, or one of the few one-shot checks. The check's name is
written once, as its registry key. Checks are looked up by name so suite
execution can fan out to worker processes; randomness is always derived
from (config.seed, check name, trial index), which makes reports
independent of the parallelism degree.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import concentration, entropy, fourier, holevo
from .errors import ConfigError, DomainError
from .frechet import MultivariateScalarFunction, _in_turn
from .linalg import eigenvalues, hermitian_part, spectral_map
from .models import FiniteLaw, MatrixInputModel
from .phifun import PhiFunction
from .report import (
    ARTIFACT_VERSION,
    CheckReport,
    SuiteReport,
    judged,
    relative_tol,
    sweep,
)
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
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ConfigError(f"tol must be finite and nonnegative, got {self.tol}")
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


class Run(NamedTuple):
    """What every trial of a sweep check draws with: the generator (None
    when the check uses none), the effective d and n (None when the check
    has no n) and the seed."""

    phi: PhiFunction | None
    d: int
    n: int | None
    seed: int


def _clamp(value: int, bounds: tuple[int, int]) -> int:
    return max(bounds[0], min(value, bounds[1]))


def _given(phi: PhiFunction) -> PhiFunction:
    return phi


def _non_affine(phi: PhiFunction) -> PhiFunction | None:
    # the concavity characterization is undefined for affine generators
    return None if phi.is_affine else phi


def _in_class(phi: PhiFunction) -> PhiFunction:
    return phi if phi.in_entropy_class else PhiFunction.xlogx()


@dataclass(frozen=True)
class Sweep:
    """A seeded sweep check, a draw and a judge that ``report.sweep``
    runs. ``body(rng, trial, run)`` draws the trial's instance, and
    ``judge(phi, *stacks)`` judges blocks of trials at once with the
    check's generator; ``entries(d)`` is the number of complex entries one
    trial's judge holds. Without a ``judge`` the body judges its own
    trial: it returns a ``(gap, tol, witness)`` triple or a CheckReport,
    read as ``(max_gap, tol, None)``, and ``report.judged`` reads it.

    ``d`` and ``n`` are the clamps of config.d and config.n (``n=None``:
    the check has no n). ``generator`` picks the check's Phi from
    config.phi; without one the check uses none, and a rule that returns
    None rejects the generator, so suites skip the check.
    """

    body: Callable[[np.random.Generator, int, Run], object]
    n: tuple[int, int] | None = None
    d: tuple[int, int] = (1, 3)
    generator: Callable[[PhiFunction], PhiFunction | None] | None = None
    judge: Callable | None = None
    entries: Callable[[int], int] = lambda d: d * d

    def applies(self, phi: PhiFunction) -> bool:
        return self.generator is None or self.generator(phi) is not None

    def __call__(self, name: str, config: RunConfig) -> CheckReport:
        phi = None if self.generator is None else self.generator(config.phi_fn)
        if self.generator is not None and phi is None:
            raise DomainError(f"{name} does not apply to the generator {config.phi}")
        n = None if self.n is None else _clamp(config.n, self.n)
        run = Run(phi, _clamp(config.d, self.d), n, config.seed)
        fields = {"phi": None if phi is None else phi.label, "d": run.d, "n": run.n}
        draw = partial(self.body, run=run)
        if self.judge is None:
            draw, judge = partial(_outcome, draw), judged
        else:
            judge = partial(self.judge, phi)
        return sweep(
            name, draw, judge, config.trials, config.seed, tol=config.tol,
            entries=self.entries(run.d), **fields,
        )


def _outcome(body, rng, trial) -> tuple:
    """The (gap, tol, witness) of a body that judges its own trial."""
    outcome = body(rng, trial)
    if isinstance(outcome, CheckReport):
        return outcome.max_gap, outcome.tol, None
    return outcome


# ---------------------------------------------------------------- entropy
# Stacked sweeps: each body draws its trial's instance, in the order the
# per-trial checks of ``entropy`` read the stream, and the judge evaluates
# a block of trials at once.

def _bregman_draw(rng, trial, run):
    return entropy.convexity_draw(entropy.bregman_pair_sampler(run.d)(rng), rng)


def _bregman(index: int):
    """Joint-convexity judge of the index-th trace map of ``bregman_maps``."""

    def judge(phi, pairs, weight):
        return entropy.convexity_judge(
            lambda u, v: entropy._bregman_values(phi, u, v)[index], pairs, weight
        )

    return Sweep(_bregman_draw, generator=_given, judge=judge, entries=lambda d: 8 * d * d)


def _char_e_draw(rng, trial, run):
    a = random_pd(rng, run.d, floor=0.3)
    return a, random_unit_hermitian(rng, run.d), random_unit_hermitian(rng, run.d)


def _char_f_draw(rng, trial, run):
    # the f_t weight, then (u1, v1), (u2, v2) as four random_pd(rng, d, 0.05) read them
    t = float(rng.uniform(0.05, 0.95))
    pairs = random_psd(rng, run.d, (2, 2)) + 0.05 * np.eye(run.d)
    return (t, *entropy.convexity_draw(pairs, rng))


def _char_f_judge(phi, f_weight, pairs, weight):
    """Joint convexity of f_t(u, v) = t tr Phi(u) + (1 - t) tr Phi(v) -
    tr Phi(t u + (1 - t) v), with each trial's own t."""
    scalar, t = phi.scalar(), f_weight[:, None]

    def f_t(u, v):
        mixed = entropy._mix(t[..., None, None], u, v)
        w = _in_turn(scalar.admit, eigenvalues(np.stack([u, v, mixed], axis=-3)), 2)
        traces = scalar.fn(w).sum(axis=-1)
        return entropy._mix(t, traces[..., 0], traces[..., 1]) - traces[..., 2]

    gap, tol, witness = entropy.convexity_judge(f_t, pairs, weight)

    def with_t(trial, probe):
        found = witness(trial, probe)
        return found and {**found, "f_t": float(f_weight[trial])}

    return gap, tol, with_t


def _char_h_draw(rng, trial, run):
    # the coupling, then z1 and z2 as two draws of three values read them
    probs = random_probability_vector(rng, 3)
    return probs, random_psd(rng, run.d, (2, 3)), float(rng.uniform())


def _char_i_draw(rng, trial, run):
    probs = random_probability_vector(rng, 3)
    z, t = random_psd(rng, run.d, (2, 3))
    return probs, z, t + 0.05 * np.eye(run.d)


def _product_model(rng, run, psd=True):
    return random_product_model(rng, run.d, run.n, arity=2, psd=psd)


def _model_draw(rng, trial, run):
    return _product_model(rng, run).arrays


# ----------------------------------------------------------- efron-stein

def _efron_stein_forms(rng, trial, run):
    forms = concentration.efron_stein_forms(_product_model(rng, run, psd=False))
    return (*concentration.forms_gap(forms), None)


# --------------------------------------------------------------- poincare

def _contraction(rng, d):
    a = random_psd(rng, d)
    top = float(eigenvalues(a)[-1])
    return a / (top + float(rng.uniform(0.1, 1.0)))


def _two_point_matrix_law(rng, d):
    return FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, d), _contraction(rng, d)))


def _poincare_linear(rng, trial, run):
    coeffs = rng.uniform(0.3, 1.0, size=run.n)
    laws = tuple(_two_point_matrix_law(rng, run.d) for _ in range(run.n))
    model = MatrixInputModel(
        laws,
        lambda xs: sum(c * x for c, x in zip(coeffs, xs)),
        partial_norm=lambda xs, i: float(coeffs[i]),
    )
    return concentration.check_poincare(model, spot_check_probes=10, seed=run.seed)


def _poincare_square_sum(rng, trial, run):
    laws = tuple(_two_point_matrix_law(rng, run.d) for _ in range(run.n))
    model = MatrixInputModel(
        laws,
        lambda xs: sum(x @ x for x in xs),
        partial_norm=lambda xs, i: 2.0 * float(eigenvalues(xs[i])[-1]),
    )
    return concentration.check_poincare(model, spot_check_probes=10, seed=run.seed)


def _diagonal_law(rng, d):
    diagonals = (np.diag(rng.uniform(0, 1, size=d)).astype(complex) for _ in range(2))
    return FiniteLaw(np.array([0.5, 0.5]), tuple(diagonals))


_SUM_OF_SQUARES = MultivariateScalarFunction(
    n=2,
    fn=lambda x: float(x[0] ** 2 + x[1] ** 2),
    partial=lambda i, x: float(2 * x[i]),
)


def _poincare_commuting(rng, trial, run):
    laws = tuple(_diagonal_law(rng, run.d) for _ in range(run.n))
    return concentration.check_poincare_commuting(laws, _SUM_OF_SQUARES)


# --------------------------------------------------------------- gaussian

def _gue_moments(name: str, config: RunConfig) -> CheckReport:
    draws = min(config.samples, 10000)
    rng = rng_for(config.seed, name, 0)
    scalars = concentration.gue_clt_sample(1, 64, draws, rng)[:, 0, 0].real
    var = float(scalars.var())
    # the [0.95, 1.05] band is calibrated for 1e4 draws; widen for fewer
    var_band = max(0.05, 3.5 * np.sqrt(2.0 / draws))
    ok_var = abs(var - 1.0) <= var_band

    samples3 = concentration.gue_clt_sample(3, 256, draws, rng)
    corr = np.corrcoef([
        samples3[:, 0, 0].real, samples3[:, 0, 1].real, samples3[:, 0, 1].imag,
        samples3[:, 1, 2].real, samples3[:, 2, 2].real,
    ])
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    max_corr = float(np.max(np.abs(off)))
    # 4.07 sigma for each of the 10 pairs: the family-wise rate of one 3.5 sigma pair
    ok_corr = max_corr < max(0.05, 4.07 / np.sqrt(draws))
    return CheckReport(
        check=name,
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


def _gue_ks(name: str, config: RunConfig) -> CheckReport:
    draws = min(config.samples, 10000)
    rng = rng_for(config.seed, name, 0)
    clt = concentration.gue_clt_sample(2, 256, draws, rng)[:, 0, 1].real
    direct = concentration.sample_gue(2, draws, rng)[:, 0, 1].real
    ks = _ks_statistic(clt, direct)
    return CheckReport(
        check=name,
        passed=ks < max(0.05, 2.5 * np.sqrt(2.0 / draws)),
        max_gap=ks,
        d=2,
        seed=config.seed,
        samples=draws,
        details={"ks_distance": ks},
    )


def _gaussian(check, evaluator, n: tuple[int, int], **options):
    """One-shot Monte Carlo check ``check(evaluator, n, samples, seed,
    **options)`` over config.samples draws, with config.n clamped into n."""

    def run(name: str, config: RunConfig) -> CheckReport:
        rep = check(
            evaluator, n=_clamp(config.n, n), samples=config.samples, seed=config.seed,
            **options,
        )
        return replace(rep, check=name)

    return run


_SOBOLEV_BASE = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]], dtype=complex)
_LSI_B0 = np.array([[1.0, 0.2], [0.2, 0.7]], dtype=complex)
_LSI_B1 = np.array([[0.3, 0.1j], [-0.1j, -0.2]], dtype=complex)
_LSI_B2 = np.array([[-0.1, 0.2], [0.2, 0.4]], dtype=complex)


def _stack_native(fn):
    """fn, marked as taking one real point or an (m, n) stack of them with
    the same bits per point: the ``_stacked`` opt-in of ``concentration``."""
    fn._stacked = True
    return fn


_coordinate_sum = _stack_native(lambda x: np.sum(x, axis=-1))
_unit_partial = _stack_native(lambda x, i: np.ones(np.shape(x)[:-1]))
# libm pow, which the scalar x[0] ** 2 calls; an array's ** 2 multiplies
_first_square = _stack_native(lambda x: np.float_power(x[..., 0], 2))
_first_square_partial = _stack_native(lambda x, i: 2.0 * x[..., 0])
_sobolev_exp = _stack_native(lambda x: np.exp(x[..., 0] / 4.0)[..., None, None] * _SOBOLEV_BASE)


@_stack_native
def _clipped_poly(x):
    # a real combination of Hermitian constants is exactly Hermitian
    x = np.asarray(x)[..., None, None]
    m = _LSI_B0 + x[..., 0, :, :] * _LSI_B1 + x[..., 1, :, :] * _LSI_B2
    return hermitian_part(spectral_map(lambda w: np.clip(w, 0.0, None), m)) + 0.2 * np.eye(2)


# ---------------------------------------------------------------- fourier
# Stacked sweeps: a trial draws its raw cube table, then any exponent or noise
# rates; a judge holds some eight tables of the largest n its clamp admits.

def _cube(judge, n_max: int, psd: bool = False, extra=lambda rng, trial: ()) -> Sweep:
    def draw(rng, trial, run):
        return (random_boolean_function(rng, run.n, run.d, psd=psd), *extra(rng, trial))

    return Sweep(draw, n=(0, n_max), judge=judge, entries=lambda d: 8 * 2**n_max * d * d)


def _max_abs(tables):
    return np.abs(tables).max(axis=(-3, -2, -1))


def _round_trip(phi, tables):
    back = hermitian_part(fourier._fwht(fourier._transform(tables)))  # as inverse_fourier's
    return judged(_max_abs(back - tables), relative_tol(1e-12, _max_abs(tables)))


def _dirichlet_identity(rng, trial, run):
    f = fourier.MatrixBooleanFunction(run.n, random_boolean_function(rng, run.n, run.d, psd=False))
    return (*concentration.forms_gap(concentration.dirichlet_energy_forms(f)), None)


def _noise_composition(phi, tables, gamma, delta):
    coeffs = fourier._transform(tables)
    twice = fourier._noise(fourier._noise(coeffs, gamma), delta)
    gap = _max_abs(twice - fourier._noise(coeffs, gamma * delta))
    return judged(gap, relative_tol(1e-12, _max_abs(coeffs)))


# ---------------------------------------------------------------- sobolev

def _exponent_sweep(record, n_max: int, ps: tuple, energy: bool = False) -> Sweep:
    """Sweep of a cube record (given the tables' spectral energy if it takes
    it) whose exponent cycles through ps with the trial index. A block is
    judged one exponent at a time, so that numpy's power meets the scalar a
    lone check gives it, and each witness holds its p."""

    def judge(phi, tables, drawn):
        extra = (fourier._spectral_energy(tables),) if energy else ()
        gap, tol = np.empty(len(drawn)), np.empty(len(drawn))
        for p in set(drawn.tolist()):
            at = drawn == p
            gap[at], tol[at] = record.rule(*record.sides(tables[at], *(x[at] for x in extra), p))
        return judged(gap, tol, [{"p": p} for p in drawn.tolist()])

    return _cube(judge, n_max, True, lambda rng, trial: (ps[trial % len(ps)],))


def _p_variance_limit(rng, trial, run):
    rep = fourier.check_p_variance_limit(random_law(rng, run.d, 2, psd=True, pd_floor=0.2))
    return rep.max_gap, rep.tol, None if rep.passed else {"residuals": rep.details["residuals"]}


# ----------------------------------------------------------------- holevo

def _data_processing(rng, trial, run):
    nx = int(rng.integers(2, 4))
    ny = int(rng.integers(2, 4))
    ens = holevo.random_ensemble(rng, nx, run.d)
    kernel = holevo.MarkovKernel(random_kernel(rng, nx, ny))
    return holevo.check_data_processing(ens, kernel)


def _law_total_variance(rng, trial, run):
    k = 6
    probs = random_probability_vector(rng, k)
    values = random_psd(rng, run.d, (k,))
    labels = [int(rng.integers(0, 3)) for _ in range(k)]
    return holevo.check_law_total_variance(run.phi, probs, values, labels)


def _holevo_dual_path(rng, trial, run):
    ens = holevo.random_ensemble(rng, 3, run.d)
    gap, tol = holevo._dual_path_gap(ens, holevo._chi(ens.probs, ens.states))
    return gap, tol, None


def _average_state(rng, trial, run):
    nx = int(rng.integers(2, 4))
    ens = holevo.random_ensemble(rng, nx, run.d)
    kernel = holevo.MarkovKernel(random_kernel(rng, nx, nx))
    pushed, back = holevo._bayes_inverse(ens.probs, kernel)
    _, drift, tol = holevo._evolution_drift(ens.probs, ens.states, pushed, back)
    return drift, tol, None


def _eta_bounds(name: str, config: RunConfig) -> CheckReport:
    mu = np.array([0.5, 0.5])
    identity = holevo.eta_phi(
        mu, holevo.MarkovKernel.identity(2), d=2, grid_resolution=0.25,
        restarts=2, hill_steps=20, seed=config.seed,
    )
    constant = holevo.eta_phi(
        mu, holevo.MarkovKernel.constant(2, [0.4, 0.6]), d=2, grid_resolution=0.25,
        restarts=2, hill_steps=20, seed=config.seed,
    )
    rng = rng_for(config.seed, name, 0)
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
        check=name,
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


def _functional_sdpi(name: str, config: RunConfig) -> CheckReport:
    """The functional SDPI on qubit ensembles at c = eta_hat + 0.05, with
    eta_hat searched once for the binary symmetric channel."""
    mu = np.array([0.5, 0.5])
    kernel = holevo.MarkovKernel.binary_symmetric(0.1)
    eta = holevo.eta_phi(
        mu, kernel, d=2, grid_resolution=0.1, restarts=5, hill_steps=50,
        seed=config.seed,
    )
    c = min(eta.eta_hat + 0.05, 0.999)

    def body(rng, trial, run):
        states = np.stack([holevo.random_density(rng, run.d) for _ in range(2)])
        return holevo.check_functional_sdpi(mu, kernel, states, c)

    report = Sweep(body, d=(2, 2))(name, config)
    report.details.update(c=c, eta_hat=eta.eta_hat)
    return report


SUITES = {
    "characterizations": {
        "char-a": Sweep(
            lambda rng, trial, run: entropy.char_a_draw(rng, run.d), generator=_non_affine,
            judge=lambda phi, a, b: entropy.char_a_judge(phi.psi(), a, b),
            entries=entropy.char_a_entries,
        ),
        "char-b": _bregman(0),
        "char-c": _bregman(1),
        "char-d": _bregman(2),
        "char-e": Sweep(
            _char_e_draw, generator=_given, judge=entropy.char_e_judge, entries=lambda d: 3 * d**3
        ),
        "char-f": Sweep(
            _char_f_draw, generator=_given, judge=_char_f_judge, entries=lambda d: 12 * d * d
        ),
        "char-g": Sweep(
            _model_draw, n=(2, 2), generator=_given, judge=entropy.CHAR_G.judge,
            entries=lambda d: 6 * d * d,
        ),
        "char-h": Sweep(
            _char_h_draw, generator=_given, judge=entropy.CHAR_H.judge, entries=lambda d: 12 * d * d
        ),
        "char-i": Sweep(
            _char_i_draw, generator=_given, judge=entropy.CHAR_I.judge, entries=lambda d: 8 * d * d
        ),
        "char-j": Sweep(
            _model_draw, n=(1, 3), generator=_given, judge=entropy.SUBADDITIVITY.judge,
            entries=lambda d: 12 * d * d,
        ),
    },
    "efron-stein": {
        "efron-stein": Sweep(
            lambda rng, trial, run: concentration.check_efron_stein(
                _product_model(rng, run, psd=False)
            ),
            n=(1, 3),
        ),
        "efron-stein-forms": Sweep(_efron_stein_forms, n=(1, 3)),
        "plus-identities": Sweep(
            lambda rng, trial, run: concentration.check_plus_identities(
                random_law(rng, run.d, 2, psd=False), 1 + trial % 3
            )
        ),
    },
    "poincare": {
        "poincare-linear": Sweep(_poincare_linear, n=(2, 2)),
        "poincare-square-sum": Sweep(_poincare_square_sum, n=(2, 2)),
        "poincare-commuting": Sweep(_poincare_commuting, n=(2, 2)),
    },
    "gaussian": {
        "gue-moments": _gue_moments,
        "gue-ks": _gue_ks,
        "gaussian-poincare-additive": _gaussian(
            concentration.check_gaussian_poincare, _coordinate_sum, (1, 4),
            partials=_unit_partial,
        ),
        "gaussian-poincare-square": _gaussian(
            concentration.check_gaussian_poincare, _first_square, (1, 1),
            partials=_first_square_partial,
        ),
        "gaussian-sobolev-exp": _gaussian(
            concentration.check_gaussian_sobolev, _sobolev_exp, (2, 2), p=1.5
        ),
        "gaussian-log-sobolev-poly": _gaussian(
            concentration.check_gaussian_logsobolev, _clipped_poly, (2, 2)
        ),
    },
    "fourier": {
        "fourier-round-trip": _cube(_round_trip, 6),
        "parseval": _cube(lambda phi, tables: judged(*fourier._parseval_gap(tables)), 6),
        "dirichlet-identity": Sweep(_dirichlet_identity, n=(0, 5)),
        "noise-composition": _cube(
            _noise_composition, 6, extra=lambda rng, trial: (rng.uniform(0, 1), rng.uniform(0, 1))
        ),
    },
    "sobolev": {
        "bonami-beckner": _exponent_sweep(fourier.BONAMI_BECKNER, 5, (1.0, 1.25, 1.5, 1.75, 2.0)),
        "phi-sobolev": _exponent_sweep(fourier.PHI_SOBOLEV, 4, (1.1, 1.5, 1.9), energy=True),
        "log-sobolev": _cube(
            lambda phi, tables: fourier.LOG_SOBOLEV.judge(tables, fourier._spectral_energy(tables)),
            4, True,
        ),
        "p-variance-limit": Sweep(_p_variance_limit),
    },
    "holevo": {
        "data-processing": Sweep(_data_processing),
        "law-total-variance": Sweep(_law_total_variance, generator=_in_class),
        "holevo-dual-path": Sweep(_holevo_dual_path),
        "average-state": Sweep(_average_state),
        "eta-bounds": _eta_bounds,
        "functional-sdpi": _functional_sdpi,
    },
}
SUITES["all"] = {name: check for suite in SUITES.values() for name, check in suite.items()}
CHECKS = SUITES["all"]

SUITE_ALIASES = {"entropy": "characterizations"}


def _run_check(name: str, config_dict: dict) -> tuple[str, CheckReport, float]:
    """One check's report and its wall time. A given config.tol judges every
    one-shot check as max_gap <= tol, as a sweep judges each of its gaps."""
    config = RunConfig(**config_dict)
    start = time.perf_counter()
    report = CHECKS[name](name, config)
    if config.tol is not None and not isinstance(CHECKS[name], Sweep):
        report = replace(report, passed=report.max_gap <= config.tol, tol=config.tol)
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
    checks = SUITES[suite]
    skipped = [
        name for name, check in checks.items()
        if isinstance(check, Sweep) and not check.applies(config.phi_fn)
    ]
    names = [name for name in checks if name not in skipped]
    reports: list[CheckReport] = []
    wall: dict[str, float] = {}
    workers = min(config.jobs, len(names))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
