"""Resampling variance bounds, Poincare-type inequalities, and Gaussian
Monte Carlo checks.

The resampling quantity E(Z) = (1/2) tr E sum_i (Z - Z_i')^2 is computed
by exact enumeration together with its two equivalent forms; the Gaussian
checks are statistical and carry their standard errors in the report.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MatPhiError, SeparateConvexityViolated
from .fourier import (
    MatrixBooleanFunction,
    _log_sobolev_sides,
    _phi_sobolev_sides,
    _require_sobolev_exponent,
    dirichlet_energy_flip,
    dirichlet_energy_spectral,
    uniform_cube_model,
)
from .frechet import MultivariateScalarFunction, commuting_eigensystem, multivariate_dd_table, multivariate_apply
from .linalg import eigenvalues, hermitian_part, normalized_trace, spectral_map
from .models import (
    DiscreteRandomMatrix,
    FiniteLaw,
    MatrixInputModel,
    ProductModel,
    resampling_plan,
    weighted_sum,
)
from .report import CheckReport, Inequality, relative_tol, verdict
from .sampling import rng_for

FORM_AGREEMENT_TOL = 1e-10
MC_BATCHES = 10  # batch means give the Gaussian checks their standard errors
FD_STEP = 1e-5  # central-difference step of the derivative estimates


def variance(law: DiscreteRandomMatrix) -> float:
    """tr[E Z^2 - (E Z)^2]."""
    mean = law.mean()
    return normalized_trace(law.expect(law.values @ law.values) - mean @ mean)


def efron_stein_forms(model: ProductModel) -> tuple[float, float, float]:
    """The three equivalent enumerated forms of the resampling quantity:
    half replacement square, conditional variance, and positive part.
    The model's resampling plan gathers the unordered pair differences
    D = Z_k - Z_l (k < l) of every input's slices as one stack with one
    spectrum call; the ordered pairs (k, l) and (l, k) read (D)_+ and
    (-D)_+ = (D)_- from it. A second gather stacks every input's slices,
    each then centered at its mean in place."""
    plan = resampling_plan(model.sizes)
    d, joint = model.values.shape[-1], model.joint_size
    ends = model.values[plan.ends]
    diff, centered = ends[0] - ends[1], model.values[plan.rows]
    pair_w, center_w = [np.empty(0)], [np.empty(0)]
    for i, (law, weights, (k, l)) in enumerate(zip(model.laws, model.rest_weights, plan.pairs)):
        pair_w.append((weights[:, None] * (law.probs[k] * law.probs[l])).ravel())
        center_w.append((weights[:, None] * law.probs).ravel())
        block = centered[i * joint:(i + 1) * joint].reshape(-1, law.size, d, d)
        block -= hermitian_part(weighted_sum(law.probs, block, 2))[:, None]
    pair_w, center_w = np.concatenate(pair_w), np.concatenate(center_w)
    w = eigenvalues(diff)
    forms = (
        pair_w @ np.einsum("rij,rji->r", diff, diff).real,
        center_w @ np.einsum("rij,rji->r", centered, centered).real,
        pair_w @ np.sum(np.maximum(w, 0.0) ** 2 + np.minimum(w, 0.0) ** 2, axis=-1),
    )
    return tuple(float(x) / d for x in forms)


def forms_gap(forms) -> tuple[float, float]:
    """How far equivalent computed forms of one quantity stray from the
    first, and the tolerance FORM_AGREEMENT_TOL relative to the first."""
    first, *rest = forms
    gaps = [abs(first - form) for form in rest]
    # max passes over a NaN that follows a number; a NaN form is no agreement
    gap = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    return gap, relative_tol(FORM_AGREEMENT_TOL, first)


def agreed_form(forms, what: str) -> float:
    """The first of equivalent forms; their disagreement raises, because it
    can only indicate a bug."""
    gap, tol = forms_gap(forms)
    if not gap <= tol:
        raise MatPhiError(f"{what} disagree: " + " ".join(repr(form) for form in forms))
    return forms[0]


def efron_stein_quantity(model: ProductModel) -> float:
    """E(Z) by exact enumeration; the three equivalent forms are
    cross-checked on every call."""
    return agreed_form(efron_stein_forms(model), "equivalent resampling forms")


def dirichlet_energy_forms(f: MatrixBooleanFunction) -> tuple[float, float, float]:
    """The spectral, flip and resampling forms of the Dirichlet energy of f:
    exact rewritings of the resampling quantity over fair bits."""
    return (dirichlet_energy_spectral(f), dirichlet_energy_flip(f),
            efron_stein_quantity(uniform_cube_model(f)))


def _efron_stein_sides(model: ProductModel) -> tuple[float, float]:
    """Var(Z) and E(Z) by exact enumeration."""
    return variance(model.to_law()), efron_stein_quantity(model)


def check_efron_stein(model: ProductModel) -> CheckReport:
    """Var(Z) <= E(Z) by exact enumeration."""
    return EFRON_STEIN.verdict(model, d=model.to_law().d, n=model.n)


def check_plus_identities(law: DiscreteRandomMatrix, q: int) -> CheckReport:
    """Moment identities splitting |X - E X|^q and |X - Y|^q into their
    positive and negative spectral parts (Y an independent copy), plus the
    halved-square identity; all verified entrywise by enumeration. Three
    spectral decompositions serve them: those of X - E X, of E X - X and
    of the (K, K) stack of pair differences."""
    if q not in (1, 2, 3):
        raise ValueError(f"q must be 1, 2 or 3, got {q}")
    k, d = law.size, law.d
    centered = law.values - law.mean()
    diff = law.values[:, None] - law.values[None, :]
    pair_w = np.outer(law.probs, law.probs).ravel()

    def plus_q(spectra):
        return np.linalg.matrix_power(hermitian_part(spectra), q)

    def abs_and_plus(m):
        # |m|^q through the spectral absolute value, independent of the
        # positive/negative split it is compared against, and (m)_+^q
        abs_q, plus = spectral_map(lambda s: np.stack([np.abs(s) ** q, np.clip(s, 0.0, None)]), m)
        return abs_q, plus_q(plus)

    def paired(m):
        return weighted_sum(pair_w, m.reshape(k * k, d, d), 2)

    abs_c, plus_c = abs_and_plus(centered)
    minus_c = plus_q(spectral_map(lambda s: np.clip(s, 0.0, None), -centered))
    dev1 = float(np.max(np.abs(law.expect(abs_c - (plus_c + minus_c)))))
    # Z_l - Z_k is exactly -(Z_k - Z_l), so (diff)_- is (diff)_+ with its pair axes swapped
    abs_d, plus_d = abs_and_plus(diff)
    half_abs = 0.5 * paired(abs_d)
    dev2 = max(
        float(np.max(np.abs(half_abs - paired(part))))
        for part in (plus_d, plus_d.swapaxes(0, 1))
    )
    sq = 0.5 * paired(diff @ diff)
    dev3 = float(np.max(np.abs(law.expect(centered @ centered) - sq)))

    return verdict(
        "plus-identities", max(dev1, dev2, dev3),
        relative_tol(1e-10, float(np.max(np.abs(law.values))) ** q), d=law.d,
        details={"q": q, "centered": dev1, "paired": dev2, "halved_square": dev3},
    )


def _as_matrix(v, lead: tuple = ()) -> np.ndarray:
    """v as a matrix, or as a stack of them on the leading axes ``lead``;
    scalars become 1 x 1."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*lead, 1, 1) if v.ndim == len(lead) else v


def _takes_stack(fn: Callable, points) -> bool:
    """Whether fn, opted in by a true ``_stacked``, maps the (m, n) array points at once."""
    return getattr(fn, "_stacked", False) and isinstance(points, np.ndarray)


def _values(fn: Callable, points) -> np.ndarray:
    """fn(x) per point as a stack of matrices, in one call when fn takes stacks."""
    if _takes_stack(fn, points):
        return _as_matrix(fn(points), (len(points),))
    return np.stack([_as_matrix(fn(x)) for x in points])


def _energy(evaluator: Callable, points, n: int, partial: Callable | None = None) -> np.ndarray:
    """||D_i f||_2^2 at each of m points and each coordinate i < n, an
    (m, n) array.

    ``partial(x, i)`` gives the exact derivative, or its norm, when
    supplied; a ``_stacked`` partial gives it at all m real points in one
    call. Otherwise the points are an (m, n) stack of reals, and central
    differences of step FD_STEP along their coordinates stand in."""
    if n == 0 or not len(points):
        return np.zeros((len(points), n))
    if partial is not None:
        if _takes_stack(partial, points):
            derivs = np.stack([_as_matrix(partial(points, i), (len(points),)) for i in range(n)], 1)
        else:
            derivs = np.array([_as_matrix(partial(x, i)) for x in points for i in range(n)])
        return np.sum(np.abs(derivs) ** 2, axis=(-2, -1)).reshape(-1, n)
    steps = FD_STEP * np.eye(n)[:, None] * np.array([[1.0], [-1.0]])  # (coordinate, sign, n)
    f = _values(evaluator, (points[:, None, None] + steps).reshape(-1, n))
    f = f.reshape(len(points), n, 2, *f.shape[1:])
    return np.sum(np.abs((f[:, :, 0] - f[:, :, 1]) / (2 * FD_STEP)) ** 2, axis=(-2, -1))


def _spot_check_convexity(
    model: MatrixInputModel, probes: int, rng: np.random.Generator
) -> None:
    """Midpoint probes f((xa + xb) / 2) <= (f(xa) + f(xb)) / 2 in the Loewner
    order, each along one random coordinate at a random support point; one
    spectrum call judges them all, each against its own tolerance, and the
    first failing probe raises."""
    coords, mids, avgs = [], [], []
    for _ in range(probes if model.n else 0):
        i = int(rng.integers(model.n))
        law = model.laws[i]
        if law.size < 2:
            continue
        point = tuple(law_j.outcomes[int(rng.integers(law_j.size))] for law_j in model.laws)
        a_idx, b_idx = rng.choice(law.size, size=2, replace=False)
        xa, xb = law.outcomes[a_idx], law.outcomes[b_idx]

        def at(x):
            return _as_matrix(model.evaluator(point[:i] + (x,) + point[i + 1:]))

        coords.append(i)
        mids.append(at(0.5 * (np.asarray(xa) + np.asarray(xb))))
        avgs.append(0.5 * (at(xa) + at(xb)))
    if not coords:
        return
    avg = np.stack(avgs)
    lam = eigenvalues(hermitian_part(avg - np.stack(mids)))[:, 0]
    bad = ~(lam >= -relative_tol(1e-8, np.abs(avg).max(axis=(-2, -1))))
    if bad.any():
        k = int(np.argmax(bad))
        raise SeparateConvexityViolated(
            f"midpoint probe failed on coordinate {coords[k]} (eigenvalue {lam[k]:.3e})"
        )


def _enumerated_poincare_sides(model: ProductModel, energy: np.ndarray) -> tuple[float, float]:
    """Both sides of Var(Z) <= sum_i E ||D_i Z||_2^2 by exact enumeration, from
    the (K, n) squared derivative norms at the model's outcomes in table order."""
    law = model.to_law()
    terms = law.probs[:, None] * energy  # summed in table order; np.sum pairs
    return variance(law), float(np.cumsum(np.append(0.0, terms))[-1])


# the exact inequalities of this module, each judged by its record
EFRON_STEIN = Inequality("efron-stein", 1e-9, _efron_stein_sides, names=("variance", "bound"))
POINCARE = Inequality("poincare", 1e-8, _enumerated_poincare_sides, names=("variance", "bound"))
POINCARE_COMMUTING = Inequality("poincare-commuting", 1e-8, POINCARE.sides, POINCARE.names)


def check_poincare(
    model: MatrixInputModel,
    spot_check_probes: int = 50,
    seed: int = 0,
) -> CheckReport:
    """Variance against the summed squares of the model's exact
    derivative norms ``partial_norm``, for separately convex evaluators of
    matrix inputs in [0, I]."""
    _spot_check_convexity(model, spot_check_probes, rng_for(seed, "poincare-spot", 0))
    points = [tuple(np.asarray(x, dtype=complex) for x in xs) for _, xs in model.iter_joint()]
    energy = _energy(model.evaluator, points, model.n, model.partial_norm)
    return POINCARE.verdict(model, energy, d=model.to_law().d, n=model.n, seed=seed)


def check_poincare_commuting(
    laws: Sequence[FiniteLaw],
    f: MultivariateScalarFunction,
) -> CheckReport:
    """Poincare bound for multivariate standard functions of commuting
    inputs, using the sup norm of the partial divided-difference tables."""
    sup_norms = []

    def evaluate(xs):
        # the value and the n tables of an outcome share its one eigensystem
        lambdas, u = commuting_eigensystem(xs)
        sup_norms.append(
            [np.max(np.abs(multivariate_dd_table(f, lambdas, i))) for i in range(len(xs))]
        )
        return multivariate_apply(f, lambdas, u)

    model = ProductModel.tabulate(laws, evaluate)
    energy = np.array(sup_norms, dtype=float) ** 2
    return POINCARE_COMMUTING.verdict(model, energy, d=model.to_law().d, n=model.n)


def sample_gue(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d, d) stack of Gaussian-ensemble Hermitian matrices: real
    standard normal on the diagonal, unit-variance complex normal off the
    diagonal. One (count, d + 2 d^2) draw gives each matrix its diagonal,
    then the real and the imaginary part of its off-diagonal block."""
    g = rng.standard_normal((count, d + 2 * d * d))
    re, im = np.moveaxis(g[:, d:].reshape(count, 2, d, d), 1, 0)
    upper = np.triu((re + 1j * im) / np.sqrt(2.0), k=1)
    m = upper + upper.conj().swapaxes(-1, -2)
    m[:, np.arange(d), np.arange(d)] = g[:, :d]
    return m


def gue_clt_sample(d: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d, d) stack of the Rademacher central-limit construction
    converging to the Gaussian ensemble: S = m^{-1/2} sum_j eps_j Y_j with
    Y_j = ((W_j + i W_j') + (W_j + i W_j')†) / 2 for Rademacher W, W'.

    The products eps_j W_j(kl) and eps_j W_j'(kl) are independent fair
    signs, so each entry of A + i B = sum_j eps_j (W_j + i W_j') is a sum
    of m of them, 2 Binomial(m, 1/2) - m, and one binomial draw of shape
    (count, 2, d, d) gives the whole stack in law. Draw k reads its own
    block, so the first c draws of a count-N call equal a count-c call."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    a, b = np.moveaxis(2.0 * rng.binomial(m, 0.5, (count, 2, d, d)) - m, 1, 0)
    s = a + 1j * b
    s += s.conj().swapaxes(-1, -2)  # in place: one complex stack fewer at the peak
    return s / (2.0 * np.sqrt(m))


def _poincare_sides(values: np.ndarray, energy: float) -> tuple[float, float]:
    """Both sides of Var(f) <= E(f) for a (k, d, d) stack of equally likely
    values and an energy."""
    mean = values.mean(axis=0)
    return normalized_trace((values @ values).mean(axis=0) - mean @ mean), energy


def _gaussian_check(
    check: str, label: str, sides: Callable, evaluator: Callable, n: int, samples: int,
    seed: int, partials: Callable | None = None, d1: int = 1,
    names=("lhs", "rhs"), details: dict | None = None,
) -> CheckReport:
    """lhs <= rhs between batch means of ``sides(values, energy)``, read by
    _values and _energy at the samples // MC_BATCHES points that batch b
    draws from rng_for(seed, label, b). The gap lhs - rhs passes within
    six standard errors, se being the two sides' errors added, plus
    1e-12."""
    scalar_inputs = d1 == 1
    if not scalar_inputs and partials is None:
        raise DomainError(f"Gaussian-ensemble inputs (d1 = {d1}) need the exact partials")
    if samples < MC_BATCHES:
        raise ValueError(f"samples must be at least MC_BATCHES = {MC_BATCHES}, got {samples}")
    probe = np.zeros((1, n)) if scalar_inputs else [tuple(np.zeros((n, d1, d1), dtype=complex))]
    d = _values(evaluator, probe).shape[-1]
    count = samples // MC_BATCHES

    def batch(rng):
        if scalar_inputs:
            points = rng.standard_normal((count, n))
        else:
            points = [tuple(x) for x in sample_gue(d1, count * n, rng).reshape(count, n, d1, d1)]
        energy = float(_energy(evaluator, points, n, partials).sum(axis=1).mean())
        return sides(_values(evaluator, points), energy)

    batches = np.array([batch(rng_for(seed, label, b)) for b in range(MC_BATCHES)], dtype=float)
    lhs, rhs = (float(side.mean()) for side in batches.T)
    se = sum(float(side.std(ddof=1) / np.sqrt(len(side))) for side in batches.T)
    return verdict(
        check, lhs - rhs, 6.0 * se + 1e-12, seed=seed,
        samples=count * MC_BATCHES, stderr=se, d=d, n=n,
        details={names[0]: lhs, names[1]: rhs, **(details or {})},
    )


def check_gaussian_poincare(
    evaluator: Callable,
    n: int,
    samples: int = 100_000,
    seed: int = 0,
    partials: Callable | None = None,
    d1: int = 1,
) -> CheckReport:
    """Monte Carlo variance bound Var(L(X)) <= sum_i E ||D_i L||_2^2
    within six standard errors.

    With d1 = 1 the inputs are n independent standard Gaussians and the
    evaluator receives a length-n vector; with d1 > 1 they are n
    independent Gaussian-ensemble matrices passed as a tuple.
    ``partials(x, i)`` gives the i-th derivative, or its norm, at either
    kind of input. Real inputs without it get central differences along
    their coordinates; matrix inputs without it are a DomainError, raised
    before anything is evaluated or drawn."""
    return _gaussian_check(
        "gaussian-poincare", "gaussian-poincare", _poincare_sides, evaluator, n, samples, seed,
        partials, d1, names=("variance", "bound"),
    )


def check_gaussian_sobolev(
    evaluator: Callable[[np.ndarray], np.ndarray],
    p: float,
    n: int,
    samples: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte Carlo interpolation-entropy bound for PSD-valued functions of
    Gaussian inputs with generator u^{2/p}; p outside (1, 2), refused
    before f is evaluated, or a value that is not PSD is a DomainError."""
    _require_sobolev_exponent(p)
    return _gaussian_check(
        "gaussian-sobolev", "gaussian-sobolev",
        lambda values, energy: _phi_sobolev_sides(values, energy, p),
        evaluator, n, samples, seed, details={"p": p},
    )


def check_gaussian_logsobolev(
    evaluator: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte Carlo log-Sobolev bound Ent(f^2) <= 2 sum_i E||D_i f||_2^2
    + log(d) tr E[f^2] for PSD-valued functions of Gaussian inputs; a value
    that is not PSD is a DomainError."""
    return _gaussian_check(
        "gaussian-log-sobolev", "gaussian-logsobolev", _log_sobolev_sides, evaluator, n,
        samples, seed,
    )
