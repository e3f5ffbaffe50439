"""Resampling variance bounds, Poincare-type inequalities, and Gaussian
Monte Carlo checks.

The resampling quantity E(Z) = (1/2) tr E sum_i (Z - Z_i')^2 is computed
by exact enumeration together with its two equivalent forms; the Gaussian
checks are statistical and carry their standard errors in the report.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import MatPhiError, SeparateConvexityViolated
from .fourier import _log_sobolev_sides, _phi_sobolev_sides
from .frechet import MultivariateScalarFunction, commuting_eigensystem, multivariate_dd_table, multivariate_apply
from .linalg import (
    eigenvalues,
    hermitian_part,
    loewner_leq,
    negative_part,
    normalized_trace,
    positive_part,
    spectral_map,
)
from .models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel, ProductModel
from .report import CheckReport, relative_tol, verdict
from .sampling import random_hermitian, rng_for

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
    All pair differences Z_k - Z_l of an input's slices form one
    (rest, s, s, d, d) stack."""
    forms = np.zeros(3)
    for i in range(model.n):
        weights, probs, values = model.slices(i)
        centered = values - hermitian_part(np.tensordot(probs, values, axes=(0, 1)))[:, None]
        diff = values[:, :, None] - values[:, None, :]
        pair_w = np.outer(probs, probs)
        plus = np.clip(eigenvalues(diff), 0.0, None)
        forms += weights @ np.stack([
            0.5 * np.einsum("kl,rklij,rklji->r", pair_w, diff, diff).real,
            np.einsum("k,rkij,rkji->r", probs, centered, centered).real,
            np.einsum("kl,rkl->r", pair_w, np.sum(plus**2, axis=-1)),
        ], axis=1) / values.shape[-1]
    return tuple(float(x) for x in forms)


def forms_gap(forms) -> tuple[float, float]:
    """How far equivalent computed forms of one quantity stray from the
    first, and the tolerance FORM_AGREEMENT_TOL relative to the first."""
    first, *rest = forms
    return max(abs(first - form) for form in rest), relative_tol(FORM_AGREEMENT_TOL, first)


def agreed_form(forms, what: str) -> float:
    """The first of equivalent forms; their disagreement raises, because it
    can only indicate a bug."""
    gap, tol = forms_gap(forms)
    if gap > tol:
        raise MatPhiError(f"{what} disagree: " + " ".join(repr(form) for form in forms))
    return forms[0]


def efron_stein_quantity(model: ProductModel) -> float:
    """E(Z) by exact enumeration; the three equivalent forms are
    cross-checked on every call."""
    return agreed_form(efron_stein_forms(model), "equivalent resampling forms")


def check_efron_stein(model: ProductModel) -> CheckReport:
    """Var(Z) <= E(Z) by exact enumeration."""
    law = model.to_law()
    var = variance(law)
    bound = efron_stein_quantity(model)
    return verdict(
        "efron-stein", var - bound, relative_tol(1e-9, var, bound), d=law.d, n=model.n,
        details={"variance": var, "bound": bound},
    )


def check_plus_identities(law: DiscreteRandomMatrix, q: int) -> CheckReport:
    """Moment identities splitting |X - E X|^q and |X - Y|^q into their
    positive and negative spectral parts (Y an independent copy), plus the
    halved-square identity; all verified entrywise by enumeration."""
    if q not in (1, 2, 3):
        raise ValueError(f"q must be 1, 2 or 3, got {q}")
    centered = law.values - law.mean()
    diff = law.values[:, None] - law.values[None, :]
    pair_w = np.outer(law.probs, law.probs)

    def abs_q(m):
        # |m|^q through the spectral absolute value, independent of the
        # positive/negative split it is compared against
        return spectral_map(lambda s: np.abs(s) ** q, m)

    def pow_q(part, m):
        return np.linalg.matrix_power(part(m), q)

    split = pow_q(positive_part, centered) + pow_q(negative_part, centered)
    dev1 = float(np.max(np.abs(law.expect(abs_q(centered) - split))))
    half_abs = 0.5 * np.tensordot(pair_w, abs_q(diff), axes=2)
    dev2 = max(
        float(np.max(np.abs(half_abs - np.tensordot(pair_w, pow_q(part, diff), axes=2))))
        for part in (positive_part, negative_part)
    )
    sq = 0.5 * np.tensordot(pair_w, diff @ diff, axes=2)
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


def _unit_directions(rng: np.random.Generator, shape: tuple, d: int) -> np.ndarray:
    """Random Hermitian d x d directions of unit Frobenius norm on the
    leading axes ``shape``, each read as a real then an imaginary block."""
    e = random_hermitian(rng, d, shape)
    return e / np.linalg.norm(e, axis=(-2, -1), keepdims=True)


def _energy(
    evaluator: Callable, points, n: int, partial: Callable | None = None,
    rng: np.random.Generator | None = None, directions: int = 0,
) -> np.ndarray:
    """||D_i f||_2^2 at each of m points and each coordinate i < n, an
    (m, n) array.

    ``partial(x, i)`` gives the exact derivative, or its norm, when
    supplied; a ``_stacked`` partial gives it at all m real points in one
    call. Otherwise central differences of step FD_STEP stand in:
    along the coordinates of an (m, n) stack of real points, or, at
    tuples of matrices, as the largest difference over ``directions``
    unit Hermitian directions drawn from ``rng`` per point and
    coordinate, a lower bound on the induced norm."""
    if n == 0 or not len(points):
        return np.zeros((len(points), n))
    if partial is not None:
        if _takes_stack(partial, points):
            derivs = np.stack([_as_matrix(partial(points, i), (len(points),)) for i in range(n)], 1)
        else:
            derivs = np.array([_as_matrix(partial(x, i)) for x in points for i in range(n)])
        return np.sum(np.abs(derivs) ** 2, axis=(-2, -1)).reshape(-1, n)

    def central(shifted, m):
        # (point, coordinate, direction, sign) values; real points have one direction
        if not len(shifted):
            return np.zeros((m, n))
        f = _values(evaluator, shifted)
        f = f.reshape(m, n, -1, 2, *f.shape[1:])
        sq = np.sum(np.abs((f[:, :, :, 0] - f[:, :, :, 1]) / (2 * FD_STEP)) ** 2, axis=(-2, -1))
        return sq.max(axis=-1)

    if isinstance(points, np.ndarray):
        steps = FD_STEP * np.eye(n)[:, None] * np.array([[1.0], [-1.0]])  # (coordinate, sign, n)
        return central((points[:, None, None] + steps).reshape(-1, n), len(points))
    # matrix tuples one point at a time, so one point's shifts are held at once
    return np.concatenate([central([
        x[:i] + (x[i] + s * FD_STEP * e,) + x[i + 1:]
        for i in range(n)
        for e in _unit_directions(rng, (directions,), x[i].shape[0])
        for s in (1, -1)
    ], 1) for x in points])


def _spot_check_convexity(
    model: MatrixInputModel, probes: int, rng: np.random.Generator
) -> None:
    for _ in range(probes if model.n else 0):
        i = int(rng.integers(model.n))
        law = model.laws[i]
        if law.size < 2:
            continue
        point = tuple(
            law_j.outcomes[int(rng.integers(law_j.size))] for law_j in model.laws
        )
        a_idx, b_idx = rng.choice(law.size, size=2, replace=False)
        xa, xb = law.outcomes[a_idx], law.outcomes[b_idx]

        def at(x):
            return _as_matrix(model.evaluator(point[:i] + (x,) + point[i + 1:]))

        mid_val = at(0.5 * (np.asarray(xa) + np.asarray(xb)))
        avg_val = 0.5 * (at(xa) + at(xb))
        tol = relative_tol(1e-8, float(np.max(np.abs(avg_val))))
        check = loewner_leq(mid_val, avg_val, tol=tol)
        if not check.holds:
            raise SeparateConvexityViolated(
                f"midpoint probe failed on coordinate {i} "
                f"(eigenvalue {check.min_eigenvalue:.3e})"
            )


def _poincare_report(
    check: str, model: ProductModel, energy: np.ndarray, details: dict | None = None,
    **fields,
) -> CheckReport:
    """Var(Z) <= sum_i E ||D_i Z||_2^2 by exact enumeration of the model,
    from the (K, n) squared derivative norms at its outcomes in table order."""
    law = model.to_law()
    var = variance(law)
    terms = law.probs[:, None] * energy
    bound = float(np.cumsum(np.append(0.0, terms))[-1])  # in enumeration order; np.sum pairs
    return verdict(
        check, var - bound, relative_tol(1e-8, var, bound), d=law.d, n=model.n,
        details={"variance": var, "bound": bound, **(details or {})}, **fields,
    )


def check_poincare(
    model: MatrixInputModel,
    directions: int = 200,
    spot_check_probes: int = 50,
    seed: int = 0,
) -> CheckReport:
    """Variance against summed squared derivative norms for separately
    convex evaluators of matrix inputs in [0, I].

    The norms come from the model's ``partial_norm``. A model without one
    gets random-direction finite differences instead; those are lower
    bounds, so the reported right side under-estimates the true bound
    (flagged in the report details)."""
    _spot_check_convexity(model, spot_check_probes, rng_for(seed, "poincare-spot", 0))
    points = [tuple(np.asarray(x, dtype=complex) for x in xs) for _, xs in model.iter_joint()]
    energy = _energy(
        model.evaluator, points, model.n, model.partial_norm,
        rng_for(seed, "poincare-directions", 0), directions,
    )
    return _poincare_report(
        "poincare", model, energy, details={"rhs_is_lower_bound": model.partial_norm is None},
        seed=seed,
    )


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
    return _poincare_report("poincare-commuting", model, np.array(sup_norms, dtype=float) ** 2)


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


def _batch_means(
    check: str, label: str, statistic: Callable, seed: int, samples: int,
    names=("lhs", "rhs"), details: dict | None = None, **fields,
) -> CheckReport:
    """lhs <= rhs between batch means. ``statistic(rng, samples //
    MC_BATCHES)`` gives one batch's (lhs, rhs) with rng = rng_for(seed,
    label, batch), and the gap lhs - rhs passes within three standard
    errors, se (the two sides' errors added) plus rhs * se / |rhs|."""
    if samples < MC_BATCHES:
        raise ValueError(f"samples must be at least MC_BATCHES = {MC_BATCHES}, got {samples}")
    count = samples // MC_BATCHES
    sides = np.array(
        [statistic(rng_for(seed, label, b), count) for b in range(MC_BATCHES)], dtype=float
    ).T
    lhs, rhs = (float(side.mean()) for side in sides)
    se = sum(float(side.std(ddof=1) / np.sqrt(len(side))) for side in sides)
    stderr_rel = se / max(abs(rhs), 1e-30)
    return verdict(
        check, lhs - rhs, 3.0 * (rhs * stderr_rel + se) + 1e-12,
        seed=seed,
        samples=count * MC_BATCHES,
        stderr=se,
        details={names[0]: lhs, names[1]: rhs, **(details or {})},
        **fields,
    )


def check_gaussian_poincare(
    evaluator: Callable,
    n: int,
    samples: int = 100_000,
    seed: int = 0,
    partials: Callable | None = None,
    d1: int = 1,
    directions: int = 20,
) -> CheckReport:
    """Monte Carlo variance bound Var(L(X)) <= sum_i E ||D_i L||_2^2
    within three standard errors.

    With d1 = 1 the inputs are n independent standard Gaussians and the
    evaluator receives a length-n vector; with d1 > 1 they are n
    independent Gaussian-ensemble matrices passed as a tuple.
    ``partials(x, i)`` gives the i-th derivative, or its norm, at either
    kind of input. Without it, central differences stand in: along the
    coordinates of real inputs, or along random directions drawn after
    the batch's inputs at matrix inputs, a lower bound on the right side
    flagged in the report."""
    scalar_inputs = d1 == 1
    probe = np.zeros((1, n)) if scalar_inputs else [tuple(np.zeros((n, d1, d1), dtype=complex))]
    d = _values(evaluator, probe).shape[-1]

    def statistic(rng, count):
        if scalar_inputs:
            points = rng.standard_normal((count, n))
        else:
            points = [tuple(x) for x in sample_gue(d1, count * n, rng).reshape(count, n, d1, d1)]
        energy = _energy(evaluator, points, n, partials, rng, directions)
        z = _values(evaluator, points)
        mean = z.mean(axis=0)
        var = normalized_trace((z @ z).mean(axis=0) - mean @ mean)
        return var, float(energy.sum(axis=1).mean())

    return _batch_means(
        "gaussian-poincare", "gaussian-poincare", statistic, seed, samples,
        names=("variance", "bound"),
        details={"rhs_is_lower_bound": d1 > 1 and partials is None},
        d=d, n=n,
    )


def check_gaussian_sobolev(
    evaluator: Callable[[np.ndarray], np.ndarray],
    p: float,
    n: int,
    samples: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte Carlo interpolation-entropy bound for PSD-valued functions of
    Gaussian inputs with generator u^{2/p}; p outside (1, 2) or a value
    that is not PSD is a DomainError."""

    def statistic(rng, count):
        xs = rng.standard_normal((count, n))
        energy = float(_energy(evaluator, xs, n).sum(axis=1).mean())
        return _phi_sobolev_sides(_values(evaluator, xs), energy, p)

    return _batch_means(
        "gaussian-sobolev", "gaussian-sobolev", statistic, seed, samples,
        details={"p": p}, d=_values(evaluator, np.zeros((1, n))).shape[-1], n=n,
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

    def statistic(rng, count):
        xs = rng.standard_normal((count, n))
        energy = float(_energy(evaluator, xs, n).sum(axis=1).mean())
        return _log_sobolev_sides(_values(evaluator, xs), energy)

    return _batch_means(
        "gaussian-log-sobolev", "gaussian-logsobolev", statistic, seed, samples,
        d=_values(evaluator, np.zeros((1, n))).shape[-1], n=n,
    )
