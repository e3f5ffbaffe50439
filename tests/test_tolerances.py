"""Every domain check, deterministic or Monte Carlo, reports the tolerance
it judged its gap against, and passes exactly when the gap is within it."""

import numpy as np
import pytest

from matphi import concentration, fourier
from matphi.concentration import (
    check_efron_stein,
    check_gaussian_logsobolev,
    check_gaussian_poincare,
    check_gaussian_sobolev,
    check_plus_identities,
    check_poincare,
    check_poincare_commuting,
)
from matphi.entropy import check_char_g, check_char_h, check_subadditivity
from matphi.fourier import (
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_p_variance_limit,
    check_phi_sobolev,
    parseval_check,
)
from matphi.frechet import MultivariateScalarFunction
from matphi.holevo import (
    MarkovKernel,
    check_data_processing,
    check_functional_sdpi,
    check_law_total_variance,
    random_ensemble,
)
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel, ProductModel
from matphi.phifun import PhiFunction
from matphi.report import judged, relative_tol, sweep, verdict
from matphi.sampling import (
    random_boolean_function,
    random_density,
    random_hermitian,
    random_kernel,
    random_law,
    random_probability_vector,
    random_product_model,
    random_psd,
    rng_for,
)

XLOGX = PhiFunction.xlogx()
BASE = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])


def _coupled_law(rng, probs):
    return DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in probs]))


def _diagonal_laws(rng):
    return tuple(
        FiniteLaw(
            np.array([0.5, 0.5]),
            tuple(np.diag(rng.uniform(0, 1, 2)).astype(complex) for _ in range(2)),
        )
        for _ in range(2)
    )


def _cube_function(rng, psd):
    return MatrixBooleanFunction(3, random_boolean_function(rng, 3, 2, psd=psd))


def _char_h(rng):
    probs = random_probability_vector(rng, 3)
    return check_char_h(XLOGX, _coupled_law(rng, probs), _coupled_law(rng, probs), 0.4)


def _poincare(rng):
    model = MatrixInputModel(
        _diagonal_laws(rng), lambda xs: xs[0] + xs[1], partial_norm=lambda xs, i: 1.0
    )
    return check_poincare(model, spot_check_probes=5)


def _poincare_commuting(rng):
    squares = MultivariateScalarFunction(
        n=2, fn=lambda x: float(x[0] ** 2 + x[1] ** 2), partial=lambda i, x: float(2 * x[i])
    )
    return check_poincare_commuting(_diagonal_laws(rng), squares)


def _law_total_variance(rng):
    probs = random_probability_vector(rng, 6)
    values = np.stack([random_psd(rng, 2) for _ in range(6)])
    return check_law_total_variance(XLOGX, probs, values, [0, 1, 2, 0, 1, 2])


def _functional_sdpi(rng):
    states = np.stack([random_density(rng, 2) for _ in range(2)])
    return check_functional_sdpi(
        np.array([0.5, 0.5]), MarkovKernel.binary_symmetric(0.1), states, 0.7
    )


CHECKS = {
    "subadditivity": lambda rng: check_subadditivity(XLOGX, random_product_model(rng, 2, 2)),
    "char-g": lambda rng: check_char_g(XLOGX, random_product_model(rng, 2, 2)),
    "char-h": _char_h,
    "efron-stein": lambda rng: check_efron_stein(random_product_model(rng, 2, 2, psd=False)),
    "plus-identities": lambda rng: check_plus_identities(random_law(rng, 2, 3, psd=False), 2),
    "poincare": _poincare,
    "poincare-commuting": _poincare_commuting,
    "parseval": lambda rng: parseval_check(_cube_function(rng, psd=False)),
    "bonami-beckner": lambda rng: check_bonami_beckner(_cube_function(rng, psd=True), 1.5),
    "phi-sobolev": lambda rng: check_phi_sobolev(_cube_function(rng, psd=True), 1.5),
    "log-sobolev": lambda rng: check_log_sobolev(_cube_function(rng, psd=True)),
    "p-variance-limit": lambda rng: check_p_variance_limit(
        random_law(rng, 2, 2, psd=True, pd_floor=0.2)
    ),
    "data-processing": lambda rng: check_data_processing(
        random_ensemble(rng, 3, 2), MarkovKernel(random_kernel(rng, 3, 2))
    ),
    "law-total-variance": _law_total_variance,
    "functional-sdpi": _functional_sdpi,
    "gaussian-poincare": lambda rng: check_gaussian_poincare(
        lambda x: np.sum(x), 3, samples=200, partials=lambda x, i: 1.0
    ),
    "gaussian-sobolev": lambda rng: check_gaussian_sobolev(
        lambda x: np.exp(x[0] / 4.0) * BASE, 1.5, 2, samples=200
    ),
    "gaussian-log-sobolev": lambda rng: check_gaussian_logsobolev(
        lambda x: np.exp(x[0] / 4.0) * BASE, 2, samples=200
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_passed_is_gap_within_reported_tol(name):
    rep = CHECKS[name](rng_for(0, f"verdict-rule-{name}", 0))
    assert isinstance(rep.tol, float) and rep.tol > 0.0
    if name == "p-variance-limit":
        # the limit check also needs its residuals to shrink linearly
        assert not rep.passed or rep.max_gap <= rep.tol
    else:
        assert rep.passed == (rep.max_gap <= rep.tol)


def test_verdict_passes_exactly_at_or_below_tol():
    assert relative_tol(1e-9, -2.0, 3.0) == 1e-9 * 6.0
    assert relative_tol(0.5) == 0.5
    tol = relative_tol(1e-9, 1.0)
    for gap, passed in ((tol, True), (np.nextafter(tol, 1.0), False), (-1.0, True)):
        rep = verdict("rule", gap, tol, d=2)
        assert (rep.passed, rep.max_gap, rep.tol, rep.d) == (passed, gap, tol, 2)


def test_a_nan_gap_fails_a_sweep_as_it_fails_a_verdict():
    assert not verdict("y", np.nan, 1e-9).passed
    rep = sweep("x", lambda rng, t: (np.nan if t == 1 else 0.0, 1e-9, None), judged, 3, 0)
    assert not rep.passed and np.isnan(rep.max_gap)
    assert [v["trial"] for v in rep.violations] == [1]
    # a NaN tolerance is no pass either
    assert not sweep("x", lambda rng, t: (0.0, np.nan, None), judged, 1, 0).passed


# Near-equality instances: each check passes its tight instance, and a
# relative fault far above rounding but far below the instance's slack
# turns the verdict.

@pytest.mark.parametrize("eps, ratio, caught", [
    (0.3, 0.97051, False), (0.1, 0.99667, False), (0.03, 0.99970, True),
])
def test_boolean_log_sobolev_near_equality_catches_a_small_entropy_fault(
    monkeypatch, eps, ratio, caught
):
    f = MatrixBooleanFunction(1, np.array([[[1.0 + eps]], [[1.0 - eps]]]))  # 1 + eps chi_{1}
    rep = check_log_sobolev(f)
    assert rep.passed
    assert rep.details["entropy"] / rep.details["rhs"] == pytest.approx(ratio, abs=5e-6)
    square_entropy = fourier._square_entropy
    monkeypatch.setattr(fourier, "_square_entropy", lambda table: 1.001 * square_entropy(table))
    assert check_log_sobolev(f).passed != caught


def test_efron_stein_is_tight_on_an_additive_function(monkeypatch):
    rng = rng_for(0, "efron-stein-additive", 0)
    a1, a2 = random_hermitian(rng, 2, (3,)), random_hermitian(rng, 2, (2,))
    laws = (FiniteLaw(np.array([0.2, 0.3, 0.5]), (0, 1, 2)), FiniteLaw(np.array([0.6, 0.4]), (0, 1)))
    model = ProductModel.tabulate(laws, lambda xs: a1[xs[0]] + a2[xs[1]])
    rep = check_efron_stein(model)
    assert rep.passed and abs(rep.max_gap) <= 1e-6 * rep.tol
    variance = concentration.variance
    monkeypatch.setattr(concentration, "variance", lambda law: (1.0 + 1e-6) * variance(law))
    assert not check_efron_stein(model).passed


def test_bonami_beckner_is_parseval_at_p_2(monkeypatch):
    f = _cube_function(rng_for(0, "bonami-beckner-p2", 0), psd=False)
    rep = check_bonami_beckner(f, 2.0)
    assert rep.passed and abs(rep.max_gap) <= 1e-5 * rep.tol
    # every coefficient 1 + 1e-6 too large, through the butterflies the sides transform with
    fwht = fourier._fwht
    monkeypatch.setattr(fourier, "_fwht", lambda a: (1.0 + 1e-6) * fwht(a))
    assert not check_bonami_beckner(f, 2.0).passed
