"""Every deterministic domain check reports the tolerance it judged its gap
against, and passes exactly when the gap is within it."""

import numpy as np
import pytest

from matphi.concentration import (
    check_efron_stein,
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
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_boolean_function,
    random_density,
    random_kernel,
    random_law,
    random_probability_vector,
    random_product_model,
    random_psd,
    rng_for,
)

XLOGX = PhiFunction.xlogx()


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
