"""Resampling quantity forms, variance bounds, Gaussian ensembles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import matrix_power

from matphi import concentration, frechet, suites
from matphi.concentration import (
    FD_STEP,
    MC_BATCHES,
    check_efron_stein,
    check_gaussian_logsobolev,
    check_gaussian_poincare,
    check_gaussian_sobolev,
    check_plus_identities,
    check_poincare,
    check_poincare_commuting,
    efron_stein_forms,
    efron_stein_quantity,
    gue_clt_sample,
    sample_gue,
    variance,
)
from matphi.entropy import check_subadditivity, phi_entropy
from matphi.errors import DomainError, MatPhiError, SeparateConvexityViolated
from matphi.fourier import MatrixBooleanFunction, check_log_sobolev, check_phi_sobolev
from matphi.frechet import MultivariateScalarFunction, multivariate_dd_table
from matphi.linalg import hermitian_part, normalized_trace, positive_part
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel, ProductModel
from matphi.phifun import PhiFunction
from matphi.sampling import (
    PSD_EIGEN_FLOOR,
    PSD_NORM_CAP,
    random_boolean_function,
    random_hermitian,
    random_law,
    random_probability_vector,
    random_product_model,
    random_psd,
    rng_for,
)
from matphi.suites import _ks_statistic


def _rademacher_model(n, fn):
    laws = [FiniteLaw.uniform((-1.0, 1.0)) for _ in range(n)]
    return ProductModel.tabulate(laws, lambda xs: np.array([[complex(fn(xs))]]))


def test_efron_stein_constant():
    model = _rademacher_model(2, lambda xs: 3.0)
    assert efron_stein_quantity(model) == pytest.approx(0.0, abs=1e-14)


def test_efron_stein_additive_value_and_equality():
    model = _rademacher_model(2, lambda xs: xs[0] + xs[1])
    assert efron_stein_quantity(model) == pytest.approx(2.0)
    rep = check_efron_stein(model)
    assert rep.passed
    assert rep.details["variance"] == pytest.approx(2.0)


def test_efron_stein_product_value():
    model = _rademacher_model(2, lambda xs: xs[0] * xs[1])
    assert efron_stein_quantity(model) == pytest.approx(2.0)
    assert variance(model.to_law()) == pytest.approx(1.0)


def test_efron_stein_forms_agree_random():
    for trial in range(100):
        rng = rng_for(41, "efron", trial)
        model = random_product_model(rng, 2, 3, arity=2, psd=False)
        f1, f2, f3 = efron_stein_forms(model)
        assert abs(f1 - f2) < 1e-10 * (1 + abs(f1))
        assert abs(f1 - f3) < 1e-10 * (1 + abs(f1))


def _slice_laws(model, i):
    """(weight, law) of each slice of the i-th input, the other inputs
    pinned first input slowest, one table lookup in mixed radix per point."""
    sizes = [law.size for law in model.laws]
    others = [j for j in range(model.n) if j != i]
    for idx in itertools.product(*(range(sizes[j]) for j in others)):
        weight, point = 1.0, [0] * model.n
        for j, k in zip(others, idx):
            weight *= model.laws[j].probs[k]
            point[j] = k
        values = []
        for k in range(sizes[i]):
            point[i] = k
            values.append(model.values[np.ravel_multi_index(point, sizes)])
        yield weight, DiscreteRandomMatrix(model.laws[i].probs, np.stack(values))


def test_efron_stein_forms_match_per_pair_reference():
    # the stacked forms against a per-slice, per-pair loop; the sums run
    # in another order, so they agree to rounding, not bit for bit
    models = [
        random_product_model(rng_for(43, "efron-reference", trial), 1 + trial % 3,
                             1 + trial % 3, arity=3, psd=False)
        for trial in range(6)
    ]
    for d, arities in ((1, (2, 3, 1)), (2, (4, 1, 2)), (3, (2, 3))):
        rng = rng_for(43, "efron-reference-mixed", d)
        laws = [FiniteLaw(random_probability_vector(rng, a), tuple(range(a))) for a in arities]
        models.append(ProductModel(laws, random_hermitian(rng, d, (np.prod(arities),))))
    for model in models:
        ref = np.zeros(3)
        for i in range(model.n):
            for p_minus, law in _slice_laws(model, i):
                for pk, zk in zip(law.probs, law.values):
                    ref[1] += p_minus * pk * normalized_trace(matrix_power(zk - law.mean(), 2))
                    for pl, zl in zip(law.probs, law.values):
                        w = p_minus * pk * pl
                        ref[0] += 0.5 * w * normalized_trace(matrix_power(zk - zl, 2))
                        ref[2] += w * normalized_trace(matrix_power(positive_part(zk - zl), 2))
        assert np.allclose(efron_stein_forms(model), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("skew, agrees", [(0.3e-10, True), (3e-10, False)])
def test_efron_stein_forms_disagreement_raises_and_fails_the_suite(monkeypatch, skew, agrees):
    # one form off by skew (1 + |f0|) against the shared 1e-10 relative tolerance
    forms = concentration.efron_stein_forms

    def skewed(model):
        f0, f1, f2 = forms(model)
        return f0, f1, f2 + skew * (1.0 + abs(f0))

    monkeypatch.setattr(concentration, "efron_stein_forms", skewed)
    model = random_product_model(rng_for(41, "efron-skew", 0), 2, 3, arity=2, psd=False)
    rep = suites.CHECKS["efron-stein-forms"]("efron-stein-forms", suites.RunConfig(trials=3))
    assert rep.passed == agrees
    if agrees:
        assert efron_stein_quantity(model) == forms(model)[0]
    else:
        with pytest.raises(MatPhiError, match="equivalent resampling forms disagree"):
            efron_stein_quantity(model)


def test_efron_stein_sweep():
    for trial in range(200):
        rng = rng_for(41, "efron-sweep", trial)
        model = random_product_model(rng, 2, 3, arity=2, psd=False)
        assert check_efron_stein(model).passed


def test_variance_equals_square_entropy():
    rng = rng_for(41, "efron", 1)
    law = random_law(rng, 3, 4, psd=False)
    assert variance(law) == pytest.approx(
        phi_entropy(PhiFunction.power(2), law), abs=1e-12
    )


def test_plus_identities_constant():
    m = np.eye(2)
    law = DiscreteRandomMatrix(np.array([0.5, 0.5]), np.stack([m, m]))
    rep = check_plus_identities(law, 2)
    assert rep.passed
    assert rep.max_gap < 1e-14


def test_plus_identities_scalar_rademacher():
    law = DiscreteRandomMatrix.from_scalars([(0.5, -1.0), (0.5, 1.0)])
    rep = check_plus_identities(law, 2)
    assert rep.passed
    # halved-square identity: E(X - EX)^2 = 1 equals half of E(X - Y)^2 = 2
    assert rep.details["halved_square"] < 1e-14


def test_plus_identities_random_all_q():
    for trial in range(60):
        rng = rng_for(41, "plus", trial)
        law = random_law(rng, 3, 2, psd=False)
        for q in (1, 2, 3):
            assert check_plus_identities(law, q).passed


def _contraction(rng, d):
    a = random_psd(rng, d)
    return a / (float(np.linalg.eigvalsh(a)[-1]) + 0.3)


def test_poincare_identity_map():
    rng = rng_for(41, "poincare", 0)
    law = FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, 2), _contraction(rng, 2)))
    model = MatrixInputModel(
        (law,), lambda xs: xs[0], partial_norm=lambda xs, i: 1.0
    )
    rep = check_poincare(model, spot_check_probes=20, seed=1)
    assert rep.passed
    assert rep.details["bound"] == pytest.approx(1.0)
    assert rep.details["variance"] <= 1.0


def test_poincare_constant_map():
    rng = rng_for(41, "poincare", 1)
    law = FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, 2), _contraction(rng, 2)))
    model = MatrixInputModel(
        (law,), lambda xs: np.eye(2), partial_norm=lambda xs, i: 0.0
    )
    rep = check_poincare(model, spot_check_probes=0, seed=1)
    assert rep.passed
    assert rep.details["variance"] == pytest.approx(0.0, abs=1e-14)


def test_poincare_scalar_classical():
    # f(x) = sum x_i on {0,1}^n: Var = n/4 <= n
    n = 3
    laws = tuple(
        FiniteLaw(np.array([0.5, 0.5]), (np.zeros((1, 1)), np.ones((1, 1))))
        for _ in range(n)
    )
    model = MatrixInputModel(
        laws, lambda xs: sum(xs), partial_norm=lambda xs, i: 1.0
    )
    rep = check_poincare(model, spot_check_probes=0, seed=1)
    assert rep.passed
    assert rep.details["variance"] == pytest.approx(n / 4)
    assert rep.details["bound"] == pytest.approx(n)


def test_poincare_finite_difference_mode():
    rng = rng_for(41, "poincare", 2)
    laws = tuple(
        FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, 2), _contraction(rng, 2)))
        for _ in range(2)
    )
    model = MatrixInputModel(laws, lambda xs: xs[0] + 0.5 * xs[1])
    rep = check_poincare(model, directions=40, seed=3)
    assert rep.details["rhs_is_lower_bound"]
    assert rep.passed


def test_finite_difference_bounds_keep_their_values():
    # direction draws and central differences, pinned to recorded values
    rng = rng_for(41, "poincare", 2)
    laws = tuple(
        FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, 2), _contraction(rng, 2)))
        for _ in range(2)
    )
    model = MatrixInputModel(laws, lambda xs: xs[0] @ xs[0] + 0.5 * xs[1])
    rep = check_poincare(model, directions=40, spot_check_probes=0, seed=3)
    assert rep.details["rhs_is_lower_bound"]
    assert rep.details["bound"] == pytest.approx(3.7483991690122958, rel=1e-12)
    rep = check_gaussian_poincare(
        lambda xs: xs[0] @ xs[0] + xs[1], n=2, d1=2, samples=200, seed=9, directions=10
    )
    assert rep.details["rhs_is_lower_bound"]
    assert rep.details["bound"] == pytest.approx(11.860136293375923, rel=1e-12)


def test_joint_law_of_valid_inputs_is_valid():
    # each input sums to 1 + 0.9e-12, the joint law to about 1 + 2.7e-12
    law = FiniteLaw(np.array([0.5, 0.5 + 0.9e-12]), (0.2 * np.eye(2), 0.7 * np.eye(2)))
    model = MatrixInputModel((law,) * 3, lambda xs: sum(xs), partial_norm=lambda xs, i: 1.0)
    assert abs(model.to_law().probs.sum() - 1.0) <= 1e-12
    assert check_efron_stein(model).passed
    assert check_subadditivity(PhiFunction.xlogx(), model).passed
    assert check_poincare(model, spot_check_probes=0).passed
    # joints that already sum to 1 within 1e-12 keep their probabilities
    seeded = random_product_model(rng_for(41, "joint", 0), 2, 3, arity=3, psd=True)
    assert np.array_equal(seeded.to_law().probs, [p for p, _ in seeded.iter_joint()])


def test_poincare_spot_check_catches_concave():
    # midpoint spot check rejects a separately concave evaluator
    laws = (
        FiniteLaw(
            np.array([0.5, 0.5]),
            (np.array([[0.0]]), np.array([[1.0]])),
        ),
    )
    model = MatrixInputModel(laws, lambda xs: np.sqrt(xs[0] + 0.01))
    with pytest.raises(SeparateConvexityViolated):
        check_poincare(model, spot_check_probes=200, seed=5)


def test_poincare_commuting_linear_bound():
    # linear f on diagonal inputs: divided-difference tables are all ones
    n = 2
    rng = rng_for(41, "poincare", 3)
    laws = tuple(
        FiniteLaw(
            np.array([0.5, 0.5]),
            (
                np.diag(rng.uniform(0, 1, 2)).astype(complex),
                np.diag(rng.uniform(0, 1, 2)).astype(complex),
            ),
        )
        for _ in range(n)
    )
    f = MultivariateScalarFunction(
        n=n, fn=lambda x: float(np.sum(x)), partial=lambda i, x: 1.0
    )
    rep = check_poincare_commuting(laws, f)
    assert rep.passed
    assert rep.details["bound"] == pytest.approx(n)


def test_poincare_commuting_squares_sweep():
    f = MultivariateScalarFunction(
        n=2,
        fn=lambda x: float(x[0] ** 2 + x[1] ** 2),
        partial=lambda i, x: float(2 * x[i]),
    )
    for trial in range(100):
        rng = rng_for(41, "poincare-comm", trial)
        laws = tuple(
            FiniteLaw(
                np.array([0.5, 0.5]),
                (
                    np.diag(rng.uniform(0, 1, 2)).astype(complex),
                    np.diag(rng.uniform(0, 1, 2)).astype(complex),
                ),
            )
            for _ in range(2)
        )
        assert check_poincare_commuting(laws, f).passed


def test_poincare_commuting_diagonalizes_each_outcome_once(monkeypatch):
    # one eigensystem per joint outcome serves every coordinate's table
    f = MultivariateScalarFunction(
        n=3, fn=lambda x: float(np.sum(x**2)), partial=lambda i, x: float(2 * x[i])
    )
    rng = rng_for(41, "poincare-comm-once", 0)
    laws = tuple(
        FiniteLaw(np.array([0.3, 0.7]), tuple(np.diag(rng.uniform(0, 1, 2)) for _ in range(2)))
        for _ in range(3)
    )
    eigensystem = concentration.commuting_eigensystem
    calls = []
    for module in (concentration, frechet):
        monkeypatch.setattr(
            module, "commuting_eigensystem", lambda xs: calls.append(1) or eigensystem(xs)
        )
    rep = check_poincare_commuting(laws, f)
    assert len(calls) == 8
    bound = 0.0
    for prob, outcome in ProductModel.tabulate(laws, lambda xs: np.zeros((1, 1))).iter_joint():
        lambdas = eigensystem([np.asarray(x, dtype=complex) for x in outcome])[0]
        for i in range(3):
            bound += prob * float(np.max(np.abs(multivariate_dd_table(f, lambdas, i)))) ** 2
    assert rep.details["bound"] == pytest.approx(bound, rel=1e-14)


def test_poincare_bounds_without_inputs_are_zero():
    model = MatrixInputModel((), lambda xs: 0.5 * np.eye(2), partial_norm=lambda xs, i: 1.0)
    assert check_poincare(model).details["bound"] == 0.0
    rep = check_gaussian_poincare(
        lambda x: np.eye(2), n=0, samples=100, partials=lambda x, i: np.eye(2)
    )
    assert rep.passed and rep.details["bound"] == 0.0


@pytest.mark.parametrize(
    "check",
    [
        lambda samples: check_gaussian_poincare(lambda x: 1.0, n=2, samples=samples),
        lambda samples: check_gaussian_sobolev(lambda x: np.eye(2), p=1.5, n=1, samples=samples),
        lambda samples: check_gaussian_logsobolev(lambda x: np.eye(2), n=1, samples=samples),
    ],
    ids=["poincare", "sobolev", "logsobolev"],
)
@pytest.mark.parametrize("samples", [0, 5, MC_BATCHES - 1])
def test_gaussian_checks_refuse_fewer_samples_than_batches(check, samples):
    with pytest.raises(ValueError, match="MC_BATCHES"):
        check(samples)


def test_poincare_commuting_scalar_reduction():
    # at d = 1 the commuting bound is the classical Poincare bound
    laws = tuple(
        FiniteLaw(np.array([0.5, 0.5]), (np.zeros((1, 1)), np.ones((1, 1))))
        for _ in range(2)
    )
    f = MultivariateScalarFunction(
        n=2, fn=lambda x: float(np.sum(x)), partial=lambda i, x: 1.0
    )
    rep = check_poincare_commuting(laws, f)
    assert rep.details["variance"] == pytest.approx(0.5)
    assert rep.details["bound"] == pytest.approx(2.0)


def test_gue_sample_moments():
    rng = rng_for(41, "gue", 0)
    draws = sample_gue(3, 4000, rng)
    assert np.max(np.abs(draws - np.conj(np.transpose(draws, (0, 2, 1))))) < 1e-12
    # diagonal variance 1, off-diagonal complex variance 1
    assert np.var(draws[:, 0, 0].real) == pytest.approx(1.0, abs=0.1)
    assert np.mean(np.abs(draws[:, 0, 1]) ** 2) == pytest.approx(1.0, abs=0.1)


def test_gue_clt_lattice_at_m1():
    rng = rng_for(41, "gue", 1)
    s = gue_clt_sample(2, 1, 1, rng)[0]
    # single-term construction lives on a half-integer lattice
    assert np.allclose(2 * s.real, np.round(2 * s.real), atol=1e-12)
    assert np.allclose(2 * s.imag, np.round(2 * s.imag), atol=1e-12)


def test_gue_clt_scalar_variance():
    rng = rng_for(41, "gue", 2)
    vals = gue_clt_sample(1, 64, 10000, rng)[:, 0, 0].real
    assert 0.95 <= float(vals.var()) <= 1.05


def test_gue_clt_cross_correlations():
    rng = rng_for(41, "gue", 3)
    draws = gue_clt_sample(3, 256, 4000, rng)
    entries = np.stack(
        [
            draws[:, 0, 0].real,
            draws[:, 0, 1].real,
            draws[:, 0, 1].imag,
            draws[:, 1, 2].real,
        ]
    )
    corr = np.corrcoef(entries)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def _sample_gue_per_draw(d, rng):
    """One Gaussian-ensemble draw, as the per-draw sampler made it."""
    diag = rng.standard_normal(d)
    off = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    m = np.zeros((d, d), dtype=complex)
    iu = np.triu_indices(d, k=1)
    m[iu] = off[iu]
    m = m + m.conj().T
    m[np.diag_indices(d)] = diag
    return m


def _gue_clt_per_draw(d, m, rng):
    """One central-limit draw, as the per-draw sampler made it."""
    w = rng.integers(0, 2, size=(m, d, d)) * 2 - 1
    wp = rng.integers(0, 2, size=(m, d, d)) * 2 - 1
    eps = rng.integers(0, 2, size=m) * 2 - 1
    g = w + 1j * wp
    y = 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1))))
    return np.tensordot(eps, y, axes=1) / np.sqrt(m)


# odd and even counts and term numbers, at d = 1, 2 and 3
@pytest.mark.parametrize("d, m, count", [
    (1, 64, 1500), (2, 256, 300), (3, 256, 60), (2, 1, 40), (2, 1, 41), (1, 3, 7),
    (1, 1001, 60),
])
def test_stacked_gue_samplers_keep_the_per_draw_streams(d, m, count):
    want_rng, rng = rng_for(11, "streams", d), rng_for(11, "streams", d)
    want_clt = np.concatenate([gue_clt_sample(d, m, 1, want_rng) for _ in range(count)])
    want_gue = np.stack([_sample_gue_per_draw(d, want_rng) for _ in range(count)])
    # drawn one after the other, so each must also consume exactly its share
    assert np.array_equal(gue_clt_sample(d, m, count, rng), want_clt)
    assert np.array_equal(sample_gue(d, count, rng), want_gue)
    assert np.array_equal(rng.integers(0, 2, 9), want_rng.integers(0, 2, 9))


def _binomial_pmf(trials):
    return np.array([math.comb(trials, k) for k in range(trials + 1)]) / 2.0**trials


def test_gue_clt_sample_has_the_law_of_the_literal_construction():
    # 2 sqrt(m) S00 = 2 (2 Bin(m, 1/2) - m); 2 sqrt(m) Re S01 and Im S01 are
    # 2 Bin(2m, 1/2) - 2m, each a sum of 2m fair signs
    d, m, count = 2, 3, 40_000
    literal_rng, rng = rng_for(5, "clt-law", 0), rng_for(5, "clt-law", 1)
    literal = np.stack([_gue_clt_per_draw(d, m, literal_rng) for _ in range(count)])
    stacked = gue_clt_sample(d, m, count, rng)
    laws = [
        (lambda s: s[:, 0, 0].real, 2 * (2 * np.arange(m + 1) - m), _binomial_pmf(m)),
        (lambda s: s[:, 0, 1].real, 2 * np.arange(2 * m + 1) - 2 * m, _binomial_pmf(2 * m)),
        (lambda s: s[:, 0, 1].imag, 2 * np.arange(2 * m + 1) - 2 * m, _binomial_pmf(2 * m)),
    ]
    for draws in (literal, stacked):
        for entry, support, pmf in laws:
            values = 2 * np.sqrt(m) * entry(draws)
            lattice = np.round(values)
            assert np.max(np.abs(values - lattice)) < 1e-9
            points, counts = np.unique(lattice, return_counts=True)
            assert np.array_equal(points, support)
            freq = counts / count
            assert np.all(np.abs(freq - pmf) <= 5 * np.sqrt(pmf * (1 - pmf) / count))


@pytest.mark.parametrize("d, m, first, count", [(3, 256, 7, 20), (1, 64, 5, 12)])
def test_gue_clt_sample_prefix_is_the_shorter_call(d, m, first, count):
    whole = gue_clt_sample(d, m, count, rng_for(3, "clt-prefix", d))
    assert np.array_equal(whole[:first], gue_clt_sample(d, m, first, rng_for(3, "clt-prefix", d)))


@pytest.mark.parametrize("m", [-1, 0])
def test_gue_clt_sample_rejects_term_counts_outside_exact_float32_sums(m):
    with pytest.raises(ValueError, match="m must be at least 1"):
        gue_clt_sample(2, m, 1, rng_for(0, "clt-m"))


def _hermitian_per_matrix(d, rng):
    """One Hermitian draw, as the per-matrix generators made it."""
    return hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_stacked_hermitian_tables_keep_the_per_matrix_stream(d):
    for n in (0, 1, 3, 6):
        want_rng, rng = rng_for(12, "hermitian-stream", n), rng_for(12, "hermitian-stream", n)
        count = 2**n

        def per_matrix():
            return np.stack([_hermitian_per_matrix(d, want_rng) for _ in range(count)])

        assert np.array_equal(random_hermitian(rng, d), _hermitian_per_matrix(d, want_rng))
        assert np.array_equal(random_boolean_function(rng, n, d, psd=False), per_matrix())
        want_probs = [random_probability_vector(want_rng, 2) for _ in range(n)]
        model = random_product_model(rng, d, n, arity=2, psd=False)
        assert [law.probs.tolist() for law in model.laws] == [p.tolist() for p in want_probs]
        assert np.array_equal(model.to_law().values, per_matrix())
        want_probs = random_probability_vector(want_rng, count)
        law = random_law(rng, d, count, psd=False)
        assert np.array_equal(law.probs, want_probs)
        assert np.array_equal(law.values, per_matrix())
        # each generator consumed exactly its share of the stream
        assert rng.random() == want_rng.random()


def _psd_per_matrix(d, rng):
    """One PSD draw, as the per-matrix generator made it."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = hermitian_part(g.conj().T @ g) + PSD_EIGEN_FLOOR * np.eye(d)
    norm = float(np.linalg.norm(m))
    if norm > PSD_NORM_CAP:
        m = m * (PSD_NORM_CAP / norm) + PSD_EIGEN_FLOOR * np.eye(d)
    return m


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_stacked_psd_tables_keep_the_per_matrix_bits(d):
    # the stack reads one call's stream per matrix, and each matrix above
    # the cap is rescaled by its own norm (most at d >= 3, few at d = 1), so
    # the bytes are the per-matrix ones
    for n in (0, 1, 3, 6):
        want_rng, rng = rng_for(12, "psd-stream", n), rng_for(12, "psd-stream", n)
        count = 2**n

        def per_matrix():
            return np.stack([_psd_per_matrix(d, want_rng) for _ in range(count)])

        assert random_psd(rng, d).tobytes() == _psd_per_matrix(d, want_rng).tobytes()
        table = random_boolean_function(rng, n, d, psd=True)
        assert table.tobytes() == per_matrix().tobytes()
        want_probs = [random_probability_vector(want_rng, 2) for _ in range(n)]
        model = random_product_model(rng, d, n, arity=2, psd=True)
        assert [law.probs.tolist() for law in model.laws] == [p.tolist() for p in want_probs]
        assert model.values.tobytes() == per_matrix().tobytes()
        want_probs = random_probability_vector(want_rng, count)
        law = random_law(rng, d, count, psd=True, pd_floor=0.2)
        assert np.array_equal(law.probs, want_probs)
        assert law.values.tobytes() == (per_matrix() + 0.2 * np.eye(d)).tobytes()
        assert random_psd(rng, d, (2, 3)).tobytes() == np.stack(
            [_psd_per_matrix(d, want_rng) for _ in range(6)]
        ).reshape(2, 3, d, d).tobytes()
        assert rng.random() == want_rng.random()


def _per_draw_points(seed, label, samples, draw):
    """Every batch's inputs, drawn one point per call as the per-draw loop did."""
    points = []
    for b in range(MC_BATCHES):
        rng = rng_for(seed, label, b)
        points += [draw(rng) for _ in range(samples // MC_BATCHES)]
    return points


def _key(x):
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize(
    "check, label, options",
    [
        (check_gaussian_poincare, "gaussian-poincare", {"partials": lambda x, i: 1.0}),
        (check_gaussian_poincare, "gaussian-poincare", {}),
        (check_gaussian_sobolev, "gaussian-sobolev", {"p": 1.5}),
        (check_gaussian_logsobolev, "gaussian-logsobolev", {}),
    ],
)
def test_scalar_gaussian_checks_keep_the_per_draw_inputs(check, label, options):
    n, samples, seed = 2, 70, 13
    seen = []

    def evaluator(x):
        seen.append(_key(x))
        return np.diag([1.0 + np.exp(x[0] / 4.0), 1.0 + x[1] ** 2]).astype(complex)

    check(evaluator, n=n, samples=samples, seed=seed, **options)
    draws = _per_draw_points(seed, label, samples, lambda rng: rng.standard_normal(n))
    want = [np.zeros(n)] + draws
    if "partials" not in options:
        want += [x + s * FD_STEP * e for x in draws for s in (1, -1) for e in np.eye(n)]
    assert sorted(seen) == sorted(_key(x) for x in want)


def test_gaussian_poincare_matrix_inputs_keep_the_per_draw_inputs():
    n, d1, samples, seed = 2, 2, 50, 17
    seen = []

    def evaluator(xs):
        seen.append(_key(xs))
        return xs[0] @ xs[0] + xs[1]

    check_gaussian_poincare(
        evaluator, n=n, d1=d1, samples=samples, seed=seed, partials=lambda xs, i: 1.0
    )
    draws = _per_draw_points(
        seed, "gaussian-poincare", samples,
        lambda rng: [_sample_gue_per_draw(d1, rng) for _ in range(n)],
    )
    assert seen == [_key(x) for x in [np.zeros((n, d1, d1))] + draws]


def test_gaussian_poincare_constant():
    rep = check_gaussian_poincare(lambda x: 1.0, n=2, samples=2000, seed=1)
    assert rep.passed
    assert rep.details["variance"] == pytest.approx(0.0, abs=1e-12)


def test_gaussian_poincare_additive_equality():
    rep = check_gaussian_poincare(
        lambda x: float(np.sum(x)),
        n=3,
        samples=20000,
        seed=2,
        partials=lambda x, i: 1.0,
    )
    assert rep.passed
    assert rep.details["bound"] == pytest.approx(3.0)
    assert rep.details["variance"] == pytest.approx(3.0, rel=0.1)


def test_gaussian_poincare_square():
    rep = check_gaussian_poincare(
        lambda x: float(x[0] ** 2), n=1, samples=20000, seed=3
    )
    assert rep.passed
    assert rep.details["variance"] == pytest.approx(2.0, rel=0.15)
    assert rep.details["bound"] == pytest.approx(4.0, rel=0.15)


def test_gaussian_sobolev_constant():
    base = np.diag([1.0, 0.5]).astype(complex)
    rep = check_gaussian_sobolev(lambda x: base, p=1.5, n=2, samples=2000, seed=4)
    assert rep.passed
    assert rep.details["lhs"] == pytest.approx(0.0, abs=1e-10)


def test_gaussian_sobolev_exponential():
    base = np.array([[1.2, 0.3], [0.3, 0.8]], dtype=complex)
    rep = check_gaussian_sobolev(
        lambda x: float(np.exp(x[0] / 4.0)) * base, p=1.5, n=2, samples=20000, seed=5
    )
    assert rep.passed


@pytest.mark.parametrize(
    "gaussian, boolean",
    [
        (lambda f: check_gaussian_sobolev(f, p=1.5, n=1, samples=100),
         lambda f: check_phi_sobolev(f, 1.5)),
        (lambda f: check_gaussian_logsobolev(f, n=1, samples=100), check_log_sobolev),
    ],
    ids=["sobolev", "logsobolev"],
)
def test_gaussian_sobolev_checks_refuse_non_psd_values_as_their_boolean_twins(gaussian, boolean):
    with pytest.raises(DomainError):
        boolean(MatrixBooleanFunction.constant(1, -np.eye(2)))
    with pytest.raises(DomainError):
        gaussian(lambda x: -np.eye(2))


def test_gaussian_sobolev_refuses_p_outside_the_open_interval():
    with pytest.raises(DomainError, match="p must lie in"):
        check_gaussian_sobolev(lambda x: np.eye(2), p=2.5, n=1, samples=100)


def test_gaussian_logsobolev_constant():
    base = np.diag([1.0, 0.5]).astype(complex)
    rep = check_gaussian_logsobolev(lambda x: base, n=1, samples=2000, seed=6)
    assert rep.passed


def _per_point(fn):
    """fn without the stack opt-in, so the checks call it one point at a time."""
    return lambda *args: fn(*args)


_SCALAR_SOBOLEV_BASE = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]], dtype=complex)


def test_stacked_evaluator_matches_per_point_bits():
    # the suite's stack-native evaluators and partials map whole stacks of
    # points; at the ends of their n clamps, values, energies and reports must
    # equal those from calling them point by point, and the values must also
    # keep the bits of the scalar expressions they replaced
    from matphi import suites

    cases = [
        (check_gaussian_poincare, suites._coordinate_sum, lambda x: float(np.sum(x)), (1, 4),
         {"partials": suites._unit_partial}),
        (check_gaussian_poincare, suites._first_square, lambda x: float(x[0] ** 2), (1,),
         {"partials": suites._first_square_partial}),
        (check_gaussian_sobolev, suites._sobolev_exp,
         lambda x: float(np.exp(x[0] / 4.0)) * _SCALAR_SOBOLEV_BASE, (2,), {"p": 1.5}),
        (check_gaussian_logsobolev, suites._clipped_poly, None, (2,), {}),
    ]
    for check, evaluator, scalar, ns, options in cases:
        looped = {key: _per_point(v) if callable(v) else v for key, v in options.items()}
        for n in ns:
            xs = np.random.default_rng(3).standard_normal((20_000, n)) * 3.0
            values = concentration._values(evaluator, xs)
            for reference in filter(None, (_per_point(evaluator), scalar)):
                want = concentration._values(reference, xs)
                assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
            if "partials" in options:
                energy = concentration._energy(evaluator, xs, n, options["partials"])
                assert np.array_equal(energy, concentration._energy(evaluator, xs, n, looped["partials"]))
            stacked = check(evaluator, n=n, samples=1000, seed=4, **options)
            per_point = check(_per_point(evaluator), n=n, samples=1000, seed=4, **looped)
            assert stacked.to_dict() == per_point.to_dict()
    # a stacked partial whose coordinates differ keeps the (point, coordinate) order
    partial = suites._stack_native(lambda x, i: (i + 1.0) * x[..., i])
    xs = np.random.default_rng(5).standard_normal((50, 3))
    energy = concentration._energy(None, xs, 3, partial)
    assert np.array_equal(energy, concentration._energy(None, xs, 3, _per_point(partial)))


def test_gaussian_logsobolev_classical_equality_family():
    # f = exp(lambda x / 2) achieves equality in the scalar bound
    lam = 0.5
    rep = check_gaussian_logsobolev(
        lambda x: np.array([[np.exp(lam * x[0] / 2.0)]], dtype=complex),
        n=1,
        samples=40000,
        seed=7,
    )
    assert rep.passed
    analytic = 0.5 * lam**2 * np.exp(lam**2 / 2.0)
    assert rep.details["lhs"] == pytest.approx(analytic, rel=0.2)
    assert rep.details["rhs"] == pytest.approx(analytic, rel=0.2)


def test_gaussian_poincare_gue_inputs_trace_map():
    # matrix-ensemble inputs: L(X) = tr(X_1) I has induced derivative
    # norm 1 (maximizer E = I/sqrt(d)) while Var = 1/d
    d1 = 2

    def evaluator(xs):
        return float(np.trace(xs[0]).real / d1) * np.eye(d1)

    rep = check_gaussian_poincare(
        evaluator,
        n=1,
        d1=d1,
        samples=20000,
        seed=9,
        partials=lambda xs, i: 1.0,
    )
    assert rep.passed
    assert rep.details["bound"] == pytest.approx(1.0, abs=1e-12)
    assert rep.details["variance"] == pytest.approx(1.0 / d1, rel=0.15)
    assert not rep.details["rhs_is_lower_bound"]


def test_gaussian_poincare_gue_inputs_fd_directions():
    d1 = 2

    def evaluator(xs):
        return float(np.trace(xs[0]).real / d1) * np.eye(d1)

    rep = check_gaussian_poincare(
        evaluator, n=1, d1=d1, samples=400, seed=9, directions=10
    )
    assert rep.details["rhs_is_lower_bound"]
    # the direction search under-estimates at most the true norm 1
    assert rep.details["bound"] <= 1.0 + 1e-6


def _ks_samples(rng, size):
    """Continuous draws or draws from a few values, so ties occur."""
    if rng.random() < 0.5:
        return rng.standard_normal(size)
    return rng.integers(0, 5, size).astype(float)


def test_ks_statistic_is_exact_fraction():
    rng = rng_for(5, "ks", 0)
    for _ in range(200):
        a = _ks_samples(rng, int(rng.integers(1, 40)))
        b = _ks_samples(rng, int(rng.integers(1, 40)))
        brute = max(
            abs(Fraction(int(np.sum(a <= x)), a.size) - Fraction(int(np.sum(b <= x)), b.size))
            for x in np.concatenate([a, b])
        )
        assert _ks_statistic(a, b) == float(brute)


def test_ks_statistic_matches_scipy_bitwise():
    stats = pytest.importorskip("scipy.stats")
    rng = rng_for(5, "ks", 1)
    sizes = [tuple(rng.integers(1, 400, 2)) for _ in range(300)]
    sizes += [(10, 10), (200, 200), (1000, 1000), (10000, 10000)]
    for n_a, n_b in sizes:
        a, b = _ks_samples(rng, int(n_a)), _ks_samples(rng, int(n_b))
        assert _ks_statistic(a, b) == float(stats.ks_2samp(a, b).statistic)
