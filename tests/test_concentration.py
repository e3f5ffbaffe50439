"""Resampling quantity forms, variance bounds, Gaussian ensembles."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import matrix_power

from matphi import concentration, frechet, linalg, suites
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
from matphi.fourier import check_log_sobolev, check_phi_sobolev
from matphi.frechet import MultivariateScalarFunction, multivariate_dd_table
from matphi.linalg import eigenvalues, hermitian_part, normalized_trace, positive_part, spectral_map
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel, ProductModel
from matphi.phifun import PhiFunction
from matphi.report import relative_tol
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
from support import SQUARE, constant_function, law_from_scalars, moveaxis_slices, negative_part


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
    for d, arities in ((1, (2, 3, 1)), (2, (4, 1, 2)), (3, (2, 3)), (3, (2, 3, 4, 1, 2))):
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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("arities", [(), (1,), (1, 1, 1)], ids=["n0", "n1-arity1", "n3-arity1"])
def test_efron_stein_forms_vanish_without_pairs(d, arities):
    # no input varies, so the pair stack is empty and every form is exactly 0
    rng = rng_for(43, "efron-no-pairs", d)
    laws = [FiniteLaw(np.ones(1), (0,)) for _ in arities]
    model = ProductModel(laws, random_hermitian(rng, d, (1,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forms = efron_stein_forms(model)
        assert efron_stein_quantity(model) == 0.0
    assert forms == (0.0, 0.0, 0.0)
    assert all(type(form) is float for form in forms)


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


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_nan_form_raises(position):
    forms = [1.0, 1.0, 1.0]
    forms[position] = math.nan
    with pytest.raises(MatPhiError, match="forms disagree"):
        concentration.agreed_form(tuple(forms), "forms")
    gap, _ = concentration.forms_gap(tuple(forms))
    assert math.isnan(gap)


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
    law = law_from_scalars([(0.5, -1.0), (0.5, 1.0)])
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


def _plus_identities_six_spectra(law, q):
    """check_plus_identities' deviations with one validated decomposition
    per part: |M|^q, (M)_+ and (M)_- = (-M)_+ of the centered values and
    of the (K, K) pair differences, summed by np.tensordot."""
    centered = law.values - law.mean()
    diff = law.values[:, None] - law.values[None, :]
    pair_w = np.outer(law.probs, law.probs)

    def abs_q(m):
        return spectral_map(lambda s: np.abs(s) ** q, m)

    def pow_q(part, m):
        return matrix_power(part(m), q)

    split = pow_q(positive_part, centered) + pow_q(negative_part, centered)
    dev1 = float(np.max(np.abs(np.tensordot(law.probs, abs_q(centered) - split, axes=1))))
    half_abs = 0.5 * np.tensordot(pair_w, abs_q(diff), axes=2)
    dev2 = max(
        float(np.max(np.abs(half_abs - np.tensordot(pair_w, pow_q(part, diff), axes=2))))
        for part in (positive_part, negative_part)
    )
    sq = 0.5 * np.tensordot(pair_w, diff @ diff, axes=2)
    dev3 = float(np.max(np.abs(np.tensordot(law.probs, centered @ centered, axes=1) - sq)))
    return {"centered": dev1, "paired": dev2, "halved_square": dev3}


def _plus_law(trial):
    """PSD and indefinite laws of 1 to 5 values at d = 1 to 4; every
    seventh repeats a value and has zero off-diagonal entries."""
    rng = rng_for(32, "plus-reference", trial)
    k, d = 1 + trial % 5, 1 + (trial // 5) % 4
    values = (random_psd if trial % 2 else random_hermitian)(rng, d, (k,))
    if trial % 7 == 0:
        values = np.stack([np.diag(np.diag(v).real) for v in values]).astype(complex)
        values[-1] = values[0]
    return DiscreteRandomMatrix(random_probability_vector(rng, k), values)


def test_plus_identities_equal_the_six_spectrum_reference():
    # 1,200 seeded laws, q = 1, 2, 3 in turn: three decompositions give
    # the bits of six
    for trial in range(1200):
        law, q = _plus_law(trial), 1 + trial % 3
        rep = check_plus_identities(law, q)
        want = _plus_identities_six_spectra(law, q)
        got = {key: rep.details[key] for key in want}
        assert repr(got) == repr(want), (trial, got, want)


def test_plus_identities_make_three_decompositions_and_no_validation(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refused(a):
        raise AssertionError("the law's values were validated at construction")

    law = _plus_law(3)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(linalg, "_require_hermitian_stack", refused)
    check_plus_identities(law, 2)
    k, d = law.size, law.d
    assert calls == [(k, d, d), (k, d, d), (k, k, d, d)]


def _efron_stein_forms_by_slices(model):
    """efron_stein_forms from each input's slices as they were computed
    per call, one input after another into the pair-difference and
    centered stacks."""
    d = model.values.shape[-1]
    diffs, centered = [np.empty((0, d, d))], [np.empty((0, d, d))]
    pair_w, center_w = [np.empty(0)], [np.empty(0)]
    for i in range(model.n):
        weights, probs, values = moveaxis_slices(model, i)
        r = np.arange(probs.size)
        k, l = np.nonzero(r[:, None] < r)
        diffs.append((values[:, k] - values[:, l]).reshape(-1, d, d))
        pair_w.append((weights[:, None] * (probs[k] * probs[l])).ravel())
        flat = values.reshape(*values.shape[:2], d * d)
        mean = hermitian_part((probs @ flat).reshape(-1, 1, d, d))
        centered.append((values - mean).reshape(-1, d, d))
        center_w.append((weights[:, None] * probs).ravel())
    diff, centered = np.concatenate(diffs), np.concatenate(centered)
    pair_w, center_w = np.concatenate(pair_w), np.concatenate(center_w)
    w = eigenvalues(diff)
    forms = (
        pair_w @ np.einsum("rij,rji->r", diff, diff).real,
        center_w @ np.einsum("rij,rji->r", centered, centered).real,
        pair_w @ np.sum(np.maximum(w, 0.0) ** 2 + np.minimum(w, 0.0) ** 2, axis=-1),
    )
    return tuple(float(x) / d for x in forms)


def test_efron_stein_forms_equal_the_slices_reference():
    # 1,200 seeded models: n = 0 to 5 inputs of mixed arities 1 to 4 (size-1
    # inputs included), PSD and indefinite tables at d = 1 to 4
    for trial in range(1200):
        rng = rng_for(32, "efron-plan-reference", trial)
        arities = tuple(int(a) for a in rng.integers(1, 5, trial % 6))
        d = 1 + (trial // 6) % 4
        laws = [FiniteLaw(random_probability_vector(rng, a), tuple(range(a))) for a in arities]
        values = (random_psd if trial % 2 else random_hermitian)(rng, d, (math.prod(arities),))
        model = ProductModel(laws, values)
        got, want = efron_stein_forms(model), _efron_stein_forms_by_slices(model)
        assert repr(got) == repr(want), (trial, arities, d)


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


def test_square_sum_partial_norm_is_the_induced_derivative_norm():
    # poincare-square-sum's partial_norm 2 lambda_max(X) is the induced norm
    # of E -> XE + EX at X in [0, I]: the largest |f[w_i, w_j]| = w_i + w_j,
    # attained at the top eigenprojector
    rng = rng_for(41, "square-norm", 0)
    for _ in range(20):
        x = _contraction(rng, 3)
        w, u = np.linalg.eigh(x)
        norm = 2.0 * w[-1]
        assert np.abs(frechet.dd1_table(SQUARE, w)).max() == pytest.approx(norm, rel=1e-12)
        top = np.outer(u[:, -1], u[:, -1].conj())
        assert np.linalg.norm(frechet.frechet_derivative(SQUARE, x, top)) == pytest.approx(norm)
        for e in random_hermitian(rng, 3, (10,)):
            ratio = np.linalg.norm(frechet.frechet_derivative(SQUARE, x, e)) / np.linalg.norm(e)
            assert ratio <= norm * (1.0 + 1e-12)


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


def test_finite_difference_bounds_keep_their_values():
    # central differences along the coordinates of real inputs, pinned to
    # recorded values
    rep = check_gaussian_poincare(
        lambda x: np.array([[x[0] ** 2, x[1]], [x[1], x[0] * x[1]]]), n=2, samples=200, seed=9
    )
    assert rep.details["bound"] == pytest.approx(7.813648107886029, rel=1e-12)
    rep = check_gaussian_logsobolev(
        lambda x: np.diag([np.exp(x[0] / 3.0), 1.0 + x[1] ** 2]).astype(complex),
        n=2, samples=200, seed=9,
    )
    assert rep.details["rhs"] == pytest.approx(9.213544219432695, rel=1e-12)


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
    model = MatrixInputModel(laws, lambda xs: np.sqrt(xs[0] + 0.01), lambda xs, i: 1.0)
    with pytest.raises(SeparateConvexityViolated):
        check_poincare(model, spot_check_probes=200, seed=5)


def _reference_spot_check(model, probes, rng):
    """The per-probe loop the stacked spot check replaces: each midpoint
    probe judged alone by a full eigh; (coordinate, smallest eigenvalue) of
    the first failing probe, or None."""
    for _ in range(probes if model.n else 0):
        i = int(rng.integers(model.n))
        law = model.laws[i]
        if law.size < 2:
            continue
        point = tuple(law_j.outcomes[int(rng.integers(law_j.size))] for law_j in model.laws)
        a_idx, b_idx = rng.choice(law.size, size=2, replace=False)
        xa, xb = law.outcomes[a_idx], law.outcomes[b_idx]

        def at(x):
            return concentration._as_matrix(model.evaluator(point[:i] + (x,) + point[i + 1:]))

        mid = at(0.5 * (np.asarray(xa) + np.asarray(xb)))
        avg = 0.5 * (at(xa) + at(xb))
        lam = np.linalg.eigh(hermitian_part(avg - mid))[0][0]
        if not lam >= -relative_tol(1e-8, float(np.max(np.abs(avg)))):
            return i, lam
    return None


SPOT_CHECK_EVALUATORS = {
    "linear": lambda xs: sum((k + 1) * x for k, x in enumerate(xs)),
    "square-sum": lambda xs: sum(x @ x for x in xs),
    "concave": lambda xs: -sum(x @ x for x in xs),
    # convex along the first coordinate and concave along the others
    "non-convex": lambda xs: xs[0] @ xs[0] - sum(x @ x for x in xs[1:]),
}


@pytest.mark.parametrize("kind", list(SPOT_CHECK_EVALUATORS))
def test_stacked_spot_check_fails_where_the_per_probe_loop_fails(kind):
    failures = 0
    for trial in range(24):
        rng = rng_for(17, f"spot-{kind}", trial)
        d, n = 1 + trial % 3, 1 + (trial // 3) % 3
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]  # a one-outcome law is skipped
        laws = tuple(
            FiniteLaw(random_probability_vector(rng, k), tuple(_contraction(rng, d) for _ in range(k)))
            for k in sizes
        )
        model = MatrixInputModel(laws, SPOT_CHECK_EVALUATORS[kind], lambda xs, i: 1.0)
        expected = _reference_spot_check(model, 30, rng_for(trial, "poincare-spot", 0))
        if expected is None:
            concentration._spot_check_convexity(model, 30, rng_for(trial, "poincare-spot", 0))
            continue
        failures += 1
        with pytest.raises(SeparateConvexityViolated) as err:
            concentration._spot_check_convexity(model, 30, rng_for(trial, "poincare-spot", 0))
        coordinate, eigenvalue = re.fullmatch(
            r"midpoint probe failed on coordinate (\d+) \(eigenvalue (\S+)\)", str(err.value)
        ).groups()
        assert int(coordinate) == expected[0]
        assert float(eigenvalue) == pytest.approx(expected[1], rel=1e-2)
    assert (failures > 0) == (kind in ("concave", "non-convex"))


def test_a_spot_check_makes_one_spectral_call(monkeypatch):
    rng = rng_for(17, "spot-calls", 0)
    laws = tuple(
        FiniteLaw(np.array([0.5, 0.5]), (_contraction(rng, 2), _contraction(rng, 2)))
        for _ in range(3)
    )
    model = MatrixInputModel(laws, SPOT_CHECK_EVALUATORS["square-sum"], lambda xs, i: 1.0)
    calls = []

    def counting(name, real):
        def wrapper(a):
            calls.append(name)
            return real(a)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    assert check_poincare(model, spot_check_probes=10, seed=3).passed
    assert calls == ["eigvalsh"]  # the per-probe loop made 10 eigh calls


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


def _trace_and_square(xs):
    return float(np.trace(xs[0]).real / 2) * np.eye(2) + xs[1] @ xs[1]


def _trace_and_square_partial(xs, i):
    return 1.0 if i == 0 else 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(xs[1]))))


# (max_gap, tol, stderr, details) of each Gaussian check at 200 samples
GAUSSIAN_PINS = [
    (lambda: check_gaussian_poincare(suites._first_square, n=1, samples=200, seed=3),
     (-2.036691568368138, 4.535730907990466, 0.7559551513315776,
      {"variance": 1.6367672501066495, "bound": 3.6734588184747876})),
    (lambda: check_gaussian_poincare(_trace_and_square, n=2, d1=2, samples=200, seed=9,
                                     partials=_trace_and_square_partial),
     (-9.067809849033146, 6.239187055833833, 1.0398645093054721,
      {"variance": 4.4486510506518115, "bound": 13.516460899684958})),
    (lambda: check_gaussian_sobolev(suites._sobolev_exp, p=1.5, n=2, samples=200, seed=4),
     (-0.3059941813820397, 0.1478976089903776, 0.0246496014982296,
      {"lhs": 0.04724635989790521, "rhs": 0.3532405412799449, "p": 1.5})),
    (lambda: check_gaussian_logsobolev(suites._clipped_poly, n=2, samples=200, seed=6),
     (-1.3602738147678042, 0.3051491342660214, 0.050858189044170235,
      {"lhs": 0.34942689347115397, "rhs": 1.7097007082389581})),
]


@pytest.mark.parametrize(
    "check, pinned", GAUSSIAN_PINS,
    ids=["poincare-differences", "poincare-ensemble", "sobolev", "logsobolev"],
)
def test_gaussian_checks_pinned(check, pinned):
    # central differences at real inputs, exact partials at Gaussian-ensemble
    # inputs, and both Sobolev sides, each through the one Monte Carlo driver
    rep = check()
    assert (rep.max_gap, rep.tol, rep.stderr, rep.details) == pinned
    assert rep.passed and rep.samples == 200


GAUSSIAN_SUITE_CHECKS = [
    name for name in suites.SUITES["gaussian"] if name.startswith("gaussian-")
]


@pytest.mark.parametrize("name", GAUSSIAN_SUITE_CHECKS + ["pins", "constant"])
def test_gaussian_checks_pass_within_six_standard_errors(name):
    # tol = 6 se + 1e-12, se being the two sides' standard errors added;
    # a constant evaluator has se = 0 and rhs = 0
    if name == "pins":
        reports = [check() for check, _ in GAUSSIAN_PINS]
    elif name == "constant":
        reports = [check_gaussian_poincare(lambda x: 1.0, n=2, samples=200, seed=1)]
    else:
        reports = [suites.CHECKS[name](name, suites.RunConfig(samples=200))]
    for rep in reports:
        assert rep.tol == 6.0 * rep.stderr + 1e-12, rep.check


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
        boolean(constant_function(1, -np.eye(2)))
    with pytest.raises(DomainError):
        gaussian(lambda x: -np.eye(2))


def test_gaussian_sobolev_refuses_p_outside_the_open_interval():
    with pytest.raises(DomainError, match="p must lie in"):
        check_gaussian_sobolev(lambda x: np.eye(2), p=2.5, n=1, samples=100)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, float("nan")])
def test_gaussian_sobolev_refuses_p_before_calling_the_evaluator(p):
    calls = []

    def f(x):
        calls.append(x)
        return np.eye(2)

    with pytest.raises(DomainError, match="p must lie in"):
        check_gaussian_sobolev(f, p=p, n=4)
    assert calls == []


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


def test_gaussian_poincare_gue_inputs_need_partials():
    # without exact partials at matrix inputs the right side could only be
    # bounded from below, so the check refuses before evaluating anything
    calls = []

    def evaluator(xs):
        calls.append(xs)
        return xs[0]

    with pytest.raises(DomainError, match="partials"):
        check_gaussian_poincare(evaluator, n=1, d1=2, samples=400, seed=9)
    assert calls == []


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
