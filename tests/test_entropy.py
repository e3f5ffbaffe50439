"""Entropy functional values, conditional tables, and the equivalent
convexity characterizations with their negative controls."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.entropy import (
    _law_entropies,
    bregman_maps,
    bregman_pair_sampler,
    char_a_draw,
    char_a_judge,
    check_char_a,
    check_char_e,
    check_char_g,
    check_char_h,
    check_joint_convexity,
    check_subadditivity,
    conditional_phi_entropy,
    duality_lower_bound,
    phi_entropy,
)
from matphi.errors import (
    DimensionMismatch,
    DomainError,
    NotHermitian,
    SingularSuperoperator,
    SpectrumOutOfDomain,
)
from matphi.frechet import (
    frechet_derivative,
    frechet_second,
    inverse_derivative_superoperator,
    inverse_frechet_derivative,
)
from matphi.linalg import eigenvalues, hermitian_part, normalized_trace
from matphi.models import DiscreteRandomMatrix, FiniteLaw, ProductModel
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_law,
    random_pd,
    random_probability_vector,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)
from matphi.report import matrix_to_obj, relative_tol
from support import law_from_scalars, random_unitary

XLOGX = PhiFunction.xlogx()
SQUARE = PhiFunction.power(2)
CUBE = PhiFunction.cube()
IN_CLASS = [PhiFunction.power(1.2), PhiFunction.power(1.5), SQUARE, XLOGX]


@pytest.mark.parametrize(
    "phi", [XLOGX, PhiFunction.power(1.5), PhiFunction.affine(2, 1), CUBE], ids=lambda phi: phi.label
)
def test_phi_entropy_matches_standard_function_reference(phi):
    # tr E Phi(Z) - tr Phi(E Z) from one spectrum per value against the
    # standard matrix functions it replaced, to rounding
    scalar = phi.scalar()
    for trial in range(6):
        law = random_law(rng_for(44, "phi-entropy-reference", trial), 1 + trial % 4, 3)
        ref = sum(
            p * normalized_trace(scalar.apply(v)) for p, v in zip(law.probs, law.values)
        ) - normalized_trace(scalar.apply(law.mean()))
        assert phi_entropy(phi, law) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_entropy_constant_law_is_zero():
    rng = rng_for(31, "entropy", 0)
    m = random_psd(rng, 3)
    law = DiscreteRandomMatrix(np.array([0.4, 0.6]), np.stack([m, m]))
    assert phi_entropy(XLOGX, law) == pytest.approx(0.0, abs=1e-12)


def test_entropy_scalar_variance():
    law = law_from_scalars([(0.5, 0.0), (0.5, 1.0)])
    assert phi_entropy(SQUARE, law) == pytest.approx(0.25)


def test_entropy_scalar_xlogx_value():
    law = law_from_scalars([(0.5, 1.0), (0.5, np.e)])
    expect = np.e / 2 - ((1 + np.e) / 2) * np.log((1 + np.e) / 2)
    assert phi_entropy(XLOGX, law) == pytest.approx(expect, abs=1e-12)


def test_entropy_nonnegative_sweep():
    for trial in range(300):
        rng = rng_for(31, "entropy-nonneg", trial)
        law = random_law(rng, 3, 4)
        for phi in IN_CLASS:
            assert phi_entropy(phi, law) >= -1e-10


def test_entropy_square_homogeneity():
    rng = rng_for(31, "entropy", 1)
    law = random_law(rng, 2, 3)
    h = phi_entropy(SQUARE, law)
    scaled = DiscreteRandomMatrix(law.probs, 2.5 * law.values)
    assert phi_entropy(SQUARE, scaled) == pytest.approx(2.5**2 * h, rel=1e-10)


def test_entropy_domain_error():
    law = law_from_scalars([(0.5, -1.0), (0.5, 1.0)])
    with pytest.raises(DomainError):
        phi_entropy(XLOGX, law)


def test_conditional_entropy_independence():
    rng = rng_for(31, "entropy", 2)
    m0, m1 = random_psd(rng, 2), random_psd(rng, 2)
    laws = [FiniteLaw.uniform((0, 1)), FiniteLaw.uniform((0, 1))]
    model = ProductModel.tabulate(tuple(laws), lambda xs: m0 if xs[1] == 0 else m1)
    table = conditional_phi_entropy(XLOGX, model, 0)
    assert np.max(np.abs(table.entropies)) < 1e-12


def test_conditional_entropy_single_input():
    rng = rng_for(31, "entropy", 3)
    vals = [random_psd(rng, 2) for _ in range(2)]
    model = ProductModel.tabulate((FiniteLaw.uniform((0, 1)),), lambda xs: vals[xs[0]])
    table = conditional_phi_entropy(XLOGX, model, 0)
    assert table.entropies.size == 1
    assert table.expectation == pytest.approx(phi_entropy(XLOGX, model.to_law()))


def test_conditional_entropy_rademacher_sum():
    laws = [FiniteLaw.uniform((-1.0, 1.0)) for _ in range(2)]
    model = ProductModel.tabulate(
        tuple(laws), lambda xs: np.array([[complex(xs[0] + xs[1] + 2.0)]])
    )
    table = conditional_phi_entropy(SQUARE, model, 0)
    assert np.allclose(table.entropies, 1.0)


@pytest.mark.parametrize("i", [-1, 3])
def test_an_input_index_out_of_range_is_refused(i):
    # a cut of the plan's rows at i = -1 is an empty stack, not a refusal
    model = _mixed_model(rng_for(31, "entropy-index", 0), 2, (2, 3, 2))
    with pytest.raises(IndexError, match=f"input index {i} out of range for n=3"):
        conditional_phi_entropy(XLOGX, model, i)


def _mixed_model(rng, d, arities):
    laws = [FiniteLaw(random_probability_vector(rng, a), tuple(range(a))) for a in arities]
    table = np.stack([random_psd(rng, d) for _ in range(int(np.prod(arities)))])
    return ProductModel(laws, table)


@pytest.mark.parametrize("arities", [(3, 3, 3), (2, 3, 1, 4), (4, 1, 2)])
@pytest.mark.parametrize("phi", [XLOGX, PhiFunction.power(1.5)], ids=lambda phi: phi.label)
def test_conditional_entropy_matches_per_slice_reference(arities, phi):
    # the stacked table against one law per slice, the other inputs pinned
    # first input slowest and one table lookup in mixed radix per point
    for d in (1, 2, 3):
        model = _mixed_model(rng_for(31, f"entropy-slices-{arities}", d), d, arities)
        for i in range(model.n):
            others = [j for j in range(model.n) if j != i]
            ref_probs, ref_entropies = [], []
            for idx in itertools.product(*(range(arities[j]) for j in others)):
                weight, point = 1.0, [0] * model.n
                for j, k in zip(others, idx):
                    weight *= model.laws[j].probs[k]
                    point[j] = k
                values = []
                for k in range(arities[i]):
                    point[i] = k
                    values.append(model.values[np.ravel_multi_index(point, arities)])
                law = DiscreteRandomMatrix(model.laws[i].probs, np.stack(values))
                ref_probs.append(weight)
                ref_entropies.append(phi_entropy(phi, law))
            table = conditional_phi_entropy(phi, model, i)
            assert np.array_equal(table.probs, ref_probs)
            assert np.allclose(table.entropies, ref_entropies, rtol=1e-12, atol=0.0)


def _slice_models():
    # 300 product models of 1-4 inputs with arities 1-4 at d 1-3
    for trial in range(300):
        rng = rng_for(31, "entropy-slice-bits", trial)
        arities = tuple(int(a) for a in rng.integers(1, 5, size=int(rng.integers(1, 5))))
        yield _mixed_model(rng, 1 + trial % 3, arities)


def test_conditional_entropies_are_the_slice_laws_entropies_bit_for_bit():
    # each entry is phi_entropy of its slice law, whatever the slice's layout
    for model in _slice_models():
        for phi in (XLOGX, PhiFunction.power(1.5)):
            for i in range(model.n):
                _, probs, values = model.slices(i)
                got = conditional_phi_entropy(phi, model, i).entropies
                want = [phi_entropy(phi, DiscreteRandomMatrix(probs, v)) for v in values]
                assert got.tolist() == want, (model.sizes, phi.label, i)


def test_conditional_tables_do_not_depend_on_the_slices_layout(monkeypatch):
    models = list(_slice_models())
    phis = (XLOGX, PhiFunction.power(1.5))

    def tables():
        return [conditional_phi_entropy(phi, model, i).entropies.tobytes()
                for model in models for phi in phis for i in range(model.n)]

    views = tables()
    slices = ProductModel.slices
    monkeypatch.setattr(
        ProductModel, "slices",
        lambda self, i: tuple(np.ascontiguousarray(part) for part in slices(self, i)),
    )
    assert tables() == views


@pytest.mark.parametrize("phi", [XLOGX, PhiFunction.power(1.5)], ids=lambda phi: phi.label)
def test_law_entropies_of_a_stack_are_each_laws_entropy_bit_for_bit(phi):
    # T laws of s values at d, stacked contiguously or as a moveaxis view,
    # with one probability row per law or one row for all
    for s, d, count in itertools.product(range(1, 7), range(1, 5), range(1, 9)):
        rng = rng_for(31, "law-entropies-stack", s * 100 + d * 10 + count)
        rows = np.stack([random_probability_vector(rng, s) for _ in range(count)])
        values = np.stack([random_psd(rng, d) for _ in range(s * count)]).reshape(s, count, d, d)
        view = np.moveaxis(values, 0, 1)
        for probs in (rows, rows[0]):
            per_law = np.broadcast_to(probs, rows.shape)
            want = [phi_entropy(phi, DiscreteRandomMatrix(p, v)) for p, v in zip(per_law, view)]
            for stack in (view, np.ascontiguousarray(view)):
                assert _law_entropies(phi, probs, stack).tolist() == want, (s, d, count)


def test_subadditivity_constant():
    laws = [FiniteLaw.uniform((0, 1))]
    model = ProductModel.tabulate(tuple(laws), lambda xs: np.eye(2))
    rep = check_subadditivity(XLOGX, model)
    assert rep.passed
    assert rep.details["lhs"] == pytest.approx(0.0, abs=1e-12)


def test_subadditivity_scalar_efron_stein():
    laws = [FiniteLaw.uniform((-1.0, 1.0)) for _ in range(3)]
    model = ProductModel.tabulate(
        tuple(laws), lambda xs: np.array([[complex(sum(xs))]])
    )
    rep = check_subadditivity(SQUARE, model)
    assert rep.passed
    assert rep.details["rhs"] >= rep.details["lhs"] - 1e-12


def test_subadditivity_random_sweep():
    for trial in range(200):
        rng = rng_for(31, "entropy-sub", trial)
        model = random_product_model(rng, 3, 3, arity=2)
        rep = check_subadditivity(XLOGX, model)
        assert rep.passed, f"trial {trial}: gap {rep.max_gap}"


def test_bregman_zero_direction():
    rng = rng_for(31, "entropy", 4)
    u = random_pd(rng, 3)
    a, b, c = bregman_maps(XLOGX, u, np.zeros((3, 3)))
    assert abs(a) < 1e-10 and abs(b) < 1e-10 and abs(c) < 1e-10


def test_bregman_quadratic_algebra():
    rng = rng_for(31, "entropy", 5)
    u, v = random_pd(rng, 3), random_psd(rng, 3)
    a, b, c = bregman_maps(SQUARE, u, v)
    tr_v2 = float(np.trace(v @ v).real)
    assert a == pytest.approx(tr_v2, rel=1e-9)
    assert b == pytest.approx(2 * tr_v2, rel=1e-9)
    assert c == pytest.approx(2 * tr_v2, rel=1e-9)


def test_bregman_nonnegative():
    for trial in range(100):
        rng = rng_for(31, "entropy-breg", trial)
        u, v = random_pd(rng, 2), random_psd(rng, 2)
        for phi in IN_CLASS:
            a, b, c = bregman_maps(phi, u, v)
            assert a >= -1e-9 and b >= -1e-9 and c >= -1e-9


def test_bregman_integral_representation():
    # A(u, v) equals the (1 - s)-weighted quadrature of C(u + s v, v)
    rng = rng_for(31, "entropy", 6)
    u, v = random_pd(rng, 2, floor=0.3), random_psd(rng, 2)
    a_val, _, _ = bregman_maps(XLOGX, u, v)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    sf = XLOGX.scalar()
    quad = sum(
        wk * (1.0 - sk) * float(np.trace(frechet_second(sf, u + sk * v, v, v)).real)
        for sk, wk in zip(s, w)
    )
    assert a_val == pytest.approx(quad, abs=1e-6)


def test_bregman_b_integral_representation():
    rng = rng_for(31, "entropy", 7)
    u, v = random_pd(rng, 2, floor=0.3), random_psd(rng, 2)
    _, b_val, _ = bregman_maps(XLOGX, u, v)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    sf = XLOGX.scalar()
    quad = sum(
        wk * float(np.trace(frechet_second(sf, u + sk * v, v, v)).real)
        for sk, wk in zip(s, w)
    )
    assert b_val == pytest.approx(quad, abs=1e-6)


@pytest.mark.parametrize("phi", [XLOGX, PhiFunction.power(1.5)])
def test_bregman_small_direction_expansions(phi):
    # A(u, eps v) = C eps^2 / 2 + O(eps^3); the residual's log-log slope
    # against eps should be cubic-like (> 2.5)
    rng = rng_for(31, "entropy", 8)
    u, v = random_pd(rng, 2, floor=0.4), random_psd(rng, 2)
    _, _, c_val = bregman_maps(phi, u, v)
    epsilons = np.logspace(-1, -3, 5)
    residual_a, residual_b = [], []
    for eps in epsilons:
        a_val, b_val, _ = bregman_maps(phi, u, eps * v)
        residual_a.append(abs(a_val - 0.5 * c_val * eps**2))
        residual_b.append(abs(b_val - c_val * eps**2))
    slope_a = np.polyfit(np.log(epsilons), np.log(residual_a), 1)[0]
    slope_b = np.polyfit(np.log(epsilons), np.log(residual_b), 1)[0]
    assert slope_a > 2.5
    assert slope_b > 2.5


def _matrix_trace_bregman(phi, u, v):
    """A, B and C as traces of the full Frechet derivative matrices."""
    sf = phi.scalar()
    a = np.trace(sf.apply(u + v) - sf.apply(u) - frechet_derivative(sf, u, v))
    b = np.trace(frechet_derivative(sf, u + v, v) - frechet_derivative(sf, u, v))
    return a.real, b.real, np.trace(frechet_second(sf, u, v, v)).real


@pytest.mark.parametrize("phi", [*IN_CLASS, CUBE], ids=lambda phi: phi.label)
def test_bregman_spectral_form_matches_matrix_traces(phi):
    for d in range(1, 9):
        for trial in range(4):
            rng = rng_for(31, "bregman-reference", 10 * d + trial)
            u, v = random_pd(rng, d, floor=0.05), random_psd(rng, d)
            for got, want in zip(bregman_maps(phi, u, v), _matrix_trace_bregman(phi, u, v)):
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (d, trial)


def _oracle_bregman(phi, u, v):
    """A, B and C at 50 digits from the eigensystems of u and u + v, with
    exact divided differences of Psi = Phi'."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    if phi.kind == "xlogx":
        f, psi, dpsi = (lambda x: x * mpmath.log(x)), (lambda x: mpmath.log(x) + 1), (lambda x: 1 / x)
    else:
        p = mpmath.mpf(phi.p)
        f, psi = (lambda x: x**p), (lambda x: p * x ** (p - 1))
        dpsi = lambda x: p * (p - 1) * x ** (p - 2)
    mu_, mv = mpmath.matrix(u.tolist()), mpmath.matrix(v.tolist())
    lam, q = mpmath.eighe(mu_)
    mu, p_ = mpmath.eighe(mu_ + mv)
    vt, vh = q.H * mv * q, p_.H * mv * p_
    d = len(lam)
    first_u = sum(psi(lam[i]) * vt[i, i].real for i in range(d))
    a = sum(f(x) for x in mu) - sum(f(x) for x in lam) - first_u
    b = sum(psi(mu[i]) * vh[i, i].real for i in range(d)) - first_u
    c = sum(
        (dpsi(lam[i]) if i == j else (psi(lam[i]) - psi(lam[j])) / (lam[i] - lam[j]))
        * abs(vt[i, j]) ** 2
        for i in range(d) for j in range(d)
    )
    return float(a), float(b), float(c)


@pytest.mark.parametrize("phi", [XLOGX, PhiFunction.power(1.5)], ids=lambda phi: phi.label)
@pytest.mark.parametrize("width", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_bregman_against_mpmath_at_clustered_spectra(phi, width):
    # two clusters of the given width, rotated by a random unitary
    rng = rng_for(31, "bregman-oracle", int(-np.log10(width)))
    spectrum = np.array([0.4, 0.4 + width, 1.3, 1.3 + width, 1.3 + 2 * width])
    q = random_unitary(rng, 5)
    u = hermitian_part((q * spectrum) @ q.conj().T)
    v = random_psd(rng, 5)
    for got, want in zip(bregman_maps(phi, u, v), _oracle_bregman(phi, u, v)):
        assert abs(got - want) <= 1e-10 * abs(want), (got, want)


def test_bregman_singular_u_is_out_of_the_xlogx_domain():
    v = np.eye(3, dtype=complex)
    for lowest in (0.0, -1e-12):
        with pytest.raises(DomainError):
            bregman_maps(XLOGX, np.diag([lowest, 0.5, 1.0]).astype(complex), v)


def test_bregman_rotated_singular_u_is_refused():
    # a rotation leaves the zero eigenvalue of u at +-1e-17 or so; a rounded
    # +1e-17 must not pass Psi = log x + 1 as a positive spectrum
    v = np.eye(3, dtype=complex)
    for index in range(200):
        q = random_unitary(rng_for(31, "singular-u", index), 3)
        u = q @ np.diag([0.0, 0.5, 1.0]) @ q.conj().T
        with pytest.raises(DomainError):
            bregman_maps(XLOGX, u, v)


def test_joint_convexity_quadratic_exact():
    def c_map(u, v):
        return bregman_maps(SQUARE, u, v)[2]

    rep = check_joint_convexity(c_map, bregman_pair_sampler(2), trials=50, seed=5)
    assert rep.passed


def test_joint_convexity_cube_scalar_violation():
    # C for x^3 is 6 u v^2, whose Hessian has negative determinant
    def c_map(u, v):
        return bregman_maps(CUBE, u, v)[2]

    rep = check_joint_convexity(
        c_map, bregman_pair_sampler(1), trials=200, seed=5, label="cube-c"
    )
    assert not rep.passed
    assert rep.violations


def test_char_a_in_class_and_cube():
    for phi in [PhiFunction.power(1.5), XLOGX]:
        assert check_char_a(phi, trials=30, d=2, seed=7).passed
    rep = check_char_a(CUBE, trials=30, d=1, seed=7)
    assert not rep.passed and rep.violations


def test_char_a_square_equality():
    rep = check_char_a(SQUARE, trials=10, d=2, seed=7)
    assert rep.passed
    assert rep.max_gap < 1e-10


def test_char_a_rejects_affine():
    with pytest.raises(DomainError):
        check_char_a(PhiFunction.affine(1.0, 0.0), trials=1, d=2, seed=0)


def test_char_e_scalar_square():
    res = check_char_e(SQUARE, np.array([[1.3]]), np.array([[0.7]]), np.array([[0.4]]))
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-10)
    assert res.rhs == pytest.approx(0.0, abs=1e-10)


def test_char_e_scalar_oracle():
    # at d = 1 both sides reduce to combinations of scalar derivatives
    for phi, a in [(XLOGX, 2.0), (PhiFunction.power(1.5), 1.0), (PhiFunction.power(1.2), 0.8)]:
        h = k = 1.0
        res = check_char_e(phi, np.array([[a]]), np.array([[h]]), np.array([[k]]))
        d2, d3, d4 = (float(phi.derivatives[order](np.array([a]))[0]) for order in (2, 3, 4))
        lhs_expect = d4 * k**2 * h**2 / d2**2
        rhs_expect = 2.0 * d3**2 * k**2 * h**2 / d2**3
        assert res.lhs == pytest.approx(lhs_expect, rel=1e-4)
        assert res.rhs == pytest.approx(rhs_expect, rel=1e-9)
        assert res.holds


def test_char_e_xlogx_equality():
    res = check_char_e(XLOGX, np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert res.lhs == pytest.approx(res.rhs, rel=1e-4)
    assert res.lhs == pytest.approx(2.0 / 2.0, rel=1e-4)


def test_char_e_power15_values():
    res = check_char_e(
        PhiFunction.power(1.5), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert res.rhs == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert res.holds


def test_char_e_cube_violation():
    res = check_char_e(CUBE, np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert not res.holds


def test_char_e_matrix_in_class():
    for trial in range(20):
        rng = rng_for(31, "char-e-mat", trial)
        a = random_pd(rng, 2, floor=0.4)
        h = random_psd(rng, 2)
        k = random_psd(rng, 2)
        res = check_char_e(XLOGX, a, h, k)
        assert res.holds, f"trial {trial}: {res.lhs} < {res.rhs}"


def test_char_a_and_e_need_no_svd_or_inv(monkeypatch):
    # the inverse derivative is a Schur division: no dense factorization
    def refuse(*args, **kwargs):
        raise AssertionError("dense factorization called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for phi in (XLOGX, PhiFunction.power(1.2)):
        assert check_char_a(phi, trials=3, d=3, seed=5).passed
        rng = rng_for(31, "char-e-no-factorization", 0)
        a = random_pd(rng, 3, floor=0.3)
        assert check_char_e(phi, a, random_psd(rng, 3), random_psd(rng, 3)).holds


def _char_e_reference(phi, a, h, k):
    """(lhs, rhs) of char-e composed from the public Frechet functions, one
    call per derivative."""
    psi = phi.psi()
    step = 1e-4 * (1.0 + float(np.linalg.norm(a)))
    tinv_h = inverse_frechet_derivative(psi, a, h)
    d3_psi = (
        frechet_second(psi, a + step * k, k, tinv_h) - frechet_second(psi, a - step * k, k, tinv_h)
    ) / (2.0 * step)
    lhs_mat, inner = inverse_frechet_derivative(
        psi, a, np.stack([d3_psi, frechet_second(psi, a, k, tinv_h)])
    )
    rhs_mat = inverse_frechet_derivative(psi, a, frechet_second(psi, a, k, inner))
    return float(np.trace(h @ lhs_mat).real), 2.0 * float(np.trace(h @ rhs_mat).real)


def _char_a_probe(psi, d, rng):
    """One char-a trial drawn and judged alone, as its (gap, tol, witness)."""
    gap, tol, witness = char_a_judge(psi, *(m[None] for m in char_a_draw(rng, d)))
    return float(gap[0, 0]), float(tol[0, 0]), witness(0, 0)


def _char_a_reference(psi, d, rng):
    """_char_a_probe composed from one inverse superoperator per matrix."""
    a, b = random_pd(rng, d), random_pd(rng, d)
    inv = [inverse_derivative_superoperator(psi, m) for m in (a, b, 0.5 * (a + b))]
    lam = float(eigenvalues(hermitian_part(inv[2] - 0.5 * (inv[0] + inv[1])))[0])
    tol = relative_tol(1e-8, max(float(np.linalg.norm(m)) for m in inv))
    witness = None
    if -lam > tol:
        witness = {"min_eigenvalue": lam, "a": matrix_to_obj(a), "b": matrix_to_obj(b)}
    return -lam, tol, witness


CALCULUS_GENERATORS = [
    PhiFunction.parse(g) for g in ("power:1.2", "power:1.5", "power:2", "xlogx", "cube")
]


def _near_degenerate(rng, a, d):
    """A with all but its top eigenvalue within 1e-9 of its smallest."""
    w, u = np.linalg.eigh(a)
    w[: max(1, d - 1)] = w[0] + 1e-9 * rng.random(max(1, d - 1))
    return hermitian_part((u * w) @ u.conj().T)


@pytest.mark.parametrize("d", range(1, 9))
def test_char_a_and_e_equal_the_per_call_composition(d):
    for phi in CALCULUS_GENERATORS:
        for trial in range(4):
            rng = rng_for(31, f"char-e-reference-{phi.label}", 8 * trial + d)
            a = random_pd(rng, d, floor=0.3)
            if trial == 3:
                a = _near_degenerate(rng, a, d)
            h, k = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
            res = check_char_e(phi, a, h, k)
            assert repr((res.lhs, res.rhs)) == repr(_char_e_reference(phi, a, h, k))
            got, want = (
                probe(phi.psi(), d, rng_for(31, f"char-a-reference-{phi.label}", 8 * trial + d))
                for probe in (_char_a_probe, _char_a_reference)
            )
            assert repr(got) == repr(want)


def test_char_a_and_e_decompose_each_operand_once(monkeypatch):
    # one eigh call on [A, A + step k, A - step k], one on [a, b, (a + b) / 2]
    shapes = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for d in (1, 3, 8):
        rng = rng_for(31, "char-e-eigh-calls", d)
        a = random_pd(rng, d, floor=0.3)
        h, k = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
        shapes.clear()
        check_char_e(XLOGX, a, h, k)
        assert shapes == [(3, d, d)]
        shapes.clear()
        _char_a_probe(XLOGX.psi(), d, rng)
        assert shapes == [(3, d, d)]


def _error(call):
    """The type and message of the error ``call`` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "a, k, refusal",
    [
        # A's derivative is singular, and A - step k leaves log's domain
        (np.diag([3e-9, 1e4]), np.eye(2), SingularSuperoperator),
        # only A - step k leaves log's domain
        (np.diag([1e-4, 1.0]), np.diag([10.0, 0.0]), SpectrumOutOfDomain),
        # both shifts leave it: A + step k is refused first
        (np.diag([1e-4, 2e-4]), np.diag([10.0, -10.0]), SpectrumOutOfDomain),
    ],
)
def test_char_e_refuses_as_the_per_call_composition(a, k, refusal):
    a, k = a.astype(complex), k.astype(complex)
    want = _error(lambda: _char_e_reference(XLOGX, a, np.eye(2), k))
    assert want[0] is refusal
    assert _error(lambda: check_char_e(XLOGX, a, np.eye(2), k)) == want


def test_char_a_refuses_a_before_b_before_the_midpoint(monkeypatch):
    # x log x: a singular derivative (condition 3e12), then spectra outside (0, inf)
    singular, outside, worse = np.diag([3e-9, 1e4]), np.diag([-1.0, 1.0]), np.diag([-2.0, 1.0])
    fine = np.diag([0.5, 1.0])
    for a, b, first in ((outside, worse, outside), (singular, outside, singular),
                        (fine, worse, worse), (fine, singular, singular)):
        pairs = [a.astype(complex), b.astype(complex)]
        monkeypatch.setattr("matphi.entropy.random_pd", lambda rng, d: pairs.pop(0))
        got = _error(lambda: _char_a_probe(XLOGX.psi(), 2, None))
        assert got == _error(lambda: inverse_derivative_superoperator(XLOGX.psi(), first))


def test_char_e_operands_are_validated_at_the_boundary():
    eye2, eye3 = np.eye(2), np.eye(3)
    for args in ((eye2, eye3, eye2), (eye2, eye2, eye3), (eye3, eye2, eye2)):
        with pytest.raises(DimensionMismatch):
            check_char_e(XLOGX, *args)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    for args in ((eye2, skew, eye2), (eye2, eye2, skew)):
        with pytest.raises(NotHermitian):
            check_char_e(XLOGX, *args)


def test_duality_equality_at_z():
    rng = rng_for(31, "entropy", 9)
    probs = np.array([0.3, 0.7])
    vals = np.stack([random_pd(rng, 2), random_pd(rng, 2)])
    z = DiscreteRandomMatrix(probs, vals)
    assert duality_lower_bound(XLOGX, z, z) == pytest.approx(
        phi_entropy(XLOGX, z), abs=1e-10
    )


def test_duality_constant_t():
    rng = rng_for(31, "entropy", 10)
    probs = np.array([0.5, 0.5])
    z = DiscreteRandomMatrix(probs, np.stack([random_pd(rng, 2), random_pd(rng, 2)]))
    mean = z.mean()
    t = DiscreteRandomMatrix(probs, np.stack([mean, mean]))
    assert duality_lower_bound(XLOGX, z, t) == pytest.approx(0.0, abs=1e-10)


def test_duality_lower_bound_sweep():
    for trial in range(300):
        rng = rng_for(31, "entropy-dual", trial)
        probs = np.array([0.25, 0.35, 0.4])
        z = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(3)]))
        t = DiscreteRandomMatrix(
            probs, np.stack([random_pd(rng, 2, floor=0.05) for _ in range(3)])
        )
        bound = duality_lower_bound(XLOGX, z, t)
        h = phi_entropy(XLOGX, z)
        assert bound <= h + 1e-9 * (1 + abs(h))


def test_char_g_z_independent_of_x2():
    rng = rng_for(31, "entropy", 11)
    vals = [random_psd(rng, 2) for _ in range(2)]
    laws = (FiniteLaw.uniform((0, 1)), FiniteLaw.uniform((0, 1)))
    model = ProductModel.tabulate(laws, lambda xs: vals[xs[0]])
    rep = check_char_g(XLOGX, model)
    # Z = f(X_1) only: both sides vanish
    assert rep.passed
    assert rep.details["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep.details["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_char_g_sweep():
    for trial in range(200):
        rng = rng_for(31, "entropy-g", trial)
        model = random_product_model(rng, 2, 2, arity=3)
        assert check_char_g(XLOGX, model).passed


def test_char_h_endpoints_and_equal_laws():
    rng = rng_for(31, "entropy", 12)
    probs = np.array([0.5, 0.5])
    z1 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(2)]))
    z2 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(2)]))
    assert check_char_h(XLOGX, z1, z1, 0.3).max_gap == pytest.approx(0.0, abs=1e-12)
    for t in (0.0, 1.0):
        assert check_char_h(XLOGX, z1, z2, t).max_gap == pytest.approx(0.0, abs=1e-12)


def test_char_h_sweep_power():
    phi = PhiFunction.power(1.5)
    for trial in range(200):
        rng = rng_for(31, "entropy-h", trial)
        probs = np.array([0.2, 0.3, 0.5])
        z1 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(3)]))
        z2 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(3)]))
        t = float(rng_for(31, "entropy-h-t", trial).uniform())
        assert check_char_h(phi, z1, z2, t).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_entropy_nonnegativity_property(seed):
    rng = rng_for(seed, "entropy-hyp", 0)
    law = random_law(rng, 2, 3)
    assert phi_entropy(XLOGX, law) >= -1e-10


def test_scalar_reduction_matches_classical():
    # every matrix checker agrees with the classical scalar quantity at d=1
    rng = rng_for(31, "entropy", 13)
    values = rng.uniform(0.2, 3.0, 4)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    law = law_from_scalars(list(zip(probs, values)))
    classical = float(np.dot(probs, values * np.log(values))) - float(
        np.dot(probs, values)
    ) * np.log(float(np.dot(probs, values)))
    assert phi_entropy(XLOGX, law) == pytest.approx(classical, abs=1e-12)
