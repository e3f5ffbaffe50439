"""Divided differences, derivative Schur multipliers, superoperators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.errors import DomainError, NotCommuting, SingularSuperoperator
from matphi.frechet import (
    MultivariateScalarFunction,
    apply_superoperator,
    commuting_eigensystem,
    dd1_table,
    dd2_table,
    divided_difference,
    fd_frechet,
    fd_frechet_second,
    frechet_derivative,
    frechet_norm,
    frechet_second,
    inverse_map_derivatives,
    invert_superoperator,
    multivariate_dd_table,
    multivariate_partial_frechet,
    superoperator_of_derivative,
    vec,
)
from matphi.phifun import IDENTITY, SQUARE, PhiFunction
from matphi.sampling import (
    random_hermitian,
    random_pd,
    random_unit_hermitian,
    random_unitary,
    rng_for,
)

XLOGX = PhiFunction.xlogx()
P15 = PhiFunction.power(1.5)


def test_divided_difference_square():
    assert divided_difference(SQUARE, (1.0, 3.0)) == pytest.approx(4.0)
    assert divided_difference(SQUARE, (2.0, 2.0)) == pytest.approx(4.0)


def test_divided_difference_xlogx():
    expect = np.e / (np.e - 1.0)
    assert divided_difference(XLOGX.scalar(), (1.0, np.e)) == pytest.approx(expect, abs=1e-12)


def test_divided_difference_second_order():
    # f = x^2 has constant second divided difference 1
    assert divided_difference(SQUARE, (1.0, 2.0, 5.0), order=2) == pytest.approx(1.0)
    assert divided_difference(SQUARE, (2.0, 2.0, 2.0), order=2) == pytest.approx(1.0)
    # symmetric under permutations
    sf = XLOGX.scalar()
    vals = [
        divided_difference(sf, perm, order=2)
        for perm in [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (2.0, 3.0, 1.0)]
    ]
    assert max(vals) - min(vals) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_divided_difference_symmetry(a, b):
    sf = XLOGX.scalar()
    assert divided_difference(sf, (a, b)) == pytest.approx(
        divided_difference(sf, (b, a)), rel=1e-10
    )


def test_divided_difference_domain():
    with pytest.raises(DomainError):
        divided_difference(XLOGX.scalar(), (1.0, -2.0))


GENERATORS = ["power:1", "power:1.2", "power:1.5", "power:2", "xlogx", "cube", "affine:2,1"]
SCALAR_FUNCTIONS = [
    sf for g in GENERATORS for sf in (PhiFunction.parse(g).scalar(), PhiFunction.parse(g).psi())
]
AXIS_ORDERS = list(itertools.permutations(range(3)))


def _oracle_tables(name, w):
    """First and second divided-difference tables of the named Phi (or of
    its Psi = Phi', name "d(...)") at 50 digits, by the plain recursion."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    psi = name.startswith("d(")
    gen = PhiFunction.parse(name[2:-1] if psi else name)
    if gen.kind == "xlogx":
        f = (lambda x: mpmath.log(x) + 1) if psi else (lambda x: x * mpmath.log(x))
    elif gen.kind == "affine":
        f = (lambda x: mpmath.mpf(gen.a)) if psi else (lambda x: gen.a * x + gen.b)
    else:
        p = mpmath.mpf(3 if gen.kind == "cube" else gen.p)
        f = (lambda x: p * x ** (p - 1)) if psi else (lambda x: x**p)
    x = [mpmath.mpf(float(t)) for t in w]
    d = len(x)
    t1 = [[(f(x[i]) - f(x[j])) / (x[i] - x[j]) if i != j else None for j in range(d)]
          for i in range(d)]
    t2 = {
        (i, k, j): (t1[i][k] - t1[k][j]) / (x[i] - x[j])
        for i, k, j in itertools.permutations(range(d), 3)
    }
    return t1, t2


@pytest.mark.parametrize("d", range(1, 9))
def test_dd_tables_symmetric_and_confluent(d):
    rng = rng_for(21, "dd-tables", d)
    for sf in SCALAR_FUNCTIONS:
        distinct = rng.uniform(0.1, 3.0, d)
        repeated = distinct.copy()
        repeated[rng.integers(0, d, size=d // 2)] = repeated[-1]
        if d > 1:
            repeated[-2] = repeated[-1]
        for w in (distinct, repeated):
            t1, t2 = dd1_table(sf, w), dd2_table(sf, w)
            assert np.array_equal(t1, t1.T)
            for axes in AXIS_ORDERS:
                assert np.array_equal(t2, t2.transpose(axes))
        if d > 1:
            lam = repeated[-1]
            assert t1[-1, -2] == sf.d1(np.array([lam]))[0]
            for idx in itertools.product((-1, -2), repeat=3):
                assert t2[idx] == pytest.approx(0.5 * sf.d2(np.array([lam]))[0], rel=1e-12)
        clustered = distinct.copy()
        clustered[: max(1, d - 1)] = rng.uniform(0.1, 3.0) + 1e-9 * rng.random(max(1, d - 1))
        t1, t2 = dd1_table(sf, clustered), dd2_table(sf, clustered)
        np.testing.assert_allclose(t1.T, t1, rtol=1e-14, atol=0.0)
        for axes in AXIS_ORDERS:
            np.testing.assert_allclose(t2.transpose(axes), t2, rtol=1e-14, atol=0.0)

    # away from confluence, the tables match a 50-digit oracle
    for sf in SCALAR_FUNCTIONS:
        w = np.sort(rng.uniform(0.1, 3.0, d))
        if d > 1 and np.min(np.diff(w)) < 1e-2:
            w = np.linspace(0.1, 3.0, d)
        want1, want2 = _oracle_tables(sf.name, w)
        t1, t2 = dd1_table(sf, w), dd2_table(sf, w)
        for (i, j), got in np.ndenumerate(t1):
            if i != j:
                assert abs(got - float(want1[i][j])) <= 1e-10 * max(abs(float(want1[i][j])), 1.0)
        for (i, k, j), want in want2.items():
            assert abs(t2[i, k, j] - float(want)) <= 1e-10 * max(abs(float(want)), 1.0)


def test_frechet_square_identity():
    rng = rng_for(21, "frechet", 0)
    a = random_hermitian(rng, 4)
    e = random_hermitian(rng, 4)
    assert np.max(np.abs(frechet_derivative(SQUARE, a, e) - (a @ e + e @ a))) < 1e-10


def test_frechet_identity_direction():
    rng = rng_for(21, "frechet", 1)
    a = random_pd(rng, 3, floor=0.2)
    sf = XLOGX.scalar()
    deriv = frechet_derivative(sf, a, np.eye(3))
    psi_a = XLOGX.psi().apply(a)
    assert np.max(np.abs(deriv - psi_a)) < 1e-9


def test_frechet_matches_finite_difference():
    rng = rng_for(21, "frechet", 2)
    sf = XLOGX.scalar()
    a = random_pd(rng, 3, floor=0.3)
    e = random_hermitian(rng, 3)
    fd = fd_frechet(sf.apply, a, e)
    assert np.max(np.abs(frechet_derivative(sf, a, e) - fd)) < 1e-7


def test_frechet_second_quadratic_and_affine():
    rng = rng_for(21, "frechet", 3)
    a = random_hermitian(rng, 3)
    e1 = random_hermitian(rng, 3)
    e2 = random_hermitian(rng, 3)
    second = frechet_second(SQUARE, a, e1, e2)
    assert np.max(np.abs(second - (e1 @ e2 + e2 @ e1))) < 1e-10
    affine = PhiFunction.affine(2.0, 1.0).scalar()
    assert np.max(np.abs(frechet_second(affine, a, e1, e2))) < 1e-12


def test_frechet_second_matches_finite_difference():
    rng = rng_for(21, "frechet", 4)
    sf = XLOGX.scalar()
    a = random_pd(rng, 3, floor=0.4)
    e = random_unit_hermitian(rng, 3)
    fd = fd_frechet_second(sf.apply, a, e, e)
    assert np.max(np.abs(frechet_second(sf, a, e, e) - fd)) < 1e-5


def test_frechet_second_symmetric_bilinear():
    rng = rng_for(21, "frechet", 5)
    sf = P15.scalar()
    a = random_pd(rng, 3, floor=0.3)
    e1, e2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    s12 = frechet_second(sf, a, e1, e2)
    s21 = frechet_second(sf, a, e2, e1)
    assert np.max(np.abs(s12 - s21)) < 1e-10
    combo = frechet_second(sf, a, 2.0 * e1 + e2, e2)
    expanded = 2.0 * frechet_second(sf, a, e1, e2) + frechet_second(sf, a, e2, e2)
    assert np.max(np.abs(combo - expanded)) < 1e-9


def test_superoperator_action_and_eigenvalues():
    # psi of x log x at diag(1, 2): divided-difference spectrum
    t = superoperator_of_derivative(XLOGX.psi(), np.diag([1.0, 2.0]))
    eigs = np.sort(np.linalg.eigvalsh(t))
    assert np.allclose(eigs, np.sort([1.0, 0.5, np.log(2.0), np.log(2.0)]), atol=1e-10)


def test_superoperator_scalar_reduction():
    t = superoperator_of_derivative(XLOGX.psi(), np.array([[2.0]]))
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(0.5)  # (log x + 1)' = 1/x at 2


def test_superoperator_of_linear_psi():
    # Phi = x^2 gives D Psi = 2 Id
    t = superoperator_of_derivative(PhiFunction.power(2).psi(), np.diag([1.0, 3.0]))
    assert np.allclose(t, 2.0 * np.eye(4), atol=1e-12)


def test_superoperator_matches_derivative_action():
    rng = rng_for(21, "frechet", 6)
    sf = P15.scalar()
    a = random_pd(rng, 3, floor=0.2)
    e = random_hermitian(rng, 3)
    t = superoperator_of_derivative(sf, a)
    assert np.max(np.abs(apply_superoperator(t, e) - frechet_derivative(sf, a, e))) < 1e-9


def test_superoperator_self_adjoint():
    rng = rng_for(21, "frechet", 7)
    a = random_pd(rng, 3, floor=0.2)
    t = superoperator_of_derivative(XLOGX.psi(), a)
    assert np.max(np.abs(t - t.conj().T)) < 1e-9


def test_invert_superoperator_round_trip():
    rng = rng_for(21, "frechet", 8)
    a = random_pd(rng, 3, floor=0.2)
    t = superoperator_of_derivative(XLOGX.psi(), a)
    inv = invert_superoperator(t)
    assert np.max(np.abs(inv @ t - np.eye(9))) < 1e-8
    assert np.allclose(invert_superoperator(2.0 * np.eye(4)), 0.5 * np.eye(4))


def test_invert_superoperator_singular():
    with pytest.raises(SingularSuperoperator):
        invert_superoperator(np.diag([1.0, 0.0, 0.0, 1.0]))


def test_frechet_norm_values():
    assert frechet_norm(IDENTITY, np.diag([1.0, 2.0])) == pytest.approx(1.0)
    assert frechet_norm(SQUARE, np.diag([1.0, 2.0])) == pytest.approx(4.0)


def test_frechet_norm_dominates_random_directions():
    rng = rng_for(21, "frechet", 9)
    sf = XLOGX.scalar()
    a = random_pd(rng, 3, floor=0.3)
    bound = frechet_norm(sf, a)
    for _ in range(100):
        e = random_hermitian(rng, 3)
        ratio = np.linalg.norm(frechet_derivative(sf, a, e)) / np.linalg.norm(e)
        assert ratio <= bound + 1e-9


def test_sum_rule_linearity():
    rng = rng_for(21, "frechet", 10)
    a = random_pd(rng, 3, floor=0.3)
    e = random_hermitian(rng, 3)
    f, g = XLOGX.scalar(), P15.scalar()
    lhs = 2.0 * frechet_derivative(f, a, e) + 3.0 * frechet_derivative(g, a, e)
    from matphi.phifun import ScalarFunction

    summed = ScalarFunction(
        name="combo",
        fn=lambda x: 2.0 * f.fn(x) + 3.0 * g.fn(x),
        d1=lambda x: 2.0 * f.d1(x) + 3.0 * g.d1(x),
        d2=lambda x: 2.0 * f.d2(x) + 3.0 * g.d2(x),
        domain=f.domain,
        strict_lo=True,
    )
    assert np.max(np.abs(frechet_derivative(summed, a, e) - lhs)) < 1e-9


def test_product_and_chain_rules_against_fd():
    rng = rng_for(21, "frechet", 11)
    a = random_pd(rng, 2, floor=0.5)
    e = random_unit_hermitian(rng, 2)
    f, g = XLOGX.scalar(), SQUARE

    def product(m):
        return f.apply(m) @ g.apply(m)

    lhs = frechet_derivative(f, a, e) @ g.apply(a) + f.apply(a) @ frechet_derivative(
        g, a, e
    )
    assert np.max(np.abs(lhs - fd_frechet(product, a, e))) < 1e-6

    def chain(m):
        return f.apply(g.apply(m))

    lhs = frechet_derivative(f, g.apply(a), frechet_derivative(g, a, e))
    assert np.max(np.abs(lhs - fd_frechet(chain, a, e))) < 1e-6


def test_trace_derivative_identity():
    # d/dt Tr f(A + tX) = Tr[X f'(A)]
    rng = rng_for(21, "frechet", 12)
    a = random_pd(rng, 3, floor=0.3)
    x = random_hermitian(rng, 3)
    sf = XLOGX.scalar()
    lhs = np.trace(frechet_derivative(sf, a, x)).real
    rhs = np.trace(x @ XLOGX.psi().apply(a)).real
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_second_trace_symmetry_identity():
    # Tr D^2 f[A](X, Y) = <X, D f'[A](Y)> = <Y, D f'[A](X)>
    rng = rng_for(21, "frechet", 13)
    a = random_pd(rng, 3, floor=0.3)
    x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
    sf, psi = XLOGX.scalar(), XLOGX.psi()
    lhs = np.trace(frechet_second(sf, a, x, y)).real
    mid = np.trace(x.conj().T @ frechet_derivative(psi, a, y)).real
    rhs = np.trace(y.conj().T @ frechet_derivative(psi, a, x)).real
    assert lhs == pytest.approx(mid, abs=1e-8)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_basis_invariance():
    rng = rng_for(21, "frechet", 14)
    a = random_pd(rng, 3, floor=0.3)
    e = random_hermitian(rng, 3)
    u = random_unitary(rng, 3)
    sf = XLOGX.scalar()
    direct = u @ frechet_derivative(sf, a, e) @ u.conj().T
    rotated = frechet_derivative(sf, u @ a @ u.conj().T, u @ e @ u.conj().T)
    assert np.max(np.abs(direct - rotated)) < 1e-9


def test_multivariate_reduces_to_univariate():
    rng = rng_for(21, "frechet", 15)
    a = random_pd(rng, 3, floor=0.3)
    e = random_hermitian(rng, 3)
    mf = MultivariateScalarFunction(
        n=1,
        fn=lambda x: float(x[0] * np.log(x[0])),
        partial=lambda i, x: float(np.log(x[0]) + 1.0),
    )
    uni = frechet_derivative(XLOGX.scalar(), a, e)
    multi = multivariate_partial_frechet(mf, [a], 0, e)
    assert np.max(np.abs(uni - multi)) < 1e-9


def test_multivariate_linear_function():
    rng = rng_for(21, "frechet", 16)
    d1 = np.diag(rng.uniform(0.1, 1.0, 3)).astype(complex)
    d2 = np.diag(rng.uniform(0.1, 1.0, 3)).astype(complex)
    e = random_hermitian(rng, 3)
    mf = MultivariateScalarFunction(
        n=2, fn=lambda x: float(x[0] + x[1]), partial=lambda i, x: 1.0
    )
    out = multivariate_partial_frechet(mf, [d1, d2], 0, e)
    assert np.max(np.abs(out - e)) < 1e-9


def test_multivariate_product_table_broadcast():
    lam1 = np.array([0.2, 0.5, 0.9])
    lam2 = np.array([0.3, 0.7, 0.4])
    mf = MultivariateScalarFunction(
        n=2,
        fn=lambda x: float(x[0] * x[1]),
        partial=lambda i, x: float(x[1 - i]),
    )
    table = multivariate_dd_table(mf, np.stack([lam1, lam2]), 0)
    # partial table for the first slot broadcasts the second eigenvalues
    assert np.allclose(table, np.tile(lam2[:, None], (1, 3)))


def test_multivariate_matches_fd_on_diagonal_directions():
    rng = rng_for(21, "frechet", 17)
    lam1 = rng.uniform(0.2, 1.0, 3)
    lam2 = rng.uniform(0.2, 1.0, 3)
    x1, x2 = np.diag(lam1).astype(complex), np.diag(lam2).astype(complex)
    e = np.diag(rng.standard_normal(3)).astype(complex)
    mf = MultivariateScalarFunction(
        n=2,
        fn=lambda x: float(x[0] * x[1]),
        partial=lambda i, x: float(x[1 - i]),
    )
    out = multivariate_partial_frechet(mf, [x1, x2], 0, e)
    h = 1e-6
    fd = (np.diag((lam1 + h * np.diag(e).real) * lam2) - np.diag((lam1 - h * np.diag(e).real) * lam2)) / (2 * h)
    assert np.max(np.abs(out - fd)) < 1e-7


def test_multivariate_rejects_noncommuting():
    rng = rng_for(21, "frechet", 18)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    mf = MultivariateScalarFunction(
        n=2, fn=lambda x: float(x[0] + x[1]), partial=lambda i, x: 1.0
    )
    with pytest.raises(NotCommuting) as err:
        multivariate_partial_frechet(mf, [a, b], 0, np.eye(3))
    assert err.value.commutator_norm > 0


def test_commuting_eigensystem_degenerate_split():
    # shared degeneracies resolved by the random-combination mix
    x1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    x2 = np.diag([3.0, 4.0, 4.0]).astype(complex)
    lambdas, u = commuting_eigensystem([x1, x2])
    recon1 = (u * lambdas[0]) @ u.conj().T
    recon2 = (u * lambdas[1]) @ u.conj().T
    assert np.max(np.abs(recon1 - x1)) < 1e-9
    assert np.max(np.abs(recon2 - x2)) < 1e-9


def test_inverse_map_derivatives_identity_base():
    e = np.array([[0.0, 1.0], [1.0, 0.0]])
    first, second = inverse_map_derivatives(np.eye(2), e, np.zeros((2, 2)))
    assert np.allclose(first, -e)
    assert np.allclose(second, 2.0 * e @ e)


def test_inverse_map_derivatives_scalar_calculus():
    # g(a) = a^2: d/dt (a + t h)^{-2} at 0 is -2 h / a^3
    a, h = 1.7, 0.6
    g = np.array([[a**2]])
    dg = np.array([[2 * a * h]])
    first, _ = inverse_map_derivatives(g, dg, np.array([[2 * h * h]]))
    assert first[0, 0] == pytest.approx(-2 * h / a**3, rel=1e-12)


def test_inverse_map_derivatives_match_fd():
    rng = rng_for(21, "frechet", 19)
    g = random_pd(rng, 3, floor=0.5)
    dg = random_hermitian(rng, 3)
    first, _ = inverse_map_derivatives(g, dg, np.zeros((3, 3)))
    fd = fd_frechet(np.linalg.inv, g, dg)
    assert np.max(np.abs(first - fd)) < 1e-7


def test_vec_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(vec(m), [1.0, 3.0, 2.0, 4.0])


def test_superoperator_preserves_hermiticity():
    rng = rng_for(21, "frechet", 20)
    a = random_pd(rng, 3, floor=0.2)
    t = superoperator_of_derivative(XLOGX.psi(), a)
    e = random_hermitian(rng, 3)
    image = apply_superoperator(t, e)
    assert np.max(np.abs(image - image.conj().T)) < 1e-9
