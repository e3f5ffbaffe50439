"""Divided differences, derivative Schur multipliers and their inverses."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.concentration import check_poincare_commuting
from matphi.entropy import check_char_e
from matphi.errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    NotCommuting,
    NotHermitian,
    SingularSuperoperator,
    SpectrumOutOfDomain,
)
from matphi.frechet import (
    COND_MAX,
    MultivariateScalarFunction,
    commuting_eigensystem,
    dd1_table,
    dd2_table,
    fd_frechet,
    fd_frechet_second,
    _schur,
    frechet_derivative,
    frechet_second,
    inverse_derivative_superoperator,
    inverse_frechet_derivative,
    multivariate_dd_table,
)
from matphi.models import FiniteLaw
from matphi.phifun import PhiFunction
from matphi.sampling import random_hermitian, random_pd, random_unit_hermitian, rng_for
from support import SQUARE, random_unitary

XLOGX = PhiFunction.xlogx()
P15 = PhiFunction.power(1.5)


def _dd1(sf, a, b):
    return float(dd1_table(sf, np.array([a, b]))[0, 1])


def _dd2(sf, a, b, c):
    return float(dd2_table(sf, np.array([a, b, c]))[0, 1, 2])


def test_divided_difference_square():
    assert _dd1(SQUARE, 1.0, 3.0) == pytest.approx(4.0)
    assert _dd1(SQUARE, 2.0, 2.0) == pytest.approx(4.0)


def test_divided_difference_xlogx():
    expect = np.e / (np.e - 1.0)
    assert _dd1(XLOGX.scalar(), 1.0, np.e) == pytest.approx(expect, abs=1e-12)


def test_divided_difference_second_order():
    # f = x^2 has constant second divided difference 1
    assert _dd2(SQUARE, 1.0, 2.0, 5.0) == pytest.approx(1.0)
    assert _dd2(SQUARE, 2.0, 2.0, 2.0) == pytest.approx(1.0)
    # symmetric under permutations
    sf = XLOGX.scalar()
    vals = [_dd2(sf, *perm) for perm in [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (2.0, 3.0, 1.0)]]
    assert max(vals) - min(vals) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_divided_difference_symmetry(a, b):
    sf = XLOGX.scalar()
    assert _dd1(sf, a, b) == pytest.approx(_dd1(sf, b, a), rel=1e-10)


def test_divided_difference_domain():
    # the derivative admits the spectrum before any table is built
    with pytest.raises(DomainError):
        frechet_derivative(XLOGX.scalar(), np.diag([1.0, -2.0]), np.eye(2))


GENERATORS = ["power:1", "power:1.2", "power:1.5", "power:2", "xlogx", "cube", "affine:2,1"]
SCALAR_FUNCTIONS = [
    sf for g in GENERATORS for sf in (PhiFunction.parse(g).scalar(), PhiFunction.parse(g).psi())
]
AXIS_ORDERS = list(itertools.permutations(range(3)))


@pytest.mark.parametrize("descriptor", GENERATORS)
def test_derivative_stack_matches_oracle(descriptor):
    # each family-table stack against 30-digit differentiation of Phi alone
    mpmath = pytest.importorskip("mpmath")
    gen = PhiFunction.parse(descriptor)
    phi = {
        "xlogx": lambda x: x * mpmath.log(x),
        "affine": lambda x: gen.a * x + gen.b,
    }.get(gen.kind, lambda x: x ** mpmath.mpf(3 if gen.kind == "cube" else gen.p))
    points = np.array([0.05, 0.3, 1.0, 2.7])
    assert len(gen.derivatives) == 5
    with mpmath.workdps(30):
        for order, fn in enumerate(gen.derivatives):
            values = fn(points)
            for x, value in zip(points, values):
                expect = float(mpmath.diff(phi, mpmath.mpf(float(x)), order))
                assert value == pytest.approx(expect, rel=1e-14, abs=1e-20), (order, x)


def test_generator_builds_its_calculus_once():
    for descriptor in GENERATORS:
        gen = PhiFunction.parse(descriptor)
        assert gen.scalar() is gen.scalar()
        assert gen.psi() is gen.psi()
        assert gen.scalar().fn is gen.derivatives[0]
        assert gen.psi().fn is gen.derivatives[1]
        copy = pickle.loads(pickle.dumps(gen))
        assert copy == gen and copy.psi().name == gen.psi().name
        assert copy.derivatives[0](np.array([2.0])) == gen.derivatives[0](np.array([2.0]))


def test_generator_identity_is_its_parameters():
    with pytest.raises(ConfigError):
        PhiFunction(kind="bogus")
    assert PhiFunction.parse("power:1.5") == PhiFunction.power(1.5)
    assert hash(PhiFunction.parse("power:1.5")) == hash(PhiFunction.power(1.5))
    assert PhiFunction.parse("power:1.5") != PhiFunction.power(1.2)


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


def _node_stack(rng, d):
    """Spectra with distinct, repeated (confluent) and 1e-9-clustered nodes,
    on two leading axes."""
    distinct = rng.uniform(0.1, 3.0, d)
    repeated = distinct.copy()
    repeated[rng.integers(0, d, size=d // 2)] = repeated[-1]
    clustered = distinct.copy()
    clustered[: max(1, d - 1)] = rng.uniform(0.1, 3.0) + 1e-9 * rng.random(max(1, d - 1))
    exact_tie = np.full(d, distinct[0])
    spectra = [distinct, repeated, clustered, exact_tie, np.sort(distinct), clustered[::-1]]
    return np.stack(spectra).reshape(2, 3, d)


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_dd_tables_equal_each_spectrum(d):
    rng = rng_for(21, "dd-stack", d)
    for sf in SCALAR_FUNCTIONS:
        stack = _node_stack(rng, d)
        t1, t2 = dd1_table(sf, stack), dd2_table(sf, stack)
        assert t1.shape == (2, 3, d, d) and t2.shape == (2, 3, d, d, d)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(t1[idx], dd1_table(sf, stack[idx])), (sf.name, idx)
            assert np.array_equal(t2[idx], dd2_table(sf, stack[idx])), (sf.name, idx)


@pytest.mark.parametrize(
    "call",
    [
        lambda: frechet_derivative(SQUARE, np.eye(2), np.eye(3)),
        lambda: frechet_second(SQUARE, np.eye(2), np.eye(2), np.eye(3)),
        lambda: frechet_second(SQUARE, np.eye(2), np.eye(3), np.eye(2)),
        lambda: inverse_frechet_derivative(SQUARE, np.eye(2), np.eye(3)),
        lambda: inverse_frechet_derivative(SQUARE, np.eye(2), np.stack([np.eye(3)] * 2)),
        lambda: check_char_e(XLOGX, np.eye(2), np.eye(3), np.eye(2)),
        lambda: check_char_e(XLOGX, np.eye(2), np.eye(2), np.eye(3)),
    ],
    ids=["first", "second-e2", "second-e1", "inverse", "inverse-stack", "char-e-h", "char-e-k"],
)
def test_direction_shape_mismatch_is_dimension_mismatch(call):
    shape = r"^direction of shape \(.*\) for a matrix of shape \(2, 2\)$"
    with pytest.raises(DimensionMismatch, match=shape):
        call()


def test_stacked_inverse_superoperator_equals_each_matrix():
    for d in range(1, 9):
        rng = rng_for(21, "inverse-superoperator-stack", d)
        for sf in (XLOGX.psi(), P15.psi(), PhiFunction.cube().psi()):
            stack = np.stack([random_pd(rng, d, floor=0.2) for _ in range(6)]).reshape(2, 3, d, d)
            got = inverse_derivative_superoperator(sf, stack)
            assert got.shape == (2, 3, d * d, d * d)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(got[idx], inverse_derivative_superoperator(sf, stack[idx]))


def _refusal(sf, a):
    """The type, message and smallest singular value of the error that
    refuses (Df[A])^{-1}, or None."""
    try:
        inverse_derivative_superoperator(sf, a)
    except (SpectrumOutOfDomain, SingularSuperoperator) as err:
        return type(err), str(err), getattr(err, "smallest_singular_value", None)
    return None


@pytest.mark.parametrize(
    "spectra",
    [
        ([-1.0, 1.0], [-2.0, 1.0], [0.5, 1.0]),  # two out of the domain: the first names its own
        ([3e-9, 1e4], [-1.0, 1.0], [0.5, 1.0]),  # a singular derivative before an out-of-domain one
        ([0.5, 1.0], [-1.0, 2.0], [3e-9, 1e4]),
        ([0.5, 1.0], [3e-9, 1e4], [-1.0, 2.0]),
        ([0.5, 1.0], [2.0, 3.0], [-1.0, 2.0]),
    ],
)
def test_stacked_inverse_refuses_in_turn(spectra):
    # a stack is refused as its matrices would be one at a time
    psi = XLOGX.psi()
    stack = np.stack([np.diag(w) for w in spectra]).astype(complex)
    want = next(r for r in (_refusal(psi, m) for m in stack) if r is not None)
    assert _refusal(psi, stack) == want


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


def _vec(m):
    """Column-stacking vectorization, the convention of the superoperator."""
    return np.asarray(m).reshape(-1, order="F")


def _forward_superoperator(sf, a):
    """The reference d^2 x d^2 matrix W diag(vec F) W† of Df[A], W = conj(U) (x) U."""
    w, u = np.linalg.eigh(a)
    big = np.kron(u.conj(), u)
    return big @ np.diag(_vec(dd1_table(sf, w))) @ big.conj().T


def test_superoperator_action_and_eigenvalues():
    # psi of x log x at diag(1, 2): the inverse divides by the divided differences
    t_inv = inverse_derivative_superoperator(XLOGX.psi(), np.diag([1.0, 2.0]))
    eigs = np.sort(np.linalg.eigvalsh(t_inv))
    want = 1.0 / np.array([1.0, 0.5, np.log(2.0), np.log(2.0)])
    assert np.allclose(eigs, np.sort(want), atol=1e-10)


def test_superoperator_scalar_reduction():
    t_inv = inverse_derivative_superoperator(XLOGX.psi(), np.array([[2.0]]))
    assert t_inv.shape == (1, 1)
    assert t_inv[0, 0] == pytest.approx(2.0)  # 1 / (log x + 1)' at 2
    x = inverse_frechet_derivative(XLOGX.psi(), np.array([[2.0]]), np.array([[3.0]]))
    assert x[0, 0] == pytest.approx(6.0)


def test_superoperator_of_linear_psi():
    # Phi = x^2 gives D Psi = 2 Id, so the inverse is Id / 2
    t_inv = inverse_derivative_superoperator(PhiFunction.power(2).psi(), np.diag([1.0, 3.0]))
    assert np.allclose(t_inv, 0.5 * np.eye(4), atol=1e-12)


def test_superoperator_matches_derivative_action():
    rng = rng_for(21, "frechet", 6)
    sf = P15.scalar()
    a = random_pd(rng, 3, floor=0.2)
    e = random_hermitian(rng, 3)
    t_inv = inverse_derivative_superoperator(sf, a)
    assert np.max(np.abs(t_inv @ _vec(frechet_derivative(sf, a, e)) - _vec(e))) < 1e-9
    x = inverse_frechet_derivative(sf, a, e)
    assert np.max(np.abs(t_inv @ _vec(e) - _vec(x))) < 1e-9


def test_superoperator_self_adjoint():
    rng = rng_for(21, "frechet", 7)
    a = random_pd(rng, 3, floor=0.2)
    t_inv = inverse_derivative_superoperator(XLOGX.psi(), a)
    assert np.array_equal(t_inv, t_inv.conj().T)


def test_invert_superoperator_round_trip():
    rng = rng_for(21, "frechet", 8)
    sf = XLOGX.psi()
    a = random_pd(rng, 3, floor=0.2)
    e = random_hermitian(rng, 3)
    assert np.max(np.abs(inverse_frechet_derivative(sf, a, frechet_derivative(sf, a, e)) - e)) < 1e-9
    assert np.max(np.abs(frechet_derivative(sf, a, inverse_frechet_derivative(sf, a, e)) - e)) < 1e-9
    # a stack of directions is divided matrix by matrix
    stack = np.stack([e, random_hermitian(rng, 3)])
    each = [inverse_frechet_derivative(sf, a, x) for x in stack]
    assert np.allclose(inverse_frechet_derivative(sf, a, stack), each, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("generator", ["power:1.2", "power:1.5", "power:2", "xlogx"])
def test_inverse_superoperator_matches_dense_inverse(d, generator):
    # power:1 is affine: its Psi is constant, so D Psi is zero and has no inverse
    rng = rng_for(21, "inverse-superoperator", d)
    for sf in (PhiFunction.parse(generator).scalar(), PhiFunction.parse(generator).psi()):
        a = random_pd(rng, d, floor=0.2)
        want = np.linalg.inv(_forward_superoperator(sf, a))
        got = inverse_derivative_superoperator(sf, a)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
        e = random_hermitian(rng, d)
        assert np.allclose(
            inverse_frechet_derivative(sf, a, frechet_derivative(sf, a, e)), e, rtol=0.0,
            atol=1e-9 * (1.0 + np.max(np.abs(e))),
        )


def test_invert_superoperator_singular():
    # f = x^2 has f[-1, 1] = 0: the derivative at diag(-1, 1) is singular
    with pytest.raises(SingularSuperoperator) as err:
        inverse_derivative_superoperator(SQUARE, np.diag([-1.0, 1.0]))
    assert err.value.smallest_singular_value == 0.0
    with pytest.raises(SingularSuperoperator):
        inverse_frechet_derivative(SQUARE, np.diag([-1.0, 1.0]), np.eye(2))


@pytest.mark.parametrize("top", [0.5, 1e11, COND_MAX * (1 - 1e-9), COND_MAX * (1 + 1e-9), 1e13])
def test_singular_exactly_at_condition_threshold(top):
    # f = x^2 at diag(1, top): F = [[2, 1 + top], [1 + top, 2 top]], so for
    # top >= 1 the condition number max|F| / min|F| is exactly top
    a = np.diag([1.0, top])
    table = np.abs(dd1_table(SQUARE, np.array([1.0, top])))
    singular = table.min() == 0 or table.max() / table.min() > COND_MAX
    assert singular == (top > COND_MAX)
    for inverse in (
        lambda: inverse_derivative_superoperator(SQUARE, a),
        lambda: inverse_frechet_derivative(SQUARE, a, np.eye(2)),
    ):
        if singular:
            with pytest.raises(SingularSuperoperator) as err:
                inverse()
            assert err.value.smallest_singular_value == table.min()
        else:
            inverse()


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
    lambdas, u = commuting_eigensystem([a])
    table = multivariate_dd_table(mf, lambdas, 0)
    assert np.max(np.abs(table - dd1_table(XLOGX.scalar(), lambdas[0]))) < 1e-12
    uni = frechet_derivative(XLOGX.scalar(), a, e)
    assert np.max(np.abs(uni - _schur(u, table, e))) < 1e-9


def test_multivariate_linear_function():
    rng = rng_for(21, "frechet", 16)
    d1 = np.diag(rng.uniform(0.1, 1.0, 3)).astype(complex)
    d2 = np.diag(rng.uniform(0.1, 1.0, 3)).astype(complex)
    e = random_hermitian(rng, 3)
    mf = MultivariateScalarFunction(
        n=2, fn=lambda x: float(x[0] + x[1]), partial=lambda i, x: 1.0
    )
    lambdas, u = commuting_eigensystem([d1, d2])
    table = multivariate_dd_table(mf, lambdas, 0)
    assert np.max(np.abs(table - 1.0)) < 1e-12
    assert np.max(np.abs(_schur(u, table, e) - e)) < 1e-9


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
    lambdas, u = commuting_eigensystem([x1, x2])
    out = _schur(u, multivariate_dd_table(mf, lambdas, 0), e)
    h = 1e-6
    fd = (np.diag((lam1 + h * np.diag(e).real) * lam2) - np.diag((lam1 - h * np.diag(e).real) * lam2)) / (2 * h)
    assert np.max(np.abs(out - fd)) < 1e-7


def test_multivariate_rejects_noncommuting():
    rng = rng_for(21, "frechet", 18)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    with pytest.raises(NotCommuting) as err:
        commuting_eigensystem([a, b])
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


def test_vec_column_stacking():
    # T^{-1} acts on column-stacked matrices; a complex eigenbasis tells the
    # column- and row-stacking conventions apart
    rng = rng_for(21, "frechet", 21)
    sf = XLOGX.psi()
    a = random_pd(rng, 3, floor=0.2)
    e = random_hermitian(rng, 3)
    t_inv = inverse_derivative_superoperator(sf, a)
    x = inverse_frechet_derivative(sf, a, e)
    assert np.max(np.abs(t_inv @ _vec(e) - _vec(x))) < 1e-9
    assert np.max(np.abs(t_inv @ e.reshape(-1) - x.reshape(-1))) > 1e-3


def test_superoperator_preserves_hermiticity():
    rng = rng_for(21, "frechet", 20)
    a = random_pd(rng, 3, floor=0.2)
    e = random_hermitian(rng, 3)
    image = inverse_frechet_derivative(XLOGX.psi(), a, e)
    assert np.array_equal(image, image.conj().T)
    t_inv = inverse_derivative_superoperator(XLOGX.psi(), a)
    image = (t_inv @ _vec(e)).reshape(3, 3, order="F")
    assert np.max(np.abs(image - image.conj().T)) < 1e-9


def test_fd_frechet_second_default_step():
    # power:2 at d = 4, an instance where the step 1e-5 (1 + ||A||) missed 1e-4
    rng = rng_for(8, "bench-calculus-derivatives", 182)
    a = random_pd(rng, 4, floor=0.4)
    e = random_unit_hermitian(rng, 4)
    sf = PhiFunction.power(2).scalar()
    exact = frechet_second(sf, a, e, e)
    rel = np.linalg.norm(exact - fd_frechet_second(sf.apply, a, e, e)) / (
        1.0 + np.linalg.norm(exact)
    )
    assert rel < 1e-6


def _fd_first_per_point(apply_fn, a, e):
    """fd_frechet as one ``apply_fn`` call per point."""
    h = 1e-5 * (1.0 + float(np.linalg.norm(a)))
    return (apply_fn(a + h * e) - apply_fn(a - h * e)) / (2.0 * h)


def _fd_second_per_point(apply_fn, a, e1, e2, h=None):
    """fd_frechet_second as one ``apply_fn`` call per point, f(A) again in
    each central difference."""
    if h is None:
        h = 1e-3 * (1.0 + float(np.linalg.norm(a)))

    def second_along(e, step):
        return (apply_fn(a + step * e) - 2.0 * apply_fn(a) + apply_fn(a - step * e)) / step**2

    def mixed(step):
        if e1 is e2 or np.array_equal(e1, e2):
            return second_along(e1, step)
        return 0.25 * (second_along(e1 + e2, step) - second_along(e1 - e2, step))

    return (4.0 * mixed(h / 2.0) - mixed(h)) / 3.0


FD_LABELS = ("xlogx", "power:1.2", "power:1.5", "power:2")


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_oracles_equal_the_per_point_formulas(d):
    # 4 generators x 63 draws at each of the 8 sizes: 2,016 cases, each
    # judged on the first oracle and on the second along equal directions
    # at an explicit step and along distinct ones at the default step
    for label in FD_LABELS:
        sf = PhiFunction.parse(label).scalar()
        for draw in range(63):
            rng = rng_for(31, f"fd-stack-{label}", 64 * d + draw)
            a = random_pd(rng, d, floor=0.4).astype(complex)
            e1, e2 = (random_unit_hermitian(rng, d).astype(complex) for _ in range(2))
            pairs = (
                (fd_frechet(sf.apply, a, e1), _fd_first_per_point(sf.apply, a, e1)),
                (
                    fd_frechet_second(sf.apply, a, e1, e1.copy(), h=1e-3),
                    _fd_second_per_point(sf.apply, a, e1, e1.copy(), h=1e-3),
                ),
                (
                    fd_frechet_second(sf.apply, a, e1, e2),
                    _fd_second_per_point(sf.apply, a, e1, e2),
                ),
            )
            for got, want in pairs:
                assert got.tobytes() == want.tobytes(), (label, d, draw)


def test_each_oracle_makes_one_stacked_call():
    for d in (1, 3, 8):
        rng = rng_for(31, "fd-stack-calls", d)
        a = random_pd(rng, d, floor=0.4)
        e1, e2 = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
        shapes = []

        def apply(m):
            shapes.append(m.shape)
            return XLOGX.scalar().apply(m)

        for call, points in (
            (lambda: fd_frechet(apply, a, e1), 2),
            (lambda: fd_frechet_second(apply, a, e1, e1), 5),
            (lambda: fd_frechet_second(apply, a, e1, e1.copy(), h=1e-3), 5),
            (lambda: fd_frechet_second(apply, a, e1, e2), 9),
        ):
            shapes.clear()
            call()
            assert shapes == [(points, d, d)]


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
def test_fd_frechet_second_refuses_a_bad_step(h):
    calls = []
    a, e = np.eye(2), np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match=r"^finite-difference step must be finite and positive"):
        fd_frechet_second(lambda m: calls.append(m) or m, a, e, e, h=h)
    assert calls == []


def test_fd_frechet_second_polarization_matches_frechet_second():
    worst = 0.0
    for label in ("xlogx", "power:1.2", "power:1.5"):
        sf = PhiFunction.parse(label).scalar()
        for d in range(1, 9):
            for draw in range(5):
                rng = rng_for(0, f"fd-polarization-{label}", 8 * draw + d)
                a = random_pd(rng, d, floor=0.4)
                e1, e2 = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
                exact = frechet_second(sf, a, e1, e2)
                approx = fd_frechet_second(sf.apply, a, e1, e2)
                rel = np.linalg.norm(exact - approx) / (1.0 + np.linalg.norm(exact))
                worst = max(worst, rel)
    assert worst < 1e-6


# each public entry that validates an instance's operands as one stack, with
# the number of directions it takes
INSTANCE_ENTRIES = {
    "first": (lambda a, e: frechet_derivative(SQUARE, a, e), 1),
    "second": (lambda a, e1, e2: frechet_second(SQUARE, a, e1, e2), 2),
    "inverse": (lambda a, x: inverse_frechet_derivative(SQUARE, a, x), 1),
    "char-e": (lambda a, h, k: check_char_e(XLOGX, a, h, k), 2),
}


@pytest.mark.parametrize("entry", INSTANCE_ENTRIES)
def test_instance_operands_are_validated_as_one_stack(entry):
    call, count = INSTANCE_ENTRIES[entry]
    eye = np.eye(2, dtype=complex)
    nan = eye.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    for slot in range(count + 1):
        operands = [eye] * (count + 1)
        operands[slot] = nan
        with pytest.raises(NotHermitian, match=r"^matrix entries must be finite$"):
            call(*operands)
        operands[slot] = np.stack([eye, eye])
        if slot == 0 or entry != "inverse":  # X may be a stack, A may not
            with pytest.raises(NotHermitian, match=r"^expected a square matrix"):
                call(*operands)
    # a stack-wide sup would scale the unit matrix's tolerance by 1e3 and excuse it
    skew, big = np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex), 1e3 * eye
    for slot in range(count + 1):
        operands = [big] * (count + 1)
        operands[slot] = skew
        with pytest.raises(NotHermitian, match=r"^hermiticity deviation 1\.000e-09"):
            call(*operands)


def test_operand_shapes_are_refused_before_their_entries():
    # a wrong-shape direction is named even beside a non-Hermitian A
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        frechet_derivative(SQUARE, skew, np.eye(3))
    with pytest.raises(NotHermitian):
        frechet_derivative(SQUARE, skew, np.eye(2))


def test_commuting_tuple_of_unequal_shapes_is_dimension_mismatch():
    mixed = r"^commuting tuple mixes shapes \(2, 2\) and \(3, 3\)$"
    with pytest.raises(DimensionMismatch, match=mixed):
        commuting_eigensystem([np.eye(2), np.eye(3)])
    laws = (
        FiniteLaw(np.array([0.5, 0.5]), (np.eye(2), 0.5 * np.eye(2))),
        FiniteLaw(np.array([0.5, 0.5]), (np.eye(3), 0.5 * np.eye(3))),
    )
    squares = MultivariateScalarFunction(
        n=2, fn=lambda x: float(np.sum(x**2)), partial=lambda i, x: float(2 * x[i])
    )
    with pytest.raises(DimensionMismatch) as err:
        check_poincare_commuting(laws, squares)
    assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match="at least one matrix"):
        commuting_eigensystem([])


def test_commuting_tuple_is_validated_as_one_stack():
    eye = np.eye(2, dtype=complex)
    nan = eye.copy()
    nan[0, 0] = np.nan
    with pytest.raises(NotHermitian, match=r"^matrix entries must be finite$"):
        commuting_eigensystem([eye, nan])
    with pytest.raises(NotHermitian, match=r"^expected a square matrix"):
        commuting_eigensystem([np.ones(2), np.ones(2)])
    skew, big = np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex), 1e3 * eye
    with pytest.raises(NotHermitian):
        commuting_eigensystem([big, skew])
