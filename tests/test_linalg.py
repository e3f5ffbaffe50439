"""Standard functions, norms, spectral intervals and input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.errors import (
    ConfigError,
    InvalidExponent,
    NotHermitian,
    SpectrumOutOfDomain,
)
from matphi.formats import kernel_from_obj
from matphi.fourier import MatrixBooleanFunction, check_log_sobolev, check_phi_sobolev
from matphi.frechet import frechet_derivative
from matphi.holevo import CQEnsemble, MarkovKernel, eta_phi, kernel_push
from matphi.linalg import (
    NONNEGATIVE,
    REALS,
    UNIT_INTERVAL,
    SpectralInterval,
    apply_standard_function,
    eigenvalues,
    hermitian_part,
    normalized_trace,
    positive_part,
    psd_power,
    schatten_norm,
    spectral_map,
)
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel
from matphi.phifun import PhiFunction, ScalarFunction
from matphi.sampling import random_hermitian, random_psd, rng_for
from support import constant_function, negative_part, random_unitary, require_hermitian

SQRT = ScalarFunction("sqrt", np.sqrt, domain=NONNEGATIVE)


def _slightly_skew_unit_and_big():
    skew = np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex)
    big = 1e3 * np.eye(2, dtype=complex)
    return np.stack([skew, big])


@pytest.mark.parametrize(
    "build",
    [
        lambda stack: DiscreteRandomMatrix(np.array([0.5, 0.5]), stack),
        lambda stack: MatrixBooleanFunction(1, stack),
        lambda stack: CQEnsemble(np.array([0.5, 0.5]), stack),
    ],
    ids=["law", "boolean-function", "ensemble"],
)
def test_stack_validation_keeps_each_matrix_tolerance(build):
    # a stack-wide sup would scale the unit matrix's tolerance by 1e3 and excuse it
    with pytest.raises(NotHermitian):
        build(_slightly_skew_unit_and_big())


# one row per place a probability vector enters; strict rows refuse a zero
PROBABILITY_ENTRIES = {
    "discrete-random-matrix": (lambda p: DiscreteRandomMatrix(p, np.stack([np.eye(2)] * 2)), True),
    "finite-law": (lambda p: FiniteLaw(p, (0, 1)), True),
    "cq-ensemble": (lambda p: CQEnsemble(p, np.stack([np.eye(2) / 2] * 2)), False),
    "kernel-rows": (lambda p: MarkovKernel(np.stack([[0.5, 0.5], p])), False),
    "kernel-file-mu": (lambda p: kernel_from_obj({"rows": [[1, 0], [0, 1]], "mu": list(p)}), False),
    "eta-mu": (lambda p: eta_phi(p, MarkovKernel.identity(2), d=1, restarts=1, hill_steps=1), True),
    "kernel-push-mu": (lambda p: kernel_push(p, MarkovKernel.identity(2)), False),
}
PROBABILITY_COLUMNS = {
    "nan": [0.5, np.nan],
    "negative": [1.5, -0.5],
    "zero": [1.0, 0.0],
    "sum-off": [0.5, 0.5 + 2e-12],
}


def _probability_refusal(entry, column):
    """The error class the entry raises on the column's vector, or None."""
    if column == "zero" and not PROBABILITY_ENTRIES[entry][1]:
        return None
    return ConfigError if entry == "kernel-file-mu" else ValueError


@pytest.mark.parametrize("column", list(PROBABILITY_COLUMNS))
@pytest.mark.parametrize("entry", list(PROBABILITY_ENTRIES))
def test_probability_rule_at_every_entry(entry, column):
    build, _ = PROBABILITY_ENTRIES[entry]
    probs = np.array(PROBABILITY_COLUMNS[column])
    expected = _probability_refusal(entry, column)
    if expected is None:
        build(probs)
        return
    with pytest.raises(expected) as err:
        build(probs)
    assert "\n" not in str(err.value)
    if entry == "kernel-rows":
        assert "kernel row 1:" in str(err.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CQEnsemble(np.array([0.5, 0.5]), np.stack([np.diag([1.2, -0.2])] * 2)),
        lambda: MatrixInputModel(
            (FiniteLaw.uniform((np.eye(2), 2 * np.eye(2))),), sum, lambda xs, i: 1.0
        ),
        lambda: check_phi_sobolev(constant_function(1, -np.eye(2)), 1.5),
        lambda: check_log_sobolev(constant_function(1, -np.eye(2))),
    ],
    ids=["ensemble-state", "matrix-input", "phi-sobolev", "log-sobolev"],
)
def test_spectrum_rule_refuses_in_one_line(build):
    with pytest.raises(SpectrumOutOfDomain) as err:
        build()
    assert "\n" not in str(err.value)
    assert err.value.offending


def test_standard_function_identity_and_square():
    rng = rng_for(11, "linalg", 1)
    a = random_hermitian(rng, 3)
    assert np.allclose(apply_standard_function(lambda x: x, a), a)
    sq = apply_standard_function(np.square, np.diag([1.0, 2.0]))
    assert np.allclose(sq, np.diag([1.0, 4.0]))


def test_standard_function_xlogx_half_identity():
    def xlogx(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] * np.log(x[pos])
        return out

    result = ScalarFunction("xlogx", xlogx, domain=NONNEGATIVE).apply(0.5 * np.eye(2))
    assert np.allclose(result, 0.5 * np.log(0.5) * np.eye(2))


def test_standard_function_domain_violation():
    with pytest.raises(SpectrumOutOfDomain) as err:
        SQRT.apply(np.diag([1.0, -2.0]))
    assert any(v < 0 for v in err.value.offending)


def test_spectral_mapping():
    rng = rng_for(11, "linalg", 2)
    a = random_psd(rng, 4)
    out = SQRT.apply(a)
    expect = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh(a), 0, None)))
    assert np.allclose(np.linalg.eigvalsh(out), expect, atol=1e-9)


def test_normalized_trace_values():
    assert normalized_trace(np.eye(5)) == pytest.approx(1.0)
    assert normalized_trace(np.diag([2.0, 0.0])) == pytest.approx(1.0)
    rng = rng_for(11, "linalg", 3)
    a = random_hermitian(rng, 4)
    assert normalized_trace(a) == pytest.approx(np.mean(np.linalg.eigvalsh(a)), abs=1e-12)


def test_schatten_norm_values():
    assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3))
    assert schatten_norm(np.diag([3.0, -4.0]), 1) == pytest.approx(7.0)
    with pytest.raises(InvalidExponent):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_norm_monotonicity_in_p():
    # classical lp monotonicity: the summed norm decreases in p while the
    # averaged (normalized) norm increases, by the power-mean inequality
    rng = rng_for(11, "linalg", 4)
    a = random_hermitian(rng, 4)
    grid = (1.0, 1.5, 2.0, 3.0)
    summed = [schatten_norm(a, p) for p in grid]
    assert all(x >= y - 1e-12 for x, y in zip(summed, summed[1:]))
    averaged = [schatten_norm(a, p, normalized=True) for p in grid]
    assert all(x <= y + 1e-12 for x, y in zip(averaged, averaged[1:]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1.0, 2.0]))
def test_schatten_triangle_inequality(seed, p):
    rng = rng_for(seed, "linalg-triangle", 0)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-10


def test_positive_part_basics():
    rng = rng_for(11, "linalg", 5)
    psd = random_psd(rng, 3)
    assert np.allclose(positive_part(psd), psd, atol=1e-10)
    assert np.allclose(positive_part(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))


def test_positive_negative_split():
    rng = rng_for(11, "linalg", 6)
    a = random_hermitian(rng, 4)
    plus, minus = positive_part(a), negative_part(a)
    assert np.max(np.abs(a - (plus - minus))) < 1e-10
    assert np.max(np.abs(plus @ minus)) < 1e-9
    # trace-norm identity
    assert schatten_norm(a, 1) == pytest.approx(
        np.trace(plus).real + np.trace(minus).real, abs=1e-10
    )


def test_positive_part_scaling_and_idempotence():
    rng = rng_for(11, "linalg", 7)
    a = random_hermitian(rng, 3)
    assert np.allclose(positive_part(2.5 * a), 2.5 * positive_part(a), atol=1e-10)
    assert np.allclose(positive_part(positive_part(a)), positive_part(a), atol=1e-10)


def test_trace_convexity_jensen():
    # normalized-trace Jensen for convex f over many random matrices
    rng = rng_for(11, "linalg", 8)
    for _ in range(1000):
        a = random_hermitian(rng, 3)
        lhs = normalized_trace(apply_standard_function(np.exp, a))
        rhs = np.exp(normalized_trace(a))
        assert lhs >= rhs - 1e-10


def test_basis_invariance_of_norms():
    rng = rng_for(11, "linalg", 9)
    a = random_hermitian(rng, 3)
    u = random_unitary(rng, 3)
    rotated = u @ a @ u.conj().T
    assert schatten_norm(rotated, 1.7) == pytest.approx(schatten_norm(a, 1.7), abs=1e-9)


def test_spectral_interval_validation():
    with pytest.raises(ValueError):
        SpectralInterval(2.0, 1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_non_finite_entries_are_not_hermitian(entry, where):
    # NaN and inf entries passed every deviation comparison
    bad = np.eye(2, dtype=complex)
    if where == "diagonal":
        bad[0, 0] = entry
    else:
        bad[0, 1] = bad[1, 0] = entry
    for build in (
        lambda: DiscreteRandomMatrix(np.array([0.5, 0.5]), np.stack([np.eye(2), bad])),
        lambda: require_hermitian(bad),
        lambda: frechet_derivative(PhiFunction.xlogx().scalar(), bad, np.eye(2)),
    ):
        with pytest.raises(NotHermitian) as err:
            build()
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("interval", [REALS, NONNEGATIVE, UNIT_INTERVAL])
def test_spectral_interval_refuses_non_finite_eigenvalues(value, interval):
    with pytest.raises(SpectrumOutOfDomain) as err:
        interval.admit(np.array([[0.5, 0.5], [0.5, value]]))
    assert "\n" not in str(err.value)
    assert len(err.value.offending) == 1 and not np.isfinite(err.value.offending[0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_helpers_match_per_matrix(d):
    # the (..., d, d) core gives each matrix of a stack exactly its own
    # result; at d = 1 the eigenvalue shortcut must equal LAPACK's answer
    rng = rng_for(13, "linalg-stack", d)
    k = 5
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    herm = hermitian_part(g)
    psd = np.stack([random_psd(rng, d) for _ in range(k)])
    assert np.array_equal(herm, np.stack([0.5 * (m + m.conj().T) for m in g]))
    assert np.array_equal(eigenvalues(herm), np.stack([np.linalg.eigvalsh(m) for m in herm]))
    assert np.array_equal(spectral_map(np.exp, herm), np.stack([spectral_map(np.exp, m) for m in herm]))
    assert np.array_equal(psd_power(psd, 1.5), np.stack([psd_power(m, 1.5) for m in psd]))
    # several spectra from one decomposition
    both = spectral_map(lambda w: np.stack([w, w**2]), herm)
    assert np.array_equal(both[0], spectral_map(lambda w: w, herm))
    assert np.array_equal(both[1], spectral_map(lambda w: w**2, herm))
    # the stack-capable entry points validate and act matrix by matrix
    assert np.array_equal(positive_part(herm), np.stack([positive_part(m) for m in herm]))
    assert np.array_equal(negative_part(herm), np.stack([negative_part(m) for m in herm]))
    for p in (1.0, 1.5, 3.0):
        for normalized in (False, True):
            assert np.array_equal(
                schatten_norm(herm, p, normalized),
                [schatten_norm(m, p, normalized) for m in herm],
            )
    assert np.array_equal(
        SQRT.apply(psd), np.stack([SQRT.apply(m) for m in psd]),
    )
    # a law expectation over a (K, ...) stack of per-value quantities;
    # dyadic weights and integer entries make every summation order exact
    ints = np.round(4.0 * herm.real[:4]) + 1j * np.round(4.0 * herm.imag[:4])
    law = DiscreteRandomMatrix(np.array([0.5, 0.25, 0.125, 0.125]), ints)
    parts = (ints, ints @ ints)
    per_matrix = [sum(p * m for p, m in zip(law.probs, part)) for part in parts]
    assert np.array_equal(law.expect(np.stack(parts, axis=1)), np.stack(per_matrix))
    assert np.array_equal(law.expect(ints @ ints), per_matrix[1])
    assert np.array_equal(law.mean(), per_matrix[0])
    with pytest.raises(NotHermitian):
        require_hermitian(herm)
