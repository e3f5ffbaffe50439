"""Walsh transforms, hypercontractive inequalities, and the tight-bound
counterexample search."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matphi.concentration
import matphi.fourier
from matphi.errors import DomainError
from matphi.fourier import (
    FourierTable,
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_p_variance_limit,
    check_phi_sobolev,
    dirichlet_energy_flip,
    dirichlet_energy_spectral,
    entropy_of_square,
    fourier_transform,
    inverse_fourier,
    noise_operator,
    p_variance,
    parseval_check,
    _lsi_accept,
    _lsi_move,
    _lsi_objective,
    _lsi_score,
    _lsi_state,
    _table_of,
    search_lsi_counterexample,
    uniform_cube_model,
    _fwht,
    _square_entropy,
)
from matphi import suites
from matphi.concentration import agreed_form, dirichlet_energy_forms, efron_stein_quantity
from matphi.entropy import phi_entropy
from matphi.errors import MatPhiError
from matphi.models import DiscreteRandomMatrix
from matphi.phifun import XLOGX
from matphi.sampling import random_boolean_function, random_complex_gaussian, random_law, rng_for
from support import constant_function, law_from_scalars


def _random_function(seed, n, d, psd=False, index=0):
    rng = rng_for(seed, "fourier-tests", index)
    return MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=psd))


def test_transform_constant():
    c = np.array([[2.0, 1j], [-1j, 1.0]])
    f = constant_function(3, c)
    coeffs = fourier_transform(f).coeffs
    assert np.max(np.abs(coeffs[0] - c)) < 1e-14
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_transform_dictator():
    tab = np.stack([np.eye(2), -np.eye(2)])  # f(x) = (-1)^x I
    coeffs = fourier_transform(MatrixBooleanFunction(1, tab)).coeffs
    assert np.max(np.abs(coeffs[0])) < 1e-14
    assert np.max(np.abs(coeffs[1] - np.eye(2))) < 1e-14


def test_inverse_single_coefficient():
    c = np.array([[1.0, 0.0], [0.0, -1.0]])
    coeffs = np.zeros((2, 2, 2), dtype=complex)
    coeffs[1] = c  # S = {1} on one bit
    f = inverse_fourier(FourierTable(1, coeffs))
    assert np.allclose(f.table[0], c)
    assert np.allclose(f.table[1], -c)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
)
def test_round_trip_property(seed, n, d):
    f = _random_function(seed, n, d)
    back = inverse_fourier(fourier_transform(f))
    assert np.max(np.abs(back.table - f.table)) < 1e-12


def test_noise_operator_endpoints():
    f = _random_function(7, 4, 2)
    table = fourier_transform(f)
    unchanged = noise_operator(table, 1.0)
    assert np.max(np.abs(unchanged.coeffs - table.coeffs)) < 1e-14
    killed = noise_operator(table, 0.0)
    assert np.max(np.abs(killed.coeffs[1:])) < 1e-14
    assert np.max(np.abs(killed.coeffs[0] - table.coeffs[0])) < 1e-14


def test_noise_operator_composition():
    f = _random_function(8, 5, 2)
    table = fourier_transform(f)
    lhs = noise_operator(noise_operator(table, 0.7), 0.4)
    rhs = noise_operator(table, 0.28)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_parseval_cases():
    c = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert parseval_check(constant_function(2, c)).passed
    assert parseval_check(_random_function(9, 6, 3)).passed


def test_dirichlet_energy_forms_agree():
    f = _random_function(10, 5, 3)
    spectral = dirichlet_energy_spectral(f)
    flip = dirichlet_energy_flip(f)
    resampled = efron_stein_quantity(uniform_cube_model(f))
    assert spectral == pytest.approx(flip, abs=1e-10)
    assert spectral == pytest.approx(resampled, abs=1e-10)
    assert dirichlet_energy_forms(f) == (spectral, flip, resampled)
    assert agreed_form(dirichlet_energy_forms(f), "Dirichlet energy forms") == spectral


@pytest.mark.parametrize("skew, agrees", [(0.3e-10, True), (3e-10, False)])
def test_dirichlet_forms_disagreement_raises_and_fails_the_suite(monkeypatch, skew, agrees):
    # one form off by skew (1 + |f0|) against the shared 1e-10 relative tolerance
    flip = matphi.fourier.dirichlet_energy_flip
    monkeypatch.setattr(
        matphi.concentration, "dirichlet_energy_flip",
        lambda f: flip(f) + skew * (1.0 + abs(flip(f))),
    )
    f = _random_function(10, 4, 2)
    rep = suites.CHECKS["dirichlet-identity"]("dirichlet-identity", suites.RunConfig(trials=3))
    assert rep.passed == agrees
    forms = dirichlet_energy_forms(f)
    assert forms[1] != flip(f)
    if agrees:
        assert agreed_form(forms, "Dirichlet energy forms") == dirichlet_energy_spectral(f)
    else:
        with pytest.raises(MatPhiError, match="Dirichlet energy forms disagree"):
            agreed_form(forms, "Dirichlet energy forms")


def test_dirichlet_energy_examples():
    c = np.array([[1.0, 0.0], [0.0, 2.0]])
    for form in dirichlet_energy_forms(constant_function(3, c)):
        assert form == pytest.approx(0.0)
    dictator = MatrixBooleanFunction(1, np.stack([np.eye(2), -np.eye(2)]))
    for form in dirichlet_energy_forms(dictator):
        assert form == pytest.approx(1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_entropy_of_square_is_the_xlogx_entropy_of_the_squares(d):
    tables = np.stack([_random_function(12, 3, d, psd=True, index=i).table for i in range(4)])
    tables[0] = 0.0  # zero eigenvalues contribute 0 log 0 = 0
    fs = [MatrixBooleanFunction(3, t) for t in tables]
    ents = np.array([entropy_of_square(f) for f in fs])
    assert np.array_equal(_square_entropy(tables), ents)
    assert ents[0] == 0.0
    for f, ent in zip(fs[1:], ents[1:]):
        squares = f.table @ f.table
        law = DiscreteRandomMatrix(np.full(len(squares), 1.0 / len(squares)), squares)
        assert ent == pytest.approx(phi_entropy(XLOGX, law), rel=1e-14, abs=0.0)


def test_bonami_beckner_boundaries():
    f = _random_function(11, 4, 2, psd=True)
    # p = 2 is Parseval equality; p = 1 is the triangle inequality
    rep2 = check_bonami_beckner(f, 2.0)
    assert rep2.passed
    assert abs(rep2.details["lhs"] - rep2.details["rhs"]) < 1e-9
    rep1 = check_bonami_beckner(f, 1.0)
    assert rep1.passed


def test_bonami_beckner_sweep():
    for trial in range(100):
        f = _random_function(12, 4, 3, psd=True, index=trial)
        p = (1.0, 1.25, 1.5, 1.75, 2.0)[trial % 5]
        assert check_bonami_beckner(f, p).passed


def test_bonami_beckner_invalid_exponent():
    f = _random_function(13, 2, 2)
    with pytest.raises(DomainError):
        check_bonami_beckner(f, 2.5)


def test_phi_sobolev_scalar_reduction():
    # d = 1 removes the defect term: rhs = (2 - p) E(f)
    f = _random_function(14, 3, 1, psd=True)
    rep = check_phi_sobolev(f, 1.5)
    assert rep.passed
    assert rep.details["rhs"] == pytest.approx(
        (2 - 1.5) * dirichlet_energy_flip(f), abs=1e-12
    )
    assert rep.details["lhs"] <= rep.details["rhs"] + 1e-10


def test_phi_sobolev_constant():
    c = np.diag([1.0, 0.4]).astype(complex)
    rep = check_phi_sobolev(constant_function(2, c), 1.5)
    assert rep.passed
    assert rep.details["lhs"] == pytest.approx(0.0, abs=1e-12)


def test_phi_sobolev_sweep():
    for trial in range(100):
        f = _random_function(15, 4, 2, psd=True, index=trial)
        p = (1.1, 1.5, 1.9)[trial % 3]
        assert check_phi_sobolev(f, p).passed


def test_log_sobolev_constant_and_random():
    c = np.diag([1.0, 0.4]).astype(complex)
    rep = check_log_sobolev(constant_function(2, c))
    assert rep.passed
    for trial in range(100):
        f = _random_function(16, 4, 2, psd=True, index=trial)
        assert check_log_sobolev(f).passed


def test_log_sobolev_scalar_two_point():
    # classical two-point check against the scalar formula
    a, b = 1.7, 0.4
    f = MatrixBooleanFunction(1, np.array([[[a]], [[b]]], dtype=complex))
    rep = check_log_sobolev(f)
    ent = 0.5 * (a**2 * np.log(a**2) + b**2 * np.log(b**2))
    mean = 0.5 * (a**2 + b**2)
    ent -= mean * np.log(mean)
    assert rep.details["entropy"] == pytest.approx(ent, abs=1e-12)
    assert rep.details["energy"] == pytest.approx((a - b) ** 2 / 4, abs=1e-12)
    assert rep.passed  # classical tight bound


def test_sobolev_gap_converges_to_lsi_gap():
    # the normalized interpolation gap at p = 2 - eps approaches the
    # log-Sobolev gap as eps shrinks
    f = _random_function(17, 3, 2, psd=True)
    lsi = check_log_sobolev(f)
    lsi_gap = lsi.details["rhs"] - lsi.details["entropy"]
    gaps = []
    for eps in (0.1, 0.01):
        rep = check_phi_sobolev(f, 2.0 - eps)
        gaps.append(2.0 * (rep.details["rhs"] - rep.details["lhs"]) / eps)
    assert abs(gaps[1] - lsi_gap) < abs(gaps[0] - lsi_gap) + 1e-9
    assert gaps[1] == pytest.approx(lsi_gap, rel=0.05)


def test_p_variance_limit_constant():
    m = np.diag([1.0, 2.0]).astype(complex)
    law = DiscreteRandomMatrix(np.array([0.5, 0.5]), np.stack([m, m]))
    assert np.max(np.abs(p_variance(law, 1.9))) < 1e-12
    assert check_p_variance_limit(law).passed


def test_p_variance_limit_scalar_value():
    law = law_from_scalars([(0.5, 1.0), (0.5, 2.0)])
    rep = check_p_variance_limit(law)
    assert rep.passed
    # closed-form limit: (1/2) E[Z^2 log Z^2] - (1/2) E[Z^2] log E[Z^2]
    limit = 0.5 * (0.5 * (0.0 + 4 * np.log(4))) - 0.5 * 2.5 * np.log(2.5)
    assert limit == pytest.approx(0.24093, abs=1e-4)


def test_p_variance_limit_random_sweep():
    for trial in range(50):
        rng = rng_for(18, "p-variance", trial)
        law = random_law(rng, 2, 2, psd=True, pd_floor=0.2)
        rep = check_p_variance_limit(law)
        assert rep.passed, f"trial {trial}: {rep.details}"
        assert rep.details["linear_shrink"]


@pytest.mark.parametrize("seed, trial", [(477, 14), (504, 16)])
def test_p_variance_limit_judges_shrinkage_on_the_finest_pair(seed, trial):
    # the coarse pair of these laws is not yet linear in 2 - p; the pair the
    # extrapolation uses is, and the extrapolated error is within 1e-4
    law = random_law(rng_for(seed, "p-variance-limit", trial), 2, 2, psd=True, pd_floor=0.2)
    rep = check_p_variance_limit(law)
    assert rep.passed and rep.details["linear_shrink"] and rep.max_gap < 1e-4


@pytest.mark.parametrize("fault", [
    lambda v, law, p: v(law, p) + 1e-3 * np.eye(law.d),
    lambda v, law, p: v(law, p) * (1.0 + 1e-3),
], ids=["plus-identity", "relative"])
def test_p_variance_limit_catches_a_p_variance_fault(monkeypatch, fault):
    real = matphi.fourier.p_variance
    monkeypatch.setattr(matphi.fourier, "p_variance", lambda law, p: fault(real, law, p))
    for trial in range(50):
        law = random_law(rng_for(18, "p-variance-fault", trial), 2, 2, psd=True, pd_floor=0.2)
        assert not check_p_variance_limit(law).passed, trial


def test_p_variance_limit_rejects_singular():
    law = DiscreteRandomMatrix(
        np.array([0.5, 0.5]),
        np.stack([np.diag([1.0, 0.0]).astype(complex), np.eye(2).astype(complex)]),
    )
    with pytest.raises(DomainError):
        check_p_variance_limit(law)


def test_entropy_of_square_matches_scalar():
    f = _random_function(19, 2, 1, psd=True)
    v2 = np.array([float(m[0, 0].real) ** 2 for m in f.table])
    expect = float(np.mean(v2 * np.log(v2))) - float(np.mean(v2)) * np.log(
        float(np.mean(v2))
    )
    assert entropy_of_square(f) == pytest.approx(expect, abs=1e-10)


def test_lsi_search_finds_matrix_witness():
    result = search_lsi_counterexample(d=2, n=1, restarts=20, steps=300, seed=0)
    assert result.found
    assert result.objective > 1e-6
    # re-verify from the raw table
    assert entropy_of_square(result.f) == pytest.approx(result.entropy, abs=1e-12)
    assert dirichlet_energy_spectral(result.f) == pytest.approx(result.energy, abs=1e-10)
    assert result.entropy - 2 * result.energy == pytest.approx(
        result.objective, abs=1e-12
    )
    # the defective bound still holds on the witness
    assert check_log_sobolev(result.f).passed


def test_lsi_search_scalar_stays_tight():
    result = search_lsi_counterexample(d=1, n=1, restarts=300, steps=200, seed=0)
    assert not result.found
    assert result.objective <= 1e-9


# (d, n, restarts, steps, seed) -> objective, entropy, energy and the
# sha256 of the witness table bytes, as the search reported them in blocks
# of one restart, each restart climbing alone on its chunked proposal
# stream; the lock-step search must reproduce them bit for bit. At d = 1
# the objective is rounding noise, so the climber keeps whichever proposal
# rounds highest.
LSI_SEARCH_PINS = {
    (2, 1, 20, 300, 0): (
        "0.021143283081476144", "0.11418228365666361", "0.04651950028759373",
        "ae1a441cd945bac5e1dcf252c499ec51265ade0b0038a9ea57fac16e490613cd",
    ),
    (2, 3, 20, 300, 1): (
        "0.0184697977554886", "0.07671054649704012", "0.029120374370775762",
        "5c41bf41b274a97a404185bee730d2796644f72ea25b931b4331159dc9acddd5",
    ),
    (3, 2, 10, 300, 2): (
        "0.03616372736231813", "0.16560973688453906", "0.06472300476111047",
        "bf3b412046bbf30d184cf9344c7b3d0326e72c9009bb5a63fcf932adfa9503f2",
    ),
    (1, 1, 300, 200, 0): (
        "4.8487001062385677e-23", "7.264917521427152e-12", "3.6324587606893325e-12",
        "aba1163f260f5e1dd0df5d98caf78a3c34c0a15683081310d9178ad4cee0eac4",
    ),
    (2, 0, 5, 50, 0): (
        "0.0", "0.0", "0.0",
        "82ad3cee96ec3f6d8d7cd9a54f9264c4f059ddef28cfddc92adbd832e2b40feb",
    ),
}


def _search_pin(config):
    d, n, restarts, steps, seed = config
    result = search_lsi_counterexample(d=d, n=n, restarts=restarts, steps=steps, seed=seed)
    return (
        repr(result.objective), repr(result.entropy), repr(result.energy),
        hashlib.sha256(result.f.table.tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("config", sorted(LSI_SEARCH_PINS))
def test_lsi_search_is_bit_identical(config):
    assert _search_pin(config) == LSI_SEARCH_PINS[config]


@pytest.mark.parametrize("config", [(2, 1, 20, 300, 0), (1, 1, 300, 200, 0)])
def test_lsi_search_blocks_are_bit_identical(monkeypatch, config):
    # a budget of 3 restarts' tables splits the restarts over many blocks;
    # a budget of 1 climbs each restart alone
    d, n = config[:2]
    for per_block in (3, 1):
        monkeypatch.setattr(matphi.fourier, "BLOCK_ENTRIES", per_block * 2**n * d * d)
        assert _search_pin(config) == LSI_SEARCH_PINS[config]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lsi_objective_equals_reported_objective(d, n):
    # the search climbs on exactly the objective its re-verification reports
    for index in range(10):
        f = _random_function(22, n, d, psd=True, index=index)
        assert _lsi_objective(f.table, n) == entropy_of_square(f) - 2.0 * dirichlet_energy_flip(f)


def _state_bytes(s):
    return [field.tobytes() for field in s]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_lsi_rescore_tracks_the_whole_table_objective(d, n):
    # one-point moves as the climber makes them, on a random set of live
    # restarts, each keeping or dropping its move at random: a dropped one
    # writes nothing
    rng = rng_for(23, "lsi-rescore", 10 * d + n)
    restarts, k = 3, 2**n
    s = _lsi_state(random_complex_gaussian(rng, (restarts, k, d, d)), n)
    every = np.arange(restarts)
    still = _lsi_move(s, every, np.zeros(restarts, dtype=int), np.zeros((restarts, d, d)))
    assert np.max(np.abs(_lsi_score(s, every, still)
                         - _lsi_objective(_table_of(s.g), n))) <= 1e-13
    for _ in range(40):
        live = np.flatnonzero(rng.random(restarts) < 0.7)
        ks = rng.integers(k, size=live.size)
        before = _state_bytes(s)
        move = _lsi_move(s, live, ks, 0.3 * random_complex_gaussian(rng, (live.size, d, d)))
        value = _lsi_score(s, live, move)
        assert _state_bytes(s) == before  # scoring a move reads the state only
        moved = s.g[live].copy()
        moved[np.arange(live.size), ks] = move.g
        assert np.max(np.abs(value - _lsi_objective(_table_of(moved), n)), initial=0.0) <= 1e-13
        kept = rng.random(live.size) < 0.5
        _lsi_accept(s, live[kept], kept, move)
        assert s.g[live[kept]].tobytes() == moved[kept].tobytes()
    # the caches the moves wrote are the ones the whole table gives
    fresh = _lsi_state(s.g.copy(), n)
    for field, cached in zip(fresh, s):
        scale = 1.0 + np.max(np.abs(field), initial=0.0)
        assert np.max(np.abs(field - cached), initial=0.0) <= 1e-9 * scale


def test_lsi_rejected_move_writes_nothing():
    rng = rng_for(23, "lsi-reject", 0)
    n, d, restarts = 3, 2, 4
    s = _lsi_state(random_complex_gaussian(rng, (restarts, 2**n, d, d)), n)
    live = np.array([0, 2, 3])
    move = _lsi_move(s, live, np.array([1, 1, 5]), random_complex_gaussian(rng, (3, d, d)))
    _lsi_score(s, live, move)
    before = _state_bytes(s)
    _lsi_accept(s, live[:0], np.zeros(3, dtype=bool), move)
    assert _state_bytes(s) == before
    kept = np.array([False, True, False])
    _lsi_accept(s, live[kept], kept, move)
    # only restart 2's point 1 and its flip partners changed
    for field, old in zip(s, before):
        changed = np.frombuffer(old, dtype=field.dtype).reshape(field.shape) != field
        assert not changed[[0, 1, 3]].any()
    assert s.g[2, 1].tobytes() == move.g[1].tobytes()


def test_lsi_step_sends_two_matrices_per_restart_to_the_spectrum(monkeypatch):
    # the start tables and the witness are scored whole; a step sends only
    # the moved point's square and the mean square of each live restart
    calls = []
    real = matphi.fourier._phi_traces

    def counting(phi, values, means):
        calls.append(values.shape[:-2])
        return real(phi, values, means)

    monkeypatch.setattr(matphi.fourier, "_phi_traces", counting)
    restarts, steps, n = 2, 20, 10
    search_lsi_counterexample(d=2, n=n, restarts=restarts, steps=steps, seed=0)
    whole = [shape for shape in calls if shape[-1] == 2**n]
    step_calls = [shape for shape in calls if shape[-1] != 2**n]
    assert whole == [(restarts, 2**n)] * 2 + [(2**n,)]
    assert 1 <= len(step_calls) <= steps
    assert all(len(shape) == 2 and shape[0] <= restarts and shape[1] == 1 for shape in step_calls)


def test_lsi_search_memory_stays_near_one_state(monkeypatch):
    # the climb works on moves: its steps allocate a small fraction of one
    # state, and the whole search stays within a few states
    import tracemalloc

    d, n, restarts = 2, 12, 2
    state = sum(field.nbytes for field in _lsi_state(np.zeros((restarts, 2**n, d, d), complex), n))
    search_lsi_counterexample(d=d, n=3, restarts=restarts, steps=5)  # imports and caches
    climbs = []
    real = matphi.fourier.climb

    def measured(*args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        values = real(*args, **kwargs)
        climbs.append(tracemalloc.get_traced_memory()[1] - held)
        return values

    tracemalloc.start()
    try:
        search_lsi_counterexample(d=d, n=n, restarts=restarts, steps=20, seed=0)
        search_peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(matphi.fourier, "climb", measured)
        search_lsi_counterexample(d=d, n=n, restarts=restarts, steps=20, seed=0)
    finally:
        tracemalloc.stop()
    assert search_peak <= 2.5 * state
    assert len(climbs) == 1 and climbs[0] <= state / 8


def test_lsi_search_constant_start_objective_zero():
    f = constant_function(1, np.eye(2))
    assert entropy_of_square(f) == pytest.approx(0.0, abs=1e-12)
    assert dirichlet_energy_spectral(f) == pytest.approx(0.0, abs=1e-14)


def test_transform_matches_character_sum():
    # brute-force character-sum oracle for the transform convention
    f = _random_function(20, 3, 2)
    coeffs = fourier_transform(f).coeffs
    for s in range(8):
        acc = np.zeros((2, 2), dtype=complex)
        for x in range(8):
            chi = (-1) ** bin(s & x).count("1")
            acc += chi * f.table[x]
        assert np.max(np.abs(coeffs[s] - acc / 8.0)) < 1e-12


def test_round_trip_at_envelope():
    # the largest advertised size: n = 12, d = 6
    f = _random_function(21, 12, 6)
    back = inverse_fourier(fourier_transform(f))
    assert np.max(np.abs(back.table - f.table)) < 1e-12


def _fwht_by_blocks(a):
    """The Walsh-Hadamard butterflies one block at a time, as a reference."""
    a = a.copy()
    h, m = 1, a.shape[0]
    while h < m:
        for start in range(0, m, 2 * h):
            top = a[start : start + h].copy()
            bottom = a[start + h : start + 2 * h]
            a[start : start + h] = top + bottom
            a[start + h : start + 2 * h] = top - bottom
        h *= 2
    return a


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("d", [1, 2, 4])
def test_fwht_matches_blockwise_butterflies_bit_for_bit(n, d):
    rng = rng_for(23, "fwht", 8 * d + n)
    table = rng.standard_normal((2**n, d, d)) + 1j * rng.standard_normal((2**n, d, d))
    fast = _fwht(table)
    assert fast.shape == table.shape
    assert fast.tobytes() == _fwht_by_blocks(table).tobytes()
    assert fast is not table and not np.shares_memory(fast, table)
