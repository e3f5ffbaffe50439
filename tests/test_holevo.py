"""Kernel evolution, Holevo quantities, and data-processing constants."""

import hashlib

import numpy as np
import pytest

from matphi import holevo

from matphi.entropy import phi_entropy
from matphi.errors import InvalidC, MatPhiError, NotAdmissible
from matphi.holevo import (
    CQEnsemble,
    MarkovKernel,
    backward_channel,
    check_data_processing,
    check_functional_sdpi,
    check_law_total_variance,
    classical_sdpi_ratio,
    eta_phi,
    evolve_ensemble,
    holevo_chi,
    kernel_push,
    random_ensemble,
    relative_entropy,
)
from matphi.linalg import hermitian_part
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_density,
    random_kernel,
    random_probability_vector,
    random_psd,
    rng_for,
)

XLOGX = PhiFunction.xlogx()


def _qubit_pair():
    return CQEnsemble(
        np.array([0.5, 0.5]),
        np.stack(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        ),
    )


def test_kernel_push_cases():
    mu = np.array([0.3, 0.7])
    assert np.allclose(kernel_push(mu, MarkovKernel.identity(2)), mu)
    constant = MarkovKernel.constant(2, [0.2, 0.8])
    assert np.allclose(kernel_push(mu, constant), [0.2, 0.8])
    k = MarkovKernel(np.array([[0.5, 0.5], [0.2, 0.8]]))
    assert np.allclose(kernel_push(mu, k), [0.29, 0.71])


def test_backward_channel_identity_and_symmetry():
    mu = np.array([0.3, 0.7])
    back = backward_channel(mu, MarkovKernel.identity(2))
    assert np.allclose(back.rows, np.eye(2))
    # doubly stochastic kernel with uniform input: K*(x|y) = K(y|x)
    k = MarkovKernel.binary_symmetric(0.2)
    back = backward_channel(np.array([0.5, 0.5]), k)
    assert np.allclose(back.rows, k.rows.T)


def test_backward_channel_arithmetic():
    mu = np.array([0.3, 0.7])
    k = MarkovKernel(np.array([[0.5, 0.5], [0.2, 0.8]]))
    back = backward_channel(mu, k)
    assert back.rows[0, 0] == pytest.approx(0.15 / 0.29)
    assert back.rows[0, 1] == pytest.approx(0.14 / 0.29)
    assert np.allclose(back.rows.sum(axis=1), 1.0)


def test_admissibility_errors():
    with pytest.raises(NotAdmissible):
        backward_channel(np.array([0.0, 1.0]), MarkovKernel.identity(2))
    with pytest.raises(NotAdmissible) as err:
        backward_channel(
            np.array([0.5, 0.5]), MarkovKernel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        )
    assert err.value.zero_entries == [1]


def test_evolution_identity_and_constant():
    ens = _qubit_pair()
    out = evolve_ensemble(ens, MarkovKernel.identity(2))
    assert np.allclose(out.states, ens.states)
    out = evolve_ensemble(ens, MarkovKernel.constant(2, [0.4, 0.6]))
    rho_bar = ens.average_state()
    for state in out.states:
        assert np.max(np.abs(state - rho_bar)) < 1e-12


def test_evolution_preserves_average_state():
    for trial in range(100):
        rng = rng_for(51, "evolve", trial)
        ens = random_ensemble(rng, 3, 2)
        kernel = MarkovKernel(random_kernel(rng, 3, 2))
        out = evolve_ensemble(ens, kernel)
        assert np.max(np.abs(out.average_state() - ens.average_state())) < 1e-12


def test_holevo_equal_states_zero():
    rng = rng_for(51, "holevo", 0)
    rho = random_density(rng, 2)
    ens = CQEnsemble(np.array([0.4, 0.6]), np.stack([rho, rho]))
    assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)


def test_holevo_orthogonal_pure_states():
    assert holevo_chi(_qubit_pair()) == pytest.approx(np.log(2.0), abs=1e-12)


def test_holevo_dual_path_identity():
    for trial in range(100):
        rng = rng_for(51, "holevo-dual", trial)
        ens = random_ensemble(rng, 3, 2)
        chi = holevo_chi(ens)
        dual = ens.d * phi_entropy(XLOGX, ens.as_law())
        assert chi == pytest.approx(dual, abs=1e-9 * (1 + abs(chi)))


def test_relative_entropy_support_error():
    from matphi.errors import SupportError

    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SupportError):
        relative_entropy(rho, sigma)


def test_relative_entropy_rejects_non_hermitian_sigma():
    from matphi.errors import NotHermitian

    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        relative_entropy(rho, sigma)


def test_data_processing_identity_and_constant():
    ens = _qubit_pair()
    rep = check_data_processing(ens, MarkovKernel.identity(2))
    assert rep.passed
    assert rep.details["chi_out"] == pytest.approx(rep.details["chi_in"], abs=1e-12)
    rep = check_data_processing(ens, MarkovKernel.constant(2, [0.3, 0.7]))
    assert rep.passed
    assert rep.details["chi_out"] == pytest.approx(0.0, abs=1e-12)


def test_data_processing_sweep():
    for trial in range(200):
        rng = rng_for(51, "dp", trial)
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ens = random_ensemble(rng, nx, 2)
        kernel = MarkovKernel(random_kernel(rng, nx, ny))
        assert check_data_processing(ens, kernel).passed


def test_law_total_variance_edge_cases():
    rng = rng_for(51, "ltv", 0)
    values = np.stack([random_psd(rng, 2) for _ in range(4)])
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    # Y independent of Z (single label): outer term vanishes
    rep = check_law_total_variance(XLOGX, probs, values, [0, 0, 0, 0])
    assert rep.passed
    assert rep.details["outer"] == pytest.approx(0.0, abs=1e-12)
    assert rep.details["conditional"] == pytest.approx(rep.details["total"], abs=1e-10)
    # Y determines Z: conditional term vanishes
    rep = check_law_total_variance(XLOGX, probs, values, [0, 1, 2, 3])
    assert rep.passed
    assert rep.details["conditional"] == pytest.approx(0.0, abs=1e-12)
    assert rep.details["outer"] == pytest.approx(rep.details["total"], abs=1e-10)


def test_law_total_variance_sweep():
    for trial in range(200):
        rng = rng_for(51, "ltv-sweep", trial)
        k = 6
        probs = rng.random(k) + 0.1
        probs /= probs.sum()
        values = np.stack([random_psd(rng, 2) for _ in range(k)])
        labels = [int(rng.integers(0, 3)) for _ in range(k)]
        rep = check_law_total_variance(XLOGX, probs, values, labels)
        assert rep.passed, f"trial {trial}: {rep.max_gap}"


def test_eta_identity_kernel_exact():
    result = eta_phi(
        np.array([0.5, 0.5]), MarkovKernel.identity(2), d=2,
        grid_resolution=0.25, restarts=2, hill_steps=10, seed=0,
    )
    assert result.eta_hat == 1.0


def test_eta_constant_kernel_exact():
    result = eta_phi(
        np.array([0.5, 0.5]), MarkovKernel.constant(2, [0.4, 0.6]), d=2,
        grid_resolution=0.25, restarts=2, hill_steps=10, seed=0,
    )
    assert result.eta_hat == 0.0


def test_eta_in_unit_interval():
    for trial in range(10):
        rng = rng_for(51, "eta", trial)
        kernel = MarkovKernel(random_kernel(rng, 2, 2))
        result = eta_phi(
            np.array([0.5, 0.5]), kernel, d=2, grid_resolution=0.25,
            restarts=3, hill_steps=30, seed=trial,
        )
        assert 0.0 <= result.eta_hat <= 1.0 + 1e-9


def test_eta_scalar_matches_classical_sdpi():
    mu = np.array([0.5, 0.5])
    kernel = MarkovKernel.binary_symmetric(0.1)
    result = eta_phi(mu, kernel, d=1, grid_resolution=0.05, restarts=10, seed=0)
    direct = classical_sdpi_ratio(mu, kernel, result.witness)
    assert result.eta_hat == pytest.approx(direct, abs=1e-6)
    # BSC contraction approaches (1 - 2 delta)^2 near the input law
    assert result.eta_hat == pytest.approx(0.64, abs=1e-3)


def test_eta_scalar_grid_agreement():
    mu = np.array([0.6, 0.4])
    kernel = MarkovKernel(np.array([[0.7, 0.3], [0.25, 0.75]]))
    result = eta_phi(mu, kernel, d=1, grid_resolution=0.1, restarts=5, seed=1)
    # recompute the same ratio classically on a grid; the search result
    # must dominate every grid candidate and agree at its own witness
    best = 0.0
    for i in range(11):
        nu = np.array([i / 10.0, 1.0 - i / 10.0])
        ratio = classical_sdpi_ratio(mu, kernel, nu)
        if ratio is not None:
            best = max(best, ratio)
    assert result.eta_hat >= best - 1e-9
    direct = classical_sdpi_ratio(mu, kernel, result.witness)
    assert result.eta_hat == pytest.approx(direct, abs=1e-6)


def test_eta_diagonal_grid_reduction():
    # diagonal qubit ensembles reduce to classical laws on two letters;
    # the d=2 search must reach at least the scalar contraction value
    mu = np.array([0.5, 0.5])
    kernel = MarkovKernel.binary_symmetric(0.1)
    r2 = eta_phi(mu, kernel, d=2, grid_resolution=0.05, restarts=5, hill_steps=50, seed=0)
    assert 0.0 <= r2.eta_hat <= 1.0 + 1e-9
    assert r2.eta_hat >= 0.6


_PIN_K2 = random_kernel(rng_for(11, "pin", 1), 2, 2)
_PIN_K3 = random_kernel(rng_for(11, "pin", 0), 3, 3)
_PIN_MU3 = np.array([0.2, 0.3, 0.5])


@pytest.mark.parametrize(
    "mu, rows, kwargs, eta_hat, witness_sha",
    [
        (np.array([0.6, 0.4]), np.array([[0.7, 0.3], [0.25, 0.75]]),
         dict(d=1, grid_resolution=0.1, restarts=5, seed=1), 0.2002960689526055,
         "ccc5b69dc468273f0e43da3d3f44826bcdec5b05c91d89bb12304a59c719999f"),
        (_PIN_MU3, _PIN_K3, dict(d=1, grid_resolution=0.1, restarts=5, hill_steps=50, seed=2),
         0.16412955659870973,
         "158b528ca59f822d8b804a18cad1dfe5730d553fe642144e119d502dcccdcf7a"),
        (np.array([0.5, 0.5]), MarkovKernel.binary_symmetric(0.1).rows,
         dict(d=2, grid_resolution=0.25, restarts=3, hill_steps=30, seed=0), 0.6397284707599881,
         "052933dbec9e96e7aa02189488d3077c0ae7f077cfa827b5fd563684d95b8b75"),
        (np.array([0.5, 0.5]), _PIN_K2,
         dict(d=2, grid_resolution=0.25, restarts=3, hill_steps=30, seed=5), 0.21622937880550638,
         "635e2dfada84027ac5597540ad9bdade519162f324127a47c01d5f618299d3fe"),
        (_PIN_MU3, _PIN_K3, dict(d=2, grid_resolution=0.5, restarts=2, hill_steps=20, seed=3),
         0.14608626891906873,
         "11e7b9d97abc5abdf0bca44f43a434d67a143e4232c8a423f6bb11fac242beb5"),
        (np.array([0.5, 0.5]), _PIN_K2,
         dict(d=3, grid_resolution=0.25, restarts=2, hill_steps=20, seed=4), 0.20952429848507217,
         "cccf9ed46b528e797a2128115b065c92a74cb0cef28234cafde3da415fee62b9"),
    ],
    ids=["d1-two-letters", "d1-three-letters", "d2-bsc", "d2-random", "d2-three-letters", "d3"],
)
def test_eta_phi_pinned(mu, rows, kwargs, eta_hat, witness_sha):
    # eta_hat and the witness bytes are pinned bit for bit: the search's
    # seeded streams, scan order and climb must not drift
    result = eta_phi(mu, MarkovKernel(rows), **kwargs)
    assert result.eta_hat == eta_hat
    w = result.witness
    parts = [w] if kwargs["d"] == 1 else [w.probs, w.states]
    assert hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest() == witness_sha


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eta_phi_derives_the_backward_channel_once(monkeypatch, d):
    calls = []
    real = holevo.backward_channel

    def counting(mu, kernel):
        calls.append(1)
        return real(mu, kernel)

    monkeypatch.setattr(holevo, "backward_channel", counting)
    eta_phi(np.array([0.5, 0.5]), MarkovKernel.binary_symmetric(0.1), d=d,
            grid_resolution=0.25, restarts=2, hill_steps=10, seed=0)
    assert len(calls) == 1


def _stacked_ensembles(d, k, count, index):
    """count ensembles of k random density states on one label law, one
    label of it at zero weight when index is odd, and backward rows."""
    rng = rng_for(61, "stacked", index)
    probs = random_probability_vector(rng, k)
    if index % 2:
        probs[0] = 0.0
        probs = probs / probs.sum()
    states = np.array([[random_density(rng, d) for _ in range(k)] for _ in range(count)])
    kernel = MarkovKernel(random_kernel(rng, k, k))
    pushed = kernel_push(probs, kernel)
    back = (kernel.rows * probs[:, None]).T / pushed[:, None]  # as backward_channel's rows
    return probs, states, pushed, back / back.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stacked_holevo_kernels_equal_single_ensembles(d, k):
    # the search scores whole stacks; each ensemble's bits must be those of
    # the ensemble alone, and the sums over labels those of the tensordot
    # calls they replaced
    for count in (1, 2, 7):
        probs, states, pushed, back = _stacked_ensembles(d, k, count, 10 * d + k + count)
        out, drift, tol = holevo._evolution_drift(probs, states, pushed, back)
        chi = holevo._chi(probs, states)
        f = np.abs(states[..., 0, 0].real) + 0.1  # a stack of (k,) scalar families
        scalar = holevo._scalar_chi(probs, f)
        assert chi.shape == drift.shape == scalar.shape == (count,)
        for r in range(count):
            out_r, drift_r, tol_r = holevo._evolution_drift(probs, states[r], pushed, back)
            assert out[r].tobytes() == out_r.tobytes()
            assert (drift[r], tol) == (drift_r, tol_r)
            assert chi[r] == holevo._chi(probs, states[r])
            assert scalar[r] == holevo._scalar_chi(probs, f[r])
            tensordot = hermitian_part(np.tensordot(probs, states[r], axes=1))
            assert holevo._average_state(probs, states[r]).tobytes() == tensordot.tobytes()
            rows = [hermitian_part(np.tensordot(row, states[r], axes=1)) for row in back]
            assert out_r.tobytes() == np.stack(rows).tobytes()


def _contraction_ratio(chi_in, chi_out):
    """The scalar rule the stacked ratios replace: None for no value."""
    if chi_out > chi_in + 1e-9 * (1.0 + chi_in):
        raise MatPhiError("entropy contraction violated")
    if chi_in <= 1e-10:
        return None
    if chi_out <= holevo.CHI_FLOOR * (1.0 + chi_in):
        return 0.0
    return chi_out / chi_in


def test_contraction_ratios_follow_the_scalar_rule():
    edges = [0.0, 1e-13, 1e-12, 1.1e-12, 5e-11, 1e-10, np.nextafter(1e-10, 1.0), 1e-9,
             2e-9, 0.3, 0.5, 1.0, 1.0 + 2e-9, 1.0 + 3e-9]
    chi_in, chi_out = (a.ravel() for a in np.meshgrid(edges, edges, indexing="ij"))
    allowed = []
    for a, b in zip(chi_in, chi_out):
        try:
            ratio = _contraction_ratio(a, b)
        except MatPhiError:
            with pytest.raises(MatPhiError):
                holevo._contraction_ratios(np.array([0.5, a]), np.array([0.25, b]))
            continue
        allowed.append((a, b, -np.inf if ratio is None else ratio))
    assert 0 < len(allowed) < len(edges) ** 2
    a, b, expected = (np.array(column) for column in zip(*allowed))
    assert holevo._contraction_ratios(a, b).tobytes() == expected.tobytes()


def test_eta_phi_raises_when_the_search_sees_chi_grow(monkeypatch):
    # a kernel from 2 letters to 3: only the evolved side has 3 labels
    kernel = MarkovKernel(np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]]))
    mu = np.array([0.4, 0.6])
    chi, scalar_chi = holevo._chi, holevo._scalar_chi
    monkeypatch.setattr(holevo, "_chi", lambda p, s: chi(p, s) + (p.size == 3))
    monkeypatch.setattr(holevo, "_scalar_chi", lambda p, f: scalar_chi(p, f) + (p.size == 3))
    for d in (1, 2):
        with pytest.raises(MatPhiError, match="contraction violated"):
            eta_phi(mu, kernel, d=d, grid_resolution=0.25, restarts=2, hill_steps=5, seed=0)


def test_evolve_raises_on_a_drifting_ensemble_of_a_stack():
    probs, states, pushed, back = _stacked_ensembles(2, 3, 4, 0)
    states[:3] = states[:3, :1]  # equal states: no mixing moves their average
    back = back + np.array([1e-6, -1e-6, 0.0])  # rows that do not preserve mu
    _, drift, tol = holevo._evolution_drift(probs, states, pushed, back)
    assert np.all(drift[:3] <= tol) and drift[3] > tol
    with pytest.raises(MatPhiError, match="drifted"):
        holevo._evolve(probs, states, pushed, back)
    holevo._evolve(probs, states[:3], pushed, back)


@pytest.mark.parametrize(
    "d, eta_hat, witness_sha",
    [
        (1, 0.6400001747344317,
         "14a71b19fbea371e353246083dd9bd13a508d3a77e428b8f72bf9bab63a63afa"),
        (2, 0.6365818630696964,
         "924292cbd5b7e56ce5b4145570ed28659c8e4bcbfba1a21e9c5889d45e4c4bad"),
        (3, 0.0, None),
    ],
)
def test_eta_phi_without_restarts(d, eta_hat, witness_sha):
    # grid only (d = 1 still refines its best grid point); d = 3 has no grid
    result = eta_phi(np.array([0.5, 0.5]), MarkovKernel.binary_symmetric(0.1), d=d,
                     grid_resolution=0.25, restarts=0, seed=0)
    assert result.eta_hat == eta_hat
    w = result.witness
    if witness_sha is None:
        assert w is None
    else:
        parts = [w] if d == 1 else [w.probs, w.states]
        assert hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest() == witness_sha


def test_functional_sdpi_rejects_bad_c():
    ens = _qubit_pair()
    with pytest.raises(InvalidC):
        check_functional_sdpi(
            ens.probs, MarkovKernel.identity(2), ens.states, 1.0
        )


def test_functional_sdpi_constant_kernel():
    ens = _qubit_pair()
    kernel = MarkovKernel.constant(2, [0.4, 0.6])
    rep = check_functional_sdpi(ens.probs, kernel, ens.states, 0.0)
    assert rep.passed
    # conditioning on an independent Y is vacuous
    assert rep.details["conditional"] == pytest.approx(
        rep.details["h_total"], abs=1e-12
    )
    assert rep.details["h_evolved"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "rows", [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.3, 0.7]]], ids=["identity", "one-zero"]
)
def test_functional_sdpi_takes_kernels_with_zero_entries(rows):
    # a backward row with a zero entry weighs its state by exactly 0
    ens = _qubit_pair()
    rep = check_functional_sdpi(ens.probs, MarkovKernel(np.array(rows)), ens.states, 0.5)
    assert np.isfinite(rep.details["conditional"])


def test_functional_sdpi_identity_kernel_fails_when_states_differ():
    # Y = X leaves no conditional entropy, so only an ensemble of equal states passes
    ens = _qubit_pair()
    rep = check_functional_sdpi(ens.probs, MarkovKernel.identity(2), ens.states, 0.5)
    assert rep.details["conditional"] == 0.0
    assert not rep.passed
    same = np.stack([ens.states[0]] * 2)
    assert check_functional_sdpi(ens.probs, MarkovKernel.identity(2), same, 0.5).passed


def test_functional_sdpi_bsc_sweep():
    mu = np.array([0.5, 0.5])
    kernel = MarkovKernel.binary_symmetric(0.1)
    eta = eta_phi(mu, kernel, d=2, grid_resolution=0.1, restarts=4, hill_steps=40, seed=0)
    c = min(eta.eta_hat + 0.05, 0.999)
    for trial in range(100):
        rng = rng_for(51, "sdpi", trial)
        states = np.stack([random_density(rng, 2) for _ in range(2)])
        rep = check_functional_sdpi(mu, kernel, states, c)
        assert rep.passed, f"trial {trial}: {rep.details}"


def test_functional_sdpi_consistency_both_directions():
    # whenever the evolved entropy ratio is below c, the functional
    # inequality with that c holds on the same instance
    mu = np.array([0.5, 0.5])
    kernel = MarkovKernel.binary_symmetric(0.15)
    for trial in range(50):
        rng = rng_for(51, "sdpi-chain", trial)
        states = np.stack([random_density(rng, 2) for _ in range(2)])
        ens = CQEnsemble(mu, states)
        chi_in = holevo_chi(ens)
        chi_out = holevo_chi(evolve_ensemble(ens, kernel))
        if chi_in < 1e-8:
            continue
        c = min(chi_out / chi_in + 1e-6, 0.999)
        rep = check_functional_sdpi(mu, kernel, states, c)
        assert rep.details["chain_ok"]
        assert rep.details["functional_ok"]
