"""Metamorphic oracles for the exact checks.

Every quantity below uses the normalized trace, so it has exact
symmetries that need no second implementation:

- unitary conjugation Z -> U Z U† leaves it unchanged;
- tensoring Z -> Z ⊗ I_k leaves it unchanged (the log-Sobolev defect
  log d becomes log(dk));
- a block-diagonal direct sum of two instances on the same law gives the
  two blocks' values averaged with weights d_1 and d_2.

The three Bregman trace maps of char-b..d are plain traces instead, so
under ⊗ I_k they gain the factor k and a direct sum adds the blocks.

The relations are asserted on the quantities themselves to 1e-12
relative, and the verdict of every check used must not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.concentration import check_efron_stein, check_plus_identities, efron_stein_forms
from matphi.entropy import (
    bregman_maps,
    bregman_pair_sampler,
    check_char_e,
    check_char_g,
    check_joint_convexity,
    check_subadditivity,
    conditional_phi_entropy,
    duality_lower_bound,
    phi_entropy,
)
from matphi.frechet import inverse_derivative_superoperator
from matphi.fourier import (
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_p_variance_limit,
    dirichlet_energy_flip,
    dirichlet_energy_spectral,
    p_variance,
)
from matphi.holevo import CQEnsemble, holevo_chi, random_ensemble
from matphi.models import DiscreteRandomMatrix, ProductModel
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_boolean_function,
    random_law,
    random_pd,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)
from support import random_unitary

REL = 1e-12
GENERATORS = (PhiFunction.xlogx(), PhiFunction.power(1.5))
CASES = settings(max_examples=30, deadline=None, derandomize=True)


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= REL * (1.0 + np.max(np.abs(want))), (got, want)


def _conj(stack, u):
    return u @ stack @ u.conj().T


def _tensor(stack, k):
    return np.kron(stack, np.eye(k))


def _dsum(a, b):
    d1, d2 = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (d1 + d2, d1 + d2), dtype=complex)
    out[..., :d1, :d1] = a
    out[..., d1:, d1:] = b
    return out


def _averaged(q1, q2, d1, d2):
    return (d1 * np.asarray(q1) + d2 * np.asarray(q2)) / (d1 + d2)


def _maps(rng, d, k):
    """Conjugation by a random unitary and tensoring with I_k, as
    (name, map on a (..., d, d) stack) pairs."""
    u = random_unitary(rng, d)
    return [("unitary", lambda s: _conj(s, u)), ("tensor", lambda s: _tensor(s, k))]


dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10**6)
ks = st.integers(min_value=2, max_value=3)


def _law_quantities(law: DiscreteRandomMatrix, coupled: DiscreteRandomMatrix) -> dict:
    out = {}
    for phi in GENERATORS:
        out[f"H[{phi.label}]"] = phi_entropy(phi, law)
        out[f"duality[{phi.label}]"] = duality_lower_bound(phi, law, coupled)
    return out


def _law_verdicts(law: DiscreteRandomMatrix) -> tuple:
    return (
        check_p_variance_limit(law).passed,
        *(check_plus_identities(law, q).passed for q in (1, 2, 3)),
    )


@CASES
@given(seeds, dims, dims, ks)
def test_law_quantities_metamorphic(seed, d, d2, k):
    rng = rng_for(seed, "metamorphic-law", 0)
    law = random_law(rng, d, 3, psd=True, pd_floor=0.2)
    coupled = random_law(rng, d, 3, psd=True, pd_floor=0.2)
    coupled = DiscreteRandomMatrix(law.probs, coupled.values)
    base = _law_quantities(law, coupled)
    pvar = p_variance(law, 1.5)
    verdicts = _law_verdicts(law)
    for name, fmap in _maps(rng, d, k):
        mapped = DiscreteRandomMatrix(law.probs, fmap(law.values))
        mapped_coupled = DiscreteRandomMatrix(law.probs, fmap(coupled.values))
        for key, value in _law_quantities(mapped, mapped_coupled).items():
            _close(value, base[key])
        _close(p_variance(mapped, 1.5), fmap(pvar[None])[0])
        assert _law_verdicts(mapped) == verdicts, name

    other = random_law(rng, d2, 3, psd=True, pd_floor=0.2).values
    other_coupled = random_law(rng, d2, 3, psd=True, pd_floor=0.2).values
    law2 = DiscreteRandomMatrix(law.probs, other)
    base2 = _law_quantities(law2, DiscreteRandomMatrix(law.probs, other_coupled))
    summed = DiscreteRandomMatrix(law.probs, _dsum(law.values, other))
    summed_coupled = DiscreteRandomMatrix(law.probs, _dsum(coupled.values, other_coupled))
    for key, value in _law_quantities(summed, summed_coupled).items():
        _close(value, _averaged(base[key], base2[key], d, d2))
    _close(p_variance(summed, 1.5), _dsum(pvar, p_variance(law2, 1.5)))
    assert _law_verdicts(summed) == tuple(
        a and b for a, b in zip(verdicts, _law_verdicts(law2))
    )


def _model_quantities(model: ProductModel) -> tuple[dict, bool]:
    rep = check_efron_stein(model)
    forms = efron_stein_forms(model)
    values = {"replace": forms[0], "condvar": forms[1], "plus": forms[2],
              "variance": rep.details["variance"], "bound": rep.details["bound"]}
    return values, rep.passed


@CASES
@given(seeds, dims, dims, ks, st.integers(min_value=1, max_value=3))
def test_efron_stein_metamorphic(seed, d, d2, k, n):
    rng = rng_for(seed, "metamorphic-model", 0)
    model = random_product_model(rng, d, n, arity=2, psd=False)
    table = model.values
    base, passed = _model_quantities(model)
    for name, fmap in _maps(rng, d, k):
        mapped, mapped_passed = _model_quantities(ProductModel(model.laws, fmap(table)))
        assert mapped_passed == passed, name
        for key, value in mapped.items():
            _close(value, base[key])

    other = random_product_model(rng, d2, n, arity=2, psd=False).values
    base2, passed2 = _model_quantities(ProductModel(model.laws, other))
    summed, summed_passed = _model_quantities(
        ProductModel(model.laws, _dsum(table, other))
    )
    assert summed_passed == (passed and passed2)
    for key, value in summed.items():
        _close(value, _averaged(base[key], base2[key], d, d2))


def _entropy_model_quantities(model: ProductModel) -> tuple[dict, tuple]:
    values, verdicts = {}, []
    for phi in GENERATORS:
        sub = check_subadditivity(phi, model)
        values[f"sub_lhs[{phi.label}]"] = sub.details["lhs"]
        values[f"sub_rhs[{phi.label}]"] = sub.details["rhs"]
        verdicts.append(sub.passed)
        for i in range(model.n):
            values[f"cond_{i}[{phi.label}]"] = conditional_phi_entropy(phi, model, i).expectation
        if model.n == 2:
            char_g = check_char_g(phi, model)
            values[f"g_lhs[{phi.label}]"] = char_g.details["lhs"]
            values[f"g_rhs[{phi.label}]"] = char_g.details["rhs"]
            verdicts.append(char_g.passed)
    return values, tuple(verdicts)


@CASES
@given(seeds, dims, dims, ks, st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=3))
def test_conditional_entropy_metamorphic(seed, d, d2, k, n, arity):
    rng = rng_for(seed, "metamorphic-entropy", 0)
    model = random_product_model(rng, d, n, arity=arity)
    table = model.values
    base, verdicts = _entropy_model_quantities(model)
    for name, fmap in _maps(rng, d, k):
        mapped, mapped_verdicts = _entropy_model_quantities(
            ProductModel(model.laws, fmap(table))
        )
        assert mapped_verdicts == verdicts, name
        for key, value in mapped.items():
            _close(value, base[key])

    other = random_product_model(rng, d2, n, arity=arity).values
    base2, verdicts2 = _entropy_model_quantities(ProductModel(model.laws, other))
    summed, summed_verdicts = _entropy_model_quantities(
        ProductModel(model.laws, _dsum(table, other))
    )
    assert summed_verdicts == tuple(a and b for a, b in zip(verdicts, verdicts2))
    for key, value in summed.items():
        _close(value, _averaged(base[key], base2[key], d, d2))


def _cube_quantities(f: MatrixBooleanFunction, p: float) -> tuple[dict, tuple]:
    bb = check_bonami_beckner(f, p)
    lsi = check_log_sobolev(f)
    values = {
        "spectral": dirichlet_energy_spectral(f),
        "flip": dirichlet_energy_flip(f),
        "bb_lhs": bb.details["lhs"],
        "bb_rhs": bb.details["rhs"],
        "entropy": lsi.details["entropy"],
        "energy": lsi.details["energy"],
        "lsi_rhs": lsi.details["rhs"],
        "f2": float(np.mean(np.einsum("kij,kji->k", f.table, f.table).real)) / f.d,
    }
    return values, (bb.passed, lsi.passed)


@CASES
@given(seeds, dims, dims, ks, st.integers(min_value=0, max_value=3),
       st.sampled_from([1.0, 1.25, 1.5, 2.0]))
def test_cube_metamorphic(seed, d, d2, k, n, p):
    rng = rng_for(seed, "metamorphic-cube", 0)
    table = random_boolean_function(rng, n, d, psd=True)
    base, verdicts = _cube_quantities(MatrixBooleanFunction(n, table), p)
    for name, fmap in _maps(rng, d, k):
        mapped, mapped_verdicts = _cube_quantities(MatrixBooleanFunction(n, fmap(table)), p)
        assert mapped_verdicts == verdicts, name
        shift = np.log(k) * base["f2"] if name == "tensor" else 0.0
        for key, value in mapped.items():
            _close(value, base[key] + (shift if key == "lsi_rhs" else 0.0))

    other = random_boolean_function(rng, n, d2, psd=True)
    base2, verdicts2 = _cube_quantities(MatrixBooleanFunction(n, other), p)
    summed, summed_verdicts = _cube_quantities(MatrixBooleanFunction(n, _dsum(table, other)), p)
    assert summed_verdicts == tuple(a and b for a, b in zip(verdicts, verdicts2))
    for key in ("spectral", "flip", "entropy", "energy", "f2"):
        _close(summed[key], _averaged(base[key], base2[key], d, d2))
    # Bonami-Beckner: the rhs^p is an average of normalized Schatten p-th
    # powers; for f ⊕ c f both sides scale by ((1 + c^p) / 2)^(1/p)
    _close(summed["bb_rhs"] ** p, _averaged(base["bb_rhs"] ** p, base2["bb_rhs"] ** p, d, d2))
    c = 0.5
    scaled, scaled_verdicts = _cube_quantities(MatrixBooleanFunction(n, _dsum(table, c * table)), p)
    assert scaled_verdicts == verdicts
    factor = ((1.0 + c**p) / 2.0) ** (1.0 / p)
    _close(scaled["bb_lhs"], factor * base["bb_lhs"])
    _close(scaled["bb_rhs"], factor * base["bb_rhs"])


@CASES
@given(seeds, dims, dims, ks, st.floats(min_value=0.1, max_value=0.9))
def test_holevo_chi_metamorphic(seed, d, d2, k, t):
    rng = rng_for(seed, "metamorphic-holevo", 0)
    ens = random_ensemble(rng, 3, d)
    chi = holevo_chi(ens)
    u = random_unitary(rng, d)
    _close(holevo_chi(CQEnsemble(ens.probs, _conj(ens.states, u))), chi)
    _close(holevo_chi(CQEnsemble(ens.probs, _tensor(ens.states, k) / k)), chi)
    # the t : 1 - t mixture of two ensembles on orthogonal blocks
    other = random_ensemble(rng, 3, d2).states
    chi2 = holevo_chi(CQEnsemble(ens.probs, other))
    summed = CQEnsemble(ens.probs, _dsum(t * ens.states, (1.0 - t) * other))
    _close(holevo_chi(summed), t * chi + (1.0 - t) * chi2)


@CASES
@given(seeds, dims, st.sampled_from([2, 3, 20]))
def test_p_variance_limit_deviation_is_embedding_invariant(seed, d, k):
    # the spectral norm of the extrapolation error does not see Z -> Z ⊗ I_k;
    # what moves is rounding in the Richardson step
    law = random_law(rng_for(seed, "metamorphic-p-variance", 0), d, 2, psd=True, pd_floor=0.2)
    base = check_p_variance_limit(law)
    embedded = check_p_variance_limit(DiscreteRandomMatrix(law.probs, _tensor(law.values, k)))
    assert abs(embedded.max_gap - base.max_gap) <= 1e-3 * base.max_gap
    assert embedded.passed == base.passed


def _char_a_eigenvalue(psi, a, b) -> float:
    """Smallest eigenvalue of T_mid^{-1} - (T_a^{-1} + T_b^{-1}) / 2, T_X = D Psi[X]."""
    inv = [inverse_derivative_superoperator(psi, m) for m in (a, b, 0.5 * (a + b))]
    return float(np.linalg.eigvalsh(inv[2] - 0.5 * (inv[0] + inv[1]))[0])


@CASES
@given(seeds, dims, ks)
def test_char_a_metamorphic(seed, d, k):
    # conjugation rotates each T^{-1} by the unitary conj(V) (x) V, and
    # T_{A (x) I_k}^{-1} is k^2 copies of T_A^{-1}: the spectrum is unchanged
    rng = rng_for(seed, "metamorphic-char-a", 0)
    a, b = random_pd(rng, d), random_pd(rng, d)
    for phi in GENERATORS:
        psi = phi.psi()
        lam = _char_a_eigenvalue(psi, a, b)
        for _, f in _maps(rng, d, k):
            got = _char_a_eigenvalue(psi, f(a), f(b))
            assert abs(got - lam) <= REL * (1.0 + np.linalg.norm(a) + np.linalg.norm(b))


@CASES
@given(seeds, dims, ks)
def test_char_e_metamorphic(seed, d, k):
    # both sides are traces of maps that commute with joint conjugation;
    # under (x) I_k every trace gains the factor k. The lhs differences the
    # second derivative with a step 1e-4 (1 + ||A||_2) along k: conjugation
    # keeps that step, the tensor product does not, so there the lhs moves
    # by the difference of two O(step^2) truncation errors.
    rng = rng_for(seed, "metamorphic-char-e", 0)
    a = random_pd(rng, d, floor=0.3)
    h, kk = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
    u = random_unitary(rng, d)
    for phi in GENERATORS:
        base = check_char_e(phi, a, h, kk)
        scale = 1.0 + abs(base.lhs) + abs(base.rhs)
        rotated = check_char_e(phi, *(_conj(m, u) for m in (a, h, kk)))
        tensored = check_char_e(phi, *(_tensor(m, k) for m in (a, h, kk)))
        assert abs(rotated.lhs - base.lhs) <= 1e-9 * scale
        assert abs(tensored.lhs - k * base.lhs) <= 1e-4 * k * scale
        for got, factor in ((rotated, 1.0), (tensored, k)):
            assert abs(got.rhs - factor * base.rhs) <= REL * factor * scale
            assert got.holds == base.holds


@CASES
@given(seeds, dims, dims, ks)
def test_bregman_maps_metamorphic(seed, d, d2, k):
    rng = rng_for(seed, "metamorphic-bregman", 0)
    u, v = random_pd(rng, d, floor=0.05), random_psd(rng, d)
    u2, v2 = random_pd(rng, d2, floor=0.05), random_psd(rng, d2)
    w = random_unitary(rng, d)
    for phi in (*GENERATORS, PhiFunction.cube()):
        base = np.array(bregman_maps(phi, u, v))
        _close(bregman_maps(phi, _conj(u, w), _conj(v, w)), base)
        _close(bregman_maps(phi, _tensor(u, k), _tensor(v, k)), k * base)
        summed = bregman_maps(phi, _dsum(u, u2), _dsum(v, v2))
        _close(summed, base + np.array(bregman_maps(phi, u2, v2)))


@pytest.mark.parametrize(
    "phi, d", [(GENERATORS[0], 2), (GENERATORS[1], 3), (PhiFunction.cube(), 1)],
    ids=lambda x: getattr(x, "label", x),
)
def test_bregman_joint_convexity_verdicts_metamorphic(phi, d):
    w = random_unitary(rng_for(0, "metamorphic-bregman-verdicts", d), d)
    maps = {
        "unitary": lambda a: _conj(a, w),
        "tensor": lambda a: _tensor(a, 2),
        "direct-sum": lambda a: _dsum(a, a),
    }
    for index in range(3):
        def verdict(fmap=lambda a: a):
            return check_joint_convexity(
                lambda u, v: bregman_maps(phi, fmap(u), fmap(v))[index],
                bregman_pair_sampler(d), trials=30, seed=5,
            ).passed

        base = verdict()
        assert base == phi.in_entropy_class
        for name, fmap in maps.items():
            assert verdict(fmap) == base, (name, index)
