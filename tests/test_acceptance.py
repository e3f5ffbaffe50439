"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s); the
counts, dimensions, and tolerances are fixed here and not calibrated
anywhere else.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from matphi.concentration import (
    check_gaussian_logsobolev,
    check_gaussian_poincare,
    check_gaussian_sobolev,
    check_plus_identities,
    check_poincare,
    check_poincare_commuting,
    efron_stein_forms,
    efron_stein_quantity,
    variance,
)
from matphi.entropy import (
    bregman_maps,
    bregman_pair_sampler,
    check_char_a,
    check_char_e,
    check_char_g,
    check_char_h,
    check_joint_convexity,
    check_subadditivity,
    duality_lower_bound,
    phi_entropy,
)
from matphi.fourier import (
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_p_variance_limit,
    check_phi_sobolev,
    dirichlet_energy_flip,
    dirichlet_energy_spectral,
    entropy_of_square,
    fourier_transform,
    search_lsi_counterexample,
    uniform_cube_model,
)
from matphi.frechet import (
    MultivariateScalarFunction,
    fd_frechet,
    fd_frechet_second,
    frechet_derivative,
    frechet_second,
)
from matphi.holevo import (
    CQEnsemble,
    MarkovKernel,
    check_data_processing,
    check_law_total_variance,
    classical_sdpi_ratio,
    eta_phi,
    holevo_chi,
    random_ensemble,
)
from matphi.models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_boolean_function,
    random_kernel,
    random_law,
    random_pd,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)

SEED = 42
PHI_SET = [
    PhiFunction.power(1.2),
    PhiFunction.power(1.5),
    PhiFunction.power(2.0),
    PhiFunction.xlogx(),
]
XLOGX = PhiFunction.xlogx()


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_exact_identities():
    """Exact identities below 1e-10 over 1e3 seeded instances each."""
    start = time.time()
    instances = 1000
    d_cycle = [1, 2, 3, 4]
    n_cycle = [1, 2, 3, 4, 5, 6]
    worst = 0.0

    for trial in range(instances):
        d = d_cycle[trial % 4]
        n = n_cycle[trial % 6]
        rng = rng_for(SEED, "acc1-parseval", trial)
        f = MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=False))
        coeffs = fourier_transform(f).coeffs
        lhs = np.mean(np.einsum("kij,kjl->kil", f.table, f.table), axis=0)
        rhs = np.einsum("kij,kjl->il", coeffs, coeffs)
        scale = 1.0 + float(np.max(np.abs(f.table))) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)

    for trial in range(instances):
        d = d_cycle[trial % 4]
        n = n_cycle[trial % 6]
        rng = rng_for(SEED, "acc1-dirichlet", trial)
        f = MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=False))
        spectral = dirichlet_energy_spectral(f)
        flip = dirichlet_energy_flip(f)
        resampled = efron_stein_quantity(uniform_cube_model(f))
        scale = 1.0 + abs(spectral)
        worst = max(worst, abs(spectral - flip) / scale)
        worst = max(worst, abs(spectral - resampled) / scale)

    for trial in range(instances):
        d = d_cycle[trial % 4]
        rng = rng_for(SEED, "acc1-ltv", trial)
        k = 6
        probs = rng.random(k) + 0.1
        probs /= probs.sum()
        values = np.stack([random_psd(rng, d) for _ in range(k)])
        labels = [int(rng.integers(0, 3)) for _ in range(k)]
        rep = check_law_total_variance(XLOGX, probs, values, labels)
        scale = 1.0 + abs(rep.details["total"])
        worst = max(worst, rep.max_gap / scale)

    for trial in range(instances):
        d = d_cycle[trial % 4]
        n = n_cycle[trial % 6]
        rng = rng_for(SEED, "acc1-esforms", trial)
        model = random_product_model(rng, d, n, arity=2, psd=False)
        f1, f2, f3 = efron_stein_forms(model)
        scale = 1.0 + abs(f1)
        worst = max(worst, max(abs(f1 - f2), abs(f1 - f3)) / scale)

    for trial in range(instances):
        d = d_cycle[trial % 4]
        rng = rng_for(SEED, "acc1-plus", trial)
        law = random_law(rng, d, 2, psd=False)
        q = 1 + trial % 3
        rep = check_plus_identities(law, q)
        scale = 1.0 + float(np.max(np.abs(law.values))) ** q
        worst = max(worst, rep.max_gap / scale)
        assert rep.passed

    elapsed = time.time() - start
    assert worst < 1e-10, f"worst relative deviation {worst}"
    assert elapsed < 60.0, f"identities took {elapsed:.1f}s"
    _report("1 exact identities", f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_inequality_suites():
    """Zero violations over 1e3 seeded instances per inequality check."""
    start = time.time()
    instances = 1000
    d_cycle = [1, 2, 3]
    tol_rel = 1e-8

    def over(label):
        for trial in range(instances):
            yield trial, d_cycle[trial % 3], PHI_SET[trial % 4], rng_for(SEED, label, trial)

    for trial, d, phi, rng in over("acc2-subadd"):
        model = random_product_model(rng, d, 2, arity=2)
        rep = check_subadditivity(phi, model)
        scale = 1.0 + abs(rep.details["lhs"]) + abs(rep.details["rhs"])
        assert rep.max_gap <= tol_rel * scale, f"subadditivity trial {trial}"

    for trial, d, phi, rng in over("acc2-efron"):
        model = random_product_model(rng, d, 2, arity=2, psd=False)
        var = variance(model.to_law())
        bound = efron_stein_quantity(model)
        assert var - bound <= tol_rel * (1 + abs(var) + abs(bound)), f"trial {trial}"

    for trial, d, phi, rng in over("acc2-poincare"):
        def contraction():
            a = random_psd(rng, d)
            return a / (float(np.linalg.eigvalsh(a)[-1]) + float(rng.uniform(0.1, 1.0)))

        laws = tuple(
            FiniteLaw(np.array([0.5, 0.5]), (contraction(), contraction()))
            for _ in range(2)
        )
        if trial % 2 == 0:
            coeffs = rng.uniform(0.3, 1.0, 2)
            model = MatrixInputModel(
                laws,
                lambda xs, c=coeffs: sum(ck * x for ck, x in zip(c, xs)),
                partial_norm=lambda xs, i, c=coeffs: float(c[i]),
            )
        else:
            model = MatrixInputModel(
                laws,
                lambda xs: sum(x @ x for x in xs),
                partial_norm=lambda xs, i: 2.0 * float(np.linalg.eigvalsh(xs[i])[-1]),
            )
        rep = check_poincare(model, spot_check_probes=0, seed=SEED)
        scale = 1.0 + abs(rep.details["variance"]) + abs(rep.details["bound"])
        assert rep.max_gap <= tol_rel * scale, f"poincare trial {trial}"

    squares = MultivariateScalarFunction(
        n=2,
        fn=lambda x: float(x[0] ** 2 + x[1] ** 2),
        partial=lambda i, x: float(2 * x[i]),
    )
    for trial, d, phi, rng in over("acc2-poincare-comm"):
        laws = tuple(
            FiniteLaw(
                np.array([0.5, 0.5]),
                (
                    np.diag(rng.uniform(0, 1, d)).astype(complex),
                    np.diag(rng.uniform(0, 1, d)).astype(complex),
                ),
            )
            for _ in range(2)
        )
        rep = check_poincare_commuting(laws, squares)
        scale = 1.0 + abs(rep.details["variance"]) + abs(rep.details["bound"])
        assert rep.max_gap <= tol_rel * scale, f"poincare-commuting trial {trial}"

    bb_ps = (1.0, 1.25, 1.5, 1.75, 2.0)
    for trial, d, phi, rng in over("acc2-bb"):
        f = MatrixBooleanFunction(3, random_boolean_function(rng, 3, d, psd=True))
        rep = check_bonami_beckner(f, bb_ps[trial % 5])
        scale = 1.0 + abs(rep.details["lhs"]) + abs(rep.details["rhs"])
        assert rep.max_gap <= tol_rel * scale, f"bonami-beckner trial {trial}"

    sob_ps = (1.1, 1.5, 1.9)
    for trial, d, phi, rng in over("acc2-sobolev"):
        f = MatrixBooleanFunction(3, random_boolean_function(rng, 3, d, psd=True))
        rep = check_phi_sobolev(f, sob_ps[trial % 3])
        scale = 1.0 + abs(rep.details["lhs"]) + abs(rep.details["rhs"])
        assert rep.max_gap <= tol_rel * scale, f"phi-sobolev trial {trial}"

    for trial, d, phi, rng in over("acc2-lsi"):
        f = MatrixBooleanFunction(3, random_boolean_function(rng, 3, d, psd=True))
        rep = check_log_sobolev(f)
        scale = 1.0 + abs(rep.details["entropy"]) + abs(rep.details["rhs"])
        assert rep.max_gap <= tol_rel * scale, f"log-sobolev trial {trial}"

    for trial, d, phi, rng in over("acc2-dp"):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ens = random_ensemble(rng, nx, d)
        kernel = MarkovKernel(random_kernel(rng, nx, ny))
        rep = check_data_processing(ens, kernel)
        assert rep.max_gap <= tol_rel * (1 + rep.details["chi_in"]), f"dp trial {trial}"

    for trial, d, phi, rng in over("acc2-duality"):
        probs = np.array([0.25, 0.35, 0.4])
        z = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, d) for _ in range(3)]))
        t = DiscreteRandomMatrix(
            probs, np.stack([random_pd(rng, d, floor=0.05) for _ in range(3)])
        )
        bound = duality_lower_bound(phi, z, t)
        h = phi_entropy(phi, z)
        assert bound - h <= tol_rel * (1 + abs(h) + abs(bound)), f"duality trial {trial}"

    elapsed = time.time() - start
    assert elapsed < 600.0, f"inequality suites took {elapsed:.1f}s"
    _report("2 inequality suites", f"9x{instances} instances, {elapsed:.1f}s")


def test_criterion_3_characterization_cross_consistency():
    """In-class generators pass (a)-(h) on shared seeds; the cube control
    yields explicit witnesses for (a), (d), (e) at d = 1."""
    trials = 60
    for phi in PHI_SET:
        if not phi.is_affine:
            assert check_char_a(phi, trials=trials, d=2, seed=SEED).passed, phi.label

        for index in (0, 1, 2):  # (b), (c), (d)
            rep = check_joint_convexity(
                lambda u, v, i=index, p=phi: bregman_maps(p, u, v)[i],
                bregman_pair_sampler(2),
                trials=trials,
                seed=SEED,
                label=f"acc3-{phi.label}-{index}",
            )
            assert rep.passed, f"{phi.label} component {index}"

        for trial in range(trials):  # (e)
            rng = rng_for(SEED, f"acc3-e-{phi.label}", trial)
            a = random_pd(rng, 2, floor=0.4)
            res = check_char_e(
                phi, a, random_unit_hermitian(rng, 2), random_unit_hermitian(rng, 2)
            )
            assert res.holds, f"{phi.label} (e) trial {trial}"

        scalar = phi.scalar()
        for trial in range(trials):  # (f)
            rng = rng_for(SEED, f"acc3-f-{phi.label}", trial)
            t = float(rng.uniform(0.05, 0.95))
            u1, v1 = random_pd(rng, 2, 0.05), random_pd(rng, 2, 0.05)
            u2, v2 = random_pd(rng, 2, 0.05), random_pd(rng, 2, 0.05)

            def f_t(u, v):
                from matphi.linalg import normalized_trace

                mixed = t * u + (1 - t) * v
                return 2.0 * normalized_trace(
                    t * scalar.apply(u) + (1 - t) * scalar.apply(v) - scalar.apply(mixed)
                )

            lhs = 0.5 * f_t(u1, v1) + 0.5 * f_t(u2, v2)
            rhs = f_t(0.5 * (u1 + u2), 0.5 * (v1 + v2))
            assert rhs - lhs <= 1e-8 * (1 + abs(lhs) + abs(rhs)), f"{phi.label} (f)"

        for trial in range(trials):  # (g)
            rng = rng_for(SEED, f"acc3-g-{phi.label}", trial)
            model = random_product_model(rng, 2, 2, arity=2)
            assert check_char_g(phi, model).passed, f"{phi.label} (g) trial {trial}"

        for trial in range(trials):  # (h)
            rng = rng_for(SEED, f"acc3-h-{phi.label}", trial)
            probs = np.array([0.3, 0.7])
            z1 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(2)]))
            z2 = DiscreteRandomMatrix(probs, np.stack([random_psd(rng, 2) for _ in range(2)]))
            assert check_char_h(phi, z1, z2, float(rng.uniform())).passed

    cube = PhiFunction.cube()
    budget = 10000

    rep_a = check_char_a(cube, trials=200, d=1, seed=SEED)
    assert not rep_a.passed and rep_a.violations
    assert rep_a.trials <= budget

    rep_d = check_joint_convexity(
        lambda u, v: bregman_maps(cube, u, v)[2],
        bregman_pair_sampler(1),
        trials=500,
        seed=SEED,
        label="acc3-cube-d",
    )
    assert not rep_d.passed and rep_d.violations
    assert rep_d.trials <= budget

    e_violations = 0
    for trial in range(200):
        rng = rng_for(SEED, "acc3-cube-e", trial)
        a = np.array([[float(rng.uniform(0.5, 2.0))]])
        res = check_char_e(cube, a, np.array([[1.0]]), np.array([[1.0]]))
        if not res.holds:
            e_violations += 1
    assert e_violations > 0
    _report(
        "3 characterization cross-consistency",
        f"4 generators x 8 checks, cube witnesses a/d/e",
    )


def test_criterion_4_gradient_checks():
    """Daleckii-Krein derivatives against central differences."""
    fns = [PhiFunction.power(2.0), PhiFunction.xlogx(), PhiFunction.power(1.5)]
    worst_first = 0.0
    worst_second = 0.0
    for trial in range(1000):
        rng = rng_for(SEED, "acc4", trial)
        phi = fns[trial % 3]
        d = 1 + trial % 4
        sf = phi.scalar()
        a = random_pd(rng, d, floor=0.4)
        e = random_unit_hermitian(rng, d)
        exact = frechet_derivative(sf, a, e)
        approx = fd_frechet(sf.apply, a, e)
        rel = float(np.linalg.norm(exact - approx)) / (1.0 + float(np.linalg.norm(exact)))
        worst_first = max(worst_first, rel)
        if trial % 4 == 0:
            exact2 = frechet_second(sf, a, e, e)
            approx2 = fd_frechet_second(sf.apply, a, e, e)
            rel2 = float(np.linalg.norm(exact2 - approx2)) / (
                1.0 + float(np.linalg.norm(exact2))
            )
            worst_second = max(worst_second, rel2)
    assert worst_first < 1e-6, f"first-order mismatch {worst_first}"
    assert worst_second < 1e-4, f"second-order mismatch {worst_second}"
    _report("4 gradient checks", f"first {worst_first:.2e}, second {worst_second:.2e}")


def test_criterion_5_counterexample_reproduction():
    """d = 2 searches find tight-bound violations; d = 1 stays tight."""
    start = time.time()
    for n in (1, 2, 3):
        result = search_lsi_counterexample(d=2, n=n, restarts=20, steps=300, seed=SEED)
        assert result.found, f"no witness at n={n}"
        assert result.objective > 1e-6
        # re-verify from the raw table
        ent = entropy_of_square(result.f)
        energy = dirichlet_energy_flip(result.f)
        assert ent - 2.0 * energy == pytest.approx(result.objective, abs=1e-12)
    scalar = search_lsi_counterexample(d=1, n=1, restarts=10000, steps=300, seed=SEED)
    assert not scalar.found
    assert scalar.objective <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 300.0, f"search took {elapsed:.1f}s"
    _report("5 counterexample reproduction", f"{elapsed:.1f}s")


def test_criterion_6_p_variance_limit():
    """Richardson-extrapolated p-variance against the closed-form limit."""
    for trial in range(100):
        rng = rng_for(SEED, "acc6", trial)
        law = random_law(rng, 2, 2, psd=True, pd_floor=0.2)
        rep = check_p_variance_limit(law)
        assert rep.passed, f"trial {trial}: deviation {rep.max_gap}"
        assert rep.max_gap < 1e-4
        assert rep.details["linear_shrink"]
    _report("6 p-variance limit", "100 laws within 1e-4")


def test_criterion_7_gaussian_statistical_checks():
    """Monte Carlo 1e5-sample checks at six standard errors."""
    samples = 100000
    rep = check_gaussian_poincare(
        lambda x: float(np.sum(x)), n=3, samples=samples, seed=SEED,
        partials=lambda x, i: 1.0,
    )
    assert rep.passed
    assert rep.details["bound"] == pytest.approx(3.0, abs=1e-12)
    assert abs(rep.details["variance"] - 3.0) / 3.0 < 0.02

    rep = check_gaussian_poincare(
        lambda x: float(x[0] ** 2), n=1, samples=samples, seed=SEED,
        partials=lambda x, i: 2.0 * x[0],
    )
    assert rep.passed

    base = np.array([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]], dtype=complex)
    rep = check_gaussian_sobolev(
        lambda x: float(np.exp(x[0] / 4.0)) * base, p=1.5, n=2,
        samples=samples, seed=SEED,
    )
    assert rep.passed

    rep = check_gaussian_logsobolev(
        lambda x: np.array([[np.exp(0.25 * x[0])]], dtype=complex),
        n=1, samples=samples, seed=SEED,
    )
    assert rep.passed
    _report("7 gaussian statistical checks", f"{samples} samples each")


def test_criterion_8_holevo_reference_values():
    """Holevo reference values and the strong data-processing constants."""
    ens = CQEnsemble(
        np.array([0.5, 0.5]),
        np.stack(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        ),
    )
    assert abs(holevo_chi(ens) - np.log(2.0)) < 1e-12

    mu = np.array([0.5, 0.5])
    identity = eta_phi(mu, MarkovKernel.identity(2), d=2, grid_resolution=0.25,
                       restarts=2, hill_steps=10, seed=SEED)
    assert identity.eta_hat == 1.0
    constant = eta_phi(mu, MarkovKernel.constant(2, [0.4, 0.6]), d=2,
                       grid_resolution=0.25, restarts=2, hill_steps=10, seed=SEED)
    assert constant.eta_hat == 0.0

    for trial in range(20):
        rng = rng_for(SEED, "acc8", trial)
        kernel = MarkovKernel(random_kernel(rng, 2, 2))
        result = eta_phi(mu, kernel, d=2, grid_resolution=0.25, restarts=3,
                         hill_steps=30, seed=trial)
        assert 0.0 <= result.eta_hat <= 1.0 + 1e-9

    kernel = MarkovKernel.binary_symmetric(0.1)
    scalar = eta_phi(mu, kernel, d=1, grid_resolution=0.05, restarts=10, seed=SEED)
    direct = classical_sdpi_ratio(mu, kernel, scalar.witness)
    assert abs(scalar.eta_hat - direct) < 1e-6
    _report("8 holevo reference values", f"eta(BSC 0.1) = {scalar.eta_hat:.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    """matphi all --seed 42 yields identical reports across runs and jobs."""
    outputs = []
    for tag, jobs in (("first", 1), ("second", 1), ("parallel", 8)):
        out = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "matphi.cli", "all", "--seed", "42",
                "--jobs", str(jobs), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        payload.pop("wall_clock")
        payload["config"].pop("jobs")
        payload["config"].pop("out")
        outputs.append(payload)
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    _report("9 determinism", "3 runs identical modulo timing")
