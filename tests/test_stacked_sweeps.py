"""The one sweep loop. The stacked characterization and hypercube sweeps
draw their trials one at a time and judge them in one kernel call; the
other sweeps and ``check_joint_convexity`` judge each trial alone. Every
report must be the bytes of the per-trial loop kept in ``support`` (the old
bodies, kernels and sweep fold), the stacked sweeps must refuse as that
loop refuses, and their number of spectral calls must not grow with the
trials."""

import itertools
import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import matphi.concentration
import matphi.entropy
import matphi.fourier
import matphi.report
import matphi.sampling
import matphi.suites
import support
from matphi import PhiFunction, bregman_maps, check_char_a, check_char_e, check_char_h
from matphi.concentration import check_efron_stein
from matphi.entropy import (
    CharEResult,
    bregman_pair_sampler,
    check_char_g,
    check_joint_convexity,
    check_subadditivity,
)
from matphi.errors import DomainError, MatPhiError
from matphi.fourier import check_bonami_beckner, check_log_sobolev, check_phi_sobolev
from matphi.linalg import frobenius_norm
from matphi.models import DiscreteRandomMatrix
from matphi.sampling import (
    random_pd,
    random_probability_vector,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)
from matphi.report import BLOCK_ENTRIES, MAX_WITNESSES, Inequality, judged, sweep
from matphi.suites import CHECKS, Run, RunConfig, Sweep, _clamp, run_suite
from support import cube_function, reference_characterizations

STACKED = [
    "char-a", "char-b", "char-c", "char-d", "char-e", "char-f", "char-g", "char-h", "char-i",
    "char-j",
]
PHIS = ["xlogx", "power:1.2", "power:1.5", "power:2", "affine:2,1", "cube"]
CASES = [
    (name, phi) for name in STACKED for phi in PHIS
    if not (name == "char-a" and PhiFunction.parse(phi).is_affine)
]


def _bytes(report) -> str:
    # json keeps what dict equality hides: -0.0 against 0.0, and NaN
    return json.dumps(report.to_dict(), sort_keys=True)


def _stacked(name, phi, d, seed, trials, tol=None):
    return CHECKS[name](name, RunConfig(seed=seed, d=d, phi=phi, trials=trials, tol=tol))


def _assert_reference_bytes(name, phi, d, seed, trial_counts, tol=None):
    want = reference_characterizations(name, PhiFunction.parse(phi), d, seed, trial_counts, tol)
    for trials, reference in zip(trial_counts, want):
        assert _bytes(_stacked(name, phi, d, seed, trials, tol)) == _bytes(reference), (
            name, phi, d, seed, trials, tol
        )
    return want


@pytest.mark.parametrize("name, phi", CASES)
def test_stacked_sweeps_report_the_per_trial_bytes(name, phi):
    # 1, 50 and 200 trials at one seed, and 8 seeds at every d
    _assert_reference_bytes(name, phi, 2, 0, (1, 50, 200))
    for d in (1, 2, 3):
        for seed in range(1, 9):
            _assert_reference_bytes(name, phi, d, seed, (4,))


@pytest.mark.parametrize("name", STACKED)
def test_a_zero_tolerance_keeps_the_per_trial_witnesses(name):
    # --tol 0 makes violations of the rounding noise of power:2 and affine
    # generators, without witnesses, and of the cube's gaps, most with one
    reports = [
        _assert_reference_bytes(name, phi, 2, 3, (20,), tol=0.0)[0]
        for phi in ("power:2", "affine:2,1", "cube")
        if not (name == "char-a" and PhiFunction.parse(phi).is_affine)
    ]
    assert any(not report.passed for report in reports)


@pytest.mark.parametrize("name", ["char-a", "char-b", "char-c", "char-d", "char-e"])
def test_the_cube_fills_the_witness_cap_as_the_per_trial_loop_does(name):
    (report,) = _assert_reference_bytes(name, "cube", 2, 7, (50,))
    assert len(report.violations) == MAX_WITNESSES


@pytest.mark.parametrize("name", STACKED)
def test_blocks_are_bit_identical(monkeypatch, name):
    # a budget of one trial judges each trial alone; of three, splits 7
    # trials 3 + 3 + 1, with witnesses in every block
    spec = CHECKS[name]
    for per_block in (1, 3):
        monkeypatch.setattr(matphi.report, "BLOCK_ENTRIES", per_block * spec.entries(2))
        for phi, tol in (("cube", None), ("xlogx", 0.0)):
            _assert_reference_bytes(name, phi, 2, 11, (7,), tol)


SPECIAL_GAPS = [0.0, -0.0, np.nan, 1.0, -1.0, np.inf, -np.inf, 1e-300]


def test_both_sweeps_fold_as_the_per_probe_maximum():
    # signed zeros, NaN and infinities: the same max_gap bits and the same
    # first five violations as the np.maximum fold, with the probes judged
    # two to a trial in blocks of two trials, and drawn one to a trial and
    # read by the judge of self-judged draws in blocks of three
    rng = np.random.default_rng(0)
    for _ in range(300):
        gaps = rng.choice(SPECIAL_GAPS, size=(int(rng.integers(1, 8)), 2))
        tols = rng.choice([0.0, 1.0, np.nan], size=gaps.shape)
        trials = len(gaps)

        def body(rng, trial):
            return [(gaps[trial, p], tols[trial, p], {"p": p} if p else None) for p in range(2)]

        def judge(trial):
            return gaps[trial], tols[trial], lambda b, p: {"p": p} if p else None

        want = _bytes(support.reference_sweep("x", body, trials, 0))
        stacked = sweep(
            "x", lambda rng, trial: (trial,), judge, trials, 0, entries=BLOCK_ENTRIES // 2
        )
        assert _bytes(stacked) == want

        def own(rng, trial):
            return gaps.flat[trial], tols.flat[trial], {"p": 1} if trial % 2 else None

        want = _bytes(support.reference_sweep("x", own, 2 * trials, 0))
        assert _bytes(sweep("x", own, judged, 2 * trials, 0, entries=BLOCK_ENTRIES // 3)) == want


# The sweeps that judge each trial alone: the suites' other sweeps, whose
# bodies return a (gap, tol, witness) triple or a CheckReport, and
# functional-sdpi's inner sweep, against the per-trial loop of ``support``.
PER_TRIAL = [name for name, spec in CHECKS.items() if isinstance(spec, Sweep) and not spec.judge]


def _reference_per_trial(name, spec, config, tol, outcomes=None):
    """The per-trial loop over the body of ``spec`` as ``Sweep`` runs it
    at config, judged against tol; trial outcomes are cached in
    ``outcomes``, if given."""
    phi = None if spec.generator is None else spec.generator(config.phi_fn)
    n = None if spec.n is None else _clamp(config.n, spec.n)
    run = Run(phi, _clamp(config.d, spec.d), n, config.seed)
    body = partial(spec.body, run=run)
    if outcomes is not None:
        def body(rng, trial, body=body):
            if trial not in outcomes:
                outcomes[trial] = body(rng, trial)
            return outcomes[trial]
    return support.reference_sweep(
        name, body, config.trials, config.seed, tol=tol,
        phi=None if phi is None else phi.label, d=run.d, n=run.n,
    )


PER_TRIAL_CONFIGS = [
    RunConfig(seed=seed, trials=trials, tol=tol)
    for seed in (0, 42) for trials, tol in ((1, None), (50, None), (50, 0.0))
]


def test_twelve_sweeps_judge_their_trials_alone():
    assert len(PER_TRIAL) == 12


@pytest.mark.parametrize("name", PER_TRIAL)
def test_per_trial_sweeps_run_through_the_one_loop_unchanged(name):
    spec = CHECKS[name]
    for seed in (0, 42):
        outcomes = {}
        for config in (c for c in PER_TRIAL_CONFIGS if c.seed == seed):
            want = _reference_per_trial(name, spec, config, config.tol, outcomes)
            assert _bytes(spec(name, config)) == _bytes(want), config


def _violating_everywhere(monkeypatch):
    """Make every gap of the suite sweeps a violation: ``Sweep`` calls the
    loop with a tolerance below every gap."""
    real = matphi.suites.sweep
    monkeypatch.setattr(
        matphi.suites, "sweep", lambda *args, **kwargs: real(*args, **{**kwargs, "tol": -np.inf})
    )


@pytest.mark.parametrize("name, key", [("p-variance-limit", "residuals")])
def test_per_trial_witnesses_come_through_unchanged(monkeypatch, name, key):
    # p-variance-limit gives its residuals only when a trial fails
    real = matphi.fourier.check_p_variance_limit
    monkeypatch.setattr(
        matphi.fourier, "check_p_variance_limit", lambda law: replace(real(law), passed=False)
    )
    _violating_everywhere(monkeypatch)
    spec, config = CHECKS[name], RunConfig(seed=3, trials=12)
    report = spec(name, config)
    assert _bytes(report) == _bytes(_reference_per_trial(name, spec, config, -np.inf))
    assert len(report.violations) == MAX_WITNESSES
    assert all(key in violation for violation in report.violations)


def test_functional_sdpi_runs_its_inner_sweep_through_the_one_loop(monkeypatch):
    inner = []

    class Recording(Sweep):
        def __call__(self, name, config):
            report = super().__call__(name, config)
            inner.append((self, _bytes(report)))
            return report

    monkeypatch.setattr(matphi.suites, "Sweep", Recording)
    for config in PER_TRIAL_CONFIGS:
        inner.clear()
        CHECKS["functional-sdpi"]("functional-sdpi", config)
        ((spec, got),) = inner
        want = _reference_per_trial("functional-sdpi", spec, config, config.tol)
        assert got == _bytes(want), config


# The stacked hypercube sweeps: a trial draws its raw table (and its
# exponent or noise rates), a judge takes a block of tables, against the
# per-trial bodies of ``support`` that check each function alone.
CUBE = ["fourier-round-trip", "parseval", "noise-composition", "bonami-beckner", "phi-sobolev",
        "log-sobolev"]


def _reference_cube(name, config, tol=None):
    spec = CHECKS[name]
    run = Run(None, _clamp(config.d, spec.d), _clamp(config.n, spec.n), config.seed)
    return support.reference_sweep(
        name, partial(support.CUBE_BODIES[name], run=run), config.trials, config.seed,
        tol=config.tol if tol is None else tol, phi=None, d=run.d, n=run.n,
    )


def _assert_cube_bytes(name, **options):
    config = RunConfig(**options)
    report = CHECKS[name](name, config)
    assert _bytes(report) == _bytes(_reference_cube(name, config)), options
    return report


@pytest.mark.parametrize("name", CUBE)
def test_cube_sweeps_report_the_per_trial_bytes(name):
    # 1, 50 and 200 trials at one seed; d 1 to 3 at several seeds and n
    # from 0 to the clamp, where a zero tolerance records the rounding of
    # every gap; and 40 trials at n = 6, d = 3, in several blocks
    for trials in (1, 50, 200):
        _assert_cube_bytes(name, seed=0, trials=trials)
    for d in (1, 2, 3):
        for seed in range(1, 4):
            for n in (0, 1, 2, 3, 5, 6):
                for tol in (None, 0.0):
                    _assert_cube_bytes(name, seed=seed, d=d, n=n, trials=10, tol=tol)
    _assert_cube_bytes(name, seed=5, d=3, n=6, trials=40)


def test_the_cube_entries_keep_the_parent_arithmetic():
    # the public entries that the sweeps' stack kernels serve, on one table
    # each, against the kernels as they were before they took stacks
    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for n, d, seed, psd in itertools.product(range(7), (1, 2, 3), range(3), (False, True)):
        f = cube_function(rng_for(seed, "parent-cube", 8 * n + d), n, d, psd)
        coeffs = matphi.fourier.fourier_transform(f).coeffs
        assert same(coeffs, support.parent_fwht(f.table) / 2**n), (n, d, seed)
        back = matphi.fourier.inverse_fourier(matphi.fourier.FourierTable(n, coeffs)).table
        want = matphi.fourier.MatrixBooleanFunction(n, support.parent_fwht(coeffs)).table
        assert same(back, want)
        for gamma in (0.0, 0.37, 0.5, 1.0):
            noised = matphi.fourier.noise_operator(matphi.fourier.FourierTable(n, coeffs), gamma)
            assert same(noised.coeffs, support.parent_noise(coeffs, n, gamma)), gamma
        rep = matphi.fourier.parseval_check(f)
        assert same((rep.max_gap, rep.tol), support.parent_parseval(f))
        energy = matphi.fourier.dirichlet_energy_spectral(f)
        assert same(energy, support.parent_energy(f))
        if not psd:
            continue
        for p in (1.0, 1.25, 1.5, 1.75, 2.0):
            rep = check_bonami_beckner(f, p)
            assert same((rep.details["lhs"], rep.details["rhs"]),
                        support.parent_bonami_beckner(f, p)), p
        for p in (1.1, 1.5, 1.9):
            rep = check_phi_sobolev(f, p)
            want = support.parent_phi_sobolev(f.table, energy, p)
            assert same((rep.details["lhs"], rep.details["rhs"]), want), p
        rep = check_log_sobolev(f)
        want = support.parent_log_sobolev(f.table, energy)
        assert same((rep.details["entropy"], rep.details["rhs"]), want)


@pytest.mark.parametrize("name", CUBE)
def test_a_zero_tolerance_keeps_the_cube_bytes(name):
    # --tol 0 makes violations of the identities' rounding noise, and of
    # Bonami-Beckner's at p = 2, where its two sides agree to rounding
    reports = [_assert_cube_bytes(name, seed=seed, trials=20, tol=0.0) for seed in (3, 4)]
    if name not in ("phi-sobolev", "log-sobolev"):
        assert any(not report.passed for report in reports)


@pytest.mark.parametrize("name", CUBE)
def test_cube_blocks_are_bit_identical(monkeypatch, name):
    # a budget of one trial judges each trial alone; of three, splits 7
    # trials 3 + 3 + 1
    spec = CHECKS[name]
    for per_block in (1, 3):
        monkeypatch.setattr(matphi.report, "BLOCK_ENTRIES", per_block * spec.entries(2))
        for tol in (None, 0.0):
            _assert_cube_bytes(name, seed=11, trials=7, tol=tol)


def test_the_largest_cube_tables_split_into_several_blocks(monkeypatch):
    # at n = 6 and d = 3, 300 trials of each clamp's largest table take
    # several blocks, whose eight tables' worth fits in BLOCK_ENTRIES
    blocks = {}
    real = matphi.report.sweep

    def counted(label, draw, judge, trials, seed, tol=None, entries=1, **fields):
        def judging(*stacks):
            blocks.setdefault(label, []).append(len(stacks[0]))
            assert 8 * stacks[0].size <= BLOCK_ENTRIES
            return judge(*stacks)

        return real(label, draw, judging, trials, seed, tol=tol, entries=entries, **fields)

    monkeypatch.setattr(matphi.suites, "sweep", counted)
    for name in CUBE:
        CHECKS[name](name, RunConfig(seed=42, d=3, n=6, trials=300))
        assert len(blocks[name]) > 1 and sum(blocks[name]) == 300, (name, blocks[name])


@pytest.mark.parametrize("name", CUBE)
def test_cube_witnesses_where_every_gap_fails(monkeypatch, name):
    # bonami-beckner's and phi-sobolev's witnesses hold their exponent
    _violating_everywhere(monkeypatch)
    config = RunConfig(seed=3, trials=12)
    report = CHECKS[name](name, config)
    assert _bytes(report) == _bytes(_reference_cube(name, config, tol=-np.inf))
    assert len(report.violations) == MAX_WITNESSES
    keys = ["gap", "p", "trial"] if name in ("bonami-beckner", "phi-sobolev") else ["gap", "trial"]
    assert all(sorted(violation) == keys for violation in report.violations)


# check_joint_convexity: a sweep of one trial a block over a user's map,
# against the per-trial probes of ``support``.

def _reference_joint_convexity(map_fn, sampler, trials, seed):
    def body(rng, trial):
        return support.reference_joint_convexity_probes(map_fn, sampler(rng), rng)

    return support.reference_sweep("joint-convexity", body, trials, seed)


@pytest.mark.parametrize("phi", ["xlogx", "power:1.5"])
def test_check_joint_convexity_reports_the_per_trial_bytes(phi):
    phi = PhiFunction.parse(phi)
    for d in (1, 2, 3):
        for index in range(3):
            def map_fn(u, v):
                return bregman_maps(phi, u, v)[index]

            sampler = bregman_pair_sampler(d)
            for seed in (0, 1):
                got = check_joint_convexity(map_fn, sampler, 20, seed)
                assert _bytes(got) == _bytes(_reference_joint_convexity(map_fn, sampler, 20, seed))


def test_check_joint_convexity_fills_the_witness_cap_as_the_per_trial_loop_does():
    cube = PhiFunction.parse("cube")

    def map_fn(u, v):
        return bregman_maps(cube, u, v)[2]

    sampler = bregman_pair_sampler(1)
    got = check_joint_convexity(map_fn, sampler, 50, 7)
    assert _bytes(got) == _bytes(_reference_joint_convexity(map_fn, sampler, 50, 7))
    assert len(got.violations) == MAX_WITNESSES


def test_check_joint_convexity_refuses_after_the_per_trial_map_calls():
    # the map refuses the mix at 1/2 of trial 2, its 11th call
    def refusing(calls):
        def map_fn(u, v):
            calls.append(np.concatenate([u, v]).tobytes())
            if len(calls) == 11:
                raise DomainError(f"refused call {len(calls)}")
            return bregman_maps(PhiFunction.xlogx(), u, v)[0]

        return map_fn

    sampler = bregman_pair_sampler(2)
    want_calls, got_calls = [], []
    want = _error(lambda: _reference_joint_convexity(refusing(want_calls), sampler, 5, 4))
    assert _error(lambda: check_joint_convexity(refusing(got_calls), sampler, 5, 4)) == want
    assert got_calls == want_calls and len(got_calls) == 11


def test_check_joint_convexity_judges_one_trial_a_call(monkeypatch):
    blocks = []
    real = matphi.entropy.convexity_judge

    def counted(map_values, pairs, weight):
        blocks.append(len(pairs))
        return real(map_values, pairs, weight)

    monkeypatch.setattr(matphi.entropy, "convexity_judge", counted)
    report = check_joint_convexity(
        lambda u, v: bregman_maps(PhiFunction.xlogx(), u, v)[1], bregman_pair_sampler(2), 7, 0
    )
    assert report.passed and blocks == [1] * 7


@pytest.mark.parametrize("trials", [0, -3])
def test_a_sweep_of_no_trials_is_refused_before_any_draw(monkeypatch, trials):
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("char_a_draw", "char_a_judge"):
        monkeypatch.setattr(matphi.entropy, name, counted(name, getattr(matphi.entropy, name)))
    xlogx = PhiFunction.xlogx()
    with pytest.raises(ValueError, match=f"char-a: trials must be at least 1, got {trials}"):
        check_char_a(xlogx, trials=trials, d=2)
    sampler = counted("sampler", bregman_pair_sampler(2))
    map_fn = counted("map", lambda u, v: bregman_maps(xlogx, u, v)[0])
    with pytest.raises(ValueError, match="joint-convexity: trials must be at least 1"):
        check_joint_convexity(map_fn, sampler, trials, 0)
    assert calls == []


def _corrupting(monkeypatch, bad):
    """Patch every random_psd the stacked and the reference draws call so
    that the j-th matrix trial t draws, for (t, j) in ``bad``, becomes
    bad[(t, j)]; each call of the returned reset starts a fresh run."""
    real, count = matphi.sampling.random_psd, {}

    def patched(rng, d, shape=()):
        out = real(rng, d, shape)
        trial = rng.bit_generator.seed_seq.entropy[2]
        for m in out.reshape(-1, d, d):
            j = count[trial] = count.get(trial, -1) + 1
            if (trial, j) in bad:
                m[...] = bad[(trial, j)]
        return out

    for module in (matphi.sampling, matphi.entropy, matphi.suites, support):
        monkeypatch.setattr(module, "random_psd", patched)
    return count.clear


def _error(call):
    with pytest.raises(MatPhiError) as err:
        call()
    return type(err.value), str(err.value)


OUTSIDE = np.diag([-20.0, 1.0])  # out of x log x's domain, even after a floor
BELOW = np.diag([-1.0, -2.0])  # out of it at both eigenvalues: another message
SINGULAR = np.diag([3e-9 - 0.1, 1e4 - 0.1])  # derivative condition 3e12 after char-a's 0.1 floor
NEAR_EDGE = np.diag([1e-6 - 0.3, 1.0 - 0.3])  # char-e: A admitted, A +- step k not
CHAR_E_SINGULAR = np.diag([3e-9 - 0.3, 1e4 - 0.3])

# trial 2 is refused late in its trial, trial 3 early in its own, so a judge
# that refused stage by stage over the block would name trial 3; char-g and
# char-j refuse at their first stage, which holds every value, so trial 2's
# last matrix and trial 3's first give different messages
REFUSALS = {
    "char-a": [{(2, 1): OUTSIDE, (3, 0): SINGULAR}, {(2, 0): SINGULAR, (3, 0): OUTSIDE}],
    "char-b": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-c": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-d": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-e": [{(2, 0): NEAR_EDGE, (3, 0): CHAR_E_SINGULAR}, {(2, 0): CHAR_E_SINGULAR}],
    "char-f": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-g": [{(2, 3): OUTSIDE, (3, 0): BELOW}],
    "char-h": [{(2, 4): OUTSIDE, (3, 0): OUTSIDE}],
    "char-i": [{(2, 1): OUTSIDE, (3, 4): OUTSIDE}, {(2, 3): OUTSIDE}],
    "char-j": [{(2, 7): OUTSIDE, (3, 0): BELOW}],
}


@pytest.mark.parametrize("name", STACKED)
def test_a_stacked_sweep_refuses_as_the_per_trial_loop(monkeypatch, name):
    phi = PhiFunction.xlogx()
    for bad in REFUSALS[name]:
        reset = _corrupting(monkeypatch, bad)
        want = _error(lambda: reference_characterizations(name, phi, 2, 5, (6,)))
        reset()
        assert _error(lambda: _stacked(name, "xlogx", 2, 5, 6)) == want, bad


# trial 2 holds a value that is not PSD late in its table, trial 3 at its
# first point: for phi-sobolev another exponent's block, so a judge that
# refused exponent by exponent could name trial 3
CUBE_REFUSALS = [{(2, 7): OUTSIDE, (3, 0): BELOW}]


@pytest.mark.parametrize("name", ["phi-sobolev", "log-sobolev"])
def test_a_stacked_cube_sweep_refuses_as_the_per_trial_loop(monkeypatch, name):
    config = RunConfig(seed=5, trials=6)
    for bad in CUBE_REFUSALS:
        reset = _corrupting(monkeypatch, bad)
        want = _error(lambda: _reference_cube(name, config))
        reset()
        assert _error(lambda: CHECKS[name](name, config)) == want, bad


def test_a_pooled_characterizations_run_equals_the_serial_one():
    config = RunConfig(seed=7, d=3, trials=30, phi="cube")
    serial = run_suite(config, "characterizations").comparable_dict()
    pooled = run_suite(RunConfig(seed=7, d=3, trials=30, phi="cube", jobs=2), "characterizations")
    assert pooled.comparable_dict() == serial


SPECTRAL_CALLS = {
    "char-a": {"eigh": 1, "eigvalsh": 1},
    "char-b": {"eigh": 1},
    "char-c": {"eigh": 1},
    "char-d": {"eigh": 1},
    "char-e": {"eigh": 1},
    "char-f": {"eigvalsh": 1},
    "char-g": {"eigvalsh": 2},
    "char-h": {"eigvalsh": 1},
    "char-i": {"eigh": 1, "eigvalsh": 1},
    "char-j": {"eigvalsh": 4},
}


@pytest.mark.parametrize("name", STACKED)
def test_a_stacked_sweep_makes_a_constant_number_of_spectral_calls(monkeypatch, name):
    calls = {}

    def counting(fn_name):
        real = getattr(np.linalg, fn_name)

        def counted(*args, **kwargs):
            calls[fn_name] = calls.get(fn_name, 0) + 1
            return real(*args, **kwargs)

        return counted

    for fn_name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, fn_name, counting(fn_name))
    for trials in (5, 50):
        calls.clear()
        _stacked(name, "xlogx", 2, 42, trials)
        assert calls == SPECTRAL_CALLS[name], (trials, calls)


def test_frobenius_norm_has_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(3)
    for shape in [(n, m) for n in range(1, 10) for m in range(1, 10)] + [(64, 64), (9, 81)]:
        for scale in (1e-3, 1.0, 1e5):
            x = scale * rng.standard_normal((6, *shape))
            for stack in (x, x + 1j * scale * rng.standard_normal((6, *shape))):
                want = np.array([np.linalg.norm(m) for m in stack])
                assert frobenius_norm(stack).tobytes() == want.tobytes()
                assert frobenius_norm(stack[0]).tobytes() == want[0].tobytes()


# Values of the single-instance entries from before their kernels were
# stacked; the wrappers over the stacked kernels must keep their bits.
SINGLE_PINS = {
    ("xlogx", 1): (
        "(2.1323661517606323, 3.366406819179959, 8.717144688491743)",
        "(-0.0, None, True, 0)",
        "(0.44392605439670674, 0.44392604113955725, 1.8878520955362637e-06)",
        "(-0.5901281853954706, 2.0350640687393986e-09, "
        "{'lhs': 0.22246794167196393, 'rhs': 0.8125961270674346, 't': 0.3})",
        "-1.70141349270204",
    ),
    ("xlogx", 2): (
        "(4.3470805164565505, 7.476412303834756, 12.942542534069068)",
        "(-2.4997126049813116e-15, None, True, 0)",
        "(0.6901829885356482, 0.6190022456401385, 2.3091852341757863e-06)",
        "(-0.3944978911711532, 2.3919225826664275e-09, "
        "{'lhs': 0.498712345747637, 'rhs': 0.8932102369187902, 't': 0.3})",
        "-1.0805371705898748",
    ),
    ("xlogx", 3): (
        "(19.1353583442597, 27.23390895744889, 191.01730865793965)",
        "(-2.6159630017620477e-15, None, True, 0)",
        "(0.4202356162466472, 0.2732457635682459, 1.693481379814893e-06)",
        "(-0.36335129421673296, 2.4079614823768733e-09, "
        "{'lhs': 0.5223050940800702, 'rhs': 0.8856563882968032, 't': 0.3})",
        "-1.4006570036306036",
    ),
    ("power:1.5", 2): (
        "(8.098695242022728, 15.047394965540178, 19.62914963940009)",
        "(-0.05770383586999939, None, True, 0)",
        "(0.3412326859996063, 0.21358913598209667, 1.554821821981703e-06)",
        "(-0.5412300620712247, 3.077403735910483e-09, "
        "{'lhs': 0.768086836919629, 'rhs': 1.3093168989908537, 't': 0.3})",
        "-1.3763539488614454",
    ),
    ("cube", 3): (
        "(1957.814386883488, 4699.44886969939, 2347.9885819021474)",
        "(0.6514636718152131, None, False, 1)",
        "(-2.2158428561247062e-14, 0.01597645749964339, 1.0159764574996657e-06)",
        "(-34.48156454794403, 1.6016485610374204e-07, "
        "{'lhs': 62.341645777899004, 'rhs': 96.82321032584304, 't': 0.3})",
        "-20.585350630276366",
    ),
}


def _single_values(label, d):
    phi = PhiFunction.parse(label)
    rng = rng_for(5, "pin-single", d)
    u, v = random_psd(rng, d, (2,))
    breg = repr(bregman_maps(phi, u + 0.05 * np.eye(d), v))
    rep = check_char_a(phi, trials=1, d=d, seed=d)
    char_a = repr((rep.max_gap, rep.tol, rep.passed, len(rep.violations)))
    a = random_pd(rng, d, floor=0.3)
    h, k = random_unit_hermitian(rng, d), random_unit_hermitian(rng, d)
    res = check_char_e(phi, a, h, k)
    probs = random_probability_vector(rng, 3)
    z1 = DiscreteRandomMatrix(probs, random_psd(rng, d, (3,)))
    z2 = DiscreteRandomMatrix(probs, random_psd(rng, d, (3,)) + 0.05 * np.eye(d))
    rep = check_char_h(phi, z1, z2, 0.3)
    return (breg, char_a, repr((res.lhs, res.rhs, res.tol)),
            repr((rep.max_gap, rep.tol, rep.details)),
            repr(matphi.entropy.duality_lower_bound(phi, z1, z2)))


@pytest.mark.parametrize("key", sorted(SINGLE_PINS))
def test_single_instance_entries_keep_their_bits(key):
    assert _single_values(*key) == SINGLE_PINS[key]


# max_gap, tol and details (sorted, as floats) of the record-backed public
# checks at two seeded instances each, from before their records formed
# their verdicts; a slip in the order of the sides shows in the tol bits
RECORD_PINS = {
    ("subadditivity", 0): (
        "-0.20974345060910893", "3.2715741632664664e-09",
        "[('lhs', 1.0309153563286788), ('rhs', 1.2406588069377877)]",
    ),
    ("subadditivity", 1): (
        "-1.6971249303528158", "7.86505620880408e-09",
        "[('lhs', 2.5839656392256316), ('rhs', 4.281090569578447)]",
    ),
    ("char_g", 0): (
        "-0.1111439648936049", "1.8937432155864405e-09",
        "[('lhs', 0.5024435902400227), ('rhs', 0.3912996253464178)]",
    ),
    ("char_g", 1): (
        "-0.35093463376351686", "3.4568416707481067e-09",
        "[('lhs', 1.4038881522558118), ('rhs', 1.052953518492295)]",
    ),
    ("efron_stein", 0): (
        "-0.2414041481134549", "3.1935002509200133e-09",
        "[('bound', 1.2174521995167338), ('variance', 0.9760480514032789)]",
    ),
    ("efron_stein", 1): (
        "-0.8996320943536722", "5.044493986094932e-09",
        "[('bound', 2.4720630402243016), ('variance', 1.5724309458706294)]",
    ),
    ("poincare", 0): (
        "-0.6819185903013052", "1.7616365818074166e-08",
        "[('bound', 0.721777586054361), ('variance', 0.03985899575305585)]",
    ),
    ("poincare", 1): (
        "-6.434157071298729", "7.835967223336821e-08",
        "[('bound', 6.635062147317775), ('variance', 0.20090507601904634)]",
    ),
    ("poincare_commuting", 0): (
        "-4.885721533145197", "6.303402825499627e-08",
        "[('bound', 5.094562179322412), ('variance', 0.2088406461772148)]",
    ),
    ("poincare_commuting", 1): (
        "-3.8909181793625645", "4.9856986927557845e-08",
        "[('bound', 3.9383084360591747), ('variance', 0.04739025669661007)]",
    ),
    ("bonami_beckner", 0): (
        "-0.145297482880673", "8.975283652564852e-10",
        "[('lhs', 3.9149930848420893), ('p', 1.25), ('rhs', 4.060290567722762)]",
    ),
    ("bonami_beckner", 1): (
        "0.0", "1.1042569320803762e-09",
        "[('lhs', 5.021284660401881), ('p', 2.0), ('rhs', 5.021284660401881)]",
    ),
    ("phi_sobolev", 0): (
        "-9.635716963346557", "2.5787893584144767e-09",
        "[('lhs', 7.576088310399104), ('p', 1.1), ('rhs', 17.21180527374566)]",
    ),
    ("phi_sobolev", 1): (
        "-8.256170461854106", "1.8283561489176243e-09",
        "[('lhs', 4.5136955136610695), ('p', 1.5), ('rhs', 12.769865975515176)]",
    ),
    ("log_sobolev", 0): (
        "-28.68931523658945", "5.967278763948001e-09",
        "[('energy', 13.629749824482964), ('entropy', 14.991736201445278), "
        "('rhs', 43.68105143803473)]",
    ),
    ("log_sobolev", 1): (
        "-37.97720389550784", "7.42602962852653e-09",
        "[('energy', 19.07111126588091), ('entropy', 17.641546194878728), "
        "('rhs', 55.61875009038657)]",
    ),
}


def _record_check(name, i):
    rng = rng_for(9, "pin-record", i)
    phi = PhiFunction.parse(("xlogx", "power:1.5")[i])
    run = Run(phi, 2, 2, i)
    if name == "subadditivity":
        return check_subadditivity(phi, random_product_model(rng, 2, 3, arity=2))
    if name == "char_g":
        return check_char_g(phi, random_product_model(rng, 2, 2, arity=2))
    if name == "efron_stein":
        return check_efron_stein(random_product_model(rng, 2, 3, arity=2, psd=False))
    if name == "poincare":  # check_poincare, at a linear and a square-sum model
        return (matphi.suites._poincare_linear, matphi.suites._poincare_square_sum)[i](rng, i, run)
    if name == "poincare_commuting":
        return matphi.suites._poincare_commuting(rng, i, run)
    f = cube_function(rng, 3, 2, psd=True)
    if name == "bonami_beckner":
        return check_bonami_beckner(f, (1.25, 2.0)[i])
    if name == "phi_sobolev":
        return check_phi_sobolev(f, (1.1, 1.5)[i])
    return check_log_sobolev(f)


@pytest.mark.parametrize("key", sorted(RECORD_PINS))
def test_record_backed_checks_keep_their_bits(key):
    rep = _record_check(*key)
    details = repr(sorted((name, float(value)) for name, value in rep.details.items()))
    assert (repr(rep.max_gap), repr(rep.tol), details) == RECORD_PINS[key]


# The records: each inequality's sides, sense and tolerance in one place,
# by the module.NAME that README's record table gives them
RECORD_NAMES = {
    f"{module.__name__.rsplit('.', 1)[-1]}.{name}": value
    for module in (matphi.entropy, matphi.concentration, matphi.fourier)
    for name, value in vars(module).items() if isinstance(value, Inequality)
}
RECORDS = {record.check: record for record in RECORD_NAMES.values()}
README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_record_rows():
    """The cells of each row of README's record table."""
    text = README.read_text()
    lines = text[text.index("Each of the paper's exact inequalities is one record"):].splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("|")) + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_the_readme_record_table_is_the_registry():
    rows = _readme_record_rows()
    assert sorted(row[0].strip("`") for row in rows) == sorted(RECORD_NAMES)
    for name, checks, sense, rel, names in rows:
        record = RECORD_NAMES[name.strip("`")]
        assert (sense, float(rel), tuple(names.split(", "))) == (
            record.sense, record.rel, record.names
        ), name
        # the checks it names, without the public entries in backquotes
        named = [check.strip() for check in re.sub(r"\(?`[^`]*`\)?", "", checks).split(",")]
        assert all(check in CHECKS for check in named if check), (name, named)


def test_a_record_forms_its_gap_by_its_sense():
    assert Inequality("x", 0.5, None).rule(1.0, 3.0) == (-2.0, 0.5 * (1.0 + 1.0 + 3.0))
    assert Inequality("x", 0.5, None, sense=">=").rule(1.0, 3.0) == (2.0, 2.5)
    assert sorted(name for name, record in RECORDS.items() if record.sense == ">=") == [
        "char-e", "char-g", "joint-convexity"
    ]


def _convexity_instance(rng):
    # (t, f(x), f(y), f(t x + (1 - t) y)) of the first Bregman map
    (u1, v1), (u2, v2) = bregman_pair_sampler(2)(rng)
    t = float(rng.uniform(0.05, 0.95))
    mixed = (t * u1 + (1 - t) * u2, t * v1 + (1 - t) * v2)
    args = ((u1, v1), (u2, v2), mixed)
    return (t, *(bregman_maps(PhiFunction.xlogx(), u, v)[0] for u, v in args))


def _cube_instance(rng, *p):
    f = cube_function(rng, 3, 2, psd=True)
    return (f.table, matphi.fourier.dirichlet_energy_spectral(f), *p)


def _model_draw(n):
    """The char-g and char-j draw of the arrays of an n-input model."""
    return lambda rng, trial, run: matphi.suites._model_draw(rng, trial, run._replace(n=n))


# the stack-native records and the suite draws of their instances
STACK_DRAWS = {
    "subadditivity": _model_draw(3),
    "char-e": matphi.suites._char_e_draw,
    "char-g": _model_draw(2),
    "char-h": matphi.suites._char_h_draw,
    "char-i": matphi.suites._char_i_draw,
}


def _drawn(name, phi="xlogx"):
    phi = PhiFunction.parse(phi)
    return lambda rng: (phi, *map(np.asarray, STACK_DRAWS[name](rng, 0, Run(phi, 2, None, 0))))


def _model_and_energy(rng):
    return random_product_model(rng, 2, 2, arity=2), rng.uniform(0.0, 1.0, (4, 2))


RECORD_INSTANCES = {
    "joint-convexity": _convexity_instance,
    "subadditivity": _drawn("subadditivity"),
    "char-e": _drawn("char-e"),
    "char-g": _drawn("char-g"),
    "char-h": _drawn("char-h"),
    "char-i": _drawn("char-i"),
    "efron-stein": lambda rng: (random_product_model(rng, 2, 3, arity=2, psd=False),),
    "poincare": _model_and_energy,
    "poincare-commuting": _model_and_energy,
    "bonami-beckner": lambda rng: (cube_function(rng, 3, 2, psd=True).table, 1.5),
    "phi-sobolev": lambda rng: _cube_instance(rng, 1.5),
    "log-sobolev": _cube_instance,
}


def test_every_record_has_an_instance():
    assert sorted(RECORDS) == sorted(RECORD_INSTANCES)


@pytest.mark.parametrize("name", sorted(RECORD_INSTANCES))
def test_a_record_verdict_is_its_rule_on_its_sides(name):
    record = RECORDS[name]
    for trial in range(2):
        instance = RECORD_INSTANCES[name](rng_for(4, name, trial))
        lhs, rhs = (float(side) for side in record.sides(*instance))
        gap, tol = record.rule(lhs, rhs)
        report = record.verdict(*instance, details={"extra": 1}, seed=trial)
        assert (report.check, report.seed) == (name, trial)
        assert (repr(report.max_gap), repr(report.tol), report.passed) == (
            repr(gap), repr(tol), gap <= tol
        )
        assert list(report.details.items()) == [
            (record.names[0], lhs), (record.names[1], rhs), ("extra", 1)
        ]


@pytest.mark.parametrize("name", sorted(STACK_DRAWS))
@pytest.mark.parametrize("phi", ["xlogx", "power:1.5", "affine:2,1", "cube"])
def test_a_record_judges_a_stack_as_each_instance_alone(name, phi):
    record, draw = RECORDS[name], _drawn(name, phi)
    instances = [draw(rng_for(6, name, trial)) for trial in range(6)]
    stacks = [np.array(part) for part in zip(*(instance[1:] for instance in instances))]
    gap, tol, witness = record.judge(instances[0][0], *stacks)
    assert gap.shape == tol.shape == (6, 1)
    for trial, instance in enumerate(instances):
        alone = record.rule(*record.sides(*instance))
        assert (gap[trial, 0].tobytes(), tol[trial, 0].tobytes()) == tuple(
            np.float64(x).tobytes() for x in alone
        )
        assert witness(trial, 0) is None


# char-e's edge pair: tol = relative_tol(1e-6, lhs, rhs) = 2.152170434724459e-05
# and rhs - lhs exceeds it, while lhs >= rhs - tol rounds to True
EDGE_LHS, EDGE_RHS = 10.260841412770121, 10.260862934474469


def test_char_e_holds_exactly_when_its_gap_is_within_its_tol():
    gap, tol = matphi.entropy.CHAR_E.rule(EDGE_LHS, EDGE_RHS)
    assert (gap, tol) == (EDGE_RHS - EDGE_LHS, 2.152170434724459e-05)
    assert EDGE_LHS >= EDGE_RHS - tol and not gap <= tol
    assert not CharEResult(EDGE_LHS, EDGE_RHS, tol).holds


def test_a_char_e_violation_at_the_edge_carries_its_full_witness(monkeypatch):
    real = matphi.entropy._char_e_sides

    def edge_at_trial_2(phi, a, h, k):
        lhs, rhs = (side.copy() for side in real(phi, a, h, k))
        lhs[2], rhs[2] = EDGE_LHS, EDGE_RHS
        return lhs, rhs

    monkeypatch.setattr(matphi.entropy, "_char_e_sides", edge_at_trial_2)
    report = _stacked("char-e", "xlogx", 2, 0, 5)
    (violation,) = report.violations
    assert not report.passed and violation["trial"] == 2
    assert sorted(violation) == ["a", "gap", "h", "k", "lhs", "rhs", "trial"]
    assert (violation["lhs"], violation["rhs"]) == (EDGE_LHS, EDGE_RHS)


EYE2, EYE3 = np.eye(2), np.eye(3)
SKEW = np.array([[1.0, 1.0], [0.0, 1.0]])
NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])
XLOGX = PhiFunction.xlogx()
POINT = DiscreteRandomMatrix([1.0], [EYE2])

SINGLE_REFUSALS = [
    (lambda: bregman_maps(XLOGX, np.ones((2, 3)), np.ones((2, 3))),
     "NotHermitian", "expected square matrices, got shape (2, 2, 3)"),
    (lambda: bregman_maps(XLOGX, EYE3, EYE2),
     "DimensionMismatch", "direction of shape (2, 2) for a matrix of shape (3, 3)"),
    (lambda: bregman_maps(XLOGX, SKEW, EYE2),
     "NotHermitian", "hermiticity deviation 1.000e+00 exceeds tolerance 2.000e-10"),
    (lambda: bregman_maps(XLOGX, EYE2, NAN), "NotHermitian", "matrix entries must be finite"),
    (lambda: bregman_maps(XLOGX, -EYE2, EYE2),
     "SpectrumOutOfDomain", "xlogx: 2 eigenvalue(s) outside [0.0, inf], worst -1.000e+00"),
    (lambda: check_char_e(XLOGX, EYE2, EYE3, EYE2),
     "DimensionMismatch", "direction of shape (3, 3) for a matrix of shape (2, 2)"),
    (lambda: check_char_e(XLOGX, EYE2, EYE2, np.ones((2, 3))),
     "NotHermitian", "expected a square matrix, got shape (2, 3)"),
    (lambda: check_char_e(XLOGX, np.ones((2, 3)), EYE2, EYE2),
     "NotHermitian", "expected a square matrix, got shape (2, 3)"),
    (lambda: check_char_e(XLOGX, EYE2, SKEW, EYE2),
     "NotHermitian", "hermiticity deviation 1.000e+00 exceeds tolerance 2.000e-10"),
    (lambda: check_char_e(XLOGX, NAN, EYE2, EYE2), "NotHermitian", "matrix entries must be finite"),
    (lambda: check_char_e(XLOGX, np.diag([3e-9, 1e4]), EYE2, EYE2),
     "SingularSuperoperator", "derivative condition number above 1.0e+12"),
    (lambda: check_char_e(XLOGX, -EYE2, EYE2, EYE2),
     "SpectrumOutOfDomain", "d(xlogx): 2 eigenvalue(s) outside [0.0, inf], worst -1.000e+00"),
    (lambda: check_char_a(PhiFunction.parse("affine:2,1"), trials=1, d=2),
     "DomainError", "the concavity characterization needs a non-affine generator"),
    (lambda: check_char_h(XLOGX, POINT, POINT, 1.5),
     "DomainError", "mixing weight must lie in [0, 1], got 1.5"),
    (lambda: check_char_h(XLOGX, POINT, DiscreteRandomMatrix([0.5, 0.5], [EYE2, EYE2]), 0.5),
     "DomainError", "convexity check needs laws coupled on the same index"),
    (lambda: check_char_h(XLOGX, DiscreteRandomMatrix([1.0], [-EYE2]), POINT, 0.5),
     "SpectrumOutOfDomain", "xlogx: 4 eigenvalue(s) outside [0.0, inf], worst -1.000e+00"),
    (lambda: matphi.entropy.duality_lower_bound(XLOGX, POINT, DiscreteRandomMatrix([1.0], [-EYE2])),
     "SpectrumOutOfDomain", "d(xlogx): 4 eigenvalue(s) outside [0.0, inf], worst -1.000e+00"),
]


@pytest.mark.parametrize("call, kind, message", SINGLE_REFUSALS)
def test_single_instance_entries_keep_their_refusals(call, kind, message):
    got = _error(call)
    assert (got[0].__name__, got[1]) == (kind, message)
