"""The one sweep loop. The stacked characterization sweeps draw their
trials one at a time and judge them in one kernel call; the other sweeps
and ``check_joint_convexity`` judge each trial alone. Every report must be
the bytes of the per-trial loop kept in ``support`` (the old bodies,
kernels and sweep fold), the stacked sweeps must refuse as that loop
refuses, and their number of spectral calls must not grow with the
trials."""

import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import matphi.entropy
import matphi.fourier
import matphi.report
import matphi.sampling
import matphi.suites
import support
from matphi import PhiFunction, bregman_maps, check_char_a, check_char_e, check_char_h
from matphi.entropy import bregman_pair_sampler, check_joint_convexity
from matphi.errors import DomainError, MatPhiError
from matphi.linalg import frobenius_norm
from matphi.models import DiscreteRandomMatrix
from matphi.sampling import (
    random_pd,
    random_probability_vector,
    random_psd,
    random_unit_hermitian,
    rng_for,
)
from matphi.report import BLOCK_ENTRIES, MAX_WITNESSES, judged, sweep
from matphi.suites import CHECKS, Run, RunConfig, Sweep, _clamp, run_suite
from support import reference_characterizations

STACKED = ["char-a", "char-b", "char-c", "char-d", "char-e", "char-f", "char-h", "char-i"]
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


def test_twenty_sweeps_judge_their_trials_alone():
    assert len(PER_TRIAL) == 20


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


@pytest.mark.parametrize("name, key", [
    ("bonami-beckner", "p"), ("phi-sobolev", "p"), ("p-variance-limit", "residuals"),
])
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
SINGULAR = np.diag([3e-9 - 0.1, 1e4 - 0.1])  # derivative condition 3e12 after char-a's 0.1 floor
NEAR_EDGE = np.diag([1e-6 - 0.3, 1.0 - 0.3])  # char-e: A admitted, A +- step k not
CHAR_E_SINGULAR = np.diag([3e-9 - 0.3, 1e4 - 0.3])

# trial 2 is refused late in its trial, trial 3 early in its own, so a judge
# that refused stage by stage over the block would name trial 3
REFUSALS = {
    "char-a": [{(2, 1): OUTSIDE, (3, 0): SINGULAR}, {(2, 0): SINGULAR, (3, 0): OUTSIDE}],
    "char-b": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-c": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-d": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-e": [{(2, 0): NEAR_EDGE, (3, 0): CHAR_E_SINGULAR}, {(2, 0): CHAR_E_SINGULAR}],
    "char-f": [{(2, 2): OUTSIDE, (3, 0): OUTSIDE}],
    "char-h": [{(2, 4): OUTSIDE, (3, 0): OUTSIDE}],
    "char-i": [{(2, 1): OUTSIDE, (3, 4): OUTSIDE}, {(2, 3): OUTSIDE}],
}


@pytest.mark.parametrize("name", STACKED)
def test_a_stacked_sweep_refuses_as_the_per_trial_loop(monkeypatch, name):
    phi = PhiFunction.xlogx()
    for bad in REFUSALS[name]:
        reset = _corrupting(monkeypatch, bad)
        want = _error(lambda: reference_characterizations(name, phi, 2, 5, (6,)))
        reset()
        assert _error(lambda: _stacked(name, "xlogx", 2, 5, 6)) == want, bad


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
    "char-h": {"eigvalsh": 1},
    "char-i": {"eigh": 1, "eigvalsh": 1},
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
