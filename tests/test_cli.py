"""Command-line harness: suites, generation, searches, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi import fourier, holevo, suites
from matphi.cli import main
from matphi.formats import (
    boolean_function_from_obj,
    ensemble_from_obj,
    kernel_from_obj,
    load_json,
    matrix_from_obj,
    product_model_from_obj,
)
from matphi.suites import SUITES, RunConfig, run_suite, validate_suite_config
from matphi.errors import ConfigError


def _run(args):
    return main(args)


def test_suite_exit_zero_and_json(tmp_path):
    out = tmp_path / "report.json"
    code = _run(["fourier", "--seed", "3", "--trials", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    names = [r["check"] for r in report["reports"]]
    assert names == sorted(names)
    assert set(names) == set(SUITES["fourier"])


def test_suite_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = _run(["efron-stein", "--seed", "3", "--trials", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,phi,d,n,trials,max_gap,pass,seed"
    assert len(lines) == 1 + len(SUITES["efron-stein"])
    assert all(line.split(",")[6] == "true" for line in lines[1:])


def test_unknown_suite_is_config_error():
    assert _run(["no-such-suite"]) == 2


def test_entropy_alias():
    config = RunConfig(trials=1)
    assert validate_suite_config(config, "entropy") == "characterizations"


def test_cube_rejected_outside_characterizations():
    config = RunConfig(trials=1, phi="cube")
    with pytest.raises(ConfigError):
        validate_suite_config(config, "sobolev")
    assert validate_suite_config(config, "characterizations") == "characterizations"


def test_cube_characterizations_fail_with_witnesses(tmp_path):
    out = tmp_path / "cube.json"
    code = _run([
        "characterizations", "--phi", "cube", "--d", "1", "--seed", "1",
        "--trials", "15", "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    failing = {r["check"] for r in report["reports"] if not r["pass"]}
    assert {"char-a", "char-d", "char-e"}.issubset(failing)
    by_name = {r["check"]: r for r in report["reports"]}
    for name in ("char-a", "char-d", "char-e"):
        assert by_name[name]["violations"]


def test_generate_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = _run(["generate", "kernel", "--n", "2", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    kernel, _ = kernel_from_obj(load_json(a))
    assert np.allclose(kernel.rows.sum(axis=1), 1.0, atol=1e-15)


def test_generate_psd_contract(tmp_path):
    out = tmp_path / "psd.json"
    assert _run(["generate", "psd", "--d", "3", "--seed", "9", "--out", str(out)]) == 0
    m = matrix_from_obj(load_json(out))
    assert np.linalg.eigvalsh(m)[0] >= 1e-3 - 1e-12


def test_generate_all_kinds(tmp_path):
    for kind, loader in [
        ("hermitian", matrix_from_obj),
        ("ensemble", ensemble_from_obj),
        ("boolean-function", boolean_function_from_obj),
        ("product-model", product_model_from_obj),
    ]:
        out = tmp_path / f"{kind}.json"
        code = _run(["generate", kind, "--d", "2", "--n", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        loader(load_json(out))


def test_generate_product_model_bytes_are_pinned(tmp_path):
    # serialised from the joint-table view; the bytes are those the
    # per-outcome evaluator loop wrote
    out = tmp_path / "model.json"
    assert _run(["generate", "product-model", "--n", "3", "--d", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0e5e73b23947d291c87b25478e8ece18c4a52e19953073bf33453c0b892d2fa1"


@pytest.mark.parametrize("kind", ["product-model", "boolean-function"])
def test_generate_refuses_exponential_tables(capsys, kind):
    # 2^40 values would be drawn one by one; the bound is checked first
    assert _run(["generate", kind, "--n", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {kind} with n = 40 has 2^n values")
    assert err.count("\n") == 1


def test_search_refuses_exponential_tables(capsys, monkeypatch):
    # the search would draw a 2^40-point start table; the bound is checked first
    monkeypatch.setattr("matphi.cli.search_lsi_counterexample", None)
    assert _run(["search", "lsi-counterexample", "--n", "40", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: lsi-counterexample with n = 40 has 2^n values, above 1000000\n"


@pytest.mark.parametrize(
    "args",
    [
        ["all", "--phi", "power:abc"],
        ["characterizations", "--phi", "affine:1,x"],
        ["all", "--phi", "power:"],
    ],
)
def test_malformed_phi_number_is_config_error(capsys, args):
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: phi parameter ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_malformed_env_seed_is_config_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MATPHI_SEED", value)
    assert _run(["efron-stein", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: MATPHI_SEED must be an integer, got {value!r}\n"


def _run_quietly(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _run(args)
    return code, err.getvalue()


FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=16,
)
_numbers = st.integers() | st.floats()
_rows = st.lists(st.lists(_numbers, min_size=1, max_size=3), min_size=1, max_size=3)
_stochastic = st.lists(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3), min_size=1, max_size=3
).map(lambda rows: [[x / sum(row) for x in row] for row in rows])


@FUZZ
@given(
    st.text()
    | st.tuples(st.sampled_from(["power:", "affine:", "affine:1,", "xlogx", "cube"]), st.text())
    .map("".join)
)
def test_fuzzed_phi_is_accepted_or_a_config_error(text):
    code, err = _run_quietly(["generate", "hermitian", "--d", "1", f"--phi={text}"])
    assert (code, err) == (0, "") or (code == 2 and err.startswith("config error: ")), (code, err)
    assert err.count("\n") <= 1


@FUZZ
@given(
    _json
    | st.fixed_dictionaries(
        {"rows": _rows | _stochastic}, optional={"mu": _json | st.lists(_numbers)}
    )
    | st.fixed_dictionaries({"rows": _stochastic})
)
def test_fuzzed_eta_input_is_accepted_or_a_config_error(tmp_path_factory, obj):
    kernel_file = tmp_path_factory.mktemp("eta") / "kernel.json"
    kernel_file.write_text(json.dumps(obj))
    code, err = _run_quietly(["eta", "--in", str(kernel_file), "--d", "1", "--trials", "1"])
    # a probability vector with a zero entry is the one documented numerical error
    vanishing = code == 3 and err.startswith("error: input law vanishes")
    assert (code, err) == (0, "") or (code == 2 and err.startswith("config error: ")) or vanishing
    assert err.count("\n") <= 1, err
    if code == 0:
        assert np.all(np.isfinite(np.asarray(obj["rows"], dtype=float)))


def test_search_lsi_counterexample(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = _run([
        "search", "lsi-counterexample", "--d", "2", "--n", "1", "--seed", "0",
        "--trials", "10", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    witness = json.loads(out.read_text())
    assert witness["found"] is True
    assert witness["objective"] > 1e-6
    assert witness["log_d"] == np.log(2)
    assert stdout == f"found: objective = {witness['objective']:.6e}, log_d = 6.931472e-01\n"


def test_search_lsi_scalar_not_found(tmp_path, capsys):
    code = _run([
        "search", "lsi-counterexample", "--d", "1", "--n", "1", "--seed", "0",
        "--trials", "30",
    ])
    assert code == 0
    assert "not found" in capsys.readouterr().out


def test_eta_identity_kernel(tmp_path, capsys):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({"rows": [[1.0, 0.0], [0.0, 1.0]]}))
    code = _run(["eta", "--in", str(kernel_file), "--d", "2", "--trials", "3", "--seed", "1"])
    assert code == 0
    assert "eta_hat = 1.0" in capsys.readouterr().out


def test_eta_refuses_large_scalar_grid(tmp_path, capsys, monkeypatch):
    # d = 1 scans C(k + 19, k - 1) simplex points: 3,108,105 at 9 letters
    monkeypatch.setattr("matphi.cli.eta_phi", None)
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({"rows": [[1.0 / 9] * 9] * 9}))
    assert _run(["eta", "--in", str(kernel_file), "--d", "1", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: eta at d = 1 on 9 letters scans 3108105 grid points, above 1000000\n"


def test_eta_requires_input():
    assert _run(["eta"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "{bad json",
        None,
        '{"foo": 1}',
        '{"rows": [[0.5, 0.5], [0.5, 0.5]], "mu": [0.5, 0.6]}',
        '{"rows": [[1, 0], [0, 1]], "mu": [1]}',
        '{"rows": [[1, 0], [0, 1]], "mu": [1.5, -0.5]}',
        '{"rows": [[1%s]]}' % ("0" * 400),
        json.dumps({"rows": [[0.5, 0.5]] * 29 + [[0.5, 0.6]]}),
        '{"rows": [[NaN, 1.0], [0.5, 0.5]]}',
    ],
    ids=["malformed", "missing", "no-rows", "mu-sum", "mu-size", "mu-negative", "huge-int",
         "long-kernel", "nan-entry"],
)
def test_eta_bad_input_is_config_error(tmp_path, capsys, text):
    kernel_file = tmp_path / "kernel.json"
    if text is not None:
        kernel_file.write_text(text)
    assert _run(["eta", "--in", str(kernel_file), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_eta_mu_with_zero_entry_is_not_admissible(tmp_path, capsys):
    # a valid probability vector that vanishes somewhere is a numerical error
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text('{"rows": [[1, 0], [0, 1]], "mu": [1, 0]}')
    assert _run(["eta", "--in", str(kernel_file), "--trials", "1"]) == 3
    assert "input law vanishes" in capsys.readouterr().err


def test_p_variance_limit_reports_its_deviation(tmp_path):
    # the worst extrapolation error over the trials, not 0.0 for a pass
    out = tmp_path / "sobolev.json"
    assert _run(["sobolev", "--seed", "42", "--out", str(out)]) == 0
    reports = {r["check"]: r for r in json.loads(out.read_text())["reports"]}
    assert 0.0 < reports["p-variance-limit"]["max_gap"] < 1e-4


def test_p_variance_limit_shrink_failure_is_a_violation(monkeypatch):
    real = fourier.check_p_variance_limit

    def without_shrink(law):
        rep = real(law)
        rep.details["linear_shrink"] = False
        return rep

    monkeypatch.setattr(fourier, "check_p_variance_limit", without_shrink)
    rep = SUITES["sobolev"]["p-variance-limit"]("p-variance-limit", RunConfig(trials=2))
    assert not rep.passed
    assert [v["trial"] for v in rep.violations] == [0, 1]
    assert all(len(v["residuals"]) == 3 and 0.0 < v["gap"] < 1e-4 for v in rep.violations)


def test_average_state_drift_is_a_violation(tmp_path, capsys, monkeypatch):
    # a backward channel that moves 1e-6 of mass in its first row drifts
    # the average state by about 1e-7; the average-state check reports
    # that drift, where library evolution (data-processing,
    # functional-sdpi) raises on it, so the suite runs that check alone
    real = holevo.backward_channel

    def drifting(mu, kernel):
        rows = real(mu, kernel).rows.copy()
        rows[0, :2] += [1e-6, -1e-6]
        return holevo.MarkovKernel(rows)

    monkeypatch.setattr(holevo, "backward_channel", drifting)
    monkeypatch.setitem(SUITES, "holevo", {"average-state": SUITES["holevo"]["average-state"]})
    out = tmp_path / "holevo.json"
    assert _run(["holevo", "--trials", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "failing checks: average-state\n"
    (report,) = json.loads(out.read_text())["reports"]
    assert report["check"] == "average-state" and report["max_gap"] > 1e-8


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_nonnegative(capsys, tol):
    assert _run(["characterizations", "--phi", "cube", "--d", "1", "--trials", "1", "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tol must be finite and nonnegative")
    assert err.count("\n") == 1


def test_reports_state_effective_dimensions(tmp_path):
    # d clamps to 3 and n to [1, 3]; plus-identities draws no n
    out = tmp_path / "es.json"
    assert _run(["efron-stein", "--d", "6", "--n", "9", "--trials", "2", "--out", str(out)]) == 0
    ran = {r["check"]: (r["d"], r["n"]) for r in json.loads(out.read_text())["reports"]}
    assert ran == {
        "efron-stein": (3, 3),
        "efron-stein-forms": (3, 3),
        "plus-identities": (3, None),
    }


@pytest.mark.parametrize("samples", ["5", "0"])
def test_samples_below_batch_count_is_config_error(capsys, samples):
    # the Gaussian checks split --samples into 10 Monte Carlo batches
    assert _run(["gaussian", "--samples", samples, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: samples must be at least 10")
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(capsys, jobs):
    assert _run(["efron-stein", "--jobs", jobs, "--trials", "1"]) == 2
    assert capsys.readouterr().err == "config error: jobs must be at least 1\n"


def test_pool_starts_at_most_one_worker_per_check(monkeypatch):
    # a process pool forks all its workers at the first submit, so the
    # worker count is read from a stand-in that runs the checks in process
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    base = dict(seed=3, trials=1, samples=100)
    serial = run_suite(RunConfig(jobs=1, **base), "efron-stein")
    assert started == []
    for jobs in (5000, 3, 2):
        pooled = run_suite(RunConfig(jobs=jobs, **base), "efron-stein")
        assert pooled.comparable_dict() == serial.comparable_dict()
    assert started == [len(SUITES["efron-stein"]), 3, 2]


def test_run_suite_determinism_across_jobs():
    base = dict(seed=42, trials=3, samples=1500, d=2, n=3)
    serial = run_suite(RunConfig(jobs=1, **base), "all")
    parallel = run_suite(RunConfig(jobs=8, **base), "all")
    assert serial.passed and parallel.passed
    assert serial.comparable_dict() == parallel.comparable_dict()


def test_run_suite_repeat_identical():
    config = RunConfig(seed=11, trials=2, samples=1000)
    first = run_suite(config, "sobolev")
    second = run_suite(config, "sobolev")
    assert first.comparable_dict() == second.comparable_dict()


def test_cli_entry_point_module():
    proc = subprocess.run(
        [sys.executable, "-m", "matphi.cli", "fourier", "--seed", "2", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MATPHI_SEED", "123")
    out = tmp_path / "r.json"
    assert _run(["fourier", "--trials", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 123


def test_tol_override_plumbs_through():
    # an absurdly loose override lets the cube control pass char-a..char-e
    strict = run_suite(RunConfig(seed=1, trials=10, d=1, phi="cube"), "characterizations")
    loose = run_suite(
        RunConfig(seed=1, trials=10, d=1, phi="cube", tol=1e9), "characterizations"
    )
    strict_e = next(r for r in strict.reports if r.check == "char-e")
    loose_e = next(r for r in loose.reports if r.check == "char-e")
    assert not strict_e.passed
    assert loose_e.passed
    strict_by_name = {r.check: r for r in strict.reports}
    loose_by_name = {r.check: r for r in loose.reports}
    for name in ("char-a", "char-b", "char-c", "char-d"):
        assert not strict_by_name[name].passed
        assert loose_by_name[name].passed, name
        assert not loose_by_name[name].violations
    # the override reaches every sweep check of the whole suite
    everything = run_suite(
        RunConfig(seed=1, trials=3, d=1, phi="cube", samples=500, tol=1e9), "all"
    )
    # sweeps report the configured trials, one-shot checks a single one
    sweeps = [r for r in everything.reports if r.trials == 3]
    assert len(sweeps) == 29
    for rep in sweeps:
        assert rep.passed and not rep.violations, rep.check


@pytest.mark.parametrize("phi", ["affine:2,1", "power:1"])
def test_affine_generator_skips_char_a(tmp_path, phi):
    out = tmp_path / "affine.json"
    code = _run(["characterizations", "--phi", phi, "--trials", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["skipped"] == ["char-a"]
    assert "char-a" not in {r["check"] for r in report["reports"]}
    assert report["pass"] is True


def test_search_trials_sets_restarts(monkeypatch):
    import matphi.cli

    seen = []
    real = matphi.cli.search_lsi_counterexample

    def spy(**kwargs):
        seen.append(kwargs["restarts"])
        return real(**{**kwargs, "restarts": 1})

    monkeypatch.setattr(matphi.cli, "search_lsi_counterexample", spy)
    base = ["search", "lsi-counterexample", "--d", "1", "--n", "1", "--seed", "0"]
    assert _run(base + ["--trials", "50"]) == 0
    assert _run(base + ["--trials", "7"]) == 0
    assert _run(base) == 0
    assert seen == [50, 7, 20]


def test_search_eta_is_unknown_kind(tmp_path, capsys):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({"rows": [[1.0, 0.0], [0.0, 1.0]]}))
    assert _run(["search", "eta", "--in", str(kernel_file), "--d", "2", "--trials", "3"]) == 2
    assert "unknown search kind 'eta'" in capsys.readouterr().err


def test_matphi_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from matphi.cli import main\n"
        "sys.exit(main(['gaussian', '--trials', '1', '--samples', '200']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
