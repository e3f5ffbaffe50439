"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload at smoke size, so the suite takes about two
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = ("models.outcomes", "fourier.objective_evals")


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"metric {metric['name']} = " in proc.stdout
    assert f"attempted={result['attempted']} failed=0" in proc.stdout


def test_injected_wrong_expected_value_fails_the_run():
    proc, result = run_bench(
        "--workload", "exact-sweep", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--smoke", "--inject-fault",
    )
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert f"ops_failed_ratio={1 / result['attempted']:.6g}" in proc.stdout


@pytest.mark.parametrize("workload", ["exact-sweep", "search"])
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        proc, result = run_bench(
            "--workload", workload, "--seed", "5", "--trace", "1", "--smoke"
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        counts.append({
            name: m["value"]
            for name, m in result["metrics"].items()
            if name.endswith(".calls") or name.endswith(".matrices") or name in REPEATED_COUNTS
        })
    assert counts[0] == counts[1]
    assert any(counts[0][name] for name in REPEATED_COUNTS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench(
        "--workload", "exact-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )
    assert proc.returncode != 0
    assert result is None


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import matphi.fourier
    from tracer import Tracer

    monkeypatch.delattr(matphi.fourier, "_lsi_objective")
    tracer = Tracer().install()
    try:
        assert "fourier._lsi_objective" in tracer.missing
    finally:
        tracer.uninstall()


def test_suite_probes_fall_back_without_the_check_hook(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import matphi.suites
    import workloads

    monkeypatch.delattr(matphi.suites, "_run_check")
    probes = []
    with workloads.SuiteAll(1, workloads.Verdicts()).probing_checks(probes):
        pass
    assert probes == []


def _write_runs(directory: Path, workload: str, values: list[float]) -> None:
    directory.mkdir()
    names = [m["name"] for m in SPEC["end_to_end"]]
    for k, value in enumerate(values):
        metrics = {name: {"value": value, "unit": "x"} for name in names}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        (directory / f"{k}.log").write_text(
            f"workload: {workload} seed={k} trace=0\n{json.dumps(result)}\n"
        )


def test_compare_reports_a_worse_median(tmp_path):
    _write_runs(tmp_path / "base", "search", [10.0, 10.1, 9.9, 10.0, 10.05])
    _write_runs(tmp_path / "new", "search", [20.0, 20.2, 19.8, 20.0, 20.1])
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(tmp_path / "base"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode == 1
    lines = {line.split()[0]: line for line in proc.stdout.splitlines() if line.startswith("  ")}
    assert lines["op_p50_ms"].endswith("worse")  # lower is better
    assert lines["ops_per_s"].endswith("improved")  # higher is better
