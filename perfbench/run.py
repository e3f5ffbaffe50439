"""matphi benchmark: four seeded workloads, every verdict checked.

Run one workload for a seed and a time budget::

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``exact-sweep`` (criterion-1 identities),
``calculus-sweep`` (Frechet-calculus characterizations and derivative
checks), ``search`` (LSI counterexample searches and ``eta_phi``) and
``suite-all`` (``matphi all`` at ``--jobs 1`` and ``--jobs 2``). Each run is
one process with BLAS pinned to one thread and drives a closed loop: the
next operation starts when the previous verdict is in. The loop stops at
a round boundary once another round would pass ``--seconds``.

Shared hosts change speed by up to a third over seconds to minutes, for
every process alike, so timings are taken at a reference host speed (see
``hostspeed.py``): a probe loop that shares no code with matphi runs
before every operation that starts 0.4 s after the previous probe, and
before each check of a serial suite pass, and each operation's wall time
is divided by the host factor of the probes around it. Raw wall-clock
figures are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing matphi plus one warm-up operation, scaled
by a probe run right after it), ``ops_per_s`` (instances, hill-climb
restarts or suite checks per second), ``op_p50_ms`` and ``op_tail_ms``
(latency per instance, per restart as each search call's time over its
restarts, or per check of the ``--jobs 1`` pass; the median is the
Harrell-Davis estimate and the tail is the mean of the slowest 1 %, at
least ten samples, because the plain sample median and p99 jump between
the discrete cost levels of a sweep's instance kinds or of the suite's
checks; both plain figures are printed) and ``peak_rss_mb`` (this
process plus its largest child).
``--trace 1`` runs a fixed amount of work twice,
untraced and then under the layer-boundary tracer, and prints the
per-layer metrics; two traced runs on one seed give identical counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any missed verdict
or exception makes ``correct`` false and the exit code 1; a missing matphi
source tree exits 2 without a result.

Compare two sets of runs (one saved standard output per file, traced and
untraced runs mixed freely)::

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload search --seed $s --seconds 25 \\
        --trace 0 > runs/base/search-$s.log
    done
    python3 perfbench/run.py --compare runs/base runs/new

For each workload and end-to-end metric this prints both sides' medians
and quartiles and a verdict (improved, unchanged, worse or unresolved)
under the bounds in ``BENCHMARK.json``, then per-layer deltas from the
traced runs. ``--smoke`` shrinks every workload to a few seconds, and
``--inject-fault`` judges the first verdict against a wrong expected
value; both exist for the self-tests in ``test_perfbench.py``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from hostspeed import factor, reference_chunk

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
REF_GAP_S = 0.4
# Each workload's name for ops_per_s and for one operation.
OPERATION = {
    "exact-sweep": ("instances_per_s", "instance"),
    "calculus-sweep": ("instances_per_s", "instance"),
    "search": ("restarts_per_s", "restart"),
    "suite-all": ("checks_per_s", "check"),
}


def host_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy without dict mode
        blas_name = "unknown"
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def import_matphi():
    """Import matphi from the source tree next to the benchmark."""
    if not (SRC / "matphi" / "__init__.py").is_file():
        raise ImportError(f"no matphi package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import matphi  # noqa: F401
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> dict:
    """Measured in a fresh interpreter: import matphi, one warm-up step."""
    start = time.perf_counter()
    workloads = import_matphi()
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    w = workloads.WORKLOADS[workload](seed, workloads.Verdicts())
    w.warmup()
    warmup_s = time.perf_counter() - start
    return {"import_s": import_s, "warmup_s": warmup_s, "ref_s": reference_chunk()}


def measure_setup(workload: str, seed: int, probes: int) -> dict:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for s in samples:
        s["factor"] = factor(s["ref_s"], s["ref_s"])
    return {
        "setup_s": statistics.median((s["import_s"] + s["warmup_s"]) / s["factor"] for s in samples),
        "import_s": statistics.median(s["import_s"] / s["factor"] for s in samples),
        "warmup_s": statistics.median(s["warmup_s"] / s["factor"] for s in samples),
        "raw_setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in samples),
    }


def run_steps(w, verdicts, first: int, count: int) -> float:
    """Wall time of steps ``first .. first+count-1``."""
    start = time.perf_counter()
    for i in range(first, first + count):
        timed_step(w, verdicts, i)
    return time.perf_counter() - start


def timed_step(w, verdicts, i: int) -> tuple[float, int]:
    """Run step ``i``; its wall time and the units of work it completed."""
    start = time.perf_counter()
    try:
        units = w.step(i)
    except Exception as exc:  # counted as a failed operation, run goes on
        verdicts.exception(f"{w.name} step {i}", exc)
        units = 0
    return time.perf_counter() - start, units


def closed_loop(w, verdicts, seconds: float) -> tuple[float, list[tuple[float, int, float]]]:
    """Whole rounds until another round would end past ``seconds``.

    Returns the loop's wall time and per step its wall time, units and
    the host factor of the probes before and after it.
    """
    steps, refs, i = [], [reference_chunk()], 0
    last_ref = start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(w.round_steps):
            if time.perf_counter() - last_ref >= REF_GAP_S:
                refs.append(reference_chunk())
                last_ref = time.perf_counter()
            steps.append((*timed_step(w, verdicts, i), len(refs) - 1))
            i += 1
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    wall = time.perf_counter() - start
    refs.append(reference_chunk())
    return wall, [(t, units, factor(refs[k], refs[k + 1])) for t, units, k in steps]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest 1 % of ``values``, and of at least ten."""
    k = min(len(values), max(10, round(len(values) / 100)))
    return statistics.fmean(sorted(values)[-k:])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    return float(np.percentile(values, q))


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: the mean of all order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) kernel. A suite pass
    yields one latency per check, and its plain median moves with the one
    or two checks next to it; this estimate leans on the whole middle."""
    x = np.sort(values)
    a = (len(x) + 1) / 2.0
    edges = betainc(a, a, np.arange(len(x) + 1) / len(x))
    return float(np.dot(np.diff(edges), x))


def prepared(args, workloads, verdicts):
    """The workload after its untimed warm-up, whose verdicts go uncounted."""
    w = workloads.WORKLOADS[args.workload](args.seed, workloads.Verdicts(), smoke=args.smoke)
    w.warmup()
    w.v = verdicts
    return w


def suite_scaled(w, steps) -> tuple[list[float], list[tuple[int, float]]]:
    """Scaled check latencies of the serial passes, and each pass's jobs
    and scaled wall time.

    A serial pass probes the host before each check and after the last,
    so each check is scaled by the probes around it and the pass's own
    overhead by their mean; a ``--jobs 2`` pass is scaled as a whole.
    """
    latencies, passes = [], []
    for i, jobs, payload, probes in w.reports:
        t, _, pass_factor = steps[i]
        clock = list(payload["wall_clock"].values())
        if len(probes) == len(clock) + 1:
            factors = [factor(a, b) for a, b in zip(probes, probes[1:])]
            checks = [c / f for c, f in zip(clock, factors)]
            overhead = t - sum(probes) - sum(clock)
            scaled = sum(checks) + overhead / statistics.fmean(factors)
        else:
            checks = [c / pass_factor for c in clock]
            scaled = t / pass_factor
        passes.append((jobs, scaled))
        if jobs == 1:
            latencies += checks
    return latencies, passes


def measure(args, workloads, verdicts) -> dict:
    w = prepared(args, workloads, verdicts)
    wall, steps = closed_loop(w, verdicts, args.seconds)
    units = sum(u for _, u, _ in steps)
    latencies = [t / max(u, 1) / f for t, u, f in steps]
    extra = {}
    if args.workload == "suite-all":
        latencies, passes = suite_scaled(w, steps)
        extra["suite_s"] = statistics.median(t for jobs, t in passes if jobs == 1)
        extra["suite_jobs2_s"] = statistics.median(t for jobs, t in passes if jobs == 2)
        # the serial pass's probes are not suite work
        scaled_s = sum(t for _, t in passes)
    else:
        scaled_s = sum(t / f for t, _, f in steps)
    lat_ms = [t * 1e3 for t in latencies]
    rss = peak_rss_mb()
    setup = measure_setup(args.workload, args.seed, args.probes)
    busy = sum(t for t, _, _ in steps) - sum(sum(r[3]) for r in getattr(w, "reports", []))
    return {
        "metrics": {
            "setup_s": setup["setup_s"],
            "ops_per_s": units / scaled_s,
            "op_p50_ms": hd_median(lat_ms),
            "op_tail_ms": tail_mean(lat_ms),
            "peak_rss_mb": rss,
        },
        "info": {
            "steps": len(steps), "units": units, "wall_s": round(wall, 3),
            "host_factor": round(statistics.median(f for _, _, f in steps), 4),
            "raw_ops_per_s": round(units / busy, 4),
            "raw_setup_s": round(setup["raw_setup_s"], 4),
            "latency_samples": len(lat_ms),
            "p50_ms": round(percentile(lat_ms, 50), 4),
            "p99_ms": round(percentile(lat_ms, 99), 4), **extra,
        },
    }


def traced(args, workloads, verdicts) -> dict:
    from tracer import LAPACK, LAYERS, Tracer

    w = prepared(args, workloads, verdicts)
    w.probe_checks = False
    suite = args.workload == "suite-all"
    steps = 1 if suite else w.trace_steps
    untraced_s = run_steps(w, verdicts, 0, steps)
    restarts_before = getattr(w, "lsi_restarts_run", 0)
    tracer = Tracer().install([workloads])
    try:
        traced_s = run_steps(w, verdicts, 0, steps)
    finally:
        tracer.uninstall()
    lsi_restarts = getattr(w, "lsi_restarts_run", 0) - restarts_before
    metrics: dict[str, float] = {}
    for name in LAYERS + ("lapack",):
        stats = tracer.layers[name]
        metrics[f"{name}.calls"] = stats.calls
        metrics[f"{name}.self_s"] = stats.self_s
        metrics[f"{name}.failed"] = stats.failed
    for name in LAPACK:
        metrics[f"lapack.{name}.calls"] = tracer.lapack_calls[name]
        metrics[f"lapack.{name}.matrices"] = tracer.lapack_matrices[name]
    lapack_calls = sum(tracer.lapack_calls.values())
    metrics["lapack.matrices_per_call"] = (
        sum(tracer.lapack_matrices.values()) / lapack_calls if lapack_calls else 0.0
    )
    metrics.update(tracer.counts)
    dd = tracer.counts["frechet.dd_entries"]
    metrics["frechet.ns_per_dd_entry"] = tracer.layers["frechet"].self_s * 1e9 / dd if dd else 0.0
    evals = tracer.counts["fourier.objective_evals"]
    metrics["fourier.evals_per_restart"] = evals / lsi_restarts if lsi_restarts else 0.0
    busy = critical = idle = 0.0
    if suite:
        wall = run_steps(w, verdicts, 1, 1)  # the --jobs 2 pass, untraced
        _, jobs, payload, _ = w.reports[-1]
        clock = payload["wall_clock"].values()
        busy, critical = sum(clock), max(clock)
        idle = 1.0 - busy / (jobs * wall)
    metrics["suites.busy_s"] = busy
    metrics["suites.critical_path_s"] = critical
    metrics["suites.pool_idle_share"] = idle
    metrics["trace.wall_s"] = traced_s
    metrics["harness.self_s"] = traced_s - tracer.root_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    setup = measure_setup(args.workload, args.seed, args.probes)
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.warmup_s"] = setup["warmup_s"]
    return {"metrics": metrics, "info": {"steps": steps, "missing": tracer.missing}}


def print_layer_shares(metrics: dict) -> None:
    """Self time per layer as a share of the traced wall time."""
    from tracer import LAYERS

    wall = metrics["trace.wall_s"]
    shares = {name: metrics[f"{name}.self_s"] / wall for name in LAYERS + ("lapack",)}
    shares["harness"] = metrics["harness.self_s"] / wall
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print(f"trace: self time shares of {wall:.4g} s traced wall (sum {sum(shares.values()):.4f}): "
          + " ".join(f"{name}={share:.1%}" for name, share in ranked if share > 0))


def print_workload_names(workload: str, metrics: dict, info: dict) -> None:
    """The end-to-end metrics under their per-workload names."""
    rate, op = OPERATION[workload]
    print(f"e2e {rate} = {metrics['ops_per_s']:.6g} 1/s")
    print(f"e2e {op}_p50_ms = {metrics['op_p50_ms']:.6g} ms (Harrell-Davis; "
          f"sample median {info['p50_ms']:.6g} ms)")
    print(f"e2e {op}_p99_ms = {info['p99_ms']:.6g} ms ({info['latency_samples']} samples)")
    print(f"e2e {op}_slowest_1pct_mean_ms = {metrics['op_tail_ms']:.6g} ms")
    if workload == "suite-all":
        print(f"e2e suite_s = {info['suite_s']:.6g} s")
        print(f"e2e suite_jobs2_s = {info['suite_jobs2_s']:.6g} s")


def load_spec() -> dict:
    """Metric names and units per mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(OPERATION))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    args.probes = 1 if args.smoke else SETUP_PROBES
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(ROOT / "BENCHMARK.json", *args.compare)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    try:
        workloads = import_matphi()
    except ImportError as exc:
        print(f"perfbench: cannot import matphi: {exc}", file=sys.stderr)
        return 2
    listed = load_spec()[args.trace]
    ref_start = reference_chunk()
    verdicts = workloads.Verdicts(inject_fault=args.inject_fault)
    result = (traced if args.trace else measure)(args, workloads, verdicts)
    ref_end = reference_chunk()
    metrics = result["metrics"]
    info = result["info"]
    facts = host_facts()
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"host.ref_loop_s: start={ref_start:.4f} end={ref_end:.4f}")
    print("run: " + " ".join(f"{k}={v}" for k, v in info.items() if k != "missing"))
    if args.trace:
        metrics["host.ref_loop_s"] = ref_start
        metrics["host.ref_loop_end_s"] = ref_end
        missing = info["missing"]
        print("trace: missing hooks: " + (", ".join(missing) if missing else "none"))
        print_layer_shares(metrics)
    else:
        print_workload_names(args.workload, metrics, info)
    failed_ratio = verdicts.failed / max(verdicts.attempted, 1)
    if args.trace:
        metrics["ops_failed_ratio"] = failed_ratio
    print(f"ops: attempted={verdicts.attempted} failed={verdicts.failed} "
          f"ops_failed_ratio={failed_ratio:.6g}")
    for miss in verdicts.misses:
        print(f"miss: {miss}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {listed.get(name, '')}".rstrip())
    correct = verdicts.failed == 0 and verdicts.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(verdicts.attempted, 1),
        "failed": verdicts.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in listed.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
