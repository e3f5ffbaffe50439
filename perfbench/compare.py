"""Compare two sets of benchmark runs; see the usage in ``run.py``.

Each set is a directory of saved standard outputs of ``run.py``, one run
per file. A run's workload and mode come from its ``workload:`` line and
its metrics from the JSON object on its last line.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(directory) -> dict[str, dict[str, list[dict]]]:
    """``{workload: {"e2e": [metrics, ...], "trace": [metrics, ...]}}``."""
    runs: dict[str, dict[str, list[dict]]] = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(errors="replace").splitlines()
        header = next((line for line in lines if line.startswith("workload: ")), None)
        if header is None:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        mode = "trace" if "trace=1" in header else "e2e"
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(header.split()[1], {"e2e": [], "trace": []})[mode].append(metrics)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and the change of the median as a share of the base
    median, signed so that positive is worse."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((b3 - b1) / bmed if bmed else 0.0, (n3 - n1) / nmed if nmed else 0.0)
    wins = sum(sign * (b - n) > 0 for b in base for n in new) / (len(base) * len(new))
    if worse_by > bound:
        return "worse", worse_by
    if wins == 1.0 or (wins >= 0.9 and -worse_by > (b3 - b1) / bmed):
        return "improved", worse_by
    if spread > bound:
        return "unresolved", worse_by
    return "unchanged", worse_by


def main(spec_path, base_dir, new_dir) -> int:
    """Print the comparison; exit code 1 when any metric got worse."""
    spec = json.loads(Path(spec_path).read_text())
    base, new = load_runs(base_dir), load_runs(new_dir)
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"== {workload}: {len(b_runs['e2e'])} base runs, {len(n_runs['e2e'])} new runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run[name] for run in b_runs["e2e"] if name in run]
            n = [run[name] for run in n_runs["e2e"] if name in run]
            if not b or not n:
                continue
            result, change = verdict(b, n, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"  {name:14s} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                f"  new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
                f"  worse by {change:+.1%} (bound {metric['bound']:.0%})  {result}"
            )
        if b_runs["trace"] and n_runs["trace"]:
            print(f"  per-layer medians, {len(b_runs['trace'])} base and "
                  f"{len(n_runs['trace'])} new traced runs:")
            for metric in spec["per_layer"]:
                name = metric["name"]
                b = [run[name] for run in b_runs["trace"] if name in run]
                n = [run[name] for run in n_runs["trace"] if name in run]
                if not b or not n:
                    continue
                bmed, nmed = statistics.median(b), statistics.median(n)
                if bmed == nmed == 0:
                    continue
                delta = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "new"
                print(f"    {name:28s} {bmed:12.6g} -> {nmed:12.6g} {metric['unit']:6s} {delta}")
    return 1 if any_worse else 0
