"""Structured results for individual checks and whole suite runs, the one
verdict rule (gap <= tol) and tolerance scaling they are judged by, the
seeded sweep that produces most of them, and the matrix JSON codec their
witnesses use."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .sampling import rng_for

ARTIFACT_VERSION = "0.1.0"
# Violations a sweep records; any positive cap keeps "no witness recorded"
# equivalent to "no gap above its tolerance".
MAX_WITNESSES = 5


def matrix_to_obj(m: np.ndarray) -> dict:
    """{"d": int, "re": [d*d floats row-major], "im": [d*d floats]}."""
    m = np.asarray(m, dtype=complex)
    return {
        "d": int(m.shape[0]),
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    d = int(obj["d"])
    re = np.asarray(obj["re"], dtype=float).reshape(d, d)
    im = np.asarray(obj["im"], dtype=float).reshape(d, d)
    if d < 1 or not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"a matrix needs d >= 1 (got {d}) and finite entries")
    return re + 1j * im


@dataclass
class CheckReport:
    check: str
    passed: bool
    max_gap: float = 0.0
    # the tolerance max_gap was judged against; kept out of to_dict
    tol: float | None = None
    phi: str | None = None
    d: int | None = None
    n: int | None = None
    trials: int = 1
    seed: int | None = None
    violations: list = field(default_factory=list)
    samples: int | None = None
    stderr: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "check": self.check,
            "phi": self.phi,
            "d": self.d,
            "n": self.n,
            "trials": self.trials,
            "violations": self.violations,
            "max_gap": float(self.max_gap),
            "seed": self.seed,
            "pass": bool(self.passed),
        }
        if self.samples is not None:
            out["samples"] = self.samples
        if self.stderr is not None:
            out["stderr"] = float(self.stderr)
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class SuiteReport:
    version: str
    config: dict
    reports: list[CheckReport]
    skipped: list[str] = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "reports": [r.to_dict() for r in sorted(self.reports, key=lambda r: r.check)],
            "skipped": sorted(self.skipped),
            "pass": self.passed,
            "wall_clock": self.wall_clock,
        }

    def comparable_dict(self) -> dict:
        """The report with timing and execution-only config fields
        stripped, for determinism comparisons across parallelism."""
        out = self.to_dict()
        out.pop("wall_clock", None)
        config = dict(out.get("config", {}))
        config.pop("jobs", None)
        config.pop("out", None)
        out["config"] = config
        return out


def relative_tol(rel: float, *values) -> float:
    """rel (1 + sum |v|): a tolerance scaled by the magnitudes it judges.
    The sum runs left to right from 1.0, and numpy arrays scale elementwise."""
    return rel * sum(map(abs, values), 1.0)


def verdict(check: str, gap: float, tol: float, **fields) -> CheckReport:
    """The report of a check that passes exactly when gap <= tol; further
    keyword arguments become fields of the report."""
    return CheckReport(
        check=check, passed=bool(gap <= tol), max_gap=float(gap), tol=float(tol), **fields
    )


def sweep(
    label: str,
    body: Callable,
    trials: int,
    seed: int,
    tol: float | None = None,
    **fields,
) -> CheckReport:
    """Run ``body(rng, trial)`` once per trial with ``rng = rng_for(seed,
    label, trial)``.

    The body returns a ``(gap, tol, witness_dict | None)`` triple, a
    list of triples when it probes several instances per trial, or a
    CheckReport, read as ``(max_gap, tol, None)``. A gap
    above its tolerance is a violation, recorded with its gap and trial
    index; ``tol``, when given, replaces every body tolerance. Further
    keyword arguments become fields of the report.
    """
    violations = []
    max_gap = -np.inf
    for trial in range(trials):
        outcomes = body(rng_for(seed, label, trial), trial)
        if isinstance(outcomes, CheckReport):
            outcomes = (outcomes.max_gap, outcomes.tol, None)
        if isinstance(outcomes, tuple):
            outcomes = [outcomes]
        for gap, probe_tol, witness in outcomes:
            max_gap = max(max_gap, gap)
            if gap > (probe_tol if tol is None else tol) and len(violations) < MAX_WITNESSES:
                violations.append({**(witness or {}), "gap": float(gap), "trial": trial})
    return CheckReport(
        check=label,
        passed=not violations,
        max_gap=float(max_gap),
        trials=trials,
        seed=seed,
        violations=violations,
        **fields,
    )
