"""Structured results for individual checks and whole suite runs, the one
verdict rule (gap <= tol) and tolerance scaling they are judged by, the
record that judges each of the paper's inequalities by them, the seeded
sweep that produces most of them, and the matrix JSON codec their
witnesses use."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import MatPhiError
from .sampling import BLOCK_ENTRIES, rng_for

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


@dataclass(frozen=True)
class Inequality:
    """One inequality, judged in one place. ``sides(*instance)`` returns
    its two sides (lhs, rhs) in the order its statement writes them, for
    one instance or for stacks of instances. ``sense`` says which way the
    statement points: the gap is lhs - rhs for "<=" and rhs - lhs for
    ">=". It passes within relative_tol(rel, lhs, rhs)."""

    check: str
    rel: float
    sides: Callable
    names: tuple[str, str] = ("lhs", "rhs")
    sense: str = "<="

    def rule(self, lhs, rhs):
        """(gap, tol) of the sides, floats or arrays."""
        gap = lhs - rhs if self.sense == "<=" else rhs - lhs
        return gap, relative_tol(self.rel, lhs, rhs)

    def verdict(self, *instance, details=(), **fields) -> CheckReport:
        """The report of one instance, its sides under ``names`` ahead of
        ``details`` in its details; further keyword arguments become fields."""
        lhs, rhs = map(float, self.sides(*instance))
        return verdict(
            self.check, *self.rule(lhs, rhs),
            details={self.names[0]: lhs, self.names[1]: rhs, **dict(details)}, **fields,
        )

    def judge(self, *stacks):
        """A sweep's judge: one probe per trial of the block, no witness."""
        return judged(*self.rule(*self.sides(*stacks)))


def judged(gap, tol, witness=None):
    """One probe per trial: each trial's ``(gap, tol, witness)`` as drawn by
    draws that judge their own trial, or as a stacked judge forms them."""
    return gap[:, None], tol[:, None], lambda b, probe: None if witness is None else witness[b]


def sweep(
    label: str,
    draw: Callable,
    judge: Callable,
    trials: int,
    seed: int,
    tol: float | None = None,
    entries: int = 1,
    **fields,
) -> CheckReport:
    """The seeded sweep: every trial is a draw, and blocks of trials are
    judged at once.

    ``draw(rng, trial)`` returns the trial's instance, a tuple of arrays
    (or floats) of fixed shapes, from ``rng = rng_for(seed, label,
    trial)`` in trial order. Blocks of at most ``BLOCK_ENTRIES //
    entries`` trials (at least one; ``entries`` is the number of complex
    entries one trial's judge holds) are then judged at once:
    ``judge(*stacks)`` takes each part of the instance stacked over the
    block's trials and returns ``(gap, tol, witness)``: two (trials,
    probes) arrays and ``witness(b, probe)``, the dict or None that goes
    with that probe of the block's b-th trial. A draw that judges its own
    trial returns its ``(gap, tol, witness)``, which ``judged`` reads.

    A gap not within its tolerance (a NaN gap included) is a violation,
    recorded with its gap and trial index, the first ``MAX_WITNESSES`` in
    trial/probe order; ``max_gap`` is the largest gap, NaN when any is.
    ``tol``, when given, replaces every probe tolerance. Further keyword
    arguments become fields of the report. A block of several trials that
    the judge refuses is judged again trial by trial, each trial a stack
    of one, so the first refused trial raises what it raises alone
    (``frechet._in_turn``'s rule, for trials). Fewer than one trial is a
    ValueError, before any draw.
    """
    if trials < 1:
        raise ValueError(f"{label}: trials must be at least 1, got {trials}")
    size = max(1, BLOCK_ENTRIES // entries)
    violations: list = []
    max_gap = -np.inf
    for start in range(0, trials, size):
        drawn = [draw(rng_for(seed, label, trial), trial)
                 for trial in range(start, min(start + size, trials))]
        stacks = [np.array(part) for part in zip(*drawn)]
        try:
            gap, probe_tol, witness = judge(*stacks)
        except MatPhiError:
            for trial in range(len(drawn) if len(drawn) > 1 else 0):
                judge(*(stack[trial:trial + 1] for stack in stacks))
            raise
        probes = np.shape(gap)[-1]
        for i, (g, g_tol) in enumerate(zip(np.ravel(gap).tolist(), np.ravel(probe_tol).tolist())):
            # np.maximum's rule: the later of two equal gaps, and NaN stays
            max_gap = max_gap if max_gap > g or max_gap != max_gap else g
            if not g <= (g_tol if tol is None else tol) and len(violations) < MAX_WITNESSES:
                trial, probe = divmod(i, probes)
                violations.append(
                    {**(witness(trial, probe) or {}), "gap": float(g), "trial": start + trial}
                )
    return CheckReport(
        check=label, passed=not violations, max_gap=float(max_gap), trials=trials, seed=seed,
        violations=violations, **fields,
    )
