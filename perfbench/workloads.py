"""The benchmark's four workloads, each a closed loop of checked operations.

A workload turns ``(seed, step index)`` into one operation: it builds the
instance from ``rng_for(seed, label, i)``, runs it through matphi's public
API and records every verdict against its expected outcome in a
``Verdicts`` tally. ``step`` returns the number of work units the operation
completed (sweep instances, hill-climb restarts or suite checks), so the
harness can report throughput in the unit that matters to each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback

import numpy as np

import matphi.suites
from hostspeed import reference_chunk

from matphi.cli import main as matphi_main
from matphi.concentration import (
    check_plus_identities,
    efron_stein_forms,
    efron_stein_quantity,
)
from matphi.entropy import (
    bregman_maps,
    bregman_pair_sampler,
    check_char_a,
    check_char_e,
    check_joint_convexity,
)
from matphi.fourier import (
    MatrixBooleanFunction,
    dirichlet_energy_flip,
    dirichlet_energy_spectral,
    entropy_of_square,
    search_lsi_counterexample,
    uniform_cube_model,
)
from matphi.frechet import fd_frechet, fd_frechet_second, frechet_derivative, frechet_second
from matphi.holevo import MarkovKernel, check_law_total_variance, eta_phi
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

# Criterion tolerances, as in the acceptance suite.
IDENTITY_TOL = 1e-10
FIRST_DERIVATIVE_TOL = 1e-6
SECOND_DERIVATIVE_TOL = 1e-4
# Relative step of the second-difference oracle. Its default step,
# 1e-5 * (1 + |A|), leaves a rounding error up to about 1.4e-4 at |A| ~ 10,
# above the tolerance, while the exact second derivative matches the
# closed form 2 E^2 of x^2 to 1e-15. At 1e-3 the oracle is good to 1e-8.
SECOND_DIFFERENCE_STEP = 1e-3
WITNESS_RECHECK_TOL = 1e-12
WITNESS_THRESHOLD = 1e-6
SCALAR_TIGHTNESS_TOL = 1e-9
ETA_TOL = 1e-9

PHI_SET = (
    PhiFunction.power(1.2),
    PhiFunction.power(1.5),
    PhiFunction.power(2.0),
    PhiFunction.xlogx(),
)
XLOGX = PhiFunction.xlogx()


class Verdicts:
    """Tally of checked verdicts. With ``inject_fault`` the first verdict
    is judged against a wrong expected value, which must count as a miss."""

    def __init__(self, inject_fault: bool = False):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self._inject = inject_fault

    def _record(self, what: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(f"{what}: {detail}")

    def close(self, what: str, value: float, expected: float, tol: float) -> None:
        """``value`` must equal ``expected`` within ``tol``."""
        if self._inject:
            self._inject = False
            expected = expected + 1.0
        self._record(
            what,
            abs(value - expected) <= tol,
            f"{float(value)!r} vs expected {float(expected)!r} (tol {tol:.1e})",
        )

    def holds(self, what: str, condition: bool, detail: str = "") -> None:
        """``condition`` is the expected outcome."""
        if self._inject:
            self._inject = False
            condition = not condition
        self._record(what, bool(condition), detail or "expected to hold")

    def exception(self, what: str, exc: BaseException) -> None:
        self._record(what, False, "".join(traceback.format_exception_only(exc)).strip())


def _sub_seed(seed: int, label: str, i: int) -> int:
    """Seed for a library routine that draws its own streams."""
    return int(rng_for(seed, label, i).integers(2**31))


class ExactSweep:
    """Criterion-1 identities, one instance per verdict."""

    name = "exact-sweep"
    round_steps = 48
    KINDS = ("dirichlet", "efron-stein", "total-variance", "plus")
    D_CYCLE = (1, 2, 3, 4)
    N_CYCLE = (1, 2, 3, 4, 5, 6)
    trace_steps = 384

    def __init__(self, seed: int, verdicts: Verdicts, smoke: bool = False):
        self.seed = seed
        self.v = verdicts
        if smoke:
            self.trace_steps = 48

    def warmup(self) -> None:
        for i in range(len(self.KINDS)):
            self.step(i)

    def step(self, i: int) -> int:
        kind = self.KINDS[i % len(self.KINDS)]
        t = i // len(self.KINDS)
        d = self.D_CYCLE[t % len(self.D_CYCLE)]
        n = self.N_CYCLE[t % len(self.N_CYCLE)]
        rng = rng_for(self.seed, f"bench-exact-{kind}", t)
        what = f"{kind} t={t} d={d} n={n}"
        if kind == "dirichlet":
            f = MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=False))
            spectral = dirichlet_energy_spectral(f)
            flip = dirichlet_energy_flip(f)
            resampled = efron_stein_quantity(uniform_cube_model(f))
            dev = max(abs(flip - spectral), abs(resampled - spectral))
            self.v.close(what, dev, 0.0, IDENTITY_TOL * (1.0 + abs(spectral)))
        elif kind == "efron-stein":
            model = random_product_model(rng, d, n, arity=2, psd=False)
            f1, f2, f3 = efron_stein_forms(model)
            dev = max(abs(f2 - f1), abs(f3 - f1))
            self.v.close(what, dev, 0.0, IDENTITY_TOL * (1.0 + abs(f1)))
        elif kind == "total-variance":
            k = 6
            probs = rng.random(k) + 0.1
            probs /= probs.sum()
            values = np.stack([random_psd(rng, d) for _ in range(k)])
            labels = [int(rng.integers(0, 3)) for _ in range(k)]
            rep = check_law_total_variance(XLOGX, probs, values, labels)
            total = rep.details["total"]
            split = rep.details["conditional"] + rep.details["outer"]
            self.v.close(what, split, total, IDENTITY_TOL * (1.0 + abs(total)))
        else:
            law = random_law(rng, d, 2, psd=False)
            q = 1 + t % 3
            rep = check_plus_identities(law, q)
            scale = 1.0 + float(np.max(np.abs(law.values))) ** q
            self.v.close(what, rep.max_gap, 0.0, IDENTITY_TOL * scale)
        return 1


class CalculusSweep:
    """Frechet-calculus characterizations and derivative checks, one
    instance at a time over the four in-class generators."""

    name = "calculus-sweep"
    round_steps = 96
    KINDS = ("char-a", "char-bcd", "char-e", "derivatives")
    D_CYCLE = (1, 2, 3, 4, 6, 8)
    trace_steps = 384

    def __init__(self, seed: int, verdicts: Verdicts, smoke: bool = False):
        self.seed = seed
        self.v = verdicts
        if smoke:
            self.trace_steps = 24

    def warmup(self) -> None:
        for i in range(len(self.KINDS)):
            self.step(i)

    def step(self, i: int) -> int:
        kind = self.KINDS[i % len(self.KINDS)]
        t = i // len(self.KINDS)
        phi = PHI_SET[t % len(PHI_SET)]
        d = self.D_CYCLE[(t // len(PHI_SET)) % len(self.D_CYCLE)]
        label = f"bench-calculus-{kind}"
        what = f"{kind} t={t} phi={phi.label} d={d}"
        if kind == "char-a":
            rep = check_char_a(phi, trials=1, d=d, seed=_sub_seed(self.seed, label, t))
            self.v.holds(what, rep.passed, f"gap {rep.max_gap!r}")
        elif kind == "char-bcd":
            cache: dict = {}

            def maps(u, v):
                key = (u.tobytes(), v.tobytes())
                if key not in cache:
                    cache[key] = bregman_maps(phi, u, v)
                return cache[key]

            sub = _sub_seed(self.seed, label, t)
            for index, char in enumerate("bcd"):
                # One shared label keeps the sampled pairs identical across
                # the three maps, so each Bregman triple is computed once.
                rep = check_joint_convexity(
                    lambda u, v, k=index: maps(u, v)[k],
                    bregman_pair_sampler(d),
                    trials=1,
                    seed=sub,
                    label=label,
                )
                self.v.holds(f"char-{char} {what}", rep.passed, f"gap {rep.max_gap!r}")
        elif kind == "char-e":
            rng = rng_for(self.seed, label, t)
            a = random_pd(rng, d, floor=0.3)
            h = random_unit_hermitian(rng, d)
            k = random_unit_hermitian(rng, d)
            res = check_char_e(phi, a, h, k)
            self.v.holds(what, res.holds, f"lhs {res.lhs!r} rhs {res.rhs!r}")
        else:
            rng = rng_for(self.seed, label, t)
            sf = phi.scalar()
            a = random_pd(rng, d, floor=0.4)
            e = random_unit_hermitian(rng, d)
            exact = frechet_derivative(sf, a, e)
            approx = fd_frechet(sf.apply, a, e)
            rel = float(np.linalg.norm(exact - approx)) / (1.0 + float(np.linalg.norm(exact)))
            self.v.close(f"first {what}", rel, 0.0, FIRST_DERIVATIVE_TOL)
            exact2 = frechet_second(sf, a, e, e)
            step = SECOND_DIFFERENCE_STEP * (1.0 + float(np.linalg.norm(a)))
            approx2 = fd_frechet_second(sf.apply, a, e, e, h=step)
            rel2 = float(np.linalg.norm(exact2 - approx2)) / (
                1.0 + float(np.linalg.norm(exact2))
            )
            self.v.close(f"second {what}", rel2, 0.0, SECOND_DERIVATIVE_TOL)
        return 1


class Search:
    """Counterexample searches and strong data-processing estimates.

    One round is five calls: LSI searches at d = 2 for n = 1, 2, 3 (each
    must find a witness that re-verifies from its raw table), a d = 1
    search (must find none) and ``eta_phi`` on a seeded random 2x2 kernel.
    """

    name = "search"
    LSI_RESTARTS = 20
    LSI_STEPS = 300
    SCALAR_RESTARTS = 40
    ETA_RESTARTS = 3
    ETA_HILL_STEPS = 30
    CALLS_PER_ROUND = 5
    round_steps = CALLS_PER_ROUND
    trace_steps = CALLS_PER_ROUND

    def __init__(self, seed: int, verdicts: Verdicts, smoke: bool = False):
        self.seed = seed
        self.v = verdicts
        self.lsi_restarts_run = 0

    def warmup(self) -> None:
        search_lsi_counterexample(d=1, n=1, restarts=2, steps=20, seed=self.seed)
        search_lsi_counterexample(d=2, n=1, restarts=1, steps=20, seed=self.seed)
        eta_phi(
            np.array([0.5, 0.5]), MarkovKernel.binary_symmetric(0.1), d=2,
            grid_resolution=0.5, restarts=1, hill_steps=2, seed=self.seed,
        )

    def step(self, i: int) -> int:
        r, call = divmod(i, self.CALLS_PER_ROUND)
        if call < 3:
            n = call + 1
            sub = _sub_seed(self.seed, f"bench-search-lsi-n{n}", r)
            res = search_lsi_counterexample(
                d=2, n=n, restarts=self.LSI_RESTARTS, steps=self.LSI_STEPS, seed=sub
            )
            what = f"lsi d=2 n={n} round={r}"
            self.v.holds(what, res.found and res.objective > WITNESS_THRESHOLD,
                         f"objective {res.objective!r}")
            recheck = entropy_of_square(res.f) - 2.0 * dirichlet_energy_flip(res.f)
            self.v.close(f"{what} recheck", recheck, res.objective, WITNESS_RECHECK_TOL)
            self.lsi_restarts_run += self.LSI_RESTARTS
            return self.LSI_RESTARTS
        if call == 3:
            sub = _sub_seed(self.seed, "bench-search-scalar", r)
            res = search_lsi_counterexample(
                d=1, n=1, restarts=self.SCALAR_RESTARTS, steps=self.LSI_STEPS, seed=sub
            )
            self.v.holds(
                f"lsi d=1 round={r}",
                not res.found and res.objective <= SCALAR_TIGHTNESS_TOL,
                f"objective {res.objective!r}",
            )
            self.lsi_restarts_run += self.SCALAR_RESTARTS
            return self.SCALAR_RESTARTS
        rng = rng_for(self.seed, "bench-search-eta", r)
        kernel = MarkovKernel(random_kernel(rng, 2, 2))
        res = eta_phi(
            np.array([0.5, 0.5]), kernel, d=2, grid_resolution=0.25,
            restarts=self.ETA_RESTARTS, hill_steps=self.ETA_HILL_STEPS,
            seed=int(rng.integers(2**31)),
        )
        self.v.holds(f"eta round={r}", 0.0 <= res.eta_hat <= 1.0 + ETA_TOL,
                     f"eta_hat {res.eta_hat!r}")
        return self.ETA_RESTARTS


def comparable(payload: dict) -> dict:
    """A suite report without timing and execution-only config fields."""
    out = dict(payload)
    out.pop("wall_clock", None)
    config = dict(out.get("config", {}))
    config.pop("jobs", None)
    config.pop("out", None)
    out["config"] = config
    return out


class SuiteAll:
    """``matphi all --seed S`` through ``matphi.cli.main``, alternating a
    ``--jobs 1`` pass and a ``--jobs 2`` pass whose report must equal the
    serial one modulo timing."""

    name = "suite-all"
    JOBS = (1, 2)
    round_steps = len(JOBS)
    probe_checks = True  # off under the tracer, whose spans the probes would join

    def __init__(self, seed: int, verdicts: Verdicts, smoke: bool = False):
        self.seed = seed
        self.v = verdicts
        self.extra = ["--trials", "2", "--samples", "200"] if smoke else []
        self.last_serial: dict | None = None
        # step, jobs, report, host probes around the checks of a serial pass
        self.reports: list[tuple[int, int, dict, list[float]]] = []

    def run_cli(self, argv: list[str]) -> tuple[int, dict | None]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = matphi_main(argv)
        text = out.getvalue()
        return rc, (json.loads(text) if text.strip() else None)

    def warmup(self) -> None:
        self.run_cli(["efron-stein", "--seed", str(self.seed), "--trials", "1"])

    @contextlib.contextmanager
    def probing_checks(self, probes: list[float]):
        """Probe the host before each check of a serial pass and after the
        last one; without the per-check hook the pass goes unprobed."""
        original = getattr(matphi.suites, "_run_check", None)
        if original is None:
            yield
            return

        def probed(name, config_dict):
            probes.append(reference_chunk())
            return original(name, config_dict)

        matphi.suites._run_check = probed
        try:
            yield
        finally:
            matphi.suites._run_check = original
            probes.append(reference_chunk())

    def step(self, i: int) -> int:
        jobs = self.JOBS[i % len(self.JOBS)]
        what = f"all --jobs {jobs} pass={i // len(self.JOBS)}"
        probes: list[float] = []
        probing = jobs == 1 and self.probe_checks
        with self.probing_checks(probes) if probing else contextlib.nullcontext():
            rc, payload = self.run_cli(
                ["all", "--seed", str(self.seed), "--jobs", str(jobs)] + self.extra
            )
        self.v.holds(f"{what} exit code", rc == 0 and payload is not None, f"exit {rc}")
        if payload is None:
            return 0
        for rep in payload["reports"]:
            self.v.holds(f"{what} {rep['check']}", rep["pass"], f"max_gap {rep['max_gap']!r}")
        self.reports.append((i, jobs, payload, probes))
        if jobs == 1:
            self.last_serial = comparable(payload)
        elif self.last_serial is not None:
            self.v.holds(f"{what} equals serial report",
                         comparable(payload) == self.last_serial,
                         "reports differ modulo timing")
        return len(payload["reports"])


WORKLOADS = {w.name: w for w in (ExactSweep, CalculusSweep, Search, SuiteAll)}
