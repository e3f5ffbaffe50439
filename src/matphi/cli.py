"""Command-line entry point.

    matphi <suite|eta|search|generate> [options]

Suites: characterizations (alias: entropy), efron-stein, poincare,
gaussian, fourier, sobolev, holevo, all. Exit status is 0 exactly when
every executed check passes; failing checks are named on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, MatPhiError
from .formats import (
    boolean_function_to_obj,
    dump_json,
    ensemble_to_obj,
    json_text,
    kernel_from_obj,
    kernel_to_obj,
    load_json,
    matrix_to_obj,
    product_model_to_obj,
    witness_payload,
)
from .fourier import MatrixBooleanFunction, search_lsi_counterexample
from .holevo import GRID_RESOLUTION, CQEnsemble, MarkovKernel, eta_phi, require_admissible
from .models import MAX_ENUMERATION
from .report import SuiteReport
from .sampling import (
    random_hermitian,
    random_kernel,
    random_probability_vector,
    random_psd,
    random_boolean_function,
    random_density,
    random_product_model,
    rng_for,
)
from .suites import SUITE_ALIASES, SUITES, RunConfig, run_suite

GENERATE_KINDS = (
    "hermitian",
    "psd",
    "ensemble",
    "kernel",
    "boolean-function",
    "product-model",
)
# --trials counts trials for suites and eta, restarts for the LSI search.
DEFAULT_TRIALS = 50
DEFAULT_SEARCH_RESTARTS = 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matphi", description=__doc__)
    parser.add_argument(
        "command",
        help="suite name (%s), or one of: eta, search, generate"
        % ", ".join(sorted(SUITES) + sorted(SUITE_ALIASES)),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="generate: instance kind; search: lsi-counterexample",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--phi", default="xlogx")
    parser.add_argument("--samples", type=int, default=10000)
    parser.add_argument("--in", dest="infile", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


def _config_from_args(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        text = os.environ.get("MATPHI_SEED", "42")
        try:
            seed = int(text)
        except ValueError:
            raise ConfigError(f"MATPHI_SEED must be an integer, got {text!r}") from None
    trials = args.trials
    if trials is None:
        search = args.command == "search" and args.target == "lsi-counterexample"
        trials = DEFAULT_SEARCH_RESTARTS if search else DEFAULT_TRIALS
    return RunConfig(
        seed=seed,
        trials=trials,
        tol=args.tol,
        d=args.d,
        n=args.n,
        phi=args.phi,
        samples=args.samples,
        jobs=args.jobs,
        fmt=args.fmt,
        out=args.out,
    )


def _report_csv(suite_report: SuiteReport) -> str:
    lines = ["check,phi,d,n,trials,max_gap,pass,seed"]
    for rep in sorted(suite_report.reports, key=lambda r: r.check):
        lines.append(
            "%s,%s,%s,%s,%s,%.12g,%s,%s"
            % (
                rep.check,
                rep.phi or "",
                rep.d if rep.d is not None else "",
                rep.n if rep.n is not None else "",
                rep.trials,
                rep.max_gap,
                str(rep.passed).lower(),
                rep.seed if rep.seed is not None else "",
            )
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_suite(suite: str, config: RunConfig) -> int:
    report = run_suite(config, suite)
    if config.fmt == "csv":
        _emit(_report_csv(report), config.out)
    else:
        _emit(json_text(report.to_dict()), config.out)
    failing = [r.check for r in report.reports if not r.passed]
    if failing:
        print("failing checks: " + ", ".join(sorted(failing)), file=sys.stderr)
        return 1
    return 0


def _require_enumerable(what: str, n: int) -> None:
    if n > math.log2(MAX_ENUMERATION):
        raise ConfigError(f"{what} with n = {n} has 2^n values, above {MAX_ENUMERATION}")


def _cmd_generate(kind: str, config: RunConfig) -> int:
    if kind not in GENERATE_KINDS:
        raise ConfigError(f"unknown instance kind {kind!r}; choose from {GENERATE_KINDS}")
    if kind in ("boolean-function", "product-model"):
        _require_enumerable(kind, config.n)
    rng = rng_for(config.seed, f"generate-{kind}", 0)
    if kind == "hermitian":
        obj = matrix_to_obj(random_hermitian(rng, config.d))
    elif kind == "psd":
        obj = matrix_to_obj(random_psd(rng, config.d))
    elif kind == "ensemble":
        probs = random_probability_vector(rng, max(2, config.n))
        states = np.stack([random_density(rng, config.d) for _ in probs])
        obj = ensemble_to_obj(CQEnsemble(probs, states))
    elif kind == "kernel":
        size = max(2, config.n)
        obj = kernel_to_obj(MarkovKernel(random_kernel(rng, size, size)))
    elif kind == "boolean-function":
        table = random_boolean_function(rng, config.n, config.d)
        obj = boolean_function_to_obj(MatrixBooleanFunction(config.n, table))
    else:
        model = random_product_model(rng, config.d, config.n, arity=2)
        obj = product_model_to_obj(model, config.d)
    _emit(json_text(obj), config.out)
    return 0


def _cmd_eta(config: RunConfig, infile: str | None) -> int:
    if infile is None:
        raise ConfigError("eta needs --in with a kernel file ({'rows': ..., 'mu'?: ...})")
    kernel, mu = kernel_from_obj(load_json(infile))
    k = kernel.input_size
    grid = math.comb(int(round(1.0 / GRID_RESOLUTION)) + k - 1, k - 1)
    if config.d == 1 and grid > MAX_ENUMERATION:
        raise ConfigError(f"eta at d = 1 on {k} letters scans {grid} grid points, above {MAX_ENUMERATION}")
    if mu is None:
        mu = np.full(kernel.input_size, 1.0 / kernel.input_size)
    # a file's mu is a probability vector that may vanish somewhere, which
    # is not admissible (exit 3); eta_phi itself refuses it as no strictly
    # positive law
    require_admissible(mu, kernel)
    result = eta_phi(
        mu, kernel, d=config.d, restarts=min(config.trials, 50), seed=config.seed
    )
    if result.witness is None:
        witness = None
    elif isinstance(result.witness, np.ndarray):
        witness = [float(x) for x in result.witness]
    else:
        witness = ensemble_to_obj(result.witness)
    if config.out:
        dump_json(config.out, {"eta_hat": result.eta_hat, "witness": witness, "seed": result.seed})
    print(f"eta_hat = {result.eta_hat:.6f}")
    return 0


def _cmd_search(target: str, config: RunConfig) -> int:
    if target != "lsi-counterexample":
        raise ConfigError(f"unknown search kind {target!r}")
    _require_enumerable(target, config.n)
    result = search_lsi_counterexample(
        d=config.d, n=config.n, restarts=config.trials, seed=config.seed
    )
    payload = witness_payload(result)
    if config.out:
        dump_json(config.out, payload)
    verdict = "found: objective" if result.found else "not found: best objective"
    print(f"{verdict} = {result.objective:.6e}, log_d = {payload['log_d']:.6e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        command = args.command
        if command == "generate":
            if not args.target:
                raise ConfigError("generate needs an instance kind")
            return _cmd_generate(args.target, config)
        if command == "search":
            if not args.target:
                raise ConfigError("search needs a kind: lsi-counterexample")
            return _cmd_search(args.target, config)
        if command == "eta":
            return _cmd_eta(config, args.infile)
        return _cmd_suite(command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MatPhiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
