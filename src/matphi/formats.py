"""Shared JSON file formats.

Matrix: {"d": int, "re": [d*d floats row-major], "im": [d*d floats]}
(the codec lives in ``report``, which the numeric modules import).
Ensemble: {"d": int, "items": [{"p": float, "rho": matrix}]}.
Kernel: {"rows": [[floats]], "mu"?: [probability over the kernel's inputs]}.
Boolean function: {"n": int, "d": int, "points": [{"x": bitstring, "matrix": matrix}]}
with the i-th character of the bitstring holding coordinate i; every
point must be present exactly once.
Product model: {"n": int, "d": int, "input_probs": [[floats]],
"values": [matrix]} with the joint index in mixed radix, first input
varying slowest.
LSI witness: a Boolean function plus "found", "objective", "entropy",
"energy" and "log_d" = log(d), the defect the defective log-Sobolev bound
allows (tables are normalized to tr E f^2 = 1, so "objective" is the
measured defect and stays at most "log_d").
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, MatPhiError
from .fourier import LsiSearchResult, MatrixBooleanFunction
from .holevo import CQEnsemble, MarkovKernel
from .models import MAX_ENUMERATION, FiniteLaw, ProductModel, require_probabilities
from .report import matrix_from_obj, matrix_to_obj


def ensemble_to_obj(ens: CQEnsemble) -> dict:
    return {
        "d": ens.d,
        "items": [
            {"p": float(p), "rho": matrix_to_obj(rho)}
            for p, rho in zip(ens.probs, ens.states)
        ],
    }


@contextmanager
def _loading(what: str):
    """Report whatever a malformed object raises while it is read as one
    ConfigError naming the object kind."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, MatPhiError) as exc:
        raise ConfigError(f"bad {what} object: {type(exc).__name__} {exc}") from exc


def _matrices(objs, d) -> np.ndarray:
    """The (k, d, d) stack of k >= 1 matrix objects of the declared d."""
    stack = np.stack([matrix_from_obj(m) for m in objs])
    if stack.shape[1] != int(d):
        raise ValueError(f"{stack.shape[1]} x {stack.shape[1]} matrices for d = {d}")
    return stack


def ensemble_from_obj(obj: dict) -> CQEnsemble:
    with _loading("ensemble"):
        probs = np.array([item["p"] for item in obj["items"]], dtype=float)
        return CQEnsemble(probs, _matrices([item["rho"] for item in obj["items"]], obj["d"]))


def kernel_to_obj(kernel: MarkovKernel, mu: np.ndarray | None = None) -> dict:
    out = {"rows": [[float(x) for x in row] for row in kernel.rows]}
    if mu is not None:
        out["mu"] = [float(x) for x in mu]
    return out


def kernel_from_obj(obj: dict) -> tuple[MarkovKernel, np.ndarray | None]:
    with _loading("kernel"):
        kernel = MarkovKernel(np.asarray(obj["rows"], dtype=float))
        if "mu" not in obj:
            return kernel, None
        mu = np.asarray(obj["mu"], dtype=float)
        if mu.shape != (kernel.input_size,):
            raise ValueError(f"mu of shape {mu.shape} for {kernel.input_size} inputs")
        # a zero entry is left to the admissibility check
        return kernel, require_probabilities(mu, "mu", positive=False)


def boolean_function_to_obj(f: MatrixBooleanFunction) -> dict:
    return {
        "n": f.n,
        "d": f.d,
        "points": [
            {
                "x": format(x, f"0{f.n}b")[::-1] if f.n else "",
                "matrix": matrix_to_obj(m),
            }
            for x, m in enumerate(f.table)
        ],
    }


def witness_payload(result: LsiSearchResult) -> dict:
    return {
        "found": result.found,
        "objective": result.objective,
        "entropy": result.entropy,
        "energy": result.energy,
        "log_d": math.log(result.f.d),
        **boolean_function_to_obj(result.f),
    }


def boolean_function_from_obj(obj: dict) -> MatrixBooleanFunction:
    with _loading("Boolean function"):
        n = int(obj["n"])
        if not 0 <= n <= math.log2(MAX_ENUMERATION):
            raise ValueError(f"n = {n} is outside 0..{int(math.log2(MAX_ENUMERATION))}")
        if len(obj["points"]) != 2**n:
            raise ValueError(f"{len(obj['points'])} points for the 2^{n} of the cube")
        matrices = {}
        for point in obj["points"]:
            bits = point["x"]
            if not isinstance(bits, str) or len(bits) != n or any(c not in "01" for c in bits):
                raise ValueError(f"bad bitstring {bits!r} for n={n}")
            matrices[sum(1 << i for i, c in enumerate(bits) if c == "1")] = point["matrix"]
        if len(matrices) != 2**n:
            raise ValueError(f"function table is missing {2**n - len(matrices)} points")
        return MatrixBooleanFunction(n, _matrices([matrices[x] for x in range(2**n)], obj["d"]))


def product_model_to_obj(model: ProductModel, d: int) -> dict:
    return {
        "n": model.n,
        "d": d,
        "input_probs": [[float(p) for p in law.probs] for law in model.laws],
        "values": [matrix_to_obj(m) for m in model.values],
    }


def product_model_from_obj(obj: dict) -> ProductModel:
    with _loading("product model"):
        laws = [
            FiniteLaw(np.asarray(probs, dtype=float), tuple(range(len(probs))))
            for probs in obj["input_probs"]
        ]
        if int(obj["n"]) != len(laws):
            raise ValueError(f"n = {obj['n']} for {len(laws)} input laws")
        return ProductModel(laws, _matrices(obj["values"], obj["d"]))


def json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def dump_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(json_text(obj))


def load_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc
