"""Scalar entropy generators and their derivative stacks.

The entropy class used throughout consists of affine functions, powers
x^p with p in [1, 2], and x log x. The cube x^3 is carried as a built-in
negative control: it is convex but sits outside the class, so the
characterization checkers are expected to find violations for it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SpectrumOutOfDomain
from .linalg import (
    NONNEGATIVE,
    REALS,
    SpectralInterval,
    apply_standard_function,
    spectral_tolerance,
)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with derivative evaluators, applicable to
    Hermitian matrices through the spectral calculus.

    ``strict_lo`` marks functions that blow up at the lower endpoint
    (e.g. log-like derivatives), which then refuse eigenvalues at or
    within the spectral tolerance above it.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    domain: SpectralInterval = field(default=REALS)
    strict_lo: bool = False

    def admit(self, w: np.ndarray) -> np.ndarray:
        """The (..., d) spectra clamped into the domain; the strict
        endpoint test reads them before the clamp moves them."""
        w = np.asarray(w, dtype=float)
        try:
            clamped = self.domain.admit(w)
        except SpectrumOutOfDomain as exc:
            raise SpectrumOutOfDomain(f"{self.name}: {exc}", exc.offending) from exc
        if self.strict_lo:
            low = w <= self.domain.lo + spectral_tolerance(w.shape[-1])
            if np.any(low):
                raise SpectrumOutOfDomain(
                    f"{self.name} requires eigenvalues strictly above {self.domain.lo}", w[low]
                )
        return clamped

    def apply(self, a) -> np.ndarray:
        """Standard matrix function f(A) via the spectral decomposition."""
        return apply_standard_function(lambda w: self.fn(self.admit(w)), a)


def _xlogx(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _power_term(coeff: float, expo: float):
    def term(x):
        x = np.asarray(x, dtype=float)
        if coeff == 0.0:
            return np.zeros_like(x)
        return coeff * np.power(x, expo)

    return term


def _power_stack(p: float) -> tuple:
    """x^p and its first four derivatives; each coefficient is the
    left-to-right product 1.0 * p * (p - 1) * ..."""
    coeffs = itertools.accumulate((p - j for j in range(4)), operator.mul, initial=1.0)
    return tuple(_power_term(coeff, p - order) for order, coeff in enumerate(coeffs))


# kind -> a generator's stack (Phi, Phi', ..., Phi'''') and whether Phi is
# a polynomial; a new family is one entry
FAMILIES: dict[str, Callable[["PhiFunction"], tuple[tuple, bool]]] = {
    "affine": lambda g: ((
        lambda x: g.a * np.asarray(x, dtype=float) + g.b,
        lambda x: np.full_like(np.asarray(x, dtype=float), g.a),
        *(_power_term(0.0, 0.0),) * 3,
    ), True),
    "power": lambda g: (_power_stack(g.p), g.p == int(g.p)),
    "cube": lambda g: (_power_stack(3.0), True),
    # x log x, log x + 1, then (-1)^k (k - 2)! x^(1 - k)
    "xlogx": lambda g: ((
        _xlogx,
        lambda x: np.log(np.asarray(x, dtype=float)) + 1.0,
        *(_power_term((-1.0) ** k * math.factorial(k - 2), 1.0 - k) for k in (2, 3, 4)),
    ), False),
}


def _parameter(text: str, descriptor: str) -> float:
    """A finite number of a phi descriptor."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"phi parameter {text!r} is not a finite number in {descriptor!r}")
    return value


@dataclass(frozen=True)
class PhiFunction:
    """Entropy generator Phi with derivatives up to fourth order.

    Kinds: ``affine`` (a*x + b), ``power`` (x^p, p in [1, 2]), ``xlogx``,
    and ``cube`` (x^3, the out-of-class negative control). ``derivatives``
    is the kind's ``FAMILIES`` stack; Phi and Psi = Phi' are built from it
    once, on the whole line for polynomial members and on [0, inf)
    otherwise, where Psi needs strictly positive spectra.
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    p: float = 2.0
    derivatives: tuple = field(init=False, repr=False, compare=False)
    _scalar: ScalarFunction = field(init=False, repr=False, compare=False)
    _psi: ScalarFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ConfigError(f"unknown phi kind {self.kind!r}")
        stack, polynomial = FAMILIES[self.kind](self)
        domain = REALS if polynomial else NONNEGATIVE
        psi = ScalarFunction(
            f"d({self.label})", *stack[1:4], domain=domain, strict_lo=not polynomial
        )
        object.__setattr__(self, "derivatives", stack)
        object.__setattr__(self, "_scalar", ScalarFunction(self.label, *stack[0:3], domain=domain))
        object.__setattr__(self, "_psi", psi)

    def __reduce__(self):
        # the stack holds closures, so a copy rebuilds it from the parameters
        return type(self), (self.kind, self.a, self.b, self.p)

    @classmethod
    def affine(cls, a: float, b: float) -> "PhiFunction":
        return cls(kind="affine", a=float(a), b=float(b))

    @classmethod
    def power(cls, p: float) -> "PhiFunction":
        if not 1.0 <= p <= 2.0:
            raise ConfigError(f"power exponent must lie in [1, 2], got {p}")
        return cls(kind="power", p=float(p))

    @classmethod
    def xlogx(cls) -> "PhiFunction":
        return cls(kind="xlogx")

    @classmethod
    def cube(cls) -> "PhiFunction":
        return cls(kind="cube")

    @classmethod
    def parse(cls, text: str) -> "PhiFunction":
        """Parse descriptors like 'power:1.5', 'xlogx', 'affine:2,1', 'cube'."""
        text = text.strip()
        if text == "xlogx":
            return cls.xlogx()
        if text in ("cube", "x3"):
            return cls.cube()
        if text.startswith("power:"):
            return cls.power(_parameter(text.split(":", 1)[1], text))
        if text.startswith("affine:"):
            parts = text.split(":", 1)[1].split(",")
            if len(parts) != 2:
                raise ConfigError(f"affine descriptor needs two parameters: {text!r}")
            return cls.affine(*(_parameter(part, text) for part in parts))
        raise ConfigError(f"unknown phi descriptor {text!r}")

    @property
    def label(self) -> str:
        if self.kind == "affine":
            return f"affine:{self.a:g},{self.b:g}"
        if self.kind == "power":
            return f"power:{self.p:g}"
        return self.kind

    @property
    def is_affine(self) -> bool:
        return self.kind == "affine" or (self.kind == "power" and self.p == 1.0)

    @property
    def in_entropy_class(self) -> bool:
        return self.kind != "cube"

    def scalar(self) -> ScalarFunction:
        """Phi itself as a ScalarFunction on its natural domain."""
        return self._scalar

    def psi(self) -> ScalarFunction:
        """Psi = Phi' with its own derivative stack."""
        return self._psi


IDENTITY = ScalarFunction(
    name="identity",
    fn=lambda x: np.asarray(x, dtype=float),
    d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
)

SQUARE = PhiFunction.power(2.0).scalar()
XLOGX = PhiFunction.xlogx()
