"""Scalar entropy generators and their derivative stacks.

The entropy class used throughout consists of affine functions, powers
x^p with p in [1, 2], and x log x. The cube x^3 is carried as a built-in
negative control: it is convex but sits outside the class, so the
characterization checkers are expected to find violations for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import (
    NONNEGATIVE,
    REALS,
    SpectralInterval,
    apply_standard_function,
)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with derivative evaluators, applicable to
    Hermitian matrices through the spectral calculus.

    ``strict_lo`` marks functions that blow up at the lower endpoint
    (e.g. log-like derivatives), which then require strictly positive
    spectra.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    domain: SpectralInterval = field(default=REALS)
    strict_lo: bool = False

    def admit(self, w: np.ndarray) -> np.ndarray:
        try:
            w = self.domain.admit(w)
        except Exception as exc:
            raise DomainError(f"{self.name}: {exc}") from exc
        if self.strict_lo and np.any(w <= self.domain.lo):
            raise DomainError(
                f"{self.name} requires eigenvalues strictly above {self.domain.lo}"
            )
        return w

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
    and ``cube`` (x^3, the out-of-class negative control).
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    p: float = 2.0

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

    def _derivative_fn(self, order: int) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "affine":
            if order == 0:
                return lambda x: self.a * np.asarray(x, dtype=float) + self.b
            if order == 1:
                return lambda x: np.full_like(np.asarray(x, dtype=float), self.a)
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if self.kind in ("power", "cube"):
            p = 3.0 if self.kind == "cube" else self.p
            coeff = 1.0
            for j in range(order):
                coeff *= p - j
            return _power_term(coeff, p - order)
        if self.kind == "xlogx":
            if order == 0:
                return _xlogx
            if order == 1:
                return lambda x: np.log(np.asarray(x, dtype=float)) + 1.0
            sign = 1.0 if order % 2 == 0 else -1.0
            coeff = sign * float(math.factorial(order - 2))
            return _power_term(coeff, float(1 - order))
        raise ConfigError(f"unknown phi kind {self.kind!r}")

    def d1(self, x):
        return self._derivative_fn(1)(x)

    def d2(self, x):
        return self._derivative_fn(2)(x)

    def d3(self, x):
        return self._derivative_fn(3)(x)

    def d4(self, x):
        return self._derivative_fn(4)(x)

    @property
    def _polynomial(self) -> bool:
        return (
            self.kind in ("affine", "cube")
            or (self.kind == "power" and self.p == int(self.p))
        )

    def scalar(self) -> ScalarFunction:
        """Phi itself as a ScalarFunction on its natural domain
        (polynomial members act on the whole line)."""
        domain = REALS if self._polynomial else NONNEGATIVE
        return ScalarFunction(
            name=self.label,
            fn=self._derivative_fn(0),
            d1=self._derivative_fn(1),
            d2=self._derivative_fn(2),
            domain=domain,
        )

    def psi(self) -> ScalarFunction:
        """Psi = Phi' with its own derivative stack.

        For the non-polynomial members the derivatives of Psi are singular
        at 0, so strictly positive spectra are required.
        """
        if self._polynomial:
            domain, strict = REALS, False
        else:
            domain, strict = NONNEGATIVE, True
        return ScalarFunction(
            name=f"d({self.label})",
            fn=self._derivative_fn(1),
            d1=self._derivative_fn(2),
            d2=self._derivative_fn(3),
            domain=domain,
            strict_lo=strict,
        )


IDENTITY = ScalarFunction(
    name="identity",
    fn=lambda x: np.asarray(x, dtype=float),
    d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
)

SQUARE = PhiFunction.power(2.0).scalar()
