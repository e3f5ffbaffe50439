"""Exception types shared across the package."""

from __future__ import annotations


class MatPhiError(Exception):
    """Base class for all library errors."""


class NotHermitian(MatPhiError):
    pass


class DomainError(MatPhiError):
    pass


class SpectrumOutOfDomain(DomainError):
    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = list(offending)


class DimensionMismatch(MatPhiError):
    pass


class InvalidExponent(MatPhiError):
    pass


class SingularSuperoperator(MatPhiError):
    def __init__(self, message, smallest_singular_value=0.0):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class NotCommuting(MatPhiError):
    def __init__(self, message, pair=None, commutator_norm=0.0):
        super().__init__(message)
        self.pair = pair
        self.commutator_norm = commutator_norm


class EnumerationTooLarge(MatPhiError):
    pass


class SeparateConvexityViolated(MatPhiError):
    pass


class NotAdmissible(MatPhiError):
    def __init__(self, message, zero_entries=()):
        super().__init__(message)
        self.zero_entries = list(zero_entries)


class InvalidC(MatPhiError):
    pass


class ConfigError(MatPhiError):
    pass
