"""Exception types shared across the package."""

from __future__ import annotations


class SupportViolation(ValueError):
    """A signal's spectrum has energy outside the declared frequency set."""


class BoundViolation(RuntimeError):
    """A measured quantity exceeded a bound that is supposed to hold."""


class SamplingBudgetExceeded(RuntimeError):
    """Rejection sampling exhausted its draw budget without an acceptance."""


class EnumerationBudgetExceeded(RuntimeError):
    """An exhaustive search would exceed the configured enumeration budget."""


class RecoveryError(RuntimeError):
    """A recovery problem is structurally unsolvable as posed."""
