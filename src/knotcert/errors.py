"""Shared exception types."""

from __future__ import annotations


class BraidError(ValueError):
    """Malformed braid input (bad letter, strand mismatch, empty text)."""


class BudgetExceededError(RuntimeError):
    """A bounded computation ran out of its configured budget.

    Carries enough context, its spend included, to report the failure instead of guessing.
    """

    def __init__(self, message: str, *, spent: int | None = None) -> None:
        super().__init__(message if spent is None else f"{message} (spent {spent})")
        self.spent = spent
