"""Boundary argument validation helpers.

These raise ``ValueError``/``TypeError`` with uniform messages.  They
are used at public-API boundaries only; inner loops assume validated
inputs (validation inside a per-pass loop would show up in profiles).
"""

from __future__ import annotations

import numbers


def check_positive(name: str, value, *, strict: bool = True) -> None:
    """Require ``value`` to be a positive (or non-negative) real number.

    Parameters
    ----------
    name:
        Argument name used in the error message.
    value:
        The value to check.
    strict:
        When true (default) require ``value > 0``; otherwise allow 0.
        NaN is rejected either way.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value) -> None:
    """Require ``value`` in the closed interval [0, 1]."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_fraction(name: str, value) -> None:
    """Require ``value`` in the half-open interval (0, 1]."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")


def check_threshold(name: str, value) -> None:
    """Require a convergence threshold: a strictly positive float < 1.

    The paper evaluates thresholds between 0.2 and 1e-7; anything >= 1
    would declare convergence immediately and is almost certainly a
    caller bug, so it is rejected loudly.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
