"""Helpers for exact rationals and their canonical text form.

Every rational that leaves the library (CSV, JSON, table output) is printed
as ``p/q`` in lowest terms with q > 0, including integers (``-10/1``), so
reports compare bit-exactly across formats and languages.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: int | Fraction) -> str:
    """Canonical ``p/q`` form, lowest terms, q > 0, denominator always printed."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def approx(value: int | Fraction, digits: int = 4) -> str:
    """Decimal approximation for table output; never used in computation."""
    return f"{float(Fraction(value)):.{digits}g}"
