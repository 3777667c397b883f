"""Exact rational scalars.

Every numeric quantity in this library is an exact rational number;
no floating point appears anywhere on a computational path.  ``Rat``
is :class:`fractions.Fraction`, which keeps values in lowest terms with
a positive denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat

__all__ = ["Rat", "parse_rational", "format_rational", "rational_pair", "is_integer"]

# ASCII digits only: no underscores, no other Unicode digits, no signed denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str):
    """Parse ``p/q`` or a plain integer into a :data:`Rat`.

    ``p`` is an optionally signed run of ASCII digits and ``q`` an
    unsigned, nonzero one; surrounding whitespace is ignored.  Raises
    ValueError for anything else.
    """
    match = _RATIONAL.fullmatch(text.strip())
    den = int(match[2] or 1) if match else 0
    if den == 0:
        raise ValueError(f"malformed rational {text!r}")
    return Rat(int(match[1]), den)


def format_rational(value) -> str:
    """Render as ``p/q``, or just ``p`` when the value is an integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_pair(value) -> tuple[int, int]:
    """Return ``(numerator, denominator)`` (for JSON output)."""
    return value.numerator, value.denominator


def is_integer(value) -> bool:
    return value.denominator == 1
