"""Exact rational scalars.

Every numeric quantity in this library is an exact rational number;
no floating point appears anywhere on a computational path.  ``Rat``
is :class:`fractions.Fraction`, which keeps values in lowest terms with
a positive denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat
from numbers import Rational

__all__ = [
    "Rat", "exact", "parse_integer", "parse_rational", "format_rational", "rational_pair",
    "is_integer",
]

# ASCII digits only: no underscores, no other Unicode digits, no signed denominator
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


def exact(value) -> Rat:
    """``value`` as a :data:`Rat`, unchanged if it is one; ValueError unless it
    is a ``numbers.Rational``, so a float or a string such as "1/2" is refused."""
    if not isinstance(value, Rational):
        raise ValueError(f"expected an exact rational, got {value!r}")
    return value if isinstance(value, Rat) else Rat(value)


def parse_integer(text: str) -> int:
    """Parse an optionally signed run of ASCII digits into an int.

    Raises ValueError for anything else, including what ``int()`` would
    take: surrounding whitespace, underscores and non-ASCII digits.
    """
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


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
