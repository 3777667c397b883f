"""Rank-1 truncated cohomology ring.

Models the even cohomology of a space with a single degree-2 generator
H: a class is a coefficient vector over the powers ``H^0 .. H^top``,
and any power above ``top`` is zero.  Two rings appear in practice:
the compact hypersurface ring (top power 5, with the top intersection
number t5, the integral of ``H^5``) and the local surface ring where
``H^3`` already vanishes (top power 2).

The engine reads an insertion only as a scalar multiple of one power
of H.  Curve classes are plain positive integer degrees, under the
normalization ``(H, line) = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rat, format_rational

__all__ = [
    "RingMismatchError",
    "InsertionDegreeError",
    "Ring",
    "CohClass",
]


class RingMismatchError(ValueError):
    """Operands belong to different cohomology rings."""


class InsertionDegreeError(ValueError):
    """A cohomology insertion has the wrong (or no) homogeneous degree."""


class Ring:
    """Truncated polynomial ring Q[H] / (H^(top_power+1)).

    ``top_power`` is the highest surviving power of H.  ``top_integral``
    is the value of the integral of ``H^top_power`` over the space when
    the model is compact, and None for local (non-compact) models.
    """

    __slots__ = ("top_power", "top_integral")

    def __init__(self, top_power: int, top_integral=None):
        if top_power < 1:
            raise ValueError(f"top_power must be >= 1, got {top_power}")
        self.top_power = top_power
        self.top_integral = None if top_integral is None else Rat(top_integral)
        if self.top_integral == 0:
            raise ValueError("top_integral must be nonzero (None for a local model)")

    def zero(self) -> "CohClass":
        return CohClass(self, (Rat(0),) * (self.top_power + 1))

    def monomial(self, power: int, coeff=1) -> "CohClass":
        """The class ``coeff * H^power`` (zero if the power is truncated away)."""
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        coeffs = [Rat(0)] * (self.top_power + 1)
        if power <= self.top_power:
            coeffs[power] = Rat(coeff)
        return CohClass(self, tuple(coeffs))

    def H(self, power: int) -> "CohClass":
        return self.monomial(power)

    def __repr__(self) -> str:
        t5 = "" if self.top_integral is None else f", top_integral={self.top_integral}"
        return f"Ring(top_power={self.top_power}{t5})"


@dataclass(frozen=True)
class CohClass:
    """Element of a rank-1 ring: rational coefficients indexed by H-power."""

    ring: Ring
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.ring.top_power + 1:
            raise ValueError(
                f"expected {self.ring.top_power + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def homogeneous_power(self) -> int | None:
        """The unique power with a nonzero coefficient, or None (mixed or zero)."""
        powers = [k for k, c in enumerate(self.coefficients) if c != 0]
        return powers[0] if len(powers) == 1 else None

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.ring is not other.ring:
            raise RingMismatchError("classes belong to different rings")
        return CohClass(
            self.ring,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __mul__(self, scalar):
        return self.scaled(scalar)

    __rmul__ = __mul__

    def scaled(self, scalar) -> "CohClass":
        s = Rat(scalar)
        return CohClass(self.ring, tuple(s * a for a in self.coefficients))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.ring is other.ring and all(
            a == b for a, b in zip(self.coefficients, other.coefficients)
        )

    def __hash__(self):
        return hash((id(self.ring), tuple(self.coefficients)))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mono = "1" if k == 0 else ("H" if k == 1 else f"H^{k}")
            terms.append(f"{format_rational(c)}*{mono}")
        return " + ".join(terms) if terms else "0"
