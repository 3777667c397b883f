"""Rank-1 truncated cohomology ring and its monomial classes.

Models the even cohomology of a space with a single degree-2 generator
H, where any power above ``top`` is zero.  Two rings appear in
practice: the compact hypersurface ring (top power 5, with the top
intersection number t5, the integral of ``H^5``) and the local surface
ring where ``H^3`` already vanishes (top power 2).

Every insertion the recursions take is a scalar multiple of one power
of H, so a class is the monomial ``coeff * H^power``; a sum of nonzero
classes of different powers is rejected.  Curve classes are plain
positive integer degrees, under the normalization ``(H, line) = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rat, exact, format_rational

__all__ = [
    "RingMismatchError",
    "InsertionDegreeError",
    "Ring",
    "CohClass",
]


class RingMismatchError(ValueError):
    """Operands belong to different cohomology rings."""


class InsertionDegreeError(ValueError):
    """A cohomology insertion, or a summand, has the wrong H-power."""


@dataclass(frozen=True)
class Ring:
    """Truncated polynomial ring Q[H] / (H^(top_power+1)).

    ``top_power`` is the highest surviving power of H.  ``top_integral``
    is the value of the integral of ``H^top_power`` over the space when
    the model is compact, and None for local (non-compact) models.
    A ring is immutable and compares and hashes by these two values, so
    classes built on two equal rings are interchangeable.
    """

    top_power: int
    top_integral: Rat | None = None

    def __post_init__(self):
        if type(self.top_power) is not int or self.top_power < 1:
            raise ValueError(f"top_power must be an int >= 1, got {self.top_power!r}")
        if self.top_integral is not None:
            object.__setattr__(self, "top_integral", exact(self.top_integral))
        if self.top_integral == 0:
            raise ValueError("top_integral must be nonzero (None for a local model)")

    def zero(self) -> "CohClass":
        return CohClass(self, 0, 0)

    def monomial(self, power: int, coeff=1) -> "CohClass":
        """The class ``coeff * H^power``; the zero class when the power is
        truncated away or coeff is 0."""
        return CohClass(self, power, coeff)

    def H(self, power: int) -> "CohClass":
        return self.monomial(power)

    def __repr__(self) -> str:
        t5 = "" if self.top_integral is None else f", top_integral={self.top_integral}"
        return f"Ring(top_power={self.top_power}{t5})"


@dataclass(frozen=True)
class CohClass:
    """The monomial ``coeff * H^power`` of a rank-1 ring.

    The power must be a plain ``int`` (a bool, a float or a string raises
    ValueError).  The coefficient is stored as a :data:`Rat`; an inexact
    one (a float) raises ValueError.  The zero class is power 0 with
    coefficient 0, and a power above the ring's top power or a zero
    coefficient gives it.
    """

    ring: Ring
    power: int
    coeff: Rat

    def __post_init__(self):
        if type(self.power) is not int:
            raise ValueError(f"power must be an int, got {self.power!r}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")
        coeff = exact(self.coeff)
        if self.power > self.ring.top_power or coeff == 0:
            object.__setattr__(self, "power", 0)
            coeff = Rat(0)
        object.__setattr__(self, "coeff", coeff)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.ring != other.ring:
            raise RingMismatchError("classes belong to different rings")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.power != other.power:
            raise InsertionDegreeError(
                f"cannot add H^{self.power} and H^{other.power}: a class is one monomial"
            )
        return CohClass(self.ring, self.power, self.coeff + other.coeff)

    def __mul__(self, scalar) -> "CohClass":
        return CohClass(self.ring, self.power, self.coeff * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        mono = "1" if self.power == 0 else ("H" if self.power == 1 else f"H^{self.power}")
        return f"{format_rational(self.coeff)}*{mono}"
