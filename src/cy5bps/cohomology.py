"""Rank-1 truncated cohomology ring and the powers of its generator.

Models the even cohomology of a space with a single degree-2 generator
H, where any power above ``top`` is zero.  Two rings appear in
practice: the compact hypersurface ring (top power 5, with the top
intersection number t5, the integral of ``H^5``) and the local surface
ring where ``H^3`` already vanishes (top power 2).

Every insertion the recursions take is one power of H, and the counts
are linear in each insertion, so a class is the unit class ``H^power``
alone: a caller who wants a multiple scales the count.  Curve classes
are plain positive integer degrees, under the normalization
``(H, line) = 1``.
"""

from __future__ import annotations

from .rational import Rat, exact
from .record import FrozenRecord

__all__ = [
    "RingMismatchError",
    "InsertionDegreeError",
    "Ring",
    "CohClass",
]


class RingMismatchError(ValueError):
    """An insertion belongs to another ring than the engine's geometry."""


class InsertionDegreeError(ValueError):
    """A cohomology insertion has the wrong H-power."""


class Ring(FrozenRecord):
    """Truncated polynomial ring Q[H] / (H^(top_power+1)).

    ``top_power`` is the highest surviving power of H.  ``top_integral``
    is the value of the integral of ``H^top_power`` over the space when
    the model is compact, and None for local (non-compact) models.
    A ring is immutable and compares and hashes by these two values, so
    classes built on two equal rings are interchangeable.
    """

    __slots__ = __match_args__ = ("top_power", "top_integral")

    def __init__(self, top_power: int, top_integral: Rat | None = None):
        if type(top_power) is not int or top_power < 1:
            raise ValueError(f"top_power must be an int >= 1, got {top_power!r}")
        if top_integral is not None:
            top_integral = exact(top_integral)
        if top_integral == 0:
            raise ValueError("top_integral must be nonzero (None for a local model)")
        self._freeze(top_power, top_integral)

    def H(self, power: int) -> "CohClass":
        """The class ``H^power``, for a power from 0 to ``top_power``."""
        return CohClass(self, power)

    def __repr__(self) -> str:
        t5 = "" if self.top_integral is None else f", top_integral={self.top_integral}"
        return f"Ring(top_power={self.top_power}{t5})"


class CohClass(FrozenRecord):
    """The class ``H^power`` of a rank-1 ring, built by :meth:`Ring.H`.

    The power is a plain ``int`` from 0 to the ring's top power; a bool,
    a float, a string or a power outside that range raises ValueError.
    """

    __slots__ = __match_args__ = ("ring", "power")

    def __init__(self, ring: Ring, power: int):
        if type(power) is not int:
            raise ValueError(f"power must be an int, got {power!r}")
        if not 0 <= power <= ring.top_power:
            raise ValueError(f"power must be in 0..{ring.top_power}, got {power}")
        self._freeze(ring, power)

    def __repr__(self) -> str:
        return "1" if self.power == 0 else ("H" if self.power == 1 else f"H^{self.power}")
