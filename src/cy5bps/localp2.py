"""The local surface backend: O(-1)+O(-1)+O(-1) over P^2.

This geometry has closed-form Gromov-Witten input: the 2-pointed
genus-0 invariants are (-1)^(d-1)/d and the genus-1 invariants are
(-1)^d/(8d).  The production :class:`Geometry` is built directly from
those closed forms; the torus fixed-point computations that establish
them are implemented here as independent verifiers.

The cohomology ring is that of P^2, so H^3 = 0: every H^6-type
insertion and c3 vanish identically, one-pointed base counts are
zero, and the ring has no top integral, so the engine adds no Kunneth
diagonal terms (the compactly supported duals of H^4-classes restrict
to multiples of the Euler class of the bundle, which is -H^3 = 0 on
the zero section).

The genus-1 verifier works in the 1-dimensional moduli of 1-pointed
elliptic curves, where products of the Hodge class lam and the
cotangent class psi truncate at total degree 1 and both integrate
to 1/24.

The interior cover-weight product, the largest factor of both
fixed-point formulas, is multiplied out on integer numerators over one
common denominator and normalised once, rather than once per factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cohomology import Ring
from .geometry import Geometry
from .rational import Rat
from .series import DegreeSeries, invert_multi_cover

__all__ = [
    "WeightDegeneracyError",
    "WeightTriple",
    "LinearForm",
    "localp2_geometry",
    "localization_g0",
    "localization_g1",
    "localization_g1_locus",
    "cover_factor",
    "integrate_M11",
    "random_weight_triple",
    "verify_localization",
]


class WeightDegeneracyError(ValueError):
    """A fixed-point denominator vanished for this weight triple."""


@dataclass(frozen=True)
class WeightTriple:
    """Torus weights (a, b, c) on C^3; must be pairwise distinct."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        object.__setattr__(self, "a", Rat(self.a))
        object.__setattr__(self, "b", Rat(self.b))
        object.__setattr__(self, "c", Rat(self.c))
        if self.a == self.b or self.b == self.c or self.a == self.c:
            raise WeightDegeneracyError(f"weights must be pairwise distinct: {self}")


@dataclass(frozen=True)
class LinearForm:
    """c0 + c1*lam + c2*psi with all degree >= 2 products dropped.

    The ambient moduli space is 1-dimensional, so lam^2 = lam*psi =
    psi^2 = 0; a form with nonzero constant term is invertible.
    """

    constant: object
    lambda_coeff: object = 0
    psi_coeff: object = 0

    def __post_init__(self):
        for name in ("constant", "lambda_coeff", "psi_coeff"):
            value = getattr(self, name)
            if type(value) is not Rat:
                object.__setattr__(self, name, Rat(value))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(
            self.constant + other.constant,
            self.lambda_coeff + other.lambda_coeff,
            self.psi_coeff + other.psi_coeff,
        )

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.constant, -self.lambda_coeff, -self.psi_coeff)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __mul__(self, other) -> "LinearForm":
        if not isinstance(other, LinearForm):
            s = Rat(other)
            return LinearForm(s * self.constant, s * self.lambda_coeff, s * self.psi_coeff)
        return LinearForm(
            self.constant * other.constant,
            self.constant * other.lambda_coeff + self.lambda_coeff * other.constant,
            self.constant * other.psi_coeff + self.psi_coeff * other.constant,
        )

    __rmul__ = __mul__

    def inverse(self) -> "LinearForm":
        if self.constant == 0:
            raise WeightDegeneracyError("cannot invert a form with zero constant term")
        c = self.constant
        return LinearForm(1 / c, -self.lambda_coeff / (c * c), -self.psi_coeff / (c * c))

    def __truediv__(self, other) -> "LinearForm":
        if isinstance(other, LinearForm):
            return self * other.inverse()
        return self * (1 / Rat(other))


LAMBDA = LinearForm(0, 1, 0)
PSI = LinearForm(0, 0, 1)


def integrate_M11(f: LinearForm):
    """Integrate over the 1-dimensional moduli of 1-pointed elliptic curves.

    Both lam and psi integrate to 1/24; the constant term has the
    wrong degree and integrates to 0.
    """
    return (f.lambda_coeff + f.psi_coeff) / Rat(24)


def localp2_geometry(max_degree: int) -> Geometry:
    """Geometry for O(-1)^3 over P^2 with closed-form base data."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    gw_2pt = DegreeSeries.from_function(lambda d: Rat((-1) ** (d - 1), d), max_degree)
    return Geometry(
        ring=Ring(top_power=2),
        c2=Rat(-3),
        c3=Rat(0),
        n1pt=DegreeSeries.zero(max_degree),
        n2pt=invert_multi_cover(gw_2pt, k=2),
        gw_genus1=DegreeSeries.from_function(lambda d: Rat((-1) ** d, 8 * d), max_degree),
        max_degree=max_degree,
    )


def _check_degree(d: int) -> None:
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")


def _interior_product(d: int, x, y, z):
    """prod over r=1..d-1 of (z - ((d-r)x + r y)/d), the interior cover weights.

    Over the common denominator L of x, y and z each factor is the
    integer d*Z - (d-r)*X - r*Y over d*L, so the product is one integer
    over (d*L)^(d-1), normalised once.
    """
    L = math.lcm(x.denominator, y.denominator, z.denominator)
    X = x.numerator * (L // x.denominator)
    Y = y.numerator * (L // y.denominator)
    Z = z.numerator * (L // z.denominator)
    num = 1
    for r in range(1, d):
        factor = d * Z - (d - r) * X - r * Y
        if factor == 0:
            raise WeightDegeneracyError(
                f"degenerate weights: z = ((d-r)x + ry)/d at d={d}, r={r}"
            )
        num *= factor
    return Rat(num, (d * L) ** (d - 1))


def localization_g0(d: int, w: WeightTriple):
    """Genus-0 fixed-point sum for the 2-pointed invariant of degree d.

    With insertions at the first two fixed points of P^2 only one
    fixed locus contributes: the d-fold cover of the line through
    them, branched over the two points.  Returns the exact ratio of
    bundle weights divided by the automorphism factor d; the value
    must equal (-1)^(d-1)/d independently of the weights.
    """
    _check_degree(d)
    a, b, c = w.a, w.b, w.c
    sign = Rat((-1) ** (d - 1))
    fact = math.factorial(d - 1)
    scale = fact / Rat(d) ** (d - 1)
    interior = _interior_product(d, a, b, c)

    h1_first = sign * scale * (a - b) ** (d - 1)
    h1_second = sign * scale * (b - a) ** (d - 1)
    h1_third = sign * interior
    tangent = sign * scale * scale * (a - b) ** (2 * (d - 1)) * interior
    return h1_first * h1_second * h1_third / tangent / Rat(d)


def localization_g1_locus(d: int, x, y, z):
    """Contribution of one genus-1 fixed locus: the d-fold cover of the
    line through the fixed points with weights x and y, carrying a
    contracted elliptic curve at the x-vertex (z is the third weight).

    The five tabulated weight expressions are built as linear forms in
    (lam, psi), combined, divided by the automorphism factor d, and
    integrated; the result must equal (-1)^d/(24d) * (z-x)/(z-y).
    """
    _check_degree(d)
    x, y, z = Rat(x), Rat(y), Rat(z)
    sign = Rat((-1) ** (d - 1))
    fact = math.factorial(d - 1)
    scale = fact / Rat(d) ** (d - 1)
    interior = _interior_product(d, x, y, z)
    if z == x or z == y:
        raise WeightDegeneracyError("weights must be pairwise distinct")

    h1_first = sign * scale * (x - y) ** (d - 1) * (-LAMBDA)
    h1_second = sign * scale * (y - x) ** (d - 1) * (LinearForm(x - y) - LAMBDA)
    h1_third = sign * interior * (LinearForm(x - z) - LAMBDA)
    obstruction = (LinearForm(y - x) - LAMBDA) * (LinearForm(z - x) - LAMBDA)
    tangent = (
        Rat((-1) ** d)
        * (fact * Rat(d)) ** 2
        / Rat(d) ** (2 * d - 1)
        * (x - y) ** (2 * d - 1)
        * (z - x)
        * (z - y)
        * interior
        * (LinearForm((y - x) / Rat(d)) - PSI)
    )
    ratio = h1_first * h1_second * h1_third * obstruction / tangent
    return integrate_M11(ratio / Rat(d))


def cover_factor(d: int, x, y, z):
    """The closed-form single-locus value (-1)^d/(24d) * (z-x)/(z-y)."""
    _check_degree(d)
    x, y, z = Rat(x), Rat(y), Rat(z)
    if z == y:
        raise WeightDegeneracyError("weights must be pairwise distinct")
    return Rat((-1) ** d, 24 * d) * (z - x) / (z - y)


_LOCUS_ORDER = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0))


def localization_g1(d: int, w: WeightTriple):
    """Genus-1 fixed-point sum: six loci (ordered pairs of fixed points,
    vertex at the first).  Must equal (-1)^d/(8d) for any admissible
    weights."""
    _check_degree(d)
    weights = (w.a, w.b, w.c)
    total = Rat(0)
    for i, j, k in _LOCUS_ORDER:
        total += localization_g1_locus(d, weights[i], weights[j], weights[k])
    return total


def random_weight_triple(rng: random.Random) -> WeightTriple:
    """Draw a random rational weight triple; retried by callers on degeneracy."""
    while True:
        values = [
            Rat(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)
        ]
        if len({values[0], values[1], values[2]}) == 3:
            return WeightTriple(*values)


def verify_localization(max_degree: int, seed: int = 0, triples: int = 3, max_draws: int = 200):
    """Check both fixed-point sums against the closed forms for every
    degree up to max_degree, at ``triples`` independently drawn weight
    triples each.  Degenerate draws are rejected and redrawn.

    Returns a list of per-degree dicts with the computed values and an
    overall ``ok`` flag (the per-locus values are checked against the
    closed-form cover factor, and the sum of the six locus factors is
    checked to be weight independent).  ``max_degree``, ``triples`` and
    ``max_draws`` must be at least 1, so that a run checks something and
    every degree is checked.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if triples < 1:
        raise ValueError(f"triples must be >= 1, got {triples}")
    if max_draws < 1:
        raise ValueError(f"max_draws must be >= 1, got {max_draws}")
    rng = random.Random(seed)
    results = []
    for d in range(1, max_degree + 1):
        expected_g0 = Rat((-1) ** (d - 1), d)
        expected_g1 = Rat((-1) ** d, 8 * d)
        ok = True
        g0 = g1 = None
        for _ in range(triples):
            for _attempt in range(max_draws):
                w = random_weight_triple(rng)
                try:
                    g0 = localization_g0(d, w)
                    weights = (w.a, w.b, w.c)
                    g1 = Rat(0)
                    factor_sum = Rat(0)
                    for i, j, k in _LOCUS_ORDER:
                        x, y, z = weights[i], weights[j], weights[k]
                        locus = localization_g1_locus(d, x, y, z)
                        if locus != cover_factor(d, x, y, z):
                            ok = False
                        g1 += locus
                        factor_sum += (z - x) / (z - y)
                except WeightDegeneracyError:
                    continue
                break
            else:
                raise WeightDegeneracyError(
                    f"no admissible weight triple found in {max_draws} draws at degree {d}"
                )
            if g0 != expected_g0 or g1 != expected_g1 or factor_sum != 3:
                ok = False
        results.append(
            {"degree": d, "g0": g0, "g1": g1, "expected_g0": expected_g0,
             "expected_g1": expected_g1, "ok": ok}
        )
    return results
