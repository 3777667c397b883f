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

The genus-1 verifier integrates over the 1-dimensional moduli of
1-pointed elliptic curves, where the Hodge class lam is nilpotent
(lam^2 = lam*psi = 0) and integrates to 1/24.  Each fixed locus's
integrand has a factor that is a pure multiple of lam, so every other
factor contributes only its constant term, and the integral is one
exact scalar product.

Both fixed-point formulas are evaluated fraction-free: every factor,
the interior cover-weight product (the largest, entering twice) among
them, is an integer numerator over an integer denominator built from
the weight differences and (d-1)!, the numerators and denominators are
multiplied out separately, and each call normalises its whole value
once, by one gcd, rather than once per factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cohomology import Ring
from .geometry import Geometry
from .rational import Rat, exact
from .series import DegreeSeries, check_degree, invert_multi_cover

__all__ = [
    "WeightDegeneracyError",
    "WeightTriple",
    "localp2_geometry",
    "localization_g0",
    "localization_g1",
    "localization_g1_locus",
    "cover_factor",
    "random_weight_triple",
    "verify_localization",
]


class WeightDegeneracyError(ValueError):
    """A fixed-point denominator vanished for this weight triple."""


def _distinct_weights(x, y, z):
    """x, y, z as exact rationals; coincident weights leave no isolated fixed locus."""
    x, y, z = exact(x), exact(y), exact(z)
    if x == y or y == z or x == z:
        raise WeightDegeneracyError("weights must be pairwise distinct")
    return x, y, z


@dataclass(frozen=True)
class WeightTriple:
    """Torus weights (a, b, c) on C^3; must be pairwise distinct."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        for name, value in zip("abc", _distinct_weights(self.a, self.b, self.c)):
            object.__setattr__(self, name, value)


def localp2_geometry(max_degree: int) -> Geometry:
    """Geometry for O(-1)^3 over P^2 with closed-form base data."""
    check_degree(max_degree, "max_degree")
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


def _interior_parts(d: int, x, y, z) -> tuple[int, int]:
    """prod over r=1..d-1 of (z - ((d-r)x + r y)/d), the interior cover
    weights, as an integer pair (numerator, denominator), not reduced.

    Over the common denominator L of x, y and z each factor is the
    integer d*Z - (d-r)*X - r*Y over d*L, so the product is one integer
    over (d*L)^(d-1).
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
    return num, (d * L) ** (d - 1)


def _quotient(factors, divisor) -> Rat:
    """The product of the integer (numerator, denominator) pairs in
    factors, divided by the pair divisor, as one :data:`Rat`: the only
    normalisation, so the gcd does all the cancelling."""
    den, num = divisor
    for n, m in factors:
        num *= n
        den *= m
    return Rat(num, den)


def localization_g0(d: int, w: WeightTriple):
    """Genus-0 fixed-point sum for the 2-pointed invariant of degree d.

    With insertions at the first two fixed points of P^2 only one
    fixed locus contributes: the d-fold cover of the line through
    them, branched over the two points.  Returns the exact ratio of
    bundle weights divided by the automorphism factor d; the value
    must equal (-1)^(d-1)/d independently of the weights.
    """
    check_degree(d)
    a, b, c = w.a, w.b, w.c
    sign = (-1) ** (d - 1)
    fact = math.factorial(d - 1)
    i_num, i_den = _interior_parts(d, a, b, c)
    p, q = (a - b).as_integer_ratio()

    # each factor as an integer (numerator, denominator) pair, with
    # scale = (d-1)!/d^(d-1) and a - b = p/q
    h1_first = (sign * fact * p ** (d - 1), d ** (d - 1) * q ** (d - 1))
    h1_second = (sign * fact * (-p) ** (d - 1), d ** (d - 1) * q ** (d - 1))
    h1_third = (sign * i_num, i_den)
    tangent = (
        sign * fact * fact * p ** (2 * (d - 1)) * i_num,
        d ** (2 * (d - 1)) * q ** (2 * (d - 1)) * i_den,
    )
    return _quotient((h1_first, h1_second, h1_third, (1, d)), tangent)


def localization_g1_locus(d: int, x, y, z):
    """Contribution of one genus-1 fixed locus: the d-fold cover of the
    line through the fixed points with weights x and y, carrying a
    contracted elliptic curve at the x-vertex (z is the third weight).

    The integrand is five tabulated weight expressions, each a constant
    plus multiples of lam and psi.  The first, h1_first, is a multiple
    of lam with no constant term, and lam^2 = lam*psi = 0 on the moduli
    of 1-pointed elliptic curves, so the integrand is that multiple of
    lam times the ratio of the other four constant terms.  Divided by
    the automorphism factor d and integrated (lam integrates to 1/24),
    the result must equal (-1)^d/(24d) * (z-x)/(z-y).
    """
    check_degree(d)
    x, y, z = _distinct_weights(x, y, z)
    sign = (-1) ** (d - 1)
    fact = math.factorial(d - 1)
    i_num, i_den = _interior_parts(d, x, y, z)
    p, q = (x - y).as_integer_ratio()
    s, t = (z - x).as_integer_ratio()
    u, v = (z - y).as_integer_ratio()

    # the lam coefficient of h1_first, then the constant terms of the rest,
    # each an integer (numerator, denominator) pair; x - z = -s/t and
    # y - x = -p/q
    h1_first = (-sign * fact * p ** (d - 1), d ** (d - 1) * q ** (d - 1))
    h1_second = (sign * fact * (-p) ** (d - 1) * p, d ** (d - 1) * q ** (d - 1) * q)
    h1_third = (sign * i_num * -s, i_den * t)
    obstruction = (-p * s, q * t)
    tangent = (
        (-1) ** d * (fact * d) ** 2 * p ** (2 * d - 1) * s * u * i_num * -p,
        d ** (2 * d - 1) * q ** (2 * d - 1) * t * v * i_den * d * q,
    )
    return _quotient((h1_first, h1_second, h1_third, obstruction, (1, 24 * d)), tangent)


def cover_factor(d: int, x, y, z):
    """The closed-form single-locus value (-1)^d/(24d) * (z-x)/(z-y)."""
    check_degree(d)
    x, y, z = _distinct_weights(x, y, z)
    return Rat((-1) ** d, 24 * d) * (z - x) / (z - y)


def _loci(w: WeightTriple):
    """The six genus-1 fixed loci of w, one per ordered pair of fixed
    points, as the (x, y, z) arguments of localization_g1_locus."""
    a, b, c = w.a, w.b, w.c
    return ((a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a))


def localization_g1(d: int, w: WeightTriple):
    """Genus-1 fixed-point sum: six loci (ordered pairs of fixed points,
    vertex at the first).  Must equal (-1)^d/(8d) for any admissible
    weights."""
    check_degree(d)
    return sum((localization_g1_locus(d, x, y, z) for x, y, z in _loci(w)), Rat(0))


def random_weight_triple(rng: random.Random) -> WeightTriple:
    """Draw a random weight triple of distinct rationals; retried by callers on degeneracy."""
    while True:
        try:
            return WeightTriple(*(Rat(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)))
        except WeightDegeneracyError:
            pass


# weight triples drawn per degree, and draws allowed per triple before giving up
_TRIPLES = 3
_MAX_DRAWS = 200


def verify_localization(max_degree: int, seed: int = 0):
    """Check both fixed-point sums against the closed forms for every
    degree up to max_degree, at 3 independently drawn weight triples
    each.  Degenerate draws are rejected and redrawn.

    Returns a list of per-degree dicts with the computed values and an
    overall ``ok`` flag (the per-locus values are checked against the
    closed-form cover factor, and the sum of the six locus factors is
    checked to be weight independent).  ``max_degree`` must be at
    least 1, so that a run checks something.
    """
    check_degree(max_degree, "max_degree")
    rng = random.Random(seed)
    results = []
    for d in range(1, max_degree + 1):
        expected_g0 = Rat((-1) ** (d - 1), d)
        expected_g1 = Rat((-1) ** d, 8 * d)
        ok = True
        g0 = g1 = None
        for _ in range(_TRIPLES):
            for _attempt in range(_MAX_DRAWS):
                w = random_weight_triple(rng)
                try:
                    g0 = localization_g0(d, w)
                    g1 = Rat(0)
                    factor_sum = Rat(0)
                    for x, y, z in _loci(w):
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
                    f"no admissible weight triple found in {_MAX_DRAWS} draws at degree {d}"
                )
            if g0 != expected_g0 or g1 != expected_g1 or factor_sum != 3:
                ok = False
        results.append(
            {"degree": d, "g0": g0, "g1": g1, "expected_g0": expected_g0,
             "expected_g1": expected_g1, "ok": ok}
        )
    return results
