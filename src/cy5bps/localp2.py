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

Both fixed-point formulas and the cover factor run on integer weights:
each value is homogeneous of degree 0 in the torus weights, so a call
scales x, y and z once by their common denominator and checks them
there, and the six loci of a triple get its integer weights, scaled
once for all six.  Every factor is then an integer numerator over a power of d;
each power is raised once, the per-degree constants once per degree,
and each call normalises its whole value once, by one gcd.  The loci
(x, y, z) and (y, x, z) differ only by p = x - y -> -p and s = z - x <->
u = z - y.  One cache per line holds the line's record: the interior
product, p^(d-1) and F = (d-1)!^2 p^(2d-2), which g0 reads for its h1
factors and its tangent, and the numerator and denominator that the
line's two genus-1 loci share.  Each call still checks its weights and
its interior product, and multiplies in its own signs (and each locus
its s^2 and s*u).

What the verifier's run can catch: for admissible weights each locus
equals ``cover_factor`` identically, since the pair's shared products
reduce to 1/(24d) whatever the weights, and the six cover factors sum to
(-1)^d/(8d) identically.  So ``verify_localization``'s per-locus
comparison and its g1 sum check only this module's arithmetic.  The
fixed-point formula itself is checked against an independent symbolic
integration of the five-factor integrand
(``tests/test_localp2.py::test_locus_matches_five_factor_integrand``).
"""

from __future__ import annotations

import functools
import math
import random

from .cohomology import Ring
from .geometry import Geometry
from .rational import Rat, exact
from .record import FrozenRecord
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


class WeightTriple(FrozenRecord):
    """Torus weights (a, b, c) on C^3; must be pairwise distinct."""

    __slots__ = __match_args__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        _integer_weights(a, b, c)
        self._freeze(exact(a), exact(b), exact(c))


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


def _integer_weights(x, y, z) -> tuple[int, int, int]:
    """x, y, z scaled by their common denominator to the integers X, Y, Z:
    a call's one weight step.  Three ``int`` weights are taken as they are
    (L = 1), and ``exact`` runs only if a weight is neither that nor a
    :data:`Rat`; coincident weights raise WeightDegeneracyError."""
    if type(x) is type(y) is type(z) is int:
        X, Y, Z = x, y, z
    else:
        if not (type(x) is type(y) is type(z) is Rat):
            x, y, z = exact(x), exact(y), exact(z)
        L = math.lcm(x.denominator, y.denominator, z.denominator)
        X, Y, Z = (v.numerator * (L // v.denominator) for v in (x, y, z))
    if X == Y or Y == Z or X == Z:
        raise WeightDegeneracyError("weights must be pairwise distinct")
    return X, Y, Z


def _interior(d: int, X: int, Y: int, Z: int) -> tuple[int, int, int, int, int]:
    """The record of the line through the fixed points of weights X and Y,
    from the line's cache once no factor A + rB (B != 0) of the interior
    product vanishes; else WeightDegeneracyError."""
    A, B = d * (Z - X), X - Y
    r, rest = divmod(-A, B)
    if rest == 0 and 0 < r < d:
        raise WeightDegeneracyError(f"degenerate weights: z = ((d-r)x + ry)/d at d={d}, r={r}")
    return _line_products(d, min(X, Y), max(X, Y), Z)


@functools.lru_cache(maxsize=1)
def _per_degree(d: int) -> tuple[int, int, int, int]:
    """(-1)^(d-1), (d-1)!, (d-1)!^2 and d^(3d-3), for the 21 calls a degree."""
    fact = math.factorial(d - 1)
    return (-1) ** (d - 1), fact, fact * fact, d ** (3 * d - 3)


@functools.lru_cache(maxsize=1)
def _line_products(d: int, X: int, Y: int, Z: int) -> tuple[int, int, int, int, int]:
    """The record of the line through the fixed points of weights X < Y,
    kept as verify_localization calls g0 and the line's two loci in a row:
    the numerator I over d^(d-1) of prod over r=1..d-1 of (Z - ((d-r)X +
    rY)/d) (a swap takes r to d - r), p^(d-1) and F = (d-1)!^2 p^(2d-2) for
    p = X - Y, and the numerator and denominator that a locus shares with
    its swap (the h1 pair up to sign, I, the obstruction's p, the tangent
    without its s*u, nothing cancelled)."""
    _, _, ff, dd3 = _per_degree(d)
    i_num = math.prod(range(d * (Z - X) + X - Y, d * (Z - Y), X - Y))
    p = X - Y
    pd = p ** (d - 1)
    F = ff * pd * pd
    tangent = F * d * d * p * p * i_num
    # numerator: the tangent's denominator d^(3d-1), then the numerators of
    # the h1 factors and the obstruction; denominator: the tangent's
    # numerator, then the h1 factors' three d^(d-1) and the 24d
    return i_num, pd, F, dd3 * d * d * F * p * i_num * p, tangent * dd3 * 24 * d


def localization_g0(d: int, w: WeightTriple):
    """Genus-0 fixed-point sum for the 2-pointed invariant of degree d.

    With insertions at the first two fixed points of P^2 only one
    fixed locus contributes: the d-fold cover of the line through
    them, branched over the two points.  Returns the exact ratio of
    bundle weights divided by the automorphism factor d; the value
    must equal (-1)^(d-1)/d independently of the weights.  It reads the
    interior product, p^(d-1) and F from the line's record.
    """
    check_degree(d)
    if not isinstance(w, WeightTriple):
        raise ValueError(f"expected a WeightTriple, got {w!r}")
    sign, fact, _, dd3 = _per_degree(d)
    X, Y, Z = _integer_weights(w.a, w.b, w.c)
    i_num, pd, F, _, _ = _interior(d, X, Y, Z)
    # the h1 numerators over d^(d-1) each, (-p)^(d-1) being sign*pd; over the
    # tangent sign*F*I/d^(3d-3), and d; Rat's gcd does all the cancelling.  pd
    # enters only squared, as h1_first*h1_second, so the record's orientation
    # of p (min - max, not x - y) cannot change the value
    h1_first, h1_second, h1_third = sign * fact * pd, sign * fact * sign * pd, sign * i_num
    return Rat(dd3 * h1_first * h1_second * h1_third, sign * F * i_num * dd3 * d)


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

    Every call checks its weights and its interior product; the factors
    the swap x <-> y leaves alone come from its line's _line_products,
    and the call multiplies in its signs, s^2 and s*u.
    """
    check_degree(d)
    X, Y, Z = _integer_weights(x, y, z)
    _, _, _, num, den = _interior(d, X, Y, Z)
    s, u = Z - X, Z - Y
    # the signs of h1_first (-sign), h1_third (sign*(x - z) = -sign*s), the
    # obstruction ((y - x)(z - x) = -p*s) and the tangent (-sign*(y - x));
    # p enters squared, so the pair shares it in either orientation
    return Rat(-s * s * num, _per_degree(d)[0] * s * u * den)


def cover_factor(d: int, x, y, z):
    """The closed-form single-locus value (-1)^d/(24d) * (z-x)/(z-y), one
    :data:`Rat` on the integer weights, as (z-x)/(z-y) = (Z-X)/(Z-Y)."""
    check_degree(d)
    X, Y, Z = _integer_weights(x, y, z)
    return Rat((-1) ** d * (Z - X), 24 * d * (Z - Y))


def _loci(w: WeightTriple):
    """The six genus-1 fixed loci of w, one per ordered pair of fixed
    points, as the (x, y, z) arguments of localization_g1_locus and
    cover_factor: w's integer weights, scaled once for all six, as each
    value is homogeneous of degree 0 in the weights."""
    a, b, c = _integer_weights(w.a, w.b, w.c)
    return ((a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a))


def localization_g1(d: int, w: WeightTriple):
    """Genus-1 fixed-point sum: six loci (ordered pairs of fixed points,
    vertex at the first).  Must equal (-1)^d/(8d) for any admissible
    weights."""
    check_degree(d)
    if not isinstance(w, WeightTriple):
        raise ValueError(f"expected a WeightTriple, got {w!r}")
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

    Returns one dict per degree with the keys ``degree``, ``g0`` and
    ``g1`` (the sums at the last triple drawn) and ``ok``, false if a
    sum, or a locus value against its closed-form cover factor, missed.
    ``max_degree`` must be at least 1, so that a run checks something.
    """
    check_degree(max_degree, "max_degree")
    rng = random.Random(seed)
    results = []
    for d in range(1, max_degree + 1):
        closed_g0 = Rat((-1) ** (d - 1), d)
        closed_g1 = Rat((-1) ** d, 8 * d)
        ok = True
        g0 = g1 = None
        for _ in range(_TRIPLES):
            for _attempt in range(_MAX_DRAWS):
                w = random_weight_triple(rng)
                try:
                    g0 = localization_g0(d, w)
                    g1 = Rat(0)
                    for x, y, z in _loci(w):
                        locus = localization_g1_locus(d, x, y, z)
                        if locus != cover_factor(d, x, y, z):
                            ok = False
                        g1 += locus
                except WeightDegeneracyError:
                    continue
                break
            else:
                raise WeightDegeneracyError(
                    f"no admissible weight triple found in {_MAX_DRAWS} draws at degree {d}"
                )
            if g0 != closed_g0 or g1 != closed_g1:
                ok = False
        results.append({"degree": d, "g0": g0, "g1": g1, "ok": ok})
    return results
