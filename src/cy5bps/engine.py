"""Memoized recursion engine for rational-curve configuration counts.

Thirteen count types are computed for a geometry: seven 1-component
counts (plain insertions, cotangent-class decorations up to the third
power, and the Chern number gamma1 of the 2-dimensional family of
embedded rational curves), five 2-component meeting counts (a node
insertion, a node cotangent class, or decorations on the free
component), and the 3-component meeting number.  On a rank-1 curve
cone every class is a positive integer degree, the case tables in the
degree-reducing recursions are exhaustive, and every recursive call
either lowers the total degree or moves from a multi-component count
to strictly smaller 1-component ones, so the recursion terminates.

Three layers of rules drive the computation:

* cotangent-class reduction: trading one power of the decoration for
  an extra divisor insertion, a correction with the divisor multiplied
  in, and a sum over splittings of the carrying component;
* diagonal splitting: a node-matching condition is replaced by the
  Kunneth pairs of the diagonal, with excess-intersection corrections
  (C2 for the node-on-divisor count, C1/C2/C12 for the 3-component
  count) subtracting the shared-component degenerations;
* the Chern integral: the degree-d integral of (2c2 - c1^2) over the
  family of embedded rational curves, which feeds the genus-1
  multiple-cover extraction, expands into the 1-component counts of
  c3, psi*c2 and psi^3 plus a symmetrized node-cotangent sum.

Every count is exact: a Python ``int`` when its denominator is 1 and a
:data:`Rat` otherwise.  Each (kind, degrees) key is memoized; results
extend linearly in each cohomology insertion, so the memo stores one
value per key with unit monomial insertions.

Every miss is one weighted sum of memo values, with integer weights or
small products of the geometry's scalars.  An all-``int`` sum stays on
``int`` arithmetic, so on integral geometries such as local P^2 the
whole recursion runs on ``int``.  A rational sum is carried as an
integer numerator over a running common denominator and reduced once,
when its value is stored: one normalisation per rational miss (two for
an m3 key on the diagonal d3 = d2, whose C2 is itself a sum).  n2C, n2D
and n2E all sum the same m3 row m3(d1, d2-p, p); it is read in one pass
that builds their three numerators over one denominator, and dropped
after its third use.  The recursion reads memo hits directly and calls
a public method only on a miss.

Every insertion the recursion uses is a monomial, so the geometry
enters only as the scalars c2 and c3, its two base tables, and 1/t5:
a compact ring's Kunneth diagonal pairs H^2 with H^3/t5, so each
diagonal term is one product of base-table entries divided by t5, and
a local ring has no diagonal terms.
"""

from __future__ import annotations

import sys
from math import gcd

from .cohomology import CohClass, InsertionDegreeError, RingMismatchError
from .geometry import Geometry
from .rational import Rat

__all__ = ["Engine"]


def _norm(x):
    """x as an int when its denominator is 1, else x unchanged."""
    return x.numerator if x.denominator == 1 else x


def _times(s, value):
    """The insertion scalar s times a memo value, normalised."""
    return value if s == 1 else _norm(s * value)


def _ratio(num: int, den: int):
    """The exact quotient of two ints, normalised and reduced once."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Rat(num, den) if r else q


def _weighted_sum(terms, divisor: int = 1, num: int = 0, den: int = 1):
    """(num/den + the sum of w*v over the (w, v) terms) / divisor, normalised.

    Weights and values are exact numbers; in the hot sums the weight is
    an int.  An int term is added on int arithmetic.  A rational term is
    folded in as an integer numerator over the running common
    denominator: its weight is multiplied into the numerator, and a term
    whose denominator equals the running one needs no gcd.  The result
    is reduced once.
    """
    for w, v in terms:
        if type(v) is int and type(w) is int:
            num += w * v if den == 1 else w * v * den
        else:
            n, d = w.numerator * v.numerator, w.denominator * v.denominator
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
    return _ratio(num, den * divisor)


class Engine:
    """Demand-driven evaluator of all count types for one geometry.

    Evaluation is pure given (geometry, memo): recomputing any count
    with a fresh engine yields the identical value.  Public methods
    take each insertion as a monomial ``s * H^p`` whose power p is fixed
    by the count type, scale the unit-insertion count by s, and raise
    InsertionDegreeError for any other power (the zero class is
    accepted and yields zero by linearity).

    ``memo`` maps ``(kind, *degrees)`` to the count with unit
    insertions.  Every public call validates its degrees and insertions,
    hit or miss; the recursion reads the memo directly and calls the
    public method only on a miss, so every key is stored by a public
    call with that key, and each miss stores exactly one key.  The
    interpreter's recursion limit is raised only while the outermost
    miss computes, and restored after.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.memo: dict[tuple, object] = {}
        # (d1, d2) -> [n2C, n2D, n2E row numerators, their denominator,
        # uses left] for each m3 row read but not yet used three times
        self._rows: dict[tuple[int, int], list] = {}
        # a cold top-level call at degree d nests about 5.5*d Python frames
        self._recursion_limit = 2000 + 30 * geometry.max_degree
        self._computing = False
        ring = geometry.ring
        H, H2 = ring.H(1), ring.H(2)
        # the unit insertion of each H-power, indexed by the power, and the
        # unit insertions of each kind's public method that takes any
        self._units = (None, H, H2)
        self._unit_args = {
            "n1B": (H2, H2), "n1C": (H2,), "n1D": (H, H2), "n1E": (H,), "n1F": (H2,),
            "n2A": (H2,), "n2B": (H,), "n2D": (H,),
        }

        # a zero c2 skips the counts it multiplies, as a zero insertion does
        self._c2 = _norm(geometry.c2)
        self._c3 = _norm(geometry.c3)
        # base tables indexed by degree (entry 0 unused), and their 1/t5
        # multiples for the diagonal terms (None when there is no diagonal)
        degrees = range(1, geometry.max_degree + 1)
        self._n1pt = [0] + [_norm(geometry.n1pt[d]) for d in degrees]
        self._n2pt = [0] + [_norm(geometry.n2pt[d]) for d in degrees]
        t5 = ring.top_integral
        if t5 is None:
            self._n1pt_t5 = self._n2pt_t5 = None
        else:
            self._n1pt_t5 = [0] + [_norm(self._n1pt[d] / t5) for d in degrees]
            self._n2pt_t5 = [0] + [_norm(self._n2pt[d] / t5) for d in degrees]

    # -- validation and the memo -------------------------------------------

    def _scale(self, mu: CohClass, power: int):
        """Scalar s with mu = s * H^power; 0 for the zero class."""
        if mu is self._units[power]:
            return 1
        if not isinstance(mu, CohClass):
            raise InsertionDegreeError(f"insertion must be a CohClass, got {mu!r}")
        if mu.ring != self.geometry.ring:
            raise RingMismatchError("insertion belongs to a different ring")
        if mu.is_zero():
            return 0
        if mu.power != power:
            raise InsertionDegreeError(
                f"insertion must be a multiple of H^{power}, got H^{mu.power}"
            )
        return _norm(mu.coeff)

    def _degrees(self, *betas) -> tuple[int, ...]:
        for beta in betas:
            if type(beta) is not int or beta < 1:
                raise ValueError(f"curve degree must be a positive integer, got {beta!r}")
        total = sum(betas)
        if total > self.geometry.max_degree:
            raise ValueError(
                f"total degree {total} exceeds geometry max_degree "
                f"{self.geometry.max_degree}"
            )
        return betas

    def _count(self, kind: str, compute, betas: tuple, *insertions):
        """Answer a public call: validate the degrees and the (mu, power)
        insertions, then scale the unit value, computing and storing it
        on a miss unless an insertion is zero."""
        self._degrees(*betas)
        s = 1
        for mu, power in insertions:
            s *= self._scale(mu, power)
        if s == 0:
            return 0
        key = (kind, *betas)
        value = self.memo.get(key)
        if value is None:
            if self._computing:
                value = compute(*betas)
            else:
                # the outermost miss raises the limit for the whole recursion
                # and gives the caller back its own
                limit = sys.getrecursionlimit()
                sys.setrecursionlimit(max(limit, self._recursion_limit))
                self._computing = True
                try:
                    value = compute(*betas)
                finally:
                    self._computing = False
                    sys.setrecursionlimit(limit)
            self.memo[key] = value
        return _times(s, value)

    def _get(self, key: tuple):
        """The unit-insertion value at a memo key the recursion reads: from
        the memo, or on a miss from the public method with unit insertions,
        which validates the key and stores the value."""
        value = self.memo.get(key)
        if value is None:
            kind = key[0]
            value = getattr(self, kind)(*key[1:], *self._unit_args.get(kind, ()))
        return value

    # -- public counts -----------------------------------------------------

    def n1B(self, beta, mu1: CohClass, mu2: CohClass):
        """Curves of class beta through two H^4 insertions (base count)."""
        return self._count("n1B", self._c_n1B, (beta,), (mu1, 2), (mu2, 2))

    def n1C(self, beta, mu: CohClass):
        """1-component count with one cotangent power on an H^4 insertion."""
        return self._count("n1C", self._c_n1C, (beta,), (mu, 2))

    def n1D(self, beta, mu1: CohClass, mu2: CohClass):
        """Cotangent power on an H^2 insertion, plus a free H^4 insertion."""
        return self._count("n1D", self._c_n1D, (beta,), (mu1, 1), (mu2, 2))

    def n1E(self, beta, mu: CohClass):
        """Second cotangent power on an H^2 insertion."""
        return self._count("n1E", self._c_n1E, (beta,), (mu, 1))

    def n1F(self, beta, mu: CohClass):
        """Second cotangent power at one point, H^4 insertion at another."""
        return self._count("n1F", self._c_n1F, (beta,), (mu, 2))

    def n1G(self, beta):
        """Third cotangent power, no insertions."""
        return self._count("n1G", self._c_n1G, (beta,))

    def gamma1(self, beta):
        """Chern number of the 2-dimensional family of beta-curves:
        the integral of c1^2 - c2 of the family."""
        return self._count("gamma1", self._c_gamma1, (beta,))

    def n2A(self, beta1, beta2, mu: CohClass):
        """2-component curves with an H^4 insertion on the second component."""
        return self._count("n2A", self._c_n2A, (beta1, beta2), (mu, 2))

    def n2B(self, beta1, beta2, mu: CohClass):
        """2-component curves with the node on an H^2 divisor."""
        return self._count("n2B", self._c_n2B, (beta1, beta2), (mu, 1))

    def n2C(self, beta1, beta2):
        """2-component curves with a cotangent class at the node, taken on
        the second-component side."""
        return self._count("n2C", self._c_n2C, (beta1, beta2))

    def n2D(self, beta1, beta2, mu: CohClass):
        """2-component curves, cotangent power on an H^2 insertion carried
        by the second component."""
        return self._count("n2D", self._c_n2D, (beta1, beta2), (mu, 1))

    def n2E(self, beta1, beta2):
        """2-component curves with a second cotangent power on the second
        component."""
        return self._count("n2E", self._c_n2E, (beta1, beta2))

    def gamma2(self, beta1, beta2):
        """Chern-type combination for 2-component configurations; appears in
        the excess corrections of the diagonal-splitting recursions."""
        return self._count("gamma2", self._c_gamma2, (beta1, beta2))

    def correction_C2(self, beta1, beta2, mu: CohClass):
        """Excess correction for the node-on-divisor count."""
        d1, d2 = self._degrees(beta1, beta2)
        s = self._scale(mu, 1)
        return _times(s, _weighted_sum(self._corr2(d1, d2), 2)) if s != 0 else 0

    def correction_C3(self, beta1, beta2, beta3):
        """The three excess corrections (C1, C2, C12) for the 3-component
        meeting number, with their defining signs included."""
        d1, d2, d3 = self._degrees(beta1, beta2, beta3)
        x1, x2, x3, x4 = self._corr3(d1, d2, d3)
        return x1, _weighted_sum(((-1, x2), (-1, x3))), -x4

    def m3(self, beta1, beta2, beta3):
        """Chains of three rational curves with consecutive components
        meeting at nodes."""
        return self._count("m3", self._c_m3, (beta1, beta2, beta3))

    def chern_integral(self, beta):
        """Integral of 2c2 - c1^2 over the family of embedded beta-curves:
        the genus-1 multiple-cover weight of the family."""
        return self._count("chern", self._c_chern, (beta,))

    # -- canonical computations (unit monomial insertions) ------------------
    #
    # Each returns the weighted sum of its (weight, value) terms.

    def _c_n1B(self, d: int):
        return self._n2pt[d]

    def _c_n1C(self, d: int):
        get = self._get
        terms = [(1, get(("n1B", d))), (-2 * d, self._n1pt[d])]
        terms += [(a * a, get(("n2A", a, d - a))) for a in range(1, d)]
        return _weighted_sum(terms, d * d)

    def _c_n1D(self, d: int):
        get = self._get
        # d * n1B - 2d * n1B: the second term's insertions are H*H and H^2
        terms = [(-d, get(("n1B", d)))]
        terms += [
            (a * (d - a) ** 2 + (d - a) * a * a, get(("n2A", a, d - a)))
            for a in range(1, d)
        ]
        return _weighted_sum(terms, d * d)

    def _c_n1E(self, d: int):
        get = self._get
        terms = [(1, get(("n1D", d))), (-2 * d, get(("n1C", d)))]
        for a in range(1, d):
            terms += ((a * a, get(("n2D", a, d - a))), (a * a, get(("n2B", a, d - a))))
        return _weighted_sum(terms, d * d)

    def _c_n1F(self, d: int):
        return _weighted_sum((-1, self._get(("n2A", a, d - a))) for a in range(1, d))

    def _c_n1G(self, d: int):
        get = self._get
        terms = [(1, get(("n1F", d))), (-2 * d, get(("n1E", d)))]
        for a in range(1, d):
            terms += ((a * a, get(("n2E", a, d - a))), (a * a, get(("n2C", a, d - a))))
        return _weighted_sum(terms, d * d)

    def _c_gamma1(self, d: int):
        # twice the count, so that its halves stay integral until one division
        get, c2 = self._get, self._c2
        terms = [(self._c3, self._n1pt[d]), (1, get(("n1G", d)))]
        if c2:
            terms += [(c2, get(("n1C", d))), (c2 * c2, get(("n1B", d))), (4 * c2, get(("n1F", d)))]
        for a in range(1, d):
            terms += ((-4, get(("n2E", a, d - a))), (-5, get(("n2C", a, d - a))))
        return _weighted_sum(terms, 2)

    def _c_n2A(self, d1: int, d2: int):
        get = self._get
        terms = [] if self._n2pt_t5 is None else [(self._n1pt[d1], self._n2pt_t5[d2])]
        if d2 > d1:
            terms += [(1, get(("n2A", d1, d2 - d1))), (1, get(("n2A", d2 - d1, d1)))]
        elif d2 < d1:
            terms.append((1, get(("n2A", d1 - d2, d2))))
        else:
            if self._c2:
                terms.append((self._c2, get(("n1B", d1))))
            terms.append((2, get(("n1F", d1))))
        return _weighted_sum(terms)

    def _c_n2B(self, d1: int, d2: int):
        # base - sum - C2 as (2 C2 + 2 sum - 2 base) / -2, since the
        # correction's terms are those of 2 C2
        get = self._get
        terms = [(2 * c, get(("m3", d1 - c, c, d2 - c))) for c in range(1, min(d1, d2))]
        terms += self._corr2(d1, d2)
        if self._n1pt_t5 is not None:
            terms.append((-2 * self._n1pt[d1], self._n1pt_t5[d2]))
        return _weighted_sum(terms, -2)

    def _corr2(self, d1: int, d2: int):
        """The terms of twice the correction C2 with mu = H (linear in mu
        like everything else); C2 is symmetric in its degrees."""
        get = self._get
        if d2 < d1:
            d1, d2 = d2, d1
        if d2 > d1:
            gap = d2 - d1
            terms = [
                (2, get(("n2D", gap, d1))), (2, get(("n2B", gap, d1))),
                (2 * d1, get(("gamma2", gap, d1))),
            ]
            terms += [(d1, get(("m3", p, d1, gap - p))) for p in range(1, gap)]
            return terms
        # the 1-pointed count against c2*H, which is c2 * n1pt[d1], and
        # n1D(d1, H, c2): both linear in c2
        c2 = self._c2
        terms = [(2, get(("n1E", d1))), (2 * d1, get(("gamma1", d1)))]
        if c2:
            terms += [(2 * c2, self._n1pt[d1]), (2 * c2, get(("n1D", d1)))]
        for p in range(1, d2):
            terms += ((-4, get(("n2D", p, d2 - p))), (-5, get(("n2B", p, d2 - p))))
        return terms

    def _row(self, d1: int, d2: int):
        """The m3 row m3(d1, d2 - p, p), p = 1..d2-1, summed in one pass with
        the weights of n2C (p^2), n2D (p(d2-p)^2 + (d2-p)p^2 = d2 p (d2-p))
        and n2E (1): ``[num_C, num_D, num_E, den, uses left]``, three
        numerators over one denominator.  Each of n2C, n2D and n2E uses
        it once; the row is dropped after the third use."""
        row = self._rows.get((d1, d2))
        if row is None:
            memo, m3 = self.memo, self.m3
            num_c = num_d = num_e = 0
            den = 1
            for p in range(1, d2):
                q = d2 - p
                v = memo.get(("m3", d1, q, p))
                if v is None:
                    v = m3(d1, q, p)
                if type(v) is int:
                    if den != 1:
                        v *= den
                else:
                    d, v = v.denominator, v.numerator
                    if d != den:
                        g = gcd(den, d)
                        scale = d // g
                        if scale != 1:
                            num_c, num_d, num_e = num_c * scale, num_d * scale, num_e * scale
                            den *= scale
                        v *= den // d
                num_c += p * p * v
                num_d += p * q * v
                num_e += v
            row = self._rows[(d1, d2)] = [num_c, d2 * num_d, num_e, den, 3]
        row[4] -= 1
        if not row[4]:
            del self._rows[(d1, d2)]
        return row

    def _c_n2C(self, d1: int, d2: int):
        get = self._get
        terms = ((1, get(("n2A", d1, d2))), (-2 * d2, get(("n2B", d1, d2))))
        row = self._row(d1, d2)
        return _weighted_sum(terms, d2 * d2, row[0], row[3])

    def _c_n2D(self, d1: int, d2: int):
        # the cotangent reduction on the second component pairs the divisor
        # with that component's class, hence d2 * n2A; the second term,
        # -2 d2 * n2A, has the insertion H*H
        n2A = self._get(("n2A", d1, d2))
        row = self._row(d1, d2)
        return _weighted_sum(((-d2, n2A),), d2 * d2, row[1], row[3])

    def _c_n2E(self, d1: int, d2: int):
        row = self._row(d1, d2)
        return _ratio(-row[2], row[3])

    def _c_gamma2(self, d1: int, d2: int):
        get = self._get
        terms = [(self._c2, get(("n2A", d1, d2)))] if self._c2 else []
        terms += [(2, get(("n2E", d1, d2))), (1, get(("n2C", d1, d2))), (1, get(("n2C", d2, d1)))]
        return _weighted_sum(terms)

    def _corr3(self, d1: int, d2: int, d3: int):
        """The corrections as ``(x1, x2, x3, x4)``: C1 = x1,
        C2 = -(x2 + x3) and C12 = -x4, where x3 and x4 may be 0."""
        get = self._get
        if d3 > d1:
            x1 = get(("m3", d3 - d1, d1, d2))
        elif d3 < d1:
            x1 = get(("m3", d1 - d3, d3, d2))
        else:
            x1 = get(("gamma2", d2, d1))

        x3 = 0
        if d3 > d2:
            x2 = get(("m3", d1, d2, d3 - d2))
        elif d3 < d2:
            x2, x3 = get(("m3", d1, d3, d2 - d3)), get(("m3", d1, d2 - d3, d3))
        else:
            # n2A(d1, d2, c2) + 2 n2E(d1, d2): on this diagonal, one
            # normalisation more than elsewhere
            terms = [(self._c2, get(("n2A", d1, d2)))] if self._c2 else []
            x2 = _weighted_sum(terms + [(2, get(("n2E", d1, d2)))])

        if d3 > d1 + d2:
            x4 = get(("m3", d3 - d1 - d2, d1, d2))
        elif d2 < d3 < d1 + d2:
            x4 = get(("m3", d1 + d2 - d3, d3 - d2, d2))
        elif d3 == d1 + d2:
            x4 = get(("gamma2", d2, d1))
        else:
            x4 = 0
        return x1, x2, x3, x4

    def _c_m3(self, d1: int, d2: int, d3: int):
        # on a compact ring n2A is evaluated even where n1pt[d3] is zero, so
        # that the memo holds the same keys whatever the base data; the
        # base term n2A * n1pt[d3] / t5 enters as a raw numerator and
        # denominator
        if self._n1pt_t5 is None:
            num, den = 0, 1
        else:
            a, t = self._get(("n2A", d1, d2)), self._n1pt_t5[d3]
            num, den = a.numerator * t.numerator, a.denominator * t.denominator
        # base - C1 - C2 - C12
        x1, x2, x3, x4 = self._corr3(d1, d2, d3)
        if den == 1 and type(x1) is type(x2) is type(x3) is type(x4) is int:
            return num - x1 + x2 + x3 + x4
        return _weighted_sum(((-1, x1), (1, x2), (1, x3), (1, x4)), 1, num, den)

    def _c_chern(self, d: int):
        # twice the integral, halved once at the end
        get, c2 = self._get, self._c2
        terms = [(-2, get(("n1G", d))), (-2 * self._c3, self._n1pt[d])]
        if c2:
            terms.append((-2 * c2, get(("n1C", d))))
        for a in range(1, d):
            terms += ((1, get(("n2C", a, d - a))), (1, get(("n2C", d - a, a))))
        return _weighted_sum(terms, 2)
