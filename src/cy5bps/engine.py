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
:data:`Rat` otherwise.  Values are normalised to that form where they
enter (memo entries, base-table values, insertion coefficients), and
every division is exact, so on integral geometries such as local P^2
the whole recursion runs on ``int``.  Each (kind, degrees) key is
memoized; results extend linearly in each cohomology insertion, so the
memo stores one value per key with unit monomial insertions.

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


def _div(num, den: int):
    """The exact quotient num / den, normalised."""
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return _norm(Rat(num) / den)


def _times(s, value):
    """The insertion scalar s times a memo value, normalised."""
    return value if s == 1 else _norm(s * value)


def _exact_sum(terms):
    """sum(terms), normalised.  Rational terms are added over a running
    common denominator and reduced once, instead of once per addition."""
    terms = iter(terms)
    first = next(terms, 0)
    if type(first) is int:
        return _norm(sum(terms, first))
    num, den = first.numerator, first.denominator
    for t in terms:
        d = t.denominator
        g = gcd(den, d)
        num = num * (d // g) + t.numerator * (den // g)
        den = den // g * d
    return _norm(Rat(num, den))


class Engine:
    """Demand-driven evaluator of all count types for one geometry.

    Evaluation is pure given (geometry, memo): recomputing any count
    with a fresh engine yields the identical value.  Public methods
    take each insertion as a monomial ``s * H^p`` whose power p is fixed
    by the count type, scale the unit-insertion count by s, and raise
    InsertionDegreeError for any other power (the zero class is
    accepted and yields zero by linearity).

    ``memo`` maps ``(kind, *degrees)`` to the count with unit
    insertions.  A key is stored only after its degrees were
    validated, so a memo hit returns without checking them again;
    each miss stores exactly one key.  The interpreter's recursion limit
    is raised only while the outermost miss computes, and restored after.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.memo: dict[tuple, object] = {}
        # a cold top-level call at degree d nests roughly 4*d Python frames
        self._recursion_limit = 2000 + 30 * geometry.max_degree
        self._computing = False
        ring = geometry.ring
        H = self._H = ring.H(1)
        H2 = self._H2 = ring.H(2)
        # the unit insertion of each H-power, indexed by the power
        self._units = (None, H, H2)

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

    # -- insertion handling ------------------------------------------------

    def _scale(self, mu: CohClass, power: int):
        """Scalar s with mu = s * H^power; 0 for the zero class."""
        if mu is self._units[power]:
            return 1
        if not isinstance(mu, CohClass):
            raise InsertionDegreeError(f"insertion must be a CohClass, got {mu!r}")
        if mu.ring is not self.geometry.ring:
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
            if not isinstance(beta, int) or beta < 1:
                raise ValueError(f"curve degree must be a positive integer, got {beta!r}")
        total = sum(betas)
        if total > self.geometry.max_degree:
            raise ValueError(
                f"total degree {total} exceeds geometry max_degree "
                f"{self.geometry.max_degree}"
            )
        return betas

    def _miss(self, kind: str, compute, betas: tuple, *insertions):
        """Answer a call whose key is not in the memo: validate the degrees
        and the (mu, power) insertions, then compute and store the unit
        value unless an insertion is zero."""
        self._degrees(*betas)
        s = 1
        for mu, power in insertions:
            s *= self._scale(mu, power)
        if s == 0:
            return 0
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
        value = self.memo[(kind, *betas)] = _norm(value)
        return _times(s, value)

    # -- public counts -----------------------------------------------------

    def n1B(self, beta, mu1: CohClass, mu2: CohClass):
        """Curves of class beta through two H^4 insertions (base count)."""
        value = self.memo.get(("n1B", beta))
        if value is None:
            return self._miss("n1B", self._c_n1B, (beta,), (mu1, 2), (mu2, 2))
        return _times(self._scale(mu1, 2) * self._scale(mu2, 2), value)

    def n1C(self, beta, mu: CohClass):
        """1-component count with one cotangent power on an H^4 insertion."""
        value = self.memo.get(("n1C", beta))
        if value is None:
            return self._miss("n1C", self._c_n1C, (beta,), (mu, 2))
        return _times(self._scale(mu, 2), value)

    def n1D(self, beta, mu1: CohClass, mu2: CohClass):
        """Cotangent power on an H^2 insertion, plus a free H^4 insertion."""
        value = self.memo.get(("n1D", beta))
        if value is None:
            return self._miss("n1D", self._c_n1D, (beta,), (mu1, 1), (mu2, 2))
        return _times(self._scale(mu1, 1) * self._scale(mu2, 2), value)

    def n1E(self, beta, mu: CohClass):
        """Second cotangent power on an H^2 insertion."""
        value = self.memo.get(("n1E", beta))
        if value is None:
            return self._miss("n1E", self._c_n1E, (beta,), (mu, 1))
        return _times(self._scale(mu, 1), value)

    def n1F(self, beta, mu: CohClass):
        """Second cotangent power at one point, H^4 insertion at another."""
        value = self.memo.get(("n1F", beta))
        if value is None:
            return self._miss("n1F", self._c_n1F, (beta,), (mu, 2))
        return _times(self._scale(mu, 2), value)

    def n1G(self, beta):
        """Third cotangent power, no insertions."""
        value = self.memo.get(("n1G", beta))
        if value is None:
            return self._miss("n1G", self._c_n1G, (beta,))
        return value

    def gamma1(self, beta):
        """Chern number of the 2-dimensional family of beta-curves:
        the integral of c1^2 - c2 of the family."""
        value = self.memo.get(("gamma1", beta))
        if value is None:
            return self._miss("gamma1", self._c_gamma1, (beta,))
        return value

    def n2A(self, beta1, beta2, mu: CohClass):
        """2-component curves with an H^4 insertion on the second component."""
        value = self.memo.get(("n2A", beta1, beta2))
        if value is None:
            return self._miss("n2A", self._c_n2A, (beta1, beta2), (mu, 2))
        return _times(self._scale(mu, 2), value)

    def n2B(self, beta1, beta2, mu: CohClass):
        """2-component curves with the node on an H^2 divisor."""
        value = self.memo.get(("n2B", beta1, beta2))
        if value is None:
            return self._miss("n2B", self._c_n2B, (beta1, beta2), (mu, 1))
        return _times(self._scale(mu, 1), value)

    def n2C(self, beta1, beta2):
        """2-component curves with a cotangent class at the node, taken on
        the second-component side."""
        value = self.memo.get(("n2C", beta1, beta2))
        if value is None:
            return self._miss("n2C", self._c_n2C, (beta1, beta2))
        return value

    def n2D(self, beta1, beta2, mu: CohClass):
        """2-component curves, cotangent power on an H^2 insertion carried
        by the second component."""
        value = self.memo.get(("n2D", beta1, beta2))
        if value is None:
            return self._miss("n2D", self._c_n2D, (beta1, beta2), (mu, 1))
        return _times(self._scale(mu, 1), value)

    def n2E(self, beta1, beta2):
        """2-component curves with a second cotangent power on the second
        component."""
        value = self.memo.get(("n2E", beta1, beta2))
        if value is None:
            return self._miss("n2E", self._c_n2E, (beta1, beta2))
        return value

    def gamma2(self, beta1, beta2):
        """Chern-type combination for 2-component configurations; appears in
        the excess corrections of the diagonal-splitting recursions."""
        value = self.memo.get(("gamma2", beta1, beta2))
        if value is None:
            return self._miss("gamma2", self._c_gamma2, (beta1, beta2))
        return value

    def correction_C2(self, beta1, beta2, mu: CohClass):
        """Excess correction for the node-on-divisor count."""
        d1, d2 = self._degrees(beta1, beta2)
        s = self._scale(mu, 1)
        return _times(s, self._corr2(d1, d2)) if s != 0 else 0

    def correction_C3(self, beta1, beta2, beta3):
        """The three excess corrections (C1, C2, C12) for the 3-component
        meeting number, with their defining signs included."""
        d1, d2, d3 = self._degrees(beta1, beta2, beta3)
        return self._corr3(d1, d2, d3)

    def m3(self, beta1, beta2, beta3):
        """Chains of three rational curves with consecutive components
        meeting at nodes."""
        value = self.memo.get(("m3", beta1, beta2, beta3))
        if value is None:
            return self._miss("m3", self._c_m3, (beta1, beta2, beta3))
        return value

    def chern_integral(self, beta):
        """Integral of 2c2 - c1^2 over the family of embedded beta-curves:
        the genus-1 multiple-cover weight of the family."""
        value = self.memo.get(("chern", beta))
        if value is None:
            return self._miss("chern", self._c_chern, (beta,))
        return value

    # -- canonical computations (unit monomial insertions) ------------------

    def _c_n1B(self, d: int):
        return self._n2pt[d]

    def _c_n1C(self, d: int):
        H2 = self._H2
        acc = self.n1B(d, H2, H2) - 2 * d * self._n1pt[d]
        acc += sum(a * a * self.n2A(a, d - a, H2) for a in range(1, d))
        return _div(acc, d * d)

    def _c_n1D(self, d: int):
        H2 = self._H2
        # the second term's insertions are H*H and H^2
        acc = d * self.n1B(d, H2, H2) - 2 * d * self.n1B(d, H2, H2)
        acc += sum(
            (a * (d - a) ** 2 + (d - a) * a * a) * self.n2A(a, d - a, H2)
            for a in range(1, d)
        )
        return _div(acc, d * d)

    def _c_n1E(self, d: int):
        H, H2 = self._H, self._H2
        acc = self.n1D(d, H, H2) - 2 * d * self.n1C(d, H2)
        acc += sum(
            a * a * (self.n2D(a, d - a, H) + self.n2B(a, d - a, H))
            for a in range(1, d)
        )
        return _div(acc, d * d)

    def _c_n1F(self, d: int):
        return -sum(self.n2A(a, d - a, self._H2) for a in range(1, d))

    def _c_n1G(self, d: int):
        acc = self.n1F(d, self._H2) - 2 * d * self.n1E(d, self._H)
        acc += sum(
            a * a * (self.n2E(a, d - a) + self.n2C(a, d - a)) for a in range(1, d)
        )
        return _div(acc, d * d)

    def _c_gamma1(self, d: int):
        # twice the count, so that its halves stay integral until one division
        c2, H2 = self._c2, self._H2
        twice = self._c3 * self._n1pt[d] + self.n1G(d)
        if c2:
            twice += c2 * (
                self.n1C(d, H2) + c2 * self.n1B(d, H2, H2) + 4 * self.n1F(d, H2)
            )
        twice -= sum(
            4 * self.n2E(a, d - a) + 5 * self.n2C(a, d - a) for a in range(1, d)
        )
        return _div(twice, 2)

    def _c_n2A(self, d1: int, d2: int):
        H2 = self._H2
        acc = 0 if self._n2pt_t5 is None else self._n1pt[d1] * self._n2pt_t5[d2]
        if d2 > d1:
            acc += self.n2A(d1, d2 - d1, H2) + self.n2A(d2 - d1, d1, H2)
        elif d2 < d1:
            acc += self.n2A(d1 - d2, d2, H2)
        else:
            if self._c2:
                acc += self._c2 * self.n1B(d1, H2, H2)
            acc += 2 * self.n1F(d1, H2)
        return acc

    def _c_n2B(self, d1: int, d2: int):
        acc = 0 if self._n1pt_t5 is None else self._n1pt[d1] * self._n1pt_t5[d2]
        acc -= _exact_sum(c * self.m3(d1 - c, c, d2 - c) for c in range(1, min(d1, d2)))
        return acc - self._corr2(d1, d2)

    def _corr2(self, d1: int, d2: int):
        # canonical correction with mu = H; linear in mu like everything else.
        # Both branches build twice the value and halve it once at the end.
        H = self._H
        if d2 > d1:
            gap = d2 - d1
            twice = 2 * (
                self.n2D(gap, d1, H) + self.n2B(gap, d1, H) + d1 * self.gamma2(gap, d1)
            )
            twice += d1 * _exact_sum(self.m3(p, d1, gap - p) for p in range(1, gap))
            return _div(twice, 2)
        if d2 < d1:
            return self._corr2(d2, d1)
        # the 1-pointed count against c2*H, which is c2 * n1pt[d1], and
        # n1D(d1, H, c2): both linear in c2
        c2 = self._c2
        twice = self.n1E(d1, H) + d1 * self.gamma1(d1)
        if c2:
            twice += c2 * (self._n1pt[d1] + self.n1D(d1, H, self._H2))
        twice *= 2
        twice -= sum(
            4 * self.n2D(p, d2 - p, H) + 5 * self.n2B(p, d2 - p, H)
            for p in range(1, d2)
        )
        return _div(twice, 2)

    def _c_n2C(self, d1: int, d2: int):
        acc = self.n2A(d1, d2, self._H2) - 2 * d2 * self.n2B(d1, d2, self._H)
        acc += _exact_sum(p * p * self.m3(d1, d2 - p, p) for p in range(1, d2))
        return _div(acc, d2 * d2)

    def _c_n2D(self, d1: int, d2: int):
        H2 = self._H2
        # the cotangent reduction on the second component pairs the divisor
        # with that component's class, hence the leading factor d2; the
        # second term's insertion is H*H
        acc = d2 * self.n2A(d1, d2, H2) - 2 * d2 * self.n2A(d1, d2, H2)
        acc += _exact_sum(
            (p * (d2 - p) ** 2 + (d2 - p) * p * p) * self.m3(d1, d2 - p, p)
            for p in range(1, d2)
        )
        return _div(acc, d2 * d2)

    def _c_n2E(self, d1: int, d2: int):
        return -_exact_sum(self.m3(d1, d2 - p, p) for p in range(1, d2))

    def _c2_n2A(self, d1: int, d2: int):
        """n2A(d1, d2, c2)."""
        return self._c2 * self.n2A(d1, d2, self._H2) if self._c2 else 0

    def _c_gamma2(self, d1: int, d2: int):
        return (
            self._c2_n2A(d1, d2)
            + 2 * self.n2E(d1, d2)
            + self.n2C(d1, d2)
            + self.n2C(d2, d1)
        )

    def _corr3(self, d1: int, d2: int, d3: int):
        if d3 > d1:
            c1 = self.m3(d3 - d1, d1, d2)
        elif d3 < d1:
            c1 = self.m3(d1 - d3, d3, d2)
        else:
            c1 = self.gamma2(d2, d1)

        if d3 > d2:
            c2 = -self.m3(d1, d2, d3 - d2)
        elif d3 < d2:
            c2 = -(self.m3(d1, d3, d2 - d3) + self.m3(d1, d2 - d3, d3))
        else:
            c2 = -(self._c2_n2A(d1, d2) + 2 * self.n2E(d1, d2))

        if d3 > d1 + d2:
            c12 = -self.m3(d3 - d1 - d2, d1, d2)
        elif d2 < d3 < d1 + d2:
            c12 = -self.m3(d1 + d2 - d3, d3 - d2, d2)
        elif d3 == d1 + d2:
            c12 = -self.gamma2(d2, d1)
        else:
            c12 = 0
        return c1, c2, c12

    def _c_m3(self, d1: int, d2: int, d3: int):
        # on a compact ring n2A is evaluated even where n1pt[d3] is zero, so
        # that the memo holds the same keys whatever the base data
        if self._n1pt_t5 is None:
            acc = 0
        else:
            acc = self.n2A(d1, d2, self._H2) * self._n1pt_t5[d3]
        c1, c2, c12 = self._corr3(d1, d2, d3)
        return acc - c1 - c2 - c12

    def _c_chern(self, d: int):
        # twice the integral, halved once at the end
        c2 = self._c2
        twice = -2 * (self.n1G(d) + self._c3 * self._n1pt[d])
        if c2:
            twice -= 2 * c2 * self.n1C(d, self._H2)
        twice += sum(self.n2C(a, d - a) + self.n2C(d - a, a) for a in range(1, d))
        return _div(twice, 2)
