"""Level-by-level engine for rational-curve configuration counts.

Thirteen count types are computed for a geometry: seven 1-component
counts (plain insertions, cotangent-class decorations up to the third
power, and the Chern number gamma1 of the 2-dimensional family of
embedded rational curves), five 2-component meeting counts (a node
insertion, a node cotangent class, or decorations on the free
component), and the 3-component meeting number.  On a rank-1 curve
cone every class is a positive integer degree and the case tables in
the degree-reducing recursions are exhaustive.

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

The public API is the fifteen count methods: n1B, n1C, n1D, n1E, n1F,
n1G, gamma1, n2A-n2E, gamma2, m3 and chern_integral.  No correction is
public: each is written once, inside the one formula that subtracts it,
C2 in n2B's and C1, C2 and C12 in m3's.

Every count is exact: a Python ``int`` when its denominator is 1 and a
:data:`Rat` otherwise.  Each (kind, degrees) key is memoized; results
extend linearly in each cohomology insertion, so one value is stored
per key with unit monomial insertions.  m3 values are stored only in
per-level tables, the other kinds in a dict keyed ``(kind, *degrees)``;
``Engine.memo`` is a read-only mapping over both.

The evaluation order is known in advance, so nothing recurses.  A
count at total degree T reads counts below T, counts at T of a kind
filled before it, and gamma2(a, b) and gamma1(d) with a + 2b = T and
2d = T.  Level T is filled in that order: those gamma2 and gamma1 keys,
m3 by ascending d1 then d2, n2A, n2B, the n2C/n2D/n2E triple of each
(d1, d2), then n1B, n1C, n1D, n1F, n1E, n1G; chern, which nothing
reads, only when called.  A miss at total degree T first fills every
unfilled level up to T, so a cold call needs a few frames and the
recursion limit is never touched.

m3 is symmetric under reversing the chain, so m3(d1, d2, d3) with
d1 > d3 is the object already stored for m3(d3, d2, d1), a row filled
earlier in the same level: the formula runs for d1 <= d3 only.

A public call is a validated lookup: the key is built once, the degrees
are checked in one pass, the engine's own unit insertions are known by
identity, and a scale other than 1 costs one product.  m3, most of the
keys (161,700 of 189,650 at degree 100), answers a valid call at or
below the filled level in its own frame, from its level table:
``_m3[t][d1][d2]`` is m3(d1, d2, t - d1 - d2), or None until stored.
That table is the only store of m3, so m3 costs no key tuple and no
dict slot, and a read by index no hash; m3 is read O(D^3) times: by the
corrections of every computed m3 key, the n2C/n2D/n2E row sums, and
n2B's two m3 sums (its own and its C2's).  The fill stores every key,
reversed m3 chains too, by one call of its public method, looked up on
the class, and that call stores its own key: ``perfbench/tracer.py``
counts the entries of each kind by wrapping those methods and watching
``len(engine.memo)`` grow.  An interrupted level keeps the values it
stored, and its refill stores the rest.

Every miss is one weighted sum of memo values, with integer weights or
small products of the geometry's scalars.  An all-``int`` sum stays on
``int``, so local P^2 runs on ``int`` throughout.  A rational sum is an
integer numerator over a running common denominator, reduced once when
stored (twice for an m3 key with d3 = d2, whose C2 is itself a sum).
n2B adds the int values of its m3 sums on ints first.  n2C, n2D and
n2E sum the same m3 row m3(d1, d2-p, p) in one pass, kept in a
one-slot cache since the fill computes them in a row.

Every insertion the formulas use is a monomial, so the geometry
enters only as the scalars c2 and c3, its two base tables, and 1/t5:
a compact ring's Kunneth diagonal pairs H^2 with H^3/t5, so each
diagonal term is one product of base-table entries divided by t5, and
a local ring has no diagonal terms.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import islice
from math import gcd

from .cohomology import CohClass, InsertionDegreeError, RingMismatchError
from .geometry import Geometry
from .rational import Rat

__all__ = ["Engine"]


def _norm(x):
    """x as an int when its denominator is 1, else x unchanged."""
    return x.numerator if x.denominator == 1 else x


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
    denominator: its weight is multiplied into the numerator.  The
    result is reduced once.
    """
    for w, v in terms:
        if type(v) is int and type(w) is int:
            num += w * v if den == 1 else w * v * den
        else:
            n, d = w.numerator * v.numerator, w.denominator * v.denominator
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return _ratio(num, den * divisor)


class _Memo(Mapping):
    """Read-only mapping of an engine's stored counts, ``(kind, *degrees)``
    to the count with unit insertions.

    m3 is stored only in the level tables ``_m3[t][d1][d2]``, every other
    kind in the dict ``_dict``; the engine writes both.  ``len`` is O(1):
    the dict's length plus the number of m3 values stored.  Iteration
    follows store order.  The fill stores m3 values only in its m3 loops,
    level by level and row by row, and ``_marks`` holds (dict length, m3
    count) at the start of each loop, which places each run of m3 keys
    among the dict's keys.
    """

    __slots__ = ("_dict", "_m3", "_m3_size", "_marks")

    def __init__(self):
        self._dict = {}
        self._m3 = [None]
        self._m3_size = 0
        self._marks = []

    def __len__(self) -> int:
        return len(self._dict) + self._m3_size

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == 4 and key[0] == "m3":
            _, d1, d2, d3 = key
            if (type(d1) is type(d2) is type(d3) is int and d1 > 0 and d2 > 0 and d3 > 0
                    and d1 + d2 + d3 < len(self._m3)):
                value = self._m3[d1 + d2 + d3][d1][d2]
                if value is not None:
                    return value
            raise KeyError(key)
        return self._dict[key]

    def __iter__(self):
        keys, m3 = iter(self._dict), self._m3_keys()
        ends = [size for _, size in self._marks[1:]] + [self._m3_size]
        at = 0
        for (length, size), end in zip(self._marks, ends):
            yield from islice(keys, length - at)
            yield from islice(m3, end - size)
            at = length
        yield from keys

    def _m3_keys(self):
        """The stored m3 keys, by level, then d1, then d2."""
        for t, level in enumerate(self._m3[1:], 1):
            for d1 in range(1, len(level)):
                row = level[d1]
                for d2 in range(1, len(row)):
                    if row[d2] is not None:
                        yield ("m3", d1, d2, t - d1 - d2)


class Engine:
    """Evaluator of all count types for one geometry, filled level by level.

    Evaluation is pure given (geometry, memo): recomputing any count
    with a fresh engine yields the identical value.  Public methods
    take each insertion as a monomial ``s * H^p`` whose power p is fixed
    by the count type, scale the unit-insertion count by s, and raise
    InsertionDegreeError for any other power (the zero class is
    accepted and yields zero by linearity).

    ``memo`` is a read-only view mapping ``(kind, *degrees)`` to the
    count with unit insertions, over the m3 level tables and the dict of
    the other kinds.  Every public call validates its degrees and
    insertions, hit or miss: a degree ``2.0`` equals the int key 2 in
    the dict, so no lookup comes first.  A miss at total degree T first
    fills every unfilled level up to T, each key by a public call with unit
    insertions: every value is computed as a miss on a filled level, and
    each public call stores at most its own key, so a wrapper on a
    public method sees each stored key exactly once.  A fill call costs
    its validation, one failed lookup, the compute function (looked up
    on the instance) and the store.  An interrupted level stays unfilled.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.memo = _Memo()
        # the two stores behind the view: every kind but m3 by key, and
        # _m3[t][d1][d2] = m3(d1, d2, t - d1 - d2), None until stored (slot 0
        # of each list unused)
        self._memo = self.memo._dict
        self._m3 = self.memo._m3
        # misses at total degree <= _level compute from the memo: the levels
        # below it are filled, and _level itself is filled or being filled
        self._level = 0
        # the last m3 row summed: ((d1, d2), [num_C, num_D, num_E, den])
        self._last_row = (None, None)
        ring = geometry.ring
        # the unit insertion of each H-power, indexed by the power
        self._units = (None, ring.H(1), ring.H(2))

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

    # -- validation, the memo and the fill -----------------------------------

    def _scale(self, mu: CohClass, power: int):
        """Scalar s with mu = s * H^power; 0 for the zero class."""
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

    def _degrees(self, betas: tuple) -> int:
        """Validate the degrees and return their total."""
        total = 0
        for beta in betas:
            if type(beta) is not int or beta < 1:
                raise ValueError(f"curve degree must be a positive integer, got {beta!r}")
            total += beta
        if total > self.geometry.max_degree:
            raise ValueError(
                f"total degree {total} exceeds geometry max_degree "
                f"{self.geometry.max_degree}"
            )
        return total

    def _count(self, key: tuple, compute, insertions=()):
        """Answer a public call for ``key = (kind, *degrees)``: validate the
        degrees and the (mu, power) insertions, then scale the unit value,
        computing and storing it on a miss unless an insertion is zero."""
        betas = key[1:]
        total = self._degrees(betas)
        s = 1
        for mu, power in insertions:
            if mu is not self._units[power]:
                s *= self._scale(mu, power)
        if s == 0:
            return 0
        value = self._memo.get(key)
        if value is None:
            if total > self._level:
                self._fill(total)
                value = self._memo.get(key)
            if value is None:
                value = self._memo[key] = compute(*betas)
        return value if s == 1 else _norm(s * value)

    def _fill(self, top: int):
        """Fill every level from the first unfilled one up to ``top``."""
        H, H2 = self._units[1], self._units[2]
        for t in range(self._level + 1, top + 1):
            self._level = t
            try:
                # gamma2(t - 2b, b) and gamma1(t/2) are first read at level t
                for b in range(1, (t + 1) // 2):
                    self.gamma2(t - 2 * b, b)
                if t % 2 == 0:
                    self.gamma1(t // 2)
                # an interrupted fill keeps level t's table and the m3 values
                # stored in it; the refill stores the rest
                if len(self._m3) == t:
                    self._m3.append([None] + [[None] * (t - d1) for d1 in range(1, t - 1)])
                memo = self.memo
                memo._marks.append((len(self._memo), memo._m3_size))
                m3 = self.m3
                for d1 in range(1, t - 1):
                    for d2 in range(1, t - d1):
                        m3(d1, d2, t - d1 - d2)
                pairs = [(d1, t - d1) for d1 in range(1, t)]
                for d1, d2 in pairs:
                    self.n2A(d1, d2, H2)
                for d1, d2 in pairs:
                    self.n2B(d1, d2, H)
                for d1, d2 in pairs:
                    self.n2C(d1, d2)
                    self.n2D(d1, d2, H)
                    self.n2E(d1, d2)
                self.n1B(t, H2, H2)
                self.n1C(t, H2)
                self.n1D(t, H, H2)
                self.n1F(t, H2)
                self.n1E(t, H)
                self.n1G(t)
            except BaseException:
                self._level = t - 1
                raise

    # -- public counts -----------------------------------------------------

    def n1B(self, beta, mu1: CohClass, mu2: CohClass):
        """Curves of class beta through two H^4 insertions (base count)."""
        return self._count(("n1B", beta), self._c_n1B, ((mu1, 2), (mu2, 2)))

    def n1C(self, beta, mu: CohClass):
        """1-component count with one cotangent power on an H^4 insertion."""
        return self._count(("n1C", beta), self._c_n1C, ((mu, 2),))

    def n1D(self, beta, mu1: CohClass, mu2: CohClass):
        """Cotangent power on an H^2 insertion, plus a free H^4 insertion."""
        return self._count(("n1D", beta), self._c_n1D, ((mu1, 1), (mu2, 2)))

    def n1E(self, beta, mu: CohClass):
        """Second cotangent power on an H^2 insertion."""
        return self._count(("n1E", beta), self._c_n1E, ((mu, 1),))

    def n1F(self, beta, mu: CohClass):
        """Second cotangent power at one point, H^4 insertion at another."""
        return self._count(("n1F", beta), self._c_n1F, ((mu, 2),))

    def n1G(self, beta):
        """Third cotangent power, no insertions."""
        return self._count(("n1G", beta), self._c_n1G)

    def gamma1(self, beta):
        """Chern number of the 2-dimensional family of beta-curves:
        the integral of c1^2 - c2 of the family."""
        return self._count(("gamma1", beta), self._c_gamma1)

    def n2A(self, beta1, beta2, mu: CohClass):
        """2-component curves with an H^4 insertion on the second component."""
        return self._count(("n2A", beta1, beta2), self._c_n2A, ((mu, 2),))

    def n2B(self, beta1, beta2, mu: CohClass):
        """2-component curves with the node on an H^2 divisor."""
        return self._count(("n2B", beta1, beta2), self._c_n2B, ((mu, 1),))

    def n2C(self, beta1, beta2):
        """2-component curves with a cotangent class at the node, taken on
        the second-component side."""
        return self._count(("n2C", beta1, beta2), self._c_n2C)

    def n2D(self, beta1, beta2, mu: CohClass):
        """2-component curves, cotangent power on an H^2 insertion carried
        by the second component."""
        return self._count(("n2D", beta1, beta2), self._c_n2D, ((mu, 1),))

    def n2E(self, beta1, beta2):
        """2-component curves with a second cotangent power on the second
        component."""
        return self._count(("n2E", beta1, beta2), self._c_n2E)

    def gamma2(self, beta1, beta2):
        """Chern-type combination for 2-component configurations; appears in
        the excess corrections of the diagonal-splitting recursions."""
        return self._count(("gamma2", beta1, beta2), self._c_gamma2)

    def m3(self, beta1, beta2, beta3):
        """Chains of three rational curves with consecutive components
        meeting at nodes."""
        # most keys are m3: a valid call at or below the filled level (so at
        # most max_degree) is answered from the level table in this frame
        if (type(beta1) is type(beta2) is type(beta3) is int and beta1 > 0 and beta2 > 0
                and beta3 > 0 and beta1 + beta2 + beta3 <= self._level):
            row = self._m3[beta1 + beta2 + beta3][beta1]
            value = row[beta2]
            if value is None:
                value = row[beta2] = self._c_m3(beta1, beta2, beta3)
                self.memo._m3_size += 1
            return value
        # anything else is refused, or lies above the filled level, and the
        # fill stores it
        total = self._degrees((beta1, beta2, beta3))
        self._fill(total)
        return self._m3[total][beta1][beta2]

    def chern_integral(self, beta):
        """Integral of 2c2 - c1^2 over the family of embedded beta-curves:
        the genus-1 multiple-cover weight of the family."""
        return self._count(("chern", beta), self._c_chern)

    # -- canonical computations (unit monomial insertions) ------------------
    #
    # Each returns the weighted sum of its (weight, value) terms.

    def _c_n1B(self, d: int):
        return self._n2pt[d]

    def _c_n1C(self, d: int):
        memo = self._memo
        terms = [(1, memo["n1B", d]), (-2 * d, self._n1pt[d])]
        terms += [(a * a, memo["n2A", a, d - a]) for a in range(1, d)]
        return _weighted_sum(terms, d * d)

    def _c_n1D(self, d: int):
        memo = self._memo
        # d * n1B - 2d * n1B: the second term's insertions are H*H and H^2
        terms = [(-d, memo["n1B", d])]
        terms += [(a * (d - a) ** 2 + (d - a) * a * a, memo["n2A", a, d - a]) for a in range(1, d)]
        return _weighted_sum(terms, d * d)

    def _c_n1E(self, d: int):
        memo = self._memo
        terms = [(1, memo["n1D", d]), (-2 * d, memo["n1C", d])]
        for a in range(1, d):
            terms += ((a * a, memo["n2D", a, d - a]), (a * a, memo["n2B", a, d - a]))
        return _weighted_sum(terms, d * d)

    def _c_n1F(self, d: int):
        return _weighted_sum((-1, self._memo["n2A", a, d - a]) for a in range(1, d))

    def _c_n1G(self, d: int):
        memo = self._memo
        terms = [(1, memo["n1F", d]), (-2 * d, memo["n1E", d])]
        for a in range(1, d):
            terms += ((a * a, memo["n2E", a, d - a]), (a * a, memo["n2C", a, d - a]))
        return _weighted_sum(terms, d * d)

    def _c_gamma1(self, d: int):
        # twice the count, so that its halves stay integral until one division
        memo, c2 = self._memo, self._c2
        terms = [(self._c3, self._n1pt[d]), (1, memo["n1G", d]), (c2, memo["n1C", d]),
                 (c2 * c2, memo["n1B", d]), (4 * c2, memo["n1F", d])]
        for a in range(1, d):
            terms += ((-4, memo["n2E", a, d - a]), (-5, memo["n2C", a, d - a]))
        return _weighted_sum(terms, 2)

    def _c_n2A(self, d1: int, d2: int):
        memo = self._memo
        terms = [] if self._n2pt_t5 is None else [(self._n1pt[d1], self._n2pt_t5[d2])]
        if d2 > d1:
            terms += [(1, memo["n2A", d1, d2 - d1]), (1, memo["n2A", d2 - d1, d1])]
        elif d2 < d1:
            terms.append((1, memo["n2A", d1 - d2, d2]))
        else:
            terms += [(self._c2, memo["n1B", d1]), (2, memo["n1F", d1])]
        return _weighted_sum(terms)

    def _c_n2B(self, d1: int, d2: int):
        # base - sum - C2 as (2 C2 + 2 sum - 2 base) / -2; the int m3 values
        # of both m3 sums are added on ints first, the others become terms
        memo, m3 = self._memo, self._m3
        terms, num = [], 0
        # the excess correction C2 with mu = H (linear in mu like everything
        # else), symmetric in its degrees, as the terms of 2 C2
        lo, hi = min(d1, d2), max(d1, d2)
        if hi > lo:
            gap = hi - lo
            terms += ((2, memo["n2D", gap, lo]), (2, memo["n2B", gap, lo]),
                      (2 * lo, memo["gamma2", gap, lo]))
            level = m3[hi]
            for p in range(1, gap):
                v = level[p][lo]
                if type(v) is int:
                    num += lo * v
                else:
                    terms.append((lo, v))
        else:
            # the 1-pointed count against c2*H, which is c2 * n1pt[d1], and
            # n1D(d1, H, c2): both linear in c2
            terms += ((2, memo["n1E", lo]), (2 * lo, memo["gamma1", lo]),
                      (2 * self._c2, self._n1pt[lo]), (2 * self._c2, memo["n1D", lo]))
            for p in range(1, hi):
                terms += ((-4, memo["n2D", p, hi - p]), (-5, memo["n2B", p, hi - p]))
        for c in range(1, lo):
            v = m3[d1 + d2 - c][d1 - c][c]
            if type(v) is int:
                num += 2 * c * v
            else:
                terms.append((2 * c, v))
        if self._n1pt_t5 is not None:
            terms.append((-2 * self._n1pt[d1], self._n1pt_t5[d2]))
        return _weighted_sum(terms, -2, num)

    def _row(self, d1: int, d2: int):
        """The m3 row v_p = m3(d1, d2 - p, p), p = 1..d2-1, summed in one pass
        with the weights of n2C (p^2), n2D (p(d2-p)^2 + (d2-p)p^2 = d2 p (d2-p))
        and n2E (1).

        Returns ``[num_C, num_D, num_E, den]``, three numerators over one
        denominator, from s_k = sum p^k v_p as s2, d2 (d2 s1 - s2), s0.
        The fill computes n2C, n2D and n2E of one (d1, d2) back to back,
        so one cached row serves all three."""
        key, row = self._last_row
        if key != (d1, d2):
            s0 = s1 = s2 = 0
            den = 1
            # v_p is m3_row[d2 - p]; for d2 = 1 the row is empty and level
            # d1 + 1 has no list d1
            m3_row = self._m3[d1 + d2][d1] if d2 > 1 else None
            for p in range(1, d2):
                v = m3_row[d2 - p]
                if type(v) is int:
                    if den != 1:
                        v *= den
                else:
                    d, v = v.denominator, v.numerator
                    scale = d // gcd(den, d)
                    if scale != 1:
                        s0, s1, s2 = s0 * scale, s1 * scale, s2 * scale
                        den *= scale
                    v *= den // d
                pv = p * v
                s0 += v
                s1 += pv
                s2 += p * pv
            row = [s2, d2 * (d2 * s1 - s2), s0, den]
            self._last_row = ((d1, d2), row)
        return row

    def _c_n2C(self, d1: int, d2: int):
        memo = self._memo
        terms = ((1, memo["n2A", d1, d2]), (-2 * d2, memo["n2B", d1, d2]))
        row = self._row(d1, d2)
        return _weighted_sum(terms, d2 * d2, row[0], row[3])

    def _c_n2D(self, d1: int, d2: int):
        # the cotangent reduction on the second component pairs the divisor
        # with that component's class, hence d2 * n2A; the second term,
        # -2 d2 * n2A, has the insertion H*H
        n2A = self._memo["n2A", d1, d2]
        row = self._row(d1, d2)
        return _weighted_sum(((-d2, n2A),), d2 * d2, row[1], row[3])

    def _c_n2E(self, d1: int, d2: int):
        row = self._row(d1, d2)
        return _ratio(-row[2], row[3])

    def _c_gamma2(self, d1: int, d2: int):
        memo = self._memo
        return _weighted_sum(((self._c2, memo["n2A", d1, d2]), (2, memo["n2E", d1, d2]),
                              (1, memo["n2C", d1, d2]), (1, memo["n2C", d2, d1])))

    def _c_m3(self, d1: int, d2: int, d3: int):
        # base - C1 - C2 - C12, with the excess corrections C1 = x1,
        # C2 = -(x2 + x3) and C12 = -x4 read from the level table
        # (m3(a, b, c) is m3[a + b + c][a][b]) or the memo
        memo, m3 = self._memo, self._m3
        if d1 > d3:
            # the reversed chain, stored earlier in this level's ascending rows
            return m3[d1 + d2 + d3][d3][d2]
        # the base term n2A * n1pt[d3] / t5 enters as a raw numerator and
        # denominator
        if self._n1pt_t5 is None:
            num, den = 0, 1
        else:
            a, t = memo["n2A", d1, d2], self._n1pt_t5[d3]
            num, den = a.numerator * t.numerator, a.denominator * t.denominator

        x1 = m3[d3 + d2][d3 - d1][d1] if d3 > d1 else memo["gamma2", d2, d1]

        x3 = 0
        if d3 > d2:
            x2 = m3[d1 + d3][d1][d2]
        elif d3 < d2:
            row = m3[d1 + d2][d1]
            x2, x3 = row[d3], row[d2 - d3]
        else:
            # n2A(d1, d2, c2) + 2 n2E(d1, d2): on this diagonal, one
            # normalisation more than elsewhere
            x2 = _weighted_sum(((self._c2, memo["n2A", d1, d2]), (2, memo["n2E", d1, d2])))

        if d3 > d1 + d2:
            x4 = m3[d3][d3 - d1 - d2][d1]
        elif d2 < d3 < d1 + d2:
            x4 = m3[d1 + d2][d1 + d2 - d3][d3 - d2]
        elif d3 == d1 + d2:
            x4 = memo["gamma2", d2, d1]
        else:
            x4 = 0

        if den == 1 and type(x1) is type(x2) is type(x3) is type(x4) is int:
            return num - x1 + x2 + x3 + x4
        return _weighted_sum(((-1, x1), (1, x2), (1, x3), (1, x4)), 1, num, den)

    def _c_chern(self, d: int):
        # twice the integral, halved once at the end
        memo, c2 = self._memo, self._c2
        terms = [(-2, memo["n1G", d]), (-2 * self._c3, self._n1pt[d]), (-2 * c2, memo["n1C", d])]
        for a in range(1, d):
            terms += ((1, memo["n2C", a, d - a]), (1, memo["n2C", d - a, a]))
        return _weighted_sum(terms, 2)
