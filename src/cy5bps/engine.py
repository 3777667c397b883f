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
:data:`Rat` otherwise.  Each (kind, degrees) key is memoized; every
insertion is the unit class of its H-power, so one value is stored per
key, in the kind's index table:
``_n1B[d]``, ``_n2A[d1][d2]`` or ``_m3[t][d1][d2]``, allocated when the
engine is built, but for m3, which gains a level as each level is
filled.  ``Engine.memo`` is a read-only mapping over the tables.

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

A public call is a validated lookup: the degrees are checked in one
pass and index the kind's table, and an insertion passed is checked to
be the unit class that leaving it out (or None) means; every formula
reads its terms by index.  m3, most of the keys (161,700 of
189,650 at degree 100), answers a valid call at or below the filled
level in its own frame: ``_m3[t][d1][d2]`` is m3(d1, d2, t - d1 - d2)
times the level's denominator D_t = ``_m3[t][0]``, or None until
stored.  m3 is read O(D^3) times: by the corrections of every computed
m3 key, the n2C/n2D/n2E row sums, and n2B's two m3 sums (its own and
its C2's).  The fill stores every key, reversed m3 chains too, by one
call of its public method, looked up on the class, and that call stores
its own key: ``perfbench/tracer.py`` counts the entries of each kind by
wrapping those methods and watching ``len(engine.memo)`` grow.  An
interrupted level keeps the values it stored, and its refill stores
the rest.

While a level's m3 loop runs, its table holds the values themselves,
under D_t = 1.  Once the loop ends the level is sealed: each value
becomes an integer numerator over D_t = lcm(D_{t-1}, the reduced
denominators of the level's values), so D_s divides D_t for s <= t, and
a reversed chain's entry stays the object of its chain.  Every m3 read
of the fill is then an int: the n2C/n2D/n2E row sums are int sums over
D_{d1+d2}, and n2B's m3 sums and m3's corrections are int
multiply-adds over the last sealed level's D, each level's numerators
scaled by one factor per level.  A read through ``m3`` or the memo
divides by D_t, so it returns the reduced value, a new :data:`Rat`
object each time on the rational path.  On local P^2 every D_t is 1:
no level is sealed and nothing is scaled.

Every miss is one weighted sum of stored values, with integer weights or
small products of the geometry's scalars.  An all-``int`` sum stays on
``int``, so local P^2 runs on ``int`` throughout.  A rational sum is an
integer numerator over a running common denominator, starting from the
m3 reads' numerator and D where it has them, and is reduced once when
stored.  n2C, n2D and n2E sum the same m3 row m3(d1, d2-p, p) in one
pass, kept in a one-slot cache since the fill computes them in a row.

Every insertion the formulas use is one power of H, so the geometry
enters only as the scalars c2 and c3, its two base tables, and 1/t5:
a compact ring's Kunneth diagonal pairs H^2 with H^3/t5, so each
diagonal term is one product of base-table entries divided by t5, and
a local ring has no diagonal terms.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm

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


# each stored kind and its number of degrees, in the memo's iteration order
_KINDS = {"n1B": 1, "n1C": 1, "n1D": 1, "n1E": 1, "n1F": 1, "n1G": 1, "gamma1": 1,
          "n2A": 2, "n2B": 2, "n2C": 2, "n2D": 2, "n2E": 2, "gamma2": 2, "m3": 3, "chern": 1}


class _Memo(Mapping):
    """Read-only mapping of an engine's stored counts, ``(kind, *degrees)``
    to the count with unit insertions.

    ``_tables`` holds each kind's index table: ``[d]``, ``[d1][d2]`` with
    d1 + d2 <= max_degree, or m3's levels, starting from level 0.  The
    engine writes the tables and counts each value it stores in ``_size``.
    A key is found only with a known kind, its number of ``int`` degrees,
    each at least 1 and summing to at most max_degree, and a stored value.
    Iteration goes kind by kind, each kind's keys by ascending degrees.
    """

    __slots__ = ("_tables", "_max_degree", "_size")

    def __init__(self, max_degree: int):
        self._max_degree, self._size = max_degree, 0
        rows = range(1, max_degree)
        self._tables = {kind: ([None] * (max_degree + 1) if ndeg == 1 else [[1]] if ndeg == 3
                               else [None] + [[None] * (max_degree + 1 - d1) for d1 in rows])
                        for kind, ndeg in _KINDS.items()}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key):
        if (type(key) is tuple and key and type(key[0]) is str
                and _KINDS.get(key[0]) == len(key) - 1
                and all(type(d) is int and d > 0 for d in key[1:])):
            total, table = sum(key[1:]), self._tables[key[0]]
            if len(key) == 4:
                # m3 levels above the filled ones are not allocated
                if total < len(table):
                    level = table[total]
                    value = level[key[1]][key[2]]
                    if value is not None:
                        return _ratio(value, level[0])
            elif total <= self._max_degree:
                value = table[key[1]] if len(key) == 2 else table[key[1]][key[2]]
                if value is not None:
                    return value
        raise KeyError(key)

    def __iter__(self):
        for kind, table in self._tables.items():
            if _KINDS[kind] == 1:
                yield from ((kind, d) for d, v in enumerate(table) if v is not None)
            elif _KINDS[kind] == 2:
                for d1, row in enumerate(table[1:], 1):
                    yield from ((kind, d1, d2) for d2, v in enumerate(row) if v is not None)
            else:
                top = len(table) - 1
                for d1 in range(1, top - 1):
                    for d2 in range(1, top - d1):
                        for d3 in range(1, top - d1 - d2 + 1):
                            if table[d1 + d2 + d3][d1][d2] is not None:
                                yield kind, d1, d2, d3


class Engine:
    """Evaluator of all count types for one geometry, filled level by level.

    Evaluation is pure given (geometry, memo): recomputing any count
    with a fresh engine yields the identical value.  Public methods
    take degrees, then optionally an insertion per H-power p fixed by
    the count type: None, the default, or the unit class H^p of an
    equal ring.  Either returns the stored count.  Another power, or
    anything but a class, raises InsertionDegreeError, and a class of
    another ring RingMismatchError; the counts are linear in each
    insertion, so a caller scales the count instead.

    ``memo`` is a read-only view mapping ``(kind, *degrees)`` to the
    count with unit insertions, over the kinds' index tables.  An m3
    value is stored as a numerator over its level's denominator, so on
    the rational path each read of it, through ``m3`` or ``memo``, builds
    a new :data:`Rat` equal to the last.  Every public call validates its
    degrees and insertions, hit or miss, before it indexes a table.  A
    miss at total degree T first fills every unfilled level up to T, each
    key by a public call with its degrees only: every value is computed as
    a miss on a filled level, and each public call stores at most its own
    key, so a wrapper on a public method sees each stored key exactly
    once.  A fill call costs its validation, one read of an empty slot,
    the compute function (looked up on the instance) and the store.  An
    interrupted level stays unfilled; its m3 values stay as stored,
    sealed if the seal was reached.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.memo = _Memo(geometry.max_degree)
        # each kind's table as self._<kind>: _n1B[d], _n2A[d1][d2], and the m3
        # level tables, _m3[t][d1][d2] for m3(d1, d2, t - d1 - d2) over the
        # level's denominator _m3[t][0] (None until stored; index 0 unused)
        for kind, table in self.memo._tables.items():
            setattr(self, "_" + kind, table)
        # misses at total degree <= _level compute from the memo: the levels
        # below it are filled, and _level itself is filled or being filled
        self._level = 0
        # the D of the last level sealed, which the fill's m3 reads are
        # summed over, and _factors[s] = _den // D_s (None while _den is 1)
        self._den, self._factors = 1, None
        # set once an m3 value that may not be an int is computed: until
        # then every level's D is 1 and no level needs sealing
        self._m3_rational = False
        # the last m3 row summed: ((d1, d2), [num_C, num_D, num_E, den])
        self._last_row = (None, None)

        self._c2 = _norm(geometry.c2)
        self._c3 = _norm(geometry.c3)
        # base tables indexed by degree (entry 0 unused), and their 1/t5
        # multiples for the diagonal terms (None when there is no diagonal)
        degrees = range(1, geometry.max_degree + 1)
        self._n1pt = [0] + [_norm(geometry.n1pt[d]) for d in degrees]
        self._n2pt = [0] + [_norm(geometry.n2pt[d]) for d in degrees]
        t5 = geometry.ring.top_integral
        if t5 is None:
            self._n1pt_t5 = self._n2pt_t5 = None
        else:
            self._n1pt_t5 = [0] + [_norm(self._n1pt[d] / t5) for d in degrees]
            self._n2pt_t5 = [0] + [_norm(self._n2pt[d] / t5) for d in degrees]

    # -- validation, the memo and the fill -----------------------------------

    def _check_insertion(self, mu: CohClass, power: int):
        """Refuse mu unless it is the unit class H^power of this ring."""
        if not isinstance(mu, CohClass):
            raise InsertionDegreeError(f"insertion must be a CohClass, got {mu!r}")
        if mu.ring != self.geometry.ring:
            raise RingMismatchError("insertion belongs to a different ring")
        if mu.power != power:
            raise InsertionDegreeError(f"insertion must be H^{power}, got H^{mu.power}")

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

    def _count(self, table, betas: tuple, compute, insertions=()):
        """Answer a public call for the degrees ``betas`` of the kind stored
        in ``table``: validate the degrees and the (mu, power) insertions,
        None being the unit class, then return the stored value, computing
        and storing it on a miss."""
        total = self._degrees(betas)
        for mu, power in insertions:
            if mu is not None:
                self._check_insertion(mu, power)
        row = table if len(betas) == 1 else table[betas[0]]
        d = betas[-1]
        value = row[d]
        if value is None:
            if total > self._level:
                self._fill(total)
                value = row[d]
            if value is None:
                value = row[d] = compute(*betas)
                self.memo._size += 1
        return value

    def _fill(self, top: int):
        """Fill every level from the first unfilled one up to ``top``."""
        for t in range(self._level + 1, top + 1):
            self._level = t
            try:
                # gamma2(t - 2b, b) and gamma1(t/2) are first read at level t
                for b in range(1, (t + 1) // 2):
                    self.gamma2(t - 2 * b, b)
                if t % 2 == 0:
                    self.gamma1(t // 2)
                # an interrupted fill keeps level t's table and the m3 values
                # stored in it, sealed or not; the refill stores the rest
                if len(self._m3) == t:
                    self._m3.append([1] + [[None] * (t - d1) for d1 in range(1, t - 1)])
                m3 = self.m3
                for d1 in range(1, t - 1):
                    for d2 in range(1, t - d1):
                        m3(d1, d2, t - d1 - d2)
                # m3 at level t summed over D_{t-1}, the rest sums over D_t
                self._seal(t)
                self._rescale(t)
                pairs = [(d1, t - d1) for d1 in range(1, t)]
                for d1, d2 in pairs:
                    self.n2A(d1, d2)
                for d1, d2 in pairs:
                    self.n2B(d1, d2)
                for d1, d2 in pairs:
                    self.n2C(d1, d2)
                    self.n2D(d1, d2)
                    self.n2E(d1, d2)
                self.n1B(t)
                self.n1C(t)
                self.n1D(t)
                self.n1F(t)
                self.n1E(t)
                self.n1G(t)
            except BaseException:
                self._level = t - 1
                raise

    def _seal(self, t: int):
        """Store level t's m3 values, once all are stored, as integer
        numerators over D_t = lcm(D_{t-1}, their denominators).

        A level is sealed when its D is not 1, or when it and every level
        below it hold only ints, which are their own numerators.  The
        numerators are computed first and the level is replaced by one
        store, so an interrupted seal leaves the values as they were."""
        table = self._m3
        level = table[t]
        if level[0] != 1 or not self._m3_rational:
            return
        # row d1 holds the chains with d1 <= d3 at d2 = 1..t - 2 d1
        den = lcm(table[t - 1][0], *[v.denominator for d1 in range(1, (t + 1) // 2)
                                     for v in level[d1][1:t - 2 * d1 + 1]])
        if den == 1:
            return
        sealed = [den]
        for d1 in range(1, t - 1):
            # the chains with d1 <= d3, then the reversed ones, each the
            # object of its chain (d3, d2, d1), in a row already sealed
            row = [None] + [v.numerator * (den // v.denominator)
                            for v in level[d1][1:max(t - 2 * d1 + 1, 1)]]
            row += [sealed[t - d1 - d2][d2] for d2 in range(len(row), t - d1)]
            sealed.append(row)
        table[t] = sealed

    def _rescale(self, t: int):
        """Sum the m3 reads over level t's denominator from here on."""
        table = self._m3
        den = table[t][0]
        self._den = den
        self._factors = None if den == 1 else [den // level[0] for level in table[:t + 1]]

    # -- public counts -----------------------------------------------------

    def n1B(self, beta, mu1: CohClass | None = None, mu2: CohClass | None = None):
        """Curves of class beta through two H^2 insertions (base count).
        Each insertion defaults to the unit class."""
        return self._count(self._n1B, (beta,), self._c_n1B, ((mu1, 2), (mu2, 2)))

    def n1C(self, beta, mu: CohClass | None = None):
        """1-component count with one cotangent power on an H^2 insertion,
        by default the unit class."""
        return self._count(self._n1C, (beta,), self._c_n1C, ((mu, 2),))

    def n1D(self, beta, mu1: CohClass | None = None, mu2: CohClass | None = None):
        """Cotangent power on an H insertion, plus a free H^2 insertion.
        Each insertion defaults to the unit class."""
        return self._count(self._n1D, (beta,), self._c_n1D, ((mu1, 1), (mu2, 2)))

    def n1E(self, beta, mu: CohClass | None = None):
        """Second cotangent power on an H insertion, by default the unit
        class."""
        return self._count(self._n1E, (beta,), self._c_n1E, ((mu, 1),))

    def n1F(self, beta, mu: CohClass | None = None):
        """Second cotangent power at one point, H^2 insertion at another,
        by default the unit class."""
        return self._count(self._n1F, (beta,), self._c_n1F, ((mu, 2),))

    def n1G(self, beta):
        """Third cotangent power, no insertions."""
        return self._count(self._n1G, (beta,), self._c_n1G)

    def gamma1(self, beta):
        """Chern number of the 2-dimensional family of beta-curves:
        the integral of c1^2 - c2 of the family."""
        return self._count(self._gamma1, (beta,), self._c_gamma1)

    def n2A(self, beta1, beta2, mu: CohClass | None = None):
        """2-component curves with an H^2 insertion on the second component,
        by default the unit class."""
        return self._count(self._n2A, (beta1, beta2), self._c_n2A, ((mu, 2),))

    def n2B(self, beta1, beta2, mu: CohClass | None = None):
        """2-component curves with the node on an H divisor, by default the
        unit class."""
        return self._count(self._n2B, (beta1, beta2), self._c_n2B, ((mu, 1),))

    def n2C(self, beta1, beta2):
        """2-component curves with a cotangent class at the node, taken on
        the second-component side."""
        return self._count(self._n2C, (beta1, beta2), self._c_n2C)

    def n2D(self, beta1, beta2, mu: CohClass | None = None):
        """2-component curves, cotangent power on an H insertion carried
        by the second component, by default the unit class."""
        return self._count(self._n2D, (beta1, beta2), self._c_n2D, ((mu, 1),))

    def n2E(self, beta1, beta2):
        """2-component curves with a second cotangent power on the second
        component."""
        return self._count(self._n2E, (beta1, beta2), self._c_n2E)

    def gamma2(self, beta1, beta2):
        """Chern-type combination for 2-component configurations; appears in
        the excess corrections of the diagonal-splitting recursions."""
        return self._count(self._gamma2, (beta1, beta2), self._c_gamma2)

    def m3(self, beta1, beta2, beta3):
        """Chains of three rational curves with consecutive components
        meeting at nodes."""
        # most keys are m3: a valid call at or below the filled level (so at
        # most max_degree) is answered from the level table in this frame
        if (type(beta1) is type(beta2) is type(beta3) is int and beta1 > 0 and beta2 > 0
                and beta3 > 0 and beta1 + beta2 + beta3 <= self._level):
            level = self._m3[beta1 + beta2 + beta3]
            row = level[beta1]
            value = row[beta2]
            if value is None:
                value = row[beta2] = self._c_m3(beta1, beta2, beta3)
                self.memo._size += 1
                return value
            return _ratio(value, level[0])
        # anything else is refused, or lies above the filled level, and the
        # fill stores it
        self._fill(self._degrees((beta1, beta2, beta3)))
        level = self._m3[beta1 + beta2 + beta3]
        return _ratio(level[beta1][beta2], level[0])

    def chern_integral(self, beta):
        """Integral of 2c2 - c1^2 over the family of embedded beta-curves:
        the genus-1 multiple-cover weight of the family."""
        return self._count(self._chern, (beta,), self._c_chern)

    # -- canonical computations (unit insertions) ---------------------------
    #
    # Each returns the weighted sum of its (weight, value) terms.

    def _c_n1B(self, d: int):
        return self._n2pt[d]

    def _c_n1C(self, d: int):
        n2A = self._n2A
        terms = [(1, self._n1B[d]), (-2 * d, self._n1pt[d])]
        terms += [(a * a, n2A[a][d - a]) for a in range(1, d)]
        return _weighted_sum(terms, d * d)

    def _c_n1D(self, d: int):
        n2A = self._n2A
        # d * n1B - 2d * n1B: the second term's insertions are H*H and H^2
        terms = [(-d, self._n1B[d])]
        terms += [(a * (d - a) ** 2 + (d - a) * a * a, n2A[a][d - a]) for a in range(1, d)]
        return _weighted_sum(terms, d * d)

    def _c_n1E(self, d: int):
        n2B, n2D = self._n2B, self._n2D
        terms = [(1, self._n1D[d]), (-2 * d, self._n1C[d])]
        for a in range(1, d):
            terms += ((a * a, n2D[a][d - a]), (a * a, n2B[a][d - a]))
        return _weighted_sum(terms, d * d)

    def _c_n1F(self, d: int):
        return _weighted_sum((-1, self._n2A[a][d - a]) for a in range(1, d))

    def _c_n1G(self, d: int):
        n2C, n2E = self._n2C, self._n2E
        terms = [(1, self._n1F[d]), (-2 * d, self._n1E[d])]
        for a in range(1, d):
            terms += ((a * a, n2E[a][d - a]), (a * a, n2C[a][d - a]))
        return _weighted_sum(terms, d * d)

    def _c_gamma1(self, d: int):
        # twice the count, so that its halves stay integral until one division
        c2, n2C, n2E = self._c2, self._n2C, self._n2E
        terms = [(self._c3, self._n1pt[d]), (1, self._n1G[d]), (c2, self._n1C[d]),
                 (c2 * c2, self._n1B[d]), (4 * c2, self._n1F[d])]
        for a in range(1, d):
            terms += ((-4, n2E[a][d - a]), (-5, n2C[a][d - a]))
        return _weighted_sum(terms, 2)

    def _c_n2A(self, d1: int, d2: int):
        n2A = self._n2A
        terms = [] if self._n2pt_t5 is None else [(self._n1pt[d1], self._n2pt_t5[d2])]
        if d2 > d1:
            terms += [(1, n2A[d1][d2 - d1]), (1, n2A[d2 - d1][d1])]
        elif d2 < d1:
            terms.append((1, n2A[d1 - d2][d2]))
        else:
            terms += [(self._c2, self._n1B[d1]), (2, self._n1F[d1])]
        return _weighted_sum(terms)

    def _c_n2B(self, d1: int, d2: int):
        # base - sum - C2 as (2 C2 + 2 sum - 2 base) / -2; both m3 sums are
        # summed on their numerators over D_{d1 + d2}, the others are terms
        n2B, n2D, m3, factors = self._n2B, self._n2D, self._m3, self._factors
        terms, num = [], 0
        # the excess correction C2 with mu = H (linear in mu like everything
        # else), symmetric in its degrees, as the terms of 2 C2
        lo, hi = min(d1, d2), max(d1, d2)
        if hi > lo:
            gap = hi - lo
            terms += ((2, n2D[gap][lo]), (2, n2B[gap][lo]), (2 * lo, self._gamma2[gap][lo]))
            level = m3[hi]
            for p in range(1, gap):
                num += level[p][lo]
            num *= lo if factors is None else lo * factors[hi]
        else:
            # the 1-pointed count against c2*H, which is c2 * n1pt[d1], and
            # n1D(d1, H, c2): both linear in c2
            terms += ((2, self._n1E[lo]), (2 * lo, self._gamma1[lo]),
                      (2 * self._c2, self._n1pt[lo]), (2 * self._c2, self._n1D[lo]))
            for p in range(1, hi):
                terms += ((-4, n2D[p][hi - p]), (-5, n2B[p][hi - p]))
        t = d1 + d2
        for c in range(1, lo):
            v = m3[t - c][d1 - c][c]
            num += 2 * c * (v if factors is None else v * factors[t - c])
        if self._n1pt_t5 is not None:
            terms.append((-2 * self._n1pt[d1], self._n1pt_t5[d2]))
        return _weighted_sum(terms, -2, num, self._den)

    def _row(self, d1: int, d2: int):
        """The m3 row v_p = m3(d1, d2 - p, p), p = 1..d2-1, summed in one pass
        with the weights of n2C (p^2), n2D (p(d2-p)^2 + (d2-p)p^2 = d2 p (d2-p))
        and n2E (1).

        Returns ``[num_C, num_D, num_E, den]``, three numerators over the
        level's denominator D_{d1 + d2}, from the sums s_k = sum p^k v_p of
        the sealed numerators as s2, d2 (d2 s1 - s2), s0.  The fill
        computes n2C, n2D and n2E of one (d1, d2) back to back, so one
        cached row serves all three."""
        key, row = self._last_row
        if key != (d1, d2):
            s0 = s1 = s2 = 0
            level = self._m3[d1 + d2]
            # v_p is m3_row[d2 - p]; for d2 = 1 the row is empty and level
            # d1 + 1 has no list d1
            m3_row = level[d1] if d2 > 1 else None
            for p in range(1, d2):
                v = m3_row[d2 - p]
                pv = p * v
                s0 += v
                s1 += pv
                s2 += p * pv
            row = [s2, d2 * (d2 * s1 - s2), s0, level[0]]
            self._last_row = ((d1, d2), row)
        return row

    def _c_n2C(self, d1: int, d2: int):
        terms = ((1, self._n2A[d1][d2]), (-2 * d2, self._n2B[d1][d2]))
        row = self._row(d1, d2)
        return _weighted_sum(terms, d2 * d2, row[0], row[3])

    def _c_n2D(self, d1: int, d2: int):
        # the cotangent reduction on the second component pairs the divisor
        # with that component's class, hence d2 * n2A; the second term,
        # -2 d2 * n2A, has the insertion H*H
        row = self._row(d1, d2)
        return _weighted_sum(((-d2, self._n2A[d1][d2]),), d2 * d2, row[1], row[3])

    def _c_n2E(self, d1: int, d2: int):
        row = self._row(d1, d2)
        return _ratio(-row[2], row[3])

    def _c_gamma2(self, d1: int, d2: int):
        n2C = self._n2C
        return _weighted_sum(((self._c2, self._n2A[d1][d2]), (2, self._n2E[d1][d2]),
                              (1, n2C[d1][d2]), (1, n2C[d2][d1])))

    def _c_m3(self, d1: int, d2: int, d3: int):
        # base - C1 - C2 - C12, with the excess corrections C1 = x1,
        # C2 = -(x2 + x3) and C12 = -x4: each x is an m3 read from level l
        # (m3(a, b, c) is m3[a + b + c][a][b], a numerator over D_l) or,
        # where its correction has no m3 chain, terms of stored values
        m3 = self._m3
        if d1 > d3:
            # the reversed chain, stored earlier in this level's ascending rows
            return m3[d1 + d2 + d3][d3][d2]
        # the base term n2A * n1pt[d3] / t5
        terms = [] if self._n1pt_t5 is None else [(self._n2A[d1][d2], self._n1pt_t5[d3])]
        x1 = x2 = x3 = x4 = l1 = l2 = l3 = l4 = 0

        if d3 > d1:
            l1 = d3 + d2
            x1 = m3[l1][d3 - d1][d1]
        else:
            terms.append((-1, self._gamma2[d2][d1]))

        if d3 > d2:
            l2 = d1 + d3
            x2 = m3[l2][d1][d2]
        elif d3 < d2:
            l2 = l3 = d1 + d2
            row = m3[l2][d1]
            x2, x3 = row[d3], row[d2 - d3]
        else:
            # n2A(d1, d2, c2) + 2 n2E(d1, d2)
            terms += ((self._c2, self._n2A[d1][d2]), (2, self._n2E[d1][d2]))

        if d3 > d1 + d2:
            l4 = d3
            x4 = m3[d3][d3 - d1 - d2][d1]
        elif d2 < d3 < d1 + d2:
            l4 = d1 + d2
            x4 = m3[l4][d1 + d2 - d3][d3 - d2]
        elif d3 == d1 + d2:
            terms.append((1, self._gamma2[d2][d1]))

        # the m3 reads over D_{t-1}, each level's numerators scaled to it
        factors = self._factors
        if factors is None:
            num = x2 + x3 + x4 - x1
            if not terms:
                return num
        else:
            num = x2 * factors[l2] + x3 * factors[l3] + x4 * factors[l4] - x1 * factors[l1]
        value = _weighted_sum(terms, 1, num, self._den)
        if type(value) is not int:
            self._m3_rational = True
        return value

    def _c_chern(self, d: int):
        # twice the integral, halved once at the end
        n2C = self._n2C
        terms = [(-2, self._n1G[d]), (-2 * self._c3, self._n1pt[d]), (-2 * self._c2, self._n1C[d])]
        for a in range(1, d):
            terms += ((1, n2C[a][d - a]), (1, n2C[d - a][a]))
        return _weighted_sum(terms, 2)
