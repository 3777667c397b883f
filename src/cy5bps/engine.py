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
m3 by ascending d1 then d2, then for each (d1, d2) by ascending d1
n2A, n2B, n2C, n2D and n2E, then n1B, n1C, n1D, n1F, n1E, n1G; chern,
which nothing reads, only when called.  A miss at total degree T first
fills every unfilled level up to T, so a cold call needs a few frames
and the recursion limit is never touched.

m3 is symmetric under reversing the chain, so m3(d1, d2, d3) with
d1 > d3 is the object already stored for m3(d3, d2, d1), a row filled
earlier in the same level: the fill stores that object, and the formula
runs for the canonical chains d1 <= d3 only.  n2B is symmetric too: for
d1 > d2, n2B(d1, d2) takes the numerator that n2B(d2, d1) stored earlier
in the level, and the formula runs for d1 <= d2 only.

A public call is a validated lookup: the degrees are checked in one
pass and index the kind's table, and an insertion passed is checked to
be the unit class that leaving it out (or None) means; every formula
reads its terms by index.  m3, most of the keys (161,700 of 189,650 at
degree 100), answers a valid call at or below the filled level in its
own frame.  The fill stores every key, reversed m3 chains and swapped
n2B pairs too, by one call of its public method, looked up on the
class, and that call stores its own key: ``perfbench/tracer.py`` counts
the entries of each kind by wrapping those methods and watching
``len(engine.memo)`` grow.  An interrupted level keeps the values it
stored, and its refill stores the rest over the same denominators.

m3 and the two-degree kinds store an integer numerator over one
denominator per level, fixed when the level opens from the denominators
of the terms its formulas read: D_t = ``_m3[t][0]`` for m3 at t = d1 +
d2 + d3, D_s dividing D_t for s <= t, and P_t = ``_n2A[0][t]``, a row
that n2A-n2E share, at t = d1 + d2, with headroom for n2B's divisor -2
and n2C's and n2D's d2^2.  So every formula is an int multiply-add, each
read scaled by one factor per level.  An m3 level is written once: D_t
is the lcm of D_{t-1} and the level denominators its chains read, and is
not reduced, so it may lie above the least one.  A two-degree level is
closed when its loop ends: all five kinds' numerators and P_t are
divided by their common factor, so the headroom does not spread to the
levels that read it.  gamma2(a, b), filled at level a + 2b, is over
G_{a+b} = ``_gamma2[0][a + b]``, c2's denominator times the closed
P_{a+b}.  A read through a count method or the memo divides, so it
returns the reduced value; the fill's own call of m3 or of a two-degree
kind returns None.
Every level takes this path, even when all its terms are integral, as
on local P^2: a two-degree level is opened with its headroom and closes
back to denominator 1, and an m3 level at D_t = 1 scales each read by 1.

A 1-component count is one exact expression in stored values, each
two-degree sum taken on its numerators and divided once.  n2C, n2D and
n2E sum the same m3 row m3(d1, d2-p, p) in one pass, kept in a one-slot
cache since the fill computes them in a row.

Every insertion the formulas use is one power of H, so the geometry
enters only as the scalars c2 and c3, its two base tables, and their
1/t5 multiples: a compact ring's Kunneth diagonal pairs H^2 with H^3/t5,
so each diagonal term is one product of base-table entries divided by
t5.  A local ring's 1/t5 tables are zeros, so no formula branches on
the geometry.
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
    q, r = divmod(num, den)
    return Rat(num, den) if r else q


def _div(x, n: int):
    """The exact quotient x / n of an int or Rat x, normalised."""
    return _ratio(x, n) if type(x) is int else _norm(x / n)


def _numerator(den: int, x, y=1) -> int:
    """The numerator of x * y over den, a multiple of their denominators."""
    return x.numerator * y.numerator * (den // (x.denominator * y.denominator))


# each stored kind and its number of degrees, in the memo's iteration order
_KINDS = {"n1B": 1, "n1C": 1, "n1D": 1, "n1E": 1, "n1F": 1, "n1G": 1, "gamma1": 1,
          "n2A": 2, "n2B": 2, "n2C": 2, "n2D": 2, "n2E": 2, "gamma2": 2, "m3": 3, "chern": 1}


class _Memo(Mapping):
    """Read-only mapping of an engine's stored counts, ``(kind, *degrees)``
    to the count with unit insertions.

    ``_tables`` holds each kind's index table: ``[d]``, ``[d1][d2]`` with
    d1 + d2 <= max_degree over the level's denominator ``[0][d1 + d2]``, a
    row 0 that n2A-n2E share, or m3's levels, starting from level 0.  The
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
                               else [[None] * (max_degree + 1)]
                               + [[None] * (max_degree + 1 - d1) for d1 in rows])
                        for kind, ndeg in _KINDS.items()}
        for kind in ("n2B", "n2C", "n2D", "n2E"):
            self._tables[kind][0] = self._tables["n2A"][0]

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
                    return value if len(key) == 2 else _ratio(value, table[0][total])
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
    count with unit insertions, over the kinds' index tables.  An m3 or
    two-degree value is stored as a numerator over its level's
    denominator, so on the rational path each read of it, through its
    method or ``memo``, builds a new :data:`Rat` equal to the last.  Every
    public call validates its degrees and insertions, hit or miss, before
    it indexes a table.  A miss at total degree T first fills every
    unfilled level up to T, each key by a public call with its degrees
    only, which stores at most its own key, so a wrapper on a public
    method sees each stored key exactly once.  A fill call costs its
    validation, one read of an empty slot, the compute function (looked
    up on the instance; a reversed m3 chain reads its canonical row
    instead) and the store; the fill's call of m3 or of a two-degree
    kind returns None, as it stores a numerator.  An
    interrupted level stays unfilled, its values stored over the
    denominators its refill reuses.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.memo = _Memo(geometry.max_degree)
        # each kind's table as self._<kind>: _n1B[d], _n2A[d1][d2] over
        # _n2A[0][d1 + d2], and _m3[t][d1][d2] for m3(d1, d2, t - d1 - d2) over
        # _m3[t][0] (None until stored); at most 29 attributes, as CPython 3.11
        # shares an instance dict's keys, and specializes reads on them, below 30
        for kind, table in self.memo._tables.items():
            setattr(self, "_" + kind, table)
        # misses at total degree <= _level compute from the memo: the levels
        # below it are filled, and _level itself is filled or being filled
        self._level = 0
        # the m3 loop's factors, _factors[s] = D_t // D_s (all 1 while D_t is
        # 1) and the base term factors _q[d3] = n1pt_t5[d3] * D_t / P_{t-d3}
        # (all 0 on a local ring)
        self._factors = self._q = None
        # the pair loop's (P_t / 2, P_t / D_t)
        self._scales = None
        # the last m3 row summed: ((d1, d2), [num_C, num_D, num_E])
        self._last_row = (None, None)

        self._c2 = _norm(geometry.c2)
        self._c3 = _norm(geometry.c3)
        # base tables indexed by degree (entry 0 unused), and their 1/t5
        # multiples for the diagonal terms: zeros on a local ring, which has
        # no diagonal
        degrees = range(1, geometry.max_degree + 1)
        self._n1pt = [0] + [_norm(geometry.n1pt[d]) for d in degrees]
        t5 = geometry.ring.top_integral
        inverse = 0 if t5 is None else 1 / t5
        self._n1pt_t5 = [0] + [_norm(self._n1pt[d] * inverse) for d in degrees]
        self._n2pt_t5 = [0] + [_norm(geometry.n2pt[d] * inverse) for d in degrees]

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

    def _count(self, table, betas: tuple, compute, insertions=(), lag=0):
        """Answer a public call for the degrees ``betas`` of the kind stored
        in ``table``: validate the degrees and the (mu, power) insertions,
        None being the unit class, then return the stored value, computing
        and storing it on a miss.  A two-degree value is a numerator over its
        level's ``table[0][total]``; the fill's own call, at level total +
        ``lag``, returns None."""
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
                if len(betas) == 2 and total + lag == self._level:
                    return None
        return value if len(betas) == 1 else _ratio(value, table[0][total])

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
                self._open(t)
                m3 = self.m3
                for d1 in range(1, t - 1):
                    for d2 in range(1, t - d1):
                        m3(d1, d2, t - d1 - d2)
                for d1 in range(1, t):
                    d2 = t - d1
                    self.n2A(d1, d2)
                    self.n2B(d1, d2)
                    self.n2C(d1, d2)
                    self.n2D(d1, d2)
                    self.n2E(d1, d2)
                self._close_pairs(t)
                self.n1B(t)
                self.n1C(t)
                self.n1D(t)
                self.n1F(t)
                self.n1E(t)
                self.n1G(t)
            except BaseException:
                self._level = t - 1
                raise

    def _open(self, t: int):
        """Fix every level-t denominator, unless an interrupted fill left
        them, and set what the level's loops scale by: the m3 loop's
        ``_factors`` and ``_q``, and the pair loop's ``_scales``.

        D_t = lcm(D_{t-1}, P_s * p_{t-s} for s = 2..t-1, G_s for s =
        ceil(t/2)..t-1), the denominators of the terms of ``_c_m3``, with P_s
        = ``_n2A[0][s]``, G_s = ``_gamma2[0][s]`` and p_d n1pt_t5[d]'s.  So
        D_t holds every P_s and G_s the pair formulas read, and P_t = 2 L
        lcm(D_t, the denominators of n2A's and n2B's n1pt products and, for
        even t, of their level-t/2 1-component terms) with L = lcm(d^2 for
        d < t) = lcm(1, .., t-1)^2: n2B's halving and n2C's and n2D's
        division by d2^2 are exact on the numerators, and the close takes
        out the headroom.
        Neither reads a count of level t but D_t, so both are fixed before
        the level's first count.  Nothing rewrites a stored level, so a level
        left by an interrupted fill keeps D_t, P_t and its numerators over
        them."""
        m3, c2, n1pt, t5 = self._m3, self._c2, self._n1pt, self._n1pt_t5
        P, G = self._n2A[0], self._gamma2[0]
        # the base terms' denominators P_{t-d3} * p_{d3}, d3 = 1..t-2
        base = [P[t - d3] * p.denominator for d3, p in enumerate(t5[1:t - 1], 1)]
        if len(m3) == t:
            # then the diagonal terms': gamma2 at levels t - d1 (d3 = d1) and
            # t/2 (d3 = d1 + d2); c2 n2A + 2 n2E at level t - d2 (d3 = d2 >= d1)
            # is over G_{t-d2} too, and t/2 < t - d2 < t
            m3.append([lcm(m3[t - 1][0], *base, *G[(t + 1) // 2:t])]
                      + [[None] * (t - d1) for d1 in range(1, t - 1)])
        D = m3[t][0]
        self._factors = [D // level[0] for level in m3[:t + 1]]
        self._q = [0] + [p.numerator * (D // den) for p, den in zip(t5[1:t - 1], base)]
        if P[t] is None:
            dens = [n1pt[d1].denominator
                    * lcm(self._n2pt_t5[t - d1].denominator, t5[t - d1].denominator)
                    for d1 in range(1, t)]
            if t % 2 == 0:
                h = t // 2
                dens += (c2.denominator * self._n1B[h].denominator, self._n1F[h].denominator,
                         self._n1E[h].denominator, self._gamma1[h].denominator,
                         c2.denominator * n1pt[h].denominator,
                         c2.denominator * self._n1D[h].denominator)
            P[t] = 2 * lcm(*range(1, t)) ** 2 * lcm(D, *dens)
        self._scales = (P[t] // 2, P[t] // D)

    def _close_pairs(self, t: int):
        """Divide n2A-n2E's level-t numerators and their shared P_t by one
        gcd, and fix gamma2's G_t = c2's denominator * P_t.  Every reduced
        cell is computed before any is stored, so an exception leaves the
        level as it was.  Closing a closed level changes nothing."""
        tables, P = (self._n2A, self._n2B, self._n2C, self._n2D, self._n2E), self._n2A[0]
        cells = [table[d1][t - d1] for table in tables for d1 in range(1, t)]
        h = gcd(P[t], *cells)
        if h > 1:
            P[t], cells = P[t] // h, iter([v // h for v in cells])
            for table in tables:
                for d1 in range(1, t):
                    table[d1][t - d1] = next(cells)
        self._gamma2[0][t] = self._c2.denominator * P[t]

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
        # filled at level beta1 + 2 beta2
        return self._count(self._gamma2, (beta1, beta2), self._c_gamma2, (), beta2)

    def m3(self, beta1, beta2, beta3):
        """Chains of three rational curves with consecutive components
        meeting at nodes.  The fill's own call, which stores the value as a
        numerator over its level's denominator, returns None."""
        # most keys are m3: a valid call at or below the filled level (so at
        # most max_degree) is answered from the level table in this frame
        if (type(beta1) is type(beta2) is type(beta3) is int and beta1 > 0 and beta2 > 0
                and beta3 > 0 and beta1 + beta2 + beta3 <= self._level):
            level = self._m3[beta1 + beta2 + beta3]
            row = level[beta1]
            value = row[beta2]
            if value is not None:
                return _ratio(value, level[0])
            # only the fill's own call misses here: the levels below are whole,
            # and a reversed chain is the object of its row, filled earlier
            row[beta2] = level[beta3][beta2] if beta1 > beta3 else self._c_m3(beta1, beta2, beta3)
            self.memo._size += 1
            return None
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
    # A 1-component count returns its exact value, each two-degree sum taken
    # on its numerators; a two-degree count returns its numerator over its
    # level's denominator.

    def _level_sum(self, d: int, kinds: str, w=lambda a: a * a):
        """The sum of w(a) kind(a, d - a) over a = 1..d-1 and the two-degree
        kinds named in ``kinds``: an int numerator over their shared level-d
        denominator P_d, divided once."""
        tables = [self.memo._tables[kind] for kind in kinds.split()]
        return _ratio(sum(w(a) * table[a][d - a] for table in tables for a in range(1, d)),
                      self._n2A[0][d])

    def _c_n1B(self, d: int):
        return _norm(self.geometry.n2pt[d])

    def _c_n1C(self, d: int):
        return _div(self._n1B[d] - 2 * d * self._n1pt[d] + self._level_sum(d, "n2A"), d * d)

    def _c_n1D(self, d: int):
        # d * n1B - 2d * n1B (insertions H*H and H^2); n2A's a(d-a)^2 + (d-a)a^2
        return _div(self._level_sum(d, "n2A", lambda a: a * (d - a) * d) - d * self._n1B[d], d * d)

    def _c_n1E(self, d: int):
        return _div(self._n1D[d] - 2 * d * self._n1C[d] + self._level_sum(d, "n2D n2B"), d * d)

    def _c_n1F(self, d: int):
        return self._level_sum(d, "n2A", lambda a: -1)

    def _c_n1G(self, d: int):
        return _div(self._n1F[d] - 2 * d * self._n1E[d] + self._level_sum(d, "n2E n2C"), d * d)

    def _c_gamma1(self, d: int):
        # twice the count, so that its halves stay integral until one division
        c2 = self._c2
        return _div(self._c3 * self._n1pt[d] + self._n1G[d] + c2 * self._n1C[d]
                    + c2 * c2 * self._n1B[d] + 4 * c2 * self._n1F[d]
                    + self._level_sum(d, "n2E", lambda a: -4)
                    + self._level_sum(d, "n2C", lambda a: -5), 2)

    def _c_n2A(self, d1: int, d2: int):
        n2A, P, den = self._n2A, self._n2A[0], self._n2A[0][d1 + d2]
        num = _numerator(den, self._n1pt[d1], self._n2pt_t5[d2])
        if d2 > d1:
            return num + (n2A[d1][d2 - d1] + n2A[d2 - d1][d1]) * (den // P[d2])
        if d2 < d1:
            return num + n2A[d1 - d2][d2] * (den // P[d1])
        return num + _numerator(den, self._c2, self._n1B[d1]) + _numerator(den, 2, self._n1F[d1])

    def _c_n2B(self, d1: int, d2: int):
        # n2B is symmetric, and n2B(d2, d1) was stored earlier in the level
        if d1 > d2:
            return self._n2B[d2][d1]
        # base - sum - C2 as -(2 C2 + 2 sum - 2 base) / 2: x over b = P_t / 2,
        # with both m3 sums summed first over D_{d1 + d2}
        n2B, n2D, m3, factors = self._n2B, self._n2D, self._m3, self._factors
        P, b, num = n2B[0], self._scales[0], 0
        # the excess correction C2 with mu = H (linear in mu like everything
        # else), symmetric in its degrees, as the terms of 2 C2
        if d2 > d1:
            gap = d2 - d1
            x = 2 * ((n2D[gap][d1] + n2B[gap][d1]) * (b // P[d2])
                     + d1 * self._gamma2[gap][d1] * (b // self._gamma2[0][d2]))
            level = m3[d2]
            for p in range(1, gap):
                num += level[p][d1]
            num *= d1 * factors[d2]
        else:
            # the 1-pointed count against c2*H, which is c2 * n1pt[d1], and
            # n1D(d1, H, c2): both linear in c2
            c2 = self._c2
            x = 2 * (_numerator(b, self._n1E[d1]) + _numerator(b, d1, self._gamma1[d1])
                     + _numerator(b, c2, self._n1pt[d1]) + _numerator(b, c2, self._n1D[d1]))
            x -= (b // P[d2]) * sum(4 * n2D[p][d2 - p] + 5 * n2B[p][d2 - p] for p in range(1, d2))
        t = d1 + d2
        for c in range(1, d1):
            num += 2 * c * m3[t - c][d1 - c][c] * factors[t - c]
        x += num * (b // m3[t][0]) - 2 * _numerator(b, self._n1pt[d1], self._n1pt_t5[d2])
        return -x

    def _row(self, d1: int, d2: int):
        """The m3 row v_p = m3(d1, d2 - p, p), p = 1..d2-1, summed in one pass
        with the weights of n2C (p^2), n2D (p(d2-p)^2 + (d2-p)p^2 = d2 p (d2-p))
        and n2E (1): ``[num_C, num_D, num_E]`` over D_{d1 + d2}, from the sums
        s_k = sum p^k v_p of the level's numerators as s2, d2 (d2 s1 -
        s2), s0.  The fill computes n2C, n2D and n2E of one (d1, d2) back to
        back, so one cached row serves all three."""
        key, row = self._last_row
        if key != (d1, d2):
            s0 = s1 = s2 = 0
            # v_p is m3_row[d2 - p]; for d2 = 1 the row is empty and level
            # d1 + 1 has no list d1
            m3_row = self._m3[d1 + d2][d1] if d2 > 1 else None
            for p in range(1, d2):
                v = m3_row[d2 - p]
                pv = p * v
                s0 += v
                s1 += pv
                s2 += p * pv
            row = [s2, d2 * (d2 * s1 - s2), s0]
            self._last_row = ((d1, d2), row)
        return row

    def _c_n2C(self, d1: int, d2: int):
        # n2C's and n2D's divisions by d2^2 are exact: P_t holds lcm(1..t-1)^2
        return ((self._n2A[d1][d2] - 2 * d2 * self._n2B[d1][d2]
                 + self._row(d1, d2)[0] * self._scales[1]) // (d2 * d2))

    def _c_n2D(self, d1: int, d2: int):
        # the cotangent reduction on the second component pairs the divisor
        # with that component's class, hence d2 * n2A; the second term,
        # -2 d2 * n2A, has the insertion H*H
        return (self._row(d1, d2)[1] * self._scales[1] - d2 * self._n2A[d1][d2]) // (d2 * d2)

    def _c_n2E(self, d1: int, d2: int):
        return -self._row(d1, d2)[2] * self._scales[1]

    def _c_gamma2(self, d1: int, d2: int):
        # c2 n2A + 2 n2E + n2C + its swap, over G_s = c2's denominator * P_s
        c2, n2C = self._c2, self._n2C
        return (self._n2A[d1][d2] * c2.numerator
                + c2.denominator * (2 * self._n2E[d1][d2] + n2C[d1][d2] + n2C[d2][d1]))

    def _c_m3(self, d1: int, d2: int, d3: int):
        # base - C1 - C2 - C12 for d1 <= d3, as a numerator over D_t: each
        # correction term is an m3 read from level l < t (m3(a, b, c) is
        # m3[a + b + c][a][b], a numerator over D_l) times _factors[l], or,
        # where it has no m3 chain, the numerator over D_t of stored values
        m3, factors = self._m3, self._factors
        # the base term n2A * n1pt[d3] / t5: n2A's numerator over P_{d1+d2}
        # times _q[d3]
        num = self._n2A[d1][d2] * self._q[d3]

        if d3 > d1:  # -C1
            num -= m3[d3 + d2][d3 - d1][d1] * factors[d3 + d2]
        else:
            num -= self._gamma2[d2][d1] * (m3[d1 + d2 + d3][0] // self._gamma2[0][d1 + d2])

        if d3 > d2:  # -C2
            num += m3[d1 + d3][d1][d2] * factors[d1 + d3]
        elif d3 < d2:
            row = m3[d1 + d2][d1]
            num += (row[d3] + row[d2 - d3]) * factors[d1 + d2]
        else:
            # n2A(d1, d2, c2) + 2 n2E(d1, d2), over G_{d1 + d2}
            c2 = self._c2
            num += ((self._n2A[d1][d2] * c2.numerator + 2 * c2.denominator * self._n2E[d1][d2])
                    * (m3[d1 + d2 + d3][0] // self._gamma2[0][d1 + d2]))

        if d3 > d1 + d2:  # -C12
            num += m3[d3][d3 - d1 - d2][d1] * factors[d3]
        elif d2 < d3 < d1 + d2:
            num += m3[d1 + d2][d1 + d2 - d3][d3 - d2] * factors[d1 + d2]
        elif d3 == d1 + d2:
            num += self._gamma2[d2][d1] * (m3[2 * d3][0] // self._gamma2[0][d3])
        return num

    def _c_chern(self, d: int):
        return _norm(self._level_sum(d, "n2C", lambda a: 1) - self._n1G[d]
                     - self._c3 * self._n1pt[d] - self._c2 * self._n1C[d])
