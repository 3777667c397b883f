"""The excess-intersection corrections of the meeting-number recursions,
evaluated from public count calls only, as an oracle for the engine.

The engine subtracts C2 inside the node-on-divisor count n2B and C1, C2
and C12 inside the 3-component chain m3; it exposes no correction.  These
functions rebuild each correction from its case table with plain
``Fraction`` arithmetic and the engine's public counts and geometry data,
so a check built on them shares no code with the engine's formulas:

    n2B(d1, d2, H) = n1pt[d1] n1pt[d2] / t5
                     - sum_{c < min(d1, d2)} c m3(d1 - c, c, d2 - c) - C2(d1, d2)
    m3(d1, d2, d3) = n2A(d1, d2, H^2) n1pt[d3] / t5 - C1 - C2 - C12

where a base term is 0 when the ring has no top integral t5.
"""

from fractions import Fraction


def correction_C2(engine, d1, d2):
    """C2(d1, d2) with mu = H for the node-on-divisor count; symmetric in
    its degrees."""
    g = engine.geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    d1, d2 = min(d1, d2), max(d1, d2)
    if d2 > d1:
        gap = d2 - d1
        chains = sum((engine.m3(p, d1, gap - p) for p in range(1, gap)), Fraction(0))
        return (engine.n2D(gap, d1, H) + engine.n2B(gap, d1, H)
                + d1 * engine.gamma2(gap, d1) + d1 * chains / 2)
    # the 1-pointed count against c2*H and n1D against the class c2*H^2,
    # which is c2 times n1D against H^2 by linearity
    splits = sum((4 * engine.n2D(p, d2 - p, H) + 5 * engine.n2B(p, d2 - p, H)
                  for p in range(1, d2)), Fraction(0))
    return (engine.n1E(d1, H) + d1 * engine.gamma1(d1) + g.c2 * g.n1pt[d1]
            + g.c2 * engine.n1D(d1, H, H2) - splits / 2)


def n2B_formula(engine, d1, d2):
    """n2B(d1, d2, H) as base - sum - C2, in the order of its degrees given."""
    g = engine.geometry
    t5 = g.ring.top_integral
    base = 0 if t5 is None else Fraction(g.n1pt[d1]) * g.n1pt[d2] / t5
    chains = sum(c * Fraction(engine.m3(d1 - c, c, d2 - c)) for c in range(1, min(d1, d2)))
    return base - chains - correction_C2(engine, d1, d2)


def corrections_C3(engine, d1, d2, d3):
    """(C1, C2, C12)(d1, d2, d3) for the 3-component meeting number."""
    g = engine.geometry
    m3 = engine.m3
    if d3 > d1:
        c1 = m3(d3 - d1, d1, d2)
    elif d3 < d1:
        c1 = m3(d1 - d3, d3, d2)
    else:
        c1 = engine.gamma2(d2, d1)

    if d3 > d2:
        c2 = -m3(d1, d2, d3 - d2)
    elif d3 < d2:
        c2 = -m3(d1, d3, d2 - d3) - m3(d1, d2 - d3, d3)
    else:
        c2 = -(g.c2 * engine.n2A(d1, d2, g.ring.H(2)) + 2 * engine.n2E(d1, d2))

    if d3 > d1 + d2:
        c12 = -m3(d3 - d1 - d2, d1, d2)
    elif d2 < d3 < d1 + d2:
        c12 = -m3(d1 + d2 - d3, d3 - d2, d2)
    elif d3 == d1 + d2:
        c12 = -engine.gamma2(d2, d1)
    else:
        c12 = 0
    return Fraction(c1), Fraction(c2), Fraction(c12)


def m3_formula(engine, d1, d2, d3):
    """m3(d1, d2, d3) as base - C1 - C2 - C12, from the full case table."""
    g = engine.geometry
    t5 = g.ring.top_integral
    base = 0 if t5 is None else Fraction(engine.n2A(d1, d2, g.ring.H(2))) * g.n1pt[d3] / t5
    c1, c2, c12 = corrections_C3(engine, d1, d2, d3)
    return base - c1 - c2 - c12
