"""Top-level genus-1 pipeline and the conjectured closed form.

``compute_bps_table`` runs the engine over all degrees, assembles the
per-degree Chern integrals, and extracts the two integer-conjectured
genus-1 tables from the genus-1 Gromov-Witten series.

For the local P^2 geometry the resulting integers are conjectured to
be given by a closed form S(d) * V(d), where S is a sign built from
the Moebius function (with a twist at d = 4 mod 8) and V is a product
of quadratic expressions in the odd part of d; the table vanishes at
every multiple of 8.  ``martin_check`` compares computed against
predicted values and reports rather than asserts, so a mismatch
surfaces as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import Engine
from .geometry import Geometry
from .rational import Rat, is_integer
from .series import (
    DegreeSeries,
    check_degree,
    extract_genus1_bps,
    extract_genus1_bps_tilde,
    moebius,
)

__all__ = ["BpsReport", "compute_bps_table", "martin_S", "martin_V", "MartinRow", "martin_check"]


@dataclass(frozen=True)
class BpsReport:
    """Genus-1 tables for one geometry up to a degree bound."""

    max_degree: int
    n1: DegreeSeries
    n1_tilde: DegreeSeries
    chern: DegreeSeries
    integrality_failures: tuple[int, ...]


def compute_bps_table(
    geometry: Geometry, max_degree: int, engine: Engine | None = None
) -> BpsReport:
    """Compute Chern integrals for every degree and extract both genus-1
    tables.  ``engine`` (default: a fresh ``Engine(geometry)``) lets a
    caller reuse its memo for further counts.
    """
    check_degree(max_degree, "max_degree")
    if max_degree > geometry.max_degree:
        raise ValueError(
            f"max_degree {max_degree} exceeds geometry max_degree {geometry.max_degree}"
        )
    if engine is None:
        engine = Engine(geometry)
    elif engine.geometry is not geometry:
        raise ValueError("engine was built for a different geometry")
    chern_values = [engine.chern_integral(d) for d in range(1, max_degree + 1)]
    chern = DegreeSeries(dict(enumerate(chern_values, start=1)), max_degree)
    gw1 = geometry.gw_genus1.truncated(max_degree)
    n1 = extract_genus1_bps(gw1, chern)
    n1_tilde = extract_genus1_bps_tilde(gw1, chern)
    failures = tuple(d for d in n1 if not is_integer(n1[d]))
    return BpsReport(
        max_degree=max_degree,
        n1=n1,
        n1_tilde=n1_tilde,
        chern=chern,
        integrality_failures=failures,
    )


def martin_S(d: int) -> int:
    """Sign factor: moebius(d), except moebius(d/4) when d = 4 mod 8."""
    check_degree(d)
    if d % 8 == 4:
        return moebius(d // 4)
    return moebius(d)


def martin_V(d: int):
    """Magnitude factor, by the 2-adic valuation of d.

    With d = k, 2k or 4k for odd k the value is (k^2-1)/8 times
    (k^2-1)/8, (17k^2+7)/8 or 2k^2+1 respectively; for multiples of 8
    the sign factor vanishes and V returns 0 by convention so that the
    product S*V is total.
    """
    check_degree(d)
    k = d
    twos = 0
    while k % 2 == 0:
        k //= 2
        twos += 1
    base = Rat(k * k - 1, 8)
    if twos == 0:
        return base * base
    if twos == 1:
        return base * Rat(17 * k * k + 7, 8)
    if twos == 2:
        return base * Rat(2 * k * k + 1)
    return Rat(0)


class MartinRow(NamedTuple):
    degree: int
    computed: object
    predicted: object
    match: bool


def martin_check(report: BpsReport) -> list[MartinRow]:
    """Compare every computed n1 value against the closed form S(d)*V(d).

    Multiples of 8 must come out exactly zero; that case is covered by
    the comparison since S vanishes there.
    """
    rows = []
    for d in report.n1:
        predicted = martin_S(d) * martin_V(d)
        computed = report.n1[d]
        match = computed == predicted
        if d % 8 == 0:
            match = match and computed == 0
        rows.append(MartinRow(d, computed, predicted, match))
    return rows
