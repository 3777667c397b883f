"""Geometric inputs consumed by the recursion engine.

A :class:`Geometry` bundles everything the engine needs about a
specific Calabi-Yau 5-fold with rank-1 curve cone: the truncated
cohomology ring, the Chern classes c2 and c3, the Kunneth diagonal
pairs used for node splitting, the genus-0 base counts (1- and
2-pointed, already multiple-cover inverted), and the genus-1
Gromov-Witten series.

The file-driven backend covers compact hypersurfaces: the required
Gromov-Witten input per degree is exactly three numbers (the 1-pointed
invariant against H^3, the 2-pointed invariant against (H^2, H^2),
and the genus-1 invariant); every other insertion combination either
vanishes for dimension reasons or is produced by the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .cohomology import CohClass, Ring
from .rational import Rat, parse_rational
from .series import DegreeSeries, invert_multi_cover

__all__ = [
    "Geometry",
    "GeometryFileError",
    "load_hypersurface_geometry",
    "hypersurface_chern",
    "linear_one_point",
    "linear_two_point",
]

GW_FILE_MAGIC = "cy5-gw v1"


class GeometryFileError(ValueError):
    """Malformed Gromov-Witten input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Geometry:
    """All geometric inputs for one target space.

    ``base_n1pt(d, mu)`` and ``base_n2pt(d, mu1, mu2)`` are linear in
    each cohomology argument and vanish unless the insertions have the
    unique H-powers that make the count dimensionally possible (3 for
    the 1-pointed count, 2 and 2 for the 2-pointed one).  Each
    :class:`~cy5bps.engine.Engine` calls them a few times per degree when
    it is built and keeps the values, so they must be pure functions.
    """

    ring: Ring
    c2: CohClass
    c3: CohClass
    diagonal_pairs: tuple[tuple[CohClass, CohClass], ...]
    base_n1pt: Callable[[int, CohClass], object]
    base_n2pt: Callable[[int, CohClass, CohClass], object]
    gw_genus1: DegreeSeries
    max_degree: int


def linear_one_point(table: DegreeSeries) -> Callable[[int, CohClass], object]:
    """1-pointed base count: only the H^3 component of the insertion survives."""

    def n1pt(d: int, mu: CohClass):
        return mu.coefficient(3) * table[d]

    return n1pt


def linear_two_point(table: DegreeSeries) -> Callable[[int, CohClass, CohClass], object]:
    """2-pointed base count: only the (H^2, H^2) component pair survives."""

    def n2pt(d: int, mu1: CohClass, mu2: CohClass):
        return mu1.coefficient(2) * mu2.coefficient(2) * table[d]

    return n2pt


def hypersurface_chern(ambient_dim: int, hyp_degree: int) -> tuple[CohClass, CohClass]:
    """Chern classes c2, c3 of a Calabi-Yau hypersurface by adjunction.

    Expands (1+H)^(ambient_dim+1) / (1 + hyp_degree*H) and returns the
    H^2 and H^3 coefficients as classes in the hypersurface's ring.
    Requires hyp_degree == ambient_dim + 1 so that c1 vanishes.
    """
    if hyp_degree != ambient_dim + 1:
        raise ValueError(
            f"not Calabi-Yau: need hypersurface degree {ambient_dim + 1} "
            f"in P^{ambient_dim}, got {hyp_degree}"
        )
    m = ambient_dim + 1
    coeffs = [
        sum(
            Rat(math.comb(m, i)) * Rat(-hyp_degree) ** (j - i)
            for i in range(j + 1)
        )
        for j in range(4)
    ]
    if coeffs[1] != 0:
        raise ValueError("c1 did not vanish; inputs are not Calabi-Yau")
    ring = Ring(top_power=ambient_dim - 1)
    return ring.monomial(2, coeffs[2]), ring.monomial(3, coeffs[3])


def _parse_header_fields(line: str, lineno: int) -> dict[str, str]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise GeometryFileError(lineno, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key not in ("t5", "c2", "c3", "maxdeg"):
            raise GeometryFileError(lineno, f"unknown key {key!r}")
        if key in fields:
            raise GeometryFileError(lineno, f"duplicate key {key!r}")
        fields[key] = value
    for key in ("t5", "c2", "c3", "maxdeg"):
        if key not in fields:
            raise GeometryFileError(lineno, f"missing key {key!r}")
    return fields


def _parse_gw_file(path) -> tuple[object, object, object, int, dict[int, tuple]]:
    """Returns (t5, c2 coeff, c3 coeff, maxdeg, {d: (N0 1pt, N0 2pt, N1)})."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, line.strip()) for i, line in enumerate(raw) if line.strip()]
    if not lines or lines[0][1] != GW_FILE_MAGIC:
        lineno = lines[0][0] if lines else 1
        raise GeometryFileError(lineno, f"expected header {GW_FILE_MAGIC!r}")
    if len(lines) < 2:
        raise GeometryFileError(lines[0][0], "missing parameter line")

    lineno, header = lines[1]
    fields = _parse_header_fields(header, lineno)
    try:
        t5 = parse_rational(fields["t5"])
        c2 = parse_rational(fields["c2"])
        c3 = parse_rational(fields["c3"])
    except ValueError as exc:
        raise GeometryFileError(lineno, str(exc)) from None
    try:
        maxdeg = int(fields["maxdeg"])
    except ValueError:
        raise GeometryFileError(lineno, f"malformed maxdeg {fields['maxdeg']!r}") from None
    if maxdeg < 1:
        raise GeometryFileError(lineno, f"maxdeg must be >= 1, got {maxdeg}")
    if t5 == 0:
        raise GeometryFileError(lineno, "t5 must be nonzero")

    rows: dict[int, tuple] = {}
    expected = 1
    for lineno, line in lines[2:]:
        parts = line.split()
        if len(parts) != 4:
            raise GeometryFileError(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            d = int(parts[0])
        except ValueError:
            raise GeometryFileError(lineno, f"malformed degree {parts[0]!r}") from None
        if d != expected:
            raise GeometryFileError(lineno, f"expected degree {expected}, got {d}")
        if d > maxdeg:
            raise GeometryFileError(lineno, f"degree {d} exceeds maxdeg {maxdeg}")
        try:
            values = tuple(parse_rational(p) for p in parts[1:])
        except ValueError as exc:
            raise GeometryFileError(lineno, str(exc)) from None
        rows[d] = values
        expected += 1
    if expected <= maxdeg:
        last = lines[-1][0] if lines else 1
        raise GeometryFileError(last, f"missing degree {expected} of 1..{maxdeg}")
    return t5, c2, c3, maxdeg, rows


def load_hypersurface_geometry(path, max_degree: int) -> Geometry:
    """Load a compact hypersurface geometry from a Gromov-Witten input file.

    The file supplies the top intersection number, the c2/c3
    coefficients, and per degree the three required Gromov-Witten
    numbers.  The genus-0 columns are multiple-cover inverted here
    (1-pointed with k=1, 2-pointed with k=2), so the engine sees
    integer-type base counts.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    t5, c2_coeff, c3_coeff, maxdeg, rows = _parse_gw_file(path)
    if max_degree > maxdeg:
        raise GeometryFileError(
            1, f"file covers degrees 1..{maxdeg}, need 1..{max_degree}"
        )

    ring = Ring(top_power=5, top_integral=t5)
    H2, H3 = ring.H(2), ring.H(3)
    gw_1pt = DegreeSeries({d: rows[d][0] for d in range(1, max_degree + 1)}, max_degree)
    gw_2pt = DegreeSeries({d: rows[d][1] for d in range(1, max_degree + 1)}, max_degree)
    gw_g1 = DegreeSeries({d: rows[d][2] for d in range(1, max_degree + 1)}, max_degree)

    return Geometry(
        ring=ring,
        c2=ring.monomial(2, c2_coeff),
        c3=ring.monomial(3, c3_coeff),
        diagonal_pairs=((H2, H3.scaled(1 / Rat(t5))), (H3, H2.scaled(1 / Rat(t5)))),
        base_n1pt=linear_one_point(invert_multi_cover(gw_1pt, k=1)),
        base_n2pt=linear_two_point(invert_multi_cover(gw_2pt, k=2)),
        gw_genus1=gw_g1,
        max_degree=max_degree,
    )
