"""Geometric inputs consumed by the recursion engine.

A :class:`Geometry` is plain data about one Calabi-Yau 5-fold with
rank-1 curve cone: the truncated cohomology ring (whose top integral
t5, when the model is compact, fixes the Kunneth diagonal), the
scalars c2 and c3, the genus-0 base tables (1-pointed against H^3 and
2-pointed against (H^2, H^2), already multiple-cover inverted), and the
genus-1 Gromov-Witten series.

The file-driven backend covers compact hypersurfaces: the required
Gromov-Witten input per degree is exactly three numbers (the 1-pointed
invariant against H^3, the 2-pointed invariant against (H^2, H^2),
and the genus-1 invariant); every other insertion combination either
vanishes for dimension reasons or is produced by the engine.
"""

from __future__ import annotations

import math

from .cohomology import Ring
from .rational import Rat, exact, parse_integer, parse_rational
from .record import FrozenRecord
from .series import DegreeSeries, check_degree, invert_multi_cover

__all__ = [
    "Geometry",
    "GeometryFileError",
    "load_hypersurface_geometry",
    "hypersurface_chern",
]

GW_FILE_MAGIC = "cy5-gw v1"


class GeometryFileError(ValueError):
    """Malformed Gromov-Witten input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Geometry(FrozenRecord):
    """All geometric inputs for one target space.

    ``c2`` and ``c3`` are the coefficients of H^2 and H^3 in the Chern
    classes.  ``n1pt[d]`` is the 1-pointed genus-0 base count against
    H^3 and ``n2pt[d]`` the 2-pointed one against (H^2, H^2); every
    other insertion vanishes for dimension reasons.  The Kunneth
    diagonal is not stored: a compact ring (``ring.top_integral`` is
    t5) pairs H^2 with H^3/t5, and a local ring has none.
    """

    __slots__ = __match_args__ = (
        "ring", "c2", "c3", "n1pt", "n2pt", "gw_genus1", "max_degree",
    )

    def __init__(self, ring: Ring, c2, c3, n1pt: DegreeSeries, n2pt: DegreeSeries,
                 gw_genus1: DegreeSeries, max_degree: int):
        c2, c3 = exact(c2), exact(c3)
        check_degree(max_degree, "max_degree")
        self._freeze(ring, c2, c3, n1pt, n2pt, gw_genus1, max_degree)


def hypersurface_chern(ambient_dim: int, hyp_degree: int) -> tuple[object, object]:
    """Chern coefficients (c2, c3) of a Calabi-Yau hypersurface by adjunction.

    Expands (1+H)^(ambient_dim+1) / (1 + hyp_degree*H) and returns the
    coefficients of H^2 and H^3.  Requires hyp_degree == ambient_dim + 1
    so that c1 vanishes.
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
    return coeffs[2], coeffs[3]


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


def _parse_int(text: str, what: str, lineno: int) -> int:
    """An optionally signed run of ASCII digits, as an int."""
    try:
        return parse_integer(text)
    except ValueError:
        raise GeometryFileError(lineno, f"malformed {what} {text!r}") from None


def _parse_gw_file(path) -> tuple[object, object, object, int, int, dict[int, tuple]]:
    """Returns (t5, c2 coeff, c3 coeff, maxdeg, parameter line number,
    {d: (N0 1pt, N0 2pt, N1)})."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bad byte's line: one more than the line breaks of the valid text before it
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise GeometryFileError(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None
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
    maxdeg = _parse_int(fields["maxdeg"], "maxdeg", lineno)
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
        d = _parse_int(parts[0], "degree", lineno)
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
    return t5, c2, c3, maxdeg, lines[1][0], rows


def load_hypersurface_geometry(path, max_degree: int) -> Geometry:
    """Load a compact hypersurface geometry from a Gromov-Witten input file.

    The file supplies the top intersection number, the c2/c3
    coefficients, and per degree the three required Gromov-Witten
    numbers.  The genus-0 columns are multiple-cover inverted here
    (1-pointed with k=1, 2-pointed with k=2), so the engine sees
    integer-type base counts.
    """
    check_degree(max_degree, "max_degree")
    t5, c2, c3, maxdeg, header_line, rows = _parse_gw_file(path)
    if max_degree > maxdeg:
        raise GeometryFileError(
            header_line, f"file covers degrees 1..{maxdeg}, need 1..{max_degree}"
        )

    def column(i):
        return DegreeSeries({d: rows[d][i] for d in range(1, max_degree + 1)}, max_degree)

    return Geometry(
        ring=Ring(top_power=5, top_integral=t5),
        c2=c2,
        c3=c3,
        n1pt=invert_multi_cover(column(0), k=1),
        n2pt=invert_multi_cover(column(1), k=2),
        gw_genus1=column(2),
        max_degree=max_degree,
    )
