"""Pins the hypersurface CLI's output on a random rational geometry, and
checks the engine's fused m3 and m3-row counts against their formulas.

The input has nonzero diagonal, c3 and 1-pointed terms and random
rational header and columns (here t5=13/10, c2=-197/4, c3=53/5), so
almost no count is an integer and every branch of the recursion runs on
the rational path well above the hand-computed degrees.  The digests
were recorded from the engine before its geometry tables and exact-sum
helper existed, so they do not depend on the code they check.  The
formula checks evaluate each m3, n2B, n2C, n2D and n2E from the public
counts it is defined by, with plain Fraction arithmetic and builtin sum;
the excess corrections come from the test-side oracle in
``corrections.py``.
"""

import hashlib
from fractions import Fraction

import pytest

from cy5bps.cli import main
from cy5bps.engine import Engine
from cy5bps.geometry import load_hypersurface_geometry

from conftest import random_gw_text
from corrections import correction_C2, m3_formula

SEED = 2
MAX_DEGREE = 24
MEETING_DEGREE = 12

DIGESTS = {
    "csv": "3583c7c9cbe7aed862084ae922cfe5e4a5ecc25cc3215bbf5b5164df82b8f719",
    "json": "7dcf8bad3290d077e770f8a3e3eebeb8ef845c55463754abc519ea3c6bfaa53a",
}


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_hypersurface_rational_output_is_pinned(write_gw_file, capsys, fmt):
    path = write_gw_file(random_gw_text(SEED, MAX_DEGREE))
    main([
        "hypersurface", "--input", str(path),
        "--max-degree", str(MAX_DEGREE), "--meeting-table", str(MEETING_DEGREE),
        "--format", fmt,
    ])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[fmt]


ORACLE_DEGREE = 12


@pytest.fixture(params=["random-rational", "local-p2"])
def oracle_engine(request, write_gw_file, local_geometry_12):
    if request.param == "local-p2":
        return Engine(local_geometry_12)
    path = write_gw_file(random_gw_text(SEED, ORACLE_DEGREE))
    return Engine(load_hypersurface_geometry(path, ORACLE_DEGREE))


def _is_normalised(value):
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def test_m3_and_row_counts_match_their_formulas(oracle_engine):
    """Every m3, n2C, n2D and n2E to total degree 12 against its defining
    formula, evaluated with plain Fraction arithmetic and builtin sum."""
    engine = oracle_engine
    H, H2 = engine.geometry.ring.H(1), engine.geometry.ring.H(2)
    triples = [
        (a, b, c)
        for a in range(1, ORACLE_DEGREE + 1)
        for b in range(1, ORACLE_DEGREE + 1 - a)
        for c in range(1, ORACLE_DEGREE + 1 - a - b)
    ]
    for a, b, c in triples:
        value = engine.m3(a, b, c)
        assert value == m3_formula(engine, a, b, c), (a, b, c)
        assert _is_normalised(value)

    for d1 in range(1, ORACLE_DEGREE):
        for d2 in range(1, ORACLE_DEGREE + 1 - d1):
            row = [Fraction(engine.m3(d1, d2 - p, p)) for p in range(1, d2)]
            n2A, n2B = Fraction(engine.n2A(d1, d2, H2)), Fraction(engine.n2B(d1, d2, H))
            expected = {
                "n2C": (n2A - 2 * d2 * n2B
                        + sum(p * p * m for p, m in enumerate(row, 1))) / (d2 * d2),
                "n2D": (d2 * n2A - 2 * d2 * n2A
                        + sum((p * (d2 - p) ** 2 + (d2 - p) * p * p) * m
                              for p, m in enumerate(row, 1))) / (d2 * d2),
                "n2E": -sum(row),
            }
            values = {
                "n2C": engine.n2C(d1, d2),
                "n2D": engine.n2D(d1, d2, H),
                "n2E": engine.n2E(d1, d2),
            }
            for kind, value in values.items():
                assert value == expected[kind], (kind, d1, d2)
                assert _is_normalised(value)


def test_n2B_matches_its_formula(oracle_engine):
    """Every n2B to total degree 12 against its defining formula: the
    base term, the m3 sum over the shared degree, and the correction C2."""
    engine = oracle_engine
    g = engine.geometry
    H = g.ring.H(1)
    t5 = g.ring.top_integral
    for d1 in range(1, ORACLE_DEGREE):
        for d2 in range(1, ORACLE_DEGREE + 1 - d1):
            base = 0 if t5 is None else Fraction(g.n1pt[d1]) * g.n1pt[d2] / t5
            chains = sum(c * Fraction(engine.m3(d1 - c, c, d2 - c)) for c in range(1, min(d1, d2)))
            value = engine.n2B(d1, d2, H)
            assert value == base - chains - correction_C2(engine, d1, d2), (d1, d2)
            assert _is_normalised(value)
