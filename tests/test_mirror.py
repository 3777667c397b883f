"""The septic's mirror series to degree 30 and the checks it gives for free:
the symmetry of its periods, the integrality of what the pipeline makes
of it, and Bott's lines at degree 1."""

from fractions import Fraction
from math import factorial

import pytest

from cy5bps.engine import Engine
from cy5bps.genus1 import compute_bps_table
from cy5bps.geometry import load_hypersurface_geometry

from bott import WEIGHTS, septic_line_integrals
from mirror import gw_columns, periods, septic_gw_text

DEGREE = 30


def _integral(value):
    return Fraction(value).denominator == 1


@pytest.fixture(scope="module")
def septic_30(tmp_path_factory):
    """The septic's geometry to degree 30, from the mirror's input text, and
    an engine filled to that degree."""
    path = tmp_path_factory.mktemp("mirror") / "septic.gw"
    path.write_text(septic_gw_text(DEGREE), encoding="utf-8")
    geometry = load_hypersurface_geometry(path, DEGREE)
    engine = Engine(geometry)
    return geometry, engine, compute_bps_table(geometry, DEGREE, engine=engine)


def test_periods_are_symmetric():
    # I_p = I_{6-p}: the seven periods of a Calabi-Yau 5-fold pair up
    i, _ = periods(DEGREE, 7)
    assert all(i[p] == i[6 - p] for p in range(3))
    # I_0 is F(0, q) = sum_d (7d)! / (d!)^7 q^d
    assert i[0] == [factorial(7 * d) // factorial(d) ** 7 for d in range(DEGREE + 1)]


def test_degree_1_columns_are_the_lines():
    n1pt, n2pt, _ = septic_line_integrals(WEIGHTS[0])
    assert gw_columns(1)[0][:2] == (n1pt, n2pt) == (1_009_792, 1_707_797)


def test_genus_1_counts_are_integral_and_start_at_degree_3(septic_30):
    _, _, report = septic_30
    assert report.n1[1] == report.n1[2] == 0 and report.n1[3] != 0
    assert all(_integral(report.n1[d]) for d in range(1, DEGREE + 1))


def test_inverted_genus_0_columns_are_integral(septic_30):
    geometry, _, _ = septic_30
    assert all(_integral(geometry.n1pt[d]) and _integral(geometry.n2pt[d])
               for d in range(1, DEGREE + 1))


def test_node_on_divisor_counts_are_integral(septic_30):
    geometry, engine, _ = septic_30
    H = geometry.ring.H(1)
    assert all(_integral(engine.n2B(a, b, H))
               for a in range(1, DEGREE) for b in range(1, DEGREE + 1 - a))


def test_every_level_denominator_is_one(septic_30):
    # on a real compact geometry every term the level denominators are built
    # from is integral, so no m3 or two-degree level carries a denominator
    _, engine, _ = septic_30
    assert len(engine._m3) == DEGREE + 1
    assert all(level[0] == 1 for level in engine._m3)
    for kind in ("n2A", "n2B", "n2C", "n2D", "n2E", "gamma2"):
        assert set(getattr(engine, "_" + kind)[0][1:]) == {1}, kind
