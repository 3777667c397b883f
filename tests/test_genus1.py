import pytest

from cy5bps.engine import Engine
from cy5bps.genus1 import BpsReport, compute_bps_table, martin_S, martin_V, martin_check
from cy5bps.localp2 import localp2_geometry
from cy5bps.rational import Rat, is_integer
from cy5bps.series import DegreeSeries

from golden import GENUS1_LOCAL_P2
from test_series import forward_genus1_gw, forward_genus1_gw_tilde


@pytest.fixture(scope="module")
def report12():
    return compute_bps_table(localp2_geometry(12), 12)


def test_table_prefix(report12):
    assert [report12.n1[d] for d in range(1, 13)] == GENUS1_LOCAL_P2[:12]


def test_no_integrality_failures(report12):
    assert report12.integrality_failures == ()
    assert all(is_integer(report12.n1_tilde[d]) for d in report12.n1_tilde)


def test_integrality_equivalence(report12):
    for d in report12.n1:
        assert is_integer(report12.n1[d]) == is_integer(report12.n1_tilde[d])


def test_tilde_is_divisor_sum_of_n1(report12):
    # concrete instance of the telescoping identity between the two tables
    assert report12.n1_tilde[6] == 19
    for d in report12.n1:
        assert report12.n1_tilde[d] == sum(
            (report12.n1[d // m] for m in range(1, d + 1) if d % m == 0), Rat(0)
        )


def test_forward_round_trip(report12):
    geometry = localp2_geometry(12)
    assert forward_genus1_gw(report12.n1, report12.chern) == geometry.gw_genus1
    assert forward_genus1_gw_tilde(report12.n1_tilde, report12.chern) == geometry.gw_genus1


def test_report_respects_max_degree():
    geometry = localp2_geometry(6)
    report = compute_bps_table(geometry, 4)
    assert report.max_degree == 4
    assert report.n1.max_degree == 4
    with pytest.raises(ValueError):
        compute_bps_table(geometry, 7)
    with pytest.raises(ValueError):
        compute_bps_table(geometry, 0)


def test_report_refuses_an_engine_of_another_geometry():
    geometry = localp2_geometry(4)
    with pytest.raises(ValueError, match="engine was built for a different geometry"):
        compute_bps_table(geometry, 4, engine=Engine(localp2_geometry(4)))


def test_zero_geometry_pipeline(zero_geometry):
    report = compute_bps_table(zero_geometry, zero_geometry.max_degree)
    assert all(v == 0 for v in report.n1.values())
    assert all(v == 0 for v in report.n1_tilde.values())
    assert all(v == 0 for v in report.chern.values())
    assert report.integrality_failures == ()


# -- closed form -------------------------------------------------------------

def test_martin_S_examples():
    assert martin_S(3) == -1
    assert martin_S(12) == -1
    assert martin_S(16) == 0
    assert martin_S(20) == -1
    assert martin_S(1) == 1


def test_martin_V_examples():
    assert martin_V(6) == 20
    assert martin_V(10) == 162
    assert martin_V(20) == 153
    assert martin_V(3) == 1
    assert martin_V(5) == 9


def test_martin_V_vanishes_on_multiples_of_eight():
    for d in range(8, 100, 8):
        assert martin_V(d) == 0
        assert martin_S(d) == 0


def test_martin_SV_matches_golden_table():
    predicted = [martin_S(d) * martin_V(d) for d in range(1, 61)]
    assert predicted == GENUS1_LOCAL_P2


def test_martin_check_rows(report12):
    rows = martin_check(report12)
    assert [r.degree for r in rows] == list(range(1, 13))
    assert all(r.match for r in rows)
    assert all(r.computed == r.predicted for r in rows)


def test_martin_check_reports_mismatch_without_raising(report12):
    # S(8) = 0, so a nonzero value at d = 8 must not match
    doctored_n1 = DegreeSeries(
        {d: (report12.n1[d] + 1 if d in (5, 8) else report12.n1[d]) for d in report12.n1},
        report12.max_degree,
    )
    doctored = BpsReport(
        max_degree=report12.max_degree,
        n1=doctored_n1,
        n1_tilde=report12.n1_tilde,
        chern=report12.chern,
        integrality_failures=(),
    )
    rows = martin_check(doctored)
    assert [r.degree for r in rows if not r.match] == [5, 8]


def test_domain_errors():
    with pytest.raises(ValueError):
        martin_S(0)
    with pytest.raises(ValueError):
        martin_V(-2)
