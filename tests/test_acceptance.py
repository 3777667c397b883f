"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact rational equality; there are no numeric
tolerances anywhere.  Each test prints a single PASS/FAIL line (visible
with ``pytest -s``).  Criteria 2 and 3 read the table of the degree-200
run that the peak-RSS gate makes once per session (``local_p2_200_gate``
in ``conftest.py``); it takes about 2 s (Python 3.11, 2 cores).
"""

import csv
import os
import random
import re
import time

import pytest

from cy5bps.cli import main as cli_main
from cy5bps.engine import Engine
from cy5bps.genus1 import compute_bps_table
from cy5bps.geometry import load_hypersurface_geometry
from cy5bps.localp2 import localp2_geometry, verify_localization
from cy5bps.rational import Rat, parse_rational
from cy5bps.series import DegreeSeries, invert_multi_cover

from conftest import gw_file_text
from golden import GENUS1_LOCAL_P2, GENUS1_SEPTIC, MEETING_SEPTIC

FULL_DEGREE = 200


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _read_table(out_path):
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["d", "n_{1,d}", "ñ_{1,d}", "chern_d", "martin_predicted", "match"]
    return body


def _run_local_p2(max_degree, out_path):
    code = cli_main(["local-p2", "--max-degree", str(max_degree),
                     "--output", str(out_path)])
    return code, _read_table(out_path)


@pytest.fixture(scope="module")
def cli200(local_p2_200_gate):
    """The CLI's exit code, table rows and wall time of the shared
    ``local-p2 --max-degree 200`` run, from the line the gate prints first."""
    proc, out = local_p2_200_gate
    printed = re.match(r"exit (\d+), wall ([\d.]+) s", proc.stdout)
    assert printed, proc.stdout + proc.stderr
    return int(printed[1]), _read_table(out), float(printed[2])


def test_criterion_1_table_reproduction(tmp_path):
    start = time.time()
    code, body = _run_local_p2(60, tmp_path / "local60.csv")
    elapsed = time.time() - start
    computed = [parse_rational(row[1]) for row in body]
    ok = (
        code == 0
        and len(body) == 60
        and computed == GENUS1_LOCAL_P2
        and (computed[2], computed[11], computed[28], computed[59])
        == (-1, -19, -11025, 12628)
    )
    _report(1, ok, f"local-p2 --max-degree 60 matched all 60 published values in {elapsed:.1f}s")


def test_criterion_2_degree_200_integrality_and_closed_form(cli200):
    code, body, elapsed = cli200
    non_integral = [row[0] for row in body if "/" in row[1] or "/" in row[2]]
    mismatches = [row[0] for row in body if row[5] != "true"]
    ok = code == 0 and len(body) == FULL_DEGREE and not non_integral and not mismatches
    _report(
        2,
        ok,
        f"local-p2 --max-degree {FULL_DEGREE}: every degree integral and "
        f"S(d)*V(d) matches everywhere ({elapsed:.0f}s single-threaded)",
    )


def test_criterion_3_mod_8_vanishing(cli200):
    _, body, _ = cli200
    bad = [row[0] for row in body if int(row[0]) % 8 == 0 and row[1] != "0"]
    _report(3, not bad, f"n1 vanishes at all {FULL_DEGREE // 8} multiples of 8")


def test_criterion_4_genus0_inversion():
    gw = DegreeSeries.from_function(lambda d: Rat((-1) ** (d - 1), d), FULL_DEGREE)
    n = invert_multi_cover(gw, k=2)
    ok = n[1] == 1 and n[2] == -1 and all(n[d] == 0 for d in range(3, FULL_DEGREE + 1))
    _report(4, ok, "2-pointed inversion equals (1, -1, 0, ..., 0) up to degree 200")


def test_criterion_5_localization():
    start = time.time()
    results = verify_localization(30, seed=20080211)
    elapsed = time.time() - start
    ok = all(r["ok"] for r in results)
    _report(
        5,
        ok and len(results) == 30,
        f"two fixed-point sums and per-locus values exact for "
        f"d <= 30 at 3 weight triples each in {elapsed:.1f}s",
    )


def _chern_oracle_from_table(genus1_table, max_degree):
    """Independent triangular inversion: solve the genus-1 cover sum for the
    per-degree Chern integrals, taking the published integer table and the
    closed-form genus-1 invariants (-1)^d/(8d) as input."""
    chern = {}
    for D in range(1, max_degree + 1):
        acc = 24 * Rat((-1) ** D, 8 * D)
        for e in range(1, D + 1):
            if D % e == 0:
                sigma_e = sum(i for i in range(1, e + 1) if e % i == 0)
                acc -= 24 * Rat(sigma_e, e) * Rat(genus1_table[D // e - 1])
                if e > 1:
                    acc -= chern[D // e] / Rat(e)
        chern[D] = acc
    return chern


def test_criterion_6_forced_chern_values():
    oracle = _chern_oracle_from_table(GENUS1_LOCAL_P2, 60)
    engine = Engine(localp2_geometry(60))
    computed = {d: engine.chern_integral(d) for d in range(1, 61)}
    ok = (
        computed[1] == -3
        and computed[2] == 3
        and oracle[1] == -3
        and oracle[2] == 3
        and all(computed[d] == oracle[d] for d in range(1, 61))
    )
    _report(
        6,
        ok,
        "chern(1) = -3 and chern(2) = 3, confirmed by the independent "
        "inversion oracle through degree 60",
    )


def test_criterion_7_property_suite():
    geometry = localp2_geometry(10)
    H = geometry.ring.H(1)

    # determinism across fresh memo stores
    first, second = Engine(geometry), Engine(geometry)
    deterministic = all(
        first.chern_integral(d) == second.chern_integral(d) for d in range(1, 11)
    )

    # meeting-number symmetries for total degree <= 10
    engine = Engine(geometry)
    node_symmetry = all(
        engine.n2B(a, b, H) == engine.n2B(b, a, H)
        for a in range(1, 10)
        for b in range(a, 10 - a + 1)
    )
    chain_symmetry = all(
        engine.m3(a, b, c) == engine.m3(c, b, a)
        for a in range(1, 9)
        for b in range(1, 9)
        for c in range(1, 9)
        if a + b + c <= 10
    )

    # zero input implies zero output
    zero = DegreeSeries.zero(6)
    from cy5bps.geometry import Geometry
    from cy5bps.cohomology import Ring

    zero_geom = Geometry(
        ring=Ring(top_power=5, top_integral=7), c2=Rat(21), c3=Rat(-112),
        n1pt=zero, n2pt=zero, gw_genus1=zero, max_degree=6,
    )
    zero_engine = Engine(zero_geom)
    homogeneous = all(zero_engine.chern_integral(d) == 0 for d in range(1, 7)) and all(
        zero_engine.m3(a, b, c) == 0
        for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)
        if a + b + c <= 6
    )

    # inversion round trips to degree 40 with seeded random rationals
    rng = random.Random(51)
    def random_series():
        return DegreeSeries.from_function(
            lambda _d: Rat(rng.randint(-30, 30), rng.randint(1, 9)), 40
        )

    from cy5bps.series import extract_genus1_bps
    from test_series import forward_genus1_gw, forward_multi_cover
    round_trips = True
    for k in (1, 2):
        n = random_series()
        round_trips &= invert_multi_cover(forward_multi_cover(n, k), k) == n
    n1, chern = random_series(), random_series()
    round_trips &= extract_genus1_bps(forward_genus1_gw(n1, chern), chern) == n1

    ok = deterministic and node_symmetry and chain_symmetry and homogeneous and round_trips
    _report(
        7,
        ok,
        "termination/determinism, meeting-number symmetries, homogeneity "
        "and round trips all hold",
    )


def test_criterion_8_septic_mode(tmp_path):
    # unconditional: zero input gives zero output, and the file format
    # round-trips through the parser
    path = tmp_path / "zero.gw"
    path.write_text(gw_file_text(maxdeg=6), encoding="utf-8")
    geometry = load_hypersurface_geometry(path, 6)
    report = compute_bps_table(geometry, 6)
    zero_ok = all(v == 0 for v in report.n1.values()) and all(
        v == 0 for v in report.chern.values()
    )

    rows = {1: ("2", "1", "1"), 2: ("7/2", "3/2", "2")}
    path2 = tmp_path / "round.gw"
    path2.write_text(gw_file_text(t5="2", c2="5", c3="7", maxdeg=2, rows=rows),
                     encoding="utf-8")
    g2 = load_hypersurface_geometry(path2, 2)
    round_trip_ok = (
        g2.ring.top_integral == 2
        and g2.c2 == 5
        and g2.c3 == 7
        and [g2.n1pt[d] for d in (1, 2)] == [2, 3]
        and [g2.n2pt[d] for d in (1, 2)] == [1, 1]
        and [g2.gw_genus1[d] for d in (1, 2)] == [1, 2]
    )

    detail = "zero input gives zero output; file format round-trips"
    data_path = os.environ.get("CY5BPS_SEPTIC_GW")
    if data_path:
        needed = max(len(GENUS1_SEPTIC), 5)
        septic = load_hypersurface_geometry(data_path, needed)
        septic_report = compute_bps_table(septic, len(GENUS1_SEPTIC))
        table_ok = all(
            septic_report.n1[d] == GENUS1_SEPTIC[d - 1]
            for d in range(1, len(GENUS1_SEPTIC) + 1)
        )
        engine = Engine(septic)
        H = septic.ring.H(1)
        meeting_ok = all(
            engine.n2B(d1, d2, H) == value for (d1, d2), value in MEETING_SEPTIC.items()
        )
        detail += "; supplied data reproduces the published genus-1 and meeting tables"
        _report(8, zero_ok and round_trip_ok and table_ok and meeting_ok, detail)
    else:
        detail += " (no external data file supplied; published-table check skipped)"
        _report(8, zero_ok and round_trip_ok, detail)
