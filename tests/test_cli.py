import csv
import dataclasses
import hashlib
import io
import json

import pytest

from cy5bps import cli
from cy5bps.cli import main
from cy5bps.rational import Rat, parse_rational
from cy5bps.series import DegreeSeries

from conftest import gw_file_text, random_gw_text
from golden import GENUS1_LOCAL_P2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- local-p2 -----------------------------------------------------------------

def test_local_p2_csv(capsys):
    code, out, _ = run_cli(capsys, "local-p2", "--max-degree", "12")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d", "n_{1,d}", "ñ_{1,d}", "chern_d", "martin_predicted", "match"]
    assert len(rows) == 12
    computed = [parse_rational(r[1]) for r in rows]
    assert computed == GENUS1_LOCAL_P2[:12]
    assert all(r[5] == "true" for r in rows)


def test_local_p2_single_degree(capsys):
    code, out, _ = run_cli(capsys, "local-p2", "--max-degree", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == "1"
    assert rows[0][1] == "0"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_local_p2_rejects_nonpositive_degree(capsys, value):
    code, _, err = run_cli(capsys, "local-p2", "--max-degree", value)
    assert code == 1
    assert "max-degree" in err


def test_jobs_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "local-p2", "--jobs", "0")
    assert code == 1
    assert "jobs" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "local-p2", "--frobnicate")
    assert code == 1


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_csv_and_json_carry_identical_values(capsys):
    code, csv_out, _ = run_cli(capsys, "local-p2", "--max-degree", "10")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "local-p2", "--max-degree", "10", "--format", "json")
    assert code == 0
    _, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert len(payload["rows"]) == len(rows)
    for csv_row, json_row in zip(rows, payload["rows"]):
        for i, field in enumerate(["n1", "n1_tilde", "chern", "martin_predicted"], start=1):
            pair = json_row[field]
            assert parse_rational(csv_row[i]) == Rat(pair["num"], pair["den"])
        assert (csv_row[5] == "true") == json_row["match"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "local-p2", "--max-degree", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text(encoding="utf-8"))
    assert header[0] == "d"
    assert len(rows) == 3


def test_unwritable_output_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run_cli(capsys, "local-p2", "--max-degree", "3", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {target}: ")
    assert err.count("\n") == 1


def test_jobs_flag_matches_sequential(capsys):
    code, seq, _ = run_cli(capsys, "local-p2", "--max-degree", "8")
    assert code == 0
    code, par, _ = run_cli(capsys, "local-p2", "--max-degree", "8", "--jobs", "2")
    assert code == 0
    assert seq == par


# -- hypersurface ---------------------------------------------------------------

def test_hypersurface_zero_data(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=6))
    code, out, err = run_cli(capsys, "hypersurface", "--input", str(path), "--max-degree", "6")
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["d", "n_{1,d}"]
    assert [r[1] for r in rows] == ["0"] * 6


def test_hypersurface_csv_warns_of_non_integral_values(write_gw_file, capsys):
    path = write_gw_file(random_gw_text(0, 8))
    code, out, err = run_cli(capsys, "hypersurface", "--input", str(path), "--max-degree", "8")
    assert code == 0
    _, rows = parse_csv(out)
    failures = [int(r[0]) for r in rows if "/" in r[1]]
    assert failures
    assert err.count("\n") == 1
    assert err.startswith(f"warning: {len(failures)} of 8 ")
    assert f"at d = {', '.join(map(str, failures[:5]))}" in err


def test_hypersurface_meeting_table(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=6))
    code, out, _ = run_cli(
        capsys, "hypersurface", "--input", str(path),
        "--max-degree", "3", "--meeting-table", "3",
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    header, rows = parse_csv(blocks[1])
    assert header == ["n_{d1d2}(H|;)", "d2=1", "d2=2", "d2=3"]
    assert [r[0] for r in rows] == ["d1=1", "d1=2", "d1=3"]
    assert all(cell == "0" for r in rows for cell in r[1:])


def test_hypersurface_json_meeting_table(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=6))
    code, out, _ = run_cli(
        capsys, "hypersurface", "--input", str(path),
        "--max-degree", "2", "--meeting-table", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meeting_table"]["max_degree"] == 2
    assert payload["meeting_table"]["values"][0][0] == {"num": 0, "den": 1}


def test_hypersurface_missing_file(capsys):
    code, _, err = run_cli(capsys, "hypersurface", "--input", "/nonexistent.gw")
    assert code == 1
    assert "nonexistent" in err


def test_hypersurface_bad_file_diagnostics(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=6).replace("\n4 0 0 0", "\n7 0 0 0"))
    code, _, err = run_cli(capsys, "hypersurface", "--input", str(path), "--max-degree", "6")
    assert code == 1
    assert "line 6" in err and "degree" in err


def test_hypersurface_requires_input(capsys):
    code, _, _ = run_cli(capsys, "hypersurface", "--max-degree", "3")
    assert code == 1


def test_meeting_table_must_be_positive(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=4))
    code, _, err = run_cli(
        capsys, "hypersurface", "--input", str(path), "--meeting-table", "0",
    )
    assert code == 1
    assert "meeting-table" in err


def test_hypersurface_requires_enough_rows_for_meeting_table(write_gw_file, capsys):
    path = write_gw_file(gw_file_text(maxdeg=4))
    code, _, err = run_cli(
        capsys, "hypersurface", "--input", str(path),
        "--max-degree", "2", "--meeting-table", "3",
    )
    assert code == 1
    assert "line 2" in err and "1..6" in err
    assert "--meeting-table 3 needs degrees up to 6" in err
    code, _, err = run_cli(capsys, "hypersurface", "--input", str(path), "--max-degree", "5")
    assert code == 1
    assert "1..5" in err and "meeting-table" not in err


# -- verifiers ---------------------------------------------------------------

def test_verify_localization(capsys):
    code, out, _ = run_cli(capsys, "verify-localization", "--max-degree", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d", "g0", "g1", "status"]
    assert len(rows) == 8
    assert all(r[3] == "PASS" for r in rows)
    assert rows[0][1] == "1" and rows[0][2] == "-1/8"


def test_verify_localization_seeded_reproducibility(capsys):
    code, first, _ = run_cli(capsys, "verify-localization", "--max-degree", "5", "--seed", "42")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify-localization", "--max-degree", "5", "--seed", "42")
    assert code == 0
    assert first == second


def test_verify_martin(capsys):
    code, out, _ = run_cli(capsys, "verify-martin", "--max-degree", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d", "n_{1,d}", "martin_predicted", "match"]
    assert len(rows) == 20
    assert all(r[3] == "true" for r in rows)
    assert [parse_rational(r[1]) for r in rows] == GENUS1_LOCAL_P2[:20]


@pytest.mark.parametrize("command", ["local-p2", "verify-martin"])
def test_local_p2_csv_warns_of_non_integral_values(monkeypatch, capsys, command):
    clean_code, clean_out, clean_err = run_cli(capsys, command, "--max-degree", "4")
    assert (clean_code, clean_err) == (0, "")
    compute = cli.compute_bps_table

    def non_integral(geometry, max_degree):
        # the real table with n_{1,2} moved off the integers
        report = compute(geometry, max_degree)
        n1 = dict(report.n1.items())
        n1[2] += Rat(1, 2)
        return dataclasses.replace(report, n1=DegreeSeries(n1, max_degree),
                                   integrality_failures=(2,))

    monkeypatch.setattr(cli, "compute_bps_table", non_integral)
    code, out, err = run_cli(capsys, command, "--max-degree", "4")
    assert code == 2
    assert err == "warning: 1 of 4 n_{1,d} values are not integers, at d = 2\n"
    # stdout is the table alone, differing from the clean one in the d = 2 row
    clean_lines, lines = clean_out.splitlines(), out.splitlines()
    assert len(lines) == len(clean_lines) == 5
    assert [line for line in lines if line not in clean_lines] == [lines[2]]
    assert parse_rational(lines[2].split(",")[1]) == GENUS1_LOCAL_P2[1] + Rat(1, 2)
    assert lines[2].endswith(",false")
    # JSON carries the failure in its own fields and prints no warning
    code, _, err = run_cli(capsys, command, "--max-degree", "4", "--format", "json")
    assert (code, err) == (2, "")


# -- pinned local-p2 and verify-martin output -----------------------------------

# SHA-256 of the stdout of ``<command> --max-degree 30``, recorded while
# each command still wrote its own CSV and JSON text.
TABLE_DIGESTS = {
    ("local-p2", "csv"): "02588e342370784c8b0d08897646f825bff04d1333f62cd74b164b4907aacba3",
    ("local-p2", "json"): "73130ad9ae6d760bd6b81365bb12ed9b12d3ef48c97c7f59dc3a45fb5256b6be",
    ("verify-martin", "csv"): "5e6f21b194519dce594ed49b5174f7278f1d881af7ecf2ddb349bf7aee3ae646",
    ("verify-martin", "json"): "4b1a22789045d1fca3ae395b4bc4f4c563e19e3192ce0b43d48c9d89ddffd7b6",
}


@pytest.mark.parametrize("command, fmt", sorted(TABLE_DIGESTS))
def test_table_output_is_pinned(capsys, command, fmt):
    code, out, _ = run_cli(capsys, command, "--max-degree", "30", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_DIGESTS[command, fmt]
