"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import compare
import gen
import run
import tracer


def cli_stdout(tmp_path, *args) -> tuple[int, bytes]:
    sample = run.run_child([sys.executable, "-m", "cy5bps", *args], tmp_path / "out.txt")
    return sample.rc, sample.stdout


def test_generator_is_deterministic_and_follows_the_seed():
    assert gen.gw_file_text(3, 80) == gen.gw_file_text(3, 80)
    assert gen.gw_file_text(3, 80) != gen.gw_file_text(4, 80)
    lines = gen.gw_file_text(3, 80).splitlines()
    assert lines[:2] == ["cy5-gw v1", "t5=7 c2=21 c3=-112 maxdeg=80"]
    assert len(lines) == 82


def test_generated_file_digest(tmp_path):
    digest = gen.write_gw_file(tmp_path / "a.gw", 5, 10)
    assert digest == gen.write_gw_file(tmp_path / "b.gw", 5, 10)
    assert digest != gen.write_gw_file(tmp_path / "c.gw", 6, 10)


def test_closed_form_matches_published_table():
    golden = checks.golden_local_p2(run.ROOT)
    assert [checks.closed_form(d) for d in range(1, 61)] == golden


def flip_digit(text: str, degree: int) -> str:
    lines = text.split("\n")
    cells = lines[degree].split(",")
    cells[1] = cells[1][:-1] + str((int(cells[1][-1]) + 1) % 10)
    lines[degree] = ",".join(cells)
    return "\n".join(lines)


def test_localp2_check_rejects_a_flipped_digit(tmp_path):
    golden = checks.golden_local_p2(run.ROOT)
    rc, out = cli_stdout(tmp_path, "local-p2", "--max-degree", "20")
    assert checks.check_localp2(rc, out, 20, golden) == []
    for degree in (7, 8, 19):
        bad = flip_digit(out.decode(), degree).encode()
        assert checks.check_localp2(rc, bad, 20, golden)
    assert checks.check_localp2(2, out, 20, golden)


def test_hypersurface_check_rejects_an_asymmetric_cell(tmp_path):
    path = tmp_path / "h.gw"
    gen.write_gw_file(path, 1, 10)
    rc, out = cli_stdout(tmp_path, "hypersurface", "--input", str(path),
                         "--max-degree", "10", "--meeting-table", "5")
    assert checks.check_hypersurface(rc, out, 10, 5) == []
    cell = checks.meeting_matrix(out)[1][3]
    head, _, tail = out.decode().partition("\n\n")
    rows = tail.split("\n")
    cells = rows[2].split(",")
    assert cells[4] == cell
    cells[4] = "-" + cell if not cell.startswith("-") else cell[1:]
    rows[2] = ",".join(cells)
    bad = (head + "\n\n" + "\n".join(rows)).encode()
    assert checks.check_hypersurface(rc, bad, 10, 5) == [
        "meeting matrix not symmetric at (2,4)"
    ]


def test_verify_check_rejects_a_fail_row(tmp_path):
    rc, out = cli_stdout(tmp_path, "verify-localization", "--max-degree", "6", "--seed", "3")
    assert checks.check_verify(rc, out, 6) == []
    bad = out.decode().replace("PASS", "FAIL", 1).encode()
    assert checks.check_verify(rc, bad, 6) == ["d=1: status FAIL"]


def test_traced_entries_at_degree_100(tmp_path):
    prefix = tmp_path / "trace"
    argv = [sys.executable, tracer.__file__, str(prefix), "--",
            "local-p2", "--max-degree", "100", "--jobs", "1"]
    sample = run.run_child(argv, tmp_path / "traced.txt")
    assert sample.rc == 0
    metrics, meta = run.layer_metrics(prefix)
    assert metrics["engine.m3.entries"] == math.comb(100, 3) == 161_700
    for kind in ("n2A", "n2B", "n2C", "n2D", "n2E"):
        assert metrics[f"engine.{kind}.entries"] == 4_950
    assert metrics["engine.gamma2.entries"] == 2_450
    assert metrics["engine.gamma1.entries"] == 50
    for kind in ("n1B", "n1C", "n1D", "n1E", "n1F", "n1G", "chern"):
        assert metrics[f"engine.{kind}.entries"] == 100
    assert meta["engine"]["values"] == meta["engine"]["integral"] == 189_650
    assert metrics["engine.chern.calls"] == 100
    assert meta["spans"] == sum(
        metrics[f"engine.{kind}.calls"] for kind in tracer.KINDS
    ) + 7  # cli.main, geometry.build, series.invert, compute_bps_table, 2 extracts, martin_check
    golden = checks.golden_local_p2(run.ROOT)
    assert checks.check_localp2(sample.rc, sample.stdout, 100, golden) == []


@pytest.mark.parametrize("key", ["backend", "python"])
def test_compare_refuses_mixed_environments(tmp_path, key):
    record = {"workload": "w", "trace": 0, "metrics": {"wall_s": 1.0},
              "env": {"backend": "fractions", "python": "3.11.7"}}
    for side, value in (("a", None), ("b", "other")):
        (tmp_path / side).mkdir()
        env = dict(record["env"], **({key: value} if value else {}))
        (tmp_path / side / "r.json").write_text(json.dumps(dict(record, env=env)))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-d150", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_hypersurface_digest_must_match_the_reference(tmp_path):
    path = tmp_path / "h.gw"
    gen.write_gw_file(path, 1, 10)
    rc, out = cli_stdout(tmp_path, "hypersurface", "--input", str(path),
                         "--max-degree", "10", "--meeting-table", "5")
    ctx = run.Context(golden=[], reference_digest="0" * 64)
    problems = checks.check_hypersurface(rc, out, 10, 5)
    assert problems == []
    assert run.check_digest(out, ctx) == [
        f"stdout digest {hashlib.sha256(out).hexdigest()} differs from reference {'0' * 64}"
    ]
    ctx.reference_digest = None
    assert run.check_digest(out, ctx) == []
    assert run.check_digest(out + b"\n", ctx)
