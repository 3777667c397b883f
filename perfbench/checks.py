"""Output checks for the benchmark workloads.

Each check takes the CLI's exit code and stdout bytes and returns a list
of problems; an empty list means the output is correct.  The checks do
not call into ``cy5bps``: the closed form S(d) * V(d) is recomputed here
with its own Moebius function, and the published degree 1..60 table is
read from ``tests/golden.py`` in the checkout.
"""

from __future__ import annotations

import csv
import importlib.util
import io
from fractions import Fraction
from pathlib import Path


def moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def closed_form(d: int) -> Fraction:
    """S(d) * V(d): the conjectured genus-1 count of local P^2 in degree d."""
    k, twos = d, 0
    while k % 2 == 0:
        k //= 2
        twos += 1
    if twos >= 3:
        return Fraction(0)
    sign = moebius(d // 4) if d % 8 == 4 else moebius(d)
    base = Fraction(k * k - 1, 8)
    factor = (base, Fraction(17 * k * k + 7, 8), Fraction(2 * k * k + 1))[twos]
    return sign * base * factor


def golden_local_p2(root: Path) -> list[int]:
    """GENUS1_LOCAL_P2 (degrees 1..60) from the checkout's tests/golden.py."""
    spec = importlib.util.spec_from_file_location("_perfbench_golden", root / "tests" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.GENUS1_LOCAL_P2)


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _exit_problem(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def check_localp2(rc: int, stdout: bytes, max_degree: int, golden: list[int]) -> list[str]:
    problems = _exit_problem(rc)
    rows = _rows(stdout.decode("utf-8"))
    if not rows or rows[0][:2] != ["d", "n_{1,d}"]:
        return problems + ["missing local-p2 header"]
    body = rows[1:]
    if [r[0] for r in body] != [str(d) for d in range(1, max_degree + 1)]:
        return problems + [f"expected rows for degrees 1..{max_degree}"]
    for d, row in enumerate(body, start=1):
        n1 = Fraction(row[1])
        if n1 != closed_form(d):
            problems.append(f"d={d}: n1={row[1]} differs from S(d)V(d)={closed_form(d)}")
        if d % 8 == 0 and row[1] != "0":
            problems.append(f"d={d}: multiple of 8 is {row[1]}, not 0")
        if d <= len(golden) and row[1] != str(golden[d - 1]):
            problems.append(f"d={d}: n1={row[1]} differs from published {golden[d - 1]}")
    return problems


def meeting_matrix(stdout: bytes) -> list[list[str]]:
    """The meeting-number cells of ``hypersurface --meeting-table`` CSV output."""
    text = stdout.decode("utf-8")
    _, sep, tail = text.partition("\n\n")
    if not sep:
        return []
    return [row[1:] for row in _rows(tail)[1:]]


def check_hypersurface(rc: int, stdout: bytes, max_degree: int, meeting: int) -> list[str]:
    problems = _exit_problem(rc)
    rows = _rows(stdout.decode("utf-8").partition("\n\n")[0])
    if [r[0] for r in rows[1:]] != [str(d) for d in range(1, max_degree + 1)]:
        problems.append(f"expected n1 rows for degrees 1..{max_degree}")
    matrix = meeting_matrix(stdout)
    if len(matrix) != meeting or any(len(row) != meeting for row in matrix):
        return problems + [f"expected a {meeting}x{meeting} meeting matrix"]
    # cells are rationals in lowest terms, so equal values print equally
    for i in range(meeting):
        for j in range(i + 1, meeting):
            if matrix[i][j] != matrix[j][i]:
                problems.append(f"meeting matrix not symmetric at ({i + 1},{j + 1})")
    return problems


def check_verify(rc: int, stdout: bytes, max_degree: int) -> list[str]:
    problems = _exit_problem(rc)
    rows = _rows(stdout.decode("utf-8"))
    body = rows[1:]
    if [r[0] for r in body] != [str(d) for d in range(1, max_degree + 1)]:
        return problems + [f"expected rows for degrees 1..{max_degree}"]
    for d, (_, g0, g1, status) in enumerate(body, start=1):
        if status != "PASS":
            problems.append(f"d={d}: status {status}")
        if Fraction(g0) != Fraction((-1) ** (d - 1), d):
            problems.append(f"d={d}: g0={g0}")
        if Fraction(g1) != Fraction((-1) ** d, 8 * d):
            problems.append(f"d={d}: g1={g1}")
    return problems
