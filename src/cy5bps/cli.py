"""Command-line front end.

Four subcommands: ``local-p2`` (the closed-form local geometry,
emitting the genus-1 tables with the closed-form comparison),
``hypersurface`` (file-driven compact geometry, optionally with the
node-on-divisor meeting-number matrix), ``verify-localization`` (the
torus fixed-point verifiers) and ``verify-martin`` (the closed-form
comparison alone).

Rationals are never emitted as floats: CSV cells carry ``p/q`` or a
plain integer, JSON carries numerator/denominator pairs.  Exit codes:
0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .genus1 import compute_bps_table, martin_check
from .geometry import GeometryFileError, load_hypersurface_geometry
from .engine import Engine
from .localp2 import localp2_geometry, verify_localization
from .rational import format_rational, rational_pair

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cy5bps",
        description="Exact genus-0/genus-1 BPS curve counts for Calabi-Yau 5-fold geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--max-degree", type=int, default=10, metavar="N",
                       help="largest degree to compute (default 10)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")
        p.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="accepted for compatibility, must be >= 1; "
                            "evaluation is single-threaded (default 1)")
        if needs_input:
            p.add_argument("--input", metavar="PATH", required=True,
                           help="Gromov-Witten input file")

    p_local = sub.add_parser("local-p2", help="genus-1 table for O(-1)^3 over P^2")
    common(p_local)

    p_hyp = sub.add_parser("hypersurface", help="genus-1 table for a file-driven hypersurface")
    common(p_hyp, needs_input=True)
    p_hyp.add_argument("--meeting-table", type=int, default=None, metavar="D",
                       help="also emit the node-on-divisor meeting matrix up to D")

    p_loc = sub.add_parser("verify-localization",
                           help="check the fixed-point sums against the closed forms")
    common(p_loc)
    p_loc.add_argument("--seed", type=int, default=0, metavar="S",
                       help="seed for the random weight triples (default 0)")

    p_martin = sub.add_parser("verify-martin",
                              help="compare the local-P2 table against the closed form")
    common(p_martin)

    return parser


def _check_max_degree(args) -> int:
    if args.max_degree < 1:
        print("error: --max-degree must be >= 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return args.max_degree


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _pair(value) -> dict:
    num, den = rational_pair(value)
    return {"num": num, "den": den}


def _bool_cell(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_local_p2(args) -> int:
    max_degree = _check_max_degree(args)
    geometry = localp2_geometry(max_degree)
    report = compute_bps_table(geometry, max_degree, jobs=args.jobs)
    rows = martin_check(report)

    if args.format == "csv":
        header = ["d", "n_{1,d}", "ñ_{1,d}", "chern_d", "martin_predicted", "match"]
        body = [
            [
                row.degree,
                format_rational(report.n1[row.degree]),
                format_rational(report.n1_tilde[row.degree]),
                format_rational(report.chern[row.degree]),
                format_rational(row.predicted),
                _bool_cell(row.match),
            ]
            for row in rows
        ]
        _emit(args, _csv_text(header, body))
    else:
        payload = {
            "command": "local-p2",
            "max_degree": max_degree,
            "rows": [
                {
                    "d": row.degree,
                    "n1": _pair(report.n1[row.degree]),
                    "n1_tilde": _pair(report.n1_tilde[row.degree]),
                    "chern": _pair(report.chern[row.degree]),
                    "martin_predicted": _pair(row.predicted),
                    "match": row.match,
                }
                for row in rows
            ],
            "integrality_failures": list(report.integrality_failures),
        }
        _emit(args, _json_text(payload))

    ok = not report.integrality_failures and all(row.match for row in rows)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_hypersurface(args) -> int:
    max_degree = _check_max_degree(args)
    meeting = args.meeting_table
    if meeting is not None and meeting < 1:
        print("error: --meeting-table must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    needed = max(max_degree, 2 * meeting if meeting else 0)
    try:
        geometry = load_hypersurface_geometry(args.input, needed)
    except (OSError, GeometryFileError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # one engine: the meeting table reads counts the genus-1 run memoized
    engine = Engine(geometry)
    report = compute_bps_table(geometry, max_degree, jobs=args.jobs, engine=engine)

    matrix = None
    if meeting:
        H = geometry.ring.H(1)
        matrix = [
            [engine.n2B(d1, d2, H) for d2 in range(1, meeting + 1)]
            for d1 in range(1, meeting + 1)
        ]

    if args.format == "csv":
        text = _csv_text(
            ["d", "n_{1,d}"],
            [[d, format_rational(report.n1[d])] for d in report.n1],
        )
        if matrix is not None:
            lines = [["n_{d1d2}(H|;)"] + [f"d2={j}" for j in range(1, meeting + 1)]]
            for i, row in enumerate(matrix, start=1):
                lines.append([f"d1={i}"] + [format_rational(v) for v in row])
            text += "\n" + _csv_text(lines[0], lines[1:])
        _emit(args, text)
    else:
        payload = {
            "command": "hypersurface",
            "max_degree": max_degree,
            "rows": [{"d": d, "n1": _pair(report.n1[d])} for d in report.n1],
            "integrality_failures": list(report.integrality_failures),
        }
        if matrix is not None:
            payload["meeting_table"] = {
                "max_degree": meeting,
                "values": [[_pair(v) for v in row] for row in matrix],
            }
        _emit(args, _json_text(payload))
    return EXIT_OK


def _cmd_verify_localization(args) -> int:
    max_degree = _check_max_degree(args)
    results = verify_localization(max_degree, seed=args.seed)

    if args.format == "csv":
        header = ["d", "g0", "g1", "status"]
        body = [
            [
                r["degree"],
                format_rational(r["g0"]),
                format_rational(r["g1"]),
                "PASS" if r["ok"] else "FAIL",
            ]
            for r in results
        ]
        _emit(args, _csv_text(header, body))
    else:
        payload = {
            "command": "verify-localization",
            "seed": args.seed,
            "rows": [
                {
                    "d": r["degree"],
                    "g0": _pair(r["g0"]),
                    "g1": _pair(r["g1"]),
                    "status": "PASS" if r["ok"] else "FAIL",
                }
                for r in results
            ],
        }
        _emit(args, _json_text(payload))
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_VERIFY


def _cmd_verify_martin(args) -> int:
    max_degree = _check_max_degree(args)
    geometry = localp2_geometry(max_degree)
    report = compute_bps_table(geometry, max_degree, jobs=args.jobs)
    rows = martin_check(report)

    if args.format == "csv":
        header = ["d", "n_{1,d}", "martin_predicted", "match"]
        body = [
            [
                row.degree,
                format_rational(row.computed),
                format_rational(row.predicted),
                _bool_cell(row.match),
            ]
            for row in rows
        ]
        _emit(args, _csv_text(header, body))
    else:
        payload = {
            "command": "verify-martin",
            "max_degree": max_degree,
            "rows": [
                {
                    "d": row.degree,
                    "n1": _pair(row.computed),
                    "martin_predicted": _pair(row.predicted),
                    "match": row.match,
                }
                for row in rows
            ],
        }
        _emit(args, _json_text(payload))
    return EXIT_OK if all(row.match for row in rows) else EXIT_VERIFY


_COMMANDS = {
    "local-p2": _cmd_local_p2,
    "hypersurface": _cmd_hypersurface,
    "verify-localization": _cmd_verify_localization,
    "verify-martin": _cmd_verify_martin,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            print("error: --jobs must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
