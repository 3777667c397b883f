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


# Cell renderers: each gives one table cell as (CSV cell, JSON value).

def _plain(value):
    return value, value


def _rational(value):
    num, den = rational_pair(value)
    return format_rational(value), {"num": num, "den": den}


def _flag(value: bool):
    return ("true" if value else "false"), value


# Table columns are (CSV header, JSON key, cell renderer); a row is a
# dict keyed by the JSON keys.
_D, _N1 = ("d", "d", _plain), ("n_{1,d}", "n1", _rational)
_MARTIN = (("martin_predicted", "martin_predicted", _rational), ("match", "match", _flag))
_LOCALP2 = (_D, _N1, ("ñ_{1,d}", "n1_tilde", _rational), ("chern_d", "chern", _rational), *_MARTIN)
_LOCALIZATION = (_D, ("g0", "g0", _rational), ("g1", "g1", _rational), ("status", "status", _plain))


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_table(args, columns, rows, head, tail=None, csv_tail="", csv_warning=None) -> None:
    """Write ``rows`` as CSV or JSON, to ``--output`` or stdout.

    JSON puts the command name and the ``head`` fields before ``rows``
    and the ``tail`` fields after it.  CSV has room for neither: it
    appends ``csv_tail`` to the table instead, and ``csv_warning``, if
    given, goes to stderr as a ``warning:`` line.
    """
    csv_out = args.format == "csv"
    if csv_out:
        text = _csv(
            [header for header, _, _ in columns],
            ([render(row[key])[0] for _, key, render in columns] for row in rows),
        ) + csv_tail
    else:
        payload = {
            "command": args.command,
            **head,
            "rows": [{key: render(row[key])[1] for _, key, render in columns} for row in rows],
            **(tail or {}),
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {args.output}: {exc.strerror or exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None
    else:
        sys.stdout.write(text)
    if csv_out and csv_warning:
        print(f"warning: {csv_warning}", file=sys.stderr)


def _integrality_warning(failures, max_degree: int):
    """The CSV ``warning:`` text for non-integral n_{1,d} values, or None."""
    if not failures:
        return None
    shown = ", ".join(str(d) for d in failures[:5])
    more = ", ..." if len(failures) > 5 else ""
    return (f"{len(failures)} of {max_degree} n_{{1,d}} values are "
            f"not integers, at d = {shown}{more}")


def _localp2_rows(args):
    """The local-P2 genus-1 table with the closed-form comparison, one row per degree."""
    max_degree = _check_max_degree(args)
    report = compute_bps_table(localp2_geometry(max_degree), max_degree)
    rows = [
        {
            "d": row.degree,
            "n1": row.computed,
            "n1_tilde": report.n1_tilde[row.degree],
            "chern": report.chern[row.degree],
            "martin_predicted": row.predicted,
            "match": row.match,
        }
        for row in martin_check(report)
    ]
    return max_degree, report, rows


def _cmd_local_p2(args) -> int:
    max_degree, report, rows = _localp2_rows(args)
    failures = list(report.integrality_failures)
    _write_table(args, _LOCALP2, rows, {"max_degree": max_degree},
                 {"integrality_failures": failures},
                 csv_warning=_integrality_warning(failures, max_degree))
    ok = not failures and all(row["match"] for row in rows)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify_martin(args) -> int:
    max_degree, report, rows = _localp2_rows(args)
    _write_table(args, (_D, _N1, *_MARTIN), rows, {"max_degree": max_degree},
                 csv_warning=_integrality_warning(report.integrality_failures, max_degree))
    return EXIT_OK if all(row["match"] for row in rows) else EXIT_VERIFY


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
        # the coverage error ends in "need 1..{needed}"; name the flag that raised it
        note = ""
        if needed > max_degree and str(exc).endswith(f"need 1..{needed}"):
            note = f" (--meeting-table {meeting} needs degrees up to {needed})"
        print(f"error: {args.input}: {exc}{note}", file=sys.stderr)
        return EXIT_USAGE
    # one engine: the meeting table reads counts the genus-1 run memoized
    engine = Engine(geometry)
    report = compute_bps_table(geometry, max_degree, engine=engine)
    failures = list(report.integrality_failures)

    tail = {"integrality_failures": failures}
    csv_tail = ""
    if meeting:
        H = geometry.ring.H(1)
        span = range(1, meeting + 1)
        cells = [[_rational(engine.n2B(d1, d2, H)) for d2 in span] for d1 in span]
        tail["meeting_table"] = {
            "max_degree": meeting,
            "values": [[value for _, value in row] for row in cells],
        }
        csv_tail = "\n" + _csv(
            ["n_{d1d2}(H|;)"] + [f"d2={j}" for j in span],
            ([f"d1={i}"] + [cell for cell, _ in row] for i, row in zip(span, cells)),
        )

    rows = [{"d": d, "n1": report.n1[d]} for d in report.n1]
    _write_table(args, (_D, _N1), rows, {"max_degree": max_degree},
                 tail, csv_tail, _integrality_warning(failures, max_degree))
    return EXIT_OK


def _cmd_verify_localization(args) -> int:
    max_degree = _check_max_degree(args)
    results = verify_localization(max_degree, seed=args.seed)
    rows = [
        {"d": r["degree"], "g0": r["g0"], "g1": r["g1"], "status": "PASS" if r["ok"] else "FAIL"}
        for r in results
    ]
    _write_table(args, _LOCALIZATION, rows, {"seed": args.seed})
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_VERIFY


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
