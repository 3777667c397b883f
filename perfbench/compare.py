"""Compare two sets of benchmark results, workload by workload.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to
``.perfbench/results/``.  For every workload and metric it prints the
median and quartiles of each side over its runs (seeds) and the change of
the median.  Results measured on another rational backend or Python
version are not comparable, so the comparison is refused (exit 1) when
those differ between any two records.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BASE_DIR NEW_DIR", file=sys.stderr)
        return 1
    sides = [load(Path(arg)) for arg in argv]
    if not all(sides):
        print("error: a directory holds no results", file=sys.stderr)
        return 1
    for key in ("backend", "python"):
        seen = {record["env"][key] for side in sides for record in side}
        if len(seen) > 1:
            print(f"refusing to compare: results differ in {key}: {', '.join(sorted(seen))}",
                  file=sys.stderr)
            return 1
    values = [defaultdict(list), defaultdict(list)]
    for side, table in zip(sides, values):
        for record in side:
            for metric, value in record["metrics"].items():
                table[(record["workload"], record["trace"], metric)].append(value)
    print(f"{'workload':18s} {'metric':28s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'change':>8s}")
    for key in sorted(set(values[0]) & set(values[1])):
        workload, _, metric = key
        base, new = quartiles(values[0][key]), quartiles(values[1][key])
        change = f"{new[1] / base[1] - 1:+.1%}" if base[1] else "n/a"
        print(f"{workload:18s} {metric:28s} "
              f"{'/'.join(f'{v:.4g}' for v in base):>32s} {'/'.join(f'{v:.4g}' for v in new):>32s} "
              f"{change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
