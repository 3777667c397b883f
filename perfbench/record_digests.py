"""Record reference stdout digests of the hypersurface-d80 workload.

Usage: python3 perfbench/record_digests.py FIRST LAST

Runs the workload's CLI command once for each seed FIRST..LAST, checks
the output, and stores the SHA-256 of the generated input and of stdout
in ``perfbench/reference_digests.json``.  ``run.py`` then requires every
later output for a recorded seed to carry the same stdout digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import run

TABLE = Path(__file__).resolve().parent / "reference_digests.json"


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    for seed in range(first, last + 1):
        workload, input_path, input_digest, ctx = run.prepare("hypersurface-d80", seed)
        ctx.reference_digest = None
        sample = run.run_child(run.cli_argv(workload, input_path, seed),
                               run.WORK / "out" / "record.txt")
        problems = workload.check(sample.rc, sample.stdout, ctx)
        if problems:
            print(f"seed {seed}: not recorded: {problems[:3]}", file=sys.stderr)
            return 1
        table["seeds"][str(seed)] = {"input": input_digest,
                                     "stdout": hashlib.sha256(sample.stdout).hexdigest()}
        print(f"seed {seed}: {sample.wall_s:.1f} s", flush=True)
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
