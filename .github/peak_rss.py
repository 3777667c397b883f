"""Run one CLI command through ``cli.main`` in this process and gate its peak RSS.

Usage, from the root of a checkout:

    PYTHONPATH=src python .github/peak_rss.py local-p2|hypersurface [OUTPUT]

``local-p2`` is ``local-p2 --max-degree 200``, gated at 100 MB.
``hypersurface`` first writes perfbench's seed-3 input for
``hypersurface-d80`` with ``perfbench/gen.py`` (imported as it is) into a
temporary directory that is removed after the run, then
runs ``hypersurface --max-degree 80 --meeting-table 40`` on it on the
rational path, gated at 40 MB; its counts are not integers, which the CLI
reports on stderr with exit code 0.

The CLI writes its table to OUTPUT, or to ``/dev/null`` when it is
left out.  The peak printed is the process's own: VmHWM from
``/proc/self/status``, or ``ru_maxrss`` (KiB on Linux) where that file
is missing, so each run needs its own process; ``tests/test_peak_rss.py``
runs both in Tier-1, and the acceptance criteria read the table of the
``local-p2`` run.  The first line printed is ``exit N, wall W s, peak
RSS P MB``, with N the CLI's exit code.  The exit status is nonzero on
a nonzero CLI exit code and on a peak above the gate.  The wall time,
from before ``import cy5bps.cli`` to the CLI's return, is printed only.
"""

import os
import resource
import sys
import tempfile
import time


def main(name: str, output: str = os.devnull) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if name == "local-p2":
            argv, limit_mb = ["local-p2", "--max-degree", "200"], 100
        else:
            sys.path.insert(0, "perfbench")
            import gen

            path = os.path.join(tmp, "seed3.gw")
            gen.write_gw_file(path, 3, 80)
            argv = ["hypersurface", "--input", path, "--max-degree", "80", "--meeting-table", "40"]
            limit_mb = 40
        start = time.perf_counter()
        from cy5bps import cli

        rc = cli.main([*argv, "--output", output])
        wall = time.perf_counter() - start
    try:
        with open("/proc/self/status") as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        source = "VmHWM"
    except OSError:
        kib, source = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "ru_maxrss"
    print(f"exit {rc}, wall {wall:.2f} s, peak RSS {kib / 1024:.1f} MB ({source})")
    if rc:
        return rc
    if kib > limit_mb * 1024:
        print(f"peak RSS above {limit_mb} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in ("local-p2", "hypersurface"):
        sys.exit("usage: peak_rss.py local-p2|hypersurface [OUTPUT]")
    sys.exit(main(*sys.argv[1:]))
