"""End-to-end and per-layer benchmark of the cy5bps CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: it times ``setup_s`` in
fresh interpreters, then runs the workload as a single-threaded CLI
subprocess (``--jobs 1``, one process at a time) until ``--seconds`` have
passed, checks every output, and reports the mean time and the median peak
RSS over the runs.
``--trace 1`` runs the CLI once untraced and once under ``tracer.py`` and
reports the per-layer metrics.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment and every raw sample, is written to
``.perfbench/results/``.  See ``perfbench/README.md`` for the workloads
and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# set-up is timed this many times before each CLI run, so that its samples
# spread over the run like the CLI samples do
SETUP_PER_RUN = 3
HYPERSURFACE_DEGREE = 80
MEETING_DEGREE = 40


@dataclass(frozen=True)
class Workload:
    cli_args: Callable[[Path | None, int], list[str]]
    # Python source run in a fresh interpreter after ``import cy5bps``
    # (``PATH`` names the generated input file)
    setup: str
    check: Callable[[int, bytes, "Context"], list[str]]
    needs_input: bool = False


@dataclass
class Context:
    golden: list[int]
    reference_digest: str | None = None


def check_digest(out: bytes, ctx: Context) -> list[str]:
    digest = hashlib.sha256(out).hexdigest()
    if ctx.reference_digest is None:
        # seeds without a recorded reference: the first output becomes the
        # reference for the rest of the run, so every run must agree with it
        ctx.reference_digest = digest
    elif digest != ctx.reference_digest:
        return [f"stdout digest {digest} differs from reference {ctx.reference_digest}"]
    return []


def _check_hypersurface(rc: int, out: bytes, ctx: Context) -> list[str]:
    return (checks.check_hypersurface(rc, out, HYPERSURFACE_DEGREE, MEETING_DEGREE)
            + check_digest(out, ctx))


WORKLOADS = {
    "localp2-d100": Workload(
        cli_args=lambda path, seed: ["local-p2", "--max-degree", "100"],
        setup="cy5bps.localp2_geometry(100)",
        check=lambda rc, out, ctx: checks.check_localp2(rc, out, 100, ctx.golden),
    ),
    "hypersurface-d80": Workload(
        cli_args=lambda path, seed: [
            "hypersurface", "--input", str(path),
            "--max-degree", str(HYPERSURFACE_DEGREE), "--meeting-table", str(MEETING_DEGREE),
        ],
        setup=f"cy5bps.load_hypersurface_geometry(PATH, {max(HYPERSURFACE_DEGREE, 2 * MEETING_DEGREE)})",
        check=_check_hypersurface,
        needs_input=True,
    ),
    "verify-d150": Workload(
        cli_args=lambda path, seed: ["verify-localization", "--max-degree", "150", "--seed", str(seed)],
        setup="",
        check=lambda rc, out, ctx: checks.check_verify(rc, out, 150),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "geometry.build_s": "s",
    "series.extract_s": "s",
    "engine.total_s": "s",
    **{f"engine.{kind}.{field}": unit
       for kind in tracer.KINDS
       for field, unit in (("self_s", "s"), ("calls", "count"), ("entries", "count"), ("max_bits", "bits"))},
    "engine.hit_ratio": "ratio",
    "engine.meeting_s": "s",
    "engine.integral_frac": "ratio",
    "genus1.martin_check_s": "s",
    "localp2.verify_s": "s",
    "localp2.g0.self_s": "s",
    "localp2.g1_locus.self_s": "s",
    "localp2.g1_locus.calls": "count",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class Sample:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes


def run_child(argv: list[str], out_path: Path) -> Sample:
    """Run one child process, stdout to ``out_path``; wall time from launch
    to exit, CPU time and peak RSS from the child's own rusage."""
    with open(out_path, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
    )


def measure_setup(workload: Workload, input_path: Path | None) -> tuple[float, str, str]:
    """Import-plus-geometry time of one fresh interpreter, with the rational
    backend and Python version it reports."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import cy5bps\n"
        f"PATH = {str(input_path)!r}\n"
        f"{workload.setup}\n"
        "t1 = time.perf_counter()\n"
        "import json, platform\n"
        "print(json.dumps({'setup_s': t1 - t0, 'backend': cy5bps.rational.Rat.__module__,"
        " 'python': platform.python_version()}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                          capture_output=True, check=True)
    info = json.loads(done.stdout)
    return info["setup_s"], info["backend"], info["python"]


def source_digest() -> str:
    """SHA-256 over the package sources, as a revision id that also works
    in a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment(backend: str, python: str) -> dict:
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": python,
        "backend": backend,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def reference_digest(seed: int) -> str | None:
    table = json.loads((Path(__file__).resolve().parent / "reference_digests.json").read_text())
    entry = table["seeds"].get(str(seed))
    return entry["stdout"] if entry else None


def prepare(name: str, seed: int) -> tuple[Workload, Path | None, str | None, Context]:
    workload = WORKLOADS[name]
    for sub in ("inputs", "out", "results", "trace"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    input_path = input_digest = None
    if workload.needs_input:
        input_path = WORK / "inputs" / f"{name}-seed{seed}.gw"
        input_digest = gen.write_gw_file(input_path, seed, max(HYPERSURFACE_DEGREE, 2 * MEETING_DEGREE))
    ctx = Context(golden=checks.golden_local_p2(ROOT),
                  reference_digest=reference_digest(seed) if workload.needs_input else None)
    return workload, input_path, input_digest, ctx


def cli_args(workload: Workload, input_path: Path | None, seed: int) -> list[str]:
    return [*workload.cli_args(input_path, seed), "--jobs", "1"]


def cli_argv(workload: Workload, input_path: Path | None, seed: int) -> list[str]:
    return [sys.executable, "-m", "cy5bps", *cli_args(workload, input_path, seed)]


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload, input_path, input_digest, ctx = prepare(name, seed)
    argv = cli_argv(workload, input_path, seed)
    samples, problems, setup_samples = [], [], []
    start = time.perf_counter()
    # start another CLI run only while it is expected to end no later than
    # half a run past the deadline
    while not samples or (time.perf_counter() - start
                          + statistics.fmean(s.wall_s for s in samples) / 2 < seconds):
        for _ in range(SETUP_PER_RUN):
            setup_s, backend, python = measure_setup(workload, input_path)
            setup_samples.append(setup_s)
        sample = run_child(argv, WORK / "out" / f"{name}.txt")
        found = workload.check(sample.rc, sample.stdout, ctx)
        problems.append(found)
        samples.append(sample)
    # Times are means over the run, not medians: on a shared VM the CPU speed
    # can shift between two levels for 10-30 s at a time, and the median of
    # the 2-4 CLI runs that fit picks one level where the mean averages them.
    metrics = {
        "wall_s": statistics.fmean(s.wall_s for s in samples),
        "cpu_s": statistics.fmean(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.fmean(setup_samples),
    }
    return {
        "workload": name, "seed": seed, "trace": 0,
        "env": environment(backend, python),
        "input_sha256": input_digest,
        "stdout_sha256": sorted({hashlib.sha256(s.stdout).hexdigest() for s in samples}),
        "samples": [
            {"rc": s.rc, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb}
            for s in samples
        ],
        "setup_samples": setup_samples,
        "problems": problems,
        "attempted": len(samples),
        "failed": sum(1 for p in problems if p),
        "metrics": metrics,
        "units": END_TO_END_UNITS,
    }


def layer_metrics(prefix: Path) -> tuple[dict, dict]:
    """Per-layer metrics from a written trace; also returns the metadata."""
    meta, name, parent, start, end = tracer.load_spans(prefix)
    names = meta["names"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    engine_ids = {i for i, label in enumerate(names) if label.startswith("engine.")}
    total = dict.fromkeys(names, 0.0)
    self_time = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    top_level = dict.fromkeys(names, 0.0)
    for i in range(n):
        label = names[name[i]]
        total[label] += dur[i]
        self_time[label] += dur[i] - child[i]
        calls[label] += 1
        if name[i] in engine_ids and (parent[i] < 0 or name[parent[i]] not in engine_ids):
            top_level[label] += dur[i]

    engine = meta["engine"]
    all_calls = sum(calls[f"engine.{kind}"] for kind in tracer.KINDS)
    all_entries = sum(engine["kinds"][kind]["entries"] for kind in tracer.KINDS)
    metrics = {
        "geometry.build_s": total["geometry.build"],
        "series.extract_s": total["series.extract"],
        # top-level chern calls come from compute_bps_table; a top-level n2B
        # call is the meeting-table grid on the CLI's second Engine
        "engine.total_s": top_level["engine.chern"],
        "engine.meeting_s": top_level["engine.n2B"],
        "engine.hit_ratio": 1 - all_entries / all_calls if all_calls else 0.0,
        "engine.integral_frac": engine["integral"] / engine["values"] if engine["values"] else 0.0,
        "genus1.martin_check_s": total["genus1.martin_check"],
        "localp2.verify_s": total["localp2.verify"],
        "localp2.g0.self_s": self_time["localp2.g0"],
        "localp2.g1_locus.self_s": self_time["localp2.g1_locus"],
        "localp2.g1_locus.calls": calls["localp2.g1_locus"],
        "cli.emit_s": self_time["cli.main"],
    }
    for kind in tracer.KINDS:
        metrics[f"engine.{kind}.self_s"] = self_time[f"engine.{kind}"]
        metrics[f"engine.{kind}.calls"] = calls[f"engine.{kind}"]
        metrics[f"engine.{kind}.entries"] = engine["kinds"][kind]["entries"]
        metrics[f"engine.{kind}.max_bits"] = engine["kinds"][kind]["max_bits"]
    return metrics, meta


def run_traced(name: str, seed: int) -> dict:
    workload, input_path, input_digest, ctx = prepare(name, seed)
    _, backend, python = measure_setup(workload, input_path)
    argv = cli_argv(workload, input_path, seed)
    plain = run_child(argv, WORK / "out" / f"{name}.txt")
    problems = [workload.check(plain.rc, plain.stdout, ctx)]
    prefix = WORK / "trace" / name
    for suffix in (".bin", ".json"):
        Path(f"{prefix}{suffix}").unlink(missing_ok=True)
    traced_argv = [sys.executable, str(Path(tracer.__file__).resolve()), str(prefix), "--",
                   *cli_args(workload, input_path, seed)]
    traced = run_child(traced_argv, WORK / "out" / f"{name}.traced.txt")
    found = workload.check(traced.rc, traced.stdout, ctx)
    if traced.stdout != plain.stdout:
        found.append("traced stdout differs from untraced stdout")
    problems.append(found)
    metrics, meta = layer_metrics(prefix)
    metrics["cli.output_bytes"] = len(plain.stdout)
    metrics["trace.overhead_s"] = traced.wall_s - meta["post_s"] - plain.wall_s
    return {
        "workload": name, "seed": seed, "trace": 1,
        "env": environment(backend, python),
        "input_sha256": input_digest,
        "stdout_sha256": sorted({hashlib.sha256(s.stdout).hexdigest() for s in (plain, traced)}),
        "samples": [{"rc": s.rc, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb}
                    for s in (plain, traced)],
        "spans": meta["spans"],
        "problems": problems,
        "attempted": 2,
        "failed": sum(1 for p in problems if p),
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cy5bps/__init__.py", "tests/golden.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: no cy5bps checkout at {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.trace:
        record = run_traced(args.workload, args.seed)
    else:
        record = run_end_to_end(args.workload, args.seed, args.seconds)
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  backend {env['backend']}  "
          f"python {env['python']}  nproc {env['nproc']}  loadavg {env['loadavg'][0]:.2f}")
    if record["input_sha256"]:
        print(f"input sha256 {record['input_sha256']}")
    for found in record["problems"]:
        for problem in found[:20]:
            print(f"FAILED CHECK: {problem}")
    units = record["units"]
    for key, value in record["metrics"].items():
        print(f"{key:32s} {value:>16.6g} {units[key]}")
    print(f"{'failed_frac':32s} {record['failed'] / record['attempted']:>16.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} runs)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
