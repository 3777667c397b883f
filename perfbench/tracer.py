"""Traced run of the cy5bps CLI, with spans recorded from outside the package.

Usage: python3 perfbench/tracer.py SPANS_PREFIX -- <cy5bps CLI arguments>

Wrappers are installed on public names before ``cli.main`` runs:

* every public count method of ``Engine`` (class attribute), which also
  catches the recursion, because the engine calls its own public methods;
* the geometry constructors, ``compute_bps_table``, ``martin_check`` and
  ``verify_localization`` as the ``cli`` module looks them up;
* the series inversions and ``localization_g0``/``localization_g1_locus``
  as the modules that call them look them up.

``Engine._corr2`` and ``Engine._corr3`` are private and not wrapped, so
their time lands in the self time of ``n2B`` and ``m3``, which call them.
The CLI's own stdout is left untouched.  The run is single threaded
(``--jobs 1``), so one span stack is enough.

Spans (name, start, end, parent) stay in memory and are written when the
run ends: ``SPANS_PREFIX.bin`` holds four arrays back to back (name index
``H``, parent index ``i``, start ``d``, end ``d``; ``perf_counter``
seconds), and ``SPANS_PREFIX.json`` holds the names, the span count and
the engine counters read back after the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Engine public count method -> (kind label, number of degree arguments,
# H-powers of the unit insertions the memo value is defined with).
ENGINE_METHODS = {
    "n1B": ("n1B", 1, (2, 2)),
    "n1C": ("n1C", 1, (2,)),
    "n1D": ("n1D", 1, (1, 2)),
    "n1E": ("n1E", 1, (1,)),
    "n1F": ("n1F", 1, (2,)),
    "n1G": ("n1G", 1, ()),
    "gamma1": ("gamma1", 1, ()),
    "n2A": ("n2A", 2, (2,)),
    "n2B": ("n2B", 2, (1,)),
    "n2C": ("n2C", 2, ()),
    "n2D": ("n2D", 2, (1,)),
    "n2E": ("n2E", 2, ()),
    "gamma2": ("gamma2", 2, ()),
    "m3": ("m3", 3, ()),
    "chern_integral": ("chern", 1, ()),
}
KINDS = [kind for kind, _, _ in ENGINE_METHODS.values()]
SPAN_TYPECODES = ("H", "i", "d", "d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # kind -> [(engine, degree key)] for every call that filled a memo entry
        self.misses: dict[str, list] = {kind: [] for kind in KINDS}
        self._restore: list[tuple[object, str, object]] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, span: str) -> None:
        fn = getattr(owner, attr)
        idx = self._index(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def wrap_count(self, engine_cls, method: str) -> None:
        kind, ndeg, _ = ENGINE_METHODS[method]
        fn = getattr(engine_cls, method)
        idx = self._index(f"engine.{kind}")
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        misses = self.misses[kind]
        clock = time.perf_counter

        def traced(engine, *args):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            # the memo grows during the call exactly when this key was absent
            before = len(engine.memo)
            t0 = clock()
            try:
                return fn(engine, *args)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
                if len(engine.memo) > before:
                    misses.append((engine, args[:ndeg]))

        self._restore.append((engine_cls, method, fn))
        setattr(engine_cls, method, traced)

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def readback(self, engine_cls) -> dict:
        """Entries, max bit length and integrality of every memo value,
        read through the unwrapped public count methods (memo hits)."""
        kinds = {}
        integral = total = 0
        for method, (kind, _, powers) in ENGINE_METHODS.items():
            fn = getattr(engine_cls, method)
            max_bits = 0
            for engine, key in self.misses[kind]:
                units = [engine.geometry.ring.H(p) for p in powers]
                value = fn(engine, *key, *units)
                num, den = int(value.numerator), int(value.denominator)
                max_bits = max(max_bits, abs(num).bit_length(), den.bit_length())
                integral += den == 1
            total += len(self.misses[kind])
            kinds[kind] = {"entries": len(self.misses[kind]), "max_bits": max_bits}
        return {"kinds": kinds, "integral": integral, "values": total}

    def write_spans(self, prefix: Path) -> None:
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def write_meta(self, prefix: Path, extra: dict) -> None:
        meta = {"names": self.names, "spans": len(self.start), **extra}
        Path(f"{prefix}.json").write_text(json.dumps(meta), encoding="utf-8")


def load_spans(prefix: Path):
    """Inverse of ``Tracer.write_spans`` and ``Tracer.write_meta``: (metadata, name, parent, start, end)."""
    meta = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    arrays = [array(code) for code in SPAN_TYPECODES]
    with open(f"{prefix}.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, meta["spans"])
    return (meta, *arrays)


def install(tracer: Tracer) -> None:
    from cy5bps import cli, engine, genus1, geometry, localp2

    for method in ENGINE_METHODS:
        tracer.wrap_count(engine.Engine, method)
    tracer.wrap(cli, "localp2_geometry", "geometry.build")
    tracer.wrap(cli, "load_hypersurface_geometry", "geometry.build")
    tracer.wrap(cli, "compute_bps_table", "genus1.compute_bps_table")
    tracer.wrap(cli, "martin_check", "genus1.martin_check")
    tracer.wrap(cli, "verify_localization", "localp2.verify")
    tracer.wrap(geometry, "invert_multi_cover", "series.invert")
    tracer.wrap(localp2, "invert_multi_cover", "series.invert")
    tracer.wrap(genus1, "extract_genus1_bps", "series.extract")
    tracer.wrap(genus1, "extract_genus1_bps_tilde", "series.extract")
    tracer.wrap(localp2, "localization_g0", "localp2.g0")
    tracer.wrap(localp2, "localization_g1_locus", "localp2.g1_locus")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_PREFIX -- <cy5bps arguments>", file=sys.stderr)
        return 1
    prefix, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from cy5bps import cli
    from cy5bps.engine import Engine

    tracer = Tracer()
    install(tracer)
    tracer.wrap(cli, "main", "cli.main")
    rc = cli.main(cli_args)
    sys.stdout.flush()
    post_start = time.perf_counter()
    tracer.unwrap()
    counters = tracer.readback(Engine)
    tracer.write_spans(prefix)
    # the parent subtracts this post-run work from the traced wall time
    post_s = time.perf_counter() - post_start
    tracer.write_meta(prefix, {"rc": rc, "engine": counters, "post_s": post_s})
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
