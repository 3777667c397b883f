import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cy5bps import localp2_geometry, load_hypersurface_geometry
from cy5bps.cohomology import Ring
from cy5bps.geometry import Geometry
from cy5bps.rational import Rat
from cy5bps.series import DegreeSeries

ROOT = Path(__file__).resolve().parent.parent


def run_peak_rss_gate(name, output=None):
    """Run ``.github/peak_rss.py name [output]`` and return the finished process.

    The script reads the peak of its own process, so each run gets a fresh
    interpreter, with ``src`` on its path and a DeprecationWarning raised in
    the CLI made an error, as the in-process filter makes it one here.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="error::DeprecationWarning")
    args = [sys.executable, os.path.join(".github", "peak_rss.py"), name]
    if output is not None:
        args.append(str(output))
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="session")
def local_p2_200_gate(tmp_path_factory):
    """The session's one ``local-p2 --max-degree 200`` run: the peak-RSS
    gate's, with the CLI's table written to a file.  Returns the finished
    process and the table's path; the gate test asserts the exit status and
    the acceptance criteria read the table."""
    out = tmp_path_factory.mktemp("local200") / "local200.csv"
    return run_peak_rss_gate("local-p2", out), out


def gw_file_text(t5="7", c2="21", c3="-112", maxdeg=6, rows=None):
    """Assemble a Gromov-Witten input file; rows default to all zeros."""
    lines = ["cy5-gw v1", f"t5={t5} c2={c2} c3={c3} maxdeg={maxdeg}"]
    for d in range(1, maxdeg + 1):
        if rows and d in rows:
            a, b, c = rows[d]
        else:
            a = b = c = "0"
        lines.append(f"{d} {a} {b} {c}")
    return "\n".join(lines) + "\n"


def _random_rational(rng, lo, hi):
    num, den = rng.randint(lo, hi), rng.randint(1, 12)
    return str(num) if den == 1 else f"{num}/{den}"


def random_gw_text(seed, maxdeg):
    """A Gromov-Witten input file with a seeded random rational header
    (t5 > 0, c2, c3) and random rational columns."""
    rng = random.Random(f"cy5bps-rational-path:{seed}")
    t5 = _random_rational(rng, 1, 30)
    c2, c3 = _random_rational(rng, -200, 200), _random_rational(rng, -200, 200)
    rows = {
        d: tuple(_random_rational(rng, -1000, 1000) for _ in range(3))
        for d in range(1, maxdeg + 1)
    }
    return gw_file_text(t5=t5, c2=c2, c3=c3, maxdeg=maxdeg, rows=rows)


# integer columns, most of them zero, with c2 = 1/11 (t5 = 7, c3 = 0)
C2_ELEVENTH_ROWS = {2: ("3", "2", "0"), 3: ("-1", "3", "0"), 4: ("-1", "3", "0"),
                    5: ("2", "0", "-1"), 6: ("-1", "2", "0"), 7: ("1", "0", "3"),
                    8: ("0", "-1", "1")}


def c2_eleventh_gw_text(maxdeg):
    """A Gromov-Witten input file whose c2 = 1/11 shares no factor with the
    other inputs, and whose sparse columns keep c2's factor out of the
    denominators of n2C and n2E: a c2 * n2A term over a denominator that
    leaves out c2's factor shows at total degree 5."""
    return gw_file_text(t5="7", c2="1/11", c3="0", maxdeg=maxdeg, rows=C2_ELEVENTH_ROWS)


def inexact_int_geometry(max_degree):
    """A local geometry with integer inputs (c2 = 3, 2-pointed base counts
    -3, -1, -3, then 1): every term of level 4 is an integer, but one n2B
    there, an integer sum divided by -2, is not."""
    n2pt = {1: -3, 2: -1, 3: -3}
    return Geometry(
        ring=Ring(top_power=2), c2=Rat(3), c3=Rat(0),
        n1pt=DegreeSeries.zero(max_degree),
        n2pt=DegreeSeries.from_function(lambda d: Rat(n2pt.get(d, 1)), max_degree),
        gw_genus1=DegreeSeries.zero(max_degree), max_degree=max_degree,
    )


@pytest.fixture
def write_gw_file(tmp_path):
    def _write(text, name="geometry.gw"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


@pytest.fixture
def zero_geometry(write_gw_file):
    """Compact-ring geometry with all Gromov-Witten inputs zero."""
    path = write_gw_file(gw_file_text(maxdeg=8))
    return load_hypersurface_geometry(path, 8)


# Synthetic compact geometry with simple nonzero base counts, chosen so
# the multiple-cover inversion lands on round tables:
#   1-pointed base counts (2, 3, 5, 7), 2-pointed base counts (1, 1, 1, 1).
SYNTHETIC_ROWS = {
    1: ("2", "1", "1"),
    2: ("7/2", "3/2", "2"),
    3: ("47/9", "4/3", "3"),
    4: ("63/8", "7/4", "4"),
}


@pytest.fixture
def synthetic_geometry(write_gw_file):
    path = write_gw_file(gw_file_text(t5="2", c2="5", c3="7", maxdeg=4, rows=SYNTHETIC_ROWS))
    return load_hypersurface_geometry(path, 4)


@pytest.fixture(scope="session")
def local_geometry_12():
    return localp2_geometry(12)
