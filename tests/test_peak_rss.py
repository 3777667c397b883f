"""The peak-RSS gates of ``.github/peak_rss.py``: ``local-p2 --max-degree
200`` under 100 MB and the degree-80 ``hypersurface`` run under 40 MB.

The script reads the peak of its own process, so each run gets a fresh
interpreter, with ``src`` on its path and a DeprecationWarning raised in
the CLI made an error, as the in-process filter makes it one here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["local-p2", "hypersurface"])
def test_peak_rss_gate(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="error::DeprecationWarning")
    proc = subprocess.run([sys.executable, os.path.join(".github", "peak_rss.py"), name],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    # the exit code, wall time and peak, shown with ``pytest -s``
    print(proc.stdout, end="")
    assert proc.returncode == 0, proc.stdout + proc.stderr
