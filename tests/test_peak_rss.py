"""The peak-RSS gates of ``.github/peak_rss.py``: ``local-p2 --max-degree
200`` under 100 MB and the degree-80 ``hypersurface`` run under 40 MB.

Each gate runs in its own interpreter (``run_peak_rss_gate`` in
``conftest.py``).  The ``local-p2`` run is the session's shared one, whose
table the acceptance criteria 2 and 3 read.
"""

import pytest

from conftest import run_peak_rss_gate


@pytest.mark.parametrize("name", ["local-p2", "hypersurface"])
def test_peak_rss_gate(name, request):
    if name == "local-p2":
        proc, _ = request.getfixturevalue("local_p2_200_gate")
    else:
        proc = run_peak_rss_gate(name)
    # the exit code, wall time and peak, shown with ``pytest -s``
    print(proc.stdout, end="")
    assert proc.returncode == 0, proc.stdout + proc.stderr
