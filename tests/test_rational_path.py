"""Pins the hypersurface CLI's output on a random rational geometry.

The input has nonzero diagonal, c3 and 1-pointed terms and random
rational header and columns (here t5=13/10, c2=-197/4, c3=53/5), so
almost no count is an integer and every branch of the recursion runs on
the rational path well above the hand-computed degrees.  The digests
were recorded from the engine before its geometry tables and exact-sum
helper existed, so they do not depend on the code they check.
"""

import hashlib

import pytest

from cy5bps.cli import main

from conftest import random_gw_text

SEED = 2
MAX_DEGREE = 24
MEETING_DEGREE = 12

DIGESTS = {
    "csv": "3583c7c9cbe7aed862084ae922cfe5e4a5ecc25cc3215bbf5b5164df82b8f719",
    "json": "7dcf8bad3290d077e770f8a3e3eebeb8ef845c55463754abc519ea3c6bfaa53a",
}


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_hypersurface_rational_output_is_pinned(write_gw_file, capsys, fmt):
    path = write_gw_file(random_gw_text(SEED, MAX_DEGREE))
    main([
        "hypersurface", "--input", str(path),
        "--max-degree", str(MAX_DEGREE), "--meeting-table", str(MEETING_DEGREE),
        "--format", fmt,
    ])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[fmt]
