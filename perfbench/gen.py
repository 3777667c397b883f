"""Seeded generator of ``cy5-gw v1`` Gromov-Witten input files.

The header is septic-like (``t5=7 c2=21 c3=-112``, the degree-7
hypersurface in P^6); the three per-degree columns are seeded random
rationals.  Real septic data is not available offline, so the file only
has to drive the rational path of the engine: with random columns almost
no intermediate count is an integer.
"""

from __future__ import annotations

import hashlib
import random

HEADER = "t5=7 c2=21 c3=-112"


def _cell(rng: random.Random) -> str:
    num = rng.randint(-1000, 1000)
    den = rng.randint(1, 12)
    return str(num) if den == 1 else f"{num}/{den}"


def gw_file_text(seed: int, max_degree: int) -> str:
    """The whole file for degrees 1..max_degree; same seed, same text."""
    rng = random.Random(f"cy5-gw:{seed}:{max_degree}")
    lines = ["cy5-gw v1", f"{HEADER} maxdeg={max_degree}"]
    for d in range(1, max_degree + 1):
        lines.append(f"{d} {_cell(rng)} {_cell(rng)} {_cell(rng)}")
    return "\n".join(lines) + "\n"


def write_gw_file(path, seed: int, max_degree: int) -> str:
    """Write the file and return the SHA-256 hex digest of its bytes."""
    data = gw_file_text(seed, max_degree).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
