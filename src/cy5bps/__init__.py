"""Exact-arithmetic genus-0/genus-1 BPS curve counts for Calabi-Yau
5-fold geometries with a rank-1 curve cone.

The library turns Gromov-Witten data into integer-conjectured curve
counts: genus-0 counts through the multiple-cover inversion, and
genus-1 counts through meeting-number recursions for configurations of
rational curves, per-degree Chern integrals of the family of embedded
rational curves, and the genus-1 cover-sum inversion.  Two backends
are included: the closed-form local P^2 geometry (with torus
fixed-point verifiers) and a file-driven compact hypersurface mode.
"""

from .cohomology import CohClass, InsertionDegreeError, Ring, RingMismatchError
from .engine import Engine
from .genus1 import BpsReport, compute_bps_table, martin_S, martin_V, martin_check
from .geometry import (
    Geometry,
    GeometryFileError,
    hypersurface_chern,
    load_hypersurface_geometry,
)
from .localp2 import (
    WeightDegeneracyError,
    WeightTriple,
    localization_g0,
    localization_g1,
    localp2_geometry,
    verify_localization,
)
from .rational import Rat, format_rational, is_integer, parse_rational
from .series import (
    DegreeSeries,
    SeriesError,
    extract_genus1_bps,
    extract_genus1_bps_tilde,
    forward_genus1_gw,
    forward_genus1_gw_tilde,
    forward_multi_cover,
    invert_multi_cover,
    moebius,
    sigma,
)

__version__ = "0.1.0"

__all__ = [
    "Rat",
    "parse_rational",
    "format_rational",
    "is_integer",
    "SeriesError",
    "DegreeSeries",
    "sigma",
    "moebius",
    "invert_multi_cover",
    "forward_multi_cover",
    "extract_genus1_bps",
    "forward_genus1_gw",
    "extract_genus1_bps_tilde",
    "forward_genus1_gw_tilde",
    "Ring",
    "CohClass",
    "RingMismatchError",
    "InsertionDegreeError",
    "Geometry",
    "GeometryFileError",
    "load_hypersurface_geometry",
    "hypersurface_chern",
    "localp2_geometry",
    "WeightTriple",
    "WeightDegeneracyError",
    "localization_g0",
    "localization_g1",
    "verify_localization",
    "Engine",
    "BpsReport",
    "compute_bps_table",
    "martin_S",
    "martin_V",
    "martin_check",
    "__version__",
]
