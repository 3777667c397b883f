"""Exact-arithmetic genus-0/genus-1 BPS curve counts for Calabi-Yau
5-fold geometries with a rank-1 curve cone.

The library turns Gromov-Witten data into integer-conjectured curve
counts: genus-0 counts through the multiple-cover inversion, and
genus-1 counts through meeting-number recursions for configurations of
rational curves, per-degree Chern integrals of the family of embedded
rational curves, and the genus-1 cover-sum inversion.  Two backends
are included: the closed-form local P^2 geometry (with torus
fixed-point verifiers) and a file-driven compact hypersurface mode.

Each exported name loads its defining module on first use (PEP 562),
so ``import cy5bps`` compiles only this file, and a command that runs
only the fixed-point verifiers never compiles the engine.
"""

import importlib

# Each exported name, in the order of __all__, and the module that defines it.
_EXPORTS = {
    "Rat": "rational",
    "parse_rational": "rational",
    "format_rational": "rational",
    "is_integer": "rational",
    "SeriesError": "series",
    "DegreeSeries": "series",
    "sigma": "series",
    "moebius": "series",
    "invert_multi_cover": "series",
    "extract_genus1_bps": "series",
    "extract_genus1_bps_tilde": "series",
    "Ring": "cohomology",
    "CohClass": "cohomology",
    "RingMismatchError": "cohomology",
    "InsertionDegreeError": "cohomology",
    "Geometry": "geometry",
    "GeometryFileError": "geometry",
    "load_hypersurface_geometry": "geometry",
    "hypersurface_chern": "geometry",
    "localp2_geometry": "localp2",
    "WeightTriple": "localp2",
    "WeightDegeneracyError": "localp2",
    "localization_g0": "localp2",
    "localization_g1": "localp2",
    "verify_localization": "localp2",
    "Engine": "engine",
    "BpsReport": "genus1",
    "compute_bps_table": "genus1",
    "martin_S": "genus1",
    "martin_V": "genus1",
    "martin_check": "genus1",
}

# every submodule, reachable as an attribute before anything imports it
_SUBMODULES = {*_EXPORTS.values(), "cli", "record", "__main__"}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
