"""The engine's degree-1 and degree-2 Chern integrals and the septic's
genus-1 degree-3 count against Bott's formula."""

from cy5bps import DegreeSeries, Engine, Geometry, Ring, hypersurface_chern
from cy5bps.geometry import load_hypersurface_geometry

from bott import WEIGHTS, conic_chern, line_integral, plane_cubic_count, septic_line_integrals
from golden import GENUS1_SEPTIC
from mirror import septic_gw_text


def test_quintic_threefold_has_2875_lines():
    # the classical count, a calibration of the fixed-point sum
    for weights in WEIGHTS:
        assert line_integral(5, 4, weights[:5], lambda x, mu, q: 1) == 2875


def test_plane_cubics_recover_the_published_genus_1_degree_3_counts():
    # Ellingsrud and Stromme's 609,250 plane cubics on the quintic threefold
    # calibrate the sum; on the septic, each plane cubic is an elliptic curve
    # of degree 3, the paper's n_{1,3}
    for weights in WEIGHTS:
        assert plane_cubic_count(5, 4, weights[:5]) == 609_250
        assert plane_cubic_count(7, 6, weights) == GENUS1_SEPTIC[2] == 26_123_172_457_235


def test_septic_line_integrals_do_not_depend_on_the_weights():
    first, second = (septic_line_integrals(weights) for weights in WEIGHTS)
    assert first == second == (1_009_792, 1_707_797, 117_475_785)


def test_engine_chern_1_equals_bott():
    n1pt, n2pt, chern = septic_line_integrals(WEIGHTS[0])
    c2, c3 = hypersurface_chern(6, 7)
    geometry = Geometry(Ring(5, 7), c2, c3, DegreeSeries({1: n1pt}, 1),
                        DegreeSeries({1: n2pt}, 1), DegreeSeries.zero(1), 1)
    # the degree-1 formula reads the c2 and c3 terms of the compact path
    assert Engine(geometry).chern_integral(1) == chern


def test_engine_chern_2_equals_bott_on_the_mirror_data(tmp_path):
    # chern(2) reads n2A(1, 1) and n2B(1, 1) with their diagonal 1/t5 terms,
    # so the conics check every kind but m3, gamma1 and gamma2 at total
    # degree <= 2 on the compact path
    first, second = (conic_chern(7, 6, weights) for weights in WEIGHTS)
    assert first == second == 12_185_661_480_951
    path = tmp_path / "septic.gw"
    path.write_text(septic_gw_text(2), encoding="utf-8")
    assert Engine(load_hypersurface_geometry(path, 2)).chern_integral(2) == first
