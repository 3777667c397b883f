import random

import pytest

from cy5bps.localp2 import (
    LinearForm,
    WeightDegeneracyError,
    WeightTriple,
    cover_factor,
    integrate_M11,
    localization_g0,
    localization_g1,
    localization_g1_locus,
    random_weight_triple,
    verify_localization,
)
from cy5bps.rational import Rat

W = WeightTriple(0, 1, 3)


# -- geometry ---------------------------------------------------------------

def test_geometry_structure(local_geometry_12):
    g = local_geometry_12
    assert g.ring.top_power == 2
    assert g.ring.top_integral is None
    assert g.c2 == -3
    assert g.c3 == 0


def test_base_counts(local_geometry_12):
    g = local_geometry_12
    n0 = [g.n2pt[d] for d in range(1, 13)]
    assert n0[:2] == [1, -1]
    assert all(v == 0 for v in n0[2:])
    # the ring has no H^3, so every 1-pointed count vanishes
    assert all(g.n1pt[d] == 0 for d in range(1, 13))


def test_genus1_gw_series(local_geometry_12):
    gw = local_geometry_12.gw_genus1
    assert gw[1] == Rat(-1, 8)
    assert gw[2] == Rat(1, 16)
    assert gw[7] == Rat(-1, 56)


# -- linear forms over the 1-dimensional moduli --------------------------------

def test_product_truncates_degree_two():
    f = LinearForm(2, 3, 5)
    g = LinearForm(7, -1, 4)
    assert f * g == LinearForm(14, 3 * 7 + 2 * (-1), 5 * 7 + 2 * 4)
    lam = LinearForm(0, 1, 0)
    psi = LinearForm(0, 0, 1)
    assert (lam * lam) == LinearForm(0)
    assert (lam * psi) == LinearForm(0)
    assert (psi * psi) == LinearForm(0)


def test_inverse_of_x_minus_psi():
    x = Rat(5, 3)
    form = LinearForm(x, 0, -1)
    inv = form.inverse()
    assert inv == LinearForm(1 / x, 0, 1 / (x * x))
    assert form * inv == LinearForm(1)


def test_inverse_requires_nonzero_constant():
    with pytest.raises(WeightDegeneracyError):
        LinearForm(0, 1, 0).inverse()


def test_integrate_M11():
    assert integrate_M11(LinearForm(0, 1, 0)) == Rat(1, 24)
    assert integrate_M11(LinearForm(5, 0, 0)) == 0
    assert integrate_M11(LinearForm(0, 2, 3)) == Rat(5, 24)


# -- fixed-point sums ----------------------------------------------------------

def test_weight_triple_rejects_repeats():
    with pytest.raises(WeightDegeneracyError):
        WeightTriple(1, 1, 2)


def test_g0_low_degrees():
    assert localization_g0(1, W) == 1
    assert localization_g0(2, W) == Rat(-1, 2)


def test_g0_weight_independence():
    rng = random.Random(7)
    w1 = random_weight_triple(rng)
    w2 = random_weight_triple(rng)
    assert w1 != w2
    assert localization_g0(5, w1) == localization_g0(5, w2) == Rat(1, 5)


def test_g1_degree_one():
    assert localization_g1(1, W) == Rat(-1, 8)


def test_single_locus_by_hand():
    # locus (a, b) at d = 2 with weights (0, 1, 3): (1/48) * (3-0)/(3-1)
    assert localization_g1_locus(2, 0, 1, 3) == Rat(1, 32)
    assert cover_factor(2, 0, 1, 3) == Rat(1, 32)


def test_locus_values_match_cover_factor():
    for d in (1, 2, 3, 5):
        for (x, y, z) in ((0, 1, 3), (1, 0, 3), (3, 1, 0)):
            assert localization_g1_locus(d, x, y, z) == cover_factor(d, x, y, z)


def test_six_factor_sum_is_three():
    rng = random.Random(11)
    for _ in range(5):
        w = random_weight_triple(rng)
        values = (w.a, w.b, w.c)
        total = Rat(0)
        for i, j, k in ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)):
            x, y, z = values[i], values[j], values[k]
            total += (z - x) / (z - y)
        assert total == 3


def test_g1_closed_form_small_degrees():
    rng = random.Random(3)
    for d in range(1, 9):
        w = random_weight_triple(rng)
        try:
            value = localization_g1(d, w)
        except WeightDegeneracyError:
            continue
        assert value == Rat((-1) ** d, 8 * d)


def test_degenerate_interior_weight_raises():
    # with (a, b) = (0, 2) and d = 2 the interior node weight is (a+b)/2 = 1
    with pytest.raises(WeightDegeneracyError):
        localization_g0(2, WeightTriple(0, 2, 1))
    with pytest.raises(WeightDegeneracyError):
        localization_g1(2, WeightTriple(0, 2, 1))


def test_verify_localization_retries_degenerate_draws():
    results = verify_localization(8, seed=0)
    assert all(r["ok"] for r in results)
    assert [r["degree"] for r in results] == list(range(1, 9))
