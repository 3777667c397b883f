import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cy5bps import localp2
from cy5bps.cli import main
from cy5bps.localp2 import (
    WeightDegeneracyError,
    WeightTriple,
    _integer_weights,
    cover_factor,
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


def test_weight_draws_are_pinned():
    # the stream's raw draw 10, (-16/3, 17/4, 17/4), repeats a weight and is
    # skipped, so the eleventh triple is raw draw 11
    rng = random.Random(8)
    draws = [random_weight_triple(rng) for _ in range(12)]
    assert [(str(w.a), str(w.b), str(w.c)) for w in draws] == [
        ("-11/6", "8/3", "-4/3"), ("-35/2", "-23/4", "6"), ("1", "-37/8", "11/4"),
        ("9/8", "33/4", "11/2"), ("11/2", "-19/6", "-2/3"), ("3/2", "2/3", "-26/11"),
        ("-7/2", "-32/7", "39/7"), ("-27/11", "-11/2", "-5/6"), ("-29/8", "13/2", "34/3"),
        ("37/2", "29", "11/6"), ("-4/9", "5/7", "-23/3"), ("18", "7/3", "0"),
    ]


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


def _sympy_locus(d, x, y, z):
    """The five-factor genus-1 integrand as forms in lam and psi, integrated.

    lam and psi are scaled by t; the degree-1 part of the integrand is
    its t-derivative at t = 0, and both classes integrate to 1/24.
    """
    lam, psi, t = sympy.symbols("lam psi t")
    x, y, z = (sympy.Rational(v.numerator, v.denominator) for v in (x, y, z))
    sign = sympy.Integer(-1) ** (d - 1)
    fact = sympy.factorial(d - 1)
    scale = fact / sympy.Integer(d) ** (d - 1)
    interior = sympy.prod([z - ((d - r) * x + r * y) / d for r in range(1, d)])
    h1_first = sign * scale * (x - y) ** (d - 1) * (-t * lam)
    h1_second = sign * scale * (y - x) ** (d - 1) * ((x - y) - t * lam)
    h1_third = sign * interior * ((x - z) - t * lam)
    obstruction = ((y - x) - t * lam) * ((z - x) - t * lam)
    tangent = (
        (-1) ** d * (fact * d) ** 2 / sympy.Integer(d) ** (2 * d - 1)
        * (x - y) ** (2 * d - 1) * (z - x) * (z - y) * interior
        * ((y - x) / d - t * psi)
    )
    integrand = h1_first * h1_second * h1_third * obstruction / tangent / d
    degree_one = sympy.diff(integrand, t).subs(t, 0)
    return degree_one.subs({lam: sympy.Rational(1, 24), psi: sympy.Rational(1, 24)})


@pytest.mark.parametrize("weights", [(0, 1, 3), ("-7/3", "5/2", 11), (3, 1, 0)])
def test_locus_matches_five_factor_integrand(weights):
    x, y, z = (Rat(v) for v in weights)
    for d in range(1, 9):
        expected = _sympy_locus(d, x, y, z)
        assert expected.is_Rational
        value = localization_g1_locus(d, x, y, z)
        assert value == Fraction(int(expected.p), int(expected.q))


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


@pytest.mark.parametrize("x, y, z", [(1, 1, 3), (3, 1, 3), (1, 3, 3)])
@pytest.mark.parametrize("func", [localization_g1_locus, cover_factor])
def test_locus_helpers_reject_coincident_weights(func, x, y, z):
    with pytest.raises(WeightDegeneracyError, match="weights must be pairwise distinct"):
        func(2, x, y, z)


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


@pytest.mark.parametrize("kwargs", [{"max_degree": 0}, {"max_degree": -3}])
def test_verify_localization_rejects_vacuous_runs(kwargs):
    with pytest.raises(ValueError):
        verify_localization(**{"max_degree": 3, **kwargs})


@pytest.mark.parametrize("d", [0, -1])
def test_locus_helpers_validate_degree(d):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        localization_g1_locus(d, 0, 1, 3)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        cover_factor(d, 0, 1, 3)


# -- the verifier can fail ----------------------------------------------------

def _off_by(func, eps):
    def shifted(*args):
        return func(*args) + eps
    return shifted


@pytest.mark.parametrize("name", ["cover_factor", "localization_g1_locus", "localization_g0"])
def test_verify_localization_reports_a_wrong_value(monkeypatch, capsys, name):
    monkeypatch.setattr(localp2, name, _off_by(getattr(localp2, name), Rat(1, 10**9)))
    results = verify_localization(3, seed=0)
    assert [r["ok"] for r in results] == [False, False, False]

    assert main(["verify-localization", "--max-degree", "3"]) == 2
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["FAIL"] * 3


# -- the interior product against a per-factor product --------------------------

def _naive_interior_product(d, x, y, z):
    x, y, z = (Fraction(v) for v in (x, y, z))
    prod = Fraction(1)
    for r in range(1, d):
        factor = z - ((d - r) * x + r * y) / Fraction(d)
        if factor == 0:
            raise WeightDegeneracyError(
                f"degenerate weights: z = ((d-r)x + ry)/d at d={d}, r={r}"
            )
        prod *= factor
    return prod


def _naive_g0(d, w):
    """localization_g0 as a product of per-factor Fractions, each normalised."""
    a, b, c = (Fraction(v) for v in (w.a, w.b, w.c))
    sign = Fraction((-1) ** (d - 1))
    fact = Fraction(math.factorial(d - 1))
    scale = fact / Fraction(d) ** (d - 1)
    interior = _naive_interior_product(d, a, b, c)

    h1_first = sign * scale * (a - b) ** (d - 1)
    h1_second = sign * scale * (b - a) ** (d - 1)
    h1_third = sign * interior
    tangent = sign * scale * scale * (a - b) ** (2 * (d - 1)) * interior
    return h1_first * h1_second * h1_third / tangent / Fraction(d)


def _naive_g1_locus(d, x, y, z):
    """localization_g1_locus as a product of per-factor Fractions, each
    normalised."""
    x, y, z = (Fraction(v) for v in (x, y, z))
    if x == y or y == z or x == z:
        raise WeightDegeneracyError("weights must be pairwise distinct")
    sign = Fraction((-1) ** (d - 1))
    fact = Fraction(math.factorial(d - 1))
    scale = fact / Fraction(d) ** (d - 1)
    interior = _naive_interior_product(d, x, y, z)

    h1_first = -sign * scale * (x - y) ** (d - 1)
    h1_second = sign * scale * (y - x) ** (d - 1) * (x - y)
    h1_third = sign * interior * (x - z)
    obstruction = (y - x) * (z - x)
    tangent = (
        Fraction((-1) ** d)
        * (fact * d) ** 2
        / Fraction(d) ** (2 * d - 1)
        * (x - y) ** (2 * d - 1)
        * (z - x)
        * (z - y)
        * interior
        * ((y - x) / Fraction(d))
    )
    return h1_first * h1_second * h1_third * obstruction / tangent / Fraction(24 * d)


def _interior_product(d, x, y, z):
    """The interior product rebuilt from _integer_weights: over the common
    denominator L of x, y and z, each factor is an integer over d*L."""
    L = math.lcm(x.denominator, y.denominator, z.denominator)
    X, Y, Z, num = _integer_weights(d, x, y, z)
    assert (X, Y, Z) == (x * L, y * L, z * L)
    return Rat(num, (d * L) ** (d - 1))


def _outcome(func, *args):
    try:
        return func(*args)
    except WeightDegeneracyError as exc:
        return str(exc)


_weights = st.builds(Rat, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 40), x=_weights, y=_weights, z=_weights)
def test_interior_product_matches_per_factor_product(d, x, y, z):
    expected = _outcome(_naive_interior_product, d, x, y, z)
    assert _outcome(_interior_product, d, x, y, z) == expected


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 40), r=st.integers(1, 39), x=_weights, y=_weights)
def test_interior_product_degenerate_weights_raise(d, r, x, y):
    r = min(r, d - 1)
    z = ((d - r) * x + r * y) / Rat(d)
    expected = _outcome(_naive_interior_product, d, x, y, z)
    assert isinstance(expected, str)
    assert _outcome(_interior_product, d, x, y, z) == expected


# -- the integer-weight fixed-point formulas against per-factor products --------

@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 30), x=_weights, y=_weights, z=_weights)
def test_g1_locus_matches_per_factor_product(d, x, y, z):
    expected = _outcome(_naive_g1_locus, d, x, y, z)
    assert _outcome(localization_g1_locus, d, x, y, z) == expected


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 30), x=_weights, y=_weights, z=_weights)
def test_g0_matches_per_factor_product(d, x, y, z):
    assume(len({x, y, z}) == 3)
    w = WeightTriple(x, y, z)
    assert _outcome(localization_g0, d, w) == _outcome(_naive_g0, d, w)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 30), r=st.integers(1, 29), x=_weights, y=_weights)
def test_fixed_point_formulas_degenerate_weights_raise(d, r, x, y):
    assume(x != y)
    r = min(r, d - 1)
    z = ((d - r) * x + r * y) / Rat(d)
    expected = _outcome(_naive_g1_locus, d, x, y, z)
    assert isinstance(expected, str)
    assert _outcome(localization_g1_locus, d, x, y, z) == expected
    w = WeightTriple(x, y, z)
    expected = _outcome(_naive_g0, d, w)
    assert isinstance(expected, str)
    assert _outcome(localization_g0, d, w) == expected


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 30), x=_weights, y=_weights,
       pattern=st.sampled_from([(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)]))
def test_g1_locus_coincident_weights_raise(d, x, y, pattern):
    args = [(x, y)[i] for i in pattern]
    expected = _outcome(_naive_g1_locus, d, *args)
    assert isinstance(expected, str)
    assert _outcome(localization_g1_locus, d, *args) == expected


# -- pinned verifier output -----------------------------------------------------

# SHA-256 of the stdout of ``verify-localization --max-degree 60 --seed 3``,
# recorded with the per-factor Fraction verifiers, before the interior
# product was multiplied out on integer numerators.
VERIFY_DIGESTS = {
    "csv": "70ee2b3258fe6531d70655978735c94deef1f80336bf719bf2a1f8822eb733db",
    "json": "8c10cdf1353c09191494e8cf0e5cbf0596a9d74625fa3dcb81e6abaac9dec9e7",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_DIGESTS))
def test_verify_localization_output_is_pinned(capsys, fmt):
    code = main(["verify-localization", "--max-degree", "60", "--seed", "3", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[fmt]
