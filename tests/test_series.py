import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cy5bps.rational import Rat
from cy5bps.series import (
    DegreeSeries,
    SeriesError,
    divisors,
    extract_genus1_bps,
    extract_genus1_bps_tilde,
    invert_multi_cover,
    moebius,
    sigma,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


# -- forward cover sums: the round-trip oracles of the inversions -------------

def forward_multi_cover(n: DegreeSeries, k: int) -> DegreeSeries:
    """The cover sum N_D = sum_{e|D} n_{D/e} / e^(3-k)."""
    return DegreeSeries.from_function(
        lambda D: sum((n[D // e] / Rat(e ** (3 - k)) for e in divisors(D)), Rat(0)),
        n.max_degree,
    )


def forward_genus1_gw(n1: DegreeSeries, chern: DegreeSeries) -> DegreeSeries:
    """The genus-1 cover sum inverted by ``extract_genus1_bps``."""
    assert n1.max_degree == chern.max_degree
    return DegreeSeries.from_function(
        lambda D: sum(
            (Rat(sigma(e), e) * n1[D // e] + chern[D // e] / Rat(24 * e) for e in divisors(D)),
            Rat(0),
        ),
        n1.max_degree,
    )


def forward_genus1_gw_tilde(nt: DegreeSeries, chern: DegreeSeries) -> DegreeSeries:
    """The cover sum inverted by ``extract_genus1_bps_tilde``."""
    assert nt.max_degree == chern.max_degree
    return DegreeSeries.from_function(
        lambda D: sum(((nt[D // e] + chern[D // e] / Rat(24)) / Rat(e) for e in divisors(D)), Rat(0)),
        nt.max_degree,
    )


# -- sigma / moebius -------------------------------------------------------

def test_sigma_examples():
    assert sigma(1) == 1
    assert sigma(6) == 12
    for p in (2, 3, 5, 7, 11, 13):
        assert sigma(p) == p + 1
    assert sigma(12) == 28


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


@pytest.mark.parametrize("fn", [sigma, moebius, divisors])
@pytest.mark.parametrize("bad", [0, -1, -6])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@given(st.integers(1, 120), st.integers(1, 120))
def test_multiplicativity_on_coprime_arguments(a, b):
    if math.gcd(a, b) != 1:
        return
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert moebius(a * b) == moebius(a) * moebius(b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_moebius_vanishes_on_square_factors(p, m):
    assert moebius(p * p * m) == 0


def test_sigma_brute_force_agreement():
    for d in range(1, 200):
        assert sigma(d) == sum(i for i in range(1, d + 1) if d % i == 0)


# -- DegreeSeries ----------------------------------------------------------

def test_series_requires_dense_range():
    with pytest.raises(SeriesError):
        DegreeSeries({1: 1, 3: 1}, 3)
    with pytest.raises(SeriesError):
        DegreeSeries({0: 1, 1: 1}, 1)
    with pytest.raises(SeriesError):
        DegreeSeries({}, 0)
    with pytest.raises(SeriesError, match=r"degree 5 outside 1\.\.2"):
        DegreeSeries({1: 0, 2: 0, 5: 0}, 2)


def test_series_access_is_strict():
    s = DegreeSeries({1: 1, 2: Rat(1, 2)}, 2)
    assert s[2] == Rat(1, 2)
    with pytest.raises(SeriesError):
        s[3]
    with pytest.raises(SeriesError):
        s[0]
    # a degree equal to a stored int key does not find its value
    for degree in (2.0, True, Fraction(2), "2", None):
        with pytest.raises(SeriesError, match="not defined"):
            s[degree]


def test_series_truncated():
    s = DegreeSeries.from_function(lambda d: d * d, 5)
    t = s.truncated(3)
    assert list(t.values()) == [1, 4, 9]
    with pytest.raises(SeriesError):
        t.truncated(4)


# -- genus-0 multiple-cover inversion ---------------------------------------

def _forward_oracle(values, k):
    # independent brute-force cover sum over explicitly enumerated divisors
    out = {}
    for D in range(1, len(values) + 1):
        out[D] = sum(
            (values[D // e - 1] / Rat(e ** (3 - k)) for e in range(1, D + 1) if D % e == 0),
            Rat(0),
        )
    return DegreeSeries(out, len(values))


def test_invert_local_p2_closed_form():
    gw = DegreeSeries.from_function(lambda d: Rat((-1) ** (d - 1), d), 50)
    n = invert_multi_cover(gw, k=2)
    assert n[1] == 1 and n[2] == -1
    assert all(n[d] == 0 for d in range(3, 51))


def test_invert_zero_series():
    zero = DegreeSeries.zero(20)
    for k in (1, 2):
        assert invert_multi_cover(zero, k) == zero


def test_one_pointed_delta_series():
    # n = (1, 0, 0, ...) pushed forward with k=1 gives N_D = 1/D^2
    n = DegreeSeries({1: 1, **{d: 0 for d in range(2, 13)}}, 12)
    gw = _forward_oracle([Rat(v) for v in n.values()], k=1)
    assert all(gw[D] == Rat(1, D * D) for D in gw)
    assert invert_multi_cover(gw, k=1) == n


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=40))
def test_invert_round_trip(k, coeffs):
    values = [Rat(c) for c in coeffs]
    gw = _forward_oracle(values, k)
    n = invert_multi_cover(gw, k)
    assert list(n.values()) == values
    assert forward_multi_cover(n, k) == gw


def test_invert_rejects_bad_k():
    s = DegreeSeries.zero(3)
    with pytest.raises(ValueError):
        invert_multi_cover(s, 3)


# -- genus-1 extraction ------------------------------------------------------

def _sigma_oracle(e):
    return sum(i for i in range(1, e + 1) if e % i == 0)


def _forward_genus1_oracle(n1_values, chern_values):
    out = {}
    D_max = len(n1_values)
    for D in range(1, D_max + 1):
        acc = Rat(0)
        for e in range(1, D + 1):
            if D % e == 0:
                acc += Rat(_sigma_oracle(e), e) * n1_values[D // e - 1]
                acc += chern_values[D // e - 1] / Rat(24 * e)
        out[D] = acc
    return DegreeSeries(out, D_max)


def test_extract_degree_one_by_hand():
    n1_gw = DegreeSeries({1: Rat(-1, 8)}, 1)
    chern = DegreeSeries({1: -3}, 1)
    assert extract_genus1_bps(n1_gw, chern)[1] == 0
    assert extract_genus1_bps_tilde(n1_gw, chern)[1] == 0


def test_extract_zero_series():
    zero = DegreeSeries.zero(15)
    assert extract_genus1_bps(zero, zero) == zero
    assert extract_genus1_bps_tilde(zero, zero) == zero


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=40), st.data())
def test_extract_round_trip(n1_coeffs, data):
    n1_values = [Rat(c) for c in n1_coeffs]
    chern_values = [Rat(c) for c in data.draw(
        st.lists(rationals, min_size=len(n1_values), max_size=len(n1_values))
    )]
    gw = _forward_genus1_oracle(n1_values, chern_values)
    chern = DegreeSeries(dict(enumerate(chern_values, 1)), len(chern_values))
    extracted = extract_genus1_bps(gw, chern)
    assert list(extracted.values()) == n1_values
    assert forward_genus1_gw(extracted, chern) == gw
    # the alternative normalization round-trips against its own forward sum
    tilde = extract_genus1_bps_tilde(gw, chern)
    assert forward_genus1_gw_tilde(tilde, chern) == gw


def test_extract_requires_matching_ranges():
    with pytest.raises(SeriesError):
        extract_genus1_bps(DegreeSeries.zero(3), DegreeSeries.zero(4))


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=30), st.data())
def test_two_normalizations_differ_by_a_divisor_sum(gw_coeffs, data):
    # sigma(e)/e = sum over j|e of 1/j, so the sigma-weighted cover sum
    # telescopes: the alternative table is exactly the divisor sum of the
    # first one, whatever the inputs.  This ties the two solvers together
    # and makes the integrality of one equivalent to that of the other.
    n = len(gw_coeffs)
    gw = DegreeSeries(dict(enumerate((Rat(c) for c in gw_coeffs), 1)), n)
    chern_values = [Rat(c) for c in data.draw(st.lists(rationals, min_size=n, max_size=n))]
    chern = DegreeSeries(dict(enumerate(chern_values, 1)), n)
    n1 = extract_genus1_bps(gw, chern)
    nt = extract_genus1_bps_tilde(gw, chern)
    for D in range(1, n + 1):
        assert nt[D] == sum(
            (n1[D // m] for m in range(1, D + 1) if D % m == 0), Rat(0)
        )
