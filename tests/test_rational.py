import fractions
import os
import subprocess
import sys

import pytest

import cy5bps
from cy5bps.rational import (
    Rat,
    format_rational,
    is_integer,
    parse_integer,
    parse_rational,
)


def test_lowest_terms_and_sign():
    x = Rat(-4, 6)
    assert (x.numerator, x.denominator) == (-2, 3)
    assert Rat(3, -9) == Rat(-1, 3)


def test_exact_addition_large_magnitudes():
    a = Rat(10**40 + 1, 10**40)
    b = Rat(-1, 10**40)
    assert a + b == 1
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [("3", Rat(3)), ("-7", Rat(-7)), ("3/4", Rat(3, 4)), ("-6/8", Rat(-3, 4)), (" 5/10 ", Rat(1, 2))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "x", "1/2/3", "1.5", "3/0", "1/ 2", "1_000", "\u0663", "\uff11\uff12", "3/-4"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text,expected", [("3", 3), ("-7", -7), ("+12", 12), ("007", 7)])
def test_parse_integer(text, expected):
    value = parse_integer(text)
    assert type(value) is int and value == expected


@pytest.mark.parametrize("text", ["", "x", "+", "1.0", "1/1", "1_000", " 3", "3\n", "\u0663"])
def test_parse_integer_rejects(text):
    # each of the last four is a spelling that int() accepts
    with pytest.raises(ValueError, match="malformed integer"):
        parse_integer(text)


def test_format_rational():
    assert format_rational(Rat(5)) == "5"
    assert format_rational(Rat(-3, 7)) == "-3/7"
    assert format_rational(Rat(6, 3)) == "2"


def test_round_trip_parse_format():
    for text in ["0", "-12", "22/7", "-9/4"]:
        assert format_rational(parse_rational(text)) == text


def test_pair_and_integrality():
    assert is_integer(Rat(8, 2))
    assert not is_integer(Rat(1, 2))


def test_fraction_is_the_only_rational_type():
    # a fresh interpreter, so that no other test has imported anything yet
    code = (
        "import fractions, sys, cy5bps; "
        "assert 'gmpy2' not in sys.modules; "
        "assert cy5bps.Rat is fractions.Fraction"
    )
    src = os.path.dirname(os.path.dirname(cy5bps.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert cy5bps.Rat is fractions.Fraction
