
import pytest
import sympy

from cy5bps.cohomology import Ring
from cy5bps.engine import Engine
from cy5bps.genus1 import compute_bps_table, martin_S, martin_V
from cy5bps.geometry import (
    GeometryFileError,
    hypersurface_chern,
    load_hypersurface_geometry,
)
from cy5bps.localp2 import (
    WeightTriple,
    cover_factor,
    localization_g0,
    localization_g1,
    localization_g1_locus,
    localp2_geometry,
    verify_localization,
)
from cy5bps.rational import Rat
from cy5bps.series import DegreeSeries, SeriesError, divisors, moebius, sigma

from conftest import SYNTHETIC_ROWS, gw_file_text


# -- Chern classes by adjunction --------------------------------------------

def _chern_oracle(ambient_dim, degree):
    # independent series expansion of (1+h)^(n+1) / (1 + degree*h)
    h = sympy.symbols("h")
    series = sympy.series((1 + h) ** (ambient_dim + 1) / (1 + degree * h), h, 0, 4)
    poly = sympy.Poly(series.removeO(), h)
    return [sympy.Rational(poly.coeff_monomial(h**k)) for k in range(4)]


@pytest.mark.parametrize(
    "ambient,degree,c2,c3",
    [(6, 7, 21, -112), (4, 5, 10, -40)],
)
def test_hypersurface_chern(ambient, degree, c2, c3):
    got_c2, got_c3 = hypersurface_chern(ambient, degree)
    assert got_c2 == c2
    assert got_c3 == c3
    oracle = _chern_oracle(ambient, degree)
    assert oracle[1] == 0
    assert Rat(oracle[2].p, oracle[2].q) == got_c2
    assert Rat(oracle[3].p, oracle[3].q) == got_c3


def test_hypersurface_chern_requires_calabi_yau():
    with pytest.raises(ValueError):
        hypersurface_chern(6, 6)


# -- input file parsing ------------------------------------------------------

def test_zero_file_loads_with_zero_counts(zero_geometry):
    g = zero_geometry
    assert all(g.n1pt[d] == 0 for d in range(1, 9))
    assert all(g.n2pt[d] == 0 for d in range(1, 9))
    assert all(v == 0 for v in g.gw_genus1.values())


def test_septic_shape(zero_geometry):
    g = zero_geometry
    assert g.ring.top_power == 5
    assert g.ring.top_integral == 7
    assert (g.c2, g.c3) == (21, -112) == hypersurface_chern(6, 7)
    # the Kunneth diagonal pairs H^2 with H^3/t5
    assert 1 / g.ring.top_integral == Rat(1, 7)


def test_diagonal_weight_is_one_over_t5(write_gw_file):
    # n2B(1, 1) has no m3 terms, and its correction C2(1, 1) reads only
    # 1-component counts, so t5 enters through n1pt[1]^2 / t5 alone
    values = {}
    for t5 in (2, 3):
        text = gw_file_text(t5=str(t5), c2="5", c3="7", maxdeg=4, rows=SYNTHETIC_ROWS)
        g = load_hypersurface_geometry(write_gw_file(text, name=f"t5_{t5}.gw"), 4)
        values[t5] = Engine(g).n2B(1, 1, g.ring.H(1))
    assert values[2] - values[3] == g.n1pt[1] ** 2 * (Rat(1, 2) - Rat(1, 3))
    assert values[2] - values[3] == Rat(2, 3)


def test_synthetic_base_counts(synthetic_geometry):
    g = synthetic_geometry
    assert [g.n1pt[d] for d in (1, 2, 3)] == [2, 3, 5]
    assert [g.n2pt[d] for d in (1, 2, 3)] == [1, 1, 1]


def test_requested_degree_must_be_covered(write_gw_file):
    path = write_gw_file(gw_file_text(maxdeg=4))
    with pytest.raises(GeometryFileError) as err:
        load_hypersurface_geometry(path, 5)
    # maxdeg is on the parameter line
    assert err.value.line == 2
    g = load_hypersurface_geometry(path, 4)
    assert g.max_degree == 4


@pytest.mark.parametrize(
    "mutate,expected_fragment",
    [
        (lambda t: t.replace("cy5-gw v1", "cy5-gw v2"), "header"),
        (lambda t: t.replace("t5=7 ", "t5=7 extra=1 "), "unknown key"),
        (lambda t: t.replace("t5=7 ", ""), "missing key"),
        (lambda t: t.replace("t5=7", "t5=0"), "t5"),
        (lambda t: t.replace("t5=7", "t5=x"), "malformed"),
        (lambda t: t.replace("maxdeg=6", "maxdeg=six"), "maxdeg"),
        (lambda t: t.replace("\n3 0 0 0", ""), "degree"),
        (lambda t: t.replace("\n2 0 0 0\n3 0 0 0", "\n3 0 0 0\n2 0 0 0"), "degree"),
        (lambda t: t.replace("1 0 0 0", "1 0 0"), "4 fields"),
        (lambda t: t.replace("1 0 0 0", "1 0 1.5 0"), "malformed"),
        # numbers are ASCII digits only (explicit ids leave the automatic ones above as they are)
        pytest.param(lambda t: t.replace("1 0 0 0", "1 1_0 0 0"), "malformed", id="cell 1_0"),
        pytest.param(lambda t: t.replace("1 0 0 0", "1 0 3/-4 0"), "malformed", id="cell 3/-4"),
        pytest.param(lambda t: t.replace("t5=7", "t5=\u0667"), "malformed", id="t5 arabic-indic"),
        pytest.param(lambda t: t.replace("maxdeg=6", "maxdeg=\u0666"), "maxdeg",
                     id="maxdeg arabic-indic"),
        pytest.param(lambda t: t.replace("maxdeg=6", "maxdeg=6_0"), "maxdeg", id="maxdeg 6_0"),
        pytest.param(lambda t: t.replace("1 0 0 0", "\uff11 0 0 0"), "degree", id="degree fullwidth"),
        pytest.param(lambda t: t.replace("2 0 0 0", "0_2 0 0 0"), "degree", id="degree 0_2"),
        pytest.param(lambda t: t.replace("t5=7 ", "t5=7 junk "), "key=value", id="token without ="),
        pytest.param(lambda t: t.replace("t5=7 ", "t5=7 t5=7 "), "duplicate key", id="duplicate key"),
        pytest.param(lambda t: "cy5-gw v1\n", "missing parameter line", id="magic line only"),
        pytest.param(lambda t: t.replace("maxdeg=6", "maxdeg=0"), "maxdeg must be >= 1", id="maxdeg 0"),
        pytest.param(lambda t: t + "7 0 0 0\n", "exceeds maxdeg", id="row past maxdeg"),
    ],
)
def test_malformed_files_are_line_diagnosed(write_gw_file, mutate, expected_fragment):
    path = write_gw_file(mutate(gw_file_text(maxdeg=6)))
    with pytest.raises(GeometryFileError) as err:
        load_hypersurface_geometry(path, 6)
    assert expected_fragment in str(err.value)
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "newline,blank,line",
    [("\n", "", 3), ("\r\n", "\n", 4)],
    ids=["lf", "crlf-blank-line"],
)
def test_non_utf8_byte_is_line_diagnosed(tmp_path, newline, blank, line):
    # 0xff starts no UTF-8 sequence; a blank line before it counts as a line
    text = gw_file_text(maxdeg=6).replace("\n1 0 0 0", "\n" + blank + "1 0 \xff 0")
    path = tmp_path / "latin1.gw"
    path.write_bytes(text.replace("\n", newline).encode("latin-1"))
    with pytest.raises(GeometryFileError) as err:
        load_hypersurface_geometry(path, 6)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: byte 0xff is not UTF-8"


def test_truncated_file_names_missing_degree(write_gw_file):
    text = "\n".join(gw_file_text(maxdeg=6).splitlines()[:5]) + "\n"
    path = write_gw_file(text)
    with pytest.raises(GeometryFileError) as err:
        load_hypersurface_geometry(path, 6)
    assert "missing degree 4" in str(err.value)


def test_inversion_happens_at_load(write_gw_file):
    # forward sums of the one-point table (1, 1) under k=1 and of the
    # two-point table (1, 1) under k=2
    rows = {1: ("1", "1", "0"), 2: ("5/4", "3/2", "0")}
    path = write_gw_file(gw_file_text(t5="7", c2="21", c3="-112", maxdeg=2, rows=rows))
    g = load_hypersurface_geometry(path, 2)
    assert [g.n1pt[d] for d in (1, 2)] == [1, 1]
    assert [g.n2pt[d] for d in (1, 2)] == [1, 1]


# -- the degree bound of every entry point ------------------------------------

MAX_DEGREE_ENTRY_POINTS = {
    "DegreeSeries": lambda path, bound: DegreeSeries({1: 3}, bound),
    "localp2_geometry": lambda path, bound: localp2_geometry(bound),
    "load_hypersurface_geometry": lambda path, bound: load_hypersurface_geometry(path, bound),
    "compute_bps_table": lambda path, bound: compute_bps_table(localp2_geometry(5), bound),
    "verify_localization": lambda path, bound: verify_localization(bound),
}


@pytest.mark.parametrize("bound,message", [
    (True, "max_degree must be a positive integer, got True"),
    (2.0, "max_degree must be a positive integer, got 2.0"),
    (0, "max_degree must be >= 1, got 0"),
], ids=["True", "2.0", "0"])
@pytest.mark.parametrize("entry", sorted(MAX_DEGREE_ENTRY_POINTS))
def test_max_degree_must_be_a_positive_int(write_gw_file, entry, bound, message):
    # a bool or a float bound is refused like a non-positive one, not run
    # as the int it equals or left to fail inside range()
    path = write_gw_file(gw_file_text(maxdeg=6))
    with pytest.raises(ValueError) as excinfo:
        MAX_DEGREE_ENTRY_POINTS[entry](path, bound)
    assert type(excinfo.value) is (SeriesError if entry == "DegreeSeries" else ValueError)
    assert str(excinfo.value) == message


# -- the degree of every per-degree function ----------------------------------

W = WeightTriple(0, 1, 3)

PER_DEGREE_FUNCTIONS = {
    "localization_g0": lambda d: localization_g0(d, W),
    "localization_g1": lambda d: localization_g1(d, W),
    "localization_g1_locus": lambda d: localization_g1_locus(d, 0, 1, 3),
    "cover_factor": lambda d: cover_factor(d, 0, 1, 3),
    "martin_S": martin_S,
    "martin_V": martin_V,
    "sigma": sigma,
    "moebius": moebius,
    "divisors": divisors,
    "DegreeSeries key": lambda d: DegreeSeries({d: 1}, 1),
}


@pytest.mark.parametrize("d,message", [
    (True, "degree must be a positive integer, got True"),
    (2.0, "degree must be a positive integer, got 2.0"),
    (0, "degree must be >= 1, got 0"),
], ids=["True", "2.0", "0"])
@pytest.mark.parametrize("function", sorted(PER_DEGREE_FUNCTIONS))
def test_degree_must_be_a_positive_int(function, d, message):
    # the rule of the degree bound above, for a single degree: True is not
    # degree 1, and 2.0 is refused rather than left to fail inside range()
    with pytest.raises(ValueError) as excinfo:
        PER_DEGREE_FUNCTIONS[function](d)
    assert type(excinfo.value) is (SeriesError if function == "DegreeSeries key" else ValueError)
    assert str(excinfo.value) == message


# -- exact numbers at every entry that takes a caller's number ----------------

EXACT_INPUTS = {
    "WeightTriple": lambda v: WeightTriple(v, 1, 3),
    "localization_g1_locus": lambda v: localization_g1_locus(2, v, 1, 3),
    "cover_factor": lambda v: cover_factor(2, v, 1, 3),
    "DegreeSeries value": lambda v: DegreeSeries({1: v}, 1),
    "Ring top_integral": lambda v: Ring(5, top_integral=v),
}


@pytest.mark.parametrize("value", [0.5, "1/2"], ids=["float", "str"])
@pytest.mark.parametrize("entry", sorted(EXACT_INPUTS))
def test_numbers_must_be_exact_rationals(entry, value):
    # a float or a string is refused, not converted by Fraction()
    with pytest.raises(ValueError) as excinfo:
        EXACT_INPUTS[entry](value)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"expected an exact rational, got {value!r}"


@pytest.mark.parametrize("field,value,message", [
    ("c2", 0.5, "expected an exact rational, got 0.5"),
    ("c3", "1/2", "expected an exact rational, got '1/2'"),
    ("max_degree", 2.0, "max_degree must be a positive integer, got 2.0"),
], ids=["c2", "c3", "max_degree"])
def test_geometry_checks_its_fields(field, value, message):
    # refused when the record is built, not later by the engine's arithmetic
    # or by range()
    with pytest.raises(ValueError) as excinfo:
        localp2_geometry(4).replace(**{field: value})
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


@pytest.mark.parametrize("change,error,message", [
    ({"max_degree": 5}, ValueError, "n1pt covers degrees 1..3, need 1..5"),
    ({"n1pt": [1, 2, 3]}, TypeError, "n1pt must be a DegreeSeries, got list"),
    ({"ring": "x"}, TypeError, "ring must be a Ring, got 'x'"),
    ({"n2pt": DegreeSeries.zero(2)}, ValueError, "n2pt covers degrees 1..2, need 1..3"),
    ({"gw_genus1": DegreeSeries.zero(1)}, ValueError, "gw_genus1 covers degrees 1..1, need 1..3"),
], ids=["max_degree above the series", "n1pt list", "ring str", "n2pt short", "gw_genus1 short"])
def test_geometry_refuses_an_inconsistent_record(change, error, message):
    # refused when built, where each of these used to build and then fail
    # inside Engine or chern_integral
    with pytest.raises(error) as excinfo:
        localp2_geometry(3).replace(**change)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_geometry_may_stop_below_its_series():
    # series that cover more than max_degree are read only up to it
    geometry = localp2_geometry(6).replace(max_degree=4)
    assert [Engine(geometry).chern_integral(d) for d in range(1, 5)] == [
        Engine(localp2_geometry(4)).chern_integral(d) for d in range(1, 5)]
