"""The five immutable records: value semantics, freezing, pickling and copying,
checks on every construction path, and their printed form."""

import copy
import pickle
from fractions import Fraction

import pytest

from cy5bps import Ring, WeightTriple
from cy5bps import compute_bps_table, localp2_geometry
from cy5bps.localp2 import WeightDegeneracyError
from cy5bps.series import DegreeSeries


def _report():
    return compute_bps_table(localp2_geometry(3), 3)


# how to build each record afresh, and its repr as the dataclass printed it
RECORDS = {
    "Ring": (lambda: Ring(5, 7), "Ring(top_power=5, top_integral=7)"),
    "CohClass": (lambda: Ring(5, 7).monomial(2, Fraction(3, 2)), "3/2*H^2"),
    "Geometry": (
        lambda: localp2_geometry(3),
        "Geometry(ring=Ring(top_power=2), c2=Fraction(-3, 1), c3=Fraction(0, 1), "
        "n1pt=DegreeSeries([0, 0, 0], max_degree=3), n2pt=DegreeSeries([1, -1, 0], max_degree=3), "
        "gw_genus1=DegreeSeries([-1/8, 1/16, -1/24], max_degree=3), max_degree=3)",
    ),
    "WeightTriple": (
        lambda: WeightTriple(1, Fraction(1, 2), -3),
        "WeightTriple(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(-3, 1))",
    ),
    "BpsReport": (
        _report,
        "BpsReport(max_degree=3, n1=DegreeSeries([0, 0, -1], max_degree=3), "
        "n1_tilde=DegreeSeries([0, 0, -1], max_degree=3), "
        "chern=DegreeSeries([-3, 3, 24], max_degree=3), integrality_failures=())",
    ),
}
FIELDS = {
    "Ring": ("top_power", "top_integral"),
    "CohClass": ("ring", "power", "coeff"),
    "Geometry": ("ring", "c2", "c3", "n1pt", "n2pt", "gw_genus1", "max_degree"),
    "WeightTriple": ("a", "b", "c"),
    "BpsReport": ("max_degree", "n1", "n1_tilde", "chern", "integrality_failures"),
}
# a DegreeSeries compares by value but has no hash, so neither do its holders
UNHASHABLE = {"Geometry", "BpsReport"}


def _other_value(name):
    """A valid value, different from the built record's, for its last field."""
    return {
        "Ring": 8,
        "CohClass": Fraction(5, 2),
        "Geometry": 4,
        "WeightTriple": 5,
        "BpsReport": (2,),
    }[name]


names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_repr_is_unchanged(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@names
def test_equal_by_class_and_values(name):
    build = RECORDS[name][0]
    record, twin = build(), build()
    assert record is not twin
    assert record == twin and not record != twin
    assert record != build().replace(**{FIELDS[name][-1]: _other_value(name)})
    assert record != tuple(getattr(record, f) for f in FIELDS[name])
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'DegreeSeries'"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1


@names
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name]:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@names
def test_pickle_and_copies_round_trip(name):
    record = RECORDS[name][0]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


@names
def test_replace_builds_an_equal_record_or_a_changed_one(name):
    record = RECORDS[name][0]()
    same = record.replace()
    assert same == record and same is not record
    field = FIELDS[name][-1]
    changed = record.replace(**{field: _other_value(name)})
    assert type(changed) is type(record)
    assert getattr(changed, field) == _other_value(name)
    assert [getattr(changed, f) for f in FIELDS[name][:-1]] == [
        getattr(record, f) for f in FIELDS[name][:-1]
    ]
    with pytest.raises(TypeError, match="unexpected keyword argument 'nonfield'"):
        record.replace(nonfield=1)


# one refused value per record, with its error; BpsReport checks nothing
_REFUSED = [
    ("Ring", {"top_power": 0}, ValueError, "top_power must be an int >= 1, got 0"),
    ("Ring", {"top_integral": 0}, ValueError, "top_integral must be nonzero"),
    ("CohClass", {"power": 2.0}, ValueError, "power must be an int, got 2.0"),
    ("CohClass", {"coeff": 0.5}, ValueError, "expected an exact rational, got 0.5"),
    ("Geometry", {"c2": 0.5}, ValueError, "expected an exact rational, got 0.5"),
    ("Geometry", {"max_degree": 2.0}, ValueError, "max_degree must be a positive integer"),
    ("WeightTriple", {"c": Fraction(2, 4)}, WeightDegeneracyError, "pairwise distinct"),
]


@pytest.mark.parametrize(
    "name,change,error,message", _REFUSED, ids=[f"{n}-{next(iter(c))}" for n, c, _, _ in _REFUSED]
)
def test_constructor_and_replace_both_check(name, change, error, message):
    record = RECORDS[name][0]()
    fields = {f: getattr(record, f) for f in FIELDS[name]}
    with pytest.raises(error, match=message):
        type(record)(**{**fields, **change})
    with pytest.raises(error, match=message):
        record.replace(**change)


def test_replace_and_unpickling_normalise_like_the_constructor():
    ring = Ring(5, 7)
    assert Ring(5, 7).replace(top_integral=Fraction(14, 2)) == ring
    assert type(ring.replace(top_integral=3).top_integral) is Fraction
    # a truncated power gives the zero class on every path
    assert ring.H(2).replace(power=6) == ring.zero()
    assert pickle.loads(pickle.dumps(ring.zero())) == ring.zero()
    geometry = localp2_geometry(2).replace(c2=-3)
    assert type(geometry.c2) is Fraction
    triple = WeightTriple(0, 1, 3).replace(c=2)
    assert (triple.a, triple.b, triple.c) == (0, 1, 2)


def test_records_match_positionally():
    match Ring(2), WeightTriple(0, 1, 3):
        case Ring(top, None), WeightTriple(a, b, c):
            assert (top, a, b, c) == (2, 0, 1, 3)
        case _:
            pytest.fail("records did not match by position")


def test_report_holds_its_series_unchanged():
    report = _report()
    n1 = DegreeSeries({1: 0, 2: Fraction(1, 2), 3: -1}, 3)
    changed = report.replace(n1=n1, integrality_failures=(2,))
    assert changed.n1 is n1
    assert changed.integrality_failures == (2,)
    assert changed.chern is report.chern
