import sys
import tempfile
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cy5bps.cohomology import InsertionDegreeError, Ring, RingMismatchError
from cy5bps.engine import Engine
from cy5bps.geometry import load_hypersurface_geometry
from cy5bps.localp2 import localp2_geometry
from cy5bps.rational import Rat, parse_rational

from conftest import c2_eleventh_gw_text, gw_file_text, inexact_int_geometry, random_gw_text
from corrections import correction_C2, corrections_C3, m3_formula, n2B_formula
from golden import LOCAL_P2_COUNTS, SYNTHETIC_COUNTS


@pytest.fixture
def local_engine(local_geometry_12):
    return Engine(local_geometry_12)


def _evaluate(engine, label):
    """Evaluate a 'name(args)' label from the golden tables."""
    g = engine.geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    name, _, rest = label.partition("(")
    args = [int(x) for x in rest.rstrip(")").split(",")]
    table = {
        "n1B": lambda d: engine.n1B(d, H2, H2),
        "n1C": lambda d: engine.n1C(d, H2),
        "n1D": lambda d: engine.n1D(d, H, H2),
        "n1E": lambda d: engine.n1E(d, H),
        "n1F": lambda d: engine.n1F(d, H2),
        "n1G": engine.n1G,
        "gamma1": engine.gamma1,
        "n2A": lambda a, b: engine.n2A(a, b, H2),
        "n2B": lambda a, b: engine.n2B(a, b, H),
        "n2C": engine.n2C,
        "n2D": lambda a, b: engine.n2D(a, b, H),
        "n2E": engine.n2E,
        "C2": lambda a, b: correction_C2(engine, a, b),
        "C3": lambda a, b, c: corrections_C3(engine, a, b, c),
        "gamma2": engine.gamma2,
        "m3": engine.m3,
        "chern": engine.chern_integral,
    }
    return table[name](*args)


@pytest.mark.parametrize("label,expected", sorted(LOCAL_P2_COUNTS.items()))
def test_local_p2_hand_values(local_engine, label, expected):
    assert _evaluate(local_engine, label) == parse_rational(str(expected))


@pytest.mark.parametrize("label,expected", sorted(SYNTHETIC_COUNTS.items()))
def test_synthetic_hand_values(synthetic_geometry, label, expected):
    engine = Engine(synthetic_geometry)
    assert _evaluate(engine, label) == parse_rational(str(expected))


def test_n1B_delegates_to_base(local_engine):
    g = local_engine.geometry
    H2 = g.ring.H(2)
    assert local_engine.n1B(1, H2, H2) == 1
    assert local_engine.n1B(2, H2, H2) == -1
    assert local_engine.n1B(3, H2, H2) == 0


def test_wrong_insertion_degree_raises(local_engine):
    g = local_engine.geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    with pytest.raises(InsertionDegreeError):
        local_engine.n1B(1, H, H2)
    with pytest.raises(InsertionDegreeError):
        local_engine.n1C(1, H)
    with pytest.raises(InsertionDegreeError):
        local_engine.n2B(1, 1, H2)


def test_foreign_ring_insertion_raises(local_engine, zero_geometry):
    with pytest.raises(RingMismatchError):
        local_engine.n1C(1, zero_geometry.ring.H(2))


def test_degree_validation(local_engine):
    with pytest.raises(ValueError):
        local_engine.n1G(0)
    with pytest.raises(ValueError):
        local_engine.n1G(13)  # geometry holds data up to degree 12
    with pytest.raises(ValueError):
        local_engine.m3(5, 5, 5)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bool_degree_is_refused(local_geometry_12, warm):
    engine = Engine(local_geometry_12)
    if warm:
        for d in range(1, 13):
            engine.chern_integral(d)
        assert {("n1G", 1), ("chern", 1), ("m3", 1, 1, 1)} <= engine.memo.keys()
    memo = dict(engine.memo)
    calls = [
        lambda: engine.n1G(True),
        lambda: engine.m3(True, 1, 1),
        lambda: engine.m3(1, 1, True),
        lambda: engine.chern_integral(True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="curve degree must be a positive integer"):
            call()
    assert engine.memo == memo


def test_insertion_on_an_equal_ring_is_accepted(local_engine):
    other = localp2_geometry(12).ring
    assert other is not local_engine.geometry.ring
    H, H2 = local_engine.geometry.ring.H(1), local_engine.geometry.ring.H(2)
    assert local_engine.n1E(3, other.H(1)) == local_engine.n1E(3, H)
    assert local_engine.n1C(4, other.H(2)) == local_engine.n1C(4, H2)
    assert local_engine.n2B(2, 3, other.H(1)) == local_engine.n2B(2, 3, H)


def test_insertion_on_a_ring_with_another_top_integral_raises(local_engine):
    with pytest.raises(RingMismatchError):
        local_engine.n1E(3, Ring(2, 5).H(1))


def test_homogeneity_zero_inputs_zero_outputs(zero_geometry):
    engine = Engine(zero_geometry)
    g = zero_geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    for d in range(1, 5):
        assert engine.n1G(d) == 0
        assert engine.gamma1(d) == 0
        assert engine.chern_integral(d) == 0
    for a in range(1, 4):
        for b in range(1, 5 - a):
            assert engine.n2A(a, b, H2) == 0
            assert engine.n2B(a, b, H) == 0
            assert engine.n2C(a, b) == 0
            assert engine.gamma2(a, b) == 0
    assert engine.m3(1, 1, 1) == 0
    assert engine.m3(2, 1, 1) == 0


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_cold_start_at_geometry_max_degree(monkeypatch):
    # a direct top-level call with nothing memoized fills level by level:
    # it never sets the interpreter's recursion limit, runs under a low
    # one, and needs fewer than 30 frames below its caller
    set_limit, saved = sys.setrecursionlimit, sys.getrecursionlimit()
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    try:
        set_limit(250)
        geometry = localp2_geometry(60)
        engine = Engine(geometry)
        cold = engine.chern_integral(60)
        assert sys.getrecursionlimit() == 250
        set_limit(_stack_depth() + 30)
        shallow = Engine(geometry).chern_integral(60)
    finally:
        set_limit(saved)
    assert calls == []
    assert cold == shallow == engine.chern_integral(60)


def test_memo_holds_exactly_the_filled_levels(local_geometry_12):
    engine = Engine(local_geometry_12)
    for d in range(1, 13):
        engine.chern_integral(d)
    r = range(1, 13)
    expected = {("m3", a, b, c) for a in r for b in r for c in r if a + b + c <= 12}
    expected |= {(k, a, b) for k in ("n2A", "n2B", "n2C", "n2D", "n2E")
                 for a in r for b in r if a + b <= 12}
    expected |= {(k, d) for k in ("n1B", "n1C", "n1D", "n1E", "n1F", "n1G", "chern") for d in r}
    expected |= {("gamma2", a, b) for a in r for b in r if a + 2 * b <= 12}
    expected |= {("gamma1", d) for d in r if 2 * d <= 12}
    assert engine.memo.keys() == expected


# every public method; gamma2 and gamma1 both inside and outside the keys
# the fill stores (gamma2(a, b) with a + 2b > D, gamma1(d) with 2d > D);
# n2B and m3 at the degrees of the C2 and C3 labels, whose corrections the
# test oracle evaluates cold from the public counts they are made of
FIRST_CALLS = [
    ("local_geometry_12", label) for label in (
        "n1B(12)", "n1C(11)", "n1D(10)", "n1E(12)", "n1F(9)", "n1G(12)",
        "gamma1(6)", "gamma1(7)", "n2A(5,7)", "n2B(6,6)", "n2C(4,8)", "n2D(3,9)",
        "n2E(7,5)", "gamma2(4,4)", "gamma2(5,4)", "m3(3,4,5)", "m3(4,4,4)",
        "chern(12)", "n2B(4,7)", "m3(2,3,7)", "m3(5,2,5)",
        "C2(6,6)", "C2(4,7)", "C3(4,4,4)", "C3(2,3,7)", "C3(5,2,5)",
    )
] + [
    ("synthetic_geometry", label) for label in (
        "n1G(4)", "gamma1(3)", "n2B(2,2)", "gamma2(2,2)", "m3(1,2,1)",
        "chern(4)", "n2B(1,3)", "m3(1,1,2)", "C2(2,2)", "C2(1,3)", "C3(1,1,2)",
    )
]


@pytest.mark.parametrize("fixture,label", FIRST_CALLS)
def test_first_call_on_a_fresh_engine_equals_the_warm_value(request, fixture, label):
    geometry = request.getfixturevalue(fixture)
    cold = _evaluate(Engine(geometry), label)
    warm = Engine(geometry)
    for d in range(1, geometry.max_degree + 1):
        warm.chern_integral(d)
    assert cold == _evaluate(warm, label)


def _interrupt(engine, compute_name, key):
    """Make the engine's compute function ``compute_name`` raise
    KeyboardInterrupt at the degrees ``key``."""
    compute = getattr(engine, compute_name)

    def interrupt(*degrees):
        if degrees == key:
            raise KeyboardInterrupt
        return compute(*degrees)

    setattr(engine, compute_name, interrupt)


def test_interrupted_fill_leaves_its_level_unfilled(local_geometry_12):
    # n2B(4, 3) is stored from n2B(3, 4), which its interrupted level keeps
    for key in ((3, 4), (4, 3)):
        engine = Engine(local_geometry_12)
        _interrupt(engine, "_c_n2B", key)
        with pytest.raises(KeyboardInterrupt):
            engine.chern_integral(7)
        del engine._c_n2B
        # level 7 was partly filled: the n2B keys before the interrupted one
        # are stored, it and everything after it are not
        assert ("n2B", 2, 5) in engine.memo
        assert ("n2B", *key) not in engine.memo and ("n1G", 7) not in engine.memo
        fresh = Engine(local_geometry_12)
        assert engine.n1G(7) == fresh.n1G(7)
        for d in range(1, 13):
            assert engine.chern_integral(d) == fresh.chern_integral(d)
        assert engine.memo == fresh.memo
        assert _level_denominators(engine) == _level_denominators(fresh)


def test_determinism_across_fresh_stores(local_geometry_12):
    first = Engine(local_geometry_12)
    second = Engine(local_geometry_12)
    for d in range(1, 9):
        assert first.chern_integral(d) == second.chern_integral(d)
    assert len(first.memo) == len(second.memo)


def test_node_symmetry_total_degree_10(local_geometry_12):
    engine = Engine(local_geometry_12)
    H = local_geometry_12.ring.H(1)
    for a in range(1, 10):
        for b in range(a, 10 - a + 1):
            assert engine.n2B(a, b, H) == engine.n2B(b, a, H)


def test_chain_reversal_symmetry_total_degree_10(local_geometry_12):
    # the engine stores m3(a, b, c) with a > c as its reversed chain, so each
    # such key is checked against the full case table, whose a > c branches
    # the engine does not evaluate
    engine = Engine(local_geometry_12)
    for a in range(1, 9):
        for b in range(1, 10 - a):
            for c in range(1, min(a, 11 - a - b)):
                assert engine.m3(a, b, c) == m3_formula(engine, a, b, c), (a, b, c)


def test_gamma2_swap_structure_total_degree_6(local_geometry_12):
    # the node-cotangent terms of gamma2 are symmetrized by construction, so
    # any asymmetry comes entirely from its n2A + 2*n2E part; evaluating both
    # orders shows that part (and hence gamma2) is genuinely not symmetric
    engine = Engine(local_geometry_12)
    c2, H2 = local_geometry_12.c2, local_geometry_12.ring.H(2)
    asymmetric = []
    for a in range(1, 6):
        for b in range(1, 7 - a):
            lhs = engine.gamma2(a, b) - engine.gamma2(b, a)
            rhs = (c2 * engine.n2A(a, b, H2) + 2 * engine.n2E(a, b)) - (
                c2 * engine.n2A(b, a, H2) + 2 * engine.n2E(b, a)
            )
            assert lhs == rhs
            if lhs != 0:
                asymmetric.append((a, b))
    assert (1, 2) in asymmetric


# -- value representation and the memo hit path --------------------------------

def test_local_p2_memo_holds_only_ints():
    engine = Engine(localp2_geometry(30))
    engine.chern_integral(30)
    assert len(engine.memo) > 1000
    assert all(type(v) is int for v in engine.memo.values())


def test_warm_engine_still_validates(local_geometry_12, zero_geometry):
    engine = Engine(local_geometry_12)
    for d in range(1, 13):
        engine.chern_integral(d)
    H, H2 = local_geometry_12.ring.H(1), local_geometry_12.ring.H(2)
    # a non-int degree equal to a stored key is refused all the same
    assert {("n1G", 2), ("chern", 3), ("m3", 1, 1, 1)} <= engine.memo.keys()
    with pytest.raises(ValueError):
        engine.n1G(2.0)
    with pytest.raises(ValueError):
        engine.chern_integral(3.0)
    with pytest.raises(ValueError):
        engine.m3(1.0, 1, 1)
    with pytest.raises(ValueError):
        engine.m3(5, 5, 5)
    with pytest.raises(ValueError):
        engine.n1G(0)
    with pytest.raises(InsertionDegreeError):
        engine.n2B(1, 1, H2)
    with pytest.raises(InsertionDegreeError):
        engine.n1D(2, H, H)
    with pytest.raises(RingMismatchError):
        engine.n1C(1, zero_geometry.ring.H(2))
    with pytest.raises(RingMismatchError):
        engine.n2B(2, 3, zero_geometry.ring.H(1))


# public count method -> (memo kind, number of degrees, H-powers of its
# insertions)
COUNT_METHODS = {
    "n1B": ("n1B", 1, (2, 2)), "n1C": ("n1C", 1, (2,)), "n1D": ("n1D", 1, (1, 2)),
    "n1E": ("n1E", 1, (1,)), "n1F": ("n1F", 1, (2,)), "n1G": ("n1G", 1, ()),
    "gamma1": ("gamma1", 1, ()), "n2A": ("n2A", 2, (2,)), "n2B": ("n2B", 2, (1,)),
    "n2C": ("n2C", 2, ()), "n2D": ("n2D", 2, (1,)), "n2E": ("n2E", 2, ()),
    "gamma2": ("gamma2", 2, ()), "m3": ("m3", 3, ()), "chern_integral": ("chern", 1, ()),
}


def test_the_count_methods_are_the_whole_public_api():
    # no excess correction is exposed: each lives in the formula subtracting it
    assert {name for name in vars(Engine) if not name.startswith("_")} == set(COUNT_METHODS)


@pytest.fixture
def rational_geometry_12(write_gw_file):
    """A compact geometry on the rational path, with diagonal terms."""
    return load_hypersurface_geometry(write_gw_file(random_gw_text(5, 12)), 12)


@pytest.mark.parametrize("fixture", ["local_geometry_12", "synthetic_geometry",
                                     "rational_geometry_12"])
def test_each_key_is_stored_by_one_public_call(request, monkeypatch, fixture):
    # every public count method wrapped on the class, recording its key when
    # the memo grows during the call: what a tracer counting the stored
    # entries of each kind by wrapping the public names relies on; each
    # recorded with what the storing call returned
    geometry = request.getfixturevalue(fixture)
    recorded, returned = [], []
    for method, (kind, ndeg, _) in COUNT_METHODS.items():
        def traced(engine, *args, _fn=getattr(Engine, method), _kind=kind, _ndeg=ndeg):
            before = len(engine.memo)
            value = _fn(engine, *args)
            if len(engine.memo) > before:
                recorded.append((_kind, *args[:_ndeg]))
                returned.append(value)
            return value
        monkeypatch.setattr(Engine, method, traced)
    engine = Engine(geometry)
    for d in range(1, geometry.max_degree + 1):
        engine.chern_integral(d)
    assert len(set(recorded)) == len(recorded)
    assert Counter(recorded) == Counter(iter(engine.memo))
    # the fill's call of m3 or of a two-degree kind stores a numerator and
    # returns None; a one-degree kind's call returns the value it stored
    for key, value in zip(recorded, returned):
        if len(key) > 2:
            assert value is None, key
        else:
            stored = engine.memo[key]
            assert value == stored and type(value) is type(stored), key


def _assert_m3_table_is_the_memo(engine):
    # the level tables hold each m3 memo value at _m3[a + b + c][a][b], a
    # numerator over the level's denominator _m3[t][0], one level per filled
    # level and nothing else; every filled level is whole, so each key's
    # reversal is stored too
    table = {}
    for t, level in enumerate(engine._m3):
        for a, row in enumerate(level[1:], 1):
            for b, num in enumerate(row):
                if num is not None:
                    table[a, b, t - a - b] = Fraction(num, level[0])
    m3 = {key[1:]: value for key, value in engine.memo.items() if key[0] == "m3"}
    assert table.keys() == m3.keys()
    assert all(table[key] == value for key, value in m3.items())
    # a chain and its reversal share one stored object
    assert all(engine._m3[a + b + c][c][b] is engine._m3[a + b + c][a][b] for a, b, c in m3)
    assert len(engine._m3) == engine._level + 1


@pytest.mark.parametrize("fixture", ["local_geometry_12", "synthetic_geometry",
                                     "rational_geometry_12"])
def test_m3_table_holds_exactly_the_memo_values(request, fixture):
    geometry = request.getfixturevalue(fixture)
    engine = Engine(geometry)
    for d in range(1, geometry.max_degree + 1):
        engine.chern_integral(d)
    assert engine._level == geometry.max_degree
    _assert_m3_table_is_the_memo(engine)


def test_interrupted_m3_loop_leaves_no_stale_table_entry(local_geometry_12):
    engine = Engine(local_geometry_12)
    _interrupt(engine, "_c_m3", (2, 3, 2))
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    del engine._c_m3
    # the m3 loop of level 7 stopped partway: the keys before m3(2, 3, 2)
    # are stored, it and everything after it are not
    assert ("m3", 1, 5, 1) in engine.memo and ("m3", 2, 2, 3) in engine.memo
    assert ("m3", 2, 3, 2) not in engine.memo and ("n2A", 1, 6) not in engine.memo
    engine.chern_integral(12)
    _assert_m3_table_is_the_memo(engine)
    fresh = Engine(local_geometry_12)
    for d in range(1, 13):
        assert engine.chern_integral(d) == fresh.chern_integral(d)
    assert engine.memo == fresh.memo


def _level_denominators(engine):
    """The level denominators of the two-degree kinds, each table's entry 0."""
    return [getattr(engine, "_" + kind)[0] for kind in ("n2A", "n2B", "n2C", "n2D", "n2E", "gamma2")]


@pytest.mark.parametrize("compute_name,key,m3_loop_done", [
    ("_c_m3", (2, 3, 2), False),  # in level 7's m3 loop
    ("_c_n2A", (3, 4), True),  # in its n2A loop, after its m3 loop
    # in its pair loop, n2A(3, 4) and n2B(3, 4) stored over the denominators
    # the level was opened at
    ("_c_n2C", (3, 4), True),
    ("_c_n1C", (7,), True),  # after its two-degree values are closed
    ("_c_n2B", (4, 3), True),  # at a key stored from n2B(3, 4)
])
def test_interrupted_rational_fill_refills_to_the_fresh_values(
        rational_geometry_12, compute_name, key, m3_loop_done):
    engine = Engine(rational_geometry_12)
    _interrupt(engine, compute_name, key)
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    delattr(engine, compute_name)
    assert engine._level == 6
    assert (("m3", 3, 1, 3) in engine.memo) is m3_loop_done
    assert ("m3", 2, 2, 3) in engine.memo and (compute_name[3:], *key) not in engine.memo
    # level 7 holds numerators over D_7 > 1 from the start of its m3 loop,
    # and over its two-degree denominators from the start of its pair loop,
    # so the memo reads of its stored keys are already the values
    assert engine._m3[6][0] > 1 and engine._m3[7][0] > 1
    fresh = Engine(rational_geometry_12)
    fresh.chern_integral(7)
    stored = {k: v for k, v in engine.memo.items() if sum(k[1:]) == 7}
    assert ("m3", 2, 2, 3) in stored
    assert (("n2B", 3, 4) in stored) is (compute_name in ("_c_n2B", "_c_n2C", "_c_n1C"))
    assert all(fresh.memo[k] == v for k, v in stored.items())
    engine.chern_integral(12)
    _assert_m3_table_is_the_memo(engine)
    fresh = Engine(rational_geometry_12)
    for d in range(1, 13):
        assert engine.chern_integral(d) == fresh.chern_integral(d)
    assert engine.memo == fresh.memo
    assert [level[0] for level in engine._m3] == [level[0] for level in fresh._m3]
    assert _level_denominators(engine) == _level_denominators(fresh)


@pytest.mark.parametrize("compute_name,key", [("_c_n2C", (2, 2)), ("_c_n1B", (4,))])
def test_interrupted_int_level_holding_a_rat_refills_to_the_fresh_values(compute_name, key):
    # every term of level 4 is an integer, but n2B(2, 2) is not: the level
    # stores n2B's numerators over B_4 = 2, and its close keeps that
    # denominator
    geometry = inexact_int_geometry(6)
    engine = Engine(geometry)
    _interrupt(engine, compute_name, key)
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(4)
    delattr(engine, compute_name)
    assert engine.memo["n2B", 2, 2] == Fraction(-447, 2)
    fresh = Engine(geometry)
    for d in range(1, 7):
        assert engine.chern_integral(d) == fresh.chern_integral(d)
    assert engine.memo == fresh.memo
    assert _level_denominators(engine) == _level_denominators(fresh)
    assert engine._n2B[0][4] == 2 and type(engine._n2B[2][2]) is int


class _NoFloorDiv(int):
    """An int whose floor division runs out of memory."""

    def __floordiv__(self, other):
        raise MemoryError


def _values_at(engine, t):
    return {key: value for key, value in engine.memo.items() if sum(key[1:]) == t}


def test_a_failed_close_leaves_its_level_as_it_was(rational_geometry_12):
    # level 7's two-degree numerators and denominators put back over 6 times
    # their closed denominators, so the values stay, and one n2B numerator
    # made to fail its division: the close stores nothing of that kind
    engine = Engine(rational_geometry_12)
    engine.chern_integral(12)
    t = 7
    for kind in ("n2A", "n2B", "n2C", "n2D", "n2E"):
        table = getattr(engine, "_" + kind)
        table[0][t] *= 6
        for d1 in range(1, t):
            table[d1][t - d1] *= 6
    values = _values_at(engine, t)
    engine._n2B[1][t - 1] = _NoFloorDiv(engine._n2B[1][t - 1])
    with pytest.raises(MemoryError):
        engine._close_pairs(t)
    assert _values_at(engine, t) == values
    engine._n2B[1][t - 1] = int(engine._n2B[1][t - 1])
    engine._close_pairs(t)
    fresh = Engine(rational_geometry_12)
    fresh.chern_integral(12)
    assert _values_at(engine, t) == _values_at(fresh, t)
    assert _level_denominators(engine) == _level_denominators(fresh)


def test_cold_gamma2_call_returns_its_value(rational_geometry_12):
    # gamma2(3, 4) is filled at level 11: a call on a fresh engine fills
    # level 7, its own, and computes it there
    cold = Engine(rational_geometry_12)
    value = cold.gamma2(3, 4)
    assert cold._level == 7 and ("gamma2", 3, 4) in cold.memo
    c2 = rational_geometry_12.c2
    assert value == (c2 * cold.n2A(3, 4) + 2 * cold.n2E(3, 4) + cold.n2C(3, 4) + cold.n2C(4, 3))
    warm = Engine(rational_geometry_12)
    warm.chern_integral(12)
    assert type(value) is Rat and value == warm.gamma2(3, 4) == cold.gamma2(3, 4)


# rational_geometry_12 is seed 5 of random_gw_text.  The two-degree levels
# are least; an m3 level is never reduced, and its D_t lies above the least
# denominator of its values on every source here but synthetic_geometry: on
# seed 5 by up to a factor 105 (level 8), on c2-eleventh by 1694 (level 5)
@pytest.mark.parametrize("source", ["synthetic_geometry", 0, 1, 2, "rational_geometry_12",
                                    "c2-eleventh"])
def test_level_denominators_are_cumulative_and_least(request, write_gw_file, source):
    if source in ("synthetic_geometry", "rational_geometry_12"):
        geometry = request.getfixturevalue(source)
    else:
        text = c2_eleventh_gw_text(12) if source == "c2-eleventh" else random_gw_text(source, 12)
        geometry = load_hypersurface_geometry(write_gw_file(text), 12)
    engine = Engine(geometry)
    engine.chern_integral(geometry.max_degree)
    dens = [level[0] for level in engine._m3]
    assert dens[-1] > 1
    # D_{t-1} divides D_t, and D_t is the lcm of D_{t-1} and the level
    # denominators of the terms m3's formula reads at level t: A_s times the
    # denominator of n1pt[t - s] / t5 (the base term), G_s for s >= t/2
    # (gamma2 in C1 and C12) and c2's times A_{t-d2} (n2A(d1, d2, c2) in C2)
    A, G = engine._n2A[0], engine._gamma2[0]
    t5, c2 = geometry.ring.top_integral, Fraction(geometry.c2)
    assert all(dens[t] % dens[t - 1] == 0 for t in range(1, len(dens)))
    for t in range(1, len(dens)):
        read = [A[s] * (Fraction(geometry.n1pt[t - s]) / t5).denominator for s in range(2, t)]
        read += [G[s] for s in range(-(-t // 2), t)]
        read += [c2.denominator * A[t - d2] for d2 in range(1, t) if t / 3 <= d2 < t / 2]
        assert dens[t] == lcm(dens[t - 1], *read), t
    # a closed two-degree level is over the lcm of its values' reduced
    # denominators, so none of its headroom is left
    for kind in ("n2A", "n2B", "n2C", "n2D", "n2E"):
        for t in range(2, geometry.max_degree + 1):
            stored = [Fraction(engine.memo[kind, d1, t - d1]).denominator for d1 in range(1, t)]
            assert getattr(engine, "_" + kind)[0][t] == lcm(*stored), (kind, t)


@pytest.fixture(scope="module")
def local_engine_100():
    engine = Engine(localp2_geometry(100))
    for d in range(1, 101):
        engine.chern_integral(d)
    return engine


def test_integer_levels_are_never_sealed(local_engine_100):
    # every m3 value is an int, so every level's denominator is 1 and each
    # table entry is the value itself
    assert all(level[0] == 1 for level in local_engine_100._m3)
    assert all(type(v) is int for level in local_engine_100._m3[1:]
               for row in level[1:] for v in row[1:])
    # every two-degree level is opened with headroom (B_t = 2, C_t = 2L) and
    # closes back to denominator 1; a level left above 1 would change no
    # output, but would raise the next m3 levels' D_t off 1, and m3's reads,
    # each scaled by D_t / D_l, would carry numerators over D_t > 1
    assert all(den == 1 for dens in _level_denominators(local_engine_100) for den in dens[1:])
    assert set(local_engine_100._factors) == {1}


# -- the memo view over the kinds' index tables ---------------------------------

def _stored_per_kind(engine):
    """Each kind's number of stored values, counted in its table's slots:
    ``_<kind>[d]``, ``_<kind>[d1][d2]`` or the m3 levels ``_m3[t][d1][d2]``."""
    counts = {}
    for kind, ndeg, _ in COUNT_METHODS.values():
        table = getattr(engine, "_" + kind)
        if ndeg == 1:
            slots = table[1:]
        elif ndeg == 2:
            slots = [value for row in table[1:] for value in row[1:]]
        else:
            slots = [value for level in table[1:] for row in level[1:] for value in row[1:]]
        counts[kind] = sum(value is not None for value in slots)
    return counts


def _stored(engine):
    """The number of stored values, counted in the tables themselves."""
    return sum(_stored_per_kind(engine).values())


def test_memo_len_counts_the_stored_values(local_geometry_12):
    engine = Engine(local_geometry_12)
    _interrupt(engine, "_c_m3", (2, 3, 2))
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    del engine._c_m3
    # levels 1-6 whole (20 m3, 5 x 15 n2 kinds, 6 x 6 n1 kinds, 6 gamma2,
    # 3 gamma1), then level 7's 3 gamma2 and its 7 m3 keys before m3(2, 3, 2)
    assert len(engine.memo) == _stored(engine) == len(list(engine.memo)) == 150
    engine.chern_integral(7)
    # levels 1-7 whole (35 m3, 5 x 21, 6 x 7, 9 gamma2, 3 gamma1) and chern(7)
    assert len(engine.memo) == _stored(engine) == len(set(engine.memo)) == 195
    for d in range(1, 13):
        engine.chern_integral(d)
    # 220 m3, 5 x 66 n2 kinds, 7 x 12 n1 kinds and chern, 30 gamma2, 6 gamma1
    assert len(engine.memo) == _stored(engine) == len(set(engine.memo)) == 670


def test_memo_iterates_every_stored_key_once_across_an_interrupted_m3_loop(
        local_geometry_12, monkeypatch):
    # the keys stored before the interrupted m3 loop, between it and its
    # refill, and after, each once: kind by kind, each by ascending degrees
    recorded = []
    for method, (kind, ndeg, _) in COUNT_METHODS.items():
        def traced(engine, *args, _fn=getattr(Engine, method), _kind=kind, _ndeg=ndeg):
            key = (_kind, *args[:_ndeg])
            stored = key in engine.memo
            try:
                return _fn(engine, *args)
            finally:
                if not stored and key in engine.memo:
                    recorded.append(key)
        monkeypatch.setattr(Engine, method, traced)
    engine = Engine(local_geometry_12)
    _interrupt(engine, "_c_m3", (2, 3, 2))
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    del engine._c_m3
    engine.chern_integral(3)
    engine.chern_integral(12)
    keys = list(engine.memo)
    assert Counter(keys) == Counter(recorded)
    kinds = [kind for kind, _, _ in COUNT_METHODS.values()]
    assert keys == sorted(keys, key=lambda key: (kinds.index(key[0]), key[1:]))


@pytest.mark.parametrize("key", [
    ("m3", 0, 1, 2), ("m3", -1, 4, 4), ("m3", 2.0, 1, 1), ("m3", True, 1, 1),
    ("m3", 1, 1), ("m3", 1, 1, 1, 1), ("m3", 1, 1, 7), ("m3", 4, 4, 4), ("m3", 5, 5, 5),
    ("m3", 2, 3, 2), ("n2A", 1, 6), ("n1B", 13), "m3", (),
    ("n2A", 2.0, 1), ("n1B", True), ("gamma2", 1.0, 1), ("chern", 0), ("n2B", 1, 12),
    ("n1B", 1, 1), ("nope", 1),
])
def test_memo_holds_no_unstored_key(local_geometry_12, key):
    # filled to level 6, with level 7 interrupted at m3(2, 3, 2); a float or
    # bool degree does not find the int key's value, of any kind
    engine = Engine(local_geometry_12)
    _interrupt(engine, "_c_m3", (2, 3, 2))
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    assert ("m3", 1, 1, 1) in engine.memo and ("m3", 2, 2, 3) in engine.memo
    assert ("n2A", 2, 1) in engine.memo and ("n1B", 1) in engine.memo
    assert ("gamma2", 1, 1) in engine.memo
    assert key not in engine.memo
    assert engine.memo.get(key) is None
    with pytest.raises(KeyError):
        engine.memo[key]


@pytest.mark.parametrize("fixture", ["local_geometry_12", "rational_geometry_12"])
def test_a_filled_engine_has_at_most_29_attributes(request, fixture):
    # CPython 3.11 shares the keys of instance dicts, and specializes the
    # fill's attribute reads on them, only below 30 keys; past that every
    # read is a dict lookup, about 5 % of a local P^2 fill
    engine = Engine(request.getfixturevalue(fixture))
    engine.chern_integral(12)
    assert len(vars(engine)) <= 29


def test_memo_is_read_only(local_geometry_12):
    engine = Engine(local_geometry_12)
    engine.chern_integral(5)
    memo = dict(engine.memo)
    for key in (("m3", 1, 1, 1), ("n1B", 1), ("m3", 3, 3, 3)):
        with pytest.raises(TypeError):
            engine.memo[key] = 0
        with pytest.raises(TypeError):
            del engine.memo[key]
    assert not hasattr(engine.memo, "pop") and not hasattr(engine.memo, "update")
    assert engine.memo == memo


def test_memo_equality_compares_values(local_geometry_12, rational_geometry_12):
    engine, fresh = Engine(local_geometry_12), Engine(local_geometry_12)
    other = Engine(rational_geometry_12)
    for e in (engine, fresh, other):
        e.chern_integral(6)
    assert engine.memo == fresh.memo and engine.memo == dict(fresh.memo)
    assert engine.memo.keys() == other.memo.keys() and engine.memo != other.memo
    changed = dict(engine.memo)
    changed["m3", 1, 2, 3] += 1
    assert engine.memo != changed and changed != engine.memo
    fresh.chern_integral(7)
    assert engine.memo != fresh.memo


def test_stored_counts_per_kind_at_degree_100(local_engine_100):
    # gamma2(a, b) is stored only for a + 2b <= 100 and gamma1(d) only for
    # 2d <= 100, the keys the formulas read; chern(d) was called for each d
    counts = _stored_per_kind(local_engine_100)
    expected = {"m3": 161_700, "gamma2": 2_450, "gamma1": 50}
    expected |= dict.fromkeys(("n2A", "n2B", "n2C", "n2D", "n2E"), 4_950)
    expected |= dict.fromkeys(("n1B", "n1C", "n1D", "n1E", "n1F", "n1G", "chern"), 100)
    assert counts == expected
    assert sum(counts.values()) == len(local_engine_100.memo) == 189_650


def _call(engine, method, degrees):
    _, _, powers = COUNT_METHODS[method]
    units = [engine.geometry.ring.H(p) for p in powers]
    return getattr(engine, method)(*degrees, *units)


def _degree_tuples(ndeg, max_degree):
    """Every tuple of ndeg positive degrees with total at most max_degree."""
    if ndeg == 1:
        return [(d,) for d in range(1, max_degree + 1)]
    return [(d1, d2) for d1 in range(1, max_degree) for d2 in range(1, max_degree + 1 - d1)]


# the count methods that take insertions
INSERTION_METHODS = sorted(m for m, (_, _, powers) in COUNT_METHODS.items() if powers)


@pytest.mark.parametrize("fixture", ["local_geometry_12", "synthetic_geometry"])
@pytest.mark.parametrize("method", INSERTION_METHODS)
def test_insertions_default_to_the_unit_class(request, fixture, method):
    geometry = request.getfixturevalue(fixture)
    engine = Engine(geometry)
    count = getattr(engine, method)
    _, ndeg, powers = COUNT_METHODS[method]
    for degrees in _degree_tuples(ndeg, geometry.max_degree):
        value = count(*degrees)
        size = len(engine.memo)
        # fresh unit objects, as the tracer passes them, find the stored
        # key and store nothing
        units = [geometry.ring.H(p) for p in powers]
        assert count(*degrees, *units) == value
        assert len(engine.memo) == size
        for position in range(len(powers)):
            insertions = list(units)
            insertions[position] = None
            assert count(*degrees, *insertions) == value
        assert count(*degrees, *[None] * len(powers)) == value


@pytest.mark.parametrize("method", INSERTION_METHODS)
def test_an_insertion_that_is_not_a_class_raises(local_engine, method):
    _, ndeg, powers = COUNT_METHODS[method]
    for bad in (1, Fraction(1), "H"):
        with pytest.raises(InsertionDegreeError, match="insertion must be a CohClass"):
            getattr(local_engine, method)(*[1] * ndeg, *[bad] * len(powers))


# each refused degree with the text the message ends in
BAD_DEGREES = [(2.0, "2.0"), (True, "True"), (Fraction(2), "Fraction(2, 1)"), (0, "0"), (-1, "-1")]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("method", sorted(COUNT_METHODS))
def test_every_public_call_validates_its_degrees(local_geometry_12, method, warm):
    # a non-int degree equal to a stored key must not alias it, and a refused
    # call fills nothing
    engine = Engine(local_geometry_12)
    if warm:
        for d in range(1, 13):
            engine.chern_integral(d)
    memo = dict(engine.memo)
    ndeg = COUNT_METHODS[method][1]
    cases = []
    for position in range(ndeg):
        for bad, text in BAD_DEGREES:
            degrees = [1] * ndeg
            degrees[position] = bad
            cases.append((degrees, f"curve degree must be a positive integer, got {text}"))
    cases.append(([1] * (ndeg - 1) + [14 - ndeg], "total degree 13 exceeds geometry max_degree 12"))
    for degrees, message in cases:
        with pytest.raises(ValueError) as excinfo:
            _call(engine, method, degrees)
        assert str(excinfo.value) == message
        assert engine.memo == memo


_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


# no shrink phase: a failing example is reported as found.  Shrinking would
# run 30 ms examples for up to five minutes, and hypothesis keeps each
# failing one's exception, whose traceback holds that example's engine, so
# a wrong count would take minutes and more than a gigabyte to be reported
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    t5=_rationals.filter(lambda q: q != 0),
    c2=_rationals,
    c3=_rationals,
    columns=st.lists(st.tuples(_rationals, _rationals, _rationals), min_size=8, max_size=8),
)
# c2 = 0: every c2 term is summed with a zero weight on the rational path
@example(
    t5=Fraction(7), c2=Fraction(0), c3=Fraction(-112),
    columns=[(Fraction(d, 3), Fraction(-d, 2), Fraction(1, d)) for d in range(1, 9)],
)
def test_random_compact_geometry_symmetries(t5, c2, c3, columns):
    rows = {d: tuple(str(q) for q in row) for d, row in enumerate(columns, start=1)}
    text = gw_file_text(t5=str(t5), c2=str(c2), c3=str(c3), maxdeg=8, rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.gw"
        path.write_text(text, encoding="utf-8")
        geometry = load_hypersurface_geometry(path, 8)
    engine = Engine(geometry)
    H = geometry.ring.H(1)
    for a in range(1, 8):
        for b in range(1, 9 - a):
            assert engine.n2B(a, b, H) == engine.n2B(b, a, H)
            if a > b:
                assert engine.n2B(a, b, H) == n2B_formula(engine, a, b)
            for c in range(1, min(a, 9 - a - b)):
                assert engine.m3(a, b, c) == m3_formula(engine, a, b, c)
    for d in range(1, 9):
        engine.chern_integral(d)
    assert all(type(v) is int or v.denominator != 1 for v in engine.memo.values())


@given(st.lists(st.integers(-(10**30), 10**30), max_size=12), st.integers(1, 10**12))
@example([], 1)
@example([3, -7], 1)  # a level whose denominator is 1
@example([1, 3, -2, 5], 12)
def test_row_sums_match_fraction_sums(nums, den):
    # _row against plain Fraction sums: v_p is nums[p - 1] / den, planted as
    # the m3 row m3(1, d2 - p, p) of numerators over the level's den
    engine = Engine(localp2_geometry(2))
    d2 = len(nums) + 1
    engine._m3 = [None] * (d2 + 1) + [[den, [None] + nums[::-1]]]
    values = [Fraction(n, den) for n in nums]
    s0, s1, s2 = (sum((Fraction(p) ** k * v for p, v in enumerate(values, 1)), Fraction(0))
                  for k in range(3))
    num_C, num_D, num_E = engine._row(1, d2)
    assert all(type(n) is int for n in (num_C, num_D, num_E))
    assert [Fraction(num_C, den), Fraction(num_D, den), Fraction(num_E, den)] == [
        s2, d2 * (d2 * s1 - s2), s0]


def test_open_reads_the_gamma2_key_of_the_level_below():
    # level 7 of a local geometry whose only denominator below it is
    # gamma2(5, 1) = 1/11, over G_6 = 11: m3(1, 5, 1)'s correction reads it,
    # so D_7 must take its 11
    engine = Engine(localp2_geometry(7))
    engine._m3 = [[1] for _ in range(7)]
    engine._n2A[0][1:7] = [1] * 6
    engine._gamma2[0][1:7] = [1] * 5 + [11]
    engine._gamma2[5][1], engine._gamma2[3][2], engine._gamma2[1][3] = 1, 4, 0
    engine._open(7)
    assert engine._m3[7][0] % 11 == 0
