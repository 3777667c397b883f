import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cy5bps.cohomology import InsertionDegreeError, Ring, RingMismatchError
from cy5bps.engine import Engine, _weighted_sum
from cy5bps.geometry import load_hypersurface_geometry
from cy5bps.localp2 import localp2_geometry
from cy5bps.rational import Rat, parse_rational

from conftest import gw_file_text, random_gw_text
from corrections import correction_C2, corrections_C3, m3_formula
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


def test_zero_insertions_give_zero(local_engine):
    g = local_engine.geometry
    zero = g.ring.zero()
    H2 = g.ring.H(2)
    assert local_engine.n1B(1, zero, H2) == 0
    assert local_engine.n1C(2, zero) == 0
    assert local_engine.n2A(1, 1, zero) == 0
    assert local_engine.n2B(1, 1, zero) == 0


def test_linearity_in_insertions(local_engine):
    g = local_engine.geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    assert local_engine.n1C(2, 5 * H2) == 5 * local_engine.n1C(2, H2)
    assert local_engine.n1D(2, 2 * H, H2) == 2 * local_engine.n1D(2, H, H2)
    assert local_engine.n1D(2, H, -3 * H2) == -3 * local_engine.n1D(2, H, H2)
    assert local_engine.n2B(1, 2, Rat(1, 2) * H) == Rat(1, 2) * local_engine.n2B(1, 2, H)


def test_wrong_insertion_degree_raises(local_engine):
    g = local_engine.geometry
    H, H2 = g.ring.H(1), g.ring.H(2)
    with pytest.raises(InsertionDegreeError):
        local_engine.n1B(1, H, H2)
    with pytest.raises(InsertionDegreeError):
        local_engine.n1C(1, H)
    with pytest.raises(InsertionDegreeError):
        local_engine.n2B(1, 1, H2)
    with pytest.raises(InsertionDegreeError):
        local_engine.n2A(1, 1, H + H2)  # non-homogeneous


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
    assert local_engine.n1C(4, 2 * other.H(2)) == 2 * local_engine.n1C(4, H2)
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


def test_interrupted_fill_leaves_its_level_unfilled(local_geometry_12):
    engine = Engine(local_geometry_12)
    compute = engine._c_n2B

    def interrupt(d1, d2):
        if (d1, d2) == (3, 4):
            raise KeyboardInterrupt
        return compute(d1, d2)

    engine._c_n2B = interrupt
    with pytest.raises(KeyboardInterrupt):
        engine.chern_integral(7)
    del engine._c_n2B
    # level 7 was partly filled: the n2B keys before the interrupted one
    # are stored, it and everything after it are not
    assert ("n2B", 2, 5) in engine.memo
    assert ("n2B", 3, 4) not in engine.memo and ("n1G", 7) not in engine.memo
    fresh = Engine(local_geometry_12)
    assert engine.n1G(7) == fresh.n1G(7)
    for d in range(1, 13):
        assert engine.chern_integral(d) == fresh.chern_integral(d)
    assert engine.memo == fresh.memo


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
    with pytest.raises(InsertionDegreeError):
        engine.n2A(1, 1, H + H2)
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
    # entries of each kind by wrapping the public names relies on
    geometry = request.getfixturevalue(fixture)
    recorded = []
    for method, (kind, ndeg, _) in COUNT_METHODS.items():
        def traced(engine, *args, _fn=getattr(Engine, method), _kind=kind, _ndeg=ndeg):
            before = len(engine.memo)
            try:
                return _fn(engine, *args)
            finally:
                if len(engine.memo) > before:
                    recorded.append((_kind, *args[:_ndeg]))
        monkeypatch.setattr(Engine, method, traced)
    engine = Engine(geometry)
    for d in range(1, geometry.max_degree + 1):
        engine.chern_integral(d)
    assert len(set(recorded)) == len(recorded)
    assert recorded == list(engine.memo)


def _assert_m3_table_is_the_memo(engine):
    # the level table holds each m3 memo value, the same object, at
    # _m3[a + b + c][a][b], one level per filled level and nothing else;
    # every filled level is whole, so each key's reversal is stored too
    table = {}
    for t, level in enumerate(engine._m3):
        for a, row in enumerate(level or ()):
            for b, value in enumerate(row or ()):
                if value is not None:
                    table[a, b, t - a - b] = value
    m3 = {key[1:]: value for key, value in engine.memo.items() if key[0] == "m3"}
    assert table.keys() == m3.keys()
    assert all(table[key] is value for key, value in m3.items())
    # a chain and its reversal share one stored object
    assert all(m3[c, b, a] is value for (a, b, c), value in m3.items())
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
    compute = engine._c_m3

    def interrupt(d1, d2, d3):
        if (d1, d2, d3) == (2, 3, 2):
            raise KeyboardInterrupt
        return compute(d1, d2, d3)

    engine._c_m3 = interrupt
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


def _call(engine, method, degrees):
    _, _, powers = COUNT_METHODS[method]
    units = [engine.geometry.ring.H(p) for p in powers]
    return getattr(engine, method)(*degrees, *units)


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


@settings(max_examples=15, deadline=None)
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
            for c in range(1, min(a, 9 - a - b)):
                assert engine.m3(a, b, c) == m3_formula(engine, a, b, c)
    for d in range(1, 9):
        engine.chern_integral(d)
    assert all(type(v) is int or v.denominator != 1 for v in engine.memo.values())


_ints = st.integers(-(10**30), 10**30)
_rats = st.builds(Rat, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
_weights = st.integers(-(10**6), 10**6)


@given(st.lists(st.tuples(_weights, st.one_of(_ints, _rats))))
@example([])
@example([(1, 3), (1, -7), (1, 12)])
@example([(1, Rat(1, 2)), (1, Rat(3, 4)), (1, Rat(3, 4))])
@example([(1, Rat(1, 6)), (1, Rat(1, 3))])
@example([(1, 1), (1, Rat(1, 2)), (1, Rat(1, 2))])
@example([(1, 1), (1, Rat(1, 2))])
@example([(0, Rat(1, 3)), (0, 5), (0, Rat(2, 7))])  # zero weights
@example([(3, Rat(1, 4)), (5, Rat(3, 4)), (-1, Rat(1, 4))])  # equal denominators
@example([(2, Rat(1, 4)), (1, Rat(1, 2)), (3, 7)])  # reduces to the integer 22
@example([(-3, Rat(5, 6)), (-2, Rat(1, 3)), (-1, 4)])  # negative weights
def test_exact_sum_matches_builtin_sum(terms):
    total = _weighted_sum(iter(terms))
    expected = sum(w * v for w, v in terms)
    assert total == expected
    assert (type(total) is int) == (Rat(expected).denominator == 1)


@given(
    st.lists(st.tuples(st.one_of(_weights, _rats), st.one_of(_ints, _rats))),
    st.integers(-50, 50).filter(bool),
    _ints,
    st.integers(1, 10**6),
)
@example([], -1, 6, 3)
@example([(Rat(1, 2), Rat(1, 2))], 2, 3, 4)
def test_weighted_sum_with_start_and_divisor(terms, divisor, num, den):
    # rational weights, a running start num/den and a negative divisor are
    # the forms the engine's products, row sums and m3 base term take
    total = _weighted_sum(terms, divisor, num, den)
    expected = (Rat(num, den) + sum(w * v for w, v in terms)) / divisor
    assert total == expected
    assert (type(total) is int) == (expected.denominator == 1)
