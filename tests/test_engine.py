import dataclasses
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cy5bps.cohomology import CurveClass, InsertionDegreeError, RingMismatchError
from cy5bps.engine import Engine, _exact_sum
from cy5bps.genus1 import compute_bps_table
from cy5bps.geometry import load_hypersurface_geometry
from cy5bps.localp2 import localp2_geometry
from cy5bps.rational import Rat, parse_rational

from conftest import gw_file_text, random_gw_text
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
        "C2": lambda a, b: engine.correction_C2(a, b, H),
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


def test_correction_C2_symmetry_branch(local_engine):
    H = local_engine.geometry.ring.H(1)
    assert local_engine.correction_C2(2, 1, H) == local_engine.correction_C2(1, 2, H)


def test_correction_C3_cases(local_engine):
    # degree triple (1,1,3): the third correction takes the branch whose
    # chain count has strictly smaller total degree
    c1, c2, c12 = local_engine.correction_C3(1, 1, 3)
    assert c12 == -local_engine.m3(1, 1, 1)
    # (2,3,1): the third correction falls through to the zero branch
    _, _, c12 = local_engine.correction_C3(2, 3, 1)
    assert c12 == 0


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


def test_cold_start_at_geometry_max_degree():
    # a direct top-level call with nothing memoized must not hit the
    # interpreter recursion limit, even a low one, and must leave the
    # caller's limit as it found it
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        engine = Engine(localp2_geometry(60))
        assert sys.getrecursionlimit() == 250
        cold = engine.chern_integral(60)
        assert sys.getrecursionlimit() == 250
    finally:
        sys.setrecursionlimit(saved)
    assert cold == engine.chern_integral(60)


def test_mixed_c2_is_rejected_at_construction(local_geometry_12):
    ring = local_geometry_12.ring
    for c2 in (ring.H(1) + ring.H(2), ring.H(1)):
        with pytest.raises(InsertionDegreeError):
            Engine(dataclasses.replace(local_geometry_12, c2=c2))


def test_base_closures_are_read_only_when_built(write_gw_file):
    geometry = load_hypersurface_geometry(write_gw_file(random_gw_text(1, 12)), 12)
    calls = Counter()

    def counted(name, base):
        def wrapper(*args):
            calls[name] += 1
            return base(*args)
        return wrapper

    counted_geometry = dataclasses.replace(
        geometry,
        base_n1pt=counted("n1pt", geometry.base_n1pt),
        base_n2pt=counted("n2pt", geometry.base_n2pt),
    )
    counted_engine, engine = Engine(counted_geometry), Engine(geometry)
    built = sum(calls.values())
    assert 0 < built <= 12 * (12 + 1)
    compute_bps_table(counted_geometry, 12, engine=counted_engine)
    assert sum(calls.values()) == built
    compute_bps_table(geometry, 12, engine=engine)
    assert counted_engine.memo == engine.memo


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
    engine = Engine(local_geometry_12)
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, 9):
                if a + b + c <= 10:
                    assert engine.m3(a, b, c) == engine.m3(c, b, a)


def test_gamma2_swap_structure_total_degree_6(local_geometry_12):
    # the node-cotangent terms of gamma2 are symmetrized by construction, so
    # any asymmetry comes entirely from its n2A + 2*n2E part; evaluating both
    # orders shows that part (and hence gamma2) is genuinely not symmetric
    engine = Engine(local_geometry_12)
    c2 = local_geometry_12.c2
    asymmetric = []
    for a in range(1, 6):
        for b in range(1, 7 - a):
            lhs = engine.gamma2(a, b) - engine.gamma2(b, a)
            rhs = (engine.n2A(a, b, c2) + 2 * engine.n2E(a, b)) - (
                engine.n2A(b, a, c2) + 2 * engine.n2E(b, a)
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


def test_curve_class_arguments_match_ints(local_geometry_12):
    engine = Engine(local_geometry_12)
    H = local_geometry_12.ring.H(1)
    cc = CurveClass
    cold = engine.m3(cc(2), cc(3), cc(4))
    assert type(cold) is int and cold == engine.m3(2, 3, 4)
    assert engine.n2B(cc(3), cc(5), H) == engine.n2B(3, 5, H)
    assert engine.chern_integral(cc(7)) == engine.chern_integral(7)
    assert type(engine.chern_integral(cc(7))) is int
    assert all(type(k[1]) is int for k in engine.memo)


_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


@settings(max_examples=15, deadline=None)
@given(
    t5=_rationals.filter(lambda q: q != 0),
    c2=_rationals,
    c3=_rationals,
    columns=st.lists(st.tuples(_rationals, _rationals, _rationals), min_size=8, max_size=8),
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
            for c in range(1, 9 - a - b):
                assert engine.m3(a, b, c) == engine.m3(c, b, a)
    for d in range(1, 9):
        engine.chern_integral(d)
    assert all(type(v) is int or v.denominator != 1 for v in engine.memo.values())


_ints = st.integers(-(10**30), 10**30)
_rats = st.builds(Rat, st.integers(-(10**30), 10**30), st.integers(1, 10**6))


@given(st.lists(st.one_of(_ints, _rats)))
@example([])
@example([3, -7, 12])
@example([Rat(1, 2), Rat(3, 4), Rat(3, 4)])
@example([Rat(1, 6), Rat(1, 3)])
@example([1, Rat(1, 2), Rat(1, 2)])
@example([1, Rat(1, 2)])
def test_exact_sum_matches_builtin_sum(terms):
    total = _exact_sum(iter(terms))
    assert total == sum(terms)
    assert (type(total) is int) == (Rat(sum(terms)).denominator == 1)
