from fractions import Fraction

import pytest

from cy5bps.cohomology import CohClass, Ring

LOCAL = Ring(top_power=2)
COMPACT = Ring(top_power=5, top_integral=7)


def test_power_outside_the_ring_is_refused():
    # a power above the top is not truncated to a zero class: there is none
    for power in (3, -1):
        with pytest.raises(ValueError, match=rf"power must be in 0\.\.2, got {power}"):
            LOCAL.H(power)
        with pytest.raises(ValueError, match=rf"power must be in 0\.\.2, got {power}"):
            CohClass(LOCAL, power)
    with pytest.raises(ValueError, match="power must be an int, got 2.0"):
        LOCAL.H(2.0)


def test_classes_do_not_scale():
    # the counts are linear in each insertion, so a caller scales the count
    with pytest.raises(TypeError):
        3 * LOCAL.H(1)
    with pytest.raises(TypeError):
        LOCAL.H(1) * 3


def test_classes_do_not_add():
    # every insertion is one power of H, so a class has no sum
    with pytest.raises(TypeError):
        LOCAL.H(1) + LOCAL.H(1)


def test_equal_classes_hash_equal():
    assert hash(COMPACT.H(2)) == hash(CohClass(COMPACT, 2))
    assert len({COMPACT.H(1), COMPACT.H(1), CohClass(COMPACT, 1)}) == 1
    assert COMPACT.H(1) != COMPACT.H(2)
    assert COMPACT.H(1) != LOCAL.H(1)


def test_compact_ring_needs_nonzero_top_integral():
    with pytest.raises(ValueError, match="top_integral"):
        Ring(5, 0)


@pytest.mark.parametrize("top_power", [True, 2.0, "2", 0, -1], ids=repr)
def test_top_power_must_be_a_positive_int(top_power):
    with pytest.raises(ValueError, match="top_power must be an int >= 1"):
        Ring(top_power)


@pytest.mark.parametrize("power", [2.0, True, "2", Fraction(2)])
def test_non_int_power_is_rejected(power):
    ring = Ring(2)
    with pytest.raises(ValueError, match="power must be an int"):
        CohClass(ring, power)
    with pytest.raises(ValueError, match="power must be an int"):
        ring.H(power)


def test_every_power_up_to_the_top_is_a_class():
    assert [repr(COMPACT.H(p)) for p in range(6)] == ["1", "H", "H^2", "H^3", "H^4", "H^5"]
    assert [LOCAL.H(p).power for p in range(3)] == [0, 1, 2]


def test_equal_rings_are_interchangeable():
    assert Ring(2) == Ring(2)
    assert hash(Ring(2)) == hash(Ring(2))
    assert Ring(5, 7) == Ring(5, Fraction(14, 2))
    assert hash(Ring(5, 7)) == hash(Ring(5, Fraction(14, 2)))
    assert Ring(2).H(1) == Ring(2).H(1)
    assert CohClass(Ring(2), 2) == Ring(2).H(2)
    assert len({Ring(5, 7).H(1), COMPACT.H(1)}) == 1
    # the hash is over the two values, so they cannot change
    with pytest.raises(AttributeError):
        Ring(2).top_power = 3


@pytest.mark.parametrize("other", [Ring(4, 7), Ring(5, 8), Ring(5)], ids=repr)
def test_unequal_rings(other):
    assert COMPACT != other
    assert COMPACT.H(1) != other.H(1)
