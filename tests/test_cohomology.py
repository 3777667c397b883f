from fractions import Fraction

import pytest

from cy5bps.cohomology import CohClass, Ring
from cy5bps.engine import Engine
from cy5bps.localp2 import localp2_geometry

LOCAL = Ring(top_power=2)
COMPACT = Ring(top_power=5, top_integral=7)


def test_homogeneity_detection():
    assert (COMPACT.H(2).power, COMPACT.H(2).coeff) == (2, 1)
    assert (COMPACT.zero().power, COMPACT.zero().coeff) == (0, 0)
    assert COMPACT.monomial(3, 0) == COMPACT.zero()


def test_truncated_power_is_zero():
    assert LOCAL.H(3).is_zero()
    assert LOCAL.H(3) == LOCAL.zero()


def test_scalar_multiplication():
    assert 3 * LOCAL.H(1) == LOCAL.monomial(1, 3)
    assert (-1) * LOCAL.H(1) == LOCAL.monomial(1, -1)
    H = LOCAL.H(1)
    assert 0 * H == LOCAL.zero()


def test_classes_do_not_add():
    # every insertion is one monomial, so a class has no sum
    with pytest.raises(TypeError):
        LOCAL.H(1) + LOCAL.H(1)


def test_equal_classes_hash_equal():
    assert hash(3 * COMPACT.H(2)) == hash(COMPACT.monomial(2, 3))
    assert len({COMPACT.H(1), 1 * COMPACT.H(1), COMPACT.monomial(1, 1)}) == 1
    assert COMPACT.H(1) != LOCAL.H(1)


def test_compact_ring_needs_nonzero_top_integral():
    with pytest.raises(ValueError, match="top_integral"):
        Ring(5, 0)


@pytest.mark.parametrize("top_power", [True, 2.0, "2", 0, -1], ids=repr)
def test_top_power_must_be_a_positive_int(top_power):
    with pytest.raises(ValueError, match="top_power must be an int >= 1"):
        Ring(top_power)


def test_direct_construction_is_normalised():
    ring = Ring(2)
    assert CohClass(ring, 2, 0) == ring.zero()
    assert CohClass(ring, 3, 1).is_zero()
    assert CohClass(ring, 3, 1) == ring.zero()
    assert type(CohClass(ring, 1, 3).coeff) is Fraction


def test_float_coefficient_is_rejected():
    geometry = localp2_geometry(4)
    engine = Engine(geometry)
    with pytest.raises(ValueError):
        engine.n1C(1, CohClass(geometry.ring, 2, 0.5))
    with pytest.raises(ValueError):
        geometry.ring.monomial(2, 0.5)
    with pytest.raises(ValueError):
        0.5 * geometry.ring.H(2)


@pytest.mark.parametrize("power", [2.0, True, "2", Fraction(2)])
def test_non_int_power_is_rejected(power):
    ring = Ring(2)
    with pytest.raises(ValueError, match="power must be an int"):
        CohClass(ring, power, 1)
    with pytest.raises(ValueError, match="power must be an int"):
        ring.monomial(power)


def test_equal_rings_are_interchangeable():
    assert Ring(2) == Ring(2)
    assert hash(Ring(2)) == hash(Ring(2))
    assert Ring(5, 7) == Ring(5, Fraction(14, 2))
    assert hash(Ring(5, 7)) == hash(Ring(5, Fraction(14, 2)))
    assert Ring(2).H(1) == Ring(2).H(1)
    assert CohClass(Ring(2), 2, 0) == Ring(2).zero()
    assert len({Ring(5, 7).H(1), COMPACT.H(1)}) == 1
    # the hash is over the two values, so they cannot change
    with pytest.raises(AttributeError):
        Ring(2).top_power = 3


@pytest.mark.parametrize("other", [Ring(4, 7), Ring(5, 8), Ring(5)], ids=repr)
def test_unequal_rings(other):
    assert COMPACT != other
    assert COMPACT.H(1) != other.H(1)
