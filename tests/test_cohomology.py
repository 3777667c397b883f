import pytest

from cy5bps.cohomology import CohClass, Ring, RingMismatchError
from cy5bps.rational import Rat

LOCAL = Ring(top_power=2)
COMPACT = Ring(top_power=5, top_integral=7)


def test_mixed_ring_error():
    with pytest.raises(RingMismatchError):
        LOCAL.H(1) + COMPACT.H(1)


def test_homogeneity_detection():
    assert COMPACT.H(2).homogeneous_power() == 2
    assert COMPACT.zero().homogeneous_power() is None
    mixed = COMPACT.H(1) + COMPACT.H(2)
    assert mixed.homogeneous_power() is None


def test_scalar_multiplication():
    assert 3 * LOCAL.H(1) == LOCAL.monomial(1, 3)
    assert (-1) * LOCAL.H(1) == LOCAL.monomial(1, -1)
    assert LOCAL.H(1).scaled(0).is_zero()


def test_cohclass_validates_length():
    with pytest.raises(ValueError):
        CohClass(LOCAL, (Rat(1),))


def test_compact_ring_needs_nonzero_top_integral():
    with pytest.raises(ValueError, match="top_integral"):
        Ring(5, 0)
