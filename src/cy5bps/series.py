"""Degree-indexed series and the multiple-cover inversions.

A :class:`DegreeSeries` is a dense table ``{d: value}`` for
``1 <= d <= max_degree`` over exact rationals.  Degrees outside that
range, or gaps inside it, are errors rather than zeros so that
off-by-one bugs in the pipelines fail loudly.

Two triangular inversions live here.  Genus 0: a single embedded
rational curve of degree ``d`` contributes ``1/e^(3-k)`` to the
``k``-pointed degree ``e*d`` Gromov-Witten invariant for every cover
degree ``e``, so

    N_D = sum over e | D of n_{D/e} / e^(3-k)

and ``invert_multi_cover`` solves for the integer-conjectured ``n``.
Genus 1: an elliptic curve contributes ``sigma(e)/e`` through its
unbranched covers, and a family of rational curves with Chern number
``C_d`` contributes ``C_d / (24 e)``, giving

    N1_D = sum over e | D of sigma(e)/e * n1_{D/e}
         + 1/24 * sum over e | D of C_{D/e} / e,

solved by ``extract_genus1_bps``.  The companion form
``extract_genus1_bps_tilde`` folds the sigma-weights into a plain
``1/e`` cover sum; integrality of one table is equivalent to
integrality of the other.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .rational import Rat, exact

__all__ = [
    "SeriesError",
    "DegreeSeries",
    "sigma",
    "moebius",
    "divisors",
    "invert_multi_cover",
    "extract_genus1_bps",
    "extract_genus1_bps_tilde",
]


class SeriesError(ValueError):
    """A DegreeSeries was built with gaps or read outside its range."""


def check_degree(d, name="degree", error=ValueError) -> None:
    """Raise ``error`` unless the degree (or degree bound) ``name`` is a plain
    ``int`` >= 1; a bool or a float such as 2.0 is refused like a non-positive int."""
    if type(d) is not int:
        raise error(f"{name} must be a positive integer, got {d!r}")
    if d < 1:
        raise error(f"{name} must be >= 1, got {d}")


def _factorize(d: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    factors = []
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def sigma(d: int) -> int:
    """Sum of divisors, sigma(d) = sum of i over i | d."""
    check_degree(d)
    result = 1
    for p, k in _factorize(d):
        result *= (p ** (k + 1) - 1) // (p - 1)
    return result


def moebius(d: int) -> int:
    """Moebius function: (-1)^r on a product of r distinct primes, else 0."""
    check_degree(d)
    result = 1
    for _, k in _factorize(d):
        if k > 1:
            return 0
        result = -result
    return result


def divisors(d: int) -> list[int]:
    """All positive divisors of d, ascending."""
    check_degree(d)
    small, large = [], []
    i = 1
    while i * i <= d:
        if d % i == 0:
            small.append(i)
            if i != d // i:
                large.append(d // i)
        i += 1
    return small + large[::-1]


class DegreeSeries:
    """Dense exact-rational series indexed by degree 1..max_degree."""

    __slots__ = ("_values", "max_degree")

    def __init__(self, values: Mapping[int, object], max_degree: int):
        check_degree(max_degree, "max_degree", SeriesError)
        table = {}
        for d, v in values.items():
            check_degree(d, error=SeriesError)
            if d > max_degree:
                raise SeriesError(f"degree {d} outside 1..{max_degree}")
            table[d] = exact(v)
        missing = [d for d in range(1, max_degree + 1) if d not in table]
        if missing:
            raise SeriesError(f"series is missing degree {missing[0]} of 1..{max_degree}")
        self._values = table
        self.max_degree = max_degree

    @classmethod
    def from_function(cls, fn: Callable[[int], object], max_degree: int) -> "DegreeSeries":
        return cls({d: fn(d) for d in range(1, max_degree + 1)}, max_degree)

    @classmethod
    def zero(cls, max_degree: int) -> "DegreeSeries":
        return cls.from_function(lambda _d: Rat(0), max_degree)

    def __getitem__(self, d: int):
        try:
            return self._values[d]
        except KeyError:
            raise SeriesError(
                f"degree {d} not defined (series covers 1..{self.max_degree})"
            ) from None

    def __len__(self) -> int:
        return self.max_degree

    def __iter__(self):
        return iter(range(1, self.max_degree + 1))

    def items(self):
        return ((d, self._values[d]) for d in range(1, self.max_degree + 1))

    def values(self):
        return (self._values[d] for d in range(1, self.max_degree + 1))

    def truncated(self, max_degree: int) -> "DegreeSeries":
        if max_degree > self.max_degree:
            raise SeriesError(
                f"cannot extend series of max_degree {self.max_degree} to {max_degree}"
            )
        return DegreeSeries({d: self._values[d] for d in range(1, max_degree + 1)}, max_degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegreeSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and all(
            self._values[d] == other._values[d] for d in self
        )

    def __repr__(self) -> str:
        head = ", ".join(str(self._values[d]) for d in range(1, min(self.max_degree, 8) + 1))
        tail = ", ..." if self.max_degree > 8 else ""
        return f"DegreeSeries([{head}{tail}], max_degree={self.max_degree})"


def _check_pointed(k: int) -> int:
    if k not in (1, 2):
        raise ValueError(f"number of insertions k must be 1 or 2, got {k}")
    return 3 - k


def _solve_cover_sum(total: DegreeSeries, weight: Callable[[int], object]) -> DegreeSeries:
    """Solve total_D = n_D + sum_{e|D, e>1} weight(e) n_{D/e} for n, degree by degree."""
    n: dict[int, object] = {}
    for D in total:
        acc = total[D]
        for e in divisors(D):
            if e > 1:
                acc -= weight(e) * n[D // e]
        n[D] = acc
    return DegreeSeries(n, total.max_degree)


def invert_multi_cover(gw: DegreeSeries, k: int) -> DegreeSeries:
    """Solve N_D = sum_{e|D} n_{D/e} / e^(3-k) for n, degree by degree."""
    power = _check_pointed(k)
    return _solve_cover_sum(gw, lambda e: Rat(1, e**power))


def _check_same_range(a: DegreeSeries, b: DegreeSeries) -> None:
    if a.max_degree != b.max_degree:
        raise SeriesError(
            f"series ranges differ: {a.max_degree} vs {b.max_degree}"
        )


def _without_chern_term(n1_gw: DegreeSeries, chern: DegreeSeries) -> DegreeSeries:
    """N1_D - 1/24 sum_{e|D} C_{D/e}/e, the cover sum left for the BPS counts."""
    _check_same_range(n1_gw, chern)
    return DegreeSeries.from_function(
        lambda D: n1_gw[D] - sum((chern[D // e] / Rat(e) for e in divisors(D)), Rat(0)) / 24,
        n1_gw.max_degree,
    )


def extract_genus1_bps(n1_gw: DegreeSeries, chern: DegreeSeries) -> DegreeSeries:
    """Solve N1_D = sum_{e|D} sigma(e)/e n1_{D/e} + 1/24 sum_{e|D} C_{D/e}/e."""
    return _solve_cover_sum(_without_chern_term(n1_gw, chern), lambda e: Rat(sigma(e), e))


def extract_genus1_bps_tilde(n1_gw: DegreeSeries, chern: DegreeSeries) -> DegreeSeries:
    """Solve N1_D = sum_{e|D} (nt_{D/e} + C_{D/e}/24) / e for nt."""
    return _solve_cover_sum(_without_chern_term(n1_gw, chern), lambda e: Rat(1, e))
