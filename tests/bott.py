"""Bott's formula over the lines of a hypersurface, as a test oracle.

Imports nothing from ``cy5bps``: the values it gives share no code and
no Gromov-Witten input with the engine.

The torus acts on the coordinates x_0..x_N of P^N with pairwise distinct
integer weights w_j.  The lines of P^N form the Grassmannian G(2, N+1),
whose fixed points are the coordinate pairs S = {j, k}.  At S:

* the tangent weights of G(2, N+1) are x = {w_a - w_b : a in S, b not in S};
* the universal quotient Q has the weights -w_b, b not in S;
* E = Sym^a S*, whose section cut out by the equation of a degree-a
  hypersurface X_a vanishes on the lines of X_a, has the weights
  mu = {t w_j + (a - t) w_k : 0 <= t <= a}.

For a class alpha of degree dim G(2, N+1) - rank E = 2N - 3 - a, the
lines of X_a carry the integral sum over S of alpha(S) * prod(mu) /
prod(x).  On a Calabi-Yau 5-fold (a = N + 1 = 7) that family B_1 has
dimension 2, and three such integrals enter the genus-1 pipeline:

* N_{0,1}(H^3), the lines meeting a codimension-3 linear space: c_2(Q);
* N_{0,1}(H^2, H^2), the lines meeting two codimension-2 ones: c_1(Q)^2;
* the integral of 2 c_2 - c_1^2 of T_B = T_G - E over B_1, the degree-1
  Chern integral: sum(mu^2) - sum(x^2).

The plane curves of degree k = 2 or 3 on X_a in P^n (a = n + 1, so that
the cubics are finite in number and the conics form a surface) are
summed the same way over P = P(Sym^k S*), the bundle of degree-k forms
over the planes G(3, n+1).  A fixed point is a coordinate triple V with
one of its degree-k monomials m; w(nu) is the weight of a monomial nu,
the sum of its variables' weights.  At (V, m):

* the tangent weights are x = {w_a - w_b : a in V, b not in V} and
  w(m') - w(m) for the other degree-k monomials m';
* E = Sym^a S* / (O(-1) (x) Sym^(a-k) S*), the degree-a equations on the
  plane modulo the multiples of its curve's form, has the weights
  {w(nu) : deg nu = a} minus the multiset {w(m) + w(nu') : deg nu' =
  a - k}.

The plane cubics are counted by the sum of prod(mu) / prod(x); the
conics carry the degree-2 Chern integral, the sum of (sum(mu^2) -
sum(x^2)) prod(mu) / prod(x).

Everything is an exact ``Fraction``; a different set of weights gives
the same sums, which is the formula's own check.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

# two weight sets for P^6, each pairwise distinct
WEIGHTS = ([11**j for j in range(7)], [13**j + 5 * j for j in range(7)])


def line_integral(a, n, weights, alpha):
    """The integral over the lines of X_a in P^n of the class alpha,
    given at each fixed line as ``alpha(x, mu, q)`` of its three weight
    lists (tangent, E, quotient)."""
    total = Fraction(0)
    for j, k in combinations(range(n + 1), 2):
        rest = [b for b in range(n + 1) if b not in (j, k)]
        x = [weights[s] - weights[b] for s in (j, k) for b in rest]
        mu = [t * weights[j] + (a - t) * weights[k] for t in range(a + 1)]
        q = [-weights[b] for b in rest]
        total += Fraction(alpha(x, mu, q) * prod(mu), prod(x))
    return total


def _c1_squared(x, mu, q):
    return sum(q) ** 2


def _c2(x, mu, q):
    return sum(u * v for u, v in combinations(q, 2))


def _chern(x, mu, q):
    return sum(m * m for m in mu) - sum(t * t for t in x)


def septic_line_integrals(weights):
    """(N_{0,1}(H^3), N_{0,1}(H^2, H^2), the degree-1 Chern integral) of
    the septic X_7 in P^6."""
    return tuple(line_integral(7, 6, weights, alpha) for alpha in (_c2, _c1_squared, _chern))


def _monomial_weights(weights, variables, degree):
    """The weight w(nu) of each degree-``degree`` monomial nu in ``variables``."""
    return [sum(weights[v] for v in nu)
            for nu in combinations_with_replacement(variables, degree)]


def plane_curve_integral(a, n, weights, k, alpha):
    """The integral over the plane curves of degree k on X_a in P^n of the
    class alpha, given at each fixed point as ``alpha(x, mu)`` of its
    tangent and E weights."""
    total = Fraction(0)
    for plane in combinations(range(n + 1), 3):
        rest = [b for b in range(n + 1) if b not in plane]
        tangent = [weights[s] - weights[b] for s in plane for b in rest]
        forms = _monomial_weights(weights, plane, k)
        equations = _monomial_weights(weights, plane, a)
        cofactors = _monomial_weights(weights, plane, a - k)
        for i, m in enumerate(forms):
            x = tangent + [w - m for w in forms[:i] + forms[i + 1:]]
            mu = Counter(equations)
            mu.subtract(m + w for w in cofactors)
            # elements() skips a negative count, so a multiple of m that is
            # not among the equations would give a plausible wrong product
            assert min(mu.values()) >= 0, (plane, i)
            mu = list(mu.elements())
            total += Fraction(alpha(x, mu) * prod(mu), prod(x))
    return total


def plane_cubic_count(a, n, weights):
    """The number of plane cubics on X_a in P^n, for a = n + 1."""
    return plane_curve_integral(a, n, weights, 3, lambda x, mu: 1)


def conic_chern(a, n, weights):
    """The integral of 2 c_2 - c_1^2 over the conics of X_a in P^n, for
    a = n + 1: the degree-2 Chern integral."""
    return plane_curve_integral(a, n, weights, 2, lambda x, mu: _chern(x, mu, ()))
