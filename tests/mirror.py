"""The septic X_7 in P^6 from its mirror series, as a test oracle.

Imports neither ``cy5bps`` nor ``golden``: the Gromov-Witten input it
writes comes from the hypergeometric series of X_7 alone, and nothing in
it is fitted to the published tables.

A q-series is the list of its coefficients at q^0..q^N, every one an
exact ``Fraction``; a series in w and q is the list of its q-series at
w^0, w^1, ...  The steps:

* F(w, q) = sum_d q^d prod_{r=1}^{7d} (7w + r) / prod_{r=1}^{d} (w + r)^7;
* M G = (1 + (q/w) d/dq)(G / G(0, q)), so that [w^k] M G = [w^k] H +
  q d/dq [w^(k+1)] H with H = G / G(0, q), and I_p(q) = (M^p F)(0, q);
* the mirror map J = [w^1] F / [w^0] F, Q = q e^J;
* genus 0 (Givental): sum_d d^2 N_{0,d}(H^3) Q^d = 7 (I_2 / I_1 - 1) and
  sum_d d N_{0,d}(H^2, H^2) Q^d = 7 (I_3 / I_1 - 1);
* genus 1 (Zinger): sum_d N_{1,d} Q^d is A J + B log I_0 - (1/8) log(1 -
  7^7 q) - 2 log I_1 - (1/2) log I_2 in Q, with A = (c_4(X) H) / 24 and
  B = chi(X) / 24 - 9/2 from c(X) = (1 + H)^7 / (1 + 7H);
* a q-series f is re-expanded in Q by Lagrange: [Q^n] f(q(Q)) = (1/n)
  [q^(n-1)] f'(q) e^(-n J(q)), so only the derivative of each logarithm
  is needed, and e^(-n J) is one product more than e^(-(n-1) J).
"""

from fractions import Fraction
from math import comb

T5 = 7
# the Chern classes of X_7 as multiples of H^k: (1 + H)^7 / (1 + 7H)
CHERN = [sum(comb(7, i) * (-7) ** (k - i) for i in range(k + 1)) for k in range(6)]
A = Fraction(CHERN[4] * T5, 24)
B = Fraction(CHERN[5] * T5, 24) - Fraction(9, 2)


def _mul(a, b):
    """The product of two q-series, truncated to the length of ``a``."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _div(a, b):
    """The quotient a / b of two q-series of one length, b[0] nonzero."""
    out = []
    for n in range(len(a)):
        out.append((a[n] - sum(out[i] * b[n - i] for i in range(n))) / b[0])
    return out


def _theta(a):
    """q d/dq of a q-series."""
    return [n * c for n, c in enumerate(a)]


def _derivative(a):
    """d/dq of a q-series, one coefficient shorter."""
    return _theta(a)[1:]


def _exp(g):
    """e^g of a q-series with g[0] = 0: E' = g' E, coefficient by coefficient."""
    out = [Fraction(1)]
    for n in range(1, len(g)):
        out.append(sum(k * g[k] * out[n - k] for k in range(1, n + 1)) / n)
    return out


def hypergeometric(n, orders):
    """[w^k] F for k < ``orders``, each a q-series to q^n."""
    columns = [[Fraction(0)] * (n + 1) for _ in range(orders)]
    # the d-th term's numerator and denominator as integer polynomials in w,
    # truncated at w^(orders - 1), each extended from the (d - 1)-th
    num, den = [1] + [0] * (orders - 1), [1] + [0] * (orders - 1)
    for d in range(n + 1):
        if d:
            for r in range(7 * d - 6, 7 * d + 1):
                num = [r * c + 7 * (num[k - 1] if k else 0) for k, c in enumerate(num)]
            for _ in range(7):
                den = [d * c + (den[k - 1] if k else 0) for k, c in enumerate(den)]
        term = _div([Fraction(c) for c in num], den)
        for k in range(orders):
            columns[k][d] = term[k]
    return columns


def periods(n, orders=4):
    """I_0 .. I_{orders - 1} and the mirror map J, each a q-series to q^n."""
    g = hypergeometric(n, orders)
    result, j = [g[0]], _div(g[1], g[0])
    for _ in range(1, orders):
        h = [_div(column, g[0]) for column in g]
        g = [[a + b for a, b in zip(h[k], _theta(h[k + 1]))] for k in range(len(h) - 1)]
        result.append(g[0])
    return result, j


def gw_columns(n):
    """(N_{0,d}(H^3), N_{0,d}(H^2, H^2), N_{1,d}) for d = 1..n."""
    (i0, i1, i2, i3), j = periods(n)
    conifold = [Fraction(T5**T5) ** (k + 1) for k in range(n)]  # d/dq of -log(1 - 7^7 q)
    genus0 = [[T5 * c for c in _div(i2, i1)], [T5 * c for c in _div(i3, i1)]]
    genus1 = [A * a + B * b + c / 8 - 2 * e - f / 2 for a, b, c, e, f in zip(
        _derivative(j), _div(_derivative(i0), i0[:-1]), conifold,
        _div(_derivative(i1), i1[:-1]), _div(_derivative(i2), i2[:-1]))]
    derivatives = [_derivative(f) for f in genus0] + [genus1]
    exp_j = _exp([-c for c in j])[:-1]
    power, rows = [Fraction(1)] + [Fraction(0)] * (n - 1), []
    for d in range(1, n + 1):
        power = _mul(power, exp_j)
        h3, h2h2, g1 = (sum(f[k] * power[d - 1 - k] for k in range(d)) / d for f in derivatives)
        rows.append((h3 / (d * d), h2h2 / d, g1))
    return rows


def septic_gw_text(n):
    """The ``cy5-gw v1`` input of X_7 for degrees 1..n."""
    lines = ["cy5-gw v1", f"t5={T5} c2={CHERN[2]} c3={CHERN[3]} maxdeg={n}"]
    lines += [f"{d} {a} {b} {c}" for d, (a, b, c) in enumerate(gw_columns(n), 1)]
    return "\n".join(lines) + "\n"
