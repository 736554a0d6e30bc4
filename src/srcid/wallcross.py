"""Wall-crossing combinatorics: decreasing-minima collections, chi_t sums.

A Dec collection (I_1, ..., I_j) is a tuple of disjoint nonempty subsets
of [1..l] with min(I_1) > ... > min(I_j) and total size |I_1| + ... +
|I_j| = k.  The correction formula below weighs a collection by 0 as soon
as one part has size >= 2 (its factor gamma), so only the singleton
collections ({h_1}, ..., {h_k}) count, and ``enumerate_dec(l, k)`` lists
them as the int chains (h_1, ..., h_k) with l >= h_1 > ... > h_k >= 1.

``chi_genus_integral`` evaluates the two fixed-point subset sums

    '+' : sum_{K subset [1..m], |K| = l}
             prod_{i in K, j notin K} (1 - t v_i/v_j)/(1 - v_i/v_j)
             prod_{i in K, k <= n}    (1 - t u_k/v_i)/(1 - u_k/v_i)
    '-' : sum_{K subset [1..n], |K| = l}
             prod_{i in K, j notin K} (1 - t u_j/u_i)/(1 - u_j/u_i)
             prod_{i in K, k <= m}    (1 - t u_i/v_k)/(1 - u_i/v_k)

which are the coefficients of (-z)^l (up to t^{l(l-1)/2}) in the two sides
of the generating-series identity

    sum_l (-z)^l t^{l(l-1)/2} chi+(l)
        = prod_{j=1}^{m-n} (1 - t^{m-j} z) * sum_l (-z)^l t^{l(l-1)/2} chi-(l).

Both signs are per-size sums of ``sources``' trigonometric sums at
q = 1/t.  With r(a, b) = (1 - t a/b)/(1 - a/b), the '+' side's pair
factor r(v_i, v_j) is t times the trig F pair ratio (v_i - v_j/t)/(v_i - v_j),
and its member factor r(u_k, v_i) is the trig F member ratio of v_i at the
partners t u.  The '-' side takes r with its arguments swapped: t times the
trig G pair ratio, and the trig G member ratio of u_i at the partners v/t.
A K of size l separates l(size - l) pairs, so with S_l the unweighted
per-size sums of ``sources.size_sums``

    chi+(l)(t, u, v) = t^{l(m-l)} S^F_l at (q, u, v) = (1/t, t u, v),
    chi-(l)(t, u, v) = t^{l(n-l)} S^G_l at (q, u, v) = (1/t, u, v/t).

One call per side gives chi(l) for every l together (over ints at an exact
point), so ``geometric_sides`` weights one list per side by the size
weights (-z)^l t^{l(l-1)/2} of ``sources``, and ``coeff_identity_sides``
and ``wallcrossing_sides`` read every order they need from one list per
side.

The singleton-weighted correction formula expresses chi+(l) - chi-(l)
through chi-(l - k), summed over the chains of ``enumerate_dec(l, k)``
(``dec_weight``), with weights built from the statistic

    s(I1, I2) = #{(i, j) in I1 x I2 : i < j}        (unsigned)
              [- #{(i, j) : i > j}  when signed]

The hook product identity evaluates the resulting chain sums in closed
form with symmetric q-numbers (n)_t, parametrized by s = t^{1/2}; its
t -> 1 limit produces plain binomial coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .qseries import q_factorial, q_binomial, sym_q_factorial, sym_q_number
from .sources import TrigParams, signed_q_powers, size_sums

DEC_CAP = 8


def enumerate_dec(ell: int, k: int):
    """The singleton Dec collections of total size k, as int chains
    (h_1, ..., h_k) with l >= h_1 > ... > h_k >= 1, in the order of the
    k-subsets of [1..l]."""
    if not 0 <= k <= ell <= DEC_CAP:
        raise ValueError(f"need 0 <= k <= l <= {DEC_CAP}")
    return [tuple(reversed(support)) for support in combinations(range(1, ell + 1), k)]


def s_stat(i1, i2, signed: bool = False) -> int:
    """#{(a, b) in I1 x I2 : a < b}, minus the a > b count when signed."""
    below = sum(1 for a in i1 for b in i2 if a < b)
    if not signed:
        return below
    above = sum(1 for a in i1 for b in i2 if a > b)
    return below - above


def _chi_sums(sign: str, t, u, v, top: int = 0) -> list:
    """[chi(0), chi(1), ...] on the chosen side, through chi(top) at least:
    chi(l) = 0 for l above the side's size."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if top < 0:
        raise ValueError("the order l must be non-negative")
    # chi(l) = t^(l(size - l)) S_l of the trig sums at q = 1/t (module docstring)
    if sign == "+":
        size, point = len(v), TrigParams(q=1 / t, z=0, u=tuple(t * y for y in u), v=v)
    else:
        size, point = len(u), TrigParams(q=1 / t, z=0, u=u, v=tuple(x / t for x in v))
    sums = size_sums("trig", "F" if sign == "+" else "G", point)
    sums = [t ** (ell * (size - ell)) * s for ell, s in enumerate(sums)]
    return sums + [t - t] * (top + 1 - len(sums))


def chi_genus_integral(sign: str, ell: int, t, u, v):
    """Fixed-point subset sum of size ell on the chosen side ('+' or '-')."""
    return _chi_sums(sign, t, u, v, ell)[ell]


def geometric_sides(z, t, u, v):
    """Both sides of the generating-series identity (requires n <= m)."""
    n, m = len(u), len(v)
    if n > m:
        raise ValueError("needs n <= m")
    lhs, rhs = (
        sum(w * chi for w, chi in zip(signed_q_powers(z, t, size), _chi_sums(sign, t, u, v)))
        for sign, size in (("+", m), ("-", n))
    )
    for j in range(1, m - n + 1):
        rhs *= 1 - t ** (m - j) * z
    return lhs, rhs


def coeff_identity_sides(ell: int, m: int, n: int, t, u, v):
    """(lhs, rhs) of the coefficient identity at order (-z)^ell, n <= m."""
    if len(u) != n or len(v) != m or n > m:
        raise ValueError("needs len(u) = n <= len(v) = m")
    lhs = t ** (ell * (ell - 1) // 2) * chi_genus_integral("+", ell, t, u, v)
    minus = _chi_sums("-", t, u, v, ell)
    rhs = t - t
    for k in range(0, min(ell, m - n) + 1):
        term = t ** (n * k) * t ** (k * (k - 1) // 2) * q_binomial(m - n, k, t)
        term *= t ** ((ell - k) * (ell - k - 1) // 2)
        term *= minus[ell - k]
        rhs += term
    return lhs, rhs


def verify_coeff_identity(ell, m, n, t, u, v):
    lhs, rhs = coeff_identity_sides(ell, m, n, t, u, v)
    return lhs - rhs


def dec_weight(chain, ell: int, m: int, n: int, t, facts):
    """Weight of the chain l >= h_1 > ... > h_k >= 1 in the singleton
    correction formula.

    [l-k]_t!/[l]_t! * prod_i t^{-(l-i)} / (t-1)
        * (t^{s({h_i}, R_i) + m} - t^{s(R_i, {h_i}) + n})

    with R_i = [1..l] minus {h_1, ..., h_i}.  This is the Dec collection
    weight at singleton parts, where gamma and [d_i - 1]_t! are 1.
    ``facts`` lists [j]_t! for j = 0..l.
    """
    weight = facts[ell - len(chain)] / facts[ell]
    remaining = set(range(1, ell + 1))
    for i, h in enumerate(chain, start=1):
        remaining.discard(h)
        factor = 1 / (t - 1)
        factor *= t ** (i - ell)
        factor *= t ** (s_stat((h,), remaining) + m) - t ** (s_stat(remaining, (h,)) + n)
        weight *= factor
    return weight


def wallcrossing_sides(ell: int, m: int, n: int, t, u, v):
    """(lhs, rhs) of the correction formula: chi+ - chi- vs the Dec sum."""
    if len(u) != n or len(v) != m:
        raise ValueError("needs len(u) = n, len(v) = m")
    minus = _chi_sums("-", t, u, v, ell)
    lhs = chi_genus_integral("+", ell, t, u, v) - minus[ell]
    rhs = t - t
    facts = [q_factorial(j, t) for j in range(ell + 1)]
    for k in range(1, ell + 1):
        chi_rest = minus[ell - k]
        for chain in enumerate_dec(ell, k):
            rhs += dec_weight(chain, ell, m, n, t, facts) * chi_rest
    return lhs, rhs


def verify_wallcrossing_K(ell, m, n, t, u, v):
    lhs, rhs = wallcrossing_sides(ell, m, n, t, u, v)
    return lhs - rhs


def hook_product_identity(ell: int, k: int, d: int, s):
    """(lhs, rhs) of the chain-sum factorization in symmetric q-numbers.

    lhs = sum_{l >= h_1 > ... > h_k >= 1} prod_i (l - 2 h_i - i + 2 + d)_t
    rhs = (d)_t! (l)_t! / ( (k)_t! (d-k)_t! (l-k)_t! ),  t = s^2.
    """
    chains = enumerate_dec(ell, k)
    if d < k:
        raise ValueError("factorial form needs d >= k")
    one = s - s + 1
    lhs = s - s
    for h in chains:
        term = one
        for i, hi in enumerate(h, start=1):
            term *= sym_q_number(ell - 2 * hi - i + 2 + d, s)
        lhs += term
    rhs = (
        sym_q_factorial(d, s)
        * sym_q_factorial(ell, s)
        / (sym_q_factorial(k, s) * sym_q_factorial(d - k, s) * sym_q_factorial(ell - k, s))
    )
    return lhs, rhs


def hook_product_limit(ell: int, k: int, d: int):
    """t -> 1 limit: signed-statistic chain sum against binomial(d, k).

    lhs = sum_{chains} (l-k)!/l! prod_i ( s_signed({h_i}, R_i) + d ),
    rhs = C(d, k), with R_i = [1..l] minus {h_1, ..., h_i}.
    """
    chains = enumerate_dec(ell, k)
    weight = Fraction(math.factorial(ell - k), math.factorial(ell))
    lhs = Fraction(0)
    for h in chains:
        remaining = set(range(1, ell + 1))
        term = weight
        for hi in h:
            remaining.discard(hi)
            term *= s_stat({hi}, remaining, signed=True) + d
        lhs += term
    return lhs, Fraction(math.comb(d, k))
