"""Divided differences, the c-twisted symmetrizer, and its closed forms.

Operators on functions of u_1, ..., u_n:

    d_k f = (f - f with u_k <-> u_{k+1}) / (u_k - u_{k+1})

    Sym_c(f) = sum_{w in S_n} w . ( Delta(1..n) f ),
    Delta(k_1..k_n) = prod_{i<j} (u_{k_i} - u_{k_j} - c) / (u_{k_i} - u_{k_j})

    theta: index shift u_k -> u_{k+1} with wraparound u_{k+n} = u_k + c
    tau:   index shift u_j -> u_{j+1} that erases the last factor of the
           double product it acts on (see lascoux_tau_sides)

The chain d_{n-1} ... d_1 f(u_1) equals the Newton divided difference
f[u_1, ..., u_n]; ``newton_chain`` computes it by the O(n^2) table, and the
agreement with the literal operator chain is itself a tested property.

Every integrand symmetrized here is a slot product prod_i h_i(x_i): slot i
holds one factor, a function of the single point placed there.
``sym_c(slots, u, c)`` takes each slot as its row of values h_i(u_1), ...,
h_i(u_n) and sums the n! orderings as a Held-Karp dynamic program over the
set of points already placed (Held & Karp, J. SIAM 10, 1962): O(n 2^n)
multiplications against O(n^2 n!) for the literal permutation sum, with
the same exact value.  The symmetrization formulas are identities of
rational functions, checked over the exact field only, so c, u and the
slot values are ints or Fractions (a complex or float input raises
``TypeError``).  D = prod_{j<k} (u_j - u_k) clears every Delta
denominator (the pair table and D come from
``sources.integer_pair_tables``), and the sum is divided once at the end,
as in the subset-sum kernel and ``linalg.det_exact``.

The two symmetrization formulas verified here evaluate Sym_c of
(1 - theta)^{n-1} prod_{j>=2} prod_k (u_j - v_k) f(u_1), resp. of
(1 - tau)^n prod_{j,k} (u_j - v_k - c)/(u_j - v_k), in closed form through
the n = m, z = 1 cleared source polynomial (the ik determinant).  Expanded
binomially, each power is a signed sum of slot products, one sym_c call per
shift (``_alternating_sum``).  The sides functions scale once per point:
``fields.to_integers`` makes (c, u, v) the ints (g, a, b) = L (c, u, v),
every slot row (the root products, the tau numerators, f and the pin of
u_1) is ints computed from them, and sym_c walks Python ints at (a, g),
where Delta is unchanged and the scalings of u and c cost nothing.  Each
lhs is divided by the slots' common scale once, after its binomial sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .detreps import izergin_korepin, izergin_korepin_core
from .fields import is_exact, to_integers
from .linalg import prod
from .sources import RatParams, integer_pair_tables, rational_P

PERM_CAP = 10


def poly_eval(coeffs, x):
    """Evaluate a coefficient-list polynomial a_0 + a_1 x + ... at x."""
    acc = x - x
    for a in reversed(list(coeffs)):
        acc = acc * x + a
    return acc


def divided_difference(f, u, k: int):
    """d_k f at the point u (0-based k, acting on slots k and k+1)."""
    u = tuple(u)
    if u[k] == u[k + 1]:
        raise ZeroDivisionError("divided difference needs u_k != u_{k+1}")
    swapped = list(u)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    return (f(u) - f(tuple(swapped))) / (u[k] - u[k + 1])


def newton_chain(coeffs, u):
    """d_{n-1} ... d_1 f(u_1) as the Newton divided difference f[u_1..u_n]."""
    u = tuple(u)
    if len(set(u)) != len(u):
        raise ZeroDivisionError("newton_chain needs pairwise distinct points")
    table = [poly_eval(coeffs, x) for x in u]
    n = len(u)
    for level in range(1, n):
        table = [
            (table[i + 1] - table[i]) / (u[i + level] - u[i]) for i in range(n - level)
        ]
    return table[0]


def sym_c(slots, u, c):
    """Sym_c of the slot product prod_i slots[i](x_i) at the point u, where
    slots[i][k] is slot i's value at u_k.

    Filling the slots left to right, the point u_k placed into slot |S|
    after the points S meets one Delta factor R[j][k] =
    (u_j - u_k - c)/(u_j - u_k) per earlier point j in S, so

        dp[S + {k}] += dp[S] * slots[|S|][k] * prod_{j in S} R[j][k]

    and Sym_c = dp[all points].  The pair product is carried per (S, k), at
    one multiplication each, so the whole sum costs O(n 2^n).

    c, u and every slot value must be ints or Fractions (``TypeError``
    otherwise), and each row holds n values (``ValueError``).  Each ordering
    meets every pair once, so D = prod_{j<k} (u_j - u_k) clears all its
    Delta denominators: the walk multiplies R[j][k] times D's factor of
    {j, k} (the ``cross`` table and D of ``sources.integer_pair_tables`` at
    sigma = (1, c, 1)) and divides by D once at the end.  The values are
    summed as given, with no scaling: at ints the walk is over Python ints.
    """
    u = tuple(u)
    n = len(u)
    if not is_exact((c, *u, *(x for row in slots for x in row))):
        raise TypeError("sym_c needs ints and Fractions")
    if len(slots) != n or any(len(row) != n for row in slots):
        raise ValueError("sym_c needs one slot row of n values per point")
    if n > PERM_CAP:
        raise ValueError(f"sym_c is capped at n <= {PERM_CAP}")
    if len(set(u)) != n:
        raise ZeroDivisionError("sym_c needs pairwise distinct points")
    pair, _, divisor = integer_pair_tables(u, (1, c, 1))
    size = 1 << n
    dp = [0] * size
    dp[0] = 1
    # carried[S][k] = prod_{j in S} R[j][k] for each k outside S
    carried = [[1] * n] + [None] * (size - 1)
    for s in range(size - 1):
        if s:
            low = s & -s
            prev, row = carried[s ^ low], pair[low.bit_length() - 1]
            carried[s] = [None if s >> k & 1 else prev[k] * row[k] for k in range(n)]
        acc = dp[s]
        if not acc:
            continue
        h, pr = slots[s.bit_count()], carried[s]
        for k in range(n):
            if not s >> k & 1 and h[k]:
                dp[s | 1 << k] += acc * h[k] * pr[k]
    return Fraction(dp[-1], divisor)


def _sizes(u, v):
    """(u, v, n) with u and v as tuples; ``ValueError`` unless
    len(u) == len(v) = n >= 1."""
    u, v = tuple(u), tuple(v)
    if len(v) != len(u) or not u:
        raise ValueError("needs len(u) == len(v) >= 1")
    return u, v, len(u)


def _scaled_point(u, v, c):
    """(a, b, g, L): the ints a = L u, b = L v and g = L c of one
    ``fields.to_integers`` scaling of (c, u, v)."""
    (g, *ints), lcm = to_integers((c, *u, *v))
    return ints[:len(u)], ints[len(u):], g, lcm


def _root_row(a, b, shift):
    """prod_k (x - b_k + shift) at each point x of a."""
    return [prod(x - y + shift for y in b) for x in a]


def _poly_row(coeffs, a, lcm):
    """(values, M): f(a_j / L) = values[j] / M for the polynomial f with
    coefficients ``coeffs``, evaluated over ints.

    With f = sum_i (k_i / K) x^i over the ints of ``fields.to_integers`` and
    d its degree, L^d K f(a / L) = sum_i k_i L^(d-i) a^i.
    """
    ks, scale = to_integers(coeffs)
    degree = max(len(ks) - 1, 0)
    lifted = [k * lcm ** (degree - i) for i, k in enumerate(ks)]
    return [poly_eval(lifted, x) for x in a], scale * lcm ** degree


def _theta_rows(head, a, b, g):
    """The slot rows of theta^t, t = 0..n-1, applied to head(u_1)
    prod_{j>=2} prod_k (u_j - v_k) at the int point (a, b, g).

    theta renames u_k to u_{k+1} with u_{k+n} = u_k + c, so head lands in
    slot t+1, the factors in slots t+2..n stay prod_k (x - b_k), and those
    that wrap round into slots 1..t become prod_k (x - b_k + g).  Both root
    rows are L^n times their values at (u, v, c), so each Sym_c is
    L^{n(n-1)} times its value there (head as given).
    """
    plain, shifted = _root_row(a, b, 0), _root_row(a, b, g)
    n = len(a)
    return [[shifted] * t + [head] + [plain] * (n - 1 - t) for t in range(n)]


def _alternating_sum(slot_lists, a, g):
    """sum_t (-1)^t C(r, t) Sym_c(slot_lists[t]) at (a, g), r = len - 1:
    the binomial expansion of (1 - shift)^r, one sym_c call per power."""
    r = len(slot_lists) - 1
    return sum((-1) ** t * math.comb(r, t) * sym_c(slots, a, g)
               for t, slots in enumerate(slot_lists))


def lascoux_symmetrized_sides(u, v, c, coeffs):
    """Both sides of the symmetrization identity for a polynomial f.

    lhs = Sym_c( (1-theta)^{n-1} prod_{j=2}^n prod_k (u_j - v_k) f(u_1) ),
    the power expanded binomially into theta shifts.

    rhs = (n-1)! (-c)^{n-1}
          * prod_{i,k} (v_i - u_k)(v_i - u_k - c)
            / ( prod_{i<j} (v_j - v_i) prod_{i<j} (u_i - u_j) )
          * det 1/((v_j - u_k)(v_j - u_k - c))
          * d_{n-1} ... d_1 f(u_1)

    This is (n-1)! (-c)^{n-1} times ``detreps.izergin_korepin_core`` and the
    chain, which stays defined (0 for n >= 2) at c = 0.

    The lhs is summed at the int point (a, b, g) of ``_scaled_point``: Sym_c
    is unchanged when u and c are scaled together, each root slot is L^n
    times its value at (u, v, c) and f is values / M (``_poly_row``), so the
    sum is divided by M L^{n(n-1)} once.
    """
    u, v, n = _sizes(u, v)
    a, b, g, lcm = _scaled_point(u, v, c)
    values, scale = _poly_row(coeffs, a, lcm)
    lhs = _alternating_sum(_theta_rows(values, a, b, g), a, g) / (scale * lcm ** (n * (n - 1)))

    core = izergin_korepin_core(u, v, c, math.factorial(n - 1) * (-c) ** (n - 1))
    return lhs, core * newton_chain(coeffs, u)


def lascoux_rhs_via_source(u, v, c, coeffs):
    """Same rhs routed through the cleared source polynomial at z = 1:

    (n-1)!/(-c) * P_{n,n}^{(z=1)}(u | v) * d_{n-1} ... d_1 f(u_1).
    """
    u, v, n = _sizes(u, v)
    p_val = rational_P(RatParams(c=c, z=c - c + 1, u=u, v=v))
    return math.factorial(n - 1) / (-c) * p_val * newton_chain(coeffs, u)


def lascoux_tau_sides(u, v, c):
    """Both sides of the tau-shift symmetrization identity.

    tau^t of the double product prod_{j=1}^n prod_k (u_j - v_k - c)/(u_j - v_k)
    is the tail prod_{j=t+1}^n prod_k (u_j - v_k - c)/(u_j - v_k), so

    lhs = Sym_c( sum_{t=0}^n (-1)^t C(n, t) * tail_t )
    rhs = n! (-1)^n IK(u, v + c, c) / prod_{i,k} (v_i - u_k)
        = n! c^n prod_{i,k} (v_i - u_k + c)
          / ( prod_{i<j} (v_j - v_i) prod_{i<j} (u_i - u_j) )
          * det 1/((v_j - u_k + c)(v_j - u_k))

    The lhs is summed at the int point (a, b, g) of ``_scaled_point``.  The
    product W = prod_{j,k} (a_j - b_k) is symmetric in the points, so Sym_c(W
    tail_t) = W Sym_c(tail_t): times W, slots 1..t hold prod_k (x - b_k) and
    slots t+1..n the numerators prod_k (x - b_k - g), all ints, and the sum
    is divided by W once.
    """
    u, v, n = _sizes(u, v)
    a, b, g, _ = _scaled_point(u, v, c)
    den, num = _root_row(a, b, 0), _root_row(a, b, -g)
    lhs = _alternating_sum([[den] * t + [num] * (n - t) for t in range(n + 1)], a, g) / prod(den)

    shifted = tuple(vk + c for vk in v)
    rhs = math.factorial(n) * (-1) ** n * izergin_korepin(u, shifted, c)
    rhs /= prod(vi - uk for vi in v for uk in u)
    return lhs, rhs


def lascoux_tau_rhs_via_source(u, v, c):
    """tau-identity rhs as n! / prod (u_j - v_k) * P_{n,n}^{(z=1)}(u | v + c)."""
    u, v, n = _sizes(u, v)
    one = c - c + 1
    shifted = tuple(vk + c for vk in v)
    p_val = rational_P(RatParams(c=c, z=one, u=u, v=shifted))
    return math.factorial(n) * p_val / prod(uj - vk for uj in u for vk in v)


def reduction_identity_sides(u, v, c):
    """Both sides of the f(u_1)-coefficient identity behind the theta formula.

    lhs = sum_{ell=1}^n (-1)^{ell-1} C(n-1, ell-1)
            sum_{w in S_n, w(1)=1} w . ( Delta(ell,2,..,ell-1,1,ell+1,..,n)
                prod_{j=ell+1}^n prod_k (u_j - v_k)
                prod_{j=2}^{ell} prod_k (u_j - v_k + c) )
    rhs = (n-1)! / ( -c prod_{j>=2} (u_1 - u_j) ) * P_{n,n}^{(z=1)}(u | v)

    In the slot order of its Delta the inner sum is the theta slot product
    of lascoux_symmetrized_sides with f replaced by the indicator of u_1, so
    slot ell pins u_1 and Sym_c runs over the orderings of the rest.  As
    there, the lhs is summed at the int point of ``_scaled_point`` and
    divided by L^{n(n-1)} once.
    """
    u, v, n = _sizes(u, v)
    a, b, g, lcm = _scaled_point(u, v, c)
    pin = [1] + [0] * (n - 1)
    lhs = _alternating_sum(_theta_rows(pin, a, b, g), a, g) / lcm ** (n * (n - 1))

    p_val = rational_P(RatParams(c=c, z=c - c + 1, u=u, v=v))
    rhs = math.factorial(n - 1) * p_val / (-c * prod(u[0] - u[j] for j in range(1, n)))
    return lhs, rhs
