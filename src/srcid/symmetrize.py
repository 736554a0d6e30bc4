"""Divided differences, the c-twisted symmetrizer, and its closed forms.

Operators on functions of u_1, ..., u_n:

    d_k f = (f - f with u_k <-> u_{k+1}) / (u_k - u_{k+1})

    Sym_c(f) = sum_{w in S_n} w . ( Delta(1..n) f ),
    Delta(k_1..k_n) = prod_{i<j} (u_{k_i} - u_{k_j} - c) / (u_{k_i} - u_{k_j})

    theta: index shift u_k -> u_{k+1} with wraparound u_{k+n} = u_k + c
    tau:   index shift u_j -> u_{j+1} that erases the last factor of the
           double product it acts on (see lascoux_tau_sides)

The chain d_{n-1} ... d_1 f(u_1) equals the Newton divided difference
f[u_1, ..., u_n].  The sides read it off the int row of f at the point's
int form as one Fraction (``_chain_from_row``); ``newton_chain`` is the
generic O(n^2) table over any field, and the tests check the sides' chain
against it and against the literal operator chain.

Every integrand symmetrized here is a binomial sum of slot products
prod_i h_i(x_i): slot i holds one factor, a function of the single point
placed there.  ``sym_c(slots, u, c)`` takes three lists of slot rows
(before, at, after), slot i's row being its values at u_1, ..., u_n, and
returns Sym_c of sum_t prod_{i<t} before_i(x_i) at_t(x_t) prod_{i>t}
after_i(x_i).  It sums the n! orderings of every term at once as a
Held-Karp dynamic program over the set of points already placed (Held &
Karp, J. SIAM 10, 1962), with two partial sums per set, before and after
the switch slot t: O(n 2^n) multiplications against O(n^3 n!) for the
literal sums, with the same exact value.  The symmetrization formulas are
identities of rational functions, checked over the exact field only, so c,
u and the slot values are ints or Fractions (a complex or float input
raises ``TypeError``).  D = prod_{j<k} (u_j - u_k) clears every Delta
denominator (the pair table and D come from
``sources.integer_pair_tables``), and the sum is divided once at the end,
as in the subset-sum kernel and ``linalg.det_exact``.

The two symmetrization formulas verified here evaluate Sym_c of
(1 - theta)^{n-1} prod_{j>=2} prod_k (u_j - v_k) f(u_1), resp. of
(1 - tau)^n prod_{j,k} (u_j - v_k - c)/(u_j - v_k), in closed form through
the n = m, z = 1 cleared source polynomial (the ik determinant).  Expanded
binomially, each power is a signed sum of slot products in which the shift
t moves one switch slot: theta^t puts f in slot t+1 behind t wrapped
factors, tau^t leaves t slots without their numerator.  The weights
(-1)^t C(r, t) go into the at rows, so each sides function makes one sym_c
walk.  The tau term t = n has no switch slot: tau^n leaves the empty
product 1, and Sym_c(1) = n!, so it is the closed form (-1)^n n!.

The sides functions and the source routes take a rational point at z = 1
(a ``sources.RatParams`` with len(u) == len(v) >= 1) and read its one int
form, ``sources.int_form``: the ints (g, a, b) = L (c, u, v), made with
the point, so the engine's accept test, the sides, the IK determinants and
P share one scaling.
A point with a complex or float value raises ``TypeError``.  Every slot
row (the root products, the tau numerators, f and the pin of u_1) is ints
computed from them, and sym_c walks Python ints at (a, g), where Delta is
unchanged and the scalings of u and c cost nothing.  Each lhs is divided
by the slots' common scale once.  The rhs routes read the same ints: the
chain and the products they divide by, prod (v_i - u_k) =
prod (b_i - a_k) / L^(n^2) and prod_{j>=2} (u_1 - u_j) =
prod (a_1 - a_j) / L^(n-1), are ints until one Fraction made at the end.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .detreps import izergin_korepin, izergin_korepin_core
from .fields import is_exact, to_integers
from .linalg import prod, vandermonde
from .sources import int_form, integer_pair_tables, rational_P

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
    """Sym_c of the binomial slot sum

        sum_t prod_{i<t} before_i(x_i) * at_t(x_t) * prod_{i>t} after_i(x_i)

    at the point u, where slots = (before, at, after) and each list holds
    one row per slot i: rows[i][k] is that slot's value at u_k.  A single
    slot product prod_i h_i(x_i) is before = h, at = (0, ..., 0, h_{n-1}).

    Filling the slots left to right, the point u_k placed into slot |S|
    after the points S meets one Delta factor R[j][k] =
    (u_j - u_k - c)/(u_j - u_k) per earlier point j in S.  The walk carries
    two partial sums per S: lead[S], before the switch slot t is placed
    (every slot so far holds its before row), and done[S], after it.  With
    i = |S| and P = prod_{j in S} R[j][k],

        lead[S + {k}] += lead[S] * before_i[k] * P
        done[S + {k}] += (lead[S] * at_i[k] + done[S] * after_i[k]) * P

    and the sum is done[all points]: one walk for every t at once.  The pair
    table and the carried products P are shared by both sums, one
    multiplication per (S, k), so the whole sum costs O(n 2^n).

    Each list must hold n rows of n values (``ValueError``), n is capped at
    ``PERM_CAP`` (``ValueError``), and c, u and every slot value must be
    ints or Fractions (``TypeError``).  Each ordering meets every pair once,
    so D = prod_{j<k} (u_j - u_k) clears all its Delta denominators: the
    walk multiplies R[j][k] times D's factor of {j, k} (the ``cross`` table
    and D of ``sources.integer_pair_tables`` at sigma = (1, c, 1)) and
    divides by D once at the end.  The values are summed as given, with no
    scaling: at ints the walk is over Python ints.
    """
    u = tuple(u)
    n = len(u)
    if n > PERM_CAP:
        raise ValueError(f"sym_c is capped at n <= {PERM_CAP}")
    if len(slots) != 3 or any(len(rows) != n or any(len(row) != n for row in rows)
                              for rows in slots):
        raise ValueError("sym_c needs (before, at, after), each n slot rows of n values")
    if not is_exact((c, *u, *(x for rows in slots for row in rows for x in row))):
        raise TypeError("sym_c needs ints and Fractions")
    if len(set(u)) != n:
        raise ZeroDivisionError("sym_c needs pairwise distinct points")
    before, at, after = slots
    pair, same = integer_pair_tables(u, (1, c, 1))
    divisor = prod(map(prod, same))
    size = 1 << n
    lead, done = [0] * size, [0] * size
    lead[0] = 1
    # carried[S][k] = prod_{j in S} R[j][k] for each k outside S
    carried = [[1] * n] + [None] * (size - 1)
    for s in range(size - 1):
        if s:
            low = s & -s
            prev, row = carried[s ^ low], pair[low.bit_length() - 1]
            carried[s] = [None if s >> k & 1 else prev[k] * row[k] for k in range(n)]
        x, y = lead[s], done[s]
        if not (x or y):
            continue
        i, pr = s.bit_count(), carried[s]
        hb, ha, hf = before[i], at[i], after[i]
        for k in range(n):
            if s >> k & 1:
                continue
            if x and hb[k]:
                lead[s | 1 << k] += x * hb[k] * pr[k]
            z = x * ha[k] + y * hf[k]
            if z:
                done[s | 1 << k] += z * pr[k]
    return Fraction(done[-1], divisor)


def _size(point):
    """n for a point with len(u) == len(v) = n >= 1 and z == 1 (``ValueError``
    otherwise)."""
    n = len(point.u)
    if len(point.v) != n or not n or point.z != 1:
        raise ValueError("needs len(u) == len(v) >= 1 and z == 1")
    return n


def _int_form(point):
    """The ``sources.IntForm`` (a, b, L, sigma) of the rational ``point``;
    ``TypeError`` at a point with a complex or float value."""
    form = int_form(point)
    if form is None:
        raise TypeError("a symmetrization side needs ints and Fractions")
    return form


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


def _chain_from_row(values, scale, a, lcm):
    """f[u_1, ..., u_n] from the row f(a_j / L) = values[j] / M (``_poly_row``).

    f[u] = sum_j f(u_j) / prod_{k != j} (u_j - u_k), and with u = a / L and
    V = ``linalg.vandermonde``, prod_{k != j} (a_j - a_k) is
    (-1)^(n-1-j) V(a) / V(a without a_j), so the chain is the one Fraction
    L^(n-1) sum_j (-1)^(n-1-j) values_j V(a without a_j) / (M V(a)).
    """
    n = len(a)
    total = sum((-1) ** (n - 1 - j) * x * vandermonde(a[:j] + a[j + 1:])
                for j, x in enumerate(values))
    return Fraction(lcm ** (n - 1) * total, scale * vandermonde(a))


def _binomial_rows(row, r):
    """The at rows (-1)^t C(r, t) row, t = 0..n-1: (1 - shift)^r expanded
    binomially, shift^t putting the switch slot at 0-based position t."""
    return [[(-1) ** t * math.comb(r, t) * x for x in row] for t in range(len(row))]


def _theta_sum(head, a, b, g):
    """Sym_c((1 - theta)^{n-1} head(u_1) prod_{j>=2} prod_k (u_j - v_k)) at the
    int point (a, b, g), head given as its row at a.

    theta renames u_k to u_{k+1} with u_{k+n} = u_k + c, so theta^t puts
    head in slot t+1, keeps the factors of slots t+2..n at prod_k (x - b_k),
    and makes those that wrap round into slots 1..t prod_k (x - b_k + g):
    the rows (shifted, (-1)^t C(n-1, t) head, plain) of one sym_c walk.
    Both root rows are L^n times their values at (u, v, c), so the sum is
    L^{n(n-1)} times its value there (head as given).
    """
    n = len(a)
    rows = ([_root_row(a, b, g)] * n, _binomial_rows(head, n - 1), [_root_row(a, b, 0)] * n)
    return sym_c(rows, a, g)


def lascoux_symmetrized_sides(point, coeffs):
    """(lhs, rhs, form): both sides of the symmetrization identity for a
    polynomial f at the rational point ``point`` (z = 1), and the rhs without
    its factor d_{n-1} ... d_1 f(u_1), which ``lascoux_rhs_via_source``
    routes through the cleared source polynomial.

    lhs = Sym_c( (1-theta)^{n-1} prod_{j=2}^n prod_k (u_j - v_k) f(u_1) ),
    the power expanded binomially into theta shifts.

    rhs = form * d_{n-1} ... d_1 f(u_1),
    form = (n-1)! (-c)^{n-1}
           * prod_{i,k} (v_i - u_k)(v_i - u_k - c)
             / ( prod_{i<j} (v_j - v_i) prod_{i<j} (u_i - u_j) )
           * det 1/((v_j - u_k)(v_j - u_k - c))

    The form is (n-1)! (-c)^{n-1} times ``detreps.izergin_korepin_core``,
    which stays defined at c = 0.  The chain is read off the lhs's int row
    of f (``_chain_from_row``); it equals ``newton_chain(coeffs, u)``, the
    generic table that the tests check it against.

    The lhs is summed at the point's int form (a, b, g) = L (u, v, c) of
    ``sources.int_form``: Sym_c is unchanged when u and c are scaled
    together, each root slot is L^n times its value at (u, v, c) and f is
    values / M (``_poly_row``), so the sum is divided by M L^{n(n-1)} once.
    """
    n = _size(point)
    a, b, lcm, (_, g, _) = _int_form(point)
    values, scale = _poly_row(coeffs, a, lcm)
    lhs = _theta_sum(values, a, b, g) / (scale * lcm ** (n * (n - 1)))

    form = izergin_korepin_core(point, math.factorial(n - 1) * (-point.c) ** (n - 1))
    return lhs, form * _chain_from_row(values, scale, a, lcm), form


def lascoux_rhs_via_source(point):
    """The form of ``lascoux_symmetrized_sides`` routed through the cleared
    source polynomial at z = 1: (n-1)!/(-c) * P_{n,n}^{(z=1)}(u | v)."""
    n = _size(point)
    return math.factorial(n - 1) / (-point.c) * rational_P(point)


def lascoux_tau_sides(point):
    """(lhs, rhs, via_source): both sides of the tau-shift symmetrization
    identity at the rational point ``point`` (z = 1), and the rhs routed
    through the cleared source polynomial (``lascoux_tau_rhs_via_source``).

    tau^t of the double product prod_{j=1}^n prod_k (u_j - v_k - c)/(u_j - v_k)
    is the tail prod_{j=t+1}^n prod_k (u_j - v_k - c)/(u_j - v_k), so

    lhs = Sym_c( sum_{t=0}^n (-1)^t C(n, t) * tail_t )
    rhs = n! (-1)^n IK(u, v + c, c) / prod_{i,k} (v_i - u_k)
        = n! c^n prod_{i,k} (v_i - u_k + c)
          / ( prod_{i<j} (v_j - v_i) prod_{i<j} (u_i - u_j) )
          * det 1/((v_j - u_k + c)(v_j - u_k))

    The lhs is summed at the point's int form (a, b, g) of
    ``sources.int_form``.  The product W = prod_{j,k} (a_j - b_k) is
    symmetric in the points, so Sym_c(W tail_t) = W Sym_c(tail_t): times W,
    slots 1..t hold prod_k (x - b_k) and slots t+1..n the numerators
    prod_k (x - b_k - g), all ints.  The terms t < n are the rows (den,
    (-1)^t C(n, t) num, num) of one sym_c walk, divided by W once.  The term
    t = n is W Sym_c(1) = n! W, so it adds (-1)^n n! with no walk.  The rhs
    divides by prod_{i,k} (v_i - u_k) = (-1)^(n^2) W / L^(n^2), whose sign
    cancels its (-1)^n.  The rhs and via_source read one shifted point
    (``_tau_rhs_point``).
    """
    n = _size(point)
    a, b, _, (_, g, _) = _int_form(point)
    den, num = _root_row(a, b, 0), _root_row(a, b, -g)
    walk = sym_c(([den] * n, _binomial_rows(num, n), [num] * n), a, g)
    lhs = walk / prod(den) + (-1) ** n * math.factorial(n)

    shifted, scale = _tau_rhs_point(point)
    return lhs, izergin_korepin(shifted) * scale, rational_P(shifted) * scale


def _tau_rhs_point(point):
    """(shifted, scale): the point (u, v + c) that the tau rhs reads, and
    n! / prod (u_j - v_k), prod (u_j - v_k) being W / L^(n^2) at the int form."""
    n = _size(point)
    a, b, lcm, _ = _int_form(point)
    shifted = replace(point, v=tuple(x + point.c for x in point.v))
    return shifted, Fraction(math.factorial(n) * lcm ** (n * n), prod(_root_row(a, b, 0)))


def lascoux_tau_rhs_via_source(point):
    """tau-identity rhs as n! / prod (u_j - v_k) * P_{n,n}^{(z=1)}(u | v + c),
    the third value of ``lascoux_tau_sides``."""
    shifted, scale = _tau_rhs_point(point)
    return rational_P(shifted) * scale


def reduction_identity_sides(point):
    """Both sides of the f(u_1)-coefficient identity behind the theta formula
    at the rational point ``point`` (z = 1).

    lhs = sum_{ell=1}^n (-1)^{ell-1} C(n-1, ell-1)
            sum_{w in S_n, w(1)=1} w . ( Delta(ell,2,..,ell-1,1,ell+1,..,n)
                prod_{j=ell+1}^n prod_k (u_j - v_k)
                prod_{j=2}^{ell} prod_k (u_j - v_k + c) )
    rhs = (n-1)! / ( -c prod_{j>=2} (u_1 - u_j) ) * P_{n,n}^{(z=1)}(u | v)

    In the slot order of its Delta the inner sum is the theta slot product
    of lascoux_symmetrized_sides with f replaced by the indicator of u_1, so
    slot ell pins u_1 and Sym_c runs over the orderings of the rest.  As
    there, the lhs is summed at the point's int form of
    ``sources.int_form`` and divided by L^{n(n-1)} once; the rhs divides by
    -c prod_{j>=2} (u_1 - u_j) = -g prod_{j>=2} (a_1 - a_j) / L^n.
    """
    n = _size(point)
    a, b, lcm, (_, g, _) = _int_form(point)
    pin = [1] + [0] * (n - 1)
    lhs = _theta_sum(pin, a, b, g) / lcm ** (n * (n - 1))

    rhs = rational_P(point) * Fraction(math.factorial(n - 1) * lcm ** n,
                                       -g * prod(a[0] - x for x in a[1:]))
    return lhs, rhs
