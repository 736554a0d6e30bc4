"""Scalar special-function kernel: q-products, theta, q-binomials.

Conventions used throughout the library:

    (u; q)_inf = prod_{j>=0} (1 - u q^j)                       (|q| < 1)

    (u; q)_n   = prod_{j=0}^{n-1} (1 - u q^j)                  (n > 0)
               = 1                                             (n = 0)
               = 1 / prod_{j=1}^{-n} (1 - u q^{-j})            (n < 0)

    theta(u; p) = (u; p)_inf * (p/u; p)_inf ,  theta(u; 0) = 1 - u

    [n]_q = 1 + q + ... + q^{n-1}      (q-integer; equals n at q = 1)

    (n)_s = (s^n - s^{-n}) / (s - s^{-1})   symmetric q-number, s = t^{1/2}

    psi_j(u; p, r | rank n) = u^{j-1} * theta(p^{j-1} (-1)^{n-1} r u^n; p^n)

The infinite products are truncated with a geometric tail bound: with
target epsilon = 1e-14 and ratio |q|, N = ceil(log eps / log |q|) + 8 guard
terms, and |q| <= 0.9 is enforced as a hard limit, so N runs from 9 to 314
(1 at q = 0).
``theta`` stays exact (both fields) when p = 0; at p != 0 it is
complex-only.  The truncation is this module's alone: ``theta`` and
``qpoch_inf`` truncate at ``DEFAULT_TRUNCATION`` and take no other, and
``psi_A`` reads its theta values from a callable its caller passes, a
memo over ``theta``.

At p != 0, ``theta`` sums the Jacobi triple product (Gasper & Rahman,
*Basic Hypergeometric Series*, 2nd ed., section 1.6)

    theta(u; p) (p; p)_inf = sum_{k in Z} (-1)^k p^{k(k-1)/2} u^k ,

whose terms shrink like |p|^{k^2/2}, so a few terms on each side of k = 0
replace two products of N factors.  At u = 1 and u = p, where the product
form is exactly 0, it returns 0.  The sum stops by the rule in the
``theta`` docstring, and where its terms cancel by more than a factor of
64 (near a zero of theta) ``theta`` takes the product form instead.
(p; p)_inf is ``qpoch_inf(p, p)``.

``qpoch_inf`` keeps (q; q)_inf, its value at u = q, for each nome it is
asked that of, so ``theta`` multiplies one such product per nome; every
other call runs the product loop.  The kept values are bounded: they are
emptied when they reach ``_QQ_INF_MAX`` nomes, and a nome with a zero part
is never kept.  They hold (q; q)_inf only, never values of theta.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import ExactFieldUnavailableError

_Q_ABS_LIMIT = 0.9


class TruncationError(ValueError):
    """Ratio outside the convergence budget of the truncated products."""


_EPSILON = 1e-14
_GUARD_TERMS = 8


class Truncation:
    """Truncation of the infinite q-products (module docstring)."""

    def num_terms(self, ratio_abs: float) -> int:
        if ratio_abs > _Q_ABS_LIMIT:
            raise TruncationError(f"|q| = {ratio_abs:.4g} exceeds the {_Q_ABS_LIMIT} limit")
        if ratio_abs == 0.0:
            return 1
        return math.ceil(math.log(_EPSILON) / math.log(ratio_abs)) + _GUARD_TERMS


DEFAULT_TRUNCATION = Truncation()


_QQ_INF: dict = {}  # q -> (q; q)_inf
_QQ_INF_MAX = 32
_INEXACT = (complex, float, int)


def _reject_exact(*values):
    for x in values:
        # the exact-type test skips the slower isinstance check of the common
        # case; a subclass of Fraction still reaches that check
        if type(x) in _INEXACT:
            continue
        if isinstance(x, Fraction):
            raise ExactFieldUnavailableError(
                "truncated infinite products are complex-only; got a Fraction"
            )


def qpoch_inf(u, q):
    """Truncated (u; q)_inf over the complex field, |q| <= 0.9."""
    _reject_exact(u, q)
    u, q = complex(u), complex(q)
    # a kept q has no zero part, so u == q means u is q to the bit
    if u == q and q in _QQ_INF:
        return _QQ_INF[q]
    acc = power = 1 + 0j
    for _ in range(DEFAULT_TRUNCATION.num_terms(abs(q))):
        acc *= 1 - u * power
        power *= q
    # q = x + 0j and x - 0j compare equal but may give products whose zero
    # parts differ in sign, so only a q with no zero part is kept
    if u == q and q.real and q.imag:
        if len(_QQ_INF) >= _QQ_INF_MAX:
            _QQ_INF.clear()
        _QQ_INF[q] = acc
    return acc


def qpoch_n(u, q, n: int):
    """Finite (u; q)_n with the piecewise extension to negative n.

    Works over both fields; q must be nonzero.  A vanishing factor in the
    negative-n branch raises ``ZeroDivisionError``.
    """
    if q == 0:
        raise ValueError("qpoch_n requires q != 0")
    one = u - u + 1
    acc = one
    if n >= 0:
        power = one
        for _ in range(n):
            acc *= 1 - u * power
            power *= q
        return acc
    qinv = one / q
    power = one
    for _ in range(-n):
        power *= qinv
        factor = 1 - u * power
        if factor == 0:
            raise ZeroDivisionError("vanishing factor in (u; q)_n for n < 0")
        acc *= factor
    return one / acc


_SUM_EPSILON = 2.0**-53  # unit roundoff of a double
_CANCELLATION_MAX = 64  # the largest sum of |terms| / |sum| the triple product is used at


def _theta_side(a: complex, p: complex, p_abs: float) -> tuple:
    """(S(a), sum of |t_k|) for S(a) = sum_{k>=1} t_k, t_k = prod_{j<k} (-a p^j):
    the k >= 1 half of the triple product at a = u, its k <= -1 half at a = p/u
    (``theta`` docstring).  |t_k| is carried in floats."""
    total = 0j
    term = 1 + 0j
    step = -a
    size = 1.0  # |term|
    largest = 1.0  # the largest |term| so far, the k = 0 term included
    mass = 0.0  # the sum of |term| over k >= 1
    ratio = abs(a)  # |step| = |t_{k+1} / t_k|
    # an overflowed term stops the walk too: inf > 2^-53 * inf is false
    while size > _SUM_EPSILON * largest:
        term *= step
        total += term
        size *= ratio
        mass += size
        if size > largest:
            largest = size
        ratio *= p_abs
        step *= p
    return total, mass


def theta(u, p):
    """Odd theta function theta(u; p) = (u; p)_inf (p/u; p)_inf.

    At p = 0 this is exactly 1 - u and is evaluated exactly over either
    field.  At p != 0 it is complex-only: 0 at u = 1 and u = p, where the
    product form is exactly 0, and elsewhere the triple product

        theta(u; p) = (1 + S(u) + S(p/u)) / (p; p)_inf ,
        S(a) = sum_{k>=1} t_k ,  t_k = prod_{j<k} (-a p^j) ,

    with (p; p)_inf from ``qpoch_inf(p, p)``, which also raises
    ``TruncationError`` above |p| = 0.9.  S(u) holds the terms k >= 1 of
    the sum over Z and S(p/u) the terms k <= -1.

    Stop rule: |t_{k+1} / t_k| = r_k = |a| |p|^k only falls with k.  Each S
    stops after the first t_k with |t_k| <= 2^-53 M, M the largest |t_j| of
    that side (t_0 = 1 included).  Then r_k <= 1/2: the |t_j| fell from M
    to |t_k|, each r_j on the way is at most 1 and r_k times |p|^-1 per
    step back, so with |p| <= 0.9 at most six of them exceed 1/2, and six
    factors above 1/2 cannot shrink M by 2^-53.  So the terms left out sum
    to at most |t_k| (r_k + r_k^2 + ...) <= |t_k| <= 2^-53 M, below one
    rounding of the largest term added.

    Cancellation: the sum's rounding error is a few units of 2^-53 times
    the sum of |t_k| over every term added, so its relative error is that
    many units times kappa = (sum of |t_k|) / |1 + S(u) + S(p/u)|.  kappa is
    large near a zero of theta, and where (p; p)_inf is small at |p| near
    0.9.  Where kappa > 64, theta returns the product form
    ``qpoch_inf(u, p) * qpoch_inf(p / u, p)`` instead.
    """
    if u == 0:
        raise ValueError("theta requires u != 0")
    if p == 0:
        return 1 - u
    _reject_exact(u, p)
    u, p = complex(u), complex(p)
    norm = qpoch_inf(p, p)
    if u == 1 or u == p:
        return 0j
    p_abs = abs(p)
    w = p / u
    above, above_mass = _theta_side(u, p, p_abs)
    below, below_mass = _theta_side(w, p, p_abs)
    total = 1 + above + below
    if abs(total) * _CANCELLATION_MAX < 1 + above_mass + below_mass:
        return qpoch_inf(u, p) * qpoch_inf(w, p)
    return total / norm


def _q_ints(n: int, q):
    """[[0]_q, [1]_q, ..., [n]_q], each entry the one before it plus the next
    power of q: one left fold serves every q-integer up to n."""
    one = q - q + 1
    out, power = [one - one], one
    for _ in range(n):
        out.append(out[-1] + power)
        power *= q
    return out


def q_int(k: int, q):
    """q-integer [k]_q = 1 + q + ... + q^{k-1}, exact at q = 1."""
    if k < 0:
        raise ValueError("q_int requires k >= 0")
    return _q_ints(k, q)[k]


def q_factorial(k: int, q):
    """[k]_q! = [1]_q [2]_q ... [k]_q, multiplied left to right."""
    acc = q - q + 1
    for x in _q_ints(k, q)[1:]:
        acc *= x
    return acc


def q_binomial(n: int, l: int, q):
    """Gaussian binomial [n choose l]_q as a ratio of q-integer products.

    Exact over the rationals.  l outside [0, n] is rejected; callers that
    want the zero convention must guard themselves.
    """
    if l < 0 or l > n:
        raise ValueError(f"q_binomial needs 0 <= l <= n, got n={n}, l={l}")
    ints = _q_ints(n, q)
    acc = q - q + 1
    for j in range(1, l + 1):
        acc = acc * ints[n - l + j] / ints[j]
    return acc


def sym_q_number(n: int, s):
    """Symmetric q-number (n)_t = (s^n - s^{-n}) / (s - s^{-1}), s = t^{1/2}.

    Defined for any integer n; (-n)_t = -(n)_t falls out of the formula.
    """
    if s == 0 or s == 1 or s == -1:
        raise ValueError("sym_q_number requires s not in {0, 1, -1}")
    return (s**n - s**(-n)) / (s - 1 / s)


def sym_q_factorial(n: int, s):
    """(n)_t! = prod_{j=1}^n (j)_t for n >= 0."""
    if n < 0:
        raise ValueError("sym_q_factorial requires n >= 0")
    one = s - s + 1
    acc = one
    for j in range(1, n + 1):
        acc *= sym_q_number(j, s)
    return acc


def psi_A(j: int, n: int, u, p, r, th):
    """Row function psi_j(u; p, r) of the rank-(n-1) theta Vandermonde basis.

    psi_j(u; p, r) = u^{j-1} theta(p^{j-1} (-1)^{n-1} r u^n; p^n) for
    1 <= j <= n, with th(x) = theta(x; p^n): the caller's memo at that nome
    (``sources.theta_memo``), so the rows of one point share their theta
    values.  At p = 0 the piecewise form is used, stays exact and calls no
    th: 1 - (-1)^{n-1} r u^n for j = 1, u^{j-1} otherwise.
    """
    if not 1 <= j <= n:
        raise ValueError(f"psi_A needs 1 <= j <= n, got j={j}, n={n}")
    sign = 1 if (n - 1) % 2 == 0 else -1
    if p == 0:
        if j == 1:
            return 1 - sign * r * u**n
        return u ** (j - 1)
    return u ** (j - 1) * th(p ** (j - 1) * sign * r * u**n)
