"""Dense determinants plus the closed-form factorizations.

Matrices are plain row-major lists of lists.  ``det`` makes the one choice
of elimination, by the entries: ints and Fractions (an empty matrix
included) go through fraction-free Bareiss elimination over Python ints
(each row made ints by ``fields.to_integers``, every division exact, one
Fraction division by the row scales at the end), so rational input gives a
bit-exact rational determinant; every other value goes through LU with
partial pivoting by ``abs``, over the entries as given.  The LU asks its
entries for +, -, *, /, ``== 0`` and ``abs`` only, and makes its zero and
one from their own arithmetic, so complex doubles pivot by modulus and a
value of another field (Gaussian rationals, say) keeps its own arithmetic,
exact if that is.  A singular matrix returns 0 rather than
raising: the vanishing lemmas downstream rely on exact zero determinants
being legitimate values.

The closed forms implemented here:

* Cauchy determinant in theta form ("Frobenius determinant"):
      det[ theta(L u_i / v_j) / (theta(L) theta(u_i / v_j)) ]
        = theta(L prod u / prod v) prod_{i<j} u_j theta(u_i/u_j) v_j^{-1} theta(v_j/v_i)
          / ( theta(L) prod_{i,j} theta(u_i/v_j) )
* theta Vandermonde factorization:
      det[ psi_j(u_k; p, r) ] = (p;p)_inf^n / (p^n;p^n)_inf^n
          * theta(r prod u) * prod_{i<j} u_j theta(u_i/u_j)
* Cauchy-Vandermonde block determinant (n >= m):
      det X = prod_{i<j<=m} (v_j - v_i) prod_{i<j<=n} (u_i - u_j)
              / prod_{i<=m, k<=n} (v_i - u_k)
  with X stacking Cauchy rows 1/(v_i - u_j) over monomial rows u_j^{n-i}.

All three degenerate to exact rational statements at p = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .fields import is_exact, to_integers
# theta is bound here although every theta value arrives as a callable:
# perfbench/test_perfbench.py reads linalg.theta
from .qseries import psi_A, qpoch_inf, theta  # noqa: F401


def det(rows):
    """Determinant of a square list-of-lists matrix: ``det_exact`` over ints
    and Fractions (an empty matrix gives Fraction(1)), ``det_complex`` over
    any other entries."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if is_exact(x for r in rows for x in r):
        return det_exact(rows)
    return det_complex(rows)


def det_exact(rows) -> Fraction:
    """Bareiss elimination over Python ints; exact over the rationals.

    Each row is scaled to ints by ``fields.to_integers`` (a row of ints as
    it is) and divided by its content, the gcd of its entries, so the
    elimination works on the smallest int rows.  It divides exactly with
    ``//``, and the determinant is multiplied by the contents and divided by
    the row scales once, at the end.  A zero row gives 0 at once.
    """
    a = []
    scale = content = 1
    for r in rows:
        try:
            row_content = gcd(*r)
            ints, row_scale = list(r), 1
        except TypeError:  # a Fraction entry: scale the row first
            ints, row_scale = to_integers(r)
            row_content = gcd(*ints)
        if not row_content:
            return Fraction(0)
        if row_content != 1:
            ints = [x // row_content for x in ints]
        a.append(ints)
        scale *= row_scale
        content *= row_content
    n = len(a)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            sign = -sign
        row_c = a[col]
        pivot = row_c[col]
        for r in range(col + 1, n):
            row_r = a[r]
            lead = row_r[col]
            for c in range(col + 1, n):
                row_r[c] = (row_r[c] * pivot - lead * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot
    return Fraction(sign * content * a[n - 1][n - 1], scale)


def det_complex(rows):
    """LU with partial pivoting by ``abs``, over the entries as given (at
    least one): its zero is an entry minus itself and its one that zero plus
    1, so complex entries give a complex determinant and Fractions an exact
    one."""
    a = [list(r) for r in rows]
    n = len(a)
    zero = a[0][0] - a[0][0]
    acc = zero + 1
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return zero
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            acc = -acc
        pivot = a[col][col]
        acc *= pivot
        for r in range(col + 1, n):
            f = a[r][col] / pivot
            if f == 0:
                continue
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, n):
                row_r[c] -= f * row_c[c]
    return acc


def vandermonde(xs):
    """prod_{i < j} (x_j - x_i)."""
    return prod(xs[j] - xs[i] for i in range(len(xs)) for j in range(i + 1, len(xs)))


# ---------------------------------------------------------------------------
# Frobenius (theta-Cauchy) determinant
# ---------------------------------------------------------------------------


def frobenius_matrix(u, v, lam, th):
    """[theta(L u_i / v_j) / (theta(L) theta(u_i / v_j))], th(x) = theta(x; p)."""
    n = len(u)
    if len(v) != n:
        raise ValueError("frobenius_matrix needs len(u) == len(v)")
    th_lam = th(lam)
    return [[th(lam * u[i] / v[j]) / (th_lam * th(u[i] / v[j])) for j in range(n)]
            for i in range(n)]


def frobenius_closed(u, v, lam, th):
    """The factorized Frobenius determinant, th(x) = theta(x; p)."""
    n = len(u)
    if len(v) != n:
        raise ValueError("frobenius_closed needs len(u) == len(v)")
    num = th(lam * prod(u) / prod(v))
    for i in range(n):
        for j in range(i + 1, n):
            num *= u[j] * th(u[i] / u[j])
            num *= th(v[j] / v[i]) / v[j]
    den = th(lam)
    for ui in u:
        for vj in v:
            den *= th(ui / vj)
    return num / den


# ---------------------------------------------------------------------------
# theta Vandermonde factorization
# ---------------------------------------------------------------------------


def psi_vandermonde_matrix(u, p, r, th):
    """Matrix [psi_j(u_k)] with row index j, column index k, th(x) = theta(x; p^n)."""
    n = len(u)
    return [[psi_A(j, n, u[k], p, r, th) for k in range(n)] for j in range(1, n + 1)]


def elliptic_vandermonde_sides(u, p, r, th, th_n):
    """(lhs, rhs) of the theta Vandermonde factorization, th(x) = theta(x; p)
    and th_n(x) = theta(x; p^n), n = len(u), the psi rows' nome.

    At p = 0 the (p; p)_inf factor is 1 and the rhs is exact.
    """
    n = len(u)
    lhs = det(psi_vandermonde_matrix(u, p, r, th_n))
    rhs = 1 if p == 0 else (qpoch_inf(p, p) / qpoch_inf(p**n, p**n)) ** n
    rhs *= th(r * prod(u))
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= u[j] * th(u[i] / u[j])
    return lhs, rhs


# ---------------------------------------------------------------------------
# Cauchy-Vandermonde block determinant
# ---------------------------------------------------------------------------


def cauchy_vandermonde_matrix(u, v):
    """n x n block matrix: Cauchy rows 1/(v_i - u_j), then rows u_j^{n-i}."""
    n, m = len(u), len(v)
    if m > n:
        raise ValueError("cauchy_vandermonde_matrix needs len(u) >= len(v)")
    rows = [[1 / (v[i] - u[j]) for j in range(n)] for i in range(m)]
    rows += [[u[j] ** (n - i) for j in range(n)] for i in range(m + 1, n + 1)]
    return rows


def cauchy_vandermonde_closed(u, v):
    n, m = len(u), len(v)
    if m > n:
        raise ValueError("cauchy_vandermonde_closed needs len(u) >= len(v)")
    # prod_{i<j} (u_i - u_j) is vandermonde(u) times n(n-1)/2 signs
    num = vandermonde(v) * vandermonde(u)
    if n * (n - 1) // 2 % 2:
        num = -num
    return num / prod(vi - uk for vi in v for uk in u)
