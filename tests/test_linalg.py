"""Determinants and closed-form factorizations."""

import cmath
import math
import random
from fractions import Fraction
from itertools import permutations

from srcid.linalg import (
    cauchy_vandermonde_closed,
    cauchy_vandermonde_matrix,
    det,
    det_complex,
    det_exact,
    elliptic_vandermonde_sides,
    frobenius_closed,
    frobenius_matrix,
)
from srcid.sources import theta_memo


def rand_complex(rng, lo=0.4, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def rand_fraction(rng, nonzero=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if not nonzero or x != 0:
            return x


def distinct_fractions(rng, count):
    out = []
    while len(out) < count:
        x = rand_fraction(rng)
        if x not in out:
            out.append(x)
    return tuple(out)


def cofactor_det(rows):
    """Naive cofactor expansion, the independent oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_det_identity_and_2x2():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert det(eye) == 1
    assert det([[1, 2], [3, 4]]) == -2
    assert det([]) == 1


def test_det_chooses_bareiss_for_ints_and_fractions_and_the_lu_otherwise():
    # the empty matrix too: an exact value stays a Fraction at size 0
    for rows in ([], [[3]], [[1, 2], [3, 4]], [[Fraction(1, 2), 2], [3, 4]]):
        assert type(det(rows)) is Fraction
    assert det([[1j, 2], [3, 4]]) == 4j - 6 and type(det([[1j, 2], [3, 4]])) is complex
    assert type(det([[0j, 0], [3, 4]])) is complex


def test_det_complex_takes_its_entries_as_given():
    # over Fractions the LU is exact: no entry is converted to a double
    rng = random.Random(19)
    for size in range(1, 6):
        rows = [[rand_fraction(rng, nonzero=False) for _ in range(size)] for _ in range(size)]
        value = det_complex(rows)
        assert type(value) is Fraction and value == det_exact(rows) == cofactor_det(rows)
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert type(det_complex(singular)) is Fraction and det_complex(singular) == 0


def test_det_exact_matches_cofactor_oracle():
    rng = random.Random(23)
    rows = [[rand_fraction(rng, nonzero=False) for _ in range(5)] for _ in range(5)]
    assert det_exact(rows) == cofactor_det(rows)


def test_det_singular_returns_zero():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det(rows) == 0
    assert det_complex([[1.0, 2.0], [2.0, 4.0]]) == 0


def test_det_multiplicative_exact():
    rng = random.Random(29)
    for _ in range(100):
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        b = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)
        ]
        assert det_exact(ab) == det_exact(a) * det_exact(b)


def assert_det_exact_matches_cofactor(rows):
    before = [list(r) for r in rows]
    value = det_exact(rows)
    assert type(value) is Fraction
    assert value == cofactor_det(rows), rows
    assert [list(r) for r in rows] == before  # the input is not touched
    if all(type(x) is int for r in rows for x in r):
        assert value.denominator == 1  # detreps reads .numerator of int matrices
    return value


def test_det_exact_rows_with_different_denominators():
    F = Fraction
    rows = [[F(1, 2), F(1, 3), F(-5, 6)], [F(2, 7), F(3), F(1, 14)], [F(9, 5), F(-4, 15), F(1)]]
    assert assert_det_exact_matches_cofactor(rows) != 0
    rng = random.Random(37)
    for size in range(1, 7):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(size)]
                for _ in range(size)]
        assert_det_exact_matches_cofactor(rows)


def test_det_exact_swaps_past_a_zero_pivot():
    F = Fraction
    rows = [[F(0), F(2, 3), F(1)], [F(0), F(1, 5), F(-2)], [F(3, 4), F(1), F(7, 2)]]
    assert assert_det_exact_matches_cofactor(rows) != 0
    # a zero pivot in a later column too, after the first elimination step
    rows = [[F(1), F(2), F(3), F(1, 2)], [F(2), F(4), F(1), F(1, 3)],
            [F(1, 2), F(1), F(5), F(1)], [F(3), F(1), F(0), F(2)]]
    assert assert_det_exact_matches_cofactor(rows) != 0


def test_det_exact_singular_is_fraction_zero():
    F = Fraction
    singular = [
        [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]],  # proportional rows
        [[F(0), F(1, 7), F(2)], [F(0), F(3), F(-1, 2)], [F(0), F(5, 3), F(4)]],  # zero column
        [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]],  # zero last pivot
    ]
    for rows in singular:
        value = assert_det_exact_matches_cofactor(rows)
        assert value == 0 and value == Fraction(0)


def test_det_exact_takes_an_int_matrix():
    # the mixing matrices of the sampler are tuples of int tuples
    rng = random.Random(41)
    for size in range(1, 7):
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(size)) for _ in range(size))
        assert_det_exact_matches_cofactor(rows)


def test_det_exact_sizes_zero_to_eight():
    rng = random.Random(43)
    assert assert_det_exact_matches_cofactor([]) == 1
    for size in range(1, 9):
        rows = [[rand_fraction(rng, nonzero=False) for _ in range(size)] for _ in range(size)]
        assert_det_exact_matches_cofactor(rows)


def test_det_exact_int_rows_with_large_contents():
    # each int row carries a large common factor (its content), which
    # det_exact divides out before the elimination and multiplies back after
    rng = random.Random(47)
    factors = (10**30 + 7, 2**61 - 1, 3**40, 12 * 10**18)
    for size in range(1, 7):
        for trial in range(4):
            rows = [[rng.randint(-9, 9) * rng.choice(factors) for _ in range(size)]
                    for _ in range(size)]
            # one row with a negative content: every entry negative
            rows[rng.randrange(size)] = [-rng.randint(1, 9) * factors[0] for _ in range(size)]
            if trial == 1 and size > 1:  # a Fraction row among the int rows
                rows[0] = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * factors[1]
                           for _ in range(size)]
            if trial == 2:  # a zero row
                rows[rng.randrange(size)] = [0] * size
            value = assert_det_exact_matches_cofactor(rows)
            if trial == 2:
                assert value == 0
    # a row of ints of content 1 next to rows of large contents
    rows = [[3 * 10**25, 6 * 10**25, -9 * 10**25], [2, 3, 5], [-(7 * 2**70), 0, 14 * 2**70]]
    assert assert_det_exact_matches_cofactor(rows) != 0


def test_det_complex_accuracy():
    rng = random.Random(31)
    rows = [[rand_complex(rng) for _ in range(5)] for _ in range(5)]
    oracle = cofactor_det(rows)
    assert abs(det(rows) - oracle) <= 1e-11 * max(1.0, abs(oracle))


# ---------------------------------------------------------------------------
# Frobenius factorization
# ---------------------------------------------------------------------------


def test_frobenius_1x1():
    rng = random.Random(37)
    u, v, lam = (rand_complex(rng) for _ in range(3))
    p = 0.3 * cmath.exp(0.4j)
    th = theta_memo(p)
    matrix = frobenius_matrix((u,), (v,), lam, th)
    assert abs(matrix[0][0] - frobenius_closed((u,), (v,), lam, th)) < 1e-12 * abs(
        matrix[0][0]
    )


def test_frobenius_flat_nome_exact():
    rng = random.Random(41)
    for n in (1, 2, 3):
        while True:
            u = distinct_fractions(rng, n)
            v = distinct_fractions(rng, n)
            lam = rand_fraction(rng)
            if lam == 1:
                continue
            if any(ui == vj for ui in u for vj in v):
                continue
            if any(lam * ui == vj for ui in u for vj in v):
                continue
            break
        th = theta_memo(Fraction(0))
        assert det(frobenius_matrix(u, v, lam, th)) == frobenius_closed(u, v, lam, th)


def test_frobenius_matches_determinant():
    rng = random.Random(43)
    th = theta_memo(0.3 * cmath.exp(1.1j))
    for n in (2, 4):
        u = tuple(rand_complex(rng) for _ in range(n))
        v = tuple(rand_complex(rng) for _ in range(n))
        lam = rand_complex(rng)
        lhs = det(frobenius_matrix(u, v, lam, th))
        rhs = frobenius_closed(u, v, lam, th)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_frobenius_permutation_signs():
    # simultaneous row/column permutations flip det and closed form alike
    rng = random.Random(47)
    n = 3
    u = tuple(rand_complex(rng) for _ in range(n))
    v = tuple(rand_complex(rng) for _ in range(n))
    lam = rand_complex(rng)
    th = theta_memo(0.25 * cmath.exp(0.9j))
    base_det = det(frobenius_matrix(u, v, lam, th))
    base_closed = frobenius_closed(u, v, lam, th)
    for sigma in permutations(range(n)):
        sign_sigma = perm_sign(sigma)
        for tau in permutations(range(n)):
            sign = sign_sigma * perm_sign(tau)
            pu = tuple(u[i] for i in sigma)
            pv = tuple(v[i] for i in tau)
            d = det(frobenius_matrix(pu, pv, lam, th))
            c = frobenius_closed(pu, pv, lam, th)
            assert abs(d - sign * base_det) <= 1e-9 * max(1.0, abs(base_det))
            assert abs(c - sign * base_closed) <= 1e-9 * max(1.0, abs(base_closed))


def perm_sign(perm):
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# theta Vandermonde factorization
# ---------------------------------------------------------------------------


def test_theta_vandermonde_n1():
    rng = random.Random(53)
    u = (rand_complex(rng),)
    p = 0.2 * cmath.exp(0.3j)
    lhs, rhs = elliptic_vandermonde_sides(u, p, rand_complex(rng), theta_memo(p), theta_memo(p))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_theta_vandermonde_flat_nome_exact():
    rng = random.Random(59)
    u = distinct_fractions(rng, 3)
    r = rand_fraction(rng)
    th = theta_memo(Fraction(0))
    lhs, rhs = elliptic_vandermonde_sides(u, Fraction(0), r, th, th)
    assert lhs == rhs
    expected = (1 - r * u[0] * u[1] * u[2])
    for i in range(3):
        for j in range(i + 1, 3):
            expected *= u[j] - u[i]
    assert rhs == expected


def test_theta_vandermonde_sweep():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = tuple(rand_complex(rng) for _ in range(n))
        p = rng.uniform(0.1, 0.45) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        r = rand_complex(rng)
        lhs, rhs = elliptic_vandermonde_sides(u, p, r, theta_memo(p), theta_memo(p**n))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Cauchy-Vandermonde blocks
# ---------------------------------------------------------------------------


def test_cauchy_vandermonde_1x1():
    u, v = (Fraction(2),), (Fraction(5),)
    assert det(cauchy_vandermonde_matrix(u, v)) == Fraction(1, 3)
    assert cauchy_vandermonde_closed(u, v) == Fraction(1, 3)


def test_cauchy_vandermonde_pure_vandermonde():
    u = (Fraction(3), Fraction(7))
    matrix = cauchy_vandermonde_matrix(u, ())
    assert matrix == [[3, 7], [1, 1]]
    assert det(matrix) == -4
    assert cauchy_vandermonde_closed(u, ()) == -4


def test_cauchy_vandermonde_exact_oracle():
    rng = random.Random(67)
    while True:
        u = distinct_fractions(rng, 4)
        v = distinct_fractions(rng, 2)
        if not any(ui == vj for ui in u for vj in v):
            break
    assert det(cauchy_vandermonde_matrix(u, v)) == cauchy_vandermonde_closed(u, v)
