"""Scalar kernel tests: q-products, theta, q-binomials, symmetric q-numbers."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from srcid.fields import ExactFieldUnavailableError
from srcid.qseries import (
    DEFAULT_TRUNCATION,
    TruncationError,
    psi_A,
    q_binomial,
    q_factorial,
    q_int,
    qpoch_inf,
    qpoch_n,
    sym_q_factorial,
    sym_q_number,
    theta,
)


def rand_complex(rng, lo=0.2, hi=3.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


# ---------------------------------------------------------------------------
# truncated products
# ---------------------------------------------------------------------------


def test_qpoch_inf_zero_argument():
    assert qpoch_inf(0.0, 0.5) == 1.0


def test_qpoch_inf_against_long_product():
    # independent oracle: direct 200-term product
    u, q = 0.5, 0.5
    oracle = 1.0
    for j in range(200):
        oracle *= 1 - u * q**j
    val = qpoch_inf(u, q)
    assert abs(val - oracle) <= 1e-13 * abs(oracle)


def test_qpoch_inf_splitting_identity():
    # (u;q)_inf = (u;q)_50 * (u q^50; q)_inf
    u = q = 0.5
    left = qpoch_inf(u, q)
    right = qpoch_n(u, q, 50) * qpoch_inf(u * q**50, q)
    assert abs(left - right) <= 1e-12 * abs(left)


def test_qpoch_inf_rejects_large_ratio():
    with pytest.raises(TruncationError):
        qpoch_inf(0.3, 0.95)


def test_qpoch_inf_rejects_exact_field():
    with pytest.raises(ExactFieldUnavailableError):
        qpoch_inf(Fraction(1, 2), Fraction(1, 2))


def test_qpoch_n_piecewise():
    assert qpoch_n(Fraction(7, 3), Fraction(5, 2), 0) == 1
    # single negative factor: 1/(1 - z/2) at z = 1 gives 2
    assert qpoch_n(Fraction(1), Fraction(2), -1) == 2
    assert qpoch_n(3, 2, 2) == (1 - 3) * (1 - 6)


def test_qpoch_n_negative_pole():
    with pytest.raises(ZeroDivisionError):
        qpoch_n(Fraction(2), Fraction(2), -1)  # 1 - 2/2 = 0


def test_qpoch_n_splits_qpoch_inf_for_all_n():
    rng = random.Random(11)
    for _ in range(40):
        q = rand_complex(rng, 0.2, 0.8)
        u = rand_complex(rng, 0.2, 2.0)
        for n in range(-5, 6):
            left = qpoch_n(u, q, n) * qpoch_inf(u * q**n, q)
            right = qpoch_inf(u, q)
            assert abs(left - right) <= 1e-11 * max(1.0, abs(right))


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_flat_nome_exact():
    assert theta(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
    assert theta(0.5, 0.0) == 0.5


def test_theta_vanishes_at_one():
    assert theta(1.0, 0.3) == 0.0


def test_theta_rejects_zero_argument():
    with pytest.raises(ValueError):
        theta(0.0, 0.3)


def test_theta_quasi_periodicity_example():
    u, p = 2.0, 0.3
    lhs = theta(p * u, p)
    rhs = -theta(u, p) / u
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_theta_quasi_periodicity_sweep():
    # u * theta(p u; p) + theta(u; p) = 0 on 100 seeded draws
    rng = random.Random(7)
    for _ in range(100):
        u = rand_complex(rng, 0.2, 3.0)
        p = rand_complex(rng, 0.05, 0.5)
        resid = abs(u * theta(p * u, p) + theta(u, p))
        assert resid <= 1e-11 * (1 + abs(theta(u, p)))


def _qpoch_inf_loop(u, q):
    """(u; q)_inf with the powers of q built inside the product loop."""
    u, q = complex(u), complex(q)
    acc = power = 1 + 0j
    for _ in range(DEFAULT_TRUNCATION.num_terms(abs(q))):
        acc *= 1 - u * power
        power *= q
    return acc


def _product_nomes(rng):
    # more nomes than qpoch_inf keeps (q; q)_inf of, each used twice, plus
    # real and imaginary nomes, whose (q; q)_inf is never kept
    nomes = [rand_complex(rng, 0.05, 0.9) for _ in range(80)]
    return nomes + [0.4 + 0j, 0.4 - 0j, -0.6 + 0j, -0.6 - 0j, 0.5j, -0.5j, 0.9 + 0j]


def test_qpoch_inf_is_bit_identical_to_the_product_loop():
    rng = random.Random(23)
    for p in _product_nomes(rng):
        for _ in range(2):
            u = rand_complex(rng, 0.2, 3.0)
            assert qpoch_inf(u, p) == _qpoch_inf_loop(u, p)
            # (p; p)_inf, the kept value the second time
            assert qpoch_inf(p, p) == _qpoch_inf_loop(p, p)


# theta sums the triple product and the oracle multiplies 2N factors, each
# with a rounding of 2^-53; N is at most 314 (|p| = 0.9), so the two may
# differ by about 2 * 314 * 2^-53 = 7e-14 relative
THETA_PRODUCT_BOUND = 1e-13


def test_theta_matches_the_product_loop():
    rng = random.Random(23)
    for p in _product_nomes(rng):
        for _ in range(2):
            u = rand_complex(rng, 0.2, 3.0)
            oracle = _qpoch_inf_loop(u, p) * _qpoch_inf_loop(p / u, p)
            assert abs(theta(u, p) - oracle) <= THETA_PRODUCT_BOUND * abs(oracle), (u, p)


def test_theta_is_exactly_zero_at_one_and_at_the_nome():
    rng = random.Random(29)
    nomes = [rand_complex(rng, 0.05, 0.9) for _ in range(40)]
    nomes += [0.4 + 0j, 0.4 - 0j, -0.6 + 0j, 0.5j, -0.5j, 0.9 + 0j]
    for p in nomes:
        for u in (1 + 0j, complex(1.0, -0.0), 1, 1.0, p):
            value = theta(u, p)
            assert value == 0 and type(value) is complex, (u, p)


def test_theta_is_symmetric_under_u_to_p_over_u():
    # theta(p/u) = theta(u): the product form has it by construction, the
    # sum only up to rounding (its two halves swap, at a p/(p/u) that is u
    # up to one rounding)
    rng = random.Random(31)
    for _ in range(200):
        p = rand_complex(rng, 0.05, 0.9)
        u = rand_complex(rng, 0.2, 3.0)
        value = theta(u, p)
        assert abs(theta(p / u, p) - value) <= 2e-14 * abs(value), (u, p)


def test_theta_takes_the_product_form_where_the_sum_cancels():
    # next to a zero of theta the triple product's terms cancel; there theta
    # is the product loop itself, bit for bit
    rng = random.Random(37)
    for _ in range(40):
        p = rand_complex(rng, 0.05, 0.9)
        for u in (1 + 1e-9j, p * (1 - 1e-9), p * p * (1 + 1e-9), 1 / p * (1 + 1e-9j)):
            oracle = _qpoch_inf_loop(u, p) * _qpoch_inf_loop(p / u, p)
            assert theta(u, p) == oracle, (u, p)


def test_theta_keeps_its_errors():
    # a nome whose (p; p)_inf is kept, then its rejection cases
    theta(0.7 + 0.2j, 0.3 + 0.1j)
    with pytest.raises(TruncationError):
        theta(0.7 + 0.2j, 0.91)
    with pytest.raises(TruncationError):
        theta(0.7 + 0.2j, 0.8 + 0.5j)

    class Exact(Fraction):
        pass

    for u, p in ((Fraction(1, 2), 0.3 + 0.1j), (0.5 + 0j, Fraction(1, 3)),
                 (Exact(1, 2), 0.3 + 0.1j), (0.5, Exact(1, 3))):
        with pytest.raises(ExactFieldUnavailableError):
            theta(u, p)
    with pytest.raises(ValueError):
        theta(0j, 0.3 + 0.1j)
    with pytest.raises(ValueError):
        theta(Fraction(0), Fraction(0))


def test_theta_returns_nan_where_its_argument_overflows():
    # u = inf, and p/u = inf at a subnormal u: every term after k = 0 would
    # be infinite, so the sum returns instead of walking on
    for u in (complex(math.inf, 0), complex(5e-324, 0), complex(0, 5e-324)):
        assert cmath.isnan(theta(u, 0.3 + 0.1j)), u


def test_theta_at_nome_zero_keeps_the_argument_type():
    theta(0.5 + 0.25j, 0.3 + 0.1j)
    theta(0.5, 0.3)
    for _ in range(2):
        exact = theta(Fraction(1, 3), 0)
        assert type(exact) is Fraction and exact == Fraction(2, 3)
        assert type(theta(Fraction(1, 3), Fraction(0))) is Fraction
        inexact = theta(0.25, 0)
        assert type(inexact) is float and inexact == 0.75


# ---------------------------------------------------------------------------
# q-binomials
# ---------------------------------------------------------------------------


def test_q_int_at_one_is_integer():
    assert q_int(5, Fraction(1)) == 5
    assert q_factorial(4, Fraction(1)) == 24


def test_q_binomial_examples():
    assert q_binomial(2, 1, Fraction(3)) == 4
    assert q_binomial(4, 2, Fraction(1)) == 6


def _q_int_literal(k, q):
    """1 + q + ... + q^{k-1}, the power chain and the sum in one loop."""
    one = q - q + 1
    acc, power = one - one, one
    for _ in range(k):
        acc += power
        power *= q
    return acc


def test_q_factorials_keep_every_bit_of_the_q_int_products():
    """q_factorial and q_binomial read one running list of q-integers; each
    value has the repr of the product (ratio) of separate q_int calls."""
    rng = random.Random(61)
    draws = [rand_complex(rng, 0.3, 2.0) for _ in range(100)]
    fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(120)]
    # q = -1 makes [2]_q = 0, a pole of q_binomial
    draws += [q for q in fractions if q != -1][:100]
    for q in draws:
        n = rng.randint(0, 12)
        l = rng.randint(0, n)
        assert repr(q_int(n, q)) == repr(_q_int_literal(n, q))
        product = q - q + 1
        for j in range(1, n + 1):
            product *= q_int(j, q)
        assert repr(q_factorial(n, q)) == repr(product)
        ratio = q - q + 1
        for j in range(1, l + 1):
            ratio = ratio * q_int(n - l + j, q) / q_int(j, q)
        assert repr(q_binomial(n, l, q)) == repr(ratio)


def test_q_binomial_against_product_expansion():
    # coefficient of z^2 in prod_{j=1}^{5} (1 + q^j z) equals q^3 [5 choose 2]_q
    q = Fraction(1, 2)
    coeffs = [Fraction(1)]
    for j in range(1, 6):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, a in enumerate(coeffs):
            nxt[d] += a
            nxt[d + 1] += a * q**j
        coeffs = nxt
    assert q_binomial(5, 2, q) == coeffs[2] / q**3


def test_q_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        q_binomial(3, 4, Fraction(2))
    with pytest.raises(ValueError):
        q_binomial(3, -1, Fraction(2))


def test_q_binomial_pascal_recursion_exact():
    rng = random.Random(3)
    for _ in range(20):
        q = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        if abs(q) == 1:
            continue
        for n in range(1, 8):
            for l in range(1, n):
                lhs = q_binomial(n, l, q)
                rhs = q_binomial(n - 1, l, q) + q ** (n - l) * q_binomial(n - 1, l - 1, q)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# symmetric q-numbers
# ---------------------------------------------------------------------------


def test_sym_q_number_examples():
    assert sym_q_number(2, Fraction(2)) == Fraction(5, 2)  # s + 1/s
    assert sym_q_number(1, Fraction(7, 3)) == 1
    assert sym_q_number(-3, Fraction(2)) == -sym_q_number(3, Fraction(2))


def test_sym_q_number_rejects_degenerate():
    for s in (0, 1, -1):
        with pytest.raises(ValueError):
            sym_q_number(2, Fraction(s))


def test_sym_q_number_matches_q_integer():
    # s^{n-1} (n)_t = [n]_{s^2} exactly
    rng = random.Random(5)
    for _ in range(30):
        s = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        if abs(s) == 1:
            continue
        for n in range(1, 7):
            assert s ** (n - 1) * sym_q_number(n, s) == q_int(n, s**2)


def test_sym_q_number_example_t4():
    # (3)_t at t = 4 equals [3]_t / t = (1 + 4 + 16)/4
    s = Fraction(2)
    assert sym_q_number(3, s) == Fraction(21, 4)


def test_sym_q_three_term_relation():
    # (x-u)_t (y-v)_t - (x-v)_t (y-u)_t = (x-y)_t (u-v)_t
    rng = random.Random(13)
    s = Fraction(3, 2)
    for _ in range(40):
        x, y, u, v = (rng.randint(-8, 8) for _ in range(4))
        lhs = sym_q_number(x - u, s) * sym_q_number(y - v, s)
        lhs -= sym_q_number(x - v, s) * sym_q_number(y - u, s)
        rhs = sym_q_number(x - y, s) * sym_q_number(u - v, s)
        assert lhs == rhs


def test_sym_q_factorial():
    s = Fraction(2)
    assert sym_q_factorial(0, s) == 1
    assert sym_q_factorial(3, s) == sym_q_number(1, s) * sym_q_number(2, s) * sym_q_number(3, s)


# ---------------------------------------------------------------------------
# psi basis functions
# ---------------------------------------------------------------------------


def _no_theta(x):
    pytest.fail(f"theta read at {x!r}")


def test_psi_A_flat_nome_branches():
    # nome 0 takes the piecewise form and reads no theta
    assert psi_A(2, 3, Fraction(5), Fraction(0), Fraction(7), _no_theta) == 5
    # j = 1, n = 2: 1 - (-1) r u^2 = 1 + 3 * 4
    assert psi_A(1, 2, Fraction(2), Fraction(0), Fraction(3), _no_theta) == 13


def test_psi_A_small_nome_limit():
    rng = random.Random(17)
    u = rand_complex(rng, 0.5, 1.5)
    r = rand_complex(rng, 0.5, 1.5)
    at_zero = psi_A(1, 2, u, 0.0, r, _no_theta)
    near_zero = psi_A(1, 2, u, 1e-7, r, lambda x: theta(x, 1e-7**2))
    assert abs(near_zero - at_zero) <= 1e-6 * max(1.0, abs(at_zero))


def test_psi_A_reads_theta_at_the_nome_p_to_the_n():
    rng = random.Random(19)
    u, r = rand_complex(rng, 0.5, 1.5), rand_complex(rng, 0.5, 1.5)
    p = 0.3 * cmath.exp(0.7j)
    args = []

    def th(x):
        args.append(x)
        return theta(x, p**3)

    # psi_2(u; p, r | rank 3) = u theta(p r u^3; p^3)
    assert psi_A(2, 3, u, p, r, th) == u * theta(p * r * u**3, p**3)
    assert args == [p * 1 * r * u**3]


def test_psi_A_index_validation():
    with pytest.raises(ValueError):
        psi_A(0, 3, 1.0, 0.2, 1.0, _no_theta)
    with pytest.raises(ValueError):
        psi_A(4, 3, 1.0, 0.2, 1.0, _no_theta)


def test_truncation_validation():
    assert DEFAULT_TRUNCATION.num_terms(0.0) == 1
    # ceil(log 1e-14 / log |q|) + 8 over 0 < |q| <= 0.9
    assert DEFAULT_TRUNCATION.num_terms(1e-300) == 9
    assert DEFAULT_TRUNCATION.num_terms(0.5) == 47 + 8
    assert DEFAULT_TRUNCATION.num_terms(0.9) == 306 + 8
