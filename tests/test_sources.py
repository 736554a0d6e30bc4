"""Source functions: subset sums, polynomial versions, difference operators."""

import cmath
import gc
import math
import operator
import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations

import pytest

from srcid.linalg import prod, vandermonde
from srcid.qseries import qpoch_n, theta
from srcid.sources import (
    REGIMES,
    SIZE_CAP,
    EllipticParams,
    RatParams,
    SizeCapError,
    TrigParams,
    apart,
    apply_difference_product,
    elliptic_F,
    elliptic_G,
    elliptic_P,
    elliptic_Q,
    general_position,
    int_form,
    rational_F,
    rational_G,
    rational_P,
    rational_Q,
    size_sums,
    source_polynomial_form,
    source_subset_sum,
    source_via_difference_ops,
    subset_sums_by_size,
    theta_memo,
    theta_quotient,
    trig_F,
    trig_G,
    trig_P,
    trig_Q,
    trig_lambda_F,
    trig_lambda_G,
)

def rand_fraction(rng, nonzero=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if not nonzero or x != 0:
            return x


def rand_complex(rng, lo=0.4, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def sample_rational(rng, n, m):
    while True:
        c = rand_fraction(rng)
        z = rand_fraction(rng)
        u = tuple(rand_fraction(rng) for _ in range(n))
        v = tuple(rand_fraction(rng) for _ in range(m))
        dens = [1 - z]
        dens += [a - b for i, a in enumerate(u) for b in u[i + 1 :]]
        dens += [a - b for i, a in enumerate(v) for b in v[i + 1 :]]
        dens += [vi - uk for vi in v for uk in u]
        dens += [vi - uk - c for vi in v for uk in u]
        if all(d != 0 for d in dens):
            return RatParams(c=c, z=z, u=u, v=v)


def sample_trig(rng, n, m, with_lam=False):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if q == 0 or abs(q) == 1:
            continue
        z = rand_fraction(rng)
        u = tuple(rand_fraction(rng) for _ in range(n))
        v = tuple(rand_fraction(rng) for _ in range(m))
        dens = []
        dens += [a - b for i, a in enumerate(u) for b in u[i + 1 :]]
        dens += [a - b for i, a in enumerate(v) for b in v[i + 1 :]]
        dens += [vi - uk for vi in v for uk in u]
        dens += [vi - q * uk for vi in v for uk in u]
        dens += [1 - q ** (-j) * z for j in range(1, max(0, n - m) + 1)]
        if all(d != 0 for d in dens):
            lam = rand_fraction(rng) if with_lam else None
            return TrigParams(q=q, z=z, u=u, v=v, lam=lam)


def sample_elliptic(rng, n):
    p = rng.uniform(0.1, 0.4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return EllipticParams(
        p=p,
        q=rand_complex(rng, 0.5, 1.7),
        lam=rand_complex(rng),
        z=rand_complex(rng),
        u=tuple(rand_complex(rng) for _ in range(n)),
        v=tuple(rand_complex(rng) for _ in range(n)),
    )


# ---------------------------------------------------------------------------
# stated examples
# ---------------------------------------------------------------------------


def test_trig_F_at_z_zero_is_one():
    rng = random.Random(2)
    params = sample_trig(rng, 3, 2)
    params = TrigParams(q=params.q, z=Fraction(0), u=params.u, v=params.v)
    assert trig_F(params) == 1


def test_rational_two_term_example():
    params = RatParams(c=Fraction(1), z=Fraction(1), u=(Fraction(0),), v=(Fraction(2),))
    assert rational_F(params) == -1
    assert rational_G(params) == -1


def test_rational_P_single_pair_is_minus_c():
    rng = random.Random(3)
    for _ in range(5):
        u1, v1, c = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        params = RatParams(c=c, z=Fraction(1), u=(u1,), v=(v1,))
        assert rational_P(params) == -c


def test_trig_P_vanishing_pair():
    rng = random.Random(5)
    params = sample_trig(rng, 2, 2)
    q, z, u = params.q, params.z, params.u
    v = (u[0], q * u[0])
    sub = TrigParams(q=q, z=z, u=u, v=v)
    assert trig_P(sub) == 0
    assert trig_Q(sub) == 0


def test_empty_conventions():
    rat = RatParams(c=Fraction(2), z=Fraction(3), u=(), v=())
    assert rational_F(rat) == 1
    assert rational_G(rat) == 1
    tri = TrigParams(q=Fraction(2), z=Fraction(3), u=(), v=())
    assert trig_F(tri) == 1
    assert trig_G(tri) == 1


def test_size_cap():
    u = tuple(Fraction(k + 1) for k in range(13))
    with pytest.raises(SizeCapError):
        rational_F(RatParams(c=Fraction(1), z=Fraction(2), u=u, v=u))


# ---------------------------------------------------------------------------
# the source identities
# ---------------------------------------------------------------------------


def test_rational_identity_exact():
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        params = sample_rational(rng, n, m)
        assert rational_F(params) == rational_G(params)


def test_trig_identity_exact():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        params = sample_trig(rng, n, m)
        assert trig_F(params) == trig_G(params)


def test_elliptic_identity_numeric():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(1, 4)
        params = sample_elliptic(rng, n)
        f = elliptic_F(params)
        g = elliptic_G(params)
        assert abs(f - g) <= 1e-8 * max(1.0, abs(f), abs(g))


# ---------------------------------------------------------------------------
# polynomial versions
# ---------------------------------------------------------------------------


def test_polynomial_clearing_relation_rational():
    rng = random.Random(17)
    params = sample_rational(rng, 3, 2)
    clear = 1
    for vi in params.v:
        for uk in params.u:
            clear *= vi - uk - params.c
    assert rational_P(params) == clear * rational_F(params)
    assert rational_Q(params) == clear * rational_G(params)


def test_polynomial_clearing_relation_trig():
    rng = random.Random(19)
    params = sample_trig(rng, 2, 3)
    clear = 1
    for vi in params.v:
        for uk in params.u:
            clear *= vi - params.q * uk
    assert trig_P(params) == clear * trig_F(params)
    assert trig_Q(params) == clear * trig_G(params)


def test_polynomial_clearing_relation_elliptic():
    from srcid.qseries import theta

    rng = random.Random(23)
    params = sample_elliptic(rng, 2)
    clear = 1
    for vi in params.v:
        for uk in params.u:
            clear *= theta(params.q * uk / vi, params.p)
    lhs = elliptic_P(params)
    rhs = clear * elliptic_F(params)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    lhs_q = elliptic_Q(params)
    rhs_q = clear * elliptic_G(params)
    assert abs(lhs_q - rhs_q) <= 1e-9 * max(1.0, abs(rhs_q))


def test_polynomials_symmetric_in_v():
    rng = random.Random(29)
    params = sample_rational(rng, 3, 3)
    base_p = rational_P(params)
    base_q = rational_Q(params)
    perm_v = list(params.v)
    for _ in range(10):
        rng.shuffle(perm_v)
        shuffled = RatParams(c=params.c, z=params.z, u=params.u, v=tuple(perm_v))
        assert rational_P(shuffled) == base_p
        assert rational_Q(shuffled) == base_q
    trig = sample_trig(rng, 3, 3)
    base_tp = trig_P(trig)
    base_tq = trig_Q(trig)
    perm_v = list(trig.v)
    for _ in range(10):
        rng.shuffle(perm_v)
        shuffled = TrigParams(q=trig.q, z=trig.z, u=trig.u, v=tuple(perm_v))
        assert trig_P(shuffled) == base_tp
        assert trig_Q(shuffled) == base_tq


def test_rational_P_degree_bound_in_v1():
    # (n+1)-st forward differences of a degree <= n polynomial vanish
    rng = random.Random(31)
    n, m = 4, 3
    params = sample_rational(rng, n, m)
    samples = []
    for j in range(2 * (n + 1)):
        shifted = None
        while shifted is None:
            v1 = params.v[0] + j + 1
            v = (v1,) + params.v[1:]
            if all(v1 != x for x in params.v[1:]):
                shifted = RatParams(c=params.c, z=params.z, u=params.u, v=v)
        samples.append(rational_P(shifted))
    diffs = samples
    for _ in range(n + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(d == 0 for d in diffs)


def test_swap_reduction_maps_small_side_identity_to_large():
    # substitution v -> 1/u, u -> 1/v, z -> q^{n-m} z turns the n < m identity
    # into the n > m one; check the resulting display directly for m > n
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(0, 3)
        m = rng.randint(n + 1, 5)
        params = sample_trig(rng, m, n)  # m "u" variables, n "v" variables
        q, z, u, v = params.q, params.z, params.u, params.v
        if any(1 - q ** (-j) * z == 0 for j in range(1, m - n + 1)):
            continue
        lhs = 0
        for mask in range(1 << m):
            inside = [i for i in range(m) if mask >> i & 1]
            s = len(inside)
            term = (-(q ** (n - m)) * z) ** s * q ** (s * (s - 1) // 2)
            for i in inside:
                for j in range(m):
                    if not mask >> j & 1:
                        term *= (q * u[i] - u[j]) / (u[i] - u[j])
                for vk in v:
                    term *= (vk - u[i]) / (vk - q * u[i])
            lhs += term
        rhs = 0
        for mask in range(1 << n):
            inside = [i for i in range(n) if mask >> i & 1]
            s = len(inside)
            term = (-z) ** s * q ** (s * (s - 1) // 2)
            for i in inside:
                for j in range(n):
                    if not mask >> j & 1:
                        term *= (v[i] - q * v[j]) / (v[i] - v[j])
                for uk in u:
                    term *= (v[i] - uk) / (v[i] - q * uk)
            rhs += term
        for j in range(1, m - n + 1):
            rhs *= 1 - q ** (-j) * z
        assert lhs == rhs


# ---------------------------------------------------------------------------
# difference-operator forms
# ---------------------------------------------------------------------------


def test_apply_difference_product_trivial():
    f = lambda pt: pt[0] * pt[1]
    point = (Fraction(2), Fraction(5))
    assert apply_difference_product(f, (), lambda x: x + 1, Fraction(3), point) == 10
    assert apply_difference_product(f, (0, 1), lambda x: x + 1, Fraction(0), point) == 10


def test_difference_ops_match_subset_sums_exact():
    rng = random.Random(41)
    for regime in ("rational", "trig"):
        for side in ("F", "G"):
            for _ in range(4):
                n, m = rng.randint(1, 4), rng.randint(1, 4)
                params = (
                    sample_rational(rng, n, m)
                    if regime == "rational"
                    else sample_trig(rng, n, m)
                )
                lhs = source_via_difference_ops(regime, side, params)
                rhs = source_subset_sum(regime, side, params)
                assert lhs == rhs


def test_difference_ops_match_subset_sums_elliptic():
    rng = random.Random(43)
    for side in ("F", "G"):
        params = sample_elliptic(rng, 3)
        lhs = source_via_difference_ops("elliptic", side, params)
        rhs = source_subset_sum("elliptic", side, params)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_rational_difference_example_from_inverse_shift():
    # prod_{i<j}(v_j - v_i) / prod (v_i - u_k) expanded with inverse shifts
    rng = random.Random(47)
    params = sample_rational(rng, 2, 3)
    lhs = source_via_difference_ops("rational", "F", params)
    assert lhs == rational_F(params)


def difference_form_literal(regime, side, params):
    """The operator form over Fractions: prefactor times the expansion of
    Fraction inner functions V(pt) / prod (v - u)."""
    reg = REGIMES[regime]
    params = as_fractions(params)
    u, v = params.u, params.v
    n, m = len(u), len(v)
    xs = v if side == "F" else u
    shift = reg.shift(params, inverse=side == "F")
    pref = prod(vi - uk for vi in v for uk in u) / vandermonde(xs)
    if side == "F":
        zeff = params.z * reg.scale(params, m - n - 1)
        inner = lambda vv: vandermonde(vv) / prod(vi - uk for vi in vv for uk in u)
    else:
        pref = reg.prefactor(params) * pref
        zeff = params.z * reg.scale(params, m - n)
        inner = lambda uu: vandermonde(uu) / prod(vi - uk for vi in v for uk in uu)
    return pref * apply_difference_product(inner, range(len(xs)), shift, zeff, xs)


def int_point(rng, regime, n, m):
    """A rational or trig point whose scalars and coordinates are all ints."""
    def draw(lo=-9, hi=9):
        while True:
            x = rng.randint(lo, hi)
            if x:
                return x

    u = tuple(draw() for _ in range(n))
    v = tuple(draw() for _ in range(m))
    if regime == "rational":
        return RatParams(c=draw(), z=draw(), u=u, v=v)
    return TrigParams(q=rng.choice((-3, -2, 2, 3)), z=draw(), u=u, v=v)


def moved_onto_coincidences(regime, params):
    """``params`` and the point moved onto each coincidence a side divides by."""
    reg = REGIMES[regime]
    exact = as_fractions(params)  # an int q would make x / q a float
    up, down = reg.shift(exact), reg.shift(exact, inverse=True)
    u, v = params.u, params.v
    points = [params, replace(params, v=(u[0],) + v[1:]),
              replace(params, v=(up(u[-1]),) + v[1:]),
              replace(params, v=(down(u[0]),) + v[1:])]
    if len(u) > 1:
        points.append(replace(params, u=(u[1],) + u[1:]))
    if len(v) > 1:
        points.append(replace(params, v=v[:-1] + (v[0],)))
    return points


def test_integer_difference_form_matches_the_fraction_expansion(monkeypatch):
    import srcid.sources as sources

    calls = []
    integer_form = sources._integer_difference_form
    monkeypatch.setattr(sources, "_integer_difference_form",
                        lambda *args: calls.append(args) or integer_form(*args))
    rng = random.Random(53)
    raised = 0
    for regime in ("rational", "trig"):
        for n in range(1, 5):
            for m in range(1, 5):
                fraction_point = (sample_rational(rng, n, m) if regime == "rational"
                                  else sample_trig(rng, n, m))
                for params in (fraction_point, int_point(rng, regime, n, m)):
                    for point in moved_onto_coincidences(regime, params):
                        for side in ("F", "G"):
                            calls.clear()
                            try:
                                expected = difference_form_literal(regime, side, point)
                            except ZeroDivisionError:
                                raised += 1
                                with pytest.raises(ZeroDivisionError):
                                    source_via_difference_ops(regime, side, point)
                            else:
                                value = source_via_difference_ops(regime, side, point)
                                assert type(value) is Fraction, (regime, side, point)
                                assert value == expected, (regime, side, point)
                            assert len(calls) == 1, (regime, side, point)
    assert raised > 100
    # at q = 0 sigma^-1 divides by 0 and (z; q)_{m-n} refuses q
    def outcome(call, *args):
        try:
            return call(*args)
        except (ZeroDivisionError, ValueError) as exc:
            return type(exc)

    for n, m in ((0, 1), (1, 1), (1, 3)):
        point = replace(sample_trig(rng, n, m), q=Fraction(0))
        for side in ("F", "G"):
            expected = outcome(difference_form_literal, "trig", side, point)
            assert outcome(source_via_difference_ops, "trig", side, point) == expected


# ---------------------------------------------------------------------------
# the Lambda-weighted family
# ---------------------------------------------------------------------------


def test_lambda_weighted_binomial_expansion():
    from srcid.qseries import q_binomial

    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rng.randint(0, n)
        params = sample_trig(rng, n, m, with_lam=True)
        q, z, lam = params.q, params.z, params.lam
        lhs = 0
        for ell in range(n - m + 1):
            shifted = TrigParams(
                q=q, z=q ** (n - m) * z, u=params.u, v=params.v, lam=q**ell * lam
            )
            lhs += (
                (-z) ** ell
                * q ** (ell * (ell - 1) // 2)
                * q_binomial(n - m, ell, q)
                * trig_lambda_F(shifted)
            )
        assert lhs == trig_lambda_G(params)


def test_lambda_zero_reduces_to_plain_identity():
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rng.randint(0, n)
        params = sample_trig(rng, n, m)
        q, z = params.q, params.z
        weighted = TrigParams(
            q=q, z=q ** (n - m) * z, u=params.u, v=params.v, lam=Fraction(0)
        )
        lhs = trig_lambda_F(weighted)
        for j in range(1, n - m + 1):
            lhs *= 1 - q ** (j - 1) * z
        rhs = trig_lambda_G(
            TrigParams(q=q, z=z, u=params.u, v=params.v, lam=Fraction(0))
        )
        assert lhs == rhs


def test_trig_G_prefactor_uses_piecewise_pochhammer():
    rng = random.Random(61)
    params = sample_trig(rng, 4, 1)  # n > m exercises the negative index
    body = trig_G(params) / qpoch_n(params.z, params.q, params.m - params.n)
    assert body * qpoch_n(params.z, params.q, params.m - params.n) == trig_G(params)


def test_dispatchers():
    rng = random.Random(67)
    params = sample_rational(rng, 2, 2)
    assert source_subset_sum("rational", "F", params) == rational_F(params)
    assert source_polynomial_form("rational", "Q", params) == rational_Q(params)
    with pytest.raises(ValueError):
        source_subset_sum("rational", "X", params)
    with pytest.raises(ValueError):
        source_subset_sum("nope", "F", params)
    for regime, side in (("rational", "X"), ("nope", "F")):
        with pytest.raises(ValueError):
            size_sums(regime, side, params)
    u = tuple(Fraction(k + 1) for k in range(SIZE_CAP + 1))
    with pytest.raises(SizeCapError):
        size_sums("rational", "F", RatParams(c=Fraction(1), z=Fraction(2), u=u[:1], v=u))


# ---------------------------------------------------------------------------
# the subset-sum kernel against the literal enumeration
# ---------------------------------------------------------------------------


def literal_tables(regime, side, params):
    """(weights, pair, num, den) of F, G, P or Q: the size weights, the pair
    ratios and each summed variable's member numerator and denominator.

    The pair function d, the shift and the weights are written out here from
    the formulas of the ``sources`` docstring, apart from the library's
    regime table.
    """
    u, v, z = params.u, params.v, params.z
    if regime == "rational":
        c = params.c
        d, sigma = (lambda a, b: a - b), (lambda x: x + c)
    elif regime in ("trig", "trig_lambda"):
        q = params.q
        d, sigma = (lambda a, b: a - b), (lambda x: q * x)
    else:
        q, p = params.q, params.p
        d, sigma = (lambda a, b: theta(b / a, p)), (lambda x: q * x)
    vside = side in ("F", "P")
    size = len(v) if vside else len(u)

    def weight(s):
        zz = q ** (len(v) - len(u)) * z if regime == "trig" and not vside else z
        w = (-zz) ** s
        if regime != "rational":
            w *= q ** (s * (s - 1) // 2)
        if regime == "trig_lambda":
            w *= 1 - q**s * params.lam
        if regime == "elliptic":
            w *= theta(q**s * params.lam * prod(u) / prod(v), p)
        return w

    if vside:
        pair = [[d(v[i], sigma(v[j])) / d(v[i], v[j]) if i != j else None
                 for j in range(size)] for i in range(size)]
        num = [prod(d(v[i], uk) for uk in u) for i in range(size)]
        den = [prod(d(v[i], sigma(uk)) for uk in u) for i in range(size)]
    else:
        pair = [[d(u[j], sigma(u[i])) / d(u[j], u[i]) if i != j else None
                 for j in range(size)] for i in range(size)]
        num = [prod(d(vk, u[i]) for vk in v) for i in range(size)]
        den = [prod(d(vk, sigma(u[i])) for vk in v) for i in range(size)]
    return [weight(s) for s in range(size + 1)], pair, num, den


def subset_sum_literal(regime, side, params):
    """F, G, P or Q by multiplying out the term of every subset K (a bitmask)."""
    weights, pair, num, den = literal_tables(regime, side, params)
    u, v, z = params.u, params.v, params.z
    size = len(pair)
    vside = side in ("F", "P")
    total = 0
    for mask in range(1 << size):
        inside = [i for i in range(size) if mask >> i & 1]
        outside = [j for j in range(size) if not mask >> j & 1]
        term = weights[len(inside)]
        for i in inside:
            for j in outside:
                term *= pair[i][j]
            term = term * num[i] / den[i] if side in ("F", "G") else term * num[i]
        if side in ("P", "Q"):
            for j in outside:
                term *= den[j]
        total += term
    if not vside and regime == "rational":
        total *= (1 - z) ** (len(v) - len(u))
    if not vside and regime == "trig":
        total *= qpoch_n(z, params.q, len(v) - len(u))
    return total


def sample_complex_flat(rng, regime, n, m):
    u = tuple(rand_complex(rng) for _ in range(n))
    v = tuple(rand_complex(rng) for _ in range(m))
    if regime == "rational":
        return RatParams(c=rand_complex(rng, 0.3, 1.0), z=rand_complex(rng), u=u, v=v)
    return TrigParams(q=rand_complex(rng, 0.5, 1.7), z=rand_complex(rng), u=u, v=v,
                      lam=rand_complex(rng))


def assert_kernel_matches_literal(regime, side, params, exact):
    value = (source_subset_sum if side in ("F", "G") else source_polynomial_form)(
        regime, side, params
    )
    literal = subset_sum_literal(regime, side, params)
    # the per-size sums, size by size, and their weighting: F, G, P and Q
    # are sum_s w(s) S_s (times the G prefactor) to the last bit
    _, pair, num, den = literal_tables(regime, side, params)
    # a member ratio with no partners is 1 / 1: one keeps it in the field
    one = params.z - params.z + 1
    members = ([one * a / b for a, b in zip(num, den)],) if side in ("F", "G") else (num, den)
    sums, by_size = size_sums(regime, side, params), size_sums_literal(pair, *members)
    reg, vside = REGIMES[regime], side in ("F", "P")
    weights = reg.weights(params, vside, len(pair))
    total = weights[0] * sums[0]
    for s in range(1, len(sums)):
        total += weights[s] * sums[s]
    if not vside:
        total = reg.prefactor(params) * total
    assert repr(total) == repr(value), (regime, side, params)
    if exact:
        assert value == literal, (regime, side, params)
        assert sums == by_size and {type(x) for x in sums} == {Fraction}, (regime, side, params)
    else:
        assert abs(value - literal) <= 1e-9 * max(1.0, abs(literal)), (regime, side, params)
        for x, y in zip(sums, by_size, strict=True):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (regime, side, params)


def test_kernel_matches_the_literal_enumeration():
    rng = random.Random(71)
    for n in range(8):
        for m in range(8):
            rat = sample_rational(rng, n, m)
            tri = sample_trig(rng, n, m, with_lam=True)
            for side in "FGPQ":
                assert_kernel_matches_literal("rational", side, rat, exact=True)
                assert_kernel_matches_literal("trig", side, tri, exact=True)
            for side in "FG":
                assert_kernel_matches_literal("trig_lambda", side, tri, exact=True)
            for regime in ("rational", "trig"):
                params = sample_complex_flat(rng, regime, n, m)
                for side in "FGPQ":
                    assert_kernel_matches_literal(regime, side, params, exact=False)
            params = sample_complex_flat(rng, "trig", n, m)
            for side in "FG":
                assert_kernel_matches_literal("trig_lambda", side, params, exact=False)
    for n in range(8):
        params = sample_elliptic(rng, n)
        for side in "FGPQ":
            assert_kernel_matches_literal("elliptic", side, params, exact=False)


def size_sums_literal(pair, inside=None, outside=None, same=None):
    """Each size's sum, multiplying out the term of every K of that size."""
    size = len(pair)
    sums = []
    for ell in range(size + 1):
        total = 0
        for kset in combinations(range(size), ell):
            term = 1
            for i in range(size):
                for j in range(size):
                    if i in kset and j not in kset:
                        term *= pair[i][j]
                    if same is not None and j < i and (i in kset) == (j in kset):
                        term *= same[i][j]
                table = inside if i in kset else outside
                if table is not None:
                    term *= table[i]
            total += term
        sums.append(total)
    return sums


def test_size_sums_match_the_literal_enumeration():
    # asymmetric Fraction tables with zero entries: a kernel that reads a
    # table transposed or drops a factor changes some size's sum
    rng = random.Random(79)

    def entry():
        return Fraction(0) if rng.random() < 0.1 else rand_fraction(rng)

    zeros = 0
    for size in range(8):
        for _ in range(3):
            pair = [[entry() if i != j else None for j in range(size)] for i in range(size)]
            inside = [entry() for _ in range(size)]
            outside = [entry() for _ in range(size)]
            zeros += sum(row.count(0) for row in pair)
            for tables in ((pair,), (pair, inside), (pair, inside, outside)):
                sums = subset_sums_by_size(*tables, one=Fraction(1))
                assert sums == size_sums_literal(*tables), (size, tables)
    assert zeros


def size_sums_walk_literal(pair, inside=None, outside=None, one=1):
    """The kernel's walk with one call per leaf: every subset recurses to
    t = size and adds its product there, in depth-first order."""
    size = len(pair)
    by_size = [0] * (size + 1)

    def walk(t, term, members, others):
        if t == size:
            by_size[len(members)] += term
            return
        take = term if inside is None else term * inside[t]
        row = pair[t]
        for j in others:
            take *= row[j]
        skip = term if outside is None else term * outside[t]
        for i in members:
            skip *= pair[i][t]
        walk(t + 1, take, members + (t,), others)
        walk(t + 1, skip, members, others + (t,))

    walk(0, one, (), ())
    return by_size


def test_size_sums_keep_every_bit_of_the_walk_with_one_call_per_leaf():
    # complex tables: adding each slot's leaves in another order, or
    # multiplying a term's factors in another order, moves the last bits
    rng = random.Random(83)
    for size in range(9):
        pair = [[rand_complex(rng) if i != j else None for j in range(size)] for i in range(size)]
        inside = [rand_complex(rng) for _ in range(size)]
        outside = [rand_complex(rng) for _ in range(size)]
        for mask in range(4):
            tables = [table if mask >> bit & 1 else None
                      for bit, table in enumerate((inside, outside))]
            sums = subset_sums_by_size(pair, *tables, one=1 + 0j)
            literal = size_sums_walk_literal(pair, *tables, one=1 + 0j)
            assert repr(sums) == repr(literal), (size, mask)


def test_size_sums_keep_the_type_of_one():
    assert subset_sums_by_size([], one=1 + 0j) == [1 + 0j]
    assert type(subset_sums_by_size([], one=1 + 0j)[0]) is complex
    assert type(subset_sums_by_size([], one=Fraction(1))[0]) is Fraction
    assert subset_sums_by_size([[None]], one=Fraction(1)) == [1, 1]


def test_cleared_forms_match_the_literal_enumeration_where_F_is_singular():
    # v holds sigma(u_k) (resp. u holds sigma^-1(v_k)): the member ratio of
    # that entry divides by zero, the cleared forms stay finite
    rng = random.Random(73)
    for n in range(1, 6):
        for m in range(1, 6):
            rat = sample_rational(rng, n, m)
            tri = sample_trig(rng, n, m)
            for params, up, down in (
                (rat, lambda x: x + rat.c, lambda x: x - rat.c),
                (tri, lambda x: tri.q * x, lambda x: x / tri.q),
            ):
                regime = "rational" if params is rat else "trig"
                v_hit = (up(params.u[0]),) + params.v[1:]
                u_hit = (down(params.v[0]),) + params.u[1:]
                for point, side in ((replace(params, v=v_hit), "P"),
                                    (replace(params, u=u_hit), "Q")):
                    with pytest.raises(ZeroDivisionError):
                        source_subset_sum(regime, "F" if side == "P" else "G", point)
                    assert_kernel_matches_literal(regime, side, point, exact=True)
    for n in range(1, 5):
        params = sample_elliptic(rng, n)
        hit = replace(params, v=(params.q * params.u[0],) + params.v[1:])
        assert_kernel_matches_literal("elliptic", "P", hit, exact=False)


# ---------------------------------------------------------------------------
# the integer walk of exact points
# ---------------------------------------------------------------------------


def exact_point(rng, regime, n, m, q=None):
    """A rational or trig point in general position, with ``q`` when given."""
    while True:
        if regime == "rational":
            params = sample_rational(rng, n, m)
        else:
            params = sample_trig(rng, n, m, with_lam=True)
            params = replace(params, q=q if q is not None else params.q)
        if 0 not in general_position(regime, params):
            return params


def as_fractions(params):
    """``params`` with every int scalar turned into a Fraction."""
    def conv(x):
        if isinstance(x, tuple):
            return tuple(map(Fraction, x))
        return None if x is None else Fraction(x)
    return type(params)(**{f.name: conv(getattr(params, f.name)) for f in fields(params)
                           if f.init})


def assert_integer_walk_matches_literal(regime, params, sides):
    literal_params = as_fractions(params)
    for side in sides:
        value = (source_subset_sum if side in "FG" else source_polynomial_form)(
            regime, side, params
        )
        assert type(value) is Fraction, (regime, side, params)
        assert value == subset_sum_literal(regime, side, literal_params), (regime, side, params)


def denominators_lcm(params):
    values = params.u + params.v + ((params.c,) if isinstance(params, RatParams) else ())
    return math.lcm(*(Fraction(x).denominator for x in values))


def test_integer_walk_matches_the_literal_enumeration():
    rng = random.Random(97)
    for n, m in ((2, 5), (5, 2), (3, 3), (8, 8)):
        rat = exact_point(rng, "rational", n, m)
        assert denominators_lcm(rat) != 1
        assert_integer_walk_matches_literal("rational", rat, "FGPQ")
        # q < 0, |q| > 1 with a denominator, |q| < 1, an integer q
        for q in (Fraction(-7, 3), Fraction(-2, 7), Fraction(5, 3), Fraction(3)):
            tri = exact_point(rng, "trig", n, m, q)
            assert denominators_lcm(tri) != 1
            assert_integer_walk_matches_literal("trig", tri, "FGPQ")
            assert_integer_walk_matches_literal("trig_lambda", tri, "FG")


def test_integer_walk_takes_int_params_and_a_zero_entry():
    F = Fraction
    rat = RatParams(c=2, z=3, u=(1, -5, 0), v=(5, 7, -4, 9))
    tri = TrigParams(q=-3, z=2, u=(1, 2, -1, 4), v=(5, 7), lam=2)  # n > m: q^(m-n) on G
    for regime, params in (("rational", rat), ("trig", tri), ("trig_lambda", tri)):
        sides = "FG" if regime == "trig_lambda" else "FGPQ"
        assert_integer_walk_matches_literal(regime, params, sides)
        swapped = replace(params, u=params.v, v=params.u)
        assert 0 not in general_position(regime, as_fractions(swapped))
        assert_integer_walk_matches_literal(regime, swapped, sides)
    # u_k = 0, next to entries with denominators
    rng = random.Random(101)
    for regime in ("rational", "trig"):
        for n, m in ((3, 2), (2, 4)):
            while True:
                params = exact_point(rng, regime, n, m, q=Fraction(-5, 2))
                params = replace(params, u=(F(0),) + params.u[1:])
                if 0 not in general_position(regime, params):
                    break
            assert_integer_walk_matches_literal(regime, params, "FGPQ")


def test_integer_walk_raises_where_the_tables_divide_by_zero():
    F = Fraction
    rat = RatParams(c=F(1, 3), z=F(2, 5), u=(F(1, 2), F(2), F(-3, 4)), v=(F(5, 3), F(7, 2)))
    tri = TrigParams(q=F(-3, 2), z=F(3, 7), u=(F(1, 2), F(2), F(-3, 4)), v=(F(5, 3), F(7, 2)))
    for regime, params, up, down in (
        ("rational", rat, lambda x: x + rat.c, lambda x: x - rat.c),
        ("trig", tri, lambda x: tri.q * x, lambda x: x / tri.q),
    ):
        assert 0 not in general_position(regime, params)
        v_hit = replace(params, v=(up(params.u[1]),) + params.v[1:])  # v_1 = sigma u_2
        u_hit = replace(params, u=params.u[:2] + (down(params.v[0]),))  # u_3 = sigma^-1 v_1
        for point, side, cleared in ((v_hit, "F", "P"), (u_hit, "G", "Q")):
            with pytest.raises(ZeroDivisionError):
                source_subset_sum(regime, side, point)
            assert_integer_walk_matches_literal(regime, point, cleared)
        repeated_v = replace(params, v=(params.v[0], params.v[0]))
        repeated_u = replace(params, u=(params.u[0], params.u[1], params.u[0]))
        for point, sides in ((repeated_v, "FP"), (repeated_u, "GQ")):
            for side in sides:
                with pytest.raises(ZeroDivisionError):
                    (source_subset_sum if side in "FG" else source_polynomial_form)(
                        regime, side, point
                    )
        # a repeated partner divides by nothing
        assert_integer_walk_matches_literal(regime, repeated_u, "FP")
        assert_integer_walk_matches_literal(regime, repeated_v, "GQ")


def table_walk(regime, side, params):
    """F, G, P or Q by the kernel over Fraction tables, the walk of a point
    without an int form."""
    import srcid.sources as sources

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "int_form", lambda params: None)
        return sources._source(regime, side, as_fractions(params))


def outcome(regime, side, params, walk):
    try:
        return walk(regime, side, params)
    except ZeroDivisionError:
        return ZeroDivisionError


def large_lcm_point(rng, regime, n, m):
    """A point whose denominators are products of two of three large primes,
    so that L has more than 25 bits."""
    primes = (7919, 104729, 1299709)

    def draw():
        return Fraction(rng.randint(-10**6, 10**6) or 1, rng.choice(primes) * rng.choice(primes))

    u, v = tuple(draw() for _ in range(n)), tuple(draw() for _ in range(m))
    if regime == "rational":
        return RatParams(c=draw(), z=Fraction(-3, 11), u=u, v=v)
    return TrigParams(q=Fraction(-7, 5), z=Fraction(5, 13), u=u, v=v, lam=Fraction(2, 9))


def test_reduced_int_walk_matches_the_fraction_table_walk():
    # summed sizes 1..12: every side at n = m <= 8; above, one side per
    # regime against two partners (the Fraction tables cost seconds there)
    import srcid.sources as sources

    rng = random.Random(131)
    for n in range(1, 13):
        for regime in ("rational", "trig", "trig_lambda"):
            all_sides = "FG" if regime == "trig_lambda" else "FGPQ"
            sides = all_sides if n <= 8 else all_sides[n % len(all_sides)]
            sizes = (n, n) if n <= 8 else (2, n) if sides in "FP" else (n, 2)
            for large in ((False, True) if n <= 8 else (n % 3 == 0,)):
                if large:
                    params = large_lcm_point(rng, regime, *sizes)
                    assert denominators_lcm(params).bit_length() > 25
                else:
                    params = exact_point(rng, regime, *sizes)
                for side in sides:
                    kernel = sources._source(regime, side, params)
                    assert type(kernel) is Fraction, (regime, side, n)
                    assert kernel == table_walk(regime, side, params), (regime, side, n, large)


def test_reduced_int_walk_raises_where_the_fraction_tables_do():
    # summed sizes up to 4 take the depth-first walk, 7 the level walk
    import srcid.sources as sources

    rng = random.Random(137)
    points = []
    for regime in ("rational", "trig"):
        for n, m in ((1, 1), (2, 3), (3, 2), (4, 4), (7, 7)):
            for draw in (exact_point, large_lcm_point):
                moved = moved_onto_coincidences(regime, draw(rng, regime, n, m))
                points += [(regime, p) for p in moved]
    # sets whose values are all 0: a repeated 0 of trig's summed u, and at
    # c = 0 a v_i = u_k that is also sigma u_k
    F = Fraction
    for more in (0, 4):
        points.append(("trig", TrigParams(q=F(-3, 2), z=F(3, 7), v=(F(5, 3),),
                                          u=(F(0), F(1, 2), F(0), *map(F, range(3, 3 + more))))))
        points.append(("rational", RatParams(c=F(0), z=F(2, 5), u=(F(1, 2), F(2)),
                                             v=(F(1, 2), *(F(k, 3) for k in range(7, 8 + more))))))
    raised = 0
    for regime, params in points:
        for side in "FGPQ":
            expected = outcome(regime, side, params, table_walk)
            assert outcome(regime, side, params, sources._source) == expected, (regime, side)
            raised += expected is ZeroDivisionError
    assert raised > 20


def test_every_choice_set_reaches_the_kernel_with_gcd_one(monkeypatch):
    # each pair's {same, pair[t][i], pair[i][t]} and each index's {inside,
    # outside}, through the level walk that every int sum takes
    import srcid.sources as sources

    seen = []
    walk = sources._level_sums

    def spy(pair, inside, outside, same):
        seen.append((pair, inside, outside, same))
        return walk(pair, inside, outside, same)

    monkeypatch.setattr(sources, "_level_sums", spy)
    rng = random.Random(139)
    for regime in ("rational", "trig", "trig_lambda"):
        for n, m in ((1, 3), (3, 1), (4, 4), (6, 5), (8, 7)):
            for draw in (exact_point, large_lcm_point):
                params = draw(rng, regime, n, m)
                assert denominators_lcm(params) > 1
                for side in ("FG" if regime == "trig_lambda" else "FGPQ"):
                    seen.clear()
                    sources._source(regime, side, params)
                    (pair, inside, outside, same), = seen
                    assert len(pair) == (m if side in "FP" else n), (regime, side, n, m)
                    for t in range(len(pair)):
                        assert math.gcd(inside[t], outside[t]) == 1, (regime, side, t)
                        for i in range(t):
                            assert math.gcd(same[t][i], pair[t][i], pair[i][t]) == 1


def random_int_tables(rng, size, zero_set=False):
    """Int kernel tables with some zero entries; with ``zero_set`` one choice
    set is all zeros (a pair's at even sizes, an index's at odd ones), which
    makes every per-size sum 0."""
    def entry():
        return rng.choice((0, *(rng.randint(-9, 9) or 1, rng.randint(-10**12, 10**12)) * 8))

    pair = [[None if a == b else entry() for b in range(size)] for a in range(size)]
    inside, outside = [entry() for _ in range(size)], [entry() for _ in range(size)]
    same = [[entry() for _ in range(t)] for t in range(size)]
    if zero_set and size >= 2:
        t = rng.randrange(1, size)
        if size % 2:
            inside[t] = outside[t] = 0
        else:
            i = rng.randrange(t)
            same[t][i] = pair[t][i] = pair[i][t] = 0
    return pair, inside, outside, same


@pytest.fixture(scope="module")
def int_tables_and_literal_sums():
    """(size, zero_set, tables, literal sums) per drawn table, each table's
    literal sums made once for every LEVEL_WALK_HOLDS the walk is run at."""
    rng = random.Random(149)
    drawn = []
    for size in range(0, SIZE_CAP + 1):
        for zero_set in (False, True) * (3 if size < 10 else 1):
            tables = random_int_tables(rng, size, zero_set)
            drawn.append((size, zero_set, tables, size_sums_literal(*tables)))
    return drawn


@pytest.mark.parametrize("holds", [None, 3, 1])
def test_level_walk_equals_the_literal_enumeration_on_int_tables(
        monkeypatch, int_tables_and_literal_sums, holds):
    # holds: how many indices a walk takes before it decides index 0 first
    import srcid.sources as sources

    if holds is not None:
        monkeypatch.setattr(sources, "LEVEL_WALK_HOLDS", holds)
    nonzero = 0
    for size, zero_set, tables, literal in int_tables_and_literal_sums:
        sums = sources._level_sums(*tables)
        assert sums == literal, (size, zero_set)
        assert all(type(x) is int for x in sums)
        nonzero += sum(map(bool, sums))
    assert nonzero > 80
    assert sources._level_sums([], [], [], []) == [1]


def test_the_level_walk_holds_under_half_a_mib():
    # one n = 12 rational F sum at the large-n workload's point of the default
    # seed: 0.72 MiB without the split on index 0, 1.5 MiB holding every leaf term
    import tracemalloc

    import srcid.engine as engine
    from srcid.fields import EXACT

    seed = 20260801
    config = engine.SamplingConfig(master_seed=seed, field=EXACT)
    ctx = engine.PointContext(random.Random(f"{seed}:large-n:rational:12"), EXACT, config)
    params = ctx.sample_rational(12, 12)
    value = rational_F(params)
    tracemalloc.start()
    try:
        assert rational_F(params) == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19, peak


def test_elliptic_sums_at_nome_zero_are_the_lambda_weighted_trig_sums():
    rng = random.Random(83)
    for n in range(0, 6):
        tri = sample_trig(rng, n, n, with_lam=True)
        tri = replace(tri, u=tuple(x or Fraction(1, 7) for x in tri.u),
                      v=tuple(x or Fraction(1, 9) for x in tri.v))
        ell = EllipticParams(p=Fraction(0), q=tri.q, lam=tri.lam * prod(tri.v) / prod(tri.u),
                             z=tri.z, u=tri.u, v=tri.v)
        assert elliptic_F(ell) == trig_lambda_F(tri)
        assert elliptic_G(ell) == trig_lambda_G(tri)


def test_lambda_weighted_sum_at_lambda_zero_is_the_trig_sum():
    rng = random.Random(89)
    for n in range(0, 6):
        for m in range(0, 6):
            tri = sample_trig(rng, n, m)
            assert trig_lambda_F(replace(tri, lam=Fraction(0))) == trig_F(tri)


# ---------------------------------------------------------------------------
# general position: the denominators the regime table divides by
# ---------------------------------------------------------------------------


def _coincidences(params, sigma):
    """The point moved onto each coincidence of u and v that general position guards."""
    u, v = params.u, params.v
    return {
        "u_i = u_j": replace(params, u=(u[0], u[0]) + u[2:]),
        "v_i = v_j": replace(params, v=(v[1], v[1]) + v[2:]),
        "v_i = u_k": replace(params, v=(u[1],) + v[1:]),
        "v_i = sigma(u_k)": replace(params, v=v[:1] + (sigma(u[0]),) + v[2:]),
    }


def test_general_position_vanishes_at_each_guarded_coincidence():
    F = Fraction
    rat = RatParams(c=F(1, 3), z=F(2, 5), u=(F(1), F(2), F(-3, 4)), v=(F(5), F(7, 2)))
    tri = TrigParams(q=F(2, 3), z=F(3, 7), u=(F(1), F(2), F(-3, 4)), v=(F(5), F(7, 2)),
                     lam=F(1, 5))
    # dyadic entries whose imaginary and real parts have a dyadic ratio, so that
    # x / x and (p x) / x round to exactly 1 and p
    ell = EllipticParams(p=0.25 + 0.125j, q=0.5 - 0.25j, lam=0.75 + 0.5j, z=0.875 - 0.25j,
                         u=(1 + 0.5j, 0.5 - 0.25j), v=(1.5 + 0.75j, -1 + 0.5j))
    points = {
        "rational": (rat, lambda x: x + rat.c, {"z = 1": replace(rat, z=F(1))}),
        "trig": (tri, lambda x: tri.q * x, {
            f"z = q^{j}": replace(tri, z=tri.q**j) for j in (1, 2) if j <= tri.n - tri.m
        }),
        "trig_lambda": (tri, lambda x: tri.q * x, {"z = q": replace(tri, z=tri.q)}),
        "elliptic": (ell, lambda x: ell.q * x, {
            "Lambda = 1": replace(ell, lam=1 + 0j),
            "v_j = p v_i": replace(ell, v=(ell.v[0], ell.p * ell.v[0])),
        }),
    }
    for regime, (params, sigma, extra) in points.items():
        assert 0 not in general_position(regime, params), regime
        hits = {**_coincidences(params, sigma), **extra}
        assert len(hits) >= 5, regime
        for name, hit in hits.items():
            assert 0 in general_position(regime, hit), (regime, name)


def test_general_position_lists_every_ordered_pair():
    ell = EllipticParams(p=0.3 + 0.1j, q=0.6 - 0.3j, lam=0.7 + 0.4j, z=0.9 - 0.2j,
                         u=(1.1 + 0.2j, 0.5 - 0.6j, 0.9j), v=(1.0 + 0j, -0.8 + 0.3j, 1.3))
    n = ell.n
    assert len(general_position("elliptic", ell)) == 1 + 2 * n * (n - 1) + 2 * n * n
    d = theta_quotient(theta_memo(ell.p))
    assert apart(d, ell.u) == [d(a, b) for a in ell.u for b in ell.u if a != b]
    assert abs(d(ell.u[0], ell.u[1])) != abs(d(ell.u[1], ell.u[0]))
    # |a - b| = |b - a|: the difference lists each unordered pair once
    F = Fraction
    rat = RatParams(c=F(1, 3), z=F(2, 5), u=(F(1), F(2), F(-3, 4)), v=(F(5), F(7, 2)))
    n, m = rat.n, rat.m
    assert len(general_position("rational", rat)) == (
        2 + n * (n - 1) // 2 + m * (m - 1) // 2 + 2 * n * m
    )
    assert apart(operator.sub, rat.u) == [F(-1), F(7, 4), F(11, 4)]


def general_position_literal(regime, params):
    """The general-position values over Fractions, d = a - b at the point itself."""
    reg = REGIMES[regime]
    u, v = params.u, params.v
    su = list(map(reg.shift(params), u))
    return (reg.singular(params) + apart(operator.sub, u) + apart(operator.sub, v)
            + [x - y for x in v for y in u] + [x - sy for x in v for sy in su])


def test_general_position_ints_vanish_where_the_fraction_values_do():
    def put(xs, i, x):
        return xs[:i] + (x,) + xs[i + 1:]

    rng = random.Random(59)
    vanished = 0
    for regime in ("rational", "trig", "trig_lambda"):
        for _ in range(40):
            n, m = rng.randint(2, 4), rng.randint(1, 4)
            params = (sample_rational(rng, n, m) if regime == "rational"
                      else sample_trig(rng, n, m, with_lam=True))
            sigma = REGIMES[regime].shift(params)
            u, v = params.u, params.v
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(m)
            for point in (params, replace(params, u=put(u, i, u[j])),
                          replace(params, v=put(v, k, u[i])),
                          replace(params, v=put(v, k, sigma(u[i])))):
                values = general_position(regime, point)
                literal = general_position_literal(regime, point)
                assert [x == 0 for x in values] == [x == 0 for x in literal], (regime, point)
                singular = len(REGIMES[regime].singular(point))
                assert all(type(x) is int for x in values[singular:]), (regime, point)
                vanished += 0 in values
    assert vanished == 3 * 40 * 3


def test_the_int_form_is_made_once_per_point(monkeypatch):
    import srcid.detreps as detreps
    import srcid.sources as sources

    scalings = []
    to_integers = sources.to_integers
    monkeypatch.setattr(sources, "to_integers",
                        lambda values: scalings.append(values) or to_integers(values))
    rng = random.Random(61)
    rat = sample_rational(rng, 3, 2)
    tri = sample_trig(rng, 2, 3, with_lam=True)
    for regime, params in (("rational", rat), ("trig", tri)):
        before = (repr(params), hash(params))
        kept = params.ints
        scalings.clear()
        twin = type(params)(**{f.name: getattr(params, f.name) for f in fields(params) if f.init})
        # a point is scaled once, when it is made
        assert len(scalings) == 1 and twin.ints == kept and twin.ints is not kept
        scalings.clear()
        assert 0 not in general_position(regime, params)
        for side in ("F", "G"):
            source_via_difference_ops(regime, side, params)
            detreps.det_rep(regime, "scalar_product", side, params, detreps.AuxParams())
        for side in "FGPQ":
            sources._source(regime, side, params)
        if regime == "trig":
            # trig and trig_lambda read one form
            for side in "FG":
                sources._source("trig_lambda", side, params)
        assert not scalings, regime
        assert sources.int_form(params) is kept and params.ints is kept
        assert (repr(params), hash(params)) == before
        assert params == twin and hash(params) == hash(twin) and repr(params) == repr(twin)
        assert "ints" not in repr(params)
    # a point made by replace scales itself to the form its parent's implies:
    # a new z or Lambda leaves it, and v + c keeps L, since c's denominator
    # is in it, and moves the ints of v by g = L c
    assert replace(tri, z=rat.c, lam=rat.z).ints == tri.ints
    assert replace(rat, z=Fraction(1)).ints == rat.ints
    shifted = replace(rat, v=tuple(x + rat.c for x in rat.v))
    g = rat.ints.sigma[1]
    assert shifted.ints == rat.ints._replace(v=[y + g for y in rat.ints.v])
    assert replace(rat, z=0.5j).ints is None and int_form(replace(rat, z=0.5j)) is None


def _elliptic_point(n=3):
    rng = random.Random(31)

    def draw(lo=0.4, hi=2.0):
        return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    return EllipticParams(p=draw(0.1, 0.4), q=draw(0.6, 1.5), lam=draw(), z=draw(),
                          u=tuple(draw() for _ in range(n)), v=tuple(draw() for _ in range(n)))


def _twin(params):
    """An equal ``EllipticParams`` with a memo of its own (``replace`` hands on its memo)."""
    return EllipticParams(p=params.p, q=params.q, lam=params.lam, z=params.z,
                          u=params.u, v=params.v)


def test_elliptic_theta_values_are_evaluated_once_per_point(monkeypatch):
    import srcid.sources as sources

    params = _elliptic_point()
    fresh = _twin(params)
    expected = (general_position("elliptic", fresh), elliptic_F(fresh), elliptic_G(fresh))
    calls = []

    def counted(x, p):
        calls.append(x)
        return theta(x, p)

    monkeypatch.setattr(sources, "theta", counted)
    got = (general_position("elliptic", params), elliptic_F(params), elliptic_G(params))
    assert got == expected
    assert calls and len(calls) == len(set(calls))
    # P and Q share the pair tables, weights and member factors of F and G
    before = len(calls)
    for source in (elliptic_F, elliptic_G, elliptic_P, elliptic_Q):
        source(params)
    assert len(calls) == before


def test_determinant_paths_evaluate_each_theta_value_once_per_point(monkeypatch):
    """The Frobenius and theta-Vandermonde runners and the elliptic bs and mpt
    representations take every theta value from one memo per point, the
    psi rows' theta at nome p^n included."""
    import srcid.detreps as detreps
    import srcid.engine as engine
    import srcid.linalg as linalg
    import srcid.sources as sources

    calls = []

    def counted(x, p):
        calls.append((repr(x), repr(p)))  # repr keeps the sign of a zero part
        return theta(x, p)

    for module in (sources, linalg, detreps, engine):
        monkeypatch.setattr(module, "theta", counted, raising=False)
    for case_id in ("frobenius_factorization", "theta_vandermonde_factorization"):
        calls.clear()
        assert engine.run_case(case_id, engine.SamplingConfig(points=5)).passed
        assert calls and len(calls) == len(set(calls)), case_id
    rng = random.Random(37)
    params = _elliptic_point()
    mix = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    aux = detreps.AuxParams(r=rand_complex(rng), mat=mix,
                            eta=tuple(rand_complex(rng) for _ in range(params.n)))
    for family in ("bs", "mpt"):
        for side in ("F", "G"):
            point = _twin(params)
            calls.clear()
            assert 0 not in detreps.aux_general_position("elliptic", family, side, point, aux)
            value = detreps.det_rep("elliptic", family, side, point, aux)
            assert cmath.isclose(value, source_subset_sum("elliptic", side, point), rel_tol=1e-8)
            assert calls and len(calls) == len(set(calls)), (family, side)
            if family == "mpt":
                # the psi rows' theta values, at nome p^n, are counted too
                assert repr(point.p ** point.n) in {nome for _, nome in calls}


def test_the_quasi_periodicity_point_evaluates_only_the_thetas_of_its_moved_v(monkeypatch):
    """After F at a point, F at its v_k -> p v_k point (``replace``, as the
    quasi-periodicity case builds it) evaluates theta only at the arguments
    that hold the moved v_k: the pair ratios with it at either end, its member
    ratio and every weight, whose prod v holds it."""
    import srcid.sources as sources

    params = _elliptic_point()
    elliptic_F(params)
    k, q, u = 1, params.q, params.u
    moved = replace(params, v=tuple(params.p * x if i == k else x for i, x in enumerate(params.v)))
    w = moved.v[k]
    expected = {y / w for y in u} | {q * y / w for y in u}
    for j, x in enumerate(moved.v):
        if j != k:
            expected |= {q * x / w, x / w, q * w / x, w / x}
    balance = moved.lam * prod(moved.u) / prod(moved.v)
    expected |= {q**s * balance for s in range(moved.n + 1)}
    calls = []

    def counted(x, p):
        calls.append(x)
        return theta(x, p)

    monkeypatch.setattr(sources, "theta", counted)
    value = elliptic_F(moved)
    assert len(calls) == len(set(calls)) == 7 * moved.n - 3
    assert set(calls) == expected
    assert value == elliptic_F(_twin(moved))


def test_scale_is_the_factor_of_d_under_the_shift():
    """d(sigma a, sigma b) = scale(params, 1) d(a, b) in every row of the
    table: literally over the rationals, to rounding in the elliptic row."""
    F = Fraction
    rat = RatParams(c=F(1, 3), z=F(2, 5), u=(F(1), F(2), F(-3, 4)), v=(F(5), F(7, 2)))
    tri = TrigParams(q=F(-2, 3), z=F(3, 7), u=(F(1), F(2), F(-3, 4)), v=(F(5), F(7, 2)),
                     lam=F(1, 5))
    ell = _elliptic_point()
    for regime, params in (("rational", rat), ("trig", tri), ("trig_lambda", tri),
                           ("elliptic", ell)):
        reg = REGIMES[regime]
        d, sigma = reg.pair(params), reg.shift(params)
        lam = reg.scale(params, 1)
        xs = params.u + params.v
        for a in xs:
            for b in xs:
                if a == b:
                    continue
                lhs, rhs = d(sigma(a), sigma(b)), lam * d(a, b)
                if regime == "elliptic":
                    assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (regime, a, b)
                else:
                    assert lhs == rhs, (regime, a, b)
        assert reg.scale(params, 3) == lam**3


def test_theta_memo_keys_a_zero_part_with_its_sign(monkeypatch):
    import srcid.sources as sources

    p = 0.3 + 0.1j
    calls = []

    def counted(x, p):
        calls.append(x)
        return theta(x, p)

    monkeypatch.setattr(sources, "theta", counted)
    th = theta_memo(p)
    args = (1.5 + 0.5j, 1.5 + 0j, complex(1.5, -0.0), complex(0.0, 0.7), complex(-0.0, 0.7))
    for x in args + args:
        assert repr(th(x)) == repr(theta(x, p))
    assert len(calls) == len(args)


def test_replace_at_a_new_nome_starts_a_fresh_theta_memo():
    params = _elliptic_point()
    elliptic_F(params)
    moved = replace(params, p=0.2 - 0.15j)
    built = EllipticParams(p=0.2 - 0.15j, q=params.q, lam=params.lam, z=params.z,
                           u=params.u, v=params.v)
    assert elliptic_F(moved) == elliptic_F(built)
    assert elliptic_F(moved) != elliptic_F(params)


def test_theta_memo_changes_neither_repr_nor_equality():
    params, twin = _elliptic_point(), _elliptic_point()
    before = (repr(params), hash(params))
    elliptic_F(params)
    elliptic_G(params)
    assert (repr(params), hash(params)) == before
    assert repr(params) == repr(twin) and params == twin and hash(params) == hash(twin)
    assert "thetas" not in repr(params)


def test_an_exact_point_holds_fractions():
    rat = RatParams(c=2, z=Fraction(1, 3), u=(1, -4), v=(5,))
    tri = TrigParams(q=3, z=2, u=(1,), v=(Fraction(1, 2), 7), lam=-1)
    for point in (rat, tri, TrigParams(q=3, z=2, u=(1,), v=(4,))):
        scalars = [getattr(point, name, None) for name in ("c", "q", "z", "lam")]
        values = [x for x in scalars if x is not None] + [*point.u, *point.v]
        assert all(type(x) is Fraction for x in values), point
        twin = as_fractions(point)
        assert point == twin and hash(point) == hash(twin) and repr(point) == repr(twin)
    assert rat.u == (Fraction(1), Fraction(-4)) and tri.lam == Fraction(-1)
    # one complex or float value of c or q, z, u, v keeps the ints as they
    # are, and no int form
    for point in (RatParams(c=2, z=0.5j, u=(1, -4), v=(5,)),
                  TrigParams(q=0.5, z=2, u=(1,), v=(4,), lam=-1)):
        assert type(point.u[0]) is int and int_form(point) is None


def test_lambda_does_not_decide_exactness():
    # q, z, u, v exact and lam complex or float: F and G are the Fractions of
    # the point without lam, and the trig_lambda sums, linear in lam, walk
    # the d ratio tables with inexact weights
    from srcid.detreps import build_dwbc_matrix

    for lam in (0.5j, 0.5, 1.5 - 2j):
        point = TrigParams(q=2, z=3, u=(1, 4), v=(5, 7), lam=lam)
        assert point.lam == lam and type(point.u[0]) is Fraction
        assert int_form(point) == int_form(TrigParams(q=2, z=3, u=(1, 4), v=(5, 7)))
        assert trig_F(point) == trig_G(point) == Fraction(98, 5)
        assert type(trig_F(point)) is Fraction and type(trig_G(point)) is Fraction
        assert all(type(x) is Fraction for row in build_dwbc_matrix("trig", "F", point)
                   for x in row)
        for sum_ in (trig_lambda_F, trig_lambda_G):
            at_one = sum_(replace(point, lam=1))
            expected = Fraction(98, 5) - lam * (Fraction(98, 5) - at_one)
            assert abs(sum_(point) - complex(expected)) < 1e-12 * abs(expected), sum_


def test_subset_sums_leave_no_reference_cycle():
    subset_sums_by_size([[None, 2], [3, None]], [1, 2], [3, 4])
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            subset_sums_by_size([[None, 2], [3, None]], [1, 2], [3, 4])
        # a cycle left by a call is found only by the collector
        assert gc.collect() == 0
    finally:
        gc.enable()
