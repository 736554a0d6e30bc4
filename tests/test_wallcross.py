"""Wall-crossing combinatorics: collections, chi sums, hook products."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from srcid.qseries import q_factorial
from srcid.sources import TrigParams, trig_F
from srcid.wallcross import (
    chi_genus_integral,
    coeff_identity_sides,
    dec_weight,
    enumerate_dec,
    geometric_sides,
    hook_product_identity,
    hook_product_limit,
    s_stat,
    verify_coeff_identity,
    verify_wallcrossing_K,
    wallcrossing_sides,
)


def rand_fraction(rng, nonzero=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if not nonzero or x != 0:
            return x


def wallcross_point(rng, n, m):
    while True:
        t = rand_fraction(rng)
        if abs(t) == 1:
            continue
        u = tuple(rand_fraction(rng) for _ in range(n))
        v = tuple(rand_fraction(rng) for _ in range(m))
        dens = [a - b for i, a in enumerate(u) for b in u[i + 1 :]]
        dens += [a - b for i, a in enumerate(v) for b in v[i + 1 :]]
        dens += [vi - uk for vi in v for uk in u]
        if all(d != 0 for d in dens):
            return t, u, v


# ---------------------------------------------------------------------------
# decreasing-minima collections
# ---------------------------------------------------------------------------


def brute_force_dec(ell, k):
    """Independent enumeration: all ordered tuples of disjoint nonempty
    subsets with strictly decreasing minima and total size k."""
    elements = list(range(1, ell + 1))
    results = set()

    def extend(prefix, used, last_min):
        total = sum(len(p) for p in prefix)
        if total == k:
            results.add(tuple(frozenset(p) for p in prefix))
            return
        available = [x for x in elements if x not in used]
        for size in range(1, k - total + 1):
            for combo in combinations(available, size):
                if last_min is not None and min(combo) >= last_min:
                    continue
                extend(prefix + [combo], used | set(combo), min(combo))

    extend([], set(), None)
    return results


def singleton_chains(colls):
    """The collections whose parts are all singletons, as int chains."""
    return {tuple(min(part) for part in coll) for coll in colls
            if all(len(part) == 1 for part in coll)}


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 2), (3, 2), (4, 3), (4, 4)])
def test_enumerate_dec_matches_brute_force(ell, k):
    # enumerate_dec lists the collections gamma keeps: the singleton ones
    mine = set(enumerate_dec(ell, k))
    assert mine == singleton_chains(brute_force_dec(ell, k))
    assert len(mine) == len(enumerate_dec(ell, k))  # no duplicates


def test_enumerate_dec_small_counts():
    # total size 1 on [1..2]: (1) and (2)
    assert len(enumerate_dec(2, 1)) == 2
    # total size 2 on [1..2]: (2, 1); the one-part ({1,2}) is not listed
    assert len(enumerate_dec(2, 2)) == 1
    assert len(brute_force_dec(2, 2)) == 2
    assert enumerate_dec(3, 0) == [()]


def test_enumerate_dec_singletons_are_descending_chains():
    for ell in range(1, 6):
        for k in range(ell + 1):
            chains = enumerate_dec(ell, k)
            assert len(chains) == math.comb(ell, k)
            for chain in chains:
                assert all(type(h) is int and 1 <= h <= ell for h in chain)
                assert all(a > b for a, b in zip(chain, chain[1:]))


def test_enumerate_dec_single_singleton_example():
    assert enumerate_dec(2, 2) == [(2, 1)]
    # the order of the k-subsets of [1..l], each chain descending
    assert enumerate_dec(3, 2) == [(2, 1), (3, 1), (3, 2)]


def test_enumerate_dec_cap():
    with pytest.raises(ValueError):
        enumerate_dec(9, 1)


# ---------------------------------------------------------------------------
# the s statistic
# ---------------------------------------------------------------------------


def test_s_stat_examples():
    assert s_stat({2}, {1, 3}) == 1
    assert s_stat({1}, {2, 3}, signed=True) == 2


def test_s_stat_complement_count():
    rng = random.Random(3)
    for _ in range(40):
        pool = rng.sample(range(1, 12), rng.randint(2, 8))
        cut = rng.randint(1, len(pool) - 1)
        i1, i2 = set(pool[:cut]), set(pool[cut:])
        assert s_stat(i1, i2) + s_stat(i2, i1) == len(i1) * len(i2)


# ---------------------------------------------------------------------------
# chi sums
# ---------------------------------------------------------------------------


def chi_literal(sign, ell, t, u, v):
    """The fixed-point subset sum of size ell, one subset at a time."""
    n, m = len(u), len(v)
    if sign == "+":
        total = t - t
        for kset in combinations(range(m), ell):
            inside = set(kset)
            term = t - t + 1
            for i in kset:
                for j in range(m):
                    if j not in inside:
                        term *= (1 - t * v[i] / v[j]) / (1 - v[i] / v[j])
                for uk in u:
                    term *= (1 - t * uk / v[i]) / (1 - uk / v[i])
            total += term
        return total
    if sign == "-":
        total = t - t
        for kset in combinations(range(n), ell):
            inside = set(kset)
            term = t - t + 1
            for i in kset:
                for j in range(n):
                    if j not in inside:
                        term *= (1 - t * u[j] / u[i]) / (1 - u[j] / u[i])
                for vk in v:
                    term *= (1 - t * u[i] / vk) / (1 - u[i] / vk)
            total += term
        return total
    raise ValueError("sign must be '+' or '-'")


def test_chi_matches_the_literal_oracle():
    rng = random.Random(47)
    for n in range(5):
        for m in range(5):
            t, u, v = wallcross_point(rng, n, m)
            for tt in (t, Fraction(1)):
                for sign, size in (("+", m), ("-", n)):
                    for ell in range(size + 2):
                        value = chi_genus_integral(sign, ell, tt, u, v)
                        assert value == chi_literal(sign, ell, tt, u, v), (sign, ell, tt, u, v)
                        assert type(value) is Fraction
                    with pytest.raises(ValueError):
                        chi_genus_integral(sign, -1, tt, u, v)


def test_chi_size_zero_is_one():
    rng = random.Random(5)
    t, u, v = wallcross_point(rng, 2, 3)
    assert chi_genus_integral("+", 0, t, u, v) == 1
    assert chi_genus_integral("-", 0, t, u, v) == 1


def test_chi_at_t_one_counts_subsets():
    rng = random.Random(7)
    _, u, v = wallcross_point(rng, 3, 4)
    for ell in range(5):
        assert chi_genus_integral("+", ell, Fraction(1), u, v) == math.comb(4, ell)
    for ell in range(4):
        assert chi_genus_integral("-", ell, Fraction(1), u, v) == math.comb(3, ell)


def test_chi_rejects_bad_sign():
    with pytest.raises(ValueError):
        chi_genus_integral("x", 0, Fraction(2), (), ())


def test_chi_matches_source_coefficients():
    # the v-side subset sum, re-parametrized with q = 1/t, v -> v/t and
    # z -> t^{m-1} z, groups by |K| into t^{l(l-1)/2} chi+(l) coefficients
    rng = random.Random(11)
    t, u, v = wallcross_point(rng, 2, 3)
    m = len(v)
    z = rand_fraction(rng)
    params = TrigParams(
        q=1 / t,
        z=t ** (m - 1) * z,
        u=u,
        v=tuple(vi / t for vi in v),
    )
    total = trig_F(params)
    series = sum(
        (-z) ** ell * t ** (ell * (ell - 1) // 2) * chi_genus_integral("+", ell, t, u, v)
        for ell in range(m + 1)
    )
    assert total == series


def test_geometric_generating_identity():
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randint(0, 3)
        m = rng.randint(n, 4)
        t, u, v = wallcross_point(rng, n, m)
        z = rand_fraction(rng)
        lhs, rhs = geometric_sides(z, t, u, v)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the coefficient identity and the singleton correction
# ---------------------------------------------------------------------------


def test_coeff_identity_size_zero():
    rng = random.Random(17)
    t, u, v = wallcross_point(rng, 2, 4)
    lhs, rhs = coeff_identity_sides(0, 4, 2, t, u, v)
    assert lhs == 1 and rhs == 1


def test_coeff_identity_square_case_collapses():
    rng = random.Random(19)
    t, u, v = wallcross_point(rng, 3, 3)
    for ell in range(4):
        lhs, rhs = coeff_identity_sides(ell, 3, 3, t, u, v)
        # only k = 0 contributes when m = n
        expected = (
            t ** (ell * (ell - 1) // 2) * chi_genus_integral("-", ell, t, u, v)
        )
        assert rhs == expected
        assert lhs == rhs


def test_coeff_identity_rectangular_exact():
    rng = random.Random(23)
    t, u, v = wallcross_point(rng, 3, 5)
    assert verify_coeff_identity(3, 5, 3, t, u, v) == 0


def test_coeff_identity_grid():
    rng = random.Random(29)
    for _ in range(6):
        n = rng.randint(0, 4)
        m = rng.randint(n, 5)
        ell = rng.randint(0, min(4, m))
        t, u, v = wallcross_point(rng, n, m)
        assert verify_coeff_identity(ell, m, n, t, u, v) == 0


def test_wallcrossing_single_correction():
    rng = random.Random(31)
    t, u, v = wallcross_point(rng, 2, 4)
    lhs, rhs = wallcrossing_sides(1, 4, 2, t, u, v)
    assert lhs == rhs


def test_wallcrossing_exact_example():
    rng = random.Random(37)
    t, u, v = wallcross_point(rng, 2, 4)
    assert verify_wallcrossing_K(3, 4, 2, t, u, v) == 0


def test_wallcrossing_grid():
    rng = random.Random(41)
    for _ in range(6):
        n = rng.randint(0, 4)
        m = rng.randint(n, 5)
        ell = rng.randint(1, 4)
        t, u, v = wallcross_point(rng, n, m)
        assert verify_wallcrossing_K(ell, m, n, t, u, v) == 0


def test_dec_sum_over_chains_is_the_correction_rhs():
    # the Dec sum over the singleton chains of a brute-force enumeration,
    # each chain weighted by dec_weight and chi-(l - k)
    rng = random.Random(43)
    t, u, v = wallcross_point(rng, 2, 4)
    ell = 3
    chains = [chain for k in range(1, ell + 1)
              for chain in singleton_chains(brute_force_dec(ell, k))]
    assert len(chains) == 2**ell - 1
    facts = [q_factorial(j, t) for j in range(ell + 1)]
    minus = [chi_genus_integral("-", j, t, u, v) for j in range(ell + 1)]
    full = sum(dec_weight(chain, ell, 4, 2, t, facts) * minus[ell - len(chain)]
               for chain in chains)
    assert full == wallcrossing_sides(ell, 4, 2, t, u, v)[1]


# ---------------------------------------------------------------------------
# hook products
# ---------------------------------------------------------------------------


def test_hook_product_full_chain_case():
    # l = k: both sides reduce to (d)_t (d-1)_t ... (d-k+1)_t
    from srcid.qseries import sym_q_number

    s = Fraction(3, 2)
    for k in (1, 2, 3):
        d = k + 2
        lhs, rhs = hook_product_identity(k, k, d, s)
        expected = Fraction(1)
        for j in range(k):
            expected *= sym_q_number(d - j, s)
        assert lhs == expected
        assert rhs == expected


def test_hook_product_empty_chain():
    lhs, rhs = hook_product_identity(5, 0, 3, Fraction(2))
    assert lhs == 1 and rhs == 1


def test_hook_product_example():
    lhs, rhs = hook_product_identity(4, 2, 3, Fraction(2))
    assert lhs == rhs


def test_hook_product_grid():
    svals = [Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3), Fraction(7, 4)]
    for ell in range(7):
        for d in range(7):
            for k in range(min(ell, d) + 1):
                for s in svals:
                    lhs, rhs = hook_product_identity(ell, k, d, s)
                    assert lhs == rhs, (ell, k, d, s)


def test_hook_product_limit_grid():
    for ell in range(7):
        for d in range(7):
            for k in range(min(ell, d) + 1):
                lhs, rhs = hook_product_limit(ell, k, d)
                assert lhs == rhs == math.comb(d, k), (ell, k, d)


def test_hook_product_validation():
    with pytest.raises(ValueError):
        hook_product_identity(3, 4, 5, Fraction(2))
    with pytest.raises(ValueError):
        hook_product_identity(3, 2, 1, Fraction(2))
