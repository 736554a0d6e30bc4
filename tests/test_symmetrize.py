"""Divided differences, the c-twisted symmetrizer, and the closed forms."""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest

from srcid.detreps import izergin_korepin
from srcid.sources import RatParams, rational_P
from srcid.symmetrize import (
    PERM_CAP,
    divided_difference,
    lascoux_rhs_via_source,
    lascoux_symmetrized_sides,
    lascoux_tau_rhs_via_source,
    lascoux_tau_sides,
    newton_chain,
    poly_eval,
    reduction_identity_sides,
    sym_c,
)


def rand_fraction(rng, nonzero=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if not nonzero or x != 0:
            return x


def lascoux_point(rng, n):
    while True:
        c = rand_fraction(rng)
        u = []
        while len(u) < n:
            x = rand_fraction(rng)
            if x not in u:
                u.append(x)
        v = []
        while len(v) < n:
            x = rand_fraction(rng)
            if x not in v:
                v.append(x)
        u, v = tuple(u), tuple(v)
        dens = [vi - uk for vi in v for uk in u]
        dens += [vi - uk - c for vi in v for uk in u]
        dens += [vi - uk + c for vi in v for uk in u]
        dens += [a - b - c for a in u for b in u if a != b]
        if all(d != 0 for d in dens):
            return c, u, v


def at(c, u, v):
    """The rational point at z = 1 that the sides and source routes take."""
    return RatParams(c=c, z=Fraction(1), u=tuple(u), v=tuple(v))


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------


def test_divided_difference_square():
    f = lambda xs: xs[0] ** 2
    assert divided_difference(f, (Fraction(3), Fraction(5)), 0) == 8


def test_divided_difference_kills_symmetric():
    f = lambda xs: xs[0] * xs[1] + (xs[0] + xs[1]) ** 2
    assert divided_difference(f, (Fraction(3), Fraction(5)), 0) == 0


def test_divided_difference_finite_difference_oracle():
    rng = random.Random(3)
    coeffs = [rand_fraction(rng) for _ in range(4)]
    f = lambda xs: poly_eval(coeffs, xs[0])
    for _ in range(20):
        x, y = rand_fraction(rng), rand_fraction(rng)
        if x == y:
            continue
        expected = (poly_eval(coeffs, x) - poly_eval(coeffs, y)) / (x - y)
        assert divided_difference(f, (x, y), 0) == expected


def test_divided_difference_rejects_coincident():
    with pytest.raises(ZeroDivisionError):
        divided_difference(lambda xs: xs[0], (Fraction(1), Fraction(1)), 0)


# ---------------------------------------------------------------------------
# newton chains
# ---------------------------------------------------------------------------


def test_newton_chain_monic_quadratic():
    rng = random.Random(5)
    for _ in range(5):
        pts = set()
        while len(pts) < 3:
            pts.add(rand_fraction(rng))
        assert newton_chain([0, 0, 1], tuple(pts)) == 1


def test_newton_chain_low_degree_vanishes():
    rng = random.Random(7)
    coeffs = [rand_fraction(rng) for _ in range(3)]  # degree 2 < n - 1 = 3
    pts = set()
    while len(pts) < 5:
        pts.add(rand_fraction(rng))
    assert newton_chain(coeffs, tuple(pts)) == 0


def test_newton_chain_hook_polynomial_gives_minus_nc():
    # f(x) = prod (x - v_k - c) - prod (x - v_k) has leading x^{n-1} coeff -n c
    rng = random.Random(11)
    for n in (2, 3, 4):
        c, u, v = lascoux_point(rng, n)
        coeffs = _hook_poly_coeffs(v, c)
        assert newton_chain(coeffs, u) == -n * c


def _hook_poly_coeffs(v, c):
    n = len(v)
    shifted = _poly_from_roots([vk + c for vk in v])
    plain = _poly_from_roots(list(v))
    return [a - b for a, b in zip(shifted, plain)]


def _poly_from_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, a in enumerate(coeffs):
            nxt[d + 1] += a
            nxt[d] -= a * r
        coeffs = nxt
    return coeffs


def test_newton_chain_permutation_invariance():
    rng = random.Random(13)
    coeffs = [rand_fraction(rng) for _ in range(5)]
    pts = []
    while len(pts) < 4:
        x = rand_fraction(rng)
        if x not in pts:
            pts.append(x)
    base = newton_chain(coeffs, tuple(pts))
    for _ in range(10):
        rng.shuffle(pts)
        assert newton_chain(coeffs, tuple(pts)) == base


def test_newton_chain_equals_operator_chain():
    # literal d_{n-1} ... d_1 applied to f(x_1) for n <= 4
    rng = random.Random(17)
    for n in (2, 3, 4):
        coeffs = [rand_fraction(rng) for _ in range(n + 1)]
        pts = []
        while len(pts) < n:
            x = rand_fraction(rng)
            if x not in pts:
                pts.append(x)
        pts = tuple(pts)
        assert operator_chain(coeffs, pts) == newton_chain(coeffs, pts)


def operator_chain(coeffs, u):
    """d_{n-1} ... d_1 f(u_1), each divided difference applied literally."""
    fn = lambda xs: poly_eval(coeffs, xs[0])
    for k in range(len(u) - 1):
        fn = _apply_dd(fn, k)
    return fn(tuple(u))


def _apply_dd(f, k):
    def out(xs):
        return divided_difference(f, xs, k)

    return out


# ---------------------------------------------------------------------------
# the twisted symmetrizer
# ---------------------------------------------------------------------------


def delta_product(xs, c):
    """Delta factor prod_{i<j} (x_i - x_j - c)/(x_i - x_j)."""
    acc = c - c + 1
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            acc *= (xs[i] - xs[j] - c) / (xs[i] - xs[j])
    return acc


def sym_c_literal(slots, u, c):
    """Sym_c by its definition: the Delta-twisted slot product over all n! orderings."""
    total = c - c
    for xs in permutations(u):
        term = delta_product(xs, c)
        for slot, x in zip(slots, xs):
            term *= slot(x)
        total += term
    return total


def distinct_points(rng, n):
    pts = []
    while len(pts) < n:
        x = rand_fraction(rng)
        if x not in pts:
            pts.append(x)
    return tuple(pts)


def one(x):
    return Fraction(1)


def rows(slots, u):
    """The slot functions as plain slot rows: each slot's values at u."""
    return [[slot(x) for x in u] for slot in slots]


def product(slot_rows):
    """One slot product as sym_c takes it: (before, at, after), switch at the last slot."""
    return slot_rows, [[0] * len(row) for row in slot_rows[:-1]] + slot_rows[-1:], slot_rows


def test_sym_c_single_variable():
    u = (Fraction(3),)
    assert sym_c(product(rows([lambda x: x**2 + 1], u)), u, Fraction(5)) == 10


def test_sym_c_constant_at_c_zero():
    rng = random.Random(19)
    for n in (2, 3, 4):
        pts = distinct_points(rng, n)
        assert sym_c(product(rows([one] * n, pts)), pts, Fraction(0)) == math.factorial(n)


def test_sym_c_twisted_constant_sum():
    # sum over S_n of the Delta twist alone is n!
    rng = random.Random(23)
    c, u, _ = lascoux_point(rng, 3)
    assert sym_c(product(rows([one] * 3, u)), u, c) == 6


def test_sym_c_of_one_is_n_factorial():
    # the rational Hall-Littlewood limit: Sym_c(1) = n! for every c
    rng = random.Random(24)
    for n in range(1, PERM_CAP + 1):
        c = rand_fraction(rng)
        u = distinct_points(rng, n)
        assert sym_c(product(rows([one] * n, u)), u, c) == math.factorial(n)


def test_sym_c_matches_the_literal_permutation_sum():
    # random exact slot tables, some entries zero, some slots an indicator
    rng = random.Random(25)
    for n in range(1, 7):
        for trial in range(4):
            c = rand_fraction(rng)
            u = distinct_points(rng, n)
            slots = []
            for _ in range(n):
                values = {x: rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for x in u}
                slots.append(values.__getitem__)
            if trial % 2:
                pinned = rng.choice(u)
                slots[rng.randrange(n)] = lambda x, p=pinned: Fraction(int(x == p))
            assert sym_c(product(rows(slots, u)), u, c) == sym_c_literal(slots, u, c)


def big_fraction(rng):
    # denominators from one to six digits, with shared and coprime factors
    den = rng.choice((1, 7, 12, 360, 9973, 2**17, 3**9 * 5, 999983)) * rng.randint(1, 40)
    return Fraction(rng.randint(-(10**6), 10**6), den)


def test_sym_c_matches_the_literal_sum_on_large_mixed_denominators():
    rng = random.Random(27)
    for n in range(1, 7):
        for trial in range(4):
            c = Fraction(0) if trial == 3 else big_fraction(rng)
            u = []
            while len(u) < n:
                x = big_fraction(rng)
                if x not in u:
                    u.append(x)
            plain = {x: big_fraction(rng) for x in u}.__getitem__
            sparse = {x: big_fraction(rng) if rng.random() < 0.5 else 0 for x in u}.__getitem__
            slots = [rng.choice((plain, sparse)) for _ in range(n)]
            if trial == 2:
                slots[rng.randrange(n)] = lambda x: Fraction(0)
            got = sym_c(product(rows(slots, u)), u, c)
            assert type(got) is Fraction
            assert got == sym_c_literal(slots, u, c)
            if trial == 2:
                assert got == 0


def test_sym_c_of_int_inputs_is_the_exact_fraction():
    rng = random.Random(28)
    for n in range(1, 7):
        c = rng.choice((0, rng.randint(1, 9), -rng.randint(1, 9)))
        u = rng.sample(range(-30, 30), n)
        values = [{x: rng.randint(-9, 9) for x in u} for _ in range(n)]
        got = sym_c(product(rows([v.__getitem__ for v in values], u)), u, c)
        exact = [{Fraction(x): Fraction(y) for x, y in v.items()} for v in values]
        slots = [v.__getitem__ for v in exact]
        points = [Fraction(x) for x in u]
        want = sym_c(product(rows(slots, points)), points, Fraction(c))
        assert type(got) is Fraction
        assert got == want == sym_c_literal(slots, points, Fraction(c))


def test_sym_c_rejects_inexact_input():
    # the symmetrizer is exact-only: a complex or float c, point or slot value
    # (alone or mixed with Fractions) raises TypeError, and a short row ValueError
    rng = random.Random(29)
    c, u = rand_fraction(rng), distinct_points(rng, 3)

    def exact(x):
        return x * x + 1

    def cplx(x):
        return complex(x) + 1j

    exact_rows = rows([exact] * 3, u)
    assert sym_c(product(exact_rows), u, c) == sym_c_literal([exact] * 3, u, c)
    complex_u = [complex(x) for x in u]
    for slot_rows, points, shift in (
        (rows([cplx] * 3, u), u, c),  # complex slot values
        (rows([exact, cplx, exact], u), u, c),  # one complex slot among exact ones
        (rows([exact] * 3, complex_u), complex_u, complex(c)),  # all complex
        (exact_rows, u, float(c)),  # a float c
        (exact_rows, (float(u[0]), *u[1:]), c),  # one float point
        (rows([lambda x: 0.5] * 3, u), u, c),  # float slot values
    ):
        with pytest.raises(TypeError, match="sym_c needs ints and Fractions"):
            sym_c(product(slot_rows), points, shift)
    with pytest.raises(ValueError):
        sym_c(product([exact_rows[0][:2], *exact_rows[1:]]), u, c)


def test_sym_c_matches_the_literal_binomial_sum():
    # random per-position (before, at, after) rows, some entries zero, some at
    # rows the pin of one point, against sum_t of the literal permutation sums
    rng = random.Random(30)
    for n in range(1, 7):
        for trial in range(3 if n < 6 else 2):
            c = Fraction(0) if trial == 1 else rand_fraction(rng)
            u = distinct_points(rng, n)

            def random_rows():
                return [[rand_fraction(rng) if rng.random() < 0.7 else 0 for _ in u]
                        for _ in u]

            before, at, after = random_rows(), random_rows(), random_rows()
            if trial != 1:
                pinned = rng.randrange(n)
                at[rng.randrange(n)] = [int(k == pinned) for k in range(n)]
            fns = [[dict(zip(u, row)).__getitem__ for row in rows]
                   for rows in (before, at, after)]
            want = sum(sym_c_literal(fns[0][:t] + [fns[1][t]] + fns[2][t + 1:], u, c)
                       for t in range(n))
            got = sym_c((before, at, after), u, c)
            assert type(got) is Fraction
            assert got == want


def test_sym_c_rejects_bad_arguments():
    rng = random.Random(26)
    u = distinct_points(rng, PERM_CAP + 1)
    with pytest.raises(ValueError):
        sym_c(product(rows([one] * len(u), u)), u, Fraction(1))
    with pytest.raises(ValueError, match="capped"):  # the cap is checked before any value
        sym_c(product([[1j] * len(u)] * len(u)), u, Fraction(1))
    square = rows([one] * 3, u[:3])
    for slots in (
        (square, square),  # two lists
        (square, square, square, square),  # four lists
        (square, square[:2], square),  # an at list of n - 1 rows
        (square, square, [*square[:2], square[2][:2]]),  # a short after row
        ([*square, square[0]], square, square),  # a before list of n + 1 rows
    ):
        with pytest.raises(ValueError, match="before, at, after"):
            sym_c(slots, u[:3], Fraction(1))
    with pytest.raises(ValueError):
        sym_c(product(rows([one] * 2, u[:3])), u[:3], Fraction(1))
    with pytest.raises(ZeroDivisionError):
        pts = (Fraction(1), Fraction(1))
        sym_c(product(rows([one] * 2, pts)), pts, Fraction(1))


def test_delta_product_empty():
    assert delta_product((), Fraction(3)) == 1


# ---------------------------------------------------------------------------
# the two symmetrization closed forms
# ---------------------------------------------------------------------------


N2_EXPECTED = (
    lambda u1, u2, v1, v2, c: -c
    * (
        c**2
        + c * u1
        + c * u2
        - c * v1
        - c * v2
        - u1 * v1
        - u2 * v1
        - u1 * v2
        - u2 * v2
        + 2 * u1 * u2
        + 2 * v1 * v2
    )
)


def test_symmetrization_n2_closed_polynomial():
    # with f(x) = x the divided difference is 1, so the n = 2 value is the
    # quoted cubic polynomial; check at 12 interpolation points
    rng = random.Random(29)
    hits = 0
    while hits < 12:
        c, u, v = lascoux_point(rng, 2)
        lhs, rhs, _ = lascoux_symmetrized_sides(at(c, u, v), [Fraction(0), Fraction(1)])
        expected = N2_EXPECTED(u[0], u[1], v[0], v[1], c)
        assert lhs == expected
        assert rhs == expected
        hits += 1


def test_symmetrization_c_zero_vanishes():
    rng = random.Random(31)
    for n in (2, 3, 4):
        _, u, v = lascoux_point(rng, n)
        coeffs = [rand_fraction(rng) for _ in range(n)]
        lhs, rhs, _ = lascoux_symmetrized_sides(at(Fraction(0), u, v), coeffs)
        assert lhs == 0
        assert rhs == 0


def test_symmetrization_identity_exact():
    rng = random.Random(37)
    for n in (2, 3, 4, 5):
        c, u, v = lascoux_point(rng, n)
        degree = rng.randint(0, n)
        coeffs = [rand_fraction(rng) for _ in range(degree + 1)]
        lhs, rhs, _ = lascoux_symmetrized_sides(at(c, u, v), coeffs)
        assert lhs == rhs


def test_symmetrization_rhs_via_source_polynomial():
    rng = random.Random(41)
    for n in (2, 3, 4):
        c, u, v = lascoux_point(rng, n)
        coeffs = [rand_fraction(rng) for _ in range(n)]
        point = at(c, u, v)
        _, rhs, form = lascoux_symmetrized_sides(point, coeffs)
        assert rhs == form * newton_chain(coeffs, u)
        assert form == lascoux_rhs_via_source(point)


def test_the_rhs_chain_is_the_newton_table_and_the_operator_chain():
    # the sides read f[u_1..u_n] off the int row of f at L u; the generic
    # Fraction table and the literal operator chain are its oracles, at every
    # degree 0..n+1 (below n - 1 the chain is 0) and at points with negative,
    # integer and non-integer coordinates
    rng = random.Random(89)
    signs, fractional = set(), set()
    for n in range(1, 9):
        for degree in range(n + 2):
            c, u, v = lascoux_point(rng, n)
            if degree == n:  # scaled to ints, where the int form's L is 1
                lcm = math.lcm(*(x.denominator for x in (c, *u, *v)))
                c, u, v = c * lcm, tuple(x * lcm for x in u), tuple(x * lcm for x in v)
            coeffs = [rand_fraction(rng) for _ in range(degree + 1)]
            point = at(c, u, v)
            _, rhs, form = lascoux_symmetrized_sides(point, coeffs)
            chain = newton_chain(coeffs, u)
            assert type(rhs) is Fraction
            assert rhs == form * chain
            assert chain == operator_chain(coeffs, u)
            if degree < n - 1:
                assert rhs == chain == 0
            signs.update(x > 0 for x in u)
            fractional.update(x.denominator > 1 for x in u)
    assert signs == fractional == {True, False}


def test_the_tau_and_reduction_rhs_are_the_fraction_formulas():
    # the rhs routes divide by products over the int form; here they are
    # written out over the point's Fractions
    rng = random.Random(97)
    for n in range(1, 8):
        for _ in range(2):
            c, u, v = lascoux_point(rng, n)
            point = at(c, u, v)
            shifted = at(c, u, [x + c for x in v])
            _, rhs = lascoux_tau_sides(point)
            want = math.factorial(n) * (-1) ** n * izergin_korepin(shifted)
            assert rhs == want / math.prod(vi - uk for vi in v for uk in u)
            want = math.factorial(n) * rational_P(shifted)
            assert lascoux_tau_rhs_via_source(point) == want / math.prod(
                uj - vk for uj in u for vk in v)
            _, rhs = reduction_identity_sides(point)
            want = math.factorial(n - 1) * rational_P(point)
            assert rhs == want / (-c * math.prod(u[0] - u[j] for j in range(1, n)))


def test_tau_symmetrization_n1():
    rng = random.Random(43)
    c, u, v = lascoux_point(rng, 1)
    lhs, rhs = lascoux_tau_sides(at(c, u, v))
    assert lhs == -c / (u[0] - v[0])
    assert rhs == lhs


def test_tau_symmetrization_n2_closed_form():
    rng = random.Random(47)
    c, u, v = lascoux_point(rng, 2)
    u1, u2 = u
    v1, v2 = v
    expected = (
        2
        * c**2
        * (
            c**2
            - c * u1
            - c * u2
            + c * v1
            + c * v2
            - u1 * v1
            - u2 * v1
            - u1 * v2
            - u2 * v2
            + 2 * u1 * u2
            + 2 * v1 * v2
        )
        / ((u1 - v1) * (u1 - v2) * (u2 - v1) * (u2 - v2))
    )
    lhs, rhs = lascoux_tau_sides(at(c, u, v))
    assert lhs == expected
    assert rhs == expected


def test_tau_symmetrization_c_zero():
    rng = random.Random(53)
    for n in (1, 2, 3):
        _, u, v = lascoux_point(rng, n)
        lhs, rhs = lascoux_tau_sides(at(Fraction(0), u, v))
        assert lhs == 0
        assert rhs == 0


def test_tau_symmetrization_identity_exact():
    rng = random.Random(59)
    for n in (1, 2, 3, 4, 5):
        c, u, v = lascoux_point(rng, n)
        lhs, rhs = lascoux_tau_sides(at(c, u, v))
        assert lhs == rhs


def test_tau_rhs_via_shifted_source_polynomial():
    rng = random.Random(61)
    for n in (1, 2, 3):
        c, u, v = lascoux_point(rng, n)
        point = at(c, u, v)
        _, rhs = lascoux_tau_sides(point)
        assert rhs == lascoux_tau_rhs_via_source(point)


def test_reduction_identity_exact():
    rng = random.Random(67)
    for n in (2, 3, 4, 5):
        c, u, v = lascoux_point(rng, n)
        lhs, rhs = reduction_identity_sides(at(c, u, v))
        assert lhs == rhs


def test_sides_lhs_is_the_binomial_sum_over_fraction_slots():
    # the sides sum over int slot tables at a scaled point; the oracle sums
    # sym_c_literal over plain Fraction slot functions at (u, v, c) itself,
    # each slot function cached so that n = 6 evaluates it n times, not n! n
    rng = random.Random(73)
    for n in range(1, 7):
        for trial in range(2 if n < 5 else 1):
            while True:
                c = Fraction(0) if (n, trial) == (3, 1) else big_fraction(rng)
                u = tuple(big_fraction(rng) for _ in range(n))
                v = tuple(big_fraction(rng) for _ in range(n))
                if len(set(u)) == n and not set(u) & set(v):
                    break
            coeffs = [big_fraction(rng) for _ in range(rng.randint(0, n + 1))]

            @cache
            def plain(x):
                return math.prod(x - vk for vk in v)

            @cache
            def shifted(x):
                return math.prod(x - vk + c for vk in v)

            @cache
            def ratio(x):
                return math.prod((x - vk - c) / (x - vk) for vk in v)

            def theta_sum(head):
                return sum(
                    (-1) ** (ell - 1) * math.comb(n - 1, ell - 1) * sym_c_literal(
                        [shifted] * (ell - 1) + [head] + [plain] * (n - ell), u, c)
                    for ell in range(1, n + 1)
                )

            point = at(c, u, v)
            lhs, _, _ = lascoux_symmetrized_sides(point, coeffs)
            assert lhs == theta_sum(cache(lambda x: poly_eval(coeffs, x)))
            assert type(lhs) is Fraction

            lhs, _ = lascoux_tau_sides(point)
            assert lhs == sum(
                (-1) ** t * math.comb(n, t) * sym_c_literal([one] * t + [ratio] * (n - t), u, c)
                for t in range(n + 1)
            )
            assert type(lhs) is Fraction

            if n >= 2 and c:  # its rhs divides by c
                lhs, _ = reduction_identity_sides(point)
                assert lhs == theta_sum(cache(lambda x: Fraction(int(x == u[0]))))
                assert type(lhs) is Fraction


@pytest.mark.parametrize("sizes", [(3, 4), (4, 3), (0, 0), (4, 4, Fraction(2))])
def test_sides_and_source_routes_reject_unequal_or_empty_sizes(sizes):
    # (n, m) at z = 1, or (n, n, z) at a z != 1
    rng = random.Random(79)
    c, u, v = lascoux_point(rng, 4)
    n, m, z = (*sizes, Fraction(1))[:3]
    point = RatParams(c=c, z=z, u=u[:n], v=v[:m])
    coeffs = [Fraction(1), Fraction(2)]
    for call in (
        lambda: lascoux_symmetrized_sides(point, coeffs),
        lambda: lascoux_rhs_via_source(point),
        lambda: lascoux_tau_sides(point),
        lambda: lascoux_tau_rhs_via_source(point),
        lambda: reduction_identity_sides(point),
    ):
        with pytest.raises(ValueError, match="needs len"):
            call()


@pytest.mark.parametrize("sides", [
    lambda point: lascoux_symmetrized_sides(point, [Fraction(1)]),
    lascoux_tau_sides,
    lascoux_tau_rhs_via_source,
    reduction_identity_sides,
], ids=["theta", "tau", "tau-source", "reduction"])
def test_sides_reject_a_complex_point(sides):
    rng = random.Random(83)
    c, u, v = lascoux_point(rng, 3)
    point = RatParams(c=complex(c), z=1, u=tuple(map(complex, u)), v=tuple(map(complex, v)))
    with pytest.raises(TypeError, match="needs ints and Fractions"):
        sides(point)


def test_symmetrization_identities_beyond_the_registry_sizes():
    # the registry draws n <= 6; the subset DP reaches PERM_CAP at library level
    rng = random.Random(71)
    for n in range(7, PERM_CAP + 1):
        c, u, v = lascoux_point(rng, n)
        coeffs = [rand_fraction(rng) for _ in range(n + 1)]
        point = at(c, u, v)
        lhs, rhs, form = lascoux_symmetrized_sides(point, coeffs)
        assert lhs == rhs == form * newton_chain(coeffs, u)
        assert form == lascoux_rhs_via_source(point)
        lhs, rhs = lascoux_tau_sides(point)
        assert lhs == rhs == lascoux_tau_rhs_via_source(point)
        lhs, rhs = reduction_identity_sides(point)
        assert lhs == rhs
