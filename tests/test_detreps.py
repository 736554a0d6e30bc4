"""Determinant representations against the subset-sum sources."""

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from srcid.detreps import (
    AUX_DRAWS,
    FAMILIES,
    _side,
    AuxInvariantError,
    AuxParams,
    UnavailableRepresentationError,
    build_dwbc_matrix,
    det_rep,
    izergin_korepin,
    izergin_korepin_core,
)
from srcid.fields import to_integers
from srcid.linalg import det, det_exact, prod, vandermonde
from srcid.qseries import psi_A
from srcid.sources import (
    REGIMES,
    EllipticParams,
    RatParams,
    TrigParams,
    elliptic_F,
    elliptic_G,
    general_position,
    int_form,
    integer_member_products,
    member_ratios,
    rational_P,
    source_subset_sum,
)

def rand_fraction(rng, nonzero=True):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if not nonzero or x != 0:
            return x


def rand_complex(rng, lo=0.4, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def distinct_fractions(rng, count, avoid=()):
    out = []
    while len(out) < count:
        x = rand_fraction(rng)
        if x not in out and x not in avoid:
            out.append(x)
    return tuple(out)


def mix_matrix(rng, size, complex_field=False):
    while True:
        rows = tuple(
            tuple(rng.randint(-5, 5) for _ in range(size)) for _ in range(size)
        )
        if size == 0 or det_exact(rows) != 0:
            if complex_field:
                return tuple(tuple(complex(x) for x in row) for row in rows)
            return tuple(tuple(Fraction(x) for x in row) for row in rows)


def sample_rational(rng, n, m):
    while True:
        c = rand_fraction(rng)
        z = rand_fraction(rng)
        u = distinct_fractions(rng, n)
        v = distinct_fractions(rng, m)
        dens = [1 - z]
        dens += [vi - uk for vi in v for uk in u]
        dens += [vi - uk - c for vi in v for uk in u]
        if all(d != 0 for d in dens):
            return RatParams(c=c, z=z, u=u, v=v)


def sample_trig(rng, n, m):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if q == 0 or abs(q) == 1:
            continue
        z = rand_fraction(rng)
        u = distinct_fractions(rng, n)
        v = distinct_fractions(rng, m)
        dens = [vi - uk for vi in v for uk in u]
        dens += [vi - q * uk for vi in v for uk in u]
        dens += [1 - q ** (-j) * z for j in range(1, max(0, n - m) + 1)]
        if all(d != 0 for d in dens):
            return TrigParams(q=q, z=z, u=u, v=v)


def sample_aux(rng, size, complex_field=False):
    r = rand_fraction(rng)
    eta = distinct_fractions(rng, size)
    delta = Fraction(rng.randint(20, 100), 10)
    mat = mix_matrix(rng, size, complex_field)
    if complex_field:
        return AuxParams(
            r=complex(float(r)),
            mat=mat,
            delta=complex(float(delta)),
            eta=tuple(complex(float(e)) for e in eta),
        )
    return AuxParams(r=r, mat=mat, delta=delta, eta=eta)


# ---------------------------------------------------------------------------
# stated examples
# ---------------------------------------------------------------------------


def test_ik_1x1_is_minus_c():
    rng = random.Random(2)
    for _ in range(5):
        u, v, c = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        if v - u == 0 or v - u - c == 0:
            continue
        assert izergin_korepin(RatParams(c=c, z=Fraction(1), u=(u,), v=(v,))) == -c


def test_ik_equals_cleared_polynomial():
    rng = random.Random(3)
    while True:
        params = sample_rational(rng, 3, 3)
        one = Fraction(1)
        params = RatParams(c=params.c, z=one, u=params.u, v=params.v)
        break
    via_det = izergin_korepin(params)
    assert via_det == rational_P(params)


def test_ik_is_minus_c_to_the_n_times_its_core():
    rng = random.Random(4)
    for n in range(1, 6):
        params = replace(sample_rational(rng, n, n), z=Fraction(1))
        u, v, c = params.u, params.v, params.c
        assert izergin_korepin(params) == (-c) ** n * izergin_korepin_core(params, 1)
        assert izergin_korepin(params) == izergin_korepin_core(params, (-c) ** n)
        # defined at c = 0, where the (-c)^n factor alone vanishes
        assert izergin_korepin_core(replace(params, c=Fraction(0)), 1) != 0
        # complex points keep the rounding of the prefactor written out in front
        uc, vc, cc = (tuple(complex(x) for x in xs) for xs in (u, v, (c,)))
        cc = cc[0]
        written = (-cc) ** n
        written *= prod((vi - uk) * (vi - uk - cc) for vi in vc for uk in uc)
        written /= prod(vc[j] - vc[i] for i in range(n) for j in range(i + 1, n))
        written /= prod(uc[i] - uc[j] for i in range(n) for j in range(i + 1, n))
        written *= det([[1 / ((vj - uk) * (vj - uk - cc)) for uk in uc] for vj in vc])
        assert izergin_korepin(RatParams(c=cc, z=1 + 0j, u=uc, v=vc)) == written


def test_ik_preconditions():
    params = RatParams(c=Fraction(1), z=Fraction(2), u=(Fraction(0),), v=(Fraction(5),))
    # ik is not a per-side representation: its entry point is izergin_korepin
    with pytest.raises(UnavailableRepresentationError):
        det_rep("rational", "ik", "F", params)
    # the IK functions check z == 1 and n == m themselves
    unequal = replace(params, z=Fraction(1), v=(Fraction(5), Fraction(6)))
    for point, message in ((params, "ik requires z == 1"), (unequal, "ik requires n == m")):
        for call in (izergin_korepin, lambda point: izergin_korepin_core(point, 1)):
            with pytest.raises(ValueError, match=message):
                call(point)


def test_scalar_product_m1_z0_is_one():
    params = TrigParams(q=Fraction(3), z=Fraction(0), u=(), v=(Fraction(2),))
    assert det_rep("trig", "scalar_product", "F", params) == 1


def test_rational_mpt_G_two_aux_draws():
    rng = random.Random(5)
    params = sample_rational(rng, 2, 3)
    ref = source_subset_sum("rational", "G", params)
    for _ in range(3):
        aux1 = sample_aux(rng, 2)
        aux2 = sample_aux(rng, 2)
        v1 = det_rep("rational", "mpt", "G", params, aux1)
        v2 = det_rep("rational", "mpt", "G", params, aux2)
        assert v1 == ref
        assert v2 == v1


# ---------------------------------------------------------------------------
# domain-wall matrices
# ---------------------------------------------------------------------------


def test_dwbc_square_case_has_no_monomial_rows():
    rng = random.Random(7)
    params = sample_trig(rng, 3, 3)
    matrix = build_dwbc_matrix("trig", "F", params)
    assert len(matrix) == 3
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            expected = 1 / (params.v[i] - params.u[j]) - params.z * 1 / (
                params.v[i] - params.q * params.u[j]
            )
            assert entry == expected


def test_dwbc_rational_tail_row_example():
    rng = random.Random(11)
    params = sample_rational(rng, 2, 1)
    matrix = build_dwbc_matrix("rational", "G", params)
    # n = 2, m = 1: row 2 is u_j^0 - z (u_j + c)^0 = 1 - z
    assert matrix[1] == [1 - params.z, 1 - params.z]


def test_dwbc_full_value_example():
    rng = random.Random(13)
    params = sample_rational(rng, 3, 2)
    assert det_rep("rational", "dwbc", "F", params) == source_subset_sum(
        "rational", "F", params
    )


def test_dwbc_rejects_elliptic():
    with pytest.raises(UnavailableRepresentationError):
        build_dwbc_matrix("elliptic", "F", None)


# ---------------------------------------------------------------------------
# availability and aux validation
# ---------------------------------------------------------------------------


def test_availability_matrix():
    assert FAMILIES["elliptic"].keys() == {"mpt", "bs"}
    with pytest.raises(UnavailableRepresentationError):
        det_rep("elliptic", "dwbc", "F", None)
    with pytest.raises(UnavailableRepresentationError):
        det_rep("trig", "ik", "F", None)
    with pytest.raises(UnavailableRepresentationError):
        det_rep("sinusoidal", "mpt", "F", None)


def test_aux_invariants_enforced():
    rng = random.Random(17)
    params = sample_trig(rng, 2, 2)
    singular = AuxParams(r=Fraction(1, 2), mat=((1, 1), (1, 1)))
    with pytest.raises(AuxInvariantError):
        det_rep("trig", "mpt", "F", params, singular)
    repeated_eta = AuxParams(delta=Fraction(5, 2), eta=(Fraction(1), Fraction(1)))
    with pytest.raises(AuxInvariantError):
        det_rep("trig", "bs", "F", params, repeated_eta)
    bad_delta = AuxParams(delta=Fraction(1), eta=(Fraction(1), Fraction(2)))
    with pytest.raises(AuxInvariantError):
        det_rep("trig", "bs", "F", params, bad_delta)


def test_admissibility_rejects_a_vanishing_mpt_weight():
    # at r prod nodes = 1 the flat mpt weight 1 - r prod nodes is 0
    rng = random.Random(23)
    for regime, sample in (("rational", sample_rational), ("trig", sample_trig)):
        params = sample(rng, 2, 3)
        for side, nodes in (("F", params.v), ("G", params.u)):
            size = len(nodes)
            mat = tuple(tuple(Fraction(i == j) for j in range(size)) for i in range(size))
            hit = AuxParams(r=1 / prod(nodes), mat=mat)
            assert AUX_DRAWS["mpt"].admissible(regime, side, params, hit) == [0]
            fine = AuxParams(r=2 / prod(nodes), mat=mat)
            assert 0 not in AUX_DRAWS["mpt"].admissible(regime, side, params, fine)


def test_admissibility_lists_the_bs_nodes_and_delta():
    params = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=(Fraction(1),), v=(Fraction(2),))
    eta = (Fraction(1), Fraction(3))
    for delta in (Fraction(0), Fraction(1)):
        aux = AuxParams(delta=delta, eta=eta)
        assert 0 in AUX_DRAWS["bs"].admissible("rational", "F", params, aux)
    aux = AuxParams(delta=Fraction(5, 2), eta=(Fraction(3), Fraction(3)))
    assert 0 in AUX_DRAWS["bs_limit"].admissible("rational", "F", params, aux)
    assert "dwbc" not in AUX_DRAWS


def test_admissibility_lists_each_distinct_degenerate_delta_once():
    """bs lists delta and lambda^k - delta once per distinct lambda^k, k < size:
    once in the rational regime (lambda = 1), once per k at a generic q, and
    twice at q = -1, whose powers alternate."""
    eta = tuple(map(Fraction, (1, 3, 5, 7)))
    pairs = len(eta) * (len(eta) - 1) // 2
    delta = Fraction(5, 2)
    aux = AuxParams(delta=delta, eta=eta)
    rat = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=(Fraction(1),), v=tuple(eta))
    assert AUX_DRAWS["bs"].admissible("rational", "F", rat, aux)[pairs:] == [delta, 1 - delta]
    for q, scales in ((Fraction(2, 3), [Fraction(2, 3) ** k for k in range(4)]),
                      (Fraction(-1), [1, -1])):
        tri = TrigParams(q=q, z=Fraction(2, 5), u=(Fraction(1),), v=tuple(eta))
        values = AUX_DRAWS["bs"].admissible("trig", "F", tri, aux)
        assert values[pairs:] == [delta] + [x - delta for x in scales], q


def planted_degenerate_draw(family):
    """(regime, side, point, aux): a draw of ``family``'s aux values at which
    its determinant cannot be evaluated, at a point in general position."""
    u, v = (Fraction(1),), (Fraction(2), Fraction(-3))
    rat = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=u, v=v)
    tri = TrigParams(q=Fraction(2, 3), z=Fraction(2, 5), u=u, v=v)
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    return {
        # the weight 1 - r prod v vanishes
        "mpt": ("rational", "F", rat, AuxParams(r=1 / prod(v), mat=identity)),
        # delta = q^1, an eigenvalue of the node shift at size 2
        "bs": ("trig", "F", tri, AuxParams(delta=tri.q, eta=(Fraction(1), Fraction(3)))),
        # two equal nodes
        "bs_limit": ("rational", "F", rat,
                     AuxParams(delta=Fraction(5, 2), eta=(Fraction(3), Fraction(3)))),
    }[family]


@pytest.mark.parametrize("family", sorted(AUX_DRAWS))
def test_each_aux_record_flags_a_planted_degenerate_draw(family):
    # a family added to AUX_DRAWS needs its own planted draw above
    regime, side, params, aux = planted_degenerate_draw(family)
    assert 0 not in general_position(regime, params)
    assert 0 in AUX_DRAWS[family].admissible(regime, side, params, aux)
    with pytest.raises(AuxInvariantError):
        det_rep(regime, family, side, params, aux)


# ---------------------------------------------------------------------------
# every family equals the subset sums, exactly, with independent aux
# ---------------------------------------------------------------------------


def test_flat_families_match_sources_exactly():
    rng = random.Random(19)
    for regime in ("trig", "rational"):
        for family in sorted(FAMILIES[regime]):
            for side in ("F", "G"):
                hits = 0
                while hits < 3:
                    n, m = rng.randint(1, 4), rng.randint(1, 4)
                    params = (
                        sample_rational(rng, n, m)
                        if regime == "rational"
                        else sample_trig(rng, n, m)
                    )
                    size = m if side == "F" else n
                    try:
                        v1 = det_rep(regime, family, side, params, sample_aux(rng, size))
                        v2 = det_rep(regime, family, side, params, sample_aux(rng, size))
                        ref = source_subset_sum(regime, side, params)
                    except (ZeroDivisionError, AuxInvariantError):
                        continue
                    assert v1 == ref, (regime, family, side, n, m)
                    assert v2 == v1
                    hits += 1


def _flat_side(regime, side, params):
    """Nodes, row shift, effective z, member ratios and prefactor of one side.

    The F side runs over v with sigma^-1 and q^{m-1} z, the G side over u
    with sigma and q^{m-n} z (q^k reads 1 in the rational regime).
    """
    reg = REGIMES[regime]
    n, m = len(params.u), len(params.v)
    ratio = member_ratios(regime, side, params)
    if side == "F":
        zeff = reg.scale(params, m - 1) * params.z
        return params.v, reg.shift(params, inverse=True), zeff, ratio, 1
    zeff = reg.scale(params, m - n) * params.z
    return params.u, reg.shift(params), zeff, ratio, reg.prefactor(params)


def bs_flat_literal(regime, side, params, aux, limit):
    """The nome-0 bs determinant with each basis value its own product of
    size - 1 factors, formed once per (basis index, node)."""
    xs, row_shift, zeff, ratio, pref = _flat_side(regime, side, params)
    size = len(xs)
    eta = aux.eta
    eta_ref = tuple(map(REGIMES[regime].shift(params), eta))

    def lagrange(jj, x):
        acc = x - x + 1
        for k in range(size):
            if k != jj:
                acc *= x - eta[k]
        return acc

    if limit:
        basis = lagrange
    else:
        delta = aux.delta

        def basis(jj, x):
            acc = lagrange(jj, x)
            ref = x - x + 1
            for k in range(size):
                if k != jj:
                    ref *= x - eta_ref[k]
            return acc - ref / delta

    plain = [[basis(j, x) for j in range(size)] for x in xs]
    if limit:
        denom = prod(
            (xs[j] - xs[i]) * (eta[i] - eta[j]) for i in range(size) for j in range(i + 1, size)
        )
    else:
        denom = det(plain)
    entries = []
    for x, row, r in zip(xs, plain, ratio):
        sx = row_shift(x)
        entries.append([row[j] - zeff * basis(j, sx) * r for j in range(size)])
    return pref * det(entries) / denom


def test_bs_families_keep_every_bit_of_the_per_index_basis():
    # equal Fractions over the exact field and equal reprs over the complex
    # one: the node basis may share work between indices, never reorder it
    rng = random.Random(37)
    for regime in ("rational", "trig"):
        draw = sample_rational if regime == "rational" else sample_trig
        for family in ("bs", "bs_limit"):
            for side in ("F", "G"):
                for size in range(1, 8):
                    other = rng.randint(1, 4)
                    n, m = (other, size) if side == "F" else (size, other)
                    params = draw(rng, n, m)
                    for cplx in (False, True):
                        point = _to_complex(params, regime) if cplx else params
                        aux = sample_aux(rng, size, complex_field=cplx)
                        limit = family == "bs_limit"
                        try:
                            literal = bs_flat_literal(regime, side, point, aux, limit)
                        except ZeroDivisionError:
                            continue
                        value = det_rep(regime, family, side, point, aux)
                        if cplx:
                            assert repr(value) == repr(literal), (regime, family, side, size)
                        else:
                            assert value == literal, (regime, family, side, size)


# ---------------------------------------------------------------------------
# exact points: the integer rows against Fraction oracles
# ---------------------------------------------------------------------------


def mpt_flat_literal(regime, side, params, aux):
    """The nome-0 mpt over Fractions, each mixed entry its own sum: mixed
    monomial numerator rows over mixed psi rows, times the weight."""
    nodes, shift, zeff, ratio, pref = _flat_side(regime, side, params)
    size = len(nodes)
    mat = aux.mat
    if mat is None or len(mat) != size:
        raise AuxInvariantError("mpt needs a size-matched mixing matrix")

    def mixed(cols):
        return [[sum(mat[i][k] * cols[j][k] for k in range(size)) for j in range(size)]
                for i in range(size)]

    # at nome 0 psi_A reads no theta
    denom = det(mixed([[psi_A(k, size, x, 0, aux.r, None) for k in range(1, size + 1)]
                       for x in nodes]))
    if denom == 0:
        raise AuxInvariantError("singular mixed psi matrix")
    cols = [[x**k - zeff * shift(x) ** k * ratio[j] for k in range(size)]
            for j, x in enumerate(nodes)]
    return pref * (1 - aux.r * prod(nodes)) / denom * det(mixed(cols))


def scalar_product_literal(regime, side, params):
    """The nome-0 monomial determinant over Fractions."""
    nodes, shift, zeff, ratio, pref = _flat_side(regime, side, params)
    entries = [[x**k - zeff * shift(x) ** k * ratio[j] for j, x in enumerate(nodes)]
               for k in range(len(nodes))]
    return pref * det(entries) / vandermonde(nodes)


def ik_core_literal(u, v, c, scale=1):
    """The IK core over Fractions: Cauchy-type entries under the full prefactor."""
    n = len(u)
    pref = scale * prod((vi - uk) * (vi - uk - c) for vi in v for uk in u)
    pref /= prod(v[j] - v[i] for i in range(n) for j in range(i + 1, n))
    pref /= prod(u[i] - u[j] for i in range(n) for j in range(i + 1, n))
    return pref * det([[1 / ((vj - uk) * (vj - uk - c)) for uk in u] for vj in v])


def flat_literal(regime, family, side, params, aux):
    if family == "mpt":
        return mpt_flat_literal(regime, side, params, aux)
    if family == "scalar_product":
        return scalar_product_literal(regime, side, params)
    return bs_flat_literal(regime, side, params, aux, family == "bs_limit")


def outcome(fn, *args):
    """("value", v) or the exception's type and text."""
    try:
        return ("value", fn(*args))
    except (ZeroDivisionError, AuxInvariantError) as exc:
        return (type(exc).__name__, str(exc))


FLAT_FAMILIES = ("bs", "bs_limit", "mpt", "scalar_product")


def test_exact_families_equal_the_sums_and_the_fraction_oracles_at_every_size():
    rng = random.Random(41)
    for regime in ("rational", "trig"):
        draw = sample_rational if regime == "rational" else sample_trig
        for family in FLAT_FAMILIES:
            for side in ("F", "G"):
                for size in range(1, 9):
                    other = rng.randint(1, 3)
                    n, m = (other, size) if side == "F" else (size, other)
                    params = draw(rng, n, m)
                    aux = sample_aux(rng, size)
                    if size % 2:
                        # the registry's mixing matrices are int tuples
                        ints = tuple(tuple(int(x) for x in row) for row in aux.mat)
                        aux = AuxParams(r=aux.r, mat=ints, delta=aux.delta,
                                        eta=aux.eta)
                    value = det_rep(regime, family, side, params, aux)
                    assert type(value) is Fraction
                    assert value == source_subset_sum(regime, side, params), (
                        regime, family, side, size)
                    assert value == flat_literal(regime, family, side, params, aux), (
                        regime, family, side, size)
    for n in range(1, 9):
        base = sample_rational(rng, n, n)
        params = RatParams(c=base.c, z=Fraction(1), u=base.u, v=base.v)
        value = izergin_korepin(params)
        assert type(value) is Fraction
        assert value == rational_P(params)
        assert value == (-params.c) ** n * ik_core_literal(params.u, params.v, params.c)
        assert izergin_korepin_core(replace(params, c=Fraction(0)), 1) == ik_core_literal(
            params.u, params.v, Fraction(0))


def test_all_int_parameters_give_the_exact_fraction():
    u, v, eta = (1, -2, 4), (7, 12), (2, -1)
    mat = ((2, 1), (1, 3))
    for regime, params in (("rational", RatParams(c=2, z=3, u=u, v=v)),
                           ("trig", TrigParams(q=2, z=3, u=u, v=v))):
        as_fractions = replace_all(params, Fraction)
        for family in FLAT_FAMILIES:
            aux = AuxParams(r=3, mat=mat, delta=5, eta=eta)
            value = det_rep(regime, family, "F", params, aux)
            assert type(value) is Fraction, (regime, family)
            assert value == det_rep(regime, family, "F", as_fractions, aux)
            assert value == source_subset_sum(regime, "F", as_fractions)
        # dwbc on both sides, at n >= m and, with u and v swapped, at n < m
        for point in (params, replace(params, u=v, v=u)):
            for side in ("F", "G"):
                value = det_rep(regime, "dwbc", side, point)
                assert type(value) is Fraction, (regime, side, point)
                assert value == source_subset_sum(regime, side, replace_all(point, Fraction))
    core = izergin_korepin_core(RatParams(c=1, z=1, u=(1, 2), v=(4, 7)), 3)
    assert type(core) is Fraction
    assert core == ik_core_literal(*(tuple(map(Fraction, xs)) for xs in ((1, 2), (4, 7))),
                                   Fraction(1), 3)


def replace_all(params, kind):
    fields = {name: getattr(params, name) for name, f in params.__dataclass_fields__.items()
              if f.init}
    return type(params)(**{name: tuple(map(kind, x)) if isinstance(x, tuple) else kind(x)
                           for name, x in fields.items() if x is not None})


def test_exact_degenerate_draws_raise_what_the_fraction_oracles_raise():
    # a trig deformed basis at delta = q^(size-1) maps every polynomial f to
    # f(x) - f(x/q), which kills the constants: degenerate at distinct nodes
    params = TrigParams(q=Fraction(3, 2), z=Fraction(2, 5), u=(Fraction(1),),
                        v=(Fraction(1, 3), Fraction(2), Fraction(-3)))
    aux = AuxParams(delta=Fraction(9, 4), eta=(Fraction(1), Fraction(5), Fraction(-2)))
    with pytest.raises(AuxInvariantError, match="degenerate deformed node basis"):
        det_rep("trig", "bs", "F", params, aux)
    with pytest.raises(ZeroDivisionError):  # the oracle divides by the basis determinant
        bs_flat_literal("trig", "F", params, aux, False)
    # a singular mixing matrix, int and Fraction
    for mat in (((1, 1), (1, 1)), ((Fraction(1, 2), 1), (Fraction(1, 2), 1))):
        params = sample_trig(random.Random(17), 2, 2)
        aux = AuxParams(r=Fraction(1, 2), mat=mat)
        expected = outcome(mpt_flat_literal, "trig", "F", params, aux)
        assert expected == ("AuxInvariantError", "singular mixed psi matrix")
        assert outcome(det_rep, "trig", "mpt", "F", params, aux) == expected
    # a repeated node, and a node on a shifted partner (v = sigma u)
    rng = random.Random(43)
    repeated = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=(Fraction(1), Fraction(1)),
                         v=(Fraction(3), Fraction(1, 2)))
    on_shift = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=(Fraction(1), Fraction(2)),
                         v=(Fraction(4, 3), Fraction(1, 2)))
    for params in (repeated, on_shift):
        for family in FLAT_FAMILIES:
            aux = sample_aux(rng, 2)
            expected = outcome(flat_literal, "rational", family, "G", params, aux)
            assert expected[0] != "value"
            if family == "bs" and params is repeated:
                # the oracle checks no aux and divides by the degenerate basis
                assert expected[0] == "ZeroDivisionError"
                expected = ("AuxInvariantError", "degenerate deformed node basis")
            assert outcome(det_rep, "rational", family, "G", params, aux) == expected
    u, v, c = (Fraction(1), Fraction(2)), (Fraction(5), Fraction(5)), Fraction(1, 2)
    for args in ((u, v, c), (v, u, c), (u, (Fraction(5), Fraction(5, 2)), c)):
        expected = outcome(ik_core_literal, *args)
        assert expected[0] == "ZeroDivisionError"
        point = RatParams(c=args[2], z=Fraction(1), u=args[0], v=args[1])
        assert outcome(izergin_korepin_core, point, 1) == expected


def sample_elliptic(rng, n):
    p = rng.uniform(0.1, 0.4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return EllipticParams(
        p=p,
        q=rand_complex(rng, 0.5, 1.6),
        lam=rand_complex(rng),
        z=rand_complex(rng),
        u=tuple(rand_complex(rng) for _ in range(n)),
        v=tuple(rand_complex(rng) for _ in range(n)),
    )


def test_elliptic_families_match_sources():
    rng = random.Random(23)
    for family in ("mpt", "bs"):
        for side in ("F", "G"):
            for _ in range(3):
                n = rng.randint(1, 4)
                params = sample_elliptic(rng, n)
                ref = (
                    elliptic_F(params) if side == "F" else elliptic_G(params)
                )
                aux1 = sample_aux(rng, n, complex_field=True)
                aux2 = sample_aux(rng, n, complex_field=True)
                v1 = det_rep("elliptic", family, side, params, aux1)
                v2 = det_rep("elliptic", family, side, params, aux2)
                assert abs(v1 - ref) <= 1e-8 * max(1.0, abs(ref)), (family, side, n)
                assert abs(v2 - v1) <= 1e-9 * max(1.0, abs(v1))


def test_elliptic_det_identity_direct():
    # mixed-basis determinant on the v side equals the one on the u side,
    # with independently drawn aux, no reference to the subset sums
    rng = random.Random(29)
    for _ in range(5):
        n = rng.randint(1, 3)
        params = sample_elliptic(rng, n)
        aux_f = sample_aux(rng, n, complex_field=True)
        aux_g = sample_aux(rng, n, complex_field=True)
        lhs = det_rep("elliptic", "mpt", "F", params, aux_f)
        rhs = det_rep("elliptic", "mpt", "G", params, aux_g)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_elliptic_bs_checks_eta_as_bs_limit_does_and_ignores_delta():
    rng = random.Random(37)
    params = sample_elliptic(rng, 2)
    eta = (0.7 + 0.2j, -1.1 + 0.5j)
    for bad, message in (((eta[0],), "bs needs eta of matching length"),
                         ((eta[0], eta[0]), "eta nodes must be pairwise distinct")):
        for delta in (None, 1):
            with pytest.raises(AuxInvariantError, match=message):
                det_rep("elliptic", "bs", "F", params, AuxParams(delta=delta, eta=bad))
    # a delta that bs refuses at nome 0 is not read: the pinned one is used
    assert (det_rep("elliptic", "bs", "G", params, AuxParams(delta=1, eta=eta))
            == det_rep("elliptic", "bs", "G", params, AuxParams(eta=eta)))
    with pytest.raises(AuxInvariantError, match="bs needs eta of matching length"):
        det_rep("elliptic", "bs", "G", params, AuxParams())


def test_bs_large_delta_approaches_limit():
    rng = random.Random(31)
    for regime in ("trig", "rational"):
        for side in ("F", "G"):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            params = (
                sample_rational(rng, n, m) if regime == "rational" else sample_trig(rng, n, m)
            )
            size = m if side == "F" else n
            eta = tuple(
                complex(float(x)) for x in distinct_fractions(rng, size)
            )
            cparams = _to_complex(params, regime)
            big = AuxParams(delta=complex(1e6), eta=eta)
            at_big = det_rep(regime, "bs", side, cparams, big)
            at_limit = det_rep(regime, "bs_limit", side, cparams, AuxParams(eta=eta))
            assert abs(at_big - at_limit) <= 1e-3 * max(1.0, abs(at_limit))


def _to_complex(params, regime):
    if regime == "rational":
        return RatParams(
            c=complex(float(params.c)),
            z=complex(float(params.z)),
            u=tuple(complex(float(x)) for x in params.u),
            v=tuple(complex(float(x)) for x in params.v),
        )
    return TrigParams(
        q=complex(float(params.q)),
        z=complex(float(params.z)),
        u=tuple(complex(float(x)) for x in params.u),
        v=tuple(complex(float(x)) for x in params.v),
    )


# ---------------------------------------------------------------------------
# the one side record: empty sides, mixed fields, the complex branch
# ---------------------------------------------------------------------------


def empty_side_point(regime, side, rng):
    """A point whose F side (m = 0) or G side (n = 0) is empty."""
    n, m = (2, 0) if side == "F" else (0, 2)
    return sample_rational(rng, n, m) if regime == "rational" else sample_trig(rng, n, m)


def test_mpt_at_an_empty_side_is_the_source_value_for_every_r():
    rng = random.Random(47)
    for regime in ("rational", "trig"):
        for side in ("F", "G"):
            params = empty_side_point(regime, side, rng)
            ref = source_subset_sum(regime, side, params)
            for r in (Fraction(1, 2), Fraction(-7, 3)):
                assert det_rep(regime, "mpt", side, params, AuxParams(r=r, mat=())) == ref
                cvalue = det_rep(regime, "mpt", side, _to_complex(params, regime),
                                 AuxParams(r=complex(float(r)), mat=()))
                assert abs(cvalue - float(ref)) <= 1e-12 * abs(float(ref)), (regime, side)
    params = EllipticParams(p=0.2 + 0.1j, q=0.9 - 0.2j, lam=1.3 + 0.4j, z=0.7j, u=(), v=())
    for side, source in (("F", elliptic_F), ("G", elliptic_G)):
        ref = source(params)
        for r in (0.5 + 0.2j, -1.1 + 0.3j):
            value = det_rep("elliptic", "mpt", side, params, AuxParams(r=r, mat=()))
            assert abs(value - ref) <= 1e-12 * abs(ref), side


def test_exact_empty_sides_give_the_source_fraction():
    rng = random.Random(53)
    aux = AuxParams(r=Fraction(1, 2), mat=(), delta=Fraction(5, 2), eta=())
    for regime in ("rational", "trig"):
        for side in ("F", "G"):
            params = empty_side_point(regime, side, rng)
            ref = source_subset_sum(regime, side, params)
            for family in sorted(FAMILIES[regime]):
                value = det_rep(regime, family, side, params, aux)
                assert type(value) is Fraction, (regime, family, side)
                assert value == ref, (regime, family, side)


def test_mpt_needs_a_square_mixing_matrix_of_the_side_size():
    point = RatParams(c=Fraction(1, 3), z=Fraction(2, 5), u=(Fraction(1),),
                      v=(Fraction(3), Fraction(1, 2)))
    long_rows = ((1, 2, 3), (4, 5, 7))
    short_row = ((1, 2), (4,))
    points = (("rational", point), ("rational", _to_complex(point, "rational")),
              ("elliptic", sample_elliptic(random.Random(59), 2)))
    for regime, params in points:
        for mat in (long_rows, short_row):
            if regime == "rational" and params is not point:
                mat = tuple(tuple(complex(x) for x in row) for row in mat)
            aux = AuxParams(r=Fraction(1, 2), mat=mat)
            with pytest.raises(AuxInvariantError, match="mpt needs a size-matched mixing matrix"):
                det_rep(regime, "mpt", "F", params, aux)


def test_exact_q_zero_on_the_F_side_raises_what_the_fraction_oracles_raise():
    # sigma^-1 divides by q = 0: the rows cannot be built
    params = TrigParams(q=Fraction(0), z=Fraction(2, 5), u=(Fraction(1), Fraction(-2)),
                        v=(Fraction(3), Fraction(1, 2)))
    rng = random.Random(61)
    for family in FLAT_FAMILIES:
        aux = sample_aux(rng, 2)
        expected = outcome(flat_literal, "trig", family, "F", params, aux)
        assert expected[0] == "ZeroDivisionError"
        assert outcome(det_rep, "trig", family, "F", params, aux) == expected
    # a singular mixing matrix is found before the shifts are taken
    aux = AuxParams(r=Fraction(1, 2), mat=((1, 1), (1, 1)))
    expected = outcome(mpt_flat_literal, "trig", "F", params, aux)
    assert expected == ("AuxInvariantError", "singular mixed psi matrix")
    assert outcome(det_rep, "trig", "mpt", "F", params, aux) == expected


def test_trig_deformed_basis_degenerates_at_each_power_of_q():
    # f -> f(x) - f(x / q) / delta scales x^k by 1 - q^(size-1-k) / delta:
    # singular exactly at delta = q^k, k < size, at every q and on both
    # sides (gamma != 1 at q = 3/2), and the admissibility list says so
    u, v = (Fraction(1), Fraction(7, 3)), (Fraction(1, 3), Fraction(5, 2), Fraction(-3))
    for q in (Fraction(2), Fraction(-2), Fraction(3, 2)):
        params = TrigParams(q=q, z=Fraction(2, 5), u=u, v=v)
        assert 0 not in general_position("trig", params)
        for side in ("F", "G"):
            eta = (Fraction(1), Fraction(5), Fraction(-2))[:len(v if side == "F" else u)]
            for k in range(len(eta) + 2):
                aux = AuxParams(delta=q**k, eta=eta)
                if k < len(eta):
                    assert 0 in AUX_DRAWS["bs"].admissible("trig", side, params, aux)
                    # delta = 1 is refused before the basis is built
                    text = "degenerate deformed node basis" if k else "delta outside {0, 1}"
                    with pytest.raises(AuxInvariantError, match=text):
                        det_rep("trig", "bs", side, params, aux)
                else:
                    assert 0 not in AUX_DRAWS["bs"].admissible("trig", side, params, aux)
                    value = det_rep("trig", "bs", side, params, aux)
                    assert value == source_subset_sum("trig", side, params), (q, side, k)
    value = det_rep("trig", "bs", "G", params, AuxParams(delta=Fraction(1, 2), eta=eta))
    assert value == source_subset_sum("trig", "G", params)


def complex_aux(aux):
    return AuxParams(r=complex(float(aux.r)),
                     mat=tuple(tuple(complex(float(x)) for x in row) for row in aux.mat),
                     delta=complex(float(aux.delta)),
                     eta=tuple(complex(float(x)) for x in aux.eta))


def assert_matches_the_literal(regime, family, side, params, aux):
    value = det_rep(regime, family, side, params, aux)
    literal = flat_literal(regime, family, side, params, aux)
    if family == "mpt":
        assert abs(value - literal) <= 1e-12 * abs(literal), (regime, family, side)
    else:
        assert value == literal, (regime, family, side)


def test_mixed_field_points_give_the_fraction_form_values():
    # an exact point with one complex aux value, and a complex point with
    # exact aux values, take the record of values: the literal forms' values
    rng = random.Random(67)
    for regime in ("rational", "trig"):
        draw = sample_rational if regime == "rational" else sample_trig
        for side in ("F", "G"):
            for size in range(1, 5):
                n, m = (2, size) if side == "F" else (size, 2)
                params = draw(rng, n, m)
                aux = sample_aux(rng, size)
                caux = complex_aux(aux)
                mixed = {"mpt": (AuxParams(r=caux.r, mat=aux.mat),
                                 AuxParams(r=aux.r, mat=caux.mat)),
                         "bs": (AuxParams(delta=caux.delta, eta=aux.eta),
                                AuxParams(delta=aux.delta, eta=caux.eta)),
                         "bs_limit": (AuxParams(eta=caux.eta),)}
                for family, auxes in mixed.items():
                    for one_complex in auxes:
                        assert_matches_the_literal(regime, family, side, params, one_complex)
                cparams = _to_complex(params, regime)
                for family in FLAT_FAMILIES:
                    assert_matches_the_literal(regime, family, side, cparams, aux)


def test_the_complex_image_of_an_exact_point_agrees_with_the_exact_value():
    rng = random.Random(71)
    for regime in ("rational", "trig"):
        draw = sample_rational if regime == "rational" else sample_trig
        for family in FLAT_FAMILIES:
            for side in ("F", "G"):
                for size in range(1, 7):
                    other = rng.randint(1, 3)
                    n, m = (other, size) if side == "F" else (size, other)
                    params = draw(rng, n, m)
                    while True:  # an admissible aux draw, as the registry's sampler takes
                        aux = sample_aux(rng, size)
                        try:
                            exact = det_rep(regime, family, side, params, aux)
                            break
                        except AuxInvariantError:
                            continue
                    value = det_rep(regime, family, side, _to_complex(params, regime),
                                    complex_aux(aux))
                    # relative to the exact value, or absolute where it is 0
                    assert abs(value - complex(exact)) <= 1e-9 * max(1, abs(exact)), (
                        regime, family, side, size)


def test_eta_joins_the_int_form_with_the_ints_of_the_joint_scaling():
    # lcm(L, L_eta) / L times the point's form is what scaling (c, u, v, eta)
    # together gives, also where eta's denominators do not divide L
    rng = random.Random(73)
    spread = 0
    for regime in ("rational", "trig"):
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            params = sample_rational(rng, n, m) if regime == "rational" else sample_trig(rng, n, m)
            lcm = int_form(params).lcm
            for side in ("F", "G"):
                size = m if side == "F" else n
                eta = tuple(Fraction(x, rng.choice((1, 5, 7, 11)) * rng.randint(1, 4))
                            for x in rng.sample(range(-30, 31), size))
                flat = _side(regime, side, params, eta=eta)
                if regime == "rational":
                    (g, *xs), joint = to_integers((params.c, *params.u, *params.v, *eta))
                    sigma = (1, g, 1)
                else:
                    xs, joint = to_integers((*params.u, *params.v, *eta))
                    sigma = (params.q.numerator, 0, params.q.denominator)
                alpha, beta, gamma = sigma
                us, vs, etas = xs[:n], xs[n:n + m], xs[n + m:]
                d = alpha if side == "F" else gamma
                assert flat.t == d * joint
                assert flat.ys == [d * x for x in (vs if side == "F" else us)]
                assert flat.etas == [d * e for e in etas]
                assert flat.refs == [d * (alpha * e + beta) for e in etas]
                inside, outside = integer_member_products(us, vs, sigma, side == "F")
                assert flat.ins == inside
                assert len({Fraction(x, y) for x, y in zip(flat.den, outside)}) == 1
                spread += joint != lcm
    assert spread > 10
