"""Determinant representations of the source functions.

Families (availability by regime; above the line, the keys of ``FAMILIES``):

    ================  ========  ======  ==========
    family            elliptic  trig    rational
    ================  ========  ======  ==========
    mpt                  x        x        x
    scalar_product                x        x
    dwbc                          x        x
    bs                   x        x        x
    bs_limit                      x        x
    ================  ========  ======  ==========
    ik                                     x      ``izergin_korepin`` only
    ================  ========  ======  ==========

``FAMILIES`` maps each regime to {family: evaluator}, every evaluator
taking (regime, side, params, aux); trig and rational share one nome-0
table.  ``det_rep`` checks its arguments and looks the family up there.
``AUX_DRAWS`` maps each family that draws auxiliary values (mpt, bs,
bs_limit) to its ``AuxDraw`` record: its draw from an
``engine.PointContext`` and the list of values an admissible draw keeps
off 0; the other families take none.  The ik determinant is not a
per-side representation (it has no side and no aux values, and equals the
P polynomial): its entry point is ``izergin_korepin``, and ``det_rep``
refuses it.

* ``mpt``: a ratio of two mixed-basis determinants.  The denominator mixes
  the theta-Vandermonde basis psi_k with auxiliary parameter r; the
  numerator carries the shift expansion in the basis whose quasi-periodic
  anchor is pinned by the balancing parameter of the source sum (anchor
  L * prod u on the F side, L / prod v on the G side; the anchor is 0 at
  nome 0, where the numerator basis degenerates to plain monomials).  The
  mix matrix and r are spectators: they cancel between the two
  determinants, which is the verified aux-independence.
* ``scalar_product``: the r = 0, mix = identity specialization of mpt
  (pure monomial rows).
* ``dwbc``: domain-wall (Cauchy-Vandermonde) matrices Y/Z for n >= m and
  U/V for n < m, composed with the factorized Cauchy-Vandermonde
  prefactor.
* ``bs``: Cauchy-type rows built on auxiliary nodes eta.  In the elliptic
  regime the second Frobenius parameter is pinned by the balancing
  parameter (L prod u / prod eta on the F side, L prod eta / prod v on
  the G side); a freely chosen value there is inconsistent with the
  quasi-periodicity matching that the derivation requires.  At nome 0 the
  family instead deforms the degree-(m-1) node basis,

      B_j(x) = prod_{k != j} (x - eta_k) - (1/Delta) prod_{k != j} (x - eta_k') ,

  with eta' the once-shifted nodes (q eta_k, resp. eta_k + c).  The
  basis is (I - S / Delta) applied to the Lagrange basis, S the node shift,
  whose eigenvalues are q^k for k = 0..m-1 (1 in the rational regime): it
  degenerates exactly at Delta = q^k, which bs's ``AUX_DRAWS`` record
  rejects.  ``bs_limit`` is the Delta -> infinity form, the plain
  Lagrange-node determinant.
* ``ik`` (``izergin_korepin``): the n = m, z = 1 determinant with entries
  1 / ((v_j - u_k)(v_j - u_k - c)), returned in the denominator-cleared
  P-normalization.

Every representation here, for EVERY admissible auxiliary draw, equals the
subset-sum source function on the same core parameters; that
aux-independence is part of the verified contract.

At nome 0, mpt, scalar_product, bs and bs_limit each read one side record
(``_side``): the nodes and their row shifts, eta and sigma(eta) over one
denominator t, and zeff * ratio_j written as lift * ins_j / den_j.  At an
exact point with exact aux values the record holds Python ints: the point's
one int form (``sources.int_form``: u, v and c times L, and the shift sigma
= (alpha, beta, gamma)), with the bs nodes eta brought onto it by one lcm
step rather than a new scaling, and the member ratios' int products of
``sources.integer_member_products``.  At any
other point it holds the values themselves, with t = gamma = 1, lift = zeff,
ins the member ratios and no den.  One row builder forms den_j b(y_j) -
lift b(w_j) ins_j for the family's basis b, and the value is pref det /
denom: at an exact point the determinants of int rows, every row sharing
one scale besides its den_j.  An exact point where the ints would divide
by 0 (a member ratio's pole, q = 0 on the F side) gets the record of its
Fraction values, so it raises what the Fraction form raises.  dwbc builds its rows over
the point's own values (Fractions at an exact point), and the ik core reads
the point's int form at an exact point.

Transcription note: one-parameter extensions of these determinants are
sometimes quoted with the balance ratio attached to row 1 as a
(.)^{delta_i1} weight and the extension parameter left free.  That shape
is an identity only for 1 x 1 matrices: for size >= 2 the inserted shift
operators act on every variable while a row-1 weight can shift with at
most one column, and the top z-coefficient already fails.  The forms
implemented here keep the extension parameters exactly where the
insertion argument allows them, agree with the weighted shape at size 1,
and reduce to the classic representations (r = 0, mix = identity,
Delta -> infinity).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple, Optional

from .fields import is_exact, to_integers
from .linalg import det, prod, vandermonde
from .qseries import psi_A
from .sources import (REGIMES, apart, int_form, integer_member_products, member_ratios,
                      point_thetas, theta_memo)

class UnavailableRepresentationError(ValueError):
    """(regime, family) pair outside ``FAMILIES``."""


class AuxInvariantError(ValueError):
    """Auxiliary parameters violate their invariants (singular mix, ...)."""


@dataclass(frozen=True)
class AuxParams:
    """Spectator parameters of the determinant representations.

    ``mat`` mixes the basis rows of the side being evaluated (the paper's P
    on the F side, Q on the G side: a call reads only its own side's) and
    must be an invertible size x size matrix, size being m on the F side
    and n on the G side.  The pairwise-distinct nodes ``eta`` feed the bs
    family (length m on the F side, n on the G side); ``delta`` deforms
    the node basis in the trig/rational bs family (the elliptic bs pins its
    second Frobenius parameter internally and ignores ``delta``).  The
    values an admissible draw keeps off 0 are listed by the family's
    ``AUX_DRAWS`` record.
    """

    r: object = None
    mat: Optional[tuple] = None
    delta: object = None
    eta: Optional[tuple] = None


def _require(cond, message):
    if not cond:
        raise AuxInvariantError(message)


def _mix_rows(mat, cols):
    """rows[i][j] = sum_k mat[i][k] * cols[j][k]."""
    size = len(cols)
    return [
        [sum(mat[i][k] * cols[j][k] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


# ---------------------------------------------------------------------------
# nome-0 sides, read off the regime table
# ---------------------------------------------------------------------------


class _Side:
    """The record ``_side`` returns (its docstring names the fields)."""

    __slots__ = ("ys", "ws", "etas", "refs", "gamma", "t", "lift", "ins", "den", "pref")

    def __init__(self, ys, ws, etas, refs, gamma, t, lift, ins, den, pref):
        self.ys, self.ws, self.etas, self.refs, self.gamma = ys, ws, etas, refs, gamma
        self.t, self.lift, self.ins, self.den, self.pref = t, lift, ins, den, pref


def _side(regime, side, params, aux=(), eta=()):
    """One side of a nome-0 determinant over one denominator t.

    Node j is ys[j] / t with row shift ws[j] / t, eta_k is etas[k] / t and
    sigma(eta_k) is refs[k] / (gamma t); zeff * ratio_j is lift * ins[j] /
    den[j], and pref is the side's prefactor.  The F side runs over v with
    sigma^-1 and q^{m-1} z, the G side over u with sigma and q^{m-n} z (q^k
    reads 1 in the rational regime).

    When the point, ``eta`` and the family's other aux values ``aux`` are
    exact, these are ints: the nodes, eta and c times L with sigma =
    (alpha, beta, gamma), from the point's ``sources.int_form``.  eta joins
    that form by one lcm step: u, v, beta and L times k = lcm(L, L_eta) / L,
    which gives the ints of scaling c, u, v and eta together.  The row shift
    of an int X is (a X + b) / d with (a, b, d) = (gamma, -beta, alpha) on
    the F side and sigma on the G side, so t = d L; the member ratios are
    gamma^partners * inside / outside (``sources.integer_member_products``).
    Elsewhere they are the values themselves: t = gamma = 1, lift = zeff,
    ins the member ratios and den None.  An exact point where the ints would
    divide by 0 (a member ratio's pole, q = 0 on the F side) gets this form
    too, so its Fractions raise what the Fraction form raises.  The F side's
    ws is then a lazy map: a shift by q = 0 raises where the rows are built,
    after the family's aux checks.
    """
    reg = REGIMES[regime]
    vside = side == "F"
    form = int_form(params) if is_exact(aux) and is_exact(eta) else None
    if form is not None:
        us, vs, lcm, (alpha, beta, gamma) = form
        # eta onto the point's scale: u, v and beta times lcm(L, L_eta) / L
        k = math.lcm(lcm, *(e.denominator for e in eta)) // lcm
        us, vs, beta, lcm = [k * x for x in us], [k * y for y in vs], k * beta, k * lcm
        etas, sigma = [e.numerator * (lcm // e.denominator) for e in eta], (alpha, beta, gamma)
        inside, outside = integer_member_products(us, vs, sigma, vside)
        if 0 in outside or (vside and alpha == 0):
            form = None
    u, v = params.u, params.v
    if form is None:
        shift = reg.shift(params)
        ratio = member_ratios(regime, side, params)
    if vside:
        zeff, pref = reg.scale(params, len(v) - 1) * params.z, 1
    else:
        zeff, pref = reg.scale(params, len(v) - len(u)) * params.z, reg.prefactor(params)
    if form is None:
        if vside:
            return _Side(v, map(reg.shift(params, inverse=True), v), eta, list(map(shift, eta)),
                         1, 1, zeff, ratio, None, pref)
        return _Side(u, list(map(shift, u)), eta, list(map(shift, eta)),
                     1, 1, zeff, ratio, None, pref)
    a, b, d = (gamma, -beta, alpha) if vside else sigma
    xs, partners = (vs, len(us)) if vside else (us, len(vs))
    return _Side([d * x for x in xs], [a * x + b for x in xs], [d * e for e in etas],
                 [d * (alpha * e + beta) for e in etas], gamma, d * lcm,
                 zeff.numerator * gamma**partners, inside,
                 [zeff.denominator * p for p in outside], pref)


def _rows(flat, plain, shifted):
    """Row j den_j * plain_j - lift * shifted_j * ins_j: the basis at x_j minus
    zeff * ratio_j times the basis at shift(x_j), cleared by den_j."""
    lift = flat.lift
    if flat.den is None:
        return [[p - lift * s * r for p, s in zip(row, srow)]
                for row, srow, r in zip(plain, shifted, flat.ins)]
    return [[dj * p - nj * s for p, s in zip(row, srow)]
            for row, srow, nj, dj in zip(plain, shifted, [lift * r for r in flat.ins], flat.den)]


def _value(flat, rows, denom):
    """pref * det(rows) / denom, the rows' den divided out at an exact
    record, whose rows are ints."""
    if flat.den is not None:
        denom *= prod(flat.den)
    return flat.pref * det(rows) / denom


def _monomials(x, size):
    return [x**k for k in range(size)]


# ---------------------------------------------------------------------------
# mpt family
# ---------------------------------------------------------------------------


def _mpt_nodes(regime, side, params):
    """The mpt rows' nodes: 1/v (elliptic) or v on the F side, u on the G side."""
    if side == "G":
        return list(params.u)
    return [1 / vj for vj in params.v] if regime == "elliptic" else params.v


def _mpt_weight(regime, side, params, r):
    """theta(r prod nodes; p), the mpt weight; 1 - r prod nodes at nome 0.

    An empty side's psi determinant is 1 and holds no theta for the weight
    to cancel, nor does its numerator hold the source's theta(L; p): there
    the weight is theta(L; p), resp. 1.
    """
    nodes = _mpt_nodes(regime, side, params)
    if regime != "elliptic":
        return 1 - r * prod(nodes) if nodes else 1
    return point_thetas(params)(r * prod(nodes) if nodes else params.lam)


def _require_mix(mat, size):
    _require(mat is not None and len(mat) == size and all(len(row) == size for row in mat),
             "mpt needs a size-matched mixing matrix")


def _mpt_elliptic(regime, side, params, aux):
    p, q, lam, z, u, v = params.p, params.q, params.lam, params.z, params.u, params.v
    n = params.n
    mat, r = aux.mat, aux.r
    ratio = member_ratios("elliptic", side, params)
    nodes = _mpt_nodes("elliptic", side, params)
    # theta(balance * prod nodes) = theta(L prod u / prod v)
    balance = lam * prod(u) if side == "F" else lam / prod(v)
    _require_mix(mat, n)
    # the psi rows read the point's memo at their nome p^n, so the balance
    # rows, equal at every aux draw, are evaluated once per point
    th = theta_memo(p**n, params.thetas)
    cols_den = [[psi_A(k, n, x, p, r, th) for k in range(1, n + 1)] for x in nodes]
    cols_num = [[psi_A(k, n, x, p, balance, th) for k in range(1, n + 1)] for x in nodes]
    cols_shift = [
        [psi_A(k, n, q * x, p, balance, th) for k in range(1, n + 1)] for x in nodes
    ]
    mixed_den = _mix_rows(mat, cols_den)
    mixed_num = _mix_rows(mat, cols_num)
    mixed_shift = _mix_rows(mat, cols_shift)
    denom = det(mixed_den)
    _require(denom != 0, "singular mixed psi matrix")
    entries = [
        [mixed_num[i][j] - z * mixed_shift[i][j] * ratio[j] for j in range(n)]
        for i in range(n)
    ]
    return _mpt_weight("elliptic", side, params, r) / denom * det(entries)


def _mpt_flat(regime, side, params, aux):
    """mpt at nome 0: mixed monomial rows over mixed psi rows, times the weight.

    psi_1 at node y_j / t is (rd t^size - rn y_j^size) / (rd t^size) for r =
    rn / rd (rd = 1 off the ints), and psi_k the monomial (y_j / t)^(k-1).
    Over the ints of an exact record, node j's psi column times rd t^size and
    its row times t^(size-1) are ints once column k of the mixing matrix
    carries rd t^(size-k) (k >= 1), resp. t^(size-1-k); the value is then
    pref (rd t^size - rn prod ys) rd^(size-1) det(numerator mix) /
    (det(psi mix) prod den).
    """
    mat, r = aux.mat, aux.r
    flat = _side(regime, side, params, (r, *(x for row in mat or () for x in row)))
    ys, t = flat.ys, flat.t
    size = len(ys)
    _require_mix(mat, size)
    if flat.den is None:
        rn, rd = r, 1
        mix_den = mix_num = mat
    else:
        rn, rd = r.numerator, r.denominator
        powers = [t**k for k in range(size + 1)]
        # a row's scale multiplies both mixed determinants: it cancels
        mat = [to_integers(row)[0] for row in mat]
        mix_den = [[row[0]] + [rd * x * powers[size - k] for k, x in enumerate(row) if k]
                   for row in mat]
        mix_num = [[x * powers[size - 1 - k] for k, x in enumerate(row)] for row in mat]
    top = rd * t**size
    sign = 1 if (size - 1) % 2 == 0 else -1
    plain = [_monomials(y, size) for y in ys]
    psi = [[top - sign * rn * y**size] + row[1:] for y, row in zip(ys, plain)]
    denom = det(_mix_rows(mix_den, psi))
    _require(denom != 0, "singular mixed psi matrix")
    rows = _rows(flat, plain, [_monomials(w, size) for w in flat.ws])
    # an empty side has no psi column to cancel the weight (``_mpt_weight``)
    weight = (top - rn * prod(ys)) * rd ** (size - 1) if size else 1
    return weight * _value(flat, _mix_rows(mix_num, rows), denom)


# ---------------------------------------------------------------------------
# scalar_product family (monomial rows)
# ---------------------------------------------------------------------------


def _scalar_product(regime, side, params, aux):
    """pref det[x_j^k - zeff ratio_j shift(x_j)^k] / vandermonde(x) over the
    transposed rows; an exact record's powers of t cancel in the ratio."""
    flat = _side(regime, side, params)
    size = len(flat.ys)
    rows = _rows(flat, [_monomials(y, size) for y in flat.ys],
                 [_monomials(w, size) for w in flat.ws])
    return _value(flat, [list(col) for col in zip(*rows)], vandermonde(flat.ys))


# ---------------------------------------------------------------------------
# dwbc family (domain-wall / Cauchy-Vandermonde)
# ---------------------------------------------------------------------------


def build_dwbc_matrix(regime: str, side: str, params):
    """Domain-wall matrix only (no prefactor): Y/Z for n >= m, U/V for n < m."""
    if "dwbc" not in FAMILIES.get(regime, ()):
        raise UnavailableRepresentationError("dwbc exists in the trig and rational regimes")
    reg = REGIMES[regime]
    z, u, v = params.z, params.u, params.v
    n, m = len(u), len(v)
    sigma = reg.shift(params)
    zq = z * reg.scale(params, m - n)
    if n >= m:
        rows = [[1 / (vi - uj) - zq / (vi - sigma(uj)) for uj in u] for vi in v]
        for i in range(m, n):
            e = n - 1 - i
            if side == "F":
                rows.append([uj**e for uj in u])
            else:
                rows.append([uj**e - zq * sigma(uj) ** e for uj in u])
        return rows
    rows = [[1 / (ui - vj) - zq / (sigma(ui) - vj) for vj in v] for ui in u]
    unshift = reg.shift(params, inverse=True)
    zf = z * reg.scale(params, m - n - 1)
    for i in range(n, m):
        e = m - 1 - i
        if side == "G":
            rows.append([vj**e for vj in v])
        else:
            rows.append([vj**e - zf * unshift(vj) ** e for vj in v])
    return rows


def _dwbc(regime, side, params, aux):
    u, v = params.u, params.v
    n, m = len(u), len(v)
    matrix = build_dwbc_matrix(regime, side, params)
    # an exact start keeps the empty products' int 1 / 1 out of float
    one = Fraction(1) if is_exact((*u, *v)) else 1
    pref = prod((vi - uk for vi in v for uk in u), start=one)
    pref /= vandermonde(v)
    pref /= vandermonde(u)
    # the u pairs' prod (u_i - u_j) is vandermonde(u) times n(n-1)/2 signs,
    # and n < m negates every factor again; negation is exact, in floats too
    if (m * (m - 1) // 2 + n * m if n < m else n * (n - 1) // 2) % 2:
        pref = -pref
    value = pref * det(matrix)
    if side == "G":
        value *= REGIMES[regime].prefactor(params)
    return value


# ---------------------------------------------------------------------------
# bs family
# ---------------------------------------------------------------------------


def _bs_pinned_delta(side, params, eta):
    """The elliptic bs family's second Frobenius parameter, pinned so that its
    balance theta matches theta(L prod u / prod v)."""
    if side == "F":
        return params.lam * prod(params.u) / prod(eta)
    return params.lam * prod(eta) / prod(params.v)


def _bs_aux(aux, size, limit):
    _require(aux.eta is not None and len(aux.eta) == size, "bs needs eta of matching length")
    _require(len(set(aux.eta)) == size, "eta nodes must be pairwise distinct")
    _require(limit or aux.delta not in (None, 0, 1), "bs needs delta outside {0, 1}")


def _bs_elliptic(regime, side, params, aux):
    """Elliptic bs: pref det(entries), pref the Frobenius prefactor over the
    thetas of the v (F) or u (G) pairs and of the eta pairs.

    Both sides build their entries from one Frobenius-type entry over the
    (num, den) pairs (eta_l, v_j) on the F side, rows i and basis index
    k = i, and (u_i, eta_l) on the G side, basis index k = j:

        theta(delta a / b) prod_{l != k} theta(x_l / y_l) / theta(delta)
        - z theta(q delta a / b) prod_{l != k} theta(q x_l / y_l) / theta(delta) * ratio

    with (a, b) the pair k and ratio the member ratio of v_j (F) or u_i (G).
    """
    q, z, u, v = params.q, params.z, params.u, params.v
    th = point_thetas(params)
    n = params.n
    eta = aux.eta
    # delta is pinned here, not read: the eta checks of bs_limit
    _bs_aux(aux, n, limit=True)
    ratio = member_ratios("elliptic", side, params)
    delta = _bs_pinned_delta(side, params, eta)
    th_delta = th(delta)

    def entry(pairs, k, r):
        (a, b), rest = pairs[k], pairs[:k] + pairs[k + 1:]
        return (th(delta * a / b) * prod(th(x / y) for x, y in rest) / th_delta
                - z * th(q * delta * a / b) * prod(th(q * x / y) for x, y in rest) / th_delta * r)

    pref = th_delta
    if side == "F":
        for i, j in combinations(range(n), 2):
            pref /= th(v[j] / v[i]) / v[j]
            pref /= eta[j] * th(eta[i] / eta[j])
        entries = [[entry([(e, vj) for e in eta], i, ratio[j]) for j, vj in enumerate(v)]
                   for i in range(n)]
    else:
        for i, j in combinations(range(n), 2):
            pref /= u[j] * th(u[i] / u[j])
            pref /= th(eta[j] / eta[i]) / eta[j]
        entries = [[entry([(ui, e) for e in eta], j, ratio[i]) for j in range(n)]
                   for i, ui in enumerate(u)]
    return pref * det(entries)


def _lagrange_row(x, nodes):
    """[prod_{k != j} (x - nodes_k) for each j], each the left fold in k from
    x - x + 1: the differences are formed once, and every j continues the
    running product of the differences before it with those after it."""
    diffs = [x - e for e in nodes]
    head, row = x - x + 1, []
    for j, d in enumerate(diffs, 1):
        acc = head
        for e in diffs[j:]:
            acc *= e
        row.append(acc)
        head *= d
    return row


def _bs_flat(regime, side, params, aux, limit: bool):
    """bs at nome 0: pref det(entries) / denom over the node basis at the
    record's nodes, the denominator being the plain basis rows' determinant
    or, in the limit, prod (ys_j - ys_i)(etas_i - etas_j).

    At an exact record a basis row at A / t is ``_lagrange_row(A, etas)``
    over t^(size-1), deformed to delta_n gamma^(size-1) lagrange_j(A, etas) -
    delta_d lagrange_j(gamma A, refs) over delta_n (gamma t)^(size-1) unless
    limit; every row shares that scale, which cancels in the ratio.
    """
    delta = aux.delta
    flat = _side(regime, side, params, () if limit else (delta,), aux.eta or ())
    ys, etas, refs, gamma = flat.ys, flat.etas, flat.refs, flat.gamma
    size = len(ys)
    _bs_aux(aux, size, limit)

    # every basis function at a: the Lagrange products, deformed unless limit
    if limit:
        def basis(a):
            return _lagrange_row(a, etas)
    elif flat.den is None:
        def basis(a):
            return [p - s / delta for p, s in zip(_lagrange_row(a, etas), _lagrange_row(a, refs))]
    else:
        dd, lift = delta.denominator, delta.numerator * gamma ** (size - 1)

        def basis(a):
            return [lift * p - dd * s
                    for p, s in zip(_lagrange_row(a, etas), _lagrange_row(gamma * a, refs))]

    # each node's basis row serves the plain matrix and the entries
    plain = [basis(y) for y in ys]
    if limit:
        denom = prod((ys[j] - ys[i]) * (etas[i] - etas[j])
                     for i, j in combinations(range(size), 2))
    else:
        denom = det(plain)
        _require(denom != 0, "degenerate deformed node basis")
    return _value(flat, _rows(flat, plain, [basis(w) for w in flat.ws]), denom)


# ---------------------------------------------------------------------------
# ik family
# ---------------------------------------------------------------------------


def izergin_korepin_core(params, scale):
    """The n = m, z = 1 determinant at the rational point ``params`` without
    its (-c)^n:

    scale * prod (v_i - u_k)(v_i - u_k - c) / (prod (v_j - v_i) prod (u_i - u_j))
        * det 1 / ((v_j - u_k)(v_j - u_k - c)).

    ``ValueError`` unless n == m and z == 1.  ``scale`` is multiplied in
    first, so a caller's prefactor keeps the rounding order of writing it
    out.  The core stays defined at c = 0.  At an exact point it is the int
    form scale * det[prod_{k' != k} (v_j - u_k') (v_j - u_k' - c)] /
    (prod (v_j - v_i) prod (u_i - u_j)) over the ints of the point's
    ``sources.int_form``: row j times its Cauchy entries'
    denominators, which removes the reciprocals.
    """
    u, v, c = params.u, params.v, params.c
    n = len(u)
    if len(v) != n:
        raise ValueError("ik requires n == m")
    if params.z != 1:
        raise ValueError("ik requires z == 1")
    # prod_{i<j} (u_i - u_j) is vandermonde(u) times n(n-1)/2 signs
    flip = n * (n - 1) // 2 % 2
    form = int_form(params)
    if form is not None:
        # row j times prod_k (v_j - u_k)(v_j - u_k - c), over ints times L:
        # entry (j, k) is the product over k' != k, two Lagrange rows' product
        us, vs, lcm, (_, g, _) = form
        divisor = vandermonde(vs) * vandermonde(us) * (-1 if flip else 1)
        if divisor and set(us).isdisjoint(vs) and set(us).isdisjoint(y - g for y in vs):
            rows = [[a * b for a, b in zip(_lagrange_row(y, us), _lagrange_row(y - g, us))]
                    for y in vs]
            return scale * det(rows) / (divisor * lcm ** (n * (n - 1)))
    pref = scale * prod((vi - uk) * (vi - uk - c) for vi in v for uk in u)
    pref /= vandermonde(v)
    pref /= vandermonde(u)
    if flip:  # negation is exact, in floats too
        pref = -pref
    entries = [[1 / ((vj - uk) * (vj - uk - c)) for uk in u] for vj in v]
    return pref * det(entries)


def izergin_korepin(params):
    """n = m, z = 1 determinant in the P-normalization: (-c)^n times the core."""
    return izergin_korepin_core(params, (-params.c) ** len(params.u))


# ---------------------------------------------------------------------------
# the family table, its aux draws and the dispatcher
# ---------------------------------------------------------------------------


_NOME_0 = {"mpt": _mpt_flat, "scalar_product": _scalar_product, "dwbc": _dwbc,
           "bs": partial(_bs_flat, limit=False), "bs_limit": partial(_bs_flat, limit=True)}
FAMILIES = {"elliptic": {"mpt": _mpt_elliptic, "bs": _bs_elliptic},
            "trig": _NOME_0, "rational": _NOME_0}


class AuxDraw(NamedTuple):
    """One family's auxiliary values: how they are drawn and when a draw is
    admissible.

    ``draw(ctx, size)`` draws an ``AuxParams`` for a side of ``size`` nodes
    from an ``engine.PointContext``.  ``admissible(regime, side, params,
    aux)`` lists the values that must not vanish: at a point in general
    position, ``det_rep`` evaluates every draw at which none does.
    """

    draw: Callable
    admissible: Callable


def _small_fraction(ctx):
    """A nonzero a/b with |a| <= 5 and 1 <= b <= 5, in the point's field."""
    return ctx.field.convert(ctx.ratio(-5, 5, 5, bool))


def _mixing_matrix(ctx, size):
    """An invertible size x size matrix of ints in [-5, 5], in the point's field."""
    randint = ctx.rng.randint
    rows = ctx.attempt(
        lambda: tuple(tuple(randint(-5, 5) for _ in range(size)) for _ in range(size)),
        lambda rows: det(rows) != 0,
    )
    return ctx.field.convert(rows)


def _eta_nodes(ctx, size):
    """``size`` distinct nonzero a/b with |a| <= 9 and 1 <= b <= 4, in the
    point's field.  Each node is one ``attempt``; the pool holds 50 values,
    so at a larger ``size`` a node exhausts ``engine.RESAMPLE_CAP`` and raises
    ``SamplingError``."""
    vals: list = []
    for _ in range(size):
        vals.append(ctx.ratio(-9, 9, 4, lambda x: x != 0 and x not in vals))
    return ctx.field.convert(tuple(vals))


def _delta_value(ctx):
    """a/10 with 20 <= a <= 100, in the point's field."""
    return ctx.field.convert(Fraction(ctx.rng.randint(20, 100), 10))


# keyword arguments are evaluated as written: r before mat, delta before eta
def _mpt_draw(ctx, size):
    return AuxParams(r=_small_fraction(ctx), mat=_mixing_matrix(ctx, size))


def _mpt_admissible(regime, side, params, aux):
    """The mpt weight theta(r prod nodes; p) (``_mpt_weight``).  With the
    point's general position and the invertible mixing matrix it keeps the
    mixed psi determinant, theta(r prod x) prod x_j theta(x_i / x_j), off 0."""
    return [_mpt_weight(regime, side, params, aux.r)]


def _bs_draw(ctx, size):
    return AuxParams(delta=_delta_value(ctx), eta=_eta_nodes(ctx, size))


def _bs_admissible(regime, side, params, aux, limit: bool):
    """The eta differences, and theta of the pinned delta and of the eta
    ratios (elliptic) or delta and q^k - delta (``Regime.scale``; q reads 1
    in the rational regime), each distinct q^k once: for bs every k below
    the size, where the deformed basis degenerates; for bs_limit, which
    ignores delta, only k = 0 (a longer list would move its draws)."""
    values = apart(operator.sub, aux.eta)
    if regime == "elliptic":
        values.append(point_thetas(params)(_bs_pinned_delta(side, params, aux.eta)))
        values += apart(REGIMES["elliptic"].pair(params), aux.eta)
    else:
        scale = REGIMES[regime].scale
        scales = dict.fromkeys(scale(params, k) for k in range(1 if limit else len(aux.eta)))
        values += [aux.delta] + [x - aux.delta for x in scales]
    return values


AUX_DRAWS = {"mpt": AuxDraw(_mpt_draw, _mpt_admissible),
             "bs": AuxDraw(_bs_draw, partial(_bs_admissible, limit=False)),
             "bs_limit": AuxDraw(_bs_draw, partial(_bs_admissible, limit=True))}


def det_rep(regime: str, family: str, side: str, params, aux: AuxParams | None = None):
    """Evaluate the representation ``family`` of ``FAMILIES[regime]`` of the
    ``side`` source function (ik is ``izergin_korepin``, not a family here)."""
    if regime not in FAMILIES:
        raise UnavailableRepresentationError(f"unknown regime {regime!r}")
    if family not in FAMILIES[regime]:
        raise UnavailableRepresentationError(f"family {family!r} unavailable for {regime!r}")
    if side not in ("F", "G"):
        raise ValueError(f"side must be 'F' or 'G', got {side!r}")
    return FAMILIES[regime][family](regime, side, params, aux or AuxParams())
