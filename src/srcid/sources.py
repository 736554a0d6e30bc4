"""Source functions: a regime table, per-size subset sums, difference-operator forms.

A source function is a sum over subsets K of the v indices (F side) or of
the u indices (G side), each term carrying a size weight w(|K|) and
cross-ratio products.  The pair (F, G) in each regime satisfies F = G;
this identity is what most of the verification suite exercises.

The regimes differ only in their row of ``REGIMES``: a pair function
d(a, b), a shift sigma, the size weight w(s), the G side's prefactor and
the singular values of the parameters other than u and v.

    regime       d(a, b)        sigma(x)  w(s)                           G prefactor     singular
    rational     a - b          x + c     (-z)^s                         (1 - z)^{m-n}   c, 1 - z
    trig         a - b          q x       (-z)^s q^{s(s-1)/2}            (z; q)_{m-n}    1 - q^{-j} z
    trig_lambda  a - b          q x       (-z)^s q^{s(s-1)/2} (1-q^s L)  1               1 - q^{-j} z
    elliptic     theta(b/a; p)  q x       (-z)^s q^{s(s-1)/2}            1               theta(L; p)
                                            * theta(q^s L prod u / prod v; p)

with j = 1..n-m in the trigonometric rows.

On the G side of ``trig`` the weight takes q^{m-n} z in place of z; the
elliptic sums need n = m.  Writing s = |K|, every regime sums

    F = sum_{K subset [1..m]} w(s) prod_{i in K, j notin K} d(v_i, sigma v_j) / d(v_i, v_j)
                                   prod_{i in K, k <= n}     d(v_i, u_k) / d(v_i, sigma u_k)
    G = pref sum_{K subset [1..n]} w(s) prod_{i in K, j notin K} d(u_j, sigma u_i) / d(u_j, u_i)
                                        prod_{i in K, k <= m}     d(v_k, u_i) / d(v_k, sigma u_i)

so the pair ratio takes the summed variables in opposite orders on the two
sides, while the last product, the member ratio of i, has the same factor
d(v, u) / d(v, sigma u) for every pair of a v and a u on both.  ``trig_lambda`` is the
Lambda-weighted trigonometric family whose F/G pair is tied together by the
finite q-binomial degeneration identity checked in the engine.

A point is in general position when none of the values these sums and
their determinant forms divide by is 0: d(a, b) for two positions of u or
of v, d(v_i, u_k), d(v_i, sigma u_k) and the row's singular values.
``general_position`` lists them; the samplers accept a draw only when every
entry stays away from 0.  The difference a - b is listed once per pair of
positions, theta(b/a; p) in both orders.

The elliptic sums, their weights and ``general_position`` repeat theta
arguments: d(v_i, u_k) is a denominator, a member factor on both sides and
an entry of the P and Q products.  So every theta value at a point comes
from one memo, made by ``theta_memo(p, thetas)``: a callable x ->
theta(x; p) that evaluates each argument once and keeps the value in the
dict that ``thetas`` holds for the nome p.  ``thetas`` maps a nome to its
dict, argument -> theta; a nome or an argument with a real or imaginary
part 0 is keyed by the number and the signs of its parts (``_memo_key``),
since x + 0j and x - 0j are one key but may differ in theta.  An
``EllipticParams`` holds its ``thetas`` in a field that ``__init__``
takes and ``==``, ``hash`` and ``repr`` do not, so equal points stay
equal and ``dataclasses.replace`` hands a derived point its parent's
dict: the substituted v of ``engine``'s vanishing and evaluation runners
and the v_k -> p v_k point of the quasi-periodicity case read every theta
value their parent holds.  theta(x; p) depends on x and p alone, so
sharing keeps every value bit for bit, and a point replaced at a new nome
reads its own nome's dict, never a theta of another nome.
``point_thetas(params)`` is the memo at the point's nome p, and
``theta_memo(nome, params.thetas)`` at another nome of the same point, as
``detreps``' mpt form reads its psi rows at p^n.  The determinant forms
take the same memo: ``linalg``'s Frobenius and theta-Vandermonde forms and
``qseries.psi_A`` as a theta callable, ``detreps``' elliptic bs and mpt
forms through their ``EllipticParams``.  There is no module-level cache of
theta values.  The truncation of the theta products is owned by
``qseries`` alone: every theta here runs at ``qseries.DEFAULT_TRUNCATION``,
and no function of this module takes a truncation.

The polynomial versions P and Q are the same sums with the member ratios'
denominators cleared: each member of K contributes the numerator product
of its ratio, each non-member the denominator product.  They are what the
vanishing and evaluation lemmas specialize, so they are summed directly in
this form rather than by multiplying F by the clearing factor (which would
be 0/0 at exactly the interesting points).

There is one size-sum primitive over one subset walk per kind of table.
``size_sums(regime, side, params)`` returns [S_0, ..., S_size], the sums
of F, G, P or Q over the K of each size before the weights w(s) and the G
prefactor, in the point's field: from the int walk below at an exact
rational or trig point (one Fraction per size), from the table of d
ratios at any other point.  F, G, P and Q weight the same per-size sums;
at an exact point with exact weights they weight the per-size ints and
divide once, so they make no Fraction per size.  Other sums read the
primitive as it is: ``engine``'s q-identity cases the F sums of a point
with no partners (trig at 1/q for the ratio (a - b/q) / (a - b), rational
at -c for (a - b + c) / (a - b)), and ``wallcross``' chi_t sums the trig
sums at q = 1/t.  ``subset_sums_by_size`` walks tables of values over any
field: the complex, elliptic and inexact-weight sums, and the constant
table of ``engine``'s inversion statistic.  It decides the indices in or
out of K depth first and carries the product of the factors between
decided indices, so each decision costs one multiplication per earlier
index: O(m 2^m) multiplications and no division, against O(m^2 2^m) for
evaluating every subset on its own.
``_level_sums`` walks the int tables of the exact sums below, at every
size.  Over ints a product can be taken in any order, so it decides index
t for every subset K of [0, t) at once: it first multiplies the small
table entries of each K's two branches together, by doubling over the
earlier indices, and then multiplies each prefix term once per branch,
where a depth-first walk multiplies it by up to t entries one at a time.
At n = 12 the prefix terms have about 1400 bits, so this is about
2^(n+1) big multiplications against 2n 2^n.  The walk holds a level's
prefix terms, so its memory is bounded twice: the last index's products go
straight into the per-size sums, so the 2^m leaf terms are never held, and
above ``LEVEL_WALK_HOLDS`` = 11 indices index 0 is decided first and each
branch walks the rest.  At n = 12 a walk holds about 0.36 MiB (0.72 MiB
without the split, for 1-2% less time).  Both walks return one sum per
size |K|.  These two walks are the only subset enumerators in srcid.
The hard size cap is max(n, m) <= 12.

Exact rational, trig and trig_lambda sums (every scalar and weight an int
or a Fraction) walk Python ints instead of Fractions.  ``fields.to_integers``
makes u and v (and c) ints, times their L, and the shift of an integer y
is written sigma(y) = (alpha y + beta) / gamma: (1, c L, 1) in the
rational regime, (a, 0, b) in the trigonometric ones, where q = a/b.  The
sum is multiplied by D = prod_{i<j} (x_i - x_j) over the summed variables
x, which clears every pair ratio (``integer_pair_tables`` builds the pair
tables; ``symmetrize.sym_c`` takes its tables from it too):

* a pair on the same side of K contributes x_lo - x_hi (the level walk's
  ``same`` table);
* a separated pair with ratio d(a, sigma b) / d(a, b) contributes
  (gamma a - alpha b - beta) / gamma, signed by D's factor (``cross``);
* a member contributes v - u for each of its (v, u) pairs, and a
  non-member gamma v - alpha u - beta = gamma d(v, sigma u)
  (``integer_member_products``, which ``detreps`` reads for its member
  ratios too);
* F and G divide the sum once by the product of the non-member factors
  of all summed variables, and each of their members carries gamma per
  partner; each non-member of P and Q carries 1/gamma per partner.

Before the walk, the content of each choice set is divided out of these
tables (the content and primitive part of von zur Gathen and Gerhard,
Modern Computer Algebra, section 6.2).  Every term takes exactly one value
from each set: one of same[t][i], cross[t][i] and cross[i][t] for a pair
i < t, one of the two member values of an index t.  So dividing each set
by its gcd divides every S_s by one int, the product of the gcds.  The
entries are L (or a power of L) times values with small denominators, so
most of their bits are content: at n = 12 the step takes an S_s from about
5700 bits to about 1400.  F and G form D and the non-member product from
the reduced tables, and the product cancels exactly; in P and Q the pair
gcds cancel against D, and the product of the member gcds is multiplied
back once.  A set whose values are all 0 (gcd 0) is left as it is.

The exponent of gamma in a term depends on |K| alone, so the powers of
gamma and the weights w(s) are brought over one denominator as ints, and
the sum is one Fraction, made at the end.  F and G are homogeneous of
degree 0 in (u, v, c) and do not see L, but P and Q have degree size *
partners, so they are divided by L^(size * partners).  The one division at
the end raises ``ZeroDivisionError`` where the Fraction tables did: at a
repeated summed variable (D = 0, since a zero in ``same`` stays 0) and,
for F and G, where some d(v_i, sigma u_k) = 0 (a zero non-member value
stays 0).  Every other sum (elliptic, complex or float, or with inexact
weights) walks the table of d ratios.

A ``RatParams`` or ``TrigParams`` is exact when c or q, z, u and v are
ints or Fractions; it then holds Fractions there (``__post_init__`` turns
its ints into Fractions, since an int 1 / x or q^-k is a float), while a
point with a complex or float value among them keeps its values as given.
Lambda enters only the trig_lambda weights and does not decide: an exact
point with a complex Lambda has its int form, and its trig_lambda sums,
whose weights are then complex, walk the table of d ratios.  An exact
point is scaled once, when it is made: ``__post_init__`` makes its
``IntForm`` (u, v, L, sigma), ``to_integers`` of (c, u, v) with sigma =
(1, L c, 1) at a rational point and of (u, v) with sigma = (a, 0, b) at a
trig one, and keeps it in the ``ints`` field, None at an inexact point.
``int_form`` reads that field, so the trig and trig_lambda sums of one
point, the samplers' general-position test, F, G, P, Q, the nome-0 sides
of ``detreps`` (the bs nodes joining by one lcm step), the ik and lascoux
forms and the operator form below share one scaling.  A point made from
another by ``dataclasses.replace`` (a new z or lambda, or the tau
identity's point (u, v + c)) is made, and so scaled, like any other.
The field takes no part in ``__init__``, ``==``, ``hash`` or ``repr``,
and there is no module-level cache.  At an exact point
``general_position`` lists ints: the differences of the scaled u and of
the scaled v, X - Y for each d(v_i, u_k) and gamma X - alpha Y - beta for
each d(v_i, sigma u_k).  Each is its value times L > 0 or gamma L > 0, so
every zero test, and with it every accepted draw, is that of the Fraction
values.

The operator form of an exact rational or trig point runs over ints too.
The summed variables and their partners are scaled by alpha on the F side,
whose shift sigma^-1 takes alpha X to gamma X - beta, or by gamma on the G
side, whose sigma takes gamma X to alpha X + beta, so every shifted
coordinate is an int.  With A_i and B_i the partner products of x_i,
unshifted and shifted, and D = prod_i A_i B_i, the inner function is the
int V(pt) D / P(pt), and ``apply_difference_product``, the one enumerator
of shifted points, weights it by (-zeff)^|K|.  The prefactor prod (v - u) /
V(x) at the same ints is prod_i A_i / V(x), and its degree cancels the
inner sum's, so no power of the scale enters: the sum is divided once, by
V(x) prod_i B_i.  It raises ``ZeroDivisionError`` where the Fraction form
does: where some A_i or B_i is 0 (an inner value divides by it) or at a
repeated summed variable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .fields import is_exact, to_integers
from .linalg import frobenius_matrix, det, prod, vandermonde
from .qseries import qpoch_n, theta

SIZE_CAP = 12
# the level walk of the int sums decides index 0 first above this many
# indices (module docstring)
LEVEL_WALK_HOLDS = 11


class SizeCapError(ValueError):
    """Subset enumeration beyond 2^12 terms is refused."""


@dataclass(frozen=True)
class EllipticParams:
    p: complex
    q: complex
    lam: complex
    z: complex
    u: tuple
    v: tuple
    # nome -> {argument x -> theta(x; nome)}, the point's theta memo; replace
    # hands it on, so a derived point reads its parent's values (module docstring)
    thetas: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.u) != len(self.v):
            raise ValueError("elliptic source functions need len(u) == len(v)")
        if any(x == 0 for x in self.u) or any(x == 0 for x in self.v):
            raise ValueError("all u_i, v_j must be nonzero")

    @property
    def n(self) -> int:
        return len(self.u)


class IntForm(NamedTuple):
    """An exact rational or trig point over ints (module docstring): u and v
    times L, and sigma = (alpha, beta, gamma), the shift of an int y being
    (alpha y + beta) / gamma."""

    u: list
    v: list
    lcm: int
    sigma: tuple


@dataclass(frozen=True)
class _CorePoint:
    """What ``RatParams`` and ``TrigParams`` share; ``_SCALARS`` names their
    values besides u and v that decide exactness."""

    # the point's ``IntForm``, made with an exact point; None at an inexact one
    ints: Optional[IntForm] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # lam enters only the trig_lambda weights, so it does not decide
        # exactness; an exact lam is made a Fraction with the rest
        values = (*(getattr(self, name) for name in self._SCALARS), *self.u, *self.v)
        if not is_exact(values):
            return
        lam = getattr(self, "lam", None)
        if type(lam) is int:
            object.__setattr__(self, "lam", Fraction(lam))
        if int in map(type, values):
            # an exact point holds Fractions: an int 1 / x or q^-k is a float
            for name in self._SCALARS:
                object.__setattr__(self, name, Fraction(getattr(self, name)))
            object.__setattr__(self, "u", tuple(map(Fraction, self.u)))
            object.__setattr__(self, "v", tuple(map(Fraction, self.v)))
        n = len(self.u)
        if isinstance(self, RatParams):
            (g, *xs), lcm = to_integers((self.c, *self.u, *self.v))
            sigma = (1, g, 1)
        else:
            xs, lcm = to_integers((*self.u, *self.v))
            sigma = (self.q.numerator, 0, self.q.denominator)
        object.__setattr__(self, "ints", IntForm(xs[:n], xs[n:], lcm, sigma))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class TrigParams(_CorePoint):
    q: object
    z: object
    u: tuple
    v: tuple
    lam: Optional[object] = None
    _SCALARS = ("q", "z")


@dataclass(frozen=True)
class RatParams(_CorePoint):
    c: object
    z: object
    u: tuple
    v: tuple
    _SCALARS = ("c", "z")


# ---------------------------------------------------------------------------
# the regime table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regime:
    """One row of ``REGIMES``; every entry takes the core parameters.

    ``pair(params)`` returns d and ``shift(params, inverse)`` returns
    sigma or its inverse.  ``scale(params, k)`` is lambda^k, where
    d(sigma a, sigma b) = lambda d(a, b): q in the trigonometric rows, 1 in
    the rational row and 1 in the elliptic row, whose theta(b/a; p) does not
    change under a, b -> q a, q b.  ``weights(params, vside, size)``
    lists w(0..size) for the F side (``vside``) or the G side;
    ``prefactor(params)`` is the G side's factor in front of its sum;
    ``singular(params)`` lists the values besides those of d that
    must not vanish.
    """

    pair: Callable
    shift: Callable
    scale: Callable
    weights: Callable
    prefactor: Callable
    singular: Callable


def _difference(params):
    return operator.sub


def _memo_key(x):
    # x + 0j and x - 0j are one key but may differ in theta, so a zero part's
    # sign joins the key
    return x if x.real and x.imag else (x, math.copysign(1, x.real), math.copysign(1, x.imag))


def theta_memo(p, thetas=None):
    """x -> theta(x; p), evaluated once per argument held in ``thetas``.

    ``thetas`` maps a nome to its dict, argument -> theta (a new one when
    None); the memo reads and fills the dict of p (module docstring).
    """
    values = {} if thetas is None else thetas.setdefault(_memo_key(p), {})

    def th(x):
        # _memo_key, inline: this is the one path to every theta value
        key = x if x.real and x.imag else (x, math.copysign(1, x.real), math.copysign(1, x.imag))
        value = values.get(key)
        if value is None:
            value = values[key] = theta(x, p)
        return value

    return th


def point_thetas(params):
    """x -> theta(x; p) at an ``EllipticParams``: ``theta_memo`` on its
    ``thetas`` field, so every theta value at the point and at the points
    derived from it is evaluated once."""
    return theta_memo(params.p, params.thetas)


def theta_quotient(th):
    """The elliptic pair function d(a, b) = theta(b/a; p), for th(x) = theta(x; p)."""
    return lambda a, b: th(b / a)


def _theta_quotient(params):
    return theta_quotient(point_thetas(params))


def _additive_shift(params, inverse=False):
    c = params.c
    return (lambda x: x - c) if inverse else (lambda x: x + c)


def _multiplicative_shift(params, inverse=False):
    q = params.q
    return (lambda x: x / q) if inverse else (lambda x: q * x)


def _unit_scale(params, k):
    return 1


def _q_scale(params, k):
    return params.q ** k


def _signed_powers(z, size):
    # (-z)^s for s = 0..size
    out, step = [z - z + 1], -z
    for _ in range(size):
        out.append(out[-1] * step)
    return out


def signed_q_powers(z, q, size):
    """(-z)^s q^(s(s-1)/2) for s = 0..size: the trigonometric size weights."""
    tri = [q - q + 1]
    for s in range(1, size + 1):
        tri.append(tri[-1] * q ** (s - 1))
    return [a * b for a, b in zip(_signed_powers(z, size), tri)]


def _rational_weights(params, vside, size):
    return _signed_powers(params.z, size)


def _trig_weights(params, vside, size):
    z = params.z if vside else params.q ** (params.m - params.n) * params.z
    return signed_q_powers(z, params.q, size)


def _trig_lambda_weights(params, vside, size):
    if params.lam is None:
        raise ValueError("trig_lambda regime needs params.lam")
    q, lam = params.q, params.lam
    return [w * (1 - q**s * lam) for s, w in enumerate(signed_q_powers(params.z, q, size))]


def _elliptic_weights(params, vside, size):
    q, th = params.q, point_thetas(params)
    base = params.lam * prod(params.u) / prod(params.v)
    return [w * th(q**s * base) for s, w in enumerate(signed_q_powers(params.z, q, size))]


def _rational_prefactor(params):
    return (1 - params.z) ** (params.m - params.n)


def _trig_prefactor(params):
    return qpoch_n(params.z, params.q, params.m - params.n)


def _no_prefactor(params):
    return 1


def _rational_singular(params):
    return [params.c, 1 - params.z]


def _trig_singular(params):
    # the G prefactor (z; q)_{m-n} divides by these when n > m
    q, z = params.q, params.z
    return [1 - q ** (-j) * z for j in range(1, params.n - params.m + 1)]


def _elliptic_singular(params):
    return [point_thetas(params)(params.lam)]


REGIMES = {
    "rational": Regime(
        _difference, _additive_shift, _unit_scale, _rational_weights, _rational_prefactor,
        _rational_singular,
    ),
    "trig": Regime(
        _difference, _multiplicative_shift, _q_scale, _trig_weights, _trig_prefactor,
        _trig_singular,
    ),
    "trig_lambda": Regime(
        _difference, _multiplicative_shift, _q_scale, _trig_lambda_weights, _no_prefactor,
        _trig_singular,
    ),
    "elliptic": Regime(
        _theta_quotient, _multiplicative_shift, _unit_scale, _elliptic_weights, _no_prefactor,
        _elliptic_singular,
    ),
}


def apart(d, xs):
    """d(a, b) over the pairs (a, b) of distinct positions of ``xs``.

    The difference ``operator.sub`` is listed once per unordered pair, as
    a - b for the earlier position a: b - a = -(a - b) exactly in both
    fields.  Any other d is listed in both orders, since |theta(b/a; p)|
    and |theta(a/b; p)| differ.
    """
    if d is operator.sub:
        return [a - b for i, a in enumerate(xs) for b in xs[i + 1:]]
    return [d(a, b) for i, a in enumerate(xs) for j, b in enumerate(xs) if i != j]


def general_position(regime, params):
    """The values that must not vanish for ``regime``'s sums at ``params``.

    They are the row's singular values, d over the pairs of positions of u
    and of v (``apart``), and d(v_i, u_k) and d(v_i, sigma u_k) for every
    v_i and u_k: each is a denominator of F, G or a determinant form.  At
    an exact rational or trig point all but the singular values are ints
    of the point's int form (module docstring), each a nonzero multiple of
    its value.
    """
    reg = REGIMES[regime]
    values = reg.singular(params)
    form = int_form(params)
    if form is None:
        d, u, v = reg.pair(params), params.u, params.v
        su = list(map(reg.shift(params), u))
        crossed = [d(x, sy) for x in v for sy in su]
    else:
        u, v, _, (alpha, beta, gamma) = form
        d = operator.sub
        crossed = [gamma * x - alpha * y - beta for x in v for y in u]
    values += apart(d, u)
    values += apart(d, v)
    values += [d(x, y) for x in v for y in u]
    return values + crossed


# ---------------------------------------------------------------------------
# the subset walks
# ---------------------------------------------------------------------------


def _check_cap(*sizes):
    if max(sizes, default=0) > SIZE_CAP:
        raise SizeCapError(f"subset enumeration capped at max(n, m) <= {SIZE_CAP}")


def subset_sums_by_size(pair, inside=None, outside=None, one=1):
    """[S_0, ..., S_m] over tables of values: S_s sums over K subset [0..m)
    with |K| = s the products of pair[i][j] (i in K, j notin K), inside[i]
    (i in K) and outside[j] (j notin K).  A table that is None contributes
    no factor, and the empty product is ``one``, so every S_s has the type
    of the caller's field.  ``size_sums`` walks the d-ratio tables here
    (the exact int sums take ``_level_sums``), and ``engine``'s inversion
    statistic its constant table.

    Index t joins K with inside[t] and pair[t][j] for every earlier j left
    out, or stays out with outside[t] and pair[i][t] for every earlier i in
    K.  Each leaf adds its product to the sum of its size; the two leaves
    of the last index are added there, without a further call.
    """
    size = len(pair)
    by_size = [0] * (size + 1)
    last = size - 1

    def walk(t, term, members, others):
        take = term if inside is None else term * inside[t]
        row = pair[t]
        for j in others:
            take *= row[j]
        skip = term if outside is None else term * outside[t]
        for i in members:
            skip *= pair[i][t]
        if t == last:
            by_size[len(members) + 1] += take
            by_size[len(members)] += skip
            return
        walk(t + 1, take, members + (t,), others)
        walk(t + 1, skip, members, others + (t,))

    try:
        if size:
            walk(0, one, (), ())
        else:
            by_size[0] += one
    finally:
        del walk  # walk refers to itself: without this, only the cyclic GC frees it
    return by_size


def _level_sums(pair, inside, outside, same):
    """[S_0, ..., S_m] over int tables, one index at a time (module
    docstring): S_s sums over K subset [0..m) with |K| = s the products of
    pair[i][j] (i in K, j notin K), inside[i] (i in K), outside[j] (j notin
    K) and same[j][i] (i < j on the same side of K).

    Bit j of a mask K over the earlier indices says j is in K.  Index t
    joins K with the take factor inside[t] prod pair[t][j] (j not in K)
    prod same[t][i] (i in K), or stays out with the skip factor outside[t]
    prod pair[i][t] (i in K) prod same[t][j] (j not in K).  Both factors of
    every mask are built by doubling over j, so each prefix term is
    multiplied once per branch; the last index's products go straight into
    the per-size sums.

    Above ``LEVEL_WALK_HOLDS`` indices, index 0 is decided first: each of
    its two branches is a walk of the other indices, whose member tables
    take index 0's factors, so a walk holds at most 2^(LEVEL_WALK_HOLDS - 1)
    prefix terms.
    """
    size = len(pair)
    if size > LEVEL_WALK_HOLDS:
        pair1, same1 = [row[1:] for row in pair[1:]], [near[1:] for near in same[1:]]
        out = _level_sums(pair1, [x * pair[t][0] for t, x in enumerate(inside) if t],
                          [x * same[t][0] for t, x in enumerate(outside) if t], same1)
        in_ = _level_sums(pair1, [x * same[t][0] for t, x in enumerate(inside) if t],
                          [x * pair[0][t] for t, x in enumerate(outside) if t], same1)
        return [outside[0] * a + inside[0] * b for a, b in zip(out + [0], [0] + in_)]
    by_size = [0] * (size + 1)
    terms = [1]
    for t in range(size):
        row, near = pair[t], same[t]
        take, skip = [inside[t]], [outside[t]]
        for j in range(t):
            out_take, shared, in_skip = row[j], near[j], pair[j][t]
            take = [f * out_take for f in take] + [f * shared for f in take]
            skip = [f * shared for f in skip] + [f * in_skip for f in skip]
        if t < size - 1:
            terms = [x * f for x, f in zip(terms, skip)] + [x * f for x, f in zip(terms, take)]
            continue
        for mask, x in enumerate(terms):
            s = mask.bit_count()
            by_size[s] += x * skip[mask]
            by_size[s + 1] += x * take[mask]
    if not size:
        by_size[0] = 1
    return by_size


def _ratios(d, u, su, v, vside):
    # the member ratio of each v_i (F side) or each u_k (G side)
    if vside:
        return [prod(d(x, y) / d(x, sy) for y, sy in zip(u, su)) for x in v]
    return [prod(d(x, y) / d(x, sy) for x in v) for y, sy in zip(u, su)]


def _products(d, u, su, v, vside):
    # the numerator and the denominator product of each member ratio, apart
    if vside:
        return [prod(d(x, y) for y in u) for x in v], [prod(d(x, y) for y in su) for x in v]
    return [prod(d(x, y) for x in v) for y in u], [prod(d(x, y) for x in v) for y in su]


def member_ratios(regime, side, params):
    """Member ratio of each summed variable: the product of d(v, u)/d(v, sigma u)
    over its partners, for each v_i on the F side and each u_k on the G side.
    """
    reg = REGIMES[regime]
    su = list(map(reg.shift(params), params.u))
    return _ratios(reg.pair(params), params.u, su, params.v, side in ("F", "P"))


def _pair_table(table, vside):
    # the F side's pair factor of (i, j) is the ratio of (v_i, v_j), the G side's that of (u_j, u_i)
    return table if vside else [list(col) for col in zip(*table)]


def int_form(params):
    """The ``IntForm`` of an exact rational or trig point, made with the
    point; None at any other point (module docstring)."""
    return getattr(params, "ints", None)


def integer_pair_tables(xs, sigma):
    """(cross, same) over the ints xs for a shift sigma = (alpha, beta, gamma).

    cross[a][b] = gamma (x_a - sigma x_b) with the sign of D's factor
    x_lo - x_hi over x_a - x_b (None on the diagonal) and same[t][i] =
    x_i - x_t for i < t, so D = prod_{i<t} (x_i - x_t) is the product of
    ``same``.
    """
    alpha, beta, gamma = sigma
    same = [[xs[i] - xs[t] for i in range(t)] for t in range(len(xs))]
    cross = [[gamma * x - alpha * y - beta if a < b else alpha * y + beta - gamma * x
              if a > b else None for b, y in enumerate(xs)] for a, x in enumerate(xs)]
    return cross, same


def integer_member_products(u, v, sigma, vside):
    """(inside, outside) over the ints u, v for a shift sigma = (alpha, beta, gamma):
    for each v_i (``vside``) or each u_k, the products over its partners of
    v - u and of gamma v - alpha u - beta.  A member ratio is gamma^partners
    * inside / outside.
    """
    alpha, beta, gamma = sigma
    if vside:
        return ([prod(x - y for y in u) for x in v],
                [prod(gamma * x - alpha * y - beta for y in u) for x in v])
    return ([prod(x - y for x in v) for y in u],
            [prod(gamma * x - alpha * y - beta for x in v) for y in u])


def _divide_content(cross, same, inside, outside):
    """Divide the gcd of each choice set out of the int tables, in place, and
    return the product of the member sets' gcds (module docstring).

    The choice sets are {same[t][i], cross[t][i], cross[i][t]} for i < t and
    {inside[t], outside[t]}; a set of zeros (gcd 0) is left as it is.
    """
    for t, near in enumerate(same):
        row = cross[t]
        for i, x in enumerate(near):
            g = math.gcd(x, row[i], cross[i][t])
            if g > 1:
                near[i] = x // g
                row[i] //= g
                cross[i][t] //= g
    content = 1
    for t, x in enumerate(inside):
        g = math.gcd(x, outside[t])
        if g > 1:
            inside[t] = x // g
            outside[t] //= g
            content *= g
    return content


def _integer_sizes(form, vside, cleared):
    """The per-size sums over the ints of ``form`` as (ints, denominator),
    S_s = ints[s] / denominator (module docstring)."""
    u, v, lcm, sigma = form
    gamma = sigma[2]
    xs, partners = (v, len(u)) if vside else (u, len(v))
    size = len(xs)
    cross, same = integer_pair_tables(xs, sigma)
    inside, outside = integer_member_products(u, v, sigma, vside)
    content = _divide_content(cross, same, inside, outside)
    by_size = _level_sums(_pair_table(cross, vside), inside, outside, same)
    # the power of gamma per size: 1/gamma per separated pair, and per
    # partner gamma for each member (F, G) or 1/gamma for each non-member (P, Q)
    powers = [-s * (size - s) + (-(size - s) if cleared else s) * partners
              for s in range(size + 1)]
    low = min(powers)
    # P and Q take the member gcds back and L^(size * partners) out; in F
    # and G the non-member product cancels the gcds
    scale, divisor = (content, lcm ** (size * partners)) if cleared else (1, prod(outside))
    denominator = gamma ** -low * prod(map(prod, same)) * divisor
    return [scale * gamma ** (e - low) * x for e, x in zip(powers, by_size)], denominator


def _value_sizes(reg, params, vside, cleared):
    """The per-size sums of the table of d ratios at ``params``."""
    d, sigma, u, v = reg.pair(params), reg.shift(params), params.u, params.v
    xs = v if vside else u
    shifted = list(map(sigma, xs))
    su = list(map(sigma, u)) if vside else shifted
    pair = _pair_table([[d(x, shifted[b]) / d(x, y) if a != b else None
                         for b, y in enumerate(xs)] for a, x in enumerate(xs)], vside)
    if cleared:
        return subset_sums_by_size(pair, *_products(d, u, su, v, vside))
    return subset_sums_by_size(pair, _ratios(d, u, su, v, vside))


def size_sums(regime: str, side: str, params):
    """[S_0, ..., S_size]: the per-size sums of F, G, P or Q of ``regime``
    before the weights w(s) and the G prefactor, in the point's field.

    An exact rational or trig point takes the int walk, with one Fraction
    per size; any other point walks the table of d ratios.
    """
    if regime not in REGIMES or side not in ("F", "G", "P", "Q"):
        raise ValueError(f"unknown (regime, side) = ({regime!r}, {side!r})")
    _check_cap(len(params.u), len(params.v))
    vside, cleared = side in ("F", "P"), side in ("P", "Q")
    if int_form(params) is None:
        return _value_sizes(REGIMES[regime], params, vside, cleared)
    ints, denominator = _integer_sizes(int_form(params), vside, cleared)
    return [Fraction(x, denominator) for x in ints]


def _source(regime, side, params):
    """F, G (member ratios) or P, Q (cleared) of ``regime``: the weighted
    per-size sums, over ints divided once at an exact point with exact weights."""
    reg = REGIMES[regime]
    _check_cap(len(params.u), len(params.v))
    vside, cleared = side in ("F", "P"), side in ("P", "Q")
    size = len(params.v if vside else params.u)
    form = int_form(params)
    weights = reg.weights(params, vside, size)
    if form is not None and is_exact(weights):
        ints, denominator = _integer_sizes(form, vside, cleared)
        common = math.lcm(*(w.denominator for w in weights))
        total = Fraction(sum(w.numerator * (common // w.denominator) * x
                             for w, x in zip(weights, ints)), common * denominator)
    else:
        by_size = _value_sizes(reg, params, vside, cleared)
        total = weights[0] * by_size[0]
        for s in range(1, size + 1):
            total += weights[s] * by_size[s]
    return total if vside else reg.prefactor(params) * total


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def rational_F(params: RatParams):
    return _source("rational", "F", params)


def rational_G(params: RatParams):
    return _source("rational", "G", params)


def rational_P(params: RatParams):
    return _source("rational", "P", params)


def rational_Q(params: RatParams):
    return _source("rational", "Q", params)


def trig_F(params: TrigParams):
    return _source("trig", "F", params)


def trig_G(params: TrigParams):
    return _source("trig", "G", params)


def trig_P(params: TrigParams):
    return _source("trig", "P", params)


def trig_Q(params: TrigParams):
    return _source("trig", "Q", params)


def trig_lambda_F(params: TrigParams):
    """Lambda-weighted v-side sum: each term carries (1 - q^s Lambda)."""
    return _source("trig_lambda", "F", params)


def trig_lambda_G(params: TrigParams):
    """Lambda-weighted u-side sum (no q-Pochhammer prefactor)."""
    return _source("trig_lambda", "G", params)


def elliptic_F(params: EllipticParams):
    return _source("elliptic", "F", params)


def elliptic_G(params: EllipticParams):
    return _source("elliptic", "G", params)


def elliptic_P(params: EllipticParams):
    return _source("elliptic", "P", params)


def elliptic_Q(params: EllipticParams):
    return _source("elliptic", "Q", params)


def source_subset_sum(regime: str, side: str, params):
    """Literal subset-sum evaluation of a source function."""
    if regime not in REGIMES or side not in ("F", "G"):
        raise ValueError(f"unknown (regime, side) = ({regime!r}, {side!r})")
    return _source(regime, side, params)


def source_polynomial_form(regime: str, side: str, params):
    """Denominator-cleared polynomial version P/Q of a source function."""
    if regime not in ("rational", "trig", "elliptic") or side not in ("P", "Q"):
        raise ValueError(f"unknown (regime, side) = ({regime!r}, {side!r})")
    return _source(regime, side, params)


# ---------------------------------------------------------------------------
# difference-operator product expansion
# ---------------------------------------------------------------------------


def apply_difference_product(f, indices, shift, z, point):
    """Expand prod_{j in indices} (1 - z T_j) f at ``point``.

    T_j applies ``shift`` to coordinate j once; the expansion is
    sum_{K subset indices} (-z)^{|K|} f(point with K shifted).
    """
    indices = tuple(indices)
    point = tuple(point)
    k = len(indices)
    weights = [(-z) ** bits for bits in range(k + 1)]
    total = None
    for mask in range(1 << k):
        coords = list(point)
        bits = 0
        for pos in range(k):
            if mask >> pos & 1:
                j = indices[pos]
                coords[j] = shift(coords[j])
                bits += 1
        term = weights[bits] * f(tuple(coords))
        total = term if total is None else total + term
    return total


def _integer_difference_form(form, vside, zeff):
    """The rational or trig operator form over the ints of ``form``, before
    the G prefactor: sum_K (-zeff)^|K| V(pt) D / P(pt), divided once by
    V(x) prod_i B_i (module docstring)."""
    us, vs, _, (alpha, beta, gamma) = form
    if vside:
        xs, partners = [alpha * x for x in vs], [alpha * y for y in us]
        shift = lambda x: x // alpha * gamma - beta
        partner_product = lambda x: prod(x - y for y in partners)
    else:
        xs, partners = [gamma * y for y in us], [gamma * x for x in vs]
        shift = lambda y: y // gamma * alpha + beta
        partner_product = lambda y: prod(x - y for x in partners)
    # a partner product is a function of the coordinate's value alone
    products = {x: partner_product(x) for x in xs}
    shifted = [partner_product(shift(x)) for x in xs]
    products.update(zip(map(shift, xs), shifted))
    common = prod(products[x] for x in xs) * prod(shifted)
    inner = lambda pt: vandermonde(pt) * common // prod(products[x] for x in pt)
    total = apply_difference_product(inner, range(len(xs)), shift, zeff, xs)
    return total / (vandermonde(xs) * prod(shifted))


def source_via_difference_ops(regime: str, side: str, params):
    """Source function as prefactor times a product of difference operators.

    The F side shifts v by sigma^-1, the G side shifts u by sigma.  Contract:
    agrees with :func:`source_subset_sum` on the same parameters (exactly
    over the rationals, to truncation accuracy over the complex field).  An
    exact rational or trig point is expanded over ints
    (``_integer_difference_form``).
    """
    if regime not in ("rational", "trig", "elliptic"):
        raise ValueError(f"unknown regime {regime!r}")
    if side not in ("F", "G"):
        raise ValueError(f"unknown side {side!r}")
    reg = REGIMES[regime]
    u, v = params.u, params.v
    n, m = len(u), len(v)
    vside = side == "F"
    xs = v if vside else u
    shift = reg.shift(params, inverse=vside)

    if regime == "elliptic":
        lam, th = params.lam, point_thetas(params)
        pref = th(lam)
        pref *= prod(th(ui / vj) for ui in u for vj in v)
        for i in range(n):
            for j in range(i + 1, n):
                pref /= u[j] * th(u[i] / u[j])
                pref /= th(v[j] / v[i]) / v[j]
        if vside:
            inner = lambda vv: det(frobenius_matrix(u, vv, lam, th))
        else:
            inner = lambda uu: det(frobenius_matrix(uu, v, lam, th))
        return pref * apply_difference_product(inner, range(n), shift, params.z, xs)

    form = int_form(params)
    zeff = params.z * reg.scale(params, m - n - 1 if vside else m - n)
    if form is not None:
        total = _integer_difference_form(form, vside, zeff)
        return total if vside else reg.prefactor(params) * total
    pref = prod(vi - uk for vi in v for uk in u) / vandermonde(xs)
    if vside:
        inner = lambda vv: vandermonde(vv) / prod(vi - uk for vi in vv for uk in u)
    else:
        pref = reg.prefactor(params) * pref
        inner = lambda uu: vandermonde(uu) / prod(vi - uk for vi in v for uk in uu)
    return pref * apply_difference_product(inner, range(len(xs)), shift, zeff, xs)
