"""Sampling, case registry, and verification reports.

Every verified statement is a named case.  A case samples "general
position" parameter points (rejection sampling against a singular-value
radius), evaluates both sides of its statement, and reports per-point
residuals.  General position is the regime table's denominator list,
``sources.general_position`` (``detreps.aux_general_position`` for the
auxiliary draws): a draw is accepted when no entry is within the radius
of 0.  Over the exact field a pass means literal equality of reduced
fractions; over the complex field it means relative error
|lhs - rhs| / max(1, |lhs|, |rhs|) within the case tolerance.

The runners read the regime table where they can: one vanishing and one
evaluation runner serve the rational, trigonometric and elliptic
specializations alike, with d from ``Regime.pair`` and the closed
product's prefactor from the F-side weight and ``Regime.scale``.  The
elliptic size draw and the elliptic range of an extra variable
(``PointContext.variable``) are the only per-regime choices left in them.
Every theta value at a point, and at the points derived from it, comes
from one ``sources.theta_memo``.

Determinism contract: the per-point generator is seeded with
hash(master_seed, case_id, point_index), so reports are byte-identical
across runs and independent of evaluation order (timings aside).

Sampling policy (complex field): moduli of generic scalars in [0.2, 3],
|q| in [0.2, 0.8] or [1.25, 5], |p| in [0.1, 0.5]; elliptic u, v moduli
kept in [0.4, 2] so the theta products stay well conditioned.  Exact
field: fractions with numerator and denominator within +-20, resampled
only on literal coincidence of a protected denominator.  Every resample,
of a whole point or of one scalar, node or matrix inside it, goes through
``PointContext.attempt``, which raises ``SamplingError`` after
``RESAMPLE_CAP`` rejected draws.  An auxiliary draw is admissible when
``detreps.aux_general_position`` holds, which makes its determinant
evaluable: an ``AuxInvariantError`` fails its point like any other error.
"""

from __future__ import annotations

import cmath
import fnmatch
import math
import operator
import random
import time
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Optional

from . import sources, symmetrize, wallcross
from .detreps import AVAILABILITY, AuxParams, aux_general_position, det_rep
from .fields import EXACT, COMPLEX, SamplingError, get_field
from .linalg import (
    cauchy_vandermonde_closed,
    cauchy_vandermonde_matrix,
    det,
    elliptic_vandermonde_sides,
    frobenius_closed,
    frobenius_matrix,
    prod,
)
# theta is bound here although no runner calls it: perfbench/test_perfbench.py
# reads engine.theta
from .qseries import q_binomial, theta  # noqa: F401
from .sources import (
    EllipticParams,
    RatParams,
    TrigParams,
    source_polynomial_form,
    source_subset_sum,
    source_via_difference_ops,
)


RESAMPLE_CAP = 1000  # draws per rejection-sampled value


class UnknownCaseError(KeyError):
    pass


@dataclass(frozen=True)
class SamplingConfig:
    master_seed: int = 20260801
    points: int = 10
    tol_singular: float = 1e-3
    tol_match: Optional[float] = None  # None: per-case default
    field: Optional[str] = None  # None: case-preferred field
    nmax: Optional[int] = None  # cap on sampled sizes
    fixed_sizes: Optional[tuple] = None  # pin (n, m) instead of sampling

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points >= 1 required")
        if not 0 < self.tol_singular < math.inf:
            raise ValueError("tol_singular must be positive and finite")
        if self.tol_match is not None and not 0 <= self.tol_match < math.inf:
            raise ValueError("tol_match (--tol) must be non-negative and finite")
        if self.nmax is not None and self.nmax < 0:
            raise ValueError("nmax >= 0 required")


@dataclass
class PointRecord:
    index: int
    seed: str
    residual: float
    ok: bool
    label: str = ""
    lhs: str = ""
    rhs: str = ""
    error: Optional[str] = None

    def as_dict(self) -> dict:
        out = {
            "index": self.index,
            "seed": self.seed,
            "residual": self.residual,
            "ok": self.ok,
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    case_id: str
    anchor: str
    kind: str
    regime: str
    field: str
    tol: float
    points: list = dc_field(default_factory=list)
    max_rel_err: float = 0.0
    passed: bool = True
    millis: float = 0.0

    def as_dict(self, include_timings: bool = True) -> dict:
        out = {
            "id": self.case_id,
            "anchor": self.anchor,
            "kind": self.kind,
            "regime": self.regime,
            "field": self.field,
            "tol": self.tol,
            "points": [p.as_dict() for p in self.points],
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }
        if include_timings:
            out["millis"] = self.millis
        return out


# ---------------------------------------------------------------------------
# point context: seeded draws and rejection sampling
# ---------------------------------------------------------------------------


class PointContext:
    """Seeded sampling helpers for one verification point.

    ``field`` (the ``fields`` object named by ``field_name``) answers every
    question whose answer differs by field: ``scalar`` and ``q_scalar`` (the
    generic draws), ``nome`` (the elliptic nome; the exact field refuses it
    with a ``SamplingError``, so an exact ``sample_elliptic`` does too),
    ``convert`` (an exact draw brought into the field), ``nonzero`` (the
    general-position test behind ``require``) and ``zero`` and ``one``.  No
    draw and no general-position test here branches on the field, so any
    object with those hooks may be assigned to ``field``.
    """

    def __init__(self, rng: random.Random, field_name: str, config: SamplingConfig):
        self.rng = rng
        self.field = get_field(field_name)
        self.config = config
        self.tol_singular = config.tol_singular

    # -- scalar draws ------------------------------------------------------

    def fraction(self, lo: int = -20, hi: int = 20, nonzero: bool = False) -> Fraction:
        return self.ratio(lo, hi, 20, bool if nonzero else lambda val: True)

    def ratio(self, lo: int, hi: int, den: int, accept: Callable) -> Fraction:
        """a/b with lo <= a <= hi and 1 <= b <= den, redrawn until ``accept`` holds."""
        randint = self.rng.randint
        return self.attempt(lambda: Fraction(randint(lo, hi), randint(1, den)), accept)

    def complex_scalar(self, lo: float = 0.2, hi: float = 3.0) -> complex:
        mod = self.rng.uniform(lo, hi)
        ang = self.rng.uniform(0.0, 2.0 * math.pi)
        return mod * cmath.exp(1j * ang)

    def scalar(self, lo: float = 0.2, hi: float = 3.0):
        """A generic nonzero scalar of the field (complex: |x| in [lo, hi])."""
        return self.field.scalar(self, lo, hi)

    def q_scalar(self):
        """|q| away from 0 and 1 in every field."""
        return self.field.q_scalar(self)

    def nome(self):
        """An elliptic nome, or the field's ``SamplingError``."""
        return self.field.nome(self)

    def distinct_scalars(self, count: int) -> tuple:
        out = []
        for _ in range(count):
            out.append(self.attempt(self.scalar, lambda x: self.require(*(x - y for y in out))))
        return tuple(out)

    # -- general-position checks -------------------------------------------

    def require(self, *denominators) -> bool:
        nonzero, tol = self.field.nonzero, self.tol_singular
        return all(nonzero(d, tol) for d in denominators)

    def clear(self, values: Callable) -> bool:
        """The list ``values()`` stays away from 0; a value that cannot be
        formed (theta at 0, a division by 0) is singular too."""
        try:
            return self.require(*values())
        except (ValueError, ZeroDivisionError):
            return False

    def general(self, regime: str, params) -> bool:
        """``params`` are in general position for ``regime``."""
        return self.clear(lambda: sources.general_position(regime, params))

    def distinct(self, xs, d=operator.sub) -> bool:
        """d(a, b) stays away from 0 for every two positions of ``xs``."""
        return self.clear(lambda: sources.apart(d, xs))

    def attempt(self, draw: Callable, accept: Callable):
        """Rejection-sample ``draw()`` until ``accept(x)`` holds.

        The one rejection loop: every resampled draw of a point, the scalar
        and auxiliary draws inside a larger ``draw`` included, comes through
        here, and ``RESAMPLE_CAP`` rejected draws raise ``SamplingError``.
        """
        for _ in range(RESAMPLE_CAP):
            x = draw()
            if accept(x):
                return x
        raise SamplingError("resampling cap exceeded")

    # -- size draws ----------------------------------------------------------

    def sizes(self, n_range, m_range=None, rule: str = "any"):
        """Draw (n, m) within ranges, clipped by config.nmax / fixed_sizes.

        An ``nmax`` below a range's lower end raises ``ValueError``: the
        case is not defined at those sizes.
        """
        n = self._size(n_range, 0)
        if m_range is None:
            return n, n
        if rule == "m_le_n":
            mhi = min(m_range[1], n)
            m_range = (min(m_range[0], mhi), mhi)
        return n, self._size(m_range, 1)

    def _size(self, bounds, axis: int) -> int:
        cfg = self.config
        lo, hi = bounds
        if cfg.nmax is not None:
            if cfg.nmax < lo:
                raise ValueError(f"--nmax {cfg.nmax} is below this case's sizes {lo}..{hi}")
            hi = min(hi, cfg.nmax)
        if cfg.fixed_sizes is not None:
            return max(lo, min(hi, cfg.fixed_sizes[axis]))
        return self.rng.randint(lo, hi)

    # -- parameter bundles ---------------------------------------------------

    def variable(self, regime: str):
        """One entry of u or v: elliptic moduli stay in [0.4, 2]."""
        if regime == "elliptic":
            return self.complex_scalar(0.4, 2.0)
        return self.scalar()

    def sample_rational(self, n: int, m: int) -> RatParams:
        def draw():
            c = self.scalar(0.3, 2.0)
            z = self.scalar()
            u = [self.scalar() for _ in range(n)]
            v = [self.scalar() for _ in range(m)]
            return RatParams(c=c, z=z, u=tuple(u), v=tuple(v))

        return self.attempt(draw, lambda p: self.general("rational", p))

    def sample_trig(self, n: int, m: int, with_lam: bool = False) -> TrigParams:
        def draw():
            q = self.q_scalar()
            z = self.scalar()
            lam = self.scalar() if with_lam else None
            u = [self.scalar() for _ in range(n)]
            v = [self.scalar() for _ in range(m)]
            return TrigParams(q=q, z=z, u=tuple(u), v=tuple(v), lam=lam)

        return self.attempt(draw, lambda p: self.general("trig", p))

    def sample_elliptic(self, n: int) -> EllipticParams:
        def draw():
            p = self.nome()
            q = self.q_scalar()
            if abs(q) > 2.5:
                q *= 2.5 / abs(q)
            lam = self.complex_scalar()
            z = self.complex_scalar()
            u = [self.variable("elliptic") for _ in range(n)]
            v = [self.variable("elliptic") for _ in range(n)]
            return EllipticParams(p=p, q=q, lam=lam, z=z, u=tuple(u), v=tuple(v))

        return self.attempt(draw, lambda par: self.general("elliptic", par))

    def sample(self, regime: str, n: int, m: int):
        """Core parameters of ``regime`` at sizes (n, m); elliptic uses n only."""
        if regime == "elliptic":
            return self.sample_elliptic(n)
        if regime == "trig":
            return self.sample_trig(n, m)
        return self.sample_rational(n, m)

    # -- auxiliary draws ------------------------------------------------------

    def small_fraction(self):
        """A nonzero a/b with |a| <= 5 and 1 <= b <= 5, in the point's field."""
        return self.field.convert(self.ratio(-5, 5, 5, bool))

    def mixing_matrix(self, size: int) -> tuple:
        """An invertible size x size matrix of ints in [-5, 5], in the point's field."""
        randint = self.rng.randint
        rows = self.attempt(
            lambda: tuple(tuple(randint(-5, 5) for _ in range(size)) for _ in range(size)),
            lambda rows: det(rows) != 0,
        )
        return self.field.convert(rows)

    def eta_nodes(self, size: int) -> tuple:
        """``size`` distinct nonzero a/b with |a| <= 9 and 1 <= b <= 4, in the
        point's field.  Each node is one ``attempt``; the pool holds 50 values,
        so at a larger ``size`` a node exhausts ``RESAMPLE_CAP`` and raises
        ``SamplingError``."""
        vals: list = []
        for _ in range(size):
            vals.append(self.ratio(-9, 9, 4, lambda x: x != 0 and x not in vals))
        return self.field.convert(tuple(vals))

    def delta_value(self):
        return self.field.convert(Fraction(self.rng.randint(20, 100), 10))

    def sample_aux(self, regime: str, family: str, side: str, params) -> AuxParams:
        size = len(params.v) if side == "F" else len(params.u)
        if family == "mpt":
            def draw():
                r = self.small_fraction()
                mat = self.mixing_matrix(size)
                return AuxParams(r=r, mat=mat)
        elif family in ("bs", "bs_limit"):
            def draw():
                return AuxParams(delta=self.delta_value(), eta=self.eta_nodes(size))
        else:
            return AuxParams()

        def accept(aux):
            return self.clear(
                lambda: aux_general_position(regime, family, side, params, aux)
            )

        return self.attempt(draw, accept)


@dataclass(frozen=True)
class CaseDef:
    case_id: str
    kind: str
    regime: str
    anchor: str
    fields: tuple
    runner: Callable
    tol_complex: float = 1e-10

    def tol(self, field_name: str, override: Optional[float]) -> float:
        """The pass tolerance over the named field (``fields`` ``tol``): 0 over
        the exact field whatever the override; else the override or ``tol_complex``."""
        return get_field(field_name).tol(self.tol_complex, override)


REGISTRY: dict = {}


def register(case: CaseDef):
    if case.case_id in REGISTRY:
        raise ValueError(f"duplicate case id {case.case_id}")
    REGISTRY[case.case_id] = case
    return case


def get_case(case_id: str) -> CaseDef:
    try:
        return REGISTRY[case_id]
    except KeyError:
        raise UnknownCaseError(case_id) from None


def list_cases() -> list:
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def match_cases(patterns, regime: str = "all", field_name: Optional[str] = None) -> list:
    """Select registered cases by glob patterns, regime, and field support.

    Each pattern is matched against the registered case ids once, and the
    first pattern that matches none raises ``UnknownCaseError(pattern)``,
    whatever the regime and field.
    """
    cases = list_cases()
    if patterns:
        ids, chosen = [case.case_id for case in cases], set()
        for pattern in patterns:
            hits = fnmatch.filter(ids, pattern)
            if not hits:
                raise UnknownCaseError(pattern)
            chosen.update(hits)
        cases = [case for case in cases if case.case_id in chosen]
    return [case for case in cases if regime in ("all", case.regime)
            and (field_name is None or field_name in case.fields)]


# ---------------------------------------------------------------------------
# case runners
# ---------------------------------------------------------------------------


def _core_sizes(ctx: PointContext, regime: str):
    """(n, m) of a core point: n = m in 1..4 for elliptic, else each in 0..5."""
    return ctx.sizes((1, 4)) if regime == "elliptic" else ctx.sizes((0, 5), (0, 5))


def _identity_runner(regime: str):
    def run(ctx: PointContext):
        n, m = _core_sizes(ctx, regime)
        params = ctx.sample(regime, n, m)
        lhs = source_subset_sum(regime, "F", params)
        return [("F = G", lhs, source_subset_sum(regime, "G", params))]

    return run


def _diff_runner(regime: str, side: str):
    def run(ctx: PointContext):
        n, m = ctx.sizes((1, 3)) if regime == "elliptic" else ctx.sizes((1, 4), (1, 4))
        params = ctx.sample(regime, n, m)
        lhs = source_via_difference_ops(regime, side, params)
        rhs = source_subset_sum(regime, side, params)
        return [("operator form = subset sum", lhs, rhs)]

    return run


def _det_rep_runner(regime: str, family: str, side: str):
    def run(ctx: PointContext):
        n, m = ctx.sizes((1, 4)) if regime == "elliptic" else ctx.sizes((1, 4), (1, 4))
        params = ctx.sample(regime, n, m)
        reference = source_subset_sum(regime, side, params)
        args = (regime, family, side, params)
        value1 = det_rep(*args, ctx.sample_aux(*args))
        checks = [("representation = subset sum", value1, reference)]
        if family in ("mpt", "bs", "bs_limit"):
            value2 = det_rep(*args, ctx.sample_aux(*args))
            checks.append(("aux independence", value2, value1))
        return checks

    return run


def _run_rational_ik(ctx: PointContext):
    n, _ = ctx.sizes((1, 4))
    params = replace(ctx.sample_rational(n, n), z=ctx.field.one)
    value = det_rep("rational", "ik", "F", params)
    reference = source_polynomial_form("rational", "P", params)
    return [("ik determinant = cleared polynomial", value, reference)]


def _run_elliptic_det_identity(ctx: PointContext):
    n, _ = ctx.sizes((1, 3))
    params = ctx.sample_elliptic(n)
    f_args, g_args = ("elliptic", "mpt", "F", params), ("elliptic", "mpt", "G", params)
    lhs = det_rep(*f_args, ctx.sample_aux(*f_args))
    rhs = det_rep(*g_args, ctx.sample_aux(*g_args))
    return [("mixed-basis determinants agree", lhs, rhs)]


def _bs_delta_limit_runner(regime: str):
    def run(ctx: PointContext):
        n, m = ctx.sizes((1, 3), (1, 3))
        params = ctx.sample(regime, n, m)
        side = "F" if ctx.rng.random() < 0.5 else "G"
        aux = ctx.sample_aux(regime, "bs_limit", side, params)
        big = AuxParams(delta=complex(1e6), eta=aux.eta)
        at_big = det_rep(regime, "bs", side, params, big)
        at_limit = det_rep(regime, "bs_limit", side, params, aux)
        return [("delta -> infinity", at_big, at_limit)]

    return run


def _frobenius_checks(u, v, lam, th):
    matrix = frobenius_matrix(u, v, lam, th)
    return [("det = closed form", det(matrix), frobenius_closed(u, v, lam, th))]


def _run_frobenius_p0(ctx: PointContext):
    n, _ = ctx.sizes((1, 5))

    def draw():
        u = ctx.distinct_scalars(n)
        v = ctx.distinct_scalars(n)
        lam = ctx.scalar()
        return u, v, lam

    def accept(t3):
        u, v, lam = t3
        dens = [1 - lam] + [1 - ui / vj for ui in u for vj in v]
        dens += [1 - lam * ui / vj for ui in u for vj in v]
        return ctx.require(*dens)

    u, v, lam = ctx.attempt(draw, accept)
    return _frobenius_checks(u, v, lam, sources.theta_memo(Fraction(0)))


def _run_frobenius(ctx: PointContext):
    n, _ = ctx.sizes((1, 5))

    def draw():
        p = ctx.nome()
        lam = ctx.complex_scalar()
        u = tuple(ctx.variable("elliptic") for _ in range(n))
        v = tuple(ctx.variable("elliptic") for _ in range(n))
        return p, lam, u, v, sources.theta_memo(p)

    def accept(drawn):
        lam, u, v, th = drawn[1:]
        d = sources.theta_quotient(th)
        return ctx.clear(
            lambda: [th(lam), *(d(vj, ui) for ui in u for vj in v),
                     *sources.apart(d, u), *sources.apart(d, v)]
        )

    _, lam, u, v, th = ctx.attempt(draw, accept)
    return _frobenius_checks(u, v, lam, th)


def _theta_vandermonde_checks(u, p, r, thetas):
    # one memo per nome: at n = 1 the psi rows' nome p^n is p
    th, th_n = (sources.theta_memo(nome, thetas) for nome in (p, p**len(u)))
    lhs, rhs = elliptic_vandermonde_sides(u, p, r, th, th_n)
    return [("det = factorization", lhs, rhs)]


def _run_theta_vandermonde_p0(ctx: PointContext):
    n, _ = ctx.sizes((1, 5))
    u = ctx.distinct_scalars(n)
    return _theta_vandermonde_checks(u, Fraction(0), ctx.scalar(), {})


def _run_theta_vandermonde(ctx: PointContext):
    n, _ = ctx.sizes((1, 5))

    def draw():
        p = ctx.nome()
        r = ctx.complex_scalar()
        u = tuple(ctx.variable("elliptic") for _ in range(n))
        return p, r, u, {}

    def accept(drawn):
        p, _, u, thetas = drawn
        return ctx.distinct(u, sources.theta_quotient(sources.theta_memo(p, thetas)))

    p, r, u, thetas = ctx.attempt(draw, accept)
    return _theta_vandermonde_checks(u, p, r, thetas)


def _run_cauchy_vandermonde(ctx: PointContext):
    n, m = ctx.sizes((1, 5), (0, 5), rule="m_le_n")

    def draw():
        return ctx.distinct_scalars(n), ctx.distinct_scalars(m)

    def accept(uv):
        u, v = uv
        return ctx.require(*[vi - uk for vi in v for uk in u])

    u, v = ctx.attempt(draw, accept)
    lhs = det(cauchy_vandermonde_matrix(u, v))
    return [("det = closed form", lhs, cauchy_vandermonde_closed(u, v))]


# -- specializations ---------------------------------------------------------


def _substitute_positions(ctx, values):
    order = list(range(len(values)))
    ctx.rng.shuffle(order)
    return tuple(values[i] for i in order)


def _vanishing_runner(regime: str, swap: bool):
    """P = Q = 0 where v holds u_k and sigma(u_k) (m <= n), or with ``swap``
    where u holds v_k and sigma^-1(v_k) (n <= m).
    """
    reg = sources.REGIMES[regime]

    def run(ctx: PointContext):
        n, m = (ctx.sizes((2, 4)) if regime == "elliptic"
                else ctx.sizes((2, 5), (2, 5), rule="m_le_n"))
        if swap:
            n, m = m, n
        base = ctx.sample(regime, n, m)
        anchors = base.v if swap else base.u
        x = anchors[ctx.rng.randrange(len(anchors))]
        pair = [x, reg.shift(base, inverse=swap)(x)]

        def build():
            rest = [ctx.variable(regime) for _ in range((n if swap else m) - 2)]
            vals = _substitute_positions(ctx, pair + rest)
            return replace(base, u=vals) if swap else replace(base, v=vals)

        def accept(par):
            return ctx.distinct(par.u if swap else par.v, reg.pair(par))

        params = ctx.attempt(build, accept)
        zero = ctx.field.zero
        return [
            ("P = 0", source_polynomial_form(regime, "P", params), zero),
            ("Q = 0", source_polynomial_form(regime, "Q", params), zero),
        ]

    return run


def _evaluation_runner(regime: str, swap: bool):
    """P and Q at v = {u_I, sigma(u_J)} (m <= n), or with ``swap`` at
    u = {v_I, sigma^-1(v_J)} (n <= m), against their closed product.

    A rejected draw redraws the base point, the split and the order: the
    acceptance test depends on the substituted values only as a set.  At
    v = {u_I, sigma(u_J)} the F-side weight w(|J|) times lambda^(|I| |J|)
    (``Regime.scale``) is the closed product's prefactor: the elliptic
    weight theta(q^|J| L prod u / prod v; p) is then theta(L; p).
    """
    reg = sources.REGIMES[regime]

    def run(ctx: PointContext):
        n, m = (ctx.sizes((1, 4)) if regime == "elliptic"
                else ctx.sizes((1, 5), (1, 5), rule="m_le_n"))
        if swap:
            n, m = m, n

        def draw():
            base = ctx.sample(regime, n, m)
            xs = base.v if swap else base.u
            picks = ctx.rng.sample(range(len(xs)), n if swap else m)
            split = ctx.rng.randint(0, len(picks))
            iset, jset = sorted(picks[:split]), sorted(picks[split:])
            shift = reg.shift(base, inverse=swap)
            vals = _substitute_positions(ctx, [xs[i] for i in iset] + [shift(xs[j]) for j in jset])
            params = replace(base, u=vals) if swap else replace(base, v=vals)
            return params, xs, iset, jset

        def accept(drawn):
            par = drawn[0]
            return ctx.distinct(par.u if swap else par.v, reg.pair(par))

        params, xs, iset, jset = ctx.attempt(draw, accept)
        d, sigma = reg.pair(params), reg.shift(params)
        nj = len(jset)
        others = [k for k in range(len(xs)) if k not in iset]
        if swap:
            closed = (-params.z) ** nj * reg.scale(params, -(nj * (nj + 1) // 2))
            closed *= reg.prefactor(params)
            factors = [d(xs[i], xs[j]) for i in iset for j in jset]
            factors += [d(xs[j], sigma(xs[i])) for i in iset for j in range(len(xs))]
            factors += [d(sigma(xs[k]), xs[j]) for j in jset for k in others]
        else:
            closed = reg.weights(params, True, nj)[nj]
            closed *= reg.scale(params, len(iset) * nj)
            factors = [d(xs[j], xs[i]) for i in iset for j in jset]
            factors += [d(xs[i], sigma(xs[j])) for i in iset for j in range(len(xs))]
            factors += [d(sigma(xs[j]), xs[k]) for j in jset for k in others]
        for factor in factors:
            closed *= factor
        return [
            ("P closed form", source_polynomial_form(regime, "P", params), closed),
            ("Q closed form", source_polynomial_form(regime, "Q", params), closed),
        ]

    return run


def _run_elliptic_quasi_periodicity(ctx: PointContext):
    n, _ = ctx.sizes((1, 3))
    params = ctx.sample_elliptic(n)
    k = ctx.rng.randrange(n)
    shifted = replace(
        params, v=tuple(params.p * x if idx == k else x for idx, x in enumerate(params.v))
    )
    mult = (-1 / params.p) ** (n + 1) * params.q**n * params.lam
    mult *= params.v[k] ** (-(n + 1))
    mult *= prod(ui**2 for ui in params.u)
    mult *= prod(1 / params.v[j] for j in range(n) if j != k)
    p_ref = sources.elliptic_P(params)
    q_ref = sources.elliptic_Q(params)
    return [
        ("P multiplier", sources.elliptic_P(shifted), mult * p_ref),
        ("Q multiplier", sources.elliptic_Q(shifted), mult * q_ref),
    ]


# -- degenerations -----------------------------------------------------------


def _run_lambda_weighted_identity(ctx: PointContext):
    n, m = ctx.sizes((1, 5), (0, 5), rule="m_le_n")
    params = ctx.sample_trig(n, m, with_lam=True)
    q, z, lam = params.q, params.z, params.lam
    lhs = None
    for ell in range(0, n - m + 1):
        shifted = replace(params, z=q ** (n - m) * z, lam=q**ell * lam)
        term = (-z) ** ell * q ** (ell * (ell - 1) // 2) * q_binomial(n - m, ell, q)
        term *= sources.trig_lambda_F(shifted)
        lhs = term if lhs is None else lhs + term
    rhs = sources.trig_lambda_G(params)
    return [("binomial expansion of weighted sums", lhs, rhs)]


def _run_lambda_zero_reduction(ctx: PointContext):
    n, m = ctx.sizes((1, 5), (0, 5), rule="m_le_n")
    params = ctx.sample_trig(n, m)
    q, z = params.q, params.z
    zero = ctx.field.zero
    lhs = sources.trig_lambda_F(replace(params, z=q ** (n - m) * z, lam=zero))
    for j in range(1, n - m + 1):
        lhs *= 1 - q ** (j - 1) * z
    rhs = sources.trig_lambda_G(replace(params, lam=zero))
    return [("weight-free reduction", lhs, rhs)]


def _run_elliptic_to_trig_limit(ctx: PointContext):
    # flat-nome corrections scale like p * (|x| + 1/|x|) per theta factor, so
    # keep sizes and moduli tame to hold the first-order constant down
    n, _ = ctx.sizes((1, 2))

    def draw():
        q = ctx.complex_scalar(*( (0.45, 0.75) if ctx.rng.random() < 0.5 else (1.3, 1.9) ))
        return TrigParams(
            q=q,
            z=ctx.complex_scalar(0.3, 1.4),
            u=tuple(ctx.complex_scalar(0.7, 1.4) for _ in range(n)),
            v=tuple(ctx.complex_scalar(0.7, 1.4) for _ in range(n)),
            lam=ctx.complex_scalar(0.3, 1.2),
        )

    params = ctx.attempt(draw, lambda par: ctx.general("trig", par))
    p = 1e-6
    lam_balanced = params.lam * prod(params.v) / prod(params.u)
    ell = EllipticParams(
        p=complex(p), q=params.q, lam=lam_balanced, z=params.z, u=params.u, v=params.v
    )
    checks = [
        (
            "flat-nome limit, F",
            sources.elliptic_F(ell),
            sources.trig_lambda_F(params),
        ),
        (
            "flat-nome limit, G",
            sources.elliptic_G(ell),
            sources.trig_lambda_G(params),
        ),
    ]
    return checks


def _trig_exponential_point(ctx: PointContext, n: int, m: int):
    def draw():
        c = ctx.rng.uniform(0.3, 0.9)
        z = ctx.complex_scalar(0.3, 1.5)
        x = tuple(ctx.rng.uniform(-2.0, 2.0) for _ in range(n))
        y = tuple(ctx.rng.uniform(-2.0, 2.0) for _ in range(m))
        return RatParams(c=c, z=z, u=x, v=y)

    real = ctx.attempt(draw, lambda par: ctx.general("rational", par))
    c, z, x, y = real.c, real.z, real.u, real.v
    rat = RatParams(c=complex(c), z=z, u=tuple(map(complex, x)), v=tuple(map(complex, y)))

    def trig_at(e):
        return TrigParams(
            q=complex(math.exp(e * c)),
            z=z,
            u=tuple(cmath.exp(e * xi) for xi in x),
            v=tuple(cmath.exp(e * yi) for yi in y),
        )

    return rat, trig_at


def _run_trig_to_rational_limit(ctx: PointContext):
    # the O(eps) coefficient carries a factor (m - n - 1), so m = n + 1 would
    # leave only the O(eps^2) term and the residual would quarter, not halve
    n, m = ctx.sizes((1, 3), (1, 3))
    if m == n + 1:
        m = n
    rat, trig_at = _trig_exponential_point(ctx, n, m)
    target = sources.rational_F(rat)
    f1 = sources.trig_F(trig_at(1e-4))
    f2 = sources.trig_F(trig_at(5e-5))
    r1 = get_field(COMPLEX).residual(f1, target)
    r2 = get_field(COMPLEX).residual(f2, target)
    checks = [("exponential-variable limit", f1, target)]
    if r1 > 1e-8:
        # first-order limit: halving the exponent scale halves the residual
        # (banded: the second-order term shifts the ratio by O(eps))
        ratio = r1 / r2
        ok = 1.6 <= ratio <= 2.4
        checks.append(
            ("residual halving ratio", complex(2.0 if ok else ratio), complex(2.0))
        )
    return checks


# -- q-identities ------------------------------------------------------------


def _run_q_binomial_product(ctx: PointContext):
    n, _ = ctx.sizes((1, 7))
    q = ctx.q_scalar()
    z = ctx.scalar()
    lhs = sum(
        z**l * q ** (l * (l + 1) // 2) * q_binomial(n, l, q) for l in range(n + 1)
    )
    rhs = prod(1 + q**j * z for j in range(1, n + 1))
    return [("generating product", lhs, rhs)]


def _q_identity_subsets(ctx: PointContext, n: int):
    def draw():
        return tuple(ctx.scalar() for _ in range(n))

    return ctx.attempt(draw, ctx.distinct)


def _run_q_subset_ratio(ctx: PointContext):
    n, _ = ctx.sizes((1, 7))
    q = ctx.q_scalar()
    u = _q_identity_subsets(ctx, n)
    # the ratio (a - b/q) / (a - b) is the trig F pair ratio at 1/q, with no partners
    sums = sources.size_sums("trig", "F", TrigParams(q=1 / q, z=0, u=(), v=u))
    return [(f"subset ratio, size {ell}", total, q_binomial(n, ell, 1 / q))
            for ell, total in enumerate(sums)]


def _run_q_inversion_statistic(ctx: PointContext):
    n, _ = ctx.sizes((1, 7))
    q = ctx.q_scalar()
    # K's term is q^-inv(K), inv(K) = #{(i, j) : i in K, j notin K, i > j}
    pair = [[1 / q if i > j else 1 for j in range(n)] for i in range(n)]
    sums = sources.subset_sums_by_size(pair, one=ctx.field.one)
    return [(f"inversion stat, size {ell}", total, q_binomial(n, ell, 1 / q))
            for ell, total in enumerate(sums)]


def _run_binomial_subset_identity(ctx: PointContext):
    n, _ = ctx.sizes((1, 7))
    c = ctx.scalar(0.3, 2.0)
    u = _q_identity_subsets(ctx, n)
    # the ratio (a - b + c) / (a - b) is the rational F pair ratio at -c, with no partners;
    # the size-l sum is C(n, l) at every c, so the case cannot see c (c -> -c passes too)
    sums = sources.size_sums("rational", "F", RatParams(c=-c, z=0, u=(), v=u))
    return [(f"shifted ratios, size {ell}", total, ctx.field.one * math.comb(n, ell))
            for ell, total in enumerate(sums)]


# -- wall crossing -----------------------------------------------------------


def _wallcross_point(ctx: PointContext, n: int, m: int):
    def draw():
        t = ctx.fraction(nonzero=True)
        u = tuple(ctx.fraction(nonzero=True) for _ in range(n))
        v = tuple(ctx.fraction(nonzero=True) for _ in range(m))
        return t, u, v

    def accept(t3):
        t, u, v = t3
        return (
            abs(t) != 1
            and ctx.distinct(u)
            and ctx.distinct(v)
            and ctx.require(*(vi - uk for vi in v for uk in u))
        )

    return ctx.attempt(draw, accept)


def _run_chi_coefficient_identity(ctx: PointContext):
    n, m = ctx.sizes((0, 5), (0, 5), rule="m_le_n")
    n, m = m, n  # need n <= m
    ell = ctx.rng.randint(0, min(4, m))
    t, u, v = _wallcross_point(ctx, n, m)
    lhs, rhs = wallcross.coeff_identity_sides(ell, m, n, t, u, v)
    return [(f"coefficient l={ell}", lhs, rhs)]


def _run_wallcrossing_correction(ctx: PointContext):
    n, m = ctx.sizes((0, 5), (0, 5), rule="m_le_n")
    n, m = m, n
    ell = ctx.rng.randint(1, 4)
    t, u, v = _wallcross_point(ctx, n, m)
    lhs, rhs = wallcross.wallcrossing_sides(ell, m, n, t, u, v)
    return [(f"singleton correction l={ell}", lhs, rhs)]


def _run_hook_product(ctx: PointContext):
    ell = ctx.rng.randint(0, 6)
    d = ctx.rng.randint(0, 6)
    k = ctx.rng.randint(0, min(ell, d))
    s = ctx.ratio(-20, 20, 20, lambda s: s != 0 and abs(s) != 1)
    lhs, rhs = wallcross.hook_product_identity(ell, k, d, s)
    return [(f"chains l={ell} k={k} d={d}", lhs, rhs)]


def _run_hook_product_limit(ctx: PointContext):
    ell = ctx.rng.randint(0, 6)
    d = ctx.rng.randint(0, 6)
    k = ctx.rng.randint(0, min(ell, d))
    lhs, rhs = wallcross.hook_product_limit(ell, k, d)
    return [(f"binomial limit l={ell} k={k} d={d}", lhs, rhs)]


# -- symmetrization ----------------------------------------------------------


def _lascoux_point(ctx: PointContext, n: int) -> RatParams:
    def draw():
        c = ctx.fraction(lo=-9, hi=9, nonzero=True)
        u = tuple(ctx.fraction(nonzero=True) for _ in range(n))
        v = tuple(ctx.fraction(nonzero=True) for _ in range(n))
        return RatParams(c=c, z=Fraction(1), u=u, v=v)

    return ctx.attempt(draw, _lascoux_general)


def _lascoux_general(point: RatParams) -> bool:
    """u and v are each distinct, u_i - u_j is kept off +-c, and v_i - u_k off
    0 and +-c.  The tests compare the ints (a, b, g) = L (u, v, c) of the
    point's one int form (``sources.int_form``), which the symmetrize
    sides read again: scaling by L > 0 keeps every zero test."""
    a, b, _, (_, g, _) = sources.int_form(point)
    a, b = set(a), set(b)
    return (
        len(a) == len(point.u)
        and len(b) == len(point.v)
        and (not g or a.isdisjoint([x + g for x in a]))
        and b.isdisjoint([x + d for x in a for d in (0, g, -g)])
    )


def _run_divided_difference_symmetrization(ctx: PointContext):
    n, _ = ctx.sizes((2, 6))
    point = _lascoux_point(ctx, n)
    degree = ctx.rng.randint(0, n)
    coeffs = [ctx.fraction() for _ in range(degree + 1)]
    lhs, rhs, form = symmetrize.lascoux_symmetrized_sides(point, coeffs)
    return [
        ("symmetrized sum = determinant form", lhs, rhs),
        ("determinant form = cleared polynomial route", form,
         symmetrize.lascoux_rhs_via_source(point)),
    ]


def _run_tau_shift_symmetrization(ctx: PointContext):
    n, _ = ctx.sizes((1, 6))
    point = _lascoux_point(ctx, n)
    lhs, rhs = symmetrize.lascoux_tau_sides(point)
    via_source = symmetrize.lascoux_tau_rhs_via_source(point)
    return [
        ("symmetrized sum = determinant form", lhs, rhs),
        ("determinant form = shifted polynomial route", rhs, via_source),
    ]


def _run_symmetrization_reduction(ctx: PointContext):
    n, _ = ctx.sizes((2, 5))
    point = _lascoux_point(ctx, n)
    lhs, rhs = symmetrize.reduction_identity_sides(point)
    return [("leading-coefficient identity", lhs, rhs)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _build_registry():
    add = register
    add(CaseDef(
        "rational_source_identity", "identity", "rational",
        "subset-sum identity F = G, additive shifts",
        (EXACT, COMPLEX), _identity_runner("rational"),
    ))
    add(CaseDef(
        "trig_source_identity", "identity", "trig",
        "subset-sum identity F = G, multiplicative shifts",
        (EXACT, COMPLEX), _identity_runner("trig"),
    ))
    add(CaseDef(
        "elliptic_source_identity", "identity", "elliptic",
        "subset-sum identity F = G, theta weights",
        (COMPLEX,), _identity_runner("elliptic"), tol_complex=1e-8,
    ))
    for regime in ("rational", "trig", "elliptic"):
        for side in ("F", "G"):
            fields = (COMPLEX,) if regime == "elliptic" else (EXACT, COMPLEX)
            tol = 1e-8 if regime == "elliptic" else 1e-10
            add(CaseDef(
                f"{regime}_difference_form_{side}", "identity", regime,
                f"difference-operator form of {side} equals its subset sum",
                fields, _diff_runner(regime, side), tol_complex=tol,
            ))
    add(CaseDef(
        "frobenius_factorization", "factorization", "elliptic",
        "theta-Cauchy determinant equals its factorized closed form",
        (COMPLEX,), _run_frobenius, tol_complex=1e-9,
    ))
    add(CaseDef(
        "frobenius_factorization_p0", "factorization", "rational",
        "flat-nome theta-Cauchy determinant, exact rational check",
        (EXACT,), _run_frobenius_p0,
    ))
    add(CaseDef(
        "theta_vandermonde_factorization", "factorization", "elliptic",
        "theta Vandermonde determinant equals its factorization",
        (COMPLEX,), _run_theta_vandermonde, tol_complex=1e-9,
    ))
    add(CaseDef(
        "theta_vandermonde_factorization_p0", "factorization", "rational",
        "flat-nome Vandermonde factorization, exact rational check",
        (EXACT,), _run_theta_vandermonde_p0,
    ))
    add(CaseDef(
        "cauchy_vandermonde_factorization", "factorization", "rational",
        "mixed Cauchy/monomial block determinant closed form",
        (EXACT,), _run_cauchy_vandermonde,
    ))
    for regime in ("elliptic", "trig", "rational"):
        # ik has its own case, rational_ik, checked against P
        for family in sorted(AVAILABILITY[regime] - {"ik"}):
            for side in ("F", "G"):
                fields = (COMPLEX,) if regime == "elliptic" else (EXACT, COMPLEX)
                tol = 1e-8 if regime == "elliptic" else 1e-10
                add(CaseDef(
                    f"{regime}_{family}_{side}", "determinant", regime,
                    f"{family} determinant representation of {side} vs subset sum",
                    fields, _det_rep_runner(regime, family, side), tol_complex=tol,
                ))
    add(CaseDef(
        "rational_ik", "determinant", "rational",
        "paired-root determinant equals the cleared polynomial at z = 1",
        (EXACT, COMPLEX), _run_rational_ik,
    ))
    add(CaseDef(
        "elliptic_mpt_det_identity", "determinant", "elliptic",
        "mixed-basis determinant identity linking both variable families",
        (COMPLEX,), _run_elliptic_det_identity, tol_complex=1e-8,
    ))
    for regime in ("trig", "rational"):
        add(CaseDef(
            f"{regime}_bs_delta_limit", "determinant", regime,
            "large-delta determinant approaches its limit form",
            (COMPLEX,), _bs_delta_limit_runner(regime), tol_complex=1e-3,
        ))
    add(CaseDef(
        "rational_vanishing", "specialization", "rational",
        "cleared polynomials vanish at paired substitutions v = u_k, u_k + c",
        (EXACT, COMPLEX), _vanishing_runner("rational", swap=False),
    ))
    add(CaseDef(
        "rational_vanishing_swap", "specialization", "rational",
        "vanishing at paired substitutions into u (m > n)",
        (EXACT, COMPLEX), _vanishing_runner("rational", swap=True),
    ))
    add(CaseDef(
        "rational_evaluation", "specialization", "rational",
        "closed product evaluation at v = {u_I, u_J + c}",
        (EXACT, COMPLEX), _evaluation_runner("rational", swap=False),
    ))
    add(CaseDef(
        "rational_evaluation_swap", "specialization", "rational",
        "closed product evaluation at u = {v_I, v_J - c} (m > n)",
        (EXACT, COMPLEX), _evaluation_runner("rational", swap=True),
    ))
    add(CaseDef(
        "trig_vanishing", "specialization", "trig",
        "cleared polynomials vanish at paired substitutions v = u_k, q u_k",
        (EXACT, COMPLEX), _vanishing_runner("trig", swap=False),
    ))
    add(CaseDef(
        "trig_vanishing_swap", "specialization", "trig",
        "vanishing at paired substitutions into u (m > n)",
        (EXACT, COMPLEX), _vanishing_runner("trig", swap=True),
    ))
    add(CaseDef(
        "trig_evaluation", "specialization", "trig",
        "closed product evaluation at v = {u_I, q u_J}",
        (EXACT, COMPLEX), _evaluation_runner("trig", swap=False),
    ))
    add(CaseDef(
        "trig_evaluation_swap", "specialization", "trig",
        "closed product evaluation at u = {v_I, v_J / q} (m > n)",
        (EXACT, COMPLEX), _evaluation_runner("trig", swap=True),
    ))
    add(CaseDef(
        "elliptic_vanishing", "specialization", "elliptic",
        "cleared theta polynomials vanish at paired substitutions",
        (COMPLEX,), _vanishing_runner("elliptic", swap=False), tol_complex=1e-8,
    ))
    add(CaseDef(
        "elliptic_evaluation", "specialization", "elliptic",
        "closed theta-product evaluation at v = {u_I, q u_J}",
        (COMPLEX,), _evaluation_runner("elliptic", swap=False), tol_complex=1e-8,
    ))
    add(CaseDef(
        "elliptic_quasi_periodicity", "specialization", "elliptic",
        "nome shift v_k -> p v_k multiplies P and Q by the closed factor",
        (COMPLEX,), _run_elliptic_quasi_periodicity, tol_complex=1e-8,
    ))
    add(CaseDef(
        "lambda_weighted_binomial_identity", "degeneration", "trig",
        "q-binomial expansion ties the weighted v-side and u-side sums",
        (EXACT, COMPLEX), _run_lambda_weighted_identity,
    ))
    add(CaseDef(
        "lambda_zero_reduction", "degeneration", "trig",
        "weight-zero case collapses to a finite product times the plain sum",
        (EXACT, COMPLEX), _run_lambda_zero_reduction,
    ))
    add(CaseDef(
        "elliptic_to_trig_limit", "degeneration", "elliptic",
        "flat-nome limit of the theta sums hits the weighted trig sums",
        (COMPLEX,), _run_elliptic_to_trig_limit, tol_complex=1e-4,
    ))
    add(CaseDef(
        "trig_to_rational_limit", "degeneration", "rational",
        "exponential-variable scaling limit hits the additive sums",
        (COMPLEX,), _run_trig_to_rational_limit, tol_complex=1e-3,
    ))
    add(CaseDef(
        "q_binomial_product", "q_identity", "trig",
        "triangular q-binomial generating product",
        (EXACT, COMPLEX), _run_q_binomial_product,
    ))
    add(CaseDef(
        "q_subset_ratio_identity", "q_identity", "trig",
        "fixed-size subset cross-ratio sum equals a Gaussian binomial",
        (EXACT, COMPLEX), _run_q_subset_ratio,
    ))
    add(CaseDef(
        "q_inversion_statistic", "q_identity", "trig",
        "inversion-statistic generating sum equals a Gaussian binomial",
        (EXACT, COMPLEX), _run_q_inversion_statistic,
    ))
    add(CaseDef(
        "binomial_subset_identity", "q_identity", "rational",
        "shifted cross-ratio subset sum equals a binomial coefficient",
        (EXACT, COMPLEX), _run_binomial_subset_identity,
    ))
    add(CaseDef(
        "chi_coefficient_identity", "wallcrossing", "trig",
        "fixed-order coefficients of the two fixed-point sums agree",
        (EXACT,), _run_chi_coefficient_identity,
    ))
    add(CaseDef(
        "wallcrossing_singleton_correction", "wallcrossing", "trig",
        "difference of fixed-point sums equals the singleton-chain correction",
        (EXACT,), _run_wallcrossing_correction,
    ))
    add(CaseDef(
        "hook_product_factorization", "wallcrossing", "trig",
        "decreasing-chain product sum factorizes into symmetric q-factorials",
        (EXACT,), _run_hook_product,
    ))
    add(CaseDef(
        "hook_product_limit", "wallcrossing", "rational",
        "signed-statistic chain sum collapses to a binomial coefficient",
        (EXACT,), _run_hook_product_limit,
    ))
    add(CaseDef(
        "divided_difference_symmetrization", "lascoux", "rational",
        "index-shift symmetrization equals the paired-root determinant form",
        (EXACT,), _run_divided_difference_symmetrization,
    ))
    add(CaseDef(
        "tau_shift_symmetrization", "lascoux", "rational",
        "erasing-shift symmetrization equals its determinant closed form",
        (EXACT,), _run_tau_shift_symmetrization,
    ))
    add(CaseDef(
        "symmetrization_reduction_identity", "lascoux", "rational",
        "leading-coefficient reduction behind the shift symmetrization",
        (EXACT,), _run_symmetrization_reduction,
    ))


_build_registry()


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------


def point_seed(master_seed: int, case_id: str, index: int) -> str:
    return f"{master_seed}:{case_id}:{index}"


def sample_field(regime: str, config: SamplingConfig) -> str:
    """The field ``sample_params`` draws ``regime``'s points over: the
    requested one, else complex for the elliptic regime and exact for the
    others.  A field that cannot hold the regime refuses its draw
    (``ExactField.nome``)."""
    return config.field or (COMPLEX if regime == "elliptic" else EXACT)


def sample_params(regime: str, config: SamplingConfig, point_index: int):
    """Public sampling entry point: deterministic params for (seed, index)."""
    rng = random.Random(point_seed(config.master_seed, f"sample_{regime}", point_index))
    ctx = PointContext(rng, sample_field(regime, config), config)
    if regime not in ("elliptic", "trig", "rational"):
        raise ValueError(f"unknown regime {regime!r}")
    return ctx.sample(regime, *_core_sizes(ctx, regime))


def _check_point(checks, field, tol: float, index: int, seed: str) -> PointRecord:
    """The point's record: its worst check against the tolerance."""
    residual = field.residual
    worst = None
    for label, lhs, rhs in checks:
        res = residual(lhs, rhs)
        if worst is None or res > worst[0]:
            worst = (res, label, lhs, rhs)
    res, label, lhs, rhs = worst
    return PointRecord(index, seed, res, res <= tol, label=label, lhs=str(lhs), rhs=str(rhs))


def run_case(case_id: str, config: SamplingConfig) -> VerificationReport:
    """Check the case at ``config.points`` seeded points.

    A point whose runner or checks raise is recorded as failed, with the
    exception's text, and the remaining points still run.
    """
    case = get_case(case_id)
    field_name = config.field or case.fields[0]
    if field_name not in case.fields:
        raise ValueError(f"case {case_id} does not support field {field_name!r}")
    tol = case.tol(field_name, config.tol_match)
    report = VerificationReport(
        case_id=case.case_id,
        anchor=case.anchor,
        kind=case.kind,
        regime=case.regime,
        field=field_name,
        tol=tol,
    )
    start = time.perf_counter()
    for index in range(config.points):
        seed = point_seed(config.master_seed, case_id, index)
        ctx = PointContext(random.Random(seed), field_name, config)
        try:
            record = _check_point(case.runner(ctx), ctx.field, tol, index, seed)
        except SamplingError as exc:
            record = PointRecord(index, seed, math.inf, False, error=f"sampling: {exc}")
        except Exception as exc:  # one failed point; the run goes on
            record = PointRecord(
                index, seed, math.inf, False, error=f"{type(exc).__name__}: {exc}"
            )
        report.points.append(record)
        report.max_rel_err = max(report.max_rel_err, record.residual)
        report.passed = report.passed and record.ok
    report.millis = (time.perf_counter() - start) * 1000.0
    return report

