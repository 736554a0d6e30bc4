"""Engine behavior: sampling, determinism, reports, case registry."""

import json
import math
import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from srcid import detreps, engine, linalg, qseries, sources, symmetrize
from srcid.engine import (
    PointContext,
    SamplingConfig,
    UnknownCaseError,
    get_case,
    list_cases,
    match_cases,
    point_seed,
    run_case,
    sample_params,
)
from srcid.fields import COMPLEX, EXACT, get_field
from srcid.sources import RatParams, TrigParams, theta_memo, theta_quotient


def test_registry_covers_every_kind():
    kinds = {c.kind for c in list_cases()}
    assert kinds == {
        "identity",
        "factorization",
        "determinant",
        "specialization",
        "degeneration",
        "q_identity",
        "wallcrossing",
        "lascoux",
    }
    # the determinant family table is fully registered
    ids = {c.case_id for c in list_cases()}
    for regime, families in (
        ("elliptic", ("mpt", "bs")),
        ("trig", ("mpt", "scalar_product", "dwbc", "bs", "bs_limit")),
        ("rational", ("mpt", "scalar_product", "dwbc", "bs", "bs_limit")),
    ):
        for family in families:
            for side in ("F", "G"):
                assert f"{regime}_{family}_{side}" in ids
    assert "rational_ik" in ids


def test_determinant_cases_are_the_availability_matrix_without_ik():
    from srcid.detreps import FAMILIES

    expected = {
        f"{regime}_{family}_{side}"
        for regime, families in FAMILIES.items()
        for family in families
        for side in ("F", "G")
    }
    registered = {c.case_id for c in list_cases()
                  if c.kind == "determinant" and c.case_id.endswith(("_F", "_G"))}
    assert registered == expected
    assert all(get_case(cid).regime == cid.split("_")[0] for cid in expected)
    # ik is checked against P in its own case
    assert get_case("rational_ik").kind == "determinant"


def test_aux_independence_is_checked_exactly_for_the_families_that_draw_aux():
    draws = detreps.AUX_DRAWS
    cases = [c for c in list_cases()
             if c.kind == "determinant" and c.case_id.endswith(("_F", "_G"))]
    assert cases
    for case in cases:
        regime, side = case.regime, case.case_id[-1]
        family = case.case_id[len(regime) + 1:-2]
        for index in range(2):
            ctx = PointContext(random.Random(f"{case.case_id}:{index}"), case.fields[0],
                               SamplingConfig())
            checks = case.runner(ctx)
            labels = [label for label, _, _ in checks]
            assert labels[1:] == (["aux independence"] if family in draws else []), case.case_id
            aux = ctx.sample_aux(regime, family, side, ctx.sample(regime, 2, 2))
            assert (aux is None) == (family not in draws), case.case_id
    # ik draws none either, and every family that draws is in some regime's table
    ctx = PointContext(random.Random(0), EXACT, SamplingConfig())
    assert ctx.sample_aux("rational", "ik", "F", ctx.sample_rational(2, 2)) is None
    assert all(any(family in families for families in detreps.FAMILIES.values())
               for family in draws)


def test_sampling_is_deterministic():
    cfg = SamplingConfig(master_seed=123, points=2)
    a = sample_params("rational", cfg, 0)
    b = sample_params("rational", cfg, 0)
    assert a == b
    c = sample_params("rational", cfg, 1)
    assert c != a


def test_sampling_smoke_many_draws():
    cfg = SamplingConfig(master_seed=5, points=1)
    for regime in ("rational", "trig"):
        for index in range(500):
            params = sample_params(regime, cfg, index)
            assert len(params.u) <= 5 and len(params.v) <= 5
    for index in range(50):
        params = sample_params("elliptic", cfg, index)
        assert 1 <= len(params.u) <= 4
    with pytest.raises(engine.SamplingError, match="elliptic parameters are complex-only"):
        sample_params("elliptic", SamplingConfig(field=EXACT), 0)


def test_an_exact_context_refuses_the_elliptic_draw():
    ctx = PointContext(random.Random(1), EXACT, SamplingConfig())
    with pytest.raises(engine.SamplingError, match="elliptic parameters are complex-only"):
        ctx.sample_elliptic(2)


def test_empty_sizes_are_valid():
    cfg = SamplingConfig(master_seed=11, points=1, fixed_sizes=(0, 0))
    params = sample_params("rational", cfg, 0)
    assert params.u == () and params.v == ()


def test_reports_are_deterministic():
    cfg = SamplingConfig(master_seed=99, points=4)
    rep1 = run_case("rational_source_identity", cfg)
    rep2 = run_case("rational_source_identity", cfg)
    d1 = rep1.as_dict(include_timings=False)
    d2 = rep2.as_dict(include_timings=False)
    assert d1 == d2
    assert rep1.as_dict()["millis"] >= 0.0


def test_exact_field_pass_means_literal_equality():
    cfg = SamplingConfig(master_seed=7, points=5, field=EXACT)
    rep = run_case("trig_source_identity", cfg)
    assert rep.passed
    assert rep.tol == 0.0
    assert all(p.residual == 0.0 for p in rep.points)


def test_exact_field_ignores_a_tolerance_override():
    case = get_case("rational_source_identity")
    assert case.tol(EXACT, 0.5) == 0.0
    assert case.tol(EXACT, None) == 0.0
    assert case.tol(COMPLEX, 0.5) == 0.5
    assert case.tol(COMPLEX, None) == case.tol_complex


def test_complex_field_override():
    cfg = SamplingConfig(master_seed=7, points=3, field=COMPLEX)
    rep = run_case("rational_source_identity", cfg)
    assert rep.passed
    assert rep.field == COMPLEX
    assert rep.tol == 1e-10


def test_unknown_case_raises():
    with pytest.raises(UnknownCaseError):
        get_case("nonexistent_case")


def test_unsupported_field_rejected():
    cfg = SamplingConfig(master_seed=7, points=1, field=EXACT)
    with pytest.raises(ValueError):
        run_case("elliptic_source_identity", cfg)


def test_match_cases_filters():
    rational = match_cases(None, regime="rational")
    assert rational and all(c.regime == "rational" for c in rational)
    globbed = match_cases(["*_mpt_?"], regime="all")
    assert {c.case_id for c in globbed} == {
        "elliptic_mpt_F",
        "elliptic_mpt_G",
        "trig_mpt_F",
        "trig_mpt_G",
        "rational_mpt_F",
        "rational_mpt_G",
    }
    exact_only = match_cases(None, regime="all", field_name=EXACT)
    assert all(EXACT in c.fields for c in exact_only)


def test_point_seed_format():
    assert point_seed(42, "case", 3) == "42:case:3"


def test_kind_wrappers_run():
    # one case of each kind the removed per-kind aliases covered
    cfg = SamplingConfig(master_seed=3, points=2)
    assert run_case("rational_source_identity", cfg).passed
    assert run_case("rational_vanishing", cfg).passed
    assert run_case("lambda_zero_reduction", cfg).passed


def test_every_registered_case_passes_at_default_tolerance():
    cfg = SamplingConfig(master_seed=20260801, points=4)
    for case in list_cases():
        rep = run_case(case.case_id, cfg)
        assert rep.passed, (case.case_id, rep.max_rel_err)


def test_distinct_takes_a_pair_function_and_rejects_a_zero_entry():
    cfg = SamplingConfig(master_seed=1, points=1)
    exact = PointContext(random.Random("x"), EXACT, cfg)
    assert exact.distinct((Fraction(1), Fraction(2)))
    assert not exact.distinct((Fraction(1), Fraction(1)))
    assert not exact.distinct((Fraction(1), Fraction(4)), lambda a, b: a - b - 3)
    ctx = PointContext(random.Random("x"), COMPLEX, cfg)
    d = theta_quotient(theta_memo(0.3 + 0.1j))
    assert ctx.distinct((1.1 + 0.2j, 0.5 - 0.6j), d)
    # theta(0; p) and a division by 0 are singular values, not errors
    assert not ctx.distinct((1.1 + 0.2j, 0j), d)
    assert not ctx.distinct((0j, 1.1 + 0.2j), d)


def fraction_lascoux_accept(ctx, point):
    """The Fraction accept test that _lascoux_point used before its int one."""
    c, u, v = point
    diffs = (vi - uk for vi in v for uk in u)
    return (
        ctx.distinct(u)
        and ctx.distinct(v)
        and ctx.distinct(u, lambda a, b: a - b - c)
        and ctx.require(*(x for d in diffs for x in (d, d - c, d + c)))
    )


def lascoux_general(point):
    """engine._lascoux_general at the rational point z = 1 of (c, u, v)."""
    c, u, v = point
    return engine._lascoux_general(RatParams(c=c, z=Fraction(1), u=u, v=v))


def test_lascoux_int_accept_agrees_with_the_fraction_predicate():
    ctx = PointContext(random.Random(83), EXACT, SamplingConfig(master_seed=1, points=1))
    rng = ctx.rng
    outcomes = []
    for trial in range(400):
        n = rng.randint(1, 6)
        hi = 20 if trial % 2 else 3  # narrow draws collide often
        c = ctx.fraction(lo=-hi, hi=hi, nonzero=True)
        u = tuple(ctx.fraction(lo=-hi, hi=hi, nonzero=True) for _ in range(n))
        v = tuple(ctx.fraction(lo=-hi, hi=hi, nonzero=True) for _ in range(n))
        point = (c, u, v)
        want = fraction_lascoux_accept(ctx, point)
        assert lascoux_general(point) == want, point
        outcomes.append(want)
    assert 40 < sum(outcomes) < 360  # both outcomes are well covered

    # crafted draws: each breaks a condition of the general point (c, u, v)
    F = Fraction
    c = F(3, 7)
    u = (F(1, 2), F(-5, 3), F(9, 4))
    v = (F(7, 5), F(-1, 6), F(11, 8))
    assert fraction_lascoux_accept(ctx, (c, u, v))
    assert lascoux_general((c, u, v))
    broken = [
        (c, (u[0], u[0] + c, u[2]), v),  # u_1 - u_2 = -c
        (c, (u[0], u[0] - c, u[2]), v),  # u_1 - u_2 = c
        (c, (u[0], u[1], u[0]), v),  # u_1 = u_3
        (c, u, (v[0], v[1], v[1])),  # v_2 = v_3
    ]
    for shift in (0, c, -c):  # v_i - u_k in {0, c, -c}
        broken.append((c, u, (v[0], u[2] + shift, v[2])))
        broken.append((-c, u, (u[1] + shift, v[1], v[2])))
    for point in broken:
        assert not fraction_lascoux_accept(ctx, point), point
        assert not lascoux_general(point), point
    # at c = 0 only the distinctness conditions remain, in both tests
    assert fraction_lascoux_accept(ctx, (F(0), u, v))
    assert lascoux_general((F(0), u, v))


def exact_runner_checks(case_id, points):
    """The checks of ``case_id``'s runner at its first seeded exact points."""
    case, config = get_case(case_id), SamplingConfig()
    for index in range(points):
        seed = point_seed(config.master_seed, case_id, index)
        yield case.runner(PointContext(random.Random(seed), EXACT, config))


def test_divided_difference_second_check_compares_nonzero_values():
    # the chain f[u_1..u_n] is 0 when deg f < n - 1; the second check leaves it out
    for checks in exact_runner_checks("divided_difference_symmetrization", 100):
        _, form, via_source = checks[1]
        assert form != 0 and via_source != 0


# scalings: how often each exact point object is scaled, once, when it is made
@pytest.mark.parametrize("case_id, scalings", [
    ("divided_difference_symmetrization", 1),
    ("tau_shift_symmetrization", 1),
    ("symmetrization_reduction_identity", 1),
    # the z = 1 point, which IK and P share
    ("rational_ik", 1),
    # eta is brought onto the point's form, not scaled with the point
    ("rational_bs_F", 1),
    ("trig_bs_G", 1),
    # the trig_lambda points (new z and Lambda)
    ("lambda_weighted_binomial_identity", 1),
    ("lambda_zero_reduction", 1),
])
def test_a_drawn_exact_point_is_scaled_once_per_point_object(monkeypatch, case_id, scalings):
    scaled, made = [], []
    real, post_init = sources.to_integers, sources._CorePoint.__post_init__

    def counting(values):
        scaled.append(tuple(values))
        return real(values)

    def making(point):
        before = len(scaled)
        post_init(point)
        assert len(scaled) - before == scalings * (point.ints is not None)
        if point.ints is not None:
            made.append(point)

    for module in (sources, symmetrize, detreps):
        monkeypatch.setattr(module, "to_integers", counting)
    monkeypatch.setattr(sources._CorePoint, "__post_init__", making)
    for _ in exact_runner_checks(case_id, 20):
        assert made
        keys = [(*((p.c,) if isinstance(p, RatParams) else ()), *p.u, *p.v) for p in made]
        # no point is scaled again, alone or together with eta
        assert sum(t[:len(key)] == key for t in scaled for key in set(keys)) == scalings * len(keys)
        scaled.clear()
        made.clear()


def test_swap_vanishing_runners_substitute_into_the_smaller_side(monkeypatch):
    sizes = []
    real = engine.source_polynomial_form

    def spy(regime, side, params, *rest):
        sizes.append((len(params.u), len(params.v)))
        return real(regime, side, params, *rest)

    monkeypatch.setattr(engine, "source_polynomial_form", spy)
    for case_id in ("rational_vanishing_swap", "trig_vanishing_swap"):
        sizes.clear()
        assert run_case(case_id, SamplingConfig(points=20)).passed
        assert all(n <= m for n, m in sizes) and any(n < m for n, m in sizes), case_id


def test_fixed_sizes_pin_the_case_dimensions():
    cfg = SamplingConfig(master_seed=31, points=3, fixed_sizes=(2, 4))
    rep = run_case("rational_source_identity", cfg)
    assert rep.passed


def test_singular_config_rejected():
    with pytest.raises(ValueError):
        SamplingConfig(points=0)
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplingConfig(tol_singular=bad)
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplingConfig(tol_match=bad)
    assert SamplingConfig(tol_match=0.0).tol_match == 0.0


def test_attempt_raises_after_cap():
    from srcid.engine import SamplingError

    cfg = SamplingConfig(master_seed=1, points=1)
    ctx = PointContext(random.Random("y"), EXACT, cfg)
    with pytest.raises(SamplingError):
        ctx.attempt(lambda: 0, lambda x: False)


def test_eta_nodes_raise_once_their_pool_of_fifty_values_is_drawn():
    from srcid.engine import SamplingError

    cfg = SamplingConfig(master_seed=1, points=1)
    for size in (0, 1, 5, 12, 50):
        ctx = PointContext(random.Random(size), EXACT, cfg)
        old = PointContext(random.Random(size), EXACT, cfg)
        assert detreps._eta_nodes(ctx, size) == loop_eta_nodes(old, size)
    # at size 51 loop_eta_nodes, which has no cap, never ends
    ctx = PointContext(random.Random("eta"), EXACT, cfg)
    with pytest.raises(SamplingError):
        detreps._eta_nodes(ctx, 51)


# Each primitive's rejection loop as it was written out before every resample
# went through PointContext.attempt, uncapped where it had no cap.  Each takes
# a context over its own rng and reads only the loop-free helpers and the
# field's name from it.


def exact(ctx):
    return ctx.field.name == EXACT


def loop_fraction(ctx):
    while True:
        val = Fraction(ctx.rng.randint(-20, 20), ctx.rng.randint(1, 20))
        if val != 0:
            return val


def loop_q_scalar(ctx):
    if exact(ctx):
        while True:
            q = Fraction(ctx.rng.randint(-8, 8), ctx.rng.randint(1, 8))
            if q != 0 and abs(q) != 1:
                return q
    lo, hi = (0.2, 0.8) if ctx.rng.random() < 0.5 else (1.25, 5.0)
    return ctx.complex_scalar(lo, hi)


def loop_small_fraction(ctx):
    while True:
        val = Fraction(ctx.rng.randint(-5, 5), ctx.rng.randint(1, 5))
        if val != 0:
            return val if exact(ctx) else complex(float(val))


def loop_mixing_matrix(ctx, size):
    while True:
        rows = tuple(
            tuple(ctx.rng.randint(-5, 5) for _ in range(size)) for _ in range(size)
        )
        if size == 0 or linalg.det_exact(rows) != 0:
            if exact(ctx):
                return rows
            return tuple(tuple(complex(x) for x in row) for row in rows)


def loop_distinct_scalars(ctx, count):
    out = []
    for _ in range(count):
        while True:
            x = loop_fraction(ctx) if exact(ctx) else ctx.complex_scalar()
            if all((x != y) if exact(ctx) else abs(x - y) >= ctx.tol_singular for y in out):
                out.append(x)
                break
    return tuple(out)


def loop_eta_nodes(ctx, size):
    vals = []
    for _ in range(size):
        while True:
            x = Fraction(ctx.rng.randint(-9, 9), ctx.rng.randint(1, 4))
            if x != 0 and x not in vals:
                vals.append(x)
                break
    if exact(ctx):
        return tuple(vals)
    return tuple(complex(float(x)) for x in vals)


@pytest.mark.parametrize("field_name", (EXACT, COMPLEX))
def test_sampler_primitives_draw_what_their_old_loops_drew(field_name):
    # same values of the same types (repr tells Fraction(1) from (1+0j)), and
    # the same rng calls: the twin generators end in the same state
    cfg = SamplingConfig(master_seed=1, points=1, tol_singular=0.5)
    for seed in range(12):
        ctx = PointContext(random.Random(seed), field_name, cfg)
        old = PointContext(random.Random(seed), field_name, cfg)
        for _ in range(4):
            drawn = ctx.fraction(nonzero=True)
            assert drawn != 0
            assert repr(drawn) == repr(loop_fraction(old))
            assert repr(ctx.q_scalar()) == repr(loop_q_scalar(old))
            assert repr(detreps._small_fraction(ctx)) == repr(loop_small_fraction(old))
            for size in (0, 1, 2, 3):
                drawn = detreps._mixing_matrix(ctx, size)
                assert repr(drawn) == repr(loop_mixing_matrix(old, size))
            for count in (0, 3, 8):
                drawn = ctx.distinct_scalars(count)
                assert ctx.distinct(drawn)
                assert repr(drawn) == repr(loop_distinct_scalars(old, count))
                drawn = detreps._eta_nodes(ctx, count)
                assert len(set(drawn)) == count
                assert repr(drawn) == repr(loop_eta_nodes(old, count))
        assert ctx.rng.getstate() == old.rng.getstate()


class ZeroRandint:
    """An rng whose randint gives 0 when 0 is in range and its lower bound
    otherwise, so every drawn numerator is 0 and every int matrix singular.
    It fails the test once a sampler makes 5 * RESAMPLE_CAP calls, so a loop
    that ignores the cap fails instead of hanging."""

    def __init__(self):
        self.calls = 0

    def randint(self, lo, hi):
        self.calls += 1
        assert self.calls <= 5 * engine.RESAMPLE_CAP, "no stop at RESAMPLE_CAP"
        return 0 if lo <= 0 <= hi else lo


CAPPED_DRAWS = [
    (EXACT, "fraction", (-20, 20, True)),
    (EXACT, "scalar", ()),
    (EXACT, "q_scalar", ()),
    (EXACT, "distinct_scalars", (2,)),
    (EXACT, "small_fraction", ()),
    (COMPLEX, "small_fraction", ()),
    (EXACT, "mixing_matrix", (2,)),
    (COMPLEX, "mixing_matrix", (2,)),
    (EXACT, "eta_nodes", (1,)),
    (COMPLEX, "eta_nodes", (1,)),
]


@pytest.mark.parametrize("field_name, name, args", CAPPED_DRAWS,
                         ids=[f"{field}-{name}" for field, name, _ in CAPPED_DRAWS])
def test_every_sampler_primitive_stops_at_the_resampling_cap(field_name, name, args):
    # the aux primitives are detreps helpers that take the context first
    ctx = PointContext(ZeroRandint(), field_name, SamplingConfig(master_seed=1, points=1))
    draw = getattr(ctx, name, None) or partial(getattr(detreps, f"_{name}"), ctx)
    with pytest.raises(engine.SamplingError, match="resampling cap exceeded"):
        draw(*args)


def aux_draw_settings():
    # every regime, family with aux, side and field; exact trig also at
    # q = 2 and -2, where the deformation's draws meet the powers of q
    for regime, families in detreps.FAMILIES.items():
        for family in sorted(families.keys() & detreps.AUX_DRAWS.keys()):
            for side in ("F", "G"):
                for field_name in (COMPLEX,) if regime == "elliptic" else (EXACT, COMPLEX):
                    for q in (None, 2, -2) if (regime, field_name) == ("trig", EXACT) else (None,):
                        yield regime, family, side, field_name, q


def test_every_accepted_aux_draw_evaluates():
    for regime, family, side, field_name, q in aux_draw_settings():
        for size in range(1, 5):
            seed = f"{regime}:{family}:{side}:{field_name}:{q}:{size}"
            ctx = PointContext(random.Random(seed), field_name, SamplingConfig())
            if q is not None:
                ctx.q_scalar = lambda: Fraction(q)
            other = ctx.rng.randint(1, 3)
            n, m = (size, size) if regime == "elliptic" else (
                (other, size) if side == "F" else (size, other))
            params = ctx.sample(regime, n, m)
            for _ in range(12 if q is None else 40):
                aux = ctx.sample_aux(regime, family, side, params)
                try:
                    detreps.det_rep(regime, family, side, params, aux)
                except detreps.AuxInvariantError as exc:
                    pytest.fail(f"{seed}: {aux} was accepted but raised {exc}")


def test_an_aux_invariant_error_fails_only_its_own_point(monkeypatch):
    # every admissible aux draw evaluates, so no runner redraws after an
    # AuxInvariantError: it fails its own point, and the other points run
    real = engine.det_rep

    for case_id in ("elliptic_mpt_det_identity", "elliptic_mpt_F", "trig_bs_F"):
        points = []  # each point's params, in the order the points run

        def rejects_point_1(regime, family, side, params, aux=None):
            if not points or points[-1] is not params:
                points.append(params)
            if len(points) == 2:
                raise detreps.AuxInvariantError("rejected on purpose")
            return real(regime, family, side, params, aux)

        monkeypatch.setattr(engine, "det_rep", rejects_point_1)
        field = COMPLEX if case_id.startswith("elliptic") else EXACT
        report = run_case(case_id, SamplingConfig(master_seed=5, points=3, field=field))
        assert [p.error for p in report.points] == [
            None, "AuxInvariantError: rejected on purpose", None], case_id
        assert [p.ok for p in report.points] == [True, False, True], case_id


def test_sampling_failure_recorded_per_point():
    # a case whose sampler cannot succeed reports the error without raising
    from srcid.engine import REGISTRY, CaseDef, SamplingError

    def impossible(ctx):
        raise SamplingError("nothing to draw")

    case = CaseDef(
        "synthetic_unsatisfiable", "identity", "rational",
        "synthetic case for the error path", (EXACT,), impossible,
    )
    REGISTRY[case.case_id] = case
    try:
        rep = run_case(case.case_id, SamplingConfig(master_seed=1, points=3))
        assert not rep.passed
        assert len(rep.points) == 3
        assert all(p.error and "sampling" in p.error for p in rep.points)
    finally:
        del REGISTRY[case.case_id]


def test_runner_exception_recorded_per_point():
    # a runner that raises: the report carries the exception's type and
    # text and every point still runs
    from srcid.engine import REGISTRY, CaseDef

    def rejects(ctx):
        raise ValueError("needs len(u) == len(v) >= 1")

    case = CaseDef(
        "synthetic_raising", "lascoux", "rational",
        "synthetic case for the exception path", (EXACT,), rejects,
    )
    REGISTRY[case.case_id] = case
    try:
        rep = run_case(case.case_id, SamplingConfig(master_seed=1, points=3))
    finally:
        del REGISTRY[case.case_id]
    assert not rep.passed
    assert rep.max_rel_err == float("inf")
    assert len(rep.points) == 3
    assert all(not p.ok for p in rep.points)
    assert all(p.error == "ValueError: needs len(u) == len(v) >= 1" for p in rep.points)


def test_a_nan_or_infinite_residual_in_any_check_fails_its_point():
    # an overflowed complex side gives a NaN residual (inf / inf), which no
    # comparison ranks: it must still be the point's worst check
    from srcid.engine import REGISTRY, CaseDef

    inf, nan = math.inf, complex(math.nan)
    checks = iter([[("a", 1, 1), ("b", inf, 0)],
                   [("a", nan, 0), ("b", 1, 1)],
                   [("a", 1, 1), ("b", inf, inf), ("c", 2, 2)]])
    case = CaseDef("synthetic_overflow", "synthetic", "rational",
                   "synthetic case for an overflowed side", (COMPLEX,), lambda ctx: next(checks))
    REGISTRY[case.case_id] = case
    try:
        rep = run_case(case.case_id, SamplingConfig(master_seed=1, points=3))
    finally:
        del REGISTRY[case.case_id]
    assert not rep.passed
    assert rep.max_rel_err == math.inf
    assert [(p.ok, p.residual, p.label) for p in rep.points] == [
        (False, math.inf, "b"), (False, math.inf, "a"), (False, math.inf, "b")]


def test_nmax_below_a_case_range_fails_its_points():
    # rational_mpt_F is registered at sizes 1..4: nmax = 0 must not run it at 0
    rep = run_case("rational_mpt_F", SamplingConfig(master_seed=1, points=2, nmax=0))
    assert not rep.passed
    assert all(p.error == "ValueError: --nmax 0 is below this case's sizes 1..4"
               for p in rep.points)
    with pytest.raises(ValueError):
        SamplingConfig(nmax=-1)


def test_q_identity_runners_honor_nmax(monkeypatch):
    # the per-size runners return one check per size 0..n; the generating
    # product reads [n choose l]_q for l = 0..n
    calls = []
    real = engine.q_binomial
    monkeypatch.setattr(engine, "q_binomial", lambda n, l, q: calls.append(n) or real(n, l, q))
    config = SamplingConfig(nmax=2)
    for case_id in ("q_binomial_product", "q_subset_ratio_identity", "q_inversion_statistic",
                    "binomial_subset_identity"):
        seen = set()
        for index in range(20):
            calls.clear()
            ctx = PointContext(random.Random(f"{case_id}:{index}"), EXACT, config)
            checks = get_case(case_id).runner(ctx)
            seen.add(max(calls) if case_id == "q_binomial_product" else len(checks) - 1)
        assert seen == {1, 2}, case_id


class PinnedContext(PointContext):
    """An exact context of size n whose q and scalar draws are given."""

    def __init__(self, n, q, scalars):
        super().__init__(random.Random(0), EXACT, SamplingConfig(fixed_sizes=(n, n)))
        self.pinned_q, self.draws = q, iter(scalars)

    def q_scalar(self):
        return self.pinned_q

    def scalar(self, lo=0.2, hi=3.0):
        return next(self.draws)


def fixed_size_literal(u, ratio):
    """For l = 0..n, the sum over K subset [0..n) with |K| = l of the
    product of ratio(u_i, u_j) over i in K and j not in K."""
    n = len(u)
    return [sum(math.prod(ratio(u[i], u[j]) for i in kset for j in range(n) if j not in kset)
                for kset in combinations(range(n), ell)) for ell in range(n + 1)]


def test_q_identity_size_sums_match_the_literal_ratio_sums():
    # the runners read the trig F sums at 1/q and the rational F sums at -c,
    # with no partners: size by size, the literal fixed-size ratio sums
    rng = random.Random(101)
    for n in range(1, 8):
        for sign in (-1, -1, 1):
            q = Fraction(sign * rng.randint(2, 9), rng.randint(1, 9))
            if abs(q) == 1:
                q += sign
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            u = ()
            while len(set(u)) < n:
                u = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n))
            for case_id, ctx, ratio in (
                ("q_subset_ratio_identity", PinnedContext(n, q, u),
                 lambda a, b: (a - b / q) / (a - b)),
                ("binomial_subset_identity", PinnedContext(n, None, (c, *u)),
                 lambda a, b: (a - b + c) / (a - b)),
            ):
                values = [value for _, value, _ in get_case(case_id).runner(ctx)]
                assert values == fixed_size_literal(u, ratio), (case_id, q, c, u)
                assert {type(x) for x in values} == {Fraction}, (case_id, q, c, u)


def test_evaluation_sampler_redraws_the_base_point():
    # point 197 used to exhaust its resampling cap: every retry reshuffled
    # the same colliding values
    rep = run_case("rational_evaluation_swap", SamplingConfig(points=200, field=EXACT))
    assert rep.passed, [p.error for p in rep.points if not p.ok]


@pytest.mark.parametrize("swap", (False, True))
def test_the_elliptic_base_draw_is_the_sample_elliptic_draw(swap):
    # the same rng calls; only the accept list is shorter, and at these
    # seeds the full list rejects no draw that the kept side accepts
    config = SamplingConfig()
    for n in range(1, 5):
        for seed in range(300):
            base = PointContext(random.Random(seed), COMPLEX, config)
            full = PointContext(random.Random(seed), COMPLEX, config)
            assert base.sample_base("elliptic", n, n, swap) == full.sample_elliptic(n)
            assert base.rng.getstate() == full.rng.getstate()


@pytest.mark.parametrize("swap", (False, True))
def test_the_elliptic_base_draw_evaluates_theta_on_the_kept_side_only(monkeypatch, swap):
    # theta(lam) and theta(x_j / x_i) over the kept x, at each drawn point
    drawn, evaluated = [], []
    real_draw, real_theta = PointContext._draw_elliptic, sources.theta
    monkeypatch.setattr(PointContext, "_draw_elliptic",
                        lambda self, n: drawn.append(real_draw(self, n)) or drawn[-1])
    monkeypatch.setattr(sources, "theta",
                        lambda x, p: evaluated.append((x, p)) or real_theta(x, p))
    for seed in range(50):
        ctx = PointContext(random.Random(seed), COMPLEX, SamplingConfig())
        ctx.sample_base("elliptic", 1 + seed % 4, 0, swap)
    allowed = set()
    for par in drawn:
        kept = par.v if swap else par.u
        allowed.add((par.lam, par.p))
        allowed.update((b / a, par.p) for i, a in enumerate(kept)
                       for j, b in enumerate(kept) if i != j)
    assert evaluated and set(evaluated) <= allowed


def test_the_elliptic_specializations_evaluate_theta_on_the_kept_side(monkeypatch):
    # 10 points at the default seed; a base point accepted on the full
    # general_position would evaluate 414 and 636
    calls = []
    real = sources.theta
    monkeypatch.setattr(sources, "theta", lambda x, p: calls.append(x) or real(x, p))
    counts = {}
    for case_id in ("elliptic_evaluation", "elliptic_vanishing"):
        calls.clear()
        assert run_case(case_id, SamplingConfig(field=COMPLEX)).passed
        counts[case_id] = len(calls)
    assert counts == {"elliptic_evaluation": 228, "elliptic_vanishing": 384}


def test_the_tau_runner_builds_its_shifted_point_once(monkeypatch):
    # the rhs and its source route read one point (u, v + c)
    built = []
    real = symmetrize.replace
    monkeypatch.setattr(symmetrize, "replace",
                        lambda point, **changes: built.append(point) or real(point, **changes))
    for _ in exact_runner_checks("tau_shift_symmetrization", 20):
        assert len(built) == 1
        built.clear()


def test_registry_exact_points_are_scaled_once_each(monkeypatch):
    # 40 cases, 10 points each, 5 seeds: one scaling per exact point made,
    # rejected draws included; a point made from a drawn one (a new z or
    # Lambda, or v + c) scales itself as it is made, and so does the trig or
    # rational point of each chi and q-identity size sum
    scalings = []
    real = sources.to_integers
    monkeypatch.setattr(sources, "to_integers",
                        lambda values: scalings.append(values) or real(values))
    cases = [c.case_id for c in match_cases(None, field_name=EXACT)
             if c.kind not in ("lascoux", "specialization")]
    assert len(cases) == 40
    for seed in range(20260801, 20260806):
        for case_id in cases:
            run_case(case_id, SamplingConfig(master_seed=seed, points=10, field=EXACT))
    assert len(scalings) == 2141


def test_elliptic_cases_record_the_same_points_without_the_theta_memo(monkeypatch):
    # a point's memo is shared with the points derived from it and holds one
    # dict per nome; theta(x; p) depends on x and p alone, so evaluating
    # theta at every lookup instead must record every point bit for bit
    cases = [c.case_id for c in list_cases() if c.regime == "elliptic" and COMPLEX in c.fields]
    assert len(cases) == 14

    def records():
        return [json.dumps(run_case(case_id, SamplingConfig(points=4, field=COMPLEX))
                           .as_dict(include_timings=False)) for case_id in cases]

    memoized = records()
    lookups = []

    def no_memo(p, thetas=None):
        return lambda x: lookups.append(x) or sources.theta(x, p)

    monkeypatch.setattr(sources, "theta_memo", no_memo)
    assert records() == memoized
    assert lookups


def _without_memos(value):
    # a draw's theta memo, as a dict or as the callable over one, is left out
    if isinstance(value, dict) or callable(value):
        return None
    if isinstance(value, (tuple, list)):
        return type(value)(_without_memos(x) for x in value)
    return value


def test_elliptic_draws_do_not_move_when_theta_is_the_product_loop(monkeypatch):
    # theta sums the triple product; the same accepted draws and pass flags
    # must come out of theta as the product (u; p)_inf (p/u; p)_inf, the
    # memos (whose values differ in the last bits) left out
    cases = [c.case_id for c in list_cases() if c.regime == "elliptic" and COMPLEX in c.fields]
    assert {"theta_vandermonde_factorization", "frobenius_factorization"} <= set(cases)
    real_attempt = PointContext.attempt

    def run():
        draws = []

        def attempt(self, draw, accept):
            x = real_attempt(self, draw, accept)
            draws.append(_without_memos(x))
            return x

        monkeypatch.setattr(PointContext, "attempt", attempt)
        flags = [[point.ok for point in run_case(case_id, SamplingConfig(points=4, field=COMPLEX))
                  .points] for case_id in cases]
        return draws, flags

    def product_theta(u, p):
        if p == 0:
            return 1 - u
        return qseries.qpoch_inf(u, p) * qseries.qpoch_inf(complex(p) / complex(u), p)

    draws, flags = run()
    for module in (qseries, sources):
        monkeypatch.setattr(module, "theta", product_theta)
    product_draws, product_flags = run()
    assert len(draws) > len(cases)
    assert draws == product_draws
    assert flags == product_flags


# A field the library does not know: Gaussian rationals a + bi, a and b
# Fractions.  Its draws are the complex field's draws made exact, with the
# same rng calls; its nonzero test is the complex one.


class Gauss:
    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, Gauss):
            return x
        if isinstance(x, complex):
            return Gauss(x.real, x.imag)
        return Gauss(x)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gauss.of(other)

    def __rsub__(self, other):
        return Gauss.of(other) - self

    def __mul__(self, other):
        o = Gauss.of(other)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Gauss.of(other)
        norm = o.re * o.re + o.im * o.im
        return self * Gauss(o.re / norm, -o.im / norm)

    def __rtruediv__(self, other):
        return Gauss.of(other) / self

    def __pow__(self, k):
        out, base = Gauss(1), self if k >= 0 else Gauss(1) / self
        for _ in range(abs(k)):
            out *= base
        return out

    def __eq__(self, other):
        try:
            other = Gauss.of(other)
        except TypeError:  # None, say, for an aux value not drawn
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to a Fraction or an int where the imaginary part is 0
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __abs__(self):
        # the LU's pivot order: the modulus, as a float
        return math.hypot(self.re, self.im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))


class GaussField:
    name = "gaussian"
    zero = Gauss(0)
    one = Gauss(1)

    def scalar(self, ctx, lo, hi):
        return Gauss.of(ctx.complex_scalar(lo, hi))

    def q_scalar(self, ctx):
        return Gauss.of(get_field(COMPLEX).q_scalar(ctx))

    def convert(self, value):
        return tuple(map(self.convert, value)) if isinstance(value, tuple) else Gauss.of(value)

    def nonzero(self, x, tol_singular):
        return abs(complex(x)) >= tol_singular


def test_a_field_the_library_does_not_know_runs_a_case_exactly():
    # PointContext asks its field for every draw and zero test, so a field
    # defined here runs a case unchanged, with literal P = 0 and Q = 0
    runner = get_case("rational_vanishing_swap").runner
    for index in range(5):
        ctx = PointContext(random.Random(f"gauss:{index}"), EXACT, SamplingConfig())
        ctx.field = GaussField()
        checks = runner(ctx)
        assert [label for label, _, _ in checks] == ["P = 0", "Q = 0"]
        for _, lhs, rhs in checks:
            assert isinstance(lhs, Gauss) and lhs == rhs == Gauss(0)


def test_a_field_the_library_does_not_know_runs_every_exact_case_literally():
    # the determinants too: linalg.det eliminates over the entries as given,
    # so a Gaussian rational matrix keeps its exact arithmetic (a complex
    # value here is a conversion to doubles)
    cases = [case for case in list_cases() if EXACT in case.fields]
    determinants = 0
    for case in cases:
        for index in range(2):
            ctx = PointContext(random.Random(f"gauss:{case.case_id}:{index}"), EXACT,
                               SamplingConfig())
            ctx.field = GaussField()
            for label, lhs, rhs in case.runner(ctx):
                assert not isinstance(lhs, complex) and not isinstance(rhs, complex)
                assert lhs == rhs, (case.case_id, index, label)
                determinants += isinstance(lhs, Gauss) and case.kind == "determinant"
    assert determinants > 0
