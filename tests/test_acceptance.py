"""Acceptance suite: one test per criterion, each printing a PASS line.

Runs every criterion at its stated tolerance; exact-field criteria demand
literal equality of reduced fractions.  The whole suite is seeded and
deterministic.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

from srcid.cli import main
from srcid.engine import SamplingConfig, list_cases, run_case
from srcid.fields import COMPLEX, EXACT
from srcid.sources import RatParams
from srcid.symmetrize import lascoux_symmetrized_sides, lascoux_tau_sides
from srcid.wallcross import (
    hook_product_identity,
    hook_product_limit,
    verify_coeff_identity,
    verify_wallcrossing_K,
)

SEED = 20260801


def _config(points, field=None, sizes=None, seed=SEED):
    return SamplingConfig(
        master_seed=seed,
        points=points,
        field=field,
        fixed_sizes=sizes,
    )


def _assert_case(case_id, points, field=None, sizes=None, seed=SEED):
    report = run_case(case_id, _config(points, field=field, sizes=sizes, seed=seed))
    assert report.passed, (
        f"{case_id} sizes={sizes}: max residual {report.max_rel_err:.3e} "
        f"exceeds tol {report.tol:.1e}"
    )
    return report


def test_criterion_01_rational_source_identity():
    start = time.perf_counter()
    for n in range(6):
        for m in range(6):
            _assert_case(
                "rational_source_identity", points=25, field=EXACT, sizes=(n, m)
            )
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s"
    print(f"\nPASS criterion 1: rational identity exact on all (n,m) <= 5 "
          f"({elapsed:.1f}s)")


def test_criterion_02_trig_source_identity():
    for n in range(6):
        for m in range(6):
            _assert_case("trig_source_identity", points=25, field=EXACT, sizes=(n, m))
    print("\nPASS criterion 2: trig identity exact on all (n,m) <= 5")


def test_criterion_03_elliptic_source_identity():
    for n in range(1, 5):
        _assert_case("elliptic_source_identity", points=25, field=COMPLEX, sizes=(n, n))
    print("\nPASS criterion 3: elliptic identity <= 1e-8 for n <= 4")


def test_criterion_04_determinant_representations():
    families = {
        "elliptic": ("mpt", "bs"),
        "trig": ("mpt", "scalar_product", "dwbc", "bs", "bs_limit"),
        "rational": ("mpt", "scalar_product", "dwbc", "bs", "bs_limit"),
    }
    for regime, fams in families.items():
        field = COMPLEX if regime == "elliptic" else EXACT
        for family in fams:
            for side in ("F", "G"):
                _assert_case(f"{regime}_{family}_{side}", points=10, field=field)
    _assert_case("rational_ik", points=10, field=EXACT)
    _assert_case("elliptic_mpt_det_identity", points=25, field=COMPLEX)
    print("\nPASS criterion 4: every determinant representation matches its "
          "source (two aux draws per point)")


def test_criterion_05_factorizations():
    for n in range(1, 6):
        _assert_case("frobenius_factorization", points=25, field=COMPLEX, sizes=(n, n))
        _assert_case(
            "theta_vandermonde_factorization", points=25, field=COMPLEX, sizes=(n, n)
        )
    _assert_case("frobenius_factorization_p0", points=25, field=EXACT)
    _assert_case("theta_vandermonde_factorization_p0", points=25, field=EXACT)
    _assert_case("cauchy_vandermonde_factorization", points=25, field=EXACT)
    print("\nPASS criterion 5: Frobenius and Vandermonde factorizations "
          "(<= 1e-9 complex, exact at nome 0)")


def test_criterion_06_specializations():
    for case_id in (
        "rational_vanishing",
        "rational_vanishing_swap",
        "trig_vanishing",
        "trig_vanishing_swap",
        "rational_evaluation",
        "rational_evaluation_swap",
        "trig_evaluation",
        "trig_evaluation_swap",
    ):
        _assert_case(case_id, points=10, field=EXACT)
    for case_id in ("elliptic_vanishing", "elliptic_evaluation", "elliptic_quasi_periodicity"):
        _assert_case(case_id, points=10, field=COMPLEX)
    print("\nPASS criterion 6: vanishing lemmas, closed evaluations, and "
          "quasi-periodicity multipliers")


def test_criterion_07_degenerations():
    for n in range(1, 6):
        for m in range(0, n + 1):
            _assert_case(
                "lambda_weighted_binomial_identity", points=5, field=EXACT, sizes=(n, m)
            )
            _assert_case("lambda_zero_reduction", points=5, field=EXACT, sizes=(n, m))
    _assert_case("elliptic_to_trig_limit", points=10, field=COMPLEX)
    _assert_case("trig_to_rational_limit", points=10, field=COMPLEX)
    print("\nPASS criterion 7: finite binomial degeneration exact; "
          "flat-nome and exponential limits within tolerance (residual halving checked)")


def test_criterion_08_symmetrization_formulas():
    for n in range(2, 7):
        _assert_case(
            "divided_difference_symmetrization",
            points=10 if n <= 5 else 3,
            field=EXACT,
            sizes=(n, n),
        )
    for n in range(1, 7):
        _assert_case(
            "tau_shift_symmetrization",
            points=10 if n <= 5 else 3,
            field=EXACT,
            sizes=(n, n),
        )
    for n in range(2, 6):
        _assert_case(
            "symmetrization_reduction_identity", points=10, field=EXACT, sizes=(n, n)
        )

    # quoted n = 2 closed forms, coefficient-by-coefficient at 12 points
    import random

    rng = random.Random(SEED)

    def fraction(nonzero=True):
        while True:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if not nonzero or x != 0:
                return x

    checked = 0
    while checked < 12:
        c = fraction()
        u = (fraction(), fraction())
        v = (fraction(), fraction())
        if u[0] == u[1] or v[0] == v[1]:
            continue
        if any(vi - uk == 0 or vi - uk - c == 0 or vi - uk + c == 0 for vi in v for uk in u):
            continue
        if u[0] - u[1] in (c, -c):
            continue
        u1, u2 = u
        v1, v2 = v
        poly = -c * (
            c**2 + c * u1 + c * u2 - c * v1 - c * v2
            - u1 * v1 - u2 * v1 - u1 * v2 - u2 * v2
            + 2 * u1 * u2 + 2 * v1 * v2
        )
        point = RatParams(c=c, z=Fraction(1), u=u, v=v)
        lhs, rhs, _ = lascoux_symmetrized_sides(point, [Fraction(0), Fraction(1)])
        assert lhs == poly and rhs == poly
        tau_expected = (
            2 * c**2
            * (
                c**2 - c * u1 - c * u2 + c * v1 + c * v2
                - u1 * v1 - u2 * v1 - u1 * v2 - u2 * v2
                + 2 * u1 * u2 + 2 * v1 * v2
            )
            / ((u1 - v1) * (u1 - v2) * (u2 - v1) * (u2 - v2))
        )
        tau_lhs, tau_rhs, _ = lascoux_tau_sides(point)
        assert tau_lhs == tau_expected and tau_rhs == tau_expected
        checked += 1

    # n = 1 value of the tau identity
    hits = 0
    while hits < 5:
        c, u1, v1 = fraction(), fraction(), fraction()
        if u1 == v1 or u1 - v1 in (c, -c):
            continue
        tau_lhs, tau_rhs, _ = lascoux_tau_sides(RatParams(c=c, z=Fraction(1), u=(u1,), v=(v1,)))
        assert tau_lhs == tau_rhs == -c / (u1 - v1)
        hits += 1
    print("\nPASS criterion 8: symmetrization identities exact for n in [1,6]; "
          "quoted n=1 and n=2 closed forms reproduced")


def test_criterion_09_wall_crossing():
    import random

    rng = random.Random(SEED + 9)

    def point(n, m):
        while True:
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if t == 0 or abs(t) == 1:
                continue
            u = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n))
            v = tuple(Fraction(-rng.randint(1, 40), rng.randint(1, 7)) for _ in range(m))
            if len(set(u)) == n and len(set(v)) == m:
                return t, u, v

    for n in range(0, 6):
        for m in range(n, 6):
            for _ in range(3):
                t, u, v = point(n, m)
                for ell in range(0, min(4, m) + 1):
                    assert verify_coeff_identity(ell, m, n, t, u, v) == 0
                for ell in range(1, 5):
                    assert verify_wallcrossing_K(ell, m, n, t, u, v) == 0

    svals = [Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3), Fraction(7, 4)]
    for ell in range(7):
        for d in range(7):
            for k in range(min(ell, d) + 1):
                for s in svals:
                    lhs, rhs = hook_product_identity(ell, k, d, s)
                    assert lhs == rhs
                lim_lhs, lim_rhs = hook_product_limit(ell, k, d)
                assert lim_lhs == lim_rhs == math.comb(d, k)
    print("\nPASS criterion 9: coefficient and singleton-correction identities "
          "exact (l <= 4, n <= m <= 5); hook identity exact on the full grid")


def test_criterion_10_q_identity_suite():
    for case_id in (
        "q_binomial_product",
        "q_subset_ratio_identity",
        "q_inversion_statistic",
        "binomial_subset_identity",
    ):
        _assert_case(case_id, points=25, field=EXACT)
    print("\nPASS criterion 10: q-identity suite exact for n <= 7")


def test_criterion_11_determinism_and_bench():
    cfg = _config(points=5, field=EXACT)
    ids = [c.case_id for c in list_cases() if EXACT in c.fields][:12]
    first = [run_case(cid, cfg).as_dict(include_timings=False) for cid in ids]
    second = [run_case(cid, cfg).as_dict(include_timings=False) for cid in ids]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["bench", "--sizes", "8,10,12", "--reps", "3", "--seed", str(SEED)]) == 0
    *rows, verdict = out.getvalue().splitlines()[1:]
    ratios = [row.split()[-1] for row in rows]
    assert verdict == "ratio strictly increasing: True", ratios
    print("\nPASS criterion 11: byte-identical reports for equal seeds; "
          f"subset/determinant time ratios increase: {' < '.join(ratios)}")
