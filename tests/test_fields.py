"""Field backends: residual semantics and scalar helpers."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from srcid import engine
from srcid.engine import PointContext, SamplingConfig
from srcid.fields import (
    COMPLEX,
    EXACT,
    ComplexField,
    ExactField,
    SamplingError,
    get_field,
    is_exact,
    magnitude,
    to_integers,
)


def test_get_field():
    assert isinstance(get_field(COMPLEX), ComplexField)
    assert isinstance(get_field(EXACT), ExactField)
    with pytest.raises(ValueError):
        get_field("octonion")


def test_the_complex_nome_is_the_complex_scalar_draw():
    drawn, expected = (PointContext(random.Random(7), COMPLEX, SamplingConfig())
                       for _ in range(2))
    for _ in range(20):
        assert ComplexField().nome(drawn) == expected.complex_scalar(0.1, 0.5)
    assert drawn.rng.getstate() == expected.rng.getstate()


def test_the_exact_field_refuses_the_nome():
    ctx = PointContext(random.Random(7), EXACT, SamplingConfig())
    state = ctx.rng.getstate()
    with pytest.raises(SamplingError, match="elliptic parameters are complex-only"):
        ExactField().nome(ctx)
    assert ctx.rng.getstate() == state
    assert engine.SamplingError is SamplingError


def test_exact_field_is_literal():
    field = get_field(EXACT)
    assert field.residual(Fraction(1, 3), Fraction(2, 6)) == 0.0
    assert field.residual(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)) > 0.0
    assert field.residual(Fraction(2), Fraction(2)) == 0.0
    assert field.residual(Fraction(2), Fraction(5, 2)) == 0.5
    # the rest of the field's hooks: literal zero test, draws kept as they
    # are, no tolerance whatever the override
    assert field.nonzero(Fraction(1, 10**30), 1e-3) and not field.nonzero(Fraction(0), 1e-3)
    drawn = (Fraction(1, 3), ((2, Fraction(-5, 4)),))
    assert field.convert(drawn) is drawn
    assert field.tol(1e-10, None) == field.tol(1e-10, 0.5) == 0.0
    assert (field.zero, field.one) == (0, 1) and type(field.one) is Fraction


def test_complex_field_closeness_scales():
    field = get_field(COMPLEX)
    # a check passes when |a - b| <= tol * max(1, |a|, |b|)
    assert field.residual(1e6 + 0j, 1e6 * (1 + 1e-12)) <= 1e-10
    assert not field.residual(0.0, 2e-10) <= 1e-10
    assert field.residual(0.0, 0.5e-10) <= 1e-10
    # general position: |x| >= tol_singular, so exactly at it holds
    assert field.nonzero(1e-3j, 1e-3) and field.nonzero(-1e-3 + 0j, 1e-3)
    assert not field.nonzero(0.999e-3 + 0j, 1e-3)
    drawn = (Fraction(1, 3), ((2, Fraction(-5, 4)),))
    assert field.convert(drawn) == (complex(float(Fraction(1, 3))), ((2 + 0j, -1.25 + 0j),))
    assert type(field.convert(drawn)[1][0][0]) is complex
    assert field.tol(1e-10, None) == 1e-10 and field.tol(1e-10, 0.5) == 0.5
    assert (field.zero, field.one) == (0j, 1 + 0j) and type(field.one) is complex


def test_scalar_helpers():
    assert magnitude(Fraction(-3, 2)) == 1.5
    assert magnitude(3 + 4j) == 5.0
    assert magnitude(Fraction(10**400)) == float("inf")


def test_to_integers_scales_by_the_least_common_denominator():
    F = Fraction
    cases = [
        [F(1, 2), F(-2, 3), 5, F(7, 12)],
        [F(3, 4), F(5, 6), F(-1, 10), 0],
        [3, -4, 0, True],
        [F(10**12 + 1, 2**40), F(-3, 5**9)],
        [F(1, 7)],
    ]
    for values in cases:
        ints, lcm = to_integers(values)
        assert all(type(x) is int for x in ints)
        assert ints == [lcm * x for x in values]
        # no smaller positive scale makes every value an int: a proper
        # divisor of lcm divides some lcm / prime, so those are checked
        rest, primes = lcm, []
        for prime in range(2, 100):
            while rest % prime == 0:
                rest //= prime
                primes.append(prime)
        assert rest == 1
        for prime in set(primes):
            assert any((lcm // prime * x).denominator != 1 for x in values)
    assert to_integers([F(1, 2), F(1, 3), F(1, 4)])[1] == 12
    assert to_integers((2, 3))[1] == 1


def test_to_integers_of_nothing():
    assert to_integers([]) == ([], 1)
    assert to_integers(()) == ([], 1)
    assert is_exact([])


def test_inexact_values_are_rejected():
    for values in ([0.5], [Fraction(1, 2), 1 + 0j], [1, math.inf], [2j], [Fraction(1, 3), 0.25]):
        assert not is_exact(values)
        with pytest.raises(TypeError):
            to_integers(values)
    assert is_exact([1, Fraction(1, 3), True])
    assert is_exact(x for x in (Fraction(2), 7))
    # neither a complex nor a float, tested against int and Fraction
    class Exact(Fraction):
        pass

    assert is_exact([Exact(1, 3)]) and not is_exact([Decimal("0.5")])
