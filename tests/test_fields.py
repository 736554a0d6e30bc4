"""Field backends: residual semantics and scalar helpers."""

from fractions import Fraction

import pytest

from srcid.fields import (
    COMPLEX,
    EXACT,
    ComplexField,
    ExactField,
    get_field,
    magnitude,
)


def test_get_field():
    assert isinstance(get_field(COMPLEX), ComplexField)
    assert isinstance(get_field(EXACT), ExactField)
    with pytest.raises(ValueError):
        get_field("octonion")


def test_exact_field_is_literal():
    field = get_field(EXACT)
    assert field.residual(Fraction(1, 3), Fraction(2, 6)) == 0.0
    assert field.residual(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)) > 0.0
    assert field.residual(Fraction(2), Fraction(2)) == 0.0
    assert field.residual(Fraction(2), Fraction(5, 2)) == 0.5


def test_complex_field_closeness_scales():
    field = get_field(COMPLEX)
    # a check passes when |a - b| <= tol * max(1, |a|, |b|)
    assert field.residual(1e6 + 0j, 1e6 * (1 + 1e-12)) <= 1e-10
    assert not field.residual(0.0, 2e-10) <= 1e-10
    assert field.residual(0.0, 0.5e-10) <= 1e-10


def test_scalar_helpers():
    assert magnitude(Fraction(-3, 2)) == 1.5
    assert magnitude(3 + 4j) == 5.0
    assert magnitude(Fraction(10**400)) == float("inf")
