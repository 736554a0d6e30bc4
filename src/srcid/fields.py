"""Scalar field backends.

Every quantity in this library lives in one of two fields:

* ``complex`` -- IEEE double complex numbers, used wherever infinite
  products have to be truncated (nonzero elliptic nome) and for the
  limit checks.
* ``exact`` -- arbitrary-precision rationals (:class:`fractions.Fraction`),
  used wherever an identity is an identity of rational functions and can
  therefore be checked bit-exactly.

The arithmetic itself is done with the native Python types; Fraction
already keeps values in lowest terms with a positive denominator, and
both types raise ``ZeroDivisionError`` on division by exact zero.  The
field objects below bundle the small amount of policy that differs
between the two backends: the zero and one of the field and the residual
used in verification reports.

The exact kernels (``linalg.det_exact``, the integer walk of ``sources``,
the symmetrization sides and the nome-0 rows of ``detreps``) do their
arithmetic over Python ints and divide once at the end.  ``is_exact`` is
the one test for exact input, both where a generic path can take the rest
and where the exact-only ``symmetrize.sym_c`` turns other input away, and
``to_integers`` the one scaling to ints: values times L, the lcm of their
denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class FieldError(ArithmeticError):
    """Base class for field-level failures."""


class ExactFieldUnavailableError(FieldError):
    """Operation is only defined over the complex field."""


EXACT = "exact"
COMPLEX = "complex"


def magnitude(x) -> float:
    """|x| as a float, usable on both backends (may overflow to inf)."""
    try:
        return float(abs(x))
    except OverflowError:
        return math.inf


def is_exact(values) -> bool:
    """Every value is an int or a Fraction."""
    # a loop, not all() over a generator: the complex path pays this test
    # on every det() and every gate of the integer paths.  isinstance against
    # the Fraction ABC costs about 0.5 us when it fails, so complex and float
    # values are turned away by their type first.
    for x in values:
        if type(x) is Fraction or isinstance(x, int):
            continue
        if type(x) in (complex, float) or not isinstance(x, Fraction):
            return False
    return True


def to_integers(values):
    """(ints, L): L is the lcm of the denominators of the exact ``values``
    (1 when there are none) and ints[i] = L * values[i].

    A value without a denominator (float, complex) raises ``TypeError``;
    the callers with a fallback path test ``is_exact`` first.
    """
    try:
        lcm = math.lcm(*(x.denominator for x in values))
    except AttributeError:
        raise TypeError("to_integers needs ints and Fractions") from None
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


@dataclass(frozen=True)
class ComplexField:
    """Complex doubles; a check passes when its residual
    |a-b| / max(1, |a|, |b|) is within the case tolerance.
    """

    name = COMPLEX

    def residual(self, a, b) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    @property
    def zero(self) -> complex:
        return 0j

    @property
    def one(self) -> complex:
        return 1 + 0j


@dataclass(frozen=True)
class ExactField:
    """Arbitrary-precision rationals; equality is literal, no tolerance."""

    name = EXACT

    def residual(self, a, b) -> float:
        return 0.0 if a == b else magnitude(a - b)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)


_FIELDS = {COMPLEX: ComplexField(), EXACT: ExactField()}


def get_field(name: str):
    try:
        return _FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; expected 'complex' or 'exact'") from None
