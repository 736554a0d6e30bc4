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
field objects below are the one place that knows how the two backends
differ.

A new field (a test may define one) is an object with the hooks below and
values with the arithmetic below, and needs no change outside it.

* The object's hooks: its ``zero`` and ``one``; the generic draws
  ``scalar(ctx, lo, hi)`` and ``q_scalar(ctx)`` and the elliptic nome
  ``nome(ctx)``, made from the point context's generator (the exact field
  refuses the nome with a ``SamplingError``: a nonzero nome needs
  truncated theta products); ``convert``, which brings an exact draw
  (nested tuples included) into the field; ``nonzero(x, tol_singular)``,
  the general-position test; ``tol(tol_complex, override)``, a case's
  pass tolerance; and ``residual``, a check's distance in the report.
  ``engine.PointContext`` holds one field object and branches on none of
  these.
* Its values: +, -, *, / (with each other and with ints on either
  side), ``==`` (with None too: ``bs`` tests an aux value not drawn), ``abs``
  (the pivot order of ``linalg.det``'s LU, which takes every value that
  is not an int or a Fraction as it is), ``hash`` (the distinctness of the
  bs nodes eta, the theta memo keys) and ``.real``/``.imag`` (the theta
  memo keys at nome 0).  No field supplies its own determinant.

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
from typing import Optional


class ExactFieldUnavailableError(ArithmeticError):
    """Operation is only defined over the complex field."""


class SamplingError(RuntimeError):
    """A point could not be drawn: ``engine.PointContext.attempt`` rejected
    ``RESAMPLE_CAP`` draws, or a field refused a draw it cannot hold
    (``ExactField.nome``: the elliptic regime is complex-only)."""


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
    zero = 0j
    one = 1 + 0j

    def residual(self, a, b) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    def scalar(self, ctx, lo: float, hi: float) -> complex:
        """A generic scalar: |x| in [lo, hi], uniform angle."""
        return ctx.complex_scalar(lo, hi)

    def q_scalar(self, ctx) -> complex:
        """A base q: |q| in [0.2, 0.8] or [1.25, 5], either with probability 1/2."""
        lo, hi = (0.2, 0.8) if ctx.rng.random() < 0.5 else (1.25, 5.0)
        return ctx.complex_scalar(lo, hi)

    def nome(self, ctx) -> complex:
        """An elliptic nome: |p| in [0.1, 0.5], uniform angle."""
        return ctx.complex_scalar(0.1, 0.5)

    def convert(self, value):
        """An exact draw (an int, a Fraction or nested tuples of them) as complex values."""
        if isinstance(value, tuple):
            return tuple(map(self.convert, value))
        return complex(value)

    def nonzero(self, x, tol_singular: float) -> bool:
        """General position: |x| is at least ``tol_singular``."""
        return abs(x) >= tol_singular

    def tol(self, tol_complex: float, override: Optional[float]) -> float:
        """The pass tolerance: the override, or the case's ``tol_complex``."""
        return tol_complex if override is None else override


@dataclass(frozen=True)
class ExactField:
    """Arbitrary-precision rationals; equality is literal, no tolerance."""

    name = EXACT
    zero = Fraction(0)
    one = Fraction(1)

    def residual(self, a, b) -> float:
        return 0.0 if a == b else magnitude(a - b)

    def scalar(self, ctx, lo: float, hi: float) -> Fraction:
        """A generic scalar: a nonzero a/b with |a| <= 20 and 1 <= b <= 20;
        ``lo`` and ``hi`` bound a complex modulus and are not read here."""
        return ctx.fraction(nonzero=True)

    def q_scalar(self, ctx) -> Fraction:
        """A base q: a/b with |a|, b <= 8, neither 0 nor +-1."""
        return ctx.ratio(-8, 8, 8, lambda q: q != 0 and abs(q) != 1)

    def nome(self, ctx):
        """Refused: a nonzero nome needs truncated theta products."""
        raise SamplingError("elliptic parameters are complex-only")

    def convert(self, value):
        """An exact draw is already in the field."""
        return value

    def nonzero(self, x, tol_singular: float) -> bool:
        """General position is literal: x != 0, whatever ``tol_singular``."""
        return x != 0

    def tol(self, tol_complex: float, override: Optional[float]) -> float:
        """0: a pass is literal equality, whatever the override."""
        return 0.0


_FIELDS = {COMPLEX: ComplexField(), EXACT: ExactField()}


def get_field(name: str):
    try:
        return _FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; expected 'complex' or 'exact'") from None
