"""Numeric modes and scalar arithmetic.

Two per-run modes:

* EXACT   -- scalars are complex numbers with rational real/imaginary
             parts; every strict inequality is decided exactly.
* FLOAT64 -- scalars are python complex; strict inequalities ``a < b``
             are evaluated as ``a < b - TOL_EQ`` so boundary noise never
             produces a false positive.

There is no global switch: every value carries its mode, and every
function that builds a scalar is told the mode to build it in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from math import isqrt

TOL_EQ = 1e-9

# float64-mode magnitudes past 2^900 are an error, not an infinity
OVERFLOW_LOG2 = 900.0


class Mode(Enum):
    EXACT = "exact"
    FLOAT64 = "float"


# the imaginary part of every real result, shared: Fractions are immutable
_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class QC:
    """Complex number with exact rational components.

    When both operands are real (zero imaginary parts) the arithmetic
    does the real operation only; the result is the same value the
    general complex formula gives, with ``im`` the shared zero.
    """

    re: Fraction
    im: Fraction = _ZERO

    def __add__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return QC(self.re + other.re, _ZERO)
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return QC(self.re - other.re, _ZERO)
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return QC(self.re * other.re, _ZERO)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero QC")
            return QC(self.re / other.re, _ZERO)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __pow__(self, n: int) -> "QC":
        if n < 0:
            return QC(Fraction(1)) / self.__pow__(-n)
        if self.im == 0:
            return QC(self.re ** n)
        result = QC(Fraction(1))
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        if not self.im:
            return self.re * self.re
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# A Scalar is QC in EXACT mode, python complex in FLOAT64 mode.
_ZERO_SCALARS = {Mode.EXACT: QC(_ZERO), Mode.FLOAT64: complex(0.0, 0.0)}  # shared zeros


def mode_of_scalar(s) -> Mode:
    return Mode.EXACT if isinstance(s, QC) else Mode.FLOAT64


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary expansion
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def make_scalar(value, mode: Mode):
    """Coerce ints/floats/Fractions/strings/pairs/complex to a mode scalar."""
    if isinstance(value, QC):
        return value if mode is Mode.EXACT else value.to_complex()
    if isinstance(value, complex):
        if mode is Mode.FLOAT64:
            return value
        return QC(Fraction(value.real), Fraction(value.imag))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        re, im = value
        if mode is Mode.EXACT:
            return QC(_as_fraction(re), _as_fraction(im))
        return complex(float(_as_fraction(re)), float(_as_fraction(im)))
    if mode is Mode.EXACT:
        return QC(_as_fraction(value))
    return complex(float(_as_fraction(value)), 0.0)


def scalar_zero(mode: Mode):
    return _ZERO_SCALARS[mode]


def is_zero_scalar(s) -> bool:
    if isinstance(s, QC):
        return s.is_zero
    return s == 0


def abs2(s):
    """|s|^2, exact Fraction for QC, float otherwise."""
    if isinstance(s, QC):
        return s.abs2()
    return s.real * s.real + s.imag * s.imag


def jsonable(value):
    """JSON form of numbers: rationals as strings, a complex rational as its
    real part or a [re, im] pair, tuples as lists, dicts by value and an
    object by its to_jsonable(); anything else, lists too, passes through."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QC):
        return str(value.re) if value.im == 0 else [str(value.re), str(value.im)]
    if isinstance(value, tuple):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    return value


class FieldsJSON:
    """Dataclass mixin: the JSON form is every field by name, through jsonable."""

    def to_jsonable(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


def real_value(value, mode: Mode):
    """Coerce a real quantity (bound, radius, weight) to the mode's carrier."""
    f = _as_fraction(value) if not isinstance(value, Fraction) else value
    return f if mode is Mode.EXACT else float(f)


def to_float(value) -> float:
    if isinstance(value, Fraction):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    if isinstance(value, QC):
        if value.im == 0:
            return to_float(value.re)
        return 2.0 ** log2_abs(value)
    return float(value)


def strict_gt(a, b, mode: Mode) -> bool:
    if mode is Mode.EXACT:
        return a > b
    return to_float(a) > to_float(b) + TOL_EQ


# -- exact square-root comparison machinery ---------------------------------


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Exact rational square root of q >= 0, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(q) <= hi with hi - lo <= 2^-bits * small factor."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    num, den = q.numerator, q.denominator
    shift = 1 << bits
    s = isqrt(num * den * shift * shift)
    lo = Fraction(s, den * shift)
    hi = Fraction(s + 1, den * shift)
    return lo, hi


def sum_sqrt_cmp(terms: list[Fraction], bound: Fraction) -> int:
    """Compare sum_i sqrt(terms[i]) against bound exactly; returns -1/0/+1.

    Terminates because a sum of square roots of rationals with at least one
    irrational term is itself irrational, so it can never equal the rational
    bound: the interval refinement must separate them.
    """
    rational_part = Fraction(0)
    irrational: list[Fraction] = []
    for t in terms:
        r = exact_sqrt(t)
        if r is None:
            irrational.append(t)
        else:
            rational_part += r
    if not irrational:
        if rational_part < bound:
            return -1
        return 0 if rational_part == bound else 1
    bits = 32
    while bits <= (1 << 20):
        lo = rational_part
        hi = rational_part
        for t in irrational:
            l, h = sqrt_bounds(t, bits)
            lo += l
            hi += h
        if hi < bound:
            return -1
        if lo > bound:
            return 1
        bits *= 2
    raise ArithmeticError("sum-of-sqrt comparison failed to converge")


def log2_abs(value) -> float:
    """log2 of |value| for magnitude bookkeeping; -inf for zero."""
    if isinstance(value, QC):
        a2 = value.abs2()
        if a2 == 0:
            return float("-inf")
        return 0.5 * (math.log2(a2.numerator) - math.log2(a2.denominator))
    if isinstance(value, Fraction):
        if value == 0:
            return float("-inf")
        return math.log2(abs(value.numerator)) - math.log2(value.denominator)
    m = abs(value)
    return math.log2(m) if m else float("-inf")


def phase_of(value) -> complex:
    """value / |value| as a unit complex number (1.0 for zero)."""
    if isinstance(value, QC):
        value = value.to_complex()
    if isinstance(value, Fraction):
        return complex(1.0 if value >= 0 else -1.0, 0.0)
    m = abs(value)
    if m == 0:
        return complex(1.0, 0.0)
    return value / m


def unit_power(phase: complex, n: int) -> complex:
    """phase^n for a unit complex phase, stable for huge n."""
    if phase == 1.0:
        return complex(1.0, 0.0)
    if phase == -1.0:
        return complex(1.0 if n % 2 == 0 else -1.0, 0.0)
    return cmath.exp(1j * n * cmath.phase(phase))
