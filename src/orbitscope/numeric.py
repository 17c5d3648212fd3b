"""Numeric modes and scalar arithmetic.

Two per-run modes:

* EXACT   -- scalars are complex numbers with rational real/imaginary
             parts; every strict inequality is decided exactly.
* FLOAT64 -- scalars are python complex; strict inequalities ``a < b``
             are evaluated as ``a < b - TOL_EQ`` so boundary noise never
             produces a false positive.

There is no global switch: every value carries its mode, and every
function that builds a scalar is told the mode to build it in.

The module owns the exact rules every layer shares: ``square_root`` is the
one square test and ``ratio_float`` the one rounding of an int ratio.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, fields
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from .errors import OrbitscopeError

TOL_EQ = 1e-9

# float64-mode magnitudes past 2^900 are an error, not an infinity
OVERFLOW_LOG2 = 900.0


class Mode(Enum):
    EXACT = "exact"
    FLOAT64 = "float"


# the imaginary part of every real result, shared: Fractions are immutable
_ZERO = Fraction(0)


class QC:
    """Complex number with exact rational components, stored as three ints:
    the value (a + bi)/d with d > 0 and gcd(a, b, d) = 1, so each value has
    one form and each result is reduced by one gcd.

    ``re`` and ``im`` (also ``real`` and ``imag``) read the parts as
    Fractions; ``im`` of a real value is the shared zero.  Instances are
    immutable and compare and hash as the pair (re, im).
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re, im=_ZERO):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        if not im:  # a Fraction is already in lowest terms
            return _qc(re.numerator, 0, re.denominator)
        rd, id_ = re.denominator, im.denominator
        return _reduced(re.numerator * id_, im.numerator * rd, rd * id_)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return QC, (self.re, self.im)

    def __eq__(self, other):
        if other.__class__ is not QC:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "QC") -> "QC":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "QC") -> "QC":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __neg__(self) -> "QC":
        return _qc(-self._a, -self._b, self._d)

    def __mul__(self, other: "QC") -> "QC":
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        return _reduced(a, b, self._d * other._d)

    def __truediv__(self, other: "QC") -> "QC":
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if e:
            a, b, d = (a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e)
        elif c > 0:
            a, b, d = a * f, b * f, d * c
        elif c:
            a, b, d = -a * f, -b * f, -d * c
        else:
            raise ZeroDivisionError("division by zero QC")
        return _reduced(a, b, d)

    def __pow__(self, n: int) -> "QC":
        a, b = self._a, self._b
        m = -n if n < 0 else n
        d = self._d ** m
        if b:
            # (a + bi)^m by repeated squaring in the Gaussian integers
            ra, rb = 1, 0
            while m:
                if m & 1:
                    ra, rb = ra * a - rb * b, ra * b + rb * a
                m >>= 1
                if m:
                    a, b = a * a - b * b, 2 * a * b
            if n >= 0:
                return _reduced(ra, rb, d)
            return _reduced(d * ra, -d * rb, ra * ra + rb * rb)
        # a power of a coprime pair is coprime
        a **= m
        if n >= 0:
            return _qc(a, 0, d)
        if not a:
            raise ZeroDivisionError("division by zero QC")
        return _qc(d, 0, a) if a > 0 else _qc(-d, 0, -a)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d) if self._b else _ZERO

    real, imag = re, im

    def conjugate(self) -> "QC":
        return _qc(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)


_new_qc = object.__new__
_set_a, _set_b, _set_d = QC._a.__set__, QC._b.__set__, QC._d.__set__


def _qc(a: int, b: int, d: int) -> QC:
    """The QC (a + bi)/d, for d > 0 and gcd(a, b, d) = 1."""
    q = _new_qc(QC)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + bi)/d in lowest terms, for d > 0: one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _qc(a, b, d)


# A Scalar is QC in EXACT mode, python complex in FLOAT64 mode.
_ZERO_SCALARS = {Mode.EXACT: QC(_ZERO), Mode.FLOAT64: complex(0.0, 0.0)}  # shared zeros


def mode_of_scalar(s) -> Mode:
    return Mode.EXACT if isinstance(s, QC) else Mode.FLOAT64


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)):
        return Fraction(value)  # a float's exact binary expansion
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
        return str(value.re) if not value._b else [str(value.re), str(value.im)]
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
    """Coerce a real quantity (bound, radius, weight) to the mode's carrier;
    in float mode a value past double range is an OrbitscopeError."""
    f = _as_fraction(value)
    try:
        return f if mode is Mode.EXACT else float(f)
    except OverflowError:
        e = abs(f.numerator).bit_length() - f.denominator.bit_length()
        raise OrbitscopeError(f"a value near 2^{e} is past double range") from None


def positive_value(value, mode: Mode, name: str):
    """real_value(value, mode) if it is positive there: decided exactly on a
    Fraction, however small; a float that rounds to 0.0 is refused."""
    v = real_value(value, mode)
    if not v > 0:
        raise OrbitscopeError(f"{name} must be positive")
    return v


def to_float(value) -> float:
    if isinstance(value, Fraction):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return float(value)


def strict_gt(a, b, mode: Mode) -> bool:
    if mode is Mode.EXACT:
        return a > b
    return to_float(a) > to_float(b) + TOL_EQ


# -- exact square roots and int ratios -----------------------------------------


_SQUARES_MOD_64 = frozenset(i * i % 64 for i in range(64))


def square_root(n: int) -> int | None:
    """The int root of an int n >= 0 that is a square, else None; most
    others show it by their residue mod 64, with no isqrt."""
    if n & 63 not in _SQUARES_MOD_64:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def ratio_float(n: int, d: int) -> float:
    """n / d for ints n >= 0 and d > 0, rounded once as to_float(Fraction(n, d))
    is; inf past double range."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(q) <= hi: both sqrt(q) when q >= 0 is the square
    of a rational, else hi - lo = 2^-bits / den(q); ValueError for q < 0."""
    num, den = q.numerator, q.denominator
    rn, rd = square_root(num), square_root(den)
    if rn is not None and rd is not None:
        r = Fraction(rn, rd)
        return r, r
    shift = 1 << bits
    s = isqrt(num * den * shift * shift)
    return Fraction(s, den * shift), Fraction(s + 1, den * shift)


def sum_sqrt_cmp(rows: list[tuple[int, int]], bound: Fraction) -> int:
    """Compare the sum of sqrt(n) / d over the int pairs (n, d), n >= 0 and
    d > 0, against bound exactly; returns -1/0/+1.

    Over L, the lcm of every d and of bound's denominator, the sum is that
    of sqrt(n (L/d)^2) and the bound an integer, so each irrational root is
    bracketed by isqrt in integers at 32, 64, 128, ... bits.  Terminates
    because a sum of square roots of rationals with at least one
    irrational term is itself irrational, so it can never equal the
    rational bound: the refinement must separate them.
    """
    bn, bd = bound.numerator, bound.denominator
    lcm = math.lcm(bd, *(d for _, d in rows))
    rational, irrational = 0, []
    for n, d in rows:
        s, f = square_root(n), lcm // d
        if s is None:
            irrational.append(n * f * f)
        else:
            rational += s * f
    target = bn * (lcm // bd)
    if not irrational:
        return (rational > target) - (rational < target)
    bits = 32
    while bits <= (1 << 20):
        # each isqrt(m 4^bits) lies strictly below sqrt(m) 2^bits, within 1
        lo = (rational << bits) + sum(isqrt(m << 2 * bits) for m in irrational)
        t = target << bits
        if lo + len(irrational) <= t:
            return -1
        if lo >= t:
            return 1
        bits *= 2
    raise ArithmeticError("sum-of-sqrt comparison failed to converge")


def log2_abs(value) -> float:
    """log2 of |value| for magnitude bookkeeping; -inf for zero."""
    if isinstance(value, QC):
        # |value|^2 = n / d^2, in lowest terms as the Fraction abs2() gives
        a, b, d = value._a, value._b, value._d
        n, d2 = a * a + b * b, d * d
        if not n:
            return float("-inf")
        if b:  # a real value's n and d^2 are already coprime
            g = gcd(n, d2)
            n, d2 = n // g, d2 // g
        return 0.5 * (math.log2(n) - math.log2(d2))
    m = abs(value)
    return math.log2(m) if m else float("-inf")


def phase_of(value) -> complex:
    """value / |value| as a unit complex number, for a non-zero value."""
    if isinstance(value, QC):
        a, b, d = value._a, value._b, value._d
        if not b:
            return complex(1.0 if a >= 0 else -1.0, 0.0)
        try:
            value = complex(a / d, b / d)
        except OverflowError:
            value = 0j
        if not value:
            # past double range: a + bi has the phase of (a + bi)/d, and
            # shifting both right by one number of bits keeps their ratio
            s = max(a.bit_length(), b.bit_length()) - 64
            value = complex(a >> s, b >> s) if s > 0 else complex(a, b)
    return value / abs(value)


def unit_power(phase: complex, n: int) -> complex:
    """phase^n for a unit complex phase, stable for huge n."""
    if phase == 1.0:
        return complex(1.0, 0.0)
    if phase == -1.0:
        return complex(1.0 if n % 2 == 0 else -1.0, 0.0)
    return cmath.exp(1j * n * cmath.phase(phase))
