"""QC arithmetic against the general complex formulas on plain Fraction pairs.

Real operands take a shorter path inside QC; every result must be the
value the general formula gives, and a real result must keep a Fraction
zero as its imaginary part.
"""

import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitscope import IndexSet, SeqVector
from orbitscope.errors import OrbitscopeError
from orbitscope.numeric import QC, Mode, is_zero_scalar, jsonable, log2_abs, positive_value, \
    ratio_float, real_value, scalar_zero, sqrt_bounds, square_root, to_float

RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
KINDS = [("real", "real"), ("real", "complex"), ("complex", "real"),
         ("complex", "complex")]


def draw_pair(data, kind, nonzero=False):
    """A (re, im) pair of Fractions of the given kind."""
    re = data.draw(RATIONALS.filter(bool) if nonzero and kind == "real" else RATIONALS)
    im = Fraction(0) if kind == "real" else data.draw(RATIONALS.filter(bool))
    return re, im


def qc_of(data, pair):
    re, im = pair
    if not im and data.draw(st.booleans()):
        return QC(re)  # the default imaginary part
    return QC(re, im)


# -- the reference: general complex formulas on (re, im) pairs ----------------


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


def ref_abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def ref_pow(a, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, a)
    return out if n >= 0 else ref_div((Fraction(1), Fraction(0)), out)


def assert_matches(result, pair, real):
    assert isinstance(result, QC)
    assert (result.re, result.im) == pair
    assert (result.real, result.imag) == pair  # read like a complex
    assert type(result.re) is Fraction and type(result.im) is Fraction
    if real:
        assert result.im == 0
        assert jsonable(result) == str(pair[0])


OPS = {"+": (QC.__add__, ref_add), "-": (QC.__sub__, ref_sub),
       "*": (QC.__mul__, ref_mul), "/": (QC.__truediv__, ref_div)}


@pytest.mark.parametrize("kinds", KINDS, ids=["-".join(k) for k in KINDS])
@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_binary_op_matches_general_formula(op, kinds, data):
    a = draw_pair(data, kinds[0])
    b = draw_pair(data, kinds[1], nonzero=op == "/")
    method, ref = OPS[op]
    out = method(qc_of(data, a), qc_of(data, b))
    assert_matches(out, ref(a, b), real=kinds == ("real", "real"))


@pytest.mark.parametrize("kind", ["real", "complex"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_abs2_matches_general_formula(kind, data):
    a = draw_pair(data, kind)
    out = qc_of(data, a).abs2()
    assert type(out) is Fraction
    assert out == ref_abs2(a)


@pytest.mark.parametrize("kind", ["real", "complex"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=-5, max_value=7))
def test_pow_matches_repeated_product(kind, data, n):
    a = draw_pair(data, kind, nonzero=n < 0)
    assert_matches(qc_of(data, a) ** n, ref_pow(a, n), real=kind == "real")


@pytest.mark.parametrize("kind", ["real", "complex"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_log2_abs_is_the_abs2_formula_bit_for_bit(kind, data):
    a = draw_pair(data, kind, nonzero=True)
    a2 = ref_abs2(a)
    expected = 0.5 * (math.log2(a2.numerator) - math.log2(a2.denominator))
    assert log2_abs(qc_of(data, a)).hex() == expected.hex()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_real_products_keep_vector_keys(data):
    """A vector of real fast-path products has the key and JSON that
    general-formula entries give."""
    pairs = [(draw_pair(data, "real"), draw_pair(data, "real")) for _ in range(3)]
    fast = SeqVector.from_entries(IndexSet.INTEGERS, {
        i: qc_of(data, a) * qc_of(data, b) for i, (a, b) in enumerate(pairs)})
    general = SeqVector.from_entries(IndexSet.INTEGERS, {
        i: QC(*ref_mul(a, b)) for i, (a, b) in enumerate(pairs)})
    assert fast.key() == general.key()
    assert hash(fast.key()) == hash(general.key())
    assert fast.to_jsonable() == general.to_jsonable()


@pytest.mark.parametrize("numerator", [QC(Fraction(3)), QC(Fraction(0)),
                                       QC(Fraction(1), Fraction(2))])
@pytest.mark.parametrize("zero", [QC(Fraction(0)), QC(Fraction(0), Fraction(0))])
def test_division_by_zero_raises(numerator, zero):
    with pytest.raises(ZeroDivisionError):
        numerator / zero


def test_qc_is_frozen_with_slots():
    q = QC(Fraction(1, 3))
    assert not hasattr(q, "__dict__")
    with pytest.raises(FrozenInstanceError):
        q.re = Fraction(2)
    assert q == QC(Fraction(1, 3), Fraction(0))
    assert hash(q) == hash(QC(Fraction(1, 3), Fraction(0)))


@pytest.mark.parametrize("mode", list(Mode))
def test_scalar_zero_is_one_shared_immutable_zero(mode):
    z = scalar_zero(mode)
    assert z is scalar_zero(mode) and is_zero_scalar(z)
    assert SeqVector.zero(IndexSet.INTEGERS, mode).entry(3) is z
    if mode is Mode.EXACT:
        with pytest.raises(FrozenInstanceError):
            z.re = Fraction(1)


# -- the stored form: (a + bi)/d with d > 0 and gcd(a, b, d) = 1 --------------


def assert_lowest_terms(q):
    assert q._d > 0 and math.gcd(q._a, q._b, q._d) == 1
    assert (Fraction(q._a, q._d), Fraction(q._b, q._d)) == (q.re, q.im)


@pytest.mark.parametrize("kinds", KINDS, ids=["-".join(k) for k in KINDS])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), negative=st.booleans(),
       n=st.integers(-40, 40) | st.sampled_from([-301, 256, 1000]))
def test_every_result_is_in_lowest_terms(kinds, data, negative, n):
    a = qc_of(data, draw_pair(data, kinds[0]))
    re, im = draw_pair(data, kinds[1], nonzero=True)
    b = qc_of(data, (-abs(re) if negative and not im else re, im))  # a negative real divisor
    for out in (a + b, a - b, a * b, a / b, -a, a.conjugate(), b ** n, a ** abs(n)):
        assert_lowest_terms(out)
    assert b ** n * b ** -n == QC(Fraction(1))


@pytest.mark.parametrize("kind", ["real", "complex"])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(1, 10**12))
def test_equal_values_compare_and_hash_as_the_pair(kind, data, k):
    re, im = draw_pair(data, kind)
    q = qc_of(data, (re, im))
    scale = QC(Fraction(k), Fraction(k))  # the same value reached through a common factor
    for other in (q * scale / scale, pickle.loads(pickle.dumps(q))):
        assert type(other) is QC
        assert other == q and hash(other) == hash(q) == hash((re, im))
    assert q != q + QC(Fraction(1, k)) and q != q + QC(Fraction(0), Fraction(1, k))


def near(e):
    """Signed rationals within about 2^-92..2^72 of 2^e, mostly not dyadic."""
    return st.builds(lambda m, k, s, sign: sign * Fraction(m, k) * Fraction(2) ** (e + s),
                     st.integers(1, 2**64), st.integers(1, 10**6), st.integers(-72, 8),
                     st.sampled_from([1, -1]))


@pytest.mark.parametrize("e", [-1074, -1022, 1023])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_to_complex_rounds_each_part_as_float_does(e, data):
    re = data.draw(near(e))
    im = data.draw(near(e) | st.just(Fraction(0)) | near(0))
    q = QC(re, im)
    try:
        expected = complex(float(re), float(im))
    except OverflowError:
        with pytest.raises(OverflowError):
            q.to_complex()
        return
    got = q.to_complex()
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


# -- the square test, root bounds and int-ratio rounding -----------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**40) | st.integers(2**200, 2**260), st.integers(-2, 2))
@example(17, 0)  # residues of squares mod 64 that are not squares
@example(33, 0)
@example(2**201, 0)
def test_square_root_agrees_with_isqrt(m, k):
    for n in (m, m * m, max(m * m + k, 0)):
        s = math.isqrt(n)
        assert square_root(n) == (s if s * s == n else None)


@pytest.mark.parametrize("q, root", [
    (Fraction(4, 9), Fraction(2, 3)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
    (Fraction(10**60, 49), Fraction(10**30, 7)), (Fraction(1, 2**400), Fraction(1, 2**200)),
])
def test_sqrt_bounds_is_exact_on_squares(q, root):
    assert sqrt_bounds(q, 64) == (root, root)


@pytest.mark.parametrize("q", [
    Fraction(2), Fraction(17), Fraction(33, 64), Fraction(4, 17), Fraction(17, 4),
    Fraction(10**60 + 1, 49),
])
@pytest.mark.parametrize("bits", [8, 64])
def test_sqrt_bounds_brackets_non_squares(q, bits):
    lo, hi = sqrt_bounds(q, bits)
    assert lo * lo < q < hi * hi
    assert hi - lo == Fraction(1, q.denominator << bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**1100), st.integers(1, 2**1100))
@example(10**400, 3)
@example(0, 7)
def test_ratio_float_rounds_as_to_float(n, d):
    assert ratio_float(n, d) == to_float(Fraction(n, d))
    if Fraction(n, d) > 2**1024:
        assert ratio_float(n, d) == math.inf


@pytest.mark.parametrize("value", ["1e400", 10**400, Fraction(-(10**400), 3), 2**1024],
                         ids=["string", "int", "negative-fraction", "2^1024"])
def test_float_real_value_past_double_range_is_an_error(value):
    # float() raised OverflowError, a traceback at the command line
    with pytest.raises(OrbitscopeError, match="past double range"):
        real_value(value, Mode.FLOAT64)
    with pytest.raises(OrbitscopeError, match="past double range"):
        positive_value(value, Mode.FLOAT64, "d")
    assert real_value(value, Mode.EXACT) == Fraction(value)
