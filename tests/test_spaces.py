import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbitscope import (
    IndexSet,
    NormTag,
    OpenCone,
    SeqVector,
    cone_contains,
    cone_sample,
    norm,
    norm_gt,
    norm_lt,
)
from orbitscope import spaces
from orbitscope.errors import IndexSetMismatch, ModeMismatch, OrbitscopeError
from orbitscope.numeric import TOL_EQ, Mode, abs2, make_scalar, to_float
from orbitscope.spaces import dist, dist_and_lt, dist_lt


def e(i, c=1, index_set=IndexSet.NATURALS):
    return SeqVector.basis(index_set, i, c)


class TestNorm:
    def test_unit_basis_sup(self):
        assert norm(e(0), NormTag.PINF) == 1

    def test_zero_vector(self):
        assert norm(SeqVector.zero(IndexSet.NATURALS), NormTag.P2) == 0

    def test_two_unit_entries_l1(self):
        assert norm(e(0) + e(1), NormTag.P1) == 2

    def test_zero_iff_zero_vector(self):
        v = e(3, Fraction(1, 7))
        assert norm(v, NormTag.P1) > 0
        assert norm(v - v, NormTag.P1) == 0

    def test_exact_p2_perfect_square(self):
        v = SeqVector.from_entries(IndexSet.NATURALS, {0: 3, 1: 4})
        assert norm(v, NormTag.P2) == 5

    def test_complex_entry_sup(self):
        v = SeqVector.from_entries(IndexSet.INTEGERS, {0: (1, 1)})
        # |1+i| = sqrt(2): exact comparisons still decide strictly
        assert norm_lt(v, NormTag.PINF, Fraction(15, 10))
        assert norm_gt(v, NormTag.PINF, Fraction(14, 10))

    def test_exact_p1_mixed_irrational(self):
        v = SeqVector.from_entries(IndexSet.INTEGERS, {0: (1, 1), 1: 2})
        # sqrt(2) + 2 in (3.41, 3.42)
        assert norm_lt(v, NormTag.P1, Fraction(342, 100))
        assert norm_gt(v, NormTag.P1, Fraction(341, 100))


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 9),
       st.sampled_from(list(NormTag)))
def test_norm_homogeneous_and_triangle(a, b, lam, p):
    u = SeqVector.from_entries(IndexSet.INTEGERS, {0: Fraction(a, 7), 3: Fraction(b, 5)})
    v = SeqVector.from_entries(IndexSet.INTEGERS, {0: Fraction(b, 3), 5: Fraction(a, 2)})
    scaled = norm(u.scale(lam), p)
    direct = lam * norm(u, p)
    if isinstance(scaled, Fraction) and isinstance(direct, Fraction):
        assert scaled == direct
    else:
        assert abs(to_float(scaled) - to_float(direct)) <= 1e-12 * max(1.0, to_float(direct))
    lhs = to_float(norm(u + v, p))
    assert lhs <= to_float(norm(u, p)) + to_float(norm(v, p)) + 1e-12


class TestCone:
    def setup_method(self):
        self.c = e(0, 2)
        self.C = OpenCone(self.c, 1, NormTag.P2)

    def test_center_is_member(self):
        assert cone_contains(self.C, self.c)

    def test_negated_center_is_not(self):
        assert not cone_contains(self.C, self.c.scale(-1))

    def test_closed_form_derived_example(self):
        # c = 2 e_0, r = 1, x = e_0 + 0.4 e_1:
        # <x,c> = 2, <x,c>^2 = 4 > ||x||^2 (||c||^2 - r^2) = 1.16 * 3 = 3.48
        x = SeqVector.from_entries(IndexSet.NATURALS, {0: 1, 1: Fraction(2, 5)})
        ip = Fraction(2)
        lhs = ip * ip
        rhs = (Fraction(1) + Fraction(4, 25)) * Fraction(3)
        assert lhs == 4 and rhs == Fraction(348, 100)
        assert lhs > rhs
        assert cone_contains(self.C, x)

    def test_positive_radius_below_double_range(self):
        # 10^-400 is positive, yet rounds to the double 0.0
        tiny = Fraction(1, 10 ** 400)
        C = OpenCone(self.c, tiny, NormTag.P2)
        assert C.radius_value() == tiny
        assert cone_contains(C, self.c.scale(3))
        with pytest.raises(OrbitscopeError, match="cone radius must be positive"):
            OpenCone(SeqVector.basis(IndexSet.NATURALS, 0, 2, Mode.FLOAT64), tiny, NormTag.P2)

    def test_zero_vector_never_member(self):
        assert not cone_contains(self.C, SeqVector.zero(IndexSet.NATURALS))
        Cinf = OpenCone(self.c, 1, NormTag.PINF)
        assert not cone_contains(Cinf, SeqVector.zero(IndexSet.NATURALS))

    def test_membership_invariant_under_positive_scaling(self):
        rng = random.Random(7)
        x = SeqVector.from_entries(IndexSet.NATURALS, {0: 1, 1: Fraction(2, 5)})
        out = SeqVector.from_entries(IndexSet.NATURALS, {1: 3})
        for _ in range(40):
            lam = Fraction(str(round(rng.uniform(1e-6, 1e6), 4)))
            if lam <= 0:
                continue
            assert cone_contains(self.C, x.scale(lam))
            assert not cone_contains(self.C, out.scale(lam))

    def test_cone_requires_center_off_ball(self):
        with pytest.raises(OrbitscopeError):
            OpenCone(e(0, 1), 2, NormTag.P2)

    def test_index_set_mismatch(self):
        with pytest.raises(IndexSetMismatch):
            cone_contains(self.C, SeqVector.basis(IndexSet.INTEGERS, 0))

    @pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
    def test_minimization_norms(self, p):
        C = OpenCone(e(0, 2), 1, p)
        assert cone_contains(C, e(0, 5))
        assert cone_contains(C, e(0, 2) + e(1, Fraction(1, 4)))
        assert not cone_contains(C, e(1, 3))

    def test_closed_form_agrees_with_minimization(self):
        rng = random.Random(123)
        agree = 0
        for _ in range(300):
            x = SeqVector.from_entries(
                IndexSet.NATURALS,
                {i: Fraction(rng.randint(-40, 40), 10) for i in range(3)})
            if x.is_zero:
                continue
            a = spaces._contains_p2_closed_form(self.C, x)
            b = spaces._contains_by_minimization(self.C, x)
            assert a == b
            agree += 1
        assert agree > 250


class TestConeSample:
    def test_samples_are_members_and_deterministic(self):
        for p in (NormTag.P2, NormTag.P1):
            C = OpenCone(e(0, 2) + e(2, 1), Fraction(1, 2), p)
            first = cone_sample(C, 30, seed=11)
            second = cone_sample(C, 30, seed=11)
            assert len(first) == 30
            assert all(cone_contains(C, v) for v in first)
            assert [v.key() for v in first] == [v.key() for v in second]

    def test_different_seed_differs(self):
        C = OpenCone(e(0, 2), 1, NormTag.PINF)
        a = cone_sample(C, 5, seed=1)
        b = cone_sample(C, 5, seed=2)
        assert [v.key() for v in a] != [v.key() for v in b]


def _real_norm(v: dict, p: NormTag) -> Fraction:
    return sum(map(abs, v.values())) if p is NormTag.P1 else max(map(abs, v.values()))


def _seeded_cone_cases(p: NormTag, count: int, seed: int, delta_exps: tuple[int, int]):
    """(center, radius, member, negated-center and disjoint-support non-members),
    built as perfbench/stream.py's orbit-cone requests are: the member is
    lam (c + u) with ||u|| = r (1 - delta), delta = 10^-k for k in delta_exps."""
    rng = random.Random(seed)
    for _ in range(count):
        c = {i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), 10)
             for i in rng.sample(range(-4, 5), rng.randint(2, 4))}
        cn = _real_norm(c, p)
        r = Fraction(rng.randint(20, 90), 100) * max(map(abs, c.values()))
        g = {i: Fraction(rng.randint(-100, 100), 100) for i in range(min(c) - 1, max(c) + 2)}
        g = {i: v for i, v in g.items() if v} or {min(c): Fraction(1)}
        delta = Fraction(1, 10 ** rng.randint(*delta_exps))
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        t = r * (1 - delta) / _real_norm(g, p)
        member = {i: lam * (c.get(i, 0) + g.get(i, 0) * t) for i in c.keys() | g.keys()}
        # -(c + v) with ||v|| <= ||c||: ||(1 + lam) c + v|| >= lam ||c|| > lam r
        t = rng.randint(1, 10) * cn / 10 / _real_norm(g, p)
        s = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        negated = {i: -s * (c.get(i, 0) + g.get(i, 0) * t) for i in c.keys() | g.keys()}
        # off c's support: ||x - lam c|| >= lam ||c|| > lam r
        disjoint = {i: Fraction(rng.randint(1, 50), 10) for i in range(max(c) + 1, max(c) + 4)}
        yield c, r, member, negated, disjoint


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_members_a_hair_inside_the_boundary_are_members(p):
    # the float scale search reported some of these as outside
    # (1 in 500 under p1, 4 in 500 under pinf at this seed)
    def vec(entries):
        return SeqVector.from_entries(IndexSet.INTEGERS, entries)

    for c, r, member, negated, disjoint in _seeded_cone_cases(p, 500, 2026, (15, 30)):
        C = OpenCone(vec(c), r, p)
        assert cone_contains(C, vec(member))
        assert not cone_contains(C, vec(negated))
        assert not cone_contains(C, vec(disjoint))


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_float_cone_membership_follows_the_float_policy(p):
    # binary64 roundings of exact inputs whose margins dwarf TOL_EQ
    def vec(entries):
        return SeqVector.from_entries(IndexSet.INTEGERS, entries, Mode.FLOAT64)

    for c, r, member, negated, disjoint in _seeded_cone_cases(p, 200, 77, (1, 4)):
        C = OpenCone(vec(c), r, p)
        assert cone_contains(C, vec(member))
        assert not cone_contains(C, vec(negated))
        assert not cone_contains(C, vec(disjoint))


def _min_gap_over_breakpoints(x: dict, c: dict, r: Fraction, p: NormTag):
    """min of ||x - lam c|| - lam r over the positive breakpoints, or None.

    g is convex and piecewise linear, its last slope ||c|| - r is positive
    and g(0+) = ||x|| > 0, so x is a member iff this minimum is negative.
    The breakpoints are each x_i / c_i and, under pinf, each crossing of two
    pieces +-(x_i - lam c_i), +-(x_j - lam c_j)."""
    rows = x.keys() | c.keys()
    pieces = [(s * x.get(i, 0), s * c.get(i, 0)) for i in rows for s in (1, -1)]
    lams = {x.get(i, 0) / c[i] for i in c}
    if p is NormTag.PINF:
        lams |= {(a1 - a2) / (b1 - b2) for a1, b1 in pieces for a2, b2 in pieces if b1 != b2}
    gaps = [_real_norm({i: x.get(i, 0) - lam * c.get(i, 0) for i in rows}, p) - lam * r
            for lam in lams if lam > 0]
    return min(gaps, default=None)


_small_rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 3), _small_rationals, min_size=1),
       st.dictionaries(st.integers(0, 3), _small_rationals, min_size=1),
       st.integers(0, 3), st.integers(1, 19), st.sampled_from([NormTag.P1, NormTag.PINF]))
def test_exact_real_cone_membership_matches_the_breakpoint_oracle(c, w, shift, share, p):
    x = {i: shift * c.get(i, 0) + w.get(i, 0) for i in c.keys() | w.keys()}
    x = {i: v for i, v in x.items() if v}
    assume(x)
    r = _real_norm(c, p) * Fraction(share, 20)
    C = OpenCone(SeqVector.from_entries(IndexSet.NATURALS, c), r, p)
    gap = _min_gap_over_breakpoints(x, c, r, p)
    member = gap is not None and gap < 0
    assert cone_contains(C, SeqVector.from_entries(IndexSet.NATURALS, x)) is member


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_complex_entry_keeps_the_scale_search(p, monkeypatch):
    searched = []
    search = spaces._contains_by_minimization
    monkeypatch.setattr(spaces, "_contains_by_minimization",
                        lambda C, x: searched.append(x) or search(C, x))
    C = OpenCone(e(0, 2) + e(1, 1), 1, p)
    real = e(0, 2) + e(1, Fraction(9, 10))
    assert cone_contains(C, real)
    assert searched == []
    twisted = SeqVector.from_entries(IndexSet.NATURALS, {0: (2, Fraction(1, 10)), 1: 1})
    assert cone_contains(C, twisted)
    assert searched == [twisted]


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_scale_search_answers_beyond_double_range(p):
    # the float scale search sees x and (c, r) scaled near 1, so entries past
    # double range answer; 10^400 + i sits on the boundary ray to 1e-400
    huge = 10 ** 400
    C = OpenCone(SeqVector.from_entries(IndexSet.INTEGERS, {0: (2, 1)}), 1, p)

    def x(re, im):
        return SeqVector.from_entries(IndexSet.INTEGERS, {0: (re, im)})

    assert isinstance(cone_contains(C, x(huge, 1)), bool)
    assert cone_contains(C, x(2 * huge, huge)) is True
    assert cone_contains(C, x(-2 * huge, -huge)) is False
    tiny = Fraction(1, huge)
    assert cone_contains(C, x(2 * tiny, tiny)) is True
    assert cone_contains(C, x(-2 * tiny, -tiny)) is False


def test_minimize_answers_beyond_double_range():
    C = OpenCone(e(0, 2), 1, NormTag.P2)
    assert spaces._contains_by_minimization(C, e(0, 10 ** 400)) is True
    assert spaces._contains_by_minimization(C, e(0, -10 ** 400)) is False


class TestVector:
    def test_canonical_sparse_form(self):
        v = SeqVector.from_entries(IndexSet.INTEGERS, {0: 1, 5: 0})
        assert v.support == [0]

    def test_naturals_reject_negative_index(self):
        with pytest.raises(IndexSetMismatch):
            SeqVector.from_entries(IndexSet.NATURALS, {-1: 1})

    def test_add_across_index_sets_rejected(self):
        with pytest.raises(IndexSetMismatch):
            e(0) + SeqVector.basis(IndexSet.INTEGERS, 0)

    def test_json_roundtrip_exact(self):
        v = SeqVector.from_entries(IndexSet.INTEGERS,
                                   {-2: Fraction(3, 4), 1: (Fraction(1, 3), 2)})
        obj = v.to_jsonable()
        assert obj["index_set"] == "Z"
        assert obj["entries"][0] == [-2, "3/4", "0"]
        back = SeqVector.from_jsonable(obj)
        assert back == v

    def test_json_roundtrip_float(self):
        v = SeqVector.from_entries(IndexSet.NATURALS, {0: 0.5, 3: -2.25},
                                   mode=Mode.FLOAT64)
        back = SeqVector.from_jsonable(v.to_jsonable(), mode=Mode.FLOAT64)
        assert back == v

    def test_entries_sorted_by_index(self):
        v = SeqVector.from_entries(IndexSet.INTEGERS, {5: 1, -3: 2, 0: 4})
        assert [item[0] for item in v.to_jsonable()["entries"]] == [-3, 0, 5]


class TestFloatPolicy:
    def test_strict_inequality_shaved_by_tolerance(self):
        v = SeqVector.basis(IndexSet.NATURALS, 0, 1.0, mode=Mode.FLOAT64)
        assert norm_lt(v, NormTag.PINF, 1.0 + 1e-6)
        assert not norm_lt(v, NormTag.PINF, 1.0)
        assert not norm_lt(v, NormTag.PINF, 1.0 + 1e-10)


# -- the integer walk against a Fraction copy of the squares walk ----------------

SMALL = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def _ref_float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf


def _ref_exact_sqrt(q: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def _ref_sum_sqrt_cmp(terms: list[Fraction], bound: Fraction) -> int:
    """sum_i sqrt(terms[i]) against bound, refining Fraction brackets."""
    rational, irrational = Fraction(0), []
    for t in terms:
        r = _ref_exact_sqrt(t)
        if r is None:
            irrational.append(t)
        else:
            rational += r
    if not irrational:
        return (rational > bound) - (rational < bound)
    bits = 32
    while True:
        lo = hi = rational
        for t in irrational:
            shift = 1 << bits
            s = math.isqrt(t.numerator * t.denominator * shift * shift)
            lo += Fraction(s, t.denominator * shift)
            hi += Fraction(s + 1, t.denominator * shift)
        if hi < bound:
            return -1
        if lo > bound:
            return 1
        bits *= 2


def reference_squares(a, b=None):
    """|a_j - b_j|^2 as Fractions in index order, from each entry's parts."""
    b = b if b is not None else SeqVector.zero(a.index_set)
    squares = []
    for j in sorted(set(a.support) | set(b.support)):
        re, im = a.entry(j).re - b.entry(j).re, a.entry(j).im - b.entry(j).im
        squares.append(re * re + im * im)
    return squares


def reference_value(squares, p):
    """The squares walk: exact square roots where rational, else floats."""
    if p is NormTag.P1:
        parts = [_ref_exact_sqrt(t) for t in squares]
        if None not in parts:
            return sum(parts, Fraction(0))
        return sum(math.sqrt(_ref_float(t)) for t in squares)
    s = sum(squares, Fraction(0)) if p is NormTag.P2 else max(squares, default=Fraction(0))
    r = _ref_exact_sqrt(s)
    return r if r is not None else math.sqrt(_ref_float(s))


def reference_squares_cmp(squares, p, bound) -> int:
    if bound < 0:
        return 1
    if p is NormTag.P1:
        return _ref_sum_sqrt_cmp(squares, bound)
    s = sum(squares, Fraction(0)) if p is NormTag.P2 else max(squares, default=Fraction(0))
    return (s > bound * bound) - (s < bound * bound)


def reference_norm(v, p):
    return reference_value(reference_squares(v), p)


def reference_cmp(v, p, bound):
    return reference_squares_cmp(reference_squares(v), p, bound)


@st.composite
def exact_vectors(draw):
    """Exact vectors with real, complex or mixed entries, possibly empty."""
    complex_ok = draw(st.booleans())
    raw = {}
    for i in draw(st.sets(st.integers(-4, 4), max_size=5)):
        im = draw(SMALL) if complex_ok and draw(st.booleans()) else 0
        raw[i] = (draw(SMALL), im)
    return SeqVector.from_entries(IndexSet.INTEGERS, raw)


@settings(max_examples=300, deadline=None)
@given(exact_vectors(), st.sampled_from(list(NormTag)),
       st.fractions(min_value=0, max_value=200, max_denominator=50))
def test_norm_and_comparisons_match_the_squares_path(v, p, bound):
    ref = reference_norm(v, p)
    got = norm(v, p)
    assert type(got) is type(ref) and got == ref
    bounds = [bound] + ([ref] if isinstance(ref, Fraction) else [])
    for b in bounds:
        c = reference_cmp(v, p, b)
        assert norm_lt(v, p, b) is (c < 0)
        assert norm_gt(v, p, b) is (c > 0)
    if isinstance(ref, Fraction):
        # a bound equal to the norm is neither strictly above nor below it
        assert not norm_lt(v, p, ref) and not norm_gt(v, p, ref)


@pytest.mark.parametrize("p", list(NormTag))
def test_empty_vector_norm_and_comparisons(p):
    z = SeqVector.zero(IndexSet.NATURALS)
    assert norm(z, p) == 0 and isinstance(norm(z, p), Fraction)
    assert norm_lt(z, p, Fraction(1, 10**9)) and not norm_lt(z, p, 0)
    assert not norm_gt(z, p, 0) and norm_gt(z, p, -1)


# -- subtraction against addition of the negation ----------------------------------


def _outcome(fn):
    """Value, mode and index set of a result, bit for bit, or the error raised."""
    try:
        r = fn()
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc))
    return ("value", repr(r.key()), r.mode, r.index_set)


@st.composite
def any_vectors(draw):
    """Exact or float vectors over N or Z, with declared mode, possibly empty."""
    index_set = draw(st.sampled_from(list(IndexSet)))
    mode = draw(st.sampled_from(list(Mode)))
    lo = 0 if index_set is IndexSet.NATURALS else -3
    raw = {i: (draw(SMALL), draw(st.sampled_from([0, 0, Fraction(1, 3), -2])))
           for i in draw(st.sets(st.integers(lo, 3), max_size=4))}
    return SeqVector.from_entries(index_set, raw, mode)


@settings(max_examples=400, deadline=None)
@given(any_vectors(), any_vectors())
def test_sub_equals_add_of_negation(a, b):
    assert _outcome(lambda: a - b) == _outcome(lambda: a + (-b))


def test_empty_exact_minus_float_is_a_mode_mismatch():
    a = SeqVector.zero(IndexSet.NATURALS)
    b = SeqVector.basis(IndexSet.NATURALS, 0, 1.5, mode=Mode.FLOAT64)
    with pytest.raises(ModeMismatch):
        a - b
    assert _outcome(lambda: a - b) == _outcome(lambda: a + (-b))


@st.composite
def vector_pairs(draw):
    """(a, b) drawn independently, or b drawn from a's entries with some
    kept, some changed and some dropped, so differences cancel."""
    a = draw(any_vectors())
    if draw(st.booleans()):
        return a, draw(any_vectors())
    entries = {}
    for i, v in a._entries.items():
        choice = draw(st.sampled_from(["keep", "keep", "change", "drop"]))
        if choice == "keep":
            entries[i] = v
        elif choice == "change":
            im = v.im if a.mode is Mode.EXACT else v.imag
            entries[i] = make_scalar((draw(SMALL), im), a.mode)
    return a, SeqVector(a.index_set, entries, a.mode)


def _value_or_error(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc))


@settings(max_examples=600, deadline=None)
@given(vector_pairs(), st.sampled_from(list(NormTag)),
       st.sampled_from(["negative", "zero", "positive", "the norm"]),
       st.fractions(min_value=Fraction(1, 30), max_value=50, max_denominator=30))
def test_distance_kernel_matches_the_difference_vector(pair, p, kind, size):
    a, b = pair
    expected = _value_or_error(lambda: norm(a - b, p))
    assert _value_or_error(lambda: dist(a, b, p)) == expected
    if expected[0] == "value" and kind == "the norm":
        bound = expected[1]
    else:
        bound = {"negative": -size, "zero": Fraction(0)}.get(kind, size)
    lt = _value_or_error(lambda: norm_lt(a - b, p, bound))
    assert _value_or_error(lambda: dist_lt(a, b, p, bound)) == lt
    both = _value_or_error(lambda: dist_and_lt(a, b, p, bound))
    assert both == (expected if expected[0] == "raised"
                    else ("value", (expected[1], lt[1])))
    if expected[0] == "value" and (a - b).mode is Mode.EXACT:
        # norm shares the kernel; the squares path does not
        ref = reference_norm(a - b, p)
        assert type(expected[1]) is type(ref) and expected[1] == ref
        assert lt[1] is (bound > 0 and reference_cmp(a - b, p, Fraction(bound)) < 0)


@pytest.mark.parametrize("a_mode, b_mode", [(Mode.EXACT, Mode.FLOAT64),
                                            (Mode.FLOAT64, Mode.EXACT)])
def test_distance_kernel_raises_what_the_difference_raises(a_mode, b_mode):
    cases = [
        (SeqVector.basis(IndexSet.NATURALS, 0, 1, mode=a_mode),
         SeqVector.basis(IndexSet.INTEGERS, 0, 1, mode=a_mode)),
        (SeqVector.basis(IndexSet.NATURALS, 0, 1, mode=a_mode),
         SeqVector.basis(IndexSet.NATURALS, 1, 2, mode=b_mode)),
        (SeqVector.zero(IndexSet.INTEGERS, a_mode),
         SeqVector.basis(IndexSet.INTEGERS, 1, 2, mode=b_mode)),
    ]
    for a, b in cases:
        with pytest.raises(OrbitscopeError) as diff_error:
            a - b
        for fn in (lambda: dist(a, b, NormTag.PINF),
                   lambda: dist_lt(a, b, NormTag.P1, 1),
                   lambda: dist_and_lt(a, b, NormTag.P2, 1)):
            with pytest.raises(type(diff_error.value), match=str(diff_error.value)):
                fn()


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_equal_imaginary_parts_take_the_integer_walk(p):
    # the walk compares imaginary parts as b/d across two denominators
    u, v = make_scalar((Fraction(1, 2), Fraction(1, 3)), Mode.EXACT), \
        make_scalar((Fraction(1, 4), Fraction(1, 3)), Mode.EXACT)
    assert u._d != v._d and u.im == v.im
    a, b = (SeqVector(IndexSet.INTEGERS, {0: w}) for w in (u, v))
    assert spaces._real_dist(a, b, p) == Fraction(1, 4)
    assert type(spaces._real_dist(a, b, p)) is Fraction
    assert dist(a, b, p) == Fraction(1, 4) and dist_lt(a, b, p, Fraction(1, 3))
    assert not dist_lt(a, b, p, Fraction(1, 4))


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_unequal_imaginary_parts_take_the_squares_path(p):
    # each row is the int pair (n, d) with |a_j - b_j|^2 = n / d^2
    a = SeqVector.from_entries(IndexSet.INTEGERS, {0: "1/2", 1: ("1/2", "1/3"), 3: ("2", "-1/6")})
    b = SeqVector.from_entries(IndexSet.INTEGERS, {0: "1/2", 1: ("1/4", "2/3"), 2: "5/7"})
    rows = spaces._real_dist(a, b, p)
    diff = a - b
    assert all(type(n) is int and type(d) is int for n, d in rows)
    assert [Fraction(n, d * d) for n, d in rows] == [abs2(diff.entry(j)) for j in range(4)]
    assert dist(a, b, p) == norm(diff, p) and norm(diff, p) != 0


@st.composite
def exact_pairs(draw):
    """(a, b) over Z with real, complex or mixed entries: b keeps, moves the
    real part of, replaces or drops each entry of a, and adds its own, so
    rows cancel, share imaginary parts or differ in both parts, over equal
    and unequal denominators."""
    def entry():
        return draw(SMALL), draw(SMALL) if draw(st.booleans()) else 0

    a = {i: entry() for i in draw(st.sets(st.integers(-3, 3), max_size=5))}
    b = {}
    for i, (re, im) in a.items():
        choice = draw(st.sampled_from(["keep", "real", "both", "drop"]))
        if choice != "drop":
            b[i] = (re, im) if choice == "keep" else (draw(SMALL), im) if choice == "real" \
                else entry()
    for i in draw(st.sets(st.integers(-3, 3), max_size=3)) - a.keys():
        b[i] = entry()
    return tuple(SeqVector.from_entries(IndexSet.INTEGERS, v) for v in (a, b))


@settings(max_examples=250, deadline=None)
@given(exact_pairs(), st.sampled_from(list(NormTag)),
       st.fractions(min_value=-1, max_value=200, max_denominator=60))
@example((SeqVector.from_entries(IndexSet.INTEGERS, {0: ("1/3", "1/2"), 1: "2/7"}),
          SeqVector.from_entries(IndexSet.INTEGERS, {0: ("1/5", "1/4"), 2: ("3/4", 1)})),
         NormTag.P1, Fraction(1))
def test_distances_match_a_fraction_copy_of_the_squares_walk(pair, p, drawn):
    a, b = pair
    squares = reference_squares(a, b)
    ref = reference_value(squares, p)
    got = dist(a, b, p)
    assert type(got) is type(ref) and got == ref
    # the drawn bound, zero, and the value itself or the double nearest it
    bounds = [drawn, Fraction(0), Fraction(ref)]
    for bound in bounds:
        c = reference_squares_cmp(squares, p, bound)
        assert dist_lt(a, b, p, bound) is (c < 0)
        assert dist_and_lt(a, b, p, bound) == (ref, c < 0)
        assert norm_gt(a - b, p, bound) is (c > 0)
    if isinstance(ref, Fraction):
        assert not dist_lt(a, b, p, ref) and not norm_gt(a - b, p, ref)


@pytest.mark.parametrize("entries", [{0: (1, 1)}, {0: ("1/3", "1/3")},
                                     {0: (1, 1), 1: (1, "1/2"), 2: "3/7", 4: ("2/5", "-1/5")}])
def test_p1_comparison_separates_bounds_a_hair_from_the_norm(entries):
    # a best rational approximation p/q of an irrational 1-norm lies about
    # 1/q^2 from it, far inside the first 32-bit brackets of the roots
    v = SeqVector.from_entries(IndexSet.INTEGERS, entries)
    squares = reference_squares(v)
    scale = 10 ** 80
    near = sum((Fraction(math.isqrt(t.numerator * t.denominator * scale * scale),
                         t.denominator * scale) for t in squares), Fraction(0))
    for q_max in (10 ** 6, 10 ** 12, 10 ** 18, 10 ** 24, 10 ** 30):
        bound = near.limit_denominator(q_max)
        c = reference_squares_cmp(squares, NormTag.P1, bound)
        assert c != 0
        assert norm_lt(v, NormTag.P1, bound) is (c < 0)
        assert norm_gt(v, NormTag.P1, bound) is (c > 0)


def test_distances_past_double_range_and_tiny_irrational_ones():
    # a squared sum past double range reads as inf, not OverflowError; a
    # tiny irrational distance is the root of the double nearest its square
    huge, tiny = 10 ** 200, Fraction(1, 10 ** 100)
    zero = SeqVector.zero(IndexSet.INTEGERS)

    def vec(entries):
        return SeqVector.from_entries(IndexSet.INTEGERS, entries)

    assert dist(vec({0: huge, 3: huge}), zero, NormTag.P2) == math.inf
    assert dist(vec({0: (huge, huge)}), zero, NormTag.P1) == math.inf
    assert dist(vec({0: (huge, huge)}), vec({0: (0, -huge)}), NormTag.P2) == math.inf
    assert dist_lt(vec({0: huge, 3: huge}), zero, NormTag.P2, 2 * huge)
    assert norm_gt(vec({0: (huge, huge)}), NormTag.P1, huge)
    root = math.sqrt(float(2 * tiny * tiny))
    assert dist(vec({0: tiny, 3: tiny}), zero, NormTag.P2) == root
    for p in NormTag:
        assert dist(vec({0: (tiny, tiny)}), zero, p) == root
        assert dist(vec({0: (tiny, tiny)}), vec({0: (2 * tiny, 0)}), p) == root


# -- the exact cone helpers against Fraction copies of their bodies --------------


def _rows(x: SeqVector, c: SeqVector) -> list:
    """The row table a real p1/pinf cone query reads, in x's mode."""
    table = spaces._exact_rows if x.mode is Mode.EXACT else spaces._float_rows
    return table(x._entries, c._entries)


def _scale_value(lam):
    """A scale as a number: an exact scale's int pair (n, d) as n/d."""
    return Fraction(*lam) if isinstance(lam, tuple) else lam


def _ref_p1_scale(xs: dict, cs: dict, r: Fraction):
    slope, knots = -r, []
    for i, b in cs.items():
        k = xs.get(i, 0) / b
        if k > 0:
            slope -= abs(b)
            knots.append((k, abs(b)))
        else:
            slope += abs(b)
    if slope >= 0:
        return None
    for k, w in sorted(knots):
        slope += 2 * w
        if slope >= 0:
            return k


def _ref_pinf_scale(xs: dict, cs: dict, r: Fraction):
    lo, hi = 0, math.inf
    for i in xs.keys() | cs.keys():
        a, b = xs.get(i, 0), cs.get(i, 0)
        for s, t in ((b + r, a), (r - b, -a)):
            if s > 0:
                lo = max(lo, t / s)
            elif s < 0:
                hi = min(hi, t / s)
            elif t >= 0:
                return None
    return (lo + hi) / 2 if lo < hi else None


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("c1", [1, -1])
@pytest.mark.parametrize("x1, member", [(1, True), (-1, False), (0, False)])
def test_pinf_scale_rows_with_zero_slope(mode, c1, x1, member):
    # c_1 = +-r, so one of row 1's inequalities, lam (r -+ c_1) > -+x_1,
    # has slope 0: it holds for every lam when x_1 has c_1's sign, else for none
    c, r = {0: 2, 1: c1}, Fraction(1)
    x = {0: 3, 1: x1 * c1}
    cv, xv = (SeqVector.from_entries(IndexSet.INTEGERS, v, mode) for v in (c, x))
    C = OpenCone(cv, r, NormTag.PINF)
    carrier = Fraction if mode is Mode.EXACT else float
    ref = _ref_pinf_scale({i: carrier(v) for i, v in x.items() if v},
                          {i: carrier(v) for i, v in c.items()}, carrier(r))
    lam = _scale_value(spaces._pinf_scale(_rows(xv, cv), C.radius_value(), mode))
    assert lam == ref and type(lam) is type(ref)
    assert (lam is not None) is member
    assert cone_contains(C, xv) is member


def _ref_p2_closed_form(x: SeqVector, c: SeqVector, r: Fraction) -> bool:
    ip = sum((u.re * c.entry(i).re + u.im * c.entry(i).im for i, u in x.items()), Fraction(0))
    x2 = sum(reference_squares(x), Fraction(0))
    c2 = sum(reference_squares(c), Fraction(0))
    return ip > 0 and ip * ip > x2 * (c2 - r * r)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), SMALL.filter(bool), min_size=1, max_size=4),
       st.dictionaries(st.integers(-3, 3), SMALL, max_size=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.integers(1, 19), st.sampled_from([NormTag.P1, NormTag.PINF]))
def test_exact_scales_match_fraction_copies_of_their_bodies(c, w, shift, share, p):
    x = {i: shift * c.get(i, 0) + w.get(i, 0) for i in c.keys() | w.keys()}
    x = {i: v for i, v in x.items() if v}
    assume(x)
    r = _real_norm(c, p) * Fraction(share, 20)
    C = OpenCone(SeqVector.from_entries(IndexSet.INTEGERS, c), r, p)
    xv = SeqVector.from_entries(IndexSet.INTEGERS, x)
    ref = (_ref_p1_scale if p is NormTag.P1 else _ref_pinf_scale)(x, c, r)
    lam = _scale_value((spaces._p1_scale if p is NormTag.P1 else spaces._pinf_scale)(
        _rows(xv, C.center), r, Mode.EXACT))
    assert lam == ref and type(lam) is type(ref)
    member = ref is not None and reference_value(
        reference_squares(xv, C.center.scale(ref)), p) < ref * r
    assert cone_contains(C, xv) is member


@settings(max_examples=150, deadline=None)
@given(exact_vectors().filter(lambda v: not v.is_zero), exact_vectors(),
       st.integers(1, 19), st.fractions(min_value=-3, max_value=3, max_denominator=7))
@example(SeqVector.from_entries(IndexSet.INTEGERS, {0: 1}),
         SeqVector.from_entries(IndexSet.INTEGERS, {0: 4, 1: 3}),
         12, Fraction(0))  # r = 3/5: x = (4, 3) lies on the boundary
def test_exact_p2_closed_form_matches_a_fraction_copy(c, w, share, shift):
    r = math.sqrt(to_float(sum(reference_squares(c), Fraction(0))))
    r = Fraction(r * share / 20).limit_denominator(1000)
    assume(r > 0 and norm_gt(c, NormTag.P2, r))
    C = OpenCone(c, r, NormTag.P2)
    x = c.scale(shift) + w
    assume(not x.is_zero)
    assert cone_contains(C, x) is _ref_p2_closed_form(x, c, r)


@settings(max_examples=150, deadline=None)
@given(exact_vectors().filter(lambda v: not v.is_zero), exact_vectors(),
       st.integers(1, 19), st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_float_p2_closed_form_matches_a_fraction_copy_clear_of_tol_eq(c, w, share, shift):
    # the float cone and query against _ref_p2_closed_form on the same
    # doubles read as Fractions, wherever both exact gaps (<x, c> > 0 and
    # <x, c>^2 > ||x||^2 (||c||^2 - r^2)) clear TOL_EQ by more than the
    # rounding of the float sums can move them
    r = math.sqrt(to_float(sum(reference_squares(c), Fraction(0))))
    r = Fraction(r * share / 20).limit_denominator(1000)
    x = c.scale(shift) + w
    assume(not x.is_zero)
    cf, xf = (SeqVector.from_entries(IndexSet.INTEGERS, {i: (u.re, u.im) for i, u in v.items()},
                                     Mode.FLOAT64) for v in (c, x))
    try:
        C = OpenCone(cf, r, NormTag.P2)
    except OrbitscopeError:  # ||c|| <= r under the float policy
        assume(False)
    ce, xe = (SeqVector.from_entries(IndexSet.INTEGERS, {
        i: (Fraction(u.real), Fraction(u.imag)) for i, u in v.items()}) for v in (cf, xf))
    re = Fraction(C.radius_value())
    ip = sum((u.re * ce.entry(i).re + u.im * ce.entry(i).im for i, u in xe.items()),
             Fraction(0))
    x2, c2 = (sum(reference_squares(v), Fraction(0)) for v in (xe, ce))
    size = sum((abs(u.re * ce.entry(i).re) + abs(u.im * ce.entry(i).im)
                for i, u in xe.items()), Fraction(0))
    rounding = Fraction(1e-12) * (size * size + x2 * (c2 + re * re) + size)
    assume(abs(ip) > TOL_EQ + rounding)
    assume(ip < 0 or abs(ip * ip - x2 * (c2 - re * re)) > TOL_EQ + rounding)
    assert cone_contains(C, xf) is _ref_p2_closed_form(xe, ce, re)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("x1, member", [(3, False), (Fraction(2999, 1000), True),
                                        (Fraction(3001, 1000), False)])
def test_p2_points_at_and_beside_the_boundary(mode, x1, member):
    # c = e_0 and r = 3/5: x = (4, 3) has <x, c>^2 = 16 = ||x||^2 (||c||^2 - r^2),
    # and x_1 = 3 -+ 1/1000 moves that right side by about -+0.004
    C = OpenCone(SeqVector.from_entries(IndexSet.INTEGERS, {0: 1}, mode),
                 Fraction(3, 5), NormTag.P2)
    x = SeqVector.from_entries(IndexSet.INTEGERS, {0: 4, 1: x1}, mode)
    assert cone_contains(C, x) is member


# -- the exact check at the scale against the composition it replaced ------------


def _lt_by_walk(x: SeqVector, c: SeqVector, lam: Fraction, r: Fraction, p: NormTag) -> bool:
    """||x - lam c|| < lam r as it was decided before the integer check: a
    scaled center, a Fraction bound and the distance walk."""
    return dist_lt(x, c.scale(lam), p, lam * r)


def _scale_of(x: SeqVector, C: OpenCone):
    scale = spaces._p1_scale if C.norm is NormTag.P1 else spaces._pinf_scale
    return _scale_value(scale(_rows(x, C.center), C.radius_value(), Mode.EXACT))


# small rationals and entries past double range either way
_WIDE = st.one_of(
    _small_rationals,
    st.builds(lambda s, t: s * Fraction(10) ** t, _small_rationals, st.sampled_from([400, -400])))
_ROWS = st.dictionaries(st.integers(0, 5), _WIDE, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ROWS, _ROWS, _WIDE, st.integers(1, 19), st.sampled_from([NormTag.P1, NormTag.PINF]),
       st.sampled_from(list(IndexSet)), st.sampled_from(["boundary", "free"]))
@example({0: Fraction(2)}, {1: Fraction(1)}, Fraction(1), 10, NormTag.P1,
         IndexSet.NATURALS, "boundary")  # x = (2, 1) on the boundary at lam = 1
@example({0: Fraction(3), 1: Fraction(-1)}, {4: Fraction(5)}, Fraction(1), 5, NormTag.PINF,
         IndexSet.INTEGERS, "free")  # x and c share no row
def test_exact_check_at_the_scale_matches_the_distance_walk(c, u, lam, share, p, index_set,
                                                           kind):
    # x = lam (c + u') with ||u'|| = r is on the boundary at lam, where the
    # strict test must fail; otherwise x = u and lam is any positive scale.
    # Under Z the rows run from -2, so both signs of index are met
    lam, first = abs(lam), -2 if index_set is IndexSet.INTEGERS else 0
    c = {i + first: v for i, v in c.items()}
    u = {i + first: v for i, v in u.items()}
    r = _real_norm(c, p) * Fraction(share, 20)
    if kind == "boundary":
        unit = r / _real_norm(u, p)
        x = {i: lam * (c.get(i, 0) + unit * u.get(i, 0)) for i in c.keys() | u.keys()}
        x = {i: v for i, v in x.items() if v}
        assume(x)
    else:
        x = u
    cv, xv = (SeqVector.from_entries(index_set, v) for v in (c, x))
    C = OpenCone(cv, r, p)
    got = spaces._lt_at_scale(_rows(xv, cv), lam.as_integer_ratio(), r, p is NormTag.PINF)
    assert got is _lt_by_walk(xv, cv, lam, r, p)
    if kind == "boundary":
        assert got is False
    scale = _scale_of(xv, C)
    assert cone_contains(C, xv) is (scale is not None and _lt_by_walk(xv, cv, scale, r, p))


@pytest.mark.parametrize("p", [NormTag.P1, NormTag.PINF])
def test_exact_real_cone_query_builds_no_vector_and_walks_no_distance(p, monkeypatch):
    # members, a boundary point and a non-member, in both modes: neither
    # builds lam c nor walks a distance
    C = OpenCone(SeqVector.from_entries(IndexSet.INTEGERS, {0: 2, 1: Fraction(1, 3)}), 1, p)
    # on the boundary: ||x - lam c|| = lam r at lam = 1 (p1) or 3 (pinf), and > elsewhere
    boundary = {0: 2, 1: Fraction(4, 3)} if p is NormTag.P1 else {0: 3, 1: -2}
    queries = [(SeqVector.from_entries(IndexSet.INTEGERS, entries), want) for entries, want in (
        ({0: 4, 1: Fraction(2, 3)}, True),
        ({0: 2, 1: Fraction(1, 3), 5: Fraction(1, 2)}, True),
        (boundary, False),
        ({0: -2, 1: Fraction(1, 3)}, False))]
    floats = OpenCone(SeqVector.from_entries(IndexSet.INTEGERS, {0: 2}, Mode.FLOAT64), 1, p)
    float_queries = [(SeqVector.from_entries(IndexSet.INTEGERS, entries, Mode.FLOAT64), want)
                     for entries, want in (({0: 3}, True), ({0: 2, 4: 3}, False),
                                           ({0: -2}, False))]
    built, walked = [], []
    init, trusted = SeqVector.__init__, SeqVector._trusted.__func__
    walk, real_dist = spaces.dist_lt, spaces._real_dist
    monkeypatch.setattr(SeqVector, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    monkeypatch.setattr(SeqVector, "_trusted",
                        classmethod(lambda cls, *a: built.append(a) or trusted(cls, *a)))
    monkeypatch.setattr(spaces, "dist_lt", lambda *a: walked.append(a) or walk(*a))
    monkeypatch.setattr(spaces, "_real_dist", lambda *a: walked.append(a) or real_dist(*a))
    assert [cone_contains(C, x) for x, _ in queries] == [want for _, want in queries]
    assert built == [] and walked == []
    assert ([cone_contains(floats, x) for x, _ in float_queries]
            == [want for _, want in float_queries])
    assert built == [] and walked == []


# float entries either side of 1, subnormal ones whose products with a scale
# below 1 round to 0, and large ones
_FLOAT_ENTRIES = st.one_of(
    st.floats(min_value=-40, max_value=40).filter(lambda v: abs(v) > 1e-3),
    st.sampled_from([5e-324, -1e-310, 3e-200, -2e150]))
_FLOAT_ROWS = st.dictionaries(st.integers(0, 5), _FLOAT_ENTRIES, min_size=1, max_size=4)


def _float_cone_query(c: dict, u: dict, share: int, p: NormTag, kind: str, lam0: float,
                      offset: float):
    """(C, x) for the float check at the scale: x = u ("free"), x on the
    boundary, lam0 (c + u') with ||u'|| = r ("boundary"), or x with a gap
    at the scale a few TOL_EQ or less from the bound ("near").  Under p1
    "near" adds a row of x off both supports, which leaves the scale as it
    is, and sets the gap there to offset; under pinf every row of u' is
    +-r (1 - delta) with lam0 r delta = -offset, so the interval of scales
    is a few offsets wide."""
    def vec(entries):
        return SeqVector.from_entries(IndexSet.INTEGERS, entries, Mode.FLOAT64)

    def size(v: dict) -> float:
        return sum(map(abs, v.values())) if p is NormTag.P1 else max(map(abs, v.values()))

    r = size(c) * share / 20
    assume(r > 0 and norm_gt(vec(c), p, r))
    C = OpenCone(vec(c), r, p)
    if kind == "boundary" or (kind == "near" and p is NormTag.PINF):
        rho = r if kind == "boundary" else r + offset / lam0
        if kind == "near":
            u = {i: math.copysign(1.0, v) for i, v in u.items()}
        unit = rho / size(u)
        x = {i: lam0 * (c.get(i, 0.0) + unit * u.get(i, 0.0)) for i in c.keys() | u.keys()}
    else:
        x = dict(u)
    x = {i: v for i, v in x.items() if v}
    assume(x and all(map(math.isfinite, x.values())))
    if kind == "near" and p is NormTag.P1:
        lam = spaces._p1_scale(_rows(vec(x), C.center), r, Mode.FLOAT64)
        assume(lam is not None)
        extra = lam * r - dist(vec(x), C.center.scale(lam), p) + offset
        assume(extra > 0)
        x[9] = extra
    return C, vec(x)


@settings(max_examples=400, deadline=None)
@given(_FLOAT_ROWS, _FLOAT_ROWS, st.integers(1, 19), st.sampled_from([NormTag.P1, NormTag.PINF]),
       st.sampled_from(["free", "boundary", "near"]), st.floats(min_value=0.01, max_value=50),
       st.sampled_from([5e-10, -5e-10, 2e-9, -2e-9, 0.0]))
@example({0: 2.0, 1: 5e-324}, {0: 0.5}, 10, NormTag.P1, "free", 1.0, 0.0)  # c_1 lam rounds to 0
@example({0: 2.0, 1: 5e-324}, {0: 0.5, 1: 0.3}, 10, NormTag.PINF, "free", 1.0, 0.0)
@example({3: -1.5}, {3: -2.0}, 10, NormTag.P1, "free", 1.0, 0.0)  # one row
@example({3: -1.5}, {3: 2.0}, 10, NormTag.PINF, "boundary", 0.75, 0.0)
@example({0: 2.0, 1: 1.0}, {4: 1.0, 5: -2.0}, 10, NormTag.P1, "free", 1.0, 0.0)  # disjoint
@example({0: 2.0, 1: 1.0}, {4: 1.0}, 2, NormTag.PINF, "free", 1.0, 0.0)
@example({0: 2.0, 1: 1.0}, {0: 1.0, 1: -1.0}, 10, NormTag.P1, "near", 1.0, -5e-10)
@example({0: 2.0, 1: 1.0}, {0: 1.0, 1: -1.0}, 10, NormTag.P1, "near", 1.0, -2e-9)
def test_float_cone_check_at_the_scale_matches_the_distance_walk(c, u, share, p, kind, lam0,
                                                                 offset):
    # the reference is the check the row pass replaced: lam c built by
    # scale and the distance walk, at the scale the search returns
    C, xv = _float_cone_query(c, u, share, p, kind, lam0, offset)
    scale = spaces._p1_scale if p is NormTag.P1 else spaces._pinf_scale
    lam = scale(_rows(xv, C.center), C.radius_value(), Mode.FLOAT64)
    want = lam is not None and dist_lt(xv, C.center.scale(lam), p, lam * C.radius_value())
    assert cone_contains(C, xv) is want


def _float_pair(pair):
    a, b = pair
    return a.mode is b.mode is Mode.FLOAT64 and a.index_set is b.index_set


@settings(max_examples=400, deadline=None)
@given(vector_pairs().filter(_float_pair), st.sampled_from(list(NormTag)),
       st.floats(min_value=0, max_value=300),
       st.sampled_from([None, 0.0, 5e-10, -5e-10, 2e-9, -2e-9]))
@example((SeqVector.from_entries(IndexSet.INTEGERS, {-1: Fraction(122, 49), 0: Fraction(1048, 39),
                                                     2: Fraction(-673, 20)}, Mode.FLOAT64),
          SeqVector.zero(IndexSet.INTEGERS, Mode.FLOAT64)), NormTag.P2, 1.0, None)
def test_float_distances_match_a_reference_built_entry_by_entry(pair, p, drawn, offset):
    # the reference shares no code with the distance walk: it reads each
    # entry, subtracts and squares the modulus here, in index order; the
    # example's sum of squares rounds differently in any other order
    a, b = pair
    squares = []
    for j in sorted(set(a.support) | set(b.support)):
        z = a.entry(j) - b.entry(j)
        squares.append(z.real * z.real + z.imag * z.imag)
    ref = {NormTag.P2: math.sqrt(sum(squares, 0.0)),
           NormTag.PINF: math.sqrt(max(squares, default=0.0)),
           NormTag.P1: sum((math.sqrt(t) for t in squares), 0.0)}[p]
    got = dist(a, b, p)
    assert type(got) is float and got == ref
    bound = drawn if offset is None else ref + offset
    lt, gt = ref < bound - 1e-9, ref > bound + 1e-9
    assert dist_lt(a, b, p, bound) is lt
    assert dist_and_lt(a, b, p, bound) == (ref, lt)
    assert norm_lt(a - b, p, bound) is lt and norm_gt(a - b, p, bound) is gt


# -- norm read off a vector's own entries ------------------------------------------


def _walk_norm(v, p):
    """The oracle: the distance walk against the origin, as norm ran it
    before it read the entries itself."""
    return dist(v, SeqVector.zero(v.index_set, v.mode), p)


def _walk_cmps(v, p, bound):
    """The oracle: (norm_lt, norm_gt) as they were composed before they read
    the entries too, from the distance walk against the origin."""
    zero = SeqVector.zero(v.index_set, v.mode)
    gt = spaces._walk_cmp(spaces._real_dist(v, zero, p), p, v.mode, bound) > 0
    return dist_lt(v, zero, p, bound), gt


def _bounds_at(value, mode):
    """value, and bounds just below and just above it, in the mode's carrier:
    the next doubles and a 2 TOL_EQ gap in float mode, 10^-40 in exact mode."""
    if mode is Mode.FLOAT64:
        return [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf),
                value - 2 * TOL_EQ, value + 2 * TOL_EQ]
    q, tiny = Fraction(value), Fraction(1, 10 ** 40)
    return [value, q - tiny, q + tiny]


def _assert_norm_is_the_walks(v):
    for p in NormTag:
        got, ref = norm(v, p), _walk_norm(v, p)
        assert type(got) is type(ref) and repr(got) == repr(ref), (v, p)
        if got == math.inf:  # an irrational norm past double range: no bound holds it
            continue
        for b in _bounds_at(got, v.mode):
            assert (norm_lt(v, p, b), norm_gt(v, p, b)) == _walk_cmps(v, p, b), (v, p, b)


# the float sum of squares of the "out-of-index-order" entries, and the
# float p1 sum of the "complex-out-of-index-order" ones, round differently
# in the order written than in index order
NORM_CASES = {
    "zero": {},
    "one-real": {3: Fraction(-5, 7)},
    "one-square-modulus": {2: (3, 4)},
    "one-irrational-modulus": {0: (1, 1)},
    "out-of-index-order": {5: Fraction(-673, 20), 1: Fraction(122, 49), 3: Fraction(1048, 39)},
    "complex-out-of-index-order": {3: Fraction(122, 49), 2: Fraction(-5, 7), 1: (1, 1),
                                   0: (Fraction(-2, 3), Fraction(1, 5))},
    "past-double-range": {4: 10 ** 400, 1: (10 ** 400, 1), 0: Fraction(1, 10 ** 400)},
    "one-past-double-range": {1: (10 ** 400, 1)},  # its irrational modulus is inf
}


@pytest.mark.parametrize("case, mode", [
    (case, mode) for case in sorted(NORM_CASES) for mode in Mode
    if "past-double-range" not in case or mode is Mode.EXACT])  # a double cannot hold those
def test_norm_of_each_kind_of_vector_is_the_walks(case, mode):
    for index_set in IndexSet:
        raw = NORM_CASES[case]
        v = SeqVector(index_set, {i: make_scalar(x, mode) for i, x in raw.items()}, mode)
        assert list(v._entries) == list(raw)  # the dict keeps the order written
        _assert_norm_is_the_walks(v)


NORM_ENTRIES = [3, Fraction(-5, 7), (3, 4), (1, 1), (Fraction(-2, 3), Fraction(1, 5)),
                Fraction(122, 49), Fraction(1048, 39), Fraction(-673, 20), 10 ** 200,
                Fraction(1, 10 ** 200)]
EXACT_ONLY_ENTRIES = [10 ** 400, (10 ** 400, 1), Fraction(1, 10 ** 400)]


@st.composite
def vectors_in_any_order(draw):
    """A vector of either mode over either index set whose dict holds its
    entries in a drawn order rather than index order."""
    mode = draw(st.sampled_from(list(Mode)))
    index_set = draw(st.sampled_from(list(IndexSet)))
    lo = 0 if index_set is IndexSet.NATURALS else -6
    pool = NORM_ENTRIES + (EXACT_ONLY_ENTRIES if mode is Mode.EXACT else [])
    indices = draw(st.lists(st.integers(lo, 6), unique=True, max_size=5))
    return SeqVector(index_set, {i: make_scalar(draw(st.sampled_from(pool)), mode)
                                 for i in indices}, mode)


@settings(max_examples=400, deadline=None)
@given(vectors_in_any_order())
def test_norm_matches_the_walk_against_the_origin(v):
    _assert_norm_is_the_walks(v)
