import cmath
import contextlib
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import (
    Band,
    Block,
    Constant,
    IndexSet,
    NormTag,
    Periodic,
    PiecewiseTwoSided,
    SeqVector,
    Shape,
    ShiftOperator,
    Table,
    apply_power,
    iterate,
    norm,
    prop32_operator,
    riesz_blocks,
    shift_from_jsonable,
    spectral_radius,
)
from orbitscope.errors import (
    ConfigError,
    IndecisiveSpectrum,
    IndexSetMismatch,
    NumericOverflow,
)
from orbitscope import operators
from orbitscope.numeric import QC, Mode, log2_abs, phase_of

from conftest import nfold_apply, outside_domain, random_shift, reference_apply, \
    reference_path_product, reference_path_source, reference_target, shift_operators, vector_for


def ei(i, c=1):
    return SeqVector.basis(IndexSet.INTEGERS, i, c)


def en(i, c=1):
    return SeqVector.basis(IndexSet.NATURALS, i, c)


def one_step(T, v):
    """The program's own single step of T: the one step of iterate."""
    return list(iterate(T, v, 1))[1]


class TestApply:
    def test_prop32_weight_one_zone(self):
        # weights are 1 at indices <= 0, so e_0 moves to e_{-1} unscaled
        assert one_step(prop32_operator(), ei(0)) == ei(-1)

    def test_prop32_weight_two_zone(self):
        assert one_step(prop32_operator(), ei(1)) == ei(0, 2)

    def test_unilateral_annihilates_bottom(self):
        T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(5))
        assert one_step(T, en(0)).is_zero

    def test_forward_shift(self):
        T = ShiftOperator(Shape.BILATERAL_FORWARD, IndexSet.INTEGERS, Constant(3))
        assert one_step(T, ei(2)) == ei(3, 3)

    def test_diagonal(self):
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Table({0: 7}, 2))
        assert one_step(T, ei(0) + ei(1)) == ei(0, 7) + ei(1, 2)

    def test_index_mismatch(self):
        with pytest.raises(IndexSetMismatch):
            one_step(prop32_operator(), en(0))

    def test_linearity_exact(self):
        rng = random.Random(5)
        for _ in range(50):
            T = random_shift(rng)
            u = vector_for(rng, T)
            v = vector_for(rng, T)
            a, b = Fraction(3, 7), Fraction(-5, 2)
            lhs = one_step(T, u.scale(a) + v.scale(b))
            rhs = one_step(T, u).scale(a) + one_step(T, v).scale(b)
            assert lhs == rhs


# real and complex weights, plus one past double range (its float shadow
# overflows), one whose float products overflow and one whose underflow
STEP_WEIGHTS = [2, Fraction(1, 3), Fraction(-7, 5), (1, 1), (0, Fraction(1, 2)),
                (Fraction(3, 4), -2), 2 ** 1100, 2 ** 700, Fraction(1, 2 ** 600),
                (0, Fraction(-1, 2 ** 600))]
STEP_ENTRIES = [1, Fraction(-5, 3), Fraction(7, 2), (2, -1), (0, Fraction(1, 3)),
                10 ** 300, Fraction(1, 10 ** 300)]


@st.composite
def step_cases(draw):
    """(T, x, K): every shape, x over T's index set or the other one."""
    T = draw(shift_operators(STEP_WEIGHTS))
    index_set = T.index_set
    if draw(st.integers(0, 9)) == 0:  # a mismatched index set
        index_set = IndexSet.NATURALS if index_set is IndexSet.INTEGERS else IndexSet.INTEGERS
    lo = 0 if index_set is IndexSet.NATURALS else -8
    raw = draw(st.dictionaries(st.integers(lo, 13), st.sampled_from(STEP_ENTRIES), max_size=5))
    x = SeqVector.from_entries(index_set, raw, draw(st.sampled_from(list(Mode))))
    return T, x, draw(st.integers(-1, 12))


def _orbit_run(points):
    """The points a scan reads, and the error type that ends it early."""
    out = []
    try:
        for v in points:
            out.append(v)
    except (IndexSetMismatch, NumericOverflow) as exc:
        return out, type(exc)
    return out, None


def _reference_orbit(T, x, K):
    if K >= 0:
        yield x
    for _ in range(K):
        x = reference_apply(T, x)
        yield x


@settings(max_examples=400, deadline=None)
@given(case=step_cases())
def test_iterate_matches_reference_steps(case):
    T, x, K = case
    got, got_error = _orbit_run(iterate(T, x, K))
    if outside_domain(T, x):  # refused before the first point, at every K
        assert (got, got_error) == ([], IndexSetMismatch)
        return
    want, want_error = _orbit_run(_reference_orbit(T, x, K))
    assert got_error is want_error
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b
        assert a.mode is b.mode and a.index_set is b.index_set
        assert [(i, repr(v)) for i, v in a.items()] == [(i, repr(v)) for i, v in b.items()]


@pytest.mark.parametrize("T, x, error", [
    (prop32_operator(), en(0), IndexSetMismatch),
    (ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
                   blocks=(Block(Band(0, 3), "backward", Constant(2)),)), ei(1) + ei(5),
     IndexSetMismatch),
    (ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(2 ** 1100)),
     SeqVector.basis(IndexSet.INTEGERS, 0, mode=Mode.FLOAT64), NumericOverflow),
], ids=["index-set", "no-band", "weight-past-double-range"])
def test_iterate_raises_on_the_first_step(T, x, error):
    # x outside T's domain is refused before the first point, at every
    # horizon; a weight past double range is met on the first step
    outside = error is IndexSetMismatch
    points = iterate(T, x, 3)
    if not outside:
        assert next(points) is x
    with pytest.raises(error):
        next(points)
    with pytest.raises(error) if outside else contextlib.nullcontext():
        assert list(iterate(T, x, 0)) == [x]


def test_float_iterate_rounds_each_weight_once(monkeypatch):
    # two blocks with three weights between them, six sources, 200 steps
    T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
        Block(Band(None, -1), "forward", Constant(Fraction(1, 3))),
        Block(Band(0, None), "backward", Periodic((2, Fraction(-5, 7))))))
    x = SeqVector.from_entries(IndexSet.INTEGERS, {i: 1 for i in (-300, -9, -1, 0, 4, 250)},
                               Mode.FLOAT64)
    rounded = []
    to_complex = QC.to_complex
    monkeypatch.setattr(QC, "to_complex", lambda self: rounded.append(self) or to_complex(self))
    points = list(iterate(T, x, 200))
    assert len(rounded) == 3
    monkeypatch.undo()
    assert points == list(_reference_orbit(T, x, 200))


def test_float_weight_past_double_range_raises_where_it_is_met():
    # the weight at 5 is met by the source at 9 on its fifth step
    T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                      Table({5: 2 ** 1100}, Fraction(1, 2)))
    x = SeqVector.basis(IndexSet.INTEGERS, 9, mode=Mode.FLOAT64)
    got, error = _orbit_run(iterate(T, x, 12))
    assert error is NumericOverflow
    assert [v.support for v in got] == [[9], [8], [7], [6], [5]]
    assert (got, error) == _orbit_run(_reference_orbit(T, x, 12))


@pytest.mark.parametrize("weight", [2 ** 1100, (2 ** 1100, 1), (-1, -(2 ** 1100))],
                         ids=["real", "complex", "imaginary-part"])
@pytest.mark.parametrize("coeff", [1, (0, 1), (-2, 3)], ids=["real", "imaginary", "complex"])
def test_float_weight_past_double_range_overflows_whatever_the_phases(weight, coeff):
    # such a weight steps as an infinite one: its product with any non-zero
    # entry is not finite, so the one finiteness check raises, at that step
    T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                      Table({5: weight}, Fraction(1, 2)))
    x = SeqVector.basis(IndexSet.INTEGERS, 9, coeff, mode=Mode.FLOAT64)
    got, error = _orbit_run(iterate(T, x, 12))
    assert [v.support for v in got] == [[9], [8], [7], [6], [5]]
    assert (got, error) == _orbit_run(_reference_orbit(T, x, 12))
    with pytest.raises(NumericOverflow, match="^single-step application overflowed$"):
        list(iterate(T, x, 12))


def test_iterate_drops_float_underflow():
    T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Table({0: Fraction(1, 2 ** 600)}, 1))
    x = SeqVector.from_entries(IndexSet.INTEGERS, {0: Fraction(1, 10 ** 300), 1: 1},
                               Mode.FLOAT64)
    _, step = iterate(T, x, 1)
    assert step.support == [1] and step.mode is Mode.FLOAT64


@pytest.mark.parametrize("mode", list(Mode))
def test_a_dead_orbit_is_not_stepped(monkeypatch, mode):
    # e_3 under a unilateral backward shift reaches e_0 at n = 3 and has
    # left N at n = 4; every later point is one shared zero vector, built
    # with no weight multiply and no weight lookup
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                      Table({1: Fraction(3, 5), 2: (1, 1)}, Fraction(7, 5)))
    x = SeqVector.basis(IndexSet.NATURALS, 3, mode=mode)
    want = list(_reference_orbit(T, x, 40))
    work = {"lookups": 0, "multiplies": 0}

    def count(key, result):
        work[key] += 1
        return result

    class CountedWeight(complex):
        def __mul__(self, other):
            return count("multiplies", complex.__mul__(self, other))

    index_at, built, to_complex = Table._index_at, operators._qc, QC.to_complex
    monkeypatch.setattr(Table, "_index_at", lambda self, j: count("lookups", index_at(self, j)))
    # an exact multiply builds one QC from its ints; a float one is made
    # by a weight rounded with to_complex
    monkeypatch.setattr(operators, "_qc", lambda a, b, d: count("multiplies", built(a, b, d)))
    monkeypatch.setattr(QC, "to_complex", lambda self: CountedWeight(to_complex(self)))
    points = iterate(T, x, 40)
    head = [next(points) for _ in range(5)]
    assert [v.support for v in head] == [[3], [2], [1], [0], []]
    assert work == {"lookups": 3, "multiplies": 3}
    tail = list(points)
    assert work == {"lookups": 3, "multiplies": 3}
    assert len(tail) == 36 and all(v is head[4] for v in tail)
    monkeypatch.undo()
    assert head + tail == want


@settings(max_examples=300, deadline=None)
@given(T=shift_operators([2, Fraction(1, 3), Fraction(-7, 5), (1, 1), (0, Fraction(1, 2))]),
       s=st.integers(-12, 16))
def test_a_lane_follows_reference_steps(T, s):
    # s ranges over every band of every shape, the gaps between block
    # bands and, over N, indices outside it; each finite life ends within
    # 30 steps there, so a source that survives 30 steps never leaves
    lane = operators._lane_into(T, s, 0)
    comp = T.component_for(s)
    if comp is None:
        assert lane is None
        return
    step = {"backward": -1, "forward": 1, "diagonal": 0}[comp[0]]
    assert (lane.s, lane.step) == (s, step)
    path, products = [s], [QC(1)]  # the row and the product at each time
    while len(path) <= 30:
        t, rule = reference_target(T, path[-1])
        if t is None:
            break
        products.append(products[-1] * rule.weight_at(path[-1]))
        path.append(t)
    survived = len(path) - 1
    assert lane.life == (survived if survived < 30 else math.inf)
    for j in range(s - 30, s + 31):  # rows met, rows behind s and rows past the band
        assert lane.meets(j) == (path.index(j) if step and j in path else None)
    for n, w in enumerate(products):
        assert lane.product(n) == w
        lg, ph = lane.product_log2(n)
        assert math.isclose(lg, log2_abs(w), abs_tol=1e-9)
        assert cmath.isclose(ph, phase_of(w), abs_tol=1e-9)
    for n in range(31):  # s as a row: the lane whose source sits there at n
        into = operators._lane_into(T, s, n)
        assert (None if into is None else into.s) == reference_path_source(T, s, n)
        if into is not None:
            assert into.life >= n and into.s + into.step * n == s


@pytest.mark.parametrize("mode", list(Mode))
def test_a_scan_looks_up_only_the_weights_it_steps_over(monkeypatch, mode):
    # prop21's instance, scanned to 1000 but read for 30 steps: each of its
    # six sources looks up one weight per step taken, not its whole path
    from orbitscope.certificates import _prop21_instance
    T, x, _ = _prop21_instance({"visit_times": (30, 300, 1000)}, mode)
    lookups = []
    index_at = Constant._index_at
    monkeypatch.setattr(Constant, "_index_at",
                        lambda self, j: lookups.append(j) or index_at(self, j))
    points = list(islice(iterate(T, x, 1000), 31))
    assert len(points) == 31 and len(x) == 6
    assert len(lookups) <= 30 * len(x)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_diagonal_lane_looks_up_its_one_weight_once(monkeypatch, mode):
    # a diagonal source never leaves its row: three sources stepped 60
    # times look up three weights, and the points are the reference steps
    T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS,
                      Periodic([Fraction(3, 2), (0, Fraction(2, 3)), Fraction(-5, 4)]))
    x = SeqVector.from_entries(IndexSet.INTEGERS, {-3: Fraction(3, 7), 0: (1, -2), 4: 5}, mode)
    lookups = []
    index_at = Periodic._index_at
    monkeypatch.setattr(Periodic, "_index_at",
                        lambda self, j: lookups.append(j) or index_at(self, j))
    points = list(iterate(T, x, 60))
    assert sorted(lookups) == [-3, 0, 4]
    monkeypatch.undo()
    assert points == list(_reference_orbit(T, x, 60))


class TestApplyPower:
    def test_identity_power(self):
        v = ei(2, 5) + ei(-1, 3)
        assert apply_power(prop32_operator(), 0, v) == v

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n", [0, 7])
    def test_a_source_in_no_band_raises_at_every_power(self, mode, n):
        # bands [0, 4], [5, 9], [11, inf) of N leave out 10: apply_power
        # returned x at n = 0, where a step and a search's row table raise
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.NATURALS, blocks=(
            Block(Band(0, 4), "backward", Constant(2)),
            Block(Band(5, 9), "forward", Constant(3)),
            Block(Band(11, None), "diagonal", Constant(Fraction(1, 2)))))
        x = SeqVector.from_entries(IndexSet.NATURALS, {0: 1, 10: 1}, mode)
        with pytest.raises(IndexSetMismatch, match="index 10 lies in no band"):
            one_step(T, x)
        with pytest.raises(IndexSetMismatch, match="index 10 lies in no band"):
            apply_power(T, n, x)

    def test_a_source_in_no_band_raises_before_an_overflowing_landing(self):
        # the landing of e_0 overflows in float mode; it raised NumericOverflow
        # before the source 10 was looked up
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(0, 4), "diagonal", Constant(2 ** 1000)),))
        x = SeqVector.from_entries(IndexSet.INTEGERS, {0: 1, 10: 1}, Mode.FLOAT64)
        with pytest.raises(NumericOverflow):
            apply_power(T, 1, SeqVector.basis(IndexSet.INTEGERS, 0, mode=Mode.FLOAT64))
        with pytest.raises(IndexSetMismatch, match="index 10 lies in no band"):
            apply_power(T, 1, x)

    def test_prop32_base_orbit_is_flat(self):
        T = prop32_operator()
        for n in (1, 5, 50, 500):
            v = apply_power(T, n, ei(0))
            assert v == ei(-n)
            assert norm(v, NormTag.PINF) == 1

    def test_prop32_doubling_path(self):
        T = prop32_operator()
        for n in (1, 3, 8):
            assert apply_power(T, n, ei(n)) == ei(0, 2 ** n)
            assert apply_power(T, n, ei(n)) == nfold_apply(T, n, ei(n))

    def test_oracle_equivalence_500_random(self):
        rng = random.Random(42)
        for _ in range(500):
            T = random_shift(rng)
            v = vector_for(rng, T)
            n = rng.randint(0, 30)
            assert apply_power(T, n, v) == nfold_apply(T, n, v)

    def test_semigroup_exact(self):
        rng = random.Random(99)
        for _ in range(60):
            T = random_shift(rng)
            v = vector_for(rng, T)
            m, n = rng.randint(0, 50), rng.randint(0, 50)
            assert apply_power(T, m + n, v) == apply_power(T, m, apply_power(T, n, v))

    def test_semigroup_float_relative(self):
        rng = random.Random(3)
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          Constant(Fraction(3, 2)))
        v = SeqVector.from_entries(IndexSet.INTEGERS, {0: 1.0, 4: -2.5},
                                   mode=Mode.FLOAT64)
        for _ in range(20):
            m, n = rng.randint(0, 50), rng.randint(0, 50)
            a = apply_power(T, m + n, v)
            b = apply_power(T, m, apply_power(T, n, v))
            for i in set(a.support) | set(b.support):
                x, y = a.entry(i), b.entry(i)
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1.0)

    def test_float_overflow_policy(self):
        T = prop32_operator()
        with pytest.raises(NumericOverflow):
            apply_power(T, 1000, SeqVector.basis(IndexSet.INTEGERS, 1000,
                                                 mode=Mode.FLOAT64))
        # the entry is small enough that only the product itself is too large
        with pytest.raises(NumericOverflow, match=r"weight product magnitude 2\^950\.0 "
                                                  "exceeds policy"):
            apply_power(T, 950, SeqVector.basis(IndexSet.INTEGERS, 950, 2.0 ** -100,
                                                mode=Mode.FLOAT64))
        # exact mode has no overflow
        big = apply_power(prop32_operator(), 1000, ei(1000))
        assert big == ei(0, Fraction(2) ** 1000)


class TestWeightProduct:
    # the program's path product is the entry apply_power(T, n, e_s) puts
    # at row j, read against the independent reference_path_product
    def test_prop32_path_product(self):
        T = prop32_operator()
        wp = apply_power(T, 5, ei(5)).entry(0)
        assert wp == reference_path_product(T, 0, 5) == QC(32)
        # oracle: five applications of the operator to e_5
        assert nfold_apply(T, 5, ei(5)) == ei(0, 32)

    def test_empty_product(self):
        T = prop32_operator()
        wp = apply_power(T, 0, ei(3)).entry(3)
        assert wp == reference_path_product(T, 3, 0) == QC(1)

    def test_halving_product_with_oracle(self):
        T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                          Constant(Fraction(1, 2)))
        wp = apply_power(T, 10, en(10)).entry(0)
        assert wp == reference_path_product(T, 0, 10) == QC(Fraction(1, 1024))
        assert nfold_apply(T, 10, en(10)) == en(0, Fraction(1, 1024))

    def test_unilateral_exit_gives_zero(self):
        # e_0's path would have to exit N: no source reaches a row there
        T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2))
        assert apply_power(T, 1, en(0)).is_zero
        assert reference_path_product(T, -1, 1) == QC(0)

    def test_log_matches_exact(self):
        T = prop32_operator()
        wp = apply_power(T, 12, ei(12)).entry(0)
        assert wp == reference_path_product(T, 0, 12)
        assert log2_abs(wp) == 12.0

    def test_periodic_product(self):
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          Periodic((2, 3, 5)))
        v = nfold_apply(T, 9, ei(9))
        wp = apply_power(T, 9, ei(9)).entry(0)
        assert wp == reference_path_product(T, 0, 9)
        assert v == ei(0, wp)


@pytest.mark.parametrize("w, sign", [(Fraction(1, 2), -1), (-1, 0), ((0, 1), 0),
                                     ((Fraction(3, 5), Fraction(4, 5)), 0), (-3, 1)])
def test_spectral_radius_of_a_constant_shift(w, sign):
    # r(T) = |w| for the unilateral shift with constant weight w (Shields 1974)
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(w))
    got_sign, r = spectral_radius(T)
    assert got_sign == sign
    assert math.isclose(r, abs(complex(*w)) if isinstance(w, tuple) else abs(w),
                        rel_tol=1e-12)


class TestBlocks:
    def two_band(self):
        return ShiftOperator(
            Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
            blocks=(Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
                    Block(Band(None, -1), "backward", Constant(2))))

    def test_apply_commutes_with_band_projection(self):
        T = self.two_band()
        split = riesz_blocks(T).splitter
        v = SeqVector.from_entries(IndexSet.INTEGERS, {3: 1, -4: 2, 0: -1})
        v1, v2 = split.split(v)
        w1, w2 = split.split(one_step(T, v))
        assert one_step(T, v1) == w1
        assert one_step(T, v2) == w2

    def test_riesz_two_band_partition(self):
        rs = riesz_blocks(self.two_band())
        assert len(rs.contracting.blocks) == 1
        assert len(rs.expanding.blocks) == 1
        assert rs.contracting.blocks[0].band == Band(0, None)

    def test_riesz_single_expanding_block(self):
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
                          blocks=(Block(Band(None, None), "backward", Constant(2)),))
        rs = riesz_blocks(T)
        assert rs.contracting.blocks == ()
        assert len(rs.expanding.blocks) == 1

    def test_riesz_indecisive_on_unit_weight(self):
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
                          blocks=(Block(Band(None, None), "backward", Constant(1)),))
        with pytest.raises(IndecisiveSpectrum):
            riesz_blocks(T)

    @pytest.mark.parametrize("override", [10 ** 6, 10 ** 20, 10 ** 30])
    def test_table_override_never_moves_the_radius(self, override):
        # only finitely many weights differ from 1/2, so the radius is 1/2
        # however large the one override is
        T = ShiftOperator(
            Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
            blocks=(Block(Band(0, None), "backward", Table({5: override}, Fraction(1, 2))),
                    Block(Band(None, -1), "backward", Constant(2))))
        rs = riesz_blocks(T)
        assert [b.band for b in rs.contracting.blocks] == [Band(0, None)]
        assert [b.band for b in rs.expanding.blocks] == [Band(None, -1)]
        assert rs.estimates == (("band[0,None]", 0.5), ("band[None,-1]", 2.0))

    def test_band_overlap_rejected(self):
        with pytest.raises(ConfigError):
            ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
                          blocks=(Block(Band(0, None), "backward", Constant(2)),
                                  Block(Band(-5, 5), "backward", Constant(3))))


# weights whose |w|^2 multiply to exactly 1 in many ways: 2 and 1/2, 1+i
# and (1+i)/2, units on the axes and off them
RADIUS_WEIGHTS = [1, -1, 2, Fraction(1, 2), -3, Fraction(1, 3), (0, 1),
                  (Fraction(3, 5), Fraction(4, 5)), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
OVERRIDES = RADIUS_WEIGHTS + [10 ** 30, Fraction(1, 10 ** 30), -10 ** 20, (10 ** 30, 1)]


@st.composite
def radius_cases(draw):
    """(rule, period, far, band, kind): every weight at |j| >= far repeats
    with the period, and the band is finite, one-sided or two-sided."""
    w = st.sampled_from(RADIUS_WEIGHTS)
    kind = draw(st.sampled_from(["constant", "piecewise", "periodic", "table"]))
    if kind == "constant":
        rule, period, far = Constant(draw(w)), 1, 0
    elif kind == "piecewise":
        rule, period, far = PiecewiseTwoSided(draw(w), draw(w)), 1, 1
    elif kind == "periodic":
        values = tuple(draw(st.lists(w, min_size=1, max_size=4)))
        rule, period, far = Periodic(values), len(values), 0
    else:
        entries = draw(st.dictionaries(st.integers(-12, 12), st.sampled_from(OVERRIDES),
                                       max_size=4))
        rule, period = Table(entries, draw(w)), 1
        far = max(map(abs, entries), default=-1) + 1
    lo = draw(st.none() | st.integers(-15, 15))
    hi = draw(st.none() | st.integers(-15 if lo is None else lo, 20))
    return rule, period, far, Band(lo, hi), draw(st.sampled_from(["backward", "forward",
                                                                  "diagonal"]))


def _log2_fraction(q):
    return math.log2(q.numerator) - math.log2(q.denominator)


def _radius_oracle(rule, period, far, band, kind, m):
    """(sign of r - 1, r) from weight_at alone, in the test's own Fractions."""
    def a2(j):
        return rule.weight_at(j).abs2()

    if kind == "diagonal":
        # every distinct weight the band meets lies within one period past far
        lo = band.lo if band.lo is not None else \
            min(-far, band.hi if band.hi is not None else -far) - period
        hi = band.hi if band.hi is not None else max(far, lo) + period
        top = max(a2(j) for j in range(lo, hi + 1))
        return (top > 1) - (top < 1), math.sqrt(top)
    ends = []
    if band.hi is None:  # m whole periods past every override toward +inf
        start = far if band.lo is None else max(far, band.lo)
        ends.append(range(start, start + m * period))
    if band.lo is None:
        stop = -far if band.hi is None else min(-far, band.hi)
        ends.append(range(stop - m * period + 1, stop + 1))
    if not ends:
        return -1, 0.0  # a shift on a finite band is nilpotent
    products = [math.prod(a2(j) for j in js) for js in ends]
    return (max((p > 1) - (p < 1) for p in products),
            max(2.0 ** (_log2_fraction(p) / (2 * m * period)) for p in products))


@settings(max_examples=400, deadline=None)
@given(case=radius_cases(), m=st.integers(1, 3))
def test_block_radius_matches_the_weight_oracle(case, m):
    rule, period, far, band, kind = case
    sign, r = _radius_oracle(rule, period, far, band, kind, m)
    block = Block(band, kind, rule)
    T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(block,))
    if sign == 0:
        with pytest.raises(IndecisiveSpectrum):
            riesz_blocks(T)
        return
    rs = riesz_blocks(T)
    assert (rs.contracting if sign < 0 else rs.expanding).blocks == (block,)
    assert (rs.expanding if sign < 0 else rs.contracting).blocks == ()
    (name, estimate), = rs.estimates
    assert name == f"band[{band.lo},{band.hi}]"
    assert math.isclose(estimate, r, rel_tol=1e-9)


# every rule kind, with negative and complex weights
RULES = {
    "constant": lambda: Constant("-3/2"),
    "constant-complex": lambda: Constant((1, 2)),
    "piecewise": lambda: PiecewiseTwoSided("-2", (3, "-1/4")),
    "periodic": lambda: Periodic((3, "-1/2", (1, 2))),
    "table": lambda: Table({-2: "-5", 3: (1, -1), 4: "2/7"}, "-7/3"),
}


def stored(rule):
    """(weight, stored log2, stored phase) for each weight a rule holds."""
    return list(zip(rule.weight_values(), rule._log2, rule._phase))


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("name", sorted(RULES))
class TestStoredWeights:
    def test_stored_log2_and_phase_bit_for_bit(self, name):
        rule = RULES[name]()
        for w, lg, ph in stored(rule):
            assert lg.hex() == log2_abs(w).hex()
            assert bits(ph) == bits(phase_of(w))

    def test_product_log2_matches_term_by_term(self, name):
        rule = RULES[name]()
        # (-5, -3) spans one full period of "periodic"; "table" overrides
        # sit at -2, 3 and 4, so (-2, 3), (3, 9), (-6, 4) and (4, 4) start
        # or end on one
        for lo, hi in [(0, -1), (1, 1), (-7, 20), (-3, 4), (2, 9), (-40, -30),
                       (-5, -3), (7, 12), (-2, 3), (3, 9), (-6, 4), (4, 4)]:
            lg, ph = rule.product_log2(lo, hi)
            ref_lg, ref_ph, ref_exact = 0.0, complex(1.0, 0.0), QC(Fraction(1))
            for j in range(lo, hi + 1):
                ref_lg += log2_abs(rule.weight_at(j))
                ref_ph *= phase_of(rule.weight_at(j))
                ref_exact = ref_exact * rule.weight_at(j)
            assert math.isclose(lg, ref_lg, rel_tol=1e-12, abs_tol=1e-12)
            assert abs(ph - ref_ph) < 1e-9
            assert rule.product_exact(lo, hi) == ref_exact
            assert math.isclose(lg, log2_abs(rule.product_exact(lo, hi)),
                                rel_tol=1e-12, abs_tol=1e-12)
            assert sum(rule._counts(lo, hi)) == max(0, hi - lo + 1)

    def test_equality_hash_repr_and_json(self, name):
        a, b = RULES[name](), RULES[name]()
        assert a == b and hash(a) == hash(b)
        assert "_log2" not in repr(a) and "_phase" not in repr(a)
        T1 = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, a)
        T2 = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, b)
        assert T1 == T2 and hash(T1) == hash(T2)
        assert "_components" not in repr(T1)
        assert T1.to_jsonable() == T2.to_jsonable()
        assert shift_from_jsonable(T1.to_jsonable()) == T1

    def test_components_built_once(self, name):
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
                          blocks=(Block(Band(0, None), "backward", RULES[name]()),
                                  Block(Band(None, -1), "forward", Constant(2))))
        assert T.components() is T.components()
        assert T.components() == (("backward", RULES[name](), Band(0, None)),
                                  ("forward", Constant(2), Band(None, -1)))


INF = math.inf


@pytest.mark.parametrize("name, expected", [
    ("constant", {(0, INF): [INF], (-INF, 0): [INF], (-INF, INF): [INF]}),
    ("piecewise", {(0, INF): [INF, 1], (-INF, 0): [0, INF], (5, INF): [INF, 0],
                   (-INF, -3): [0, INF], (-INF, INF): [INF, INF]}),
    ("periodic", {(0, INF): [INF] * 3, (-INF, 0): [INF] * 3, (-INF, INF): [INF] * 3}),
    ("table", {(0, INF): [0, 1, 1, INF], (-INF, 0): [1, 0, 0, INF],
               (4, INF): [0, 0, 1, INF], (-INF, INF): [1, 1, 1, INF]}),
])
def test_infinite_count_ends(name, expected):
    # overrides at -2, 3 and 4 count once; a weight that recurs toward an
    # open end counts math.inf exactly
    rule = RULES[name]()
    for (lo, hi), counts in expected.items():
        assert list(rule._counts(lo, hi)) == counts
        assert all(c == INF or type(c) is int for c in rule._counts(lo, hi))
    # finite ends still count each index once, empty intervals included
    for lo in range(-7, 8):
        for hi in range(lo - 2, 9):
            seen = [0] * len(rule.weight_values())
            for j in range(lo, hi + 1):
                seen[rule._index_at(j)] += 1
            assert list(rule._counts(lo, hi)) == seen


def test_stored_fields_leave_repr_and_json_unchanged():
    assert repr(Constant("-3/2")) == \
        "Constant(value=QC(re=Fraction(-3, 2), im=Fraction(0, 1)))"
    assert repr(PiecewiseTwoSided(2, 1)) == (
        "PiecewiseTwoSided(positive=QC(re=Fraction(2, 1), im=Fraction(0, 1)), "
        "nonpositive=QC(re=Fraction(1, 1), im=Fraction(0, 1)))")
    assert RULES["periodic"]().to_jsonable() == \
        {"kind": "periodic", "values": ["3", "-1/2", ["1", "2"]]}
    assert RULES["table"]().to_jsonable() == {
        "kind": "table", "entries": {"-2": "-5", "3": ["1", "-1"], "4": "2/7"},
        "default": "-7/3"}
    assert repr(prop32_operator()).startswith(
        "ShiftOperator(shape=<Shape.BILATERAL_BACKWARD: 'bilateral_backward'>")
    assert repr(prop32_operator()).endswith(", blocks=(), label='paper-prop32')")


HUGE = 10 ** 400  # past double range: 2^1328.8


class TestWeightsPastDoubleRange:
    """A weight is exact at any size; only its float shadow is limited."""

    @pytest.mark.parametrize("w, phase", [
        (HUGE, 1), (-HUGE, -1), (Fraction(-1, HUGE), -1),
        ((HUGE, HUGE), cmath.exp(1j * math.pi / 4)),
        ((Fraction(1, HUGE), Fraction(-1, HUGE)), cmath.exp(-1j * math.pi / 4)),
        ((3, 4 * HUGE), cmath.exp(1j * math.pi / 2)),
    ], ids=["huge", "huge-negative", "tiny-negative", "huge-complex",
            "tiny-complex", "huge-imaginary"])
    def test_constant_builds_with_exact_products(self, w, phase):
        rule = Constant(w)
        (ph,) = rule._phase
        assert abs(ph - phase) < 1e-15 and abs(abs(ph) - 1) < 1e-15
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, rule)
        wp = apply_power(T, 3, ei(3)).entry(0)
        re, im = (Fraction(w), Fraction(0)) if not isinstance(w, tuple) else map(Fraction, w)
        assert wp == reference_path_product(T, 0, 3) == QC(re, im) * QC(re, im) * QC(re, im)
        a2 = re * re + im * im  # |w|^2; log2 of big ints needs no float
        lg = 1.5 * (math.log2(a2.numerator) - math.log2(a2.denominator))
        assert math.isclose(log2_abs(wp), lg, rel_tol=1e-12)
        assert abs(phase_of(wp) - phase ** 3) < 1e-14

    def test_riesz_radius_saturates_at_infinity(self):
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
            Block(Band(None, -1), "backward", Constant(HUGE))))
        split = riesz_blocks(T)
        assert split.estimates == (("band[0,None]", 0.5), ("band[None,-1]", math.inf))
        assert [b.band for b in split.expanding.blocks] == [Band(None, -1)]

    def test_float_steps_raise_the_overflow_policy(self):
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(HUGE))
        v = SeqVector.basis(IndexSet.INTEGERS, 1, mode=Mode.FLOAT64)
        for step in (lambda: one_step(T, v), lambda: apply_power(T, 1, v)):
            with pytest.raises(NumericOverflow):
                step()
        assert one_step(T, ei(1)) == ei(0, HUGE)


@pytest.mark.parametrize("lo, hi", [("a", 3), (0.5, None), (True, None),
                                    (None, "3"), (0, Fraction(4))])
def test_band_rejects_non_integer_bounds(lo, hi):
    with pytest.raises(ConfigError):
        Band(lo, hi)


class TestConfig:
    def test_preset_prop32(self):
        T = shift_from_jsonable({"preset": "paper-prop32"})
        assert T.label == "paper-prop32"
        assert reference_apply(T, ei(1)) == ei(0, 2)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            shift_from_jsonable({"preset": "nope"})

    def test_roundtrip(self):
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          PiecewiseTwoSided(2, 1))
        back = shift_from_jsonable(T.to_jsonable())
        assert back.shape is T.shape
        assert reference_apply(back, ei(1)) == reference_apply(T, ei(1))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            shift_from_jsonable({"shape": "diagonal", "index_set": "Z",
                                 "weights": {"kind": "constant", "value": 2},
                                 "frobnicate": 1})

    def test_weights_must_be_nonzero(self):
        with pytest.raises(ConfigError):
            Constant(0)

    def test_unilateral_requires_naturals(self):
        with pytest.raises(ConfigError):
            ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(2))
