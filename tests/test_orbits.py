import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import (
    Band,
    Block,
    Constant,
    IndexSet,
    NormTag,
    Periodic,
    SeqVector,
    Shape,
    ShiftOperator,
    Table,
    apply,
    apply_power,
    coarse_orbit_contains,
    make_coarse_witness,
    norm,
    orbit,
    prop32_operator,
    rescale_coarse_witness,
)
from orbitscope import orbits
from orbitscope.certificates import _prop21_instance
from orbitscope.errors import IndexSetMismatch, OrbitscopeError, VerificationFailed
from orbitscope.numeric import Mode, real_value
from orbitscope.operators import meetings
from orbitscope.orbits import ball_counts
from orbitscope.spaces import dist, dist_lt

from conftest import nfold_apply, outside_domain, points_in_ball_scan, random_shift, \
    reference_apply, shift_operators, vector_for


def ei(i, c=1, mode=Mode.EXACT):
    return SeqVector.basis(IndexSet.INTEGERS, i, c, mode)


# positive, yet below the smallest double: exact mode takes it as it is, and
# float mode refuses it, since it rounds to 0.0
TINY = Fraction(1, 10 ** 400)


def en(i, c=1):
    return SeqVector.basis(IndexSet.NATURALS, i, c)


def doubling():
    return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2))


class TestOrbit:
    def test_prop32_base_drifts_left(self):
        trace = orbit(prop32_operator(), ei(0), 5, NormTag.PINF)
        assert [p.support for p in trace.points] == [[0], [-1], [-2], [-3], [-4], [-5]]
        assert all(n == 1 for n in trace.norms)

    def test_zero_horizon(self):
        x = ei(3, 7)
        trace = orbit(prop32_operator(), x, 0)
        assert trace.points == (x,)

    def test_doubling_orbit_matches_repeated_apply(self):
        expected = [en(3), en(2, 2), en(1, 4), en(0, 8),
                    SeqVector.zero(IndexSet.NATURALS)]
        trace = orbit(doubling(), en(3), 4)
        assert list(trace.points) == expected
        for n in range(5):
            assert trace.points[n] == nfold_apply(doubling(), n, en(3))

    @pytest.mark.parametrize("mode, factor", [
        (Mode.FLOAT64, 1 + 1e-6),
        (Mode.EXACT, 1 + Fraction(1, 10 ** 30)),
    ], ids=["float-off-by-1e-6", "exact-off-by-1e-30"])
    def test_spot_check_rejects_a_wrong_step(self, monkeypatch, mode, factor):
        def wrong_iterate(T, v, K):  # each step's point scaled by factor
            yield v
            for _ in range(K):
                v = apply(T, v).scale(factor)
                yield v

        monkeypatch.setattr(orbits, "iterate", wrong_iterate)
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(3))
        with pytest.raises(VerificationFailed):
            orbit(T, SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode), 8, spot_checks=8)

    def test_csv_shape(self):
        text = orbit(prop32_operator(), ei(0), 3, NormTag.PINF).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "n,norm,support_min,support_max,entries_json"
        assert len(lines) == 5
        assert lines[1].startswith("0,1.0,0,0")


TRACE_WEIGHTS = [2, Fraction(1, 3), Fraction(-7, 5), (1, 1), (0, Fraction(1, 2)),
                 (Fraction(3, 5), Fraction(4, 5))]
TRACE_ENTRIES = [1, Fraction(-5, 3), Fraction(7, 2), (2, -1), (0, Fraction(1, 3)), (3, 4)]


@st.composite
def trace_cases(draw):
    """(T, x, K, p): every shape and weight rule, x in either mode with
    every source in some band, possibly zero, and a horizon past which
    sources at band edges have died."""
    T = draw(shift_operators(TRACE_WEIGHTS))
    lo = 0 if T.index_set is IndexSet.NATURALS else -8
    rows = [i for i in range(lo, 14) if T.component_for(i) is not None]
    raw = draw(st.dictionaries(st.sampled_from(rows), st.sampled_from(TRACE_ENTRIES),
                               max_size=4))
    x = SeqVector.from_entries(T.index_set, raw, draw(st.sampled_from(list(Mode))))
    return T, x, draw(st.integers(0, 16)), draw(st.sampled_from(list(NormTag)))


@settings(max_examples=200, deadline=None)
@given(trace_cases())
def test_trace_points_are_single_steps_and_norms_the_walks(case):
    T, x, K, p = case
    trace = orbit(T, x, K, p)
    assert len(trace.points) == len(trace.norms) == K + 1
    for n, (point, value) in enumerate(zip(trace.points, trace.norms)):
        ref = nfold_apply(T, n, x)
        assert point == ref and point.mode is ref.mode
        assert [(i, repr(v)) for i, v in point.items()] == [(i, repr(v)) for i, v in ref.items()]
        # the oracle is the distance walk against the origin
        want = dist(point, SeqVector.zero(point.index_set, point.mode), p)
        assert type(value) is type(want) and repr(value) == repr(want)


class TestCoarseOrbit:
    def test_self_witness_at_time_zero(self):
        w = coarse_orbit_contains(prop32_operator(), ei(2, 3), Fraction(1, 10),
                                  ei(2, 3), 5, NormTag.PINF)
        assert w.time == 0
        assert w.achieved_distance == 0

    def test_exact_hit_on_drifted_basis(self):
        w = coarse_orbit_contains(prop32_operator(), ei(0), Fraction(1, 2),
                                  ei(-3), 10, NormTag.PINF)
        assert w.time == 3
        assert w.achieved_distance == 0

    def test_absent_up_to_horizon(self):
        # oracle: orbit points are e_{-n}, each at sup-distance 5 from 5 e_0
        T = prop32_operator()
        target = ei(0, 5)
        for n in range(11):
            diff = apply_power(T, n, ei(0)) - target
            assert norm(diff, NormTag.PINF) >= 4
        assert coarse_orbit_contains(T, ei(0), Fraction(1, 2), target, 10,
                                     NormTag.PINF) is None

    def test_monotone_in_d(self):
        T = prop32_operator()
        w_small = coarse_orbit_contains(T, ei(0), Fraction(1, 2), ei(-4), 10,
                                        NormTag.PINF)
        w_large = coarse_orbit_contains(T, ei(0), 3, ei(-4), 10, NormTag.PINF)
        assert w_large.time <= w_small.time

    def test_rejects_nonpositive_d(self):
        with pytest.raises(OrbitscopeError):
            coarse_orbit_contains(prop32_operator(), ei(0), 0, ei(0), 3)

    def test_positive_d_below_double_range(self):
        w = coarse_orbit_contains(prop32_operator(), ei(0), TINY, ei(-3), 10, NormTag.PINF)
        assert (w.time, w.achieved_distance, w.bound) == (3, 0, TINY)
        with pytest.raises(OrbitscopeError, match="d must be positive"):
            coarse_orbit_contains(prop32_operator(), ei(0, mode=Mode.FLOAT64), TINY,
                                  ei(-3, mode=Mode.FLOAT64), 10, NormTag.PINF)

    def test_float_query_answers_where_the_witness_check_disagrees(self):
        # near the bound at n = 35 the float scan (iterated point) accepts
        # and the float witness check (direct power) rejects; the query
        # answers instead of raising, and exact mode finds the witness
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(None, -1), "diagonal",
                  Table({2: Fraction(1, 2), -5: (1, 1), 4: Fraction(3, 2)}, 3)),
            Block(Band(0, None), "backward", Periodic((2, Fraction(5, 7), (1, 1))))))
        found = {}
        for mode in (Mode.FLOAT64, Mode.EXACT):
            x = SeqVector.from_entries(IndexSet.INTEGERS, {-8: -1}, mode)
            y = SeqVector.from_entries(IndexSet.INTEGERS, {
                -8: Fraction(-50031545098999706163, 1000), 2: Fraction(-477, 1000)}, mode)
            found[mode] = coarse_orbit_contains(T, x, 2, y, 52, NormTag.P1)
        assert found[Mode.FLOAT64] is None
        assert found[Mode.EXACT].time == 35
        assert found[Mode.EXACT].achieved_distance == Fraction(1314, 1000)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_scan_ends_once_the_orbit_is_zero(self, monkeypatch, mode):
        # e_0 dies at the first step, and 5 e_0 is outside the ball around
        # 0: two distance checks answer a horizon of 10^7 in the stepped
        # float scan, and one in the exact scan, whose supports meet at n = 0 only
        checks = []

        def counted(*args):
            checks.append(args)
            assert len(checks) <= 2, "the scan went on past the zero point"
            return dist_lt(*args)

        monkeypatch.setattr(orbits, "dist_lt", counted)
        x, y = (SeqVector.basis(IndexSet.NATURALS, 0, c, mode) for c in (1, 5))
        assert coarse_orbit_contains(doubling(), x, 1, y, 10 ** 7, NormTag.PINF) is None
        assert len(checks) == (1 if mode is Mode.EXACT else 2)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("norm_tag", list(NormTag))
    @pytest.mark.parametrize("case", ["far", "near-zero", "zero-base", "forward-edge",
                                      "one-band-dies", "never-zero"])
    def test_scan_agrees_with_a_full_scan(self, case, norm_tag, mode):
        T, x, y, d = coarse_case(case, mode)
        assert coarse_orbit_contains(T, x, d, y, 30, norm_tag) == \
            full_coarse_scan(T, x, d, y, 30, norm_tag)

    def test_witness_reverifies(self):
        w = make_coarse_witness(prop32_operator(), ei(0), 1, ei(-2), 2,
                                NormTag.PINF)
        w.verify(prop32_operator())
        with pytest.raises(VerificationFailed):
            make_coarse_witness(prop32_operator(), ei(0), Fraction(1, 2),
                                ei(0, 5), 1, NormTag.PINF)


def coarse_case(case, mode):
    """(T, x, y, d) for a coarse scan whose orbit dies, or never does."""
    def vec(index_set, entries):
        return SeqVector.from_entries(index_set, entries, mode)
    if case == "far":  # zero from n = 3 on, outside the ball
        return doubling(), vec(IndexSet.NATURALS, {2: 1}), \
            vec(IndexSet.NATURALS, {0: 5}), 1
    if case == "near-zero":  # zero from n = 3 on, inside the ball
        return doubling(), vec(IndexSet.NATURALS, {2: 3}), \
            vec(IndexSet.NATURALS, {1: Fraction(1, 2)}), 1
    if case == "zero-base":
        return doubling(), vec(IndexSet.NATURALS, {}), vec(IndexSet.NATURALS, {4: 2}), 1
    blocks = (Block(Band(None, -1), "forward", Constant(3)),
              Block(Band(0, 4), "backward", Periodic((2, Fraction(1, 3)))),
              Block(Band(5, None), "diagonal", Constant(Fraction(-1, 2))))
    T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=blocks)
    if case == "forward-edge":  # both bands' edges annihilate: zero from n = 4 on
        return T, vec(IndexSet.INTEGERS, {-4: 1, 3: 1}), \
            vec(IndexSet.INTEGERS, {-1: 81, 2: 3}), Fraction(1, 2)
    if case == "one-band-dies":  # a diagonal source lives on
        return T, vec(IndexSet.INTEGERS, {1: 2, 6: 1}), \
            vec(IndexSet.INTEGERS, {6: Fraction(1, 64)}), Fraction(1, 100)
    return T, vec(IndexSet.INTEGERS, {7: 3}), vec(IndexSet.INTEGERS, {7: 1}), \
        Fraction(1, 3)


def full_coarse_scan(T, x, d, y, K, norm_tag):
    """Reference: every n <= K in turn, the point stepped by reference
    single steps, with the witness check's pass-over rule; T^n 0 = 0, so
    it ends at the first zero point outside the ball."""
    v = x
    for n in range(K + 1):
        if dist_lt(v, y, norm_tag, d):
            try:
                return make_coarse_witness(T, x, d, y, n, norm_tag)
            except VerificationFailed:
                pass
        elif v.is_zero:
            break
        if n < K:
            v = reference_apply(T, v)
    return None


SCAN_WEIGHTS = [2, Fraction(1, 2), Fraction(-3, 2), 1, Fraction(2, 3), (0, 1), (1, -1)]
SCAN_ENTRIES = [1, -2, Fraction(1, 3), Fraction(-5, 4), (0, 1), (2, Fraction(1, 2))]


@st.composite
def scan_cases(draw):
    """(T, x, y, d, K, p): every shape, block sums with diagonal blocks and
    uncovered indices, the N floor; y near an orbit point, far, or zero;
    d at ||y|| exactly, below it or above it; x or y now and then over the
    other index set."""
    T = draw(shift_operators(SCAN_WEIGHTS))
    index_set = T.index_set
    mode = draw(st.sampled_from([Mode.EXACT, Mode.EXACT, Mode.EXACT, Mode.FLOAT64]))
    other = IndexSet.NATURALS if index_set is IndexSet.INTEGERS else IndexSet.INTEGERS

    def vector(index_set):
        lo = 0 if index_set is IndexSet.NATURALS else -8
        raw = draw(st.dictionaries(st.integers(lo, 13), st.sampled_from(SCAN_ENTRIES),
                                   max_size=4))
        return SeqVector.from_entries(index_set, raw, mode)

    x = vector(other if draw(st.integers(0, 19)) == 0 else index_set)
    target = draw(st.sampled_from(["near", "near", "far", "zero"]))
    y = vector(other if draw(st.integers(0, 19)) == 0 else index_set)
    if target == "zero":
        y = SeqVector.zero(y.index_set, mode)
    elif target == "near" and x.index_set is y.index_set is index_set:
        try:
            y = apply_power(T, draw(st.integers(0, 12)), x) + y.scale(Fraction(1, 8))
        except IndexSetMismatch:  # a source of x in no band
            pass
    p = draw(st.sampled_from(list(NormTag)))
    size = norm(y, p)
    if not isinstance(size, Fraction) or not size:  # an irrational or zero norm
        size = Fraction(1, 3) if not size else real_value(size, Mode.EXACT)
    d = size * draw(st.sampled_from([1, 1, Fraction(1, 2), Fraction(1, 10), 2]))
    return T, x, y, d, draw(st.integers(0, 25)), p


def outcome(scan):
    """What a scan returns, or the type of the error that ends it."""
    try:
        return scan()
    except OrbitscopeError as exc:
        return type(exc)


class TestScreenedScans:
    """Exact scans with ||y|| >= d measure only the times at which
    supp T^n x meets supp y; every answer stays the full scan's."""

    @settings(max_examples=400, deadline=None)
    @given(case=scan_cases())
    def test_scans_match_the_full_scans(self, case):
        T, x, y, d, K, p = case
        horizons = [K, K // 2, 0, -1]
        if outside_domain(T, x):  # refused before any point is measured
            assert outcome(lambda: coarse_orbit_contains(T, x, d, y, K, p)) is \
                outcome(lambda: ball_counts(T, x, y, d, horizons, p)) is IndexSetMismatch
            return
        assert outcome(lambda: coarse_orbit_contains(T, x, d, y, K, p)) == \
            outcome(lambda: full_coarse_scan(T, x, d, y, K, p))
        assert outcome(lambda: ball_counts(T, x, y, d, horizons, p)) == \
            outcome(lambda: [points_in_ball_scan(T, x, y, d, h, p) for h in horizons])

    @pytest.mark.parametrize("p", list(NormTag))
    def test_norm_equal_to_d_is_screened(self, monkeypatch, p):
        # d = ||y|| for y = 3 e_5 and for y = 8 e_5: the doubling orbit of
        # e_8 meets supp y at n = 3 only, in 8 e_5, outside the first ball
        # and at the center of the second
        measured = []
        monkeypatch.setattr(orbits, "dist_lt",
                            lambda v, *args: measured.append(v) or dist_lt(v, *args))
        x = en(8)
        assert coarse_orbit_contains(doubling(), x, 3, en(5, 3), 40, p) is None
        assert ball_counts(doubling(), x, en(5, 3), 3, [40], p) == [0]
        assert coarse_orbit_contains(doubling(), x, 8, en(5, 8), 40, p).time == 3
        assert measured == [en(5, 8)] * 3

    def test_a_diagonal_source_on_a_row_takes_the_stepped_scan(self, monkeypatch):
        # the diagonal block keeps the source at 6 on supp y at every n
        T, x, _, _ = coarse_case("one-band-dies", Mode.EXACT)
        y = SeqVector.from_entries(IndexSet.INTEGERS, {6: 5})
        measured = []
        monkeypatch.setattr(orbits, "dist_lt",
                            lambda *args: measured.append(args) or dist_lt(*args))
        assert ball_counts(T, x, y, 1, [20], NormTag.PINF) == \
            [points_in_ball_scan(T, x, y, 1, 20, NormTag.PINF)]
        assert len(measured) == 21

    def test_a_source_past_its_band_edge_is_not_measured(self, monkeypatch):
        # riesz-blocks' bands: the source at 4 stays in [0, inf) and meets
        # row 2 at n = 2; no source reaches row -50 across the band edge
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
            Block(Band(None, -1), "backward", Constant(2))))
        measured = []
        monkeypatch.setattr(orbits, "dist_lt",
                            lambda v, *args: measured.append(v) or dist_lt(v, *args))
        y = ei(-50, 7) + ei(2)
        assert ball_counts(T, ei(0) + ei(4), y, 1, [100], NormTag.PINF) == [0]
        assert measured == [ei(2, Fraction(1, 4))]

    @pytest.mark.parametrize("case", ["other-index-set", "source-in-no-band"])
    def test_unlisted_times_fall_back_to_the_stepped_scans_error(self, monkeypatch, case):
        # x on another index set than T, or a source in no band: meetings
        # raises apply_power's error before it lists any time, so the scan
        # raises it before any point is measured, as the stepped scan does
        if case == "other-index-set":
            T, x = doubling(), ei(3)
        else:
            T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
                Block(Band(0, 10), "backward", Constant(2)),))
            x = ei(3) + ei(20)
        listed, measured = [], []
        monkeypatch.setattr(orbits, "meetings",
                            lambda *args: listed.append(args) or meetings(*args))
        monkeypatch.setattr(orbits, "dist_lt",
                            lambda *args: measured.append(args) or dist_lt(*args))
        y = ei(0, 5)
        assert outcome(lambda: coarse_orbit_contains(T, x, 1, y, 10, NormTag.PINF)) is \
            outcome(lambda: full_coarse_scan(T, x, 1, y, 10, NormTag.PINF)) is IndexSetMismatch
        assert len(listed) == 1 and not measured
        with pytest.raises(IndexSetMismatch):
            meetings(T, x, y._entries, 10)

    def test_prop21_measures_eight_points(self, monkeypatch):
        # sources at 32, 35, 302, 305, 1002 and 1005 meet the rows 2 and 5
        # at n = 27, 30, 33, 297, 300, 303, 997 and 1000 up to the ladder's 1000
        T, x, y = _prop21_instance({"visit_times": (30, 300, 1000)}, Mode.EXACT)
        measured = []
        monkeypatch.setattr(orbits, "dist_lt",
                            lambda *args: measured.append(args) or dist_lt(*args))
        assert ball_counts(T, x, y, Fraction(3, 2), [100, 300, 1000], NormTag.PINF) == [1, 2, 3]
        assert len(measured) <= 8


def synth_orbit_instance(targets, times):
    """Base point whose doubling-shift orbit visits each target in turn."""
    entries = {}
    for y, n_s in zip(targets, times):
        for j, val in y.items():
            entries[n_s + j] = val * SeqVector.basis(
                IndexSet.NATURALS, 0, Fraction(1, 2 ** n_s)).entry(0)
    return SeqVector(IndexSet.NATURALS, entries)


class TestRescale:
    def witness(self):
        return make_coarse_witness(prop32_operator(), ei(0), 2,
                                   ei(-4) + ei(2, Fraction(1, 2)), 4, NormTag.PINF)

    def test_identity_at_original_bound(self):
        w = self.witness()
        rw = rescale_coarse_witness(prop32_operator(), w, 2)
        assert rw.target == w.target
        assert rw.base == w.base
        assert rw.time == w.time

    def test_doubling_bound(self):
        w = self.witness()
        rw = rescale_coarse_witness(prop32_operator(), w, 4)
        assert rw.bound == 4
        assert rw.target == w.target.scale(2)
        assert rw.achieved_distance == w.achieved_distance * 2

    def test_round_trip_exact(self):
        w = self.witness()
        rw = rescale_coarse_witness(prop32_operator(), w, Fraction(1, 5))
        back = rescale_coarse_witness(prop32_operator(), rw, 2)
        assert back.target == w.target
        assert back.base == w.base
        assert back.achieved_distance == w.achieved_distance

    def test_positive_M_below_double_range(self):
        w = self.witness()
        rw = rescale_coarse_witness(prop32_operator(), w, TINY)
        assert rw.bound == TINY
        assert rw.target == w.target.scale(TINY / 2)
        w = make_coarse_witness(prop32_operator(), ei(0, mode=Mode.FLOAT64), 2,
                                ei(-4, mode=Mode.FLOAT64), 4, NormTag.PINF)
        with pytest.raises(OrbitscopeError, match="M must be positive"):
            rescale_coarse_witness(prop32_operator(), w, TINY)

    def test_degenerate_zero_pair(self):
        z = SeqVector.zero(IndexSet.INTEGERS)
        w = make_coarse_witness(prop32_operator(), z, 1, z, 3, NormTag.PINF)
        rw = rescale_coarse_witness(prop32_operator(), w, 7)
        assert rw.target.is_zero and rw.base.is_zero


class TestPointCounting:
    def test_counts_grow_on_planted_instance(self):
        y = SeqVector.from_entries(IndexSet.NATURALS, {2: 3, 5: 1})
        times = (30, 300, 3000)
        x = synth_orbit_instance([y, y, y], times)
        T = doubling()
        counts = [ball_counts(T, x, y, Fraction(3, 2), [K], NormTag.PINF)[0]
                  for K in (100, 1000, 10000)]
        assert counts == [1, 2, 3]

    def test_plateau_on_single_visit(self):
        # the drifting orbit passes a basis target exactly once
        counts = [ball_counts(prop32_operator(), ei(0), ei(-5),
                              Fraction(3, 10), [K], NormTag.PINF)[0]
                  for K in (20, 200, 2000)]
        assert counts == [1, 1, 1]

    @pytest.mark.parametrize("horizons", [[40, 10, 25], [10, 10, 3, 3], [0],
                                          [0, 7, -1], [-3], [-2, -1, 12, 0, 12]])
    def test_one_pass_matches_a_scan_per_horizon(self, horizons):
        rng = random.Random(len(horizons) * 100 + horizons[0])
        cases = [(ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(-1)),
                  ei(0) + ei(2, 3), SeqVector.zero(IndexSet.INTEGERS), 10, NormTag.P2)]
        for _ in range(12):
            T = random_shift(rng)
            x = vector_for(rng, T)
            y = apply_power(T, rng.randint(0, 8), x) + vector_for(rng, T).scale(
                Fraction(1, 10))
            cases.append((T, x, y, Fraction(rng.randint(1, 40), 10),
                          rng.choice(list(NormTag))))
        for T, x, y, radius, p in cases:
            expected = [points_in_ball_scan(T, x, y, radius, K, p) for K in horizons]
            assert ball_counts(T, x, y, radius, horizons, p) == expected
            assert [ball_counts(T, x, y, radius, [K], p)[0]
                    for K in horizons] == expected

    @pytest.mark.parametrize("mode", list(Mode))
    def test_scan_looks_up_each_source_once(self, monkeypatch, mode):
        # the benchmark's prop21 instance: visit times and ladder up to 1000
        T, x, y = _prop21_instance({"visit_times": (30, 300, 1000)}, mode)
        lookups = []
        component_for = ShiftOperator.component_for
        monkeypatch.setattr(ShiftOperator, "component_for",
                            lambda self, i: lookups.append(i) or component_for(self, i))
        builds = []
        init = SeqVector.__init__
        monkeypatch.setattr(SeqVector, "__init__",
                            lambda self, *a, **k: builds.append(a) or init(self, *a, **k))
        counts = ball_counts(T, x, y, Fraction(3, 2), [100, 300, 1000], NormTag.PINF)
        assert counts == [1, 2, 3]
        assert len(lookups) <= len(x)
        assert builds == []
