import contextlib
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitscope import (
    CoarseWitness,
    Constant,
    DWitness,
    EpsSchedule,
    IndexSet,
    JWitness,
    JWitnessTriple,
    NormTag,
    PiecewiseTwoSided,
    SeqVector,
    Shape,
    ShiftOperator,
    apply_power,
    d_witness,
    derive_remark32_bounds,
    jmix_witness,
    make_coarse_witness,
    norm,
    prop22_amplify,
    prop32_operator,
    remark32_contradiction_check,
    rescale_j_witness_family,
    search_j_witness,
)
from orbitscope.errors import (
    IndexSetMismatch,
    InputNotAWitnessFamily,
    NumericOverflow,
    OrbitscopeError,
    SearchFailed,
    VerificationFailed,
)
from orbitscope import limit_sets, operators
from orbitscope.limit_sets import (
    Budget,
    _Attempt,
    _SearchLog,
    _greedy_attempt,
    _real_sup_attempt,
    reaching_scale,
)
from orbitscope.numeric import QC, Mode, TOL_EQ, abs2, make_scalar, real_value, scalar_zero, \
    strict_gt, to_float
from orbitscope.operators import (
    Band,
    Block,
    WeightRule,
)
from orbitscope.spaces import dist_and_lt

from conftest import nfold_apply, outside_domain, random_rule, random_shift, random_vector, \
    reference_path_product, reference_path_source, shift_operators, sup_projection_feasible, \
    vector_for


def ei(i, c=1, mode=Mode.EXACT):
    return SeqVector.basis(IndexSet.INTEGERS, i, c, mode)


def en(i, c=1):
    return SeqVector.basis(IndexSet.NATURALS, i, c)


def doubling():
    return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2))


def halving():
    return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                         Constant(Fraction(1, 2)))


@pytest.fixture
def verify_calls(monkeypatch):
    """The witnesses whose verify runs, in call order."""
    calls = []
    for cls in (JWitness, DWitness, CoarseWitness):
        def verify(self, T, _check=cls.verify):
            calls.append(self)
            return _check(self, T)
        monkeypatch.setattr(cls, "verify", verify)
    return calls


class TestSchedule:
    def test_reciprocal(self):
        s = EpsSchedule.reciprocal(4)
        assert s.values == (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))

    def test_must_decrease(self):
        with pytest.raises(OrbitscopeError):
            EpsSchedule((Fraction(1), Fraction(1)))

    def test_must_be_positive(self):
        with pytest.raises(OrbitscopeError):
            EpsSchedule((Fraction(1), Fraction(0)))


class TestSynthesis:
    """Constructive witnesses for backward shifts, built by the search."""

    def test_prop32_carried_image_residual(self):
        # the carried base image stays in the residual at bound 2
        T = prop32_operator()
        y = SeqVector.from_entries(IndexSet.INTEGERS,
                                   {-7: 4, 0: Fraction(5, 2), 6: -3})
        w = search_j_witness(T, ei(0), y, 2, EpsSchedule.reciprocal(5), 10_000)
        for eps, t in zip(w.schedule, w.triples):
            image = apply_power(T, t.time, t.perturbed)
            assert norm(image - y, NormTag.PINF) < 2
            assert norm(t.perturbed - ei(0), NormTag.PINF) < eps
        w.verify(T)

    def test_doubling_from_zero_exact_hit(self):
        T = doubling()
        w = search_j_witness(T, SeqVector.zero(IndexSet.NATURALS), en(0),
                             Fraction(1, 4), EpsSchedule.reciprocal(3), 10_000)
        for t in w.triples:
            assert t.dist == 0
            k = t.time
            assert t.perturbed == en(k, Fraction(1, 2) ** k)

    def test_halving_fails(self):
        with pytest.raises(SearchFailed) as info:
            search_j_witness(halving(), SeqVector.zero(IndexSet.NATURALS), en(0),
                             Fraction(1, 4), EpsSchedule.reciprocal(3), 10_000)
        assert info.value.best_delta_norm > 1


class TestSearch:
    def test_orbit_point_witnessed_with_zero_perturbation(self):
        # identity-like diagonal keeps the orbit at the target forever
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(1))
        x = ei(0, 3) + ei(2, -1)
        y = apply_power(T, 5, x)
        w = jmix_witness(T, x, y, 1, 4, 5, 10_000)
        assert w.times == (5, 6, 7, 8)
        for t in w.triples:
            assert t.perturbed == x
            assert t.dist == 0

    def test_contracting_diagonal_far_target_fails(self):
        # images of the whole radius-1 ball around e_0 shrink to 0, so a
        # target of norm 3 is out of reach at every time, proved from k = 1
        # on by (1/2) (1 + 1/3) <= 3 - 1/10, in every norm and mode
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(Fraction(1, 2)))
        d = Fraction(1, 10)
        for mode in Mode:
            for norm_tag in NormTag:
                with pytest.raises(SearchFailed) as info:
                    search_j_witness(T, ei(0, mode=mode), ei(0, 3, mode), d,
                                     EpsSchedule.reciprocal(3), 10_000,
                                     norm_tag=norm_tag)
                assert info.value.reason == "decay-bound"
                assert info.value.proof == {
                    "k0": 1, "eps": "1/3",
                    "inequality": "S^k*(||x|| + eps) <= ||y|| - d with S^2 = 1/4, "
                                  "||x|| <= 1, ||y|| >= 3, "
                                  f"d = {Fraction(real_value(d, mode))}"}

    def test_decisive_regimes_on_random_backward_shifts(self):
        # decisive regimes: growing products from a zero base always admit
        # witnesses; shrinking products with a remote target never do
        rng = random.Random(2024)
        agree = 0
        for _ in range(100):
            expanding = rng.random() < 0.5
            weight = Fraction(rng.randint(5, 9), 4) if expanding \
                else Fraction(rng.randint(1, 3), 4)
            bilateral = rng.random() < 0.5
            if bilateral:
                T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                                  Constant(weight))
                x = SeqVector.zero(IndexSet.INTEGERS)
                y = random_vector(rng, IndexSet.INTEGERS, -6, 6, bound=8)
            else:
                T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                                  Constant(weight))
                x = SeqVector.zero(IndexSet.NATURALS)
                y = random_vector(rng, IndexSet.NATURALS, 0, 6, bound=8)
            if not expanding:
                # pin the coordinate at 0 so the target is genuinely remote
                y = SeqVector.from_entries(y.index_set, {**dict(y.items()), 0: 5})
            d = Fraction(1, 2)
            schedule = EpsSchedule.reciprocal(3)
            try:
                search_j_witness(T, x, y, d, schedule, 50_000,
                                 stagnation_window=150)
                search_ok = True
            except SearchFailed:
                search_ok = False
            assert search_ok == expanding
            agree += 1
        assert agree == 100

    def test_float_products_below_float_range(self):
        # at k >= 1100 the halving product 2^-k is below every double; the
        # row is left alone, since |m| = 1/2 < d
        x = SeqVector.basis(IndexSet.NATURALS, 0, mode=Mode.FLOAT64)
        y = SeqVector.basis(IndexSet.NATURALS, 0, 0.5, mode=Mode.FLOAT64)
        w = jmix_witness(halving(), x, y, 1, 2, 1100, 10)
        assert w.times == (1100, 1101)
        assert all(t.perturbed == x for t in w.triples)

    def test_float_products_past_double_range(self):
        # at k >= 1100 the doubling product 2^k is past every double: the
        # correction 2^70 / 2^k is divided exactly and rounded once, and each
        # perturbed power then passes the 2^900 policy, so the budget runs out
        x = SeqVector.basis(IndexSet.NATURALS, 0, mode=Mode.FLOAT64)
        y = SeqVector.basis(IndexSet.NATURALS, 0, 2.0 ** 70, mode=Mode.FLOAT64)
        with pytest.raises(SearchFailed) as info:
            jmix_witness(doubling(), x, y, 1, 2, 1100, 10)
        assert info.value.reason == "budget"

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64])
    @pytest.mark.parametrize("norm_tag", list(NormTag))
    def test_row_cost_past_float_range(self, mode, norm_tag):
        # the same search in every norm: the p1/p2 joint budget prices the
        # row at |m/W| = 2^1099, past float range, and leaves it alone
        x = SeqVector.basis(IndexSet.NATURALS, 0, mode=mode)
        y = SeqVector.basis(IndexSet.NATURALS, 0, Fraction(1, 2), mode=mode)
        w = jmix_witness(halving(), x, y, 1, 2, 1100, 10, norm_tag=norm_tag)
        assert w.times == (1100, 1101)
        assert all(t.perturbed == x for t in w.triples)

    @pytest.mark.parametrize("search", ["j", "jmix"])
    def test_positive_d_below_double_range(self, search):
        # 10^-400 is positive, yet rounds to the double 0.0: the identity
        # keeps x at x, at distance 0, in exact mode, and float mode refuses
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(1))
        d = Fraction(1, 10 ** 400)
        for mode in Mode:
            x = ei(0, 3, mode) + ei(2, -1, mode)
            with pytest.raises(OrbitscopeError, match="d must be positive") \
                    if mode is Mode.FLOAT64 else contextlib.nullcontext():
                w = search_j_witness(T, x, x, d, EpsSchedule.reciprocal(3), 100) \
                    if search == "j" else jmix_witness(T, x, x, d, 3, 1, 100)
                assert w.times == (1, 2, 3) and w.bound == d
                assert all(t.perturbed == x and t.dist == 0 for t in w.triples)

    @pytest.mark.parametrize("search, message, reason, attempts, k_last", [
        (lambda *a: jmix_witness(*a, 2, 1, 100_000),
         "mix search stagnated", "stagnation", 202, 202),
        (lambda *a: search_j_witness(*a, EpsSchedule.reciprocal(5), 100_000),
         "triple 1: stagnation", "stagnation", 402, 402),
        (lambda *a: jmix_witness(*a, 2, 10_000, 100_000),
         "mix start cap reached", "k-cap", 1, 10_000),
        (lambda *a: search_j_witness(*a, EpsSchedule.reciprocal(5), 100_000,
                                     stagnation_window=20_000),
         "triple 1: k-cap", "k-cap", 10_000, 10_000),
    ], ids=["jmix-stagnation", "j-stagnation", "jmix-k-cap", "j-k-cap"])
    def test_not_found_reasons(self, search, message, reason, attempts, k_last):
        # the unweighted shift from 0 to 5 e_0 at d = 1/2: every time needs
        # a perturbation of 9/2 or more, and no stop applies, so each search
        # ends on its own limit, with no proof
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(1))
        with pytest.raises(SearchFailed, match=f"^{message}$") as info:
            search(T, SeqVector.zero(IndexSet.INTEGERS), ei(0, 5), Fraction(1, 2))
        assert (info.value.reason, info.value.triple_index, info.value.attempts,
                info.value.k_last, info.value.proof) == (reason, 0, attempts, k_last, None)

    def test_budget_exhaustion_reported(self):
        # the weight 1/2 on the non-positive side rules out every structural stop
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          PiecewiseTwoSided(2, Fraction(1, 2)))
        with pytest.raises(SearchFailed) as info:
            search_j_witness(T, ei(0), ei(0, 5), Fraction(1, 4),
                             EpsSchedule.reciprocal(5), budget=1)
        assert info.value.reason == "budget"
        assert info.value.proof is None


def search_log(T, x, y, d, eps, budget, norm_tag=NormTag.PINF):
    """A search for y from x under T at bound d whose budget is the given
    Budget, with eps as its schedule's smallest radius."""
    search = _SearchLog(T, x, y, d, Fraction(eps), budget.limit, norm_tag)
    search.budget = budget
    return search


def sup_attempt(T, x, y, d, eps, k):
    """One exact sup-norm attempt at time k, the same from both attempt
    functions; its witness, when it finds one, must pass verify."""
    att = _greedy_attempt(search_log(T, x, y, d, eps, Budget(2)), eps, k)
    assert _real_sup_attempt(search_log(T, x, y, d, eps, Budget(2)), eps, k) == att
    if att.ok:
        JWitness(x, y, d, NormTag.PINF, EpsSchedule((eps,)),
                 (JWitnessTriple(att.perturbed, k, att.dist),)).verify(T)
    return att.ok


radii = st.fractions(min_value=Fraction(1, 12), max_value=10, max_denominator=12)


class TestSupAttempt:
    """One sup-norm time decided row by row: |m| < d + |W| eps."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
           near=st.booleans(), d=radii, eps=radii)
    def test_agrees_with_projection_oracle(self, seed, k, near, d, eps):
        rng = random.Random(seed)
        T = random_shift(rng)
        x = vector_for(rng, T)
        y = vector_for(rng, T)
        if near:
            # a target near the orbit point puts every branch of the rule to work
            y = apply_power(T, k, x) + y.scale(Fraction(1, 4))
        assert sup_attempt(T, x, y, d, eps, k) == \
            sup_projection_feasible(T, x, y, d, eps, k)

    def test_partial_correction_near_the_boundary(self):
        # pinned from a seeded scan (random.Random(6)) over random_shift
        # operators: the one mismatch row j = -3 has |m| = 56/25 below
        # d + |W| eps = 10/9 + 4/3 but above d, so only a partial correction
        # works; a rule that capped corrections at 0.9 eps and parked the
        # residual at 0.9 d rejected this time
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          Constant(Fraction(3, 4)))
        x = SeqVector.from_entries(IndexSet.INTEGERS, {
            -8: Fraction(-279, 100), 2: Fraction(91, 10), 7: Fraction(307, 50)})
        y = SeqVector.from_entries(IndexSet.INTEGERS, {
            -9: Fraction(-837, 400), -3: Fraction(-56, 25), 1: Fraction(273, 40),
            6: Fraction(921, 200)})
        d, eps = Fraction(10, 9), Fraction(16, 9)
        assert sup_projection_feasible(T, x, y, d, eps, 1)
        assert sup_attempt(T, x, y, d, eps, 1)


def reference_sup_attempt(T, x, y, d_val, eps, k, budget):
    """_greedy_attempt's sup-norm branch for real exact entries as it stood
    before the integer row table: QC and Fraction arithmetic, products
    formed by apply_power and reference_path_product, and the final check
    through apply_power and the distance walk."""
    if not budget.try_spend():
        return None
    image0 = apply_power(T, k, x)
    delta_entries, uncorrected, feasible = {}, [], True
    for j in sorted(set(y.support) | set(image0.support)):
        target, image = y.entry(j), image0.entry(j)
        if target == image:
            continue
        m = target - image
        m_abs = abs(m.re)
        s = reference_path_source(T, j, k)
        if s is not None:
            u = m / reference_path_product(T, j, k)
            u_abs = abs(u.re)
            if eps > u_abs:
                delta_entries[s] = u
                continue
        if d_val > m_abs:
            uncorrected.append(to_float(m_abs))
            continue
        if s is not None:
            lo, hi = 1 - d_val / m_abs, eps / u_abs
            if lo < hi:
                t = (lo + hi) / 2
                delta_entries[s] = u * QC(t)
                uncorrected.append(to_float((1 - t) * m_abs))
                continue
        feasible = False
        uncorrected.append(to_float(m_abs))
    delta = SeqVector(x.index_set, delta_entries, Mode.EXACT)
    delta_r, delta_ok = dist_and_lt(delta, SeqVector.zero(x.index_set), NormTag.PINF, eps)
    delta_norm = to_float(delta_r)
    residual_est = max(uncorrected, default=0.0)
    if not feasible or not delta_ok:
        return _Attempt(False, None, None, delta_norm, residual_est)
    if not budget.try_spend():
        return None
    perturbed = x + delta
    r, ok = dist_and_lt(apply_power(T, k, perturbed), y, NormTag.PINF, d_val)
    return _Attempt(ok, perturbed if ok else None, r if ok else None, delta_norm,
                    to_float(r))


def real_sup_attempt(T, x, y, d_val, eps, k, budget):
    """_real_sup_attempt in a search of its own."""
    return _real_sup_attempt(search_log(T, x, y, d_val, eps, budget), eps, k)


def outcome(attempt, T, x, y, d, eps, k, budget_limit):
    """(every _Attempt field, the budget used), or the error raised."""
    budget = Budget(budget_limit)
    try:
        att = attempt(T, x, y, d, eps, k, budget)
    except IndexSetMismatch as exc:
        return "IndexSetMismatch", str(exc), budget.used
    if att is None:
        return None, budget.used
    assert att.dist is None or type(att.dist) is Fraction
    assert type(att.delta_norm) is float and type(att.residual) is float
    return (att.ok, att.perturbed, att.dist, att.delta_norm, att.residual), budget.used


def random_operator(rng):
    """Unilateral, bilateral or forward shifts, or a block sum with a
    diagonal block whose bands leave -3 and 4 uncovered."""
    shape = rng.choice(["unilateral", "bilateral", "forward", "blocks"])
    if shape == "unilateral":
        return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, random_rule(rng))
    if shape == "bilateral":
        return ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, random_rule(rng))
    if shape == "forward":
        return ShiftOperator(Shape.BILATERAL_FORWARD, IndexSet.INTEGERS, random_rule(rng))
    kinds = ["backward", "forward", "diagonal"]
    rng.shuffle(kinds)
    return ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=tuple(
        Block(band, kind, random_rule(rng))
        for band, kind in zip((Band(None, -4), Band(-2, 3), Band(5, None)), kinds)))


def pinned_witness(entries, bound, triples):
    """A prop32 witness from e_0 at schedule 1, 1/2, 1/3, in JSON form."""
    one = "1" if isinstance(bound, str) else 1.0
    zero = "0" if isinstance(bound, str) else 0.0
    return {"base": {"index_set": "Z", "entries": [[0, one, zero]]},
            "target": {"index_set": "Z", "entries": entries}, "bound": bound,
            "norm": "pinf", "schedule": ["1", "1/2", "1/3"],
            "triples": [{"perturbed": {"index_set": "Z", "entries": [[0, one, zero], *p]},
                         "time": k, "dist": r} for k, p, r in triples],
            "mix": False, "operator": "paper-prop32"}


# the witnesses _greedy_attempt gave before the integer row table
COMPLEX_WITNESS = pinned_witness(
    [[-7, "4", "0"], [-2, "3", "1"], [6, "-3", "0"]], "2",
    [(9, [[2, "3/4", "0"], [7, "3/128", "1/128"], [15, "-3/512", "0"]], "1"),
     (10, [[3, "3/8", "0"], [8, "3/256", "1/256"], [16, "-3/1024", "0"]], "1"),
     (11, [[4, "1/4", "0"], [9, "3/512", "1/512"], [17, "-3/2048", "0"]], "1")])
FLOAT_WITNESS = pinned_witness(
    [[-7, 4.0, 0.0], [0, 2.5, 0.0], [6, -3.0, 0.0]], 2.0,
    [(9, [[2, 0.75, 0.0], [9, 0.0048828125, 0.0], [15, -0.005859375, 0.0]], 1.0),
     (10, [[3, 0.375, 0.0], [10, 0.00244140625, 0.0], [16, -0.0029296875, 0.0]], 1.0),
     (11, [[4, 0.25, 0.0], [11, 0.001220703125, 0.0], [17, -0.00146484375, 0.0]], 1.0)])


class TestRealSupAttempt:
    """The integer row table gives the attempt that Fractions gave."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 5),
           near=st.sampled_from([None, 0, Fraction(1, 4), 1]),
           tie=st.sampled_from([None, "d", "eps", "d+eps"]), d=radii, eps=radii,
           budget=st.sampled_from([0, 1, 2]))
    def test_matches_the_fraction_attempt(self, seed, k, near, tie, d, eps, budget):
        rng = random.Random(seed)
        T = random_operator(rng)
        x = vector_for(rng, T, -9, 9)
        y = vector_for(rng, T, -9, 9)
        try:
            image = apply_power(T, k, x)
        except IndexSetMismatch as exc:  # a source of x in no band
            image, refused = None, ("IndexSetMismatch", str(exc), 0)
        if near is not None and image is not None:
            # rows where the target equals the image, and rows near it
            y = image + y.scale(near) if near else image
        rows = [] if image is None else \
            [j for j in sorted(set(y.support) | set(image.support)) if y.entry(j) != image.entry(j)]
        if tie and rows:
            # a row on a boundary of the rule: |m| = d, |m| = d + |W| eps, or
            # |u| = eps, which takes a partial correction whenever |m| >= d
            j = rng.choice(rows)
            m = abs((y.entry(j) - image.entry(j)).re)
            w = abs(reference_path_product(T, j, k).re)
            if tie == "d":
                d = m
            elif tie == "d+eps" and m > w * eps:
                d = m - w * eps
            elif tie == "eps" and w:
                eps = m / w
        # x outside T's domain is refused before the attempt spends budget
        assert outcome(real_sup_attempt, T, x, y, d, eps, k, budget) == \
            (refused if image is None else
             outcome(reference_sup_attempt, T, x, y, d, eps, k, budget))

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_doubles_past_range(self, budget):
        # |delta_0| = 10^600 and the infeasible row 1 has |m| = 10^1200:
        # both floats are inf, as to_float gives them
        T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                          Constant(10 ** 400))
        y = SeqVector.from_entries(IndexSet.NATURALS, {0: 10 ** 1000, 1: 10 ** 1200})
        args = (T, SeqVector.zero(IndexSet.NATURALS), y, Fraction(1), Fraction(10 ** 700),
                1, budget)
        out = outcome(real_sup_attempt, *args)
        assert out == outcome(reference_sup_attempt, *args)
        if budget:
            assert out == ((False, None, None, math.inf, math.inf), 1)

    def test_source_in_no_band(self):
        # -3 lies between the bands: both raise apply_power's error, the
        # search before its attempt spends any budget
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(None, -4), "backward", Constant(2)),
            Block(Band(-2, 3), "diagonal", Constant(Fraction(1, 2)))))
        args = (T, ei(-3) + ei(1), ei(0), Fraction(1), Fraction(1, 2), 1, 2)
        error = ("IndexSetMismatch", "vector support index -3 lies in no band")
        assert outcome(real_sup_attempt, *args) == (*error, 0)
        assert outcome(reference_sup_attempt, *args) == (*error, 1)

    def test_search_decides_the_path_once(self, monkeypatch):
        # a complex entry of y, and float mode, keep _greedy_attempt
        def forbidden(*args):
            raise AssertionError("real sup attempt on complex or float input")
        monkeypatch.setattr(limit_sets, "_real_sup_attempt", forbidden)
        T = prop32_operator()
        y = SeqVector.from_entries(IndexSet.INTEGERS, {-7: 4, -2: (3, 1), 6: -3})
        assert search_j_witness(T, ei(0), y, 2, EpsSchedule.reciprocal(3),
                                10_000).to_jsonable() == COMPLEX_WITNESS
        y = SeqVector.from_entries(IndexSet.INTEGERS, {-7: 4, 0: Fraction(5, 2), 6: -3},
                                   Mode.FLOAT64)
        assert search_j_witness(T, ei(0, mode=Mode.FLOAT64), y, 2,
                                EpsSchedule.reciprocal(3), 10_000).to_jsonable() == \
            FLOAT_WITNESS

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), restart=st.integers(1, 40))
    def test_stepped_rows_match_formed_rows(self, seed, restart):
        # rows of supp y stepped through k = 1..40, then formed afresh at a
        # time that is not the next one and stepped again: each row is its
        # (reference_path_source, reference_path_product), past band exits
        # (the blocks' bands end at -4, -2, 3 and 5) and the unilateral floor
        rng = random.Random(seed)
        T = random_operator(rng)
        y = vector_for(rng, T, -12, 12)
        search = search_log(T, SeqVector.zero(y.index_set), y, 1, 1, Budget(2))
        for k in [*range(1, 41), *range(restart, 41)]:
            table = search.table(k)
            assert sorted(table) == list(y.support)
            for j, (s, w, lane, v) in table.items():
                assert (s, w) == (reference_path_source(T, j, k), reference_path_product(T, j, k))
                assert lane is v is None

    def test_attempts_form_each_product_once(self, monkeypatch):
        # a riesz-blocks style search: attempts apply no power; the first
        # forms each row's product at most once, and every later one forms
        # only the products of the rows x lands on and y does not hold,
        # stepping the rows of supp y; verify applies one power per triple
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
            Block(Band(None, -1), "backward", Constant(2))))
        x = ei(0) + ei(4, Fraction(1, 3))
        y = SeqVector.from_entries(IndexSet.INTEGERS, {
            2: Fraction(1, 4), 5: Fraction(-1, 3), -50: 7, -43: -3})
        counts = dict.fromkeys(["apply_power", "product_exact"], 0)

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        applied = counted("apply_power", operators.apply_power)
        for module in (operators, limit_sets):
            monkeypatch.setattr(module, "apply_power", applied)
        monkeypatch.setattr(WeightRule, "product_exact",
                            counted("product_exact", WeightRule.product_exact))
        attempts = []

        def attempt(*args, _attempt=_real_sup_attempt):
            before = dict(counts)
            out = _attempt(*args)
            attempts.append((args[2], {n: counts[n] - before[n] for n in counts}))
            return out

        monkeypatch.setattr(limit_sets, "_real_sup_attempt", attempt)
        w = search_j_witness(T, x, y, 1, EpsSchedule.reciprocal(5), 20_000)
        assert counts["apply_power"] == len(w.triples)
        monkeypatch.undo()
        assert len(attempts) > len(w.triples)
        (k, used), *later = attempts
        rows = set(y.support) | set(apply_power(T, k, x).support)
        sourced = sum(reference_path_source(T, j, k) is not None for j in rows)
        assert used["apply_power"] == 0
        assert used["product_exact"] <= sourced
        assert [k for k, _ in later] == list(range(k + 1, k + 1 + len(later)))
        assert any(landed_rows(T, k, x) - set(y.support) for k, _ in later)
        for k, used in later:
            assert used == {"apply_power": 0,
                            "product_exact": len(landed_rows(T, k, x) - set(y.support))}

    @pytest.mark.parametrize("x, dies_at", [(ei(0), 1), (ei(0) + ei(4, Fraction(1, 3)), 5)],
                             ids=["dies-at-once", "dies-at-5"])
    def test_paths_from_x_stop_once_none_is_left(self, monkeypatch, x, dies_at):
        # riesz-blocks' operator: a backward source at s leaves its band
        # [0, inf) after s + 1 steps; each attempt's table lands x's live
        # lanes only, so from dies_at on it lands none and forms no product
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
            Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
            Block(Band(None, -1), "backward", Constant(2))))
        y = SeqVector.from_entries(IndexSet.INTEGERS, {
            2: Fraction(1, 4), -50: 7, -43: -3})
        counts = dict.fromkeys(["landed", "product_exact"], 0)

        def table(self, k, _table=_SearchLog.table):
            out = _table(self, k)
            counts["landed"] += sum(lane is not None for _, _, lane, _ in out.values())
            return out

        def product_exact(*args, _product=WeightRule.product_exact):
            counts["product_exact"] += 1
            return _product(*args)

        monkeypatch.setattr(_SearchLog, "table", table)
        monkeypatch.setattr(WeightRule, "product_exact", product_exact)
        attempts = []

        def attempt(*args, _attempt=_real_sup_attempt):
            before = dict(counts)
            out = _attempt(*args)
            attempts.append((args[2], {n: counts[n] - before[n] for n in counts}))
            return out

        monkeypatch.setattr(limit_sets, "_real_sup_attempt", attempt)
        search_j_witness(T, x, y, 1, EpsSchedule.reciprocal(5), 20_000)
        monkeypatch.undo()
        assert [k for k, _ in attempts] == list(range(1, len(attempts) + 1))
        assert len(attempts) > dies_at
        assert [used["landed"] for _, used in attempts] == \
            [len(landed_rows(T, k, x)) for k, _ in attempts]
        for k, used in attempts[1:]:
            assert used["product_exact"] == len(landed_rows(T, k, x) - set(y.support))
        assert all(used == {"landed": 0, "product_exact": 0}
                   for k, used in attempts[1:] if k >= dies_at)
        assert not landed_rows(T, dies_at, x) and landed_rows(T, dies_at - 1, x)


def landed_rows(T, k, x):
    """The rows the sources of x land on at time k, by the n-fold oracle
    on x's exact copy."""
    return set(nfold_apply(T, k, in_mode(x, Mode.EXACT)).support)


def reference_greedy_attempt(T, x, y, d_val, eps, k, norm_tag, budget, mode):
    """_greedy_attempt as it stood before the search's row table: every
    row where the image misses y forms its source and product afresh with
    reference_path_source and reference_path_product; the row rule is the
    same."""
    if not budget.try_spend():
        return None
    try:
        image0 = apply_power(T, k, x)
    except NumericOverflow:
        return _Attempt(False, None, None, math.inf, math.inf)
    rows = []
    zero = scalar_zero(image0.mode)
    for j in sorted(set(y.support) | set(image0.support)):
        target, image = y._entries.get(j, zero), image0._entries.get(j, zero)
        if target == image:
            continue
        s = reference_path_source(T, j, k)
        rows.append((j, target - image, s, None if s is None else reference_path_product(T, j, k)))
    delta_entries, uncorrected, feasible = {}, [], True
    if norm_tag is NormTag.PINF:
        for _, m, s, wp in rows:
            if s is not None:
                u = limit_sets._div_by_product(m, wp, mode)
                u_abs = limit_sets._magnitude(u)
                if strict_gt(eps, u_abs, mode):
                    delta_entries[s] = u
                    continue
            m_abs = limit_sets._magnitude(m)
            if strict_gt(d_val, m_abs, mode):
                uncorrected.append(to_float(m_abs))
                continue
            if s is not None:
                lo, hi = 1 - d_val / m_abs, eps / u_abs
                if lo < hi:
                    t = (lo + hi) / 2
                    delta_entries[s] = u * make_scalar(t, mode)
                    uncorrected.append(to_float((1 - t) * m_abs))
                    continue
            feasible = False
            uncorrected.append(to_float(m_abs))
    else:
        fixable = []
        for j, m, s, wp in rows:
            m_f = math.sqrt(to_float(abs2(m)))
            if s is None:
                uncorrected.append(m_f)
                continue
            u = limit_sets._div_by_product(m, wp, mode)
            fixable.append((to_float(limit_sets._magnitude(u)), m_f, j, u, s))
        fixable.sort(key=lambda r: (r[0], r[2]))
        eps_f, p2 = to_float(eps), norm_tag is NormTag.P2
        budget_total = (eps_f * limit_sets._THETA) ** 2 if p2 else eps_f * limit_sets._THETA
        spent = 0.0
        for cost, m_f, _, u, s in fixable:
            add = cost * cost if p2 else cost
            if spent + add <= budget_total:
                delta_entries[s] = u
                spent += add
            else:
                uncorrected.append(m_f)
    delta = SeqVector(x.index_set, delta_entries, mode)
    delta_r, delta_ok = dist_and_lt(delta, SeqVector.zero(x.index_set, mode), norm_tag, eps)
    delta_norm = to_float(delta_r)
    if norm_tag is NormTag.PINF:
        residual_est = max(uncorrected, default=0.0)
    elif norm_tag is NormTag.P2:
        residual_est = math.sqrt(sum(t * t for t in uncorrected))
    else:
        residual_est = sum(uncorrected)
    if not feasible or not delta_ok:
        return _Attempt(False, None, None, delta_norm, residual_est)
    if not budget.try_spend():
        return None
    perturbed = x + delta
    try:
        image = apply_power(T, k, perturbed)
    except NumericOverflow:
        return _Attempt(False, None, None, delta_norm, math.inf)
    r, ok = dist_and_lt(image, y, norm_tag, d_val)
    return _Attempt(ok, perturbed if ok else None, r if ok else None, delta_norm,
                    to_float(r))


def compared_attempt(search, eps, k):
    """_greedy_attempt, after checking that it gives what
    reference_greedy_attempt gives from the same budget state."""
    budget = search.budget
    ref = Budget(budget.limit)
    ref.used = budget.used
    args = (search.T, search.x, search.y, search.d_val, eps, k, search.norm_tag)
    want = reference_greedy_attempt(*args, ref, search.mode), ref.used
    got = _greedy_attempt(search, eps, k), budget.used
    assert got == want
    return got[0]


def in_mode(v, mode, turn=None):
    """v in mode, with the entry at index turn (if any) times 1 + i."""
    return SeqVector.from_entries(v.index_set, {
        i: u * QC(1, 1) if i == turn else u for i, u in v.items()}, mode)


def riesz_operator():
    """riesz-blocks' shape: sources above 0 die at the band's floor."""
    return ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
        Block(Band(0, None), "backward", Constant(Fraction(1, 2))),
        Block(Band(None, -1), "backward", Constant(2))))


class TestGreedyAttempt:
    """Every attempt reads its rows from the search's one row table and
    gives the attempt that rows formed afresh at each time gave."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), norm_tag=st.sampled_from(list(NormTag)),
           mode=st.sampled_from(list(Mode)), turn=st.booleans(),
           near=st.sampled_from([None, 0, Fraction(1, 8), Fraction(1, 2)]),
           start=st.integers(1, 6), m=st.integers(1, 5), d=radii, eps=radii,
           budget=st.sampled_from([0, 1, 2, 2, 2, 2]))
    def test_matches_rows_formed_afresh(self, seed, norm_tag, mode, turn, near, start, m,
                                        d, eps, budget):
        # times start..start+m-1, then a jmix restart at start + 1, a time
        # that is not the next one; the operators' sources leave their
        # bands, and -3 and 4 lie in no band, where x is refused before
        # any attempt
        rng = random.Random(seed)
        T = random_operator(rng)
        x, y = vector_for(rng, T, -9, 9), vector_for(rng, T, -9, 9)
        if near is not None:
            try:
                y = apply_power(T, start, x) + y.scale(near)
            except IndexSetMismatch:
                pass
        x = in_mode(x, mode)
        y = in_mode(y, mode, rng.choice(y.support) if turn and not y.is_zero else None)
        d_val, eps_val = real_value(d, mode), real_value(eps, mode)
        if outside_domain(T, x):
            with pytest.raises(IndexSetMismatch):
                search_log(T, x, y, d_val, eps, Budget(budget), norm_tag)
            return
        search = search_log(T, x, y, d_val, eps, Budget(budget), norm_tag)
        for k in [*range(start, start + m), *range(start + 1, start + 1 + m)]:
            search.budget = Budget(budget)
            compared_attempt(search, eps_val, k)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
    def test_searches_match_rows_formed_afresh(self, monkeypatch, mode, norm_tag):
        # a search on riesz-blocks' shape, from an x whose sources die after
        # 1 and 5 steps, to a target with one complex entry
        times = []

        def attempt(*args):
            times.append(args[2])
            return compared_attempt(*args)

        monkeypatch.setattr(limit_sets, "_greedy_attempt", attempt)
        T = riesz_operator()
        x = in_mode(ei(0) + ei(4, Fraction(1, 3)), mode)
        y = in_mode(SeqVector.from_entries(IndexSet.INTEGERS, {
            2: Fraction(1, 4), 5: Fraction(-1, 3), -50: 7, -43: -3}), mode, -43)
        w = search_j_witness(T, x, y, 1, EpsSchedule.reciprocal(5), 20_000,
                             norm_tag=norm_tag)
        assert times[-1] == w.times[-1] and len(times) > 6
        # jmix from 0 under the unweighted shift: the row 0 of y, with
        # |y_0| = 4/5 at d = 1/2, is fixed at eps = 1 in every norm, but not
        # at eps = 1/2 (p1, p2) or 1/4 (p∞), so every block fails part way
        # and the next starts at a time already tried
        times.clear()
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(1))
        y = in_mode(ei(0, Fraction(4, 5)) + ei(3, Fraction(1, 20)), mode, 3)
        with pytest.raises(SearchFailed):
            jmix_witness(T, SeqVector.zero(IndexSet.INTEGERS, mode), y, Fraction(1, 2),
                         4, 1, 100, norm_tag=norm_tag)
        assert any(b <= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
    def test_dead_x_applies_no_power_for_its_image(self, monkeypatch, mode, norm_tag):
        # e_0 has no path left from k = 1 on under riesz-blocks' operator, so
        # an attempt applies a power only to its perturbed point, and every
        # field is what the composition with apply_power for T^k x gives
        T = riesz_operator()
        x = in_mode(ei(0), mode)
        y = in_mode(SeqVector.from_entries(IndexSet.INTEGERS, {
            3: Fraction(1, 4), 6: Fraction(-1, 8), -50: 7}), mode, 6)
        d_val, eps_val = real_value(Fraction(1, 2), mode), real_value(1, mode)
        applied = []
        monkeypatch.setattr(limit_sets, "apply_power",
                            lambda T, k, v: applied.append(v) or apply_power(T, k, v))
        search, checked = search_log(T, x, y, d_val, 1, Budget(2), norm_tag), 0
        for k in range(1, 9):
            applied.clear()
            search.budget = budget = Budget(2)
            got = _greedy_attempt(search, eps_val, k)
            want = reference_greedy_attempt(T, x, y, d_val, eps_val, k, norm_tag, Budget(2),
                                            mode)
            assert [getattr(got, f.name) for f in dataclasses.fields(_Attempt)] == \
                [getattr(want, f.name) for f in dataclasses.fields(_Attempt)]
            assert len(applied) == budget.used - 1 and x not in applied
            checked += len(applied)
        assert checked


LANDING_WEIGHTS = [2, Fraction(1, 3), Fraction(-7, 5), (1, 1), (0, Fraction(1, 2)),
                   2 ** 700, Fraction(1, 2 ** 600)]
LANDING_ENTRIES = [1, Fraction(-5, 3), (2, -1), (0, Fraction(1, 3)), 10 ** 300,
                   Fraction(1, 10 ** 300)]


def landing_or_error(call):
    """call()'s entries by row, a float one as the exact bits of its parts,
    or the type and message of the NumericOverflow it raised."""
    try:
        return {t: (e.real.hex(), e.imag.hex()) if isinstance(e, complex) else e
                for t, e in call().items()}
    except NumericOverflow as exc:
        return type(exc), str(exc)


def random_operators():
    """random_operator's shapes, and every shape over LANDING_WEIGHTS, whose
    float products pass 2^900 and fall below double range."""
    return st.integers(0, 2 ** 32 - 1).map(lambda seed: random_operator(random.Random(seed))) \
        | shift_operators(LANDING_WEIGHTS)


def entries_over(index_set, raw, mode):
    return SeqVector.from_entries(
        index_set, {i: v for i, v in raw.items() if index_set.contains(i)}, mode)


def run_times(runs):
    """Each run (k, n, again) as k, ..., k + n, then k + n again if again."""
    return [t for k, n, again in runs for t in [*range(k, k + n + 1), *[k + n] * again]]


DOUBLING_PAST_POLICY = dict(
    T=ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(2)),
    mode=Mode.FLOAT64, other_set=1, x_raw={0: 2 ** 500}, y_raw={-401: 1},
    runs=[(400, 1, False)])


@settings(max_examples=300, deadline=None)
@given(T=random_operators(), mode=st.sampled_from(list(Mode)), other_set=st.integers(0, 9),
       x_raw=st.dictionaries(st.integers(-12, 13), st.sampled_from(LANDING_ENTRIES),
                             max_size=5),
       y_raw=st.dictionaries(st.integers(-12, 13), st.sampled_from(LANDING_ENTRIES),
                             max_size=5),
       runs=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 6), st.booleans()),
                     min_size=1, max_size=4))
@example(**DOUBLING_PAST_POLICY)  # 2^500 e_0 passes 2^900 at k = 401
def test_table_rows_are_paths_and_landings(T, mode, other_set, x_raw, y_raw, runs):
    # times that run on (rows of y stepped), repeat and jump back (formed
    # afresh), past band exits and gaps, and now and then x over the other
    # index set: every row of supp y and T^k(supp x) is its
    # (reference_path_source, reference_path_product), x's lanes are listed
    # once, and the rows x lands on land T^k x entry for entry, the same double
    # in float mode (an entry that underflowed to zero is one apply_power
    # drops), or raise apply_power's error.  x outside T's domain is
    # refused before any row is formed, where apply_power raises
    index_set = T.index_set
    if other_set == 0:
        index_set = IndexSet.NATURALS if index_set is IndexSet.INTEGERS else IndexSet.INTEGERS
    x, y = entries_over(index_set, x_raw, mode), entries_over(T.index_set, y_raw, mode)
    if outside_domain(T, x):
        with pytest.raises(IndexSetMismatch):
            search_log(T, x, y, 1, 1, Budget(2))
        for k in run_times(runs):
            with pytest.raises(IndexSetMismatch):
                apply_power(T, k, x)
        return
    search, overflowed = search_log(T, x, y, 1, 1, Budget(2)), False
    lanes = search.lanes
    for k in run_times(runs):
        want = landing_or_error(lambda: apply_power(T, k, x)._entries)
        table = search.table(k)
        assert search.lanes is lanes
        landed = landed_rows(T, k, x)
        assert set(table) == set(y.support) | landed
        for j, (s, w, lane, v) in table.items():
            assert (s, w) == (reference_path_source(T, j, k), reference_path_product(T, j, k))
            assert (lane is None, v is None) == (j not in landed,) * 2
            assert lane is None or (lane.s, v) == (s, x._entries[s])
        # in source order, as apply_power lands them
        sources = sorted((s, w, lane, v) for s, w, lane, v in table.values() if lane)
        got = landing_or_error(lambda: {s + lane.step * k: e for s, w, lane, v in sources
                                        if (e := lane.entry(k, v, w))})
        assert got == want
        if isinstance(got, tuple):  # an attempt meets the overflow and gives up at k
            search.budget = Budget(2)
            assert _greedy_attempt(search, real_value(1, mode), k) == \
                _Attempt(False, None, None, math.inf, math.inf)
            overflowed = True
    if T is DOUBLING_PAST_POLICY["T"]:
        assert overflowed


@settings(max_examples=300, deadline=None)
@given(T=shift_operators(LANDING_WEIGHTS), mode=st.sampled_from(list(Mode)),
       other_set=st.integers(0, 9), k=st.integers(1, 40),
       raw=st.dictionaries(st.integers(0, 13), st.sampled_from(LANDING_ENTRIES), max_size=5))
def test_landed_rows_are_apply_powers_entries(T, mode, other_set, k, raw):
    # every shape, band exits and gaps, float products past 2^900 and below
    # double range, and now and then x over the other index set: the rows
    # of table(k) x lands on land T^k x entry for entry, the same double in
    # float mode (an entry that underflowed to zero is one apply_power
    # drops), each with its source and exact product, or the same error;
    # x outside T's domain is refused before any row, as apply_power
    # refuses it
    index_set = T.index_set
    if other_set == 0:
        index_set = IndexSet.NATURALS if index_set is IndexSet.INTEGERS else IndexSet.INTEGERS
    x, y = SeqVector.from_entries(index_set, raw, mode), SeqVector.zero(T.index_set, mode)
    if outside_domain(T, x):
        with pytest.raises(IndexSetMismatch):
            search_log(T, x, y, 1, 1, Budget(2))
        with pytest.raises(IndexSetMismatch):
            apply_power(T, k, x)
        return
    search = search_log(T, x, y, 1, 1, Budget(2))

    def landed():
        out = {}
        for t, (s, w, lane, v) in sorted(search.table(k).items(), key=lambda r: r[1][0]):
            assert lane is not None and (lane.s, v) == (s, x._entries[s])
            assert s == reference_path_source(T, t, k) and w == reference_path_product(T, t, k)
            if e := lane.entry(k, v, w):
                out[t] = e
        return out

    want = landing_or_error(lambda: apply_power(T, k, x)._entries)
    for _ in range(2):  # the lanes listed once give it again
        assert landing_or_error(landed) == want


def test_float_landing_past_policy_overflows_both_ways():
    # 2^500 e_0 under the doubling shift passes 2^900 at k = 401
    T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(2))
    x = ei(0, 2 ** 500, Mode.FLOAT64)
    y = ei(-401, 1, Mode.FLOAT64)
    search = search_log(T, x, y, 1, 1, Budget(2))

    def x_row(k):
        (_, w, lane, v), = (row for row in search.table(k).values() if row[2])
        return lane, v, w

    lane, v, w = x_row(400)
    assert lane.entry(400, v, w) == apply_power(T, 400, x).entry(-400)
    message = r"^T\^401 entry at -401 has magnitude past 2\^900$"
    with pytest.raises(NumericOverflow, match=message):
        apply_power(T, 401, x)
    lane, v, w = x_row(401)
    with pytest.raises(NumericOverflow, match=message):
        lane.entry(401, v, w)
    assert _greedy_attempt(search, 1.0, 401) == _Attempt(False, None, None, math.inf, math.inf)


def test_a_partly_corrected_row_sets_the_float_residual():
    # the bilateral backward Constant(1) in float mode, x = 0,
    # y = (3/2 - 1e-9) e_0, d = 1, eps = 1/2 and k = 1: the one row has
    # |m| < d + |W| eps, so it passes the screen and is partly corrected
    # at the midpoint t, and delta_0 = t m = 1/2 - 5e-10 then fails the
    # strict float check by less than TOL_EQ.  No row is infeasible, so
    # the residual the attempt reports, (1 - t) |m|, is that row's
    T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(1))
    x, y = SeqVector.zero(IndexSet.INTEGERS, Mode.FLOAT64), ei(0, 1.5 - 1e-9, Mode.FLOAT64)
    search = search_log(T, x, y, 1, Fraction(1, 2), Budget(2))
    got = _greedy_attempt(search, 0.5, 1)
    assert (got.ok, got.perturbed, got.dist, search.budget.used) == (False, None, None, 1)
    assert 0.5 - TOL_EQ < got.delta_norm < 0.5
    assert math.isclose(got.delta_norm, 0.4999999995, rel_tol=1e-12)
    assert math.isclose(got.residual, 0.9999999995, rel_tol=1e-12)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
def test_a_shared_row_forms_one_product_per_attempt(monkeypatch, mode, norm_tag):
    # x's diagonal source at 12 lands on y's row 12 at every time, and its
    # source at 4 on y's row 2 at time 2, then leaves its band [0, 9] after
    # 4 steps.  The first attempt forms one product per row of y a path
    # reaches and one per row only x lands on; each later attempt steps the
    # rows of y and forms one per row only x lands on, none from time 5 on.
    # A shared row takes y's product.  x's lanes are listed once and no
    # power is applied to x; the integer attempt applies none at all
    T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=(
        Block(Band(None, -1), "backward", Constant(2)),
        Block(Band(0, 9), "backward", Constant(Fraction(1, 2))),
        Block(Band(10, None), "diagonal", Constant(1))))
    x = in_mode(ei(4, Fraction(1, 3)) + ei(12), mode)
    y = in_mode(SeqVector.from_entries(IndexSet.INTEGERS, {
        2: Fraction(1, 4), 12: 1, -50: 7, -43: -3}), mode)
    counts = dict.fromkeys(["products", "powers", "lanes"], 0)
    applied = []

    def power(T, k, v):  # the products a power forms are counted apart
        applied.append(v)
        before = counts["products"]
        out = apply_power(T, k, v)
        counts["products"], counts["powers"] = before, counts["powers"] + 1
        return out

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(WeightRule, "product_exact",
                        counted("products", WeightRule.product_exact))
    monkeypatch.setattr(limit_sets, "_lanes", counted("lanes", limit_sets._lanes))
    monkeypatch.setattr(limit_sets, "apply_power", power)
    attempts = []

    def attempt(*args, _attempt=limit_sets._SearchLog.attempt):
        before = dict(counts)
        out = _attempt(*args)
        attempts.append((args[2], {n: counts[n] - before[n] for n in counts}))
        return out

    monkeypatch.setattr(limit_sets._SearchLog, "attempt", attempt)
    w = search_j_witness(T, x, y, 1, EpsSchedule.reciprocal(5), 20_000, norm_tag=norm_tag)
    monkeypatch.undo()
    assert counts["lanes"] == 1
    assert all(v is not x for v in applied)
    assert [k for k, _ in attempts] == list(range(1, len(attempts) + 1))
    assert len(attempts) > 5 and w.times[-1] == len(attempts)
    for k, used in attempts:
        only_x = landed_rows(T, k, x) - set(y.support)
        formed = sum(reference_path_source(T, j, k) is not None for j in y.support) \
            if k == 1 else 0
        assert used["products"] == formed + len(only_x)
        assert used["powers"] <= (0 if mode is Mode.EXACT and norm_tag is NormTag.PINF else 1)
        if k >= 5:
            assert used["products"] == 0
    assert landed_rows(T, 2, x) == {2, 12}


def tail_proof(T, x, y, d, eps, k):
    return search_log(T, x, y, d, eps, Budget(0)).stops._tail_proof(k)


weights_at_least_one = st.fractions(min_value=1, max_value=3, max_denominator=4) | \
    st.fractions(min_value=-3, max_value=-1, max_denominator=4)


class TestTailBound:
    """tail-bound: |W| (|x_s| - eps) >= d on a row that has left supp y
    along weights of modulus >= 1 rules out every later time."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), forward=st.booleans(),
           piecewise=st.booleans(), a=weights_at_least_one,
           b=weights_at_least_one, d=radii, eps=radii)
    def test_no_time_from_k0_on_is_feasible(self, seed, forward, piecewise,
                                           a, b, d, eps):
        rng = random.Random(seed)
        T = ShiftOperator(Shape.BILATERAL_FORWARD if forward
                          else Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          PiecewiseTwoSided(a, b) if piecewise else Constant(a))
        x = random_vector(rng, IndexSet.INTEGERS, -6, 6)
        y = random_vector(rng, IndexSet.INTEGERS, -6, 6)
        k0 = next((k for k in range(1, 30)
                   if tail_proof(T, x, y, d, eps, k) is not None), None)
        if k0 is None:
            return
        for k in range(k0, k0 + 31):
            assert not sup_projection_feasible(T, x, y, d, eps, k)

    def test_prop32_quarter_tolerance_proof(self):
        # the bound holds as soon as the row -k leaves supp y: |W| = 1 there
        proof = tail_proof(prop32_operator(), ei(0), ei(-3, 2), Fraction(1, 4),
                           Fraction(1, 5), 4)
        assert proof == {"k0": 4, "eps": "1/5", "coordinate": -4,
                         "inequality": "|W|*(|x_0| - eps) >= d with |W|^2 = 1, "
                                       "|x_0|^2 = 1, d = 1/4"}
        assert tail_proof(prop32_operator(), ei(0), ei(-3, 2), Fraction(1, 4),
                          Fraction(1, 5), 3) is None

    @pytest.mark.parametrize("search", ["j", "jmix"])
    def test_search_ends_with_the_proof(self, search):
        T = prop32_operator()
        with pytest.raises(SearchFailed) as info:
            if search == "j":
                search_j_witness(T, ei(0), ei(0, 5), Fraction(1, 4),
                                 EpsSchedule.reciprocal(5), budget=1)
            else:
                jmix_witness(T, ei(0), ei(0, 5), Fraction(1, 4), 5, 1, 1)
        assert info.value.reason == "tail-bound"
        assert info.value.budget_used == 0
        assert info.value.proof == {
            "k0": 1, "eps": "1/5", "coordinate": -1,
            "inequality": "|W|*(|x_0| - eps) >= d with |W|^2 = 1, "
                          "|x_0|^2 = 1, d = 1/4"}
        assert info.value.diagnostics()["proof"] == info.value.proof

    def test_no_proof_when_a_weight_is_below_one(self):
        # on the non-positive side the path product 2^-k shrinks, so the
        # bound that holds at k = 1 is no proof: T^k e_0 -> 0 reaches y later
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          PiecewiseTwoSided(2, Fraction(1, 2)))
        d, eps = Fraction(1, 4), Fraction(1, 5)
        assert Fraction(1, 2) * (1 - eps) >= d  # |W| (|x_0| - eps) at k = 1
        assert all(tail_proof(T, ei(0), ei(0), d, eps, k) is None
                   for k in range(1, 40))
        assert not sup_projection_feasible(T, ei(0), ei(0), d, eps, 1)
        assert any(sup_projection_feasible(T, ei(0), ei(0), d, eps, k)
                   for k in range(2, 10))
        w = search_j_witness(T, ei(0), ei(0), d, EpsSchedule.reciprocal(5), 10_000)
        w.verify(T)

    def test_complex_entries_compare_through_abs2(self):
        # |x_0| = 1/2 and a unit-modulus complex weight: the bound holds
        # with equality, 1 * (1/2 - 1/4) = 1/4, and fails for a larger d
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          Constant(QC(Fraction(3, 5), Fraction(4, 5))))
        x = ei(0, QC(Fraction(3, 10), Fraction(2, 5)))
        zero = SeqVector.zero(IndexSet.INTEGERS)
        eps = Fraction(1, 4)
        assert tail_proof(T, x, zero, Fraction(1, 4), eps, 1) is not None
        assert tail_proof(T, x, zero, Fraction(251, 1000), eps, 1) is None
        # weight 1 + i: |W| = 2^(k/2) is irrational at odd k, and
        # |W| (1 - 1/2) >= 1 first holds at k = 2
        T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                          Constant(QC(Fraction(1), Fraction(1))))
        assert tail_proof(T, ei(0), zero, 1, Fraction(1, 2), 1) is None
        assert tail_proof(T, ei(0), zero, 1, Fraction(1, 2), 2)["k0"] == 2


contractions = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(7, 8),
                            max_denominator=8)


def decay_or_collapse(T, x, y, d, eps, norm_tag):
    """The (reason, k0, proof) of each decay or collapse stop that holds."""
    return search_log(T, x, y, d, eps, Budget(0), norm_tag).stops.proved


def stop_operator(shape, expanding, a, b, piecewise, rotate=False):
    """A shift whose weights are a and b (or their inverses), all of modulus
    below 1 or all above; rotate turns them by the unit phase (3 + 4i)/5."""
    a, b = (1 / a, 1 / b) if expanding else (a, b)
    if rotate:
        a, b = QC(a * Fraction(3, 5), a * Fraction(4, 5)), QC(b * Fraction(3, 5),
                                                             b * Fraction(4, 5))
    rule = PiecewiseTwoSided(a, b) if piecewise else Constant(a)
    if shape == "unilateral":
        return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, rule)
    return ShiftOperator({"backward": Shape.BILATERAL_BACKWARD,
                          "forward": Shape.BILATERAL_FORWARD,
                          "diagonal": Shape.DIAGONAL}[shape], IndexSet.INTEGERS, rule)


def recorded_bounds(proof):
    """name -> (relation, value) for each bound after "with" in the inequality."""
    out = {}
    for item in proof["inequality"].split(" with ")[1].split(", "):
        name, relation, value = item.split(" ")
        out[name] = (relation, Fraction(value))
    return out


class TestDecayCollapse:
    """decay-bound: S^k (||x|| + eps) <= ||y|| - d with S < 1; collapse-bound:
    I^k (||x|| - eps) >= ||y|| + d with I > 1 and nothing annihilated.  Each
    rules out every time from its k0 on."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), expanding=st.booleans(),
           shape=st.sampled_from(["backward", "forward", "diagonal", "unilateral"]),
           piecewise=st.booleans(), a=contractions, b=contractions, d=radii,
           eps=radii)
    def test_pinf_no_time_from_k0_on_is_feasible(self, seed, expanding, shape,
                                                piecewise, a, b, d, eps):
        rng = random.Random(seed)
        T = stop_operator(shape, expanding, a * rng.choice([1, -1]),
                          b * rng.choice([1, -1]), piecewise)
        x = vector_for(rng, T, -4, 4)
        y = vector_for(rng, T, -4, 4)
        for reason, k0, _ in decay_or_collapse(T, x, y, d, eps, NormTag.PINF):
            assert reason == ("collapse-bound" if expanding else "decay-bound")
            assert not (expanding and T.annihilates)
            if k0 > 20:
                continue
            for k in range(k0, k0 + 41):
                assert not sup_projection_feasible(T, x, y, d, eps, k)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), expanding=st.booleans(),
           shape=st.sampled_from(["backward", "forward", "diagonal", "unilateral"]),
           piecewise=st.booleans(), rotate=st.booleans(), a=contractions,
           b=contractions, d=radii, eps=radii,
           norm_tag=st.sampled_from([NormTag.P1, NormTag.P2]))
    def test_p1_p2_recorded_inequality_holds(self, seed, expanding, shape, piecewise,
                                             rotate, a, b, d, eps, norm_tag):
        rng = random.Random(seed)
        T = stop_operator(shape, expanding, a, b, piecewise, rotate)
        x = vector_for(rng, T, -4, 4)
        y = vector_for(rng, T, -4, 4)
        # the weights' |w|^2 and each vector's ||.||_1, or ||.||_2 squared
        w2 = [abs(a) ** 2, abs(b) ** 2] if piecewise else [abs(a) ** 2]
        if expanding:
            w2 = [1 / v for v in w2]
        p2 = norm_tag is NormTag.P2
        x_n = sum(v.re ** 2 if p2 else abs(v.re) for _, v in x.items())
        y_n = sum(v.re ** 2 if p2 else abs(v.re) for _, v in y.items())

        def at_most(lo, n):  # lo <= ||v|| with n = ||v||_1 or ||v||_2^2
            return lo <= 0 or (lo * lo <= n if p2 else lo <= n)

        def at_least(hi, n):  # hi >= ||v||
            return hi >= 0 and (hi * hi >= n if p2 else hi >= n)

        for reason, k0, proof in decay_or_collapse(T, x, y, d, eps, norm_tag):
            assert proof["k0"] == k0 and proof["eps"] == str(eps)
            bounds = recorded_bounds(proof)
            assert bounds["d"] == ("=", d)
            if reason == "decay-bound":
                assert not expanding
                s2, x_hi, y_lo = bounds["S^2"][1], bounds["||x||"], bounds["||y||"]
                assert s2 == max(w2) < 1
                assert x_hi[0] == "<=" and at_least(x_hi[1], x_n)
                assert y_lo[0] == ">=" and at_most(y_lo[1], y_n)
                gap, reach = y_lo[1] - d, x_hi[1] + eps
                assert gap >= 0 and gap ** 2 >= s2 ** k0 * reach ** 2
                assert k0 == 1 or gap ** 2 < s2 ** (k0 - 1) * reach ** 2
            else:
                assert reason == "collapse-bound" and expanding
                assert not T.annihilates
                i2, x_lo, y_hi = bounds["I^2"][1], bounds["||x||"], bounds["||y||"]
                assert i2 == min(w2) > 1
                assert x_lo[0] == ">=" and at_most(x_lo[1], x_n)
                assert y_hi[0] == "<=" and at_least(y_hi[1], y_n)
                core, need = x_lo[1] - eps, y_hi[1] + d
                assert core > 0 and i2 ** k0 * core ** 2 >= need ** 2
                assert k0 == 1 or i2 ** (k0 - 1) * core ** 2 < need ** 2


class TestJMix:
    def test_doubling_consecutive_block(self):
        T = doubling()
        w = jmix_witness(T, SeqVector.zero(IndexSet.NATURALS), en(0),
                         Fraction(1, 4), 10, 1, 10_000)
        assert w.mix_flag
        assert w.times == tuple(range(w.times[0], w.times[0] + 10))
        for t in w.triples:
            assert t.perturbed == en(t.time, Fraction(1, 2) ** t.time)
            assert t.dist == 0

    def test_expanding_diagonal_from_nonzero_fails_all_budgets(self):
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(3))
        y = random_vector(random.Random(8), IndexSet.INTEGERS, -3, 3)
        for budget in (1_000, 10_000, 100_000):
            with pytest.raises(SearchFailed):
                jmix_witness(T, ei(0), y, 1, 3, 1, budget)

    def test_single_time_block(self):
        T = doubling()
        w = jmix_witness(T, SeqVector.zero(IndexSet.NATURALS), en(2, 5),
                         Fraction(1, 2), 1, 1, 1_000)
        assert len(w.triples) == 1
        assert w.mix_flag


class TestDWitness:
    def test_orbit_branch_preferred(self):
        T = prop32_operator()
        dw = d_witness(T, ei(0), ei(-4), 1, 10, EpsSchedule.reciprocal(3), 1_000)
        assert dw.kind == "orbit"
        assert dw.coarse.time == 4

    def test_limit_branch_on_prop32(self):
        T = prop32_operator()
        dw = d_witness(T, ei(0), ei(3, 7), 2, 10, EpsSchedule.reciprocal(5),
                       100_000)
        assert dw.kind == "limit"
        dw.verify(T)

    def test_both_branches_fail_for_contraction_far_target(self):
        T = halving()
        with pytest.raises(SearchFailed):
            d_witness(T, en(0), en(0, 5), Fraction(1, 4),
                      20, EpsSchedule.reciprocal(3), 10_000)

    def test_union_structure_no_lost_witnesses(self):
        # whenever one dedicated branch succeeds, d_witness also succeeds
        rng = random.Random(31)
        for _ in range(25):
            T = prop32_operator()
            y = random_vector(rng, IndexSet.INTEGERS, -5, 5, bound=6)
            schedule = EpsSchedule.reciprocal(3)
            branch_ok = False
            from orbitscope import coarse_orbit_contains
            if coarse_orbit_contains(T, ei(0), 2, y, 15, NormTag.PINF):
                branch_ok = True
            else:
                try:
                    search_j_witness(T, ei(0), y, 2, schedule, 50_000)
                    branch_ok = True
                except SearchFailed:
                    pass
            if branch_ok:
                dw = d_witness(T, ei(0), y, 2, 15, schedule, 50_000)
                dw.verify(T)


class TestFamilyRescale:
    def build_family(self, exponents, m=3):
        T = doubling()
        zero = SeqVector.zero(IndexSet.NATURALS)
        y = en(0)
        family = []
        next_start = 1
        for k in exponents:
            t_k = Fraction(2) ** k
            w = jmix_witness(T, zero, y.scale(t_k), 1, m, next_start, 50_000)
            next_start = w.times[-1] + 1
            family.append((t_k, w))
        return T, family

    def test_reaches_small_tolerance(self):
        T, family = self.build_family(range(1, 13))
        result = rescale_j_witness_family(T, family, Fraction(1, 1000))
        out = result.witness
        d_over_tm = Fraction(1) / Fraction(2) ** result.scale_index
        assert d_over_tm < Fraction(1, 1000)
        for t in out.triples:
            assert t.dist < d_over_tm
        out.verify(T)
        assert out.mix_flag

    def test_checks_only_the_witness_it_returns(self, verify_calls):
        T, family = self.build_family(range(1, 13))
        verify_calls.clear()  # jmix_witness checked each member
        result = rescale_j_witness_family(T, family, Fraction(1, 1000))
        assert verify_calls == [result.witness]

    def test_tampered_member_reaching_the_output_is_rejected(self):
        # the members from 2^10 on reach the output at tolerance 1/1000; an
        # unperturbed zero base has image 0, far from 2^12 e_0
        T, family = self.build_family(range(1, 13))
        t, w = family[-1]
        zero = SeqVector.zero(IndexSet.NATURALS)
        bad = dataclasses.replace(w, triples=(
            dataclasses.replace(w.triples[0], perturbed=zero),) + w.triples[1:])
        with pytest.raises(VerificationFailed):
            rescale_j_witness_family(T, family[:-1] + [(t, bad)], Fraction(1, 1000))

    def test_reaching_scale_is_the_first_strictly_below(self):
        # d/t and radius/t must both fall strictly below target_eps; prop15
        # checks its parameters with the same rule
        eps = Fraction(1, 4)
        assert reaching_scale([(2, 1), (4, 1), (8, 1)], 1, eps) == 2
        assert reaching_scale([(2, 1), (4, 1), (8, 1)], Fraction(1, 8), eps) == 2
        assert reaching_scale([(2, Fraction(1, 4)), (8, 1)], Fraction(1, 4), eps) == 0
        assert reaching_scale([(2, 1), (4, 1)], 1, eps) is None
        assert reaching_scale([(8, 1)], 2, eps) is None

    def test_one_member_divides_by_its_scale(self):
        # a witness for 10 e_0 in J(0, T, 1) becomes one for e_0 at bound
        # 1/10; the schedule is the majorant of the radii 1, 1/2, 1/3 over 10
        T = doubling()
        w = search_j_witness(T, SeqVector.zero(IndexSet.NATURALS), en(0, 10), 1,
                             EpsSchedule.reciprocal(3), 10_000)
        out = rescale_j_witness_family(T, [(10, w)], Fraction(1, 9)).witness
        assert out.bound == Fraction(1, 10)
        assert out.target == en(0)
        assert all(t.dist == 0 for t in out.triples)
        assert out.schedule.values == (Fraction(3, 20), Fraction(1, 15), Fraction(1, 24))

    def test_minimal_family_when_tolerance_loose(self):
        T, family = self.build_family([1])
        result = rescale_j_witness_family(T, family, 1)
        assert result.scale_index == 1
        assert len(result.witness.triples) == 3

    def test_family_too_short(self):
        T, family = self.build_family([1, 2])
        with pytest.raises(OrbitscopeError):
            rescale_j_witness_family(T, family, Fraction(1, 1000))

    def test_scales_must_increase(self):
        T, family = self.build_family([1, 2])
        bad = [(family[0][0], family[0][1]), (family[0][0], family[1][1])]
        with pytest.raises(OrbitscopeError):
            rescale_j_witness_family(T, bad, Fraction(1, 2))


class TestProp22:
    def test_drifting_instance_bounds(self):
        T = prop32_operator()
        x = ei(0)
        y = ei(-20, Fraction(1, 2 ** 15))
        lam = Fraction(1, 2)
        cws = [make_coarse_witness(T, x, 1, y.scale(Fraction(2) ** n), 20,
                                   NormTag.PINF) for n in range(1, 11)]
        amp = prop22_amplify(T, x, y, 1, lam, cws)
        for pt in amp.points:
            assert 0 < to_float(pt.distance) <= 0.5 ** pt.n
            # exact linearity: distance is lam^n times the original gap
            assert pt.distance == (Fraction(1) - Fraction(2) ** (pt.n - 15)) \
                * Fraction(1, 2) ** pt.n

    def test_takes_its_witnesses_as_checked(self, verify_calls):
        T = prop32_operator()
        y = ei(-20, Fraction(1, 2 ** 15))
        cws = [make_coarse_witness(T, ei(0), 1, y.scale(Fraction(2) ** n), 20,
                                   NormTag.PINF) for n in range(1, 11)]
        amp = prop22_amplify(T, ei(0), y, 1, Fraction(1, 2), cws)
        assert len(amp.points) == 10
        assert verify_calls == []

    def test_recurrent_diagonal_instance(self):
        T = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(Fraction(1, 2)))
        x = ei(0)
        y = ei(0, Fraction(1, 2 ** 12))
        lam = Fraction(1, 2)
        cws = [make_coarse_witness(T, x, 1, y.scale(Fraction(2) ** n), 12 - n,
                                   NormTag.PINF) for n in range(1, 11)]
        amp = prop22_amplify(T, x, y, 1, lam, cws,
                             recurrence=([1], Fraction(1, 1000)))
        assert all(pt.distance == 0 for pt in amp.points)
        assert amp.recurrence_times == (1,)

    def test_lambda_must_be_in_unit_interval(self):
        T = prop32_operator()
        with pytest.raises(OrbitscopeError):
            prop22_amplify(T, ei(0), ei(0), 1, 0, [])
        with pytest.raises(OrbitscopeError):
            prop22_amplify(T, ei(0), ei(0), 1, 1, [])

    def test_float_mode_relative_check(self):
        T = prop32_operator()
        x = ei(0, mode=Mode.FLOAT64)
        y = ei(-20, 2.0 ** -15, mode=Mode.FLOAT64)
        cws = [make_coarse_witness(T, x, 1, y.scale(2.0 ** n), 20,
                                   NormTag.PINF) for n in range(1, 11)]
        amp = prop22_amplify(T, x, y, 1, Fraction(1, 2), cws)
        assert all(to_float(pt.distance) <= 0.5 ** pt.n for pt in amp.points)


def _family_with_bounds(d0, d1):
    T = doubling()
    zero = SeqVector.zero(IndexSet.NATURALS)
    w1 = jmix_witness(T, zero, en(0, 2), 1, 3, 1, 50_000)
    w2 = jmix_witness(T, zero, en(0, 4), 1, 3, w1.times[-1] + 1, 50_000)
    return lambda: rescale_j_witness_family(
        T, [(2, dataclasses.replace(w1, bound=d0)), (4, dataclasses.replace(w2, bound=d1))], 1)


def _amplification_with_bounds(d0, d1):
    T = prop32_operator()
    y = ei(-20, Fraction(1, 2 ** 15))
    cws = [make_coarse_witness(T, ei(0), d, y.scale(Fraction(2) ** n), 20,
                               NormTag.PINF) for n, d in ((1, d0), (2, d1))]
    return lambda: prop22_amplify(T, ei(0), y, d0, Fraction(1, 2), cws)


@pytest.mark.parametrize("build", [_family_with_bounds, _amplification_with_bounds],
                         ids=["family", "prop22"])
def test_same_bound_is_exact(build):
    # 1 + 2^-60 rounds to the double 1.0; in exact mode it is another bound
    build(1, 1)()
    with pytest.raises(OrbitscopeError, match="bound"):
        build(1, 1 + Fraction(1, 2 ** 60))()


class TestRemark32:
    def test_empty_family_rejected(self):
        with pytest.raises(InputNotAWitnessFamily):
            remark32_contradiction_check(prop32_operator(),
                                         SeqVector.zero(IndexSet.INTEGERS), [])

    def test_hand_built_family_rejected_by_image_check(self):
        # oracle: ||T^n e_0 - 0|| = 1 > 1/4, so the image precondition fails
        T = prop32_operator()
        for n in (1, 2, 3):
            assert norm(apply_power(T, n, ei(0)), NormTag.PINF) == 1
        family = [(ei(0), n) for n in (1, 2, 3)]
        with pytest.raises(InputNotAWitnessFamily) as info:
            remark32_contradiction_check(T, SeqVector.zero(IndexSet.INTEGERS),
                                         family)
        assert all(kind == "image" for _, kind, _ in info.value.failures)

    def test_perturbation_precondition_rejected(self):
        T = prop32_operator()
        family = [(ei(0, 2), 1), (ei(0, 2), 2)]
        with pytest.raises(InputNotAWitnessFamily) as info:
            remark32_contradiction_check(T, SeqVector.zero(IndexSet.INTEGERS),
                                         family)
        assert all(kind == "perturbation" for _, kind, _ in info.value.failures)

    def test_forced_searches_fail_or_contradict(self):
        T = prop32_operator()
        rng = random.Random(5150)
        schedule = EpsSchedule.reciprocal(5)
        for _ in range(5):
            y = random_vector(rng, IndexSet.INTEGERS, -8, 8, bound=8)
            try:
                w = search_j_witness(T, ei(0), y, Fraction(1, 4), schedule,
                                     1_000_000, stagnation_window=200)
            except SearchFailed:
                continue
            report = remark32_contradiction_check(
                T, y, [(t.perturbed, t.time) for t in w.triples])
            assert not (report.bound_near_one_holds and report.bound_near_zero_holds)

    def test_exhibition_on_synthetic_pair(self):
        # derivation helper run directly on claimed (unverified) data:
        # the two bounds it names cannot hold together
        w = SeqVector.from_entries(IndexSet.INTEGERS, {-5: Fraction(9, 10)})
        family = [(ei(0), 3), (ei(0), 5)]
        report = derive_remark32_bounds(w, family)
        assert report.coordinate == -5
        assert report.bound_near_one_holds
        assert not report.bound_near_zero_holds
        assert not (report.bound_near_one_holds and report.bound_near_zero_holds)


    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64])
    def test_bounds_decided_exactly_a_hair_past_one_half(self, mode):
        # exactly, |w - 1| = 1/2 - 10^-20 < 1/2; as a float, w is 0.5 itself,
        # on both boundaries
        w = SeqVector.from_entries(IndexSet.INTEGERS,
                                   {-2: Fraction(1, 2) + Fraction(1, 10 ** 20)}, mode)
        report = derive_remark32_bounds(w, [(ei(0), 1), (ei(0), 2)])
        assert report.coordinate == -2
        assert report.w_value == [0.5, 0.0]
        assert report.bound_near_one_holds is (mode is Mode.EXACT)
        assert report.bound_near_zero_holds is False

class TestWitnessIntegrity:
    def test_tampered_witness_fails_verification(self):
        T = prop32_operator()
        y = SeqVector.from_entries(IndexSet.INTEGERS, {-2: 3})
        w = search_j_witness(T, ei(0), y, 2, EpsSchedule.reciprocal(3), 10_000)
        tampered = JWitness(
            base=w.base, target=w.target.scale(7), bound=w.bound,
            norm_tag=w.norm_tag, schedule=w.schedule, triples=w.triples,
            mix_flag=w.mix_flag)
        with pytest.raises(VerificationFailed):
            tampered.verify(T)

    def test_exact_distance_must_match_exactly(self):
        # an exact distance must be the recomputed one: 3/4 off by one part
        # in 10^7 is refused
        T = prop32_operator()
        y = SeqVector.from_entries(IndexSet.INTEGERS, {-3: Fraction(1, 3), 2: 5})
        w = search_j_witness(T, ei(0), y, 1, EpsSchedule.reciprocal(2), 10_000)
        assert [t.dist for t in w.triples] == [0, Fraction(3, 4)]
        off = dataclasses.replace(w.triples[1], dist=Fraction(3, 4) * (1 + Fraction(1, 10 ** 7)))
        tampered = dataclasses.replace(w, triples=(w.triples[0], off))
        with pytest.raises(VerificationFailed, match="stored distance"):
            tampered.verify(T)

    def test_irrational_exact_distance_keeps_the_float_check(self):
        # exact p2 distances sqrt(3)/2 and sqrt(5)/4 are stored as floats;
        # scaled by 7/3 they still agree to 1e-6 relative
        T = halving()
        y = SeqVector.from_entries(IndexSet.NATURALS, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        w = search_j_witness(T, en(3), y, 1, EpsSchedule.reciprocal(2), 10_000,
                             norm_tag=NormTag.P2)
        assert all(type(t.dist) is float for t in w.triples)
        # a one-member family at scale 3/7 multiplies by 7/3 and checks the result
        scaled = rescale_j_witness_family(T, [(Fraction(3, 7), w)], 3).witness
        assert scaled.triples[0].dist == w.triples[0].dist * Fraction(7, 3)

    @pytest.mark.parametrize("search", ["search", "jmix"])
    def test_producer_check_is_live(self, monkeypatch, search):
        # an attempt that claims success with a perturbation outside eps
        # must not leave the function that builds the witness, whichever
        # attempt the search runs
        def claim(search, *args):
            x = search.x
            return _Attempt(True, x + SeqVector.basis(x.index_set, 7, 2), 0, 0.0, 0.0)
        monkeypatch.setattr(limit_sets, "_greedy_attempt", claim)
        monkeypatch.setattr(limit_sets, "_real_sup_attempt", claim)
        T = doubling()
        with pytest.raises(VerificationFailed, match="perturbation"):
            if search == "search":
                search_j_witness(T, en(1), en(0), 1, EpsSchedule.reciprocal(3), 100)
            else:
                jmix_witness(T, SeqVector.zero(IndexSet.NATURALS), en(0), 1, 3, 1, 100)

    def test_times_must_increase(self):
        T = prop32_operator()
        y = SeqVector.from_entries(IndexSet.INTEGERS, {-2: 3})
        w = search_j_witness(T, ei(0), y, 2, EpsSchedule.reciprocal(2), 10_000)
        with pytest.raises(OrbitscopeError):
            JWitness(base=w.base, target=w.target, bound=w.bound,
                     norm_tag=w.norm_tag, schedule=w.schedule,
                     triples=(w.triples[1], w.triples[0]), mix_flag=False)

    def test_decay_witness_uses_base_itself(self):
        # contracting shift: targets inside the ball are witnessed with
        # zero perturbation, the orbit alone decays into range
        T = halving()
        y = en(0, Fraction(1, 2))
        w = search_j_witness(T, en(1), y, 1, EpsSchedule.reciprocal(4), 10_000,
                             norm_tag=NormTag.P2)
        assert all(t.perturbed == en(1) for t in w.triples)
