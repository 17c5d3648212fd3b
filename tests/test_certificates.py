import dataclasses
import hashlib
import inspect
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from orbitscope import (
    EpsSchedule,
    IndexSet,
    NormTag,
    SeqVector,
    Shape,
    ShiftOperator,
    apply_power,
    certificates,
    d_witness,
    defaults,
)
from orbitscope.certificates import (
    CERTIFICATES,
    _params,
    _prop21_instance,
    aggregate_exit_status,
    bundle_digest,
    cert_prop15,
    cert_prop21,
    cert_prop22,
    cert_prop32,
    cert_prop36_contraction,
    cert_prop36_expansion,
    cert_riesz_blocks,
    run_all,
    write_bundle,
)
from orbitscope.errors import ConfigError, SearchFailed
from orbitscope.limit_sets import DWitness, FamilyRescaleResult, JWitness, JWitnessTriple
from orbitscope.numeric import Mode
from orbitscope.operators import Band, Block
from orbitscope.orbits import CoarseWitness

from conftest import points_in_ball_scan, random_rule, random_vector, reject_constant


SMALL_PROP32 = dict(sample_count=8, orbit_check_horizon=200,
                    forced_sample_count=3)


class TestProp32:
    def test_pass_at_reduced_scale(self):
        r = cert_prop32(seed=1, **SMALL_PROP32)
        assert r.verdict == "PASS"
        names = [s.name for s in r.sub_checks]
        assert names == ["orbit-sup-norm-flat", "synthesis-at-bound",
                         "quarter-tolerance-obstruction"]
        # every forced search ends in the exact tail proof
        forced = r.sub_checks[2]
        assert [res["reason"] for res in forced.details["results"]] == \
            ["tail-bound"] * 3
        assert all(res["proof"]["eps"] == "1/5"
                   for res in forced.details["results"])
        assert forced.note.startswith("3 of 3 targets proved")

    def test_fail_when_bound_below_carried_image(self):
        # the carried base image contributes exactly 1 to every residual,
        # so certificates at bound 1/2 cannot exist for generic targets
        r = cert_prop32(seed=1, d=Fraction(1, 2), **SMALL_PROP32)
        assert r.verdict == "FAIL"
        failing = {s.name: s.status for s in r.sub_checks}
        assert failing["synthesis-at-bound"] == "FAIL"

    def test_vacuous_sample(self):
        r = cert_prop32(seed=1, sample_count=0, orbit_check_horizon=100,
                        forced_sample_count=2)
        sub = {s.name: s for s in r.sub_checks}
        assert sub["synthesis-at-bound"].status == "PASS"
        assert "vacuous" in sub["synthesis-at-bound"].note

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            cert_prop32(seed=0, no_such_param=1)


class TestProp36:
    def test_contraction_pass(self):
        r = cert_prop36_contraction(seed=2, target_count=25, outside_count=8)
        assert r.verdict == "PASS"

    def test_contraction_budget_stop_is_indecisive(self):
        # one outside target stops on its budget rather than a proof, so
        # the closure sub-check cannot pass, as in prop36-expansion
        r = cert_prop36_contraction(seed=0, target_count=5, outside_count=3,
                                    outside_budget=1)
        closure = {s.name: s for s in r.sub_checks}["closure-bound-respected"]
        assert closure.details["proved"] == 2
        assert closure.details["failure_reasons"] == ["budget", "decay-bound"]
        assert closure.status == "INDECISIVE"
        assert r.verdict == "INDECISIVE"

    def test_contraction_hypothesis_gate(self):
        r = cert_prop36_contraction(weight=2, seed=0)
        assert r.verdict == "INDECISIVE"
        assert r.sub_checks[0].name == "radius-hypothesis"

    def test_expansion_pass(self):
        r = cert_prop36_expansion(seed=3, target_count=12)
        assert r.verdict == "PASS"
        sub = {s.name: s for s in r.sub_checks}
        assert sub["mix-from-zero-exact"].details["exact_hits"] == 12

    def test_expansion_short_budget_indecisive(self):
        # a budget stop proves nothing, so it never turns into a PASS
        r = cert_prop36_expansion(seed=3, target_count=4, nonzero_budget=1)
        sub = {s.name: s for s in r.sub_checks}
        nonzero = sub["no-certificate-from-nonzero"]
        assert nonzero.status == "INDECISIVE"
        assert [res["reason"] for res in nonzero.details["results"]] == ["budget"] * 3
        assert r.verdict == "INDECISIVE"

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64], ids=lambda m: m.value)
    def test_expansion_any_proof_counts(self, mode):
        # the first target leaves supp y at once and ends with tail-bound
        # before any attempt; the other two end with collapse-bound
        r = cert_prop36_expansion(seed=196304288, mode=mode, target_count=2,
                                  stagnation_window=100)
        assert r.verdict == "PASS"
        sub = {s.name: s for s in r.sub_checks}
        results = sub["no-certificate-from-nonzero"].details["results"]
        assert [res["reason"] for res in results] == \
            ["tail-bound", "collapse-bound", "collapse-bound"]
        assert results[0]["budget_used"] == 0
        assert sub["no-certificate-from-nonzero"].details["proved"] == 3

    def test_expansion_hypothesis_gate(self):
        r = cert_prop36_expansion(weight=Fraction(1, 2), seed=0)
        assert r.verdict == "INDECISIVE"


class TestRiesz:
    def test_pass_at_reduced_scale(self):
        r = cert_riesz_blocks(seed=4, sample_count=40,
                              lambda_ladder_exponents=tuple(range(1, 9)))
        assert r.verdict == "PASS"
        sub = {s.name: s for s in r.sub_checks}
        ratios = sub["lambda-ladder-ratio"].details["ratios"]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_unit_weight_block_indecisive(self):
        r = cert_riesz_blocks(seed=0, contract_weight=1, sample_count=1)
        assert r.verdict == "INDECISIVE"

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), norm_tag=st.sampled_from(list(NormTag)))
    def test_witnesses_decompose_by_band(self, seed, norm_tag):
        # the lemma behind witness-band-decomposition, in Fractions of the
        # test's own: each band's part of a d_witness witness for a random
        # two-block sum is a witness for that band's block
        rng = random.Random(seed)
        bands = (Band(rng.choice([None, -6]), -1), Band(0, rng.choice([None, 6])))
        blocks = tuple(Block(band, rng.choice(["backward", "forward", "diagonal"]),
                             random_rule(rng)) for band in bands)
        T = ShiftOperator(Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS, blocks=blocks)
        x = random_vector(rng, IndexSet.INTEGERS, -6, 6, bound=3, max_entries=3)
        noise = random_vector(rng, IndexSet.INTEGERS, -6, 6, bound=3, max_entries=3)
        y = apply_power(T, rng.randint(1, 5), x) + \
            noise.scale(Fraction(rng.choice([0, 1, 10]), 10))
        d = Fraction(rng.randint(1, 20), 10)
        try:
            dw = d_witness(T, x, y, d, rng.randint(0, 2), EpsSchedule.reciprocal(3), 600,
                           norm_tag=norm_tag)
        except SearchFailed:
            dw = None
        assume(dw is not None)
        event(dw.kind)
        if dw.kind == "orbit":
            triples = [(None, x, dw.coarse.time)]
        else:
            triples = [(eps, t.perturbed, t.time)
                       for eps, t in zip(dw.jwitness.schedule, dw.jwitness.triples)]
        for block in blocks:
            x_b, y_b = band_part(block.band, x), band_part(block.band, y)
            for eps, z, k in triples:
                z_b = band_part(block.band, z)
                if eps is not None:
                    assert norm_below(difference(z_b, x_b), norm_tag, eps)
                assert norm_below(difference(block_power(block, k, z_b), y_b),
                                  norm_tag, d)


def band_part(band, v):
    """The entries of exact real v inside band, as Fractions."""
    return {j: a.re for j, a in v.items()
            if (band.lo is None or band.lo <= j) and (band.hi is None or j <= band.hi)}


def block_power(block, k, z):
    """k single steps of one block on z, annihilating at the band's edge."""
    step = {"backward": -1, "forward": 1, "diagonal": 0}[block.kind]
    for _ in range(k):
        z = {j + step: block.weights.weight_at(j).re * a for j, a in z.items()}
        z = {j: a for j, a in z.items()
             if (block.band.lo is None or block.band.lo <= j)
             and (block.band.hi is None or j <= block.band.hi)}
    return z


def difference(a, b):
    return {j: a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()}


def norm_below(v, norm_tag, bound):
    """||v|| < bound for a dict of Fractions, decided exactly."""
    sizes = [abs(a) for a in v.values()]
    if norm_tag is NormTag.P1:
        return sum(sizes) < bound
    if norm_tag is NormTag.P2:
        return sum(a * a for a in sizes) < bound * bound
    return max(sizes, default=0) < bound


class TestProp15:
    def test_pass_and_bound(self):
        r = cert_prop15(seed=0)
        assert r.verdict == "PASS"
        sub = {s.name: s for s in r.sub_checks}
        assert sub["rescaled-certificate"].details["d_over_tm"] == "1/1024"
        assert sub["rescaled-certificate"].details["mix"] is True
        assert r.runtime_s < 10

    def test_loose_tolerance_minimal_family(self):
        r = cert_prop15(seed=0, target_eps=1, scale_exponents=(1, 2))
        assert r.verdict == "PASS"
        assert r.sub_checks[1].details["scale_index"] == 1


class TestProp21:
    def test_pass(self):
        r = cert_prop21(seed=5, sample_count=6)
        assert r.verdict == "PASS"
        sub = {s.name: s for s in r.sub_checks}
        assert sub["distinct-returns-grow"].details["counts"] == [1, 2, 4]

    def test_plateau_reported_not_applicable(self):
        r = cert_prop21(seed=5, sample_count=4, visit_times=(30,),
                        count_ladder=(100, 1000))
        sub = {s.name: s.status for s in r.sub_checks}
        assert sub["distinct-returns-grow"] == "NOT_APPLICABLE"
        assert r.verdict == "PASS"

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("ladder, counts, status, verdict", [
        ((300, 100, 100, 0, -4), [2, 1, 1, 0, 0], "NOT_APPLICABLE", "PASS"),
        ((1000, 30, 1000, 300), [2, 1, 2, 2], "NOT_APPLICABLE", "PASS"),
        ((0,), [0], "PASS", "INDECISIVE"),
        ((-1, 400), [0, 2], "PASS", "INDECISIVE"),
    ])
    def test_any_integer_ladder(self, mode, ladder, counts, status, verdict):
        # unsorted, repeated, zero and negative horizons, each counted as
        # its own scan from n = 0 would count it
        r = cert_prop21(seed=3, mode=mode, sample_count=2, visit_times=(30, 300),
                        count_ladder=ladder)
        sub = {s.name: s for s in r.sub_checks}
        assert sub["distinct-returns-grow"].details["counts"] == counts
        assert sub["distinct-returns-grow"].status == status
        assert r.verdict == verdict
        T, x, y_star = _prop21_instance(_params(defaults.PROP21, {
            "visit_times": (30, 300)}), mode)
        assert counts == [points_in_ball_scan(T, x, y_star, 3 * defaults.PROP21["d"],
                                              K, NormTag.PINF) for K in ladder]


class TestProp22:
    def test_pass_both_modes(self):
        r = cert_prop22(seed=0)
        assert r.verdict == "PASS"
        names = [s.name for s in r.sub_checks]
        assert "diagonal-recurrent-exact" in names
        assert "drift-amplification-float" in names

    def test_witness_construction_failure_is_a_failed_sub_check(self):
        # the farthest drift hit, 1 - 2^-14, lies 2^-40 below this d: exactly
        # a witness, so the inputs are accepted, but the float strictness
        # policy refuses it; that sub-check reports it instead of raising
        r = cert_prop22(seed=0, d=1 - Fraction(1, 2 ** 14) + Fraction(1, 2 ** 40))
        assert r.verdict == "FAIL"
        failed = [s for s in r.sub_checks if s.status == "FAIL"]
        assert [s.name for s in failed] == ["drift-amplification-float"]
        assert "does not satisfy the bound" in failed[0].note

    @pytest.mark.parametrize("params, name", [
        ({"lambda": "-1/2"}, "lambda"), ({"lambda": "1/4"}, "lambda"),
        ({"lambda": "3/4"}, "lambda"), ({"steps": 13}, "steps"),
        ({"drift_time": 5}, "drift_time"), ({"d": "1/4"}, "'d'"),
        ({"d": "1/2"}, "'d'"), ({"drift_target_scale_log2": 0}, "drift_target_scale_log2"),
    ])
    def test_inputs_its_instances_cannot_support_are_refused(self, params, name):
        # the suite's own recurrence and input witnesses are checked exactly
        # before amplifying; they failed as sub-checks before
        with pytest.raises(ConfigError, match=name):
            cert_prop22(seed=0, **params)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_no_steps_is_a_vacuous_pass(self, mode):
        r = cert_prop22(seed=0, mode=mode, steps=0)
        assert r.verdict == "PASS" and len(r.sub_checks) == 4
        assert all("vacuous" in s.note for s in r.sub_checks)


TINY = Fraction(1, 10 ** 400)  # positive, and 0.0 as a double


def _witness(x, y, dist, m=1):
    """A consecutive-time witness for y from x with every distance dist,
    built as a stand-in for a search's result, not checked."""
    return JWitness(x, y, Fraction(1), NormTag.PINF, EpsSchedule.reciprocal(m),
                    tuple(JWitnessTriple(x, k, dist) for k in range(1, m + 1)),
                    mix_flag=True)


class TestExactDecisions:
    """Each sampled sub-check decides on the value its builder returned.  A
    value TINY past a sub-check's edge rounds onto the edge as a double; in
    exact mode the status follows the exact value, on either side."""

    @pytest.mark.parametrize("side, status", [(1, "FAIL"), (-1, "PASS")])
    def test_witnessed_target_norm_against_the_closure(self, monkeypatch, side, status):
        y = SeqVector.basis(IndexSet.NATURALS, 0, Fraction(101, 100) + side * TINY)
        monkeypatch.setattr(certificates, "_ball_target", lambda *args, **kwargs: y)
        monkeypatch.setattr(certificates, "search_j_witness",
                            lambda T, x, y, *args, **kwargs: _witness(x, y, Fraction(0)))
        r = cert_prop36_contraction(target_count=1, outside_count=0)
        sub = {s.name: s for s in r.sub_checks}["witnessed-targets-bounded"]
        assert sub.status == status and sub.details["max_witnessed_norm"] == 1.01

    @pytest.mark.parametrize("side, status", [(1, "FAIL"), (-1, "PASS")])
    def test_contracting_component_against_the_orbit_bound(self, monkeypatch, side, status):
        # sup ||T1^n x1|| + d = 1 + 1
        y_a = SeqVector.basis(IndexSet.INTEGERS, 3, 2 + side * TINY)
        y_b = SeqVector.basis(IndexSet.INTEGERS, -50)
        monkeypatch.setattr(certificates, "_random_sparse",
                            lambda rng, index_set, lo, *args, **kwargs: y_a if lo == 0 else y_b)
        monkeypatch.setattr(certificates, "d_witness",
                            lambda *args, **kwargs: SimpleNamespace(to_jsonable=dict))
        r = cert_riesz_blocks(sample_count=1, lambda_ladder_exponents=[1])
        sub = {s.name: s for s in r.sub_checks}["contracting-band-bounded"]
        assert sub.status == status and sub.details == {"bound": 2.0, "max_component": 2.0}

    @pytest.mark.parametrize("side, status", [(-1, "FAIL"), (1, "PASS")])
    def test_ladder_factor_against_ratio_factor(self, monkeypatch, side, status):
        # a contracting component u in (1, 4) gives the ratios 1 at 2^0 and
        # u/4 at 2^2, so the factor 4/u = 2 + side TINY
        u = 4 / (2 + side * TINY)
        monkeypatch.setattr(certificates, "d_witness",
                            lambda *args, **kwargs: SimpleNamespace(to_jsonable=dict))
        r = cert_riesz_blocks(sample_count=0, lambda_ladder_exponents=[0, 2],
                              band_a_scale=u, ratio_factor=2)
        sub = {s.name: s for s in r.sub_checks}["lambda-ladder-ratio"]
        assert sub.status == status and sub.details == {"ratios": [1.0, 0.5],
                                                        "min_factor": 2.0}

    @pytest.mark.parametrize("radius, status", [(Fraction(1, 1000) - TINY, "PASS"),
                                                (Fraction(1, 1000), "FAIL")])
    def test_rescaled_radius_against_target_eps(self, monkeypatch, radius, status):
        def rescaled(T, family, target_eps):
            base = SeqVector.zero(IndexSet.NATURALS)
            w = _witness(base, SeqVector.basis(IndexSet.NATURALS, 0), Fraction(0))
            w = dataclasses.replace(w, triples=(JWitnessTriple(
                SeqVector.basis(IndexSet.NATURALS, 0, radius), 1, Fraction(0)),))
            return FamilyRescaleResult(w, 1, ())

        monkeypatch.setattr(certificates, "rescale_j_witness_family", rescaled)
        r = cert_prop15(target_eps=Fraction(1, 1000))
        assert {s.name: s.status for s in r.sub_checks}["rescaled-certificate"] == status

    @pytest.mark.parametrize("dist, status", [(TINY, "FAIL"), (Fraction(0), "PASS")])
    def test_mix_residual_against_zero(self, monkeypatch, dist, status):
        monkeypatch.setattr(certificates, "jmix_witness",
                            lambda T, x, y, d, m, *args, **kwargs: _witness(x, y, dist, m))
        r = cert_prop36_expansion(target_count=1, nonzero_budget=300,
                                  stagnation_window=50)
        assert {s.name: s.status for s in r.sub_checks}["mix-from-zero-exact"] == status

    @pytest.mark.parametrize("name, distance, status", [
        ("diagonal-recurrent", lambda pt: TINY, "FAIL"),
        ("drift-amplification", lambda pt: pt.bound + TINY, "FAIL"),
        ("drift-amplification", lambda pt: TINY, "PASS"),
    ], ids=["diagonal-tiny", "drift-past-bound", "drift-tiny"])
    def test_amplified_distances(self, monkeypatch, name, distance, status):
        amplify = certificates.prop22_amplify

        def moved(T, x, *args, **kwargs):
            amp = amplify(T, x, *args, **kwargs)
            if x.mode is Mode.EXACT and (T.label == "halving-diagonal") == \
                    (name == "diagonal-recurrent"):
                amp = dataclasses.replace(amp, points=tuple(
                    dataclasses.replace(pt, distance=distance(pt)) for pt in amp.points))
            return amp

        monkeypatch.setattr(certificates, "prop22_amplify", moved)
        statuses = {s.name: s.status for s in cert_prop22().sub_checks}
        assert statuses[f"{name}-exact"] == status
        assert statuses[f"{name}-float"] == "PASS"


def _stop(reason, proof=None):
    """A failed search, stopped for reason, with or without a proof."""
    return SearchFailed(f"stub {reason}", reason=reason, triple_index=0,
                        best_residual=math.inf, best_delta_norm=math.inf, attempts=1,
                        budget_used=1, k_last=1, proof=proof)


# what a stub builder returns or raises for a target named by its outcome
OUTCOMES = {"witness": "w", "proof": _stop("tail-bound", {"k0": 1}),
            "budget": _stop("budget"), "none": None}


def _stub_build(outcome):
    result = OUTCOMES[outcome]
    if isinstance(result, SearchFailed):
        raise result
    return result


CLAIM_CASES = [
    ("witness", None, True, "PASS", 0),
    ("witness", None, False, "FAIL", 0),
    ("witness", True, True, "PASS", 0),
    ("witness", True, False, "PASS", 0),
    ("witness", False, True, "FAIL", 0),
    ("witness", False, False, "FAIL", 0),
    ("proof", None, True, "FAIL", 1),
    ("proof", None, False, "PASS", 1),
    ("budget", None, True, "INDECISIVE", 0),
    ("budget", None, False, "INDECISIVE", 0),
    ("none", None, True, "INDECISIVE", 0),
    ("none", None, False, "INDECISIVE", 0),
    (None, None, True, "PASS", 0),
    (None, None, False, "PASS", 0),
]


@pytest.mark.parametrize("outcome, agrees, inside, status, proofs", CLAIM_CASES, ids=[
    f"{outcome or 'no-target'}{'' if agrees is None else '-agreeing' if agrees else '-disagreeing'}"
    f"-{'inside' if inside else 'outside'}" for outcome, agrees, inside, _, _ in CLAIM_CASES])
def test_one_rule_for_every_sampled_claim(outcome, agrees, inside, status, proofs):
    # a witness settles a claim inside J and refutes one outside, unless
    # agrees judges it (a residual not exactly 0 refutes, a contradicted
    # prop32 family settles); a proof settles a claim outside J and refutes
    # one inside; a budget stop or None settles nothing; no target (outcome
    # None) is a vacuous PASS
    targets = [] if outcome is None else [outcome]
    found, failed, proved, got = certificates._claim(
        targets, _stub_build, inside,
        agrees=None if agrees is None else lambda w: agrees)
    assert (got, proved) == (status, proofs)
    assert found == ([(0, "witness", "w")] if outcome == "witness" else [])
    assert [(idx, exc.reason) for idx, exc in failed] == \
        ([(0, OUTCOMES[outcome].reason)] if outcome in ("proof", "budget") else [])
    assert ("vacuous" in certificates._sampled("note", len(targets))) == (not targets)


class TestParameters:
    SUITES = [defaults.PROP32, defaults.PROP36_CONTRACTION,
              defaults.PROP36_EXPANSION, defaults.RIESZ, defaults.PROP15,
              defaults.PROP21, defaults.PROP22]

    def test_every_parameter_has_one_kind(self):
        names = [n for _, kind_names in defaults.KINDS.values() for n in kind_names]
        assert len(names) == len(set(names))
        assert set(names) == {n for suite in self.SUITES for n in suite}

    def test_defaults_fit_their_kinds(self):
        for suite in self.SUITES:
            assert _params(suite, suite) == suite

    def test_one_signature(self):
        for fn in CERTIFICATES.values():
            params = list(inspect.signature(fn).parameters.values())
            assert [(q.name, q.default) for q in params[:2]] == \
                [("seed", 0), ("mode", Mode.EXACT)]
            assert [(q.name, q.kind) for q in params[2:]] == \
                [("params", inspect.Parameter.VAR_KEYWORD)]

    def test_rational_string_parsed_once(self):
        p = _params(defaults.PROP21, {"d": "1/2", "noise_scale": 0.25})
        assert p["d"] == Fraction(1, 2) and isinstance(p["d"], Fraction)
        assert p["noise_scale"] == 0.25 and isinstance(p["noise_scale"], float)

    @pytest.mark.parametrize("key, value", [
        ("d", "1/0"), ("d", float("inf")), ("m_ladder_num_den", [[1, 2, 3]]),
        ("visit_times", []),
    ])
    def test_kind_mismatch_rejected(self, key, value):
        with pytest.raises(ConfigError):
            _params(defaults.PROP21, {key: value})

    @pytest.mark.parametrize("name, value", [
        ("d", 0), ("d", -1), ("d", "-1/2"), ("d", 0.0), ("forced_tolerance", 0),
        ("target_eps", "0"), ("inside_margin", -1), ("outside_margin", 0),
        ("band_b_window", [-40, -80]), ("band_b_window", (5, 4)),
        ("m_ladder_num_den", [[1, 0]]), ("m_ladder_num_den", [[1, 10], [3, 0]]),
        ("support_bound", -3), ("band_a_scale", 0), ("band_a_scale", "-1/2"),
        ("lambda", 0), ("lambda", 1), ("lambda", "-3/2"),
    ])
    def test_value_out_of_range_rejected(self, name, value):
        # checked before a suite runs: d <= 0 made prop36-contraction loop
        # forever, a reversed window or a zero denominator raised mid-run
        with pytest.raises(ConfigError):
            defaults.parse(name, value)

    @pytest.mark.parametrize("name, value, parsed", [
        ("d", "1/2", Fraction(1, 2)), ("d", 1e-9, 1e-9),
        ("band_b_window", [-40, -40], [-40, -40]),
        ("m_ladder_num_den", [[0, 1], [-1, -3]], [[0, 1], [-1, -3]]),
        ("support_bound", 0, 0), ("lambda", "-1/2", Fraction(-1, 2)),
    ])
    def test_edge_values_accepted(self, name, value, parsed):
        assert defaults.parse(name, value) == parsed


class TestSuite:
    def test_registry_names(self):
        assert set(CERTIFICATES) == {
            "prop32", "prop36-contraction", "prop36-expansion", "riesz-blocks",
            "prop15", "prop21", "prop22"}

    def test_unknown_certificate(self):
        with pytest.raises(ConfigError):
            run_all(["nope"], seed=0)

    def test_exit_status_mapping(self):
        class R:
            def __init__(self, v):
                self.verdict = v
        assert aggregate_exit_status([R("PASS"), R("PASS")]) == 0
        assert aggregate_exit_status([R("PASS"), R("INDECISIVE")]) == 4
        assert aggregate_exit_status([R("FAIL"), R("INDECISIVE")]) == 5

    def test_seed_changes_details_not_verdicts(self):
        a = cert_prop32(seed=11, **SMALL_PROP32)
        b = cert_prop32(seed=12, **SMALL_PROP32)
        assert a.verdict == b.verdict == "PASS"
        assert a.witnesses != b.witnesses

    def test_bundle_roundtrip_and_digest(self, tmp_path):
        reports = [cert_prop15(seed=0), cert_prop22(seed=0)]
        out = write_bundle(reports, tmp_path / "bundle")
        index = json.loads((out / "index.json").read_text())
        assert index["verdicts"] == {"prop15": "PASS", "prop22": "PASS"}
        assert index["exit_status"] == 0
        data = json.loads((out / "prop15.json").read_text())
        assert "timing" in data
        d1 = bundle_digest(out)
        reports2 = [cert_prop15(seed=0), cert_prop22(seed=0)]
        out2 = write_bundle(reports2, tmp_path / "bundle2")
        assert bundle_digest(out2) == d1


# Small sample sizes of a `certify all` run; every certificate and layer runs.
PINNED_SIZES = {
    "prop32": {"sample_count": 2, "forced_sample_count": 1, "orbit_check_horizon": 200},
    "riesz-blocks": {"sample_count": 10},
    "prop36-expansion": {"target_count": 2, "stagnation_window": 100},
    "prop36-contraction": {"target_count": 10, "outside_count": 3},
    "prop21": {"sample_count": 2, "visit_times": [30, 300, 1000],
               "count_ladder": [100, 300, 1000]},
}

# sha256 of bundle_digest; a change that alters report content on purpose
# updates these and says why
PINNED_DIGESTS = {
    Mode.EXACT: "558cbd22c3b4f521460f416af9dd6a07cf30d492285c84aabc954ad684823878",
    Mode.FLOAT64: "a315b60e89f1c046465b8bb2f1bbd0678dc4b003cefe6dda0ad6990385207249",
}


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64], ids=lambda m: m.value)
def test_bundle_is_standard_json(mode, tmp_path):
    # at seed 0 the third forced search is proved before any attempt, so it
    # reached no residual: null in the report, never the token Infinity
    sizes = {**PINNED_SIZES, "prop32": {**PINNED_SIZES["prop32"], "forced_sample_count": 3}}
    out = write_bundle(run_all(seed=0, mode=mode, overrides=sizes), tmp_path / "bundle")
    reports = {path.name: json.loads(path.read_text(), parse_constant=reject_constant)
               for path in sorted(out.glob("*.json"))}
    assert len(reports) == len(CERTIFICATES) + 1
    results = reports["prop32.json"]["sub_checks"][2]["details"]["results"]
    assert None in [r.get("best_residual", 0) for r in results]


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64], ids=lambda m: m.value)
def test_pinned_bundle_digest(mode, tmp_path):
    reports = run_all(seed=0, mode=mode, overrides=PINNED_SIZES)
    digest = bundle_digest(write_bundle(reports, tmp_path / "bundle"))
    assert hashlib.sha256(digest.encode()).hexdigest() == PINNED_DIGESTS[mode]


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT64], ids=lambda m: m.value)
def test_certificates_never_reverify(mode, monkeypatch):
    # each witness is checked once, by the function that builds it
    callers = []
    for cls in (JWitness, DWitness, CoarseWitness):
        def verify(self, T, _check=cls.verify):
            callers.append(inspect.currentframe().f_back.f_globals["__name__"])
            return _check(self, T)
        monkeypatch.setattr(cls, "verify", verify)
    run_all(seed=0, mode=mode, overrides=PINNED_SIZES)
    assert callers
    assert "orbitscope.certificates" not in callers
