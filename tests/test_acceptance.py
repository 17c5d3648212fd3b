"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned here, not deferred: exact-mode checks use
exact arithmetic, float-mode checks use the 1e-9 policy.
"""

import json
import random
import time
from fractions import Fraction

from orbitscope import (
    Constant,
    EpsSchedule,
    IndexSet,
    NormTag,
    OpenCone,
    SeqVector,
    Shape,
    ShiftOperator,
    apply_power,
    jmix_witness,
    make_coarse_witness,
    norm,
    prop22_amplify,
    prop32_operator,
    rescale_j_witness_family,
    search_j_witness,
    spaces,
)
from orbitscope.certificates import (
    _random_sparse,
    _rng,
    bundle_digest,
    cert_prop32,
    cert_prop36_contraction,
    cert_prop36_expansion,
    cert_riesz_blocks,
)
from orbitscope.cli import main as cli_main
from orbitscope.errors import SearchFailed
from orbitscope.numeric import Mode, to_float

from conftest import nfold_apply, random_shift, random_vector, sup_projection_feasible, \
    vector_for


def report(num, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {verdict} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_prop32_reproduction():
    start = time.perf_counter()
    r = cert_prop32(seed=0, mode=Mode.EXACT)
    elapsed = time.perf_counter() - start
    sub = {s.name: s for s in r.sub_checks}
    ok = (r.verdict == "PASS"
          and sub["orbit-sup-norm-flat"].status == "PASS"
          and sub["orbit-sup-norm-flat"].details["horizon"] == 10_000
          and sub["synthesis-at-bound"].details["succeeded"] == 100
          and elapsed <= 60)
    # third, fully independent re-check on a subsample: n-fold single
    # steps instead of closed-form powers
    T = prop32_operator()
    e0 = SeqVector.basis(IndexSet.INTEGERS, 0, mode=Mode.EXACT)
    rng = _rng(0, "prop32-targets")
    schedule = EpsSchedule.reciprocal(5)
    for _ in range(10):
        y = _random_sparse(rng, IndexSet.INTEGERS, -20, 20, 10, Mode.EXACT)
        w = search_j_witness(T, e0, y, 2, schedule, 100_000)
        for eps, t in zip(w.schedule, w.triples):
            image = nfold_apply(T, t.time, t.perturbed)
            diff = image - y
            assert norm(diff, NormTag.PINF) < 2  # strict, exact mode
            assert norm(t.perturbed - e0, NormTag.PINF) < eps
    report(1, ok, f"prop32: 100/100 witnesses at d=2, flat orbit to 1e4, "
                  f"{elapsed:.1f}s <= 60s")


def test_criterion_2_remark32_obstruction():
    r = cert_prop32(seed=0, mode=Mode.EXACT, sample_count=1,
                    orbit_check_horizon=10)
    sub = {s.name: s for s in r.sub_checks}
    check = sub["quarter-tolerance-obstruction"]
    results = check.details["results"]
    ok = (check.status == "PASS"
          and check.details["bad_family"] is None
          and len(results) == 50
          and all(res["outcome"] in ("search-failed", "contradicted")
                  for res in results)
          and all(res.get("budget_used", 0) <= 1_000_000 for res in results))
    report(2, ok, "remark32: 50/50 forced quarter-tolerance searches fail "
                  "or self-contradict within budget 1e6")


def test_criterion_3_prop15_rescaling():
    start = time.perf_counter()
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2))
    zero = SeqVector.zero(IndexSet.NATURALS, mode=Mode.EXACT)
    y = SeqVector.basis(IndexSet.NATURALS, 0, mode=Mode.EXACT)
    family = []
    next_start = 1
    for k in range(1, 13):
        t_k = Fraction(2) ** k
        w = jmix_witness(T, zero, y.scale(t_k), 1, 3, next_start, 50_000)
        next_start = w.times[-1] + 1
        family.append((t_k, w))
    result = rescale_j_witness_family(T, family, Fraction(1, 1000))
    d_over_tm = Fraction(1) / Fraction(2) ** result.scale_index
    distances_ok = all(isinstance(t.dist, Fraction) and t.dist < d_over_tm
                       for t in result.witness.triples)
    result.witness.verify(T)
    elapsed = time.perf_counter() - start
    ok = d_over_tm < Fraction(1, 1000) and distances_ok and elapsed <= 10
    report(3, ok, f"prop15: family t_k=2^k (k<=12) reaches 1e-3, distances "
                  f"< d/t_m = {d_over_tm} exactly, {elapsed:.2f}s <= 10s")


def test_criterion_4_prop22_amplification():
    lam = Fraction(1, 2)
    exact_ok = float_ok = True
    for mode in (Mode.EXACT, Mode.FLOAT64):
        T = prop32_operator()
        x = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
        y = SeqVector.basis(IndexSet.INTEGERS, -20,
                            Fraction(1, 2 ** 15) if mode is Mode.EXACT
                            else 2.0 ** -15, mode=mode)
        cws = [make_coarse_witness(
            T, x, 1, y.scale(Fraction(2) ** n if mode is Mode.EXACT
                             else 2.0 ** n), 20, NormTag.PINF)
            for n in range(1, 11)]
        amp = prop22_amplify(T, x, y, 1, lam, cws)
        for pt in amp.points:
            bound = Fraction(1, 2) ** pt.n
            if mode is Mode.EXACT:
                # exact: distance equals lam^n times the original gap
                expected = (Fraction(1) - Fraction(2) ** (pt.n - 15)) * bound
                if not (isinstance(pt.distance, Fraction)
                        and pt.distance == expected
                        and pt.distance <= bound):
                    exact_ok = False
            else:
                d_f = to_float(pt.distance)
                expected = (1.0 - 2.0 ** (pt.n - 15)) * float(bound)
                if not (d_f <= float(bound)
                        and abs(d_f - expected) <= 1e-9 * max(expected, 1e-30)):
                    float_ok = False
    report(4, exact_ok and float_ok,
           "prop22: amplified distances <= 2^-n d for n=1..10, exact in "
           "exact mode, 1e-9 relative in float mode")


def test_criterion_5_prop36_contraction():
    r = cert_prop36_contraction(seed=0, mode=Mode.EXACT)
    sub = {s.name: s for s in r.sub_checks}
    gel = sub["gelfand-trace"].details
    ok = (r.verdict == "PASS"
          and sub["open-ball-witnessed"].details["targets"] == 200
          and sub["open-ball-witnessed"].details["failures"] == 0
          and sub["closure-bound-respected"].details["targets"] == 50
          and sub["closure-bound-respected"].details["witnessed"] == []
          and sub["closure-bound-respected"].details["proved"] == 50
          and abs(gel["estimate"] - 0.5) <= 0.01 * 0.5)
    report(5, ok, f"prop36(i): 200/200 inside targets witnessed, 50/50 outside "
                  f"targets proved outside J, Gelfand estimate {gel['estimate']:.4f}")


def test_criterion_6_prop36_expansion():
    r = cert_prop36_expansion(seed=0, mode=Mode.EXACT)
    sub = {s.name: s for s in r.sub_checks}
    zero_details = sub["mix-from-zero-exact"].details
    nonzero = sub["no-certificate-from-nonzero"].details
    ok = (r.verdict == "PASS"
          and zero_details["exact_hits"] == 100
          and nonzero["targets"] == 3
          and nonzero["proved"] == 3
          and all(res["outcome"] == "failed" and res["proof"] is not None
                  for res in nonzero["results"]))
    report(6, ok, f"prop36(ii): 100/100 exact mix witnesses from 0; "
                  f"{nonzero['proved']}/3 targets from e_1 proved outside J")


def test_criterion_7_riesz_blocks():
    r = cert_riesz_blocks(seed=0, mode=Mode.EXACT)
    sub = {s.name: s for s in r.sub_checks}
    decomp = sub["witness-band-decomposition"].details
    ratios = sub["lambda-ladder-ratio"].details["ratios"]
    factors = [ratios[i] / ratios[i + 1] for i in range(len(ratios) - 1)]
    ok = (r.verdict == "PASS"
          and decomp["targets"] == 1000
          and decomp["decomposed"] == 1000
          and len(ratios) == 20
          and all(f >= 1.9 for f in factors))
    report(7, ok, f"riesz: 1000/1000 witnesses decompose by band; ladder "
                  f"ratio factor min {min(factors):.3f} >= 1.9")


_ORACLE_K_CAP = 60  # the expanding cases here need no time past 14


def test_criterion_8_oracle_equivalences():
    rng = random.Random(808)
    power_ok = 0
    for _ in range(500):
        T = random_shift(rng)
        v = vector_for(rng, T)
        n = rng.randint(0, 25)
        if apply_power(T, n, v) == nfold_apply(T, n, v):
            power_ok += 1

    agree = 0
    rng2 = random.Random(818)
    for _ in range(100):
        expanding = rng2.random() < 0.5
        weight = Fraction(rng2.randint(5, 9), 4) if expanding \
            else Fraction(rng2.randint(1, 3), 4)
        T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                          Constant(weight))
        x = SeqVector.zero(IndexSet.NATURALS)
        y = random_vector(rng2, IndexSet.NATURALS, 0, 6, bound=8)
        if not expanding:
            y = SeqVector.from_entries(IndexSet.NATURALS, {**dict(y.items()), 0: 5})
        schedule = EpsSchedule.reciprocal(3)
        # the oracle takes the earliest feasible time for each radius
        oracle_times = []
        k = 0
        for eps in schedule:
            k = next((t for t in range(k + 1, _ORACLE_K_CAP + 1)
                      if sup_projection_feasible(T, x, y, Fraction(1, 2), eps, t)),
                     None)
            if k is None:
                break
            oracle_times.append(k)
        try:
            w = search_j_witness(T, x, y, Fraction(1, 2), schedule, 50_000,
                                 stagnation_window=150)
            search_times = list(w.times)
        except SearchFailed:
            search_times = None
        if search_times == (oracle_times if len(oracle_times) == 3 else None):
            agree += 1

    cone_ok = 0
    rng3 = random.Random(828)
    C = OpenCone(SeqVector.basis(IndexSet.NATURALS, 0, 2), 1, NormTag.P2)
    trials = 0
    while trials < 1000:
        x = SeqVector.from_entries(
            IndexSet.NATURALS,
            {i: Fraction(rng3.randint(-40, 40), 10) for i in range(3)})
        if x.is_zero:
            continue
        trials += 1
        if spaces._contains_p2_closed_form(C, x) == spaces._contains_by_minimization(C, x):
            cone_ok += 1

    ok = power_ok == 500 and agree == 100 and cone_ok == 1000
    report(8, ok, f"oracles: power {power_ok}/500 exact, witness agreement "
                  f"{agree}/100, cone membership {cone_ok}/1000")


def test_criterion_9_determinism_and_runtime(tmp_path, capsys):
    start = time.perf_counter()
    code1 = cli_main(["--seed", "0", "certify", "all",
                      "--out", str(tmp_path / "b1")])
    first_run = time.perf_counter() - start
    code2 = cli_main(["--seed", "0", "certify", "all",
                      "--out", str(tmp_path / "b2")])
    capsys.readouterr()
    identical = bundle_digest(tmp_path / "b1") == bundle_digest(tmp_path / "b2")
    index_same = (tmp_path / "b1" / "index.json").read_bytes() == \
        (tmp_path / "b2" / "index.json").read_bytes()
    # byte-level comparison modulo the timing block
    raw_same = True
    for p1 in sorted((tmp_path / "b1").glob("*.json")):
        d1 = json.loads(p1.read_text())
        d2 = json.loads((tmp_path / "b2" / p1.name).read_text())
        d1.pop("timing", None)
        d2.pop("timing", None)
        if json.dumps(d1, sort_keys=True) != json.dumps(d2, sort_keys=True):
            raw_same = False
    ok = (code1 == 0 and code2 == 0 and identical and index_same and raw_same
          and first_run <= 300)
    report(9, ok, f"determinism: identical bundles modulo timing; full suite "
                  f"{first_run:.1f}s <= 300s")
