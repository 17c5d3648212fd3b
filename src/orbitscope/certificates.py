"""Named, runnable certificate suites over checked witnesses.

Each certificate assembles inputs, invokes the orbit and limit-set
machinery and emits a CertificateReport; the function that built each
embedded witness checked it once, and no suite checks it again.
INDECISIVE is a first-class verdict: exhausted budgets and uncertifiable
spectral hypotheses are never reported as FAIL, since absence of a
witness within a budget refutes nothing.

Each suite is one body registered by _suite: the certificate takes
(seed, mode, **params), checks each parameter against its kind in
defaults.py before the body runs, times the body and builds the report.

Verdicts are deterministic functions of (parameters, seed); wall-clock
timing lives in a separate "timing" block so report bundles can be
compared byte-for-byte modulo it.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import defaults
from .errors import (
    ConfigError,
    IndecisiveSpectrum,
    InputNotAWitnessFamily,
    OrbitscopeError,
    SearchFailed,
    VerificationFailed,
)
from .limit_sets import (
    EpsSchedule,
    JWitness,
    d_witness,
    jmix_witness,
    prop22_amplify,
    remark32_contradiction_check,
    rescale_j_witness_family,
    search_j_witness,
)
from .numeric import FieldsJSON, Mode, jsonable, make_scalar, real_value, to_float
from .operators import (
    Band,
    Block,
    Constant,
    Shape,
    ShiftOperator,
    apply,
    apply_power,
    prop32_operator,
    riesz_blocks,
    spectral_radius_estimate,
)
from .orbits import (
    ball_counts,
    coarse_orbit_contains,
    make_coarse_witness,
    rescale_coarse_witness,
)
from .spaces import IndexSet, NormTag, SeqVector, dist, dist_lt, norm


PASS = "PASS"
FAIL = "FAIL"
INDECISIVE = "INDECISIVE"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class SubCheck(FieldsJSON):
    name: str
    status: str
    note: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class CertificateReport:
    name: str
    statement: str
    operator: dict
    parameters: dict
    sub_checks: list[SubCheck]
    witnesses: list
    residual_summary: dict
    seed: int
    numeric_mode: str
    defaults_version: str = defaults.DEFAULTS_VERSION
    runtime_s: float = 0.0

    @property
    def verdict(self) -> str:
        statuses = [s.status for s in self.sub_checks]
        if FAIL in statuses:
            return FAIL
        if INDECISIVE in statuses:
            return INDECISIVE
        return PASS

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "verdict": self.verdict,
            "operator": self.operator,
            "parameters": self.parameters,
            "sub_checks": [s.to_jsonable() for s in self.sub_checks],
            "witnesses": self.witnesses,
            "residual_summary": self.residual_summary,
            "seed": self.seed,
            "numeric_mode": self.numeric_mode,
            "defaults_version": self.defaults_version,
            "timing": {"runtime_s": self.runtime_s},
        }


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _random_sparse(rng: random.Random, index_set: IndexSet, lo: int, hi: int,
                   bound: float, mode: Mode, max_entries: int = 6) -> SeqVector:
    """Seeded vector: small support in [lo, hi], entries up to |bound|."""
    width = hi - lo + 1
    count = rng.randint(1, min(max_entries, width))
    indices = rng.sample(range(lo, hi + 1), count)
    entries = {}
    for i in indices:
        u = 0.0
        while abs(u) < bound / 100.0:
            u = rng.uniform(-bound, bound)
        entries[i] = Fraction(str(round(u, 6)))
    return SeqVector.from_entries(index_set, entries, mode)


def _witness_digest(w: JWitness) -> dict:
    return {
        "times": list(w.times),
        "dists": [to_float(t.dist) for t in w.triples],
        "target_support": w.target.support,
        "mix": w.mix_flag,
    }


# -- suite plumbing ------------------------------------------------------------------


def _params(base: dict, given: dict) -> dict:
    """A suite's defaults with each given value checked against its kind."""
    p = dict(base)
    for key, value in given.items():
        if key not in base:
            raise ConfigError(f"unknown parameter {key!r}")
        p[key] = defaults.parse(key, value)
    return p


CERTIFICATES = {}  # name -> cert(seed=0, mode=Mode.EXACT, **params), in run order


def _suite(name: str, base: dict, statement: str, numeric_mode: str | None = None):
    """Register body(p, seed, mode) -> (T, sub_checks, witnesses, summary) as
    the certificate `name`: its parameters are checked against `base`, its
    body is timed, and its report says `numeric_mode` (default: the mode)."""
    def register(body):
        def cert(seed: int = 0, mode: Mode = Mode.EXACT, **params) -> CertificateReport:
            p = _params(base, params)
            start = time.perf_counter()
            T, subs, witnesses, summary = body(p, seed, mode)
            return CertificateReport(
                name=name, statement=statement, operator=T.to_jsonable(),
                parameters=jsonable(p), sub_checks=subs, witnesses=witnesses,
                residual_summary=summary, seed=seed,
                numeric_mode=numeric_mode or mode.value,
                runtime_s=time.perf_counter() - start)
        cert.__name__ = cert.__qualname__ = body.__name__
        cert.__doc__ = statement
        CERTIFICATES[name] = cert
        return cert
    return register


# -- prop32: the coarsely J-class, not J-class two-sided shift ---------------------


_AT_BOUND_BUDGET = 100_000  # power applications for each search at the bound


@_suite("prop32", defaults.PROP32,
        "two-sided shift with weights 2 (n>=1) / 1 (n<=0): sup-norm-flat orbit, "
        "J-certificates everywhere at bound 2, and no certificate family at "
        "tolerance 1/4")
def cert_prop32(p, seed, mode):
    T = prop32_operator()
    e0 = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
    subs = []
    witnesses = []
    residuals = []

    # (a) the base point's orbit is sup-norm flat: ||T^n e_0|| = 1 exactly
    horizon = p["orbit_check_horizon"]
    flat = True
    v = e0
    for n in range(1, horizon + 1):
        v = apply(T, v)
        if norm(v, NormTag.PINF) != 1:
            flat = False
            break
    for n in (1, horizon // 3, horizon):
        if norm(apply_power(T, n, e0), NormTag.PINF) != 1:
            flat = False
    subs.append(SubCheck(
        "orbit-sup-norm-flat", PASS if flat else FAIL,
        note="exact equality over the full horizon",
        details={"horizon": horizon}))

    # (b) J-certificates at the coarse bound for seeded targets
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    rng = _rng(seed, "prop32-targets")
    sb, nb = p["support_bound"], p["norm_bound"]
    failures = []
    for idx in range(p["sample_count"]):
        y = _random_sparse(rng, IndexSet.INTEGERS, -sb, sb, nb, mode)
        try:
            w = search_j_witness(T, e0, y, p["d"], schedule, _AT_BOUND_BUDGET,
                                 norm_tag=NormTag.PINF)
            residuals.extend(to_float(t.dist) for t in w.triples)
            witnesses.append(w.to_jsonable() if idx < 25 else _witness_digest(w))
        except SearchFailed as exc:
            failures.append({"index": idx, **exc.diagnostics()})
    note = "sampled surrogate for a statement over the whole space"
    if p["sample_count"] == 0:
        subs.append(SubCheck("synthesis-at-bound", PASS,
                             note=note + "; vacuous: empty sample",
                             details={"sampled": 0}))
    else:
        subs.append(SubCheck(
            "synthesis-at-bound", PASS if not failures else FAIL, note=note,
            details={"sampled": p["sample_count"],
                     "succeeded": p["sample_count"] - len(failures),
                     "failures": failures}))

    # (c) forcing the quarter-tolerance search must fail or self-contradict
    rng_forced = _rng(seed, "prop32-forced")
    forced_results = []
    bad_family = None
    for idx in range(p["forced_sample_count"]):
        y = _random_sparse(rng_forced, IndexSet.INTEGERS, -sb, sb, nb, mode)
        try:
            w = search_j_witness(T, e0, y, p["forced_tolerance"], schedule,
                                 p["forced_budget"], norm_tag=NormTag.PINF)
            family = [(t.perturbed, t.time) for t in w.triples]
            try:
                report = remark32_contradiction_check(T, y, family)
                forced_results.append({"index": idx, "outcome": "contradicted",
                                       "report": report.to_jsonable()})
            except InputNotAWitnessFamily:
                bad_family = {"index": idx,
                              "outcome": "verified-non-contradictory family"}
        except SearchFailed as exc:
            forced_results.append({"index": idx, "outcome": "search-failed", **{
                k: v for k, v in exc.diagnostics().items()
                if k in ("reason", "budget_used", "best_residual", "proof")}})
    # the checker's rejection path, exercised on a hand-built non-family
    w0 = SeqVector.zero(IndexSet.INTEGERS, mode)
    bogus = [(e0, n) for n in range(1, 4)]
    try:
        remark32_contradiction_check(T, w0, bogus)
        checker_rejects = False
    except InputNotAWitnessFamily:
        checker_rejects = True
    status = PASS if bad_family is None and checker_rejects else FAIL
    proved = sum(r.get("proof") is not None for r in forced_results)
    subs.append(SubCheck(
        "quarter-tolerance-obstruction", status,
        note=(f"{proved} of {p['forced_sample_count']} targets proved outside "
              "J(e_0, T, d) by tail-bound; any other failure is within "
              "budget, never non-membership"),
        details={"targets": p["forced_sample_count"],
                 "results": forced_results,
                 "checker_rejects_bogus_family": checker_rejects,
                 "bad_family": bad_family}))

    summary = {"max_residual": max(residuals, default=None),
               "min_residual": min(residuals, default=None)}
    return T, subs, witnesses, summary


# -- prop36(i): contraction pins the limit set to the d-ball -----------------------


@_suite("prop36-contraction", defaults.PROP36_CONTRACTION,
        "contracting shift: witnessed targets fill the open d-ball and stay "
        "inside its closure")
def cert_prop36_contraction(p, seed, mode):
    w_abs = abs(Fraction(p["weight"]))
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                      Constant(p["weight"]), label="contraction-shift")
    subs = []
    witnesses = []
    if not w_abs < 1:
        subs.append(SubCheck("radius-hypothesis", INDECISIVE,
                             note="|weight| >= 1: contraction hypothesis fails",
                             details={"weight": str(p["weight"])}))
        return T, subs, witnesses, {}
    trace = spectral_radius_estimate(T, p["gelfand_n"], p["gelfand_window"])
    gel_ok = abs(trace.estimate - float(w_abs)) <= p["gelfand_rel_tol"] * float(w_abs)
    subs.append(SubCheck("gelfand-trace", PASS if gel_ok else FAIL,
                         note="sup of n-step geometric means over the window",
                         details={"estimate": trace.estimate,
                                  "expected": float(w_abs),
                                  "rel_tol": p["gelfand_rel_tol"]}))

    d_val = p["d"]
    x = SeqVector.basis(IndexSet.NATURALS, 1, mode=mode)
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    rng = _rng(seed, "prop36i-inside")
    inside_failures = 0
    witnessed_norms = []
    for _ in range(p["target_count"]):
        y = _ball_target(rng, mode, float(d_val) * float(p["inside_margin"]) * 0.995)
        try:
            w = search_j_witness(T, x, y, d_val, schedule, 10_000,
                                 norm_tag=NormTag.P2)
            witnessed_norms.append(to_float(norm(y, NormTag.P2)))
            witnesses.append(_witness_digest(w))
        except SearchFailed:
            inside_failures += 1
    subs.append(SubCheck(
        "open-ball-witnessed", PASS if inside_failures == 0 else FAIL,
        note="finite surrogate of the open-ball inclusion",
        details={"targets": p["target_count"], "failures": inside_failures}))

    rng_out = _rng(seed, "prop36i-outside")
    found_outside = []
    reasons = []
    proved = 0
    for _ in range(p["outside_count"]):
        y = _ball_target(rng_out, mode, 1.9 * float(d_val),
                         min_norm=float(d_val) * float(p["outside_margin"]) * 1.005)
        try:
            w = search_j_witness(T, x, y, d_val, schedule, p["outside_budget"],
                                 norm_tag=NormTag.P2)
            found_outside.append(to_float(norm(y, NormTag.P2)))
        except SearchFailed as exc:
            reasons.append(exc.reason)
            proved += exc.proof is not None
    subs.append(SubCheck(
        "closure-bound-respected",
        _proof_status(bool(found_outside), proved, p["outside_count"]),
        note=(f"{proved} of {p['outside_count']} targets outside the closed "
              "ball proved outside J(e_1, T, d); any other failure is within "
              "budget, never non-membership"),
        details={"targets": p["outside_count"], "proved": proved,
                 "witnessed": found_outside,
                 "failure_reasons": sorted(set(reasons))}))
    bound_ok = all(n <= float(d_val) * 1.01 for n in witnessed_norms)
    subs.append(SubCheck(
        "witnessed-targets-bounded", PASS if bound_ok else FAIL,
        note="every witnessed target lies within d(1+tol)",
        details={"max_witnessed_norm": max(witnessed_norms, default=None)}))
    summary = {"witnessed": len(witnessed_norms),
               "gelfand_estimate": trace.estimate}
    return T, subs, witnesses, summary


def _proof_status(witnessed: bool, proved: int, targets: int) -> str:
    """For targets claimed outside J: FAIL on a witness, PASS only when every
    target is proved outside, else INDECISIVE; a budget stop refutes nothing."""
    return FAIL if witnessed else PASS if proved == targets else INDECISIVE


_BALL_SPAN = 5  # most entries of a _ball_target vector


def _ball_target(rng: random.Random, mode: Mode, max_norm: float,
                 min_norm: float = 0.0) -> SeqVector:
    """Seeded target with euclidean norm in (min_norm, max_norm)."""
    if not min_norm < max_norm:
        raise ConfigError(f"empty target norm window ({min_norm:.6g}, {max_norm:.6g})")
    while True:
        count = rng.randint(1, _BALL_SPAN)
        idxs = rng.sample(range(0, _BALL_SPAN + 2), count)
        vals = [rng.gauss(0.0, 1.0) for _ in idxs]
        n2 = math.sqrt(sum(v * v for v in vals))
        if n2 == 0.0:
            continue
        radius = rng.uniform(min_norm if min_norm else max_norm * 0.05, max_norm)
        entries = {i: Fraction(str(round(v * radius / n2, 9))) for i, v in zip(idxs, vals)}
        y = SeqVector.from_entries(IndexSet.NATURALS, entries, mode)
        yn = to_float(norm(y, NormTag.P2))
        if (min_norm == 0.0 or yn > min_norm * 0.999) and yn < max_norm * 1.001 and yn > 0:
            return y


# -- prop36(ii): expansion empties the limit sets off the origin --------------------


@_suite("prop36-expansion", defaults.PROP36_EXPANSION,
        "expanding invertible shift: mix certificates from 0, no certificates "
        "from non-zero bases")
def cert_prop36_expansion(p, seed, mode):
    T = ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                      Constant(p["weight"]), label="expansion-shift")
    subs = []
    witnesses = []
    w_abs = abs(Fraction(p["weight"]))
    if not w_abs > 1:
        subs.append(SubCheck("radius-hypothesis", INDECISIVE,
                             note="|weight| <= 1: expansion hypothesis fails",
                             details={"weight": str(p["weight"])}))
        return T, subs, witnesses, {}
    d_val = p["d"]
    zero = SeqVector.zero(IndexSet.INTEGERS, mode)
    rng = _rng(seed, "prop36ii-zero")
    zero_failures = []
    exact_hits = 0
    for idx in range(p["target_count"]):
        y = _random_sparse(rng, IndexSet.INTEGERS, -10, 10, 10.0, mode)
        # start where every coordinate back-solves in full, so the
        # residual is exactly zero rather than parked under the bound
        y_sup = to_float(norm(y, NormTag.PINF))
        lw = math.log(float(w_abs))
        n0 = 1
        for i in range(p["mix_length"]):
            need = math.log(y_sup * (i + 1) / 0.9) / lw - i
            n0 = max(n0, math.ceil(need) + 1)
        try:
            w = jmix_witness(T, zero, y, d_val, p["mix_length"], n0,
                             p["mix_budget"], norm_tag=NormTag.PINF)
            if all(to_float(t.dist) == 0.0 for t in w.triples):
                exact_hits += 1
            witnesses.append(w.to_jsonable() if idx < 25 else _witness_digest(w))
        except SearchFailed as exc:
            zero_failures.append({"index": idx, "reason": exc.reason})
    zero_ok = not zero_failures and exact_hits == p["target_count"]
    subs.append(SubCheck(
        "mix-from-zero-exact", PASS if zero_ok else FAIL,
        note="back-solved perturbations give residual exactly 0",
        details={"targets": p["target_count"], "exact_hits": exact_hits,
                 "failures": zero_failures}))

    x = SeqVector.basis(IndexSet.INTEGERS, 1, mode=mode)
    rng2 = _rng(seed, "prop36ii-nonzero")
    targets = [_random_sparse(rng2, IndexSet.INTEGERS, -10, 10, 10.0, mode)
               for _ in range(3)]
    schedule = EpsSchedule.reciprocal(p["mix_length"])
    # a proof settles its target at every budget, so one search each
    results = []
    for y in targets:
        try:
            search_j_witness(T, x, y, d_val, schedule, p["nonzero_budget"],
                             norm_tag=NormTag.PINF,
                             stagnation_window=p["stagnation_window"])
            results.append({"outcome": "witness-found"})
        except SearchFailed as exc:
            results.append({"outcome": "failed", "reason": exc.reason,
                            "budget_used": exc.budget_used, "proof": exc.proof})
    proved = sum(r.get("proof") is not None for r in results)
    witnessed = any(r["outcome"] == "witness-found" for r in results)
    subs.append(SubCheck(
        "no-certificate-from-nonzero", _proof_status(witnessed, proved, len(targets)),
        note=(f"{proved} of {len(targets)} targets proved outside J(e_1, T, d) "
              "by a structural stop; any other failure is within budget, "
              "never non-membership"),
        details={"targets": len(targets), "proved": proved, "results": results}))
    summary = {"exact_hits": exact_hits, "proved_nonzero": proved}
    return T, subs, witnesses, summary


# -- Riesz-style two-band decomposition ---------------------------------------------


def _riesz_operator(p) -> ShiftOperator:
    return ShiftOperator(
        Shape.BLOCK_DIRECT_SUM, IndexSet.INTEGERS,
        blocks=(Block(Band(0, None), "backward", Constant(p["contract_weight"])),
                Block(Band(None, -1), "backward", Constant(p["expand_weight"]))),
        label="two-band-shift")


@_suite("riesz-blocks", defaults.RIESZ,
        "block direct sum splits into contracting and expanding bands; "
        "witnesses decompose by band")
def cert_riesz_blocks(p, seed, mode):
    T = _riesz_operator(p)
    subs = []
    witnesses = []
    try:
        split = riesz_blocks(T)
    except IndecisiveSpectrum as exc:
        subs.append(SubCheck("block-classification", INDECISIVE,
                             note=str(exc), details={}))
        return T, subs, witnesses, {}
    T1, T2 = split.contracting, split.expanding
    subs.append(SubCheck("block-classification", PASS,
                         note="per-block radius bounded away from 1",
                         details={"estimates": [[n, e] for n, e in split.estimates]}))

    d_val = p["d"]
    x = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
    x1, x2 = split.splitter.split(x)
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    rng = _rng(seed, "riesz-targets")
    blo, bhi = p["band_b_window"]
    a_cap = float(d_val) * float(p["band_a_scale"])
    decomposed = 0
    decompose_failures = []
    a_norms = []
    for idx in range(p["sample_count"]):
        y_a = _random_sparse(rng, IndexSet.INTEGERS, 0, 6, a_cap * 0.9, mode,
                             max_entries=3)
        y_b = _random_sparse(rng, IndexSet.INTEGERS, blo, bhi, 10.0, mode,
                             max_entries=4)
        y = y_a + y_b
        try:
            dw = d_witness(T, x, y, d_val, p["orbit_horizon"], schedule,
                           p["search_budget"], norm_tag=NormTag.PINF)
            if _decomposes_by_band(T1, T2, split.splitter, dw, x, y, d_val,
                                   schedule):
                decomposed += 1
                a_norms.append(to_float(norm(y_a, NormTag.PINF)))
            else:
                decompose_failures.append({"index": idx, "kind": dw.kind})
            if idx < 10:
                witnesses.append(dw.to_jsonable())
        except SearchFailed as exc:
            decompose_failures.append({"index": idx, "error": str(exc)})
    subs.append(SubCheck(
        "witness-band-decomposition",
        PASS if decomposed == p["sample_count"] else FAIL,
        note="each certificate splits into valid per-band certificates",
        details={"targets": p["sample_count"], "decomposed": decomposed,
                 "failures": decompose_failures[:10]}))

    sup_orbit = 0.0
    v = x1
    for n in range(64):
        sup_orbit = max(sup_orbit, to_float(norm(v, NormTag.PINF)))
        v = apply(T1, v) if not v.is_zero else v
    bound = sup_orbit + float(d_val)
    bound_ok = all(a <= bound for a in a_norms)
    subs.append(SubCheck(
        "contracting-band-bounded", PASS if bound_ok else FAIL,
        note="witnessed contracting components sit under sup ||T1^n x1|| + d",
        details={"bound": bound, "max_component": max(a_norms, default=None)}))

    c_b = SeqVector.from_entries(IndexSet.INTEGERS,
                                 {-50: 1, -45: Fraction(1, 2)}, mode)
    u_a = SeqVector.basis(IndexSet.INTEGERS, 3,
                          real_value(Fraction(p["band_a_scale"]) * Fraction(d_val),
                                     mode), mode)
    ratios = []
    ladder_ok = True
    for j in p["lambda_ladder_exponents"]:
        lam = Fraction(2) ** j
        v_j = c_b.scale(real_value(lam, mode)) + u_a
        try:
            dw = d_witness(T, x, v_j, d_val, p["orbit_horizon"], schedule,
                           p["search_budget"], norm_tag=NormTag.PINF)
        except SearchFailed:
            ladder_ok = False
            break
        va, _ = split.splitter.split(v_j)
        ratios.append(to_float(norm(va, NormTag.PINF))
                      / to_float(norm(v_j, NormTag.PINF)))
    factors = [ratios[i] / ratios[i + 1] for i in range(len(ratios) - 1)] \
        if len(ratios) > 1 else []
    monotone = all(f >= p["ratio_factor"] for f in factors)
    subs.append(SubCheck(
        "lambda-ladder-ratio", PASS if ladder_ok and monotone else FAIL,
        note=("witnessable directions lose their contracting component "
              "as the scale grows"),
        details={"ratios": ratios, "min_factor": min(factors, default=None)}))
    summary = {"decomposed": decomposed, "ladder_min_factor":
               min(factors, default=None)}
    return T, subs, witnesses, summary


def _decomposes_by_band(T1, T2, splitter, dw, x, y, d_val, schedule) -> bool:
    x1, x2 = splitter.split(x)
    y1, y2 = splitter.split(y)
    if dw.kind == "orbit":
        n = dw.coarse.time
        for (Tc, xc, yc) in ((T1, x1, y1), (T2, x2, y2)):
            if not dist_lt(apply_power(Tc, n, xc), yc, dw.coarse.norm_tag, d_val):
                return False
        return True
    w = dw.jwitness
    for eps, triple in zip(w.schedule, w.triples):
        p1, p2 = splitter.split(triple.perturbed)
        for (Tc, xc, yc, pc) in ((T1, x1, y1, p1), (T2, x2, y2, p2)):
            if not dist_lt(pc, xc, w.norm_tag, eps):
                return False
            if not dist_lt(apply_power(Tc, triple.time, pc), yc, w.norm_tag, d_val):
                return False
    return True


# -- prop15: scale families collapse to plain limit-set membership ------------------


@_suite("prop15", defaults.PROP15,
        "witnesses for scaled pairs at a fixed coarse bound re-index into a "
        "certificate at any smaller tolerance")
def cert_prop15(p, seed, mode):
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                      Constant(2), label="doubling-shift")
    subs = []
    witnesses = []
    zero = SeqVector.zero(IndexSet.NATURALS, mode)
    y = SeqVector.basis(IndexSet.NATURALS, 0, mode=mode)
    d_val = p["d"]
    family = []
    next_start = 1
    contiguous = True
    for k in p["scale_exponents"]:
        t_k = Fraction(2) ** k
        target_k = y.scale(real_value(t_k, mode))
        w = jmix_witness(T, zero, target_k, d_val, p["mix_length"], next_start,
                         p["mix_budget"], norm_tag=NormTag.PINF)
        if family and w.times[0] != next_start:
            contiguous = False
        next_start = w.times[-1] + 1
        family.append((t_k, w))
        witnesses.append(_witness_digest(w))
    subs.append(SubCheck("family-constructed", PASS,
                         note="mix certificates at every scale, contiguous blocks",
                         details={"scales": [str(t) for t, _ in family],
                                  "contiguous": contiguous}))
    try:
        result = rescale_j_witness_family(T, family, p["target_eps"])
        out = result.witness
        d_over_tm = Fraction(d_val) / (Fraction(2) ** result.scale_index)
        dist_ok = all(
            (t.dist < d_over_tm if isinstance(t.dist, Fraction)
             else to_float(t.dist) < float(d_over_tm)) for t in out.triples)
        radii_ok = all(to_float(dist(t.perturbed, out.base, out.norm_tag))
                       < float(p["target_eps"]) for t in out.triples)
        subs.append(SubCheck(
            "rescaled-certificate", PASS if dist_ok and radii_ok else FAIL,
            note="distances below d/t_m, radii below the target tolerance",
            details={"scale_index": result.scale_index,
                     "d_over_tm": str(d_over_tm),
                     "target_eps": str(p["target_eps"]),
                     "mix": out.mix_flag,
                     "triples": len(out.triples)}))
        witnesses.append(out.to_jsonable())
    except OrbitscopeError as exc:
        subs.append(SubCheck("rescaled-certificate", FAIL, note=str(exc)))
    summary = {"family_size": len(family)}
    return T, subs, witnesses, summary


# -- prop21: rescaling coarse witnesses and counting returns ------------------------


def _prop21_instance(p, mode):
    T = ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2),
                      label="doubling-shift")
    y_star = SeqVector.from_entries(IndexSet.NATURALS, {2: 3, 5: 1}, mode)
    entries = {}
    for n_s in p["visit_times"]:
        inv = make_scalar(Fraction(1, 2) ** n_s, mode)
        for j, val in y_star.items():
            entries[n_s + j] = val * inv
    x = SeqVector(IndexSet.NATURALS, entries, mode)
    return T, x, y_star


@_suite("prop21", defaults.PROP21,
        "coarse witnesses rescale to every bound, and distinct orbit returns "
        "near a witnessed target keep growing")
def cert_prop21(p, seed, mode):
    T, x, y_star = _prop21_instance(p, mode)
    subs = []
    witnesses = []
    d_val = p["d"]
    rng = _rng(seed, "prop21-targets")
    found = []
    for _ in range(p["sample_count"]):
        noise = _random_sparse(rng, IndexSet.NATURALS, 0, 7,
                               float(d_val) * p["noise_scale"] * 0.9, mode,
                               max_entries=3)
        z = y_star + noise
        w = coarse_orbit_contains(T, x, d_val, z, p["count_ladder"][0],
                                  NormTag.PINF)
        if w is None:
            found.append(None)
        else:
            found.append(w)
            witnesses.append(w.to_jsonable())
    all_found = all(w is not None for w in found)
    subs.append(SubCheck(
        "sampled-targets-witnessed", PASS if all_found else FAIL,
        note="perturbed copies of the planted target are coarsely reached",
        details={"sampled": p["sample_count"],
                 "first_times": [w.time for w in found if w is not None]}))

    rescale_ok = True
    rescale_details = []
    for w in found:
        if w is None:
            continue
        for num, den in p["m_ladder_num_den"]:
            M = Fraction(d_val) * Fraction(num, den)
            try:
                rescale_coarse_witness(T, w, M)
            except VerificationFailed as exc:
                rescale_ok = False
                rescale_details.append(str(exc))
    subs.append(SubCheck(
        "witness-rescaling", PASS if rescale_ok else FAIL,
        note="witnesses transport across every bound in the ladder by linearity",
        details={"ladder": [str(Fraction(d_val) * Fraction(n, dd))
                            for n, dd in p["m_ladder_num_den"]],
                 "failures": rescale_details}))

    counts = ball_counts(T, x, y_star, 3 * Fraction(d_val), p["count_ladder"],
                         NormTag.PINF)
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    status = PASS if increasing else NOT_APPLICABLE
    subs.append(SubCheck(
        "distinct-returns-grow", status,
        note=("monotone finite surrogate of infinitely many returns; "
              "NOT_APPLICABLE marks a plateau, not a refutation"),
        details={"ladder": list(p["count_ladder"]), "counts": counts}))
    summary = {"counts": counts}
    return T, subs, witnesses, summary


# -- prop22: geometric amplification of coarse hits ---------------------------------


@_suite("prop22", defaults.PROP22,
        "coarse hits of geometrically scaled targets amplify into points "
        "approaching the target at rate lam^n", numeric_mode="both")
def cert_prop22(p, seed, mode):
    subs = []
    witnesses = []
    lam = Fraction(p["lambda"])
    # instance (a): contracting diagonal with an exactly recurrent base
    D = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS,
                      Constant(Fraction(1, 2)), label="halving-diagonal")
    # instance (b): drifting two-sided shift with non-trivial gaps
    T = prop32_operator()
    for run_mode in (Mode.EXACT, Mode.FLOAT64):  # both, whatever `mode` is
        tag = run_mode.value
        x = SeqVector.basis(IndexSet.INTEGERS, 0, mode=run_mode)
        y = SeqVector.basis(
            IndexSet.INTEGERS, 0,
            real_value(Fraction(2) ** p["diagonal_target_log2"], run_mode), run_mode)
        try:
            cws = [make_coarse_witness(
                       D, x, p["d"], y.scale(real_value(1 / lam ** n, run_mode)),
                       -p["diagonal_target_log2"] - n, NormTag.PINF)
                   for n in range(1, p["steps"] + 1)]
            amp = prop22_amplify(D, x, y, p["d"], lam, cws,
                                 norm_tag=NormTag.PINF,
                                 recurrence=([1], Fraction(1, 10 ** 6)))
            exact_zero = all(to_float(pt.distance) == 0.0 for pt in amp.points)
            subs.append(SubCheck(
                f"diagonal-recurrent-{tag}", PASS if exact_zero else FAIL,
                note="exactly recurrent base: amplified hits are exact",
                details={"points": len(amp.points)}))
            if run_mode is Mode.EXACT:
                witnesses.append(amp.to_jsonable())
        except OrbitscopeError as exc:
            subs.append(SubCheck(f"diagonal-recurrent-{tag}", FAIL,
                                 note=str(exc)))
        yb = SeqVector.basis(
            IndexSet.INTEGERS, p["drift_target_index"],
            real_value(Fraction(2) ** p["drift_target_scale_log2"], run_mode), run_mode)
        try:
            cwb = [make_coarse_witness(
                       T, x, p["d"], yb.scale(real_value(1 / lam ** n, run_mode)),
                       p["drift_time"], NormTag.PINF)
                   for n in range(1, p["steps"] + 1)]
            amp_b = prop22_amplify(T, x, yb, p["d"], lam, cwb,
                                   norm_tag=NormTag.PINF)
            bounds_ok = all(
                to_float(pt.distance) <= float(lam) ** pt.n * float(p["d"])
                for pt in amp_b.points)
            nontrivial = all(to_float(pt.distance) > 0 for pt in amp_b.points)
            subs.append(SubCheck(
                f"drift-amplification-{tag}",
                PASS if bounds_ok and nontrivial else FAIL,
                note="distances scale geometrically under the bound lam^n d",
                details={"distances": [to_float(pt.distance)
                                       for pt in amp_b.points]}))
            if run_mode is Mode.EXACT:
                witnesses.append(amp_b.to_jsonable())
        except OrbitscopeError as exc:
            subs.append(SubCheck(f"drift-amplification-{tag}", FAIL,
                                 note=str(exc)))
    summary = {"lambda": str(lam), "steps": p["steps"]}
    return T, subs, witnesses, summary


def run_all(names=None, seed: int = 0, mode: Mode = Mode.EXACT,
            overrides: dict | None = None) -> list[CertificateReport]:
    """Run selected certificates (all by default) with shared seed and mode;
    overrides maps certificate names to parameter values."""
    selected = list(CERTIFICATES) if names is None else list(names)
    overrides = overrides or {}
    for name in [*selected, *overrides]:
        if name not in CERTIFICATES:
            raise ConfigError(f"unknown certificate {name!r}")
    return [CERTIFICATES[name](seed=seed, mode=mode, **overrides.get(name, {}))
            for name in selected]


def aggregate_exit_status(reports) -> int:
    verdicts = [r.verdict for r in reports]
    if FAIL in verdicts:
        return 5
    if INDECISIVE in verdicts:
        return 4
    return 0


def write_bundle(reports, out_dir) -> Path:
    """One JSON per certificate plus an index with verdicts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = {"defaults_version": defaults.DEFAULTS_VERSION, "verdicts": {},
             "exit_status": aggregate_exit_status(reports)}
    for r in reports:
        path = out / f"{r.name}.json"
        path.write_text(json.dumps(r.to_jsonable(), indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")
        index["verdicts"][r.name] = r.verdict
    (out / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return out


def bundle_digest(bundle_dir) -> str:
    """Canonical bundle content with timing stripped, for determinism checks."""
    out = []
    for path in sorted(Path(bundle_dir).glob("*.json")):
        data = json.loads(path.read_text())
        data.pop("timing", None)
        out.append(f"{path.name}\n{json.dumps(data, sort_keys=True)}")
    return "\n".join(out)
