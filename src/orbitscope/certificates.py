"""Named, runnable certificate suites over checked witnesses.

Each certificate assembles inputs, invokes the orbit and limit-set
machinery and emits a CertificateReport; the function that built each
embedded witness checked it once, and no suite checks it again.
INDECISIVE is a first-class verdict: an exhausted budget, a coarse scan
that found nothing up to its horizon or an uncertifiable spectral
hypothesis refutes nothing, so it never reads FAIL.  A sampled claim's
status comes from _claim, which runs a builder on each target and reads
its witnesses, proofs and stops by one rule; any other sampled status is
one comparison on a builder's own value, in the mode's arithmetic; floats
appear only in details and in sampling.

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
    reaching_scale,
    remark32_contradiction_check,
    rescale_j_witness_family,
    search_j_witness,
)
from .numeric import FieldsJSON, Mode, jsonable, make_scalar, real_value, strict_gt, \
    to_float
from .operators import (
    Band,
    Block,
    Constant,
    Shape,
    ShiftOperator,
    apply_power,
    iterate,
    prop32_operator,
    riesz_blocks,
    spectral_radius,
)
from .orbits import (
    ball_counts,
    coarse_orbit_contains,
    make_coarse_witness,
    rescale_coarse_witness,
)
from .spaces import IndexSet, NormTag, SeqVector, dist_lt, norm, norm_gt


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


def _double(p: dict, name: str) -> float:
    """The parameter as a double; one past double range is a config error."""
    try:
        return float(p[name])
    except OverflowError:
        raise ConfigError(f"parameter {name!r} is past double range") from None


def _sampled(note: str, count: int) -> str:
    """A sub-check's note, labelled vacuous when its sample is empty."""
    return note if count else note + "; vacuous: empty sample"


def _claim(targets, build, inside: bool, agrees=None):
    """Run the sampled claim that every target lies inside J (or, when not
    `inside`, outside it): build(y) on each target in order, catching
    SearchFailed.  Every search a suite runs is such a builder.  A witness
    settles a claim inside J and refutes one outside, unless agrees(witness)
    says which; a proof settles a claim outside J and refutes one inside; a
    budget stop, or None (a scan that found nothing up to its horizon),
    settles nothing.  Returns the witnesses as (index, target, witness), the
    failed searches as (index, SearchFailed), the proof count and the
    status: FAIL when some target refutes the claim, PASS only when every
    target settles it, else INDECISIVE."""
    found, failed = [], []
    for idx, y in enumerate(targets):
        try:
            w = build(y)
        except SearchFailed as exc:
            failed.append((idx, exc))
            continue
        if w is not None:
            found.append((idx, y, w))
    proofs = sum(exc.proof is not None for _, exc in failed)
    agreeing = sum(agrees(w) for _, _, w in found) if agrees else len(found) * inside
    refuting = len(found) - agreeing
    settled, refuted = (agreeing, proofs + refuting) if inside \
        else (proofs + agreeing, refuting)
    status = FAIL if refuted else PASS if settled == len(targets) else INDECISIVE
    return found, failed, proofs, status


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
    flat = all(norm(v, NormTag.PINF) == 1 for v in iterate(T, e0, horizon))
    for n in (1, horizon // 3, horizon):
        if norm(apply_power(T, n, e0), NormTag.PINF) != 1:
            flat = False
    subs.append(SubCheck(
        "orbit-sup-norm-flat", PASS if flat else FAIL,
        note="exact equality over the full horizon",
        details={"horizon": horizon}))

    # (b) J-certificates at the coarse bound for seeded targets
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    sb, nb = p["support_bound"], _double(p, "norm_bound")

    def targets(tag, count):
        rng = _rng(seed, tag)
        return [_random_sparse(rng, IndexSet.INTEGERS, -sb, sb, nb, mode)
                for _ in range(count)]

    found, failed, _, status = _claim(
        targets("prop32-targets", p["sample_count"]),
        lambda y: search_j_witness(T, e0, y, p["d"], schedule, _AT_BOUND_BUDGET,
                                   norm_tag=NormTag.PINF), inside=True)
    for idx, _, w in found:
        residuals.extend(to_float(t.dist) for t in w.triples)
        witnesses.append(w.to_jsonable() if idx < 25 else _witness_digest(w))
    subs.append(SubCheck(
        "synthesis-at-bound", status,
        note=_sampled("sampled surrogate for a statement over the whole space",
                      p["sample_count"]),
        details={"sampled": p["sample_count"], "succeeded": len(found),
                 "failures": [{"index": idx, **exc.diagnostics()}
                              for idx, exc in failed]}))

    # (c) forcing the quarter-tolerance search must fail or self-contradict:
    # a found family settles its target when the checker contradicts it
    def forced(y):
        w = search_j_witness(T, e0, y, p["forced_tolerance"], schedule,
                             p["forced_budget"], norm_tag=NormTag.PINF)
        try:
            return remark32_contradiction_check(
                T, y, [(t.perturbed, t.time) for t in w.triples])
        except InputNotAWitnessFamily as exc:
            return exc  # a verified family with no contradiction

    def contradicted(report):
        return not isinstance(report, InputNotAWitnessFamily)

    found, failed, proved, status = _claim(
        targets("prop32-forced", p["forced_sample_count"]), forced, inside=False,
        agrees=contradicted)
    forced_results = sorted(
        [{"index": idx, "outcome": "contradicted", "report": r.to_jsonable()}
         for idx, _, r in found if contradicted(r)]
        + [{"index": idx, "outcome": "search-failed", **{
            k: v for k, v in exc.diagnostics().items()
            if k in ("reason", "budget_used", "best_residual", "proof")}}
           for idx, exc in failed], key=lambda r: r["index"])
    bad_family = next(({"index": idx, "outcome": "verified-non-contradictory family"}
                       for idx, _, r in reversed(found) if not contradicted(r)), None)
    # the checker's rejection path, exercised on a hand-built non-family
    w0 = SeqVector.zero(IndexSet.INTEGERS, mode)
    bogus = [(e0, n) for n in range(1, 4)]
    try:
        remark32_contradiction_check(T, w0, bogus)
        checker_rejects = False
    except InputNotAWitnessFamily:
        checker_rejects = True
    subs.append(SubCheck(
        "quarter-tolerance-obstruction", status if checker_rejects else FAIL,
        note=_sampled(f"{proved} of {p['forced_sample_count']} targets proved "
                      "outside J(e_0, T, d) by tail-bound; any other failure is "
                      "within budget, never non-membership", p["forced_sample_count"]),
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
    sign, r = spectral_radius(T)
    subs.append(SubCheck("gelfand-trace", PASS if sign < 0 else FAIL,
                         note=("spectral radius r = lim ||T^n||^(1/n) read off the "
                               "weights (Shields 1974); PASS iff r < 1 exactly"),
                         details={"estimate": r}))

    d_val = p["d"]
    d_f, inside_f, outside_f = (_double(p, k) for k in ("d", "inside_margin", "outside_margin"))
    x = SeqVector.basis(IndexSet.NATURALS, 1, mode=mode)
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    rng = _rng(seed, "prop36i-inside")
    found, failed, _, status = _claim(
        [_ball_target(rng, mode, d_f * inside_f * 0.995)
         for _ in range(p["target_count"])],
        lambda y: search_j_witness(T, x, y, d_val, schedule, 10_000, norm_tag=NormTag.P2),
        inside=True)
    witnessed = [y for _, y, _ in found]
    witnesses.extend(_witness_digest(w) for _, _, w in found)
    subs.append(SubCheck(
        "open-ball-witnessed", status,
        note=_sampled("finite surrogate of the open-ball inclusion", p["target_count"]),
        details={"targets": p["target_count"], "failures": len(failed)}))

    rng_out = _rng(seed, "prop36i-outside")
    found, failed, proved, status = _claim(
        [_ball_target(rng_out, mode, 1.9 * d_f, min_norm=d_f * outside_f * 1.005)
         for _ in range(p["outside_count"])],
        lambda y: search_j_witness(T, x, y, d_val, schedule, p["outside_budget"],
                                   norm_tag=NormTag.P2), inside=False)
    subs.append(SubCheck(
        "closure-bound-respected", status,
        note=_sampled(f"{proved} of {p['outside_count']} targets outside the "
                      "closed ball proved outside J(e_1, T, d); any other failure "
                      "is within budget, never non-membership", p["outside_count"]),
        details={"targets": p["outside_count"], "proved": proved,
                 "witnessed": [to_float(norm(y, NormTag.P2)) for _, y, _ in found],
                 "failure_reasons": sorted({exc.reason for _, exc in failed})}))
    cap = Fraction(101, 100) * Fraction(d_val)
    bound_ok = not any(norm_gt(y, NormTag.P2, cap) for y in witnessed)
    subs.append(SubCheck(
        "witnessed-targets-bounded", PASS if bound_ok else FAIL,
        note=_sampled("every witnessed target lies within d(1+tol)", p["target_count"]),
        details={"max_witnessed_norm": max((to_float(norm(y, NormTag.P2))
                                            for y in witnessed), default=None)}))
    summary = {"witnessed": len(witnessed), "spectral_radius": r}
    return T, subs, witnesses, summary


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
    lw = math.log(to_float(w_abs))  # inf past double range: start at n0 = 1

    def mix(y):
        # start where every coordinate back-solves in full, so the
        # residual is exactly zero rather than parked under the bound
        y_sup = to_float(norm(y, NormTag.PINF))
        n0 = 1
        for i in range(p["mix_length"]):
            need = math.log(y_sup * (i + 1) / 0.9) / lw - i
            n0 = max(n0, math.ceil(need) + 1)
        return jmix_witness(T, zero, y, d_val, p["mix_length"], n0,
                            p["mix_budget"], norm_tag=NormTag.PINF)

    def exact(w):  # a witness whose residual is not exactly 0 refutes the claim
        return all(t.dist == 0 for t in w.triples)

    rng = _rng(seed, "prop36ii-zero")
    found, failed, _, status = _claim(
        [_random_sparse(rng, IndexSet.INTEGERS, -10, 10, 10.0, mode)
         for _ in range(p["target_count"])], mix, inside=True, agrees=exact)
    exact_hits = sum(exact(w) for _, _, w in found)
    witnesses.extend(w.to_jsonable() if idx < 25 else _witness_digest(w)
                     for idx, _, w in found)
    subs.append(SubCheck(
        "mix-from-zero-exact", status,
        note=_sampled("back-solved perturbations give residual exactly 0",
                      p["target_count"]),
        details={"targets": p["target_count"], "exact_hits": exact_hits,
                 "failures": [{"index": idx, "reason": exc.reason}
                              for idx, exc in failed]}))

    x = SeqVector.basis(IndexSet.INTEGERS, 1, mode=mode)
    rng2 = _rng(seed, "prop36ii-nonzero")
    targets = [_random_sparse(rng2, IndexSet.INTEGERS, -10, 10, 10.0, mode)
               for _ in range(3)]
    schedule = EpsSchedule.reciprocal(p["mix_length"])
    # a proof settles its target at every budget, so one search each
    _, failed, proved, status = _claim(
        targets, lambda y: search_j_witness(T, x, y, d_val, schedule, p["nonzero_budget"],
                                            norm_tag=NormTag.PINF,
                                            stagnation_window=p["stagnation_window"]),
        inside=False)
    results = [{"outcome": "witness-found"} for _ in targets]
    for idx, exc in failed:
        results[idx] = {"outcome": "failed", "reason": exc.reason,
                        "budget_used": exc.budget_used, "proof": exc.proof}
    subs.append(SubCheck(
        "no-certificate-from-nonzero", status,
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
    """Witnesses decompose by band by a lemma, not a re-check: each block
    maps its band into itself or annihilates at the band's edge, so the
    restriction of T^k z to a class's bands is that class's operator on z's
    restriction, and restriction never raises a p1, p2 or pinf norm (float
    walks too sum or max non-negative terms in index order).  So
    `decomposed` counts the witnesses found."""
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
    estimates = [[n, e if math.isfinite(e) else None] for n, e in split.estimates]
    if not (T1.blocks and T2.blocks):
        subs.append(SubCheck("block-classification", INDECISIVE,
                             note="needs one contracting and one expanding block",
                             details={"estimates": estimates}))
        return T, subs, witnesses, {}
    subs.append(SubCheck("block-classification", PASS,
                         note="each block's spectral radius r classified exactly; "
                              "no block has r = 1 exactly",
                         details={"estimates": estimates}))

    d_val = p["d"]
    x = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
    x1, _ = split.splitter.split(x)
    schedule = EpsSchedule.reciprocal(p["schedule_length"])
    rng = _rng(seed, "riesz-targets")
    blo, bhi = p["band_b_window"]
    a_cap = _double(p, "d") * _double(p, "band_a_scale")
    # each target is a pair (y_a, y_b) of band components, searched as y_a + y_b
    found, failed, _, status = _claim(
        [(_random_sparse(rng, IndexSet.INTEGERS, 0, 6, a_cap * 0.9, mode, max_entries=3),
          _random_sparse(rng, IndexSet.INTEGERS, blo, bhi, 10.0, mode, max_entries=4))
         for _ in range(p["sample_count"])],
        lambda ab: d_witness(T, x, ab[0] + ab[1], d_val, p["orbit_horizon"], schedule,
                             p["search_budget"], norm_tag=NormTag.PINF), inside=True)
    decomposed = len(found)
    a_norms = [norm(y_a, NormTag.PINF) for _, (y_a, _), _ in found]
    witnesses.extend(dw.to_jsonable() for idx, _, dw in found if idx < 10)
    subs.append(SubCheck(
        "witness-band-decomposition", status,
        note=_sampled("each certificate splits into valid per-band certificates",
                      p["sample_count"]),
        details={"targets": p["sample_count"], "decomposed": decomposed,
                 "failures": [{"index": idx, "error": str(exc)}
                              for idx, exc in failed[:10]]}))

    bound = max(norm(v, NormTag.PINF) for v in iterate(T1, x1, 63)) \
        + real_value(d_val, mode)
    subs.append(SubCheck(
        "contracting-band-bounded", PASS if all(a <= bound for a in a_norms) else FAIL,
        note=_sampled("witnessed contracting components sit under sup ||T1^n x1|| + d",
                      p["sample_count"]),
        details={"bound": to_float(bound),
                 "max_component": to_float(max(a_norms)) if a_norms else None}))

    c_b = SeqVector.from_entries(IndexSet.INTEGERS,
                                 {-50: 1, -45: Fraction(1, 2)}, mode)
    u_a = SeqVector.basis(IndexSet.INTEGERS, 3,
                          real_value(Fraction(p["band_a_scale"]) * Fraction(d_val),
                                     mode), mode)
    ratio_factor = real_value(p["ratio_factor"], mode)
    # the rungs c_b 2^j + u_a; a factor below ratio_factor refutes the claim
    found, _, _, status = _claim(
        [c_b.scale(real_value(Fraction(2) ** j, mode)) + u_a
         for j in p["lambda_ladder_exponents"]],
        lambda v: d_witness(T, x, v, d_val, p["orbit_horizon"], schedule,
                            p["search_budget"], norm_tag=NormTag.PINF), inside=True)
    ratios = [None] * len(p["lambda_ladder_exponents"])  # None where a rung stopped
    for idx, v, _ in found:
        ratios[idx] = norm(split.splitter.split(v)[0], NormTag.PINF) / norm(v, NormTag.PINF)
    factors = [a / b for a, b in zip(ratios, ratios[1:]) if None not in (a, b)]
    monotone = all(f >= ratio_factor for f in factors)
    min_factor = to_float(min(factors)) if factors else None
    subs.append(SubCheck(
        "lambda-ladder-ratio", status if monotone else FAIL,
        note=("witnessable directions lose their contracting component "
              "as the scale grows"),
        details={"ratios": [r if r is None else to_float(r) for r in ratios],
                 "min_factor": min_factor}))
    summary = {"decomposed": decomposed, "ladder_min_factor": min_factor}
    return T, subs, witnesses, summary


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
    _double(p, "target_eps")  # refused past double range in both modes
    scales = [Fraction(2) ** k for k in p["scale_exponents"]]
    # the rescaled certificate needs a scale t_m reaching target_eps with the
    # mix schedule's radius 1, and d / t_m a bound the mode certifies under
    m = reaching_scale(((t, 1) for t in scales), p["d"], p["target_eps"])
    if m is None or not strict_gt(Fraction(p["d"]) / scales[m], 0, mode):
        raise ConfigError("parameters 'd', 'scale_exponents' and 'target_eps' need a "
                          "scale t = 2^k with d/t and 1/t below target_eps, and d/t "
                          "above TOL_EQ in float mode")
    last = 0  # each mix block starts after the last block found

    def mix(t_k):
        nonlocal last
        w = jmix_witness(T, zero, y.scale(real_value(t_k, mode)), p["d"],
                         p["mix_length"], last + 1, p["mix_budget"],
                         norm_tag=NormTag.PINF)
        last = w.times[-1]
        return w

    found, _, _, status = _claim(scales, mix, inside=True)
    family = [(t_k, w) for _, t_k, w in found]
    witnesses.extend(_witness_digest(w) for _, w in family)
    contiguous = all(b.times[0] == a.times[-1] + 1
                     for (_, a), (_, b) in zip(family, family[1:]))
    subs.append(SubCheck("family-constructed", status,
                         note="mix certificates at every scale, contiguous blocks",
                         details={"scales": [str(t) for t, _ in family],
                                  "contiguous": contiguous}))
    if len(family) < len(scales):
        subs.append(SubCheck("rescaled-certificate", INDECISIVE,
                             note="no certificate to rescale: the scale family is "
                                  "incomplete"))
    else:
        result = rescale_j_witness_family(T, family, p["target_eps"])
        out = result.witness
        d_over_tm = Fraction(p["d"]) / scales[result.scale_index - 1]
        dist_ok = all(t.dist < out.bound for t in out.triples)
        radii_ok = all(dist_lt(t.perturbed, out.base, out.norm_tag, p["target_eps"])
                       for t in out.triples)
        subs.append(SubCheck(
            "rescaled-certificate", PASS if dist_ok and radii_ok else FAIL,
            note="distances below d/t_m, radii below the target tolerance",
            details={"scale_index": result.scale_index,
                     "d_over_tm": str(d_over_tm),
                     "target_eps": str(p["target_eps"]),
                     "mix": out.mix_flag,
                     "triples": len(out.triples)}))
        witnesses.append(out.to_jsonable())
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
    d_val = p["d"]
    noise_bound = _double(p, "d") * _double(p, "noise_scale") * 0.9
    rng = _rng(seed, "prop21-targets")
    witnessed, _, _, status = _claim(
        [y_star + _random_sparse(rng, IndexSet.NATURALS, 0, 7, noise_bound, mode,
                                 max_entries=3) for _ in range(p["sample_count"])],
        lambda z: coarse_orbit_contains(T, x, d_val, z, p["count_ladder"][0], NormTag.PINF),
        inside=True)
    found = [w for _, _, w in witnessed]
    subs.append(SubCheck(
        "sampled-targets-witnessed", status,
        note=_sampled("perturbed copies of the planted target are coarsely reached",
                      p["sample_count"]),
        details={"sampled": p["sample_count"], "first_times": [w.time for w in found]}))

    rescale_ok = True
    rescale_details = []
    for w in found:
        for num, den in p["m_ladder_num_den"]:
            M = Fraction(d_val) * Fraction(num, den)
            try:
                rescale_coarse_witness(T, w, M)
            except VerificationFailed as exc:
                rescale_ok = False
                rescale_details.append(str(exc))
    subs.append(SubCheck(
        "witness-rescaling", PASS if rescale_ok else FAIL,
        note=_sampled("witnesses transport across every bound in the ladder by "
                      "linearity", p["sample_count"]),
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
    return T, subs, [w.to_jsonable() for w in found], summary


# -- prop22: geometric amplification of coarse hits ---------------------------------


def _prop22_inputs(p, lam: Fraction, D: ShiftOperator, T: ShiftOperator) -> None:
    """Refuse the parameters under which the suite's own recurrence D x = lam x,
    diagonal witness times or drift witnesses fail, checked exactly."""
    x = SeqVector.basis(IndexSet.INTEGERS, 0)
    if apply_power(D, 1, x) != x.scale(lam):
        raise ConfigError(f"parameter 'lambda' must be 1/2, the weight of the "
                          f"halving diagonal, for its recurrence, not {lam}")
    if p["steps"] > -p["diagonal_target_log2"]:
        raise ConfigError("parameter 'steps' must be at most -diagonal_target_log2, "
                          "or a diagonal witness time is negative")
    point, y = apply_power(T, p["drift_time"], x), SeqVector.basis(
        IndexSet.INTEGERS, p["drift_target_index"], Fraction(2) ** p["drift_target_scale_log2"])
    if not all(dist_lt(point, y.scale(1 / lam ** n), NormTag.PINF, p["d"])
               for n in range(1, p["steps"] + 1)):
        raise ConfigError("parameters 'drift_time', 'drift_target_index', "
                          "'drift_target_scale_log2' and 'd' miss a drift witness's bound")


@_suite("prop22", defaults.PROP22,
        "coarse hits of geometrically scaled targets amplify into points "
        "approaching the target at rate lam^n", numeric_mode="both")
def cert_prop22(p, seed, mode):
    subs = []
    witnesses = []
    lam = Fraction(p["lambda"])
    _double(p, "d")  # refused past double range in both modes
    # instance (a): contracting diagonal with an exactly recurrent base
    D = ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS,
                      Constant(Fraction(1, 2)), label="halving-diagonal")
    # instance (b): drifting two-sided shift with non-trivial gaps
    T = prop32_operator()
    _prop22_inputs(p, lam, D, T)
    for run_mode in Mode:  # both, whatever `mode` is
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
            exact_zero = all(pt.distance == 0 for pt in amp.points)
            subs.append(SubCheck(
                f"diagonal-recurrent-{tag}", PASS if exact_zero else FAIL,
                note=_sampled("exactly recurrent base: amplified hits are exact",
                              p["steps"]),
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
            bounds_ok = all(0 < pt.distance <= pt.bound for pt in amp_b.points)
            subs.append(SubCheck(
                f"drift-amplification-{tag}", PASS if bounds_ok else FAIL,
                note=_sampled("distances scale geometrically under the bound lam^n d",
                              p["steps"]),
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
    """One JSON per certificate plus an index with verdicts, each one line
    of compact JSON with sorted keys (``python3 -m json.tool`` indents it):
    with no indent, json.dumps runs the standard library's C encoder."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = {"defaults_version": defaults.DEFAULTS_VERSION, "verdicts": {},
             "exit_status": aggregate_exit_status(reports)}

    def write(name: str, obj) -> None:
        (out / f"{name}.json").write_text(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")

    for r in reports:
        write(r.name, r.to_jsonable())
        index["verdicts"][r.name] = r.verdict
    write("index", index)
    return out


def bundle_digest(bundle_dir) -> str:
    """Canonical bundle content with timing stripped, for determinism checks."""
    out = []
    for path in sorted(Path(bundle_dir).glob("*.json")):
        data = json.loads(path.read_text())
        data.pop("timing", None)
        out.append(f"{path.name}\n{json.dumps(data, sort_keys=True)}")
    return "\n".join(out)
