"""Finite certificates for the coarse extended limit sets J, J^mix, and D.

A J-certificate is a finite list of triples (x_i, k_i, dist_i): strictly
increasing times, perturbations shrinking along an explicit schedule,
and image distances below the coarse bound.  Membership is only ever
reported as "certified to depth m at schedule eps", never as membership
in the infinite-time set itself.

One search serves every operator.  Each power T^k is monomial: source
s feeds target j with weight product W, so the search back-solves
coordinate by coordinate.  In the sup norm a time k admits a witness
exactly when every mismatch m = y_j - W x_s has |m| < d + |W| eps (|m| < d
on a row with no source), decided exactly for real exact entries; p1
and p2 share a greedy budget between the rows.  The search is budgeted
in power applications; its failures are labelled reasons.  Three of them,
decay-bound, collapse-bound and tail-bound, are exact proofs that y is not
in J(x, T, d); every other reason means "not found within this budget and
strategy", never non-membership.

Each function that returns a witness checks it once; consumers never
check it again.  prop31_rescale, rescale_j_witness_family and
prop22_amplify also check the witnesses they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InputNotAWitnessFamily,
    NumericOverflow,
    OrbitscopeError,
    SearchFailed,
    VerificationFailed,
)
from .numeric import FieldsJSON, Mode, QC, abs2, exact_sqrt, is_zero_scalar, \
    jsonable, log2_abs, make_scalar, real_value, scalar_zero, sqrt_bounds, \
    strict_gt, to_float
from .operators import ShiftOperator, apply_power, path_source, weight_product
from .orbits import CoarseWitness, coarse_orbit_contains
from .spaces import IndexSet, NormTag, SeqVector, dist, dist_and_lt, dist_lt


@dataclass(frozen=True)
class EpsSchedule:
    """Strictly decreasing positive perturbation radii, default 1/i."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise OrbitscopeError("schedule must be non-empty")
        for v in vals:
            if v <= 0:
                raise OrbitscopeError("schedule values must be positive")
        for a, b in zip(vals, vals[1:]):
            if not b < a:
                raise OrbitscopeError("schedule must be strictly decreasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def reciprocal(cls, m: int, scale=1) -> "EpsSchedule":
        s = Fraction(scale)
        return cls(tuple(s / i for i in range(1, m + 1)))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def scale_by(self, factor: Fraction) -> "EpsSchedule":
        f = Fraction(factor)
        return EpsSchedule(tuple(v * f for v in self.values))

    def to_jsonable(self):
        return [str(v) for v in self.values]


@dataclass(frozen=True)
class JWitnessTriple(FieldsJSON):
    perturbed: SeqVector
    time: int
    dist: object


@dataclass(frozen=True)
class JWitness:
    """Finite certificate for y in J(x,T,d) (or J^mix when mix_flag)."""

    base: SeqVector
    target: SeqVector
    bound: object
    norm_tag: NormTag
    schedule: EpsSchedule
    triples: tuple[JWitnessTriple, ...]
    mix_flag: bool = False
    op_label: str = ""

    def __post_init__(self):
        if len(self.triples) != len(self.schedule):
            raise OrbitscopeError("one triple per schedule entry required")
        times = [t.time for t in self.triples]
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise OrbitscopeError("witness times must be strictly increasing")
        if self.mix_flag:
            for a, b in zip(times, times[1:]):
                if b != a + 1:
                    raise OrbitscopeError("mix witnesses need consecutive times")
        if times and times[0] < 1:
            raise OrbitscopeError("witness times must be positive")

    @property
    def times(self):
        return tuple(t.time for t in self.triples)

    def verify(self, T: ShiftOperator) -> None:
        """Check every strict inequality; each producer calls it once."""
        for eps, triple in zip(self.schedule, self.triples):
            if not dist_lt(triple.perturbed, self.base, self.norm_tag, eps):
                raise VerificationFailed(
                    f"perturbation at time {triple.time} not within {eps}")
            image = apply_power(T, triple.time, triple.perturbed)
            r, ok = dist_and_lt(image, self.target, self.norm_tag, self.bound)
            if not ok:
                raise VerificationFailed(
                    f"image at time {triple.time} not within bound {self.bound}")
            recomputed = to_float(r)
            stored = to_float(triple.dist)
            if abs(recomputed - stored) > 1e-6 * max(1.0, abs(stored)):
                raise VerificationFailed(
                    f"stored distance {stored} disagrees with recomputed {recomputed}")

    def to_jsonable(self):
        return {
            "base": self.base.to_jsonable(),
            "target": self.target.to_jsonable(),
            "bound": jsonable(self.bound),
            "norm": self.norm_tag.value,
            "schedule": self.schedule.to_jsonable(),
            "triples": [t.to_jsonable() for t in self.triples],
            "mix": self.mix_flag,
            "operator": self.op_label,
        }


@dataclass(frozen=True)
class DWitness(FieldsJSON):
    """Either branch of D(x,T,d) = O(x,T,d) union J(x,T,d)."""

    kind: str  # "orbit" | "limit"
    coarse: CoarseWitness | None = None
    jwitness: JWitness | None = None

    def __post_init__(self):
        if (self.kind == "orbit") != (self.coarse is not None) or \
                (self.kind == "limit") != (self.jwitness is not None):
            raise OrbitscopeError("exactly one branch must be present")

    def verify(self, T: ShiftOperator) -> None:
        if self.coarse is not None:
            self.coarse.verify(T)
        else:
            self.jwitness.verify(T)


# -- scaling transforms -----------------------------------------------------------


def scale_j_witness(T: ShiftOperator, w: JWitness, factor) -> JWitness:
    """Linearity: a witness for y in J(x,T,d) scales to f*y in J(f*x,T,f*d)."""
    f = Fraction(factor)
    if f <= 0:
        raise OrbitscopeError("scaling factor must be positive")
    mode = w.base.mode if not w.base.is_zero else w.target.mode
    fs = real_value(f, mode)
    out = JWitness(
        base=w.base.scale(fs),
        target=w.target.scale(fs),
        bound=w.bound * fs,
        norm_tag=w.norm_tag,
        schedule=w.schedule.scale_by(f),
        triples=tuple(JWitnessTriple(t.perturbed.scale(fs), t.time, t.dist * fs)
                      for t in w.triples),
        mix_flag=w.mix_flag,
        op_label=w.op_label,
    )
    out.verify(T)
    return out


def with_bound(T: ShiftOperator, w: JWitness, new_bound) -> JWitness:
    """Monotonicity in d: the same triples certify any larger bound."""
    nb = real_value(new_bound, w.base.mode if not w.base.is_zero else w.target.mode)
    out = JWitness(w.base, w.target, nb, w.norm_tag, w.schedule, w.triples,
                   w.mix_flag, w.op_label)
    out.verify(T)
    return out


def prop31_rescale(T: ShiftOperator, w: JWitness, N) -> JWitness:
    """From a witness for N*y in J(x,T,d) to one for y in J(x/N, T, d/N).

    Iterating over growing N shrinks both the perturbation radii and the
    image distances, the finite-scale content of C being contained in
    the limit set of 0 for unilateral shifts.
    """
    n = Fraction(N)
    if n <= 0:
        raise OrbitscopeError("N must be positive")
    w.verify(T)
    return scale_j_witness(T, w, Fraction(1) / n)


# -- budgeted search ----------------------------------------------------------------


def _correction_rows(T: ShiftOperator, k: int, coords, y: SeqVector,
                     image0: SeqVector):
    """(j, mismatch, source, weight product) at time k for each coordinate
    where the image misses y; source and product are None when no path
    reaches j."""
    rows = []
    zero = scalar_zero(image0.mode)
    for j in sorted(coords):
        mismatch = y._entries.get(j, zero) - image0._entries.get(j, zero)
        if is_zero_scalar(mismatch):
            continue
        s = path_source(T, j, k)
        wp = weight_product(T, j, k, image0.mode) if s is not None else None
        if wp is None or wp.is_zero:
            rows.append((j, mismatch, None, None))
        else:
            rows.append((j, mismatch, s, wp))
    return rows


_K_CAP = 10_000  # largest time tried, and largest mix-block start
_MIX_STAGNATION = 200  # mix-block starts without progress


class Budget:
    """Hard cap on power applications for one search call."""

    def __init__(self, limit: int):
        if limit < 0:
            raise OrbitscopeError("budget must be >= 0")
        self.limit = limit
        self.used = 0

    def try_spend(self, n: int = 1) -> bool:
        if self.used + n > self.limit:
            return False
        self.used += n
        return True


@dataclass
class _Attempt:
    ok: bool
    perturbed: SeqVector | None
    dist: object | None
    delta_norm: float
    residual: float


class _SearchLog:
    """One search call's set-up and bookkeeping: its mode, bound and
    structural stops, its budget and attempts, and the best residual and
    delta norm over failed attempts since the last reset_best; builds its
    SearchFailed."""

    def __init__(self, T: ShiftOperator, x: SeqVector, y: SeqVector, d,
                 eps_last: Fraction, budget: int, norm_tag: NormTag):
        self.T, self.x, self.y, self.norm_tag = T, x, y, norm_tag
        self.mode = x.mode if not x.is_zero else y.mode
        self.d_val = real_value(d, self.mode)
        if to_float(self.d_val) <= 0:
            raise OrbitscopeError("d must be positive")
        self.budget = Budget(budget)
        self.stops = _StructuralStops(T, x, y, self.d_val, eps_last, norm_tag)
        self.attempts = 0
        self.k_last = 0
        self.reset_best()

    def reset_best(self) -> None:
        self.best_res = self.best_delta = math.inf

    def attempt(self, eps, k: int) -> _Attempt | None:
        att = _greedy_attempt(self.T, self.x, self.y, self.d_val, eps, k,
                              self.norm_tag, self.budget, self.mode)
        if att is not None:
            self.attempts += 1
            self.k_last = k
            if not att.ok:
                self.best_res = min(self.best_res, att.residual)
                self.best_delta = min(self.best_delta, att.delta_norm)
        return att

    def failure(self, message: str, reason: str, triple_index: int,
                proof: dict | None = None) -> SearchFailed:
        return SearchFailed(
            message, reason=reason, triple_index=triple_index,
            best_residual=self.best_res, best_delta_norm=self.best_delta,
            attempts=self.attempts,
            budget_used=self.budget.used, k_last=self.k_last, proof=proof)


# safety factor keeping p1/p2 greedy corrections strictly inside the radius
_THETA = 0.9


def _div_by_product(mismatch, wp, mode: Mode):
    """mismatch / weight-product, robust to float-mode magnitude extremes."""
    if mode is Mode.EXACT:
        return mismatch / wp.exact_value
    lg = wp.log2_magnitude
    if log2_abs(mismatch) - lg < -1040:
        return complex(0.0, 0.0)  # below float resolution; no-op correction
    if lg < -1000:
        return complex(math.inf, 0.0)  # past float range; no radius holds it
    return mismatch / wp.phase * (2.0 ** (-lg))


def _magnitude(v):
    """|v|: an exact Fraction for a real exact scalar, a float otherwise."""
    if isinstance(v, QC):
        return abs(v.re) if not v.im else math.sqrt(to_float(v.abs2()))
    return abs(v)


def _greedy_attempt(T: ShiftOperator, x: SeqVector, y: SeqVector, d_val, eps,
                    k: int, norm_tag: NormTag, budget: Budget,
                    mode: Mode) -> _Attempt | None:
    """One back-solve attempt at time k; None when the budget ran out.

    In the sup norm the attempt is decided row by row, exactly for real
    exact entries and as a screen otherwise; the final checks decide."""
    if not budget.try_spend(1):
        return None
    try:
        image0 = apply_power(T, k, x)
    except NumericOverflow:
        return _Attempt(False, None, None, math.inf, math.inf)
    coords = set(y.support) | set(image0.support)
    rows = _correction_rows(T, k, coords, y, image0)
    delta_entries = {}
    uncorrected = []
    feasible = True
    if norm_tag is NormTag.PINF:
        # rows are independent in the sup norm: with u = m/W, some
        # delta_s = t*u meets |delta_s| < eps and |m - W delta_s| < d
        # exactly when |m| < d + |W| eps.  Take u when it fits, else
        # nothing when |m| < d, else t at the midpoint of
        # (1 - d/|m|, eps/|u|); a row with no source needs |m| < d
        for _, mismatch, s, wp in rows:
            m_abs = _magnitude(mismatch)
            if s is not None:
                u = _div_by_product(mismatch, wp, mode)
                u_abs = _magnitude(u)
                if strict_gt(eps, u_abs, mode):
                    delta_entries[s] = u
                    continue
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
        # joint budget: cheapest full corrections first; a row's cost is
        # |m/W|, infinite past float range
        fixable = []
        for j, m, s, wp in rows:
            m_f = math.sqrt(to_float(abs2(m)))
            if s is None:
                uncorrected.append(m_f)
                continue
            u = _div_by_product(m, wp, mode)
            fixable.append((to_float(_magnitude(u)), m_f, j, u, s))
        fixable.sort(key=lambda r: (r[0], r[2]))
        eps_f = to_float(eps)
        budget_total = (eps_f * _THETA) ** 2 if norm_tag is NormTag.P2 else eps_f * _THETA
        spent = 0.0
        for cost, m_f, _, u, s in fixable:
            add = cost * cost if norm_tag is NormTag.P2 else cost
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
    if not budget.try_spend(1):
        return None
    perturbed = x + delta
    try:
        image = apply_power(T, k, perturbed)
    except NumericOverflow:
        return _Attempt(False, None, None, delta_norm, math.inf)
    r, ok = dist_and_lt(image, y, norm_tag, d_val)
    return _Attempt(ok, perturbed if ok else None, r if ok else None, delta_norm,
                    to_float(r))


def _exact_abs2(v) -> Fraction:
    """|v|^2 as a Fraction; float parts convert losslessly."""
    re, im = Fraction(v.real), Fraction(v.imag)
    return re * re + im * im


def _root_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(q) <= hi, both exact when sqrt(q) is rational."""
    r = exact_sqrt(q)
    return (r, r) if r is not None else sqrt_bounds(q, 64)


def _norm_bounds(v: SeqVector, norm_tag: NormTag) -> tuple[Fraction, Fraction]:
    """Rational lo <= ||v|| <= hi, from the exact |v_j|^2 of each entry."""
    squares = [_exact_abs2(u) for _, u in v.items()]
    if norm_tag is NormTag.P1:
        bounds = [_root_bounds(a) for a in squares]
        return (sum((lo for lo, _ in bounds), Fraction(0)),
                sum((hi for _, hi in bounds), Fraction(0)))
    return _root_bounds(sum(squares, Fraction(0)) if norm_tag is NormTag.P2
                        else max(squares, default=Fraction(0)))


def _first_power_at_most(b: Fraction, r: Fraction) -> int | None:
    """Smallest k >= 1 with b^k <= r, for 0 < b < 1 and r > 0; None past
    _K_CAP.  A float estimate picks k and exact powers settle it."""
    if b <= r:
        return 1
    est = (math.log(r.numerator) - math.log(r.denominator)) / \
        (math.log(b.numerator) - math.log(b.denominator))
    if est > _K_CAP + 1:
        return None
    k = max(1, math.ceil(est))
    while k > 1 and b ** (k - 1) <= r:
        k -= 1
    while b ** k > r:
        k += 1
    return k if k <= _K_CAP else None


class _StructuralStops:
    """Exact proofs that y is not in J(x, T, d), for one search.

    Each is decided in Fractions with eps the schedule's smallest radius:
    a certificate needs that radius at a time after every earlier triple,
    so a time that fails for it stops the search.  Every power of T sends
    each coordinate to its own row, times a product of weights, so with
    S^2 and I^2 the largest and smallest |w|^2 over T's weights,
    ||T^k z|| <= S^k ||z|| in every norm here, and ||T^k z|| >= I^k ||z||
    when T annihilates nothing.  For every z with ||z - x|| < eps:

    * decay-bound: if S < 1 and S^k (||x|| + eps) <= ||y|| - d, then
      ||T^k z - y|| >= ||y|| - ||T^k z|| > d.
    * collapse-bound: if I > 1, T annihilates nothing and
      I^k (||x|| - eps) >= ||y|| + d, then ||T^k z - y|| > d.

    S^k falls and I^k grows with k, so each holds from its first time k0
    on; k0 is found once, comparing S^2k or I^2k with the squared ratio of
    rational bounds on the norms, which the proof records.

    * tail-bound: take a source s of x on a floorless path whose weights
      all have modulus >= 1, at a time k whose target t = s -/+ k has left
      supp y for good.  If |W| (|x_s| - eps) >= d with W the path product,
      then every z as above has |W z_s| > |W| (|x_s| - eps) >= d at row t,
      where y_t = 0 and no other source lands.  |W| never shrinks as k
      grows, so eps fails at every time from k on, in every norm here (the
      p1 and p2 balls lie inside the sup balls).
    """

    def __init__(self, T: ShiftOperator, x: SeqVector, y: SeqVector, d_val,
                 eps_last: Fraction, norm_tag: NormTag):
        self.T = T
        self.eps = eps = eps_last
        self.d = d = Fraction(d_val)
        self.y_span = (y.support_min, y.support_max)
        weights = [w.abs2() for _, rule, _ in T.components()
                   for w in rule.weight_values()]
        s2, i2 = max(weights), min(weights)
        # (reason, k0, proof) for each stop that holds from some k0 on
        self.proved = []
        if s2 < 1:
            x_hi, y_lo = _norm_bounds(x, norm_tag)[1], _norm_bounds(y, norm_tag)[0]
            if y_lo > d:
                self._record("decay-bound", _first_power_at_most(
                    s2, ((y_lo - d) / (x_hi + eps)) ** 2),
                    f"S^k*(||x|| + eps) <= ||y|| - d with S^2 = {s2}, "
                    f"||x|| <= {x_hi}, ||y|| >= {y_lo}, d = {d}")
        if i2 > 1 and not T.annihilates:
            x_lo, y_hi = _norm_bounds(x, norm_tag)[0], _norm_bounds(y, norm_tag)[1]
            if x_lo > eps:
                self._record("collapse-bound", _first_power_at_most(
                    1 / i2, ((x_lo - eps) / (y_hi + d)) ** 2),
                    f"I^k*(||x|| - eps) >= ||y|| + d with I^2 = {i2}, "
                    f"||x|| >= {x_lo}, ||y|| <= {y_hi}, d = {d}")
        # (s, step, |x_s|^2) for each source that may carry a tail proof;
        # one with |x_s| <= eps never does
        self.tails = []
        for s, v in x.items():
            comp = T.component_for(s)
            if comp is None:
                continue
            kind, rule, band = comp
            if not ((kind == "backward" and band.lo is None)
                    or (kind == "forward" and band.hi is None)):
                continue
            if any(w.abs2() < 1 for w in rule.weight_values()):
                continue
            a = _exact_abs2(v)
            if a > eps * eps:
                self.tails.append((s, -1 if kind == "backward" else 1, a))

    def _record(self, reason: str, k0: int | None, inequality: str) -> None:
        if k0 is not None:
            self.proved.append((reason, k0, {"k0": k0, "eps": str(self.eps),
                                             "inequality": inequality}))

    def at(self, k: int) -> tuple[str, dict] | None:
        """(reason, proof) for the first stop that holds at time k, else None."""
        for reason, k0, proof in self.proved:
            if k >= k0:
                return reason, proof
        proof = self._tail_proof(k)
        return ("tail-bound", proof) if proof is not None else None

    def _tail_proof(self, k: int) -> dict | None:
        y_min, y_max = self.y_span
        eps2, d2 = self.eps * self.eps, self.d * self.d
        for s, step, a in self.tails:
            t = s + step * k
            if y_min is not None and (t >= y_min if step < 0 else t <= y_max):
                continue
            b = weight_product(self.T, t, k).exact_value.abs2()
            # sqrt(a) >= eps + d/sqrt(b), squared twice: with
            # p = a b - eps^2 b - d^2, p >= 0 and p^2 >= 4 eps^2 d^2 b
            p = a * b - eps2 * b - d2
            if p >= 0 and p * p >= 4 * eps2 * d2 * b:
                return {"k0": k, "eps": str(self.eps), "coordinate": t,
                        "inequality": f"|W|*(|x_{s}| - eps) >= d with "
                                      f"|W|^2 = {b}, |x_{s}|^2 = {a}, d = {self.d}"}
        return None


def search_j_witness(T: ShiftOperator, x: SeqVector, y: SeqVector, d,
                     schedule: EpsSchedule, budget: int, *,
                     norm_tag: NormTag = NormTag.PINF, k_min: int = 1,
                     stagnation_window: int = 400) -> JWitness:
    """Per-time back-solve search with structural pruning, at times from
    k_min to 10000.

    Raises SearchFailed with labelled diagnostics.  A structural stop,
    decay-bound, collapse-bound or tail-bound, carries its proof that y is
    not in J(x, T, d); every other failure means "not found within this
    budget and strategy", never non-membership.
    """
    log = _SearchLog(T, x, y, d, schedule.values[-1], budget, norm_tag)
    d_f = to_float(log.d_val)
    triples = []
    k_prev = k_min - 1

    def fail(reason: str, i: int, proof: dict | None = None):
        return log.failure(f"triple {i + 1}: {reason}", reason, i, proof)

    for i, eps in enumerate(schedule):
        eps_f = to_float(eps)
        found = None
        log.reset_best()
        best_gap = math.inf
        last_improve = k_prev
        k = k_prev + 1
        while k <= _K_CAP:
            stop = log.stops.at(k)
            if stop is not None:
                reason, proof = stop
                raise fail(reason, i, proof)
            att = log.attempt(eps, k)
            if att is None:
                raise fail("budget", i)
            if att.ok:
                found = JWitnessTriple(att.perturbed, k, att.dist)
                break
            gap = max(0.0, att.residual - d_f) + max(0.0, att.delta_norm - eps_f)
            if gap < best_gap - 1e-12:
                best_gap = gap
                last_improve = k
            if k - last_improve > stagnation_window:
                raise fail("stagnation", i)
            k += 1
        if found is None:
            raise fail("k-cap", i)
        triples.append(found)
        k_prev = found.time
    out = JWitness(x, y, log.d_val, norm_tag, schedule, tuple(triples),
                   mix_flag=False, op_label=T.label)
    out.verify(T)
    return out


def jmix_witness(T: ShiftOperator, x: SeqVector, y: SeqVector, d, m: int,
                 N_start: int, budget: int, *, norm_tag: NormTag = NormTag.PINF,
                 schedule: EpsSchedule | None = None) -> JWitness:
    """Witness with consecutive times N..N+m-1 (the mixing variant), for
    starts N from N_start to 10000; it gives up after 200 starts without
    progress."""
    if m < 1:
        raise OrbitscopeError("m must be >= 1")
    if N_start < 1:
        raise OrbitscopeError("N_start must be >= 1")
    schedule = schedule or EpsSchedule.reciprocal(m)
    if len(schedule) != m:
        raise OrbitscopeError("schedule length must equal m")
    log = _SearchLog(T, x, y, d, schedule.values[-1], budget, norm_tag)
    last_partial = -1
    last_improve = N_start - 1
    N = N_start
    while N <= _K_CAP:
        stop = log.stops.at(N)
        if stop is not None:
            reason, proof = stop
            raise log.failure(f"mix block at N={N}: {reason}", reason, 0, proof)
        triples = []
        progress = 0
        for i, eps in enumerate(schedule):
            att = log.attempt(eps, N + i)
            if att is None:
                raise log.failure("mix search budget exhausted", "budget", i)
            if not att.ok:
                break
            progress += 1
            triples.append(JWitnessTriple(att.perturbed, N + i, att.dist))
        if len(triples) == m:
            out = JWitness(x, y, log.d_val, norm_tag, schedule, tuple(triples),
                           mix_flag=True, op_label=T.label)
            out.verify(T)
            return out
        if progress > last_partial:
            last_partial = progress
            last_improve = N
        if N - last_improve > _MIX_STAGNATION:
            raise log.failure("mix search stagnated", "stagnation", progress)
        N += 1
    raise log.failure("mix start cap reached", "k-cap", 0)


def d_witness(T: ShiftOperator, x: SeqVector, y: SeqVector, d, K: int,
              schedule: EpsSchedule, budget: int, *,
              norm_tag: NormTag = NormTag.PINF) -> DWitness:
    """Coarse-orbit branch first (cheaper), then the J branch."""
    w = coarse_orbit_contains(T, x, d, y, K, norm_tag)
    if w is not None:
        return DWitness("orbit", coarse=w)
    jw = search_j_witness(T, x, y, d, schedule, budget, norm_tag=norm_tag)
    return DWitness("limit", jwitness=jw)


# -- scale-family rescaling ----------------------------------------------------------


@dataclass(frozen=True)
class FamilyRescaleResult(FieldsJSON):
    witness: JWitness
    scale_index: int  # 1-based index m with d/t_m below target_eps
    scales_used: tuple[Fraction, ...]


def rescale_j_witness_family(T: ShiftOperator,
                             family: list[tuple[object, JWitness]],
                             target_eps) -> FamilyRescaleResult:
    """Re-index witnesses for t_k*y in J^mix(t_k*x, T, d) into one
    certificate for y at tolerance target_eps.

    Members with d/t_k below target_eps are divided by their scale and
    concatenated; output distances stay below d/t_m, and a strictly
    decreasing majorant schedule dominates the scaled radii.
    """
    if not family:
        raise OrbitscopeError("empty family")
    scales = [Fraction(t) for t, _ in family]
    for a, b in zip(scales, scales[1:]):
        if not b > a:
            raise OrbitscopeError("scales t_k must be strictly increasing")
    if scales[0] <= 0:
        raise OrbitscopeError("scales must be positive")
    witnesses = [w for _, w in family]
    mode = witnesses[0].target.mode
    d_val = witnesses[0].bound
    d_frac = Fraction(d_val)
    eps_frac = Fraction(target_eps)
    base = witnesses[0].base.scale(real_value(Fraction(1) / scales[0], mode))
    target = witnesses[0].target.scale(real_value(Fraction(1) / scales[0], mode))
    for t, w in family:
        w.verify(T)
        if w.bound != d_val:
            raise OrbitscopeError("family members must share the bound d")
    m_index = None
    for idx, t in enumerate(scales):
        radius_bound = max(witnesses[idx].schedule.values) / t
        if d_frac / t < eps_frac and radius_bound < eps_frac:
            m_index = idx
            break
    if m_index is None:
        raise OrbitscopeError(
            f"family too short: need d/t_m < {eps_frac} with radii to match")
    out_triples = []
    radius_bounds = []
    prev_time = 0
    for idx in range(m_index, len(family)):
        t = scales[idx]
        w = witnesses[idx]
        inv = real_value(Fraction(1) / t, mode)
        for eps, triple in zip(w.schedule, w.triples):
            if triple.time <= prev_time:
                raise OrbitscopeError(
                    "family witness times must increase across members")
            prev_time = triple.time
            scaled_dist = triple.dist * (Fraction(1) / t) \
                if isinstance(triple.dist, Fraction) else to_float(triple.dist) / to_float(t)
            out_triples.append(JWitnessTriple(
                triple.perturbed.scale(inv), triple.time, scaled_dist))
            radius_bounds.append(eps / t)
    # strictly decreasing majorant of the per-triple radius bounds
    suffix_max = list(radius_bounds)
    for j in range(len(suffix_max) - 2, -1, -1):
        suffix_max[j] = max(suffix_max[j], suffix_max[j + 1])
    sched_vals = []
    for j, mj in enumerate(suffix_max):
        slack = 1 + Fraction(1, j + 2)
        sched_vals.append(slack * min(mj, eps_frac))
    schedule = EpsSchedule(tuple(sched_vals))
    times = [t.time for t in out_triples]
    consecutive = all(b == a + 1 for a, b in zip(times, times[1:]))
    all_mix = all(w.mix_flag for w in witnesses[m_index:])
    out = JWitness(base, target, real_value(d_frac / scales[m_index], mode),
                   witnesses[0].norm_tag, schedule, tuple(out_triples),
                   mix_flag=consecutive and all_mix,
                   op_label=witnesses[0].op_label)
    out.verify(T)
    return FamilyRescaleResult(out, m_index + 1, tuple(scales))


# -- geometric density amplification -------------------------------------------------


@dataclass(frozen=True)
class AmplifiedPoint(FieldsJSON):
    n: int
    time: int
    point: SeqVector
    distance: object
    bound: object


@dataclass(frozen=True)
class Prop22Amplification:
    lam: object
    points: tuple[AmplifiedPoint, ...]
    recurrence_times: tuple[int, ...]
    recurrence_tol: object | None

    def to_jsonable(self):
        return {"lambda": jsonable(self.lam),
                "points": [p.to_jsonable() for p in self.points],
                "recurrence_times": list(self.recurrence_times),
                "recurrence_tol": jsonable(self.recurrence_tol)}


def prop22_amplify(T: ShiftOperator, x: SeqVector, y: SeqVector, d, lam,
                   coarse_witnesses: list[CoarseWitness], *,
                   norm_tag: NormTag = NormTag.PINF,
                   recurrence: tuple[list[int], object] | None = None
                   ) -> Prop22Amplification:
    """Turn witnesses for (1/lam^n) y into points T^{k_n}(lam^n x) near y.

    By linearity the emitted distance at step n is exactly lam^n times
    the original achieved distance, hence below lam^n * d; both facts
    are re-verified numerically.
    """
    mode = x.mode if not x.is_zero else y.mode
    lam_frac = Fraction(lam)
    if not (0 < abs(lam_frac) < 1):
        raise OrbitscopeError("need 0 < |lambda| < 1")
    d_val = real_value(d, mode)
    out = []
    for n, w in enumerate(coarse_witnesses, start=1):
        w.verify(T)
        if w.base != x:
            raise OrbitscopeError(f"witness {n} has a different base point")
        if w.bound != d_val:
            raise OrbitscopeError(f"witness {n} carries a different bound")
        lam_n = lam_frac ** n
        expected_target = y.scale(real_value(Fraction(1) / lam_n, mode))
        if w.target != expected_target:
            raise OrbitscopeError(
                f"witness {n} target is not (1/lambda^{n}) y")
        scaled_base = x.scale(real_value(lam_n, mode))
        point = apply_power(T, w.time, scaled_base)
        bound_n = real_value(abs(lam_n), mode) * d_val
        dist_n, ok = dist_and_lt(point, y, norm_tag, bound_n)
        if not ok:
            raise VerificationFailed(
                f"amplified point {n} missed the lam^n d bound")
        # linearity check: the gap must be exactly lam^n times the original gap
        diff = point - y
        orig_diff = apply_power(T, w.time, x) - w.target
        expected = orig_diff.scale(real_value(lam_n, mode))
        if mode is Mode.EXACT:
            if diff != expected:
                raise VerificationFailed("amplified gap is not lam^n * original")
        elif to_float(dist(diff, expected, norm_tag)) > 1e-9 * max(to_float(dist_n), 1.0):
            raise VerificationFailed("amplified gap drifted past 1e-9 relative")
        out.append(AmplifiedPoint(n, w.time, point, dist_n, bound_n))
    rec_times: tuple[int, ...] = ()
    rec_tol = None
    if recurrence is not None:
        times, tol = recurrence
        rec_tol = real_value(tol, mode)
        lam_s = real_value(lam_frac, mode)
        lx = x.scale(lam_s)
        for t in times:
            if not dist_lt(apply_power(T, t, x), lx, norm_tag, rec_tol):
                raise VerificationFailed(
                    f"recurrence time {t}: T^t x is not within tol of lambda x")
        rec_times = tuple(times)
    return Prop22Amplification(real_value(lam_frac, mode), tuple(out),
                               rec_times, rec_tol)


# -- the quarter-tolerance contradiction checker -------------------------------------


@dataclass(frozen=True)
class ContradictionReport(FieldsJSON):
    """Two incompatible bounds on one coordinate of the claimed limit."""

    n0_index: int
    n1_index: int
    time_n0: int
    time_n1: int
    coordinate: int
    w_value: object
    bound_near_one_holds: bool
    bound_near_zero_holds: bool


def derive_remark32_bounds(w: SeqVector, family: list[tuple[SeqVector, int]],
                           n0: int = 0, n1: int = 1) -> ContradictionReport:
    """Exhibit the incompatible coordinate bounds for a claimed family.

    For members n0 < n1 the two verified inequalities force both
    |w(-k_{n1}) - 1| < 1/2 and |w(-k_{n1})| < 1/2, an empty intersection.
    This derivation does not itself re-verify the family.
    """
    _, k0 = family[n0]
    _, k1 = family[n1]
    coord = -k1
    val = w.entry(coord)
    val_f = complex(to_float(val.real), to_float(val.imag))
    near_one = abs(val_f - 1) < 0.5
    near_zero = abs(val_f) < 0.5
    return ContradictionReport(n0, n1, k0, k1, coord,
                               [val_f.real, val_f.imag], near_one, near_zero)


def remark32_contradiction_check(T: ShiftOperator, candidate_w: SeqVector,
                                 family: list[tuple[SeqVector, int]], *,
                                 tol=Fraction(1, 4)) -> ContradictionReport:
    """Reject or contradict a claimed J(e_0, T, 1/4)-style witness family.

    The preconditions ||y_n - e_0|| < 1/4 and ||T^{k_n} y_n - w|| < 1/4
    are re-verified; failures raise InputNotAWitnessFamily (consistent
    with the limit set being empty).  A family passing them is reported
    with the two incompatible coordinate bounds it forces.
    """
    if len(family) < 2:
        raise InputNotAWitnessFamily(
            "need at least two members to exhibit the contradiction")
    times = [k for _, k in family]
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise InputNotAWitnessFamily("times must be strictly increasing")
    if times[0] < 1:
        raise InputNotAWitnessFamily("times must be positive integers")
    mode = candidate_w.mode if not candidate_w.is_zero else family[0][0].mode
    e0 = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
    tol_val = real_value(tol, mode)
    failures = []
    for idx, (y_n, k_n) in enumerate(family):
        r, ok = dist_and_lt(y_n, e0, NormTag.PINF, tol_val)
        if not ok:
            failures.append((idx, "perturbation", to_float(r)))
            continue
        r, ok = dist_and_lt(apply_power(T, k_n, y_n), candidate_w, NormTag.PINF, tol_val)
        if not ok:
            failures.append((idx, "image", to_float(r)))
    # the claim quantifies over a tail: locate the first index from which
    # every member verifies, and exhibit the pair at its head
    failed_idx = {f[0] for f in failures}
    n0 = len(family)
    while n0 > 0 and (n0 - 1) not in failed_idx:
        n0 -= 1
    if len(family) - n0 < 2:
        raise InputNotAWitnessFamily(
            "no verified tail of length >= 2 (consistent with an empty limit set)",
            failures=failures)
    report = derive_remark32_bounds(candidate_w, family, n0, n0 + 1)
    if report.bound_near_one_holds and report.bound_near_zero_holds:
        # both are implied by the verified inequalities yet exclude each
        # other; reaching this line means the arithmetic layer is broken
        raise VerificationFailed(
            "both incompatible bounds evaluated true; arithmetic inconsistency")
    return report
