"""Finite certificates for the coarse extended limit sets J, J^mix, and D.

A J-certificate is a finite list of triples (x_i, k_i, dist_i): strictly
increasing times, perturbations shrinking along an explicit schedule,
and image distances below the coarse bound.  Membership is only ever
reported as "certified to depth m at schedule eps", never as membership
in the infinite-time set itself.

One search serves every operator.  Each power T^k is monomial: source
s feeds target j with weight product W, so the search back-solves
coordinate by coordinate.  Its one row table holds s and W for every row
of supp y and T^k(supp x), with x's entry where x lands; each row of y is
stepped from one time to the next by one weight multiply, and a row x
lands on takes y's W when y holds it.  In the sup norm a time k admits a
witness exactly when every mismatch m = y_j - W x_s has |m| < d + |W| eps
(|m| < d on a row with no source).  For real exact entries and weights
this is decided by integer cross-multiplication, and the perturbed image
is read off the same rows; complex entries and float mode keep the row
rule as a screen, followed by the final checks.  p1 and p2 share a
greedy budget between the rows.  The search is budgeted in power
applications; its failures are labelled reasons.  Three of them,
decay-bound, collapse-bound and tail-bound, are exact proofs that y is not
in J(x, T, d); every other reason means "not found within this budget and
strategy", never non-membership.

Each function that returns a witness checks it once; consumers never
check it again.  rescale_j_witness_family and prop22_amplify take the
witnesses they are given as checked, and check only the certificate they
return.
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
from .numeric import FieldsJSON, Mode, QC, abs2, jsonable, log2_abs, make_scalar, \
    positive_value, ratio_float, real_value, scalar_zero, sqrt_bounds, strict_gt, to_float
from .operators import ShiftOperator, _lane_into, _lanes, apply_power
from .orbits import CoarseWitness, coarse_orbit_contains
from .spaces import IndexSet, NormTag, SeqVector, common_mode, dist, dist_and_lt, dist_lt, \
    norm_and_lt


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
    def reciprocal(cls, m: int) -> "EpsSchedule":
        return cls(tuple(Fraction(1, i) for i in range(1, m + 1)))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

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
            if isinstance(r, Fraction):  # an exact distance agrees exactly
                agrees = r == triple.dist
            else:
                stored = to_float(triple.dist)
                agrees = abs(to_float(r) - stored) <= 1e-6 * max(1.0, abs(stored))
            if not agrees:
                raise VerificationFailed(
                    f"stored distance {triple.dist} disagrees with recomputed {r}")

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


# -- budgeted search ----------------------------------------------------------------


_NO_PRODUCT = scalar_zero(Mode.EXACT)  # W of a row no source reaches; any other's is _Lane.product
_K_CAP = 10_000  # largest time tried, and largest mix-block start
_MIX_STAGNATION = 200  # mix-block starts without progress
_REMARK32_TOL = Fraction(1, 4)  # a Remark 3.2 family's radius; it forces bounds of twice it


class Budget:
    """Hard cap on power applications for one search call."""

    def __init__(self, limit: int):
        if limit < 0:
            raise OrbitscopeError("budget must be >= 0")
        self.limit = limit
        self.used = 0

    def try_spend(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


@dataclass
class _Attempt:
    ok: bool
    perturbed: SeqVector | None
    dist: object | None
    delta_norm: float
    residual: float


class _SearchLog:
    """One J search call: its T, x, y, bound d, norm, mode, budget and
    structural stops, the lanes of x, T's weights, its row table, and its
    attempts with the best residual and delta norm over failed ones since
    the last reset_best; builds its SearchFailed.

    Before any stop or attempt it checks y against x as x - y does and
    lists x's lanes as apply_power does, so an input outside T's domain
    raises IndexSetMismatch or ModeMismatch and gets no proof.

    ``table(k)`` maps each row j of supp y and T^k(supp x) to (s, W, lane,
    x_s): the source s of the path into j at time k and the path's exact
    product W (None and 0 when no source reaches j), and, on a row x lands
    on, x's lane and entry, so that T^k x has lane.entry(k, x_s, W) there
    (None and None elsewhere).  The rows of supp y are kept from call to
    call: at k + 1 each source moves one index away from j and W takes its
    weight, reduced, so a row stays the source and product of the lane
    into j exactly, and a source that leaves its band, an interval, never
    returns; at any other time they are formed afresh.  A row that x lands
    on and y holds takes y's W, so no product is formed twice."""

    def __init__(self, T: ShiftOperator, x: SeqVector, y: SeqVector, d,
                 eps_last: Fraction, budget: int, norm_tag: NormTag):
        x._check(y)
        self.lanes = list(_lanes(T, x))
        self.T, self.x, self.y, self.norm_tag = T, x, y, norm_tag
        self.mode = common_mode(x, y)
        self.d_val = positive_value(d, self.mode, "d")
        self.budget = Budget(budget)
        self.weights = [(rule, w) for _, rule, _ in T.components()
                        for w in rule.weight_values()]
        # real exact vectors and weights in the sup norm: decided in integers
        self.real_sup = norm_tag is NormTag.PINF and x.mode is y.mode is Mode.EXACT \
            and not any(v._b for v in (*x._entries.values(), *y._entries.values())) \
            and not any(w._b for _, w in self.weights)
        self.stops = _StructuralStops(self, eps_last)
        # j -> (s, W, (step, weight_at, contains) of the lane into j) for
        # each row of supp y, at time k
        self.k, self.y_rows = None, dict.fromkeys(y._entries)
        self.attempts = 0
        self.k_last = 0
        self.reset_best()

    def reset_best(self) -> None:
        self.best_res = self.best_delta = math.inf

    def table(self, k: int) -> dict:
        y_rows = self.y_rows
        if k - 1 != self.k:
            for j in y_rows:
                lane = _lane_into(self.T, j, k)
                y_rows[j] = (None, _NO_PRODUCT, None) if lane is None else \
                    (lane.s, lane.product(k), (lane.step, lane.rule.weight_at, lane.band.contains))
        else:
            for j, (s, w, path) in y_rows.items():
                if path is not None:
                    step, weight_at, contains = path
                    s -= step
                    y_rows[j] = (s, w * weight_at(s), path) if contains(s) else \
                        (None, _NO_PRODUCT, None)
        self.k = k
        rows = {j: (s, w, None, None) for j, (s, w, _) in y_rows.items()}
        for lane, v in self.lanes:
            if k <= lane.life:
                s, t = lane.s, lane.s + lane.step * k
                row = y_rows.get(t)
                rows[t] = (s, lane.product(k) if row is None else row[1], lane, v)
        return rows

    def attempt(self, eps, k: int) -> _Attempt | None:
        att = (_real_sup_attempt if self.real_sup else _greedy_attempt)(self, eps, k)
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


def _div_by_product(mismatch, wp: QC, mode: Mode):
    """mismatch / weight-product; in float mode by the product rounded once,
    robust to magnitude extremes."""
    if mode is Mode.EXACT:
        return mismatch / wp
    lg = log2_abs(wp)
    if log2_abs(mismatch) - lg < -1040:
        return complex(0.0, 0.0)  # below float resolution; no-op correction
    if lg < -1000:
        return complex(math.inf, 0.0)  # past float range; no radius holds it
    try:
        return mismatch / wp.to_complex()
    except OverflowError:  # a product past double range: divide exactly, round once
        return (make_scalar(mismatch, Mode.EXACT) / wp).to_complex()


def _magnitude(v):
    """|v|: an exact Fraction for a real exact scalar, a float otherwise."""
    if isinstance(v, QC):
        return Fraction(abs(v._a), v._d) if not v._b else math.sqrt(to_float(v.abs2()))
    return abs(v)


def _greedy_attempt(search: _SearchLog, eps, k: int) -> _Attempt | None:
    """One back-solve attempt at time k for search; None when its budget
    ran out.

    Each row's source, product and entry of T^k x are read off the
    search's ``table(k)``, an entry landed by x's lane, so no power is
    applied to x.  In the sup norm the attempt is decided row by row as a
    screen, for complex exact entries or float ones; the final checks
    decide.  A sup-norm search over real exact vectors and weights runs
    _real_sup_attempt instead, which decides each row exactly."""
    budget, norm_tag, mode, d_val = search.budget, search.norm_tag, search.mode, search.d_val
    if not budget.try_spend():
        return None
    eps = real_value(eps, mode)
    x, ys = search.x, search.y._entries
    table = search.table(k)
    zero = scalar_zero(x.mode)
    rows = []  # (j, mismatch, s, W); s is None when no path reaches j
    try:  # an entry that underflowed is the zero apply_power drops
        for j in sorted(table):
            s, w, lane, v = table[j]
            image = zero if lane is None else lane.entry(k, v, w) or zero
            target = ys.get(j, zero)
            if target != image:
                rows.append((j, target - image, s, w))
    except NumericOverflow:
        return _Attempt(False, None, None, math.inf, math.inf)
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
            if s is not None:
                u = _div_by_product(mismatch, wp, mode)
                u_abs = _magnitude(u)
                if strict_gt(eps, u_abs, mode):
                    delta_entries[s] = u
                    continue
            m_abs = _magnitude(mismatch)
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
    delta_r, delta_ok = norm_and_lt(delta, norm_tag, eps)
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
        image = apply_power(search.T, k, perturbed)
    except NumericOverflow:
        return _Attempt(False, None, None, delta_norm, math.inf)
    r, ok = dist_and_lt(image, search.y, norm_tag, d_val)
    return _Attempt(ok, perturbed if ok else None, r if ok else None, delta_norm,
                    to_float(r))


def _real_sup_attempt(search: _SearchLog, eps: Fraction, k: int) -> _Attempt | None:
    """_greedy_attempt's sup-norm attempt for real exact x, y and weights,
    with the same result, decided in integers from the same row table.

    Each row j of the search's ``table(k)`` gives its source s, its product
    W = wa/wd and its mismatch m = y_j - W x_s = p/q, once; no power is
    applied.  The row rule is decided by cross-multiplication, and the
    distance of the perturbed image, max_j |y_j - W z_s|, is read off the
    same rows."""
    if not search.budget.try_spend():
        return None
    x, ys, d_val = search.x, search.y._entries, search.d_val
    rows = {}  # j -> (s, wa, wd, p, q) with q > 0; s is None when no path reaches j
    for j, (s, w, _, v) in search.table(k).items():
        wa, wd, yj = w._a, w._d, ys.get(j)
        if v is None:
            rows[j] = (s, wa, wd, yj._a, yj._d)
        else:
            ia, iq = wa * v._a, wd * v._d
            rows[j] = (s, wa, wd, -ia, iq) if yj is None else \
                (s, wa, wd, yj._a * iq - ia * yj._d, yj._d * iq)
    en, ed = eps.numerator, eps.denominator
    dn, dd = d_val.numerator, d_val.denominator
    deltas = {}  # s -> (num, den), delta_s = num/den with den > 0
    big_n, big_d = 0, 1  # the largest |delta_s|
    residual = 0.0
    feasible = True
    for s, wa, wd, p, q in rows.values():
        if not p:
            continue
        ap, aw = abs(p), abs(wa)
        if s is not None and ap * wd * ed < en * q * aw:  # |u| < eps for u = m/W
            num, den = ap * wd, q * aw
        elif ap * dd < dn * q:  # |m| < d
            continue
        else:
            # lo < hi for lo = 1 - d/|m| and hi = eps/|u|, times |m| dd ed wd;
            # t = (lo + hi)/2 gives delta_s = t u
            a, b = (ap * dd - dn * q) * ed * wd, en * q * aw * dd
            if s is None or not a < b:
                # an infeasible attempt reports the largest residual left,
                # this |m| >= d or another's: a row left alone or partly
                # corrected keeps its residual below d
                feasible = False
                residual = max(residual, ratio_float(ap, q))
                continue
            num, den = a + b, 2 * q * aw * dd * ed
        deltas[s] = (num if (p > 0) is (wa > 0) else -num, den)  # the sign of m/W
        if num * big_d > big_n * den:
            big_n, big_d = num, den
    delta_norm = ratio_float(big_n, big_d)
    if not feasible:
        return _Attempt(False, None, None, delta_norm, residual)
    if not search.budget.try_spend():
        return None
    entries = dict(x._entries)
    for s, (num, den) in deltas.items():
        v = entries.get(s)
        if v is not None:
            num, den = num * v._d + v._a * den, den * v._d
        if num:
            entries[s] = QC(Fraction(num, den))
        else:
            del entries[s]
    rn, rd = 0, 1  # r = max_j |y_j - W z_s|
    for j, (s, wa, wd, p, q) in rows.items():
        if s in deltas:
            z, yj = entries.get(s), ys.get(j)
            za, zd = (0, 1) if z is None else (z._a, z._d)
            ya, yd = (0, 1) if yj is None else (yj._a, yj._d)
            p, q = ya * wd * zd - wa * za * yd, yd * wd * zd
        if abs(p) * rd > rn * q:
            rn, rd = abs(p), q
    r = Fraction(rn, rd)
    ok = rn * dd < dn * rd
    return _Attempt(ok, SeqVector(x.index_set, entries, x.mode) if ok else None,
                    r if ok else None, delta_norm, to_float(r))


def _exact_abs2(v) -> Fraction:
    """|v|^2 as a Fraction; float parts convert losslessly."""
    re, im = Fraction(v.real), Fraction(v.imag)
    return re * re + im * im


def _norm_bounds(v: SeqVector, norm_tag: NormTag) -> tuple[Fraction, Fraction]:
    """Rational lo <= ||v|| <= hi, from the exact |v_j|^2 of each entry."""
    squares = [_exact_abs2(u) for _, u in v.items()]
    if norm_tag is NormTag.P1:
        bounds = [sqrt_bounds(a, 64) for a in squares]
        return (sum((lo for lo, _ in bounds), Fraction(0)),
                sum((hi for _, hi in bounds), Fraction(0)))
    return sqrt_bounds(sum(squares, Fraction(0)) if norm_tag is NormTag.P2
                       else max(squares, default=Fraction(0)), 64)


def _first_power_at_most(b: Fraction, r: Fraction) -> int | None:
    """Smallest k >= 1 with b^k <= r, for 0 <= b < 1 and r > 0; None past
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
    """Exact proofs that y is not in J(x, T, d), for one search, built
    from it: its lanes of x and its one scan of T's weights.

    Each is decided in Fractions with eps the schedule's smallest radius:
    a certificate needs that radius at a time after every earlier triple,
    so a time that fails for it stops the search.  Every power of T sends
    each coordinate to its own row, times a product of weights, so with
    S^2 and I^2 the largest and smallest |w|^2 over T's weights (0 over
    none, as for a block sum with no blocks),
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

    def __init__(self, search: _SearchLog, eps_last: Fraction):
        x, y, norm_tag = search.x, search.y, search.norm_tag
        self.eps = eps = eps_last
        self.d = d = Fraction(search.d_val)
        self.eps2, self.d2 = eps * eps, d * d
        self.y_span = (y.support_min, y.support_max)
        squares = [(rule, w.abs2()) for rule, w in search.weights]
        s2, i2 = (f((a for _, a in squares), default=0) for f in (max, min))
        # (reason, k0, proof) for each stop that holds from some k0 on
        self.proved = []
        if s2 < 1:
            x_hi, y_lo = _norm_bounds(x, norm_tag)[1], _norm_bounds(y, norm_tag)[0]
            if y_lo > d:
                self._record("decay-bound", _first_power_at_most(
                    s2, ((y_lo - d) / (x_hi + eps)) ** 2),
                    f"S^k*(||x|| + eps) <= ||y|| - d with S^2 = {s2}, "
                    f"||x|| <= {x_hi}, ||y|| >= {y_lo}, d = {d}")
        if i2 > 1 and not search.T.annihilates:
            x_lo, y_hi = _norm_bounds(x, norm_tag)[0], _norm_bounds(y, norm_tag)[1]
            if x_lo > eps:
                self._record("collapse-bound", _first_power_at_most(
                    1 / i2, ((x_lo - eps) / (y_hi + d)) ** 2),
                    f"I^k*(||x|| - eps) >= ||y|| + d with I^2 = {i2}, "
                    f"||x|| >= {x_lo}, ||y|| <= {y_hi}, d = {d}")
        # (lane, |x_s|^2) for each source s on a shift lane with no band end
        # ahead that may carry a tail proof; one with |x_s| <= eps never does
        shrinking = {id(rule) for rule, a in squares if a < 1}
        self.tails = []
        for lane, v in search.lanes:
            if not lane.step or lane.life != math.inf or id(lane.rule) in shrinking:
                continue
            a = _exact_abs2(v)
            if a > self.eps2:
                self.tails.append((lane, a))

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
        if not self.tails:
            return None
        (y_min, y_max), eps2, d2 = self.y_span, self.eps2, self.d2
        for lane, a in self.tails:
            s, step = lane.s, lane.step
            t = s + step * k
            if y_min is not None and (t >= y_min if step < 0 else t <= y_max):
                continue
            b = lane.product(k).abs2()
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
                     norm_tag: NormTag = NormTag.PINF,
                     stagnation_window: int = 400) -> JWitness:
    """Per-time back-solve search with structural pruning, at times from
    1 to 10000.

    Raises SearchFailed with labelled diagnostics.  A structural stop,
    decay-bound, collapse-bound or tail-bound, carries its proof that y is
    not in J(x, T, d); every other failure means "not found within this
    budget and strategy", never non-membership.
    """
    log = _SearchLog(T, x, y, d, schedule.values[-1], budget, norm_tag)
    d_f = to_float(log.d_val)
    triples = []
    k_prev = 0

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


def reaching_scale(members, d, target_eps) -> int | None:
    """The index m of the first (t, radius) of members, t a scale and radius
    its witness's largest, with d/t and radius/t below target_eps; else None."""
    d, eps = Fraction(d), Fraction(target_eps)
    return next((m for m, (t, radius) in enumerate(members)
                 if d / t < eps and radius / t < eps), None)


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
    for w in witnesses:
        if w.bound != d_val:
            raise OrbitscopeError("family members must share the bound d")
    m_index = reaching_scale(zip(scales, (max(w.schedule.values) for w in witnesses)),
                             d_frac, eps_frac)
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
            out_triples.append(JWitnessTriple(
                triple.perturbed.scale(inv), triple.time,
                triple.dist / real_value(t, mode)))
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
    mode = common_mode(x, y)
    lam_frac = Fraction(lam)
    if not (0 < abs(lam_frac) < 1):
        raise OrbitscopeError("need 0 < |lambda| < 1")
    d_val = real_value(d, mode)
    out = []
    for n, w in enumerate(coarse_witnesses, start=1):
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
    bound2 = (2 * _REMARK32_TOL) ** 2  # |v - 1| < 1/2 and |v| < 1/2, decided on |.|^2
    near_one = abs2(val - make_scalar(1, w.mode)) < bound2
    near_zero = abs2(val) < bound2
    return ContradictionReport(n0, n1, k0, k1, coord, [to_float(val.real), to_float(val.imag)],
                               near_one, near_zero)


def remark32_contradiction_check(T: ShiftOperator, candidate_w: SeqVector,
                                 family: list[tuple[SeqVector, int]]) -> ContradictionReport:
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
    mode = common_mode(candidate_w, family[0][0])
    e0 = SeqVector.basis(IndexSet.INTEGERS, 0, mode=mode)
    tol_val = real_value(_REMARK32_TOL, mode)
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
