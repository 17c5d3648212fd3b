"""Orbit traces and coarse-orbit membership.

Everything here is horizon-bounded: absence of a witness up to K is
reported as exactly that, never as non-membership.  Every coarse witness
is checked once, by make_coarse_witness, which builds it.
"""

from __future__ import annotations

import csv
import io
import json
import random
from bisect import bisect_right
from dataclasses import dataclass

from .errors import OrbitscopeError, VerificationFailed
from .numeric import TOL_EQ, Mode, jsonable, positive_value, real_value, to_float
from .operators import ShiftOperator, apply_power, iterate, meetings
from .spaces import NormTag, SeqVector, common_mode, dist_and_lt, dist_lt, norm, norm_lt


@dataclass(frozen=True)
class OrbitTrace:
    """Finite orbit segment (n, T^n x) for n = 0..K with cached norms."""

    base: SeqVector
    horizon: int
    points: tuple[SeqVector, ...]
    norms: tuple
    norm_tag: NormTag

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "norm", "support_min", "support_max", "entries_json"])
        for n, (pt, nv) in enumerate(zip(self.points, self.norms)):
            smin = pt.support_min if pt.support_min is not None else ""
            smax = pt.support_max if pt.support_max is not None else ""
            entries = json.dumps(pt.to_jsonable()["entries"], separators=(",", ":"))
            writer.writerow([n, to_float(nv), smin, smax, entries])
        return buf.getvalue()


def orbit(T: ShiftOperator, x: SeqVector, K: int,
          norm_tag: NormTag = NormTag.P2, *, spot_checks: int = 3,
          seed: int = 0) -> OrbitTrace:
    """Exact orbit trace; spot-checks iterated steps against direct powers.

    In float mode the two are different float computations of one point,
    so a spot check asks |a_i - b_i| <= TOL_EQ |b_i| at every index of
    either support; in exact mode it asks equality.
    """
    if K < 0:
        raise OrbitscopeError("horizon must be >= 0")
    points = list(iterate(T, x, K))
    rng = random.Random(seed)
    for _ in range(min(spot_checks, K)):
        n = rng.randint(0, K)
        if not _agree(points[n], apply_power(T, n, x)):
            raise VerificationFailed(f"orbit point at n={n} disagrees with T^n x")
    norms = tuple(norm(p, norm_tag) for p in points)
    return OrbitTrace(x, K, tuple(points), norms, norm_tag)


def _agree(a: SeqVector, b: SeqVector) -> bool:
    if a.mode is Mode.EXACT:
        return a == b
    return all(abs(a.entry(i) - b.entry(i)) <= TOL_EQ * abs(b.entry(i))
               for i in set(a.support) | set(b.support))


@dataclass(frozen=True)
class CoarseWitness:
    """Certificate that ||T^n base - target|| < bound at time n."""

    time: int
    achieved_distance: object
    target: SeqVector
    base: SeqVector
    bound: object
    norm_tag: NormTag
    op_label: str = ""

    def verify(self, T: ShiftOperator) -> None:
        """Check a witness built outside make_coarse_witness."""
        make_coarse_witness(T, self.base, self.bound, self.target, self.time,
                            self.norm_tag)

    def to_jsonable(self):
        return {
            "time": self.time,
            "achieved_distance": jsonable(self.achieved_distance),
            "target": self.target.to_jsonable(),
            "base": self.base.to_jsonable(),
            "bound": jsonable(self.bound),
            "norm": self.norm_tag.value,
            "operator": self.op_label,
        }


def make_coarse_witness(T: ShiftOperator, x: SeqVector, d, y: SeqVector,
                        n: int, norm_tag: NormTag) -> CoarseWitness:
    """The witness that ||T^n x - y|| < d, after checking it."""
    bound = real_value(d, common_mode(x, y))
    r, ok = dist_and_lt(apply_power(T, n, x), y, norm_tag, bound)
    if not ok:
        raise VerificationFailed(f"claimed witness at n={n} does not satisfy the bound")
    return CoarseWitness(n, r, y, x, bound, norm_tag, T.label)


def _visits(T: ShiftOperator, x: SeqVector, y: SeqVector, d, K: int,
            norm_tag: NormTag):
    """(n, T^n x) for each n <= K that a scan for points of B(y, d) must
    measure, in order.

    When not norm_lt(y, norm_tag, d), a point whose support misses supp y
    is outside the ball, so only the times at which supp T^n x meets
    supp y are given, and none after the first zero point (T^n 0 = 0).
    An exact scan lists those times from positions alone
    (operators.meetings).  A float scan steps every point, so each point
    is the one the stepped scan builds, and gives those whose support
    meets supp y: a float walk adds its non-negative terms in index order
    and rounding is monotone, so its distance from y is at least its
    reading of ||y||, which is not below d - TOL_EQ.  Every other scan
    gives every n <= K."""
    points = enumerate(iterate(T, x, K))
    if K < 0 or x.mode is not y.mode or x.index_set is not y.index_set \
            or norm_lt(y, norm_tag, d):
        return points
    if x.mode is Mode.EXACT:
        met = meetings(T, x, y._entries, K)
        return points if met is None else met
    return _meeting(points, y._entries)


def _meeting(points, rows):
    """The (n, v) of points whose support meets rows, up to the first zero v."""
    for n, v in points:
        if not v._entries.keys().isdisjoint(rows):
            yield n, v
        elif v.is_zero:
            return


def coarse_orbit_contains(T: ShiftOperator, x: SeqVector, d, y: SeqVector,
                          K: int, norm_tag: NormTag = NormTag.P2) -> CoarseWitness | None:
    """First n <= K with ||T^n x - y|| < d, or None (meaning only: none up to K).

    Restriction to supp y never raises a p-norm, so a point whose support
    misses supp y lies at distance >= ||y|| from y: when not
    norm_lt(y, norm_tag, d), a scan measures only the points whose support
    meets supp y.  An exact scan builds only those, at most
    |supp x| |supp y| of them; a float scan steps every point and measures
    those, since a float walk adds its non-negative terms in index order
    and rounding is monotone, so a point it skips is at float distance at
    least the float ||y|| >= d - TOL_EQ (see _visits).  A time the scan
    accepts but make_coarse_witness rejects (float mode, near the bound)
    is passed over: the query answers and never raises.  T^n 0 = 0, so
    the scan ends at the first zero point outside the ball.
    """
    d = positive_value(d, common_mode(x, y), "d")
    for n, v in _visits(T, x, y, d, K, norm_tag):
        if dist_lt(v, y, norm_tag, d):
            try:
                return make_coarse_witness(T, x, d, y, n, norm_tag)
            except VerificationFailed:
                pass
        elif v.is_zero:
            break
    return None


def rescale_coarse_witness(T: ShiftOperator, w: CoarseWitness, M) -> CoarseWitness:
    """Map a witness for (d/M)y in O(x,T,d) to one for y in O((M/d)x, T, M).

    Pure linearity: ||T^n((M/d)x) - (M/d)y'|| = (M/d)||T^n x - y'|| < M.
    make_coarse_witness checks the result; failure signals an arithmetic
    bug, not a dynamics fact.
    """
    mode = common_mode(w.base, w.target)
    m_val = positive_value(M, mode, "M")
    factor = m_val / w.bound
    return make_coarse_witness(T, w.base.scale(factor), m_val,
                               w.target.scale(factor), w.time, w.norm_tag)


def ball_counts(T: ShiftOperator, x: SeqVector, y: SeqVector, radius,
                horizons, norm_tag: NormTag) -> list[int]:
    """Number of distinct orbit points T^n x, n <= K, inside B(y, radius)
    at each horizon K in horizons (0 for K < 0), from one scan to
    max(horizons).

    Restriction to supp y never raises a p-norm, so a point whose support
    misses supp y lies at distance >= ||y|| from y: when not
    norm_lt(y, norm_tag, radius), a scan measures only the points whose
    support meets supp y, up to the first zero point (every later point
    is zero, outside the ball).  An exact scan builds only those, at most
    |supp x| |supp y| of them; a float scan steps every point and measures
    those, since a float walk adds its non-negative terms in index order
    and rounding is monotone (see _visits)."""
    first = {}  # each distinct point in the ball -> the time it is first met
    for n, v in _visits(T, x, y, radius, max(horizons, default=-1), norm_tag):
        if dist_lt(v, y, norm_tag, radius):
            first.setdefault(v.key(), n)
    times = list(first.values())  # ascending
    return [bisect_right(times, K) for K in horizons]
