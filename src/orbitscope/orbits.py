"""Orbit traces, coarse-orbit membership, and coarse density on cones.

Everything here is horizon-bounded: absence of a witness up to K is
reported as exactly that, never as non-membership.  Every coarse witness
is checked once, by make_coarse_witness, which builds it.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

from .errors import OrbitscopeError, VerificationFailed
from .numeric import TOL_EQ, FieldsJSON, Mode, jsonable, real_value, to_float
from .operators import ShiftOperator, apply, apply_power
from .spaces import NormTag, OpenCone, SeqVector, cone_sample, dist_and_lt, dist_lt, norm


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
    points = [x]
    v = x
    for _ in range(K):
        v = apply(T, v)
        points.append(v)
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
    bound = real_value(d, x.mode if not x.is_zero else y.mode)
    r, ok = dist_and_lt(apply_power(T, n, x), y, norm_tag, bound)
    if not ok:
        raise VerificationFailed(f"claimed witness at n={n} does not satisfy the bound")
    return CoarseWitness(n, r, y, x, bound, norm_tag, T.label)


def coarse_orbit_contains(T: ShiftOperator, x: SeqVector, d, y: SeqVector,
                          K: int, norm_tag: NormTag = NormTag.P2) -> CoarseWitness | None:
    """First n <= K with ||T^n x - y|| < d, or None (meaning only: none up to K)."""
    if to_float(d) <= 0:
        raise OrbitscopeError("d must be positive")
    v = x
    for n in range(K + 1):
        if dist_lt(v, y, norm_tag, d):
            return make_coarse_witness(T, x, d, y, n, norm_tag)
        if n < K:
            v = apply(T, v)
    return None


@dataclass(frozen=True)
class CoarseDensityReport(FieldsJSON):
    """Sampled version of C ⊂ O(x,T,d): PASS means no failed sample."""

    verdict: str
    hit_ratio: float
    sample_count: int
    horizon: int
    bound: object
    seed: int
    max_first_time: int | None
    witnesses: tuple[CoarseWitness, ...]
    failures: tuple[SeqVector, ...]
    warning: str = ""


def coarse_density_report(T: ShiftOperator, x: SeqVector, d, C: OpenCone,
                          sample_count: int, K: int, seed: int) -> CoarseDensityReport:
    """Check sampled cone members for coarse-orbit witnesses up to horizon K."""
    if to_float(d) <= 0:
        raise OrbitscopeError("d must be positive")
    samples = cone_sample(C, sample_count, seed)
    witnesses = []
    failures = []
    for y in samples:
        w = coarse_orbit_contains(T, x, d, y, K, C.norm)
        if w is None:
            failures.append(y)
        else:
            witnesses.append(w)
    hits = len(witnesses)
    warning = ""
    if sample_count == 0:
        warning = "empty sample: PASS is vacuous"
    verdict = "PASS" if not failures else "FAIL"
    return CoarseDensityReport(
        verdict=verdict,
        hit_ratio=hits / sample_count if sample_count else 1.0,
        sample_count=sample_count,
        horizon=K,
        bound=real_value(d, C.mode),
        seed=seed,
        max_first_time=max((w.time for w in witnesses), default=None),
        witnesses=tuple(witnesses),
        failures=tuple(failures),
        warning=warning,
    )


def rescale_coarse_witness(T: ShiftOperator, w: CoarseWitness, M) -> CoarseWitness:
    """Map a witness for (d/M)y in O(x,T,d) to one for y in O((M/d)x, T, M).

    Pure linearity: ||T^n((M/d)x) - (M/d)y'|| = (M/d)||T^n x - y'|| < M.
    make_coarse_witness checks the result; failure signals an arithmetic
    bug, not a dynamics fact.
    """
    mode = w.base.mode if not w.base.is_zero else w.target.mode
    m_val = real_value(M, mode)
    if to_float(m_val) <= 0:
        raise OrbitscopeError("M must be positive")
    factor = m_val / w.bound
    return make_coarse_witness(T, w.base.scale(factor), m_val,
                               w.target.scale(factor), w.time, w.norm_tag)


def orbit_points_in_ball(T: ShiftOperator, x: SeqVector, y: SeqVector,
                         radius, K: int, norm_tag: NormTag) -> int:
    """Number of distinct orbit points T^n x, n <= K, inside B(y, radius)."""
    return ball_counts(T, x, y, radius, [K], norm_tag)[0]


def ball_counts(T: ShiftOperator, x: SeqVector, y: SeqVector, radius,
                horizons, norm_tag: NormTag) -> list[int]:
    """orbit_points_in_ball at each horizon K in horizons (0 for K < 0),
    from one orbit pass of max(horizons) steps."""
    seen, counts = set(), []  # counts[n]: distinct points in the ball up to n
    v = x
    for n in range(max(horizons, default=-1) + 1):
        if n:
            v = apply(T, v)
        if dist_lt(v, y, norm_tag, radius):
            seen.add(v.key())
        counts.append(len(seen))
    return [counts[K] if K >= 0 else 0 for K in horizons]
