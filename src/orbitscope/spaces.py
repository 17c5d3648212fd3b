"""Finitely supported sequence vectors, p-norms, and ball-generated cones.

Vectors live over N or Z and are stored sparsely with non-zero entries
only, so shift dynamics stay exact.  A cone is the set of positive
multiples of an open ball B(c, r) with ||c|| > r; membership admits a
closed form for the euclidean norm and, for real vectors, one breakpoint
of a convex piecewise linear function for p1 and pinf; complex entries
there keep a one-dimensional float search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import IndexSetMismatch, ModeMismatch, NormMismatch, OrbitscopeError
from .numeric import (
    QC,
    Mode,
    abs2,
    exact_sqrt,
    is_zero_scalar,
    jsonable,
    make_scalar,
    mode_of_scalar,
    real_value,
    scalar_zero,
    strict_gt,
    sum_sqrt_cmp,
    to_float,
    TOL_EQ,
)


class IndexSet(Enum):
    NATURALS = "N"
    INTEGERS = "Z"

    def contains(self, i: int) -> bool:
        return i >= 0 if self is IndexSet.NATURALS else True


class NormTag(Enum):
    P1 = "p1"
    P2 = "p2"
    PINF = "pinf"


class SeqVector:
    """Finitely supported vector; immutable by convention.

    Entries are a sparse map index -> non-zero scalar.  All arithmetic
    preserves the canonical form (zeros are dropped) and refuses to mix
    index sets or numeric modes.  A vector built without entries or a
    declared mode is exact.
    """

    __slots__ = ("index_set", "_entries", "_mode")

    def __init__(self, index_set: IndexSet, entries: dict, mode: Mode | None = None):
        self.index_set = index_set
        clean = {}
        inferred = None
        for i, v in entries.items():
            if not isinstance(i, int):
                raise TypeError(f"index {i!r} is not an integer")
            if not index_set.contains(i):
                raise IndexSetMismatch(f"index {i} invalid for {index_set.value}")
            if is_zero_scalar(v):
                continue
            m = mode_of_scalar(v)
            if inferred is None:
                inferred = m
            elif inferred is not m:
                raise ModeMismatch("mixed exact and float entries")
            clean[i] = v
        if inferred is None:
            inferred = mode or Mode.EXACT
        elif mode is not None and mode is not inferred:
            raise ModeMismatch("declared mode disagrees with entry scalars")
        self._entries = clean
        self._mode = inferred

    # -- constructors --------------------------------------------------

    @classmethod
    def from_entries(cls, index_set: IndexSet, raw: dict, mode: Mode = Mode.EXACT) -> "SeqVector":
        return cls(index_set, {i: make_scalar(v, mode) for i, v in raw.items()}, mode)

    @classmethod
    def basis(cls, index_set: IndexSet, i: int, coeff=1, mode: Mode = Mode.EXACT) -> "SeqVector":
        return cls.from_entries(index_set, {i: coeff}, mode)

    @classmethod
    def zero(cls, index_set: IndexSet, mode: Mode = Mode.EXACT) -> "SeqVector":
        return cls(index_set, {}, mode)

    # -- basic queries ---------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self._mode

    def entry(self, i: int):
        return self._entries.get(i, scalar_zero(self._mode))

    def items(self):
        return sorted(self._entries.items())

    @property
    def support(self):
        return sorted(self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def support_min(self):
        return min(self._entries) if self._entries else None

    @property
    def support_max(self):
        return max(self._entries) if self._entries else None

    def __len__(self):
        return len(self._entries)

    def key(self):
        """Canonical hashable form, used for distinct-point counting."""
        return (self.index_set.value,
                tuple((i, v.real, v.imag) for i, v in self.items()))

    def __eq__(self, other):
        return (isinstance(other, SeqVector)
                and self.index_set is other.index_set
                and self._entries == other._entries)

    def __repr__(self):
        inner = ", ".join(f"{i}: {v}" for i, v in self.items())
        return f"SeqVector({self.index_set.value}, {{{inner}}})"

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "SeqVector"):
        if self.index_set is not other.index_set:
            raise IndexSetMismatch("cannot combine vectors over N and Z")
        if self._entries and other._entries and self._mode is not other._mode:
            raise ModeMismatch("cannot combine exact and float vectors")

    def _combine(self, other: "SeqVector", subtract: bool) -> "SeqVector":
        self._check(other)
        entries = dict(self._entries)
        for i, v in other._entries.items():
            if i in entries:
                entries[i] = entries[i] - v if subtract else entries[i] + v
            else:
                entries[i] = -v if subtract else v
        return SeqVector(self.index_set, entries, self._mode)

    def __add__(self, other: "SeqVector") -> "SeqVector":
        return self._combine(other, subtract=False)

    def __sub__(self, other: "SeqVector") -> "SeqVector":
        return self._combine(other, subtract=True)

    def __neg__(self) -> "SeqVector":
        return SeqVector(self.index_set, {i: -v for i, v in self._entries.items()}, self._mode)

    def scale(self, factor) -> "SeqVector":
        s = make_scalar(factor, self._mode)
        return SeqVector(self.index_set,
                         {i: v * s for i, v in self._entries.items()}, self._mode)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self):
        entries = []
        for i, v in self.items():
            if isinstance(v, QC):
                entries.append([i, str(v.re), str(v.im)])
            else:
                entries.append([i, v.real, v.imag])
        return {"index_set": self.index_set.value, "entries": entries}

    @classmethod
    def from_jsonable(cls, obj, mode: Mode = Mode.EXACT) -> "SeqVector":
        try:
            index_set = IndexSet(obj["index_set"])
            raw = {}
            for i, re, im in obj["entries"]:
                if type(i) is not int:  # true and 0.5 are not indices
                    raise ValueError(f"index {i!r} is not an integer")
                if i in raw:
                    raise ValueError(f"index {i} is given twice")
                if isinstance(re, bool) or isinstance(im, bool):
                    raise ValueError(f"entry at {i} is not a number")
                exact = make_scalar((re, im), Mode.EXACT)
                raw[i] = make_scalar(exact, mode)
                if (exact.re and not raw[i].real) or (exact.im and not raw[i].imag):
                    raise ValueError(f"entry at {i} underflows a double")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise OrbitscopeError(f"malformed vector JSON: {exc}") from exc
        return cls(index_set, raw, mode)


# -- norms ------------------------------------------------------------------


def _real_dist(a: SeqVector, b: SeqVector, p: NormTag, bound=None) -> Fraction | list:
    """The one walk behind every distance ||a - b||_p; raises what a - b does.

    Exact real entries under P1/PINF give the value itself, max (PINF) or
    sum (P1) of |a_j - b_j| in integers num/den; with a bound it stops once
    the partial value, hence the full one, reaches it, which answers a
    strict < test only.  Every other case gives |a_j - b_j|^2 for each j in
    the union of both supports, in index order."""
    a._check(b)
    ea, eb, mode = a._entries, b._entries, a._mode
    if eb and b._mode is not mode:  # a - b would re-declare b's entries in a's mode
        raise ModeMismatch("declared mode disagrees with entry scalars")
    if mode is Mode.EXACT and p is not NormTag.P2:
        sup, num, den, zero = p is NormTag.PINF, 0, 1, scalar_zero(mode)
        # a missing bound is 1/0, infinity: num * 0 >= 1 * den never holds
        bn, bd = (1, 0) if bound is None else real_value(bound, mode).as_integer_ratio()
        for j in ea.keys() | eb.keys():
            u, v = ea.get(j, zero), eb.get(j, zero)
            if u.im is not v.im and u.im != v.im:
                break
            ur, vr = u.re, v.re
            n = abs(ur.numerator * vr.denominator - vr.numerator * ur.denominator)
            d = ur.denominator * vr.denominator
            if not sup:
                num, den = num * d + n * den, den * d
                g = math.gcd(num, den)
                num, den = num // g, den // g
            elif n * den > num * d:
                num, den = n, d
            if num * bd >= bn * den:
                return Fraction(num, den)
        else:
            return Fraction(num, den)
    squares = []
    for j in sorted(ea.keys() | eb.keys()):
        u, v = ea.get(j), eb.get(j)
        squares.append(abs2(v if u is None else u if v is None else u - v))
    return squares


def _walk_value(r, p: NormTag, mode: Mode):
    """The distance a walk gave: exact where it is rational, a float otherwise."""
    if not isinstance(r, list):
        return r
    if mode is Mode.FLOAT64:
        if p is NormTag.P1:
            return sum(map(math.sqrt, r), 0.0)
        return math.sqrt(sum(r, 0.0) if p is NormTag.P2 else max(r, default=0.0))
    if p is NormTag.P1:
        parts = [exact_sqrt(t) for t in r]
        if None not in parts:
            return sum(parts, Fraction(0))
        return sum(math.sqrt(to_float(t)) for t in r)
    s = sum(r, Fraction(0)) if p is NormTag.P2 else max(r, default=Fraction(0))
    root = exact_sqrt(s)
    return root if root is not None else math.sqrt(to_float(s))


def _walk_cmp(r, p: NormTag, mode: Mode, bound) -> int:
    """Three-way comparison of a walk's distance with bound: exact in exact
    mode; in float mode a gap of at most TOL_EQ either way counts as equal."""
    if mode is Mode.FLOAT64:
        v, b = _walk_value(r, p, mode), to_float(bound)
        return (v > b + TOL_EQ) - (v < b - TOL_EQ)
    b = real_value(bound, mode)
    if not isinstance(r, list):
        return (r > b) - (r < b)
    if b < 0:
        return 1
    if p is NormTag.P1:
        return sum_sqrt_cmp(r, b)
    s = sum(r, Fraction(0)) if p is NormTag.P2 else max(r, default=Fraction(0))
    return (s > b * b) - (s < b * b)


def dist(a: SeqVector, b: SeqVector, p: NormTag):
    """||a - b||_p, with no difference vector built.

    Exact mode returns a Fraction whenever the value is rational (always
    for real vectors under P1/PINF, perfect squares under P2) and a float
    approximation otherwise; comparisons should go through dist_lt or
    norm_lt / norm_gt, which are exact in exact mode regardless.
    """
    return _walk_value(_real_dist(a, b, p), p, a._mode)


def dist_lt(a: SeqVector, b: SeqVector, p: NormTag, bound) -> bool:
    """Strict ||a - b||_p < bound under the mode's strictness policy."""
    return _walk_cmp(_real_dist(a, b, p, bound), p, a._mode, bound) < 0


def dist_and_lt(a: SeqVector, b: SeqVector, p: NormTag, bound) -> tuple[object, bool]:
    """(dist(a, b, p), dist_lt(a, b, p, bound)) from one walk."""
    r = _real_dist(a, b, p)
    return _walk_value(r, p, a._mode), _walk_cmp(r, p, a._mode, bound) < 0


# the origin every norm is measured from, shared: it is never modified
_ORIGIN = {s: SeqVector.zero(s) for s in IndexSet}


def norm(v: SeqVector, p: NormTag):
    """p-norm of the finite support, as dist(v, 0, p)."""
    return dist(v, _ORIGIN[v.index_set], p)


def norm_lt(v: SeqVector, p: NormTag, bound) -> bool:
    """Strict ||v||_p < bound under the mode's strictness policy."""
    return dist_lt(v, _ORIGIN[v.index_set], p, bound)


def norm_gt(v: SeqVector, p: NormTag, bound) -> bool:
    """Strict ||v||_p > bound under the mode's strictness policy."""
    return _walk_cmp(_real_dist(v, _ORIGIN[v.index_set], p), p, v._mode, bound) > 0


def inner_real(x: SeqVector, c: SeqVector):
    """Real part of the l2 inner product <x, c>."""
    x._check(c)
    total = None
    for i, xv in x._entries.items():
        cv = c._entries.get(i)
        if cv is None:
            continue
        term = xv * cv.conjugate()
        total = term if total is None else total + term
    return real_value(0, x.mode) if total is None else total.real


# -- cones -------------------------------------------------------------------


@dataclass(frozen=True)
class OpenCone:
    """The open cone {lambda * B(center, radius) : lambda > 0}.

    Requires ||center|| > radius so the closure of the generating ball
    misses 0 and the cone is proper.
    """

    center: SeqVector
    radius: object
    norm: NormTag
    _radius_value: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = real_value(self.radius, self.center.mode)
        if not (to_float(r) > 0):
            raise OrbitscopeError("cone radius must be positive")
        if not norm_gt(self.center, self.norm, r):
            raise OrbitscopeError("cone requires ||center|| > radius")
        object.__setattr__(self, "_radius_value", r)

    @property
    def mode(self) -> Mode:
        return self.center.mode

    def radius_value(self):
        return self._radius_value

    def to_jsonable(self):
        return {
            "center": self.center.to_jsonable(),
            "radius": jsonable(self._radius_value),
            "norm": self.norm.value,
        }


def _contains_p2_closed_form(C: OpenCone, x: SeqVector) -> bool:
    # x in cone(B(c,r))  iff  <x,c> > 0 and <x,c>^2 > ||x||^2 (||c||^2 - r^2)
    mode = x.mode
    ip = inner_real(x, C.center)
    zero = real_value(0, mode)
    if not strict_gt(ip, zero, mode):
        return False
    r = C.radius_value()
    x2 = sum((abs2(v) for _, v in x.items()), zero)
    c2 = sum((abs2(v) for _, v in C.center.items()), zero)
    return strict_gt(ip * ip, x2 * (c2 - r * r), mode)


def _p1_scale(xs: dict, cs: dict, r):
    # the minimiser of g(lam) = ||x - lam c||_1 - lam r over lam > 0, or None
    # when g rises from g(0) = ||x|| > 0.  g's slope just after 0 gains
    # 2|c_i| at each positive x_i / c_i; the first breakpoint where it turns
    # >= 0 is the minimiser (a weighted median), and the last slope is
    # ||c|| - r > 0, so one is reached
    slope, knots = -r, []
    for i, b in cs.items():
        k = xs.get(i, 0) / b
        if k > 0:
            slope -= abs(b)
            knots.append((k, abs(b)))
        else:
            slope += abs(b)
    if slope >= 0:
        return None
    for k, w in sorted(knots):
        slope += 2 * w
        if slope >= 0:
            return k


def _pinf_scale(xs: dict, cs: dict, r):
    # the middle of the open interval of lam > 0 where ||x - lam c||_inf <
    # lam r, or None when it is empty.  Row by row: lam (c_i + r) > x_i and
    # lam (r - c_i) > -x_i, each an open half-line of lam, or all or none;
    # the interval is bounded, as some |c_i| > r
    lo, hi = 0, math.inf
    for i in xs.keys() | cs.keys():
        a, b = xs.get(i, 0), cs.get(i, 0)
        for s, t in ((b + r, a), (r - b, -a)):  # lam * s > t
            if s > 0:
                lo = max(lo, t / s)
            elif s < 0:
                hi = min(hi, t / s)
            elif t >= 0:
                return None
    return (lo + hi) / 2 if lo < hi else None


_MINIMIZATION_LEVELS = 48  # refinement rounds of the float scale search


def _contains_by_minimization(C: OpenCone, x: SeqVector) -> bool:
    # minimize g(lam) = ||x - lam c|| - lam r over lam > 0; member iff min < 0.
    # g is a float screen over the entries converted once; the verdict is an
    # exact strict check of ||x - lam c|| < lam r at the best candidates.
    p = C.norm
    c = C.center
    pairs = [(make_scalar(x.entry(i), Mode.FLOAT64), make_scalar(c.entry(i), Mode.FLOAT64))
             for i in x._entries.keys() | c._entries.keys()]

    def size(terms: list[float]) -> float:
        if p is NormTag.P1:
            return sum(terms)
        return max(terms) if p is NormTag.PINF else math.hypot(*terms)

    r_f = to_float(C.radius_value())
    hi = size([abs(a) for a, _ in pairs]) / (size([abs(b) for _, b in pairs]) - r_f) + 1.0
    lo = 0.0

    def g(lam: float) -> float:
        return size([abs(a - lam * b) for a, b in pairs]) - lam * r_f

    for _ in range(_MINIMIZATION_LEVELS):
        step = (hi - lo) / 8.0
        if step <= 0:
            break
        values = [(g(lo + k * step), k) for k in range(9)]
        _, kbest = min(values)
        new_lo = lo + max(kbest - 1, 0) * step
        new_hi = lo + min(kbest + 1, 8) * step
        lo, hi = new_lo, new_hi
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    candidates = {lo, (lo + hi) / 2.0, hi}
    mode = x.mode
    for lam in sorted(candidates):
        if lam <= 0:
            continue
        lam_s = real_value(lam, mode)
        if dist_lt(x, c.scale(lam_s), p, lam_s * C.radius_value()):
            return True
    return False


def cone_contains(C: OpenCone, x: SeqVector, method: str = "auto") -> bool:
    """Membership of x in the ball-generated open cone C.

    The euclidean closed form is exact.  For real x and center under p1 or
    pinf, g(lam) = ||x - lam c|| - lam r is convex and piecewise linear,
    and membership is decided by one strict test at one scale: the
    breakpoint where g is least (p1) or the middle of the interval where
    every entry's inequality holds (pinf).  That verdict is exact in both
    directions in exact mode and follows the float strictness policy in
    float mode.  Only a complex entry keeps the float scale search, whose
    True is checked exactly but whose False is one-sided: a member within
    ~1e-12 (relative) of the boundary may be reported as outside.
    method="minimize" runs that search for p2.
    """
    if x.index_set is not C.center.index_set:
        raise IndexSetMismatch("cone and vector index sets differ")
    if x._entries and x.mode is not C.mode:
        raise ModeMismatch("cone and vector numeric modes differ")
    if x.is_zero:
        return False
    if method == "closed-form" or (method == "auto" and C.norm is NormTag.P2):
        if C.norm is not NormTag.P2:
            raise NormMismatch("closed form applies to the euclidean norm only")
        return _contains_p2_closed_form(C, x)
    if method not in ("auto", "minimize"):
        raise OrbitscopeError(f"unknown membership method {method!r}")
    c = C.center
    if C.norm is NormTag.P2 or any(v.imag for v in (*x._entries.values(), *c._entries.values())):
        return _contains_by_minimization(C, x)
    xs = {i: v.real for i, v in x._entries.items()}
    cs = {i: v.real for i, v in c._entries.items()}
    r = C.radius_value()
    lam = (_p1_scale if C.norm is NormTag.P1 else _pinf_scale)(xs, cs, r)
    return lam is not None and dist_lt(x, c.scale(lam), C.norm, lam * r)


_SAMPLE_SCALES, _SAMPLE_PAD, _SAMPLE_INTERIOR = (0.125, 8.0), 2, 0.9


def cone_sample(C: OpenCone, count: int, seed: int) -> list[SeqVector]:
    """Deterministic sample of cone members: lam * (c + u), ||u|| < r.

    lam is log-uniform over [1/8, 8] and u is a seeded direction in the
    open radius-r ball, restricted to the center's support window padded
    by 2, then shrunk by 0.9 so every sample passes the exact membership
    test with room to spare.
    """
    if count < 0:
        raise OrbitscopeError("count must be >= 0")
    rng = random.Random(seed)
    c = C.center
    mode = C.mode
    p = C.norm
    lo = c.support_min - _SAMPLE_PAD
    hi = c.support_max + _SAMPLE_PAD
    if c.index_set is IndexSet.NATURALS:
        lo = max(lo, 0)
    window = list(range(lo, hi + 1))
    r_f = to_float(C.radius_value())
    out = []
    for _ in range(count):
        lam = math.exp(rng.uniform(*map(math.log, _SAMPLE_SCALES)))
        g = [rng.gauss(0.0, 1.0) for _ in window]
        if p is NormTag.P2:
            gn = math.sqrt(sum(t * t for t in g))
        elif p is NormTag.P1:
            gn = sum(abs(t) for t in g)
        else:
            gn = max(abs(t) for t in g)
        radius = r_f * _SAMPLE_INTERIOR * rng.random() ** (1.0 / len(window))
        if gn == 0.0:
            g = [1.0] + [0.0] * (len(window) - 1)
            gn = 1.0
        u_entries = {i: gi * radius / gn for i, gi in zip(window, g)}
        u = SeqVector.from_entries(c.index_set, u_entries, mode)
        if not norm_lt(u, p, C.radius_value()):
            raise OrbitscopeError("sampled perturbation escaped the ball")
        sample = (c + u).scale(real_value(lam, mode))
        if not cone_contains(C, sample):
            raise OrbitscopeError("sampled vector failed the membership re-check")
        out.append(sample)
    return out
