"""Finitely supported sequence vectors, p-norms, and ball-generated cones.

Vectors live over N or Z and are stored sparsely with non-zero entries
only, so shift dynamics stay exact.  A cone is the set of positive
multiples of an open ball B(c, r) with ||c|| > r; membership admits a
closed form for the euclidean norm and, for real vectors, one breakpoint
of a convex piecewise linear function for p1 and pinf; complex entries
there keep a one-dimensional float search.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import IndexSetMismatch, ModeMismatch, OrbitscopeError
from .numeric import (
    QC,
    Mode,
    abs2,
    is_zero_scalar,
    jsonable,
    log2_abs,
    make_scalar,
    mode_of_scalar,
    positive_value,
    ratio_float,
    real_value,
    scalar_zero,
    square_root,
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
    def _trusted(cls, index_set: IndexSet, entries: dict, mode: Mode) -> "SeqVector":
        """A vector over entries already valid for index_set, non-zero and
        of mode, taken as they are."""
        out = object.__new__(cls)
        out.index_set, out._entries, out._mode = index_set, entries, mode
        return out

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
        """The pair rule: other combines with self when both lie over one
        index set and other has no entry in another mode than self's (a
        zero other combines in any mode, a zero self does not)."""
        if self.index_set is not other.index_set:
            raise IndexSetMismatch("cannot combine vectors over N and Z")
        if other._entries and self._mode is not other._mode:
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


def common_mode(v: SeqVector, w: SeqVector) -> Mode:
    """The mode a computation on v and w runs in: v's, unless v is zero
    (a zero vector built without a declared mode is exact), then w's."""
    return v.mode if not v.is_zero else w.mode


# -- norms ------------------------------------------------------------------


_QC_ZERO = QC(0)  # the exact zero every walk reads a missing entry as, shared


def _real_dist(a: SeqVector, b: SeqVector, p: NormTag, bound=None) -> Fraction | list:
    """The one walk behind every distance ||a - b||_p; raises what a - b does.

    Exact entries under P1/PINF whose imaginary parts agree (real ones
    among them) give the value itself, max (PINF) or sum (P1) of
    |a_j - b_j| in integers num/den; with a bound it stops once
    the partial value, hence the full one, reaches it, which answers a
    strict < test only.  Every other case gives one row per j in the
    union of both supports, in index order: in exact mode the int pair
    (n, d) with |a_j - b_j|^2 = n / d^2, read off the entries' ints with
    no difference or square built, and in float mode |a_j - b_j|^2."""
    a._check(b)
    ea, eb, mode = a._entries, b._entries, a._mode
    if mode is Mode.EXACT:
        zero = _QC_ZERO
        if p is not NormTag.P2:
            sup, num, den = p is NormTag.PINF, 0, 1
            # a missing bound is 1/0, infinity: num * 0 >= 1 * den never holds
            bn, bd = (1, 0) if bound is None else real_value(bound, mode).as_integer_ratio()
            for j in ea.keys() | eb.keys():
                u, v = ea.get(j, zero), eb.get(j, zero)
                ud, vd = u._d, v._d
                if u._b * vd != v._b * ud:  # unequal imaginary parts
                    break
                n = abs(u._a * vd - v._a * ud)
                d = ud * vd
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
        rows = []
        for j in sorted(ea.keys() | eb.keys()):
            # (u_a + u_b i)/u_d - (v_a + v_b i)/v_d over the denominator u_d v_d
            u, v = ea.get(j, zero), eb.get(j, zero)
            ud, vd = u._d, v._d
            da, db = u._a * vd - v._a * ud, u._b * vd - v._b * ud
            rows.append((da * da + db * db, ud * vd))
        return rows
    squares = []
    for j in sorted(ea.keys() | eb.keys()):
        u, v = ea.get(j), eb.get(j)
        squares.append(abs2(v if u is None else u if v is None else u - v))
    return squares


def _over_lcm(pairs, power: int) -> tuple[int, int]:
    """(num, den) with the sum of n / d^power over the int pairs (n, d)
    equal to num / den^power, den the lcm of the d: no gcd where the
    denominators match."""
    num, den = 0, 1
    for n, d in pairs:
        if d != den:
            g = math.gcd(den, d)
            if g != d:  # den grows to lcm(den, d)
                m = d // g
                num, den = num * m ** power, den * m
            n *= (den // d) ** power
        num += n
    return num, den


def _largest_row(rows, power: int = 2) -> tuple[int, int]:
    """The row (n, d) with the largest n / d^power, (0, 1) for no rows."""
    best_n, best_d = 0, 1
    for n, d in rows:
        if n * best_d ** power > best_n * d ** power:
            best_n, best_d = n, d
    return best_n, best_d


def _root_sum(rows) -> float:
    """The sum of the rows' roots sqrt(n) / d, each rounded as
    math.sqrt(float(n / d^2)), in the rows' order; inf past double range."""
    return sum(math.sqrt(ratio_float(n, d * d)) for n, d in rows)


def _walk_value(r, p: NormTag, mode: Mode):
    """The distance a walk gave: exact where it is rational, a float otherwise.

    An exact row (n, d) has the root sqrt(n) / d, rational exactly when n
    is a square.  P2 sums the rows over the lcm of their d and PINF takes
    the largest by cross-multiplication, so the value is one such root.
    An irrational value is math.sqrt of the double nearest its square, inf
    past double range; under P1 that of each row, summed in index order.
    One row is its own root under every p."""
    if not isinstance(r, list):
        return r
    if mode is Mode.FLOAT64:
        if p is NormTag.P1:
            return sum(map(math.sqrt, r), 0.0)
        return math.sqrt(sum(r, 0.0) if p is NormTag.P2 else max(r, default=0.0))
    if p is NormTag.P1 and len(r) > 1:
        roots = []
        for n, d in r:
            s = square_root(n)
            if s is None:
                return _root_sum(r)
            roots.append((s, d))
        return Fraction(*_over_lcm(roots, 1))
    n, d = r[0] if len(r) == 1 else _over_lcm(r, 2) if p is NormTag.P2 else _largest_row(r)
    s = square_root(n)
    return math.sqrt(ratio_float(n, d * d)) if s is None else Fraction(s, d)


def _walk_cmp(r, p: NormTag, mode: Mode, bound) -> int:
    """Three-way comparison of a walk's distance with bound: exact in exact
    mode, in integers, where P2 and PINF compare n / d^2 with the squared
    bound by cross-multiplication and P1 refines the rows' roots; in float
    mode a gap of at most TOL_EQ either way counts as equal."""
    if mode is Mode.FLOAT64:
        v, b = _walk_value(r, p, mode), to_float(bound)
        return (v > b + TOL_EQ) - (v < b - TOL_EQ)
    b = real_value(bound, mode)
    if not isinstance(r, list):  # two rationals, compared by cross-multiplication
        x, y = r.numerator * b.denominator, b.numerator * r.denominator
        return (x > y) - (x < y)
    if b < 0:
        return 1
    if p is NormTag.P1:
        return sum_sqrt_cmp(r, b)
    n, d = _over_lcm(r, 2) if p is NormTag.P2 else _largest_row(r)
    x, y = n * b.denominator ** 2, b.numerator ** 2 * d * d
    return (x > y) - (x < y)


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


_EXACT_ZERO = Fraction(0)  # the exact norm of the zero vector, shared


def _norm_read(v: SeqVector, p: NormTag):
    """What the walk of v against the origin gives, read off v's own entries:
    the norm itself where no reduction is needed (zero, one exact real entry,
    the P1 sum or PINF maximum of exact real entries, one float entry), else
    the walk's rows in index order, whatever the order of v's dict:
    (a^2 + b^2, d) for each exact (a + bi)/d, re^2 + im^2 for each float."""
    entries = v._entries
    if v._mode is Mode.FLOAT64:
        rows = [u.real * u.real + u.imag * u.imag for _, u in sorted(entries.items())]
        return math.sqrt(rows[0]) if len(rows) == 1 else rows
    if not entries:
        return _EXACT_ZERO
    if len(entries) == 1:
        (u,) = entries.values()
        return Fraction(abs(u._a), u._d) if not u._b else [(u._a * u._a + u._b * u._b, u._d)]
    if p is not NormTag.P2 and not any(u._b for u in entries.values()):  # each root is |a|/d
        rows = ((abs(u._a), u._d) for u in entries.values())
        return Fraction(*(_over_lcm(rows, 1) if p is NormTag.P1 else _largest_row(rows, 1)))
    return [(u._a * u._a + u._b * u._b, u._d) for _, u in sorted(entries.items())]


def norm(v: SeqVector, p: NormTag):
    """p-norm of the finite support, dist(v, 0, p) read off v's own entries."""
    return _walk_value(_norm_read(v, p), p, v._mode)


def norm_lt(v: SeqVector, p: NormTag, bound) -> bool:
    """Strict ||v||_p < bound under the mode's strictness policy, read as norm reads v."""
    return _walk_cmp(_norm_read(v, p), p, v._mode, bound) < 0


def norm_and_lt(v: SeqVector, p: NormTag, bound) -> tuple[object, bool]:
    """(norm(v, p), norm_lt(v, p, bound)) from one reading of v's entries."""
    r = _norm_read(v, p)
    return _walk_value(r, p, v._mode), _walk_cmp(r, p, v._mode, bound) < 0


def norm_gt(v: SeqVector, p: NormTag, bound) -> bool:
    """Strict ||v||_p > bound under the mode's strictness policy, read as norm reads v."""
    return _walk_cmp(_norm_read(v, p), p, v._mode, bound) > 0


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
        r = positive_value(self.radius, self.center.mode, "cone radius")
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
    # x in cone(B(c,r))  iff  <x,c> > 0 and <x,c>^2 > ||x||^2 (||c||^2 - r^2);
    # exactly, <x,c> = ip/l, ||x||^2 = x2/lx^2 and ||c||^2 = c2/lc^2 over the
    # lcm of the denominators, and the test is cross-multiplied in integers
    mode, xs, cs = x.mode, x._entries, C.center._entries
    if mode is Mode.FLOAT64:  # Re <x, c> summed in the order of x's dict
        ip = sum(((u * v.conjugate()).real for i, u in xs.items()
                  if (v := cs.get(i)) is not None), 0.0)
        if not strict_gt(ip, 0.0, mode):
            return False
        r = C.radius_value()
        x2 = sum((abs2(v) for _, v in x.items()), 0.0)
        c2 = sum((abs2(v) for _, v in C.center.items()), 0.0)
        return strict_gt(ip * ip, x2 * (c2 - r * r), mode)
    ip, l = _over_lcm(((u._a * v._a + u._b * v._b, u._d * v._d)
                       for i, u in xs.items() if (v := cs.get(i)) is not None), 1)
    if ip <= 0:
        return False
    x2, lx = _over_lcm(((u._a * u._a + u._b * u._b, u._d) for u in xs.values()), 2)
    c2, lc = _over_lcm(((v._a * v._a + v._b * v._b, v._d) for v in cs.values()), 2)
    rn, rd = C.radius_value().as_integer_ratio()
    return (ip * lx * lc * rd) ** 2 > x2 * l * l * (c2 * rd * rd - rn * rn * lc * lc)


def _exact_rows(xs: dict, cs: dict) -> list | None:
    # one row (x_a, x_d, c_a, c_d) per index of supp x | supp c, with each
    # exact entry a/d and a missing one 0/1, or None at the first complex
    # entry; every entry is read once
    rows, zero = [], _QC_ZERO
    for j in xs.keys() | cs.keys():
        u, v = xs.get(j, zero), cs.get(j, zero)
        if u._b or v._b:
            return None
        rows.append((u._a, u._d, v._a, v._d))
    return rows


def _float_rows(xs: dict, cs: dict) -> list | None:
    # one row (x_j.real, c_j.real) per index of supp x | supp c in index
    # order, the distance walk's, with a missing entry 0.0, or None at the
    # first complex entry; every entry is read once
    rows, zero = [], 0j
    for j in sorted(xs.keys() | cs.keys()):
        u, v = xs.get(j, zero), cs.get(j, zero)
        if u.imag or v.imag:
            return None
        rows.append((u.real, v.real))
    return rows


def _p1_scale(rows: list, r, mode: Mode):
    # the minimiser of g(lam) = ||x - lam c||_1 - lam r over lam > 0, or None
    # when g rises from g(0) = ||x|| > 0.  g's slope just after 0 gains
    # 2|c_i| at each positive x_i / c_i; the first breakpoint where it turns
    # >= 0 is the minimiser (a weighted median), and the last slope is
    # ||c|| - r > 0, so one is reached.  rows is the mode's row table;
    # exactly, the slope is kept times the lcm of r's and c's denominators,
    # and each breakpoint, the scale returned too, as an int pair (n, d),
    # d > 0, not reduced
    if mode is Mode.FLOAT64:
        slope, knots = -r, []
        for a, b in rows:
            if not b:
                continue
            k = a / b
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
        return None
    rn, rd = r.as_integer_ratio()
    lcm = math.lcm(rd, *(cd for _, _, _, cd in rows))  # a missing c_i has cd = 1
    slope, knots = -rn * (lcm // rd), []
    for xa, xd, ca, cd in rows:
        if not ca:
            continue
        w = abs(ca) * (lcm // cd)
        if xa and (xa > 0) is (ca > 0):  # x_i / c_i > 0
            slope -= w
            # x_i / c_i = kn / kd with kd > 0
            kn, kd = xa * cd, xd * ca
            knots.append((kn, kd, w) if kd > 0 else (-kn, -kd, w))
        else:
            slope += w
    if slope >= 0:
        return None
    knots.sort(key=_KNOT_ORDER)
    for kn, kd, w in knots:
        slope += 2 * w
        if slope >= 0:
            return kn, kd


# knots (kn, kd, w) in the order of kn / kd, by cross-multiplication
_KNOT_ORDER = functools.cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])


def _pinf_scale(rows: list, r, mode: Mode):
    # the middle of the open interval of lam > 0 where ||x - lam c||_inf <
    # lam r, or None when it is empty.  Row by row: lam (c_i + r) > x_i and
    # lam (r - c_i) > -x_i, each an open half-line of lam, or all or none;
    # the interval is bounded, as some |c_i| > r.  rows is the mode's row
    # table; exactly, each row is multiplied through by its denominators,
    # and each end, the middle returned too, is an int pair (n, d), d > 0,
    # not reduced
    if mode is Mode.FLOAT64:
        lo, hi = 0, math.inf
        for a, b in rows:
            for s, t in ((b + r, a), (r - b, -a)):  # lam * s > t
                if s > 0:
                    lo = max(lo, t / s)
                elif s < 0:
                    hi = min(hi, t / s)
                elif t >= 0:
                    return None
        return (lo + hi) / 2 if lo < hi else None
    rn, rd = r.as_integer_ratio()
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0  # hi = 1/0, infinity, until a row bounds it
    for xa, xd, ca, cd in rows:
        # times x_d c_d rd: lam (c_a rd + rn c_d) x_d > x_a c_d rd and
        # lam (rn c_d - c_a rd) x_d > -x_a c_d rd
        p, q, a = rn * cd, ca * rd, xa * cd * rd
        for s, t in (((p + q) * xd, a), ((p - q) * xd, -a)):  # lam * s > t
            if s > 0:
                if t * lo_d > lo_n * s:
                    lo_n, lo_d = t, s
            elif s < 0:
                if t * hi_d > hi_n * s:  # t/s < hi, with s < 0
                    hi_n, hi_d = -t, -s
            elif t >= 0:
                return None
    if lo_n * hi_d < hi_n * lo_d:
        return lo_n * hi_d + hi_n * lo_d, 2 * lo_d * hi_d
    return None


def _lt_at_scale(rows: list, lam: tuple[int, int], r: Fraction, sup: bool) -> bool:
    # ||x - lam c|| < lam r under pinf (sup) or p1, for the exact row table,
    # in integers.  With lam = N/D, r = rn/rd and each entry a/d, row j times
    # D is |D x_a c_d - N c_a x_d| / (x_d c_d) and the bound times D is
    # N rn / rd: pinf cross-multiplies row by row and stops at the first that
    # fails, p1 sums the rows over the lcm of their denominators and
    # cross-multiplies once.  Both sides scale with lam's pair, so it need
    # not be reduced
    big_n, big_d = lam
    rn, rd = r.as_integer_ratio()
    bn = big_n * rn
    if sup:
        for xa, xd, ca, cd in rows:
            if abs(big_d * xa * cd - big_n * ca * xd) * rd >= bn * xd * cd:
                return False
        return True
    num, den = _over_lcm(((abs(big_d * xa * cd - big_n * ca * xd), xd * cd)
                          for xa, xd, ca, cd in rows), 1)
    return num * rd < bn * den


def _squares_at_scale(rows: list, lam: float) -> list[float]:
    # the squares |x_j - lam c_j|^2 of the float row table, as the distance
    # walk of x against c.scale(lam) reads them: lam c_j is the product
    # scale rounds, and a row where it is 0 and x_j is missing adds 0, as
    # the walk's missing row does
    squares = []
    for a, b in rows:
        d = a - b * lam
        squares.append(d * d)
    return squares


_MINIMIZATION_LEVELS = 48  # refinement rounds of the float scale search


def _contains_by_minimization(C: OpenCone, x: SeqVector) -> bool:
    # minimize g(lam) = ||x - lam c|| - lam r over lam > 0; member iff min < 0.
    # g is a float screen over the entries converted once; the verdict is an
    # exact strict check of ||x - lam c|| < lam r at the best candidates.  The
    # cone is the same for 2^-ex x and for 2^-ec (c, r), so both are brought
    # near 1 before the conversion, and each lam maps back by 2^(ex - ec)
    p = C.norm
    c = C.center
    keys = x._entries.keys() | c._entries.keys()

    def near_one(v: SeqVector):
        e = round(max(map(log2_abs, v._entries.values())))
        unit = QC(Fraction(2) ** -e)
        return e, [(make_scalar(v.entry(i), Mode.EXACT) * unit).to_complex() for i in keys]

    (ex, xs), (ec, cs) = near_one(x), near_one(c)
    pairs = list(zip(xs, cs))

    def size(terms: list[float]) -> float:
        if p is NormTag.P1:
            return sum(terms)
        return max(terms) if p is NormTag.PINF else math.hypot(*terms)

    r_f = to_float(Fraction(C.radius_value()) * Fraction(2) ** -ec)
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
        lam_s = real_value(Fraction(lam) * Fraction(2) ** (ex - ec), mode)
        if dist_lt(x, c.scale(lam_s), p, lam_s * C.radius_value()):
            return True
    return False


def cone_contains(C: OpenCone, x: SeqVector) -> bool:
    """Membership of x in the ball-generated open cone C.

    The euclidean closed form is exact.  For real x and center under p1 or
    pinf, g(lam) = ||x - lam c|| - lam r is convex and piecewise linear,
    and membership is decided by one strict test at one scale: the
    breakpoint where g is least (p1) or the middle of the interval where
    every entry's inequality holds (pinf).  That verdict is exact in both
    directions in exact mode and follows the float strictness policy in
    float mode.  The entries of x and c are read once, into one table
    with a row per index of supp x and supp c, and both the scale and
    the strict test at the scale read that table, with no scaled center
    or distance walk.  In exact mode the rows are each entry's ints, and
    the closed form, both scales and the strict test are worked out in
    integers: each row (pinf) or their sum over one denominator (p1) is
    cross-multiplied with lam r.  In float mode the rows are the real
    parts in index order, and the test computes the floats the distance
    walk of x against c.scale(lam) would: each lam c_j as scale rounds
    it, the squares maxed (pinf) or their roots summed (p1), and
    ||x - lam c|| < lam r - TOL_EQ.  Only a complex entry keeps the float
    scale search, whose True is checked exactly but whose False is
    one-sided: a member within ~1e-12 (relative) of the boundary may be
    reported as outside.
    """
    C.center._check(x)
    if x.is_zero:
        return False
    if C.norm is NormTag.P2:
        return _contains_p2_closed_form(C, x)
    exact = x.mode is Mode.EXACT
    rows = (_exact_rows if exact else _float_rows)(x._entries, C.center._entries)
    if rows is None:  # a complex entry
        return _contains_by_minimization(C, x)
    r, sup = C.radius_value(), C.norm is NormTag.PINF
    lam = (_pinf_scale if sup else _p1_scale)(rows, r, x.mode)
    if lam is None:
        return False
    if exact:
        return _lt_at_scale(rows, lam, r, sup)
    return _walk_cmp(_squares_at_scale(rows, lam), C.norm, x.mode, lam * r) < 0


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
