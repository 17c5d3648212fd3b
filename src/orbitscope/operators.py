"""Weighted shifts, diagonal operators, and finite block direct sums.

Action convention (fixed): a backward shift sends e_n to a_n * e_{n-1}
(e_0 to 0 in the unilateral case), a forward shift sends e_n to
a_n * e_{n+1}, a diagonal operator sends e_n to a_n * e_n.

Every path is read off one model, the lane (``_Lane``): T^n sends a
source s to the one row s + step n, times the product of the weights its
steps leave, while s stays in its band.  Powers are closed-form lane
products, never n-fold matrix application, so they are exact and
O(support) per power.  Orbit scans (``iterate``) step each source along
its lane with one weight lookup and one multiply, in exact mode on the
entry's three ints, and end in one shared zero vector once every lane
has.  ``meetings`` builds only the points whose support meets given rows.

``_Lane.product`` is the one exact path product.  A lane's ``entry`` is
the one closed-form landing: the entry T^n sends val e_s to, the exact
product times val in exact mode, and in float64 mode the product's log2
magnitude and phase times val, an error past 2^900 instead of a silent
overflow.  ``apply_power``, ``meetings`` and the J searches' attempts
read it.  Spectral radii are read off each weight rule's structure,
exactly (``spectral_radius``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import (
    ConfigError,
    IndecisiveSpectrum,
    IndexSetMismatch,
    NumericOverflow,
    OrbitscopeError,
)
from .numeric import (
    QC,
    Mode,
    OVERFLOW_LOG2,
    _qc,
    jsonable,
    log2_abs,
    make_scalar,
    phase_of,
    unit_power,
)
from .spaces import IndexSet, SeqVector


# -- weight rules -------------------------------------------------------------


class WeightRule:
    """Total map index -> non-zero weight, stated by its structure.

    A rule passes the weights it takes once to ``_store``, which also
    stores their log2 magnitudes and phases in attributes that take no
    part in equality, hashing or repr.  ``_index_at(j)`` names the weight
    index j uses and ``_counts(lo, hi)`` how often each weight occurs over
    [lo, hi]; every value, product, bound and spectral radius is read off
    those two.  An end of [lo, hi] may be -math.inf or math.inf, and a
    weight that occurs infinitely often then counts math.inf.
    """

    def _index_at(self, j: int) -> int:
        raise NotImplementedError

    def _counts(self, lo: int, hi: int):
        raise NotImplementedError

    def to_jsonable(self) -> dict:
        raise NotImplementedError

    def _store(self, weights: tuple, **fields) -> None:
        fields.update(_weights=weights, _log2=tuple(log2_abs(w) for w in weights),
                      _phase=tuple(phase_of(w) for w in weights))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def weight_at(self, j: int) -> QC:
        return self._weights[self._index_at(j)]

    def weight_values(self) -> tuple[QC, ...]:
        """Every weight the rule takes, exact."""
        return self._weights

    def product_exact(self, lo: int, hi: int) -> QC:
        """Product of weights over the index interval [lo, hi]."""
        out = None
        for w, c in zip(self._weights, self._counts(lo, hi)):
            if c:
                out = w ** c if out is None else out * w ** c
        return _ONE if out is None else out

    def product_log2(self, lo: int, hi: int) -> tuple[float, complex]:
        """log2 magnitude and unit phase of the same product."""
        lg, phase = 0.0, _UNIT
        for c, lg_w, ph_w in zip(self._counts(lo, hi), self._log2, self._phase):
            if c:
                lg += c * lg_w
                phase *= unit_power(ph_w, c)
        return lg, phase


_ONE, _UNIT = QC(Fraction(1)), complex(1.0, 0.0)


def _coerce_weight(value) -> QC:
    w = make_scalar(value, Mode.EXACT)
    if w.is_zero:
        raise ConfigError("weights must be non-zero")
    return w


@dataclass(frozen=True)
class Constant(WeightRule):
    value: QC

    def __post_init__(self):
        value = _coerce_weight(self.value)
        self._store((value,), value=value)

    def _index_at(self, j: int) -> int:
        return 0

    def _counts(self, lo: int, hi: int):
        return (max(0, hi - lo + 1),)

    def to_jsonable(self):
        return {"kind": "constant", "value": jsonable(self.value)}


@dataclass(frozen=True)
class PiecewiseTwoSided(WeightRule):
    """One weight for indices n >= 1, another for n <= 0."""

    positive: QC
    nonpositive: QC

    def __post_init__(self):
        pos, nonpos = _coerce_weight(self.positive), _coerce_weight(self.nonpositive)
        self._store((pos, nonpos), positive=pos, nonpositive=nonpos)

    def _index_at(self, j: int) -> int:
        return 0 if j >= 1 else 1

    def _counts(self, lo: int, hi: int):
        return max(0, hi - max(lo, 1) + 1), max(0, min(hi, 0) - lo + 1)

    def to_jsonable(self):
        return {"kind": "piecewise_two_sided",
                "positive": jsonable(self.positive),
                "nonpositive": jsonable(self.nonpositive)}


@dataclass(frozen=True)
class Periodic(WeightRule):
    values: tuple

    def __post_init__(self):
        vals = tuple(_coerce_weight(v) for v in self.values)
        if not vals:
            raise ConfigError("periodic rule needs at least one weight")
        self._store(vals, values=vals, _period=len(vals))

    def _index_at(self, j: int) -> int:
        return j % self._period

    def _counts(self, lo: int, hi: int):
        p = self._period
        if hi - lo == math.inf:
            return [math.inf] * p
        cycles, rest = divmod(max(0, hi - lo + 1), p)
        counts = [cycles] * p
        for j in range(lo, lo + rest):
            counts[j % p] += 1
        return counts

    def to_jsonable(self):
        return {"kind": "periodic", "values": [jsonable(v) for v in self.values]}


@dataclass(frozen=True)
class Table(WeightRule):
    """Finite overrides on top of a default weight."""

    entries: tuple
    default: QC

    def __post_init__(self):
        if isinstance(self.entries, dict):
            items = self.entries.items()
        else:
            items = self.entries
        clean = tuple(sorted((int(i), _coerce_weight(v)) for i, v in items))
        default = _coerce_weight(self.default)
        self._store(tuple(v for _, v in clean) + (default,), entries=clean, default=default,
                    _slot={i: k for k, (i, _) in enumerate(clean)}, _default_slot=len(clean))

    def _index_at(self, j: int) -> int:
        return self._slot.get(j, self._default_slot)

    def _counts(self, lo: int, hi: int):
        hits = [1 if lo <= i <= hi else 0 for i, _ in self.entries]
        return hits + [max(0, hi - lo + 1) - sum(hits)]

    def to_jsonable(self):
        return {"kind": "table",
                "entries": {str(i): jsonable(v) for i, v in self.entries},
                "default": jsonable(self.default)}


def _json_weight(value):
    """A weight as JSON gives it: true and false are not weights."""
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        raise ValueError(f"weight {value!r} is not a number")
    return value


def weight_rule_from_jsonable(obj: dict) -> WeightRule:
    try:
        kind = obj["kind"]
        if kind == "constant":
            return Constant(_json_weight(obj["value"]))
        if kind == "piecewise_two_sided":
            return PiecewiseTwoSided(_json_weight(obj["positive"]),
                                     _json_weight(obj["nonpositive"]))
        if kind == "periodic":
            return Periodic(tuple(map(_json_weight, obj["values"])))
        if kind == "table":
            if not isinstance(obj["entries"], dict):
                raise TypeError("table entries must map indices to weights")
            return Table(tuple((int(k), _json_weight(v)) for k, v in obj["entries"].items()),
                         _json_weight(obj["default"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad weight rule: {exc}") from exc
    raise ConfigError(f"unknown weight rule kind {kind!r}")


# -- operators -----------------------------------------------------------------


class Shape(Enum):
    UNILATERAL_BACKWARD = "unilateral_backward"
    BILATERAL_BACKWARD = "bilateral_backward"
    BILATERAL_FORWARD = "bilateral_forward"
    DIAGONAL = "diagonal"
    BLOCK_DIRECT_SUM = "block_direct_sum"


_SIMPLE_KINDS = {
    Shape.UNILATERAL_BACKWARD: "backward",
    Shape.BILATERAL_BACKWARD: "backward",
    Shape.BILATERAL_FORWARD: "forward",
    Shape.DIAGONAL: "diagonal",
}


@dataclass(frozen=True)
class Band:
    """Inclusive index interval; None means unbounded on that side."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        for bound in (self.lo, self.hi):
            if bound is not None and type(bound) is not int:
                raise ConfigError(f"band bounds must be integers or null, not {bound!r}")

    def contains(self, i: int) -> bool:
        if self.lo is not None and i < self.lo:
            return False
        if self.hi is not None and i > self.hi:
            return False
        return True

    def overlaps(self, other: "Band") -> bool:
        lo = max(x for x in (self.lo, other.lo) if x is not None) \
            if (self.lo is not None or other.lo is not None) else None
        hi = min(x for x in (self.hi, other.hi) if x is not None) \
            if (self.hi is not None or other.hi is not None) else None
        if lo is None or hi is None:
            return True
        return lo <= hi

    def to_jsonable(self):
        return [self.lo, self.hi]


@dataclass(frozen=True)
class Block:
    band: Band
    kind: str  # backward | forward | diagonal
    weights: WeightRule

    def __post_init__(self):
        if self.kind not in ("backward", "forward", "diagonal"):
            raise ConfigError(f"unknown block kind {self.kind!r}")


@dataclass(frozen=True)
class ShiftOperator:
    shape: Shape
    index_set: IndexSet
    weights: WeightRule | None = None
    blocks: tuple[Block, ...] = ()
    label: str = ""
    _components: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.shape is Shape.UNILATERAL_BACKWARD and self.index_set is not IndexSet.NATURALS:
            raise ConfigError("unilateral backward shift requires the naturals")
        if self.shape in (Shape.BILATERAL_BACKWARD, Shape.BILATERAL_FORWARD) \
                and self.index_set is not IndexSet.INTEGERS:
            raise ConfigError("bilateral shifts require the integers")
        if self.shape is Shape.BLOCK_DIRECT_SUM:
            if self.weights is not None:
                raise ConfigError("block direct sums carry weights per block")
            bands = [b.band for b in self.blocks]
            for i in range(len(bands)):
                for j in range(i + 1, len(bands)):
                    if bands[i].overlaps(bands[j]):
                        raise ConfigError("block bands must be disjoint")
            if self.index_set is IndexSet.NATURALS:
                for b in self.blocks:
                    if b.band.lo is None or b.band.lo < 0:
                        raise ConfigError("naturals blocks need bands within N")
        elif self.weights is None:
            raise ConfigError("simple shapes need a weight rule")
        if self.shape is Shape.BLOCK_DIRECT_SUM:
            comps = tuple((b.kind, b.weights, b.band) for b in self.blocks)
        else:
            band = Band(0, None) if self.index_set is IndexSet.NATURALS else Band(None, None)
            comps = ((_SIMPLE_KINDS[self.shape], self.weights, band),)
        object.__setattr__(self, "_components", comps)

    # Components unify the action logic: every operator is a disjoint union
    # of (kind, weights, band) pieces with annihilation at band edges.
    def components(self) -> tuple[tuple[str, WeightRule, Band], ...]:
        return self._components

    def component_for(self, i: int):
        for comp in self.components():
            if comp[2].contains(i):
                return comp
        return None

    @property
    def annihilates(self) -> bool:
        """True when some path can exit the domain (backward at a floor)."""
        for kind, _, band in self.components():
            if kind == "backward" and band.lo is not None:
                return True
            if kind == "forward" and band.hi is not None:
                return True
        return False

    def to_jsonable(self):
        out = {"shape": self.shape.value, "index_set": self.index_set.value}
        if self.label:
            out["label"] = self.label
        if self.shape is Shape.BLOCK_DIRECT_SUM:
            out["blocks"] = [{"band": b.band.to_jsonable(), "kind": b.kind,
                              "weights": b.weights.to_jsonable()} for b in self.blocks]
        else:
            out["weights"] = self.weights.to_jsonable()
        return out


_OFFSET = {"backward": -1, "forward": 1, "diagonal": 0}  # index change of one step


class _Lane:
    """One source s and the component (kind, rule, band) it runs in: T^n
    sends e_s to product(n) e_{s + step n} up to life, the last time s is
    in its band (math.inf for a diagonal or with no band end ahead), and
    to 0 after.  Built by ``_lanes`` and ``_lane_into`` only."""

    __slots__ = ("s", "rule", "band", "step", "life")

    def __init__(self, s: int, comp: tuple[str, WeightRule, Band]):
        kind, self.rule, band = comp
        self.s, self.band = s, band
        self.step = step = _OFFSET[kind]
        end = band.lo if step < 0 else band.hi
        self.life = math.inf if not step or end is None else (end - s) * step

    def meets(self, j: int) -> int | None:
        """The one n >= 0 at which a shift source sits on row j, else None
        (also for a diagonal, whose source sits on its row at every n)."""
        n = (j - self.s) * self.step
        return n if self.step and 0 <= n <= self.life else None

    def _span(self, n: int) -> tuple[int, int]:
        """Indices lo..hi of the weights a shift source's n steps leave."""
        s = self.s
        return (s - n + 1, s) if self.step < 0 else (s, s + n - 1)

    def product(self, n: int) -> QC:
        """Exact product of the weights over steps 1..n (1 for n = 0)."""
        if not self.step:
            return self.rule.product_exact(self.s, self.s) ** n
        return self.rule.product_exact(*self._span(n))

    def product_log2(self, n: int) -> tuple[float, complex]:
        """log2 magnitude and unit phase of the same product."""
        if not self.step:
            lg, ph = self.rule.product_log2(self.s, self.s)
            return lg * n, unit_power(ph, n)
        return self.rule.product_log2(*self._span(n))

    def entry(self, n: int, val, w: QC | None = None):
        """The entry T^n sends val e_s to, at row s + step n, for n <= life:
        val at n = 0; in exact mode W val, with W the product(n) the caller
        holds as w or formed here; in float mode the log2 magnitude and
        phase of W times val, and NumericOverflow past 2^OVERFLOW_LOG2."""
        if not n:
            return val
        if isinstance(val, QC):
            return (self.product(n) if w is None else w) * val
        lg, ph = self.product_log2(n)
        if lg + log2_abs(val) > OVERFLOW_LOG2:
            raise NumericOverflow(f"T^{n} entry at {self.s + self.step * n} has "
                                  f"magnitude past 2^{OVERFLOW_LOG2:.0f}")
        if lg > OVERFLOW_LOG2:
            raise NumericOverflow(f"weight product magnitude 2^{lg:.1f} exceeds policy")
        return ph * 2.0 ** lg * val


def _lanes(T: ShiftOperator, v: SeqVector):
    """(lane, v_s) for each source s of v, in index order; IndexSetMismatch
    on v and T over different index sets or at the first source in no
    band."""
    if v.index_set is not T.index_set:
        raise IndexSetMismatch("operator and vector index sets differ")
    component_for = T.component_for
    for s, val in v.items():
        comp = component_for(s)
        if comp is None:
            raise IndexSetMismatch(f"vector support index {s} lies in no band")
        yield _Lane(s, comp), val


def _lane_into(T: ShiftOperator, j: int, n: int) -> _Lane | None:
    """The lane whose source sits on row j at time n, run in j's component;
    None when no source does."""
    comp = T.component_for(j)
    if comp is None:
        return None
    s = j - _OFFSET[comp[0]] * n
    return _Lane(s, comp) if comp[2].contains(s) else None


def _step_weights(rule: WeightRule, exact: bool) -> tuple:
    """rule's weights as a step multiplies by them: in exact mode each QC
    as its ints (a, b, d); in float mode each rounded once to complex, an
    infinite one past double range, so only a step that meets it overflows."""
    if exact:
        return tuple((w._a, w._b, w._d) for w in rule._weights)
    out = []
    for w in rule._weights:
        try:
            out.append(w.to_complex())
        except OverflowError:
            out.append(complex(math.inf))
    return tuple(out)


def iterate(T: ShiftOperator, v: SeqVector, K: int):
    """Yield v, Tv, ..., T^K v (nothing when K < 0), lazily.

    T sends each source along its own band to one row, and no two sources
    share a row, so each source is stepped along its lane (``_lanes``): a
    step looks up the weight of the row t it leaves, moves to t + step,
    and is one weight multiply, until the lane's life ends.  A diagonal
    lane never leaves its row, so its one weight is looked up once.
    In exact mode a live source is the three ints (a, b, d) of its entry
    (a + bi)/d, multiplied as ``QC`` multiplies and reduced by one gcd of
    its big ints; a real weight c/f cancels across instead, by
    gcd(f, a, b) and gcd(c, d), each started from a small int.  In float
    mode each rule's weights are rounded once per scan.  Once no source is
    left, every remaining point is one shared zero vector, built with no
    step.
    Every lane is listed before the first point, so v outside T's domain
    raises IndexSetMismatch before the first point, at every K, as
    apply_power does at every n; NumericOverflow past double range in float mode is raised at the step
    that meets it, where an entry that underflows to zero is dropped.
    """
    lanes = list(_lanes(T, v))
    if K < 0:
        return
    yield v
    if not K:
        return
    index_set, mode, exact = v.index_set, v.mode, v.mode is Mode.EXACT
    rows, cache = [], {}  # id(rule) -> _step_weights(rule, exact)
    for lane, val in lanes:
        if not lane.life:
            continue
        rule = lane.rule
        weights = cache.get(id(rule))
        if weights is None:
            weights = cache[id(rule)] = _step_weights(rule, exact)
        if not lane.step:  # a diagonal lane keeps its one weight, looked up here
            weights = weights[rule._index_at(lane.s)]
        # the steps the lane takes in this scan, an int, so no step
        # compares n with an infinite life
        life = K if lane.life > K else lane.life
        head = (lane.s, lane.step, rule._index_at, weights, life)
        rows.append((*head, val._a, val._b, val._d) if exact else (*head, val))
    n = 0
    while rows and n < K:
        entries, live = {}, []
        n += 1
        if exact:
            for t, step, index_at, weights, life, a, b, d in rows:
                c, e, f = weights[index_at(t)] if step else weights
                t += step
                if e:
                    a, b, d = a * c - b * e, a * e + b * c, d * f
                    g = gcd(a, b, d)
                    if g != 1:
                        a, b, d = a // g, b // g, d // g
                else:  # (a + bi)/d and c/f are in lowest terms: cancel across
                    g, h = gcd(f, a, b), gcd(c, d)
                    c //= h
                    a, b, d = a // g * c, b // g * c, d // h * (f // g)
                entries[t] = _qc(a, b, d)
                if n < life:
                    live.append((t, step, index_at, weights, life, a, b, d))
        else:
            for t, step, index_at, weights, life, val in rows:
                val = (weights[index_at(t)] if step else weights) * val
                t += step
                if val == 0:
                    continue
                if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                    raise NumericOverflow("single-step application overflowed")
                entries[t] = val
                if n < life:
                    live.append((t, step, index_at, weights, life, val))
        rows = live
        yield SeqVector._trusted(index_set, entries, mode)
    zero = SeqVector._trusted(index_set, {}, mode)
    for _ in range(n, K):
        yield zero


def meetings(T: ShiftOperator, v: SeqVector, rows, K: int):
    """(n, T^n v) for each n <= K at which supp T^n v meets rows, in order,
    for exact v; each point is built in closed form from its lanes'
    products.

    Each source's lane meets row j at most once (``_Lane.meets``), so the
    times are listed from positions alone, in O(|supp v| |rows|).  Every
    lane is listed first, so v outside T's domain raises IndexSetMismatch,
    as apply_power does, before any time is listed.  None when the times
    cannot be listed: a diagonal source on a row (it is there at every n)."""
    lanes = list(_lanes(T, v))
    times = set()
    for lane, _ in lanes:
        if not lane.step and lane.s in rows:
            return None
        for j in rows:
            n = lane.meets(j)
            if n is not None and n <= K:
                times.add(n)

    def points():
        for n in sorted(times):
            yield n, SeqVector._trusted(v.index_set, {
                lane.s + lane.step * n: lane.entry(n, val)
                for lane, val in lanes if n <= lane.life}, v.mode)

    return points()


def apply_power(T: ShiftOperator, n: int, v: SeqVector) -> SeqVector:
    """T^n v, each source's entry landed in closed form (``_Lane.entry``);
    every lane is listed before any entry lands, so a source in no band
    raises IndexSetMismatch at every n, before any NumericOverflow."""
    if n < 0:
        raise OrbitscopeError("power must be non-negative")
    lanes = list(_lanes(T, v))
    return SeqVector(v.index_set, {lane.s + lane.step * n: lane.entry(n, val)
                                   for lane, val in lanes if n <= lane.life}, v.mode)


# -- spectral radius and Riesz-style block decomposition -------------------------


@dataclass(frozen=True)
class BandSplitter:
    """Decomposes vectors by index band into (contracting, expanding) parts."""

    contracting: tuple[Band, ...]
    expanding: tuple[Band, ...]

    def split(self, v: SeqVector) -> tuple[SeqVector, SeqVector]:
        left: dict = {}
        right: dict = {}
        for i, val in v.items():
            if any(b.contains(i) for b in self.contracting):
                left[i] = val
            elif any(b.contains(i) for b in self.expanding):
                right[i] = val
            else:
                raise OrbitscopeError(f"index {i} lies in no band of the split")
        return (SeqVector(v.index_set, left, v.mode),
                SeqVector(v.index_set, right, v.mode))


@dataclass(frozen=True)
class RieszSplit:
    contracting: ShiftOperator
    expanding: ShiftOperator
    splitter: BandSplitter
    estimates: tuple[tuple[str, float], ...]


def _block_radius(kind: str, rule: WeightRule, band: Band) -> tuple[int, float]:
    """Exact sign of r - 1, and r as a float, for the block's spectral radius r.

    A diagonal's r is its largest |w| over the band; a shift's is 0 on a finite
    band, else the largest over its open ends of r_end, where r_end^(2q) is the
    product of |w|^2 over one period q of the weights recurring toward that end.
    The float saturates at math.inf past double range.
    """
    lo = -math.inf if band.lo is None else band.lo
    hi = math.inf if band.hi is None else band.hi
    if kind == "diagonal":
        periods = [[i] for i, c in enumerate(rule._counts(lo, hi)) if c]
    else:
        ends = [(0, hi)] * (band.hi is None) + [(lo, 0)] * (band.lo is None)
        periods = [[i for i, c in enumerate(rule._counts(*e)) if c == math.inf] for e in ends]
    powers = [math.prod(rule._weights[i].abs2() for i in q) for q in periods]
    logs = [sum(rule._log2[i] for i in q) / len(q) for q in periods]
    return max((((p > 1) - (p < 1), 2.0 ** lg if lg < 1024 else math.inf)
                for p, lg in zip(powers, logs)), default=(-1, 0.0))


def spectral_radius(T: ShiftOperator) -> tuple[int, float]:
    """Exact sign of r - 1, and r as a float, for T's spectral radius r:
    the largest ``_block_radius`` over T's components."""
    return max((_block_radius(*comp) for comp in T.components()), default=(-1, 0.0))


def riesz_blocks(T: ShiftOperator) -> RieszSplit:
    """Partition a block direct sum by each block's exact spectral radius,
    r < 1 contracting and r > 1 expanding (Shields 1974; `_block_radius`).

    Raises IndecisiveSpectrum when some block's radius is exactly 1.
    """
    if T.shape is not Shape.BLOCK_DIRECT_SUM:
        raise OrbitscopeError("riesz_blocks applies to block direct sums only")
    contracting = []
    expanding = []
    estimates = []
    for block in T.blocks:
        sign, r = _block_radius(block.kind, block.weights, block.band)
        name = f"band[{block.band.lo},{block.band.hi}]"
        estimates.append((name, r))
        if sign == 0:
            raise IndecisiveSpectrum(f"block {name} has spectral radius exactly 1")
        (contracting if sign < 0 else expanding).append(block)
    t1 = ShiftOperator(Shape.BLOCK_DIRECT_SUM, T.index_set, blocks=tuple(contracting),
                       label=T.label + ":contracting" if T.label else "contracting")
    t2 = ShiftOperator(Shape.BLOCK_DIRECT_SUM, T.index_set, blocks=tuple(expanding),
                       label=T.label + ":expanding" if T.label else "expanding")
    splitter = BandSplitter(tuple(b.band for b in contracting),
                            tuple(b.band for b in expanding))
    return RieszSplit(t1, t2, splitter, tuple(estimates))


# -- presets and config ----------------------------------------------------------


def prop32_operator() -> ShiftOperator:
    """Backward bilateral shift with weights 2 (n >= 1) and 1 (n <= 0)."""
    return ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                         PiecewiseTwoSided(2, 1), label="paper-prop32")


PRESETS = {
    "paper-prop32": prop32_operator,
}


def shift_from_jsonable(obj: dict) -> ShiftOperator:
    if not isinstance(obj, dict):
        raise ConfigError("operator config must be an object")
    if "preset" in obj:
        name = obj["preset"]
        extra = set(obj) - {"preset"}
        if extra:
            raise ConfigError(f"unknown keys with preset: {sorted(extra)}")
        if name not in PRESETS:
            raise ConfigError(f"unknown operator preset {name!r}")
        return PRESETS[name]()
    allowed = {"shape", "index_set", "weights", "blocks", "label"}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown operator keys: {sorted(unknown)}")
    try:
        shape = Shape(obj["shape"])
        index_set = IndexSet(obj["index_set"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad operator config: {exc}") from exc
    label = obj.get("label", "")
    if shape is Shape.BLOCK_DIRECT_SUM:
        try:
            blocks = tuple(Block(Band(b["band"][0], b["band"][1]), b["kind"],
                                 weight_rule_from_jsonable(b["weights"]))
                           for b in obj.get("blocks", []))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad operator config: {exc}") from exc
        return ShiftOperator(shape, index_set, blocks=blocks, label=label)
    if "weights" not in obj:
        raise ConfigError("operator config needs weights")
    return ShiftOperator(shape, index_set, weight_rule_from_jsonable(obj["weights"]),
                         label=label)
