"""Weighted shifts, diagonal operators, and finite block direct sums.

Action convention (fixed): a backward shift sends e_n to a_n * e_{n-1}
(e_0 to 0 in the unilateral case), a forward shift sends e_n to
a_n * e_{n+1}, a diagonal operator sends e_n to a_n * e_n.  Powers are
computed from closed-form weight products along paths, never by n-fold
matrix application, so they are exact and O(support) per power.

Float64-mode magnitudes are tracked in log2 and error out past 2^900
instead of silently overflowing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (
    ConfigError,
    IndecisiveSpectrum,
    IndexSetMismatch,
    NumericOverflow,
    OrbitscopeError,
)
from .numeric import (
    QC,
    FieldsJSON,
    Mode,
    OVERFLOW_LOG2,
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
    [lo, hi]; every value, product and bound below is read off those two.
    """

    kind = "abstract"

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

    def log2_abs_at(self, j: int) -> float:
        return self._log2[self._index_at(j)]

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

    kind = "constant"

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

    kind = "piecewise_two_sided"

    def __post_init__(self):
        pos, nonpos = _coerce_weight(self.positive), _coerce_weight(self.nonpositive)
        self._store((pos, nonpos), positive=pos, nonpositive=nonpos)

    def _index_at(self, j: int) -> int:
        return 0 if j >= 1 else 1

    def _counts(self, lo: int, hi: int):
        if hi < lo:
            return 0, 0
        pos = max(0, hi - max(lo, 1) + 1)
        return pos, hi - lo + 1 - pos

    def to_jsonable(self):
        return {"kind": "piecewise_two_sided",
                "positive": jsonable(self.positive),
                "nonpositive": jsonable(self.nonpositive)}


@dataclass(frozen=True)
class Periodic(WeightRule):
    values: tuple

    kind = "periodic"

    def __post_init__(self):
        vals = tuple(_coerce_weight(v) for v in self.values)
        if not vals:
            raise ConfigError("periodic rule needs at least one weight")
        self._store(vals, values=vals)

    def _index_at(self, j: int) -> int:
        return j % len(self.values)

    def _counts(self, lo: int, hi: int):
        p = len(self.values)
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

    kind = "table"

    def __post_init__(self):
        if isinstance(self.entries, dict):
            items = self.entries.items()
        else:
            items = self.entries
        clean = tuple(sorted((int(i), _coerce_weight(v)) for i, v in items))
        default = _coerce_weight(self.default)
        self._store(tuple(v for _, v in clean) + (default,), entries=clean, default=default)

    def _index_at(self, j: int) -> int:
        for k, (i, _) in enumerate(self.entries):
            if i == j:
                return k
        return len(self.entries)

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


# -- weight products -----------------------------------------------------------


@dataclass(frozen=True)
class WeightProduct:
    """Scalar multiplying the surviving coordinate of a power of a shift."""

    log2_magnitude: float
    phase: complex
    exact_value: QC | None
    is_zero: bool = False

    @classmethod
    def zero(cls) -> "WeightProduct":
        return cls(float("-inf"), _UNIT, QC(Fraction(0)), True)

    @classmethod
    def one(cls) -> "WeightProduct":
        return cls(0.0, _UNIT, _ONE)


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


def _step(kind: str, band: Band, s: int, n: int):
    """Landing index of an n-step path from s, or None when annihilated."""
    if kind == "backward":
        t = s - n
        return t if band.contains(t) else None
    if kind == "forward":
        t = s + n
        return t if band.contains(t) else None
    return s


def _path_span(kind: str, s: int, t: int) -> tuple[int, int]:
    """Indices lo..hi of the weights along a shift path from s to t."""
    return (t + 1, s) if kind == "backward" else (s, t - 1)


def _path_exact(kind: str, weights: WeightRule, s: int, t: int, n: int) -> QC:
    """Exact product of the weights along the n-step path from s to t (n >= 1)."""
    if kind == "diagonal":
        return weights.product_exact(s, s) ** n
    return weights.product_exact(*_path_span(kind, s, t))


def _path_log2(kind: str, weights: WeightRule, s: int, t: int,
               n: int) -> tuple[float, complex]:
    """log2 magnitude and unit phase of the same product."""
    if kind == "diagonal":
        lg, ph = weights.product_log2(s, s)
        return lg * n, unit_power(ph, n)
    return weights.product_log2(*_path_span(kind, s, t))


def path_source(T: ShiftOperator, j: int, n: int) -> int | None:
    """Source index whose mass lands at j after n steps, if any."""
    comp = T.component_for(j)
    if comp is None:
        return None
    kind, _, band = comp
    if kind == "backward":
        s = j + n
    elif kind == "forward":
        s = j - n
    else:
        s = j
    if not band.contains(s):
        return None
    if not T.index_set.contains(s):
        return None
    return s


def weight_product(T: ShiftOperator, target_index: int, n: int,
                   mode: Mode = Mode.EXACT) -> WeightProduct:
    """Product of the n weights along the path landing at target_index.

    Returns the exact zero product when no source reaches the target
    (e.g. a unilateral path would have to exit N).  A FLOAT64 path
    product carries its log2 magnitude and phase but no exact value.
    """
    if n < 0:
        raise OrbitscopeError("power must be non-negative")
    if n == 0:
        return WeightProduct.one()
    s = path_source(T, target_index, n)
    if s is None:
        return WeightProduct.zero()
    kind, weights, _ = T.component_for(target_index)
    lg, ph = _path_log2(kind, weights, s, target_index, n)
    exact = _path_exact(kind, weights, s, target_index, n) if mode is Mode.EXACT else None
    return WeightProduct(lg, ph, exact)


def apply(T: ShiftOperator, v: SeqVector) -> SeqVector:
    """Single application of T; exact in both numeric modes."""
    if v.index_set is not T.index_set:
        raise IndexSetMismatch("operator and vector index sets differ")
    entries: dict = {}
    for s, val in v.items():
        comp = T.component_for(s)
        if comp is None:
            raise IndexSetMismatch(f"vector support index {s} lies in no band")
        kind, weights, band = comp
        t = _step(kind, band, s, 1)
        if t is None:
            continue
        w = weights.weight_at(s)
        coeff = w if v.mode is Mode.EXACT else w.to_complex()
        out = coeff * val
        if v.mode is Mode.FLOAT64 and out != 0 and not (
                math.isfinite(out.real) and math.isfinite(out.imag)):
            raise NumericOverflow("single-step application overflowed")
        if t in entries:
            entries[t] = entries[t] + out
        else:
            entries[t] = out
    return SeqVector(v.index_set, entries, v.mode)


def apply_power(T: ShiftOperator, n: int, v: SeqVector) -> SeqVector:
    """T^n v via exact weight products along length-n paths."""
    if n < 0:
        raise OrbitscopeError("power must be non-negative")
    if v.index_set is not T.index_set:
        raise IndexSetMismatch("operator and vector index sets differ")
    if n == 0:
        return v
    entries: dict = {}
    exact = v.mode is Mode.EXACT
    for s, val in v.items():
        comp = T.component_for(s)
        if comp is None:
            raise IndexSetMismatch(f"vector support index {s} lies in no band")
        kind, weights, band = comp
        t = _step(kind, band, s, n)
        if t is None:
            continue
        if exact:
            coeff = _path_exact(kind, weights, s, t, n)
        else:
            lg, ph = _path_log2(kind, weights, s, t, n)
            if lg + log2_abs(val) > OVERFLOW_LOG2:
                raise NumericOverflow(
                    f"T^{n} entry at {t} has magnitude past 2^{OVERFLOW_LOG2:.0f}")
            if lg > OVERFLOW_LOG2:
                raise NumericOverflow(f"weight product magnitude 2^{lg:.1f} exceeds policy")
            coeff = ph * 2.0 ** lg
        out = coeff * val
        if t in entries:
            entries[t] = entries[t] + out
        else:
            entries[t] = out
    return SeqVector(v.index_set, entries, v.mode)


# -- spectral radius ------------------------------------------------------------


@dataclass(frozen=True)
class SpectralTrace(FieldsJSON):
    """Gelfand quotients ||T^n||^{1/n} over a window, plus the point estimate.

    For shifts and diagonals the n-th quotient is the exact supremum of
    n-step geometric means of weight magnitudes over the window.
    """

    quotients: tuple[float, ...]
    estimate: float
    n_max: int
    window: tuple[int, int]


def spectral_radius_estimate(T: ShiftOperator, n_max: int,
                             window: tuple[int, int]) -> SpectralTrace:
    if n_max < 1:
        raise OrbitscopeError("n_max must be >= 1")
    win_lo, win_hi = window
    if win_hi < win_lo:
        raise OrbitscopeError("empty window")
    quotients = []
    comp_data = []
    for kind, weights, band in T.components():
        lo = win_lo
        hi = win_hi
        if band.lo is not None:
            lo = max(lo, band.lo)
        if band.hi is not None:
            hi = min(hi, band.hi)
        if hi < lo:
            continue
        if kind == "backward":
            a, b = lo - n_max, hi
        elif kind == "forward":
            a, b = lo, hi + n_max - 1
        else:
            a, b = lo, hi
        prefix = [0.0]
        for j in range(a, b + 1):
            prefix.append(prefix[-1] + weights.log2_abs_at(j))
        comp_data.append((kind, band, lo, hi, a, prefix))
    for n in range(1, n_max + 1):
        best = None
        for kind, band, lo, hi, a, prefix in comp_data:
            # one max of the window's n-step log2 sums (one weight on a diagonal),
            # divided once: x / n rounds monotonically, so it is the largest quotient
            if kind == "diagonal":
                top, low, count, steps = lo - a + 1, lo - a, hi - lo + 1, 1
            elif kind == "backward":
                # over N every band starts at >= 0, so the end s - n stays in N
                first = lo if band.lo is None else max(lo, band.lo + n)
                top, low, count, steps = first - a + 1, first - n - a + 1, hi - first + 1, n
            else:  # forward
                last = hi if band.hi is None else min(hi, band.hi - n)
                top, low, count, steps = lo + n - a, lo - a, last - lo + 1, n
            cand = max(map(operator.sub, prefix[top:top + count],
                           prefix[low:low + count])) / steps if count > 0 else None
            if cand is not None:
                best = cand if best is None else max(best, cand)
        quotients.append(2.0 ** best if best is not None else 0.0)
    return SpectralTrace(tuple(quotients), quotients[-1], n_max, (win_lo, win_hi))


# -- Riesz-style block decomposition ---------------------------------------------


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


_HALF_WIDTH = 256  # estimation window on an unbounded side of a band
_RIESZ_MARGIN, _RIESZ_STEPS = 0.05, 64


def _block_window(band: Band) -> tuple[int, int]:
    if band.lo is not None and band.hi is not None:
        return band.lo, band.hi
    if band.lo is not None:
        return band.lo, band.lo + _HALF_WIDTH
    if band.hi is not None:
        return band.hi - _HALF_WIDTH, band.hi
    return -_HALF_WIDTH, _HALF_WIDTH


def riesz_blocks(T: ShiftOperator) -> RieszSplit:
    """Partition a block direct sum by per-block spectral radius (<1 vs >1),
    each estimated over 64 steps.

    Raises IndecisiveSpectrum when any block's estimate lands within 0.05
    of 1: the split hypothesis cannot be certified numerically.
    """
    if T.shape is not Shape.BLOCK_DIRECT_SUM:
        raise OrbitscopeError("riesz_blocks applies to block direct sums only")
    contracting = []
    expanding = []
    estimates = []
    for block in T.blocks:
        sub = ShiftOperator(Shape.BLOCK_DIRECT_SUM, T.index_set, blocks=(block,))
        est = spectral_radius_estimate(sub, _RIESZ_STEPS,
                                       _block_window(block.band)).estimate
        estimates.append((f"band[{block.band.lo},{block.band.hi}]", est))
        if est < 1.0 - _RIESZ_MARGIN:
            contracting.append(block)
        elif est > 1.0 + _RIESZ_MARGIN:
            expanding.append(block)
        else:
            raise IndecisiveSpectrum(
                f"block radius estimate {est:.4f} within {_RIESZ_MARGIN} of 1")
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
