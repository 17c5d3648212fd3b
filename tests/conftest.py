import math
from fractions import Fraction

from hypothesis import strategies as st

from orbitscope import (
    Band,
    Block,
    Constant,
    IndexSet,
    Periodic,
    PiecewiseTwoSided,
    SeqVector,
    Shape,
    ShiftOperator,
    Table,
    norm_lt,
)
from orbitscope.errors import IndexSetMismatch, NumericOverflow
from orbitscope.numeric import QC, Mode


def reference_target(T, s):
    """(t, weights) for one step of T from the source s, its band looked up
    afresh: t is where the step lands, None when it leaves the band."""
    comp = T.component_for(s)
    if comp is None:
        raise IndexSetMismatch(f"vector support index {s} lies in no band")
    kind, weights, band = comp
    t = {"backward": s - 1, "forward": s + 1, "diagonal": s}[kind]
    return (t if band.contains(t) else None), weights


def outside_domain(T, v):
    """Independent oracle: does v leave T's domain?  It does when v and T
    lie over different index sets, or when reference_target finds some
    source of v in no band."""
    if v.index_set is not T.index_set:
        return True
    try:
        for s in v.support:
            reference_target(T, s)
    except IndexSetMismatch:
        return True
    return False


def reference_path_source(T, j, n):
    """Independent oracle for the source whose mass lands at j after n
    steps, None when no source does: each candidate j + n, j - n and j is
    stepped n times with reference_target."""
    for s in dict.fromkeys((j + n, j - n, j)):
        if not T.index_set.contains(s) or T.component_for(s) is None:
            continue
        t = s
        for _ in range(n):
            t, _ = reference_target(T, t)
            if t is None:
                break
        if t == j:
            return s
    return None


def reference_path_product(T, j, n):
    """Independent oracle for the exact product W of the n weights along
    the path landing at j, 0 when no source reaches j: reference_path_source's
    source is stepped n times with reference_target, and each weight it
    leaves is multiplied in as a pair of Fractions, one at a time."""
    s = reference_path_source(T, j, n)
    if s is None:
        return QC(0)
    re, im = Fraction(1), Fraction(0)
    for _ in range(n):
        t, weights = reference_target(T, s)
        w = weights.weight_at(s)
        re, im = re * w.re - im * w.im, re * w.im + im * w.re
        s = t
    return QC(re, im)


def reference_apply(T, v):
    """Reference single step of T, written apart from operators.iterate:
    each source's band is looked up afresh, landings that collide are
    summed, and the result is a validated SeqVector."""
    if v.index_set is not T.index_set:
        raise IndexSetMismatch("operator and vector index sets differ")
    entries = {}
    for s, val in v.items():
        t, weights = reference_target(T, s)
        if t is None:
            continue
        w = weights.weight_at(s)
        try:
            coeff = w if v.mode is Mode.EXACT else w.to_complex()
        except OverflowError:
            raise NumericOverflow("single-step application overflowed") from None
        out = coeff * val
        if v.mode is Mode.FLOAT64 and out != 0 and not (
                math.isfinite(out.real) and math.isfinite(out.imag)):
            raise NumericOverflow("single-step application overflowed")
        entries[t] = entries[t] + out if t in entries else out
    return SeqVector(v.index_set, entries, v.mode)


def nfold_apply(T, n, v):
    """Independent oracle: n successive reference single steps."""
    for _ in range(n):
        v = reference_apply(T, v)
    return v


def random_vector(rng, index_set, lo, hi, bound=10, max_entries=5):
    width = hi - lo + 1
    count = rng.randint(1, min(max_entries, width))
    idxs = rng.sample(range(lo, hi + 1), count)
    entries = {}
    for i in idxs:
        num = rng.randint(-bound * 100, bound * 100)
        if num == 0:
            num = 7
        entries[i] = Fraction(num, 100)
    return SeqVector.from_entries(index_set, entries)


def random_shift(rng):
    """Random simple shift with rational weights bounded away from zero."""
    kind = rng.choice(["uni-const", "bi-const", "bi-piecewise", "diag"])
    def w():
        num = rng.choice([1, 2, 3, 5, 7])
        den = rng.choice([1, 2, 3, 4])
        return Fraction(num, den)
    if kind == "uni-const":
        return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS,
                             Constant(w()))
    if kind == "bi-const":
        return ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                             Constant(w()))
    if kind == "bi-piecewise":
        return ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS,
                             PiecewiseTwoSided(w(), w()))
    return ShiftOperator(Shape.DIAGONAL, IndexSet.INTEGERS, Constant(w()))


def random_rule(rng):
    def w():
        return Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3, 4])) \
            * rng.choice([1, -1])
    kind = rng.choice(["constant", "piecewise", "periodic", "table"])
    if kind == "constant":
        return Constant(w())
    if kind == "piecewise":
        return PiecewiseTwoSided(w(), w())
    if kind == "periodic":
        return Periodic(tuple(w() for _ in range(rng.randint(1, 3))))
    return Table({rng.randint(-6, 6): w(), rng.randint(-6, 6): w()}, w())


def reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


# block sums with annihilating band edges; over Z index 7 lies in no
# band, over N index 10
BLOCK_BANDS = {IndexSet.INTEGERS: [Band(None, -4), Band(-3, 2), Band(3, 6), Band(8, None)],
               IndexSet.NATURALS: [Band(0, 4), Band(5, 9), Band(11, None)]}


@st.composite
def weight_rules(draw, weights):
    """A weight rule of any kind over the given weights."""
    w = st.sampled_from(weights)
    kind = draw(st.sampled_from(["constant", "piecewise", "periodic", "table"]))
    if kind == "constant":
        return Constant(draw(w))
    if kind == "piecewise":
        return PiecewiseTwoSided(draw(w), draw(w))
    if kind == "periodic":
        return Periodic(tuple(draw(st.lists(w, min_size=1, max_size=3))))
    return Table(draw(st.dictionaries(st.integers(-6, 12), w, max_size=3)), draw(w))


@st.composite
def shift_operators(draw, weights):
    """An operator of any shape over the given weights; a block sum takes
    a kind for each band of BLOCK_BANDS."""
    shape = draw(st.sampled_from(list(Shape)))
    if shape is Shape.BLOCK_DIRECT_SUM:
        index_set = draw(st.sampled_from(list(IndexSet)))
        return ShiftOperator(shape, index_set, blocks=tuple(
            Block(band, draw(st.sampled_from(["backward", "forward", "diagonal"])),
                  draw(weight_rules(weights)))
            for band in BLOCK_BANDS[index_set]))
    index_set = IndexSet.NATURALS if shape is Shape.UNILATERAL_BACKWARD else IndexSet.INTEGERS
    return ShiftOperator(shape, index_set, draw(weight_rules(weights)))


def vector_for(rng, T, lo=-8, hi=8):
    if T.index_set is IndexSet.NATURALS:
        return random_vector(rng, IndexSet.NATURALS, 0, hi)
    return random_vector(rng, IndexSet.INTEGERS, lo, hi)


def sup_projection_feasible(T, x, y, d, eps, k):
    """Independent oracle for one sup-norm time k over real exact vectors:
    is there a z with ||z - x|| < eps and ||T^k z - y|| < d?

    Every power of these shifts is monomial, so each target j has at most
    one source s (j + k for backward shifts, j - k for forward ones, j for
    diagonal ones), found here by n-fold application of the basis vector e_s.  The best z_s in
    the closed eps-interval around x_s is the projection of y_j / W onto
    it; the open ball reaches the same infimum, so the time is feasible
    exactly when every projected residual is below d.
    """
    image = nfold_apply(T, k, x)
    for j in sorted(set(y.support) | set(image.support)):
        y_j = y.entry(j).re
        residual = abs(y_j)
        for s in (j + k, j - k, j):
            if not T.index_set.contains(s):
                continue
            w = nfold_apply(T, k, SeqVector.basis(T.index_set, s)).entry(j).re
            if w:
                x_s = x.entry(s).re
                z_s = min(max(y_j / w, x_s - eps), x_s + eps)
                residual = abs(w * z_s - y_j)
                break
        if not residual < d:
            return False
    return True


def points_in_ball_scan(T, x, y, radius, K, p):
    """Reference: a scan of its own from n = 0 for the one horizon K,
    testing each orbit point through the difference vector."""
    seen = set()
    v = x
    for n in range(K + 1):
        if norm_lt(v - y, p, radius):
            seen.add(v.key())
        if n < K:
            v = reference_apply(T, v)
    return len(seen)
