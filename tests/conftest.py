from fractions import Fraction

from orbitscope import (
    Constant,
    IndexSet,
    PiecewiseTwoSided,
    SeqVector,
    Shape,
    ShiftOperator,
    apply,
)


def nfold_apply(T, n, v):
    """Independent oracle: n successive single-step applications."""
    for _ in range(n):
        v = apply(T, v)
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


def vector_for(rng, T, lo=-8, hi=8):
    if T.index_set is IndexSet.NATURALS:
        return random_vector(rng, IndexSet.NATURALS, 0, hi)
    return random_vector(rng, IndexSet.INTEGERS, lo, hi)
