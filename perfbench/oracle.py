"""Independent exact oracle for the benchmark.

Everything here is plain `fractions.Fraction` arithmetic on complex
numbers stored as (re, im) pairs.  Operators are rebuilt from their JSON
form, and T^n x is always n single steps of the action convention
(backward: e_s -> w_s e_{s-1}, forward: e_s -> w_s e_{s+1}, diagonal:
e_s -> w_s e_s, images leaving a band are dropped).  Nothing here calls
orbitscope's arithmetic, its closed-form powers or its norms, so a check
passed here does not share arithmetic with the computation it checks.
Float values convert losslessly with Fraction(float).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ZERO = (Fraction(0), Fraction(0))


def rational(value) -> Fraction:
    """Exact rational of a JSON number or string (floats convert losslessly)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    return Fraction(str(value))


def scalar(value) -> tuple[Fraction, Fraction]:
    """(re, im) of a JSON weight: 'p/q', a number, or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        return rational(value[0]), rational(value[1])
    return rational(value), Fraction(0)


def vector_from_jsonable(obj) -> dict:
    """{index: (re, im)} from SeqVector.to_jsonable() output."""
    out = {}
    for i, re, im in obj["entries"]:
        z = (rational(re), rational(im))
        if z != ZERO:
            out[int(i)] = z
    return out


def vector_from_program(v) -> dict:
    """{index: (re, im)} from a SeqVector, exact (QC) or float (complex)."""
    out = {}
    for i, val in v.items():
        if isinstance(val, complex):
            z = (Fraction(val.real), Fraction(val.imag))
        else:
            z = (val.re, val.im)
        if z != ZERO:
            out[i] = z
    return out


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def sub(x: dict, y: dict) -> dict:
    out = dict(x)
    for i, (re, im) in y.items():
        a = out.get(i, ZERO)
        z = (a[0] - re, a[1] - im)
        if z == ZERO:
            out.pop(i, None)
        else:
            out[i] = z
    return out


def scale(x: dict, f: Fraction) -> dict:
    return {i: (re * f, im * f) for i, (re, im) in x.items()} if f else {}


# -- operators ---------------------------------------------------------------


def _weight_rule(obj):
    kind = obj["kind"]
    if kind == "constant":
        w = scalar(obj["value"])
        return lambda j: w
    if kind == "piecewise_two_sided":
        pos, non = scalar(obj["positive"]), scalar(obj["nonpositive"])
        return lambda j: pos if j >= 1 else non
    if kind == "periodic":
        vals = [scalar(v) for v in obj["values"]]
        return lambda j: vals[j % len(vals)]
    if kind == "table":
        table = {int(k): scalar(v) for k, v in obj["entries"].items()}
        default = scalar(obj["default"])
        return lambda j: table.get(j, default)
    raise ValueError(f"oracle: unknown weight rule {kind!r}")


_SIMPLE = {"unilateral_backward": "backward", "bilateral_backward": "backward",
           "bilateral_forward": "forward", "diagonal": "diagonal"}


class Operator:
    """A weighted shift rebuilt from its JSON form, acting by single steps."""

    def __init__(self, obj: dict):
        self.label = obj.get("label", "")
        naturals = obj["index_set"] == "N"
        if obj["shape"] == "block_direct_sum":
            self.parts = [(b["kind"], b["band"][0], b["band"][1],
                           _weight_rule(b["weights"])) for b in obj["blocks"]]
        else:
            self.parts = [(_SIMPLE[obj["shape"]], 0 if naturals else None, None,
                           _weight_rule(obj["weights"]))]

    def step(self, x: dict) -> dict:
        out: dict = {}
        for s, z in x.items():
            for kind, lo, hi, rule in self.parts:
                if (lo is None or s >= lo) and (hi is None or s <= hi):
                    break
            else:
                raise ValueError(f"oracle: index {s} lies in no band")
            t = s - 1 if kind == "backward" else s + 1 if kind == "forward" else s
            if (lo is not None and t < lo) or (hi is not None and t > hi):
                continue
            w = mul(rule(s), z)
            a = out.get(t)
            if a is not None:
                w = (a[0] + w[0], a[1] + w[1])
            if w == ZERO:
                out.pop(t, None)
            else:
                out[t] = w
        return out

    def power(self, n: int, x: dict) -> dict:
        for _ in range(n):
            if not x:
                break
            x = self.step(x)
        return x


# -- norms -------------------------------------------------------------------


def _abs2(z) -> Fraction:
    return z[0] * z[0] + z[1] * z[1]


def _sqrt_floor_scaled(q: Fraction, bits: int) -> int:
    """floor(sqrt(q) * 2^bits)."""
    return isqrt(q.numerator * (1 << (2 * bits)) // q.denominator)


def norm_lt(x: dict, p: str, bound: Fraction) -> bool:
    """Exact ||x||_p < bound for p in p1, p2, pinf."""
    if bound <= 0:
        return False
    terms = [_abs2(z) for z in x.values()]
    if not terms:
        return True
    if p == "p2":
        return sum(terms) < bound * bound
    if p == "pinf":
        return max(terms) < bound * bound
    if all(z[1] == 0 for z in x.values()):
        return sum(abs(z[0]) for z in x.values()) < bound
    bits = 64
    while True:
        lo = sum(_sqrt_floor_scaled(t, bits) for t in terms)
        hi = lo + len(terms)
        scaled = bound * (1 << bits)
        if hi <= scaled:
            return True
        if lo >= scaled:
            return False
        bits *= 2


def real_norm_key(x: dict, p: str) -> Fraction:
    """||x||_p of a real vector, squared for p2; orders vectors by norm exactly."""
    if p == "p1":
        return sum((abs(re) for re, _ in x.values()), Fraction(0))
    if p == "pinf":
        return max((abs(re) for re, _ in x.values()), default=Fraction(0))
    return sum((re * re for re, _ in x.values()), Fraction(0))


def norm_le(x: dict, p: str, bound: Fraction) -> bool:
    """Exact ||x||_p <= bound for a real vector, as the cone proofs need."""
    return real_norm_key(x, p) <= (bound * bound if p == "p2" else bound)


def approx_equal(x: dict, y: dict, rel: float) -> bool:
    """Entrywise |x_i - y_i| <= rel * |y_i| (y exact, x a float computation)."""
    if set(x) - set(y):
        return False
    r2 = Fraction(rel) ** 2
    for i, zy in y.items():
        zx = x.get(i, ZERO)
        d = (zx[0] - zy[0], zx[1] - zy[1])
        if _abs2(d) > r2 * _abs2(zy):
            return False
    return True


# -- certificate bundle witnesses -------------------------------------------


def _check_coarse(op: Operator, w: dict) -> str | None:
    image = op.power(w["time"], vector_from_jsonable(w["base"]))
    if not norm_lt(sub(image, vector_from_jsonable(w["target"])), w["norm"],
                   rational(w["bound"])):
        return f"coarse witness at n={w['time']} misses the bound"
    return None


def _check_j(op: Operator, w: dict) -> str | None:
    base = vector_from_jsonable(w["base"])
    target = vector_from_jsonable(w["target"])
    bound = rational(w["bound"])
    schedule = [rational(e) for e in w["schedule"]]
    triples = w["triples"]
    if len(triples) != len(schedule):
        return "one triple per schedule entry required"
    times = [t["time"] for t in triples]
    if times[0] < 1 or any(b <= a for a, b in zip(times, times[1:])):
        return "times not positive and strictly increasing"
    if w["mix"] and any(b != a + 1 for a, b in zip(times, times[1:])):
        return "mix witness times not consecutive"
    for eps, t in zip(schedule, triples):
        perturbed = vector_from_jsonable(t["perturbed"])
        if not norm_lt(sub(perturbed, base), w["norm"], eps):
            return f"perturbation at time {t['time']} not within {eps}"
        image = op.power(t["time"], perturbed)
        if not norm_lt(sub(image, target), w["norm"], bound):
            return f"image at time {t['time']} not within bound {bound}"
    return None


def check_report(report: dict) -> tuple[int, list[str]]:
    """(number of full witnesses checked, problems) for one certificate report."""
    op = Operator(report["operator"])
    problems = []
    checked = 0
    for w in report["witnesses"]:
        if "kind" in w:
            kind, w = ("coarse", w["coarse"]) if w["kind"] == "orbit" \
                else ("j", w["jwitness"])
        elif "triples" in w:
            kind = "j"
        elif "achieved_distance" in w:
            kind = "coarse"
        else:
            continue  # digests and amplification records are not full witnesses
        if w.get("operator", op.label) != op.label:
            problems.append(f"witness for operator {w['operator']!r} in a "
                            f"{op.label!r} report")
            continue
        checked += 1
        problem = (_check_coarse if kind == "coarse" else _check_j)(op, w)
        if problem:
            problems.append(problem)
    return checked, problems
