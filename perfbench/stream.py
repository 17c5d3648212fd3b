"""Seeded request stream of the orbit-cone workload, as plain data.

The stream is a sequence of blocks.  Every block holds the same twelve
request kinds (orbit, coarse, p1/p2/pinf cone member and one cone
non-member, each in exact and float mode) in a seeded order with seeded
parameters, so two seeds differ in their inputs but not in their mix.
Values are exact Fractions; the benchmark hands them to orbitscope in
the request's mode (float mode receives their binary64 roundings).

Cone members are built as x = lam * (c + u) with ||u|| = r * (1 - delta),
so membership is known by construction, at relative margins delta from
1e-1 down to 1e-30 in exact mode.  Float inputs are roundings of these
values and the float strictness policy decides gaps below 1e-9, so float
members keep delta >= 1e-4.  Non-members are -s * (c + v) with
||v|| <= ||c||, or vectors whose support misses the center's.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from oracle import Operator

REAL_WEIGHTS = ("3", "1/3", "7/5", "5/7", "2", "1/2", "5/4", "4/5", "3/2", "2/3")
COMPLEX_WEIGHTS = (["1", "1"], ["1/2", "1/2"], ["3/5", "4/5"])
NORMS = ("p1", "p2", "pinf")
BLOCK = tuple((mode, kind) for mode in ("exact", "float")
              for kind in ("orbit", "coarse", "cone-p1", "cone-p2", "cone-pinf",
                           "cone-non"))


def _weight(rng: random.Random):
    if rng.random() < 0.15:
        return rng.choice(COMPLEX_WEIGHTS)
    return rng.choice(REAL_WEIGHTS)


def _rule(rng: random.Random) -> dict:
    kind = rng.choice(("constant", "piecewise_two_sided", "periodic", "table"))
    if kind == "constant":
        return {"kind": kind, "value": _weight(rng)}
    if kind == "piecewise_two_sided":
        return {"kind": kind, "positive": _weight(rng), "nonpositive": _weight(rng)}
    if kind == "periodic":
        return {"kind": kind, "values": [_weight(rng) for _ in range(rng.randint(2, 3))]}
    return {"kind": kind, "default": _weight(rng),
            "entries": {str(i): _weight(rng) for i in rng.sample(range(-6, 7), 3)}}


def operator_spec(rng: random.Random, label: str) -> dict:
    shape = rng.choice(("unilateral_backward", "bilateral_backward",
                        "bilateral_forward", "diagonal", "block_direct_sum"))
    index_set = "N" if shape == "unilateral_backward" else "Z"
    spec = {"shape": shape, "index_set": index_set, "label": label}
    if shape == "block_direct_sum":
        spec["blocks"] = [
            {"band": band, "kind": rng.choice(("backward", "forward", "diagonal")),
             "weights": _rule(rng)}
            for band in ([None, -1], [0, None])]
    else:
        spec["weights"] = _rule(rng)
    return spec


def _entry(rng: random.Random, complex_share: float):
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), 10)
    im = Fraction(rng.randint(-50, 50), 10) if rng.random() < complex_share else Fraction(0)
    return re, im


def _sparse(rng: random.Random, lo: int, hi: int, size: int, complex_share: float) -> dict:
    return {i: _entry(rng, complex_share) for i in rng.sample(range(lo, hi + 1), size)}


def _max_abs_re(x: dict) -> Fraction:
    return max(abs(re) for re, _ in x.values())


def _norm_upper(x: dict, p: str) -> Fraction:
    """A rational >= ||x||_p for a real vector (exact for p1 and pinf)."""
    if p == "p1":
        return sum(abs(re) for re, _ in x.values())
    if p == "pinf":
        return _max_abs_re(x)
    s = sum(re * re for re, _ in x.values())
    scale = 1 << 128
    return Fraction(isqrt(s.numerator * scale * scale // s.denominator) + 1, scale)


def _orbit(rng: random.Random, label: str) -> dict:
    spec = operator_spec(rng, label)
    lo = 0 if spec["index_set"] == "N" else -8
    if rng.random() < 0.4:
        x = {rng.randint(lo, lo + 16): (Fraction(1), Fraction(0))}
    else:
        x = _sparse(rng, lo, lo + 16, rng.randint(1, 4), 0.2)
    return {"op": spec, "index_set": spec["index_set"], "x": x,
            "horizon": rng.randint(20, 100), "norm": rng.choice(NORMS),
            "spot_seed": rng.randrange(2 ** 30)}


def _coarse(rng: random.Random, label: str) -> dict:
    req = _orbit(rng, label)
    m = rng.randint(0, req["horizon"])
    z = Operator(req["op"]).power(m, req["x"])
    d = Fraction(rng.choice((1, 2, 4)), 2)
    if z and rng.random() < 0.5:
        d *= max(1, round(_max_abs_re(z)))
    if rng.random() < 0.2:
        y = _sparse(rng, -8 if req["index_set"] == "Z" else 0, 8, 2, 0.0)
        y = {i: (v[0] * 1000, v[1]) for i, v in y.items()}
    else:
        rho = Fraction(rng.choice((0, 1, 4, 9, 20, 100)), 10)
        support = sorted(set(z) | {rng.randint(0, 8)})
        y = dict(z)
        for i in support:
            e = d * rho / len(support) * Fraction(rng.randint(-100, 100), 100)
            re, im = y.get(i, (Fraction(0), Fraction(0)))
            y[i] = (re + e, im)
    req.update({"d": d,
                "y": {i: v for i, v in y.items() if v != (0, 0)},
                "horizon": min(100, m + rng.randint(0, 20))})
    return req


def _cone(rng: random.Random, p: str, member: bool, min_delta_exp: int) -> dict:
    c = _sparse(rng, -4, 4, rng.randint(2, 4), 0.0)
    window = range(min(c) - 1, max(c) + 2)
    r = Fraction(rng.randint(20, 90), 100) * _max_abs_re(c)
    req = {"index_set": "Z", "norm": p, "center": c, "radius": r}
    g = {i: (Fraction(rng.randint(-100, 100), 100), Fraction(0)) for i in window}
    g = {i: v for i, v in g.items() if v[0]} or {min(c): (Fraction(1), Fraction(0))}
    if member:
        delta = Fraction(1, 10 ** rng.randint(1, min_delta_exp))
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        t = r * (1 - delta) / _norm_upper(g, p)
        u = {i: (re * t, im) for i, (re, im) in g.items()}
        cu = dict(c)
        for i, (re, _) in u.items():
            cu[i] = (cu.get(i, (Fraction(0), Fraction(0)))[0] + re, Fraction(0))
        x = {i: (re * lam, Fraction(0)) for i, (re, _) in cu.items() if re}
        req.update({"x": x, "lam": lam, "delta": delta, "proof": "known-lambda"})
    elif rng.random() < 0.5:
        s = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        t = Fraction(9, 10) * _max_abs_re(c) / _norm_upper(g, p)
        cv = dict(c)
        for i, (re, _) in g.items():
            cv[i] = (cv.get(i, (Fraction(0), Fraction(0)))[0] + re * t, Fraction(0))
        x = {i: (-re * s, Fraction(0)) for i, (re, _) in cv.items() if re}
        req.update({"x": x, "scale": s, "proof": "negated-center"})
    else:
        x = _sparse(rng, max(c) + 1, max(c) + 8, rng.randint(1, 3), 0.0)
        req.update({"x": x, "proof": "disjoint-support"})
    return req


def block(seed: int, b: int) -> list[dict]:
    """The b-th block of twelve requests of the stream for this seed."""
    rng = random.Random(f"orbit-cone:{seed}:{b}")
    out = []
    for mode, kind in BLOCK:
        label = f"req-{b}-{len(out)}"
        if kind == "orbit":
            req = _orbit(rng, label)
        elif kind == "coarse":
            req = _coarse(rng, label)
        elif kind == "cone-non":
            req = _cone(rng, NORMS[b % 3], False, 0)
        else:
            req = _cone(rng, kind[len("cone-"):], True, 30 if mode == "exact" else 4)
        req.update({"kind": kind.split("-")[0], "mode": mode})
        out.append(req)
    rng.shuffle(out)
    return out


def requests(seed: int, blocks: int) -> list[dict]:
    return [req for b in range(blocks) for req in block(seed, b)]
