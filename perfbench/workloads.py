"""One workload run in a fresh interpreter; prints its result as one JSON line.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--no-oracle]

The process imports orbitscope from the checkout's src/, builds the
workload's inputs, reports the monotonic time at which the timed phase
starts (run.py turns it into setup time), times the reference
computation of reference.py, runs the timed phase with the reference
sampled throughout (untraced runs only), reads its peak resident memory,
and only then runs the oracle.  With --trace the timed phase runs under
spans.Tracer and the spans are written to the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import reference  # noqa: E402
import stream  # noqa: E402

WORKLOADS = ("certify-exact", "certify-float", "orbit-cone")
# orbit-cone stream length: blocks of twelve requests per second of --seconds
BLOCKS_PER_SECOND = 9
# certify stream length: `certify all` commands per second of --seconds
COMMANDS_PER_SECOND = {"exact": 1, "float": 1.5}
# certificate sizes of one certify command (config "certificates" overrides)
CERTIFY_SIZES = {
    "prop32": {"sample_count": 2, "forced_sample_count": 1, "orbit_check_horizon": 200},
    "riesz-blocks": {"sample_count": 10},
    "prop36-expansion": {"target_count": 2, "stagnation_window": 100},
    "prop36-contraction": {"target_count": 10, "outside_count": 3},
    "prop21": {"sample_count": 2, "visit_times": [30, 300, 1000],
               "count_ladder": [100, 300, 1000]},
}
# reference calls timed right after set-up, to scale the set-up time
SETUP_REFS = 30
# the float policy: iterated float steps agree with exact ones to this share
FLOAT_ORBIT_REL = 1e-9


def _import_program():
    import orbitscope
    from orbitscope import certificates, cli, orbits, spaces

    src = Path(orbitscope.__file__).resolve().parent
    if src != ROOT / "src" / "orbitscope":
        raise RuntimeError(f"orbitscope imported from {src}, not from this checkout")
    return certificates, cli, orbits, spaces


# -- certify ---------------------------------------------------------------


class Certify:
    """A stream of `certify all` commands with scaled-down sample sizes.

    One full-size `certify all` takes 15-58 s and varies with its seed, so
    a run instead makes COMMANDS_PER_SECOND[mode] * --seconds commands,
    each with its own seed drawn from --seed and the sizes of
    CERTIFY_SIZES, passed through the command's config file.  Every
    certificate and every layer it calls still runs in each command.
    """

    def __init__(self, seed: int, mode: str, seconds: int):
        self.certificates, self.cli, _, _ = _import_program()
        self.mode = mode
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"certify-{mode}-", dir=OUT))
        config = self.tmp / "config.json"
        config.write_text(json.dumps({"certificates": CERTIFY_SIZES}))
        rng = random.Random(f"certify:{seed}")
        self.argvs = []
        for i in range(max(1, round(seconds * COMMANDS_PER_SECOND[mode]))):
            self.argvs.append(["--config", str(config), "--seed", str(rng.randrange(2 ** 31)),
                               "--mode", mode, "certify", "all",
                               "--out", str(self.tmp / f"bundle-{i}")])
            self.cli.build_parser().parse_args(self.argvs[-1])
        self.cli.load_config(str(config))

    def run(self, clock: "Clock") -> dict:
        statuses = []
        for argv in self.argvs:
            clock.start()
            with contextlib.redirect_stderr(io.StringIO()):  # per-certificate lines
                statuses.append(self.cli.main(argv))
            clock.stop()
        return {"statuses": statuses}

    def check(self, timed: dict, run_oracle: bool) -> dict:
        failures = []
        digests = hashlib.sha256()
        attempted = witnesses = 0
        for argv, status in zip(self.argvs, timed["statuses"]):
            bundle = Path(argv[-1])
            reports = {}
            for path in sorted(bundle.glob("*.json")):
                if path.name != "index.json":
                    reports[path.stem] = json.loads(path.read_text())
            digests.update(self.certificates.bundle_digest(bundle).encode() + b"\n")
            attempted += len(reports)
            cmd_failures = []
            for name, report in reports.items():
                op = f"seed {argv[3]} {name}"
                if report["verdict"] != "PASS":
                    cmd_failures.append({"op": op, "class": "unexpected",
                                         "why": f"verdict {report['verdict']}"})
                    continue
                if run_oracle:
                    checked, problems = oracle.check_report(report)
                    witnesses += checked
                    if problems:
                        cls = "3i-float-witness" if report["numeric_mode"] == "float" \
                            else "unexpected"
                        cmd_failures.append({"op": op, "class": cls, "why": problems[0],
                                             "witnesses_rejected": len(problems)})
            if status != 0 and not cmd_failures:
                cmd_failures.append({"op": f"seed {argv[3]} certify", "class": "unexpected",
                                     "why": f"exit status {status}"})
            failures.extend(cmd_failures)
        shutil.rmtree(self.tmp, ignore_errors=True)
        return {
            "attempted": max(1, attempted),
            "failures": failures,
            "bundle_digest_sha256": digests.hexdigest(),
            "witnesses_checked": witnesses,
        }


# -- orbit-cone ------------------------------------------------------------


class OrbitCone:
    def __init__(self, seed: int, seconds: int):
        from orbitscope.numeric import Mode
        from orbitscope.operators import shift_from_jsonable
        from orbitscope.spaces import IndexSet, NormTag, OpenCone, SeqVector

        _, _, self.orbits, self.spaces = _import_program()
        self.requests = stream.requests(seed, max(1, seconds * BLOCKS_PER_SECOND))
        self.calls = []
        for req in self.requests:
            mode = Mode.EXACT if req["mode"] == "exact" else Mode.FLOAT64
            index_set = IndexSet(req["index_set"])
            norm = NormTag(req["norm"])

            def vec(entries):
                return SeqVector.from_entries(index_set, entries, mode)

            if req["kind"] == "cone":
                args = (OpenCone(vec(req["center"]), req["radius"], norm), vec(req["x"]))
            else:
                T = shift_from_jsonable(req["op"])
                if req["kind"] == "orbit":
                    args = (T, vec(req["x"]), req["horizon"], norm)
                else:
                    args = (T, vec(req["x"]), req["d"], vec(req["y"]), req["horizon"], norm)
            self.calls.append((req["kind"], args))

    def run(self, clock: "Clock") -> dict:
        orbits, spaces = self.orbits, self.spaces
        answers = []
        for (kind, args), req in zip(self.calls, self.requests):
            clock.start()
            try:
                if kind == "orbit":
                    out = orbits.orbit(*args, spot_checks=3, seed=req["spot_seed"])
                elif kind == "coarse":
                    out = orbits.coarse_orbit_contains(*args)
                else:
                    out = spaces.cone_contains(*args)
            except Exception as exc:  # every raised error is an answer to judge
                out = exc
            clock.stop()
            answers.append(out)
        return {"answers": answers}

    def check(self, timed: dict, run_oracle: bool) -> dict:
        failures = []
        if run_oracle:
            for i, ((kind, args), req, out) in enumerate(
                    zip(self.calls, self.requests, timed["answers"])):
                cls, why = _judge(kind, args, req, out)
                if cls:
                    failures.append({"op": f"{i}:{req['mode']}-{kind}-{req['norm']}",
                                     "class": cls, "why": why})
        return {"attempted": len(self.requests), "failures": failures}


def _judge(kind: str, args: tuple, req: dict, out) -> tuple[str | None, str]:
    """(failure class or None, reason) for one orbit-cone answer."""
    floats = req["mode"] == "float"
    if isinstance(out, Exception):
        name = type(out).__name__
        if floats and name == "VerificationFailed":
            cls = "3ii-float-orbit-check" if kind == "orbit" else "3i-float-witness"
            return cls, f"{name}: {out}"
        return "unexpected", f"{name}: {out}"
    if kind == "cone":
        return _judge_cone(args, req, out)
    T = oracle.Operator(req["op"])
    x = oracle.vector_from_program(args[1])
    if kind == "orbit":
        if len(out.points) != req["horizon"] + 1:
            return "unexpected", f"{len(out.points)} orbit points for horizon {req['horizon']}"
        v = x
        for n, point in enumerate(out.points):
            got = oracle.vector_from_program(point)
            if floats and not oracle.approx_equal(got, v, FLOAT_ORBIT_REL):
                return "unexpected", f"float orbit point {n} off the exact orbit"
            if not floats and got != v:
                return "unexpected", f"orbit point {n} differs from the exact orbit"
            v = T.step(v)
        return None, ""
    y = oracle.vector_from_program(args[3])
    d, horizon, p = req["d"], req["horizon"], req["norm"]
    if out is None:
        if floats:  # "none up to the horizon" under the float policy
            return None, ""
        v = x
        for n in range(horizon + 1):
            if oracle.norm_lt(oracle.sub(v, y), p, d):
                return "unexpected", f"exact search missed n={n}"
            v = T.step(v)
        return None, ""
    if not 0 <= out.time <= horizon:
        return "unexpected", f"witness time {out.time} outside 0..{horizon}"
    v = x
    for n in range(out.time):
        if not floats and oracle.norm_lt(oracle.sub(v, y), p, d):
            return "unexpected", f"exact search skipped n={n}"
        v = T.step(v)
    if oracle.norm_lt(oracle.sub(v, y), p, d):
        return None, ""
    cls = "3i-float-witness" if floats else "unexpected"
    return cls, f"witness at n={out.time} misses the bound exactly"


def _judge_cone(args: tuple, req: dict, out) -> tuple[str | None, str]:
    cone, xv = args
    p = req["norm"]
    c = oracle.vector_from_program(cone.center)
    r = oracle.rational(cone.radius_value())
    x = oracle.vector_from_program(xv)
    # the construction's proof, re-checked on the values orbitscope received
    if req["proof"] == "known-lambda":
        truth = oracle.norm_lt(oracle.sub(oracle.scale(x, 1 / req["lam"]), c), p, r)
        proved = truth
    elif req["proof"] == "negated-center":
        v = oracle.sub(oracle.scale(x, -1 / req["scale"]), c)
        proved = not oracle.norm_le(c, p, r) and \
            oracle.real_norm_key(v, p) <= oracle.real_norm_key(c, p)
        truth = False
    else:
        proved = not set(x) & set(c) and not oracle.norm_le(c, p, r)
        truth = False
    if not proved:
        raise RuntimeError(f"benchmark input lost its membership proof: {req['proof']}")
    if bool(out) == truth:
        return None, ""
    if truth:
        return "5-cone-one-sided", f"member at margin {float(req['delta']):.0e} reported outside"
    return "unexpected", "non-member reported inside"


# -- main --------------------------------------------------------------------


class Clock:
    """Times each request; with a Sampler, also net of its handler at nominal speed."""

    def __init__(self, sampler: reference.Sampler | None):
        self.sampler = sampler
        self.rows: list[tuple[float, float, float]] = []  # start, end, request time

    def start(self) -> None:
        self.spent = self.sampler.spent if self.sampler else 0.0
        self.t = time.perf_counter()

    def stop(self) -> None:
        end = time.perf_counter()
        handler = self.sampler.spent - self.spent if self.sampler else 0.0
        self.rows.append((self.t, end, end - self.t - handler))

    def result(self) -> dict:
        raw = [r for _, _, r in self.rows]
        out = {"wall_s": sum(raw), "latencies_s": raw}
        if self.sampler:
            nominal = [self.sampler.nominal(*row) for row in self.rows]
            out.update({"nominal_wall_s": sum(nominal), "nominal_latencies_s": nominal,
                        "reference_s": statistics.fmean(self.sampler.ref),
                        "reference_samples": len(self.sampler.ref)})
        return out



def build(workload: str, seed: int, seconds: int):
    if workload == "orbit-cone":
        return OrbitCone(seed, seconds)
    return Certify(seed, workload.split("-")[1], seconds)


def traced_metrics(tracer, wall_s: float) -> dict:
    from spans import LAYERS

    per = tracer.summary()

    def total(name):
        return per.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    def layer_self(layer):
        return sum(row["self_s"] for name, row in per.items()
                   if name.split(".")[0] == layer)

    search = {"limit_sets.search_j_witness", "limit_sets.jmix_witness"}
    synth = {"limit_sets.synthesize_shift_j_witness"}
    found = sum(per.get(n, {}).get("ok", 0) for n in search | synth)
    tries = sum(calls(n) for n in search | synth)
    m = {"traced_wall_s": wall_s}
    for cert in ("prop32", "riesz_blocks", "prop36_expansion", "prop21",
                 "prop36_contraction", "write_bundle"):
        m[f"certificates.{cert}_s"] = total(f"certificates.{cert}")
    m.update({
        "limit_sets.search_calls": sum(calls(n) for n in search),
        "limit_sets.search_s": tracer.group_total(search),
        "limit_sets.synth_calls": sum(calls(n) for n in synth),
        "limit_sets.synth_s": tracer.group_total(synth),
        "limit_sets.verify_s": tracer.group_total(
            {"limit_sets.JWitness.verify", "limit_sets.DWitness.verify"}),
        "limit_sets.power_applications":
            tracer.calls_via.get(("operators.apply_power", "limit_sets"), [0])[0],
        "limit_sets.found_ratio": found / tries if tries else 0.0,
    })
    for fn in ("apply_power", "weight_product", "apply"):
        m[f"operators.{fn}_calls"] = calls(f"operators.{fn}")
        m[f"operators.{fn}_s"] = total(f"operators.{fn}")
    m.update({
        "spaces.norm_lt_calls": calls("spaces.norm_lt"),
        "spaces.norm_lt_s": total("spaces.norm_lt"),
        "spaces.norm_s": total("spaces.norm"),
        "spaces.cone_contains_calls": sum(calls(f"spaces.cone_contains[{p}]")
                                          for p in stream.NORMS),
    })
    for p in stream.NORMS:
        m[f"spaces.cone_contains_{p}_s"] = total(f"spaces.cone_contains[{p}]")
    m.update({
        "orbits.orbit_s": total("orbits.orbit"),
        "orbits.coarse_orbit_contains_s": total("orbits.coarse_orbit_contains"),
        "numeric.qc_ops": tracer.qc_ops,
        "numeric.qc_s": tracer.qc_s(),
        "numeric.log2_abs_calls": tracer.counts["numeric.log2_abs"][0],
        "numeric.sum_sqrt_cmp_calls": tracer.counts["numeric.sum_sqrt_cmp"][0],
        "spans": len(tracer.span_name),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-oracle", action="store_true")
    args = ap.parse_args(argv)

    work = build(args.workload, args.seed, args.seconds)
    t_ready = time.monotonic()
    setup_ref_s = statistics.fmean(reference.timed() for _ in range(SETUP_REFS))
    if args.setup_only:
        if isinstance(work, Certify):
            shutil.rmtree(work.tmp, ignore_errors=True)
        print(json.dumps({"t_ready": t_ready, "setup_ref_s": setup_ref_s}))
        return 0
    tracer = None
    if args.trace:  # the sampler's handler would land inside the spans
        from spans import Tracer
        tracer = Tracer().install()
        clock = Clock(None)
    else:
        clock = Clock(reference.Sampler())
    try:
        with clock.sampler or contextlib.nullcontext():
            timed = work.run(clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed.update(clock.result())
    result = {"t_ready": t_ready, "setup_ref_s": setup_ref_s, "peak_rss_mb": peak_rss_mb,
              **{k: v for k, v in timed.items() if k not in ("statuses", "answers")}}
    if tracer is not None:
        result["layers"] = traced_metrics(tracer, timed["wall_s"])
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.bin"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(work.check(timed, not args.no_oracle))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
