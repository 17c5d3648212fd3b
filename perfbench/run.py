"""orbitscope benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {certify-exact,certify-float,orbit-cone}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; orbitscope is imported from its src/.
Every workload runs in fresh single-threaded interpreters started by
this script (see workloads.py).  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer ones of a traced run, plus the tracing
overhead against an untraced run of the same inputs.  Every end-to-end
time is scaled to nominal host speed with the reference computation of
reference.py.  Lines before the result give the environment, the raw
times and the scale factor, the bundle digest hash, the failure
breakdown and which percentile request_tail_ms is.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-exact", "certify-float", "orbit-cone")
SETUP_SAMPLES = 10     # cold set-ups per run, besides the measured run's own
DEADLINE_S = 170       # the whole run, every child included
# failure classes that are known open defects; anything else is a wrong answer
KNOWN_DEFECTS = ("3i-float-witness", "3ii-float-orbit-check", "5-cone-one-sided")
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50)


class BenchError(Exception):
    pass


def _child(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict]:
    """Run workloads.py once; (monotonic spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"workload process exited with {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least ten requests beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return f"p{p:g}", statistics.quantiles(latencies, n=1000, method="inclusive")[
                round(p * 10) - 1]
    return "p100", max(latencies)


def _environment(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orbitscope").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "src_sha256": sources.hexdigest(),
            "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "mode": {"certify-exact": "exact", "certify-float": "float"}.get(
                args.workload, "exact+float")}


def _breakdown(failures: list[dict], attempted: int) -> dict:
    classes: dict[str, int] = {}
    for f in failures:
        classes[f["class"]] = classes.get(f["class"], 0) + 1
    return {"failed_ratio": len(failures) / attempted, "attempted": attempted,
            "by_class": {c: {"count": k, "share": k / attempted}
                         for c, k in sorted(classes.items())},
            "examples": failures[:3]}


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _environment(args)
    print(json.dumps({"environment": env}))
    if args.trace:
        _, plain = _child(args, deadline, "--no-oracle")
        _, res = _child(args, deadline, "--trace")
        metrics = res["layers"]
        metrics["tracing_overhead_s"] = res["wall_s"] - plain["wall_s"]
        if res.get("bundle_digest_sha256") != plain.get("bundle_digest_sha256"):
            res["failures"].append({"op": "certify", "class": "unexpected",
                                    "why": "traced and untraced bundles differ"})
        print(json.dumps({"spans_file": res["spans_file"],
                          "untraced_wall_s": plain["wall_s"]}))
    else:
        setups, raw_setups = [], []
        for i in range(SETUP_SAMPLES + 1):  # the last is the measured run
            t_spawn, res = _child(args, deadline,
                                  *(["--setup-only"] if i < SETUP_SAMPLES else []))
            raw_setups.append(res["t_ready"] - t_spawn)
            setups.append(raw_setups[-1] * reference.NOMINAL_S / res["setup_ref_s"])
        # every time below is stated at nominal host speed; see reference.py
        lat, wall = res["nominal_latencies_s"], res["nominal_wall_s"]
        tail_name, tail = _tail(lat)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "requests_per_s": len(lat) / wall,
            "request_p50_ms": statistics.median(lat) * 1000,
            "request_tail_ms": tail * 1000,
        }
        print(json.dumps({"requests": len(lat), "request_tail_percentile": tail_name,
                          "setup_samples_s": setups}))
        print(json.dumps({"raw": {
            "wall_s": res["wall_s"], "setup_s": statistics.median(raw_setups),
            "request_p50_ms": statistics.median(res["latencies_s"]) * 1000},
            "reference_ms": res["reference_s"] * 1000,
            "reference_samples": res["reference_samples"]}))
        if args.workload != "orbit-cone":
            print(json.dumps({"witnesses_checked": res["witnesses_checked"]}))
    attempted, failures = res["attempted"], res["failures"]
    if "bundle_digest_sha256" in res:
        print(json.dumps({"bundle_digest_sha256": res["bundle_digest_sha256"]}))
    breakdown = _breakdown(failures, attempted)
    print(json.dumps({"failures": breakdown}))
    if args.trace:
        metrics["failed_ratio"] = breakdown["failed_ratio"]
    return {"correct": all(f["class"] in KNOWN_DEFECTS for f in failures),
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "orbitscope" / "__init__.py").is_file():
        sys.stderr.write(f"no orbitscope sources under {ROOT / 'src'}\n")
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "requests_per_s": "1/s",
             "request_p50_ms": "ms", "request_tail_ms": "ms"}
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name) or _layer_unit(name)}
        for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
