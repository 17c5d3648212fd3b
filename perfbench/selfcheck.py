"""The benchmark's own test: two traced runs of one seed count the same work.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N] [--seconds S]

Runs `run.py --trace 1` twice per workload and requires every count
metric (the *_calls, numeric.qc_ops, limit_sets.power_applications,
spans) and failed_ratio to be identical, and each run's answers to be
correct.  Exits 1 and names the metric on a mismatch.  Two traced
certify-exact runs take a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-exact", "certify-float", "orbit-cone")


def traced(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        a, b = (traced(workload, args.seed, args.seconds) for _ in range(2))
        counts = sorted(name for name, m in a["metrics"].items()
                        if m["unit"] == "count" or name == "failed_ratio")
        differ = [name for name in counts
                  if a["metrics"][name]["value"] != b["metrics"][name]["value"]]
        if not (a["correct"] and b["correct"]):
            differ.append("correct")
        ok = ok and not differ
        print(f"{workload}: {len(counts)} count metrics "
              + (f"DIFFER: {', '.join(differ)}" if differ else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
