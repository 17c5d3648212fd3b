"""Print the evidence that a change keeps orbitscope's answers: the seed-0
bundle digests, the src/ size and mode-branch counts, a hash over every
answer of perfbench's orbit-cone stream, and the bundle hash of each of
its certify streams.

    python3 tools/identity.py [--root DIR] [--seed S ...]

It imports orbitscope from DIR/src and the workloads from
DIR/perfbench/workloads.py (read, never written), DIR being this checkout
by default, so two checkouts compare by running the tool once on each.  The
output is one JSON object:

* ``bundle``: for each mode, the sha256 of ``bundle_digest`` of
  ``certify all`` at seed 0 with the default sizes, and the verdicts.
* ``src_lines``: ``wc -l src/orbitscope/*.py``.
* ``mode_branch_lines``: lines of src/orbitscope/*.py that test the numeric
  mode or a scalar's type (ROADMAP item 5's count).
* ``orbit_cone``: for each ``--seed``, one sha256 over every answer of
  perfbench's orbit-cone workload at the benchmark's run length
  (BENCHMARK.json's ``run_seconds``), its calls built and run by the
  workload itself.  An answer is hashed as each orbit point's sorted
  entries and each norm's type and repr, each coarse witness's time,
  distance type and repr and bound, each cone verdict, or the type and
  message of the error raised.
* ``certify``: for each ``--seed`` and each of the certify-exact and
  certify-float workloads, the ``bundle_digest_sha256`` its check gives
  over the bundles of its command stream at the same run length, without
  the oracle, how many commands the stream holds, and how many of them
  failed (a verdict other than PASS, or a non-zero exit).  The bundles are
  written to a temporary directory.

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

MODE_BRANCH = re.compile(r"Mode\.(EXACT|FLOAT64)|isinstance\([^)]*\b(QC|Fraction|complex|float)\b")


def source_counts(root: Path) -> dict:
    files = sorted((root / "src" / "orbitscope").glob("*.py"))
    lines = [line for f in files for line in f.read_text().splitlines()]
    return {"src_lines": len(lines),
            "mode_branch_lines": sum(bool(MODE_BRANCH.search(line)) for line in lines)}


def bundle(mode_name: str) -> dict:
    from orbitscope.certificates import bundle_digest, run_all, write_bundle
    from orbitscope.numeric import Mode

    reports = run_all(seed=0, mode=Mode(mode_name))
    with tempfile.TemporaryDirectory() as tmp:
        digest = bundle_digest(write_bundle(reports, Path(tmp) / "bundle"))
    return {"sha256": hashlib.sha256(digest.encode()).hexdigest(),
            "verdicts": sorted({r.verdict for r in reports})}


def _answer(kind: str, out) -> str:
    if isinstance(out, Exception):
        return f"error {type(out).__name__}: {out}"
    if kind == "orbit":
        return repr([(p.items(), type(v).__name__, repr(v))
                     for p, v in zip(out.points, out.norms)])
    if kind == "coarse":
        if out is None:
            return "None"
        d = out.achieved_distance
        return repr((out.time, type(d).__name__, repr(d), repr(out.bound)))
    return repr(out)


def orbit_cone(root: Path, seed: int) -> dict:
    """The sha256 of one line per answer of perfbench's orbit-cone workload
    at the benchmark's run length, its calls made by the workload itself."""
    import workloads

    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    work = workloads.OrbitCone(seed, seconds)
    answers = work.run(workloads.Clock(None))["answers"]
    digest = hashlib.sha256()
    for count, ((kind, _), out) in enumerate(zip(work.calls, answers)):
        digest.update(f"{count} {kind} {_answer(kind, out)}\n".encode())
    return {"sha256": digest.hexdigest(), "requests": len(answers)}


def certify(root: Path, seed: int, mode: str) -> dict:
    """The bundle hash of perfbench's certify stream in mode at the
    benchmark's run length, its commands built and run by the workload."""
    import workloads

    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT = Path(tmp)
        work = workloads.Certify(seed, mode, seconds)
        with contextlib.redirect_stdout(io.StringIO()):
            timed = work.run(workloads.Clock(None))
        checked = work.check(timed, run_oracle=False)
    return {"sha256": checked["bundle_digest_sha256"], "commands": len(work.argvs),
            "failures": len(checked["failures"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to read (default: this one)")
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="orbit-cone and certify stream seed (repeatable)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.set_int_max_str_digits(0)  # exact entries may be long
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    out = {"bundle": {mode: bundle(mode) for mode in ("exact", "float")},
           **source_counts(root)}
    out["orbit_cone"] = {str(s): orbit_cone(root, s) for s in args.seed}
    out["certify"] = {str(s): {f"certify-{mode}": certify(root, s, mode)
                               for mode in ("exact", "float")} for s in args.seed}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
