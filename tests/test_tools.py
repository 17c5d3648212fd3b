"""tools/identity.py on one orbit-cone seed."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identity_hashes_the_orbit_cone_stream():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"), "--seed", "1"],
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert {m: b["verdicts"] for m, b in out["bundle"].items()} == \
        {"exact": ["PASS"], "float": ["PASS"]}
    assert all(len(b["sha256"]) == 64 for b in out["bundle"].values())
    lines = [line for f in sorted((ROOT / "src" / "orbitscope").glob("*.py"))
             for line in f.read_text().splitlines()]
    assert out["src_lines"] == len(lines)
    assert 0 < out["mode_branch_lines"] < len(lines)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert list(out["orbit_cone"]) == ["1"]
    assert out["orbit_cone"]["1"]["requests"] == 12 * 9 * seconds  # 12 a block, 9 blocks a second
    assert len(out["orbit_cone"]["1"]["sha256"]) == 64
