"""tools/identity.py on one stream seed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


@pytest.fixture(scope="module")
def identity():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"), "--seed", "1"],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_identity_hashes_the_orbit_cone_stream(identity):
    out = identity
    assert {m: b["verdicts"] for m, b in out["bundle"].items()} == \
        {"exact": ["PASS"], "float": ["PASS"]}
    assert all(len(b["sha256"]) == 64 for b in out["bundle"].values())
    lines = [line for f in sorted((ROOT / "src" / "orbitscope").glob("*.py"))
             for line in f.read_text().splitlines()]
    assert out["src_lines"] == len(lines)
    assert 0 < out["mode_branch_lines"] < len(lines)
    assert list(out["orbit_cone"]) == ["1"]
    assert out["orbit_cone"]["1"]["requests"] == 12 * 9 * SECONDS  # 12 a block, 9 blocks a second
    assert len(out["orbit_cone"]["1"]["sha256"]) == 64


def test_identity_hashes_the_certify_streams(identity):
    # 1 certify command a second in exact mode and 1.5 in float mode
    certify = identity["certify"]
    assert list(certify) == ["1"]
    assert {name: (c["commands"], c["failures"]) for name, c in certify["1"].items()} == \
        {"certify-exact": (SECONDS, 0), "certify-float": (SECONDS * 3 // 2, 0)}
    assert all(len(c["sha256"]) == 64 for c in certify["1"].values())
