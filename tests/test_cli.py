import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from orbitscope import certificates, defaults
from orbitscope.certificates import bundle_digest
from orbitscope.errors import SearchFailed
from orbitscope.cli import build_parser, main

from conftest import reject_constant


E0 = '{"index_set": "Z", "entries": [[0, "1", "0"]]}'
E0_N = '{"index_set": "N", "entries": [[0, "1", "0"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbit:
    def test_prop32_trace_has_flat_norms(self, capsys):
        code, out, _ = run(capsys, "orbit", "--x", E0, "--horizon", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12  # header + 11 rows
        for row in lines[1:]:
            assert row.split(",")[1] == "1.0"

    def test_zero_horizon_single_row(self, capsys):
        code, out, _ = run(capsys, "orbit", "--x", E0, "--horizon", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_zero_horizon_refuses_a_source_in_no_band(self, capsys, tmp_path):
        # e_7 lies in no band: the one-row trace of x was printed, exit 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"operator": {
            "shape": "block_direct_sum", "index_set": "Z", "blocks": [
                {"band": [0, 4], "kind": "backward",
                 "weights": {"kind": "constant", "value": "2"}}]}}))
        x = '{"index_set": "Z", "entries": [[1, "1", "0"], [7, "1", "0"]]}'
        code, out, err = run(capsys, "--config", str(config), "orbit", "--x", x,
                             "--horizon", "0")
        assert (code, out) == (2, "")
        assert err == "error: vector support index 7 lies in no band\n"

    @pytest.mark.parametrize("mode, vector", [
        ("exact", '{"index_set": "Z"'),
        ("exact", '{"index_set": "Z", "entries": [[0, "abc", "0"]]}'),
        ("float", '{"index_set": "Z", "entries": [[0, "1e400", "0"]]}'),
        ("float", '{"index_set": "Z", "entries": [[0, "1e-400", "0"]]}'),
        ("exact", '{"index_set": "Z", "entries": [[0.5, "1", "0"]]}'),
        ("exact", '{"index_set": "Z", "entries": [[true, "1", "0"]]}'),
        ("exact", '{"index_set": "Z", "entries": [[0, "1", "0"], [0, "2", "0"]]}'),
    ], ids=["truncated", "entry-not-a-number", "float-entry-overflows",
            "float-entry-underflows", "index-fraction", "index-bool", "index-twice"])
    def test_malformed_vector_json(self, capsys, mode, vector):
        code, _, err = run(capsys, "--mode", mode, "orbit", "--x", vector, "--horizon", "1")
        assert code == 2
        assert "vector" in err or "config" in err

    @pytest.mark.parametrize("weight", [3, "1/3", "7/5"])
    def test_float_orbit_passes_its_spot_check(self, capsys, tmp_path, weight):
        # iterated float steps and the closed-form power differ in the last
        # bits by n = 54; the spot check holds them to 1e-9 relative
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"numeric_mode": "float", "operator": {
            "shape": "bilateral_backward", "index_set": "Z",
            "weights": {"kind": "constant", "value": weight}}}))
        code, out, err = run(capsys, "--config", str(config), "orbit", "--x", E0,
                             "--horizon", "60")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 62

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "orbit", "--x", E0, "--horizon", "3",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("n,norm")


class TestWitness:
    def test_j_witness_found(self, capsys):
        y = '{"index_set": "Z", "entries": [[2, "3", "0"]]}'
        code, out, _ = run(capsys, "witness", "--kind", "j", "--x", E0,
                           "--y", y, "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["bound"] == "2"

    def test_coarse_not_found(self, capsys):
        y = '{"index_set": "Z", "entries": [[0, "5", "0"]]}'
        code, out, _ = run(capsys, "witness", "--kind", "coarse", "--x", E0,
                           "--y", y, "--d", "1/2")
        assert code == 3
        payload = json.loads(out)
        assert payload["found"] is False

    def test_negative_bound_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--kind", "coarse", "--x", E0,
                           "--y", E0, "--d", "-1")
        assert code == 2

    def test_jmix_from_config_operator(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "operator": {"shape": "bilateral_backward", "index_set": "Z",
                         "weights": {"kind": "constant", "value": "2"}},
            "budget": 50000}))
        y = '{"index_set": "Z", "entries": [[0, "4", "0"]]}'
        zero = '{"index_set": "Z", "entries": []}'
        code, out, _ = run(capsys, "--config", str(config), "witness",
                           "--kind", "jmix", "--x", zero, "--y", y, "--d", "1")
        assert code == 0
        assert json.loads(out)["witness"]["mix"] is True

    def test_failure_payload_is_standard_json(self, capsys):
        # the tail proof fires at k = 1, before any attempt reached a
        # residual: that is null, never the non-standard token Infinity
        y = '{"index_set": "Z", "entries": [[0, "5", "0"]]}'
        code, out, _ = run(capsys, "witness", "--kind", "j", "--x", E0,
                           "--y", y, "--d", "1/4")
        assert code == 3
        diagnostics = json.loads(out, parse_constant=reject_constant)["diagnostics"]
        assert diagnostics["reason"] == "tail-bound"
        assert diagnostics["best_residual"] is None
        assert diagnostics["best_delta_norm"] is None

    def test_y_over_the_other_index_set_is_refused(self, capsys):
        # the search printed a tail-bound proof at coordinate -1 and exited 3
        y = '{"index_set": "N", "entries": [[0, "100", "0"]]}'
        code, out, err = run(capsys, "witness", "--kind", "j", "--x", E0, "--y", y,
                             "--d", "1/4")
        assert (code, out) == (2, "")
        assert err == "error: cannot combine vectors over N and Z\n"

    def test_j_not_found_under_halving_shift(self, capsys, tmp_path):
        # a halving shift pulls every image of the unit ball around 0 to 0,
        # so e_0 stays out of reach, proved from the first time on in
        # both modes
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "operator": {"shape": "unilateral_backward", "index_set": "N",
                         "weights": {"kind": "constant", "value": "1/2"}}}))
        zero = '{"index_set": "N", "entries": []}'
        for mode in ("exact", "float"):
            code, out, _ = run(capsys, "--config", str(config), "--mode", mode,
                               "witness", "--kind", "j", "--x", zero, "--y", E0_N,
                               "--d", "1/4")
            assert code == 3
            payload = json.loads(out)
            assert payload["found"] is False
            assert payload["diagnostics"]["reason"] == "decay-bound"
            assert payload["diagnostics"]["proof"] == {
                "k0": 1, "eps": "1/5",
                "inequality": "S^k*(||x|| + eps) <= ||y|| - d with S^2 = 1/4, "
                              "||x|| <= 0, ||y|| >= 1, d = 1/4"}

    @pytest.mark.parametrize("kind", ["j", "jmix"])
    def test_a_block_sum_with_no_blocks_proves_a_far_target_out(self, capsys, tmp_path,
                                                               kind):
        # both searches raised "ValueError: max() arg is an empty sequence":
        # S^2 and I^2 over no weights now read 0, so T^k z = 0 stays 5 from y
        code, out, _ = self.run_on_no_blocks(capsys, tmp_path, kind, "5")
        assert code == 3
        assert json.loads(out)["diagnostics"]["reason"] == "decay-bound"
        assert json.loads(out)["diagnostics"]["proof"]["k0"] == 1

    @pytest.mark.parametrize("kind", ["j", "jmix"])
    def test_a_block_sum_with_no_blocks_witnesses_a_near_target(self, capsys, tmp_path,
                                                                kind):
        # raised the same ValueError; T^k z = 0 lies within 1 of y = e_0 / 2
        code, out, _ = self.run_on_no_blocks(capsys, tmp_path, kind, "1/2")
        assert code == 0
        assert json.loads(out)["found"] is True

    @staticmethod
    def run_on_no_blocks(capsys, tmp_path, kind, y0):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"operator": {
            "shape": "block_direct_sum", "index_set": "Z", "blocks": []}}))
        y = json.dumps({"index_set": "Z", "entries": [[0, y0, "0"]]})
        return run(capsys, "--config", str(config), "witness", "--kind", kind,
                   "--x", '{"index_set": "Z", "entries": []}', "--y", y, "--d", "1")


FAST_CERTS = {
    "prop32": {"sample_count": 5, "orbit_check_horizon": 100,
               "forced_sample_count": 2},
    "prop36-contraction": {"target_count": 10, "outside_count": 4},
    "prop36-expansion": {"target_count": 5},
    "riesz-blocks": {"sample_count": 12,
                     "lambda_ladder_exponents": [1, 2, 3, 4]},
    "prop21": {"sample_count": 4},
}


class TestCertify:
    def write_config(self, tmp_path, extra=None):
        cfg = {"seed": 7, "certificates": FAST_CERTS}
        if extra:
            cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_selected_pass(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, _, err = run(capsys, "--config", str(cfg), "certify",
                           "prop15", "prop22", "--out", str(tmp_path / "b"))
        assert code == 0
        assert "prop15: PASS" in err
        index = json.loads((tmp_path / "b" / "index.json").read_text())
        assert index["exit_status"] == 0

    def test_failure_exit_code(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"certificates": {"prop32": dict(FAST_CERTS["prop32"], d="1/2")}})
        code, _, _ = run(capsys, "--config", str(cfg), "certify", "prop32",
                         "--out", str(tmp_path / "b"))
        assert code == 5

    def test_indecisive_exit_code(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, {"certificates": {"prop36-contraction": {"weight": 2}}})
        code, _, _ = run(capsys, "--config", str(cfg), "certify",
                         "prop36-contraction", "--out", str(tmp_path / "b"))
        assert code == 4

    @pytest.mark.parametrize("params", [{"contract_weight": 3}, {"expand_weight": "1/3"}],
                             ids=["no-contracting-block", "no-expanding-block"])
    def test_riesz_without_both_kinds_of_block_is_indecisive(self, capsys, tmp_path,
                                                             params):
        # both blocks expand, or both contract: there is nothing to split, as
        # prop36 has no contraction when |weight| >= 1
        cfg = self.write_config(tmp_path, {"certificates": {"riesz-blocks": dict(
            params, sample_count=1)}})
        code, _, _ = run(capsys, "--config", str(cfg), "certify", "riesz-blocks",
                         "--out", str(tmp_path / "b"))
        assert code == 4
        report = json.loads((tmp_path / "b" / "riesz-blocks.json").read_text())
        assert [(s["name"], s["status"]) for s in report["sub_checks"]] == \
            [("block-classification", "INDECISIVE")]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_weight_past_double_range_answers(self, capsys, tmp_path, mode):
        # 10^400 is exact in exact mode; the float carrier refuses each
        # power of it past 2^900, and answers as it does for 2^950: its
        # searches stop without a proof, which refutes nothing
        codes, estimates = [], []
        for weight in ("1" + "0" * 400, str(2 ** 950)):
            cfg = self.write_config(tmp_path, {"certificates": {"riesz-blocks": {
                "expand_weight": weight, "sample_count": 1}}})
            out = tmp_path / f"b{len(codes)}"
            code, _, _ = run(capsys, "--config", str(cfg), "--mode", mode, "certify",
                             "riesz-blocks", "--out", str(out))
            report = json.loads((out / "riesz-blocks.json").read_text(),
                                parse_constant=reject_constant)
            codes.append(code)
            estimates.append(report["sub_checks"][0]["details"]["estimates"][1][1])
        assert codes == ([0, 0] if mode == "exact" else [4, 4])
        assert estimates == [None, 2.0 ** 950]  # the radius 10^400 is past a double

    def test_unknown_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "certify", "prop99",
                           "--out", str(tmp_path / "b"))
        assert code == 2
        assert "unknown certificate" in err

    WITNESS = ("witness", "--kind", "coarse", "--x", E0, "--y", E0, "--d", "1")

    @pytest.mark.parametrize("config, command", [
        ({"seeed": 1}, ("certify", "prop15")),
        ({"operator": {"shape": "block_direct_sum", "index_set": "Z",
                       "blocks": [{"kind": "backward"}]}}, WITNESS),
        ({"horizon": "ten"}, WITNESS),
        ({"certificates": ["prop15"]}, ("certify", "prop15")),
        ({"out_dir": 5}, ("certify", "prop15")),
        ({"certificates": {"prop15": {"mix_length": "x"}}}, ("certify", "prop15")),
        ({"certificates": {"prop21": {"visit_times": 30}}}, ("certify", "prop21")),
        ({"certificates": {"prop21": {"count_ladder": [100, "y"]}}},
         ("certify", "prop21")),
        ({"horizon": True}, WITNESS),
        ({"certificates": {"prop32": {"sample_count": "x"}}}, ("certify", "prop32")),
        ({"certificates": {"prop32": {"sample_count": 2.5}}}, ("certify", "prop32")),
        ({"certificates": {"prop32": {"d": True}}}, ("certify", "prop32")),
        ({"certificates": {"prop36-contraction": {"weight": "abc"}}},
         ("certify", "prop36-contraction")),
        ({"certificates": {"riesz-blocks": {"band_b_window": [1]}}},
         ("certify", "riesz-blocks")),
        ({"certificates": {"prop36-contraction": {"gelfand_window": [1]}}},
         ("certify", "prop36-contraction")),
        ({"certificates": {"prop15": {"target_eps": [1]}}}, ("certify", "prop15")),
        ({"certificates": {"prop15": {"mix_length": "3"}}}, ("certify", "prop15")),
        ({"certificates": {"prop36-contraction": {"d": 0, "target_count": 2,
                                                  "outside_count": 1}}},
         ("certify", "prop36-contraction")),
        ({"certificates": {"prop36-contraction": {"d": -1, "target_count": 2,
                                                  "outside_count": 1}}},
         ("certify", "prop36-contraction")),
        ({"certificates": {"prop15": {"target_eps": "-1/2"}}}, ("certify", "prop15")),
        ({"certificates": {"riesz-blocks": {"band_b_window": [-40, -80]}}},
         ("certify", "riesz-blocks")),
        ({"certificates": {"prop21": {"m_ladder_num_den": [[1, 0]]}}},
         ("certify", "prop21")),
        ({"operator": {"shape": "bilateral_backward", "index_set": "Z", "weights": {
            "kind": "table", "entries": [1, 2], "default": 1}}}, WITNESS),
        ({"operator": {"shape": "bilateral_backward", "index_set": "Z", "weights": {
            "kind": "constant", "value": True}}}, WITNESS),
        ({"operator": {"shape": "bilateral_backward", "index_set": "Z", "weights": {
            "kind": "constant", "value": "1/0"}}}, WITNESS),
        ({"certificates": {"prop32": {"support_bound": -3}}}, ("certify", "prop32")),
        ({"certificates": {"riesz-blocks": {"band_a_scale": 0}}},
         ("certify", "riesz-blocks")),
        ({"certificates": {"prop22": {"lambda": 0}}}, ("certify", "prop22")),
        ({"horizon": -5}, WITNESS),
        ({"budget": -1}, ("witness", "--kind", "j", "--x", E0, "--y", E0, "--d", "1")),
    ], ids=["unknown-key", "block-without-band", "horizon-not-int",
            "certificates-not-object", "out-dir-not-string", "parameter-not-number",
            "parameter-not-list", "parameter-item-not-number", "horizon-bool",
            "count-string", "count-float", "rational-bool", "rational-bad-string",
            "pair-too-short", "unknown-parameter", "rational-list",
            "count-numeric-string", "d-zero", "d-negative", "positive-rational-negative-string", "window-reversed",
            "ratio-zero-denominator", "table-entries-list", "weight-bool",
            "weight-zero-denominator", "support-bound-negative", "band-a-scale-zero",
            "lambda-zero", "horizon-negative", "budget-negative"])
    def test_unknown_config_key(self, capsys, tmp_path, config, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        # out_dir is read only when --out is absent
        out = () if "out_dir" in config else ("--out", str(tmp_path / "out"))
        code, _, err = run(capsys, "--config", str(path), *command, *out)
        assert code == 2
        assert "config error:" in err

    @pytest.mark.parametrize("command", [
        ("orbit", "--x", E0, "--horizon", "3"),
        ("witness", "--kind", "coarse", "--x", E0, "--y", E0, "--d", "1"),
    ], ids=["orbit", "witness-coarse"])
    def test_non_integer_band_bound(self, capsys, tmp_path, command):
        path = tmp_path / "band.json"
        path.write_text(json.dumps({"operator": {
            "shape": "block_direct_sum", "index_set": "Z",
            "blocks": [{"band": ["a", 3], "kind": "backward",
                        "weights": {"kind": "constant", "value": "2"}}]}}))
        code, _, err = run(capsys, "--config", str(path), *command)
        assert code == 2
        assert "config error:" in err

    @pytest.mark.parametrize("name, params", [
        ("prop36-contraction", {"d": "1/2"}),
        ("prop21", {"d": "1/2"}),
        ("prop36-contraction", {"inside_margin": "99/100"}),
    ], ids=["prop36-contraction-d", "prop21-d", "prop36-contraction-inside-margin"])
    def test_rational_string_parameter(self, capsys, tmp_path, name, params):
        cfg = self.write_config(
            tmp_path, {"certificates": {name: dict(FAST_CERTS[name], **params)}})
        code, _, err = run(capsys, "--config", str(cfg), "certify", name,
                           "--out", str(tmp_path / "b"))
        assert code == 0, err
        report = json.loads((tmp_path / "b" / f"{name}.json").read_text())
        for key, value in params.items():
            assert report["parameters"][key] == value

    def test_empty_target_window_rejected(self, tmp_path):
        # prop36-contraction samples outside targets with norms in
        # (1.005 d outside_margin, 1.9 d), empty at outside_margin 2; run in
        # a child process so a sampler that never returns fails the test
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certificates": {"prop36-contraction": {
            "outside_margin": 2, "target_count": 2, "outside_count": 1}}}))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from orbitscope.cli import main; sys.exit(main())",
             "--config", str(cfg), "certify", "prop36-contraction",
             "--out", str(tmp_path / "b")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "config error:" in proc.stderr

    def test_deterministic_bundles(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        run(capsys, "--config", str(cfg), "certify", "prop15", "prop21",
            "--out", str(tmp_path / "b1"))
        run(capsys, "--config", str(cfg), "certify", "prop15", "prop21",
            "--out", str(tmp_path / "b2"))
        assert bundle_digest(tmp_path / "b1") == bundle_digest(tmp_path / "b2")
        i1 = (tmp_path / "b1" / "index.json").read_bytes()
        i2 = (tmp_path / "b2" / "index.json").read_bytes()
        assert i1 == i2


def test_one_parser_serves_every_command(capsys, tmp_path):
    # the parser is built once per process; a usage error leaves it as it
    # was, so the next command, another subcommand, parses its own flags
    assert build_parser() is build_parser()
    code, out, err = run(capsys, "witness", "--kind", "coarse")
    assert code == 2 and out == ""
    assert "the following arguments are required: --x, --y, --d" in err
    cfg = TestCertify().write_config(tmp_path)
    code, _, err = run(capsys, "--config", str(cfg), "certify", "prop15",
                       "--out", str(tmp_path / "b"))
    assert code == 0
    assert "prop15: PASS" in err and "prop22" not in err
    index = json.loads((tmp_path / "b" / "index.json").read_text())
    assert index["verdicts"] == {"prop15": "PASS"}


def test_explore_is_an_unknown_command(capsys):
    # orbit, witness and certify are the only commands; any other is a
    # usage error, whatever its flags
    code, out, err = run(capsys, "explore", "--trials", "-3")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'explore'" in err


@pytest.mark.parametrize("command", [
    ("orbit", "--x", E0, "--horizon", "1"),
    TestCertify.WITNESS,
    ("certify", "prop15"),
], ids=["orbit", "witness", "certify"])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, command):
    # a file in a missing directory; certify's bundle directory is a file
    (tmp_path / "file").write_text("")
    out = tmp_path / ("file" if command[0] == "certify" else "missing/out")
    code, _, err = run(capsys, *command, "--out", str(out))
    assert code == 2
    assert "cannot write" in err


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orbitscope", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: orbitscope")


def certify_with(capsys, tmp_path, name, params, mode="exact"):
    """(exit code, stderr, report or None) of `certify name` with params."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"certificates": {name: params}}))
    out = tmp_path / "b"
    code, _, err = run(capsys, "--config", str(cfg), "--mode", mode, "certify", name,
                       "--out", str(out))
    report = json.loads((out / f"{name}.json").read_text()) if code != 2 else None
    return code, err, report


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("params, d_over_tm", [
    ({"scale_exponents": [10, 11, 12]}, "1/1024"),
    ({"scale_exponents": [0, 1, 2], "target_eps": 2}, "1"),
], ids=["exponents-from-10", "exponents-from-0"])
def test_prop15_d_over_tm_reads_the_scale_reached(capsys, tmp_path, params, d_over_tm, mode):
    # d / 2^scale_index holds only for exponents 1, 2, 3, ...: both read "1/2"
    code, _, report = certify_with(capsys, tmp_path, "prop15", params, mode)
    assert code == 0
    sub = {s["name"]: s for s in report["sub_checks"]}["rescaled-certificate"]
    assert sub["details"]["scale_index"] == 1 and sub["details"]["d_over_tm"] == d_over_tm


class TestRefusedParameters:
    @pytest.mark.parametrize("name, params, named", [
        ("prop22", {"lambda": "-1/2"}, "'lambda'"),
        ("prop22", {"lambda": "1/4"}, "'lambda'"),
        ("prop22", {"lambda": "3/4"}, "'lambda'"),
        ("prop22", {"steps": 13}, "'steps'"),
        ("prop22", {"drift_time": 5}, "'drift_time'"),
        ("prop22", {"d": "1/4"}, "'d'"),
        ("prop22", {"drift_target_scale_log2": 0}, "'drift_target_scale_log2'"),
        ("prop21", {"sample_count": -1}, "'sample_count'"),
        ("riesz-blocks", {"orbit_horizon": -1, "sample_count": 5}, "'orbit_horizon'"),
        ("prop36-contraction", {"target_count": -3, "outside_count": -1},
         "'target_count'"),
        ("prop15", {"scale_exponents": [11, 10]}, "'scale_exponents'"),
        ("prop15", {"scale_exponents": [11, 11]}, "'scale_exponents'"),
        ("prop15", {"scale_exponents": [10, 12, 11]}, "'scale_exponents'"),
        ("prop15", {"scale_exponents": [11, 2000]}, "'scale_exponents'"),
        ("prop15", {"scale_exponents": [-2000, 11]}, "'scale_exponents'"),
    ], ids=["prop22-lambda-negative", "prop22-lambda-quarter", "prop22-lambda-3/4",
            "prop22-steps-13", "prop22-drift-time-5", "prop22-d-quarter",
            "prop22-drift-scale-0", "prop21-sample-count", "riesz-orbit-horizon",
            "prop36-contraction-counts", "prop15-scales-descending",
            "prop15-scales-repeated", "prop15-scales-out-of-order", "prop15-scale-2^2000",
            "prop15-scale-2^-2000"])
    def test_config_error_names_the_parameter(self, capsys, tmp_path, name, params,
                                              named):
        # each exited 5 (prop22) or 0/4 with a vacuous sub-check before; the
        # prop15 lists: the first three made the rescale raise "scales t_k
        # must be strictly increasing" (exit 2, "error:", no report from
        # certify all), the last two ran in exact mode and exited 2 as
        # "error:" in float mode, 2^2000 being past double range
        code, err, _ = certify_with(capsys, tmp_path, name, params)
        assert code == 2
        assert "config error:" in err and named in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("name", ["prop36-contraction", "prop21", "riesz-blocks"])
    def test_d_past_double_range_is_a_config_error(self, capsys, tmp_path, name, mode):
        # each sampling window converts d to a double: it raised OverflowError
        code, err, _ = certify_with(capsys, tmp_path, name, {"d": "1e400"}, mode)
        assert code == 2
        assert "config error: parameter 'd' is past double range" in err

    def test_d_that_no_scale_reaches_is_a_config_error(self, capsys, tmp_path):
        # d / 2^12 never falls below target_eps: prop15 exited 5 with
        # rescaled-certificate FAIL, "family too short"
        code, err, _ = certify_with(capsys, tmp_path, "prop15", {"d": "1e400"})
        assert code == 2
        assert "config error:" in err and "'d'" in err and "'target_eps'" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_scales_too_small_for_the_radii_are_a_config_error(self, capsys, tmp_path, mode):
        # d / 2^3 is below target_eps but the mix radius bound 1 / 2^3 is not:
        # prop15 exited 5 with rescaled-certificate FAIL, "family too short"
        params = {"d": "1/1000000", "scale_exponents": [1, 2, 3]}
        code, err, _ = certify_with(capsys, tmp_path, "prop15", params, mode)
        assert code == 2
        assert "config error:" in err
        assert all(name in err for name in ("'d'", "'scale_exponents'", "'target_eps'"))
        # max(d, 1) / 2^10 is below target_eps = 1/1000: the family reaches it
        params = {"d": "1/2", "scale_exponents": list(range(1, 11))}
        code, _, report = certify_with(capsys, tmp_path, "prop15", params, mode)
        assert code == 0 and report["verdict"] == "PASS"

    def test_float_bound_at_or_below_tol_eq_is_a_config_error(self, capsys, tmp_path):
        # the first scale reaching target_eps is 2^10, and d / 2^10 lies below
        # TOL_EQ, which the float strictness policy certifies no distance
        # under: float prop15 exited 5 with rescaled-certificate FAIL, "image
        # at time 28 not within bound 9.765625e-10"; exact mode passes
        params = {"d": "1/1000000", "scale_exponents": list(range(1, 11))}
        code, err, _ = certify_with(capsys, tmp_path, "prop15", params, "float")
        assert code == 2
        assert "config error:" in err
        assert all(name in err for name in ("'d'", "'scale_exponents'", "'target_eps'"))
        code, _, report = certify_with(capsys, tmp_path, "prop15", params, "exact")
        assert code == 0 and report["verdict"] == "PASS"

    @pytest.mark.parametrize("kind", ["coarse", "j"])
    def test_float_witness_bound_past_double_range(self, capsys, kind):
        code, _, err = run(capsys, "--mode", "float", "witness", "--kind", kind,
                           "--x", E0, "--y", E0, "--d", "1e400")
        assert code == 2
        assert err.startswith("error:") and "past double range" in err

    def test_no_prop22_steps_is_labelled_vacuous(self, capsys, tmp_path):
        code, _, report = certify_with(capsys, tmp_path, "prop22", {"steps": 0})
        assert code == 0
        assert all("vacuous" in s["note"] for s in report["sub_checks"])


# the sweep's sizes: each certificate runs in a fraction of a second
SWEEP_SIZES = {
    "prop32": {"sample_count": 2, "orbit_check_horizon": 20, "forced_sample_count": 1,
               "forced_budget": 2000},
    "prop36-contraction": {"target_count": 3, "outside_count": 2, "outside_budget": 2000},
    "prop36-expansion": {"target_count": 1, "mix_budget": 300, "nonzero_budget": 300,
                         "stagnation_window": 50},
    "riesz-blocks": {"sample_count": 3, "lambda_ladder_exponents": [1, 2],
                     "search_budget": 2000},
    "prop15": {},
    "prop21": {"sample_count": 2, "visit_times": [30, 300], "count_ladder": [100]},
    "prop22": {},
}
# the sub-checks that a zero count leaves with nothing to check
VACUOUS = {
    ("prop32", "sample_count"): ["synthesis-at-bound"],
    ("prop32", "forced_sample_count"): ["quarter-tolerance-obstruction"],
    ("prop36-contraction", "target_count"): ["open-ball-witnessed",
                                             "witnessed-targets-bounded"],
    ("prop36-contraction", "outside_count"): ["closure-bound-respected"],
    ("prop36-expansion", "target_count"): ["mix-from-zero-exact"],
    ("riesz-blocks", "sample_count"): ["witness-band-decomposition",
                                       "contracting-band-bounded"],
    ("prop21", "sample_count"): ["sampled-targets-witnessed", "witness-rescaling"],
    ("prop22", "steps"): ["diagonal-recurrent-exact", "drift-amplification-exact",
                          "diagonal-recurrent-float", "drift-amplification-float"],
}
# parameters that a suite samples or compares with as a double
DOUBLES = {("prop32", "norm_bound"), ("prop36-contraction", "d"),
           ("prop36-contraction", "inside_margin"), ("prop36-contraction", "outside_margin"),
           ("riesz-blocks", "d"), ("riesz-blocks", "band_a_scale"),
           ("prop15", "target_eps"), ("prop21", "d"), ("prop21", "noise_scale"),
           ("prop22", "d")}
# the values that the library, not the config reader, refuses: an empty
# schedule or mix block, and a double past range where the mode reads one
REFUSED_INSIDE = {("prop32", "schedule_length", 0, "exact"),
                  ("prop36-contraction", "schedule_length", 0, "exact"),
                  ("riesz-blocks", "schedule_length", 0, "exact"),
                  ("prop36-expansion", "mix_length", 0, "exact"),
                  ("prop15", "mix_length", 0, "exact"),
                  ("prop32", "d", "1e400", "float"),
                  ("prop32", "forced_tolerance", "1e400", "float"),
                  ("prop36-expansion", "d", "1e400", "float"),
                  ("riesz-blocks", "ratio_factor", "1e400", "float")}


SWEEP = [
    (name, key, value, mode)
    for name, base in [("prop32", defaults.PROP32),
                       ("prop36-contraction", defaults.PROP36_CONTRACTION),
                       ("prop36-expansion", defaults.PROP36_EXPANSION),
                       ("riesz-blocks", defaults.RIESZ), ("prop15", defaults.PROP15),
                       ("prop21", defaults.PROP21), ("prop22", defaults.PROP22)]
    for key in base
    for value in ((-1, 0, "1e400") if "rational" in defaults._KIND_OF[key] else (-1, 0))
    for mode in (("exact", "float") if value == "1e400" else ("exact",))]


@pytest.mark.parametrize("name, key, value, mode", SWEEP,
                         ids=[f"{n}-{k}={v}-{m}" for n, k, v, m in SWEEP])
def test_parameter_sweep_never_crashes(capsys, tmp_path, name, key, value, mode):
    # -1, 0 and a value past double range for every parameter: each answers
    # (an exception escaping main fails the test); -1 for a count, horizon,
    # length or budget and a double past range are config errors; a zero
    # count labels the sub-checks it empties vacuous; every other exit 2 is
    # a config error or one of REFUSED_INSIDE (prop15's mix_budget 0 exited
    # 2 as "error:", its budget stop escaping the suite)
    code, err, report = certify_with(capsys, tmp_path, name,
                                     dict(SWEEP_SIZES[name], **{key: value}), mode)
    assert code in (0, 2, 4, 5)
    if (name, key, value, mode) in REFUSED_INSIDE:
        assert code == 2 and err.startswith("error:")
    elif code == 2:
        assert "config error:" in err
    if value == -1 and defaults._KIND_OF[key] == "a non-negative integer" \
            or value == "1e400" and (name, key) in DOUBLES:
        assert code == 2 and "config error:" in err
    if value == 0 and (name, key) in VACUOUS:
        notes = {s["name"]: s["note"] for s in report["sub_checks"]}
        assert code == 0
        assert all("vacuous" in notes[n] for n in VACUOUS[name, key])


# prop32 with its forced quarter-tolerance searches given no budget
FORCED_BUDGET_0 = {"forced_budget": 0, "sample_count": 2}


class TestSearchFailures:
    """A sampled claim's failed searches: a budget stop refutes nothing and
    reads INDECISIVE; a failure that carries a proof reads FAIL."""

    @pytest.mark.parametrize("name, params, stopped", [
        ("prop36-expansion", {"mix_budget": 0}, ["mix-from-zero-exact"]),
        ("riesz-blocks", {"search_budget": 0},
         ["witness-band-decomposition", "lambda-ladder-ratio"]),
        ("prop15", {"mix_budget": 0}, ["family-constructed", "rescaled-certificate"]),
    ], ids=["prop36-expansion-mix-budget-0", "riesz-blocks-search-budget-0",
            "prop15-mix-budget-0"])
    def test_budget_stop_is_indecisive(self, capsys, tmp_path, name, params, stopped):
        # the first two exited 5, with these sub-checks FAIL; prop15 exited
        # 2, "error: mix search budget exhausted", and wrote no report
        code, _, report = certify_with(capsys, tmp_path, name, params)
        assert code == 4
        statuses = {s["name"]: s["status"] for s in report["sub_checks"]}
        assert [n for n, st in statuses.items() if st != "PASS"] == stopped
        assert all(statuses[n] == "INDECISIVE" for n in stopped)

    def test_a_budget_stop_leaves_every_report(self, capsys, tmp_path):
        # prop15's budget stop escaped run_all: certify all exited 2 and
        # wrote no report for any suite
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certificates": dict(
            SWEEP_SIZES, prop15={"mix_budget": 0})}))
        out = tmp_path / "b"
        code, _, _ = run(capsys, "--config", str(cfg), "certify", "all", "--out", str(out))
        assert code == 4
        index = json.loads((out / "index.json").read_text())
        assert sorted(index["verdicts"]) == sorted(certificates.CERTIFICATES)
        assert {n for n, v in index["verdicts"].items() if v != "PASS"} == {"prop15"}
        assert all((out / f"{n}.json").exists() for n in certificates.CERTIFICATES)

    def test_a_stopped_rung_leaves_a_gap_in_the_ladder(self, capsys, tmp_path,
                                                       monkeypatch):
        # rungs 2^3, 2^2, 2^1 have ratios 1/16, 1/8, 1/4: each step's factor
        # 1/2 meets ratio_factor 2/5.  With the middle rung stopped on its
        # budget, the factor across the gap, 1/4, read FAIL
        def stop_middle_rung(T, x, y, *args, **kwargs):
            if y.entry(-50).re == 4:
                raise SearchFailed("budget", reason="budget", triple_index=0,
                                   best_residual=math.inf, best_delta_norm=math.inf,
                                   attempts=1, budget_used=1, k_last=1)
            return d_witness(T, x, y, *args, **kwargs)

        d_witness = certificates.d_witness
        monkeypatch.setattr(certificates, "d_witness", stop_middle_rung)
        code, _, report = certify_with(
            capsys, tmp_path, "riesz-blocks",
            dict(SWEEP_SIZES["riesz-blocks"], lambda_ladder_exponents=[3, 2, 1],
                 ratio_factor="2/5"))
        assert code == 4
        sub = {s["name"]: s for s in report["sub_checks"]}["lambda-ladder-ratio"]
        assert sub["status"] == "INDECISIVE"
        assert sub["details"] == {"ratios": [0.0625, None, 0.25], "min_factor": None}

    def test_a_coarse_scan_that_found_nothing_is_indecisive(self, capsys, tmp_path):
        # a scan to 10 steps reaches no planted copy: it exited 5 with
        # sampled-targets-witnessed FAIL, yet no time past 10 was scanned
        code, _, report = certify_with(capsys, tmp_path, "prop21",
                                       {"count_ladder": [10, 100, 1000], "sample_count": 3})
        assert code == 4
        statuses = {s["name"]: s["status"] for s in report["sub_checks"]}
        assert statuses["sampled-targets-witnessed"] == "INDECISIVE"
        assert "FAIL" not in statuses.values()

    def test_a_forced_budget_stop_is_indecisive(self, capsys, tmp_path):
        # 45 of the 50 forced quarter-tolerance searches stop on their budget
        # and 5 are proved outside J: it exited 0 with the sub-check PASS
        code, _, report = certify_with(capsys, tmp_path, "prop32", FORCED_BUDGET_0)
        assert code == 4
        statuses = {s["name"]: s["status"] for s in report["sub_checks"]}
        assert statuses["quarter-tolerance-obstruction"] == "INDECISIVE"
        assert "FAIL" not in statuses.values()
        assert report["sub_checks"][2]["note"].startswith("5 of 50 targets proved")

    def test_a_checker_that_accepts_a_bogus_family_fails(self, capsys, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(certificates, "remark32_contradiction_check",
                            lambda *args, **kwargs: SimpleNamespace(to_jsonable=dict))
        code, _, report = certify_with(capsys, tmp_path, "prop32", FORCED_BUDGET_0)
        assert code == 5
        sub = report["sub_checks"][2]
        assert sub["name"] == "quarter-tolerance-obstruction" and sub["status"] == "FAIL"
        assert sub["details"]["checker_rejects_bogus_family"] is False

    @pytest.mark.parametrize("name, search, refuted", [
        ("prop32", "search_j_witness", ["synthesis-at-bound"]),
        ("prop36-contraction", "search_j_witness", ["open-ball-witnessed"]),
        ("prop36-expansion", "jmix_witness", ["mix-from-zero-exact"]),
        ("riesz-blocks", "d_witness", ["witness-band-decomposition", "lambda-ladder-ratio"]),
        ("prop15", "jmix_witness", ["family-constructed"]),
    ])
    def test_a_proof_of_non_membership_fails(self, capsys, tmp_path, monkeypatch, name,
                                             search, refuted):
        def proved(*args, **kwargs):
            raise SearchFailed("proved outside", reason="tail-bound", triple_index=0,
                               best_residual=math.inf, best_delta_norm=math.inf,
                               attempts=1, budget_used=1, k_last=1,
                               proof={"k0": 1, "eps": "1", "inequality": "stub"})

        monkeypatch.setattr(certificates, search, proved)
        code, _, report = certify_with(capsys, tmp_path, name, SWEEP_SIZES[name])
        assert code == 5
        assert [s["name"] for s in report["sub_checks"] if s["status"] == "FAIL"] == refuted
