"""Command-line front end: orbit traces, witness runs and certificate suites.

Structured-config-first: most parameters live in a single JSON config,
with --seed / --mode / --out as the only overrides.  Failure payloads
are machine-readable JSON on stdout; human diagnostics go to stderr.

Exit codes: 0 ok/PASS, 2 usage or config error, 3 witness not found
within budget, 4 indecisive certificates, 5 failed certificates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .certificates import aggregate_exit_status, run_all, write_bundle
from .defaults import parse
from .errors import (
    ConfigError,
    OrbitscopeError,
    SearchFailed,
)
from .limit_sets import EpsSchedule, d_witness, jmix_witness, search_j_witness
from .numeric import Mode
from .operators import ShiftOperator, shift_from_jsonable
from .orbits import coarse_orbit_contains, orbit
from .spaces import NormTag, SeqVector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3
EXIT_INDECISIVE = 4
EXIT_FAILED = 5

_DEFAULT_CONFIG = {
    "numeric_mode": "exact",
    "seed": 0,
    "operator": {"preset": "paper-prop32"},
    "norm": "pinf",
    "horizon": 1000,
    "budget": 100_000,
    "schedule_length": 5,
    "out_dir": "reports",
    "certificates": {},
}


def load_config(path: str | None) -> dict:
    config = dict(_DEFAULT_CONFIG)
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(raw)
    if config["numeric_mode"] not in ("exact", "float"):
        raise ConfigError("numeric_mode must be 'exact' or 'float'")
    for key in ("seed", "horizon", "budget", "schedule_length"):
        parse(key, config[key], "an integer" if key == "seed" else "a non-negative integer")
    if not isinstance(config["out_dir"], str):
        raise ConfigError("out_dir must be a string")
    certs = config["certificates"]
    if not isinstance(certs, dict) or \
            not all(isinstance(v, dict) for v in certs.values()):
        raise ConfigError("certificates must map names to parameter objects")
    return config


def _norm_of(config) -> NormTag:
    try:
        return NormTag(config["norm"])
    except ValueError as exc:
        raise ConfigError(f"unknown norm {config['norm']!r}") from exc


def _operator_of(config) -> ShiftOperator:
    spec = config["operator"]
    if isinstance(spec, str):
        spec = {"preset": spec}
    return shift_from_jsonable(spec)


def _load_vector(arg: str, mode: Mode) -> SeqVector:
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read vector file {arg}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed vector JSON: {exc}") from exc
    return SeqVector.from_jsonable(obj, mode)


def _parse_bound(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad bound {text!r}: {exc}") from exc
    if value <= 0:
        raise ConfigError("bound must be positive")
    return value


def _write(text: str, out: str | None) -> None:
    """text to the file out, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def cmd_orbit(args, config: dict, mode: Mode) -> int:
    T = _operator_of(config)
    x = _load_vector(args.x, mode)
    _write(orbit(T, x, args.horizon, _norm_of(config)).to_csv(), args.out)
    return EXIT_OK


def cmd_witness(args, config: dict, mode: Mode) -> int:
    norm_tag = _norm_of(config)
    d = _parse_bound(args.d)
    T = _operator_of(config)
    x = _load_vector(args.x, mode)
    y = _load_vector(args.y, mode)
    schedule = EpsSchedule.reciprocal(config["schedule_length"])
    try:
        if args.kind == "coarse":
            w = coarse_orbit_contains(T, x, d, y, config["horizon"], norm_tag)
            if w is None:
                _emit({"found": False, "kind": "coarse",
                       "horizon": config["horizon"],
                       "note": "no witness up to the horizon; not a proof"},
                      args.out)
                return EXIT_NOT_FOUND
            _emit({"found": True, "witness": w.to_jsonable()}, args.out)
            return EXIT_OK
        if args.kind == "j":
            w = search_j_witness(T, x, y, d, schedule, config["budget"],
                                 norm_tag=norm_tag)
        elif args.kind == "jmix":
            w = jmix_witness(T, x, y, d, len(schedule), 1, config["budget"],
                             norm_tag=norm_tag, schedule=schedule)
        elif args.kind == "d":
            w = d_witness(T, x, y, d, config["horizon"], schedule,
                          config["budget"], norm_tag=norm_tag)
        else:
            raise ConfigError(f"unknown witness kind {args.kind!r}")
    except SearchFailed as exc:
        _emit({"found": False, "kind": args.kind, "seed": config["seed"],
               "diagnostics": exc.diagnostics()}, args.out)
        return EXIT_NOT_FOUND
    _emit({"found": True, "seed": config["seed"],
           "witness": w.to_jsonable()}, args.out)
    return EXIT_OK


def cmd_certify(args, config: dict, mode: Mode) -> int:
    names = None if args.names == ["all"] else args.names
    reports = run_all(names, seed=config["seed"], mode=mode,
                      overrides=config["certificates"])
    out_dir = args.out or config["out_dir"]
    try:
        write_bundle(reports, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write bundle {out_dir}: {exc}") from exc
    for r in reports:
        sys.stderr.write(f"{r.name}: {r.verdict} ({r.runtime_s:.2f}s)\n")
    return aggregate_exit_status(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitscope",
        description="coarse dynamics laboratory for weighted shift operators")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--mode", choices=["exact", "float"],
                        help="override the numeric mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="write an orbit trace as CSV")
    p_orbit.add_argument("--x", required=True, help="vector JSON (inline or file)")
    p_orbit.add_argument("--horizon", type=int, default=10)
    p_orbit.add_argument("--out", help="CSV output path (default stdout)")
    p_orbit.set_defaults(func=cmd_orbit)

    p_wit = sub.add_parser("witness", help="search for one witness")
    p_wit.add_argument("--kind", required=True,
                       choices=["coarse", "j", "jmix", "d"])
    p_wit.add_argument("--x", required=True)
    p_wit.add_argument("--y", required=True)
    p_wit.add_argument("--d", required=True, help="coarse bound, e.g. 2 or 1/4")
    p_wit.add_argument("--out", help="witness JSON path (default stdout)")
    p_wit.set_defaults(func=cmd_witness)

    p_cert = sub.add_parser("certify", help="run certificate suites")
    p_cert.add_argument("names", nargs="*", default=["all"],
                        help="certificate names or 'all'")
    p_cert.add_argument("--out", help="report bundle directory")
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        # every command runs on the config file with the flags applied
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.mode is not None:
            config["numeric_mode"] = args.mode
        return args.func(args, config, Mode(config["numeric_mode"]))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OrbitscopeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
