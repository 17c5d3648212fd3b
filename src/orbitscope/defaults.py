"""Versioned default ladders and sample sizes for the certificate suite,
and the one kind each parameter name takes in every suite.

Reports embed DEFAULTS_VERSION so runs stay comparable; change the
version whenever a ladder changes.
"""

import math
from fractions import Fraction

from .errors import ConfigError

DEFAULTS_VERSION = "2"

PROP32 = {
    "sample_count": 100,
    "support_bound": 20,
    "norm_bound": 10,
    "d": 2,
    "orbit_check_horizon": 10_000,
    "forced_sample_count": 50,
    "forced_tolerance": Fraction(1, 4),
    "forced_budget": 1_000_000,
    "schedule_length": 5,
}

PROP36_CONTRACTION = {
    "weight": Fraction(1, 2),
    "d": 1,
    "target_count": 200,
    "outside_count": 50,
    "inside_margin": Fraction(99, 100),
    "outside_margin": Fraction(101, 100),
    "outside_budget": 100_000,
    "schedule_length": 5,
}

PROP36_EXPANSION = {
    "weight": 2,
    "d": 1,
    "target_count": 100,
    "mix_length": 5,
    "mix_budget": 100_000,
    "nonzero_budget": 100_000,
    "stagnation_window": 300,
}

RIESZ = {
    "contract_weight": Fraction(1, 2),
    "expand_weight": 2,
    "d": 1,
    "sample_count": 1000,
    "band_b_window": (-80, -40),
    "band_a_scale": Fraction(1, 2),
    "lambda_ladder_exponents": tuple(range(1, 21)),
    "ratio_factor": 1.9,
    "schedule_length": 5,
    "search_budget": 20_000,
    "orbit_horizon": 12,
}

PROP15 = {
    "scale_exponents": tuple(range(1, 13)),
    "d": 1,
    "target_eps": Fraction(1, 1000),
    "mix_length": 3,
    "mix_budget": 50_000,
}

PROP21 = {
    "d": Fraction(1, 2),
    "visit_times": (30, 300, 3000, 9000),
    "count_ladder": (100, 1_000, 10_000),
    "m_ladder_num_den": ((1, 10), (1, 1), (10, 1)),  # M = d * num/den
    "sample_count": 20,
    "noise_scale": 0.4,
}

PROP22 = {
    "lambda": Fraction(1, 2),
    "steps": 10,
    "d": 1,
    "drift_target_scale_log2": -15,
    "drift_target_index": -20,
    "drift_time": 20,
    "diagonal_target_log2": -12,
}


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_integer(value) or isinstance(value, Fraction) \
        or isinstance(value, float) and math.isfinite(value)


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 \
        and all(map(is_integer, value))


def _is_list_of(item):
    return lambda value: isinstance(value, (list, tuple)) and len(value) > 0 \
        and all(map(item, value))


# kind -> (test of a value, names of the parameters of that kind)
KINDS = {
    "an integer": (is_integer, """drift_target_scale_log2 drift_target_index
        diagonal_target_log2""".split()),
    # counts, horizons, lengths and budgets; a zero count labels its sub-checks vacuous
    "a non-negative integer": (lambda v: is_integer(v) and v >= 0, """support_bound
        sample_count orbit_check_horizon forced_sample_count forced_budget
        schedule_length target_count outside_count outside_budget mix_length
        mix_budget nonzero_budget stagnation_window search_budget orbit_horizon
        steps drift_time""".split()),
    "a rational": (is_number, "weight contract_weight expand_weight noise_scale".split()),
    "a positive rational": (lambda v: is_number(v) and v > 0, """d forced_tolerance
        target_eps inside_margin outside_margin band_a_scale norm_bound
        ratio_factor""".split()),
    "a rational with 0 < |lambda| < 1": (lambda v: is_number(v) and 0 < abs(v) < 1,
                                         ["lambda"]),
    "a non-empty list of integers": (_is_list_of(is_integer), """lambda_ladder_exponents
        visit_times count_ladder""".split()),
    "a non-empty strictly increasing list of integers in [-1023, 1023]": (
        lambda v: _is_list_of(lambda k: is_integer(k) and abs(k) <= 1023)(v)
        and list(v) == sorted(set(v)), ["scale_exponents"]),  # 2^k and 1/2^k doubles
    "a pair of integers lo <= hi": (lambda v: _is_pair(v) and v[0] <= v[1],
                                    ["band_b_window"]),
    "a non-empty list of integer pairs with non-zero second entries": (
        _is_list_of(lambda v: _is_pair(v) and v[1] != 0), ["m_ladder_num_den"]),
}
_KIND_OF = {name: kind for kind, (_, names) in KINDS.items() for name in names}


def parse(name: str, value, kind: str | None = None):
    """A parameter value checked against its kind, by default its name's.
    A rational string such as "1/2" becomes a Fraction; every other value
    is kept as given."""
    kind = kind or _KIND_OF[name]
    if "rational" in kind and isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    if not KINDS[kind][0](value):
        raise ConfigError(f"parameter {name!r} must be {kind}, not {value!r}")
    return value
