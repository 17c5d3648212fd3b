"""JSON forms and search diagnostics pinned to literal values.

Seed-0 bundles never carry some of these (a ContradictionReport, a
CoarseDensityReport, a SpectralTrace, a FamilyRescaleResult), so the
bundle digests cannot guard them; these literals do.
"""

from fractions import Fraction

import pytest

from orbitscope import (
    Constant,
    EpsSchedule,
    IndexSet,
    NormTag,
    SeqVector,
    Shape,
    ShiftOperator,
    d_witness,
    derive_remark32_bounds,
    jmix_witness,
    make_coarse_witness,
    prop22_amplify,
    prop32_operator,
    rescale_j_witness_family,
    search_j_witness,
    spectral_radius_estimate,
)
from orbitscope.certificates import SubCheck
from orbitscope.errors import SearchFailed
from orbitscope.limit_sets import JWitnessTriple
from orbitscope.numeric import QC, Mode, make_scalar, real_value
from orbitscope.orbits import CoarseDensityReport

def ei(i, c, mode):
    return SeqVector.basis(IndexSet.INTEGERS, i, make_scalar(c, mode), mode)


def doubling():
    return ShiftOperator(Shape.UNILATERAL_BACKWARD, IndexSet.NATURALS, Constant(2))


def sub_check(mode):
    return SubCheck("pin", "PASS", note="fixed", details={
        "value": real_value(Fraction(1, 3), mode),
        "pair": (1, real_value(Fraction(-1, 2), mode)),
        "complex": QC(Fraction(1, 2), Fraction(-1)) if mode is Mode.EXACT else None,
        "nested": {"list": [1, "two"]}})


def triple(mode):
    return JWitnessTriple(ei(-1, Fraction(3, 4), mode), 3,
                          real_value(Fraction(5, 8), mode))


def d_witness_orbit(mode):
    return d_witness(prop32_operator(), ei(0, 1, mode), ei(-4, 1, mode), 1, 10,
                     EpsSchedule.reciprocal(2), 1_000)


def d_witness_limit(mode):
    return d_witness(prop32_operator(), ei(0, 1, mode), ei(3, 7, mode), 2, 2,
                     EpsSchedule.reciprocal(2), 10_000)


def family_rescale(mode):
    T = doubling()
    zero = SeqVector.zero(IndexSet.NATURALS, mode)
    family = []
    start = 1
    for k in (1, 2):
        t_k = Fraction(2) ** k
        w = jmix_witness(T, zero, SeqVector.basis(IndexSet.NATURALS, 0,
                                                  real_value(t_k, mode), mode),
                         1, 2, start, 1_000)
        start = w.times[-1] + 1
        family.append((t_k, w))
    return rescale_j_witness_family(T, family, Fraction(3, 4))


def amplified_point(mode):
    T = prop32_operator()
    x = ei(0, 1, mode)
    y = ei(-3, Fraction(1, 8), mode)
    cws = [make_coarse_witness(T, x, 1, y.scale(real_value(Fraction(2) ** n, mode)),
                               3, NormTag.PINF) for n in (1, 2)]
    return prop22_amplify(T, x, y, 1, Fraction(1, 2), cws).points[1]


def contradiction(mode):
    w = SeqVector.from_entries(IndexSet.INTEGERS,
                               {-5: Fraction(3, 4), -2: Fraction(1, 4)}, mode)
    family = [(ei(0, 1, mode), 2), (ei(0, 1, mode), 5)]
    return derive_remark32_bounds(w, family)


def spectral_trace(mode):
    return spectral_radius_estimate(prop32_operator(), 3, (-2, 2))


def density_report(mode):
    hit = make_coarse_witness(prop32_operator(), ei(0, 1, mode), 1,
                              ei(-2, Fraction(3, 2), mode), 2, NormTag.PINF)
    return CoarseDensityReport("FAIL", 0.5, 2, 4, real_value(2, mode), 3, 2,
                               (hit,), (ei(5, -1, mode),), warning="pinned")


BUILDERS = {
    "SubCheck": sub_check,
    "JWitnessTriple": triple,
    "DWitness-orbit": d_witness_orbit,
    "DWitness-limit": d_witness_limit,
    "FamilyRescaleResult": family_rescale,
    "AmplifiedPoint": amplified_point,
    "ContradictionReport": contradiction,
    "SpectralTrace": spectral_trace,
    "CoarseDensityReport": density_report,
}

EXPECTED = {
    ("SubCheck", "exact"): {
        "name": "pin",
        "status": "PASS",
        "note": "fixed",
        "details": {
            "value": "1/3",
            "pair": [1, "-1/2"],
            "complex": ["1/2", "-1"],
            "nested": {"list": [1, "two"]},
        },
    },
    ("SubCheck", "float"): {
        "name": "pin",
        "status": "PASS",
        "note": "fixed",
        "details": {
            "value": 0.3333333333333333,
            "pair": [1, -0.5],
            "complex": None,
            "nested": {"list": [1, "two"]},
        },
    },
    ("JWitnessTriple", "exact"): {
        "perturbed": {"index_set": "Z", "entries": [[-1, "3/4", "0"]]},
        "time": 3,
        "dist": "5/8",
    },
    ("JWitnessTriple", "float"): {
        "perturbed": {"index_set": "Z", "entries": [[-1, 0.75, 0.0]]},
        "time": 3,
        "dist": 0.625,
    },
    ("DWitness-orbit", "exact"): {
        "kind": "orbit",
        "coarse": {
            "time": 4,
            "achieved_distance": "0",
            "target": {"index_set": "Z", "entries": [[-4, "1", "0"]]},
            "base": {"index_set": "Z", "entries": [[0, "1", "0"]]},
            "bound": "1",
            "norm": "pinf",
            "operator": "paper-prop32",
        },
        "jwitness": None,
    },
    ("DWitness-orbit", "float"): {
        "kind": "orbit",
        "coarse": {
            "time": 4,
            "achieved_distance": 0.0,
            "target": {"index_set": "Z", "entries": [[-4, 1.0, 0.0]]},
            "base": {"index_set": "Z", "entries": [[0, 1.0, 0.0]]},
            "bound": 1.0,
            "norm": "pinf",
            "operator": "paper-prop32",
        },
        "jwitness": None,
    },
    ("DWitness-limit", "exact"): {
        "kind": "limit",
        "coarse": None,
        "jwitness": {
            "base": {"index_set": "Z", "entries": [[0, "1", "0"]]},
            "target": {"index_set": "Z", "entries": [[3, "7", "0"]]},
            "bound": "2",
            "norm": "pinf",
            "schedule": ["1", "1/2"],
            "triples": [
                {
                    "perturbed": {
                        "index_set": "Z",
                        "entries": [[0, "1", "0"], [6, "7/8", "0"]],
                    },
                    "time": 3,
                    "dist": "1",
                },
                {
                    "perturbed": {
                        "index_set": "Z",
                        "entries": [[0, "1", "0"], [7, "7/16", "0"]],
                    },
                    "time": 4,
                    "dist": "1",
                },
            ],
            "mix": False,
            "operator": "paper-prop32",
        },
    },
    ("DWitness-limit", "float"): {
        "kind": "limit",
        "coarse": None,
        "jwitness": {
            "base": {"index_set": "Z", "entries": [[0, 1.0, 0.0]]},
            "target": {"index_set": "Z", "entries": [[3, 7.0, 0.0]]},
            "bound": 2.0,
            "norm": "pinf",
            "schedule": ["1", "1/2"],
            "triples": [
                {
                    "perturbed": {
                        "index_set": "Z",
                        "entries": [[0, 1.0, 0.0], [6, 0.875, 0.0]],
                    },
                    "time": 3,
                    "dist": 1.0,
                },
                {
                    "perturbed": {
                        "index_set": "Z",
                        "entries": [[0, 1.0, 0.0], [7, 0.4375, 0.0]],
                    },
                    "time": 4,
                    "dist": 1.0,
                },
            ],
            "mix": False,
            "operator": "paper-prop32",
        },
    },
    ("FamilyRescaleResult", "exact"): {
        "witness": {
            "base": {"index_set": "N", "entries": []},
            "target": {"index_set": "N", "entries": [[0, "1", "0"]]},
            "bound": "1/2",
            "norm": "pinf",
            "schedule": ["3/4", "1/3", "5/16", "3/20"],
            "triples": [
                {
                    "perturbed": {"index_set": "N", "entries": [[1, "3/8", "0"]]},
                    "time": 1,
                    "dist": "1/4",
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[2, "3/16", "0"]]},
                    "time": 2,
                    "dist": "1/4",
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[3, "1/8", "0"]]},
                    "time": 3,
                    "dist": "0",
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[4, "1/16", "0"]]},
                    "time": 4,
                    "dist": "0",
                },
            ],
            "mix": True,
            "operator": "",
        },
        "scale_index": 1,
        "scales_used": ["2", "4"],
    },
    ("FamilyRescaleResult", "float"): {
        "witness": {
            "base": {"index_set": "N", "entries": []},
            "target": {"index_set": "N", "entries": [[0, 1.0, 0.0]]},
            "bound": 0.5,
            "norm": "pinf",
            "schedule": ["3/4", "1/3", "5/16", "3/20"],
            "triples": [
                {
                    "perturbed": {"index_set": "N", "entries": [[1, 0.375, 0.0]]},
                    "time": 1,
                    "dist": 0.25,
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[2, 0.1875, 0.0]]},
                    "time": 2,
                    "dist": 0.25,
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[3, 0.125, 0.0]]},
                    "time": 3,
                    "dist": 0.0,
                },
                {
                    "perturbed": {"index_set": "N", "entries": [[4, 0.0625, 0.0]]},
                    "time": 4,
                    "dist": 0.0,
                },
            ],
            "mix": True,
            "operator": "",
        },
        "scale_index": 1,
        "scales_used": ["2", "4"],
    },
    ("AmplifiedPoint", "exact"): {
        "n": 2,
        "time": 3,
        "point": {"index_set": "Z", "entries": [[-3, "1/4", "0"]]},
        "distance": "1/8",
        "bound": "1/4",
    },
    ("AmplifiedPoint", "float"): {
        "n": 2,
        "time": 3,
        "point": {"index_set": "Z", "entries": [[-3, 0.25, 0.0]]},
        "distance": 0.125,
        "bound": 0.25,
    },
    ("ContradictionReport", "exact"): {
        "n0_index": 0,
        "n1_index": 1,
        "time_n0": 2,
        "time_n1": 5,
        "coordinate": -5,
        "w_value": [0.75, 0.0],
        "bound_near_one_holds": True,
        "bound_near_zero_holds": False,
    },
    ("ContradictionReport", "float"): {
        "n0_index": 0,
        "n1_index": 1,
        "time_n0": 2,
        "time_n1": 5,
        "coordinate": -5,
        "w_value": [0.75, 0.0],
        "bound_near_one_holds": True,
        "bound_near_zero_holds": False,
    },
    ("SpectralTrace", None): {
        "quotients": [2.0, 2.0, 1.5874010519681994],
        "estimate": 1.5874010519681994,
        "n_max": 3,
        "window": [-2, 2],
    },
    ("CoarseDensityReport", "exact"): {
        "verdict": "FAIL",
        "hit_ratio": 0.5,
        "sample_count": 2,
        "horizon": 4,
        "bound": "2",
        "seed": 3,
        "max_first_time": 2,
        "witnesses": [
            {
                "time": 2,
                "achieved_distance": "1/2",
                "target": {"index_set": "Z", "entries": [[-2, "3/2", "0"]]},
                "base": {"index_set": "Z", "entries": [[0, "1", "0"]]},
                "bound": "1",
                "norm": "pinf",
                "operator": "paper-prop32",
            },
        ],
        "failures": [{"index_set": "Z", "entries": [[5, "-1", "0"]]}],
        "warning": "pinned",
    },
    ("CoarseDensityReport", "float"): {
        "verdict": "FAIL",
        "hit_ratio": 0.5,
        "sample_count": 2,
        "horizon": 4,
        "bound": 2.0,
        "seed": 3,
        "max_first_time": 2,
        "witnesses": [
            {
                "time": 2,
                "achieved_distance": 0.5,
                "target": {"index_set": "Z", "entries": [[-2, 1.5, 0.0]]},
                "base": {"index_set": "Z", "entries": [[0, 1.0, 0.0]]},
                "bound": 1.0,
                "norm": "pinf",
                "operator": "paper-prop32",
            },
        ],
        "failures": [{"index_set": "Z", "entries": [[5, -1.0, 0.0]]}],
        "warning": "pinned",
    },
}


@pytest.mark.parametrize("name, mode", list(EXPECTED),
                         ids=lambda v: v if v else "any")
def test_to_jsonable_pinned(name, mode):
    built = BUILDERS[name](Mode(mode) if mode else None)
    assert built.to_jsonable() == EXPECTED[name, mode]


def bilateral(w):
    return ShiftOperator(Shape.BILATERAL_BACKWARD, IndexSet.INTEGERS, Constant(w))


def search_second_triple_fails():
    # the first triple misses at k = 1 (residual 9/4) and is found at k = 2;
    # the second misses at k = 3 and stops on its proof at k = 4, so the
    # bests reported are k = 3's alone, both worse than k = 1's
    y = SeqVector.from_entries(IndexSet.INTEGERS,
                               {-1: Fraction(-9, 4), 1: Fraction(5, 4)})
    search_j_witness(bilateral(Fraction(3, 2)), ei(2, 1, Mode.EXACT), y, Fraction(1, 4),
                     EpsSchedule.reciprocal(2), 30, stagnation_window=5)


def jmix_fails():
    y = SeqVector.from_entries(IndexSet.INTEGERS, {0: Fraction(9, 4), 2: Fraction(1, 4)})
    jmix_witness(bilateral(1), ei(-2, Fraction(1, 4), Mode.EXACT), y, Fraction(1, 2),
                 3, 1, 40)


DIAGNOSTICS = {
    "search_second_triple_fails": (
        "triple 2: collapse-bound",
        {
            "reason": "collapse-bound",
            "triple_index": 1,
            "best_residual": 5.625,
            "best_delta_norm": 0.37037037037037035,
            "attempts": 3,
            "budget_used": 4,
            "k_last": 3,
            "proof": {
                "k0": 4,
                "eps": "1/2",
                "inequality": ("I^k*(||x|| - eps) >= ||y|| + d with I^2 = 9/4, "
                               "||x|| >= 1, ||y|| <= 9/4, d = 1/4"),
            },
        },
    ),
    "jmix_fails": (
        "mix search budget exhausted",
        {
            "reason": "budget",
            "triple_index": 0,
            "best_residual": 2.25,
            "best_delta_norm": 0.25,
            "attempts": 40,
            "budget_used": 40,
            "k_last": 40,
            "proof": None,
        },
    ),
}


@pytest.mark.parametrize("search", list(DIAGNOSTICS))
def test_search_diagnostics_pinned(search):
    with pytest.raises(SearchFailed) as info:
        globals()[search]()
    message, diagnostics = DIAGNOSTICS[search]
    assert str(info.value) == message
    assert info.value.diagnostics() == diagnostics
