"""One domain rule: every entry point that reads T's lanes for x refuses an
x outside T's domain with IndexSetMismatch, and the J searches refuse a y
that x - y refuses, before any point, power, attempt or proof."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitscope import (
    Band,
    Block,
    Constant,
    EpsSchedule,
    IndexSet,
    NormTag,
    SeqVector,
    Shape,
    ShiftOperator,
    apply_power,
    coarse_orbit_contains,
    d_witness,
    iterate,
    jmix_witness,
    orbit,
    prop32_operator,
    search_j_witness,
)
from orbitscope import limit_sets
from orbitscope.errors import IndexSetMismatch, ModeMismatch, SearchFailed
from orbitscope.numeric import Mode
from orbitscope.orbits import ball_counts

from conftest import outside_domain, shift_operators

Z, N = IndexSet.INTEGERS, IndexSet.NATURALS


def searches(T, x, y, d, norm_tag):
    """Both J searches for y from x at bound d, schedule (1, 1/2)."""
    return [lambda: search_j_witness(T, x, y, d, EpsSchedule((1, Fraction(1, 2))), 1000,
                                     norm_tag=norm_tag),
            lambda: jmix_witness(T, x, y, d, 2, 1, 1000, norm_tag=norm_tag)]


@pytest.fixture
def no_attempt_or_proof(monkeypatch):
    """A search that builds its stops or runs an attempt fails the test."""
    def forbidden(*args):
        raise AssertionError("a search on a refused input went on")
    for name in ("_StructuralStops", "_greedy_attempt", "_real_sup_attempt"):
        monkeypatch.setattr(limit_sets, name, forbidden)


def blocks(*bands):
    return ShiftOperator(Shape.BLOCK_DIRECT_SUM, Z, blocks=tuple(
        Block(band, "backward", Constant(w)) for band, w in bands))


# x = e_1 + e_7 has its source 7 in no band of either operator
GAP_X = SeqVector.from_entries(Z, {1: 1, 7: 1})
HALVING_BANDS = blocks((Band(0, 4), Fraction(1, 2)), (Band(10, None), Fraction(1, 2)))
DOUBLING_BAND = blocks((Band(0, 4), 2))


@pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
def test_a_source_in_no_band_gets_no_decay_proof(no_attempt_or_proof, norm_tag):
    # each search gave a decay-bound proof at k0 = 1
    y = SeqVector.basis(Z, 0, 100)
    for search in searches(HALVING_BANDS, GAP_X, y, 1, norm_tag):
        with pytest.raises(IndexSetMismatch, match="index 7 lies in no band"):
            search()
    with pytest.raises(IndexSetMismatch, match="index 7 lies in no band"):
        d_witness(HALVING_BANDS, GAP_X, y, 1, 10, EpsSchedule.reciprocal(2), 1000,
                  norm_tag=norm_tag)


@pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
def test_y_over_the_other_index_set_gets_no_tail_proof(no_attempt_or_proof, norm_tag):
    # each search gave a tail-bound proof at coordinate -1
    x, y = SeqVector.basis(Z, 0), SeqVector.basis(N, 0, 100)
    for search in searches(prop32_operator(), x, y, Fraction(1, 4), norm_tag):
        with pytest.raises(IndexSetMismatch):
            search()


@pytest.mark.parametrize("d", [Fraction(1, 4), 2])
@pytest.mark.parametrize("norm_tag", list(NormTag), ids=lambda n: n.value)
def test_mixed_modes_are_refused(no_attempt_or_proof, norm_tag, d):
    # at d = 1/4 each search gave a tail-bound proof, at d = 2 a TypeError;
    # from the zero x built with no declared mode (exact), a TypeError at
    # both bounds, where x - y already raised ModeMismatch
    y = SeqVector.basis(Z, 3, 2, Mode.FLOAT64)
    for x in (SeqVector.basis(Z, 0), SeqVector.zero(Z)):
        for search in searches(prop32_operator(), x, y, d, norm_tag):
            with pytest.raises(ModeMismatch):
                search()


def test_horizon_zero_refuses_what_every_power_refuses():
    # iterate, orbit and both scans answered at horizon 0 for an x that
    # apply_power refuses at every power
    y = SeqVector.basis(Z, 0, 5)
    calls = [lambda: next(iterate(DOUBLING_BAND, GAP_X, 0)),
             lambda: orbit(DOUBLING_BAND, GAP_X, 0),
             lambda: coarse_orbit_contains(DOUBLING_BAND, GAP_X, 1, y, 0, NormTag.PINF),
             lambda: ball_counts(DOUBLING_BAND, GAP_X, y, 1, [0], NormTag.PINF),
             *(lambda n=n: apply_power(DOUBLING_BAND, n, GAP_X) for n in range(3))]
    for call in calls:
        with pytest.raises(IndexSetMismatch, match="index 7 lies in no band"):
            call()


DOMAIN_WEIGHTS = [2, Fraction(1, 3), Fraction(-7, 5), (1, 1), (0, Fraction(1, 2))]


@settings(max_examples=200, deadline=None)
@given(T=shift_operators(DOMAIN_WEIGHTS), other_set=st.integers(0, 4),
       raw=st.dictionaries(st.integers(-8, 13) | st.sampled_from([7, 10]),
                           st.sampled_from([1, Fraction(-5, 3), (2, -1)]), max_size=4),
       mode=st.sampled_from(list(Mode)), norm_tag=st.sampled_from(list(NormTag)),
       K=st.integers(0, 6))
def test_one_domain_rule(T, other_set, raw, mode, norm_tag, K):
    # x over the other index set now and then, or with a source at 7 (Z)
    # or 10 (N), gaps of BLOCK_BANDS: every entry point raises
    # IndexSetMismatch exactly when the oracle finds x outside T's domain
    index_set = T.index_set
    if other_set == 0:
        index_set = N if index_set is Z else Z
    x = SeqVector.from_entries(index_set, {i: v for i, v in raw.items()
                                           if index_set.contains(i)}, mode)
    y = SeqVector.basis(index_set, 2, 3, mode)
    schedule = EpsSchedule.reciprocal(2)
    calls = [lambda: apply_power(T, K, x),
             lambda: list(iterate(T, x, K)),
             lambda: orbit(T, x, K, norm_tag),
             lambda: coarse_orbit_contains(T, x, 1, y, K, norm_tag),
             lambda: ball_counts(T, x, y, 1, [K], norm_tag),
             lambda: search_j_witness(T, x, y, 1, schedule, 20, norm_tag=norm_tag),
             lambda: jmix_witness(T, x, y, 1, 2, 1, 20, norm_tag=norm_tag),
             lambda: d_witness(T, x, y, 1, K, schedule, 20, norm_tag=norm_tag)]
    refused = outside_domain(T, x)
    for call in calls:
        with pytest.raises(IndexSetMismatch) if refused else contextlib.nullcontext():
            with contextlib.suppress(SearchFailed):  # not found, or proved out of reach
                call()
