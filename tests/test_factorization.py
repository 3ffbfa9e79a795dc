"""Tests for factoring sections through intermediate covers."""

from fractions import Fraction

import pytest

from conftest import bf, rand_binform, rng_for
from oracles import eval_spectral_point, is_pullback
from speccover.covers import SectionData, make_double_cover, make_standard_cyclic
from speccover.errors import InvalidPointError, UnsupportedCoverError
from speccover.exactalg import BinForm, ProjPoint, poly_gcd
from speccover.factorization import (
    BIRATIONAL,
    PROPER,
    PULLBACK,
    birationality_verdict,
    intermediate_factorization,
)
from speccover.spectral import SpectralCurve, annihilating_poly, invariant_sections, spectral_curve


def section(r, d, comps):
    return SectionData(make_standard_cyclic(r), d, comps)


def factor(sec):
    return intermediate_factorization(sec, spectral_curve(sec))


def verdict(sec):
    curve = spectral_curve(sec)
    return birationality_verdict(intermediate_factorization(sec, curve), curve)


def rand_section(rng, r, d):
    comps = {}
    for k in range(r):
        if rng.random() < 0.5:
            deg = d if k == 0 else d - 1
            comps[k] = rand_binform(rng, deg)
    return section(r, d, comps)


# ---------------------------------------------------------------------------
# worked examples


def test_degree_four_support_two():
    g = bf(1, [1, 2])
    rep = factor(section(4, 2, {2: g}))
    assert rep.subcover_index == 2
    assert rep.quotient_degree == 2
    assert rep.verdict == PROPER
    assert rep.tau.cover.degree == 2
    assert rep.tau.component(1) == g


def test_degree_five_single_component_is_birational():
    rep = factor(section(5, 1, {1: BinForm.const(1)}))
    assert rep.subcover_index == 1
    assert rep.quotient_degree == 5
    assert rep.verdict == BIRATIONAL
    assert rep.tau.components == section(5, 1, {1: BinForm.const(1)}).components


def test_degree_six_support_two_four():
    h2 = bf(1, [1, 0])
    h4 = bf(1, [0, 1])
    rep = factor(section(6, 2, {2: h2, 4: h4}))
    assert rep.subcover_index == 2
    assert rep.quotient_degree == 3
    assert rep.tau.component(1) == h2
    assert rep.tau.component(2) == h4


def test_pullback_section_detected():
    h0 = bf(2, [1, -1, 2])
    rep = factor(section(3, 2, {0: h0}))
    assert rep.subcover_index == 3
    assert rep.quotient_degree == 1
    assert rep.verdict == PULLBACK
    assert rep.tau.cover.degree == 1
    assert rep.tau.component(0) == h0


def test_zero_section_counts_as_pullback():
    rep = factor(section(4, 1, {}))
    assert rep.subcover_index == 4
    assert rep.verdict == PULLBACK
    assert rep.tau.is_zero()


def test_mixed_support_with_pullback_part():
    # h_0 never contributes to the support gcd
    s = section(4, 2, {0: bf(2, [1, 1, 1]), 2: bf(1, [3, -1])})
    rep = factor(s)
    assert rep.subcover_index == 2
    assert rep.tau.component(0) == bf(2, [1, 1, 1])
    assert rep.tau.component(1) == bf(1, [3, -1])


def test_non_standard_cover_rejected():
    alg = make_double_cover(bf(2, [0, 1, 1]))
    with pytest.raises(UnsupportedCoverError):
        factor(SectionData(alg, 2, {1: bf(1, [1, 1])}))


# ---------------------------------------------------------------------------
# structural invariants


def test_subcover_index_invariants():
    rng = rng_for("factorization-invariants")
    for _ in range(40):
        r = rng.randint(1, 6)
        d = rng.randint(1, 3)
        sec = rand_section(rng, r, d)
        data = invariant_sections(sec)
        ann = annihilating_poly(sec, data)
        rep = intermediate_factorization(sec, SpectralCurve(data, ann))
        assert r % rep.subcover_index == 0
        assert rep.quotient_degree * rep.subcover_index == r
        assert (rep.subcover_index == r) == is_pullback(sec)
        assert (rep.subcover_index == 1) == (ann.degree == r)


def test_subcover_index_at_rank_eight():
    sec = section(8, 1, {2: bf(0, [1]), 6: bf(0, [2])})
    rep = factor(sec)
    assert rep.subcover_index == 2
    assert rep.quotient_degree == 4
    full = section(8, 1, {3: bf(0, [1])})
    assert factor(full).subcover_index == 1


def test_char_poly_is_power_of_reduced():
    rng = rng_for("factorization-power")
    seen_proper = 0
    for _ in range(40):
        r = rng.choice([2, 4, 6])
        sec = rand_section(rng, r, 2)
        char = invariant_sections(sec)
        reduced = annihilating_poly(sec, char)
        rep = intermediate_factorization(sec, SpectralCurve(char, reduced))
        assert (reduced**rep.subcover_index).coeffs == char.coeffs
        if 1 < rep.subcover_index < r:
            seen_proper += 1
    assert seen_proper > 0


def test_factored_section_recomputes_reduced_poly():
    rng = rng_for("factor-recompute")
    for _ in range(30):
        r = rng.choice([2, 3, 4, 6])
        d = rng.randint(1, 3)
        sec = rand_section(rng, r, d)
        data = invariant_sections(sec)
        reduced = annihilating_poly(sec, data)
        rep = intermediate_factorization(sec, SpectralCurve(data, reduced))
        again = invariant_sections(rep.tau)
        assert again.coeffs == reduced.coeffs


# ---------------------------------------------------------------------------
# evaluating points on the curve


def test_conic_point_example():
    sec = section(2, 1, {1: BinForm.const(1)})
    base, eta = eval_spectral_point(sec, ProjPoint.of(2, 1))
    assert base == ProjPoint.of(4, 1)
    assert eta == 2


def test_ramification_point_maps_to_zero_eta():
    sec = section(2, 2, {1: bf(1, [1, 1])})
    base, eta = eval_spectral_point(sec, ProjPoint.of(0, 1))
    assert base == ProjPoint.of(0, 1)
    assert eta == 0
    base, eta = eval_spectral_point(sec, ProjPoint.of(1, 0))
    assert base == ProjPoint.of(1, 0)
    assert eta == 0


def test_zero_section_evaluates_to_zero():
    sec = section(3, 1, {})
    _, eta = eval_spectral_point(sec, ProjPoint.of(5, 3))
    assert eta == 0


def test_eval_scaling_invariance():
    sec = section(3, 2, {0: bf(2, [1, 0, 2]), 1: bf(1, [1, -1])})
    a = eval_spectral_point(sec, ProjPoint.of(2, 3))
    b = eval_spectral_point(sec, ProjPoint.of(-2, -3))
    assert a == b


def test_eval_random_points_land_on_curve():
    # the on-curve identity is asserted inside eval_spectral_point; this
    # drives it across many sections and points, including infinity
    rng = rng_for("eval-points")
    for _ in range(50):
        r = rng.randint(1, 5)
        d = rng.randint(1, 3)
        sec = rand_section(rng, r, d)
        if rng.random() < 0.15:
            pt = ProjPoint.of(1, 0)
        else:
            pt = ProjPoint.of(rng.randint(-6, 6), rng.randint(1, 6))
        base, eta = eval_spectral_point(sec, pt)
        assert isinstance(base, ProjPoint)
        assert isinstance(eta, Fraction)


def test_invalid_point_rejected():
    with pytest.raises(InvalidPointError):
        ProjPoint.of(0, 0)


# ---------------------------------------------------------------------------
# birationality verdicts


def test_verdict_scalar_field():
    v = verdict(section(2, 1, {0: bf(1, [1, 1])}))
    assert v.kind == PULLBACK
    assert "scalar" in v.justification


def test_verdict_zero_section():
    v = verdict(section(2, 1, {}))
    assert v.kind == PULLBACK
    assert "zero" in v.justification


def test_verdict_birational_with_witness():
    v = verdict(section(2, 2, {1: bf(1, [0, 1])}))
    assert v.kind == BIRATIONAL
    assert v.witness_base is not None
    assert v.witness_base != 0  # w = 0 is always ramified here
    fibre = spectral_curve(section(2, 2, {1: bf(1, [0, 1])})).annihilating.dehomogenize(0)
    fibre = fibre.at_base(v.witness_base)
    assert fibre.degree() == 2 and poly_gcd(fibre, fibre.derivative()).degree() == 0


def test_verdict_proper_factorization_carries_tau():
    g = bf(1, [1, 5])
    v = verdict(section(4, 2, {2: g}))
    assert v.kind == PROPER
    assert v.tau.component(1) == g
    assert "degree-2" in v.justification


def test_witness_search_passes_ramified_bases():
    # branch values collide at w = 0..4; the search runs 0, 1, -1, 2, ...
    f = bf(5, [0, 24, -50, 35, -10, 1])  # w(w-1)(w-2)(w-3)(w-4) homogenized
    assert [f.dehomogenize(0).evaluate(k) for k in range(5)] == [0] * 5
    v = verdict(section(2, 6, {1: f}))
    assert v.kind == BIRATIONAL
    assert v.witness_base == -1
    assert v.justification == "support gcd is 1; fiber values are distinct over w = -1"
