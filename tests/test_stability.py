"""Tests for Hilbert polynomials, subsheaf search, and stability verdicts."""

from fractions import Fraction
from math import gcd

import pytest

from conftest import F, bf, char_poly_by_elimination, rand_binform, rng_for, up
from oracles import (
    block_matrix_by_classes,
    compose,
    eigen_records_by_kernel,
    eval_poly,
    lift_series_root,
    polynomial_branches_by_lifting,
    series_inv,
    shift,
    truncate,
)
from speccover.covers import SectionData, SplitBundle, make_standard_cyclic, mult_matrix
from speccover.errors import DegreeError, InternalCheckError, PullbackSectionError, UnsupportedCoverError
from speccover.exactalg import BinForm, PolyMatrix, UniPoly, char_poly_matrix
from speccover.stability import (
    HilbertPoly,
    certify_integrality,
    double_cover_verdict,
    gieseker_verdict,
    graded_degrees,
    hilbert_poly,
    invariant_subsheaf_search,
    kernel_basis,
    polynomial_eta_roots,
    precedes,
    pushforward_relation_check,
)
from speccover.exactalg import EtaPoly
from speccover.spectral import spectral_curve


def section(r, d, comps):
    return SectionData(make_standard_cyclic(r), d, comps)


def roots_of(sec):
    return polynomial_eta_roots(sec, spectral_curve(sec))


def subsheaves(m_degrees, sec):
    return invariant_subsheaf_search(m_degrees, sec, roots_of(sec))


def integrality_of(sec):
    return certify_integrality(sec, spectral_curve(sec))


def conic(f):
    return section(2, f.degree + 1, {1: f})


# ---------------------------------------------------------------------------
# Hilbert polynomials and the ordering


def test_hilbert_poly_line_bundle():
    for a in (-2, 0, 3):
        assert hilbert_poly(SplitBundle([a]), 1) == HilbertPoly(F(1), F(a + 1))


def test_hilbert_poly_average():
    assert hilbert_poly(SplitBundle([0, 2]), 1) == HilbertPoly(F(1), F(2))


def test_hilbert_poly_ample_degree():
    assert hilbert_poly(SplitBundle([4]), 3) == HilbertPoly(F(3), F(5))
    with pytest.raises(DegreeError):
        hilbert_poly(SplitBundle([0]), 0)


def test_hilbert_evaluate():
    p = hilbert_poly(SplitBundle([1, 0]), 2)
    assert p.evaluate(3) == F(6) + F(3, 2)


def test_precedes_examples():
    k1 = HilbertPoly(F(1), F(1))
    k2 = HilbertPoly(F(1), F(2))
    assert precedes(k1, k2, strict=True)
    assert precedes(k1, k1) and not precedes(k1, k1, strict=True)
    assert precedes(HilbertPoly(F(1), F(5)), HilbertPoly(F(2), F(1)), strict=True)


def test_precedes_is_strict_partial_order():
    rng = rng_for("precedes-order")
    polys = [
        HilbertPoly(F(rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(12)
    ]
    for p in polys:
        assert not precedes(p, p, strict=True)
        for q in polys:
            for r in polys:
                if precedes(p, q, strict=True) and precedes(q, r, strict=True):
                    assert precedes(p, r, strict=True)


# ---------------------------------------------------------------------------
# the pushforward relation


def test_relation_small_examples():
    rep = pushforward_relation_check(2, 0)
    assert rep.ok and rep.lhs == HilbertPoly(F(2), F(1))
    rep = pushforward_relation_check(3, 4)
    assert rep.ok and rep.rhs == HilbertPoly(F(3), F(5))
    assert pushforward_relation_check(1, -5).ok


def test_relation_sweep():
    for r in range(1, 6):
        for m in range(-6, 7):
            rep = pushforward_relation_check(r, m)
            assert rep.ok, (r, m, str(rep.lhs), str(rep.rhs))


# ---------------------------------------------------------------------------
# block matrices: the pushforward of every O(a) carries the chart-0
# multiplication matrix, whatever a is


def test_block_matrix_at_zero_twist_matches_algebra_matrix():
    rng = rng_for("block-zero")
    for r in (1, 2, 3, 5):
        d = rng.randint(1, 3)
        comps = {k: rand_binform(rng, d if k == 0 else d - 1) for k in range(r)}
        sec = section(r, d, comps)
        assert block_matrix_by_classes(sec) == mult_matrix(sec, 0)


def test_block_matrix_char_poly_independent_of_twist():
    sec = section(3, 2, {1: bf(1, [1, -1]), 2: bf(1, [0, 2])})
    want = char_poly_by_elimination(sec)
    assert char_poly_matrix(mult_matrix(sec, 0)) == want


def test_block_matrix_degree_bookkeeping():
    rng = rng_for("block-degrees")
    from speccover.covers import pushforward_line_bundle

    for _ in range(10):
        r = rng.randint(2, 5)
        d = rng.randint(1, 3)
        a = rng.randint(-4, 4)
        comps = {k: rand_binform(rng, d if k == 0 else d - 1) for k in range(r)}
        sec = section(r, d, comps)
        m = pushforward_line_bundle(r, a).degrees
        mat = mult_matrix(sec, 0)
        for i in range(r):
            for j in range(r):
                entry = mat.rows[i][j]
                if not entry.is_zero():
                    assert entry.degree() <= d + m[i] - m[j]


def test_graded_degrees_concatenates():
    assert graded_degrees(SplitBundle([0, 1]), 2) == (0, -1, 0, 0)


# ---------------------------------------------------------------------------
# polynomial eigenvalue branches


def test_conic_has_no_polynomial_roots():
    assert roots_of(conic(bf(1, [1, 1]))) == ()


def test_pullback_root_is_the_scalar():
    sec = section(2, 1, {0: bf(1, [2, 3])})
    assert roots_of(sec) == (up(2, 3),)


def test_zero_section_root():
    assert roots_of(section(3, 2, {})) == (UniPoly.zero(),)


def test_identity_cover_root():
    sec = section(1, 2, {0: bf(2, [1, 0, -1])})
    assert roots_of(sec) == (up(1, 0, -1),)


def test_quartic_support_two_has_no_roots():
    assert roots_of(section(4, 2, {2: bf(1, [1, 2])})) == ()


def test_root_search_passes_twenty_ramified_bases():
    # the discriminant vanishes at w = 0, ±1, ..., ±9, 10, the first twenty
    # values of 0, 1, -1, 2, ...; the twenty-first, -10, is unramified
    vals = [0] + [s * k for k in range(1, 10) for s in (1, -1)] + [10]
    f = up(1)
    for v in vals:
        f = f * up(-v, 1)
    sec = conic(BinForm(20, list(f.coeffs)))
    assert spectral_curve(sec).witness_base == -10
    assert roots_of(sec) == ()


# the Newton lift of tests/oracles.py, which finds every polynomial branch
# of any eta-polynomial, reducible or not


def test_oracle_compose_and_shift():
    p = up(1, -1, 2)  # 1 - w + 2w^2
    inner = up(3, 1)
    assert compose(p, inner).evaluate(0) == p.evaluate(3)
    assert shift(p, 5).evaluate(-5) == p.evaluate(0)


def test_series_inverse():
    u = up(1, 1)  # 1 + w
    v = series_inv(u, 6)
    assert truncate(u * v, 6) == up(1)


def test_series_lift_recovers_polynomial_branch():
    # (eta - w^2)(eta^2 - 3w) has the polynomial branch w^2 through w0 = 1
    f = EtaPoly((up(0, 0, 0, 3), up(0, -3), up(0, 0, -1), up(1)))
    shifted = EtaPoly(tuple(shift(c, 1) for c in f.coeffs))
    lam = lift_series_root(shifted, Fraction(1), 7)
    cand = compose(truncate(lam, 3), up(-1, 1))
    assert cand == up(0, 0, 1)
    assert eval_poly(f, cand).is_zero()


def test_root_search_finds_a_branch_of_degree_exactly_d():
    # (eta - lam)(eta^2 - 3w) with deg lam = d, lifted at w0 = 1: the lift
    # must reach order d + 1 to see lam's top coefficient.  No section gives
    # such a reducible curve (see test_polynomial_branches_match_the_lift)
    for d in (1, 2, 3):
        lam = up(*([1] + [0] * (d - 1) + [1]))  # w^d + 1
        f = EtaPoly((up(0, 3) * lam, up(0, -3), -lam, up(1)))
        assert polynomial_branches_by_lifting(f, 1, d) == (lam,)


def test_polynomial_branches_match_the_lift():
    # on the standard cover the reduced equation is irreducible over Q(w):
    # the lift finds no branch past eta-degree one, the read-off agrees
    # with it everywhere, and the curve is integral exactly when g = 1
    rng = rng_for("branches-by-lifting")
    seen = set()
    for _ in range(200):
        r = rng.randint(2, 6)
        d = rng.randint(1, 4)
        support = rng.sample(range(r), rng.randint(1, r))
        comps = {k: rand_binform(rng, d if k == 0 else d - 1, nonzero=True) for k in support}
        sec = section(r, d, comps)
        curve = spectral_curve(sec)
        lifted = polynomial_branches_by_lifting(
            curve.annihilating.dehomogenize(0), curve.witness_base, d
        )
        if curve.annihilating.degree > 1:
            assert lifted == ()
        assert polynomial_eta_roots(sec, curve) == lifted
        g = gcd(r, *(k for k in support if k))
        assert certify_integrality(sec, curve).certified == (g == 1)
        seen.add((g == 1, curve.annihilating.degree == 1))
    assert seen == {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# kernel vectors


def test_kernel_of_rank_one_matrix():
    mat = PolyMatrix([[up(0, 1), up(1)], [up(0, 0, 1), up(0, 1)]])
    basis = kernel_basis(mat)
    assert basis == [(up(1), up(0, -1))]


def test_kernel_of_zero_and_identity():
    zero = PolyMatrix([[up(), up()], [up(), up()]])
    assert kernel_basis(zero) == [(up(1), up()), (up(), up(1))]
    ident = PolyMatrix([[up(1), up()], [up(), up(1)]])
    assert kernel_basis(ident) == []


def test_kernel_two_dimensional():
    mat = PolyMatrix([[up(1), up(1), up(1)], [up(), up(), up()], [up(), up(), up()]])
    basis = kernel_basis(mat)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec[1:], vec[0]) == up()


# ---------------------------------------------------------------------------
# subsheaf search


def test_search_rank_one_conic_is_empty():
    for m in (-2, 0, 3):
        records = subsheaves(SplitBundle([m]), conic(bf(1, [1, 1])))
        assert records == ()


def test_search_blocks_for_two_summands():
    records = subsheaves(SplitBundle([0, 1]), conic(bf(1, [1, 1])))
    kinds = [(rec.kind, rec.indices) for rec in records]
    assert kinds == [("block", (0,)), ("block", (1,))]
    assert records[0].degrees == (0, -1)
    assert records[0].hilbert == HilbertPoly(F(1), F(1, 2))
    assert records[1].degrees == (0, 0)
    assert records[1].hilbert == HilbertPoly(F(1), F(1))


def test_search_pullback_blocks_and_eigen():
    sec = section(2, 1, {0: bf(1, [2, 3])})
    records = subsheaves(SplitBundle([0, 1]), sec)
    kinds = [rec.kind for rec in records]
    assert kinds == ["block", "block", "eigen"]
    eigen = records[-1]
    assert eigen.eigenvalue == up(2, 3)
    assert eigen.rank == 1
    assert eigen.degrees == (0,)
    assert [not v.is_zero() for v in eigen.vector].count(True) == 1


def test_eigen_records_match_the_kernel_oracle():
    # a pullback acts as the scalar h_0, so the eigen line read off the
    # graded degrees must be the one the kernel of M - h_0 I gives
    rng = rng_for("eigen-by-kernel")
    seen = set()
    for n in range(150):
        r = rng.randint(1, 6)
        d = rng.randint(0, 3)
        sec = section(r, d, {} if n % 10 == 0 else {0: rand_binform(rng, d, nonzero=True)})
        m_degrees = SplitBundle([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        ample = rng.randint(1, 3)
        roots = roots_of(sec)
        records = invariant_subsheaf_search(m_degrees, sec, roots, ample)
        eigen = [rec for rec in records if rec.kind == "eigen"]
        assert len(eigen) == 1 and records[-1] is eigen[0]
        assert eigen == eigen_records_by_kernel(m_degrees, sec, roots, ample), (r, d, m_degrees)
        seen.add((r == 1, sec.is_zero()))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_search_refuses_a_root_the_section_does_not_act_by():
    # the eigen line rests on M - lambda I = 0: a nontrivial component or
    # an eigenvalue other than h_0 breaks it
    bundle = SplitBundle([0, 1])
    h0 = bf(1, [2, 3])
    for sec, lam in [
        (section(2, 1, {1: bf(0, [1])}), up()),
        (section(2, 1, {0: h0, 1: bf(0, [1])}), up(2, 3)),
        (section(3, 2, {2: bf(1, [1, 1])}), up()),
        (section(2, 1, {0: h0}), up(2, 4)),
        (section(3, 2, {}), up(1)),
    ]:
        with pytest.raises(InternalCheckError):
            invariant_subsheaf_search(bundle, sec, (lam,))
    assert invariant_subsheaf_search(bundle, section(2, 1, {0: h0}), (up(2, 3),))[-1].kind == "eigen"


def test_search_record_ranks_are_proper():
    rng = rng_for("search-proper")
    for _ in range(10):
        degs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        sec = section(2, 2, {1: rand_binform(rng, 1, nonzero=True)})
        records = subsheaves(SplitBundle(degs), sec)
        total = 2 * len(degs)
        for rec in records:
            assert 0 < rec.rank < total


# ---------------------------------------------------------------------------
# verdicts


def test_gieseker_conic_rank_one_stable():
    for m in (-2, 0, 1, 3):
        v, _, _ = gieseker_verdict(SplitBundle([m]), conic(bf(1, [1, 1])), 1)
        assert v.status == "stable"
        assert v.method == "prop-stability"
        assert v.witness is None


def test_gieseker_equal_summands_semistable():
    v, _, _ = gieseker_verdict(SplitBundle([2, 2]), conic(bf(1, [0, 1])), 1)
    assert v.status == "strictly-semistable"
    assert v.witness is not None
    assert v.witness.hilbert == HilbertPoly(F(1), F(3, 2))


def test_gieseker_unequal_summands_unstable():
    v, _, _ = gieseker_verdict(SplitBundle([0, 1]), conic(bf(1, [1, 1])), 1)
    assert v.status == "unstable"
    assert v.witness.kind == "block"
    assert v.witness.indices == (1,)
    assert precedes(HilbertPoly(F(1), F(3, 4)), v.witness.hilbert, strict=True)


def test_gieseker_quartic_counterexample_is_undetermined():
    v, _, _ = gieseker_verdict(SplitBundle([0]), section(4, 2, {2: bf(1, [1, 2])}), 1)
    assert v.status == "undetermined"
    assert any("power" in note for note in v.notes)


def test_gieseker_past_twenty_ramified_bases_is_stable():
    # the eigenvalue search lifts its roots at w = -10 (see above), finds no
    # polynomial branch, and the curve eta^2 = w f(w)^2 is integral
    vals = [0] + [s * k for k in range(1, 10) for s in (1, -1)] + [10]
    f = up(1)
    for v0 in vals:
        f = f * up(-v0, 1)
    sec = conic(BinForm(20, list(f.coeffs)))
    v, records, integrality = gieseker_verdict(SplitBundle([0]), sec, 1)
    assert records == ()
    assert integrality.certified
    assert (v.status, v.method, v.notes) == ("stable", "prop-stability", ())


def test_unstable_witness_dominates_total():
    rng = rng_for("witness-dominates")
    for _ in range(12):
        degs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
        sec = conic(rand_binform(rng, 2, nonzero=True))
        total = hilbert_poly(SplitBundle(graded_degrees(SplitBundle(degs), 2)), 1)
        v, _, _ = gieseker_verdict(SplitBundle(degs), sec, 1)
        if v.status == "unstable":
            assert precedes(total, v.witness.hilbert, strict=True)
        if v.status == "strictly-semistable":
            assert v.witness.hilbert == total


def test_double_cover_verdict_examples():
    sec = conic(bf(2, [1, 0, 1]))
    assert double_cover_verdict(SplitBundle([5]), sec).status == "stable"
    assert double_cover_verdict(SplitBundle([2, 2]), sec).status == "strictly-semistable"
    v = double_cover_verdict(SplitBundle([0, 1]), sec)
    assert v.status == "unstable"
    assert v.method == "prop-doublecover"
    assert v.witness.indices == (0,) or v.witness.indices == (1,)


def test_double_cover_verdict_guards():
    with pytest.raises(PullbackSectionError):
        double_cover_verdict(SplitBundle([1]), section(2, 1, {0: bf(1, [1, 1])}))
    with pytest.raises(UnsupportedCoverError):
        double_cover_verdict(SplitBundle([1]), section(3, 1, {1: bf(0, [1])}))


def test_proposition_cross_check_sample():
    rng = rng_for("prop-cross-check")
    for _ in range(25):
        rank = rng.randint(1, 3)
        degs = [rng.randint(-3, 3) for _ in range(rank)]
        d = rng.randint(1, 3)
        f = rand_binform(rng, d - 1, nonzero=True)
        sec = section(2, d, {1: f})
        if rng.random() < 0.4:
            sec = section(2, d, {0: rand_binform(rng, d), 1: f})
        lhs = double_cover_verdict(SplitBundle(degs), sec)
        rhs, _, _ = gieseker_verdict(SplitBundle(degs), sec, 1)
        assert lhs.status == rhs.status, (degs, lhs.status, rhs.status)


def test_scalar_invariance_of_verdicts():
    rng = rng_for("scalar-invariance")
    for _ in range(8):
        d = rng.randint(1, 3)
        f = rand_binform(rng, d - 1, nonzero=True)
        plain = section(2, d, {1: f})
        shifted = section(2, d, {0: rand_binform(rng, d, nonzero=True), 1: f})
        for degs in ([2], [1, 1], [0, 1], [-1, 2, 0]):
            a, _, _ = gieseker_verdict(SplitBundle(degs), plain, 1)
            b, _, _ = gieseker_verdict(SplitBundle(degs), shifted, 1)
            assert a.status == b.status


def test_certify_integrality():
    assert integrality_of(conic(bf(1, [1, 1]))).certified
    assert integrality_of(section(1, 2, {0: bf(2, [1, 1, 1])})).certified
    rep = integrality_of(section(2, 1, {0: bf(1, [1, 2])}))
    assert not rep.certified
    rep = integrality_of(section(4, 2, {2: bf(1, [1, 2])}))
    assert not rep.certified and "power" in rep.reasons[0]
