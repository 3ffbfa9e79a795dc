"""Tests for curve extraction, discriminants, and singularity detection."""

from fractions import Fraction

import pytest

from conftest import F, bf, bidouble_cover, char_poly_by_elimination, ep, rand_binform, rng_for, up
from oracles import (
    NonDepressedCubicError,
    annihilating_by_matrix_powers,
    decompose_section,
    euclid_singular_eta,
    triple_singularity_test,
    triple_test_cubic,
)
from speccover import exactalg, spectral
from speccover.covers import (
    SectionData,
    make_cyclic_triple,
    make_double_cover,
    make_standard_cyclic,
    mult_matrix,
)
from speccover.errors import (
    DegreeError,
    InternalCheckError,
    NonReducedCurveError,
    PullbackSectionError,
    ShapeError,
    SingularityNotRepresentableError,
)
from speccover.exactalg import (
    BinForm,
    EtaPoly,
    ExtElem,
    ProjPoint,
    UniPoly,
    annihilates_unit,
    factor_rational,
    reduce_mod,
    vanishing_order,
)
from speccover.spectral import (
    CharData,
    EtaForm,
    SingularPoint,
    SpectralCurve,
    annihilating_poly,
    arithmetic_genus,
    cubic_delta,
    depressed_cubic_parts,
    discriminant_eta,
    double_cover_singularities,
    eta_discriminant,
    invariant_sections,
    singular_locus,
    spectral_curve,
)

S, T = BinForm.s(), BinForm.t()


def section(r, d, comps):
    return SectionData(make_standard_cyclic(r), d, comps)


def conic_form(f: BinForm) -> EtaForm:
    d = f.degree + 1
    return EtaForm(d, [-(S * T * f * f), BinForm.zero(d), BinForm.const(1)])


def point_set(points):
    return {sp.locus_key() for sp in points}


# ---------------------------------------------------------------------------
# characteristic data


def test_eta_form_degree_checks():
    with pytest.raises(DegreeError):
        EtaForm(1, [BinForm.const(1), BinForm.const(1)])
    with pytest.raises(ShapeError):
        EtaForm(1, [bf(1, [1, 0]), bf(0, [0])])


def test_eta_form_roundtrip_and_product():
    f = conic_form(bf(1, [1, 1]))
    assert EtaForm.from_chart(f.dehomogenize(0), f.twist, 0).coeffs == f.coeffs
    assert EtaForm.from_chart(f.dehomogenize(1), f.twist, 1).coeffs == f.coeffs
    square = f * f
    assert square.degree == 4
    assert square.coeff(0) == (S * T * bf(1, [1, 1]) ** 2) ** 2
    assert (f**2).coeffs == square.coeffs


def test_conic_invariant_sections():
    rng = rng_for("conic")
    for d in range(1, 5):
        f = rand_binform(rng, d - 1, nonzero=True)
        data = invariant_sections(section(2, d, {1: f}))
        assert data.elementary[0] == BinForm.zero(d)
        assert data.elementary[1] == -(S * T * f * f)
        assert data.char_form().coeffs == conic_form(f).coeffs


def test_general_double_invariant_sections():
    f = bf(2, [1, -2, 3])
    g = bf(1, [1, 1])
    data = invariant_sections(section(2, 2, {0: f, 1: g}))
    # (eta - f)^2 - st g^2
    assert data.signed_coefficient(1) == -(f * 2)
    assert data.signed_coefficient(2) == f * f - S * T * g * g


def test_triple_invariant_sections():
    f = bf(1, [2, 1])
    g = bf(1, [1, -1])
    data = invariant_sections(section(3, 2, {1: f, 2: g}))
    assert data.elementary[0] == BinForm.zero(2)
    assert data.elementary[1] == -(S * T * f * g * 3)
    assert data.elementary[2] == S * T * T * f**3 + S * S * T * g**3


def test_general_cyclic_triple_curve():
    a = bf(1, [1, 2])
    b = bf(1, [1, -1])
    alg = make_cyclic_triple(a, b)
    g = bf(1, [1, 3])
    h = bf(1, [0, 1])
    sec = SectionData(alg, 2, {1: g, 2: h})
    data = invariant_sections(sec)
    assert data.elementary[1] == -(a * b * g * h * 3)
    assert data.elementary[2] == a * a * b * g**3 + a * b * b * h**3
    delta = eta_discriminant(data.char_form())
    assert delta == (a * b) ** 2 * (a * g**3 - b * h**3) ** 2 * 27


def test_char_oracle_elimination_small():
    rng = rng_for("elim")
    for _ in range(15):
        r = rng.randint(1, 4)
        d = rng.randint(1, 3)
        sec = decompose_section(r, d, rand_binform(rng, r * d))
        data = invariant_sections(sec)
        assert data.char_form().dehomogenize(0) == char_poly_by_elimination(sec)


def test_invariant_sections_rank_one():
    h = bf(2, [1, 0, 4])
    data = invariant_sections(section(1, 2, {0: h}))
    assert data.elementary == (h,)
    assert data.char_form().coeffs == (-h, BinForm.const(1))


# ---------------------------------------------------------------------------
# annihilating polynomials


def test_annihilating_pullback():
    h0 = bf(2, [1, 2, 3])
    sec = section(2, 2, {0: h0})
    out = annihilating_poly(sec, invariant_sections(sec))
    assert out.degree == 1
    assert out.coeffs == (-h0, BinForm.const(1))


def test_annihilating_degree4_support2():
    g = bf(1, [1, 1])
    sec = section(4, 2, {2: g})
    out = annihilating_poly(sec, invariant_sections(sec))
    assert out.degree == 2
    assert out.coeffs == (-(S * T * g * g), BinForm.zero(2), BinForm.const(1))


def test_annihilating_generic_triple_is_char():
    sec = section(3, 2, {1: bf(1, [2, 1]), 2: bf(1, [1, -1])})
    char = invariant_sections(sec)
    assert annihilating_poly(sec, char).coeffs == char.char_form().coeffs


def test_annihilating_matches_matrix_power_oracle():
    rng = rng_for("annihilating-oracle")
    sections = []
    for r in range(2, 9):
        d = 1 if r > 6 else 2
        for _ in range(2):
            support = rng.sample(range(r), rng.randint(1, r))
            comps = {k: rand_binform(rng, d if k == 0 else d - 1, nonzero=True) for k in support}
            sections.append(section(r, d, comps))
    sections.append(section(6, 2, {2: bf(1, [1, 2]), 4: bf(1, [-1, 1])}))
    sections.append(section(8, 1, {0: bf(1, [1, 1]), 4: BinForm.const(3)}))
    triple = make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 3]))
    sections.append(SectionData(triple, 2, {0: bf(2, [1, 0, 1]), 1: bf(1, [2, -1]), 2: bf(1, [1, 1])}))
    double = make_double_cover(bf(2, [-1, 0, 1]))
    sections.append(SectionData(double, 2, {0: bf(2, [0, 1, 1]), 1: bf(1, [1, -2])}))
    sections.append(
        SectionData(bidouble_cover(), 2, {(0, 0): bf(2, [1, 0, -1]), (1, 0): bf(1, [1, 1]), (1, 1): bf(1, [2, -1])})
    )
    for sec in sections:
        char = invariant_sections(sec)
        assert annihilating_poly(sec, char).coeffs == annihilating_by_matrix_powers(sec, char).coeffs


def test_annihilating_refuses_an_unreduced_square(monkeypatch):
    # r = 4 with support {2} has char = mu^2.  With the exponent forced to
    # the wrong k = 1, the root is char itself, which annihilates the matrix
    # (Cayley-Hamilton) and is char^1, so only the squarefree certificate at
    # the witness base can refuse it
    monkeypatch.setattr(exactalg, "_fibre_exponent", lambda fibre: 1)
    with pytest.raises(InternalCheckError, match="not squarefree"):
        spectral_curve(section(4, 2, {2: bf(1, [1, 1])}))


def test_annihilation_check_refuses_a_perturbed_minimal_polynomial(monkeypatch):
    sec = section(4, 2, {1: bf(1, [1, 2]), 2: bf(1, [0, 1]), 3: bf(1, [-1, 1])})
    minimal = spectral_curve(sec).annihilating
    for chart in (0, 1):
        mat = mult_matrix(sec, chart)
        m = minimal.dehomogenize(chart)
        assert annihilates_unit(mat, m)
        assert not annihilates_unit(mat, m + EtaPoly.one())
    # chart 1 is checked in spectral, after the chart-0 result
    original = spectral.min_poly_matrix

    def perturbed(a, char):
        minimal, base = original(a, char)
        return minimal + EtaPoly.one(), base

    monkeypatch.setattr(spectral, "min_poly_matrix", perturbed)
    with pytest.raises(InternalCheckError, match="chart 1"):
        annihilating_poly(sec, invariant_sections(sec))


def test_spectral_curve_bundles_consistently():
    sec = section(4, 2, {2: bf(1, [1, 1])})
    curve = spectral_curve(sec)
    assert curve.char.rank == 4
    assert curve.annihilating.degree == 2
    assert not curve.integral
    assert spectral_curve(section(1, 2, {0: bf(2, [1, 0, 1])})).integral


def test_spectral_curve_zero_section():
    curve = spectral_curve(section(3, 2, {}))
    assert curve.annihilating.degree == 1
    with pytest.raises(NonReducedCurveError):
        singular_locus(curve)


def test_singular_locus_refuses_non_squarefree_polynomial():
    # r = 4 with support {2}: the characteristic polynomial is the square of
    # the annihilating one, so its eta-discriminant vanishes identically
    curve = spectral_curve(section(4, 2, {2: bf(1, [1, 1])}))
    assert curve.char.char_form() == curve.annihilating * curve.annihilating
    unreduced = SpectralCurve(curve.char, curve.char.char_form())
    with pytest.raises(NonReducedCurveError, match="not squarefree"):
        singular_locus(unreduced)


# ---------------------------------------------------------------------------
# discriminants


def test_discriminant_conic_unit():
    # Res(eta^2 + c, 2 eta) = 4c, so the conic discriminant is -4st f^2
    f = bf(1, [1, 2])
    curve = spectral_curve(section(2, 2, {1: f}))
    assert discriminant_eta(curve) == S * T * f * f * -4


def test_discriminant_triple_matches_printed_form():
    f = bf(1, [2, 1])
    g = bf(1, [1, -1])
    curve = spectral_curve(section(3, 2, {1: f, 2: g}))
    delta = discriminant_eta(curve)
    assert delta == (S * T) ** 2 * (T * f**3 - S * g**3) ** 2 * 27


def test_discriminant_eta_degree_zero_rejected():
    with pytest.raises(DegreeError):
        eta_discriminant(EtaForm(2, [BinForm.const(5)]))


def test_cubic_delta_examples():
    f = bf(1, [2, 1])
    g = bf(1, [1, -1])
    a = -(S * T * f * g * 3)
    b = -(S * T * T * f**3 + S * S * T * g**3)
    assert cubic_delta(a, b) == (S * T) ** 2 * (T * f**3 - S * g**3) ** 2 * 27
    assert cubic_delta(BinForm.zero(2), BinForm.zero(3)) == BinForm.zero(6)
    c = bf(1, [1, 1])
    assert cubic_delta(c * c * -3, c**3 * 2) == BinForm.zero(6)
    with pytest.raises(DegreeError):
        cubic_delta(bf(1, [1, 0]), bf(1, [0, 1]))


def test_depressed_cubic_parts():
    # (eta - c)^3 depresses to mu^3 with shift c
    c = bf(1, [1, 2])
    cubic = EtaForm(1, [-(c**3), c * c * 3, -(c * 3), BinForm.const(1)])
    shift, a, b = depressed_cubic_parts(cubic)
    assert shift == c
    assert a == BinForm.zero(2)
    assert b == BinForm.zero(3)
    with pytest.raises(DegreeError):
        depressed_cubic_parts(conic_form(bf(0, [1])))


# ---------------------------------------------------------------------------
# singular locus


def test_singular_locus_conic_node():
    # eta^2 - st(s+t)^2: one node over [1:-1] at height 0
    curve = spectral_curve(section(2, 2, {1: bf(1, [1, 1])}))
    pts = singular_locus(curve)
    assert len(pts) == 1
    assert pts[0].point == ProjPoint.of(1, -1)
    assert pts[0].eta == 0


def test_singular_locus_smooth_conic():
    curve = spectral_curve(section(2, 1, {1: bf(0, [1])}))
    assert singular_locus(curve) == []


def test_singular_locus_point_at_infinity():
    # g = t makes [1:0] the only zero of g
    curve = spectral_curve(section(2, 2, {1: bf(1, [1, 0])}))
    pts = singular_locus(curve)
    assert len(pts) == 1
    assert pts[0].point == ProjPoint.of(1, 0)
    assert pts[0].chart == 1
    assert pts[0].eta == 0


def test_singular_locus_node_at_infinity_off_the_branch_locus():
    # the branch form s^2 + t^2 misses [1:0], so a node there gives the
    # discriminant -4 t^2 (s^2 + t^2) order exactly 2 at [1:0]
    cover = make_double_cover(bf(2, [1, 0, 1]))
    curve = spectral_curve(SectionData(cover, 2, {(1,): bf(1, [1, 0])}))
    assert vanishing_order(eta_discriminant(curve.annihilating), ProjPoint.of(1, 0)) == 2
    pts = singular_locus(curve)
    assert [(p.chart, p.point, p.eta) for p in pts] == [(1, ProjPoint.of(1, 0), 0)]


def test_singular_locus_extension_point():
    # g = s^2 + t^2 vanishes on a conjugate pair; the node sits over w^2 + 1
    f = bf(3, [1, 0, 0, 0])
    g = bf(2, [1, 0, 1])
    curve = spectral_curve(section(2, 3, {0: f, 1: g}))
    pts = singular_locus(curve)
    assert len(pts) == 1
    assert pts[0].modulus == up(1, 0, 1)
    assert isinstance(pts[0].eta, ExtElem)
    # eta = f at the locus: f = t^3 reduces to 1 mod w^2+1 on chart 0
    assert pts[0].eta.value == UniPoly.one()


def test_extension_singular_eta_matches_euclid_oracle():
    # seeded r = 4-6 sections with two characters in their support; their
    # discriminants carry repeated factors of degree >= 2 over which the
    # residue-field gcds run
    rng = rng_for("extension-eta")

    def outcome(fn, f, p):
        try:
            return fn(f, p)
        except SingularityNotRepresentableError:
            return "not representable"

    loci, points = 0, 0
    while loci < 10:
        r, d = rng.randint(4, 6), rng.randint(1, 2)
        support = rng.sample(range(r), 2)
        sec = section(r, d, {c: rand_binform(rng, d if c == 0 else d - 1, nonzero=True) for c in support})
        form = spectral_curve(sec).annihilating
        if form.degree < 2:
            continue
        f = form.dehomogenize(0)
        _, factors = factor_rational(eta_discriminant(form).dehomogenize(0))
        for p, mult in factors:
            if mult >= 2 and p.degree() >= 2:
                got = outcome(spectral._extension_singular_eta, f, p)
                assert got == outcome(euclid_singular_eta, f, p), (r, d, sec.components, p)
                loci += 1
                points += isinstance(got, ExtElem)
    assert points >= 5


def test_extension_singular_eta_reads_off_a_repeated_value():
    # over K = Q[w]/(w^2 + 1): gcd(f, f_eta, f_w) is (eta - w)^2 for
    # f = (eta - w)^3, so eta0 comes from its eta coefficient -2w, scaled by
    # 1/2; for f = (eta^2 - w^2)^2 it is eta^2 + 1 = (eta - w)(eta + w), two
    # values that one residue-field element cannot represent
    mod = up(1, 0, 1)
    line = ep(up(0, -1), 1)
    assert spectral._extension_singular_eta(line**3, mod) == reduce_mod(up(0, 1), mod)
    with pytest.raises(SingularityNotRepresentableError):
        spectral._extension_singular_eta(ep(up(0, 0, -1), 0, 1) ** 2, mod)


def test_singular_locus_unrepresentable_eta():
    # (eta^2 - 2t^2)^2 - s^3 t is singular at w = 0 with eta = +-sqrt(2)
    coeffs = [
        T**4 * 4 - S**3 * T,
        BinForm.zero(3),
        T * T * -4,
        BinForm.zero(1),
        BinForm.const(1),
    ]
    form = EtaForm(1, coeffs)
    e2 = form.coeff(2)
    char = CharData(4, 1, [BinForm.zero(1), e2, BinForm.zero(3), form.coeff(0)])
    curve = SpectralCurve(char, form)
    with pytest.raises(SingularityNotRepresentableError):
        singular_locus(curve)


def test_singular_locus_refutes_colliding_branch_points():
    # ((eta - t)^2 - st)((eta + t)^2 - st): both components branch over
    # [0:1], so the discriminant picks up w^2 there, yet the Jacobian check
    # refutes that candidate.  The components actually cross at ([1:1], 0)
    # and ([1:0], 0) only.

    one = BinForm.const(1)
    t = T
    left = EtaForm(1, [t * t - S * T, t * -2, one])
    right = EtaForm(1, [t * t - S * T, t * 2, one])
    form = left * right
    coeffs = [form.coeff(4 - i) for i in range(1, 5)]
    elem = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs, start=1)]
    curve = SpectralCurve(CharData(4, 1, elem), form)
    pts = singular_locus(curve)
    assert [sp.point for sp in pts] == [ProjPoint.of(1, 1), ProjPoint.of(1, 0)]
    assert all(sp.eta == 0 for sp in pts)
    assert ProjPoint.of(0, 1) not in {sp.point for sp in pts}


def test_singular_points_sorted_canonically():
    # two nodes: g = (s - t)(s - 2t) gives rational points [1:1] and [2:1]
    g = bf(2, [2, -3, 1])
    curve = spectral_curve(section(2, 3, {1: g}))
    pts = singular_locus(curve)
    keys = [sp.locus_key() for sp in pts]
    assert keys == sorted(keys)
    assert [sp.point for sp in pts] == [ProjPoint.of(1, 1), ProjPoint.of(2, 1)]


# ---------------------------------------------------------------------------
# specialized criteria


def test_triple_test_case_a():
    out = triple_singularity_test(up(0, 1), up(0, 0, 1), 0)
    assert out.status == "singular-case-a"
    assert out.point.point == ProjPoint.of(0, 1)
    assert out.point.eta == 0


def test_triple_test_smooth():
    out = triple_singularity_test(up(1, 1), up(0, 1), 0)
    assert out.status == "smooth"
    assert out.point is None


def test_triple_test_case_b():
    # eta^3 - 3(1+w)^2 eta + 2(1+w)^3 = (eta - (1+w))^2 (eta + 2(1+w))
    a = up(1, 1) ** 2 * -3
    b = up(1, 1) ** 3 * 2
    out = triple_singularity_test(a, b, 0)
    assert out.status == "singular-case-b"
    assert out.point.eta == 1


def test_triple_test_over_modulus():
    # same double-root pattern centered at the conjugate pair w^2 + 1 = 0
    p = up(1, 0, 1)
    a = p * p * -3
    b = p**3 * 2
    out = triple_singularity_test(a, b, p)
    assert out.status == "singular-case-a" or out.status == "singular-case-b"
    # a vanishes at the locus, b vanishes triply: case (a)
    assert out.status == "singular-case-a"
    assert out.point.modulus == p
    assert out.point.eta.value.is_zero()


def test_triple_test_case_b_extension_eta():
    # shift the case-b pattern so eta = w is only defined mod w^2 + 1
    p = up(1, 0, 1)
    w = up(0, 1)
    a = w * w * -3
    b = w**3 * 2
    # delta vanishes identically, a(w) != 0 mod p
    out = triple_singularity_test(a, b, p)
    assert out.status == "singular-case-b"
    assert out.point.eta.value == w


def test_triple_test_cubic_gate():
    with pytest.raises(NonDepressedCubicError):
        triple_test_cubic(ep(0, up(0, 1), 1, 1), 0)
    with pytest.raises(DegreeError):
        triple_test_cubic(ep(1, 1), 0)
    out = triple_test_cubic(ep(up(0, 0, 1), up(0, 1), 0, 1), 0)
    assert out.status == "singular-case-a"


def test_triple_test_agrees_with_locus():
    rng = rng_for("lemma")
    hits = 0
    for _ in range(25):
        d = rng.randint(1, 3)
        f = rand_binform(rng, d - 1)
        g = rand_binform(rng, d - 1)
        sec = section(3, d, {1: f, 2: g})
        if sec.is_zero():
            continue
        curve = spectral_curve(sec)
        if curve.annihilating.degree != 3:
            continue
        pts = singular_locus(curve)
        rational = {
            sp.point: sp.eta for sp in pts if sp.is_rational() and sp.point.b != 0
        }
        shift, a, b = depressed_cubic_parts(curve.annihilating)
        assert shift.is_zero()  # traceless multiplication matrix
        for w0 in (F(0), F(1), F(-1), F(2), F(1, 2)):
            out = triple_singularity_test(a, b, w0)
            point = ProjPoint.of(w0, 1)
            if out.status == "smooth":
                assert point not in rational
            else:
                hits += 1
                assert rational[point] == out.point.eta
    assert hits > 0


def test_double_cover_predictor_examples():
    st = S * T
    f = bf(2, [1, 1, 1])
    pts = double_cover_singularities(f, bf(1, [1, 1]), st)
    assert len(pts) == 1
    assert pts[0].point == ProjPoint.of(1, -1)
    assert pts[0].eta == f.dehomogenize(0).evaluate(-1)
    assert pts[0].certificate == "prop-gen-double"
    assert point_set(pts) == point_set(singular_locus(spectral_curve(section(2, 2, {0: f, 1: bf(1, [1, 1])}))))
    assert double_cover_singularities(bf(1, [1, 2]), BinForm.const(3), st) == []
    assert singular_locus(spectral_curve(section(2, 1, {0: bf(1, [1, 2]), 1: BinForm.const(3)}))) == []


def test_double_cover_predictor_worse_than_node():
    st = S * T
    g = bf(2, [1, 2, 1])  # (s + t)^2, double zero but a single point
    f = bf(3, [0, 1, 0, 0])
    pts = double_cover_singularities(f, g, st)
    assert len(pts) == 1
    assert pts[0].point == ProjPoint.of(1, -1)
    assert point_set(pts) == point_set(singular_locus(spectral_curve(section(2, 3, {0: f, 1: g}))))


def test_double_cover_predictor_guards():
    st = S * T
    with pytest.raises(PullbackSectionError):
        double_cover_singularities(bf(1, [1, 0]), bf(0, [0]), st)
    with pytest.raises(ShapeError):
        double_cover_singularities(bf(2, [1, 1, 1]), bf(1, [1, 1]), S * S)
    with pytest.raises(DegreeError):
        double_cover_singularities(bf(2, [1, 1, 1]), bf(1, [1, 1]), S * T * S * T)


def test_double_cover_predictor_random_cross_validation():
    rng = rng_for("gendouble")
    st = S * T
    done = 0
    while done < 25:
        d = rng.randint(1, 4)
        f = rand_binform(rng, d)
        g = rand_binform(rng, d - 1, nonzero=True)
        pts = double_cover_singularities(f, g, st)
        sec = SectionData(make_standard_cyclic(2), d, {0: f, 1: g})
        assert point_set(pts) == point_set(singular_locus(spectral_curve(sec)))
        done += 1


# ---------------------------------------------------------------------------
# genus


def test_genus_values():
    assert [arithmetic_genus(3, d) for d in range(1, 11)] == [3 * d - 2 for d in range(1, 11)]
    assert [arithmetic_genus(2, d) for d in range(1, 6)] == [d - 1 for d in range(1, 6)]
    assert all(arithmetic_genus(1, d) == 0 for d in range(1, 6))
    with pytest.raises(DegreeError):
        arithmetic_genus(0, 1)


def test_genus_counts_conic_nodes():
    # g with d-1 distinct rational zeros gives exactly d-1 nodes
    for d, g in [(2, bf(1, [1, 1])), (3, bf(2, [0, 1, 1])), (4, bf(3, [0, -1, 0, 1]))]:
        curve = spectral_curve(section(2, d, {1: g}))
        pts = singular_locus(curve)
        total = sum(1 if sp.is_rational() else sp.modulus.degree() for sp in pts)
        assert total == d - 1 == arithmetic_genus(2, d)
