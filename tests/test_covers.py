"""Tests for the cover-algebra layer."""

import re
from fractions import Fraction

import pytest

from conftest import bf, bidouble_cover, rand_binform, rng_for, up
from oracles import (
    add_sections,
    block_matrix_by_classes,
    decompose_section,
    expand_section,
    is_pullback,
    mult_matrix_by_forms,
)
from speccover.covers import (
    AbelianGroup,
    CoverAlgebra,
    SectionData,
    SplitBundle,
    is_standard_cyclic,
    make_cyclic_triple,
    make_double_cover,
    make_standard_cyclic,
    mult_matrix,
    pushforward_line_bundle,
    validate_algebra,
)
from speccover.errors import DegreeError, ShapeError, UnsupportedCoverError
from speccover.exactalg import BinForm, PolyMatrix, UniPoly


def section(r, d, comps):
    return SectionData(make_standard_cyclic(r), d, comps)


# ---------------------------------------------------------------------------
# group and algebra basics


def test_group_basics():
    g = AbelianGroup((4,))
    assert g.order == 4
    assert g.elements() == [(0,), (1,), (2,), (3,)]
    assert g.add((3,), (2,)) == (1,)
    assert g.as_char(7) == (3,)
    trivial = AbelianGroup(())
    assert trivial.order == 1
    assert trivial.elements() == [()]


def test_group_rejects_small_factors():
    with pytest.raises(ShapeError):
        AbelianGroup((1,))


def test_standard_cyclic_r1_is_trivial():
    alg = make_standard_cyclic(1)
    assert alg.degree == 1
    assert alg.characters() == [()]
    assert validate_algebra(alg).ok


def test_standard_cyclic_r2_structure():
    alg = make_standard_cyclic(2)
    st = BinForm.s() * BinForm.t()
    assert alg.structure_form(1, 1) == st
    assert alg.twist(1) == 1
    assert validate_algebra(alg).ok


def test_standard_cyclic_r3_structure():
    alg = make_standard_cyclic(3)
    assert alg.structure_form(1, 1) == BinForm.t()
    assert alg.structure_form(2, 2) == BinForm.s()
    assert alg.structure_form(1, 2) == BinForm.s() * BinForm.t()


def test_validate_standard_cyclic_through_8():
    for r in range(1, 9):
        rep = validate_algebra(make_standard_cyclic(r))
        assert rep.ok, rep.violation


def test_is_standard_cyclic():
    assert is_standard_cyclic(make_standard_cyclic(5))
    assert not is_standard_cyclic(make_double_cover(bf(2, [0, 0, 1])))


def test_unit_form_is_constant_one():
    alg = make_standard_cyclic(4)
    assert alg.structure_form(0, 3) == BinForm.const(1)


def test_general_cyclic_triple_valid():
    a = bf(1, [1, 1])
    b = bf(1, [-1, 2])
    alg = make_cyclic_triple(a, b)
    assert alg.twist(1) == 1 and alg.twist(2) == 1
    rep = validate_algebra(alg)
    assert rep.ok
    assert rep.branch_degree == 4


def test_cyclic_triple_unbalanced_degrees():
    # deg a = 4, deg b = 1 gives l_1 = 3, l_2 = 2
    a = bf(4, [1, 0, 0, 0, 1])
    b = bf(1, [2, 1])
    alg = make_cyclic_triple(a, b)
    assert alg.twist(1) == 3 and alg.twist(2) == 2
    assert validate_algebra(alg).ok
    with pytest.raises(DegreeError):
        make_cyclic_triple(bf(1, [1, 1]), bf(2, [1, 1, 1]))


def test_validate_catches_broken_associativity():
    # replace c_{1,2} by a^2 with a != b: degrees still fit, products do not
    a = BinForm.s()
    b = BinForm.t()
    alg = CoverAlgebra(
        AbelianGroup((3,)),
        {1: 1, 2: 1},
        {(1, 1): a, (2, 2): b, (1, 2): a * a},
    )
    rep = validate_algebra(alg)
    assert not rep.ok
    assert "associativity" in rep.violation
    assert rep.branch_degree == 4


def test_validate_catches_degree_slip():
    alg = CoverAlgebra(
        AbelianGroup((2,)),
        {1: 1},
        {(1, 1): bf(1, [1, 1])},
    )
    rep = validate_algebra(alg)
    assert not rep.ok
    assert "deg" in rep.violation


def test_double_cover_constructor():
    branch = bf(4, [0, 1, 2, 1, 0])
    alg = make_double_cover(branch)
    assert alg.twist(1) == 2
    assert validate_algebra(alg).ok
    with pytest.raises(DegreeError):
        make_double_cover(bf(3, [1, 0, 0, 1]))


# ---------------------------------------------------------------------------
# section decomposition


def test_decompose_triple_xyy():
    # x y^2 sits in class 1 with cofactor 1
    sec = decompose_section(3, 1, bf(3, [0, 1, 0, 0]))
    assert sec.components == {(1,): BinForm.const(1)}


def test_decompose_double_examples():
    sec = decompose_section(2, 2, bf(4, [0, 0, 1, 0, 0]))  # x^2 y^2
    assert sec.components == {(0,): BinForm.s() * BinForm.t()}
    sec = decompose_section(2, 2, bf(4, [0, 0, 0, 1, 0]))  # x^3 y
    assert sec.components == {(1,): BinForm.s()}


def test_decompose_degree_mismatch():
    with pytest.raises(DegreeError):
        decompose_section(2, 2, bf(3, [1, 0, 0, 1]))


def test_decompose_zero_section():
    sec = decompose_section(3, 2, BinForm.zero(6))
    assert sec.is_zero()
    assert is_pullback(sec)


def test_decompose_expand_roundtrip_random():
    rng = rng_for("roundtrip")
    for _ in range(80):
        r = rng.randint(1, 6)
        d = rng.randint(0, 4)
        sigma = rand_binform(rng, r * d)
        sec = decompose_section(r, d, sigma)
        assert expand_section(sec) == sigma


def test_expand_requires_standard_cover():
    alg = make_cyclic_triple(bf(1, [1, 1]), bf(1, [1, -1]))
    sec = SectionData(alg, 1, {1: BinForm.const(2)})
    with pytest.raises(UnsupportedCoverError):
        expand_section(sec)


def test_section_degree_validation():
    with pytest.raises(DegreeError):
        section(2, 2, {1: bf(2, [1, 0, 1])})  # needs degree 1
    with pytest.raises(DegreeError):
        section(2, 0, {1: BinForm.const(1)})  # class 1 empty at d = 0
    sec = section(2, 2, {1: bf(1, [0, 0])})  # zero form dropped
    assert sec.is_zero()


def test_add_sections():
    x = section(2, 2, {0: bf(2, [1, 0, 0]), 1: bf(1, [1, 1])})
    y = section(2, 2, {1: bf(1, [-1, -1]), 0: bf(2, [0, 1, 0])})
    total = add_sections(x, y)
    assert total.components == {(0,): bf(2, [1, 1, 0])}
    with pytest.raises(ShapeError):
        add_sections(x, section(2, 3, {}))


def test_is_pullback():
    assert is_pullback(section(2, 1, {0: bf(1, [2, 3])}))
    assert not is_pullback(section(2, 1, {1: BinForm.const(1)}))
    assert is_pullback(section(3, 2, {}))


# ---------------------------------------------------------------------------
# multiplication matrices


def test_mult_matrix_conic_shape():
    f = bf(2, [3, -1, 2])
    sec = section(2, 3, {1: f})
    mat = mult_matrix(sec)
    fw = f.dehomogenize(0)
    w = UniPoly.x()
    assert mat == PolyMatrix([[UniPoly.zero(), w * fw], [fw, UniPoly.zero()]])


def test_mult_matrix_triple_shape():
    f = bf(1, [1, 1])
    g = bf(1, [2, -1])
    sec = section(3, 2, {1: f, 2: g})
    mat = mult_matrix(sec)
    fw, gw = f.dehomogenize(0), g.dehomogenize(0)
    w, z = UniPoly.x(), UniPoly.zero()
    assert mat == PolyMatrix([[z, w * gw, w * fw], [fw, z, w * gw], [gw, fw, z]])


def test_mult_matrix_pullback_is_scalar():
    h0 = bf(2, [1, 2, 3])
    sec = section(3, 2, {0: h0})
    mat = mult_matrix(sec)
    hw = h0.dehomogenize(0)
    for i in range(3):
        for j in range(3):
            assert mat.entry(i, j) == (hw if i == j else UniPoly.zero())


def test_mult_matrix_other_chart():
    f = bf(2, [3, -1, 2])
    sec = section(2, 3, {1: f})
    mat = mult_matrix(sec, chart=1)
    fw = f.dehomogenize(1)
    w = UniPoly.x()
    assert mat == PolyMatrix([[UniPoly.zero(), w * fw], [fw, UniPoly.zero()]])


def test_mult_matrix_additive_random():
    rng = rng_for("multadd")
    for _ in range(30):
        r = rng.randint(1, 5)
        d = rng.randint(1, 3)
        x = decompose_section(r, d, rand_binform(rng, r * d))
        y = decompose_section(r, d, rand_binform(rng, r * d))
        lhs = mult_matrix(add_sections(x, y))
        rows = zip(mult_matrix(x).rows, mult_matrix(y).rows)
        assert lhs.rows == tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in rows)


def _rational_form(rng, degree):
    return BinForm(degree, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(degree + 1)])


def _random_section(rng, cover, d):
    """A section of twist d on the cover with rational coefficients, each
    character carrying a component with probability 2/3."""
    comps = {}
    for rho in cover.characters():
        want = d - cover.twist(rho)
        if want >= 0 and rng.random() < 2 / 3:
            comps[rho] = _rational_form(rng, want)
    return SectionData(cover, d, comps)


def test_mult_matrix_matches_form_by_form_oracle():
    # the coefficient-list construction against UniPoly products of the
    # structure forms, on every kind of cover and on both charts
    rng = rng_for("mult-matrix-by-forms")
    sections = []
    for r in range(1, 9):
        cover = make_standard_cyclic(r)
        for _ in range(16):
            sec = _random_section(rng, cover, rng.randint(1, 3))
            assert mult_matrix(sec, 0) == block_matrix_by_classes(sec)
            sections.append(sec)
    for _ in range(32):
        branch = _rational_form(rng, 2 * rng.randint(1, 2))
        if branch.is_zero():
            continue
        cover = make_double_cover(branch)
        sections.append(_random_section(rng, cover, cover.twist(1) + rng.randint(0, 2)))
    for _ in range(32):
        da = rng.randint(1, 3)
        a, b = _rational_form(rng, da), _rational_form(rng, da + 3 * rng.randint(0, 1))
        if a.is_zero() or b.is_zero():
            continue
        cover = make_cyclic_triple(a, b)
        sections.append(_random_section(rng, cover, max(cover.twist(1), cover.twist(2)) + rng.randint(0, 1)))
    bidouble = bidouble_cover()
    assert validate_algebra(bidouble)
    for _ in range(32):
        sections.append(_random_section(rng, bidouble, rng.randint(1, 3)))
    assert len(sections) >= 200
    for sec in sections:
        for chart in (0, 1):
            assert mult_matrix(sec, chart) == mult_matrix_by_forms(sec, chart)


def test_mult_matrix_names_a_missing_structure_form():
    full = bidouble_cover()
    a, b = (1, 0), (0, 1)
    forms = {key: form for key, form in full.structure_forms.items() if key != (b, a)}
    cover = CoverAlgebra(full.group, full.twist_degrees, forms)
    assert not validate_algebra(cover)
    sec = SectionData(cover, 1, {a: BinForm.const(2)})
    for chart in (0, 1):
        with pytest.raises(ShapeError, match=re.escape(f"pair ({a}, {b})")):
            mult_matrix(sec, chart)
        with pytest.raises(ShapeError, match=re.escape(f"pair ({a}, {b})")):
            mult_matrix_by_forms(sec, chart)


# ---------------------------------------------------------------------------
# pushforward degrees


def test_pushforward_examples():
    assert pushforward_line_bundle(2, 0).degrees == (0, -1)
    assert pushforward_line_bundle(3, 0).degrees == (0, -1, -1)
    assert pushforward_line_bundle(3, 4).degrees == (1, 1, 0)


def test_pushforward_euler_random():
    rng = rng_for("euler")
    for _ in range(60):
        r = rng.randint(1, 8)
        m = rng.randint(-9, 9)
        degs = pushforward_line_bundle(r, m).degrees
        assert sum(a + 1 for a in degs) == m + 1
        assert all(degs[k] == (m - k) // r for k in range(r))


def test_split_bundle_invariants():
    b = SplitBundle([2, 0, -1])
    assert b.rank == 3
    with pytest.raises(ShapeError):
        SplitBundle([])
