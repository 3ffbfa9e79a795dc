"""Tests for the exact arithmetic kernel.

The reference values below were frozen from independent oracles written in
this file (permutation-expansion determinants, product-over-roots expansions)
before the library paths existed.
"""

from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from conftest import F, bf, bidouble_cover, ep, rand_binform, rand_unipoly, rng_for, up
from oracles import _euclid_divmod, euclid_kpoly_gcd, poly_xgcd, resultant_coeffs, sylvester_matrix, xgcd_inverse
from speccover import exactalg
from speccover.covers import SectionData, make_cyclic_triple, make_double_cover, make_standard_cyclic, mult_matrix
from speccover.errors import (
    DegreeError,
    InfiniteOrderError,
    InternalCheckError,
    ModulusError,
    NotInvertibleError,
    ShapeError,
    UndefinedResultantError,
)
from speccover.exactalg import (
    BinForm,
    EtaPoly,
    ExtElem,
    PolyMatrix,
    ProjPoint,
    UniPoly,
    char_poly_matrix,
    eta_gcd,
    factor_rational,
    homogenize,
    min_poly_matrix,
    poly_gcd,
    rational_roots,
    reduce_mod,
    resultant,
    vanishing_order,
)


def det_by_permutations(mat):
    """Independent oracle: Leibniz expansion, usable up to ~5x5."""
    n = len(mat)
    total = EtaPoly.zero()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = EtaPoly.one()
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def det_bareiss(mat):
    """Independent oracle: fraction-free Bareiss elimination over Q[w][eta],
    for sizes beyond the Leibniz expansion."""
    n = len(mat)
    m = [list(row) for row in mat]
    sign = 1
    prev = EtaPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return EtaPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = EtaPoly.zero()
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


# ---------------------------------------------------------------------------
# UniPoly basics


def test_unipoly_strips_trailing_zeros():
    assert up(1, 2, 0, 0) == up(1, 2)
    assert up(0, 0).is_zero()
    assert up().degree() == -1


def test_unipoly_arithmetic():
    p = up(1, 2)  # 1 + 2w
    q = up(0, 0, 3)  # 3w^2
    assert p + q == up(1, 2, 3)
    assert p - p == UniPoly.zero()
    assert p * q == up(0, 0, 3, 6)
    assert p**3 == up(1, 6, 12, 8)
    assert 2 * p == up(2, 4)
    assert p + 1 == up(2, 2)


def test_unipoly_divmod_roundtrip():
    rng = rng_for("divmod")
    for _ in range(200):
        a = rand_unipoly(rng, 6)
        b = rand_unipoly(rng, 4, nonzero=True)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()


def test_unipoly_exact_div_raises_on_remainder():
    with pytest.raises(DegreeError):
        up(1, 1).exact_div(up(0, 1))


def test_unipoly_evaluate_and_compose():
    p = up(1, -1, 2)  # 1 - w + 2w^2
    assert p.evaluate(F(1, 2)) == 1 - F(1, 2) + 2 * F(1, 4)
    inner = up(3, 1)
    assert p.compose(inner).evaluate(0) == p.evaluate(3)
    assert p.shift(5).evaluate(-5) == p.evaluate(0)


def test_poly_gcd_and_xgcd():
    a = up(-1, 0, 1)  # (w-1)(w+1)
    b = up(1, 2, 1)  # (w+1)^2
    assert poly_gcd(a, b) == up(1, 1)
    g, u, v = poly_xgcd(up(2, 1), up(1, 1))
    assert u * up(2, 1) + v * up(1, 1) == g
    assert g == UniPoly.one()


# ---------------------------------------------------------------------------
# factorization


def test_factor_rational_known():
    # w^4 - 1 = (w-1)(w+1)(w^2+1)
    unit, factors = factor_rational(up(-1, 0, 0, 0, 1))
    assert unit == 1
    assert factors == [(up(-1, 1), 1), (up(1, 1), 1), (up(1, 0, 1), 1)]


def test_factor_rational_random_reconstructs():
    rng = rng_for("factor")
    for _ in range(40):
        f = rand_unipoly(rng, 5, nonzero=True)
        unit, factors = factor_rational(f)
        rebuilt = UniPoly.const(unit)
        for p, m in factors:
            rebuilt = rebuilt * p**m
        assert rebuilt == f


def test_rational_roots():
    # roots 1/2 (double) and -3
    f = up(-1, 2) ** 2 * up(3, 1)
    roots = rational_roots(f)
    assert roots == [(F(-3), 1), (F(1, 2), 2)]


# ---------------------------------------------------------------------------
# binary forms, points, vanishing orders


def test_binform_shape_checks():
    with pytest.raises(ShapeError):
        BinForm(2, [1, 2])
    with pytest.raises(DegreeError):
        bf(1, [1, 1]) + bf(2, [1, 0, 1])


def test_binform_arithmetic_and_eval():
    s, t = BinForm.s(), BinForm.t()
    st = s * t
    assert st == bf(2, [0, 1, 0])
    f = bf(2, [3, -2, 1])  # 3t^2 - 2st + s^2
    assert f.evaluate(1, 1) == 2
    assert (s**2).coeffs == (0, 0, 1)
    assert (2 * f).evaluate(1, 0) == 2


def test_binform_dehomogenize_both_charts():
    f = bf(3, [1, 2, 0, -1])  # t^3 + 2st^2 - s^3
    assert f.dehomogenize(0) == up(1, 2, 0, -1)
    assert f.dehomogenize(1) == up(-1, 0, 2, 1)
    assert homogenize(f.dehomogenize(0), 3, 0) == f
    assert homogenize(f.dehomogenize(1), 3, 1) == f


def test_homogenize_overflow():
    with pytest.raises(DegreeError):
        homogenize(up(1, 1, 1), 1, 0)


def test_projpoint_normalization():
    assert ProjPoint.of(F(1, 2), F(1, 3)) == ProjPoint(3, 2)
    assert ProjPoint.of(-2, -4) == ProjPoint(1, 2)
    assert ProjPoint.of(0, -5) == ProjPoint(0, 1)
    with pytest.raises(Exception):
        ProjPoint.of(0, 0)


def test_vanishing_order_examples():
    # simple zero of st at [0:1]
    st = BinForm.s() * BinForm.t()
    assert vanishing_order(st, ProjPoint.of(0, 1)) == 1
    # st(s-t)^2 at [1:1] has order 2
    f = st * (BinForm.s() - BinForm.t()) ** 2
    assert vanishing_order(f, ProjPoint.of(1, 1)) == 2
    assert vanishing_order(f, ProjPoint.of(1, 0)) == 1
    assert vanishing_order(f, ProjPoint.of(0, 1)) == 1
    assert vanishing_order(f, ProjPoint.of(2, 1)) == 0
    with pytest.raises(InfiniteOrderError):
        vanishing_order(BinForm.zero(3), ProjPoint.of(1, 1))


def test_vanishing_order_additive_random():
    rng = rng_for("vanish")
    pts = [ProjPoint.of(1, 1), ProjPoint.of(0, 1), ProjPoint.of(1, 0), ProjPoint.of(-2, 3)]
    for _ in range(50):
        f = rand_binform(rng, rng.randint(1, 4), nonzero=True)
        g = rand_binform(rng, rng.randint(1, 4), nonzero=True)
        for p in pts:
            assert vanishing_order(f * g, p) == vanishing_order(f, p) + vanishing_order(g, p)


# ---------------------------------------------------------------------------
# resultants


def test_resultant_quadratic_vs_hand_sylvester():
    # Res_eta(eta^2 + c, 2*eta) for c = w: the 3x3 Sylvester matrix is
    #   [1 0 c]
    #   [2 0 0]
    #   [0 2 0]
    # whose cofactor expansion along the first row gives 0 - 0 + c*4 = 4c.
    c = up(0, 1)
    f = ep(c, 0, 1)
    fp = f.derivative()
    assert resultant(f, fp) == UniPoly.const(4) * c
    mat = sylvester_matrix(list(f.coeffs), list(fp.coeffs))
    mat = [[e if isinstance(e, EtaPoly) else EtaPoly.const(e) for e in row] for row in mat]
    assert det_by_permutations(mat) == EtaPoly.const(UniPoly.const(4) * c)


def test_resultant_eliminating_cover_coordinate():
    # Res_u(u^2 - w, eta - u) = (eta - sqrt(w))(eta + sqrt(w)) = eta^2 - w
    w = UniPoly.x()
    f = [EtaPoly.const(-w), EtaPoly.zero(), EtaPoly.one()]
    g = [EtaPoly.eta(), EtaPoly.const(-1)]
    out = resultant_coeffs(f, g)
    assert out == EtaPoly((-w, UniPoly.zero(), UniPoly.one()))


def test_resultant_with_constant_one():
    f = ep(up(1, 2), up(0, 1), 1)
    assert resultant(f, EtaPoly.one()) == UniPoly.one()


def test_resultant_zero_cases():
    with pytest.raises(UndefinedResultantError):
        resultant(EtaPoly.zero(), EtaPoly.zero())
    assert resultant(ep(1, 1), EtaPoly.zero()) == UniPoly.zero()


def test_resultant_matches_sylvester_det_random():
    rng = rng_for("res-sylvester")
    for _ in range(40):
        fc = [UniPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) for _ in range(rng.randint(2, 4))]
        gc = [UniPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) for _ in range(rng.randint(2, 4))]
        f, g = EtaPoly(fc), EtaPoly(gc)
        if f.is_zero() or g.is_zero():
            continue
        if f.degree() == 0 and g.degree() == 0:
            continue
        mat = sylvester_matrix(list(f.coeffs), list(g.coeffs))
        mat = [[EtaPoly.const(e) for e in row] for row in mat]
        expected = det_by_permutations(mat)
        assert EtaPoly.const(resultant(f, g)) == expected


def test_resultant_swap_sign():
    rng = rng_for("res-swap")
    for _ in range(30):
        f = EtaPoly([rand_unipoly(rng, 2) for _ in range(rng.randint(2, 4))])
        g = EtaPoly([rand_unipoly(rng, 2) for _ in range(rng.randint(2, 4))])
        if f.degree() < 1 or g.degree() < 1:
            continue
        lhs = resultant(f, g)
        rhs = resultant(g, f)
        if (f.degree() * g.degree()) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_resultant_multiplicative():
    rng = rng_for("res-mult")
    for _ in range(25):
        f = EtaPoly([rand_unipoly(rng, 1) for _ in range(rng.randint(2, 3))])
        g = EtaPoly([rand_unipoly(rng, 1) for _ in range(rng.randint(2, 3))])
        h = EtaPoly([rand_unipoly(rng, 1) for _ in range(rng.randint(2, 3))])
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_resultant_detects_common_root():
    # common factor (eta - w) forces resultant zero
    common = EtaPoly((UniPoly((0, -1)), UniPoly.one()))
    f = common * ep(1, 1)
    g = common * ep(up(2, 1), 0, 1)
    assert resultant(f, g) == UniPoly.zero()


def _conv(a, b):
    """Product of two ascending coefficient lists over the same ring."""
    out = [type(a[0]).zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _mul_add(q, g, rem):
    """Coefficient list of q*g + rem, for deg rem < deg g."""
    return [c + rem[i] if i < len(rem) else c for i, c in enumerate(_conv(q, g))]


def _as_eta(x):
    return x if isinstance(x, EtaPoly) else EtaPoly.const(x)


def _sylvester_det(fc, gc):
    return det_by_permutations([[_as_eta(e) for e in row] for row in sylvester_matrix(fc, gc)])


def test_resultant_known_value_swapped_odd_degrees():
    # deg f = 1 < deg g = 3: Res(f, g) = lc(f)^3 * g(1/(2w))
    #   = (2w^2 - w) + 2w(3w + 1) = w(8w + 1).
    w = UniPoly.x()
    f = ep(-1, 2 * w)
    g = ep(0, 0, 3 * w + 1, 2 * w * w - w)
    expected = w * up(1, 8)
    assert resultant(f, g) == expected
    assert _sylvester_det(list(f.coeffs), list(g.coeffs)) == EtaPoly.const(expected)
    assert resultant(g, f) == -expected


def test_resultant_coeffs_elimination_pairs_match_sylvester():
    # Eliminating u from (u^r - w, eta - sigma(u)) over EtaPoly coefficients,
    # as the characteristic-polynomial oracle does.  deg sigma <= r - 2 gives
    # a first-step degree gap delta >= 2; the reversed order at r = 3 with
    # deg sigma = 1 takes the deg f < deg g branch with odd*odd degrees.
    rng = rng_for("res-elimination")
    cases = [
        (3, (1,)), (3, (0, 1)), (3, (2,)), (3, (0, 1, 2)),
        (4, (1,)), (4, (0, 2)), (4, (1, 3)), (4, (3,)),
    ]
    for r, support in cases:
        for _ in range(2):
            f = [EtaPoly.zero()] * (r + 1)
            f[0] = EtaPoly.const(up(0, -1))
            f[r] = EtaPoly.one()
            g = [EtaPoly.zero()] * (max(support) + 1)
            g[0] = EtaPoly.eta()
            for k in support:
                g[k] = g[k] - EtaPoly.const(rand_unipoly(rng, 2, nonzero=True))
            for a, b in ((f, g), (g, f)):
                assert resultant_coeffs(a, b) == _sylvester_det(a, b)


@pytest.mark.parametrize("ring", ["UniPoly", "EtaPoly"])
def test_resultant_coeffs_gap_inside_the_sequence(ring):
    # f = q*g + rem with q a nonzero constant and deg rem <= deg g - 2: the
    # first step has delta = 0, and the pseudo-remainder it leaves drops two
    # or more degrees (delta >= 2 mid-sequence).
    rng = rng_for(f"res-inner-gap-{ring}")

    def coeff(nonzero=False):
        if ring == "UniPoly":
            return rand_unipoly(rng, 2, nonzero=nonzero)
        while True:
            c = EtaPoly([rand_unipoly(rng, 1) for _ in range(2)])
            if not nonzero or not c.is_zero():
                return c

    for _ in range(4):
        g = [coeff() for _ in range(3)] + [coeff(nonzero=True)]
        q = [coeff(nonzero=True)]
        rem = [coeff() for _ in range(rng.randint(0, 1))] + [coeff(nonzero=True)]
        f = _mul_add(q, g, rem)
        for a, b in ((f, g), (g, f)):
            assert _as_eta(resultant_coeffs(a, b)) == _sylvester_det(a, b)


def test_resultant_coeffs_gap_after_a_nonunit_step():
    # Degrees 5, 4, 2, ...: the gapped second step updates h from the
    # non-unit h = lc(g) left by the first (h <- lc^2 / h), and the later
    # steps divide by that h.  The 9x9 Sylvester determinant is beyond the
    # Leibniz oracle, so Bareiss (checked against it above) stands in.
    rng = rng_for("res-nonunit-gap")
    for _ in range(3):
        g = [rand_unipoly(rng, 1) for _ in range(4)] + [rand_unipoly(rng, 1, nonzero=True) * up(0, 1)]
        q = [rand_unipoly(rng, 1), rand_unipoly(rng, 1, nonzero=True)]
        rem = [rand_unipoly(rng, 1), rand_unipoly(rng, 1), rand_unipoly(rng, 1, nonzero=True)]
        f = _mul_add(q, g, rem)
        mat = [[EtaPoly.const(e) for e in row] for row in sylvester_matrix(f, g)]
        assert EtaPoly.const(resultant_coeffs(f, g)) == det_bareiss(mat)


def test_resultant_coeffs_common_factor_over_etapoly():
    # (u - eta) divides both polynomials: the remainder sequence reaches zero.
    rng = rng_for("res-common-factor")
    common = [-EtaPoly.eta(), EtaPoly.one()]
    for _ in range(3):
        a = [EtaPoly.const(up(0, -1)), EtaPoly.zero(), EtaPoly.one()]
        b = [EtaPoly.const(rand_unipoly(rng, 2)), EtaPoly.const(rand_unipoly(rng, 2, nonzero=True))]
        f, g = _conv(common, a), _conv(common, b)
        assert resultant_coeffs(f, g) == EtaPoly.zero()
        assert _sylvester_det(f, g) == EtaPoly.zero()


def test_resultant_by_interpolation_matches_the_sylvester_determinant():
    # rational coefficients; eta-degrees 1-4 against 0-3, so degree-0
    # operands on either side; leads that vanish at the sample points
    # w = 0 and w = 2 or at no integer; a planted common factor (resultant
    # zero) in every third pair
    rng = rng_for("res-interpolation")
    leads = [up(1), up(F(3, 2)), up(-2, 1), up(0, F(1, 3)), up(0, -1, 1), up(F(1, 2), 0, 1)]

    def rat_poly():
        return UniPoly([F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5])) for _ in range(rng.randint(1, 3))])

    def rand_eta(deg):
        return EtaPoly([rat_poly() for _ in range(deg)] + [rng.choice(leads)])

    zeros = 0
    for k in range(36):
        f, g = rand_eta(rng.randint(1, 4)), rand_eta(rng.randint(0, 3))
        if k % 3 == 0:
            common = EtaPoly((rat_poly(), rng.choice(leads)))
            f, g = f * common, g * common
        if k % 2:
            f, g = g, f
        want = det_bareiss([[EtaPoly.const(e) for e in row] for row in sylvester_matrix(list(f.coeffs), list(g.coeffs))])
        assert EtaPoly.const(resultant(f, g)) == want
        zeros += want.is_zero()
    assert zeros >= 12


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials


def test_det_paths_agree_random():
    rng = rng_for("det")
    for size in (2, 3, 4, 5):
        for _ in range(8):
            mat = [
                [EtaPoly([rand_unipoly(rng, 1) for _ in range(rng.randint(1, 2))]) for _ in range(size)]
                for _ in range(size)
            ]
            assert det_bareiss(mat) == det_by_permutations(mat)


def test_char_poly_identity_matrix():
    ident = PolyMatrix([[UniPoly.one() if i == j else UniPoly.zero() for j in range(3)] for i in range(3)])
    out = char_poly_matrix(ident)
    # (eta - 1)^3
    expected = EtaPoly((UniPoly.const(-1), UniPoly.one())) ** 3
    assert out == expected


def test_char_poly_double_cover_shape():
    # multiplication matrix [[0, w*f], [f, 0]] gives eta^2 - w*f^2
    f = up(2, -1)
    a = PolyMatrix([[UniPoly.zero(), UniPoly.x() * f], [f, UniPoly.zero()]])
    assert char_poly_matrix(a) == EtaPoly((-(UniPoly.x() * f * f), UniPoly.zero(), UniPoly.one()))


def test_char_poly_triple_cover_shape():
    # [[0, wg, wf], [f, 0, wg], [g, f, 0]] -> eta^3 - 3wfg*eta - (wf^3 + w^2 g^3)
    w = UniPoly.x()
    f = up(1, 1)
    g = up(-1, 2)
    a = PolyMatrix([
        [UniPoly.zero(), w * g, w * f],
        [f, UniPoly.zero(), w * g],
        [g, f, UniPoly.zero()],
    ])
    out = char_poly_matrix(a)
    expected = EtaPoly((
        -(w * f**3 + w**2 * g**3),
        -(UniPoly.const(3) * w * f * g),
        UniPoly.zero(),
        UniPoly.one(),
    ))
    assert out == expected


def _eta_minus(a):
    """The matrix eta * id - A over Q[w][eta], for the determinant oracles."""
    return [
        [EtaPoly((-a.entry(i, j), UniPoly.one() if i == j else UniPoly.zero())) for j in range(a.n)]
        for i in range(a.n)
    ]


def test_char_poly_methods_agree():
    rng = rng_for("charpoly")
    for size in (2, 3, 4, 7, 8):
        a = PolyMatrix([[rand_unipoly(rng, 1) for _ in range(size)] for _ in range(size)])
        assert char_poly_matrix(a) == det_bareiss(_eta_minus(a))


def _rand_rational_unipoly(rng, deg):
    """Degree exactly ``deg`` (-1 is zero), coefficients with denominators
    among 1, 2, 3, 4, 5, 7 and 12."""
    if deg < 0:
        return UniPoly.zero()
    cs = [F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7, 12))) for _ in range(deg)]
    return UniPoly(cs + [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))])


def _cover_matrices():
    """mult_matrix on both charts for standard covers r = 2-8, a cyclic
    triple, a branched double cover and an explicit Z/2 x Z/2 cover."""
    rng = rng_for("charpoly-covers")
    sections = []
    for r in range(2, 9):
        d = 1 if r > 5 else 2
        comps = {k: rand_binform(rng, d if k == 0 else d - 1, nonzero=True) for k in range(r)}
        sections.append(SectionData(make_standard_cyclic(r), d, comps))
    triple = make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 3]))
    sections.append(SectionData(triple, 2, {0: bf(2, [1, 0, 1]), 1: bf(1, [2, -1]), 2: bf(1, [1, 1])}))
    double = make_double_cover(bf(2, [-1, 0, 1]))
    sections.append(SectionData(double, 2, {0: bf(2, [0, 1, 1]), 1: bf(1, [1, -2])}))
    sections.append(
        SectionData(bidouble_cover(), 2, {(0, 0): bf(2, [1, 0, -1]), (1, 0): bf(1, [1, 1]), (1, 1): bf(1, [2, -1])})
    )
    return [mult_matrix(sec, chart) for sec in sections for chart in (0, 1)]


def test_char_poly_matches_bareiss_oracle():
    rng = rng_for("charpoly-oracle")
    mats = []
    for n in range(1, 9):
        for _ in range(2):
            top = rng.randint(0, 6)
            mats.append(PolyMatrix(
                [[_rand_rational_unipoly(rng, rng.randint(-1, top)) for _ in range(n)] for _ in range(n)]
            ))
    # entry degree e <= 0: zero and constant matrices
    mats.append(PolyMatrix([[UniPoly.zero()] * 3 for _ in range(3)]))
    mats.append(PolyMatrix([[UniPoly.const(F(i - j, i + j + 1)) for j in range(4)] for i in range(4)]))
    # w^3 + c_i on the diagonal: the eta^(5-i) coefficient has degree exactly 3i
    diag = [UniPoly((F(k, 3), 0, 0, 1)) for k in (-2, -1, 1, 2, 4)]
    diag_mat = PolyMatrix([[diag[i] if i == j else UniPoly.zero() for j in range(5)] for i in range(5)])
    out = char_poly_matrix(diag_mat)
    assert [out.coeff(5 - i).degree() for i in range(6)] == [0, 3, 6, 9, 12, 15]
    mats.append(diag_mat)
    mats.extend(_cover_matrices())
    for a in mats:
        assert char_poly_matrix(a) == det_bareiss(_eta_minus(a))


def test_interpolate_int_exact_or_refused():
    assert exactalg._interpolate_int([x**3 - 2 * x + 5 for x in range(4)]) == [5, -2, 0, 1]
    assert exactalg._interpolate_int([7]) == [7]
    assert exactalg._interpolate_int([]) == []
    # x(x - 1)/2 takes integer values at integers but has no integer coefficients
    with pytest.raises(InternalCheckError):
        exactalg._interpolate_int([0, 0, 1])


def test_char_poly_block_diagonal_multiplies():
    rng = rng_for("charblock")
    a = PolyMatrix([[rand_unipoly(rng, 1) for _ in range(2)] for _ in range(2)])
    b = PolyMatrix([[rand_unipoly(rng, 1) for _ in range(2)] for _ in range(2)])
    z = UniPoly.zero()
    big = PolyMatrix([
        [a.entry(0, 0), a.entry(0, 1), z, z],
        [a.entry(1, 0), a.entry(1, 1), z, z],
        [z, z, b.entry(0, 0), b.entry(0, 1)],
        [z, z, b.entry(1, 0), b.entry(1, 1)],
    ])
    assert char_poly_matrix(big) == char_poly_matrix(a) * char_poly_matrix(b)


def test_char_poly_rejects_non_square():
    with pytest.raises(ShapeError):
        PolyMatrix([[UniPoly.one(), UniPoly.zero()]])


# min_poly_matrix checks annihilation on the unit vector, which proves it only
# for a regular representation, so its inputs are cover multiplication matrices


def test_min_poly_of_repeated_double_cover_block():
    # r = 4 with support {2}: char = (eta^2 - w g^2)^2 must reduce to eta^2 - w g^2
    g = up(5, 1)
    w = UniPoly.x()
    a = mult_matrix(SectionData(make_standard_cyclic(4), 2, {2: bf(1, [5, 1])}), 0)
    out, _ = min_poly_matrix(a, char_poly_matrix(a))
    assert out == EtaPoly((-(w * g * g), UniPoly.zero(), UniPoly.one()))


def test_min_poly_scalar_matrix():
    # a section pulled back from the base multiplies by the scalar h
    h = up(1, 2)
    a = mult_matrix(SectionData(make_standard_cyclic(2), 1, {0: bf(1, [1, 2])}), 0)
    assert min_poly_matrix(a, char_poly_matrix(a))[0] == EtaPoly((-h, UniPoly.one()))


def test_min_poly_squarefree_and_divides_char():
    rng = rng_for("minpoly")
    for _ in range(10):
        r = rng.randint(2, 5)
        comps = {k: rand_binform(rng, 1 if k == 0 else 0) for k in range(r) if rng.random() < 0.6}
        a = mult_matrix(SectionData(make_standard_cyclic(r), 1, comps), rng.randint(0, 1))
        char = char_poly_matrix(a)
        minimal, _ = min_poly_matrix(a, char)
        # divides
        char.exact_div(minimal)
        # squarefree: gcd with derivative is constant
        assert eta_gcd(minimal, minimal.derivative()).degree() == 0


def test_min_poly_is_the_squarefree_part_by_eta_gcd():
    # min_poly_matrix takes an exact k-th root; the eta-gcd gives the
    # squarefree part independently.  Standard covers with gcd(r, support)
    # = k for k = 1..4, then the double, cyclic-triple and bidouble covers.
    # The witness is the first base of 0, 1, -1, ... where m is squarefree.
    rng = rng_for("kth-root-sqfree")
    cases = [(5, (1, 3), 1), (3, (0, 1, 2), 1), (4, (2,), 2), (6, (0, 2, 4), 2), (6, (3,), 3), (6, (0, 3), 3),
             (4, (0,), 4), (8, (4,), 4), (8, (0, 4), 4)]
    sections = []
    for r, support, k in cases:
        d = 2 if r <= 6 else 1
        comps = {j: rand_binform(rng, d if j == 0 else d - 1, nonzero=True) for j in support}
        sections.append((SectionData(make_standard_cyclic(r), d, comps), k))
    triple = make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 3]))
    sections.append((SectionData(triple, 2, {0: bf(2, [1, 0, 1]), 1: bf(1, [2, -1]), 2: bf(1, [1, 1])}), 1))
    double = make_double_cover(bf(2, [-1, 0, 1]))
    sections.append((SectionData(double, 2, {0: bf(2, [0, 1, 1]), 1: bf(1, [1, -2])}), 1))
    sections.append((SectionData(bidouble_cover(), 2, {(1, 0): bf(1, [1, 1]), (0, 1): bf(1, [2, -1])}), 1))
    walk = [F((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(40)]
    for sec, k in sections:
        for chart in (0, 1):
            a = mult_matrix(sec, chart)
            char = char_poly_matrix(a)
            g = eta_gcd(char, char.derivative())
            want = char if g.degree() == 0 else (char * g.lead).exact_div(g)
            minimal, base = min_poly_matrix(a, char)
            assert minimal == want
            assert minimal.degree() * k == char.degree()
            for w0 in walk[: walk.index(base) + 1]:
                fibre = minimal.at_base(w0)
                squarefree = poly_gcd(fibre, fibre.derivative()).degree() == 0
                assert squarefree == (w0 == base)


# ---------------------------------------------------------------------------
# quotient-ring elements


def test_ext_examples():
    i_mod = up(1, 0, 1)  # w^2 + 1
    w = reduce_mod(UniPoly.x(), i_mod)
    assert (w * w).value == UniPoly.const(-1)
    assert w.inv().value == -UniPoly.x()
    lin = up(-2, 1)  # w - 2
    w2 = reduce_mod(UniPoly.x(), lin)
    assert (w2 * w2 * w2).value == UniPoly.const(8)


def test_ext_modulus_mismatch():
    x = reduce_mod(up(0, 1), up(1, 0, 1))
    y = reduce_mod(up(0, 1), up(2, 0, 1))
    with pytest.raises(ModulusError):
        _ = x + y


def test_ext_inverse_random_field():
    rng = rng_for("ext")
    mod = up(1, 0, 1)  # irreducible, so every nonzero element inverts
    one = UniPoly.one()
    for _ in range(40):
        v = rand_unipoly(rng, 1)
        if v.is_zero():
            continue
        x = reduce_mod(v, mod)
        assert (x * x.inv()).value == one


def test_ext_non_invertible():
    mod = up(0, 0, 1)  # w^2: not irreducible, w is a zero divisor
    x = reduce_mod(up(0, 1), mod)
    with pytest.raises(NotInvertibleError):
        x.inv()


def _rand_monic(rng, k, rational):
    """Monic degree-k modulus; with ``rational`` the coefficients are
    fractions with denominators up to 6."""
    return UniPoly([F(rng.randint(-9, 9), rng.randint(1, 6) if rational else 1) for _ in range(k)] + [1])


def _rand_elem(rng, mod):
    k = mod.degree()
    return reduce_mod(UniPoly([F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(rng.randint(1, k))]), mod)


def test_ext_inverse_matches_bezout_oracle():
    rng = rng_for("ext-inverse")
    checked = 0
    for k in range(2, 17):
        for rational in (False, True):
            mod = _rand_monic(rng, k, rational)
            for _ in range(3):
                x = _rand_elem(rng, mod)
                if x.is_zero():
                    continue
                got = x.inv()
                assert got == xgcd_inverse(x)
                assert (x * got).value == UniPoly.one()
                checked += 1
    assert checked >= 80


def test_ext_zero_divisors_of_a_reducible_modulus():
    a = up(-2, 0, 0, 1)  # w^3 - 2
    b = UniPoly([F(5, 7), F(1, 3), 1])  # w^2 + w/3 + 5/7
    mod = a * b
    rng = rng_for("ext-zero-divisor")
    for factor in (a, b):
        for _ in range(4):
            x = reduce_mod(factor * rand_unipoly(rng, 1, nonzero=True), mod)
            with pytest.raises(NotInvertibleError):
                xgcd_inverse(x)
            with pytest.raises(NotInvertibleError):
                x.inv()
    unit = reduce_mod(a + b, mod)  # gcd(a + b, a b) = 1
    assert unit.inv() == xgcd_inverse(unit)


def _kpoly_mul(a, b):
    if not a or not b:
        return []
    out = [reduce_mod(UniPoly.zero(), a[0].modulus)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return exactalg._pl_trim(out)


def test_kpoly_gcd():
    mod = up(1, 0, 1)
    # over K = Q[w]/(w^2+1): gcd of (eta - w)(eta + 1) and (eta - w) is eta - w
    w = reduce_mod(UniPoly.x(), mod)
    one = reduce_mod(UniPoly.one(), mod)
    a = exactalg._pl_trim([-w, one])  # eta - w
    b = [-w, one - w, one]  # (eta - w)(eta + 1) = eta^2 + (1-w)eta - w
    g = exactalg.kpoly_gcd(b, a)
    assert len(g) == 2 and g[1].value == UniPoly.one()
    assert g[0].value == -UniPoly.x()


def test_kpoly_gcd_matches_euclid_oracle():
    # a planted common factor c over number fields of degree 2-9
    rng = rng_for("kpoly-gcd")
    for k in range(2, 10):
        while True:
            mod = _rand_monic(rng, k, rational=k % 2 == 0)
            _, factors = factor_rational(mod)
            if len(factors) == 1 and factors[0][1] == 1:
                break

        def kpoly(n):
            return exactalg._pl_trim([_rand_elem(rng, mod) for _ in range(n)])

        for _ in range(3):
            c, u, v = kpoly(rng.randint(2, 3)), kpoly(rng.randint(1, 3)), kpoly(rng.randint(1, 3))
            if not c or not u or not v:
                continue
            # the cofactors are coprime for most draws
            assert exactalg.kpoly_gcd(u, v) == euclid_kpoly_gcd(u, v)
            a, b = _kpoly_mul(c, u), _kpoly_mul(c, v)
            got = exactalg.kpoly_gcd(a, b)
            assert got == euclid_kpoly_gcd(a, b)
            assert got == exactalg.kpoly_gcd(b, a)
            assert got[-1].value == UniPoly.one()
            assert _euclid_divmod(got, c)[1] == []
            assert _euclid_divmod(a, got)[1] == [] and _euclid_divmod(b, got)[1] == []
        # a zero or constant second argument
        a = kpoly(3)
        assert exactalg.kpoly_gcd(a, []) == euclid_kpoly_gcd(a, [])
        assert exactalg.kpoly_gcd(a, a[:1]) == euclid_kpoly_gcd(a, a[:1])


_W, _ETA = sympy.symbols("w eta")


def _eta_to_sympy(f: EtaPoly):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * _W**i * _ETA**j
        for j, p in enumerate(f.coeffs)
        for i, c in enumerate(p.coeffs)
    )


def _eta_from_sympy(expr) -> EtaPoly:
    poly = sympy.Poly(expr, _ETA, _W)
    rows = [[Fraction(0)] * (poly.degree(_W) + 1) for _ in range(poly.degree(_ETA) + 1)]
    for (j, i), c in poly.terms():
        rows[j][i] = Fraction(int(c.p), int(c.q))
    return EtaPoly([UniPoly(row) for row in rows])


def _sympy_eta_gcd(f: EtaPoly, g: EtaPoly) -> EtaPoly:
    """gcd in QQ[w, eta] by sympy, made primitive over Q[w] with leading
    coefficient monic in w: the normalization eta_gcd promises."""
    h = sympy.Poly(sympy.gcd(_eta_to_sympy(f), _eta_to_sympy(g)), _ETA, _W)
    content = sympy.Poly(sympy.gcd_list([c.as_expr() for c in h.as_poly(_ETA).all_coeffs()]), _ETA, _W)
    prim, rem = sympy.div(h, content)
    assert rem.is_zero
    lead = sympy.Poly(prim.as_poly(_ETA).LC(), _W).LC()
    return _eta_from_sympy((prim.as_expr() / lead).expand())


def test_eta_gcd_matches_sympy():
    rng = rng_for("eta-gcd-sympy")

    def rand_eta(deg):
        coeffs = [rand_unipoly(rng, 2) for _ in range(deg)] + [rand_unipoly(rng, 2, nonzero=True)]
        return EtaPoly(coeffs)

    for k in range(24):
        f, g = rand_eta(rng.randint(1, 3)), rand_eta(rng.randint(1, 3))
        if k % 2 == 0:
            # planted common factor, times a content in Q[w] on one side
            common = rand_eta(rng.randint(1, 2))
            f = f * common * EtaPoly.const(rand_unipoly(rng, 1, nonzero=True))
            g = g * common
        got = eta_gcd(f, g)
        assert got == _sympy_eta_gcd(f, g)
        if k % 2 == 0:
            assert got.degree() >= 1


def test_eta_gcd_known():
    # gcd((eta - w)^2 (eta + 1), (eta - w)(eta - 2)) = eta - w
    base = EtaPoly((UniPoly((0, -1)), UniPoly.one()))
    f = base**2 * ep(1, 1)
    g = base * ep(-2, 1)
    assert eta_gcd(f, g) == base


# ---------------------------------------------------------------------------
# the shared polynomial core


def test_pseudo_rem_matches_sympy_over_z_and_qw():
    # lc(g)^(deg f - deg g + 1) * f mod g, the convention of sympy.prem, on
    # the integer lists poly_gcd passes and the Q[w] lists the subresultant
    # sequence passes; every fourth f is a multiple of g
    rng = rng_for("pseudo-rem-sympy")
    x = sympy.Symbol("x")

    def to_sympy(cs):
        return sympy.Poly(list(reversed(cs)), x)

    def from_sympy(poly):
        return [] if poly.is_zero else [int(c) for c in reversed(poly.all_coeffs())]

    zero_remainders = 0
    for k in range(40):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.choice([-3, -1, 2, 5])]
        f = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 9)]
        if k % 4 == 0:
            f = from_sympy(to_sympy(f) * to_sympy(g))
        want = from_sympy(sympy.prem(to_sympy(f), to_sympy(g)))
        assert exactalg._pl_pseudo_rem(f, g) == want
        zero_remainders += not want
    assert zero_remainders >= 10

    def rand_eta(deg):
        return [rand_unipoly(rng, 2) for _ in range(deg)] + [rand_unipoly(rng, 2, nonzero=True)]

    for k in range(24):
        f, g = EtaPoly(rand_eta(rng.randint(0, 4))), EtaPoly(rand_eta(rng.randint(1, 2)))
        if k % 4 == 0:
            f = f * g
        elif k % 4 == 1:
            f = f * F(2, 3)
        got = EtaPoly(exactalg._pl_pseudo_rem(list(f.coeffs), list(g.coeffs)))
        want = sympy.prem(_eta_to_sympy(f), _eta_to_sympy(g), _ETA)
        assert got == (EtaPoly.zero() if want == 0 else _eta_from_sympy(want))


def test_vanishes_at_matches_horner_in_the_residue_field():
    # f(x) = 0 in K by integer Horner and one pseudo-remainder, against
    # Horner's rule in K itself; every other f is made to vanish at x
    rng = rng_for("vanishes-at")
    hits = 0
    for k in range(2, 8):
        mod = _rand_monic(rng, k, rational=k % 2 == 0)
        for trial in range(6):
            x = _rand_elem(rng, mod)
            f = EtaPoly([rand_unipoly(rng, 3) * F(1, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
            if trial % 2 == 0:
                f = f * EtaPoly((-x.value, UniPoly.one()))
            acc = reduce_mod(UniPoly.zero(), mod)
            for c in reversed(f.coeffs):
                acc = acc * x + reduce_mod(c, mod)
            assert exactalg.vanishes_at(f, x) == acc.is_zero()
            hits += acc.is_zero()
    assert hits >= 18


def test_zero_is_falsy_in_every_coefficient_ring():
    mod = up(1, 0, 1)
    for x in (up(), up(0, 1), ep(), ep(0, 1), EtaPoly.const(up(0, 1)),
              reduce_mod(up(), mod), reduce_mod(up(2, 1), mod), reduce_mod(mod, mod)):
        assert bool(x) == (not x.is_zero())
    assert not up() and up(3) and not ep() and ep(0, 1)
    assert exactalg._pl_trim([up(1), up(0, 1), up()]) == [up(1), up(0, 1)]
    assert exactalg._pl_trim([0, 1, 0, 0]) == [0, 1]
