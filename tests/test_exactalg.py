"""Tests for the exact arithmetic kernel.

The reference values below were frozen from independent oracles written in
this file (permutation-expansion determinants, product-over-roots expansions)
before the library paths existed.
"""

from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
import sympy

from conftest import F, bf, bidouble_cover, ep, rand_binform, rand_unipoly, rng_for, up
from oracles import (
    _euclid_divmod,
    annihilates_unit_by_horner,
    berkowitz,
    char_poly_by_berkowitz,
    euclid_kpoly_gcd,
    fraction_divmod,
    fraction_evaluate,
    fraction_form_mul,
    fraction_form_pow,
    fraction_form_str_in,
    fraction_mul,
    fraction_pow,
    fraction_str_in,
    mult_matrix_by_forms,
    poly_xgcd,
    resultant_coeffs,
    sylvester_matrix,
    xgcd_inverse,
)
from speccover import exactalg
from speccover.covers import (
    CoverAlgebra,
    SectionData,
    make_cyclic_triple,
    make_double_cover,
    make_standard_cyclic,
    mult_matrix,
    validate_algebra,
)
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
    annihilates_unit,
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
from speccover.spectral import spectral_curve


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


def test_factor_rational_refuses_a_factorization_that_does_not_reconstruct(monkeypatch):
    # the reconstruction is checked over Z, with the factors' leads and the
    # unit's denominator cleared: a rational input with non-monic factors
    # passes, and a factor list with a wrong unit, multiplicity or factor
    # raises
    f = up(F(1, 2), F(-3, 4)) ** 2 * up(F(2, 3), 0, 3)
    unit, factors = factor_rational(f)
    assert unit == F(27, 16) and factors == [(up(F(-2, 3), 1), 2), (up(F(2, 9), 0, 1), 1)]
    # sympy factors the squarefree part 9 w^2 + 2 of degree 2; the
    # tweaks change its content, list its factor twice (doubling the
    # multiplicity), or shift the factor's constant term
    original = exactalg.dup_zz_factor_sqf
    tweaks = [
        lambda cont, facs: (cont * 2, facs),
        lambda cont, facs: (cont, facs + facs),
        lambda cont, facs: (cont, [h[:-1] + [h[-1] + 1] for h in facs]),
    ]
    for tweak in tweaks:
        monkeypatch.setattr(exactalg, "dup_zz_factor_sqf", lambda g, K, tweak=tweak: tweak(*original(g, K)))
        with pytest.raises(InternalCheckError, match="reconstruct"):
            factor_rational(f)


def _sympy_factor_rational(f: UniPoly):
    """factor_rational by sympy's Poly.factor_list over QQ, factors made
    monic and sorted as factor_rational sorts them."""
    w = sympy.Symbol("w")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], w, domain="QQ")
    unit, pairs = poly.factor_list()
    unit = F(int(sympy.Rational(unit).p), int(sympy.Rational(unit).q))
    factors = []
    for h, m in pairs:
        cs = [F(int(c.p), int(c.q)) for c in reversed(h.all_coeffs())]
        unit *= cs[-1] ** int(m)
        factors.append((UniPoly(c / cs[-1] for c in cs), int(m)))
    factors.sort(key=lambda pm: (pm[0].degree(), pm[0].coeffs))
    return unit, factors


def test_factor_rational_matches_sympy_factor_list():
    # seeded products of distinct irreducibles of degree 1-4 with
    # multiplicities 1-4, times a rational content of either sign; then
    # x^4 - 10 x^2 + 1, irreducible but split modulo every prime, squared
    # and times (w - 1)^3
    rng = rng_for("factor-sqf")
    w = sympy.Symbol("w")
    irreducibles = []
    while len(irreducibles) < 12:
        p = rand_unipoly(rng, 4, lo=-5, hi=5)
        if p.degree() >= 1 and p not in irreducibles and sympy.Poly(list(reversed(p.coeffs)), w).is_irreducible:
            irreducibles.append(p)
    cases = []
    for _ in range(30):
        f = UniPoly.const(F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30)))
        for p in rng.sample(irreducibles, rng.randint(1, 4)):
            f = f * p ** rng.randint(1, 4)
        cases.append(f)
    swinnerton_dyer = up(1, 0, -10, 0, 1)
    cases += [swinnerton_dyer**2, swinnerton_dyer * up(-1, 1) ** 3, -swinnerton_dyer * F(3, 7)]
    for f in cases:
        assert factor_rational(f) == _sympy_factor_rational(f), f


def test_factor_rational_degree_one_skips_sympy(monkeypatch):
    def refuse(g, K):
        raise AssertionError("sympy asked to factor a linear part")

    monkeypatch.setattr(exactalg, "dup_zz_factor_sqf", refuse)
    assert factor_rational(up(F(3, 4), F(-2, 5))) == (F(-2, 5), [(up(F(-15, 8), 1), 1)])
    assert factor_rational(up(-1, 2) ** 3 * up(F(1, 3), 1)) == (8, [(up(F(-1, 2), 1), 3), (up(F(1, 3), 1), 1)])
    # the reconstruction check still runs on a linear input
    monkeypatch.setattr(exactalg, "_sqfree_parts", lambda f: [[c + 1 for c in f]])
    with pytest.raises(InternalCheckError, match="reconstruct"):
        factor_rational(up(3, 2))


def test_sqfree_parts_matches_sympy_sqf_list():
    rng = rng_for("sqf-parts")
    w = sympy.Symbol("w")
    for _ in range(40):
        f = UniPoly.one()
        for _ in range(rng.randint(1, 4)):
            f = f * rand_unipoly(rng, 3, nonzero=True) ** rng.randint(1, 4)
        if f.degree() < 1:
            continue
        prim = exactalg._to_int_poly(f)
        prim = [-c for c in prim] if prim[-1] < 0 else prim
        parts = exactalg._sqfree_parts(prim)
        _, want = sympy.Poly(list(reversed(prim)), w).sqf_list()
        want = {int(m): [int(c) for c in reversed(h.all_coeffs())] for h, m in want}
        assert {i: part for i, part in enumerate(parts, 1) if len(part) > 1} == want


def test_int_exact_quo_refuses_an_inexact_division():
    assert exactalg._int_exact_quo([-2, 6, -2, 6], [-1, 3]) == [2, 0, 2]
    # a leading coefficient that does not divide, a remainder, a divisor
    # of higher degree
    for f, g in (([2, 3], [2, 2]), ([1, 0, 1], [1, 1]), ([2], [1, 1])):
        with pytest.raises(InternalCheckError, match="inexact"):
            exactalg._int_exact_quo(f, g)


def test_a_corrupted_squarefree_split_raises(monkeypatch):
    # a wrong gcd leaves a remainder in an exact division of the split, or
    # leaves a cofactor, and parts in the wrong order fail to reconstruct
    f = up(-1, 2) ** 2 * up(1, 0, 1)
    original = exactalg._int_gcd

    def wrong(fa, fb):  # the gcd times w + 1
        return list((exactalg._ZPoly(original(fa, fb)) * exactalg._ZPoly([1, 1])).coeffs)

    monkeypatch.setattr(exactalg, "_int_gcd", wrong)
    with pytest.raises(InternalCheckError, match="squarefree split"):
        factor_rational(f)
    calls = []

    def coprime_after_the_first(fa, fb):  # gcd(f, f') right, later gcds 1
        calls.append(1)
        return original(fa, fb) if len(calls) == 1 else [1]

    monkeypatch.setattr(exactalg, "_int_gcd", coprime_after_the_first)
    with pytest.raises(InternalCheckError, match="cofactor"):
        factor_rational(f)
    monkeypatch.undo()
    original_parts = exactalg._sqfree_parts
    monkeypatch.setattr(exactalg, "_sqfree_parts", lambda f: list(reversed(original_parts(f))))
    with pytest.raises(InternalCheckError, match="reconstruct"):
        factor_rational(f)


def test_rational_roots():
    # roots 1/2 (double) and -3
    f = up(-1, 2) ** 2 * up(3, 1)
    roots = rational_roots(f)
    assert roots == [(F(-3), 1), (F(1, 2), 2)]


# ---------------------------------------------------------------------------
# UniPoly and BinForm arithmetic over Z against the Fraction loops


def _rand_rat(rng) -> Fraction:
    """0, +-1, small, or large with a small, negative or large denominator."""
    if rng.random() < 0.2:
        return F(0)
    num = rng.choice([1, -1, rng.randint(-9, 9), rng.randint(-(10**30), 10**30)])
    den = rng.choice([1, 1, -1, rng.randint(2, 12), -rng.randint(2, 12), rng.randint(10**18, 10**24)])
    return F(num, den)


def _rand_coeffs(rng, max_deg: int) -> list:
    """Coefficients of a random degree up to max_deg; some are empty (the
    zero polynomial), constant, or end in zeros."""
    deg = rng.choice([-1, 0, rng.randint(1, 5), rng.randint(1, max_deg)])
    cs = [_rand_rat(rng) for _ in range(deg + 1)]
    if cs and rng.random() < 0.2:
        cs[-1] = F(0)
    return cs


def _same_form(f: BinForm, g: BinForm) -> bool:
    return f.degree == g.degree and f.coeffs == g.coeffs


def test_unipoly_products_and_powers_match_fraction_loops():
    rng = rng_for("zmul")
    for _ in range(300):
        a, b = UniPoly(_rand_coeffs(rng, 40)), UniPoly(_rand_coeffs(rng, 40))
        ab = a * b
        assert ab == fraction_mul(a, b) and all(type(c) is Fraction for c in ab.coeffs)
        c = _rand_rat(rng)
        assert a * c == c * a == fraction_mul(a, UniPoly.const(c))
        assert 3 * a == fraction_mul(a, UniPoly.const(3))
        for n in range(6 if a.degree() <= 8 else 3):
            assert a**n == fraction_pow(a, n)
    with pytest.raises(ValueError):
        up(1, 1) ** -1
    assert UniPoly.zero() ** 0 == UniPoly.one()


def test_unipoly_evaluate_matches_fraction_horner():
    rng = rng_for("zeval")
    points = [0, 1, -1, 7, -12, F(1, 2), F(-7, 3), F(-10**20 - 1, 10**19), F(5, 12)]
    for _ in range(200):
        p = UniPoly(_rand_coeffs(rng, 40))
        for x in points + [_rand_rat(rng)]:
            value = p.evaluate(x)
            assert value == fraction_evaluate(p, x) and type(value) is Fraction
    assert UniPoly.zero().evaluate(F(-2, 3)) == 0


def test_unipoly_divmod_matches_fraction_division():
    rng = rng_for("zdivmod")
    for _ in range(300):
        a = UniPoly(_rand_coeffs(rng, 40))
        b = UniPoly(_rand_coeffs(rng, 12) or [1])
        if b.is_zero():
            b = UniPoly.const(_rand_rat(rng) or F(-3, 7))
        q, r = a.divmod(b)
        assert (q, r) == fraction_divmod(a, b)
        assert a % b == r
        assert (a * b).exact_div(b) == a
        if b.degree() > 0 and not r.is_zero():
            with pytest.raises(DegreeError):
                a.exact_div(b)
    # a degree-0 divisor, a rational lead, a divisor of larger degree
    assert up(2, 4, 6).divmod(up(F(-2, 3))) == (up(-3, -6, -9), UniPoly.zero())
    assert up(1, 0, 1).divmod(up(1, F(2, 3))) == fraction_divmod(up(1, 0, 1), up(1, F(2, 3)))
    assert up(1, 2).divmod(up(0, 0, 5)) == (UniPoly.zero(), up(1, 2))
    with pytest.raises(DegreeError):
        up(1, 0, 1).exact_div(up(1, F(2, 3)))
    with pytest.raises(ZeroDivisionError):
        up(1).divmod(UniPoly.zero())


def test_str_in_matches_fraction_printing():
    rng = rng_for("zstr")
    pick = [F(1), F(-1), F(0), F(2), F(-2), F(1, 2), F(-1, 2), F(-10**20, 3)]
    for _ in range(300):
        cs = [rng.choice(pick) for _ in range(rng.randint(0, 8))]
        p = UniPoly(cs)
        assert p.str_in("w") == fraction_str_in(p, "w")
        f = BinForm(len(cs) - 1, cs) if cs else BinForm.zero(0)
        assert f.str_in("s", "t") == fraction_form_str_in(f, "s", "t")
    assert up(-1, 0, -1).str_in("w") == "-w^2 - 1"
    assert bf(2, [F(1, 2), -1, 1]).str_in("s", "t") == "s^2 - s*t + 1/2*t^2"
    assert BinForm.zero(3).str_in("s", "t") == "0"


def test_binform_products_and_powers_match_fraction_loops():
    rng = rng_for("zform")
    for _ in range(300):
        f, g = (BinForm(len(cs) - 1, cs) if cs else BinForm.zero(rng.randint(0, 4))
                for cs in (_rand_coeffs(rng, 40), _rand_coeffs(rng, 40)))
        assert _same_form(f * g, fraction_form_mul(f, g))
        assert _same_form(f * F(-2, 3), fraction_form_mul(f, BinForm.const(F(-2, 3))))
        for n in range(6 if f.degree <= 8 else 3):
            assert _same_form(f**n, fraction_form_pow(f, n))
    # the zero form and a form ending in zeros keep their nominal degrees
    zero = BinForm.zero(3)
    assert _same_form(zero * bf(2, [1, 2, 0]), BinForm.zero(5))
    assert _same_form(zero**2, BinForm.zero(6))
    assert _same_form(zero**0, BinForm.const(1))
    assert _same_form(bf(2, [1, 0, 0]) ** 3, bf(6, [1]))
    with pytest.raises(ValueError):
        BinForm.s() ** -1
    with pytest.raises(DegreeError):
        bf(1, [1, 1]) - bf(2, [1, 0, 1])


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
    # arbitrary matrices break char_poly_matrix's trace premise, so they
    # check the Berkowitz oracle, which has none, against Bareiss
    rng = rng_for("charpoly")
    for size in (2, 3, 4, 7, 8):
        a = PolyMatrix([[rand_unipoly(rng, 1) for _ in range(size)] for _ in range(size)])
        assert char_poly_by_berkowitz(a) == det_bareiss(_eta_minus(a))


def _rand_rational_unipoly(rng, deg):
    """Degree exactly ``deg`` (-1 is zero), coefficients with denominators
    among 1, 2, 3, 4, 5, 7 and 12."""
    if deg < 0:
        return UniPoly.zero()
    cs = [F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7, 12))) for _ in range(deg)]
    return UniPoly(cs + [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))])


def _cover_sections():
    """Sections of standard covers r = 2-8, a cyclic triple, a branched
    double cover and an explicit Z/2 x Z/2 cover."""
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
    return sections


def _cover_matrices():
    """mult_matrix on both charts for the ``_cover_sections``."""
    return [mult_matrix(sec, chart) for sec in _cover_sections() for chart in (0, 1)]


def _random_support_matrices(rng, count):
    """mult_matrix on a random chart for sections with random supports and
    rational coefficients, on standard covers r = 1-8, the cyclic triple,
    the double and the Z/2 x Z/2 cover."""
    covers = [make_standard_cyclic(r) for r in range(1, 9)]
    covers += [make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 3])), make_double_cover(bf(2, [-1, 0, 1])),
               bidouble_cover()]
    mats = []
    for _ in range(count):
        cover = rng.choice(covers)
        d = max(cover.twist_degrees.values()) + rng.randint(0, 2)
        comps = {}
        for rho in cover.characters():
            if rng.random() < 0.6:
                want = d - cover.twist(rho)
                comps[rho] = BinForm(want, [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(want + 1)])
        mats.append(mult_matrix(SectionData(cover, d, comps), rng.randint(0, 1)))
    return mats


def _dense_section(r):
    """The dense section of the CLI's rank-budget test: every character
    carries a component."""
    comps = {0: bf(1, [1, 2])}
    comps.update({k: bf(0, [k]) for k in range(1, r)})
    return SectionData(make_standard_cyclic(r), 1, comps)


def test_char_poly_by_power_sums_matches_berkowitz_on_cover_matrices():
    # the power-sum route needs Tr(A^k) = n (A^k e_0)_0, which every cover
    # algebra's multiplication matrix satisfies; Berkowitz needs nothing
    rng = rng_for("charpoly-power-sums")
    mats = _cover_matrices() + _random_support_matrices(rng, 60)
    mats += [mult_matrix(_dense_section(r), chart) for r in (16, 32) for chart in (0, 1)]
    for a in mats:
        assert char_poly_matrix(a) == char_poly_by_berkowitz(a)


def test_char_poly_refuses_an_inexact_newton_division():
    # (B e_0)_0 = 0 and (B^2 e_0)_0 = 1 give p_1 = 0, p_2 = 3, so
    # 2 c_2 = -3: this B breaks the trace premise (Tr B^2 = 2)
    b = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(InternalCheckError, match="Newton"):
        char_poly_matrix(PolyMatrix([[UniPoly.const(x) for x in row] for row in b]))
    assert berkowitz(b) == [1, 0, -1, 0]


def test_char_poly_matches_bareiss_oracle():
    # arbitrary matrices check the Berkowitz oracle against Bareiss; the
    # cover matrices check char_poly_matrix as well
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
    out = char_poly_by_berkowitz(diag_mat)
    assert [out.coeff(5 - i).degree() for i in range(6)] == [0, 3, 6, 9, 12, 15]
    mats.append(diag_mat)
    for a in mats:
        assert char_poly_by_berkowitz(a) == det_bareiss(_eta_minus(a))
    for a in _cover_matrices():
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
    assert char_poly_by_berkowitz(big) == char_poly_by_berkowitz(a) * char_poly_by_berkowitz(b)


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
    # a char that den * A's characteristic polynomial cannot come from
    with pytest.raises(InternalCheckError, match="scale into Z"):
        min_poly_matrix(a, EtaPoly((-h + F(1, 2), UniPoly.one())))


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


def _squarefree_part(char):
    """char / gcd(char, char') over Q(w), by the eta-gcd."""
    g = eta_gcd(char, char.derivative())
    return char if g.degree() == 0 else (char * g.lead).exact_div(g)


def _rational_form(rng, degree):
    """A form whose coefficients are nonzero with denominators 2-6."""
    return BinForm(degree, [F(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 4, 6))) for _ in range(degree + 1)])


def test_min_poly_is_the_squarefree_part_by_eta_gcd():
    # min_poly_matrix takes an exact k-th root; the eta-gcd gives the
    # squarefree part independently.  Standard covers with gcd(r, support)
    # = k for k = 1..4, then the double, cyclic-triple and bidouble covers,
    # then sections whose coefficients have denominators, so the matrix is
    # scaled by den > 1 before the root is taken over Z[w].
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
    for r, support, k in ((5, (1, 3), 1), (4, (2,), 2), (6, (0, 3), 3), (8, (0, 4), 4)):
        d = 2 if r <= 6 else 1
        comps = {j: _rational_form(rng, d if j == 0 else d - 1) for j in support}
        sections.append((SectionData(make_standard_cyclic(r), d, comps), k))
    half = {(1, 0): bf(1, [F(1, 2), 1]), (0, 1): bf(1, [F(2, 3), F(-1, 5)]), (0, 0): bf(2, [F(1, 7), 0, 1])}
    sections.append((SectionData(bidouble_cover(), 2, half), 1))
    walk = [F((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(40)]
    for sec, k in sections:
        for chart in (0, 1):
            a = mult_matrix(sec, chart)
            char = char_poly_matrix(a)
            minimal, base = min_poly_matrix(a, char)
            assert minimal == _squarefree_part(char)
            assert minimal.degree() * k == char.degree()
            for w0 in walk[: walk.index(base) + 1]:
                fibre = minimal.at_base(w0)
                squarefree = poly_gcd(fibre, fibre.derivative()).degree() == 0
                assert squarefree == (w0 == base)


def _annihilation_bound(a, poly):
    """max_j (deg p_j + j deg A): the w-degree bound of poly(A) e_0 after
    clearing denominators, which annihilates_unit samples up to."""
    deg_a = max(0, max(e.degree() for row in a.rows for e in row))
    return max(c.degree() + j * deg_a for j, c in enumerate(poly.coeffs) if c)


def test_annihilates_unit_matches_horner_oracle():
    # random rational matrices (not regular representations: the check is
    # poly(A) e_0 = 0 for any A), a zero matrix, a nilpotent shift that
    # moves e_0, and the cover matrices; against random polys, the
    # squarefree part of char, m + 1, m times a random poly, and the zero
    # and constant polys
    rng = rng_for("annihilates-unit")
    mats = []
    for n in range(1, 7):
        for _ in range(2):
            top = rng.randint(-1, 5)
            mats.append(PolyMatrix(
                [[_rand_rational_unipoly(rng, rng.randint(-1, top)) for _ in range(n)] for _ in range(n)]
            ))
    zero = PolyMatrix([[UniPoly.zero()] * 4 for _ in range(4)])
    shift = PolyMatrix([[up(F(1, 2)) if i == j + 1 else UniPoly.zero() for j in range(3)] for i in range(3)])
    mats += [zero, shift]
    mats.extend(_cover_matrices())
    answers = []
    for a in mats:
        m = _squarefree_part(char_poly_by_berkowitz(a))
        multiple = m * EtaPoly([_rand_rational_unipoly(rng, rng.randint(0, 2)) for _ in range(2)])
        polys = [m, m + EtaPoly.one(), multiple]
        for _ in range(3):
            e = rng.randint(0, a.n + 1)
            polys.append(EtaPoly([_rand_rational_unipoly(rng, rng.randint(-1, 4)) for _ in range(e + 1)]))
        polys += [EtaPoly.zero(), EtaPoly.one(), ep(up(F(-3, 7))), ep(up(0, 1))]
        for poly in polys:
            got = annihilates_unit(a, poly)
            assert got == annihilates_unit_by_horner(a, poly)
            answers.append(got)
    # the zero and constant polys keep their answers
    assert annihilates_unit(zero, EtaPoly.zero()) and annihilates_unit(zero, ep(0, 1))
    assert not annihilates_unit(zero, EtaPoly.one())
    # the shift's squarefree part eta sends e_0 to e_1
    assert not annihilates_unit(shift, ep(0, 1))
    assert answers.count(True) >= 90 and answers.count(False) >= 200


def test_annihilates_unit_sees_the_last_point():
    # m + P with P = w (w - 1) ... (w - D + 1), D the bound of m's input:
    # deg P = D keeps the bound, P e_0 vanishes at w = 0..D-1, and only
    # the point w = D shows that m + P does not annihilate
    for a in _cover_matrices():
        m = _squarefree_part(char_poly_matrix(a))
        bound = _annihilation_bound(a, m)
        assert bound >= 1 and annihilates_unit(a, m)
        p = UniPoly.one()
        for i in range(bound):
            p = p * up(-i, 1)
        perturbed = m + EtaPoly.const(p)
        assert _annihilation_bound(a, perturbed) == bound
        assert not annihilates_unit_by_horner(a, perturbed)
        assert not annihilates_unit(a, perturbed)


def test_integer_points_are_shared_by_the_kernels(monkeypatch):
    # char_poly_matrix and annihilates_unit read one set of packed vectors
    # B(X)^j e_0 at one point X = 2^K, kept with the matrix:
    # char_poly_matrix packs the matrix once and makes n products, and the
    # annihilation check of the squarefree part makes none and packs no
    # second point; the results match those on a fresh copy of the matrix
    # built from its UniPoly entries, in either order
    products, packs = [], []
    mat_vec, pack = exactalg._mat_vec, exactalg.PolyMatrix._pack_matrix

    def counted(b, vec):
        products.append(len(b))
        return mat_vec(b, vec)

    def counted_pack(mat, bits):
        packs.append((id(mat), bits))
        return pack(mat, bits)

    monkeypatch.setattr(exactalg, "_mat_vec", counted)
    monkeypatch.setattr(exactalg.PolyMatrix, "_pack_matrix", counted_pack)
    for a in _cover_matrices():
        products.clear()
        packs.clear()
        char = char_poly_matrix(a)
        assert products == [a.n] * a.n and len(packs) == 1
        bits, vecs = a.packed(0)
        assert packs == [(id(a), bits)]
        m = _squarefree_part(char)
        assert annihilates_unit(a, m)
        assert len(products) == a.n and len(packs) == 1
        assert a.packed(1) == (bits, vecs) and a.packed(a.n)[1] is vecs
        fresh = PolyMatrix(a.rows)
        assert fresh == a and fresh.packed(0)[1] is not vecs
        assert annihilates_unit(fresh, m) and char_poly_matrix(fresh) == char
        assert fresh.packed(a.n) == (bits, vecs)
    # per curve: n products on one packed point of each chart's matrix, and
    # none in the annihilation checks of either chart
    for sec in _cover_sections():
        products.clear()
        packs.clear()
        spectral_curve(sec)
        curve_packs = list(packs)
        mats = [mult_matrix(sec, 0), mult_matrix(sec, 1)]
        assert len(products) == sum(a.n for a in mats)
        assert len({key for key, _ in curve_packs}) == 2
        assert sorted(bits for _, bits in curve_packs) == sorted(a.packed(0)[0] for a in mats)


def _rescaled(cover, rng):
    """The same algebra on the basis lambda_rho e_rho, for random rational
    lambda_rho (lambda = 1 on the unit): c(a, b) becomes
    c(a, b) lambda_a lambda_b / lambda_(a + b), so no structure form need
    have integer coefficients."""
    group = cover.group
    lam = {rho: F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4))) for rho in group.elements()}
    lam[group.identity()] = F(1)
    forms = {(a, b): form * (lam[a] * lam[b] / lam[group.add(a, b)]) for (a, b), form in cover.structure_forms.items()}
    out = CoverAlgebra(group, cover.twist_degrees, forms)
    assert validate_algebra(out)
    return out


def test_integer_built_kernels_match_oracles_on_rational_covers():
    # mult_matrix scales rational sections and structure forms into Z[w]
    # once; its matrix must equal the form-by-form UniPoly oracle, and the
    # kernels that read its packed vectors must agree with Berkowitz and
    # with Horner over Q[w], also for polys of degree above n, which extend
    # the packed vectors on demand, and for perturbed polys, which must fail
    rng = rng_for("integer-matrix-rational-covers")
    covers = [make_standard_cyclic(r) for r in range(1, 9)]
    covers += [make_cyclic_triple(_rational_form(rng, 1), _rational_form(rng, 1)),
               make_double_cover(_rational_form(rng, 2)), bidouble_cover()]
    checked = 0
    for cover in covers + [_rescaled(cover, rng) for cover in covers]:
        d = max(cover.twist_degrees.values()) + rng.randint(0, 1)
        comps = {}
        for rho in cover.characters():
            if rng.random() < 0.7:
                want = d - cover.twist(rho)
                comps[rho] = BinForm(want, [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(want + 1)])
        sec = SectionData(cover, d, comps)
        for chart in (0, 1):
            a = mult_matrix(sec, chart)
            oracle = mult_matrix_by_forms(sec, chart)
            assert a.rows == oracle.rows and a == oracle
            char = char_poly_matrix(a)
            assert char == char_poly_by_berkowitz(a)
            m = _squarefree_part(char)
            high = m * EtaPoly([_rand_rational_unipoly(rng, 2) for _ in range(a.n - m.degree() + 2)] + [up(F(1, 3))])
            perturbed = m + EtaPoly.const(_rand_rational_unipoly(rng, 3) + up(F(1, 2)))
            noise = EtaPoly([_rand_rational_unipoly(rng, rng.randint(-1, 3)) for _ in range(a.n + 3)])
            for poly, want in [(m, True), (high, True), (perturbed, False), (noise, None)]:
                got = annihilates_unit(a, poly)
                assert got == annihilates_unit_by_horner(a, poly)
                assert want is None or got == want
            assert high.degree() > a.n and len(a.packed(0)[1]) == high.degree() + 1
            checked += 1
    assert checked == 44


def test_packed_digits_round_trip_at_the_bound():
    # an integer polynomial with coefficients in [-2^(K-1), 2^(K-1)) is the
    # balanced base-2^K digits of its value at 2^K, at the extremes
    # +-(2^(K-1) - 1) and -2^(K-1), with interior zeros and a negative top
    # coefficient; one step past the bound the digits no longer are the
    # coefficients
    rng = rng_for("packed-digits")
    for bits in (2, 3, 7, 30, 31, 47, 64, 543):
        top = (1 << (bits - 1)) - 1
        cases = [[], [top], [-top], [-top - 1], [0, 0, -1], [top, 0, 0, -top], [-top, top, 0, top, -1],
                 [min(5, top), 0, -top - 1, 0, 0, -top], [0, top, -top - 1, top]]
        for _ in range(20):
            cs = [rng.choice((-top - 1, -top, -1, 0, 0, 1, top, rng.randint(-top - 1, top))) for _ in range(8)]
            cases.append(cs + [rng.choice((-top - 1, -top, -1, 1, top))])
        for cs in cases:
            x = exactalg._pack(cs, bits)
            assert x == sum(c * 2 ** (bits * i) for i, c in enumerate(cs))
            assert exactalg._unpack(x, bits) == cs
        assert exactalg._unpack(exactalg._pack([top + 1], bits), bits) == [-top - 1, 1]
        assert exactalg._unpack(exactalg._pack([1, -top - 2], bits), bits) == [1, top, -1]


def test_packed_kernels_match_oracles_within_the_bound():
    # sections with coefficients up to +-2^40, on the built-in covers and
    # their rational rescalings, at twists up to 12, on both charts:
    # char_poly_matrix against Berkowitz, and annihilates_unit against
    # Horner over Q[w] on the squarefree part, a perturbed one and a random
    # poly; every coefficient char_poly_matrix unpacked, of a_k = k c_k for
    # det(eta - B) = sum_k c_k eta^(n-k), has l1 norm within
    # k binom(n, k) R^k, which lies below 2^(K-1)
    rng = rng_for("packed-kernels")
    covers = [make_standard_cyclic(r) for r in range(1, 6)]
    covers += [make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 3])), make_double_cover(bf(2, [-1, 0, 1])),
               bidouble_cover()]
    big = 1 << 40
    answers = []
    for trial in range(60):
        cover = rng.choice(covers)
        if trial % 2:
            cover = _rescaled(cover, rng)
        top = max(cover.twist_degrees.values())
        d = rng.randint(top, 12 if cover.degree <= 3 else top + 3)
        comps = {}
        for rho in cover.characters():
            if rng.random() < 0.7:
                want = d - cover.twist(rho)
                coeffs = [F(rng.choice((rng.randint(-big, big), big, -big, 0)), rng.choice((1, 1, 3, 7)))
                          for _ in range(want + 1)]
                comps[rho] = BinForm(want, coeffs)
        sec = SectionData(cover, d, comps)
        a = mult_matrix(sec, trial % 4 // 2)
        char = char_poly_matrix(a)
        assert char == char_poly_by_berkowitz(a)
        n, den, bound = a.n, a.den, a.row_bound()
        bits = a.packed(0)[0]
        for k in range(1, n + 1):
            ck = [x * den**k for x in char.coeff(n - k).coeffs]
            assert all(x.denominator == 1 for x in ck)
            assert k * sum(map(abs, ck)) <= k * comb(n, k) * bound**k < 1 << (bits - 1)
        m, _ = min_poly_matrix(a, char)
        perturbed = m + EtaPoly.const(UniPoly([F(1, 2)] + [F(rng.randint(-big, big)) for _ in range(3)]))
        noise = EtaPoly([UniPoly([F(rng.randint(-big, big), 5) for _ in range(3)]) for _ in range(n + 2)])
        # 2^K - w vanishes at the matrix's point: only the check's own bound,
        # which takes a larger point, can refuse m plus it
        vanishing = m + EtaPoly.const(UniPoly([F(1 << bits), F(-1)]))
        for poly, want in [(m, True), (perturbed, False), (noise, None), (vanishing, False)]:
            got = annihilates_unit(a, poly)
            assert got == annihilates_unit_by_horner(a, poly)
            assert want is None or got == want
            answers.append(got)
    assert answers.count(True) == 60


def _int_lists(f):
    """An EtaPoly with integer coefficients as lists of integer w-coefficient lists."""
    return [[int(x) for x in c.coeffs] for c in f.coeffs]


def test_integer_power_check_matches_fraction_power():
    # m^k == char and the k-th root, both over Z[w][eta], against EtaPoly
    # powers; a char off by one in a single coefficient is rejected, and
    # has no root or one that fails the power check
    rng = rng_for("kth-power-over-z")
    for _ in range(120):
        k = rng.randint(1, 4)
        e = rng.randint(1, 3)
        m = EtaPoly([rand_unipoly(rng, 2) for _ in range(e)] + [UniPoly.one()])
        char = m**k
        mi, ci = _int_lists(m), _int_lists(char)
        assert exactalg._is_kth_power(mi, k, ci)
        assert exactalg._kth_root(ci, k) == mi
        assert not exactalg._is_kth_power(mi, rng.choice([j for j in range(1, 5) if j != k]), ci)
        j = rng.randrange(len(char.coeffs) - 1)
        cs = list(char.coeff(j).coeffs) + [F(0)] * 3
        cs[rng.randrange(len(cs))] += rng.choice((-1, 1))
        coeffs = list(char.coeffs)
        coeffs[j] = UniPoly(cs)
        assert m**k != EtaPoly(coeffs)
        perturbed = _int_lists(EtaPoly(coeffs))
        assert not exactalg._is_kth_power(mi, k, perturbed)
        root = exactalg._kth_root(perturbed, k)
        assert k == 1 or root is None or not exactalg._is_kth_power(root, k, perturbed)
    # eta^2 + eta + 1 has b_1 = 1/2: no square root over Z[w], nor over Q(w)
    assert exactalg._kth_root([[1], [1], [1]], 2) is None


# ---------------------------------------------------------------------------
# quotient-ring elements


def test_ext_examples():
    i_mod = up(1, 0, 1)  # w^2 + 1
    w = reduce_mod(UniPoly.x(), i_mod)
    assert reduce_mod(UniPoly.x() ** 2, i_mod).value == UniPoly.const(-1)
    assert w.inv().value == -UniPoly.x()
    lin = up(-2, 1)  # w - 2
    assert reduce_mod(UniPoly.x() ** 3, lin).value == UniPoly.const(8)
    # the modulus is made monic, and a constant one is refused
    assert reduce_mod(UniPoly.x() ** 3, i_mod * 3) == ExtElem(i_mod, -UniPoly.x())
    with pytest.raises(ModulusError):
        reduce_mod(UniPoly.x(), up(2))


def test_ext_inverse_random_field():
    rng = rng_for("ext")
    mod = up(1, 0, 1)  # irreducible, so every nonzero element inverts
    one = UniPoly.one()
    for _ in range(40):
        v = rand_unipoly(rng, 1)
        if v.is_zero():
            continue
        x = reduce_mod(v, mod)
        assert (x.value * x.inv().value) % mod == one


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
                assert got == ExtElem(mod, xgcd_inverse(x.value, mod))
                assert (x.value * got.value) % mod == UniPoly.one()
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
                xgcd_inverse(x.value, mod)
            with pytest.raises(NotInvertibleError):
                x.inv()
    unit = reduce_mod(a + b, mod)  # gcd(a + b, a b) = 1
    assert unit.inv().value == xgcd_inverse(unit.value, mod)


def _kpoly_mul(a, b, mod):
    """a b in K[eta], K = Q[w]/(mod), its coefficients reduced."""
    return EtaPoly(c % mod for c in (a * b).coeffs)


def test_kpoly_gcd():
    mod = up(1, 0, 1)
    # over K = Q[w]/(w^2+1): gcd of (eta - w)(eta + 1) and (eta - w) is eta - w
    w = UniPoly.x()
    a = ep(-w, 1)  # eta - w
    b = ep(-w, 1 - w, 1)  # (eta - w)(eta + 1) = eta^2 + (1-w)eta - w
    g = exactalg.kpoly_gcd(b, a, mod)
    assert g == a


def test_kpoly_gcd_matches_euclid_oracle():
    # a planted common factor c over number fields of degree 2-16, the
    # degrees the singular-fields benchmark reaches
    rng = rng_for("kpoly-gcd")
    for k in range(2, 17):
        while True:
            mod = _rand_monic(rng, k, rational=k % 2 == 0)
            _, factors = factor_rational(mod)
            if len(factors) == 1 and factors[0][1] == 1:
                break

        def kpoly(n):
            return EtaPoly([_rand_elem(rng, mod).value for _ in range(n)])

        for _ in range(3):
            c, u, v = kpoly(rng.randint(2, 3)), kpoly(rng.randint(1, 3)), kpoly(rng.randint(1, 3))
            if not c or not u or not v:
                continue
            # the cofactors are coprime for most draws
            assert exactalg.kpoly_gcd(u, v, mod) == euclid_kpoly_gcd(u, v, mod)
            a, b = _kpoly_mul(c, u, mod), _kpoly_mul(c, v, mod)
            got = exactalg.kpoly_gcd(a, b, mod)
            assert got == euclid_kpoly_gcd(a, b, mod)
            assert got == exactalg.kpoly_gcd(b, a, mod)
            assert got.lead == UniPoly.one()
            assert not _euclid_divmod(got, c, mod)[1]
            assert not _euclid_divmod(a, got, mod)[1] and not _euclid_divmod(b, got, mod)[1]
        # a zero or constant second argument
        a = kpoly(3)
        for b in (EtaPoly.zero(), EtaPoly(a.coeffs[:1])):
            assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod)


def _recorded_images(monkeypatch):
    """(q, degree of the image mod q, or None when q is refused) for each
    prime that kpoly_gcd reduces modulo, in order."""
    seen = []
    original = exactalg._gcd_image

    def recorded(ai, bi, pm, q):
        g = original(ai, bi, pm, q)
        seen.append((q, None if g is None else len(g) - 1))
        return g

    monkeypatch.setattr(exactalg, "_gcd_image", recorded)
    return seen


def _kpoly(mod, *coeffs):
    """An eta-polynomial over Q[w]/(mod), coefficients ascending, each a
    UniPoly or a rational, reduced modulo mod."""
    return EtaPoly(c % mod for c in EtaPoly(coeffs).coeffs)


def _nth_prime(i):
    """The prime kpoly_gcd tries i-th, from 0."""
    primes = exactalg._gcd_primes()
    for _ in range(i):
        next(primes)
    return next(primes)


_Q0 = _nth_prime(0)


def test_gcd_primes_are_the_primes_below_2_62():
    want, n = [], 2**62
    while len(want) < len(exactalg._PRIME_OFFSETS) + 3:
        n = sympy.prevprime(n)
        want.append(n)
    primes = exactalg._gcd_primes()
    assert [next(primes) for _ in want] == want
    assert _Q0 == 2**62 - 57


def test_is_prime_matches_sympy():
    # Carmichael numbers and strong pseudoprimes to the bases 2-7 and 2-23
    tricky = [561, 41041, 825265, 3215031751, 3825123056546413051]
    window = list(range(2**62 - 2000, 2**62 + 2)) + list(range(200))
    for n in tricky + window:
        assert exactalg._is_prime(n) == sympy.isprime(n), n


def test_kpoly_gcd_skips_a_prime_where_the_modulus_is_not_squarefree(monkeypatch):
    mod = up(-_Q0, 0, 1)  # w^2 - q0 = w^2 mod q0
    w = UniPoly.x()
    c = _kpoly(mod, -w, 1)
    a, b = _kpoly_mul(c, _kpoly(mod, 1, 1), mod), _kpoly_mul(c, _kpoly(mod, w + 2, 3), mod)
    seen = _recorded_images(monkeypatch)
    got = exactalg.kpoly_gcd(a, b, mod)
    assert got == euclid_kpoly_gcd(a, b, mod) == c
    assert seen[0] == (_Q0, None)


def test_kpoly_gcd_skips_a_prime_dividing_a_leading_coefficient(monkeypatch):
    mod = up(-2, 0, 1)
    w = UniPoly.x()
    c = _kpoly(mod, -w, 1)
    a, b = _kpoly_mul(c, _kpoly(mod, 1, w, _Q0), mod), _kpoly_mul(c, _kpoly(mod, 3, 1), mod)
    seen = _recorded_images(monkeypatch)
    got = exactalg.kpoly_gcd(a, b, mod)
    assert a.lead == UniPoly.const(_Q0)
    assert got == euclid_kpoly_gcd(a, b, mod) == c
    assert seen[0] == (_Q0, None)


def test_kpoly_gcd_drops_the_image_of_an_unlucky_prime(monkeypatch):
    mod = up(1, 0, 1)
    eta, shifted = _kpoly(mod, 0, 1), _kpoly(mod, -_Q0, 1)
    seen = _recorded_images(monkeypatch)
    # eta and eta - q0 are coprime over K, but equal mod q0
    assert exactalg.kpoly_gcd(eta, shifted, mod) == euclid_kpoly_gcd(eta, shifted, mod) == _kpoly(mod, 1)
    assert [d for _, d in seen] == [1, 0]
    seen.clear()
    c = _kpoly(mod, -1, 1)
    a, b = _kpoly_mul(c, eta, mod), _kpoly_mul(c, shifted, mod)
    assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod) == c
    assert seen[0] == (_Q0, 2) and seen[1][1] == 1
    # with eta - q0 q1, two unlucky images agree on eta^2 - eta, and only
    # the exact division refutes it, at the first image: the monic inputs
    # fail to divide each other, and a, tried last, is kept as refuted.
    # The first and second images reconstruct a, which is not divided again
    seen.clear()
    divided = []
    original = exactalg._divides_in_field

    def counted(g, f, pm):
        divided.append(len(g) - 1)
        return original(g, f, pm)

    monkeypatch.setattr(exactalg, "_divides_in_field", counted)
    b = _kpoly_mul(c, _kpoly(mod, -_Q0 * _nth_prime(1), 1), mod)
    assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod) == c
    assert [d for _, d in seen] == [2, 2, 1]
    assert divided == [2, 2, 1, 1]
    # an unlucky image after a lucky one is dropped, not combined: eta - N
    # with N near 2^50 needs two primes to reconstruct, and q1 is unlucky.
    # The reconstruction modulo q0 alone is wrong and fails to divide a
    seen.clear()
    divided.clear()
    big = 2**50 + 17
    c = _kpoly(mod, -big, 1)
    a, b = _kpoly_mul(c, eta, mod), _kpoly_mul(c, _kpoly(mod, -_nth_prime(1), 1), mod)
    assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod) == c
    assert [d for _, d in seen] == [1, 2, 1]
    assert divided == [1, 1, 1]


def test_kpoly_gcd_skips_a_prime_in_a_denominator(monkeypatch):
    w = UniPoly.x()
    # q0 in a denominator of the modulus w^2 + 1/q0, then of an input
    for mod, lead in ((UniPoly([F(1, _Q0), 0, 1]), 1), (up(2, 0, 1), F(1, _Q0))):
        c = _kpoly(mod, w, 1)
        a, b = _kpoly_mul(c, _kpoly(mod, 1, lead), mod), _kpoly_mul(c, _kpoly(mod, w, 5), mod)
        seen = _recorded_images(monkeypatch)
        assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod) == c
        assert seen[0][0] != _Q0


def test_kpoly_gcd_recovers_large_coefficients_from_several_primes(monkeypatch):
    rng = rng_for("kpoly-gcd-large")
    mod = UniPoly([F(3, 2), F(-1, 3), 0, 1])  # w^3 - w/3 + 3/2, irreducible
    assert factor_rational(mod)[1] == [(mod, 1)]

    def big():
        return UniPoly([F(rng.getrandbits(300) - 2**299, rng.getrandbits(300) | 1) for _ in range(3)])

    c = _kpoly(mod, big(), big(), 1)
    a = _kpoly_mul(c, _kpoly(mod, UniPoly([1, 2]), 1), mod)
    b = _kpoly_mul(c, _kpoly(mod, -3, UniPoly([0, 1]), 1), mod)
    seen = _recorded_images(monkeypatch)
    got = exactalg.kpoly_gcd(a, b, mod)
    assert got == euclid_kpoly_gcd(a, b, mod) == c
    # a 300-bit numerator over a 300-bit denominator is recovered modulo
    # M > 2^601 only, a product of at least ten primes below 2^62
    assert max(x.numerator.bit_length() for e in c.coeffs for x in e.coeffs) >= 290
    assert len(seen) >= 10


def test_kpoly_gcd_bounds_candidates_that_fail_to_divide(monkeypatch):
    # a certificate that always fails, as a defect would make it, must
    # raise after a bounded run of agreeing candidates, not loop
    mod = up(1, 0, 1)
    c = _kpoly(mod, -1, 1)
    a, b = _kpoly_mul(c, _kpoly(mod, UniPoly.x(), 1), mod), _kpoly_mul(c, _kpoly(mod, 3, 1), mod)
    divided = []

    def refuse(g, f, pm):
        divided.append(g)
        return False

    monkeypatch.setattr(exactalg, "_divides_in_field", refuse)
    seen = _recorded_images(monkeypatch)
    with pytest.raises(InternalCheckError, match="failed to divide"):
        exactalg.kpoly_gcd(a, b, mod)
    # the first image's candidate is divided once; each later image
    # reconstructs it again and counts as one more failed certificate
    assert len(seen) == exactalg._FAILED_CERTIFICATES + 1
    assert len(divided) == 1


def test_kpoly_gcd_with_a_zero_or_constant_argument():
    mod = up(-3, 1, 0, 1)
    w = UniPoly.x()
    a = _kpoly(mod, w, F(2, 3), w * w + 1)
    for b in (EtaPoly.zero(), _kpoly(mod, w + 5)):
        assert exactalg.kpoly_gcd(a, b, mod) == euclid_kpoly_gcd(a, b, mod)
        assert exactalg.kpoly_gcd(b, a, mod) == euclid_kpoly_gcd(b, a, mod)
    assert exactalg.kpoly_gcd(a, EtaPoly.zero(), mod).lead == UniPoly.one()
    assert exactalg.kpoly_gcd(a, _kpoly(mod, 7), mod) == EtaPoly.one()
    assert exactalg.kpoly_gcd(EtaPoly.zero(), EtaPoly.zero(), mod) == EtaPoly.zero()


def test_kpoly_gcd_refuses_a_reducible_modulus():
    mod = up(0, -1, 1)  # w^2 - w: w is a zero divisor at every prime
    a, b = _kpoly(mod, 1, UniPoly.x()), _kpoly(mod, 1, 1)
    with pytest.raises(InternalCheckError):
        exactalg.kpoly_gcd(a, b, mod)


def test_kpoly_gcd_reduces_its_inputs():
    # inputs with coefficients of w-degree deg p or more give the oracle's
    # gcd of the reduced inputs, itself reduced modulo p
    rng = rng_for("kpoly-gcd-unreduced")
    for k in (2, 3, 5):
        while True:
            mod = _rand_monic(rng, k, rational=k != 3)
            _, factors = factor_rational(mod)
            if len(factors) == 1 and factors[0][1] == 1:
                break

        def wide(n):  # eta-degree n, coefficients of w-degree up to 3k - 1
            return ep(*(rand_unipoly(rng, 3 * k - 1) for _ in range(n)), rand_unipoly(rng, 3 * k - 1, nonzero=True))

        for _ in range(3):
            c, u, v = wide(1), wide(rng.randint(1, 2)), wide(rng.randint(1, 2))
            if (c.lead % mod).is_zero():
                continue
            a, b = c * u, c * v
            assert max(x.degree() for x in a.coeffs) >= k
            got = exactalg.kpoly_gcd(a, b, mod)
            assert got == euclid_kpoly_gcd(a, b, mod)
            assert got == exactalg.kpoly_gcd(_kpoly(mod, *a.coeffs), _kpoly(mod, *b.coeffs), mod)
            assert all(x.degree() < k for x in got.coeffs) and got.degree() >= 1


def test_kpoly_gcd_refuses_a_non_monic_or_constant_modulus():
    a, b = ep(1, up(0, 1)), ep(1, 1)
    for mod in (up(2, 0, 2), up(1, 0, F(1, 3)), up(1), up(-1), up()):
        with pytest.raises(ModulusError):
            exactalg.kpoly_gcd(a, b, mod)
    with pytest.raises(ModulusError):
        exactalg.kpoly_gcd(EtaPoly.zero(), EtaPoly.zero(), up(5))


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
    # f(x) = 0 in K by integer Horner, pseudo-reduced modulo the integer
    # modulus (non-monic for the rational moduli) as it goes, against Horner's
    # rule in K itself; f has eta-degree 8 or more, so every run reduces many
    # times, and every other f is made to vanish at x
    rng = rng_for("vanishes-at")
    hits = 0
    for k in range(2, 8):
        mod = _rand_monic(rng, k, rational=k % 2 == 0)
        for trial in range(6):
            x = _rand_elem(rng, mod)
            f = EtaPoly([rand_unipoly(rng, 3) * F(1, rng.randint(1, 4)) for _ in range(rng.randint(8, 11))]
                        + [rand_unipoly(rng, 3, nonzero=True)])
            if trial % 2 == 0:
                f = f * EtaPoly((-x.value, UniPoly.one()))
            acc = UniPoly.zero()
            for c in reversed(f.coeffs):
                acc = (acc * x.value + c) % mod
            assert exactalg.vanishes_at(f, x) == acc.is_zero()
            hits += acc.is_zero()
    assert hits >= 18


def test_zero_is_falsy_in_every_coefficient_ring():
    for x in (up(), up(0, 1), ep(), ep(0, 1), EtaPoly.const(up(0, 1))):
        assert bool(x) == (not x.is_zero())
    assert not up() and up(3) and not ep() and ep(0, 1)
    assert exactalg._pl_trim([up(1), up(0, 1), up()]) == [up(1), up(0, 1)]
    assert exactalg._pl_trim([0, 1, 0, 0]) == [0, 1]
