"""Shared helpers for the test suite: terse builders and seeded random data."""

import random
from fractions import Fraction

from speccover.covers import AbelianGroup, CoverAlgebra, validate_algebra
from speccover.exactalg import BinForm, EtaPoly, UniPoly

F = Fraction


def up(*coeffs) -> UniPoly:
    """UniPoly from ascending coefficients."""
    return UniPoly(coeffs)


def bf(degree, coeffs) -> BinForm:
    """BinForm of the given degree; short lists are padded with zeros."""
    coeffs = list(coeffs)
    if len(coeffs) < degree + 1:
        coeffs = coeffs + [0] * (degree + 1 - len(coeffs))
    return BinForm(degree, coeffs)


def ep(*coeffs) -> EtaPoly:
    """EtaPoly from ascending eta-coefficients (ints or UniPoly)."""
    return EtaPoly(coeffs)


def elementary(form) -> tuple:
    """The elementary symmetric forms e_1..e_r of a monic eta-form's roots:
    e_i is (-1)^i times the eta^(r-i) coefficient."""
    r = form.degree
    return tuple(form.coeff(r - i) * (-1) ** i for i in range(1, r + 1))


def rng_for(name: str) -> random.Random:
    return random.Random(f"speccover:{name}")


def rand_unipoly(rng, max_deg, lo=-3, hi=3, nonzero=False) -> UniPoly:
    while True:
        deg = rng.randint(0, max_deg)
        p = UniPoly([rng.randint(lo, hi) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero():
            return p


def rand_binform(rng, degree, lo=-3, hi=3, nonzero=False) -> BinForm:
    while True:
        f = BinForm(degree, [rng.randint(lo, hi) for _ in range(degree + 1)])
        if not nonzero or not f.is_zero():
            return f


def char_poly_by_elimination(sec) -> EtaPoly:
    """Independent oracle for the characteristic polynomial, chart 0.

    Eliminates the source coordinate u from (u^r - w, eta - sigma(u)): the
    result is the product of eta - sigma over the fiber, with no matrix in
    sight.  Only valid over the standard cyclic cover.
    """
    from oracles import resultant_coeffs

    r = sec.cover.degree
    f = [EtaPoly.zero() for _ in range(r + 1)]
    f[0] = EtaPoly.const(UniPoly((0, -1)))
    f[r] = EtaPoly.one()
    g = [EtaPoly.zero() for _ in range(r)]
    g[0] = EtaPoly.eta()
    for rho, form in sec.components.items():
        k = rho[0] if rho else 0
        g[k] = g[k] - EtaPoly.const(form.dehomogenize(0))
    return resultant_coeffs(f, g)


def bidouble_cover() -> CoverAlgebra:
    """Z/2 x Z/2 cover branched over s, t and s + t, given by explicit data."""
    s, t = BinForm.s(), BinForm.t()
    a, b, c = (1, 0), (0, 1), (1, 1)
    forms = {(b, c): s, (a, c): t, (a, b): s + t, (a, a): t * (s + t), (b, b): s * (s + t), (c, c): s * t}
    cover = CoverAlgebra(AbelianGroup((2, 2)), {a: 1, b: 1, c: 1}, forms)
    assert validate_algebra(cover)
    return cover
