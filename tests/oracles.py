"""Second algorithms that the tests check the package against.

Nothing in the package calls these.  Each one is either an independent way
to compute something the package computes (the Sylvester matrix, resultants
over Q[w] and Q[w][eta] by one remainder sequence, the multiplication matrix
class by class, the annihilating polynomial by matrix powers, the
triple-cover criterion, points of the source mapped onto the curve,
residue-field inverses and gcds by rational Euclid), or a helper that builds
and recombines test sections on the standard cyclic cover.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from speccover.covers import SectionData, is_standard_cyclic, make_standard_cyclic, mult_matrix
from speccover.errors import (
    DegreeError,
    InternalCheckError,
    NotInvertibleError,
    ShapeError,
    SingularityNotRepresentableError,
    SpecCoverError,
    UndefinedResultantError,
    UnsupportedCoverError,
)
from speccover.exactalg import (
    BinForm,
    EtaPoly,
    ExtElem,
    PolyMatrix,
    ProjPoint,
    UniPoly,
    _pl_trim,
    _prs_resultant,
    eta_gcd,
    kpoly_from_etapoly,
    reduce_mod,
)
from speccover.spectral import CharData, EtaForm, SingularPoint, invariant_sections


class NonDepressedCubicError(SpecCoverError):
    """Cubic has a nonzero quadratic term; complete the cube first."""


# ---------------------------------------------------------------------------
# resultants


def sylvester_matrix(fc: Sequence, gc: Sequence) -> list[list]:
    """Sylvester matrix (descending-coefficient layout) of two coefficient
    lists over UniPoly or EtaPoly, whose determinant is their resultant."""
    f = list(fc)
    g = list(gc)
    while f and f[-1].is_zero():
        f.pop()
    while g and g[-1].is_zero():
        g.pop()
    if not f or not g:
        raise UndefinedResultantError("Sylvester matrix needs two nonzero polynomials")
    ring = type(f[0])
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    fdesc = list(reversed(f))
    gdesc = list(reversed(g))
    rows = []
    for i in range(dg):
        row = [ring.zero()] * n
        for j, c in enumerate(fdesc):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [ring.zero()] * n
        for j, c in enumerate(gdesc):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant_coeffs(fc: Sequence, gc: Sequence):
    """Resultant of two polynomials given as ascending coefficient lists over
    UniPoly or EtaPoly entries, by the subresultant sequence over that ring.
    Equals the Sylvester determinant of (f, g) with the convention
    Res(f, g) = lc(f)^deg(g) * prod g(alpha_i).
    """
    f = _pl_trim(list(fc))
    g = _pl_trim(list(gc))
    if not f and not g:
        raise UndefinedResultantError("resultant of two zero polynomials")
    if not f or not g:
        return type((f or g)[0]).zero()
    return _prs_resultant(f, g)


# ---------------------------------------------------------------------------
# sections on the standard cyclic cover


def block_matrix_by_classes(sec: SectionData):
    """Chart-0 matrix of multiplication by a section of the standard cyclic
    cover, built class by class: the entry into class (k + j) from class k
    carries the class-j component, times w when k + j wraps past r."""
    r = sec.cover.degree
    w = UniPoly((0, 1))
    rows = [[UniPoly.zero() for _ in range(r)] for _ in range(r)]
    for rho, form in sec.components.items():
        j = rho[0] if rho else 0
        h = form.dehomogenize(0)
        for k in range(r):
            carry = 1 if k + j >= r else 0
            rows[(k + j) % r][k] = rows[(k + j) % r][k] + h * w**carry
    return PolyMatrix(rows)


def decompose_section(r: int, d: int, sigma: BinForm) -> SectionData:
    """Split a degree r*d form on the source into its residue-class parts.

    Monomial x^a y^(rd-a) lands in class k = a mod r.  Class 0 collects a
    degree-d form in (s, t) = (x^r, y^r); every other class collects a
    degree-(d-1) form, the cofactor of x^k y^(r-k).
    """
    r, d = int(r), int(d)
    if r < 1 or d < 0:
        raise DegreeError("need r >= 1 and d >= 0")
    if sigma.degree != r * d:
        raise DegreeError(f"section degree {sigma.degree}, expected {r * d}")
    cover = make_standard_cyclic(r)
    if r == 1:
        return SectionData(cover, d, {(): sigma})
    parts = {k: [0] * (d if k else d + 1) for k in range(r)}
    for a, coeff in enumerate(sigma.coeffs):
        if coeff:
            parts[a % r][a // r] = coeff
    comps = {}
    if any(parts[0]):
        comps[(0,)] = BinForm(d, parts[0])
    for k in range(1, r):
        if any(parts[k]):
            comps[(k,)] = BinForm(d - 1, parts[k])
    return SectionData(cover, d, comps)


def expand_section(sec: SectionData) -> BinForm:
    """Inverse of decompose_section, for standard cyclic covers only."""
    if not is_standard_cyclic(sec.cover):
        raise UnsupportedCoverError("expansion in (x, y) needs the standard cyclic cover")
    r, d = sec.cover.degree, sec.twist_degree
    out = [0] * (r * d + 1)
    for rho, form in sec.components.items():
        k = rho[0] if rho else 0
        for j, coeff in enumerate(form.coeffs):
            out[r * j + k] += coeff
    return BinForm(r * d, out)


def add_sections(x: SectionData, y: SectionData) -> SectionData:
    """Componentwise sum; both sections must share the cover and the twist."""
    if x.cover != y.cover or x.twist_degree != y.twist_degree:
        raise ShapeError("sections live over different covers or twists")
    comps = dict(x.components)
    for rho, form in y.components.items():
        comps[rho] = comps[rho] + form if rho in comps else form
    return SectionData(x.cover, x.twist_degree, comps)


def is_pullback(sec: SectionData) -> bool:
    """A section pulled back from the base has no nontrivial components."""
    iden = sec.cover.group.identity()
    return all(rho == iden for rho in sec.components)


def eval_spectral_point(sec: SectionData, x: ProjPoint):
    """Image of a source point on the curve: (base point, fiber value).

    The fiber value follows the chart conventions: it is the section's value
    at the point divided by the chart trivialization, chart 0 when the base
    point has a nonzero second coordinate and chart 1 otherwise.  The point
    is checked against the characteristic polynomial before it is returned.
    """
    if not is_standard_cyclic(sec.cover):
        raise UnsupportedCoverError("points of the source need the standard cyclic cover")
    r, d = sec.cover.degree, sec.twist_degree
    x0, y0 = Fraction(x.a), Fraction(x.b)
    base = ProjPoint.of(x0**r, y0**r)
    sigma = Fraction(0)
    for rho, form in sec.components.items():
        k = rho[0] if rho else 0
        xi = x0**k * y0 ** (r - k) if k else Fraction(1)
        sigma += xi * form.evaluate(x0**r, y0**r)
    eta = sigma / (y0 ** (r * d) if y0 != 0 else x0 ** (r * d))
    check = invariant_sections(sec).char_form()
    chart = 0 if y0 != 0 else 1
    w0 = Fraction(base.a, base.b) if chart == 0 else Fraction(base.b, base.a)
    if check.dehomogenize(chart).at_base(w0).evaluate(eta) != 0:
        raise InternalCheckError("spectral point fails its own curve equation")
    return base, eta


# ---------------------------------------------------------------------------
# the annihilating polynomial by matrix powers


def _matmul(a: list, b: list) -> list:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), UniPoly.zero()) for j in range(n)]
        for i in range(n)
    ]


def annihilating_by_matrix_powers(sec: SectionData, char: CharData) -> EtaForm:
    """Squarefree part of the characteristic polynomial, chart by chart.

    Each chart takes its own eta-gcd with the eta-derivative, checks that the
    quotient annihilates that chart's whole multiplication matrix with a
    Horner loop of matrix products, and the two homogenized results must
    agree.  Unlike the package, it needs no unit vector and no algebra
    axioms, and it does not prove the result squarefree.
    """
    forms = []
    for chart in (0, 1):
        cp = char.char_form().dehomogenize(chart)
        g = eta_gcd(cp, cp.derivative())
        minimal = cp if g.degree() == 0 else (cp * g.lead).exact_div(g)
        if minimal.lead != UniPoly.one():
            raise InternalCheckError("minimal polynomial came out non-monic")
        mat = [list(row) for row in mult_matrix(sec, chart).rows]
        n = len(mat)
        acc = [[UniPoly.zero()] * n for _ in range(n)]
        for c in reversed(minimal.coeffs):
            acc = _matmul(acc, mat)
            for i in range(n):
                acc[i][i] = acc[i][i] + c
        if any(not e.is_zero() for row in acc for e in row):
            raise InternalCheckError(f"minimal polynomial fails to annihilate chart {chart}")
        forms.append(EtaForm.from_chart(minimal, sec.twist_degree, chart))
    if forms[0].coeffs != forms[1].coeffs:
        raise InternalCheckError("charts disagree on the annihilating polynomial")
    return forms[0]


# ---------------------------------------------------------------------------
# residue fields Q[w]/(p) by rational Euclid


def poly_xgcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended gcd over Q: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = UniPoly.one(), UniPoly.zero()
    v0, v1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    scale = 1 / r0.lead
    return r0.monic(), u0 * scale, v0 * scale


def xgcd_inverse(x: ExtElem) -> ExtElem:
    """Inverse in Q[w]/(p) from the Bezout identity u*x + v*p = 1; raises
    NotInvertibleError when x is zero or shares a factor with p."""
    if x.is_zero():
        raise NotInvertibleError("zero is not invertible")
    g, u, _ = poly_xgcd(x.value, x.modulus)
    if g.degree() != 0:
        raise NotInvertibleError(f"{x.value} shares factor {g} with modulus {x.modulus}")
    return ExtElem(x.modulus, u % x.modulus)


def _euclid_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    inv_lead = xgcd_inverse(b[-1])
    quot = [ExtElem(b[-1].modulus, UniPoly.zero())] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if not a[-1].is_zero():
            shift = len(a) - len(b)
            factor = a[-1] * inv_lead
            quot[shift] = factor
            for i, c in enumerate(b):
                a[shift + i] = a[shift + i] - factor * c
        a.pop()
    return _pl_trim(quot), _pl_trim(a)


def euclid_kpoly_gcd(a: list, b: list) -> list:
    """Monic gcd over Q[w]/(p) by monic Euclid, inverting every divisor's lead."""
    a, b = _pl_trim(list(a)), _pl_trim(list(b))
    while b:
        a, b = b, _euclid_divmod(a, b)[1]
    if a:
        la = xgcd_inverse(a[-1])
        a = [c * la for c in a]
    return a


def euclid_singular_eta(f: EtaPoly, p: UniPoly):
    """``spectral._extension_singular_eta`` on the Euclid gcd and the Bezout
    inverse: the singular eta value over the residue field of p, or None."""
    fk = kpoly_from_etapoly(f, p)
    dk = kpoly_from_etapoly(f.derivative(), p)
    wk = kpoly_from_etapoly(f.dw(), p)
    g = euclid_kpoly_gcd(euclid_kpoly_gcd(fk, dk), wk)
    if len(g) <= 1:
        return None
    if len(g) > 2:
        deriv = _pl_trim([g[j] * j for j in range(1, len(g))])
        h = euclid_kpoly_gcd(g, deriv)
        if len(h) > 1:
            g, rem = _euclid_divmod(g, h)
            if rem:
                raise InternalCheckError("squarefree reduction left a remainder")
    if len(g) != 2:
        raise SingularityNotRepresentableError(f"several singular eta values over {p} = 0")
    return -g[0] * xgcd_inverse(g[1])


# ---------------------------------------------------------------------------
# the triple-cover singularity criterion


@dataclass(frozen=True)
class TripleTestResult:
    status: str  # smooth | singular-case-a | singular-case-b
    point: SingularPoint = None


def _local_order(h: UniPoly, w0: Fraction):
    """Multiplicity of w0 as a root; None stands for infinite order."""
    if h.is_zero():
        return None
    order = 0
    while h.evaluate(w0) == 0:
        h = h.exact_div(UniPoly((-w0, 1)))
        order += 1
    return order


def _modulus_order(h: UniPoly, p: UniPoly):
    if h.is_zero():
        return None
    order = 0
    while (h % p).is_zero():
        h = h.exact_div(p)
        order += 1
    return order


def _at_least(order, k: int) -> bool:
    return order is None or order >= k


def triple_singularity_test(a, b, locus, chart: int = 0) -> TripleTestResult:
    """Local singularity test for a depressed cubic eta^3 + a eta + b.

    ``a`` and ``b`` are chart polynomials (binary forms are dehomogenized on
    the given chart); ``locus`` is a rational base value or a monic
    irreducible polynomial in the chart coordinate.  The curve is singular
    above the locus exactly when either a vanishes there and b doubly so
    (then eta = 0), or a does not vanish but 4a^3 + 27b^2 doubly does (then
    eta = -3b/2a).
    """
    if isinstance(a, BinForm):
        a = a.dehomogenize(chart)
    if isinstance(b, BinForm):
        b = b.dehomogenize(chart)
    if isinstance(locus, UniPoly):
        if locus.degree() == 1:
            return triple_singularity_test(a, b, -locus.coeffs[0], chart)
        if _at_least(_modulus_order(a, locus), 1):
            if _at_least(_modulus_order(b, locus), 2):
                eta = reduce_mod(UniPoly.zero(), locus)
                pt = SingularPoint(0, modulus=locus, eta=eta, certificate="lemma-case-a")
                return TripleTestResult("singular-case-a", pt)
            return TripleTestResult("smooth")
        delta = a**3 * 4 + b**2 * 27
        if _at_least(_modulus_order(delta, locus), 2):
            eta = reduce_mod(b * -3, locus) * reduce_mod(a * 2, locus).inv()
            pt = SingularPoint(0, modulus=locus, eta=eta, certificate="lemma-case-b")
            return TripleTestResult("singular-case-b", pt)
        return TripleTestResult("smooth")
    w0 = Fraction(locus)
    point = ProjPoint.of(w0, 1) if chart == 0 else ProjPoint.of(1, w0)
    if _at_least(_local_order(a, w0), 1):
        if _at_least(_local_order(b, w0), 2):
            pt = SingularPoint(chart, point=point, eta=Fraction(0), certificate="lemma-case-a")
            return TripleTestResult("singular-case-a", pt)
        return TripleTestResult("smooth")
    delta = a**3 * 4 + b**2 * 27
    if _at_least(_local_order(delta, w0), 2):
        eta = Fraction(-3) * b.evaluate(w0) / (2 * a.evaluate(w0))
        pt = SingularPoint(chart, point=point, eta=eta, certificate="lemma-case-b")
        return TripleTestResult("singular-case-b", pt)
    return TripleTestResult("smooth")


def triple_test_cubic(cubic: EtaPoly, locus, chart: int = 0) -> TripleTestResult:
    """Entry point for a full monic cubic chart polynomial.

    Refuses cubics that still carry an eta^2 term; complete the cube first
    (``spectral.depressed_cubic_parts`` does this at the level of forms).
    """
    if cubic.degree() != 3 or cubic.lead != UniPoly.one():
        raise DegreeError("need a monic cubic in eta")
    if not cubic.coeff(2).is_zero():
        raise NonDepressedCubicError("eta^2 coefficient is nonzero; complete the cube")
    return triple_singularity_test(cubic.coeff(1), cubic.coeff(0), locus, chart)
