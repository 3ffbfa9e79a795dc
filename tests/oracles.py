"""Second algorithms that the tests check the package against.

Nothing in the package calls these.  Each one is either an independent way
to compute something the package computes (the Sylvester matrix, resultants
over Q[w] and Q[w][eta] by one remainder sequence, characteristic
polynomials of arbitrary matrices by Berkowitz, polynomial and form
arithmetic and printing in Fraction arithmetic, the multiplication matrix
class by class and form by form, the annihilating polynomial by matrix powers, the
annihilation check by Horner over Q[w], the triple-cover criterion, points
of the source mapped onto the curve, residue-field inverses and gcds by
rational Euclid, polynomial eigenvalue branches by Newton lifting, eigen
lines by the kernel over Q[w]), or a
helper that builds and recombines test sections on
the standard cyclic cover.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from speccover.covers import (
    SectionData,
    SplitBundle,
    is_standard_cyclic,
    make_standard_cyclic,
    mult_matrix,
    pushforward_line_bundle,
)
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
    _interpolate_int,
    _pl_trim,
    _prs_resultant,
    eta_gcd,
    rational_roots,
    reduce_mod,
)
from speccover.spectral import CharData, EtaForm, SingularPoint, invariant_sections
from speccover.stability import SubsheafRecord, hilbert_poly, kernel_basis


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
# multiplication matrices


def mult_matrix_by_forms(sec: SectionData, chart: int = 0) -> PolyMatrix:
    """Matrix of multiplication by the section, entry by entry in UniPoly
    arithmetic: the component at rho sends the rho' summand into the
    (rho + rho') one with coefficient h_rho * c(rho, rho'), each structure
    form fetched by ``CoverAlgebra.structure_form``."""
    alg = sec.cover
    group = alg.group
    chars = group.elements()
    index = {rho: i for i, rho in enumerate(chars)}
    n = len(chars)
    rows = [[UniPoly.zero() for _ in range(n)] for _ in range(n)]
    for rho, form in sec.components.items():
        h = form.dehomogenize(chart)
        for col_char in chars:
            c = alg.structure_form(rho, col_char).dehomogenize(chart)
            i = index[group.add(rho, col_char)]
            j = index[col_char]
            rows[i][j] = rows[i][j] + h * c
    return PolyMatrix(rows)


# ---------------------------------------------------------------------------
# characteristic polynomials of arbitrary matrices


def berkowitz(m: list[list[int]]) -> list[int]:
    """det(x * id - M) for an integer matrix M, coefficients descending.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 1984): the
    characteristic polynomial of the leading (k+1) x (k+1) block is the
    convolution of that of the leading k x k block A with
    (1, -m_kk, -R C, -R A C, ..., -R A^(k-1) C), where R and C are the new
    row and column outside the diagonal.
    """
    poly = [1]
    for k in range(len(m)):
        toeplitz = [1, -m[k][k]]
        col = [m[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, m[k], col)))
            col = [sum(map(mul, m[i], col)) for i in range(k)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return poly


def char_poly_by_berkowitz(a: PolyMatrix) -> EtaPoly:
    """det(eta * id - A) for any square matrix over Q[w], with no premise on
    A: Berkowitz on each integer matrix B(x), B = den * A, at x = 0..n e,
    and each eta-coefficient interpolated exactly and divided by den^i.
    B(x) is evaluated from the UniPoly entries ``a.rows``, apart from the
    matrix's own integer form."""
    n = a.n
    den = lcm(*(c.denominator for row in a.rows for e in row for c in e.coeffs))
    deg = max(0, max(e.degree() for row in a.rows for e in row))
    samples = []
    for x in range(n * deg + 1):
        samples.append(berkowitz([[int(e.evaluate(x) * den) for e in row] for row in a.rows]))
    coeffs = []
    for i in range(n + 1):
        ints = _interpolate_int([s[i] for s in samples[: i * deg + 1]])
        coeffs.append(UniPoly(Fraction(c, den**i) for c in ints))
    return EtaPoly(reversed(coeffs))


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


def annihilates_unit_by_horner(a: PolyMatrix, poly: EtaPoly) -> bool:
    """Whether poly(A) e_0 = 0, by Horner on a vector over Q[w]:
    v <- A v + c e_0, one matrix-vector product per coefficient."""
    vec = [UniPoly.zero()] * a.n
    for c in reversed(poly.coeffs):
        vec = a.apply(vec)
        vec[0] = vec[0] + c
    return all(e.is_zero() for e in vec)


# ---------------------------------------------------------------------------
# polynomial eigenvalue branches by Newton lifting


def compose(p: UniPoly, inner: UniPoly) -> UniPoly:
    """p(inner(w)), exact."""
    acc = UniPoly.zero()
    for c in reversed(p.coeffs):
        acc = acc * inner + UniPoly.const(c)
    return acc


def shift(p: UniPoly, c) -> UniPoly:
    """Taylor shift: returns p(w + c)."""
    return compose(p, UniPoly((Fraction(c), 1)))


def eval_poly(f: EtaPoly, lam: UniPoly) -> UniPoly:
    """Substitute eta = lam(w) in f; returns an element of Q[w]."""
    acc = UniPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * lam + c
    return acc


def truncate(p: UniPoly, n: int) -> UniPoly:
    return UniPoly(p.coeffs[:n])


def series_inv(u: UniPoly, n: int) -> UniPoly:
    """Inverse of a power series with a unit constant term, modulo w^n."""
    if not u.coeffs or u.coeffs[0] == 0:
        raise InternalCheckError("series inversion needs a unit constant term")
    v = UniPoly.const(1 / u.coeffs[0])
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        v = truncate(v * (UniPoly.const(2) - truncate(u * v, prec)), prec)
    return v


def lift_series_root(shifted: EtaPoly, eta0: Fraction, order: int) -> UniPoly:
    """Newton lifting of a simple root of an eta-polynomial over power series."""
    lam = UniPoly.const(eta0)
    deriv = shifted.derivative()
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        val = truncate(eval_poly(shifted, lam), prec)
        if val.is_zero():
            continue
        inv = series_inv(truncate(eval_poly(deriv, lam), prec), prec)
        lam = truncate(lam - val * inv, prec)
    return lam


def polynomial_branches_by_lifting(f: EtaPoly, base, d: int) -> tuple:
    """Every root of f in Q[w] of degree <= d, sorted by degree.

    f(base, eta) must be squarefree.  A polynomial branch takes a rational
    value at the base, so lifting every rational fibre root there to order
    d + 1 and keeping the truncations that substitute to zero is
    exhaustive; f need not be irreducible.
    """
    base = Fraction(base)
    shifted = EtaPoly(tuple(shift(c, base) for c in f.coeffs))
    roots = []
    for eta0, _ in rational_roots(f.at_base(base)):
        cand = compose(lift_series_root(shifted, eta0, d + 1), UniPoly((-base, 1)))
        if cand.degree() <= d and eval_poly(f, cand).is_zero():
            roots.append(cand)
    roots.sort(key=lambda p: (p.degree(), p.coeffs))
    return tuple(roots)


# ---------------------------------------------------------------------------
# UniPoly and BinForm arithmetic and printing coefficient by coefficient in
# Fraction arithmetic, as the package did before it scaled to integers


def fraction_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    if not a.coeffs or not b.coeffs:
        return UniPoly.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] = out[i + j] + x * y
    return UniPoly(out)


def fraction_pow(a: UniPoly, n: int) -> UniPoly:
    if n < 0:
        raise ValueError("negative power of a polynomial")
    out = UniPoly.one()
    base = a
    while n:
        if n & 1:
            out = fraction_mul(out, base)
        n >>= 1
        if n:
            base = fraction_mul(base, base)
    return out


def fraction_evaluate(p: UniPoly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def fraction_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return UniPoly.zero(), a
    quo = [Fraction(0)] * (dq + 1)
    dlead = b.lead
    for k in range(dq, -1, -1):
        c = rem[k + b.degree()] / dlead
        quo[k] = c
        if c:
            for j, y in enumerate(b.coeffs):
                rem[k + j] -= c * y
    return UniPoly(quo), UniPoly(rem[: b.degree()] if b.degree() > 0 else ())


def _fmt_rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def fraction_str_in(p: UniPoly, var: str) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        if i == 0:
            term = _fmt_rat(c)
        else:
            mag = "" if abs(c) == 1 else _fmt_rat(abs(c)) + "*"
            if c < 0:
                mag = "-" + mag
            term = mag + (var if i == 1 else f"{var}^{i}")
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


def fraction_form_mul(f: BinForm, g: BinForm) -> BinForm:
    out = [Fraction(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    return BinForm(f.degree + g.degree, out)


def fraction_form_pow(f: BinForm, n: int) -> BinForm:
    if n < 0:
        raise ValueError("negative power of a form")
    out = BinForm.const(1)
    for _ in range(n):
        out = fraction_form_mul(out, f)
    return out


def fraction_form_str_in(f: BinForm, u: str, v: str) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        j = f.degree - i
        factors = []
        if i:
            factors.append(u if i == 1 else f"{u}^{i}")
        if j:
            factors.append(v if j == 1 else f"{v}^{j}")
        mono = "*".join(factors)
        if not mono:
            term = _fmt_rat(c)
        else:
            mag = "" if abs(c) == 1 else _fmt_rat(abs(c)) + "*"
            term = ("-" if c < 0 else "") + mag + mono
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


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


def xgcd_inverse(x: UniPoly, p: UniPoly) -> UniPoly:
    """Inverse of x in Q[w]/(p) from the Bezout identity u*x + v*p = 1,
    reduced modulo p; raises NotInvertibleError when x is zero modulo p or
    shares a factor with p."""
    x = x % p
    if x.is_zero():
        raise NotInvertibleError("zero is not invertible")
    g, u, _ = poly_xgcd(x, p)
    if g.degree() != 0:
        raise NotInvertibleError(f"{x} shares factor {g} with modulus {p}")
    return u % p


def _reduced(f: EtaPoly, p: UniPoly) -> list:
    return _pl_trim([c % p for c in f.coeffs])


def _euclid_divmod(a: EtaPoly, b: EtaPoly, p: UniPoly) -> tuple[EtaPoly, EtaPoly]:
    """Quotient and remainder of a by b != 0 in K[eta], K = Q[w]/(p), by
    long division in UniPoly arithmetic modulo p."""
    a, b = _reduced(a, p), _reduced(b, p)
    inv_lead = xgcd_inverse(b[-1], p)
    quot = [UniPoly.zero()] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if not a[-1].is_zero():
            shift = len(a) - len(b)
            factor = a[-1] * inv_lead % p
            quot[shift] = factor
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return EtaPoly(quot), EtaPoly(a)


def euclid_kpoly_gcd(a: EtaPoly, b: EtaPoly, p: UniPoly) -> EtaPoly:
    """Monic gcd over Q[w]/(p) by monic Euclid, inverting every divisor's lead."""
    a, b = EtaPoly(_reduced(a, p)), EtaPoly(_reduced(b, p))
    while b:
        a, b = b, _euclid_divmod(a, b, p)[1]
    if a:
        la = xgcd_inverse(a.lead, p)
        a = EtaPoly(c * la % p for c in a.coeffs)
    return a


def euclid_singular_eta(f: EtaPoly, p: UniPoly):
    """``spectral._extension_singular_eta`` on the Euclid gcd and the Bezout
    inverse: the singular eta value over the residue field of p, or None."""
    g = euclid_kpoly_gcd(euclid_kpoly_gcd(f, f.derivative(), p), f.dw(), p)
    if g.degree() < 1:
        return None
    if g.degree() > 1:
        h = euclid_kpoly_gcd(g, g.derivative(), p)
        if h.degree() > 0:
            g, rem = _euclid_divmod(g, h, p)
            if rem:
                raise InternalCheckError("squarefree reduction left a remainder")
    if g.degree() != 1:
        raise SingularityNotRepresentableError(f"several singular eta values over {p} = 0")
    return ExtElem(p, -g.coeffs[0] * xgcd_inverse(g.coeffs[1], p) % p)


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
            eta = reduce_mod(b * -3 * xgcd_inverse(a * 2, locus), locus)
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


# ---------------------------------------------------------------------------
# eigen lines


def eigen_records_by_kernel(m_degrees: SplitBundle, sec: SectionData, roots: tuple, ample_degree: int) -> list:
    """The eigen records of ``invariant_subsheaf_search``, from the kernel of
    M - lambda I over Q[w] for M the chart-0 multiplication matrix, which
    every summand's pushforward carries.  Each basis vector v of the kernel,
    placed in each summand, spans a line of degree min(degs[i] - deg v_i)
    over v_i != 0, degs being that summand's pushforward degrees; the
    largest is kept, ties going to the least ``tuple(p.coeffs for p in v)``.
    """
    r, ell = sec.cover.degree, m_degrees.rank
    block = mult_matrix(sec, 0)
    zero = (UniPoly.zero(),)
    out = []
    for lam in roots:
        shifted = [[e - lam if i == j else e for j, e in enumerate(row)] for i, row in enumerate(block.rows)]
        kernel = kernel_basis(PolyMatrix(shifted))
        candidates = []
        for offset, a in enumerate(m_degrees.degrees):
            degs = pushforward_line_bundle(r, a).degrees
            for vec in kernel:
                line = min(degs[i] - e.degree() for i, e in enumerate(vec) if not e.is_zero())
                candidates.append((line, zero * (r * offset) + vec + zero * (r * (ell - offset - 1))))
        if not candidates:
            raise InternalCheckError("an eigenvalue branch must contribute a kernel line")
        c = max(line for line, _ in candidates)
        vec = min((v for line, v in candidates if line == c), key=lambda v: tuple(p.coeffs for p in v))
        hilbert = hilbert_poly(SplitBundle([c]), ample_degree)
        out.append(SubsheafRecord(kind="eigen", rank=1, degrees=(c,), hilbert=hilbert, eigenvalue=lam, vector=vec))
    return out
