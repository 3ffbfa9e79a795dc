"""Spectral curves of the induced twisted endomorphism.

Multiplication by a decomposed section, pushed down to the base, is a matrix
of binary forms.  This module extracts its characteristic polynomial and
its reduced part as monic ``EtaForm``s (the characteristic coefficients are
the invariant sections of the twist powers), locates the singular points of
the curve those cut out, and carries the closed-form singularity predictor
for double covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .covers import SectionData, mult_matrix
from .errors import (
    DegreeError,
    InternalCheckError,
    NonReducedCurveError,
    PullbackSectionError,
    ShapeError,
    SingularityNotRepresentableError,
)
from .exactalg import (
    BinForm,
    EtaPoly,
    ExtElem,
    ProjPoint,
    UniPoly,
    _sqfree_degree,
    _to_int_poly,
    annihilates_unit,
    char_poly_matrix,
    factor_rational,
    homogenize,
    kpoly_gcd,
    min_poly_matrix,
    poly_gcd,
    rational_roots,
    reduce_mod,
    resultant,
    vanishes_at,
    vanishing_order,
)


@dataclass(frozen=True)
class EtaForm:
    """Monomial-graded polynomial in the fiber coordinate eta.

    The coefficient of eta^j is a binary form of degree (n - j) * twist,
    where n is the eta-degree; a point of the total space of O(twist) over
    [s0:t0] can be substituted exactly.
    """

    twist: int
    coeffs: tuple

    def __init__(self, twist: int, coeffs: Sequence[BinForm]):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1].is_zero():
            raise ShapeError("leading eta coefficient must be nonzero")
        n = len(coeffs) - 1
        for j, c in enumerate(coeffs):
            if c.degree != (n - j) * twist:
                raise DegreeError(
                    f"eta^{j} coefficient has degree {c.degree}, expected {(n - j) * twist}"
                )
        object.__setattr__(self, "twist", int(twist))
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_chart(cls, poly: EtaPoly, twist: int, chart: int) -> EtaForm:
        n = poly.degree()
        if n < 0:
            raise ShapeError("cannot homogenize the zero polynomial")
        coeffs = []
        for j in range(n + 1):
            coeffs.append(homogenize(poly.coeff(j), (n - j) * twist, chart))
        return cls(twist, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> BinForm:
        n = self.degree
        if 0 <= j <= n:
            return self.coeffs[j]
        return BinForm.zero(max((n - j) * self.twist, 0))

    def is_monic(self) -> bool:
        return self.coeffs[-1] == BinForm.const(1)

    def dehomogenize(self, chart: int) -> EtaPoly:
        return EtaPoly([c.dehomogenize(chart) for c in self.coeffs])

    def __mul__(self, other: EtaForm) -> EtaForm:
        if self.twist != other.twist:
            raise DegreeError("eta forms carry different twists")
        n, m = self.degree, other.degree
        out = [BinForm.zero((n + m - j) * self.twist) for j in range(n + m + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return EtaForm(self.twist, out)

    def __pow__(self, k: int) -> EtaForm:
        if k < 1:
            raise DegreeError("only positive powers are meaningful for eta forms")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def str_in(self, u: str, v: str, fiber: str) -> str:
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeff(j)
            if c.is_zero():
                continue
            if j == 0:
                parts.append(f"({c.str_in(u, v)})")
            elif c == BinForm.const(1):
                parts.append(fiber if j == 1 else f"{fiber}^{j}")
            else:
                head = f"({c.str_in(u, v)})*{fiber}"
                parts.append(head if j == 1 else f"{head}^{j}")
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.str_in("s", "t", "eta")


@dataclass(frozen=True)
class SpectralCurve:
    """Curve data: characteristic polynomial plus its reduced part.

    ``char`` is the monic characteristic polynomial of eta-degree r, the
    cover's degree, and ``annihilating`` its squarefree part; both are
    EtaForms of the section's twist.  ``integral`` means certified
    integral; False is "not certified", not a proof of reducibility.
    ``witness_base`` is a base value where the reduced part's fibre is
    squarefree, which ``spectral_curve`` sets; curves assembled by hand
    leave it None.
    """

    char: EtaForm
    annihilating: EtaForm
    integral: bool = False
    witness_base: Fraction = None


@dataclass(frozen=True)
class SingularPoint:
    """A certified singular point of the reduced curve.

    Rational base points are stored as projective points; conjugate orbits
    carry the monic irreducible minimal polynomial of the base coordinate on
    the chart where it was found (always chart 0, since the point at
    infinity is rational).  The eta value lives in the matching residue
    field.
    """

    chart: int
    point: ProjPoint = None
    modulus: UniPoly = None
    eta: Union[Fraction, ExtElem] = Fraction(0)
    certificate: str = "jacobian"

    def locus_key(self):
        """Canonical sort/set key: chart, factor degree, coefficients, eta."""
        if self.point is not None:
            if self.point.b != 0:
                base = (0, 1, (Fraction(self.point.a, self.point.b),))
            else:
                base = (1, 1, (Fraction(0),))
        else:
            base = (0, self.modulus.degree(), tuple(self.modulus.coeffs))
        if isinstance(self.eta, ExtElem):
            eta_key = (1, tuple(self.eta.value.coeffs))
        else:
            eta_key = (0, (Fraction(self.eta),))
        return base + (eta_key,)

    def __str__(self) -> str:
        if self.point is not None:
            where = str(self.point)
        else:
            where = f"{{{self.modulus.str_in('w')} = 0}}"
        if isinstance(self.eta, ExtElem):
            eta = self.eta.value.str_in("w")
        else:
            eta = str(self.eta)
        return f"({where}, eta = {eta})"


# ---------------------------------------------------------------------------
# characteristic and annihilating data


def _homogenized_eta(poly: EtaPoly, twist: int, chart: int, what: str) -> EtaForm:
    try:
        return EtaForm.from_chart(poly, twist, chart)
    except DegreeError as exc:
        raise InternalCheckError(
            f"{what} does not fit its degree pattern on chart {chart}: {exc}"
        )


def _chart_matrices(sec: SectionData) -> tuple:
    """The multiplication matrices of ``sec`` on charts 0 and 1."""
    return mult_matrix(sec, 0), mult_matrix(sec, 1)


def invariant_sections(sec: SectionData, mats: tuple = None) -> EtaForm:
    """Characteristic polynomial of the pushed-forward multiplication map.

    A monic form of eta-degree r whose eta^(r-i) coefficient, of degree
    i*twist, is the i-th invariant section up to the sign (-1)^i.  Computed
    independently on both affine charts; the two homogenizations must agree
    form by form.  ``mats`` are the two charts' matrices, as
    ``spectral_curve`` passes them; without it they are built here.
    """
    d = sec.twist_degree
    polys = [char_poly_matrix(mat) for mat in mats or _chart_matrices(sec)]
    forms = [_homogenized_eta(cp, d, chart, "characteristic polynomial") for chart, cp in enumerate(polys)]
    if forms[0].coeffs != forms[1].coeffs:
        raise InternalCheckError("charts disagree on the characteristic polynomial")
    return forms[0]


def _reduced_part(mats: tuple, twist: int, char: EtaForm) -> tuple[EtaForm, Fraction]:
    """The reduced part m of ``char`` as a form, with its witness base.

    ``mats`` are the multiplication matrices M of the section on charts 0
    and 1, and ``twist`` its twist degree.  ``min_poly_matrix`` takes m
    once, on chart 0, from ``char.dehomogenize(0)``.  That is the chart-0
    ``char_poly_matrix`` result coefficient by coefficient: ``from_chart``
    only pads each coefficient list with zeros up to its form degree, and
    ``BinForm.dehomogenize(0)`` strips them again.  It certifies m: m is
    squarefree at the witness base and char = m^k, which together prove
    m = sqfree(char).  m(sigma) = 0 is checked in the cover algebra on both
    charts, as m(M) e_0 = 0 by ``annihilates_unit``.  This is as strong as
    m(M) = 0, because ``mult_matrix`` is the regular representation of a
    commutative, associative algebra with unit e_0, the trivial character:
    ``validate_algebra`` checks this for explicit covers, and the built-in
    constructors satisfy it by construction.

    The chart-1 check is not implied by the chart-0 one: it independently
    checks ``mult_matrix``'s chart-1 dehomogenization, which the two
    characteristic polynomials agreeing in ``invariant_sections`` does not
    prove.  It runs over Z at the packed point where the chart-1
    ``char_poly_matrix`` already made the matrix's packed vectors, and
    reads them, as the chart-0 check does those of chart 0.
    """
    minimal, base = min_poly_matrix(mats[0], char.dehomogenize(0))
    form = _homogenized_eta(minimal, twist, 0, "annihilating polynomial")
    if not annihilates_unit(mats[1], form.dehomogenize(1)):
        raise InternalCheckError("annihilating polynomial fails to annihilate on chart 1")
    return form, base


def annihilating_poly(sec: SectionData, char: EtaForm) -> EtaForm:
    """Reduced (squarefree) part of the characteristic polynomial.

    ``char`` is ``invariant_sections(sec)``; see ``_reduced_part`` for the
    certificates.
    """
    return _reduced_part(_chart_matrices(sec), sec.twist_degree, char)[0]


def spectral_curve(sec: SectionData) -> SpectralCurve:
    """Bundle the characteristic polynomial with its reduced part m and the
    base value where m is certified squarefree.

    Each chart's multiplication matrix is built once, and the
    characteristic polynomial, the reduced part and both annihilation
    checks all read it.  Rank-1 input always gives the graph of a section,
    which is integral; otherwise the integrality flag starts out
    uncertified.
    """
    mats = _chart_matrices(sec)
    char = invariant_sections(sec, mats)
    annih, base = _reduced_part(mats, sec.twist_degree, char)
    return SpectralCurve(char, annih, integral=(char.degree == 1), witness_base=base)


# ---------------------------------------------------------------------------
# discriminants


def eta_discriminant(form: EtaForm) -> BinForm:
    """Resultant of the form with its eta-derivative, as a binary form.

    Both charts are computed and homogenized to degree n(n-1)*twist; they
    must agree.
    """
    n = form.degree
    if n < 1:
        raise DegreeError("discriminant needs eta-degree at least 1")
    target = n * (n - 1) * form.twist
    out = []
    for chart in (0, 1):
        f = form.dehomogenize(chart)
        res = resultant(f, f.derivative())
        try:
            out.append(homogenize(res, target, chart))
        except DegreeError as exc:
            raise InternalCheckError(f"discriminant overflows its degree: {exc}")
    if out[0] != out[1]:
        raise InternalCheckError("charts disagree on the discriminant")
    return out[0]


def cubic_delta(a: BinForm, b: BinForm) -> BinForm:
    """The combination 4a^3 + 27b^2 for a depressed cubic eta^3 + a eta + b."""
    if 3 * a.degree != 2 * b.degree:
        raise DegreeError(
            f"degrees ({a.degree}, {b.degree}) do not fit a depressed cubic"
        )
    return a**3 * 4 + b**2 * 27


def depressed_cubic_parts(form: EtaForm):
    """Shift a monic cubic to kill its eta^2 term.

    Returns (shift, a, b) with the original eta equal to the depressed one
    plus shift, and the depressed polynomial equal to eta^3 + a eta + b.
    """
    if form.degree != 3 or not form.is_monic():
        raise DegreeError("need a monic cubic in eta")
    c2, c1, c0 = form.coeff(2), form.coeff(1), form.coeff(0)
    third = Fraction(1, 3)
    shift = c2 * (-third)
    a = c1 - c2 * c2 * third
    b = c0 - c1 * c2 * third + c2**3 * Fraction(2, 27)
    return shift, a, b


# ---------------------------------------------------------------------------
# singular locus


def _rational_singular_etas(f: EtaPoly, f_eta: EtaPoly, f_w: EtaPoly, w0: Fraction) -> list:
    """Exact eta values where the curve f is singular above a rational w0;
    f_eta and f_w are f's partial derivatives."""
    at = poly_gcd(f.at_base(w0), f_eta.at_base(w0))
    at = poly_gcd(at, f_w.at_base(w0))
    if at.degree() <= 0:
        return []
    roots = rational_roots(at)
    if sum(m for _, m in roots) < at.degree():
        raise SingularityNotRepresentableError(
            f"singular eta values over w = {w0} generate a field extension"
        )
    return [root for root, _ in roots]


def _extension_singular_eta(f: EtaPoly, f_eta: EtaPoly, f_w: EtaPoly, p: UniPoly):
    """Eta value (in the residue field K of p) where the curve f is singular;
    f_eta and f_w are f's partial derivatives.

    Returns None when the Jacobian refutes the candidate.  g = gcd(f, f_eta,
    f_w) in K[eta] is monic, of degree k say.  Only one singular value can
    be represented: g = (eta - eta0)^k, the case deg gcd(g, g') = k - 1,
    where eta0 = -g_(k-1) / k.  Split singular fibers over one conjugacy
    class raise instead of guessing.  f, f_eta and f_w are checked to vanish
    at eta0 in K.  When gcd(f, f_eta) is already eta - eta0, g is that or 1
    as f_w(eta0) = 0 or not, so ``vanishes_at`` replaces the second gcd.
    """
    g = kpoly_gcd(f, f_eta, p)
    if g.degree() == 1:
        eta0 = ExtElem(p, -g.coeffs[0])
        if not vanishes_at(f_w, eta0):
            return None
        if not (vanishes_at(f, eta0) and vanishes_at(f_eta, eta0)):
            raise InternalCheckError("singular eta value is not a root of f, f_eta and f_w")
        return eta0
    g = kpoly_gcd(g, f_w, p)
    k = g.degree()
    if k < 1:
        return None
    if k > 1 and kpoly_gcd(g, g.derivative(), p).degree() != k - 1:
        raise SingularityNotRepresentableError(
            f"several singular eta values over the divisor {p.str_in('w')} = 0"
        )
    eta0 = ExtElem(p, g.coeffs[k - 1] * Fraction(-1, k))
    if not all(vanishes_at(h, eta0) for h in (f, f_eta, f_w)):
        raise InternalCheckError("singular eta value is not a root of f, f_eta and f_w")
    return eta0


def singular_locus(curve: SpectralCurve) -> list:
    """All singular points of the curve cut out by the reduced polynomial.

    Candidates are the base loci where the eta-discriminant vanishes to
    order at least two; each is then certified or refuted by evaluating the
    polynomial and both partial derivatives exactly, over the rationals or
    over the residue field of the locus.
    """
    if all(c.is_zero() for c in curve.char.coeffs[:-1]):
        raise NonReducedCurveError(
            "the zero section cuts a non-reduced scheme; nothing to report"
        )
    form = curve.annihilating
    disc = eta_discriminant(form)
    if disc.is_zero():
        raise NonReducedCurveError("polynomial is not squarefree; reduce it first")
    if form.degree == 1:
        return []
    found = []
    f = form.dehomogenize(0)
    f_eta, f_w = f.derivative(), f.dw()
    _, factors = factor_rational(disc.dehomogenize(0))
    for p, mult in factors:
        if mult < 2:
            continue
        if p.degree() == 1:
            w0 = -p.coeffs[0]
            for eta in _rational_singular_etas(f, f_eta, f_w, w0):
                found.append(SingularPoint(0, point=ProjPoint.of(w0, 1), eta=eta))
        else:
            eta = _extension_singular_eta(f, f_eta, f_w, p)
            if eta is not None:
                found.append(SingularPoint(0, modulus=p, eta=eta))
    # only the point at infinity is new on the second chart, where it is w = 0
    if vanishing_order(disc, ProjPoint.of(1, 0)) >= 2:
        f = form.dehomogenize(1)
        for eta in _rational_singular_etas(f, f.derivative(), f.dw(), Fraction(0)):
            found.append(SingularPoint(1, point=ProjPoint.of(1, 0), eta=eta))
    found.sort(key=lambda sp: sp.locus_key())
    return found


# ---------------------------------------------------------------------------
# specialized criteria


def double_cover_singularities(f: BinForm, g: BinForm, branch: BinForm) -> list:
    """Predicted singular set of (eta - f)^2 - branch * g^2.

    The points are the zeros of g, each at height eta = f, in the order of
    ``SingularPoint.locus_key``, so the list compares directly with the
    ``singular_locus`` of the same curve.
    """
    if g.is_zero():
        raise PullbackSectionError("g = 0 gives a scalar field; nothing to predict")
    if branch.is_zero() or branch.degree % 2 != 0:
        raise DegreeError("branch form must be nonzero of even degree")
    if f.degree != g.degree + branch.degree // 2:
        raise DegreeError("degrees of f, g, branch are inconsistent")
    b0 = branch.dehomogenize(0)
    if branch.degree > 0 and vanishing_order(branch, ProjPoint.of(1, 0)) > 1:
        raise ShapeError("branch form must be squarefree")
    if b0.degree() > 0 and _sqfree_degree(_to_int_poly(b0)) != b0.degree():
        raise ShapeError("branch form must be squarefree")

    predicted = []
    g0 = g.dehomogenize(0)
    if g0.degree() < g.degree:  # the missing degree sits at [1:0]
        eta = f.dehomogenize(1).evaluate(Fraction(0))
        predicted.append(
            SingularPoint(1, point=ProjPoint.of(1, 0), eta=eta, certificate="prop-gen-double")
        )
    if g0.degree() > 0:
        for p, _ in factor_rational(g0)[1]:
            if p.degree() == 1:
                w0 = -p.coeffs[0]
                eta = f.dehomogenize(0).evaluate(w0)
                predicted.append(
                    SingularPoint(
                        0, point=ProjPoint.of(w0, 1), eta=eta, certificate="prop-gen-double"
                    )
                )
            else:
                eta = reduce_mod(f.dehomogenize(0), p)
                predicted.append(
                    SingularPoint(0, modulus=p, eta=eta, certificate="prop-gen-double")
                )
    predicted.sort(key=lambda sp: sp.locus_key())
    return predicted


def arithmetic_genus(r: int, d: int) -> int:
    """Arithmetic genus of an integral spectral curve of rank r, twist d."""
    r, d = int(r), int(d)
    if r < 1 or d < 1:
        raise DegreeError("need r >= 1 and d >= 1")
    return r * (r - 1) * d // 2 - r + 1
