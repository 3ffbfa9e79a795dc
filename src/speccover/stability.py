"""Hilbert polynomials and stability verdicts for pushed-forward Higgs pairs.

The bundle downstairs is a direct sum of line bundles, so every normalized
Hilbert polynomial is affine in the twisting exponent and all comparisons
are exact.  Invariant subsheaves are searched directly in two families:
block subsheaves coming from summands of the upstairs bundle, and eigen
lines attached to polynomial eigenvalue branches of the curve equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .covers import SectionData, SplitBundle, is_standard_cyclic, mult_matrix, pushforward_line_bundle
from .errors import (
    DegreeError,
    InternalCheckError,
    PullbackSectionError,
    UnsupportedCoverError,
)
from .exactalg import EtaPoly, PolyMatrix, UniPoly, as_rat, poly_gcd, rational_roots
from .spectral import SpectralCurve, spectral_curve

STABLE = "stable"
SEMISTABLE = "strictly-semistable"
UNSTABLE = "unstable"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class HilbertPoly:
    """Normalized Hilbert polynomial linear*k + constant, exact rationals."""

    linear: Fraction
    constant: Fraction

    def evaluate(self, k) -> Fraction:
        return self.linear * as_rat(k) + self.constant

    def scale(self, c) -> HilbertPoly:
        c = as_rat(c)
        return HilbertPoly(self.linear * c, self.constant * c)

    def __str__(self) -> str:
        return f"{self.linear}*k + {self.constant}"


def hilbert_poly(bundle: SplitBundle, ample_degree: int) -> HilbertPoly:
    """Euler characteristic of the twisted bundle, divided by its rank."""
    if ample_degree < 1:
        raise DegreeError("ample degree must be a positive integer")
    n = bundle.rank
    const = Fraction(sum(a + 1 for a in bundle.degrees), n)
    return HilbertPoly(Fraction(ample_degree), const)


def precedes(p: HilbertPoly, q: HilbertPoly, strict: bool = False) -> bool:
    """Eventual comparison p(k) vs q(k) for large k, decided lexicographically."""
    a = (p.linear, p.constant)
    b = (q.linear, q.constant)
    return a < b if strict else a <= b


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    lhs: HilbertPoly
    rhs: HilbertPoly

    def __bool__(self) -> bool:
        return self.ok


def pushforward_relation_check(r: int, m: int) -> RelationReport:
    """Total Hilbert polynomial upstairs vs degree times the one downstairs.

    Upstairs the line bundle of degree m is twisted by the pulled-back ample
    class, of degree r; downstairs its pushforward is twisted by degree 1.
    """
    lhs = HilbertPoly(Fraction(r), Fraction(m + 1))
    rhs = hilbert_poly(pushforward_line_bundle(r, m), 1).scale(r)
    return RelationReport(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# the Higgs pair downstairs, block by block


def _require_standard(sec: SectionData) -> int:
    if not is_standard_cyclic(sec.cover):
        raise UnsupportedCoverError(
            "subsheaf search is implemented for the standard cyclic cover only"
        )
    return sec.cover.degree


def graded_degrees(m_degrees: SplitBundle, r: int) -> tuple[int, ...]:
    """Degrees of the full pushforward, summand by summand then class by class."""
    out = []
    for a in m_degrees.degrees:
        out.extend(pushforward_line_bundle(r, a).degrees)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomial eigenvalue branches


def _truncate(p: UniPoly, n: int) -> UniPoly:
    return UniPoly(p.coeffs[:n])


def _series_inv(u: UniPoly, n: int) -> UniPoly:
    if not u.coeffs or u.coeffs[0] == 0:
        raise InternalCheckError("series inversion needs a unit constant term")
    v = UniPoly.const(1 / u.coeffs[0])
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        v = _truncate(v * (UniPoly.const(2) - _truncate(u * v, prec)), prec)
    return v


def _lift_series_root(shifted, eta0: Fraction, order: int) -> UniPoly:
    """Newton lifting of a simple root of an eta-polynomial over power series."""
    lam = UniPoly.const(eta0)
    deriv = shifted.derivative()
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        val = _truncate(shifted.eval_poly(lam), prec)
        if val.is_zero():
            continue
        inv = _series_inv(_truncate(deriv.eval_poly(lam), prec), prec)
        lam = _truncate(lam - val * inv, prec)
    return lam


@dataclass(frozen=True)
class RootSearch:
    """All polynomial eigenvalue branches of the reduced curve equation.

    ``base`` is the unramified base value they were lifted from; it is None
    for a curve of eta-degree one, whose one branch is read off directly.
    """

    roots: tuple[UniPoly, ...]
    base: Fraction = None


def polynomial_eta_roots(sec: SectionData, curve: SpectralCurve) -> RootSearch:
    """All roots of the reduced curve equation that are polynomial in the base.

    ``curve`` is ``spectral_curve(sec)``.  A polynomial branch takes a
    rational value at any rational base point, so lifting every rational
    fiber root at the curve's witness base, where the fiber is squarefree,
    and then verifying the truncations by exact substitution is exhaustive.
    A branch has degree <= d in w, since the eta^j coefficient has degree
    <= (n - j) d, so it equals its Taylor series at the base to order
    d + 1 and the lift stops there; the substitution still decides.
    """
    _require_standard(sec)
    d = sec.twist_degree
    form = curve.annihilating
    f = form.dehomogenize(0)
    if form.degree == 1:
        return RootSearch((UniPoly.zero() - f.coeff(0),))
    base = curve.witness_base
    shifted = EtaPoly(tuple(c.shift(base) for c in f.coeffs))
    roots = []
    for eta0, _ in rational_roots(f.at_base(base)):
        lam = _lift_series_root(shifted, eta0, d + 1)
        cand = lam.compose(UniPoly((-base, 1)))
        if cand.degree() <= d and f.eval_poly(cand).is_zero():
            roots.append(cand)
    roots.sort(key=lambda p: (p.degree(), p.coeffs))
    return RootSearch(tuple(roots), base)


# ---------------------------------------------------------------------------
# kernel vectors over Q[w]


def _row_primitive(row: list) -> list:
    g = UniPoly.zero()
    for e in row:
        g = poly_gcd(g, e)
        if g.degree() == 0 and not g.is_zero():
            return row
    if g.degree() > 0:
        return [e.exact_div(g) for e in row]
    return row


def _vector_primitive(vec: list) -> tuple:
    vec = _row_primitive(list(vec))
    lead = next((e for e in vec if not e.is_zero()), None)
    if lead is None:
        raise InternalCheckError("kernel vector must be nonzero")
    scale = 1 / lead.lead
    return tuple(e * scale for e in vec)


def kernel_basis(mat: PolyMatrix) -> list:
    """Basis of the kernel over the rational function field, cleared to
    primitive polynomial vectors.  Fraction-free echelon elimination."""
    n = mat.n
    work = [list(row) for row in mat.rows]
    pivots = []
    r_at = 0
    for col in range(n):
        best = None
        for i in range(r_at, len(work)):
            e = work[i][col]
            if not e.is_zero() and (best is None or e.degree() < work[best][col].degree()):
                best = i
        if best is None:
            continue
        work[r_at], work[best] = work[best], work[r_at]
        pivot = work[r_at][col]
        for i in range(r_at + 1, len(work)):
            e = work[i][col]
            if e.is_zero():
                continue
            work[i] = _row_primitive(
                [work[i][j] * pivot - work[r_at][j] * e for j in range(n)]
            )
        pivots.append((r_at, col))
        r_at += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in (c for c in range(n) if c not in pivot_cols):
        vec = [UniPoly.zero()] * n
        vec[free] = UniPoly.one()
        for p_row, p_col in reversed(pivots):
            row = work[p_row]
            acc = UniPoly.zero()
            for c in range(n):
                if c != p_col and not row[c].is_zero() and not vec[c].is_zero():
                    acc = acc + row[c] * vec[c]
            pivot = row[p_col]
            vec = [pivot * e for e in vec]
            vec[p_col] = UniPoly.zero() - acc
        basis.append(_vector_primitive(vec))
    for vec in basis:
        if any(not e.is_zero() for e in mat.apply(vec)):
            raise InternalCheckError("kernel vector fails the exact matrix identity")
    return basis


# ---------------------------------------------------------------------------
# subsheaf records and the direct search


@dataclass(frozen=True)
class SubsheafRecord:
    """An invariant subsheaf found by the direct search.

    Blocks keep the indices of the upstairs summands; eigen lines keep the
    polynomial eigenvalue and a primitive kernel vector in chart-0
    coordinates, ordered summand by summand then class by class.
    """

    kind: str
    rank: int
    degrees: tuple
    hilbert: HilbertPoly
    indices: tuple = ()
    eigenvalue: UniPoly = None
    vector: tuple = ()


@dataclass(frozen=True)
class SearchResult:
    records: tuple

    def __iter__(self):
        return iter(self.records)


def _line_degree(vec, degrees) -> int:
    spans = [degrees[i] - vec[i].degree() for i in range(len(vec)) if not vec[i].is_zero()]
    return min(spans)


def invariant_subsheaf_search(
    m_degrees: SplitBundle, sec: SectionData, roots: RootSearch, ample_degree: int = 1
) -> SearchResult:
    """Block subsheaves and polynomial eigen lines of the induced Higgs pair.

    ``roots`` is ``polynomial_eta_roots`` of the section.  Blocks are
    invariant because multiplication by the section never mixes the upstairs
    summands.  Eigen lines are saturated line subsheaves spanned by a kernel
    vector of the matrix minus a polynomial eigenvalue; for each eigenvalue
    the basis vector giving the largest line degree is kept.
    """
    r = _require_standard(sec)
    ell = m_degrees.rank
    records = []
    for size in range(1, ell):
        for subset in combinations(range(ell), size):
            degs = []
            for i in subset:
                degs.extend(pushforward_line_bundle(r, m_degrees.degrees[i]).degrees)
            bundle = SplitBundle(degs)
            records.append(
                SubsheafRecord(
                    kind="block",
                    rank=bundle.rank,
                    degrees=tuple(degs),
                    hilbert=hilbert_poly(bundle, ample_degree),
                    indices=subset,
                )
            )
    records.sort(key=lambda rec: (len(rec.indices), rec.indices))

    # every summand's pushforward carries the same block on chart 0, the
    # multiplication matrix; only the degrees of its classes depend on it
    block = mult_matrix(sec, 0)
    eigen = []
    for lam in roots.roots:
        shifted_rows = [
            [block.rows[i][j] - lam if i == j else block.rows[i][j] for j in range(r)]
            for i in range(r)
        ]
        kernel = kernel_basis(PolyMatrix(shifted_rows))
        candidates = []
        for offset, a in enumerate(m_degrees.degrees):
            block_degs = pushforward_line_bundle(r, a).degrees
            for vec in kernel:
                full = [UniPoly.zero()] * (r * offset) + list(vec)
                full += [UniPoly.zero()] * (r * ell - len(full))
                candidates.append((_line_degree(vec, block_degs), tuple(full)))
        if not candidates:
            raise InternalCheckError("an eigenvalue branch must contribute a kernel line")
        c = max(item[0] for item in candidates)
        vec = min(
            (item[1] for item in candidates if item[0] == c),
            key=lambda v: tuple(p.coeffs for p in v),
        )
        eigen.append(
            SubsheafRecord(
                kind="eigen",
                rank=1,
                degrees=(c,),
                hilbert=hilbert_poly(SplitBundle([c]), ample_degree),
                eigenvalue=lam,
                vector=vec,
            )
        )
    eigen.sort(key=lambda rec: (rec.eigenvalue.degree(), rec.eigenvalue.coeffs))
    records.extend(eigen)
    return SearchResult(tuple(records))


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    witness: SubsheafRecord = None
    method: str = "direct-search"
    notes: tuple = ()


@dataclass(frozen=True)
class IntegralityReport:
    certified: bool
    reasons: tuple = ()


def certify_integrality(
    sec: SectionData, curve: SpectralCurve, roots: RootSearch
) -> IntegralityReport:
    """Certificate that the spectral curve is reduced and irreducible.

    ``curve`` is ``spectral_curve(sec)`` and ``roots`` its
    ``polynomial_eta_roots``.  The curve of a degree-one cover is a graph,
    hence integral.  Otherwise the certificate needs the support gcd to be 1
    (the curve equation is not a proper power and the fiber values form a
    single orbit) and an eigenvalue search that finds no polynomial branch.
    """
    from .factorization import intermediate_factorization

    r = sec.cover.degree
    if r == 1:
        return IntegralityReport(True)
    report = intermediate_factorization(sec, curve)
    reasons = []
    if report.subcover_index > 1:
        reasons.append(
            f"curve equation is a proper power (exponent {report.subcover_index})"
        )
        return IntegralityReport(False, tuple(reasons))
    if roots.roots:
        reasons.append("a polynomial eigenvalue branch splits off a component")
    return IntegralityReport(not reasons, tuple(reasons))


def _total_poly(m_degrees: SplitBundle, r: int, ample_degree: int) -> HilbertPoly:
    return hilbert_poly(SplitBundle(graded_degrees(m_degrees, r)), ample_degree)


def gieseker_verdict(
    m_degrees: SplitBundle, sec: SectionData, ample_degree: int = 1
) -> tuple[StabilityVerdict, SearchResult, IntegralityReport]:
    """Stability of the induced pair, decided by the direct subsheaf search.

    A record strictly above the total polynomial is a proof of instability
    and an equal one of strict semistability.  The stable verdict needs more
    than an empty search: the spectral curve must be certified integral,
    since then kernel-line and block candidates are the only invariant
    subsheaves there are.  Anything less stays undetermined.

    Returns the verdict together with the search and the integrality report
    it was decided from.
    """
    r = _require_standard(sec)
    curve = spectral_curve(sec)
    roots = polynomial_eta_roots(sec, curve)
    search = invariant_subsheaf_search(m_degrees, sec, roots, ample_degree)
    integrality = certify_integrality(sec, curve, roots)
    total = _total_poly(m_degrees, r, ample_degree)
    above = [rec for rec in search.records if precedes(total, rec.hilbert, strict=True)]
    equal = [rec for rec in search.records if rec.hilbert == total]
    if above:
        witness = max(above, key=lambda rec: (rec.hilbert.linear, rec.hilbert.constant))
        verdict = StabilityVerdict(UNSTABLE, witness, "direct-search")
    elif equal:
        verdict = StabilityVerdict(SEMISTABLE, equal[0], "direct-search")
    elif integrality.certified:
        verdict = StabilityVerdict(STABLE, None, "prop-stability")
    else:
        verdict = StabilityVerdict(UNDETERMINED, None, "direct-search", integrality.reasons)
    return verdict, search, integrality


def double_cover_verdict(m_degrees: SplitBundle, sec: SectionData) -> StabilityVerdict:
    """Verdict for a genuine double-cover section, read off the summands alone."""
    r = _require_standard(sec)
    if r != 2:
        raise UnsupportedCoverError("this shortcut applies to degree-2 covers only")
    if sec.component(1).is_zero():
        raise PullbackSectionError(
            "the section must have a nonzero odd component; pullbacks are excluded"
        )
    degs = m_degrees.degrees
    if m_degrees.rank == 1:
        return StabilityVerdict(STABLE, None, "prop-doublecover")
    total = _total_poly(m_degrees, 2, 1)
    best = max(range(len(degs)), key=lambda i: degs[i])
    block_degs = tuple(pushforward_line_bundle(2, degs[best]).degrees)
    witness = SubsheafRecord(
        kind="block",
        rank=2,
        degrees=block_degs,
        hilbert=hilbert_poly(SplitBundle(block_degs), 1),
        indices=(best,),
    )
    if all(a == degs[0] for a in degs):
        if witness.hilbert != total:
            raise InternalCheckError("equal summands must give the total polynomial")
        return StabilityVerdict(SEMISTABLE, witness, "prop-doublecover")
    if not precedes(total, witness.hilbert, strict=True):
        raise InternalCheckError("a maximal summand must destabilize unequal degrees")
    return StabilityVerdict(UNSTABLE, witness, "prop-doublecover")
