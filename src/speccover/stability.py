"""Hilbert polynomials and stability verdicts for pushed-forward Higgs pairs.

The bundle downstairs is a direct sum of line bundles, so every normalized
Hilbert polynomial is affine in the twisting exponent and all comparisons
are exact.  Invariant subsheaves are searched directly in two families:
block subsheaves coming from summands of the upstairs bundle, and eigen
lines attached to polynomial eigenvalue branches of the curve equation.
The branches and the integrality of the curve are read off the cover's
field structure, without a search (see ``polynomial_eta_roots``), and an
eigen line is read off the section, without a matrix or a kernel (see
``invariant_subsheaf_search``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .covers import SectionData, SplitBundle, pushforward_line_bundle, require_standard
from .errors import DegreeError, InternalCheckError, PullbackSectionError, UnsupportedCoverError
from .exactalg import PolyMatrix, UniPoly, as_rat, poly_gcd
from .factorization import intermediate_factorization
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


_SEARCH = "subsheaf search is implemented for"


def _pushed_degrees(m_degrees: SplitBundle, r: int) -> list:
    """The degrees of each summand's pushforward, class by class."""
    return [pushforward_line_bundle(r, a).degrees for a in m_degrees.degrees]


def graded_degrees(m_degrees: SplitBundle, r: int) -> tuple[int, ...]:
    """Degrees of the full pushforward, summand by summand then class by class."""
    return tuple(deg for degs in _pushed_degrees(m_degrees, r) for deg in degs)


# ---------------------------------------------------------------------------
# polynomial eigenvalue branches


def polynomial_eta_roots(sec: SectionData, curve: SpectralCurve) -> tuple:
    """All roots of the reduced curve equation that are polynomial in the base.

    ``curve`` is ``spectral_curve(sec)``.  The premise is the standard
    cyclic cover: there the chart-0 algebra Q[w][z]/(z^r - w) is a domain
    with fraction field Q(z), so the reduced equation m is the minimal
    polynomial of sigma over Q(w) and is irreducible over Q(w).  A root
    lambda(w) in Q[w] is then a linear factor of m, which exists only when m
    has eta-degree one: the one branch -m_0, m being monic.  At any higher
    eta-degree there is none.
    """
    require_standard(sec, _SEARCH)
    form = curve.annihilating
    if form.degree > 1:
        return ()
    return (UniPoly.zero() - form.dehomogenize(0).coeff(0),)


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
    primitive polynomial vectors.  Fraction-free echelon elimination.

    No production path calls it or its two helpers (see
    ``invariant_subsheaf_search``); it stays for the tests' kernel oracle
    and the benchmark's tracer, which wraps it by name.
    """
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


def _record(degrees, ample_degree: int, **fields) -> SubsheafRecord:
    """A record whose rank and Hilbert polynomial are read off its degrees."""
    bundle = SplitBundle(degrees)
    hilbert = hilbert_poly(bundle, ample_degree)
    return SubsheafRecord(rank=bundle.rank, degrees=bundle.degrees, hilbert=hilbert, **fields)


def invariant_subsheaf_search(
    m_degrees: SplitBundle, sec: SectionData, roots: tuple, ample_degree: int = 1
) -> tuple:
    """Block subsheaves and polynomial eigen lines of the induced Higgs pair,
    as a tuple of ``SubsheafRecord``s: the blocks, then the eigen lines.

    ``roots`` is ``polynomial_eta_roots`` of the section.  Blocks are
    invariant because multiplication by the section never mixes the upstairs
    summands.  An eigen line is spanned by a kernel vector v of M - lambda I,
    M the chart-0 multiplication matrix and lambda a polynomial eigenvalue;
    it has degree min(graded[i] - deg v_i) over v_i != 0, ``graded`` being
    the ``graded_degrees``.  The largest is kept, ties going to the least
    ``tuple(p.coeffs for p in v)``.

    That line has a closed form.  A root exists only at eta-degree one (see
    ``polynomial_eta_roots``), and the reduced degree is r/g with
    g = gcd(r, support), as ``intermediate_factorization`` checks, so the
    support lies in {0}; ``SectionData`` drops zero components.  Then
    multiplication by the section sends every summand to itself with
    coefficient h_0, so M = h_0 I, lambda = h_0 and M - lambda I = 0.  Each
    unit vector e_j spans a saturated invariant line of degree graded[j],
    and no line's degree exceeds max(graded).  The zero polynomial's
    coefficients () sort before the one's, so the kept line is e_j at the
    last j with graded[j] = max(graded).  (M - lambda I) e_j = 0 for every j
    holds exactly when each component sits at the trivial character (a
    nontrivial one moves summands through nonzero structure forms) and
    lambda is h_0 on chart 0; both are checked.
    """
    r = require_standard(sec, _SEARCH)
    pushed = _pushed_degrees(m_degrees, r)
    records = []
    for size in range(1, len(pushed)):
        for subset in combinations(range(len(pushed)), size):
            degs = [deg for i in subset for deg in pushed[i]]
            records.append(_record(degs, ample_degree, kind="block", indices=subset))
    graded = [deg for degs in pushed for deg in degs]
    iden = sec.cover.group.identity()
    for lam in roots:
        if set(sec.components) - {iden} or lam != sec.component(iden).dehomogenize(0):
            raise InternalCheckError("an eigenvalue branch needs the section to be the scalar h_0")
        c = max(graded)
        j = max(i for i, deg in enumerate(graded) if deg == c)
        vector = tuple(UniPoly.one() if i == j else UniPoly.zero() for i in range(len(graded)))
        records.append(_record([c], ample_degree, kind="eigen", eigenvalue=lam, vector=vector))
    return tuple(records)


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


def certify_integrality(sec: SectionData, curve: SpectralCurve) -> IntegralityReport:
    """Certificate that the spectral curve is reduced and irreducible.

    ``curve`` is ``spectral_curve(sec)``.  The curve equation is m^g with
    g = gcd(r, support) and m irreducible (see ``polynomial_eta_roots``), so
    the curve is integral exactly when g = 1; a degree-one cover has g = 1,
    its curve being a graph.
    """
    g = intermediate_factorization(sec, curve).subcover_index
    if g == 1:
        return IntegralityReport(True)
    return IntegralityReport(False, (f"curve equation is a proper power (exponent {g})",))


def _total_poly(m_degrees: SplitBundle, r: int, ample_degree: int) -> HilbertPoly:
    return hilbert_poly(SplitBundle(graded_degrees(m_degrees, r)), ample_degree)


def gieseker_verdict(
    m_degrees: SplitBundle, sec: SectionData, ample_degree: int = 1
) -> tuple[StabilityVerdict, tuple, IntegralityReport]:
    """Stability of the induced pair, decided by the direct subsheaf search.

    A record strictly above the total polynomial is a proof of instability
    and an equal one of strict semistability.  The stable verdict needs more
    than an empty search: the spectral curve must be certified integral,
    since then kernel-line and block candidates are the only invariant
    subsheaves there are.  Anything less stays undetermined.

    Returns the verdict together with the search's records and the
    integrality report it was decided from.
    """
    r = require_standard(sec, _SEARCH)
    curve = spectral_curve(sec)
    roots = polynomial_eta_roots(sec, curve)
    records = invariant_subsheaf_search(m_degrees, sec, roots, ample_degree)
    integrality = certify_integrality(sec, curve)
    total = _total_poly(m_degrees, r, ample_degree)
    above = [rec for rec in records if precedes(total, rec.hilbert, strict=True)]
    equal = [rec for rec in records if rec.hilbert == total]
    if above:
        witness = max(above, key=lambda rec: (rec.hilbert.linear, rec.hilbert.constant))
        verdict = StabilityVerdict(UNSTABLE, witness, "direct-search")
    elif equal:
        verdict = StabilityVerdict(SEMISTABLE, equal[0], "direct-search")
    elif integrality.certified:
        verdict = StabilityVerdict(STABLE, None, "prop-stability")
    else:
        verdict = StabilityVerdict(UNDETERMINED, None, "direct-search", integrality.reasons)
    return verdict, records, integrality


def double_cover_verdict(m_degrees: SplitBundle, sec: SectionData) -> StabilityVerdict:
    """Verdict for a genuine double-cover section, read off the summands alone."""
    r = require_standard(sec, _SEARCH)
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
    block_degs = pushforward_line_bundle(2, degs[best]).degrees
    witness = _record(block_degs, 1, kind="block", indices=(best,))
    if all(a == degs[0] for a in degs):
        if witness.hilbert != total:
            raise InternalCheckError("equal summands must give the total polynomial")
        return StabilityVerdict(SEMISTABLE, witness, "prop-doublecover")
    if not precedes(total, witness.hilbert, strict=True):
        raise InternalCheckError("a maximal summand must destabilize unequal degrees")
    return StabilityVerdict(UNSTABLE, witness, "prop-doublecover")
