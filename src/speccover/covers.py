"""Finite abelian covers of the projective line, presented algebraically.

A degree-r cover pi: X -> P^1 with abelian deck group is stored through the
grading of its function algebra: one line-bundle degree per character of the
group, plus one homogeneous structure form per pair of characters.  Sections
of pulled-back bundles decompose along the same grading, and multiplication
by a section becomes a matrix of binary forms.  Everything downstream (curve
equations, discriminants, stability) is computed from this matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Mapping, Sequence

from .errors import (
    DegreeError,
    InternalCheckError,
    ShapeError,
)
from .exactalg import BinForm, PolyMatrix

Char = tuple  # a character: one residue per cyclic factor of the group


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as a product of cyclic factors.

    The empty product is the trivial group.  Elements double as characters
    and are represented by residue tuples, one entry per factor.
    """

    factors: tuple

    def __init__(self, factors: Sequence[int] = ()):
        factors = tuple(int(n) for n in factors)
        if any(n < 2 for n in factors):
            raise ShapeError("cyclic factor orders must be at least 2")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def identity(self) -> Char:
        return tuple(0 for _ in self.factors)

    def elements(self) -> list:
        """All elements in lexicographic order (identity first)."""
        return [tuple(e) for e in itertools.product(*(range(f) for f in self.factors))]

    def add(self, a: Char, b: Char) -> Char:
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def as_char(self, k) -> Char:
        """Normalize an element label: bare ints are allowed for cyclic groups."""
        if isinstance(k, int):
            if not self.factors:
                if k != 0:
                    raise ShapeError(f"trivial group has no element {k}")
                return ()
            if len(self.factors) != 1:
                raise ShapeError("integer labels only make sense for cyclic groups")
            return (k % self.factors[0],)
        k = tuple(int(v) for v in k)
        if len(k) != len(self.factors):
            raise ShapeError(f"element {k} does not match factors {self.factors}")
        return tuple(v % f for v, f in zip(k, self.factors))

    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1


def _canon_pair(a: Char, b: Char):
    return (a, b) if a <= b else (b, a)


_UNIT_FORM = BinForm.const(1)


@dataclass(frozen=True)
class CoverAlgebra:
    """Pushforward algebra of a finite abelian cover of the projective line.

    The summand attached to a character rho is the dual of a line bundle of
    degree ``twist_degrees[rho]`` (zero for the trivial character), and
    multiplication between the rho and rho' summands is the binary form
    ``structure_forms[(rho, rho')]``.  Forms against the trivial character
    are the constant 1 and need not be stored.
    """

    group: AbelianGroup
    twist_degrees: Mapping
    structure_forms: Mapping

    def __init__(self, group: AbelianGroup, twist_degrees: Mapping, structure_forms: Mapping):
        object.__setattr__(self, "group", group)
        iden = group.identity()
        degs = {iden: 0}
        for key, val in twist_degrees.items():
            degs[group.as_char(key)] = int(val)
        for rho in group.elements():
            degs.setdefault(rho, 0)
        if degs[iden] != 0:
            raise DegreeError("the trivial character must have twist degree 0")
        if any(v < 0 for v in degs.values()):
            raise DegreeError("twist degrees must be non-negative")
        forms = {}
        for (a, b), form in structure_forms.items():
            a, b = group.as_char(a), group.as_char(b)
            if a == iden or b == iden:
                continue
            key = _canon_pair(a, b)
            if key in forms and forms[key] != form:
                raise ShapeError(f"conflicting structure forms for pair {key}")
            forms[key] = form
        object.__setattr__(self, "twist_degrees", degs)
        object.__setattr__(self, "structure_forms", forms)

    @property
    def degree(self) -> int:
        """Degree of the cover (= order of the deck group)."""
        return self.group.order

    def twist(self, rho) -> int:
        return self.twist_degrees[self.group.as_char(rho)]

    def structure_form(self, a, b) -> BinForm:
        return self._form(self.group.as_char(a), self.group.as_char(b))

    def _form(self, a: Char, b: Char) -> BinForm:
        """``structure_form`` of two characters already in normal form."""
        iden = self.group.identity()
        if a == iden or b == iden:
            return _UNIT_FORM
        form = self.structure_forms.get(_canon_pair(a, b))
        if form is None:
            raise ShapeError(f"no structure form stored for pair ({a}, {b})")
        return form

    def characters(self) -> list:
        return self.group.elements()


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the algebra consistency check.

    ``violation`` holds the first failed identity, with both sides printed.
    For cyclic degree-3 covers ``branch_degree`` reports 2*(l_1 + l_2) as an
    external cross-check value.
    """

    ok: bool
    violation: str = ""
    branch_degree: int = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SectionData:
    """A section of a pulled-back twist, decomposed by character.

    ``components[rho]`` is a binary form of degree ``d - l_rho``; characters
    whose component is zero (or whose required degree is negative) are simply
    absent from the map.
    """

    cover: CoverAlgebra
    twist_degree: int
    components: Mapping

    def __init__(self, cover: CoverAlgebra, twist_degree: int, components: Mapping):
        d = int(twist_degree)
        if d < 0:
            raise DegreeError("twist degree must be non-negative")
        comps = {}
        for key, form in components.items():
            rho = cover.group.as_char(key)
            if form.is_zero():
                continue
            want = d - cover.twist(rho)
            if want < 0:
                raise DegreeError(
                    f"component for character {rho} requires degree {want} < 0; omit it"
                )
            if form.degree != want:
                raise DegreeError(
                    f"component for character {rho} has degree {form.degree}, expected {want}"
                )
            comps[rho] = form
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "twist_degree", d)
        object.__setattr__(self, "components", comps)

    def component(self, rho) -> BinForm:
        """The component at rho, as a form of the right degree (zero if absent)."""
        rho = self.cover.group.as_char(rho)
        form = self.components.get(rho)
        if form is not None:
            return form
        return BinForm.zero(max(self.twist_degree - self.cover.twist(rho), 0))

    def is_zero(self) -> bool:
        return not self.components


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles on the projective line, by degrees."""

    degrees: tuple

    def __init__(self, degrees: Sequence[int]):
        degrees = tuple(int(a) for a in degrees)
        if not degrees:
            raise ShapeError("a split bundle needs at least one summand")
        object.__setattr__(self, "degrees", degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)


# ---------------------------------------------------------------------------
# constructors for the covers that actually occur


def make_standard_cyclic(r: int) -> CoverAlgebra:
    """The cyclic cover [x:y] -> [x^r:y^r].

    Residue class k is spanned by x^k y^(r-k), so l_k = 1 for k != 0 and the
    products of those monomials give structure forms t, s, or st depending on
    whether the class indices add up below, above, or exactly to r.
    """
    r = int(r)
    if r < 1:
        raise ShapeError("cover degree must be at least 1")
    if r == 1:
        return CoverAlgebra(AbelianGroup(()), {}, {})
    group = AbelianGroup((r,))
    degs = {(k,): 1 for k in range(1, r)}
    s, t = BinForm.s(), BinForm.t()
    forms = {}
    for a in range(1, r):
        for b in range(a, r):
            if a + b < r:
                forms[((a,), (b,))] = t
            elif a + b > r:
                forms[((a,), (b,))] = s
            else:
                forms[((a,), (b,))] = s * t
    return CoverAlgebra(group, degs, forms)


def make_double_cover(branch: BinForm) -> CoverAlgebra:
    """Degree-2 cover branched over the given even-degree form."""
    if branch.is_zero():
        raise ShapeError("branch form must be nonzero")
    if branch.degree % 2 != 0:
        raise DegreeError("branch form must have even degree")
    group = AbelianGroup((2,))
    return CoverAlgebra(group, {(1,): branch.degree // 2}, {((1,), (1,)): branch})


def make_cyclic_triple(a: BinForm, b: BinForm) -> CoverAlgebra:
    """Degree-3 cyclic cover with structure data (a, b, ab).

    The two nontrivial twist degrees are forced by the degree bookkeeping:
    l_1 = (2 deg a + deg b)/3 and l_2 = (deg a + 2 deg b)/3, which requires
    deg a = deg b mod 3.
    """
    if a.is_zero() or b.is_zero():
        raise ShapeError("structure forms must be nonzero")
    da, db = a.degree, b.degree
    if (2 * da + db) % 3 != 0 or (da + 2 * db) % 3 != 0:
        raise DegreeError(
            f"no consistent twist degrees for deg a = {da}, deg b = {db}"
        )
    l1 = (2 * da + db) // 3
    l2 = (da + 2 * db) // 3
    group = AbelianGroup((3,))
    forms = {
        ((1,), (1,)): a,
        ((2,), (2,)): b,
        ((1,), (2,)): a * b,
    }
    return CoverAlgebra(group, {(1,): l1, (2,): l2}, forms)


_STANDARD_CACHE = {}


def _standard(r: int) -> CoverAlgebra:
    if r not in _STANDARD_CACHE:
        _STANDARD_CACHE[r] = make_standard_cyclic(r)
    return _STANDARD_CACHE[r]


def is_standard_cyclic(alg: CoverAlgebra) -> bool:
    """True when the algebra is exactly the one built by make_standard_cyclic."""
    r = alg.degree
    if not alg.group.is_cyclic():
        return False
    std = _standard(r)
    return (
        alg.twist_degrees == std.twist_degrees
        and alg.structure_forms == std.structure_forms
    )


# ---------------------------------------------------------------------------
# validation


def _form_str(form: BinForm) -> str:
    return form.str_in("s", "t")


def validate_algebra(alg: CoverAlgebra) -> ValidationReport:
    """Check unit, symmetry, degree bookkeeping, and associativity.

    Returns a report rather than raising; the first violated identity is
    printed with both of its sides.  Cyclic degree-3 covers also get the
    branch-divisor degree 2*(l_1 + l_2) for external cross-checks.
    """
    group = alg.group
    iden = group.identity()
    branch = None
    if group.factors == (3,):
        branch = 2 * (alg.twist(1) + alg.twist(2))

    def report(msg: str) -> ValidationReport:
        return ValidationReport(False, msg, branch)

    if alg.twist_degrees.get(iden, 0) != 0:
        return report(f"l_triv = {alg.twist_degrees[iden]}, expected 0")
    chars = group.elements()
    for rho in chars:
        c = alg.structure_form(iden, rho)
        if c != BinForm.const(1):
            return report(f"c(triv, {rho}) = {_form_str(c)}, expected 1")
    for a in chars:
        for b in chars:
            try:
                c = alg.structure_form(a, b)
            except ShapeError as exc:
                return report(str(exc))
            want = alg.twist(a) + alg.twist(b) - alg.twist(group.add(a, b))
            if c.degree != want:
                return report(
                    f"deg c({a}, {b}) = {c.degree}, bookkeeping requires {want}"
                )
            c_swap = alg.structure_form(b, a)
            if c != c_swap:
                return report(
                    f"c({a}, {b}) = {_form_str(c)} but c({b}, {a}) = {_form_str(c_swap)}"
                )
    for a in chars:
        for b in chars:
            for c in chars:
                lhs = alg.structure_form(a, b) * alg.structure_form(group.add(a, b), c)
                rhs = alg.structure_form(b, c) * alg.structure_form(a, group.add(b, c))
                if lhs != rhs:
                    return report(
                        f"associativity at ({a}, {b}, {c}): "
                        f"{_form_str(lhs)} != {_form_str(rhs)}"
                    )
    return ValidationReport(True, "", branch)


# ---------------------------------------------------------------------------
# the multiplication matrix and pushforward degrees


def mult_matrix(sec: SectionData, chart: int = 0) -> PolyMatrix:
    """Matrix of multiplication by the section on the pushforward algebra.

    Rows and columns are indexed by the characters in lexicographic order.
    The component at rho sends the rho' summand into the (rho + rho') one
    with coefficient h_rho * c(rho, rho'), dehomogenized on the chosen chart.
    The components and the structure forms are scaled into integers once,
    by the lcm of their denominators, and the products are summed on
    integer coefficient lists, which the matrix keeps.
    """
    if chart not in (0, 1):
        raise ValueError("chart must be 0 or 1")
    order = 1 if chart == 0 else -1  # chart 1 reads each form's coefficients reversed
    alg = sec.cover
    group = alg.group
    chars = group.elements()
    index = {rho: i for i, rho in enumerate(chars)}
    n = len(chars)
    hden = lcm(*(c.denominator for form in sec.components.values() for c in form.coeffs))
    cden = lcm(*(c.denominator for form in alg.structure_forms.values() for c in form.coeffs))
    scaled = {}  # id of a structure form -> its coefficients times cden, in chart order
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for rho, form in sec.components.items():
        h = [x.numerator * (hden // x.denominator) for x in form.coeffs[::order]]
        for j, col_char in enumerate(chars):
            cform = alg._form(rho, col_char)
            c = scaled.get(id(cform))
            if c is None:
                c = scaled[id(cform)] = [y.numerator * (cden // y.denominator) for y in cform.coeffs[::order]]
            acc = rows[index[group.add(rho, col_char)]][j]
            acc.extend([0] * (len(h) + len(c) - 1 - len(acc)))
            for a, x in enumerate(h):
                if x:
                    for b, y in enumerate(c):
                        if y:
                            acc[a + b] += x * y
    return PolyMatrix.from_ints(rows, hden * cden)


def pushforward_line_bundle(r: int, m: int) -> SplitBundle:
    """Summand degrees of the pushforward of a degree-m line bundle.

    Along the standard cyclic cover, class k of a degree-m form contributes
    the monomials x^(rj+k) y^(m-rj-k), a space of dimension floor((m-k)/r)+1,
    so the k-th summand has degree floor((m-k)/r).
    """
    r, m = int(r), int(m)
    if r < 1:
        raise ShapeError("cover degree must be at least 1")
    degs = [(m - k) // r for k in range(r)]
    if sum(a + 1 for a in degs) != m + 1:
        raise InternalCheckError("pushforward degrees fail the Euler count")
    return SplitBundle(degs)
