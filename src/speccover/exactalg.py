"""Exact arithmetic kernel: rationals, polynomials, binary forms, resultants,
characteristic/minimal polynomials of polynomial matrices, and quotient-ring
elements for certifying facts at non-rational points.

Everything here is exact. There are no floats anywhere; coefficients are
stored as `fractions.Fraction`s, and every division is checked.  `UniPoly`
and `BinForm` multiply, raise to powers, evaluate, divide and print over Z:
each operand is scaled by its common denominator once, and each result
coefficient is divided back once.

Conventions used by the whole package:

* `UniPoly` is a dense univariate polynomial over Q, coefficients ascending.
  The variable is called `w` in chart 0 (where w = s/t) and `v` in chart 1
  (v = t/s), but the type itself is variable-agnostic.
* `BinForm` is a homogeneous binary form of a fixed degree in (s, t);
  coefficient i multiplies s^i t^(degree-i).  The zero form keeps its nominal
  degree so that degree bookkeeping never degrades.
* `EtaPoly` is a polynomial in the fiber coordinate eta with `UniPoly`
  coefficients, i.e. an element of Q[w][eta].
* `resultant(f, g)` equals the determinant of the Sylvester matrix of f and g,
  i.e. lc(f)^deg(g) * prod g(alpha) over the roots alpha of f.

The kernels over Q[w] work over Z.  `PolyMatrix` stores a matrix over Z
and keeps, at one packed point w = X = 2^K (Kronecker substitution, K
from an l1 bound on the matrix), the vectors B(X)^j e_0 that its kernels
share.  `char_poly_matrix` takes the characteristic polynomial of a
regular representation from the power sums there by Newton's identities,
and reads each coefficient off the balanced base-2^K digits of one
integer, every division checked exact.  `annihilates_unit` checks that an
integer vector vanishes at a point whose K bounds its coefficients.
`resultant` evaluates at w = 0, 1, ..., D for a degree bound D and
interpolates exactly.
`min_poly_matrix` takes the squarefree part as an exact k-th root over
Z[w], certified at one base and by an exact power check.  Berkowitz and
remainder sequences over Q[w] run only in the tests, as oracles.
`kpoly_gcd`, the gcd over a residue field Q[w]/(p), runs Euclid modulo
primes below 2^62 and certifies the result by exact division over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_factor_sqf

from .errors import (
    DegreeError,
    InfiniteOrderError,
    InternalCheckError,
    InvalidPointError,
    ModulusError,
    NotInvertibleError,
    ShapeError,
    UndefinedResultantError,
)

Rat = Fraction


def as_rat(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _term(c: Fraction, mono: str) -> tuple[bool, str]:
    """(c < 0, |c| * mono as printed), with a unit coefficient left out."""
    n, d = c.numerator, c.denominator
    mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    if mono:
        mag = mono if mag == "1" else f"{mag}*{mono}"
    return n < 0, mag


def _join_terms(terms: Iterable[tuple[bool, str]]) -> str:
    """"a - b + c" from _term pairs, the first sign attached; "0" if none."""
    text = " ".join(("- " if neg else "+ ") + mag for neg, mag in terms)
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# dense polynomials over any exact commutative ring: coefficient lists and
# the arithmetic UniPoly and EtaPoly share


def _pl_trim(cs: list) -> list:
    """Strip trailing zeros, in place, from a coefficient list over any ring
    whose zero is falsy: int, Fraction, _ZPoly, UniPoly or EtaPoly."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _pl_pseudo_rem(f: list, g: list) -> list:
    """lc(g)^(deg f - deg g + 1) * f  mod  g (Cohen, GTM 138, §3.1), for
    trimmed coefficient lists over a commutative exact ring with falsy zero."""
    dg = len(g) - 1
    lc = g[-1]
    e = len(f) - 1 - dg + 1
    rem = list(f)
    steps = 0
    while len(rem) - 1 >= dg and rem:
        steps += 1
        lead = rem[-1]
        shift = len(rem) - 1 - dg
        new = [c * lc for c in rem[:-1]]
        for j in range(dg):
            if g[j]:
                new[shift + j] = new[shift + j] - lead * g[j]
        rem = _pl_trim(new)
    if steps < e and rem:
        factor = lc
        for _ in range(e - steps - 1):
            factor = factor * lc
        rem = [c * factor for c in rem]
    return rem


class _Poly:
    """Dense polynomial, coefficients ascending, over the ring whose zero and
    one are the subclass's ``_ZERO`` and ``_ONE``.

    Subclasses coerce coefficients and strip trailing zeros in ``__init__``;
    the other operand of mixed arithmetic may also be one of ``_SCALARS``,
    taken as a constant.  A zero polynomial is falsy, as 0 is, so coefficient
    lists over any of these rings trim and test alike.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((cls._ONE,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise DegreeError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return self.zero()
        out = [self._ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derivative(self):
        """Derivative in the polynomial's own variable."""
        return type(self)([i * c for i, c in enumerate(self.coeffs) if i])

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        if isinstance(other, cls._SCALARS):
            return cls((other,))
        raise TypeError(f"cannot combine {cls.__name__} with {other!r}")


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class UniPoly(_Poly):
    """Dense univariate polynomial over Q, coefficients ascending."""

    __slots__ = ()
    _ZERO, _ONE = Fraction(0), Fraction(1)
    _SCALARS = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):  # trailing zeros are stripped
        self.coeffs: tuple[Fraction, ...] = tuple(_pl_trim([as_rat(c) for c in coeffs]))

    @classmethod
    def const(cls, c) -> UniPoly:
        return cls((as_rat(c),))

    @classmethod
    def x(cls) -> UniPoly:
        return cls((0, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __mul__(self, other):
        (a, da), (b, db) = _scaled(self), _scaled(self._coerce(other))
        return UniPoly(_fracs((a * b).coeffs, da * db))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        a, da = _scaled(self)
        return UniPoly(_fracs((a**n).coeffs, da**n))

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Pseudo-division over Z, scaled back once.  With F = D self and
        G = D other for their common denominator D, each step multiplies
        the remainder and quotient by only the part of lc(G) that does not
        divide the remainder's lead, so s F = Q G + R with s the product of
        those parts, and self = (Q / s) other + R / (s D)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(), self
        (rem, g), den = _int_coeff_lists((self, other))
        n, lc = len(g) - 1, g[-1]
        quo, s = [0] * (dq + 1), 1
        for k in range(dq, -1, -1):
            top = rem[k + n]
            if not top:
                continue
            h = gcd(top, lc)
            m = abs(lc) // h
            if m != 1:
                rem = [c * m for c in rem]
                quo = [c * m for c in quo]
                s *= m
            c = top // h if lc > 0 else -(top // h)
            quo[k] = c
            for j in range(n):
                rem[k + j] -= c * g[j]
        return UniPoly(_fracs(quo, s)), UniPoly(_fracs(rem[:n], s * den))

    def __mod__(self, other: UniPoly) -> UniPoly:
        return self.divmod(other)[1]

    def exact_div(self, other: UniPoly) -> UniPoly:
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DegreeError(f"inexact division: {self} by {other}")
        return q

    def monic(self) -> UniPoly:
        if self.is_zero():
            return self
        inv = 1 / self.lead
        return UniPoly(tuple(c * inv for c in self.coeffs))

    def evaluate(self, x) -> Fraction:
        """Horner over Z at x = a/b: sum of c_i a^i b^(n-i), over den b^n."""
        x = as_rat(x)
        a, b = x.numerator, x.denominator
        (cs,), den = _int_coeff_lists((self,))
        acc, bp = 0, 1
        for c in reversed(cs):
            acc = acc * a + c * bp
            bp *= b
        return Fraction(acc * b, den * bp)

    def str_in(self, var: str) -> str:
        return _join_terms(
            _term(c, var if i == 1 else f"{var}^{i}" if i else "")
            for i, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __str__(self) -> str:
        return self.str_in("w")

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


class _ZPoly(_Poly):
    """Dense polynomial over Z, where Fraction arithmetic would be slow."""

    __slots__ = ()
    _ZERO, _ONE = 0, 1
    _SCALARS = (int,)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs: tuple[int, ...] = tuple(_pl_trim(list(coeffs)))


class _ZEtaPoly(_Poly):
    """Polynomial in eta over Z[w], with ``_ZPoly`` coefficients."""

    __slots__ = ()
    _ZERO, _ONE = _ZPoly(), _ZPoly((1,))
    _SCALARS = (_ZPoly,)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs: tuple[_ZPoly, ...] = tuple(_pl_trim(list(coeffs)))


def _int_primitive(coeffs: list) -> list:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return coeffs
    return [c // g for c in coeffs]


def _to_int_poly(p: UniPoly) -> list:
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.denominator)
    return _int_primitive([int(c * den) for c in p.coeffs])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q; gcd(0, 0) = 0.

    Runs a primitive pseudo-remainder sequence over the integers, which keeps
    coefficients small where plain Euclid over Q blows up.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    return UniPoly(_int_gcd(_to_int_poly(a), _to_int_poly(b))).monic()


def _int_gcd(fa: list, fb: list) -> list:
    """A gcd over Q of two nonzero integer coefficient lists, by a primitive
    pseudo-remainder sequence: primitive with a positive lead, so it divides
    a primitive input over Z (Gauss's lemma); [1] when coprime."""
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        rem = _pl_pseudo_rem(fa, fb)
        if not rem:
            fb = _int_primitive(fb)
            return fb if fb[-1] > 0 else [-c for c in fb]
        fa, fb = fb, _int_primitive(rem)
    return [1]


def _sqfree_degree(f: list) -> int:
    """Degree of the squarefree part of a nonconstant integer polynomial."""
    return len(f) - len(_int_gcd(f, [i * c for i, c in enumerate(f)][1:]))


def _int_exact_quo(f: list, g: list) -> list:
    """f / g for integer lists f and g != [], raising InternalCheckError
    unless g divides f in Z[w]."""
    lc, n = g[-1], len(g) - 1
    rem, quo = list(f), [0] * (len(f) - n)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + n], lc)
        if r:
            raise InternalCheckError("inexact integer division in a squarefree split")
        quo[k] = c
        if c:
            for j in range(n):
                rem[k + j] -= c * g[j]
    if any(rem[:n]) or not quo:
        raise InternalCheckError("inexact integer division in a squarefree split")
    return quo


def _sqfree_parts(f: list) -> list:
    """Musser's squarefree split of a primitive integer list f of positive
    lead and degree >= 1: [s_1, s_2, ...], primitive with positive leads,
    squarefree and pairwise coprime, with f = prod s_i^i; a part may be [1].

    With c = gcd(f, f') and w = f / c, w is the product of the distinct
    irreducible factors; each round y = gcd(w, c) keeps those of higher
    multiplicity, s_i = w / y, w = y and c = c / y.  Every quotient is an
    exact division over Z, and c must end as [1].
    """
    if len(f) == 2:
        return [f]
    c = _int_gcd(f, [i * x for i, x in enumerate(f)][1:])
    w = _int_exact_quo(f, c)
    parts = []
    while len(w) > 1:
        y = _int_gcd(w, c)
        parts.append(_int_exact_quo(w, y))
        w, c = y, _int_exact_quo(c, y)
    if c != [1]:
        raise InternalCheckError("squarefree split left a cofactor")
    return parts


def factor_rational(f: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Irreducible factorization over Q (monic factors, canonical order).

    The primitive integer multiple of f is split into squarefree parts by
    ``_sqfree_parts``; sympy's ``dup_zz_factor_sqf`` factors each part of
    degree >= 2, and a factor's multiplicity is its part's index.  The
    result is verified here by exact reconstruction and pairwise
    coprimality before being returned.
    """
    if f.is_zero():
        raise DegreeError("factorization of the zero polynomial")
    if f.degree() == 0:
        return f.lead, []
    # f = unit prod p_i^m_i, with p_i = P_i / c_i for P_i in Z[w] of lead
    # c_i, is checked over Z as unit_num den_f prod P_i^m_i ==
    # unit_den prod c_i^m_i F, where F = den_f f
    (big_f,), den_f = _int_coeff_lists([f])
    prim = _int_primitive(big_f)
    if prim[-1] < 0:
        prim = [-c for c in prim]
    unit = Fraction(big_f[-1] // prim[-1], den_f)
    lhs, leads = _ZPoly((den_f,)), 1
    factors: list[tuple[UniPoly, int]] = []
    for mult, part in enumerate(_sqfree_parts(prim), 1):
        if len(part) == 1:
            continue
        if len(part) == 2:
            cont, found = 1, [part]
        else:
            cont, found = dup_zz_factor_sqf([ZZ(c) for c in reversed(part)], ZZ)
            found = [[int(c) for c in reversed(h)] for h in found]
        unit *= int(cont) ** mult
        for big in found:
            unit *= big[-1] ** mult
            factors.append((UniPoly(Fraction(c, big[-1]) for c in big), mult))
            lhs = lhs * _ZPoly(big) ** mult
            leads *= big[-1] ** mult
    if [unit.numerator * c for c in lhs.coeffs] != [unit.denominator * leads * c for c in big_f]:
        raise InternalCheckError("irreducible factorization failed to reconstruct input")
    factors.sort(key=lambda pm: (pm[0].degree(), pm[0].coeffs))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if poly_gcd(factors[i][0], factors[j][0]).degree() != 0:
                raise InternalCheckError("irreducible factors are not pairwise coprime")
    return unit, factors


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, sorted."""
    _, factors = factor_rational(f)
    roots = [(-p.coeffs[0], m) for p, m in factors if p.degree() == 1]
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# projective points and binary forms


@dataclass(frozen=True)
class ProjPoint:
    """Rational point [a : b] of the projective line, normalized so that a, b
    are coprime integers and the first nonzero entry is positive."""

    a: int
    b: int

    @classmethod
    def of(cls, a, b) -> ProjPoint:
        a, b = as_rat(a), as_rat(b)
        if a == 0 and b == 0:
            raise InvalidPointError("[0:0] is not a projective point")
        scale = lcm(a.denominator, b.denominator)
        ia, ib = int(a * scale), int(b * scale)
        g = gcd(ia, ib)
        ia, ib = ia // g, ib // g
        lead = ia if ia else ib
        if lead < 0:
            ia, ib = -ia, -ib
        return cls(ia, ib)

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}]"


class BinForm:
    """Homogeneous binary form in (s, t); coefficient i multiplies s^i t^(d-i).

    The zero form carries a nominal degree so that sums and products keep
    exact degree bookkeeping. Arithmetic on mismatched degrees raises.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable = ()):
        if degree < 0:
            raise DegreeError("binary form degree must be >= 0")
        cs = [as_rat(c) for c in coeffs]
        if len(cs) != degree + 1:
            raise ShapeError(
                f"form of degree {degree} needs {degree + 1} coefficients, got {len(cs)}"
            )
        self.degree = degree
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls, degree: int) -> BinForm:
        return cls(degree, (0,) * (degree + 1))

    @classmethod
    def const(cls, c) -> BinForm:
        return cls(0, (as_rat(c),))

    @classmethod
    def s(cls) -> BinForm:
        return cls(1, (0, 1))

    @classmethod
    def t(cls) -> BinForm:
        return cls(1, (1, 0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.degree == other.degree
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("BinForm", self.degree, self.coeffs))

    def _check_same_degree(self, other: BinForm):
        if self.degree != other.degree:
            raise DegreeError(
                f"cannot combine forms of degree {self.degree} and {other.degree}"
            )

    def __add__(self, other: BinForm) -> BinForm:
        self._check_same_degree(other)
        return BinForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: BinForm) -> BinForm:
        self._check_same_degree(other)
        return BinForm(self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> BinForm:
        return BinForm(self.degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> BinForm:
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return BinForm(self.degree, tuple(c * a for a in self.coeffs))
        if not isinstance(other, BinForm):
            raise TypeError(f"cannot multiply BinForm by {other!r}")
        (a, da), (b, db) = _scaled(self), _scaled(other)
        return BinForm._of(self.degree + other.degree, a * b, da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BinForm:
        if n < 0:
            raise ValueError("negative power of a form")
        a, da = _scaled(self)
        return BinForm._of(self.degree * n, a**n, da**n)

    @classmethod
    def _of(cls, degree: int, p: _ZPoly, den: int) -> BinForm:
        """p / den as a form of the given degree, zero-padded at the top."""
        cs = _fracs(p.coeffs, den)
        return cls(degree, cs + [Fraction(0)] * (degree + 1 - len(cs)))

    def evaluate(self, s0, t0) -> Fraction:
        s0, t0 = as_rat(s0), as_rat(t0)
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * s0**i * t0 ** (self.degree - i)
        return total

    def dehomogenize(self, chart: int) -> UniPoly:
        """Chart 0: F(w, 1) in w = s/t.  Chart 1: F(1, v) in v = t/s."""
        if chart == 0:
            return UniPoly(self.coeffs)
        if chart == 1:
            return UniPoly(tuple(reversed(self.coeffs)))
        raise ValueError("chart must be 0 or 1")

    def str_in(self, u: str, v: str) -> str:
        def power(x: str, k: int) -> list:
            return [x if k == 1 else f"{x}^{k}"] if k else []

        return _join_terms(
            _term(c, "*".join(power(u, i) + power(v, self.degree - i)))
            for i, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __str__(self) -> str:
        return self.str_in("s", "t")

    def __repr__(self) -> str:
        return f"BinForm({self.degree}, {list(self.coeffs)!r})"


def homogenize(poly: UniPoly, degree: int, chart: int = 0) -> BinForm:
    """Inverse of BinForm.dehomogenize; raises if poly.degree() > degree."""
    if poly.degree() > degree:
        raise DegreeError(
            f"cannot homogenize degree-{poly.degree()} polynomial to form degree {degree}"
        )
    coeffs = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(poly.coeffs):
        if chart == 0:
            coeffs[i] = c
        elif chart == 1:
            coeffs[degree - i] = c
        else:
            raise ValueError("chart must be 0 or 1")
    return BinForm(degree, coeffs)


def vanishing_order(form: BinForm, point: ProjPoint) -> int:
    """Multiplicity of the linear form vanishing at `point` inside `form`."""
    if form.is_zero():
        raise InfiniteOrderError(f"zero form vanishes to infinite order at {point}")
    if point.b == 0:  # [1:0], the zero locus of t
        top = max(i for i, c in enumerate(form.coeffs) if c)
        return form.degree - top
    poly = form.dehomogenize(0)
    w0 = Fraction(point.a, point.b)
    order = 0
    while poly.evaluate(w0) == 0:
        poly = poly.exact_div(UniPoly((-w0, 1)))
        order += 1
    return order


# ---------------------------------------------------------------------------
# polynomials in eta over Q[w]


class EtaPoly(_Poly):
    """Polynomial in the fiber coordinate with UniPoly coefficients, ascending."""

    __slots__ = ()
    _ZERO, _ONE = UniPoly.zero(), UniPoly.one()
    _SCALARS = (UniPoly, int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, UniPoly) else UniPoly.const(c) for c in coeffs]
        self.coeffs: tuple[UniPoly, ...] = tuple(_pl_trim(cs))

    @classmethod
    def const(cls, p) -> EtaPoly:
        if not isinstance(p, UniPoly):
            p = UniPoly.const(as_rat(p))
        return cls((p,))

    @classmethod
    def eta(cls) -> EtaPoly:
        return cls((UniPoly.zero(), UniPoly.one()))

    def coeff(self, j: int) -> UniPoly:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else UniPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("EtaPoly", self.coeffs))

    def exact_div(self, other: EtaPoly) -> EtaPoly:
        """Exact division in Q[w][eta]; raises DegreeError if not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return EtaPoly.zero()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            raise DegreeError("inexact division: degree too small")
        quo = [UniPoly.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()].exact_div(other.lead)
            quo[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        if any(not r.is_zero() for r in rem[: other.degree()]):
            raise DegreeError("inexact division: nonzero remainder")
        return EtaPoly(quo)

    def dw(self) -> EtaPoly:
        """Derivative of every coefficient with respect to the base variable."""
        return EtaPoly(tuple(c.derivative() for c in self.coeffs))

    def at_base(self, w0) -> UniPoly:
        """Evaluate the base variable, leaving a polynomial in eta over Q."""
        w0 = as_rat(w0)
        return UniPoly(tuple(c.evaluate(w0) for c in self.coeffs))

    def content(self) -> UniPoly:
        g = UniPoly.zero()
        for c in self.coeffs:
            g = poly_gcd(g, c)
        return g

    def primitive(self) -> EtaPoly:
        if self.is_zero():
            return self
        c = self.content()
        return EtaPoly(tuple(p.exact_div(c) for p in self.coeffs))

    def scale(self, r) -> EtaPoly:
        r = as_rat(r)
        return EtaPoly(tuple(c * r for c in self.coeffs))

    def str_in(self, base: str, fiber: str) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            mono = fiber if j == 1 else (f"{fiber}^{j}" if j else "")
            if c == UniPoly.one() and mono:
                term = mono
            else:
                cs = c.str_in(base)
                if ("+" in cs or "- " in cs) and mono:
                    cs = f"({cs})"
                term = cs + ("*" + mono if mono else "")
            parts.append(term)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.str_in("w", "eta")

    def __repr__(self) -> str:
        return f"EtaPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# resultants: subresultant pseudo-remainder sequences over any exact ring,
# run over Z at integer points and interpolated


def _quo(a, b):
    """a / b in Z, Q[w] or Q[w][eta], where b is known to divide a."""
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise InternalCheckError("inexact integer division in a remainder sequence")
        return q
    return a.exact_div(b)


def _subresultant_prs(f: list, g: list):
    """Collins/Brown subresultant pseudo-remainder sequence (Cohen, A Course
    in Computational Algebraic Number Theory, GTM 138, Alg. 3.3.7) of trimmed
    coefficient lists with deg f >= deg g >= 0, over Z, Q[w] or Q[w][eta].

    Each pseudo-remainder is divided by scale_g * scale_h^delta, where scale_g
    is the previous divisor's leading coefficient and scale_h is updated as
    scale_g^delta / scale_h^(delta-1).  Every one of these divisions is exact
    in the coefficient ring, so coefficients grow only polynomially.

    Runs until the last element is a constant or zero and returns
    (prev, last, scale_h, odd): the last two elements of the sequence, with
    last == [] when a pseudo-remainder vanished, and whether an odd number of
    steps had both degrees odd.
    """
    one = f[-1] ** 0  # the coefficient ring's one
    scale_g, scale_h = one, one
    odd = False
    while len(g) > 1:
        df, dg = len(f) - 1, len(g) - 1
        delta = df - dg
        if df % 2 and dg % 2:
            odd = not odd
        rem = _pl_pseudo_rem(f, g)
        if not rem:
            return g, rem, scale_h, odd
        div = scale_g * scale_h**delta
        f, g = g, [_quo(c, div) for c in rem]
        scale_g = f[-1]
        if delta == 1:
            scale_h = scale_g
        elif delta > 1:
            scale_h = _quo(scale_g**delta, scale_h ** (delta - 1))
    return f, g, scale_h, odd


def _prs_resultant(f: list, g: list):
    """Resultant of two nonzero trimmed coefficient lists over Z, Q[w] or
    Q[w][eta] at their actual degrees: the Sylvester determinant,
    lc(f)^deg(g) * prod g(alpha) over the roots alpha of f."""
    negate = False
    if len(f) < len(g):
        f, g = g, f
        negate = (len(f) - 1) * (len(g) - 1) % 2 == 1
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    f, g, scale_h, odd = _subresultant_prs(f, g)
    if not g:
        return 0 * scale_h  # the ring's zero
    df = len(f) - 1
    out = _quo(g[0] ** df, scale_h ** (df - 1))
    return -out if negate != odd else out


def _sylvester_at(f: list, g: list, n: int, m: int) -> int:
    """Res_(n,m)(f, g) of integer coefficient lists: the determinant of the
    Sylvester matrix built at the formal degrees n >= deg f and m >= deg g,
    both at least 1.

    While deg f = n, the identity Res_(n,m) = lc(f)^m * prod g(alpha) holds
    for any g, so Res_(n,m) = lc(f)^(m - deg g) * Res(f, g); symmetrically,
    with a sign, while deg g = m.  When both leading entries vanish, so does
    the first column of the matrix.
    """
    f, g = _pl_trim(f), _pl_trim(g)
    if len(f) == n + 1:
        if not g:
            return 0
        return f[-1] ** (m + 1 - len(g)) * _prs_resultant(f, g)
    if len(g) == m + 1:
        if not f:
            return 0
        out = g[-1] ** (n + 1 - len(f)) * _prs_resultant(g, f)
        return -out if n * m % 2 else out
    return 0


def _resultant_degree_bound(f: EtaPoly, g: EtaPoly) -> int:
    """A bound on deg_w Res(f, g), for n = deg f, m = deg g >= 1.

    For any integer t >= 0, let a (b) be the least integer with
    deg f_i <= a + (n - i) t (deg g_j <= b + (m - j) t) for every nonzero
    eta-coefficient.  Row r < m of the Sylvester matrix holds f_(n-c+r) in
    column c, of degree <= a + (c - r) t, and row m + s holds g_(m-c+s), of
    degree <= b + (c - s) t.  Every term of the determinant takes one entry
    per row and per column, so its degree is at most
    m a + n b + t (sum of all columns - sum of r < m - sum of s < n)
    = m a + n b + n m t.  The bound is the least of these over t; for a
    discriminant of eta-degree n and twist d it is n (n - 1) d.
    """
    n, m = f.degree(), g.degree()

    def bound(t: int) -> int:
        a = max(c.degree() - (n - i) * t for i, c in enumerate(f.coeffs) if c)
        b = max(c.degree() - (m - j) * t for j, c in enumerate(g.coeffs) if c)
        return m * a + n * b + n * m * t

    # past the largest coefficient degree, a and b stay at the leads' degrees
    return min(bound(t) for t in range(max(c.degree() for c in f.coeffs + g.coeffs) + 1))


def _int_coeff_lists(polys: Sequence[UniPoly]) -> tuple[list, int]:
    """(den * polys as integer coefficient lists, den), den the common
    denominator."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys], den


def _scaled(p) -> tuple[_ZPoly, int]:
    """(den * p over Z, den) for a UniPoly or BinForm p."""
    (cs,), den = _int_coeff_lists((p,))
    return _ZPoly(cs), den


def _fracs(cs: Sequence[int], den: int) -> list:
    return [Fraction(c, den) for c in cs]


def _horner(cs: list, x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def resultant(f: EtaPoly, g: EtaPoly) -> UniPoly:
    """Resultant in eta of two elements of Q[w][eta]; an element of Q[w].

    It is the determinant of the Sylvester matrix of f and g at their
    eta-degrees n and m.  After clearing denominators, the integer
    resultant Res(den_f f, den_g g) = den_f^m den_g^n Res(f, g) has degree
    at most D = ``_resultant_degree_bound(f, g)`` in w, so it is
    interpolated exactly from its values at w = 0, ..., D.  Each value is
    the Sylvester determinant of the integer fibres at the formal degrees
    (n, m), taken by a subresultant sequence over Z.
    """
    if f.is_zero() and g.is_zero():
        raise UndefinedResultantError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return UniPoly.zero()
    n, m = f.degree(), g.degree()
    if n == 0 or m == 0:
        return f.lead**m if n == 0 else g.lead**n
    (fi, fden), (gi, gden) = _int_coeff_lists(f.coeffs), _int_coeff_lists(g.coeffs)
    values = []
    for x in range(_resultant_degree_bound(f, g) + 1):
        values.append(_sylvester_at([_horner(c, x) for c in fi], [_horner(c, x) for c in gi], n, m))
    scale = fden**m * gden**n
    return UniPoly(Fraction(c, scale) for c in _interpolate_int(values))


# ---------------------------------------------------------------------------
# matrices over Q[w] and their characteristic / minimal polynomials


class PolyMatrix:
    """Square matrix over Q[w], stored over Z.

    ``ints[i][j]`` is the ascending integer coefficient list of
    den * A[i][j], trimmed, with den the least positive integer that clears
    every denominator, so the integer form of a matrix is unique; ``deg`` is
    the largest entry degree in w, at least 0.  ``PolyMatrix(rows)`` takes
    UniPoly (or rational) entries, ``PolyMatrix.from_ints`` the integer
    lists of some multiple of the matrix.  ``rows``, the UniPoly entries, is
    built on first use.

    The kernels read the matrix at one packed point X = 2^K (Kronecker
    substitution): ``packed(k)`` holds the integer matrix B(X) for
    B = den * A and the integer vectors B(X)^j e_0, kept with the matrix
    and extended on demand, so the characteristic polynomial and the
    annihilation checks share them.  ``row_bound`` gives the l1 bound that
    fixes K.
    """

    __slots__ = ("n", "den", "deg", "ints", "_rows", "_packed")

    def __init__(self, rows: Sequence[Sequence[UniPoly]]):
        fixed = tuple(tuple(e if isinstance(e, UniPoly) else UniPoly.const(as_rat(e)) for e in r) for r in rows)
        den = lcm(*(c.denominator for r in fixed for e in r for c in e.coeffs))
        self._set([[[c.numerator * (den // c.denominator) for c in e.coeffs] for e in r] for r in fixed], den)
        self._rows = fixed

    @classmethod
    def from_ints(cls, ints: list, den: int = 1) -> PolyMatrix:
        """The matrix (1 / den) * ints, for ints a square matrix of ascending
        integer coefficient lists, which it keeps and trims in place."""
        self = cls.__new__(cls)
        self._set(ints, den)
        return self

    def _set(self, ints: list, den: int) -> None:
        n = len(ints)
        if n == 0 or any(len(r) != n for r in ints):
            raise ShapeError("PolyMatrix must be square and nonempty")
        g = den
        for row in ints:
            for cs in row:
                _pl_trim(cs)
                for c in cs:
                    if g == 1:
                        break
                    g = gcd(g, c)
        if g > 1:
            ints = [[[c // g for c in cs] for cs in row] for row in ints]
        self.n, self.den, self.ints = n, den // g, ints
        self.deg = max(0, max(len(cs) - 1 for row in ints for cs in row))
        self._rows = None
        self._packed = None

    @property
    def rows(self) -> tuple[tuple[UniPoly, ...], ...]:
        if self._rows is None:
            den = self.den
            self._rows = tuple(tuple(UniPoly(Fraction(c, den) for c in cs) for cs in row) for row in self.ints)
        return self._rows

    def entry(self, i: int, j: int) -> UniPoly:
        return self.rows[i][j]

    def row_bound(self) -> int:
        """R = max(1, max_i sum_j ||B_ij||_1) for B = den * A, with ||p||_1
        the sum of the absolute values of p's coefficients.

        ||p q||_1 <= ||p||_1 ||q||_1, so each entry of B v has norm at most
        R times the largest norm of an entry of v, and each entry of
        B^j e_0 has norm at most R^j.
        """
        return max(1, max(sum(abs(c) for cs in row for c in cs) for row in self.ints))

    def _pack_matrix(self, bits: int) -> list[list[int]]:
        """The integer matrix B(2^bits)."""
        return [[_pack(cs, bits) for cs in row] for row in self.ints]

    def packed(self, k: int, bits: int = 0) -> tuple[int, list[list[int]]]:
        """(K, [v_0, v_1, ...]) with v_j = B(X)^j e_0 at X = 2^K, B = den * A,
        at least up to j = k, and K >= bits.

        The first call packs the matrix at K = bit_length(n 2^n R^n) + 2,
        R = ``row_bound``, which ``char_poly_matrix`` needs, or at bits when
        that is larger; a later call that needs a larger K than the point
        held packs the matrix again there.  Each vector is one product
        v_j = B(X) v_(j-1).  The point and its vectors are kept with the
        matrix and extended on demand, so callers must not change them.
        """
        point = self._packed
        if point is None or point[0] < bits:
            n = self.n
            own = ((n << n) * self.row_bound() ** n).bit_length() + 2
            bits = max(bits, own)
            point = self._packed = (bits, self._pack_matrix(bits), [[1] + [0] * (n - 1)])
        bits, b, vecs = point
        while len(vecs) <= k:
            vecs.append(_mat_vec(b, vecs[-1]))
        return bits, vecs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, tuple(tuple(map(tuple, row)) for row in self.ints)))

    def apply(self, vec: Sequence[UniPoly]) -> list[UniPoly]:
        """The matrix-vector product A * vec."""
        out = []
        for row in self.rows:
            acc = UniPoly.zero()
            for a, v in zip(row, vec):
                if not a.is_zero() and not v.is_zero():
                    acc = acc + a * v
            out.append(acc)
        return out

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"PolyMatrix({body})"


def _mat_vec(b: list[list[int]], vec: list[int]) -> list[int]:
    """The integer matrix-vector product b * vec."""
    return [sum(map(mul, row, vec)) for row in b]


def _pack(cs: Sequence[int], bits: int) -> int:
    """The integer polynomial cs, ascending, at 2^bits."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << bits) + c
    return acc


def _unpack(v: int, bits: int) -> list[int]:
    """The balanced base-2^bits digits of v, ascending and trimmed: the
    coefficients of the one integer polynomial p with p(2^bits) = v whose
    coefficients all lie in [-2^(bits-1), 2^(bits-1)).

    A nonzero such p does not vanish at X = 2^bits: with c_m its lowest
    nonzero coefficient, p(X) / X^m is c_m modulo X, and 0 < |c_m| < X.
    So two such polynomials that agree at X are equal, and an integer
    polynomial whose coefficients are all smaller than 2^(bits-1) in
    absolute value is zero exactly when it vanishes at X, and is
    ``_unpack`` of its value there.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while v:
        d = v & mask
        v >>= bits
        if d >= half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


def _interpolate_int(values: Sequence[int]) -> list[int]:
    """The integer polynomial of degree < len(values) taking values[x] at
    x = 0, 1, ..., ascending coefficients.

    The k-th forward difference at 0 of an integer polynomial is k! times an
    integer (its coefficient in the falling-factorial basis); values that
    break this come from no integer polynomial and raise.
    """
    diffs = list(values)
    newton = []
    for k in range(len(values)):
        q, rem = divmod(diffs[0], factorial(k))
        if rem:
            raise InternalCheckError("interpolated values come from no integer polynomial")
        newton.append(q)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out: list[int] = []
    for k in reversed(range(len(newton))):
        # out <- out * (x - k) + newton[k]
        shifted = [0] + out
        for j, c in enumerate(out):
            shifted[j] -= k * c
        shifted[0] += newton[k]
        out = shifted
    return out


def char_poly_matrix(a: PolyMatrix) -> EtaPoly:
    """det(eta * id - A), monic of degree n in eta, for A the regular
    representation ``covers.mult_matrix`` builds: multiplication by an
    element s of a commutative, associative algebra graded by a finite
    abelian group, one rank-1 summand per character, whose unit e_0 spans
    the trivial one.  ``annihilates_unit`` relies on the same premise, which
    ``validate_algebra`` checks for explicit covers.

    Then Tr(A^k) = n (A^k e_0)_0.  A^k is multiplication by v = s^k =
    A^k e_0 = sum_rho v_rho e_rho.  Multiplication by e_rho, rho nontrivial,
    sends each summand rho' into rho + rho' != rho', so its diagonal is
    zero, and v_0 e_0 acts as v_0 id.  Outside the premise the result is
    wrong, or a Newton division raises.

    B = den * A (``PolyMatrix``) has entries in Z[w], and its characteristic
    polynomial det(eta * id - B) = sum_k c_k eta^(n-k) has c_k in Z[w],
    (-1)^k times the sum of the k x k principal minors of B.  Each minor has
    norm at most R^k, R = ``a.row_bound()``: the product of the
    minor's row sums of entry norms bounds its permanent, which bounds its
    sum of terms.  So ||k c_k||_1 <= k binom(n, k) R^k <= n 2^n R^n, below
    2^(K-1) for the K where the matrix is packed (``PolyMatrix.packed``).

    At X = 2^K the power sums p_k(X) = n (B(X)^k e_0)_0, k = 1..n, come from
    the matrix's packed vectors, n products in all, and Newton's identity
    a_k = k c_k = -(c_(k-1) p_1 + ... + c_0 p_k) gives a_k(X) from the
    c_j(X), j < k.  The balanced base-2^K digits of a_k(X) are then the
    coefficients of a_k (``_unpack``); each must be divisible by k, else
    this raises, and c_k(X) = a_k(X) / k follows exactly.  Dividing c_k by
    den^k gives the coefficient of eta^(n-k) for A.
    """
    n, den = a.n, a.den
    bits, vecs = a.packed(n)
    sums = [n * v[0] for v in vecs[1 : n + 1]]
    values, coeffs = [1], [UniPoly.one()]
    for k in range(1, n + 1):
        ak = -sum(map(mul, values, sums[k - 1 :: -1]))
        quo = [divmod(c, k) for c in _unpack(ak, bits)]
        if any(rem for _, rem in quo):
            raise InternalCheckError("a Newton identity does not divide exactly: the trace premise fails")
        values.append(ak // k)
        coeffs.append(UniPoly(Fraction(q, den**k) for q, _ in quo))
    out = EtaPoly(reversed(coeffs))
    if out.degree() != n or out.lead != UniPoly.one():
        raise InternalCheckError("characteristic polynomial is not monic of the right degree")
    return out


def eta_gcd(f: EtaPoly, g: EtaPoly) -> EtaPoly:
    """Gcd in Q[w][eta] via the subresultant pseudo-remainder sequence.

    Contents are extracted once at the end, not per step, which keeps the
    coefficient growth polynomial.  Result is primitive with monic leading
    UniPoly coefficient (so it is the monic gcd in Q(w)[eta] scaled into
    Q[w][eta]).

    No command calls it: ``min_poly_matrix`` takes the squarefree part as a
    k-th root.  It stays as the tests' oracle for that root, and because
    the benchmark's tracer wraps it by name, until the tracer reads spans
    from inside the package instead.
    """
    a, b = f.primitive(), g.primitive()
    if a.is_zero():
        a, b = b, a
    if b.is_zero():
        return a if a.is_zero() else a.scale(1 / a.lead.lead)
    if a.degree() < b.degree():
        a, b = b, a
    prev, last, _, _ = _subresultant_prs(list(a.coeffs), list(b.coeffs))
    if last:
        # the sequence ended in a nonzero constant: coprime in Q(w)[eta]
        return EtaPoly.one()
    a = EtaPoly(prev).primitive()
    return a.scale(1 / a.lead.lead)


def annihilates_unit(a: PolyMatrix, poly: EtaPoly) -> bool:
    """Whether poly(A) e_0 = 0, decided over Z at one packed point.

    When A is the regular representation of an associative algebra whose
    basis vector 0 is the unit, as ``covers.mult_matrix`` is, poly(A) is
    multiplication by poly(A) e_0, so this holds exactly when poly(A) = 0.

    With B = den * A in Z[w] (``PolyMatrix``), e = deg poly, pden the lcm
    of poly's coefficient denominators and c_j = pden den^(e-j) p_j in
    Z[w], c_j B^j = pden den^e p_j A^j, so the integer vector
    u = sum_j c_j B^j e_0 is pden den^e poly(A) e_0, zero exactly when
    poly(A) e_0 is.  Each entry of B^j e_0 has norm at most R^j,
    R = ``a.row_bound()``, so each entry of u has norm at most
    N = sum_j ||c_j||_1 R^j.  At X = 2^K with N < 2^(K-1), each entry of u
    is zero exactly when it vanishes at X (``_unpack``), and
    u(X) = sum_j c_j(X) v_j is read off the matrix's packed vectors
    v_j = B(X)^j e_0.

    Those are shared with ``char_poly_matrix``, which made v_0..v_n, so a
    poly of degree at most n whose N fits the matrix's point makes no
    product of its own.  A larger N packs the matrix again at a larger
    point, so the answer is exact either way; that N fits is measured, not
    proved, for the squarefree parts the commands check (every chart matrix
    of the benchmark's workloads is packed once).
    """
    pc = _int_coeff_lists(poly.coeffs)[0]
    e = len(pc) - 1
    den, r = a.den, a.row_bound()
    cs = [[c * den ** (e - j) for c in p] for j, p in enumerate(pc)]
    bound = sum(sum(map(abs, c)) * r**j for j, c in enumerate(cs))
    bits, vecs = a.packed(e, bound.bit_length() + 1)
    cx = [_pack(c, bits) for c in cs]
    return not any(sum(map(mul, cx, entry)) for entry in zip(*vecs[: e + 1]))


def _kth_root(cs: list, k: int):
    """The monic m of degree e = (len(cs) - 1) / k whose k-th power agrees
    with cs, monic over Z[w] as integer coefficient lists, in its top e + 2
    coefficients, or None when there is none.

    With cs = eta^n A(1/eta), A = 1 + a_1 x + a_2 x^2 + ..., and
    m = eta^e B(1/eta), B = A^(1/k) as power series in x satisfies
    k A B' = A' B, so b_j = sum_(i=1..j) ((k + 1) i - k j) a_i b_(j-i) / (k j).
    A polynomial root has b_(e+1) = 0, which rejects most wrong k before
    the caller's exact check of m^k.  Its roots are those of cs, integral
    over the integrally closed Z[w], so its coefficients b_j lie in Z[w],
    and a division by k j that leaves a remainder also means no root.
    """
    if k == 1:
        return list(cs)
    n = len(cs) - 1
    e = n // k
    a = [_ZPoly(c) for c in reversed(cs)]
    b = [a[0]]
    for j in range(1, e + 2):
        acc = sum((a[i] * b[j - i] * ((k + 1) * i - k * j) for i in range(1, j + 1) if a[i]), _ZPoly())
        quo = [divmod(c, k * j) for c in acc.coeffs]
        if any(rem for _, rem in quo):
            return None
        b.append(_ZPoly(q for q, _ in quo))
    return None if b.pop() else [list(c.coeffs) for c in reversed(b)]


def _fibre_exponent(fibre: list) -> int:
    """The k that the nonconstant integer list fibre = s^k would have for s
    its squarefree part, or 0 when deg s does not divide deg fibre: a
    guess, which the caller certifies."""
    n, e = len(fibre) - 1, _sqfree_degree(fibre)
    return n // e if n % e == 0 else 0


def _is_kth_power(m: list, k: int, char: list) -> bool:
    """Whether m^k == char in Z[w][eta], both as trimmed integer lists."""
    power = _ZEtaPoly(_ZPoly(c) for c in m) ** k
    return [list(p.coeffs) for p in power.coeffs] == char


def min_poly_matrix(a: PolyMatrix, char: EtaPoly) -> tuple[EtaPoly, Fraction]:
    """Squarefree part m of ``char``, the characteristic polynomial of ``a``,
    and a witness base w0 where m(w0, eta) is squarefree.

    It works on char_B(mu) = den^n char(mu / den), the characteristic
    polynomial of B = den * A (``PolyMatrix``), monic in Z[w][mu] with
    coefficients den^(n-j) char_j; a char that does not scale so raises.
    Scaling eta by den keeps each fibre's root multiplicities, so the walk
    finds m_B(mu) = den^e m(mu / den) at the base where one over Q[w] finds
    m, and m_j = m_B,j / den^(e-j).

    The bases 0, 1, -1, 2, ... are walked in turn.  At each, the fibre
    char_B(w0, mu) suggests an exponent k, and ``_kth_root`` gives m_B, if
    char_B has a k-th root.  m_B is accepted once m_B(w0, mu) is squarefree
    and ``_is_kth_power`` finds m_B^k == char_B: then m_B is squarefree over
    Q(w) with the roots of char_B, so it is sqfree(char_B) whatever k was
    guessed, and w0 is the first base where it is squarefree.

    With t the largest entry degree of A, deg char_B,j <= (n - j) t, since
    char_B,j is a sum of products of n - j entries of B, so
    deg m_B,j <= (e - j) t and the discriminant of
    m_B has degree at most n (n - 1) t in w.  A witness lies among the first
    n (n - 1) t + 1 bases, and a walk that finds none has found a defect.

    At k = 1 the root is char_B itself, so m_B^k == char_B needs no check;
    the squarefree test at the base stays, so a base where the guess k = 1
    is wrong is still refused.

    m is also checked to annihilate the matrix with ``annihilates_unit``,
    whose premise on ``a`` it inherits; that check reads the packed vectors
    that ``char_poly_matrix`` made at the matrix's point.
    """
    den, deg = a.den, a.deg
    n = char.degree()
    if any(den ** (n - j) % x.denominator for j, c in enumerate(char.coeffs) for x in c.coeffs):
        raise InternalCheckError("characteristic polynomial does not scale into Z[w] with the matrix")
    cs = [[x.numerator * (den ** (n - j) // x.denominator) for x in c.coeffs] for j, c in enumerate(char.coeffs)]
    for i in range(n * (n - 1) * deg + 1):
        w0 = (i + 1) // 2 * (1 if i % 2 else -1)
        fibre = [_horner(c, w0) for c in cs]
        k = _fibre_exponent(fibre)
        if k == 1:
            root = cs
        else:
            root = _kth_root(cs, k) if k else None
            if root is None:
                continue
            fibre = [_horner(c, w0) for c in root]
        if _sqfree_degree(fibre) == len(fibre) - 1 and (k == 1 or _is_kth_power(root, k, cs)):
            break
    else:
        raise InternalCheckError("k-th root of the characteristic polynomial is not squarefree at any base")
    e = len(root) - 1
    minimal = EtaPoly(UniPoly(Fraction(x, den ** (e - j)) for x in c) for j, c in enumerate(root))
    if minimal.lead != UniPoly.one():
        raise InternalCheckError("minimal polynomial came out non-monic")
    if not annihilates_unit(a, minimal):
        raise InternalCheckError("minimal polynomial fails to annihilate the matrix")
    return minimal, Fraction(w0)


# ---------------------------------------------------------------------------
# quotient-ring elements over Q[w]/(modulus)


@dataclass(frozen=True)
class ExtElem:
    """Element of Q[w]/(modulus); modulus monic of degree >= 1, value
    reduced modulo it.

    For irreducible moduli this is a number field; the package only builds
    them with irreducible moduli, which makes `inv` total on nonzero
    elements.  It holds the eta value of a singular point; the arithmetic
    of K = Q[w]/(p) runs in `kpoly_gcd` and `vanishes_at`.
    """

    modulus: UniPoly
    value: UniPoly

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def inv(self) -> ExtElem:
        """Inverse by fraction-free (Bareiss) elimination over Z.  No
        production path calls it: ``kpoly_gcd`` inverts modulo primes only.

        Column j of the k x k system holds the coefficients of
        value * w^j mod modulus, scaled to integers by one common
        denominator; solving it for the unit vector e_0 gives the inverse.
        A missing pivot means a singular system, i.e. a zero divisor.
        """
        if self.is_zero():
            raise NotInvertibleError("zero is not invertible")
        p = self.modulus.coeffs
        k = len(p) - 1
        col = list(self.value.coeffs) + [Fraction(0)] * (k - len(self.value.coeffs))
        cols = []
        for _ in range(k):
            cols.append(col)
            top = col[-1]
            col = [Fraction(0)] + col[:-1]
            if top:
                col = [c - top * m for c, m in zip(col, p)]
        den = lcm(*(x.denominator for column in cols for x in column))
        # augmented integer rows [den * M | e_0]
        rows = [[int(cols[j][i] * den) for j in range(k)] + [int(i == 0)] for i in range(k)]
        prev = 1
        for c in range(k):
            pivot = next((i for i in range(c, k) if rows[i][c]), None)
            if pivot is None:
                raise NotInvertibleError(
                    f"{self.value} shares factor {poly_gcd(self.value, self.modulus)} "
                    f"with modulus {self.modulus}"
                )
            rows[c], rows[pivot] = rows[pivot], rows[c]
            piv = rows[c]
            for i in range(c + 1, k):
                row = rows[i]
                lead = row[c]
                rows[i] = [0] * (c + 1) + [
                    (row[j] * piv[c] - lead * piv[j]) // prev for j in range(c + 1, k + 1)
                ]
            prev = piv[c]
        # prev is +-det; prev * solution is integral (Cramer), so every
        # division below is exact
        sol = [0] * k
        for i in range(k - 1, -1, -1):
            acc = prev * rows[i][k] - sum(rows[i][j] * sol[j] for j in range(i + 1, k))
            sol[i] = acc // rows[i][i]
        out = ExtElem(self.modulus, UniPoly(Fraction(x * den, prev) for x in sol))
        if (self.value * out.value) % self.modulus != 1:
            raise InternalCheckError("residue-field inverse fails to multiply back to 1")
        return out

    def __str__(self) -> str:
        return f"({self.value.str_in('w')} mod {self.modulus.str_in('w')})"


def reduce_mod(p: UniPoly, modulus: UniPoly) -> ExtElem:
    """p in Q[w]/(modulus), the modulus made monic."""
    if modulus.degree() < 1:
        raise ModulusError("modulus must have degree >= 1")
    if modulus.lead != 1:
        modulus = modulus.monic()
    return ExtElem(modulus, p % modulus)


# polynomials in eta over a residue field K = Q[w]/(p): EtaPolys whose
# coefficients are reduced modulo p


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37, which is deterministic for
    n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# a run of refused primes, or of failed certificates, this long means a
# premise of kpoly_gcd fails
_REFUSED_PRIMES = _FAILED_CERTIFICATES = 64

# the largest primes below 2^62 are 2^62 minus these, in order; the table
# spares the 0.4 ms that ``_is_prime`` takes to find each one
_PRIME_OFFSETS = (
    57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317, 443, 483, 495, 575, 581, 603, 633, 663,
    765, 773, 777, 791, 813, 831, 923, 981, 993, 1001, 1007, 1017, 1197, 1241, 1293, 1353, 1433, 1515,
)


def _gcd_primes():
    """The primes below 2^62, largest first: the order ``kpoly_gcd`` tries
    them in.  Past the table, ``_is_prime`` finds them."""
    for offset in _PRIME_OFFSETS:
        yield 2**62 - offset
    n = 2**62 - _PRIME_OFFSETS[-1] - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _fq_submul(x: list, t: list, y: list, m: list, q: int) -> list:
    """x - t * y mod the monic m in F_q[w], for x, t, y of degree < deg m."""
    k = len(m) - 1
    out = list(x) + [0] * (len(t) + len(y) - 1 - len(x))
    for i, u in enumerate(t):
        for j, v in enumerate(y):
            out[i + j] -= u * v
    for i in range(len(out) - 1, k - 1, -1):
        c = out.pop() % q
        if c:
            for j in range(k):
                out[i - k + j] -= c * m[j]
    return _pl_trim([c % q for c in out])


def _fq_inv(x: list, m: list, q: int):
    """The inverse of x modulo m in F_q[w], or None when gcd(x, m) != 1."""
    r0, r1, s0, s1 = list(m), list(x), [], [1]
    while r1:
        inv = pow(r1[-1], -1, q)
        while len(r0) >= len(r1):  # r0 -= c w^d r1 and s0 -= c w^d s1
            c, d = r0.pop() * inv % q, len(r0) + 1 - len(r1)
            for j, v in enumerate(r1[:-1]):
                r0[d + j] = (r0[d + j] - c * v) % q
            s0 += [0] * (d + len(s1) - len(s0))
            for j, v in enumerate(s1):
                s0[d + j] = (s0[d + j] - c * v) % q
            _pl_trim(r0), _pl_trim(s0)
        r0, r1, s0, s1 = r1, r0, s1, s0
    if len(r0) != 1:
        return None
    c = pow(r0[0], -1, q)
    return [v * c % q for v in s0]


def _kgcd_mod(a: list, b: list, m: list, q: int):
    """Monic gcd in (F_q[w]/(m))[eta] of a != [] and b by monic Euclid, or
    None when a leading coefficient it inverts, lc(a) first, is not a unit."""
    while a:
        inv = _fq_inv(a[-1], m, q)
        if inv is None:
            return None
        minus = [-v for v in inv]
        a, b = [_fq_submul([], minus, c, m, q) for c in a[:-1]] + [[1]], list(b)
        while len(b) >= len(a):
            t = b.pop()
            top = len(b) - len(a) + 1
            for j, c in enumerate(a[:-1]):
                b[top + j] = _fq_submul(b[top + j], t, c, m, q)
        a, b = _pl_trim(b), a
    return b


def _gcd_image(ai: list, bi: list, pm: list, q: int):
    """``_kgcd_mod`` of the integer coefficient lists ai and bi (ai != [])
    modulo q and pm, or None when pm mod q is not squarefree or the Euclid
    refuses q.  The caller has checked that q divides no denominator."""
    inv = pow(pm[-1], -1, q)
    m = [c * inv % q for c in pm]
    if _fq_inv(_pl_trim([i * c % q for i, c in enumerate(m)][1:]), m, q) is None:
        return None
    a, b = ([_pl_trim([x % q for x in c]) for c in f] for f in (ai, bi))
    return _kgcd_mod(a, b, m, q)


def _rational_reconstruction(images: list, m: int):
    """For each u of images, the n/d with |n|, d <= sqrt(m/2), gcd(n, d) = 1
    and n = u d mod m, by Wang's half-extended Euclid on m and u; or None
    at the first u that has none."""
    bound = isqrt(m // 2)
    out = []
    for u in images:
        r0, r1, s0, s1 = m, u, 0, 1
        while r1 > bound:
            c = r0 // r1
            r0, r1, s0, s1 = r1, r0 - c * r1, s1, s0 - c * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
    return out


def _reduce_times_lead(h: list, pm: list) -> list:
    """c^(k-1) h mod pm over Z, for pm of degree k and lead c and h of degree
    at most 2k - 2: every h is scaled alike, which a remainder sequence
    of several coefficients needs."""
    e = max(len(h) - len(pm) + 1, 0)
    scale = pm[-1] ** (len(pm) - 2 - e)
    return [c * scale for c in _pl_pseudo_rem(h, pm)]


def _divides_in_field(g: list, f: list, pm: list) -> bool:
    """Whether g divides f in K[eta], K = Q[w]/(pm), for g and f integer
    w-coefficient lists of w-degree < deg pm, g's lead a nonzero integer.

    Each step subtracts a multiple of g from lead(g) f and reduces every
    coefficient by ``_reduce_times_lead``, so f stays a nonzero integer
    multiple of the partial remainder in K[eta]; a coefficient is zero in K
    exactly when its reduction is the zero list.
    """
    lead, n = g[-1][0], len(g) - 1
    g = [_ZPoly(c) for c in g[:-1]]
    f = [_ZPoly(c) for c in f]
    while len(f) > n:
        t = f.pop()
        top = len(f) - n
        f = [c * lead for c in f[:top]] + [c * lead - t * h for c, h in zip(f[top:], g)]
        f = _pl_trim([_ZPoly(_reduce_times_lead(list(c.coeffs), pm)) for c in f])
    return not f


def kpoly_gcd(a: EtaPoly, b: EtaPoly, p: UniPoly) -> EtaPoly:
    """Monic gcd of eta-polynomials over the residue field K = Q[w]/(p), by
    the modular algorithm of Encarnacion (J. Symb. Comp. 1995) and Monagan
    and van Hoeij (ISSAC 2004), certified by exact division.  The inputs
    are reduced modulo p here, and so are the coefficients of the result.

    p must be monic of degree >= 1, or ModulusError is raised.  It is taken
    to be irreducible, so K is a field and the monic gcd G is unique.  Let
    a be the input of larger degree.  The primes q of ``_gcd_primes`` are
    tried in turn.  q is refused when it divides a denominator of p, a or
    b, when p mod q is not squarefree, or when monic Euclid in
    (F_q[w]/(p mod q))[eta] meets a leading coefficient that is not a unit,
    lc(a) first; otherwise it gives a monic image g_q.  Only the images of
    the least degree seen are kept.  They are combined by CRT, and each
    rational w-coefficient is recovered by rational reconstruction.  The
    gcd is certified at the first reconstruction: g is returned as soon as
    it divides a and b exactly, which ``_divides_in_field`` decides over Z.
    A g that fails is refuted; the next prime's image is combined in, and
    the next reconstruction is tried unless it is the refuted g again.

    Why that g is G.  Let q be an accepted prime.  p is monic over Z_(q)
    and p mod q is squarefree, so by Dedekind's criterion O = Z_(q)[w]/(p)
    is q-maximal: it is integrally closed, and O/qO = F_q[w]/(p mod q) is a
    product of finite fields.  a and b have coefficients in O, and lc(a) is
    a unit of O, so a/lc(a) is monic over O.  G divides it, so the roots of
    G are integral over O, and the coefficients of G, symmetric functions
    of them, lie in O.  Division by the monic G needs no inverse, so
    a/lc(a) = G h and b = G h' with h, h' over O, and G mod q divides a and
    b mod q in each field of O/qO.  Every leading coefficient Euclid
    inverted was a unit, so g_q is their gcd in each of those fields.
    Hence deg G <= deg g_q = deg g.  g divides a and b, so g divides G; both
    are monic, so g = G.  An image of degree 0 proves G = 1 at once, and
    an input that is monic of the image's degree is tried as g at once; one
    that fails to divide the other input is refuted like a reconstruction.

    Only finitely many primes are refused or give too large a degree while
    p is irreducible; a run of ``_REFUSED_PRIMES`` refusals is taken for a
    broken premise and raises InternalCheckError.  So does a refuted
    candidate that ``_FAILED_CERTIFICATES`` more images at its degree
    reconstruct again, which only finitely many unlucky primes can cause.
    A reconstruction from too small a modulus is only wrong while the
    modulus grows, and each one costs one division.
    """
    if p.degree() < 1 or p.lead != 1:
        raise ModulusError(f"residue-field modulus {p} is not monic of degree >= 1")
    a, b = (_pl_trim([c % p for c in f.coeffs]) for f in (a, b))
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return EtaPoly.zero()
    k, pm = p.degree(), _to_int_poly(p)
    (ai, aden), (bi, bden) = (_int_coeff_lists(f) for f in (a, b))
    best = None
    refused = 0
    for q in _gcd_primes():
        # q divides a denominator of the monic p exactly when it divides lc(pm)
        g = None if pm[-1] % q == 0 or aden % q == 0 or bden % q == 0 else _gcd_image(ai, bi, pm, q)
        if g is None:
            refused += 1
            if refused == _REFUSED_PRIMES:
                raise InternalCheckError(f"{refused} primes in a row refused a gcd over {p}")
            continue
        refused, n = 0, len(g) - 1
        if n == 0:
            return EtaPoly.one()
        image = [x for c in g[:-1] for x in c + [0] * (k - len(c))]
        if best is None or n < best:
            best, images, modulo, failed, refuted = n, image, q, 0, None
            for f, fi, other in ((b, bi, ai), (a, ai, bi)):
                if len(f) == n + 1 and f[-1] == 1:
                    if _divides_in_field(fi, other, pm):
                        return EtaPoly(f)
                    refuted = [x for c in f[:-1] for x in c.coeffs + (0,) * (k - len(c.coeffs))]
        elif n > best:
            continue
        else:
            inv = pow(modulo, -1, q)
            images = [x + modulo * ((y - x) * inv % q) for x, y in zip(images, image)]
            modulo *= q
        cand = _rational_reconstruction(images, modulo)
        if cand is None:
            continue
        if cand == refuted:
            # the refuted candidate agrees with one more image
            failed += 1
            if failed == _FAILED_CERTIFICATES:
                raise InternalCheckError(f"{failed} agreeing candidates failed to divide over {p}")
            continue
        den = lcm(*(x.denominator for x in cand))
        gi = [[int(x * den) for x in cand[i : i + k]] for i in range(0, n * k, k)] + [[den]]
        if _divides_in_field(gi, ai, pm) and _divides_in_field(gi, bi, pm):
            return EtaPoly([UniPoly(cand[i : i + k]) for i in range(0, n * k, k)] + [1])
        refuted = cand


def vanishes_at(f: EtaPoly, x: ExtElem) -> bool:
    """Whether f(w, x) = 0 in K = Q[w]/(p), for f in Q[w][eta] of degree n.

    With x = a/d, a in Z[w], and D f in Z[w][eta], Horner's rule over Z[w]
    computes H = D d^n f(x), and f(x) = 0 exactly when p divides H.  The
    accumulator is pseudo-reduced modulo pm, the primitive integer multiple
    of p, whenever it reaches deg pm; ``scale`` collects the powers of
    lc(pm) this brings in and multiplies each new term, so acc = scale * H
    (mod pm) throughout.  As deg acc < deg pm at the end, acc is zero
    exactly when p divides H.  Integers make this several times cheaper
    than Horner's rule in K.
    """
    d = lcm(*(c.denominator for c in x.value.coeffs))
    a = _ZPoly(c.numerator * (d // c.denominator) for c in x.value.coeffs)
    den = lcm(*(c.denominator for p in f.coeffs for c in p.coeffs))
    pm = _to_int_poly(x.modulus)
    scale = 1
    acc = _ZPoly()
    for i, p in enumerate(reversed(f.coeffs)):
        acc = acc * a + _ZPoly(scale * c.numerator * (den // c.denominator) * d**i for c in p.coeffs)
        if len(acc.coeffs) >= len(pm):
            scale *= pm[-1] ** (len(acc.coeffs) - len(pm) + 1)
            acc = _ZPoly(_pl_pseudo_rem(list(acc.coeffs), pm))
    return not acc
