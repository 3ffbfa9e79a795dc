"""Exact arithmetic kernel: rationals, polynomials, binary forms, resultants,
characteristic/minimal polynomials of polynomial matrices, and quotient-ring
elements for certifying facts at non-rational points.

Everything here is exact. There are no floats anywhere; coefficients are
`fractions.Fraction` throughout, and every division is checked.

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

The kernels over Q[w] work at integer points: `char_poly_matrix` and
`resultant` evaluate at w = 0, 1, ..., D for a degree bound D, compute over
Z, and interpolate exactly; `min_poly_matrix` takes the squarefree part as
an exact k-th root, certified at one base value.  No production path runs a
remainder sequence over Q[w].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

import sympy

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


def _fmt_rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# dense polynomials over any exact commutative ring: coefficient lists and
# the arithmetic UniPoly and EtaPoly share


def _pl_trim(cs: list) -> list:
    """Strip trailing zeros, in place, from a coefficient list over any ring
    whose zero is falsy: int, Fraction, UniPoly, EtaPoly or ExtElem."""
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

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        dlead = other.lead
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] / dlead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quo), UniPoly(rem[: other.degree()] if other.degree() > 0 else ())

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
        x = as_rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: UniPoly) -> UniPoly:
        """self(inner(w)), exact."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c)
        return acc

    def shift(self, c) -> UniPoly:
        """Taylor shift: returns p(w + c)."""
        return self.compose(UniPoly((as_rat(c), 1)))

    def str_in(self, var: str) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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
    fa, fb = _to_int_poly(a), _to_int_poly(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        rem = _pl_pseudo_rem(fa, fb)
        if not rem:
            return UniPoly(fb).monic()
        fa, fb = fb, _int_primitive(rem)
    return UniPoly.one()


_SYMPY_W = sympy.Symbol("w")


def factor_rational(f: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Irreducible factorization over Q (monic factors, canonical order).

    Backed by sympy for the factor search; the result is verified here by
    exact reconstruction and pairwise-coprimality before being returned.
    """
    if f.is_zero():
        raise DegreeError("factorization of the zero polynomial")
    if f.degree() == 0:
        return f.lead, []
    expr = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
        _SYMPY_W,
        domain="QQ",
    )
    s_unit, pairs = expr.factor_list()
    s_unit = sympy.Rational(s_unit)
    unit = Fraction(int(s_unit.p), int(s_unit.q))
    factors: list[tuple[UniPoly, int]] = []
    for poly, mult in pairs:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        q = UniPoly(coeffs)
        unit *= q.lead ** mult
        factors.append((q.monic(), int(mult)))
    factors.sort(key=lambda pm: (pm[0].degree(), pm[0].coeffs))
    check = UniPoly.const(unit)
    for p, m in factors:
        check = check * p**m
    if check != f:
        raise InternalCheckError("irreducible factorization failed to reconstruct input")
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
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return BinForm(self.degree + other.degree, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BinForm:
        if n < 0:
            raise ValueError("negative power of a form")
        out = BinForm.const(1)
        for _ in range(n):
            out = out * self
        return out

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
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            j = self.degree - i
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

    def eval_poly(self, lam: UniPoly) -> UniPoly:
        """Substitute eta = lam(w); returns an element of Q[w]."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

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


def _int_eta_coeffs(f: EtaPoly) -> tuple[list, int]:
    """(den * f as integer coefficient lists, den), den the common denominator."""
    den = lcm(*(c.denominator for p in f.coeffs for c in p.coeffs))
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in f.coeffs], den


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
    (fi, fden), (gi, gden) = _int_eta_coeffs(f), _int_eta_coeffs(g)
    values = []
    for x in range(_resultant_degree_bound(f, g) + 1):
        values.append(_sylvester_at([_horner(c, x) for c in fi], [_horner(c, x) for c in gi], n, m))
    scale = fden**m * gden**n
    return UniPoly(Fraction(c, scale) for c in _interpolate_int(values))


# ---------------------------------------------------------------------------
# matrices over Q[w] and their characteristic / minimal polynomials


class PolyMatrix:
    """Square matrix with UniPoly entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[UniPoly]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeError("PolyMatrix must be square and nonempty")
        fixed = []
        for r in rows:
            fixed.append(tuple(e if isinstance(e, UniPoly) else UniPoly.const(as_rat(e)) for e in r))
        self.n = n
        self.rows: tuple[tuple[UniPoly, ...], ...] = tuple(fixed)

    def entry(self, i: int, j: int) -> UniPoly:
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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


def _berkowitz(m: list[list[int]]) -> list[int]:
    """det(x * id - M) for an integer matrix M, coefficients descending.

    Berkowitz's division-free algorithm: the characteristic polynomial of
    the leading (k+1) x (k+1) block is the convolution of that of the
    leading k x k block A with (1, -m_kk, -R C, -R A C, ..., -R A^(k-1) C),
    where R and C are the new row and column outside the diagonal.
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
    """det(eta * id - A), monic of degree n in eta.

    With den the lcm of the coefficient denominators and e the largest entry
    degree, B = den * A has entries in Z[w], and the coefficient of
    eta^(n-i) in det(eta * id - B) has degree at most i * e in w.  So it is
    interpolated exactly from the integer characteristic polynomials of
    B(0), ..., B(i * e), and dividing it by den^i gives that of A.
    """
    n = a.n
    entries = [e for row in a.rows for e in row]
    den = lcm(*(c.denominator for e in entries for c in e.coeffs))
    deg = max(0, max(e.degree() for e in entries))
    scaled = [[[c.numerator * (den // c.denominator) for c in e.coeffs] for e in row] for row in a.rows]
    samples = []
    for x in range(n * deg + 1):
        powers = [x**k for k in range(deg + 1)]
        samples.append(_berkowitz([[sum(map(mul, cs, powers)) for cs in row] for row in scaled]))
    coeffs = []
    for i in range(n + 1):
        ints = _interpolate_int([s[i] for s in samples[: i * deg + 1]])
        coeffs.append(UniPoly(Fraction(c, den**i) for c in ints))
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
    """Whether poly(A) e_0 = 0, by Horner on a vector: v <- A v + c e_0.

    Each step costs one matrix-vector product.  When A is the regular
    representation of an associative algebra whose basis vector 0 is the
    unit, as ``covers.mult_matrix`` is, poly(A) is multiplication by
    poly(A) e_0, so this holds exactly when poly(A) = 0.
    """
    vec = [UniPoly.zero()] * a.n
    for c in reversed(poly.coeffs):
        vec = a.apply(vec)
        vec[0] = vec[0] + c
    return all(e.is_zero() for e in vec)


def _kth_root(cs: list, k: int):
    """The monic m of degree e = (len(cs) - 1) / k whose k-th power agrees
    with the monic coefficient list cs in its top e + 2 coefficients, over
    Q or Q[w], or None when there is none.

    With cs = eta^n A(1/eta), A = 1 + a_1 x + a_2 x^2 + ..., and
    m = eta^e B(1/eta), B = A^(1/k) as power series in x satisfies
    k A B' = A' B, so b_j = sum_(i=1..j) ((k + 1) i - k j) a_i b_(j-i) / (k j).
    A polynomial root has b_(e+1) = 0, which rejects most wrong k before
    the caller's exact check of m^k.
    """
    if k == 1:
        return list(cs)
    n = len(cs) - 1
    e = n // k
    b = [cs[-1]]
    for j in range(1, e + 2):
        acc = sum(cs[n - i] * b[j - i] * ((k + 1) * i - k * j) for i in range(1, j + 1) if cs[n - i])
        b.append(acc * Fraction(1, k * j))
    return None if b.pop() else b[::-1]


def _fibre_exponent(fibre: UniPoly) -> int:
    """The k that fibre = s^k would have for s its squarefree part, or 0 when
    deg s does not divide deg fibre: a guess, which the caller certifies."""
    e = fibre.degree() - poly_gcd(fibre, fibre.derivative()).degree()
    return fibre.degree() // e if fibre.degree() % e == 0 else 0


def _weight(f: EtaPoly) -> int:
    """The least t >= 0 with deg f_j <= (n - j) t for every eta^j
    coefficient, n = deg f: the twist f fits."""
    n = f.degree()
    return max([0] + [-(-c.degree() // (n - j)) for j, c in enumerate(f.coeffs[:-1]) if c])


def min_poly_matrix(a: PolyMatrix, char: EtaPoly) -> tuple[EtaPoly, Fraction]:
    """Squarefree part m of ``char``, the characteristic polynomial of ``a``,
    and a witness base w0 where m(w0, eta) is squarefree.

    The base values 0, 1, -1, 2, ... are walked in turn.  At each, the fibre
    char(w0, eta) suggests an exponent k, and m is taken as the k-th root
    of char by ``_kth_root``, if it has one.  m is accepted once m(w0, eta) is
    squarefree and m^k == char: then m is squarefree over Q(w) and has the
    roots of char, so m = sqfree(char), whatever k was guessed.  The
    accepted w0 is the first base where m(w0, eta) is squarefree: at an
    earlier base a root that passed both checks would be m itself.

    char is monic, char = m^k, and deg char_j <= (n - j) t for t =
    ``_weight(char)``; so deg m_j <= (e - j) t, e = deg m, and the
    discriminant of m has degree at most e (e - 1) t <= n (n - 1) t in w.
    A witness therefore lies among the first n (n - 1) t + 1 values, and a
    walk that finds none has found a defect.

    m is also checked to annihilate the matrix with ``annihilates_unit``,
    whose premise on ``a`` it inherits.
    """
    n = char.degree()
    for i in range(n * (n - 1) * _weight(char) + 1):
        w0 = Fraction((i + 1) // 2 * (1 if i % 2 else -1))
        k = _fibre_exponent(char.at_base(w0))
        root = _kth_root(list(char.coeffs), k) if k else None
        if root is None:
            continue
        minimal = EtaPoly(root)
        fibre = minimal.at_base(w0)
        if poly_gcd(fibre, fibre.derivative()).degree() == 0 and minimal**k == char:
            break
    else:
        raise InternalCheckError("k-th root of the characteristic polynomial is not squarefree at any base")
    if minimal.lead != UniPoly.one():
        raise InternalCheckError("minimal polynomial came out non-monic")
    if not annihilates_unit(a, minimal):
        raise InternalCheckError("minimal polynomial fails to annihilate the matrix")
    return minimal, w0


# ---------------------------------------------------------------------------
# quotient-ring elements over Q[w]/(modulus)


@dataclass(frozen=True)
class ExtElem:
    """Element of Q[w]/(modulus); modulus monic of degree >= 1.

    For irreducible moduli this is a number field; the package only builds
    them with irreducible moduli, which makes `inv` total on nonzero elements.
    """

    modulus: UniPoly
    value: UniPoly

    @classmethod
    def make(cls, value: UniPoly, modulus: UniPoly) -> ExtElem:
        if modulus.degree() < 1:
            raise ModulusError("modulus must have degree >= 1")
        if modulus.lead != 1:
            modulus = modulus.monic()
        return cls(modulus, value % modulus)

    def _check(self, other: ExtElem):
        if self.modulus != other.modulus:
            raise ModulusError("mixed moduli in quotient-ring arithmetic")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other) -> ExtElem:
        other = self._coerce(other)
        self._check(other)
        return ExtElem(self.modulus, (self.value + other.value) % self.modulus)

    __radd__ = __add__

    def __neg__(self) -> ExtElem:
        return ExtElem(self.modulus, -self.value % self.modulus)

    def __sub__(self, other) -> ExtElem:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> ExtElem:
        return self._coerce(other) - self

    def __mul__(self, other) -> ExtElem:
        other = self._coerce(other)
        self._check(other)
        return ExtElem(self.modulus, (self.value * other.value) % self.modulus)

    __rmul__ = __mul__

    def _coerce(self, other) -> ExtElem:
        if isinstance(other, ExtElem):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtElem(self.modulus, UniPoly.const(as_rat(other)))
        if isinstance(other, UniPoly):
            return ExtElem(self.modulus, other % self.modulus)
        raise TypeError(f"cannot combine ExtElem with {other!r}")

    def inv(self) -> ExtElem:
        """Inverse by fraction-free (Bareiss) elimination over Z.

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
        if (self * out).value != UniPoly.one():
            raise InternalCheckError("residue-field inverse fails to multiply back to 1")
        return out

    def __str__(self) -> str:
        return f"({self.value.str_in('w')} mod {self.modulus.str_in('w')})"


def reduce_mod(p: UniPoly, modulus: UniPoly) -> ExtElem:
    return ExtElem.make(p, modulus)


# polynomials in eta over a residue field K = Q[w]/(p): plain lists of ExtElem


def kpoly_from_etapoly(f: EtaPoly, modulus: UniPoly) -> list[ExtElem]:
    return _pl_trim([reduce_mod(c, modulus) for c in f.coeffs])


def kpoly_gcd(a: list[ExtElem], b: list[ExtElem]) -> list[ExtElem]:
    """Monic gcd of eta-polynomials over the residue field.

    Runs a pseudo-remainder sequence, which needs no inverse, and inverts
    once at the end to make the result monic.
    """
    a, b = _pl_trim(list(a)), _pl_trim(list(b))
    while b:
        a, b = b, _pl_pseudo_rem(a, b)
    if a:
        la = a[-1].inv()
        a = [c * la for c in a]
    return a


def vanishes_at(f: EtaPoly, x: ExtElem) -> bool:
    """Whether f(w, x) = 0 in K = Q[w]/(p), for f in Q[w][eta] of degree n.

    With x = a/d, a in Z[w], and D f in Z[w][eta], Horner's rule over Z[w]
    gives H = D d^n f(x) unreduced, and f(x) = 0 exactly when p divides H.
    Integers make this several times cheaper than Horner's rule in K.
    """
    d = lcm(*(c.denominator for c in x.value.coeffs))
    a = _ZPoly(c.numerator * (d // c.denominator) for c in x.value.coeffs)
    den = lcm(*(c.denominator for p in f.coeffs for c in p.coeffs))
    acc = _ZPoly()
    for i, p in enumerate(reversed(f.coeffs)):
        acc = acc * a + _ZPoly(c.numerator * (den // c.denominator) * d**i for c in p.coeffs)
    return not _pl_pseudo_rem(list(acc.coeffs), _to_int_poly(x.modulus))
