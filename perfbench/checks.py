"""Checks of speccover reports against results computed apart from the package.

Nothing here imports speccover.  Every check is one of three kinds: a
quantity recomputed with sympy from the job alone, a property the
mathematics guarantees, or a polynomial identity confirmed at D + 1 points
for a degree bound D.  ``check_report`` returns a list of problems; an empty
list means the report passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import sympy as sp
from sympy.polys.matrices import DomainMatrix

W, ETA = sp.symbols("w eta")
QQW = sp.QQ[W]


def _poly(expr) -> sp.Poly:
    return sp.Poly(expr, ETA, W, domain=sp.QQ)


def rat(v) -> sp.Rational:
    f = Fraction(v)
    return sp.Rational(f.numerator, f.denominator)


def chart0(coeffs) -> sp.Expr:
    """A binary form's coefficient list (ascending in s) on the chart t = 1."""
    return sum(rat(c) * W**i for i, c in enumerate(coeffs))


def _components(job) -> dict:
    return {int(k): form["coeffs"] for k, form in job["section"].items()}


# ---------------------------------------------------------------------------
# the characteristic polynomial, from a matrix the benchmark builds itself


def mult_matrix(job) -> list:
    """Multiplication by the section on chart 0, as sympy expressions in w.

    Standard cover: basis 1, u, ..., u^(r-1) with u^r = w and section
    sum h_k(w) u^k.  Double cover: basis 1, v with v^2 = branch(w).
    Cyclic triple cover: basis 1, e1, e2 with e1^2 = a e2, e2^2 = b e1 and
    e1 e2 = a b.
    """
    cover = job["cover"]
    comps = {k: chart0(c) for k, c in _components(job).items()}
    if "r" in cover:
        r = cover["r"]
        m = [[sp.Integer(0)] * r for _ in range(r)]
        for k, h in comps.items():
            for j in range(r):
                i = k + j
                if i < r:
                    m[i][j] += h
                else:
                    m[i - r][j] += h * W
        return m
    f0, f1, f2 = (comps.get(k, sp.Integer(0)) for k in (0, 1, 2))
    if "double" in cover:
        branch = chart0(cover["double"]["branch"]["coeffs"])
        return [[f0, branch * f1], [f1, f0]]
    a = chart0(cover["cyclic_triple"]["a"]["coeffs"])
    b = chart0(cover["cyclic_triple"]["b"]["coeffs"])
    return [[f0, f2 * a * b, f1 * a * b], [f1, f0, f2 * b], [f2, f1 * a, f0]]


class Curve:
    """Characteristic and reduced polynomials of one job, on chart 0."""

    def __init__(self, job):
        m = mult_matrix(job)
        n = len(m)
        dm = DomainMatrix.from_list_sympy(n, n, m).convert_to(QQW)
        coeffs = [QQW.to_sympy(c) for c in dm.charpoly()]
        self.rank = n
        self.twist = job["twist_degree"]
        self.char = _poly(sum(c * ETA ** (n - i) for i, c in enumerate(coeffs)))
        # monic in eta, since the eta^n coefficient is a constant and lex
        # order puts eta first
        self.reduced = sp.sqf_part(self.char).monic()
        self.degree = self.reduced.degree(ETA)

    def chart1(self, poly: sp.Poly) -> sp.Poly:
        """The same eta form on chart s = 1, in v = t/s (written as w)."""
        out = 0
        for j in range(poly.degree(ETA) + 1):
            c = poly.as_expr().coeff(ETA, j)
            deg = (poly.degree(ETA) - j) * self.twist
            out += sp.expand(W**deg * c.subs(W, 1 / W)) * ETA**j
        return _poly(sp.expand(out))


def _eta_form(coeff_forms) -> sp.Poly:
    """Report's eta form (list of forms for eta^0, eta^1, ...) on chart 0."""
    return _poly(sum(chart0(f["coeffs"]) * ETA**j for j, f in enumerate(coeff_forms)))


def _char_from_elementary(elementary) -> sp.Poly:
    n = len(elementary)
    expr = ETA**n + sum(
        (-1) ** i * chart0(e["coeffs"]) * ETA ** (n - i)
        for i, e in enumerate(elementary, start=1)
    )
    return _poly(expr)


def _form_degrees_ok(forms, twist) -> bool:
    """Form i (from 0) must have degree (i + 1) * twist."""
    return all(f["degree"] == (i + 1) * twist for i, f in enumerate(forms))


# ---------------------------------------------------------------------------
# per-command checks


def check_compute(job, results, curve: Curve) -> list:
    problems = []
    char = results["curve"]["char"]
    if char["rank"] != curve.rank or char["twist"] != curve.twist:
        problems.append("char rank or twist differs from the job")
    if not _form_degrees_ok(char["elementary"], curve.twist):
        problems.append("elementary forms have the wrong degrees")
    reported = _char_from_elementary(char["elementary"])
    if reported != curve.char:
        problems.append("chart-0 characteristic polynomial differs from the reference")
    if "double" in job["cover"]:
        comps = _components(job)
        f = chart0(comps.get(0, ["0"]))
        g = chart0(comps.get(1, ["0"]))
        branch = chart0(job["cover"]["double"]["branch"]["coeffs"])
        closed = _poly(sp.expand((ETA - f) ** 2 - branch * g**2))
        if reported != closed:
            problems.append("double cover: report differs from (eta - f)^2 - branch g^2")
    ann_json = results["curve"]["annihilating"]
    ann = _eta_form(ann_json["coeffs"])
    n = ann.degree(ETA)
    if any(f["degree"] != (n - j) * curve.twist for j, f in enumerate(ann_json["coeffs"])):
        problems.append("annihilating coefficients have the wrong degrees")
    _, rem = sp.div(curve.char, ann)
    if not rem.is_zero:
        problems.append("annihilating polynomial does not divide the characteristic polynomial")
    if sp.gcd(ann, ann.diff(ETA)).degree(ETA) > 0:
        problems.append("annihilating polynomial is not squarefree")
    if ann != curve.reduced:
        problems.append("annihilating polynomial is not the squarefree part of the reference")
    return problems


def check_discriminant(job, results, curve: Curve) -> list:
    problems = []
    n = curve.degree
    if results["eta_degree"] != n:
        problems.append(f"eta_degree {results['eta_degree']} but the reduced degree is {n}")
    bound = n * (n - 1) * curve.twist
    disc = results["discriminant"]
    if disc["degree"] != bound:
        problems.append(f"discriminant degree {disc['degree']}, expected {bound}")
    coeffs = [rat(c) for c in disc["coeffs"]]
    for w0 in range(bound + 1):
        fibre = sp.Poly(curve.reduced.as_expr().subs(W, w0), ETA)
        want = sp.resultant(fibre, fibre.diff(ETA))
        got = sum(c * w0**i for i, c in enumerate(coeffs))
        if got != want:
            problems.append(f"discriminant differs from the fibre resultant at w = {w0}")
            break
    if "cubic_delta" in results and results["cubic_delta"]["coeffs"] != disc["coeffs"]:
        problems.append("cubic_delta differs from the discriminant of a monic cubic")
    return problems


def _mod(expr, p: sp.Poly) -> sp.Poly:
    return sp.Poly(expr, W).rem(p)


def _vanishes_mod(poly: sp.Poly, eta_value: sp.Poly, p: sp.Poly) -> bool:
    """poly(w, eta_value(w)) == 0 in Q[w]/(p), by Horner with reduction."""
    acc = sp.Poly(0, W)
    for j in range(poly.degree(ETA), -1, -1):
        acc = (acc * eta_value + _mod(poly.as_expr().coeff(ETA, j), p)).rem(p)
    return acc.is_zero


def locus_keys(loci: list, infinity: bool) -> list:
    """Canonical keys for base loci given as monic coefficient lists."""
    keys = []
    for coeffs in loci:
        coeffs = tuple(Fraction(c) for c in coeffs)
        keys.append(("rat", -coeffs[0]) if len(coeffs) == 2 else ("ext", coeffs))
    if infinity:
        keys.append(("inf",))
    return sorted(keys, key=repr)


def check_singular(job, results, curve: Curve, ref) -> list:
    """``ref`` holds the w-projection of the singular locus: monic
    irreducible loci on chart 0 and whether [1:0] is singular."""
    problems = []
    points = results["points"]
    if results["count"] != len(points):
        problems.append("count differs from the number of points")
    f = curve.reduced
    f1 = curve.chart1(f)
    keys = []
    for i, pt in enumerate(points):
        if "modulus" in pt:
            p = sp.Poly([rat(c) for c in reversed(pt["modulus"]["coeffs"])], W).monic()
            eta = pt["eta"]
            if sp.Poly([rat(c) for c in reversed(eta["modulus"]["coeffs"])], W).monic() != p:
                problems.append(f"point {i}: eta lives in another residue field")
            value = sp.Poly([rat(c) for c in reversed(eta["value"]["coeffs"])] or [0], W)
            if not all(_vanishes_mod(g, value, p) for g in (f, f.diff(ETA), f.diff(W))):
                problems.append(f"point {i}: f, f_eta, f_w do not all vanish in Q[w]/(p)")
            keys.append(("ext", tuple(Fraction(str(c)) for c in reversed(p.all_coeffs()))))
            continue
        a, b = (Fraction(c) for c in pt["point"]["coords"])
        eta0 = rat(pt["eta"])
        if b != 0:
            w0, poly, key = rat(a / b), f, ("rat", a / b)
        else:
            w0, poly, key = 0, f1, ("inf",)
        for g in (poly, poly.diff(ETA), poly.diff(W)):
            if g.as_expr().subs({W: w0, ETA: eta0}) != 0:
                problems.append(f"point {i}: f, f_eta, f_w do not all vanish at {pt['printed']}")
                break
        keys.append(key)
    want = locus_keys(ref["loci"], ref["infinity"])
    if sorted(keys, key=repr) != want:
        problems.append("singular base loci differ from the reference projection")
    return problems


def pushforward_degrees(r: int, m: int) -> list:
    return [(m - k) // r for k in range(r)]


def check_factor(job, results, curve: Curve) -> list:
    problems = []
    r = job["cover"]["r"]
    comps = _components(job)
    support = [k for k, c in comps.items() if k != 0 and any(Fraction(x) for x in c)]
    g = math.gcd(r, *support) if support else r
    rep = results["factorization"]
    if rep["subcover_index"] != g or rep["quotient_degree"] != r // g:
        problems.append(f"subcover index {rep['subcover_index']}, expected gcd = {g}")
    tau = rep["tau"]
    pulled = {}
    for comp in tau["components"]:
        pulled[comp["char"][0] * g if comp["char"] else 0] = [Fraction(c) for c in comp["form"]["coeffs"]]
    mine = {k: [Fraction(x) for x in c] for k, c in comps.items() if any(Fraction(x) for x in c)}
    if pulled != mine or tau["cover"] != {"r": r // g} or tau["twist_degree"] != job["twist_degree"]:
        problems.append("tau does not pull back to the section")
    kind = "pullback" if g == r else "birational" if g == 1 else "proper-factorization"
    if rep["verdict"] != kind or results["birationality"]["kind"] != kind:
        problems.append(f"verdict is not {kind}")
    witness = results["birationality"].get("witness_base")
    if witness is not None:
        fibre = sp.Poly(curve.reduced.as_expr().subs(W, rat(witness)), ETA)
        if sp.discriminant(fibre) == 0:
            problems.append("witness base value has a ramified fibre")
    return problems


def hilbert(degrees, ample: int = 1):
    """Normalized Hilbert polynomial (linear, constant) of a split bundle."""
    return (Fraction(ample), Fraction(sum(a + 1 for a in degrees), len(degrees)))


def _polynomial_branches_complete(curve: Curve, branches: list) -> bool:
    """True when no root eta = mu(w), deg mu <= d, is missing from ``branches``.

    A missing branch takes a rational value at every base value.  Where every
    rational fibre root equals some reported branch, the missing one agrees
    with a reported one; after k*d + 1 such base values it would agree with
    one of the k reported branches at d + 1 points, hence equal it.
    """
    need = len(branches) * curve.twist + 1
    n = curve.degree
    matched = 0
    for w0 in range(-40, 41):
        fibre = sp.Poly(curve.reduced.as_expr().subs(W, w0), ETA)
        if fibre.degree() != n or sp.discriminant(fibre) == 0:
            continue
        roots = set(sp.roots(fibre, filter="Q").keys())
        if roots <= {b.subs(W, w0) for b in branches}:
            matched += 1
            if matched >= need:
                return True
    return False


def check_stability(job, results, curve: Curve) -> list:
    problems = []
    r = job["cover"]["r"]
    m = job["m_degrees"]
    ample = job.get("ample_degree", 1)
    graded = [a for mi in m for a in pushforward_degrees(r, mi)]
    if results["graded_degrees"] != graded:
        problems.append("graded degrees differ from floor((m - k)/r)")
    total = hilbert(graded, ample)
    if (Fraction(results["total"]["linear"]), Fraction(results["total"]["constant"])) != total:
        problems.append("total Hilbert polynomial differs")
    blocks, eigen = [], []
    for rec in results["records"]:
        h = (Fraction(rec["hilbert"]["linear"]), Fraction(rec["hilbert"]["constant"]))
        if rec["kind"] == "block":
            blocks.append((tuple(rec["indices"]), tuple(rec["degrees"]), h))
        else:
            lam = chart0(rec["eigenvalue"]["coeffs"])
            if not curve.reduced.as_expr().subs(ETA, lam).expand() == 0:
                problems.append("an eigenvalue record is not a root of the curve")
            if h != hilbert(rec["degrees"], ample) or rec["rank"] != 1:
                problems.append("an eigen record's Hilbert polynomial differs from its degree")
            eigen.append((lam, h))
    want_blocks = []
    for size in range(1, len(m)):
        for subset in combinations(range(len(m)), size):
            degs = tuple(a for i in subset for a in pushforward_degrees(r, m[i]))
            want_blocks.append((subset, degs, hilbert(degs, ample)))
    if blocks != want_blocks:
        problems.append("block records differ from the pushforward degrees")
    complete = _polynomial_branches_complete(curve, [lam for lam, _ in eigen])
    if results["search_complete"] and not complete:
        problems.append("search claims completeness but a polynomial branch may be missing")
    support = [k for k, c in _components(job).items() if k != 0 and any(Fraction(x) for x in c)]
    integral = bool(support) and math.gcd(r, *support) == 1 and complete and not eigen
    if results["integrality"]["certified"] != integral:
        problems.append(f"integrality certified = {results['integrality']['certified']}, expected {integral}")
    hs = [h for _, _, h in blocks] + [h for _, h in eigen]
    if any(h > total for h in hs):
        status = "unstable"
    elif any(h == total for h in hs):
        status = "strictly-semistable"
    elif integral and results["search_complete"]:
        status = "stable"
    else:
        status = "undetermined"
    verdict = results["verdict"]
    if verdict["status"] != status:
        problems.append(f"verdict {verdict['status']}, Hilbert polynomials give {status}")
    elif status == "unstable":
        w = verdict["witness"]["hilbert"]
        if (Fraction(w["linear"]), Fraction(w["constant"])) != max(hs):
            problems.append("unstable witness is not the largest record")
    return problems


def check_genus(job, results) -> list:
    r, d = job["cover"]["r"], job["twist_degree"]
    want = r * (r - 1) * d // 2 - r + 1
    if (results["genus"], results["rank"], results["twist"]) != (want, r, d):
        return [f"genus {results['genus']}, expected {want}"]
    return []


def check_pushforward(job, results) -> list:
    r, m = job["cover"]["r"], job["line_degree"]
    problems = []
    if results["bundle"]["degrees"] != pushforward_degrees(r, m):
        problems.append("pushforward degrees differ from floor((m - k)/r)")
    if results["relation"]["ok"] is not True:
        problems.append("Hilbert relation reported as failing")
    return problems


def check_report(job, report, ref=None) -> list:
    """All checks that apply to one job's report; [] when it passes."""
    if report.get("job") != job or report.get("schema") != "1":
        return ["report does not echo the job"]
    results = report["results"]
    command = job["command"]
    try:
        if command == "genus":
            return check_genus(job, results)
        if command == "pushforward":
            return check_pushforward(job, results)
        curve = Curve(job)
        if command == "compute":
            return check_compute(job, results, curve)
        if command == "discriminant":
            return check_discriminant(job, results, curve)
        if command == "singular":
            return check_singular(job, results, curve, ref)
        if command == "factor":
            return check_factor(job, results, curve)
        if command == "stability":
            return check_stability(job, results, curve)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return [f"no check for command {command!r}"]
