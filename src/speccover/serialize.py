"""JSON encoders for the domain types, plus the parsers that job input needs
(rationals, binary forms, covers).

Conventions, shared with the CLI report format:

* rationals are strings, "p" or "p/q" in lowest terms;
* binary forms are {"degree": d, "coeffs": [...]} with coefficients listed
  by ascending s-exponent (coeffs[i] multiplies s^i t^(d-i));
* one-variable polynomials are {"coeffs": [...]} ascending in the variable.

Parsers ignore unknown keys (encoders add "printed" strings for humans) and
raise JobError on anything structurally wrong, so the CLI can map bad input
to its own exit code.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .covers import (
    AbelianGroup,
    CoverAlgebra,
    SectionData,
    SplitBundle,
    is_standard_cyclic,
    make_cyclic_triple,
    make_double_cover,
    make_standard_cyclic,
)
from .errors import JobError, SpecCoverError
from .exactalg import BinForm, ExtElem, ProjPoint, UniPoly
from .factorization import BirationalityVerdict, FactorizationReport
from .spectral import EtaForm, SingularPoint, SpectralCurve
from .stability import (
    HilbertPoly,
    IntegralityReport,
    RelationReport,
    StabilityVerdict,
    SubsheafRecord,
)

_RAT_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


def rat_to_json(x) -> str:
    """An int or Fraction as "p" or "p/q", printed from its integers."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(v, where: str = "value") -> Fraction:
    if isinstance(v, bool):
        raise JobError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    m = _RAT_RE.fullmatch(v) if isinstance(v, str) else None
    if m:
        return Fraction(int(m[1]), int(m[2] or 1))
    raise JobError(f'{where}: expected an integer or "p/q" string, got {v!r}')


def _need_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise JobError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj

def _need_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise JobError(f"{where}: expected an array, got {type(obj).__name__}")
    return obj


def _need_int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise JobError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _need_ints(obj, where: str) -> tuple:
    """An array of integers, each entry named where[i] when it is not one."""
    return tuple(_need_int(v, f"{where}[{i}]") for i, v in enumerate(_need_list(obj, where)))


# ---------------------------------------------------------------------------
# coefficient containers


def form_to_json(form: BinForm) -> dict:
    return {
        "degree": form.degree,
        "coeffs": [rat_to_json(c) for c in form.coeffs],
        "printed": form.str_in("s", "t"),
    }


def form_from_json(obj, where: str = "form") -> BinForm:
    obj = _need_dict(obj, where)
    degree = _need_int(obj.get("degree"), f"{where}.degree")
    coeffs = _need_list(obj.get("coeffs"), f"{where}.coeffs")
    if degree < 0:
        raise JobError(f"{where}.degree: must be non-negative, got {degree}")
    if len(coeffs) != degree + 1:
        raise JobError(
            f"{where}.coeffs: degree {degree} needs {degree + 1} entries, got {len(coeffs)}"
        )
    vals = [rat_from_json(c, f"{where}.coeffs[{i}]") for i, c in enumerate(coeffs)]
    return BinForm(degree, vals)


def unipoly_to_json(p: UniPoly) -> dict:
    return {"coeffs": [rat_to_json(c) for c in p.coeffs]}


def point_to_json(pt: ProjPoint) -> dict:
    return {"coords": [pt.a, pt.b], "printed": str(pt)}


def ext_to_json(x: ExtElem) -> dict:
    return {
        "modulus": unipoly_to_json(x.modulus),
        "value": unipoly_to_json(x.value),
        "printed": x.value.str_in("w"),
    }


# ---------------------------------------------------------------------------
# covers and sections


def _char_to_json(rho) -> list:
    return [int(v) for v in rho]


def cover_to_json(alg: CoverAlgebra) -> dict:
    if is_standard_cyclic(alg):
        return {"r": alg.degree}
    twists = [
        {"char": _char_to_json(rho), "degree": alg.twist(rho)}
        for rho in alg.characters()
        if rho != alg.group.identity()
    ]
    forms = [
        {"chars": [_char_to_json(a), _char_to_json(b)], "form": form_to_json(f)}
        for (a, b), f in sorted(alg.structure_forms.items())
    ]
    return {
        "group": list(alg.group.factors),
        "twists": twists,
        "forms": forms,
    }


def cover_from_json(obj, where: str = "cover") -> CoverAlgebra:
    obj = _need_dict(obj, where)
    try:
        if "r" in obj:
            return make_standard_cyclic(_need_int(obj["r"], f"{where}.r"))
        if "cyclic_triple" in obj:
            inner = _need_dict(obj["cyclic_triple"], f"{where}.cyclic_triple")
            return make_cyclic_triple(
                form_from_json(inner.get("a"), f"{where}.cyclic_triple.a"),
                form_from_json(inner.get("b"), f"{where}.cyclic_triple.b"),
            )
        if "double" in obj:
            inner = _need_dict(obj["double"], f"{where}.double")
            return make_double_cover(
                form_from_json(inner.get("branch"), f"{where}.double.branch")
            )
        if "group" in obj:
            group = AbelianGroup(_need_ints(obj["group"], f"{where}.group"))
            twists = {}
            for i, row in enumerate(_need_list(obj.get("twists", []), f"{where}.twists")):
                row = _need_dict(row, f"{where}.twists[{i}]")
                rho = _need_ints(row.get("char"), f"{where}.twists[{i}].char")
                twists[rho] = _need_int(row.get("degree"), f"{where}.twists[{i}].degree")
            forms = {}
            for i, row in enumerate(_need_list(obj.get("forms", []), f"{where}.forms")):
                row = _need_dict(row, f"{where}.forms[{i}]")
                chars = f"{where}.forms[{i}].chars"
                pair = _need_list(row.get("chars"), chars)
                if len(pair) != 2:
                    raise JobError(f"{chars}: expected two characters")
                key = (_need_ints(pair[0], f"{chars}[0]"), _need_ints(pair[1], f"{chars}[1]"))
                forms[key] = form_from_json(row.get("form"), f"{where}.forms[{i}].form")
            return CoverAlgebra(group, twists, forms)
    except JobError:
        raise
    except SpecCoverError as exc:
        raise JobError(f"{where}: {exc}") from exc
    raise JobError(
        f'{where}: need one of "r", "cyclic_triple", "double", or explicit "group" data'
    )


def section_to_json(sec: SectionData) -> dict:
    comps = [
        {"char": _char_to_json(rho), "form": form_to_json(f)}
        for rho, f in sorted(sec.components.items())
    ]
    return {
        "cover": cover_to_json(sec.cover),
        "twist_degree": sec.twist_degree,
        "components": comps,
    }


def bundle_to_json(bundle: SplitBundle) -> dict:
    return {"degrees": list(bundle.degrees)}


# ---------------------------------------------------------------------------
# curves and singular points


def etaform_to_json(f: EtaForm) -> dict:
    return {
        "twist": f.twist,
        "coeffs": [form_to_json(c) for c in f.coeffs],
        "printed": f.str_in("s", "t", "eta"),
    }


def chardata_to_json(char: EtaForm) -> dict:
    """The monic characteristic polynomial as its rank, twist and the signed
    elementary forms: ``elementary[i-1]`` is (-1)^i times the eta^(r-i)
    coefficient, the i-th elementary symmetric function of the eigenvalues."""
    r = char.degree
    return {
        "rank": r,
        "twist": char.twist,
        "elementary": [form_to_json(char.coeff(r - i) * (-1) ** i) for i in range(1, r + 1)],
        "printed": char.str_in("s", "t", "eta"),
    }


def curve_to_json(curve: SpectralCurve) -> dict:
    return {
        "char": chardata_to_json(curve.char),
        "annihilating": etaform_to_json(curve.annihilating),
        "integral": curve.integral,
    }


def singular_point_to_json(pt: SingularPoint) -> dict:
    out = {"chart": pt.chart, "certificate": pt.certificate, "printed": str(pt)}
    if pt.point is not None:
        out["point"] = point_to_json(pt.point)
    if pt.modulus is not None:
        out["modulus"] = unipoly_to_json(pt.modulus)
    if isinstance(pt.eta, ExtElem):
        out["eta"] = ext_to_json(pt.eta)
    else:
        out["eta"] = rat_to_json(pt.eta)
    return out


# ---------------------------------------------------------------------------
# factorization reports


def birationality_to_json(v: BirationalityVerdict) -> dict:
    out = {
        "kind": v.kind,
        "justification": v.justification,
        "sampling_complete": True,  # kept in the schema; the witness search always succeeds
    }
    if v.tau is not None:
        out["tau"] = section_to_json(v.tau)
    if v.witness_base is not None:
        out["witness_base"] = rat_to_json(v.witness_base)
    return out


def factorization_to_json(rep: FactorizationReport) -> dict:
    return {
        "subcover_index": rep.subcover_index,
        "quotient_degree": rep.quotient_degree,
        "tau": section_to_json(rep.tau),
        "verdict": rep.verdict,
    }


# ---------------------------------------------------------------------------
# stability reports


def hilbert_to_json(p: HilbertPoly) -> dict:
    return {
        "linear": rat_to_json(p.linear),
        "constant": rat_to_json(p.constant),
        "printed": str(p),
    }


def relation_to_json(rep: RelationReport) -> dict:
    return {
        "ok": rep.ok,
        "lhs": hilbert_to_json(rep.lhs),
        "rhs": hilbert_to_json(rep.rhs),
    }


def record_to_json(rec: SubsheafRecord) -> dict:
    out = {
        "kind": rec.kind,
        "rank": rec.rank,
        "degrees": list(rec.degrees),
        "hilbert": hilbert_to_json(rec.hilbert),
        "indices": list(rec.indices),
    }
    if rec.eigenvalue is not None:
        out["eigenvalue"] = unipoly_to_json(rec.eigenvalue)
        out["eigenvalue_printed"] = rec.eigenvalue.str_in("w")
    if rec.vector:
        out["vector"] = [unipoly_to_json(v) for v in rec.vector]
    return out


def verdict_to_json(v: StabilityVerdict) -> dict:
    out = {"status": v.status, "method": v.method, "notes": list(v.notes)}
    if v.witness is not None:
        out["witness"] = record_to_json(v.witness)
    return out


def integrality_to_json(rep: IntegralityReport) -> dict:
    return {"certified": rep.certified, "reasons": list(rep.reasons)}
