"""Command-line interface: JSON jobs in, JSON reports out.

A job file names one command plus its data (cover, twist degree, section
components, bundle degrees).  The report echoes the job, carries the results
keyed by operation, a provenance block, and a warnings list.  Reports are
canonical JSON (sorted keys, fixed separators), so identical jobs produce
byte-identical bytes; the only nondeterministic field is the timing entry in
the provenance block, which the repro comparison strips.

Exit codes: 0 success, 1 verdict-level failure (a repro assertion tripped),
2 malformed or semantically invalid input, or a valid job whose answer the
package cannot represent, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import tempfile
import time

from . import __version__
from . import serialize as sz
from .covers import (
    SectionData,
    SplitBundle,
    is_standard_cyclic,
    make_standard_cyclic,
    pushforward_line_bundle,
    validate_algebra,
)
from .errors import (
    DegreeError,
    InternalCheckError,
    InvalidPointError,
    JobError,
    ModulusError,
    NonReducedCurveError,
    PullbackSectionError,
    ShapeError,
    SingularityNotRepresentableError,
    SpecCoverError,
    UnsupportedCoverError,
)
from .exactalg import BinForm
from .factorization import birationality_verdict, intermediate_factorization
from .spectral import (
    arithmetic_genus,
    cubic_delta,
    depressed_cubic_parts,
    double_cover_singularities,
    eta_discriminant,
    singular_locus,
    spectral_curve,
)
from .stability import (
    double_cover_verdict,
    gieseker_verdict,
    graded_degrees,
    hilbert_poly,
    pushforward_relation_check,
)

SCHEMA_VERSION = "1"

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "repro_golden.json")

# the stability search lists all 2^l - 2 block subsets of the l summands, so
# a longer m_degrees is refused: l = 12 already gives a 0.6 MB report
MAX_M_DEGREES = 12

# errors that mean "the job asked for something its data cannot support",
# or for an answer the package cannot represent
_INPUT_ERRORS = (
    JobError,
    DegreeError,
    ShapeError,
    InvalidPointError,
    ModulusError,
    NonReducedCurveError,
    PullbackSectionError,
    SingularityNotRepresentableError,
    UnsupportedCoverError,
)

_JOB_FIELDS = (
    "schema",
    "command",
    "label",
    "cover",
    "twist_degree",
    "section",
    "m_degrees",
    "ample_degree",
    "line_degree",
)

_REQUIRED_FIELDS = {
    "compute": ("cover", "twist_degree", "section"),
    "discriminant": ("cover", "twist_degree", "section"),
    "singular": ("cover", "twist_degree", "section"),
    "factor": ("cover", "twist_degree", "section"),
    "genus": ("cover", "twist_degree"),
    "pushforward": ("cover", "line_degree"),
    "stability": ("cover", "twist_degree", "section", "m_degrees"),
}


# ---------------------------------------------------------------------------
# job parsing


def _need_at_least(v, minimum: int, where: str) -> None:
    if sz._need_int(v, where) < minimum:
        raise JobError(f"{where}: {v} is less than the minimum of {minimum}")


def validate_job(job) -> None:
    """Top-level field checks plus per-command required fields; JobError
    names the field.  Nested data is checked where it is parsed."""
    sz._need_dict(job, "$")
    for field in job:
        if field not in _JOB_FIELDS:
            raise JobError(f"$.{field}: not a job field")
    if job.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise JobError(f'$.schema: expected "{SCHEMA_VERSION}", got {job["schema"]!r}')
    command = job.get("command")
    if not isinstance(command, str) or command not in _REQUIRED_FIELDS:
        raise JobError(f"$.command: expected one of {', '.join(_REQUIRED_FIELDS)}, got {command!r}")
    if not isinstance(job.get("label", ""), str):
        raise JobError(f"$.label: expected a string, got {job['label']!r}")
    if "cover" in job:
        sz._need_dict(job["cover"], "$.cover")
    if "twist_degree" in job:
        _need_at_least(job["twist_degree"], 0, "$.twist_degree")
    if not isinstance(job.get("section", {}), (dict, list)):
        raise JobError(f"$.section: expected an object or an array, got {job['section']!r}")
    if "m_degrees" in job:
        ell = len(sz._need_ints(job["m_degrees"], "$.m_degrees"))
        if not ell:
            raise JobError("$.m_degrees: expected at least one degree")
        if ell > MAX_M_DEGREES:
            raise JobError(f"$.m_degrees: {ell} summands, more than the maximum of {MAX_M_DEGREES}")
    if "ample_degree" in job:
        _need_at_least(job["ample_degree"], 1, "$.ample_degree")
    if "line_degree" in job:
        sz._need_int(job["line_degree"], "$.line_degree")
    for field in _REQUIRED_FIELDS[command]:
        if field not in job:
            raise JobError(f'$.{field}: required by the "{command}" command')


def _cover_from_job(job) -> "CoverAlgebra":
    cover = sz.cover_from_json(job["cover"], "cover")
    if "group" in job["cover"]:
        report = validate_algebra(cover)
        if not report:
            raise JobError(f"cover: algebra identities fail: {report.violation}")
    return cover


def _char_from_label(label: str, where: str):
    parts = label.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise JobError(f'{where}: character label "{label}" is not numeric') from None
    return values[0] if len(values) == 1 else tuple(values)


def _section_rows(raw) -> list:
    """(char field, label, form field, form) for both section layouts: an
    object keyed by character label, or an array of {char, form} objects."""
    if isinstance(raw, dict):
        return [
            (f"section.{key}", _char_from_label(key, f"section.{key}"), f"section.{key}", raw[key])
            for key in sorted(raw)
        ]
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict) or "char" not in row or "form" not in row:
            raise JobError(f"section[{i}]: expected an object with char and form")
        where = f"section[{i}].char"
        char = row["char"]
        char = sz._need_ints(char, where) if isinstance(char, list) else sz._need_int(char, where)
        rows.append((where, char, f"section[{i}].form", row["form"]))
    return rows


def _section_from_job(job) -> SectionData:
    cover = _cover_from_job(job)
    d = job["twist_degree"]
    comps = {}
    for where, label, form_where, form in _section_rows(job["section"]):
        try:
            rho = cover.group.as_char(label)
        except SpecCoverError as exc:
            raise JobError(f"{where}: {exc}") from exc
        if rho in comps:
            raise JobError(f"{where}: duplicate character {list(rho)}")
        comps[rho] = sz.form_from_json(form, form_where)
    try:
        return SectionData(cover, d, comps)
    except SpecCoverError as exc:
        raise JobError(f"section: {exc}") from exc


def _standard_rank(job) -> int:
    cover = _cover_from_job(job)
    if not is_standard_cyclic(cover):
        raise JobError("cover: this command needs the standard cyclic cover {\"r\": n}")
    return cover.degree


# ---------------------------------------------------------------------------
# command runners: each returns (results, warnings)


def _charts(chart: str):
    return (0, 1) if chart == "auto" else (int(chart),)


def _run_compute(job, chart):
    sec = _section_from_job(job)
    curve = spectral_curve(sec)
    results = {"curve": sz.curve_to_json(curve)}
    for c in _charts(chart):
        results[f"annihilating_chart{c}"] = (
            curve.annihilating.dehomogenize(c).str_in("w", "eta")
        )
    return results, []


def _run_discriminant(job, chart):
    sec = _section_from_job(job)
    curve = spectral_curve(sec)
    disc = eta_discriminant(curve.annihilating)
    results = {
        "discriminant": sz.form_to_json(disc),
        "eta_degree": curve.annihilating.degree,
    }
    ann = curve.annihilating
    if ann.degree == 3 and ann.is_monic():
        _, a, b = depressed_cubic_parts(ann)
        results["cubic_delta"] = sz.form_to_json(cubic_delta(a, b))
    return results, []


def _run_singular(job, chart):
    sec = _section_from_job(job)
    curve = spectral_curve(sec)
    points = singular_locus(curve)
    if chart != "auto":
        points = [p for p in points if p.chart == int(chart)]
    results = {
        "count": len(points),
        "points": [sz.singular_point_to_json(p) for p in points],
    }
    r = sec.cover.degree
    if chart == "auto" and r == 2 and is_standard_cyclic(sec.cover) and not sec.component(1).is_zero():
        branch = BinForm.s() * BinForm.t()
        predicted = double_cover_singularities(sec.component(0), sec.component(1), branch)
        if [p.locus_key() for p in predicted] != [p.locus_key() for p in points]:
            raise InternalCheckError("predicted singular set disagrees with the Jacobian search")
        results["double_cover_prediction"] = [sz.singular_point_to_json(p) for p in predicted]
    return results, []


def _run_factor(job, chart):
    sec = _section_from_job(job)
    curve = spectral_curve(sec)
    report = intermediate_factorization(sec, curve)
    verdict = birationality_verdict(report, curve)
    results = {
        "factorization": sz.factorization_to_json(report),
        "birationality": sz.birationality_to_json(verdict),
    }
    return results, []


def _run_genus(job, chart):
    r = _standard_rank(job)
    d = job["twist_degree"]
    try:
        genus = arithmetic_genus(r, d)
    except SpecCoverError as exc:
        raise JobError(f"twist_degree: {exc}") from exc
    return {"genus": genus, "rank": r, "twist": d}, []


def _run_pushforward(job, chart):
    r = _standard_rank(job)
    m = job["line_degree"]
    bundle = pushforward_line_bundle(r, m)
    relation = pushforward_relation_check(r, m)
    results = {
        "bundle": sz.bundle_to_json(bundle),
        "relation": sz.relation_to_json(relation),
    }
    return results, []


def _run_stability(job, chart):
    sec = _section_from_job(job)
    try:
        m_degrees = SplitBundle(job["m_degrees"])
    except SpecCoverError as exc:
        raise JobError(f"m_degrees: {exc}") from exc
    ample = job.get("ample_degree", 1)
    r = sec.cover.degree
    verdict, records, integrality = gieseker_verdict(m_degrees, sec, ample)
    graded = graded_degrees(m_degrees, r)
    results = {
        "verdict": sz.verdict_to_json(verdict),
        "total": sz.hilbert_to_json(hilbert_poly(SplitBundle(graded), ample)),
        "graded_degrees": list(graded),
        "records": [sz.record_to_json(rec) for rec in records],
        "search_complete": True,  # kept in the schema; the branches are read off, not searched for
        "integrality": sz.integrality_to_json(integrality),
    }
    warnings = []
    if r == 2 and is_standard_cyclic(sec.cover) and not sec.component(1).is_zero() and ample == 1:
        shortcut = double_cover_verdict(m_degrees, sec)
        if shortcut.status != verdict.status:
            raise InternalCheckError(
                f"summand shortcut says {shortcut.status} but the search says {verdict.status}"
            )
        results["double_cover_verdict"] = sz.verdict_to_json(shortcut)
    if not integrality.certified:
        warnings.append("integrality not certified: " + "; ".join(integrality.reasons))
    if verdict.status == "undetermined":
        warnings.append("verdict undetermined: " + "; ".join(verdict.notes))
    return results, warnings


_DISPATCH = {
    "compute": _run_compute,
    "discriminant": _run_discriminant,
    "singular": _run_singular,
    "factor": _run_factor,
    "genus": _run_genus,
    "pushforward": _run_pushforward,
    "stability": _run_stability,
}


def run_job(job, chart: str = "auto") -> dict:
    """Validate and execute one job, returning the full report document."""
    validate_job(job)
    started = time.perf_counter()
    results, warnings = _DISPATCH[job["command"]](job, chart)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "schema": SCHEMA_VERSION,
        "job": job,
        "results": results,
        "warnings": warnings,
        "provenance": {
            "generator": "speccover",
            "versions": {"speccover": __version__, "schema": SCHEMA_VERSION},
            "timing_ms": round(elapsed_ms, 3),
        },
    }


# ---------------------------------------------------------------------------
# output


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def pretty_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".speccover.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(doc, args) -> None:
    text = pretty_json(doc) if args.pretty else canonical_json(doc)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the repro corpus


def _form_json(degree: int, coeffs) -> dict:
    return {"degree": degree, "coeffs": [str(c) for c in coeffs]}


def repro_corpus() -> list:
    """The frozen job list behind the repro command (name, job) pairs."""
    conic = {
        "cover": {"r": 2},
        "twist_degree": 3,
        "section": {"1": _form_json(2, [1, -2, 3])},
    }
    gendouble = {
        "cover": {"r": 2},
        "twist_degree": 2,
        "section": {"0": _form_json(2, [1, 1, 1]), "1": _form_json(1, [-1, 1])},
    }
    triple = {
        "cover": {"r": 3},
        "twist_degree": 2,
        "section": {"1": _form_json(1, [1, 1]), "2": _form_json(1, [-1, 1])},
    }
    cyclic_triple = {
        "cover": {
            "cyclic_triple": {
                "a": _form_json(1, [2, 1]),
                "b": _form_json(1, [-1, 1]),
            }
        },
        "twist_degree": 2,
        "section": {"1": _form_json(1, [3, 1]), "2": _form_json(1, [1, 0])},
    }
    quartic = {
        "cover": {"r": 4},
        "twist_degree": 2,
        "section": {"2": _form_json(1, [5, 1])},
    }
    conic_stab = {
        "cover": {"r": 2},
        "twist_degree": 2,
        "section": {"1": _form_json(1, [1, 1])},
    }
    jobs = [
        ("conic-curve", dict(command="compute", **conic)),
        ("conic-discriminant", dict(command="discriminant", **conic)),
        ("conic-singular", dict(command="singular", **conic)),
        ("conic-genus", {"command": "genus", "cover": {"r": 2}, "twist_degree": 3}),
        ("gendouble-curve", dict(command="compute", **gendouble)),
        ("gendouble-singular", dict(command="singular", **gendouble)),
        ("triple-curve", dict(command="compute", **triple)),
        ("triple-discriminant", dict(command="discriminant", **triple)),
        ("triple-singular", dict(command="singular", **triple)),
        ("cyclictriple-curve", dict(command="compute", **cyclic_triple)),
        ("cyclictriple-discriminant", dict(command="discriminant", **cyclic_triple)),
        ("quartic-curve", dict(command="compute", **quartic)),
        ("quartic-factor", dict(command="factor", **quartic)),
        ("pushforward-3-4", {"command": "pushforward", "cover": {"r": 3}, "line_degree": 4}),
        ("stability-rank1", dict(command="stability", m_degrees=[5], **conic_stab)),
        ("stability-balanced", dict(command="stability", m_degrees=[2, 2], **conic_stab)),
        ("stability-split", dict(command="stability", m_degrees=[0, 1], **conic_stab)),
        ("stability-quartic", dict(command="stability", m_degrees=[0], **quartic)),
    ]
    return jobs


def _rand_form(rng, degree: int) -> BinForm:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        if any(coeffs):
            return BinForm(degree, coeffs)


def repro_spot_checks(seed: int) -> dict:
    """Seeded property samples; every value is True when the library is healthy.

    Booleans only, so the repro document stays byte-stable across seeds as
    long as the properties actually hold.
    """
    rng = random.Random(f"speccover-repro:{seed}")
    checks = {}

    ok = True
    for _ in range(5):
        d = rng.randint(1, 3)
        f = _rand_form(rng, d - 1)
        sec = SectionData(make_standard_cyclic(2), d, {1: f})
        char = spectral_curve(sec).char
        st_ff = BinForm.s() * BinForm.t() * f * f
        ok = ok and char.coeff(0) == -st_ff and char.coeff(1).is_zero()
    checks["conic_identity"] = ok

    ok = True
    for _ in range(4):
        r = rng.randint(2, 4)
        d = rng.randint(1, 2)
        support = rng.sample(range(1, r), rng.randint(1, r - 1))
        comps = {k: _rand_form(rng, d - 1) for k in support}
        sec = SectionData(make_standard_cyclic(r), d, comps)
        curve = spectral_curve(sec)
        g = intermediate_factorization(sec, curve).subcover_index
        power = curve.annihilating
        for _ in range(g - 1):
            power = power * curve.annihilating
        ok = ok and power == curve.char
    checks["power_identity"] = ok

    ok = True
    for _ in range(6):
        r = rng.randint(1, 5)
        m = rng.randint(-6, 6)
        ok = ok and bool(pushforward_relation_check(r, m))
    checks["pushforward_relation"] = ok

    ok = True
    for _ in range(4):
        rank = rng.randint(1, 3)
        degrees = [rng.randint(-3, 3) for _ in range(rank)]
        d = rng.randint(1, 2)
        comps = {1: _rand_form(rng, d - 1)}
        if rng.random() < 0.5:
            comps[0] = _rand_form(rng, d)
        sec = SectionData(make_standard_cyclic(2), d, comps)
        direct, _, _ = gieseker_verdict(SplitBundle(degrees), sec)
        shortcut = double_cover_verdict(SplitBundle(degrees), sec)
        ok = ok and direct.status == shortcut.status
    checks["verdict_agreement"] = ok

    return checks


def build_repro_doc(seed: int = 0) -> dict:
    jobs = {}
    for name, job in repro_corpus():
        doc = run_job(job, chart="auto")
        del doc["provenance"]
        jobs[name] = doc
    return {
        "schema": SCHEMA_VERSION,
        "jobs": jobs,
        "spot_checks": repro_spot_checks(seed),
        "provenance": {
            "generator": "speccover",
            "versions": {"speccover": __version__, "schema": SCHEMA_VERSION},
        },
    }


def _first_difference(current: dict, golden: dict) -> str:
    for name in sorted(set(current.get("jobs", {})) | set(golden.get("jobs", {}))):
        a = current.get("jobs", {}).get(name)
        b = golden.get("jobs", {}).get(name)
        if a != b:
            return f"job {name!r} differs from the golden corpus"
    if current.get("spot_checks") != golden.get("spot_checks"):
        failed = [k for k, v in current.get("spot_checks", {}).items() if v is not True]
        if failed:
            return "spot checks failed: " + ", ".join(sorted(failed))
        return "spot checks differ from the golden corpus"
    return "documents differ outside jobs and spot checks"


def _cmd_repro(args) -> int:
    doc = build_repro_doc(args.seed)
    if args.update_golden:
        _atomic_write(GOLDEN_PATH, canonical_json(doc))
        print(f"repro: wrote golden corpus ({len(doc['jobs'])} jobs)", file=sys.stderr)
        return 0
    _emit(doc, args)
    failed = [k for k, v in doc["spot_checks"].items() if v is not True]
    if failed:
        print("repro: spot checks failed: " + ", ".join(sorted(failed)), file=sys.stderr)
        return 1
    if not os.path.exists(GOLDEN_PATH):
        print("repro: golden corpus file is missing; regenerate with --update-golden", file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden_text = fh.read()
    if canonical_json(doc) != golden_text:
        try:
            golden = json.loads(golden_text)
            detail = _first_difference(doc, golden)
        except ValueError:
            detail = "golden corpus file is not valid JSON"
        print(f"repro: MISMATCH: {detail}", file=sys.stderr)
        return 1
    print(f"repro: {len(doc['jobs'])} jobs and {len(doc['spot_checks'])} spot checks match the golden corpus", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccover",
        description="Exact spectral curves, singular loci, and stability verdicts for pushed-forward sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write the report here (atomically) instead of stdout")
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    with_input = argparse.ArgumentParser(add_help=False, parents=[common])
    with_input.add_argument("--input", metavar="PATH", help="JSON job file (default: stdin)")
    # only compute and singular report anything chart by chart
    with_chart = argparse.ArgumentParser(add_help=False, parents=[with_input])
    with_chart.add_argument(
        "--chart",
        choices=("auto", "0", "1"),
        default="auto",
        help="affine chart for chart-level output (auto = both)",
    )

    helps = {
        "compute": "characteristic and annihilating polynomials of the curve",
        "discriminant": "eta-discriminant of the annihilating polynomial",
        "singular": "certified singular points of the reduced curve",
        "factor": "intermediate factorization and birationality verdict",
        "genus": "arithmetic genus of an integral spectral curve",
        "pushforward": "summand degrees of a pushed-forward line bundle",
        "stability": "subsheaf search and stability verdict for the induced pair",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[with_chart if name in ("compute", "singular") else with_input], help=text)
    repro = sub.add_parser(
        "repro",
        parents=[common],
        help="recompute the frozen corpus and compare with the golden reports",
    )
    repro.add_argument("--seed", type=int, default=0, help="seed for the sampled spot checks")
    repro.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the packaged golden corpus instead of comparing (maintainers only)",
    )
    return parser


def _load_job(args) -> dict:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise JobError(f"cannot read job file: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        job = json.loads(text)
    except ValueError as exc:
        raise JobError(f"job file is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise JobError("job file must contain a JSON object")
    command = job.get("command")
    if command is not None and command != args.command:
        raise JobError(
            f'$.command: job says "{command}" but the "{args.command}" subcommand was invoked'
        )
    job["command"] = args.command
    return job


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "repro":
            return _cmd_repro(args)
        job = _load_job(args)
        doc = run_job(job, chart=getattr(args, "chart", "auto"))
        _emit(doc, args)
        return 0
    except _INPUT_ERRORS as exc:
        print(f"speccover: input error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"speccover: internal error: cross-check failed: {exc}", file=sys.stderr)
        return 3
    except SpecCoverError as exc:
        print(f"speccover: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-ditch diagnostic
        print(f"speccover: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
