"""Tests for the JSON codecs and the command-line driver."""

import ast
import importlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import bf, rand_binform, rng_for
from speccover import cli
from speccover import serialize as sz
from speccover.covers import make_cyclic_triple, make_double_cover, make_standard_cyclic
from speccover.errors import InternalCheckError, JobError
from speccover.exactalg import BinForm

F = Fraction


def run_cli(args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return cli.main(args)


def conic_job(**extra):
    job = {
        "command": "compute",
        "cover": {"r": 2},
        "twist_degree": 3,
        "section": {"1": {"degree": 2, "coeffs": [1, -2, 3]}},
    }
    job.update(extra)
    return job


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


# ---------------------------------------------------------------------------
# rational and form codecs


def test_rational_encoding():
    assert sz.rat_to_json(F(3, 4)) == "3/4"
    assert sz.rat_to_json(F(-5)) == "-5"
    assert sz.rat_to_json(7) == "7"
    assert sz.rat_from_json("3/4") == F(3, 4)
    assert sz.rat_from_json("-12") == F(-12)
    assert sz.rat_from_json(9) == F(9)
    # strings in lowest terms or not parse as Fraction(str) does
    for text in ("6/8", "-0", "007/14", "-10/5", "123456789012345678901234567890/7"):
        assert sz.rat_from_json(text) == F(text)
        assert sz.rat_to_json(sz.rat_from_json(text)) == str(F(text))


@pytest.mark.parametrize("bad", ["3/0", "1/-2", "a", "1.5", "", None, True, [1], "3\n", "3/4\n"])
def test_rational_rejects_junk(bad):
    with pytest.raises(JobError):
        sz.rat_from_json(bad)


def test_form_coeffs_are_ascending_in_s():
    s = BinForm.s()
    assert sz.form_to_json(s)["coeffs"] == ["0", "1"]
    t = BinForm.t()
    assert sz.form_to_json(t)["coeffs"] == ["1", "0"]


def test_form_shape_errors_name_the_field():
    with pytest.raises(JobError, match=r"section\.1\.coeffs"):
        sz.form_from_json({"degree": 2, "coeffs": [1, 2]}, "section.1")
    with pytest.raises(JobError, match=r"f\.degree"):
        sz.form_from_json({"degree": -1, "coeffs": []}, "f")
    with pytest.raises(JobError, match=r"f\.coeffs\[1\]"):
        sz.form_from_json({"degree": 1, "coeffs": [1, "x"]}, "f")


# ---------------------------------------------------------------------------
# round trips: parse(serialize(x)) == x


def test_roundtrip_scalar_types():
    rng = rng_for("cli-roundtrip-scalars")
    for _ in range(50):
        q = F(rng.randint(-99, 99), rng.randint(1, 40))
        assert sz.rat_from_json(sz.rat_to_json(q)) == q
        d = rng.randint(0, 4)
        f = rand_binform(rng, d)
        assert sz.form_from_json(sz.form_to_json(f)) == f


def test_roundtrip_covers():
    for r in (1, 2, 3, 5):
        alg = make_standard_cyclic(r)
        assert sz.cover_to_json(alg) == {"r": r}
        assert sz.cover_from_json({"r": r}) == alg
    triple = make_cyclic_triple(bf(1, [1, 2]), bf(1, [-1, 1]))
    assert sz.cover_from_json(sz.cover_to_json(triple)) == triple
    double = make_double_cover(bf(4, [1, 0, 2, 0, 1]))
    assert sz.cover_from_json(sz.cover_to_json(double)) == double
    assert sz.cover_from_json(
        {"double": {"branch": {"degree": 2, "coeffs": [1, 0, 1]}}}
    ) == make_double_cover(bf(2, [1, 0, 1]))


# ---------------------------------------------------------------------------
# job validation


def test_schema_rejects_unknown_fields():
    with pytest.raises(JobError, match=r"\$"):
        cli.validate_job(conic_job(bogus=1))


def test_schema_pointer_names_bad_field():
    # one bad value per top-level rule; integer fields refuse JSON floats
    stability = {"command": "stability", "cover": {"r": 2}, "twist_degree": 1, "section": {}}
    cases = [
        ([1], r"^\$: expected an object"),
        (conic_job(schema="2"), r"^\$\.schema:"),
        (conic_job(schema=1), r"^\$\.schema:"),
        (conic_job(command="bogus"), r"^\$\.command:"),
        (conic_job(command=["compute"]), r"^\$\.command:"),
        ({"cover": {"r": 2}}, r"^\$\.command:"),
        (conic_job(label=7), r"^\$\.label:"),
        (conic_job(cover=[2]), r"^\$\.cover:"),
        (conic_job(twist_degree=-1), r"^\$\.twist_degree: -1 is less than the minimum of 0$"),
        (conic_job(twist_degree=4.0), r"^\$\.twist_degree:"),
        (conic_job(twist_degree="3"), r"^\$\.twist_degree:"),
        (conic_job(twist_degree=True), r"^\$\.twist_degree:"),
        (conic_job(section="1"), r"^\$\.section:"),
        (dict(stability, m_degrees=[]), r"^\$\.m_degrees:"),
        (dict(stability, m_degrees=2), r"^\$\.m_degrees:"),
        (dict(stability, m_degrees=[0.0, 1]), r"^\$\.m_degrees\[0\]:"),
        (dict(stability, m_degrees=[0, 1], ample_degree=0), r"^\$\.ample_degree: 0 is less than the minimum of 1$"),
        (dict(stability, m_degrees=[0, 1], ample_degree=1.0), r"^\$\.ample_degree:"),
        ({"command": "pushforward", "cover": {"r": 3}, "line_degree": 2.0}, r"^\$\.line_degree:"),
    ]
    for job, field in cases:
        with pytest.raises(JobError, match=field):
            cli.validate_job(job)


def test_missing_required_field_is_named():
    job = conic_job()
    del job["section"]
    with pytest.raises(JobError, match=r"\$\.section.*compute"):
        cli.validate_job(job)


def test_section_array_form_accepted():
    job = conic_job(
        section=[{"char": [1], "form": {"degree": 2, "coeffs": [1, -2, 3]}}]
    )
    doc = cli.run_job(job)
    want = cli.run_job(conic_job())
    assert doc["results"] == want["results"]


def test_duplicate_component_rejected():
    form_a = {"degree": 2, "coeffs": [1, 0, 0]}
    form_b = {"degree": 2, "coeffs": [0, 1, 0]}
    cases = [
        ({"r": 2}, [{"char": [1], "form": form_a}, {"char": [1], "form": form_b}], r"section\[1\]\.char"),
        # 4 = 1 mod 3: both labels name the same character
        ({"r": 3}, {"1": form_a, "4": form_b}, r"section\.4"),
    ]
    for cover, section, field in cases:
        with pytest.raises(JobError, match=field + ": duplicate"):
            cli.run_job(conic_job(cover=cover, section=section))


def test_component_degree_mismatch_is_input_error():
    job = conic_job(section={"1": {"degree": 1, "coeffs": [1, 1]}})
    with pytest.raises(JobError, match="section"):
        cli.run_job(job)


def test_bad_character_label():
    form = {"degree": 2, "coeffs": [1, 0, 0]}
    cases = [
        ({"x": form}, r"section\.x"),
        ([{"char": "x", "form": form}], r"section\[0\]\.char"),
        ([{"char": None, "form": form}], r"section\[0\]\.char"),
        ([{"char": [1, 1], "form": form}], r"section\[0\]\.char"),
    ]
    for section, field in cases:
        with pytest.raises(JobError, match=field):
            cli.run_job(conic_job(section=section))


# ---------------------------------------------------------------------------
# the driver: exit codes and output handling


def test_compute_happy_path(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    assert cli.main(["compute", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "1"
    assert doc["job"]["command"] == "compute"
    assert doc["results"]["curve"]["char"]["rank"] == 2
    assert doc["provenance"]["versions"]["speccover"]
    assert "timing_ms" in doc["provenance"]


def test_reports_are_deterministic_modulo_timing(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    docs = []
    for _ in range(2):
        assert cli.main(["compute", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["provenance"]["timing_ms"]
        docs.append(cli.canonical_json(doc))
    assert docs[0] == docs[1]


def test_output_file_and_pretty(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    out = tmp_path / "report.json"
    assert cli.main(["compute", "--input", path, "--output", str(out), "--pretty"]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["results"]["annihilating_chart0"].startswith("eta^2")


def test_stdin_input(monkeypatch, capsys):
    code = run_cli(["compute"], json.dumps(conic_job()), monkeypatch)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "1"


def test_chart_flag_limits_output(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    assert cli.main(["compute", "--input", path, "--chart", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "annihilating_chart1" in doc["results"]
    assert "annihilating_chart0" not in doc["results"]


def test_flags_belong_to_the_commands_that_read_them(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--input", path, "--seed", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", "--chart", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["discriminant", "--input", path, "--chart", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["compute", "--input", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert cli.main(["compute", "--input", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_section_exits_two_without_output(tmp_path, capsys):
    job = conic_job(section={"1": {"degree": 2, "coeffs": [1, -2]}})
    path = write_job(tmp_path, job)
    out = tmp_path / "report.json"
    assert cli.main(["compute", "--input", path, "--output", str(out)]) == 2
    assert not out.exists()
    assert "section.1" in capsys.readouterr().err


def test_long_m_degrees_refused_before_the_search(tmp_path, capsys, monkeypatch):
    # the search is never reached: 2^13 - 2 block subsets would be listed
    def no_search(*args):
        raise AssertionError("the stability search ran")

    monkeypatch.setattr(cli, "gieseker_verdict", no_search)
    job = {"command": "stability", "cover": {"r": 2}, "twist_degree": 2,
           "section": {"1": {"degree": 1, "coeffs": [1, 1]}}}
    out = tmp_path / "report.json"
    too_long = dict(job, m_degrees=[0] * (cli.MAX_M_DEGREES + 1))
    assert cli.main(["stability", "--input", write_job(tmp_path, too_long), "--output", str(out)]) == 2
    assert not out.exists()
    assert "$.m_degrees: 13 summands, more than the maximum of 12" in capsys.readouterr().err
    cli.validate_job(dict(job, m_degrees=[0] * cli.MAX_M_DEGREES))


def test_explicit_cover_entries_are_checked(tmp_path, capsys):
    twists = [{"char": [1], "degree": 1}, {"char": [2], "degree": 1}]
    form = {"chars": [[1], [2]], "form": {"degree": 2, "coeffs": [1, 0, 0]}}
    cases = [
        (twists, [dict(form, chars=[1, 2])], "cover.forms[0].chars[0]: expected an array"),
        (twists, [dict(form, chars=[[1], ["x"]])], "cover.forms[0].chars[1][0]: expected an integer"),
        ([dict(twists[0], char=["a"]), twists[1]], [form], "cover.twists[0].char[0]: expected an integer"),
        ([dict(twists[0], char=1), twists[1]], [form], "cover.twists[0].char: expected an array"),
    ]
    for twist_rows, form_rows, message in cases:
        cover = {"group": [3], "twists": twist_rows, "forms": form_rows}
        job = {"command": "genus", "cover": cover, "twist_degree": 1}
        assert cli.main(["genus", "--input", write_job(tmp_path, job)]) == 2
        assert message in capsys.readouterr().err


def test_command_mismatch_exits_two(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    assert cli.main(["discriminant", "--input", path]) == 2
    assert "compute" in capsys.readouterr().err


def test_zero_section_singular_exits_two(tmp_path, capsys):
    job = {"command": "singular", "cover": {"r": 2}, "twist_degree": 2, "section": {}}
    path = write_job(tmp_path, job)
    assert cli.main(["singular", "--input", path]) == 2
    assert "input error" in capsys.readouterr().err


def test_factor_needs_standard_cover(tmp_path, capsys):
    job = {
        "command": "factor",
        "cover": {"cyclic_triple": {"a": {"degree": 1, "coeffs": [2, 1]},
                                     "b": {"degree": 1, "coeffs": [-1, 1]}}},
        "twist_degree": 2,
        "section": {"1": {"degree": 1, "coeffs": [3, 1]},
                    "2": {"degree": 1, "coeffs": [1, 0]}},
    }
    path = write_job(tmp_path, job)
    assert cli.main(["factor", "--input", path]) == 2


def test_unrepresentable_singular_point_exits_two(tmp_path, capsys):
    # a valid job whose singular eta values over one base point generate a
    # field extension, which the report format cannot carry
    job = {
        "schema": "1",
        "cover": {"r": 4},
        "twist_degree": 1,
        "section": {
            "0": {"degree": 1, "coeffs": ["1", "1"]},
            "1": {"degree": 0, "coeffs": ["-2"]},
            "3": {"degree": 0, "coeffs": ["-1"]},
        },
    }
    out = tmp_path / "report.json"
    path = write_job(tmp_path, job)
    assert cli.main(["singular", "--input", path, "--output", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def explode(job, chart):
        raise InternalCheckError("simulated cross-check failure")

    monkeypatch.setitem(cli._DISPATCH, "compute", explode)
    path = write_job(tmp_path, conic_job())
    assert cli.main(["compute", "--input", path]) == 3
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command results


def test_genus_command(tmp_path, capsys):
    job = {"command": "genus", "cover": {"r": 3}, "twist_degree": 4}
    path = write_job(tmp_path, job)
    assert cli.main(["genus", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["genus"] == 10


def test_pushforward_command(tmp_path, capsys):
    job = {"command": "pushforward", "cover": {"r": 4}, "line_degree": -3}
    path = write_job(tmp_path, job)
    assert cli.main(["pushforward", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["bundle"]["degrees"] == [-1, -1, -2, -2]
    assert doc["results"]["relation"]["ok"] is True


def test_stability_command_includes_shortcut_and_warnings(tmp_path, capsys):
    job = {
        "command": "stability",
        "cover": {"r": 2},
        "twist_degree": 2,
        "section": {"1": {"degree": 1, "coeffs": [1, 1]}},
        "m_degrees": [0, 1],
    }
    path = write_job(tmp_path, job)
    assert cli.main(["stability", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"]["status"] == "unstable"
    assert doc["results"]["double_cover_verdict"]["status"] == "unstable"
    assert doc["results"]["integrality"]["certified"] is True
    assert doc["warnings"] == []


def test_stability_warns_when_not_certified(tmp_path, capsys):
    job = {
        "command": "stability",
        "cover": {"r": 4},
        "twist_degree": 2,
        "section": {"2": {"degree": 1, "coeffs": [5, 1]}},
        "m_degrees": [0],
    }
    path = write_job(tmp_path, job)
    assert cli.main(["stability", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"]["status"] == "undetermined"
    assert any("integrality not certified" in w for w in doc["warnings"])


DOUBLE_COVER_SINGULAR_JOB = {
    "command": "singular",
    "cover": {"r": 2},
    "twist_degree": 2,
    "section": {"0": {"degree": 2, "coeffs": [1, 1, 1]},
                "1": {"degree": 1, "coeffs": [-1, 1]}},
}


def test_singular_reports_prediction_for_double_cover(tmp_path, capsys):
    path = write_job(tmp_path, DOUBLE_COVER_SINGULAR_JOB)
    assert cli.main(["singular", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    points = doc["results"]["points"]
    predicted = doc["results"]["double_cover_prediction"]
    assert doc["results"]["count"] == 1
    locate = lambda p: (p["chart"], p["point"]["coords"], p["eta"])
    assert [locate(p) for p in points] == [locate(p) for p in predicted]
    assert points[0]["point"]["coords"] == [1, 1]
    assert points[0]["eta"] == "3"
    assert predicted[0]["certificate"] == "prop-gen-double"


# ---------------------------------------------------------------------------
# work per job


def curve_jobs():
    """One r = 3 job for each command that builds a spectral curve."""
    base = {
        "cover": {"r": 3},
        "twist_degree": 2,
        "section": {"1": {"degree": 1, "coeffs": [1, 1]}, "2": {"degree": 1, "coeffs": [-1, 1]}},
    }
    for command in ("compute", "discriminant", "singular", "factor"):
        yield dict(base, command=command)
    yield dict(base, command="stability", m_degrees=[0, 1])


def test_each_curve_job_computes_two_characteristic_polynomials(monkeypatch):
    # one per chart: every command builds its spectral curve once and passes
    # the characteristic data down instead of recomputing it; the r = 2
    # singular job checks its closed-form prediction against that same curve
    from speccover import exactalg, spectral

    original = exactalg.char_poly_matrix
    calls = []

    def counted(a):
        calls.append(a.n)
        return original(a)

    monkeypatch.setattr(exactalg, "char_poly_matrix", counted)
    monkeypatch.setattr(spectral, "char_poly_matrix", counted)
    for job in curve_jobs():
        calls.clear()
        cli.run_job(job)
        assert calls == [3, 3], job["command"]
    calls.clear()
    assert "double_cover_prediction" in cli.run_job(DOUBLE_COVER_SINGULAR_JOB)["results"]
    assert calls == [2, 2]


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Replace module.name in every speccover module that bound it; returns
    the original."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("speccover") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)
    return original


def _count_everywhere(monkeypatch, module, name, record):
    """Wrap module.name in every speccover module that bound it; each call
    appends record(args, result) to the returned list."""
    calls = []

    def counted(*args):
        out = original(*args)
        calls.append(record(args, out))
        return out

    original = _patch_everywhere(monkeypatch, module, name, counted)
    return calls


def test_each_curve_job_takes_one_squarefree_part(monkeypatch):
    # the squarefree part is taken once, on chart 0; chart 1 only checks it
    from speccover import exactalg

    calls = _count_everywhere(monkeypatch, exactalg, "min_poly_matrix", lambda args, out: args[1].degree())
    for job in curve_jobs():
        calls.clear()
        cli.run_job(job)
        assert calls == [3], job["command"]


def test_each_curve_job_finds_one_witness_base(monkeypatch):
    # the squarefree part walks the base values 0, 1, -1, ... once, up to the
    # witness base it keeps on the curve; the birationality verdict reads it
    # off the curve instead of walking again
    from speccover import exactalg

    fibres = _count_everywhere(monkeypatch, exactalg, "_fibre_exponent", lambda args, out: args[0])
    found = _count_everywhere(monkeypatch, exactalg, "min_poly_matrix", lambda args, out: out[1])
    walk = [Fraction((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(20)]
    for job in curve_jobs():
        fibres.clear()
        found.clear()
        doc = cli.run_job(job)
        assert len(found) == 1, job["command"]
        assert len(fibres) == walk.index(found[0]) + 1, job["command"]
        if job["command"] == "factor":
            assert doc["results"]["birationality"]["witness_base"] == str(found[0])


def test_each_curve_builds_each_chart_matrix_once(monkeypatch):
    # spectral_curve builds the chart-0 and chart-1 matrices once, each
    # straight from integer coefficient lists, and hands them to the
    # characteristic polynomials, the reduced part and both annihilation
    # checks, which pack each of them exactly once, at one point; the
    # stability search builds and packs none, not even for the eigenvalue
    # branch of a pullback, where it reads the eigen line off the section
    from speccover import covers, exactalg

    built = _count_everywhere(monkeypatch, covers, "mult_matrix", lambda args, out: out)
    from_ints, pack = exactalg.PolyMatrix.from_ints, exactalg.PolyMatrix._pack_matrix
    scaled, packs = [], []

    def counted_from_ints(ints, den=1):
        scaled.append(from_ints(ints, den))
        return scaled[-1]

    def counted_pack(mat, bits):
        packs.append(mat)
        return pack(mat, bits)

    monkeypatch.setattr(exactalg.PolyMatrix, "from_ints", staticmethod(counted_from_ints))
    monkeypatch.setattr(exactalg.PolyMatrix, "_pack_matrix", counted_pack)
    jobs = list(curve_jobs())
    stability = jobs[-1]
    proper = dict(stability, cover={"r": 4}, section={"2": {"degree": 1, "coeffs": [1, 2]}})
    pullback = dict(stability, section={"0": {"degree": 2, "coeffs": [1, -2, 3]}})
    for job, want in [(job, 2) for job in jobs] + [(proper, 2), (pullback, 2)]:
        built.clear()
        scaled.clear()
        packs.clear()
        cli.run_job(job)
        assert len(built) == want, job["command"]
        assert [id(mat) for mat in scaled] == [id(mat) for mat in built], job["command"]
        assert sorted(map(id, packs)) == sorted(map(id, built[:2])), job["command"]


def _one_job_per_command() -> dict:
    """A job for every command; the singular one takes gcds over residue
    fields of degree > 1."""
    jobs = {job["command"]: job for job in curve_jobs()}
    jobs["genus"] = {"command": "genus", "cover": {"r": 3}, "twist_degree": 2}
    jobs["pushforward"] = {"command": "pushforward", "cover": {"r": 3}, "line_degree": 4}
    assert set(jobs) == set(cli._DISPATCH)
    return jobs


def test_tracer_only_functions_have_no_production_caller(monkeypatch):
    # the benchmark's tracer wraps these by name, but no command calls them:
    # every command, the repro corpus, a pullback stability job with an
    # eigen record and a singular job over residue fields run without them
    from speccover import exactalg, spectral, stability

    def refuse(*args):
        raise AssertionError("a production path called a tracer-only function")

    for module, name in [(stability, "kernel_basis"), (exactalg, "eta_gcd"), (spectral, "annihilating_poly")]:
        _patch_everywhere(monkeypatch, module, name, refuse)
    monkeypatch.setattr(exactalg.ExtElem, "inv", refuse)
    moduli = _count_everywhere(monkeypatch, exactalg, "kpoly_gcd", lambda args, out: args[2])
    assert cli.build_repro_doc()["jobs"]
    moduli.clear()
    jobs = _one_job_per_command()
    pullback = dict(jobs["stability"], section={"0": {"degree": 2, "coeffs": [1, -2, 3]}})
    for job in jobs.values():
        cli.run_job(job)
    # only the singular job takes residue-field gcds
    assert moduli and all(p.degree() > 1 for p in moduli)
    records = cli.run_job(pullback)["results"]["records"]
    assert [rec["kind"] for rec in records] == ["block", "block", "eigen"]


def test_every_other_traced_function_has_a_production_caller(monkeypatch, tmp_path):
    # the benchmark's tracer wraps perfbench/layers.py's TRACED names from
    # outside, so a layer reads nonzero only while a command calls its name;
    # with the tracer-only functions above, this fixes which layers can, and
    # a stage routed around its traced name fails here
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    calls = {}
    for name, (module, attr) in layers.TRACED.items():
        module = importlib.import_module(f"speccover.{module}")
        calls[name] = _count_everywhere(monkeypatch, module, attr, lambda args, out: None)
    out = str(tmp_path / "out.json")
    assert cli.main(["repro", "--output", out]) == 0
    for command, job in _one_job_per_command().items():
        assert cli.main([command, "--input", write_job(tmp_path, job), "--output", out]) == 0, command
    tracer_only = {"stability.kernel_basis", "exactalg.eta_gcd", "spectral.annihilating_poly"}
    assert {name for name, seen in calls.items() if seen} == set(layers.TRACED) - tracer_only


def test_stability_job_factors_nothing(monkeypatch):
    # the polynomial branches and the integrality certificate are read off
    # the curve's eta-degree and support gcd, so no fibre is factored
    from speccover import exactalg

    calls = _count_everywhere(monkeypatch, exactalg, "factor_rational", lambda args, out: args[0])
    stability = [job for job in curve_jobs() if job["command"] == "stability"]
    base = dict(stability[0], m_degrees=[0, 1])
    pullback = dict(base, section={"0": {"degree": 2, "coeffs": [1, -2, 3]}})
    proper = dict(base, cover={"r": 4}, section={"2": {"degree": 1, "coeffs": [1, 2]}})
    for job in stability + [pullback, proper]:
        calls.clear()
        results = cli.run_job(job)["results"]
        assert calls == [], job["section"]
        assert results["integrality"]["certified"] == (job is stability[0])


@pytest.mark.parametrize("r", [16, 32, 48])
def test_dense_compute_job_within_budget(r):
    # every character carries a component, so char is squarefree and is its
    # own reduced part; the budget bounds the squarefree part and the
    # annihilation checks at ranks the benchmark grid does not reach
    section = {"0": {"degree": 1, "coeffs": [1, 2]}}
    section.update({str(k): {"degree": 0, "coeffs": [k]} for k in range(1, r)})
    job = {"command": "compute", "cover": {"r": r}, "twist_degree": 1, "section": section}
    started = time.monotonic()
    doc = cli.run_job(job)
    assert time.monotonic() - started < 5
    assert len(doc["results"]["curve"]["annihilating"]["coeffs"]) == r + 1


def test_residue_field_gcd_never_inverts(monkeypatch):
    # kpoly_gcd works modulo primes and certifies by exact division over Z,
    # so no residue-field element is inverted; both fibres of the job have a
    # linear gcd(f, f_eta), so each takes one gcd
    from speccover import exactalg, spectral

    original_gcd, original_inv = exactalg.kpoly_gcd, exactalg.ExtElem.inv
    inversions, per_gcd = [], []

    def counted_inv(self):
        inversions.append(1)
        return original_inv(self)

    def counted_gcd(a, b, p):
        inversions.clear()
        out = original_gcd(a, b, p)
        per_gcd.append(len(inversions))
        return out

    monkeypatch.setattr(exactalg.ExtElem, "inv", counted_inv)
    monkeypatch.setattr(spectral, "kpoly_gcd", counted_gcd)
    job = next(job for job in curve_jobs() if job["command"] == "singular")
    assert cli.run_job(job)["results"]["count"] == 2
    assert len(per_gcd) == 2
    assert per_gcd == [0] * len(per_gcd)


def test_full_support_singular_job_within_budget():
    # the singular point lies over a residue field of degree 36, where the
    # eta-gcd has 787-bit coefficients; the budget bounds the modular gcd
    coeffs = {0: [-2, 2, -3], 1: [-1, -3], 2: [1, 1], 3: [1, 3], 4: [1, -2], 5: [-3, 1], 6: [-3, 1]}
    section = {str(k): {"degree": len(c) - 1, "coeffs": c} for k, c in coeffs.items()}
    job = {"command": "singular", "cover": {"r": 7}, "twist_degree": 2, "section": section}
    started = time.monotonic()
    doc = cli.run_job(job)
    assert time.monotonic() - started < 5
    assert doc["results"]["count"] == 1


def test_benchmark_traced_functions_exist():
    # perfbench/layers.py wraps these by name, and ExtElem.inv on the class;
    # a rename would crash --trace 1
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert len(layers.TRACED) == 22
    for name, (module, attr) in layers.TRACED.items():
        assert callable(getattr(importlib.import_module(f"speccover.{module}"), attr, None)), name
    assert layers.INV == "exactalg.ExtElem.inv"
    assert callable(getattr(importlib.import_module("speccover.exactalg").ExtElem, "inv", None))


def test_third_party_imports_match_declared_dependencies():
    root = pathlib.Path(__file__).resolve().parents[1]
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in declared}
    imported = set()
    for path in (root / "src" / "speccover").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared == {"sympy"}


def test_cli_import_still_loads_sympy():
    # perfbench/run.py:_import_times_ms takes the median of the sympy rows
    # of -X importtime, and has none to take once speccover.cli stops
    # importing sympy; delete this guard with the change that mends it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import speccover.cli"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row.split("|") for row in proc.stderr.splitlines()]
    assert any(len(row) == 3 and row[2].strip() == "sympy" for row in rows)


def test_cli_import_does_not_load_jsonschema():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, speccover.cli; print('jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# repro


def test_repro_matches_golden(capsys):
    assert cli.main(["repro"]) == 0
    captured = capsys.readouterr()
    assert "match the golden corpus" in captured.err
    doc = json.loads(captured.out)
    assert set(doc["spot_checks"].values()) == {True}
    assert len(doc["jobs"]) == 18


def test_repro_doc_is_seed_independent():
    a = cli.canonical_json(cli.build_repro_doc(0))
    b = cli.canonical_json(cli.build_repro_doc(998877))
    assert a == b


def test_repro_detects_tampering(tmp_path, capsys, monkeypatch):
    golden = json.loads(open(cli.GOLDEN_PATH).read())
    golden["jobs"]["conic-genus"]["results"]["genus"] = 99
    fake = tmp_path / "golden.json"
    fake.write_text(cli.canonical_json(golden))
    monkeypatch.setattr(cli, "GOLDEN_PATH", str(fake))
    assert cli.main(["repro"]) == 1
    assert "conic-genus" in capsys.readouterr().err


def test_repro_missing_golden_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "GOLDEN_PATH", str(tmp_path / "absent.json"))
    assert cli.main(["repro"]) == 1
    assert "missing" in capsys.readouterr().err


def test_console_script_runs_repro():
    proc = subprocess.run(
        [sys.executable, "-m", "speccover.cli", "repro"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "match the golden corpus" in proc.stderr


# ---------------------------------------------------------------------------
# output text conventions


def test_all_output_rationals_are_strings(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    assert cli.main(["compute", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "coeffs":
                    for c in v:
                        if isinstance(c, (dict, list)):
                            walk(c)
                        else:
                            assert isinstance(c, str), node
                else:
                    walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc["results"])


def test_human_readable_polynomials_use_the_documented_variables(tmp_path, capsys):
    path = write_job(tmp_path, conic_job())
    assert cli.main(["compute", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    printed = doc["results"]["curve"]["char"]["printed"]
    assert "eta" in printed and "s" in printed and "t" in printed
