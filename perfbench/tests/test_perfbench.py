"""Tests of the benchmark itself: job generation, the independent checks
(each must fail on a corrupted report), the stored singular references and
the traced worker."""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

import checks
import jobs
import refs
from conftest import BENCH, ROOT

from speccover.cli import canonical_json, run_job


def _report(job):
    return json.loads(canonical_json(run_job(copy.deepcopy(job))))


def _slot_job(command, r, d, support=(), cover="r", m_degrees=(), tag="test"):
    slot = jobs.Slot(command, r, d, support, cover, m_degrees)
    job = None
    for salt in range(20):  # one swapped job per call site where possible
        comps, swapped = jobs.move(jobs.base_section(slot, tag), slot, random.Random(f"{tag}:{salt}"))
        job = jobs.build_job(slot, tag, comps, swapped)
        if swapped:
            break
    return job


def _bump(coeffs, i=0):
    coeffs[i] = str(Fraction(coeffs[i]) + 1)


def _singular_case(seed, index):
    """The singular-fields case declared at ``index`` in refs.SLOTS."""
    label = f"singular-fields-{index}"
    return next((job, ref) for job, ref in jobs.make_cases("singular-fields", seed) if job["label"] == label)


def _fails(job, report, ref=None):
    return bool(checks.check_report(job, report, ref))


# ---------------------------------------------------------------------------
# job generation


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)
    assert jobs.make_jobs(workload, 7) != jobs.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_keeps_the_shape_of_every_job(workload):
    def shape(job):
        # the chart swap sends class k to r - k on the standard cover
        r = job["cover"].get("r", 1)
        support = sorted(min(int(k), (r - int(k)) % r) for k in job.get("section", {}))
        return (job["command"], sorted(job["cover"]), job["cover"].get("r"),
                job.get("twist_degree") if job["command"] != "genus" else None, support, job.get("m_degrees"))

    assert [shape(j) for j in jobs.make_jobs(workload, 1)] == [shape(j) for j in jobs.make_jobs(workload, 2)]


# ---------------------------------------------------------------------------
# checks pass on real reports and fail on corrupted ones


def test_compute_checks():
    for job in (_slot_job("compute", 3, 2), _slot_job("compute", 2, 5, (), "double"),
                _slot_job("compute", 3, 4, (), "cyclic_triple"), _slot_job("compute", 4, 2, (0, 2))):
        report = _report(job)
        assert checks.check_report(job, report) == []
        bad = copy.deepcopy(report)
        _bump(bad["results"]["curve"]["char"]["elementary"][0]["coeffs"])
        assert _fails(job, bad)
        bad = copy.deepcopy(report)
        _bump(bad["results"]["curve"]["annihilating"]["coeffs"][0]["coeffs"])
        assert _fails(job, bad)


def test_compute_check_rejects_a_non_squarefree_annihilator():
    job = _slot_job("compute", 4, 2, (0, 2))
    report = _report(job)
    char = report["results"]["curve"]["char"]
    bad = copy.deepcopy(report)
    # the characteristic polynomial itself divides itself but is a square here
    ann = checks.Curve(job).char
    coeffs = []
    for j in range(ann.degree(checks.ETA) + 1):
        c = sp.Poly(ann.as_expr().coeff(checks.ETA, j), checks.W)
        deg = (ann.degree(checks.ETA) - j) * char["twist"]
        cs = [str(x) for x in reversed(c.all_coeffs())] if not c.is_zero else ["0"]
        coeffs.append({"degree": deg, "coeffs": cs + ["0"] * (deg + 1 - len(cs))})
    bad["results"]["curve"]["annihilating"]["coeffs"] = coeffs
    problems = checks.check_report(job, bad)
    assert "annihilating polynomial is not squarefree" in problems


def test_discriminant_checks():
    for job in (_slot_job("discriminant", 3, 2), _slot_job("discriminant", 2, 6, (), "double"),
                _slot_job("discriminant", 4, 2, (0, 2))):
        report = _report(job)
        assert checks.check_report(job, report) == []
        bad = copy.deepcopy(report)
        _bump(bad["results"]["discriminant"]["coeffs"], -1)
        assert _fails(job, bad)


def test_singular_checks():
    for seed in (1, 2, 3, 4):
        job, ref = _singular_case(seed, 0)  # r = 4, d = 1: cheap
        report = _report(job)
        assert report["results"]["count"] > 1
        assert checks.check_report(job, report, ref) == []
    dropped = copy.deepcopy(report)
    dropped["results"]["points"].pop()
    dropped["results"]["count"] -= 1
    assert _fails(job, dropped, ref)
    moved = copy.deepcopy(report)
    pt = moved["results"]["points"][0]
    if isinstance(pt["eta"], dict):
        _bump(pt["eta"]["value"]["coeffs"])
    else:
        pt["eta"] = str(Fraction(pt["eta"]) + 1)
    assert _fails(job, moved, ref)


def test_factor_checks():
    for job in (_slot_job("factor", 4, 2, (0, 2)), _slot_job("factor", 3, 2), _slot_job("factor", 6, 1, (0, 3))):
        report = _report(job)
        assert checks.check_report(job, report) == []
        bad = copy.deepcopy(report)
        bad["results"]["factorization"]["subcover_index"] += 1
        assert _fails(job, bad)
        bad = copy.deepcopy(report)
        _bump(bad["results"]["factorization"]["tau"]["components"][-1]["form"]["coeffs"])
        assert _fails(job, bad)


@pytest.mark.parametrize("m_degrees", [(1, 1), (0, 1), (2,)])
def test_stability_checks(m_degrees):
    for job in (_slot_job("stability", 3, 2, (), "r", m_degrees), _slot_job("stability", 4, 2, (0, 2), "r", m_degrees)):
        report = _report(job)
        assert checks.check_report(job, report) == []
        bad = copy.deepcopy(report)
        status = bad["results"]["verdict"]["status"]
        bad["results"]["verdict"]["status"] = "unstable" if status != "unstable" else "stable"
        assert _fails(job, bad)


def test_genus_and_pushforward_checks():
    job = {"schema": "1", "command": "genus", "cover": {"r": 4}, "twist_degree": 7}
    report = _report(job)
    assert checks.check_report(job, report) == []
    report["results"]["genus"] += 1
    assert _fails(job, report)
    job = {"schema": "1", "command": "pushforward", "cover": {"r": 3}, "line_degree": -7}
    report = _report(job)
    assert checks.check_report(job, report) == []
    report["results"]["bundle"]["degrees"][0] += 1
    assert _fails(job, report)


def test_sympy_resultant_matches_the_sylvester_determinant():
    eta = checks.ETA
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        f = sp.Poly([1] + [rng.randint(-4, 4) for _ in range(n)], eta)
        g = f.diff(eta)
        fc, gc = f.all_coeffs(), g.all_coeffs()
        m, k = len(fc) - 1, len(gc) - 1
        rows = [[0] * i + fc + [0] * (k - 1 - i) for i in range(k)]
        rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
        assert sp.Matrix(rows).det() == sp.resultant(f, g)


# ---------------------------------------------------------------------------
# stored references and the seeded maps


def test_swap_loci_exchanges_zero_and_infinity():
    assert jobs.swap_loci([["0", "1"], ["-2", "1"]], False) == ([["-1/2", "1"]], True)
    assert jobs.swap_loci([["-2", "1"], ["3", "-1", "1"]], True) == ([["-1/2", "1"], ["0", "1"], ["1/3", "-1/3", "1"]], False)


def test_stored_reference_rebuilds_for_a_small_slot():
    entries = json.load(open(jobs.SINGULAR_REFS))["entries"]
    entry = entries[0]
    job = refs.base_job(entry["r"], entry["d"], {int(k): v for k, v in entry["components"].items()})
    assert refs.singular_projection(job) == (entry["loci"], entry["infinity"])


def test_seeded_sign_and_swap_map_the_singular_loci_as_stored():
    seen = set()
    for seed in range(1, 7):
        job, ref = _singular_case(seed, 1)  # r = 4, d = 1, loci not fixed by w -> 1/w
        assert refs.singular_projection(job) == (ref["loci"], ref["infinity"])
        seen.add(json.dumps(ref))
    assert len(seen) == 2  # both orientations were exercised


# ---------------------------------------------------------------------------
# the worker and the runner


def test_traced_worker_counts_both_bindings(tmp_path):
    job = _slot_job("compute", 3, 2)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"jobs": [["compute", str(path)]], "seconds": 0, "trace": True, "outdir": str(tmp_path)}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), str(spec)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    layers = result["layers"]
    # two charts in invariant_sections and two in annihilating_poly's min_poly_matrix
    assert layers["exactalg.char_poly_matrix.calls"]["value"] == 4
    assert layers["exactalg.min_poly_matrix.calls"]["value"] == 2
    assert layers["exactalg.char_poly_matrix.n_max"]["value"] == 3
    assert layers["covers.mult_matrix.calls"]["value"] == 4
    assert layers["cli.report_bytes"]["value"] > 0
    assert (tmp_path / "spans.jsonl").exists()


def test_adjusted_times_take_out_a_uniform_slowdown():
    import run

    samples = [0.2, 0.4, 0.1]
    ref = run.PROBE_REF_S
    assert run.adjusted_times(samples, [ref] * 4) == pytest.approx(samples)
    # a host twice as slow doubles the jobs and the probes around them alike
    assert run.adjusted_times([2 * t for t in samples], [2 * ref] * 4) == pytest.approx(samples)
    # job k is scaled by the mean of the probes before and after it
    assert run.adjusted_times([0.3], [ref, 2 * ref]) == pytest.approx([0.2])


def test_throughput_takes_each_jobs_median_over_passes():
    import run

    # two jobs, three passes; one slow sample per job does not move the figure
    times = [1.0, 0.5, 1.0, 9.0, 8.0, 0.5]
    assert run.throughput(times, 2) == pytest.approx(2 / 1.5)


def test_benchmark_json_lists_every_per_layer_metric():
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.metric_names()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "wide-curves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
