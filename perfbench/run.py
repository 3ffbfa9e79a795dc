"""speccover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tall-curves --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates the workload's jobs from the seed, spawns one
worker process (closed loop, one job at a time), checks every report against
results computed apart from the package, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
jobs_per_s, job_p50_s, peak_rss_mib); with ``--trace 1`` they are the
per-layer ones of layers.py plus the import times of sympy and
speccover.cli.  Job times are taken at the host's reference speed
(``adjusted_times``); the raw figures go to standard error.  Run files go to
``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the whole run has 180 s; the checks after the worker take a few seconds
WORKER_DEADLINE_S = 150
IMPORT_SAMPLES = 3
# about the time of worker.calibrate on an unloaded 2-core Xeon at 2.1 GHz
# under Python 3.11: the reference speed that timings are scaled to
PROBE_REF_S = 0.004


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run_worker(spec_path: str, deadline: float):
    """Spawn the worker and wait for it; return the seconds from the spawn
    until it had imported speccover.cli, or raise RuntimeError."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past its deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return setup_s


def adjusted_times(samples: list, probes: list) -> list:
    """Job times at the reference host speed.

    The worker times the calibration probe before every job and once after
    the last, so job k lies between probes k and k + 1.  Other tenants of a
    shared host slow the job and the probes around it alike; scaling the job
    by PROBE_REF_S over the mean of those two probes takes that slowdown out.
    """
    return [t * 2 * PROBE_REF_S / (probes[k] + probes[k + 1]) for k, t in enumerate(samples)]


def throughput(times: list, n: int) -> float:
    """Jobs per second of one pass: n over the sum, over the n jobs of the
    list, of each job's median time across the passes."""
    return n / sum(statistics.median(times[i::n]) for i in range(n))


def _import_times_ms() -> dict:
    """Cumulative import times of sympy and speccover.cli from -X importtime,
    medians over a few fresh interpreters."""
    found = {"sympy": [], "speccover.cli": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import speccover.cli"],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60, check=True,
        )
        for row in proc.stderr.splitlines():
            parts = row.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1000.0)
    return {
        "setup.import_sympy_ms": {"value": statistics.median(found["sympy"]), "unit": "ms"},
        "setup.import_speccover_ms": {"value": statistics.median(found["speccover.cli"]), "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="speccover benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + WORKER_DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "speccover", "cli.py")):
        print("perfbench: no speccover sources under src/; run from a source checkout", file=sys.stderr)
        return 2
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cases = jobs.make_cases(args.workload, args.seed)
    job_list = [job for job, _ in cases]

    outdir = os.path.join(HERE, "_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for i, job in enumerate(job_list):
        path = os.path.join(outdir, f"job-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        paths.append((job["command"], path))
    spec_path = os.path.join(outdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": paths, "seconds": args.seconds, "trace": bool(args.trace), "outdir": outdir}, fh)

    try:
        setup_s = _run_worker(spec_path, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(outdir, "result.json"), "r", encoding="utf-8") as fh:
        result = json.load(fh)

    import checks

    problems = []
    for i, (job, ref) in enumerate(cases):
        path = os.path.join(outdir, f"report-{i}.json")
        if not os.path.exists(path):
            continue  # the job failed and is counted in "failed"
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        problems += [f"job {i} ({job['command']}): {p}" for p in checks.check_report(job, report, ref)]
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} reports differ from their pass-0 report")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    samples = result["samples"]
    times = adjusted_times(samples, result["probes"])
    n = len(job_list)
    jobs_per_s = throughput(times, n)
    p50 = statistics.median(times)
    # cold starts slow down with the host as jobs do (correlation 0.81 over
    # 60 runs), so they are taken at the reference speed too
    raw_setup_s = statistics.median([setup_s] + result["cold_starts"])
    setup_s = raw_setup_s * PROBE_REF_S / statistics.median(result["probes"])
    print(
        f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: {result['passes']} passes, "
        f"{len(samples)} jobs; at reference speed {jobs_per_s:.4f} jobs/s, p50 {p50:.4f} s; "
        f"raw {throughput(samples, n):.4f} jobs/s, p50 {statistics.median(samples):.4f} s, "
        f"setup {raw_setup_s:.4f} s, probe median {statistics.median(result['probes']) * 1000:.3f} ms; "
        f"at reference speed setup {setup_s:.4f} s",
        file=sys.stderr,
    )
    if args.trace:
        metrics = dict(result["layers"])
        metrics.update(_import_times_ms())
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "job_p50_s": {"value": p50, "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
        if not problems:
            shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
