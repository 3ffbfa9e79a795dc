"""Benchmark worker: runs one job list through ``speccover.cli.main`` in a
closed loop, one job at a time, and writes its timings to a JSON file.

    python3 perfbench/worker.py SPEC.json

It prints "ready" once ``speccover.cli`` is imported, then runs whole passes
of the job list until ``seconds`` have gone by.  Before each job it collects
garbage, so every job starts from a clean heap as it would in a fresh CLI
process, and it times a fixed calibration probe (``calibrate``), so that
run.py can tell a slow job from a slow host; one more probe follows the
last job.  After each of the first
passes it times one cold start of a fresh interpreter (``cold_start_s``).

Pass 0 keeps each report for the checks; every later report must equal the
pass-0 report outside its provenance block.  With ``trace`` set, the traced
functions are wrapped first (layers.py) and the per-layer metrics go into
the result file.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

# cold starts timed per run, one after each of the first passes
COLD_STARTS = 4
READY = "import speccover.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact arithmetic that uses nothing
    from speccover, so that its time moves only with the speed of the host.

    It has the three kinds of work the package's kernel does: rational
    arithmetic on small fractions (a product and remainder of two
    polynomials over Q), rational arithmetic whose numbers grow (Euclid's
    algorithm over Q) and arithmetic on large integers.  Load from other
    tenants of a host slows the three by different factors, and the
    workloads mix them in different shares.
    """
    started = time.perf_counter()
    a = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
    b = [Fraction(2 * i + 1, i % 3 + 2) for i in range(12)]
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    inv = 1 / b[-1]
    while len(prod) >= len(b):
        q = prod[-1] * inv
        for j in range(len(b)):
            prod[len(prod) - len(b) + j] -= q * b[j]
        prod.pop()

    f = [Fraction((3 * i * i + 5) % 17 - 8) for i in range(14)]
    g = [Fraction((7 * i + 2) % 13 - 6) for i in range(13)]
    while g:
        inv = 1 / g[-1]
        while len(f) >= len(g):
            q = f[-1] * inv
            off = len(f) - len(g)
            for j in range(len(g)):
                f[off + j] -= q * g[j]
            f.pop()
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f

    x, acc = 3**3000, 0
    for i in range(1, 500):
        acc += (x * (i + 1)) // (i + 3) % (x >> 7)
    return time.perf_counter() - started


def cold_start_s() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    speccover.cli; the interpreter inherits this process's environment."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"cold start exited with code {proc.returncode}")
    return elapsed


def _without_provenance(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("provenance", None)
    return json.dumps(doc, sort_keys=True)


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import speccover.cli as cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    outdir = spec["outdir"]
    first = {}
    samples, probes, cold = [], [], []
    failed, mismatched, passes = 0, 0, 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < spec["seconds"]:
        for i, (command, path) in enumerate(spec["jobs"]):
            out = os.path.join(outdir, f"report-{i}.json" if passes == 0 else "latest.json")
            if tracer is not None:
                tracer.job = (passes, i)
            gc.collect()
            probes.append(calibrate())
            started = time.perf_counter()
            code = cli.main([command, "--input", path, "--output", out])
            samples.append(time.perf_counter() - started)
            if code != 0:
                failed += 1
            elif passes == 0:
                first[i] = _without_provenance(out)
            elif first.get(i) != _without_provenance(out):
                mismatched += 1
        passes += 1
        if len(cold) < COLD_STARTS:
            cold.append(cold_start_s())

    probes.append(calibrate())  # the host's speed after the last job

    result = {
        "passes": passes,
        "samples": samples,
        "probes": probes,
        "cold_starts": cold,
        "failed": failed,
        "mismatched": mismatched,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(passes)
        tracer.dump(os.path.join(outdir, "spans.jsonl"))
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
