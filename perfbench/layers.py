"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every speccover module that bound it, so ``speccover.spectral.char_poly_matrix``
and ``speccover.exactalg.char_poly_matrix`` are both wrapped, and it wraps
``ExtElem.inv`` on the class.  Spans (name, start, end, parent, job) stay in
memory; ``metrics`` reduces them to the per-layer figures, per pass of the
job list, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# span name -> (module, attribute) of the function it wraps
TRACED = {
    "covers.mult_matrix": ("covers", "mult_matrix"),
    "exactalg.char_poly_matrix": ("exactalg", "char_poly_matrix"),
    "exactalg.min_poly_matrix": ("exactalg", "min_poly_matrix"),
    "exactalg.eta_gcd": ("exactalg", "eta_gcd"),
    "exactalg.resultant": ("exactalg", "resultant"),
    "exactalg.factor_rational": ("exactalg", "factor_rational"),
    "exactalg.poly_gcd": ("exactalg", "poly_gcd"),
    "exactalg.kpoly_gcd": ("exactalg", "kpoly_gcd"),
    "spectral.invariant_sections": ("spectral", "invariant_sections"),
    "spectral.annihilating_poly": ("spectral", "annihilating_poly"),
    "spectral.spectral_curve": ("spectral", "spectral_curve"),
    "spectral.eta_discriminant": ("spectral", "eta_discriminant"),
    "spectral.singular_locus": ("spectral", "singular_locus"),
    "factorization.intermediate_factorization": ("factorization", "intermediate_factorization"),
    "factorization.birationality_verdict": ("factorization", "birationality_verdict"),
    "stability.polynomial_eta_roots": ("stability", "polynomial_eta_roots"),
    "stability.kernel_basis": ("stability", "kernel_basis"),
    "stability.invariant_subsheaf_search": ("stability", "invariant_subsheaf_search"),
    "stability.certify_integrality": ("stability", "certify_integrality"),
    "stability.gieseker_verdict": ("stability", "gieseker_verdict"),
    "cli.validate_job": ("cli", "validate_job"),
    "cli.canonical_json": ("cli", "canonical_json"),
}

INV = "exactalg.ExtElem.inv"
TO_JSON = "serialize.to_json"


def _bits(poly) -> int:
    """Largest numerator or denominator size, in bits, of a UniPoly."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs), default=0)


def _eta_bits(poly) -> int:
    return max((_bits(c) for c in poly.coeffs), default=0)


# span name -> (size metric, function of (args, result))
SIZES = {
    "exactalg.char_poly_matrix": ("n_max", lambda args, out: args[0].n),
    "exactalg.eta_gcd": ("bits_max", lambda args, out: _eta_bits(out)),
    "exactalg.resultant": ("bits_max", lambda args, out: _bits(out)),
    "exactalg.factor_rational": ("degree_max", lambda args, out: args[0].degree()),
    "spectral.annihilating_poly": ("eta_deg_max", lambda args, out: out.degree),
}

SELF_ONLY = (TO_JSON, "cli.validate_job", "cli.canonical_json")


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in list(TRACED) + [INV, TO_JSON]:
        if name not in SELF_ONLY:
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
        size = SIZES.get(name)
        if size:
            out.append((f"{name}.{size[0]}", "bits" if size[0] == "bits_max" else "count"))
    out.append(("cli.report_bytes", "B"))
    out.append(("setup.import_sympy_ms", "ms"))
    out.append(("setup.import_speccover_ms", "ms"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.sizes = {}  # (name, pass) -> largest size seen
        self.report_bytes = {}  # pass -> bytes of canonical JSON written
        self.job = None  # (pass, index) of the running job
        self._stack = []

    def _wrap(self, name, fn):
        size = SIZES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if size is not None:
                key = (name, self.job[0])
                self.sizes[key] = max(self.sizes.get(key, 0), size[1](args, out))
            elif name == "cli.canonical_json":
                # the timing entry is the one part of a report that differs
                # from run to run, so its digits are not counted
                timing = args[0].get("provenance", {}).get("timing_ms")
                nbytes = len(out) - (len(json.dumps(timing)) if timing is not None else 0)
                self.report_bytes[self.job[0]] = self.report_bytes.get(self.job[0], 0) + nbytes
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a speccover module bound them."""
        from speccover import exactalg, serialize

        mods = [m for n, m in sys.modules.items() if n == "speccover" or n.startswith("speccover.")]
        targets = {}
        for name, (mod, attr) in TRACED.items():
            targets[getattr(sys.modules[f"speccover.{mod}"], attr)] = name
        for attr in dir(serialize):
            if attr.endswith("_to_json"):
                targets[getattr(serialize, attr)] = TO_JSON
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        exactalg.ExtElem.inv = self._wrap(INV, exactalg.ExtElem.inv)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics: counts and sizes per pass, self times as the
        median over passes."""
        calls, self_ms, child_s = {}, {}, [0.0] * len(self.spans)
        for idx, (name, start, end, parent, _job) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            key = (name, job[0])
            calls[key] = calls.get(key, 0) + 1
            self_ms[key] = self_ms.get(key, 0.0) + (end - start - child_s[idx]) * 1000.0
        out = {}
        for metric, unit in metric_names():
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = statistics.median_low(calls.get((name, p), 0) for p in range(passes))
            elif kind == "self_ms":
                value = statistics.median(self_ms.get((name, p), 0.0) for p in range(passes))
            elif metric == "cli.report_bytes":
                value = statistics.median_low(self.report_bytes.get(p, 0) for p in range(passes))
            elif name == "setup":
                continue
            else:
                value = max((v for (n, _), v in self.sizes.items() if n == name), default=0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
