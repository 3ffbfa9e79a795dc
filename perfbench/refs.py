"""Build data/singular_refs.json: base sections and singular loci for
the singular-fields workload, from sympy alone.

    python3 perfbench/refs.py            # rebuild the file (a few minutes)
    python3 perfbench/refs.py --check    # recompute and compare, exit 1 on a difference

For each (r, d) slot, candidate sections are drawn from a fixed random
stream.  A candidate is kept when the lex Groebner basis (eta > w) of
f, f_eta, f_w on chart 0 is {c*eta - g(w), S(w)} with S squarefree, so every
singular fibre holds exactly one singular point, and when the singular eta
values over the point at infinity are rational.  The stored loci are the
monic irreducible factors of S, plus a flag for [1:0].  The seeded sign of
jobs.py moves no base locus and its chart swap maps w to 1/w, so these loci
give the reference for every seed (jobs.swap_loci).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import sympy as sp

import checks
import jobs

# (r, d, support) of each singular-fields slot, in job order: cheap to dear,
# with the median job latency inside the block of r = 4, d = 2 and r = 5,
# d = 1 jobs.  At r = 7 the support is partial: with full support one job
# takes 5 to 11 s (it depends on the draw), longer than a pass should be.
SLOTS = ((4, 1, ()),) * 4 + ((4, 2, ()),) * 2 + ((5, 1, ()),) * 4 + (
    (4, 3, ()), (6, 1, ()), (7, 1, (0, 1, 3)), (5, 2, ()), (7, 1, (0, 1, 2, 4)),
)


def base_job(r: int, d: int, comps: dict) -> dict:
    slot = jobs.Slot("singular", r, d)
    return jobs.build_job(slot, "ref", comps)


def singular_projection(job):
    """(loci, infinity) of the curve, or None when the shape test fails."""
    curve = checks.Curve(job)
    f = curve.reduced
    basis = sp.groebner([f.as_expr(), f.diff(checks.ETA).as_expr(), f.diff(checks.W).as_expr()],
                        checks.ETA, checks.W, order="lex")
    polys = [sp.Poly(g, checks.ETA, checks.W) for g in basis.exprs]
    if len(polys) != 2:
        return None
    linear = [p for p in polys if p.degree(checks.ETA) == 1 and p.as_poly(checks.ETA).LC().is_number]
    base = [p for p in polys if p.degree(checks.ETA) == 0]
    if len(linear) != 1 or len(base) != 1:
        return None
    s = sp.Poly(base[0].as_expr(), checks.W)
    if sp.degree(sp.gcd(s, s.diff(checks.W)), checks.W) > 0:
        return None
    loci = []
    for p, _ in sp.factor_list(s)[1]:
        p = p.monic()
        loci.append([str(c) for c in reversed(p.all_coeffs())])
    loci.sort(key=lambda cs: (len(cs), cs))
    f1 = curve.chart1(f)
    fibre = [sp.Poly(g.as_expr().subs(checks.W, 0), checks.ETA) for g in (f1, f1.diff(checks.ETA), f1.diff(checks.W))]
    common = sp.gcd(sp.gcd(fibre[0], fibre[1]), fibre[2])
    infinity = common.degree() > 0
    if infinity and sum(sp.roots(common, filter="Q").values()) != common.degree():
        return None
    return loci, infinity


def build() -> dict:
    entries = []
    for i, (r, d, support) in enumerate(SLOTS):
        slot = jobs.Slot("singular", r, d, support)
        k = SLOTS[:i].count((r, d, support))  # earlier slots of the same shape
        for attempt in range(50):
            comps = jobs.base_section(slot, f"singular:{r}:{d}:{support}:{k}:{attempt}")
            found = singular_projection(base_job(r, d, comps))
            print(f"slot {i} r={r} d={d} attempt {attempt}: {'kept' if found else 'rejected'}",
                  file=sys.stderr, flush=True)
            if found:
                loci, infinity = found
                entries.append({"r": r, "d": d, "components": {str(k): v for k, v in comps.items()},
                                "loci": loci, "infinity": infinity})
                break
        else:
            raise SystemExit(f"no screened section for slot {i}")
    return {"entries": entries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored file instead of writing it")
    args = parser.parse_args()
    doc = build()
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.check:
        with open(jobs.SINGULAR_REFS, "r", encoding="utf-8") as fh:
            same = fh.read() == text
        print("refs: stored file matches" if same else "refs: stored file differs", file=sys.stderr)
        return 0 if same else 1
    tmp = jobs.SINGULAR_REFS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, jobs.SINGULAR_REFS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
