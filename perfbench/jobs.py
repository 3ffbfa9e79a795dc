"""Seeded job lists for the three benchmark workloads.

Every workload is a fixed list of slots.  A slot fixes the shape of one job:
command, cover, rank r, twist degree d and which residue classes carry a
component of the section.  The section itself is a base section drawn once
from a fixed random stream (``base_section``), and the run's ``--seed``
moves it, job by job, inside its orbit under two symmetries:

* the sign eta -> -eta: every component is multiplied by -1;
* the chart swap s <-> t: every form is reversed, and on the standard cover
  class k goes to class r - k.

Both keep the size of every number the package meets: the package computes
the characteristic data on both charts, and the sign only flips odd
coefficients.  So the seed changes the inputs and not the amount of work.
Random small coefficients were tried first; the cost of one job then moved by
up to a factor 1.7 between seeds (rational fibre roots, coefficient growth in
the gcds), and on the singular command some draws fail outright (two
singular points over one rational base value).

``singular-fields`` takes its base sections from ``data/singular_refs.json``,
which ``refs.py`` builds from sympy alone; each of them was screened so that
every singular fibre holds a single singular point.  The sign keeps the
singular base loci and the swap maps each locus w = a to w = 1/a, which
``swap_loci`` applies to the stored reference.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SINGULAR_REFS = os.path.join(HERE, "data", "singular_refs.json")

WORKLOADS = ("tall-curves", "wide-curves", "singular-fields")


@dataclass(frozen=True)
class Slot:
    """Shape of one job; ``support`` () means every residue class."""

    command: str
    r: int
    d: int
    support: tuple = ()
    cover: str = "r"  # "r" (standard cyclic), "double" or "cyclic_triple"
    m_degrees: tuple = ()


# Each list is written cheap to dear and built around a block of same-shape
# jobs in the middle, with as many jobs clearly cheaper below it as clearly
# dearer above it, so that the median job latency (job_p50_s) falls inside
# the block at every seed and in every pass count.  The jobs run in the order
# of run_order, which spreads the block over the pass, so that a few seconds
# of load from elsewhere on the host do not slow the whole block at once.

# Large matrices with low-degree entries: the determinant, eta-gcd and
# annihilation check dominate.  Median block: discriminant at r = 6, d = 1.
TALL = (
    Slot("factor", 6, 1, (0, 2, 4)),
    Slot("stability", 6, 1, (0, 3), "r", (2,)),
    Slot("compute", 5, 1),
    Slot("discriminant", 5, 1),
    Slot("compute", 6, 1, (0, 3)),
    Slot("factor", 6, 1, (0, 3)),
) + (Slot("discriminant", 6, 1),) * 5 + (
    Slot("compute", 8, 1, (0, 2, 4, 6)),
    Slot("stability", 5, 2, (), "r", (0, 1)),
    Slot("compute", 7, 1),
    Slot("factor", 8, 1, (0, 2, 6)),
    Slot("factor", 7, 1, (0, 1)),
    Slot("compute", 8, 1),
)

# Tiny matrices with high w-degree and large coefficients: UniPoly
# arithmetic, resultants, rational factoring and per-job overhead.
# Median block: compute at r = 3, d = 8.
WIDE = (
    Slot("genus", 2, 0),
    Slot("genus", 3, 0),
    Slot("genus", 4, 0),
    Slot("pushforward", 2, 0),
    Slot("pushforward", 3, 0),
    Slot("pushforward", 4, 0),
    Slot("discriminant", 2, 9),
    Slot("compute", 2, 10, (), "double"),
    Slot("compute", 2, 12),
    Slot("discriminant", 2, 12, (), "double"),
) + (Slot("compute", 3, 8),) * 7 + (
    Slot("factor", 3, 5),
    Slot("factor", 4, 7, (0, 2)),
    Slot("compute", 4, 6),
    Slot("stability", 2, 8, (), "r", (1, 1)),
    Slot("compute", 3, 12, (), "cyclic_triple"),
    Slot("discriminant", 4, 5),
    Slot("stability", 4, 5, (0, 2), "r", (0, 1)),
    Slot("discriminant", 3, 11, (), "cyclic_triple"),
    Slot("stability", 3, 6, (), "r", (2,)),
)

# branch form of the double covers and structure forms of the cyclic triple
# covers: fixed, so only the section moves with the seed
DOUBLE_BRANCH = (2, -1, 3)
TRIPLE_A = (1, 2)
TRIPLE_B = (-3, 1)


def twist_of(slot: Slot, k: int) -> int:
    """Degree l_k of the class-k summand of the cover's algebra."""
    if k == 0:
        return 0
    if slot.cover == "double":
        return (len(DOUBLE_BRANCH) - 1) // 2
    if slot.cover == "cyclic_triple":
        da, db = len(TRIPLE_A) - 1, len(TRIPLE_B) - 1
        return (2 * da + db) // 3 if k == 1 else (da + 2 * db) // 3
    return 1


def classes(slot: Slot) -> tuple:
    return slot.support or tuple(range(slot.r))


def base_section(slot: Slot, tag: str) -> dict:
    """Integer coefficient lists by class, from a stream fixed by ``tag``."""
    rng = random.Random(f"perfbench-base:{tag}")
    comps = {}
    for k in classes(slot):
        deg = slot.d - twist_of(slot, k)
        comps[k] = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg + 1)]
    return comps


def move(comps: dict, slot: Slot, rng: random.Random):
    """Apply a seeded sign and chart swap; returns (components, swapped)."""
    sign = rng.choice((1, -1))
    swapped = rng.random() < 0.5
    out = {}
    for k, coeffs in comps.items():
        if swapped:
            coeffs = coeffs[::-1]
            if slot.cover == "r":
                k = (slot.r - k) % slot.r
        out[k] = [sign * c for c in coeffs]
    return out, swapped


def swap_loci(loci: list, infinity: bool):
    """Singular base loci after s <-> t: w = a goes to w = 1/a."""
    out, at_infinity = [], False
    for coeffs in loci:
        cs = [Fraction(c) for c in coeffs]
        if cs == [0, 1]:
            at_infinity = True
            continue
        rev = cs[::-1]
        out.append([str(c / rev[-1]) for c in rev])
    if infinity:
        out.append(["0", "1"])
    out.sort(key=lambda cs: (len(cs), cs))
    return out, at_infinity


def _form(coeffs) -> dict:
    return {"degree": len(coeffs) - 1, "coeffs": [str(c) for c in coeffs]}


def _cover(slot: Slot, swapped: bool) -> dict:
    def form(coeffs):
        return _form(coeffs[::-1] if swapped else coeffs)

    if slot.cover == "double":
        return {"double": {"branch": form(DOUBLE_BRANCH)}}
    if slot.cover == "cyclic_triple":
        return {"cyclic_triple": {"a": form(TRIPLE_A), "b": form(TRIPLE_B)}}
    return {"r": slot.r}


def build_job(slot: Slot, label: str, comps: dict, swapped: bool = False) -> dict:
    job = {
        "schema": "1",
        "command": slot.command,
        "label": label,
        "cover": _cover(slot, swapped),
        "twist_degree": slot.d,
        "section": {str(k): _form(c) for k, c in sorted(comps.items())},
    }
    if slot.m_degrees:
        job["m_degrees"] = list(slot.m_degrees)
    return job


def run_order(n: int) -> list:
    """List indices in run order: index i runs at position i * stride mod n,
    with the smallest stride from 3 up that is coprime to n, so that
    neighbours in the list run three or four jobs apart."""
    stride = 3
    while math.gcd(stride, n) != 1:
        stride += 1
    return sorted(range(n), key=lambda i: (i * stride) % n)


def singular_entries() -> list:
    """Base sections and loci of the singular-fields slots (refs.py)."""
    with open(SINGULAR_REFS, "r", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def make_cases(workload: str, seed: int) -> list:
    """(job, reference) pairs for ``seed``; the reference is the singular
    projection {"loci", "infinity"} for singular jobs and None otherwise."""
    if workload == "tall-curves":
        pairs = [(s, base_section(s, f"tall:{i}"), None) for i, s in enumerate(TALL)]
    elif workload == "wide-curves":
        pairs = [(s, base_section(s, f"wide:{i}"), None) for i, s in enumerate(WIDE)]
    elif workload == "singular-fields":
        pairs = [
            (Slot("singular", e["r"], e["d"]),
             {int(k): v for k, v in e["components"].items()},
             {"loci": e["loci"], "infinity": e["infinity"]})
            for e in singular_entries()
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for i, (slot, comps, ref) in enumerate(pairs):
        rng = random.Random(f"perfbench:{workload}:{seed}:{i}")
        label = f"{workload}-{i}"
        if slot.command == "genus":
            cases.append(({"schema": "1", "command": "genus", "label": label,
                           "cover": {"r": slot.r}, "twist_degree": rng.randint(5, 12)}, None))
        elif slot.command == "pushforward":
            cases.append(({"schema": "1", "command": "pushforward", "label": label,
                           "cover": {"r": slot.r}, "line_degree": rng.randint(-20, 40)}, None))
        else:
            moved, swapped = move(comps, slot, rng)
            if ref is not None and swapped:
                loci, infinity = swap_loci(ref["loci"], ref["infinity"])
                ref = {"loci": loci, "infinity": infinity}
            cases.append((build_job(slot, label, moved, swapped), ref))
    return [cases[i] for i in run_order(len(cases))]


def make_jobs(workload: str, seed: int) -> list:
    """The workload's job list for ``seed``: the same seed gives the same jobs."""
    return [job for job, _ in make_cases(workload, seed)]
