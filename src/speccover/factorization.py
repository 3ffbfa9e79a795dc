"""Detecting when a section factors through an intermediate cover.

Over the standard cyclic cover the character support of a section decides
everything: the section is pulled back from the quotient by the subgroup
generated by the support, the reduced curve equation lives on that quotient,
and the full equation is an exact power of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covers import SectionData, make_standard_cyclic, require_standard
from .errors import InternalCheckError
from .spectral import SpectralCurve

PULLBACK = "pullback"
BIRATIONAL = "birational"
PROPER = "proper-factorization"


@dataclass(frozen=True)
class FactorizationReport:
    """How multiplication by the section sits over the base.

    ``subcover_index`` is the degree with which the source wraps the reduced
    curve; ``quotient_degree`` is the degree of the intermediate cover that
    carries the factored section ``tau``.
    """

    subcover_index: int
    quotient_degree: int
    tau: SectionData
    verdict: str


@dataclass(frozen=True)
class BirationalityVerdict:
    kind: str
    justification: str
    tau: SectionData = None
    witness_base: Fraction = None


def intermediate_factorization(sec: SectionData, curve: SpectralCurve) -> FactorizationReport:
    """Factor the section through the smallest cover that carries it.

    ``curve`` is ``spectral_curve(sec)``.  The subcover index is
    gcd(r, support); the factored section tau keeps the same twist and reads
    off every g-th component.  Two exact identities are checked before
    returning: tau re-expands to the original section, and the full
    characteristic polynomial is the g-th power of tau's.
    """
    r = require_standard(sec, "factorization is computed for")
    support = [rho[0] for rho in sec.components if rho and rho[0] != 0]
    g = math.gcd(r, *support) if support else r
    r_prime = r // g
    quotient = make_standard_cyclic(r_prime)
    comps = {}
    for rho, form in sec.components.items():
        k = rho[0] if rho else 0
        if k % g != 0:
            raise InternalCheckError("support is not divisible by its own gcd")
        comps[k // g] = form
    tau = SectionData(quotient, sec.twist_degree, comps)

    pulled = {}
    for rho, form in tau.components.items():
        k = rho[0] if rho else 0
        pulled[k * g] = form
    if SectionData(sec.cover, sec.twist_degree, pulled) != sec:
        raise InternalCheckError("pulled-back tau does not reproduce the section")

    char = curve.char
    reduced = curve.annihilating
    if (reduced**g).coeffs != char.coeffs:
        raise InternalCheckError(
            "characteristic polynomial is not the expected power of the reduced one"
        )
    if reduced.degree != r_prime:
        raise InternalCheckError("reduced degree disagrees with the support gcd")

    if g == r:
        verdict = PULLBACK
    elif g == 1:
        verdict = BIRATIONAL
    else:
        verdict = PROPER
    return FactorizationReport(g, r_prime, tau, verdict)


def birationality_verdict(
    report: FactorizationReport, curve: SpectralCurve
) -> BirationalityVerdict:
    """Classify the induced map from the source onto the curve.

    ``report`` is ``intermediate_factorization(sec, curve)``; a birational
    verdict cites the curve's witness base, where the fiber values are
    distinct.
    """
    if report.verdict == PULLBACK:
        if report.tau.is_zero():
            note = "the zero section gives the zero field"
        else:
            note = "multiplication acts as the scalar h_0"
        return BirationalityVerdict(PULLBACK, note, tau=report.tau)
    if report.verdict == BIRATIONAL:
        base = curve.witness_base
        return BirationalityVerdict(
            BIRATIONAL,
            f"support gcd is 1; fiber values are distinct over w = {base}",
            witness_base=base,
        )
    return BirationalityVerdict(
        PROPER,
        f"section factors through the degree-{report.quotient_degree} cover",
        tau=report.tau,
    )
