"""Acceptance gate: ten go/no-go checks, one PASS/FAIL line each.

Every identity is asserted with zero tolerance (exact rational equality);
the two timed checks also assert their wall-clock budgets.  The PASS/FAIL
lines are printed past pytest's capture so the gate reads off the terminal
even on a fully green run.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from conftest import char_poly_by_elimination, rand_binform, rng_for
from speccover.covers import (
    SectionData,
    SplitBundle,
    make_cyclic_triple,
    make_standard_cyclic,
)
from speccover.exactalg import (
    BinForm,
    ProjPoint,
    factor_rational,
    poly_gcd,
    reduce_mod,
)
from speccover.factorization import intermediate_factorization
from speccover.spectral import (
    EtaForm,
    SingularPoint,
    annihilating_poly,
    arithmetic_genus,
    double_cover_singularities,
    eta_discriminant,
    invariant_sections,
    singular_locus,
    spectral_curve,
)
from speccover.stability import (
    double_cover_verdict,
    gieseker_verdict,
    pushforward_relation_check,
)

F = Fraction


@contextmanager
def gate(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {number:2d}/10 {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {number:2d}/10 {label}", flush=True)


def section(r, d, comps):
    return SectionData(make_standard_cyclic(r), d, comps)


def base_locus_keys(points):
    """Where the singular points sit, forgetting the fiber heights."""
    keys = set()
    for sp in points:
        if sp.point is not None:
            if sp.point.b != 0:
                keys.add(("finite", F(sp.point.a, sp.point.b)))
            else:
                keys.add(("infinite",))
        else:
            keys.add(("orbit", tuple(sp.modulus.coeffs)))
    return keys


def form_zero_keys(form):
    """Zeros of a binary form as base-locus keys (rational or orbit)."""
    keys = set()
    chart0 = form.dehomogenize(0)
    if chart0.degree() >= 1:
        for p, _mult in factor_rational(chart0)[1]:
            if p.degree() == 1:
                keys.add(("finite", -p.coeffs[0]))
            else:
                keys.add(("orbit", tuple(p.coeffs)))
    if form.coeffs[-1] == 0:
        keys.add(("infinite",))
    return keys


def expected_double_points(f, g):
    """The set {(zeros of g, eta = f)} built directly from a factorization."""
    out = []
    g0, f0 = g.dehomogenize(0), f.dehomogenize(0)
    if g0.degree() >= 1:
        for p, _mult in factor_rational(g0)[1]:
            if p.degree() == 1:
                w0 = -p.coeffs[0]
                out.append(
                    SingularPoint(0, ProjPoint.of(w0, 1), None, f0.evaluate(w0))
                )
            else:
                out.append(SingularPoint(0, None, p, reduce_mod(f0, p)))
    if g.coeffs[-1] == 0:
        out.append(SingularPoint(1, ProjPoint.of(1, 0), None, f.evaluate(1, 0)))
    return out


def is_squarefree_form(form):
    chart0 = form.dehomogenize(0)
    if poly_gcd(chart0, chart0.derivative()).degree() != 0:
        return False
    if form.degree >= 2 and form.coeffs[-1] == 0 and form.coeffs[-2] == 0:
        return False
    return True


def test_gate_01_conic_identity(capsys):
    with gate(capsys, 1, "conic curve identity"):
        rng = rng_for("acceptance-1")
        s, t = BinForm.s(), BinForm.t()
        for _ in range(20):
            d = rng.randint(1, 5)
            f = rand_binform(rng, d - 1, nonzero=True)
            char = invariant_sections(section(2, d, {1: f}))
            want = EtaForm(d, [-(s * t * f * f), BinForm.zero(d), BinForm.const(1)])
            assert char == want


def test_gate_02_general_double_cover(capsys):
    with gate(capsys, 2, "general double cover: curve and singular set"):
        rng = rng_for("acceptance-2")
        s, t = BinForm.s(), BinForm.t()
        for _ in range(20):
            d = rng.randint(1, 4)
            f = rand_binform(rng, d)
            g = rand_binform(rng, d - 1, nonzero=True)
            sec = section(2, d, {0: f, 1: g})
            char = invariant_sections(sec)
            want = EtaForm(
                d, [f * f - s * t * g * g, -(f + f), BinForm.const(1)]
            )
            assert char == want
            found = {p.locus_key() for p in singular_locus(spectral_curve(sec))}
            predicted = {
                p.locus_key() for p in double_cover_singularities(f, g, s * t)
            }
            expected = {p.locus_key() for p in expected_double_points(f, g)}
            assert found == predicted == expected


def test_gate_03_triple_cover(capsys):
    with gate(capsys, 3, "triple cover: curve, discriminant, singular base"):
        rng = rng_for("acceptance-3")
        s, t = BinForm.s(), BinForm.t()
        for _ in range(20):
            d = rng.randint(1, 4)
            f = rand_binform(rng, d - 1, nonzero=True)
            g = rand_binform(rng, d - 1, nonzero=True)
            sec = section(3, d, {1: f, 2: g})
            char = invariant_sections(sec)
            want = EtaForm(
                d,
                [
                    -(s * t * t * f**3 + s * s * t * g**3),
                    -(s * t * f * g * 3),
                    BinForm.zero(d),
                    BinForm.const(1),
                ],
            )
            assert char == want
            base = t * f**3 - s * g**3
            disc = eta_discriminant(char)
            assert disc == base * base * s * s * t * t * 27  # recorded unit: +1
            points = singular_locus(spectral_curve(sec))
            assert base_locus_keys(points) == form_zero_keys(base)


def test_gate_04_cyclic_triple_structure_algebra(capsys):
    with gate(capsys, 4, "cyclic triple cover with structure constants"):
        rng = rng_for("acceptance-4")
        degree_pairs = [(1, 1), (2, 2), (1, 4), (4, 1), (3, 3), (2, 5), (5, 2), (3, 6), (1, 1), (2, 2)]
        for da, db in degree_pairs:
            a = rand_binform(rng, da, nonzero=True)
            b = rand_binform(rng, db, nonzero=True)
            alg = make_cyclic_triple(a, b)
            l1, l2 = alg.twist(1), alg.twist(2)
            d = max(l1, l2) + rng.randint(0, 2)
            g = rand_binform(rng, d - l1, nonzero=True)
            h = rand_binform(rng, d - l2, nonzero=True)
            sec = SectionData(alg, d, {1: g, 2: h})
            char = invariant_sections(sec)
            want = EtaForm(
                d,
                [
                    -(a * a * b * g**3 + a * b * b * h**3),
                    -(a * b * g * h * 3),
                    BinForm.zero(d),
                    BinForm.const(1),
                ],
            )
            assert char == want
            delta = eta_discriminant(char)
            assert delta == (a * b) ** 2 * (a * g**3 - b * h**3) ** 2 * 27


def test_gate_05_quartic_support_two(capsys):
    with gate(capsys, 5, "degree-4 section factors through the double cover"):
        rng = rng_for("acceptance-5")
        for _ in range(5):
            d = rng.randint(1, 3)
            g = rand_binform(rng, d - 1, nonzero=True)
            sec = section(4, d, {2: g})
            curve = spectral_curve(sec)
            assert annihilating_poly(sec, curve.char).degree == 2
            report = intermediate_factorization(sec, curve)
            assert report.subcover_index == 2
            assert report.quotient_degree == 2
            tau = report.tau
            assert tau.cover.degree == 2
            assert tau.component(1) == g
            pulled = SectionData(
                sec.cover, d, {2 * rho[0]: form for rho, form in tau.components.items()}
            )
            assert pulled == sec


def test_gate_06_oracle_equivalence(capsys):
    with gate(capsys, 6, "matrix char poly equals the elimination oracle"):
        rng = rng_for("acceptance-6")
        started = time.monotonic()
        for _ in range(100):
            r = rng.randint(1, 6)
            d = rng.randint(1, 4)
            comps = {}
            for k in range(r):
                if rng.random() < 0.6:
                    comps[k] = rand_binform(rng, d if k == 0 else d - 1)
            sec = section(r, d, comps)
            lhs = invariant_sections(sec).dehomogenize(0)
            assert lhs == char_poly_by_elimination(sec)
        assert time.monotonic() - started < 30


def test_gate_07_char_is_power_of_annihilating(capsys):
    with gate(capsys, 7, "char = annihilating^g, all supports through rank 8"):
        rng = rng_for("acceptance-7")
        for r in range(2, 9):
            d = 2 if r <= 6 else 1
            supports = [()]
            for size in range(1, r):
                supports += list(combinations(range(1, r), size))
            for chosen in supports:
                comps = {k: rand_binform(rng, d - 1, nonzero=True) for k in chosen}
                if not chosen or rng.random() < 0.3:
                    comps[0] = rand_binform(rng, d, nonzero=True)
                sec = section(r, d, comps)
                char = invariant_sections(sec)
                ann = annihilating_poly(sec, char)
                g = math.gcd(r, *chosen) if chosen else r
                power = ann
                for _ in range(g - 1):
                    power = power * ann
                assert power == char


def test_gate_08_genus_and_conic_nodes(capsys):
    with gate(capsys, 8, "genus values and conic node counts"):
        assert [arithmetic_genus(3, d) for d in range(1, 11)] == [
            3 * d - 2 for d in range(1, 11)
        ]
        rng = rng_for("acceptance-8")
        for d in range(2, 6):
            while True:
                g = rand_binform(rng, d - 1, nonzero=True)
                if is_squarefree_form(g):
                    break
            points = singular_locus(spectral_curve(section(2, d, {1: g})))
            nodes = sum(
                1 if sp.point is not None else sp.modulus.degree() for sp in points
            )
            assert nodes == d - 1


def test_gate_09_stability(capsys):
    with gate(capsys, 9, "pushforward Euler counts and verdict agreement"):
        for r in range(1, 6):
            for m in range(-6, 7):
                report = pushforward_relation_check(r, m)
                assert report.ok and report.lhs == report.rhs
        rng = rng_for("acceptance-9")
        checked = 0
        for rank in (1, 2, 3):
            for degrees in combinations_with_replacement(range(-3, 4), rank):
                bundle = SplitBundle(degrees)
                for _ in range(10):
                    d = rng.randint(1, 3)
                    comps = {1: rand_binform(rng, d - 1, nonzero=True)}
                    if rng.random() < 0.5:
                        comps[0] = rand_binform(rng, d)
                    sec = section(2, d, comps)
                    direct, _, _ = gieseker_verdict(bundle, sec)
                    shortcut = double_cover_verdict(bundle, sec)
                    assert direct.status == shortcut.status, (degrees, comps)
                    checked += 1
        assert checked == 1190


def test_gate_10_cli_repro(capsys):
    with gate(capsys, 10, "command-line repro corpus is byte-stable"):
        started = time.monotonic()
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "speccover.cli", "repro"],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert "match the golden corpus" in proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert time.monotonic() - started < 120
