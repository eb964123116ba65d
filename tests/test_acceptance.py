"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction

from adickit.differentials import (classify_morphism, de_rham_complex,
                                   etale_integration, kahler_differentials)
from adickit.finiterings import dual_numbers, gf, zmod
from adickit.groebner import normal_form
from adickit.infinitesimal import classify_lifting
from adickit.localization import binary_covering, gluing_sequence_check
from adickit.poly import Poly, monomials_upto
from adickit.tate import (IntegerBase, MorphismPresentation,
                          PresentationError, base_change,
                          compose_presentations, free_presentation)
from adickit.wittrobba import (CharPNormedRing, RobbaElement, WittVector,
                               frobenius_witt, interval_norm, phi_action,
                               robba_norm, verschiebung, witt_add)

import corpus as fx


def witt_int_mul(k: int, a: WittVector) -> WittVector:
    """k * a as the k-fold Witt sum a + ... + a."""
    total = a
    for _ in range(k - 1):
        total = witt_add(total, a)
    return total


def _report(number: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


# -- 1. classifier soundness -----------------------------------------------------

def test_criterion_1_classifier_soundness():
    fixtures = fx.classifier_fixtures()
    assert len(fixtures) >= 12
    start = time.monotonic()
    failures = []
    for label, pres, expected in fixtures:
        got = classify_morphism(pres).verdict
        if got != expected:
            failures.append(f"{label}: expected {expected}, got {got}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    _report(1, "classifier soundness on the fixture corpus", ok,
            f"{len(fixtures)} fixtures in {elapsed:.2f}s"
            + ("; " + "; ".join(failures) if failures else ""))


# -- 2. oracle equivalence --------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    entries = fx.shared_oracle_corpus()
    assert len(entries) >= 10
    assert all(len(rings) == 6 for _, _, rings in entries)
    violations = []
    for label, pres, rings in entries:
        jac = classify_morphism(pres).verdict
        lift = classify_lifting(pres, rings, "dR").verdict
        if (jac == "etale") != (lift == "etale"):
            violations.append(f"{label}: jacobian {jac} vs lifting {lift}")
        if jac in ("etale", "lisse") and lift not in ("etale", "lisse"):
            violations.append(f"{label}: lisse verdict not surjective ({lift})")
        if jac in ("etale", "non_ramifie") and \
                lift not in ("etale", "non_ramifie"):
            violations.append(f"{label}: non-ramifie verdict not injective "
                              f"({lift})")
    _report(2, "Jacobian route agrees with the dR lifting route",
            not violations,
            f"{len(entries)} presentations x 6 rings"
            + ("; " + "; ".join(violations) if violations else ""))


# -- 3. gluing exactness -----------------------------------------------------------

def test_criterion_3_gluing_exactness():
    line = free_presentation(fx.Q2, ("T",))
    T = line.var("T")
    genuine = [(T, line.const(1)), (T, line.const(2)),
               (T, T + line.const(2)), (T * T + line.const(1), T)]
    failures = []
    for f, g in genuine:
        cov = binary_covering(line, f, g)
        rep = gluing_sequence_check(cov, 6, 6)
        if not rep.all_exact():
            failures.append(f"genuine covering reported {rep.to_json()}")
    controls = fx.gluing_negative_controls(line)
    assert len(controls) >= 4
    for label, piece, cov in controls:
        try:
            rep = gluing_sequence_check(cov, 6, 6)
        except PresentationError as exc:
            if f"covering piece {piece} is " not in str(exc):
                failures.append(f"control {label} refused for: {exc}")
        else:
            failures.append(f"control not refused: {label}, "
                            f"reported {rep.to_json()}")
    _report(3, "gluing sequence exact on coverings, refused on controls",
            not failures,
            f"{len(genuine)} coverings, {len(controls)} controls"
            + ("; " + "; ".join(failures) if failures else ""))


# -- 4. closure properties ----------------------------------------------------------

def _etale_floors_over(A):
    """Etale extensions of A: localizations and constant-discriminant monic
    quadratics."""
    from adickit.localization import rational_localization
    T0 = A.var(A.varnames[0]) if A.varnames else None
    floors = []
    if T0 is not None:
        floors.append(rational_localization(A, T0, A.const(1))[0])
        floors.append(rational_localization(A, T0, A.const(2))[0])
        floors.append(rational_localization(A, T0 * T0 + A.const(1), T0)[0])
    n = A.nvars + 1
    one = Fraction(1)
    u = Poly.variable(n - 1, n, one)
    floors.append(A.extend((A.fresh_varname("q"),), [u * u - u]))
    floors.append(A.extend((A.fresh_varname("q"),),
                           [u * u + u + Poly.constant(one, n)]))
    return floors


def test_criterion_4_closure_properties():
    violations = []

    # composition closure, Jacobian route, over Q_2
    A = free_presentation(fx.Q2, ("T",))
    pairs = 0
    for B in _etale_floors_over(A):
        f = MorphismPresentation.inclusion(A, B)
        if classify_morphism(f).verdict != "etale":
            violations.append(f"floor not etale: {B.describe()}")
            continue
        for C in _etale_floors_over(B):
            g = MorphismPresentation.inclusion(B, C)
            pairs += 1
            if classify_morphism(g).verdict != "etale":
                violations.append(f"second floor not etale: {C.describe()}")
                continue
            comp = compose_presentations(f, g)
            if classify_morphism(comp).verdict != "etale":
                violations.append(
                    f"composition broke etale: {C.describe()}")

    # composition closure, lifting route, over finite bases
    corpus2 = [gf(2, 1), zmod(4), dual_numbers(2)]
    base = free_presentation(IntegerBase(), ())
    towers = [
        {(2,): 1, (1,): -1},
        {(1,): 1},
    ]
    for d1 in towers:
        A1 = base.extend(("a",), [Poly(1, {e: Fraction(c)
                                           for e, c in d1.items()})])
        for d2 in towers:
            shifted = {(0,) + e: Fraction(c) for e, c in d2.items()}
            B1 = A1.extend(("b",), [Poly(2, shifted)])
            f = MorphismPresentation.inclusion(base, A1)
            g = MorphismPresentation.inclusion(A1, B1)
            comp = compose_presentations(f, g)
            pairs += 1
            for mode in ("dR", "crys"):
                vf = classify_lifting(f, corpus2, mode).verdict
                vg = classify_lifting(g, corpus2, mode).verdict
                vc = classify_lifting(comp, corpus2, mode).verdict
                if vf == "etale" and vg == "etale" and vc != "etale":
                    violations.append(f"lifting composition broke etale "
                                      f"({mode}): {vc}")

    # base-change closure, both routes
    changes = 0
    A0 = free_presentation(fx.Q2, ())
    etale_over_A0 = [
        A0.extend(("T",), [Poly(1, {(2,): Fraction(1), (1,): Fraction(-1)})]),
        A0.extend(("T",), [Poly(1, {(2,): Fraction(1), (1,): Fraction(1),
                                    (0,): Fraction(1)})]),
    ]
    targets = [free_presentation(fx.Q2, ("S",)),
               free_presentation(fx.Q2, ("S1", "S2")),
               free_presentation(fx.Q2, ("S1", "S2", "S3")),
               free_presentation(fx.Q2, ()).extend(
                   ("S",), [Poly(1, {(2,): Fraction(1), (1,): Fraction(-1)})])]
    for B in etale_over_A0:
        assert classify_morphism(B).verdict == "etale"
        for Ap in targets:
            phi = MorphismPresentation(A0, Ap, [])
            pushed = base_change(B, phi)
            changes += 1
            if classify_morphism(pushed).verdict != "etale":
                violations.append(
                    f"base change broke etale over {Ap.describe()}")
    zbase = free_presentation(IntegerBase(), ())
    z_etale = zbase.extend(("T",),
                           [Poly(1, {(2,): Fraction(1), (1,): Fraction(-1)})])
    z_targets = [free_presentation(IntegerBase(), ("S",)),
                 free_presentation(IntegerBase(), ("S1", "S2")),
                 zbase.extend(("S",), [Poly(1, {(2,): Fraction(1),
                                                (1,): Fraction(-1)})])]
    for Ap in z_targets:
        phi = MorphismPresentation(zbase, Ap, [])
        pushed = base_change(z_etale, phi)
        changes += 1
        for mode in ("dR", "crys"):
            if classify_lifting(pushed, corpus2, mode).verdict != "etale":
                violations.append(f"lifting base change broke etale ({mode})")

    # dR-etale implies crys-etale on the full shared corpus
    for label, pres, rings in fx.shared_oracle_corpus():
        if classify_lifting(pres, rings, "dR").verdict == "etale":
            if classify_lifting(pres, rings, "crys").verdict != "etale":
                violations.append(f"dR etale but not crys etale: {label}")

    ok = not violations and pairs >= 20 and changes >= 10
    _report(4, "etale closed under composition and base change; dR => crys",
            ok, f"{pairs} composable pairs, {changes} base changes"
            + ("; " + "; ".join(violations) if violations else ""))


# -- 5. de Rham complexes -------------------------------------------------------------

def test_criterion_5_de_rham():
    violations = []
    for label, pres, expected in fx.classifier_fixtures():
        cx = de_rham_complex(pres, 3)
        inner = cx.data.pres
        for k in range(2):
            for subset in cx.generators[k]:
                for m in monomials_upto(inner.nvars, 2):
                    form = {subset: Poly(inner.nvars, {m: inner.coeff_one()},
                                         normalize=False)}
                    dd = cx.form_d(cx.form_d(form))
                    if dd and not cx.is_zero_form(dd):
                        violations.append(f"d^2 != 0 on {label}")
        if expected == "etale":
            # Omega = 0 iff its Fitting ideal Fitt_0 is (1)
            if kahler_differentials(pres).fitting_status()[0] != "unit":
                violations.append(f"etale fixture with nonzero "
                                  f"differentials: {label}")
            if cx.truncated_ranks.get(1) != 0:
                violations.append(f"etale fixture with nonzero Omega^1 "
                                  f"rank: {label}")
    _report(5, "d o d = 0 everywhere; Omega^1 = 0 on etale fixtures",
            not violations, "; ".join(violations))


# -- 6. Witt arithmetic ----------------------------------------------------------------

def test_criterion_6_witt_arithmetic():
    F2, F4 = gf(2, 1), gf(2, 2)
    violations = []

    def iso(w):
        c0, c1 = w.coords[0].coords[0], w.coords[1].coords[0]
        return (c0 * c0 + 2 * c1) % 4

    elems = [WittVector(2, (x, y), F2)
             for x in (F2.zero, F2.one) for y in (F2.zero, F2.one)]
    if sorted(iso(w) for w in elems) != [0, 1, 2, 3]:
        violations.append("ghost bijection is not onto Z/4")
    one = WittVector(2, (F2.one, F2.zero), F2)
    if witt_add(one, one).coords != (F2.zero, F2.one):
        violations.append("(1,0)+(1,0) != (0,1)")
    entries = 0
    for a in elems:
        for b in elems:
            entries += 1
            if iso(witt_add(a, b)) != (iso(a) + iso(b)) % 4:
                violations.append(f"addition table mismatch at {a},{b}")
    assert entries == 16

    for w in elems:
        if frobenius_witt(verschiebung(w)).coords != witt_int_mul(2, w).coords:
            violations.append(f"F(V(a)) != 2a at {w}")

    rng = random.Random(2024)
    for ring, n in ((F2, 3), (F4, 2)):
        els = sorted(ring.elements(), key=lambda e: e.key())
        for _ in range(100):
            w = WittVector(2, tuple(rng.choice(els) for _ in range(n)), ring)
            if frobenius_witt(verschiebung(w)).coords != \
                    witt_int_mul(2, w).coords:
                violations.append(f"sampled F(V(a)) != 2a at {w}")
    _report(6, "W_2(F_2) is Z/4 through ghosts; F o V = p", not violations,
            "; ".join(violations))


# -- 7. Robba norms ----------------------------------------------------------------------

def test_criterion_7_robba_norms():
    violations = []
    rng = random.Random(77)
    rs = (Fraction(1, 2), Fraction(1), Fraction(2))
    checked = 0
    for p in (2, 3):
        ring = CharPNormedRing(p)
        for _ in range(30):
            # dominant zeroth digit makes multiplicativity exact
            digits = [ring.element({Fraction(0): 1,
                                    Fraction(rng.randint(1, 2 * p), p):
                                    rng.randint(0, p - 1)}),
                      ring.element({Fraction(rng.randint(0, 2 * p), p):
                                    rng.randint(0, p - 1)})]
            f = RobbaElement(ring, tuple(digits))
            g = RobbaElement(ring, tuple(reversed(digits)))
            prod = f * g
            checked += 1
            for r in rs:
                if robba_norm(prod, r) != robba_norm(f, r) * robba_norm(g, r):
                    violations.append(f"multiplicativity failed at p={p} r={r}")
                if robba_norm(phi_action(f), r) != robba_norm(f, p * r):
                    violations.append(f"phi scaling failed at p={p} r={r}")
                if interval_norm(f, r, r) != robba_norm(f, r):
                    violations.append(f"interval collapse failed at p={p} r={r}")
    ok = not violations and checked >= 50
    _report(7, "norm multiplicativity, phi scaling, interval collapse", ok,
            f"{checked} elements" + ("; " + "; ".join(violations)
                                     if violations else ""))


# -- 8. the integration primitive ----------------------------------------------------------

def test_criterion_8_integration():
    violations = []
    rng = random.Random(5)
    count = 0
    for p in (2, 3):
        for _ in range(12):
            omega = Poly(1, {(i,): Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5))
                             for i in range(rng.randint(1, 7))})
            f = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3)))
            res = etale_integration(omega, f, prime=p)
            h = res.primitive
            count += 1
            if h.derivative(0) != omega:
                violations.append(f"dh != omega for {omega}")
            if h.evaluate([f], lambda c: c, Fraction(0)):
                violations.append(f"h({f}) != 0 for {omega}")
            t_minus_f = Poly(1, {(1,): Fraction(1), (0,): -f})
            if not normal_form(h, [t_minus_f]).is_zero:
                violations.append(f"h not in (T - f) for {omega}")
            expected_flags = sorted(
                f"precision_loss_at_degree_{i}"
                for (i,), c in omega.terms.items() if (i + 1) % p == 0)
            if sorted(res.flags) != expected_flags:
                violations.append("precision-loss flags wrong")
    # the kernel witness (T-f)^2/2
    fpt = Fraction(2)
    omega = Poly(1, {(1,): Fraction(1), (0,): -fpt})
    res = etale_integration(omega, fpt, prime=2)
    square = Poly(1, {(1,): Fraction(1), (0,): -fpt})
    if res.primitive != (square * square).scale(Fraction(1, 2)):
        violations.append("kernel witness (T-f)^2/2 not reproduced")
    ok = not violations and count >= 20
    _report(8, "integration primitive: dh = omega, h(f) = 0, kernel witness",
            ok, f"{count} random forms" + ("; " + "; ".join(violations)
                                           if violations else ""))


# -- 9. determinism and round-trip -----------------------------------------------------------

def test_criterion_9_determinism_and_roundtrip():
    from adickit.cli import Options, parse_script, render_reports, run_script
    from test_cli import FIXTURE_SCRIPT, SMOKE, print_script, scripts_equal

    scripts = [SMOKE, FIXTURE_SCRIPT,
               "A = Tate(Qp(3,6), [T]); classify A; drham A top=1;"]
    violations = []
    for text in scripts:
        ast = parse_script(text)
        if not scripts_equal(ast, parse_script(print_script(ast))):
            violations.append("print/parse fixpoint failed")
        a = render_reports(run_script(ast, Options()).reports)
        b = render_reports(run_script(parse_script(text), Options()).reports)
        if a != b:
            violations.append("reports are not byte-identical")
    _report(9, "byte-identical reports and parse/print fixpoint",
            not violations, f"{len(scripts)} scripts"
            + ("; " + "; ".join(violations) if violations else ""))
