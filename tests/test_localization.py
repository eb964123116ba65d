import random
import re
from fractions import Fraction

import pytest

from adickit.finiterings import gf, zmod
from adickit.localization import (binary_covering, covering_check,
                                  gluing_sequence_check,
                                  joint_surjection_lift,
                                  rational_localization)
from adickit.poly import Poly, monomials_upto
from adickit.tate import IntegerBase, PresentationError, free_presentation

import corpus as fx
from test_differentials import kernel_of_map, span_in_low_block


def test_localization_shape(line):
    T = line.var("T")
    loc, incl = rational_localization(line, T, line.const(1))
    assert loc.varnames == ("T", "u")
    u = Poly.variable(1, 2, Fraction(1))
    assert loc.gens[-1] == u - T.extend_vars(2)
    assert incl.source == line


def test_localization_at_f_equals_g_preserves_points():
    # when f = g the covering assumption forces f to be a unit, u is pinned
    # to 1, and the localized point sets match the ambient ones
    from adickit.infinitesimal import point_set
    F5 = gf(5, 1)
    base = free_presentation(F5, ())
    B = base.extend(("T",), [])
    two = B.const(2)
    assert covering_check(B, two, two).status == "true"
    loc, _ = rational_localization(B, two, two)
    for ring in (F5, zmod(5)):
        ps_b = point_set(B, ring)
        ps_loc = point_set(loc, ring)
        assert len(ps_loc) == len(ps_b)
        assert all(pt[-1] == ring.one for pt in ps_loc.points)


def test_covering_certificates(line):
    T = line.var("T")
    cert = covering_check(line, T, line.const(1))
    assert cert.status == "true"
    assert cert.f_coeff.is_zero and cert.g_coeff == line.const(1)

    cert2 = covering_check(line, T, line.const(2))
    assert cert2.status == "true"
    # 1 = 0*T + (1/2)*2
    assert cert2.g_coeff == line.const(Fraction(1, 2))
    total = cert2.f_coeff * T + cert2.g_coeff * line.const(2)
    for c, g in zip(cert2.ideal_coeffs, line.gens):
        total = total + c * g
    assert total == line.const(1)

    cert3 = covering_check(line, T, T * T)
    assert cert3.status == "false"


def test_covering_over_integer_base():
    A = free_presentation(IntegerBase(), ("T",))
    T = A.var("T")
    assert covering_check(A, T, T + A.const(1)).status == "true"
    # 1 = (1/2)*2 is rational but not integral
    assert covering_check(A, T * A.const(0), A.const(2)).status == "inconclusive"


def test_gluing_exact_degenerate(line):
    T = line.var("T")
    cov = binary_covering(line, T, line.const(1))
    report = gluing_sequence_check(cov, 4, 4)
    assert report.all_exact()


def test_gluing_exact_f_T_g_2(line):
    T = line.var("T")
    cov = binary_covering(line, T, line.const(2))
    report = gluing_sequence_check(cov, 6, 6)
    assert (report.left, report.middle, report.right) == ("exact",) * 3
    assert report.to_json() == {"left": "exact", "middle": "exact",
                                "right": "exact", "degree_cap": 6,
                                "precision": 6}


def test_gluing_requires_covering(line):
    # (T, T^2) does not generate the unit ideal; the covering records it,
    # and `glue-check` refuses to go on
    T = line.var("T")
    assert binary_covering(line, T, T * T).certificate.status == "false"


def test_gluing_check_is_inconclusive_without_a_valid_certificate(line):
    # (T, T^2) has no certificate; for (T, 2) the coefficients a = 0, b = 1
    # are no certificate either: g*(a*u + b) = 2 in B<f/g>
    T = line.var("T")
    cov = binary_covering(line, T, T * T)
    forged = binary_covering(line, T, line.const(2))
    forged.certificate.g_coeff = line.const(1)
    for c in (cov, forged):
        report = gluing_sequence_check(c, 4, 4)
        assert (report.left, report.middle, report.right) == \
            ("inconclusive",) * 3


def test_gluing_check_rejects_a_negative_cap(line):
    # a negative cap is an error, not the degree-0 staircase
    cov = binary_covering(line, line.var("T") + line.const(3), line.const(2))
    with pytest.raises(PresentationError, match="negative degree cap -1"):
        gluing_sequence_check(cov, -1, 6)
    assert gluing_sequence_check(cov, 0, 6).all_exact()



@pytest.mark.parametrize("base, pieces, error", [
    ("ZZ", "(T) (1 - T)", "PresentationError: normal forms over the integer"
     " base are not supported; use point functors at 2:1"),
    ("Zmod(4)", "(T) (1)", "PresentationError: finite-base presentation"
     " needs one pure-power leading monomial per variable at 2:1"),
    ("GF(3)", "(T) (1 - T)",
     "PresentationError: joint lifting needs a p-adic base at 2:1")],
    ids=["ZZ", "Zmod(4)", "GF(3)"])
def test_glue_check_error_reports_off_the_p_adic_base(base, pieces, error):
    from adickit.cli import Options, parse_script, run_script
    script = f"A = Tate({base}, [T]);\nglue-check A {pieces};\n"
    out = run_script(parse_script(script), Options())
    assert out.exit_code != 0
    assert [r.get("error") for r in out.reports] == [error]

def test_joint_lift_rejects_a_negative_cap(line):
    cov = binary_covering(line, line.var("T"), line.const(2))
    with pytest.raises(PresentationError, match="negative degree cap -1"):
        joint_surjection_lift(cov, [], [], over=line, degree_cap=-1)
    assert joint_surjection_lift(cov, [], [], over=line,
                                 degree_cap=0).status == "certified"


def test_gluing_negative_controls(line):
    # the covering identity holds in the first two controls: only the check
    # that each piece is the presentation binary_covering builds refuses them
    controls = fx.gluing_negative_controls(line)
    assert len(controls) == 4
    for _, piece, cov in controls:
        with pytest.raises(PresentationError,
                           match=re.escape(f"covering piece {piece} is ")):
            gluing_sequence_check(cov, 5, 5)


def test_joint_lift_trivial(line):
    T = line.var("T")
    cov = binary_covering(line, T, line.const(2))
    res = joint_surjection_lift(cov, [], [], over=line)
    assert res.status == "certified" and res.count == 0


def test_joint_lift_one_generator(q2):
    A = free_presentation(q2, ("T",))
    T = A.var("T")
    B, _ = rational_localization(A, T, A.const(2), "w")
    cov = binary_covering(B, B.var("T"), B.const(2))
    w1 = B.var("w").extend_vars(cov.loc_fg.nvars)
    w2 = B.var("w").extend_vars(cov.loc_gf.nvars)
    res = joint_surjection_lift(cov, [w1], [w2], over=A)
    assert res.status == "certified"
    assert res.count == 1
    assert res.generators[0] == B.var("w")


def test_joint_lift_bound(q2):
    # two single-generator inputs patch into at most two joint generators
    A = free_presentation(q2, ("T",))
    T = A.var("T")
    B, _ = rational_localization(A, T, A.const(2), "w")
    cov = binary_covering(B, B.var("T") + B.const(1), B.const(1))
    w1 = B.var("w").extend_vars(cov.loc_fg.nvars)
    half_T = (B.var("T").scale(Fraction(1, 2))).extend_vars(cov.loc_gf.nvars)
    res = joint_surjection_lift(cov, [w1], [half_T], over=A)
    assert res.status == "certified"
    assert res.count <= 2


def test_mayer_vietoris_point_counts():
    # |X(R)| = |X1(R)| + |X2(R)| - |X12(R)| over every finite test ring,
    # cross-checked against the infinitesimal module
    from adickit.infinitesimal import point_set
    A = free_presentation(IntegerBase(), ("T",))
    T = A.var("T")
    f, g = T, T + A.const(1)
    assert covering_check(A, f, g).status == "true"
    cov = binary_covering(A, f, g)
    for ring in (gf(2, 1), zmod(4), gf(3, 1), zmod(9)):
        n_total = len(point_set(A, ring))
        n1 = len(point_set(cov.loc_fg, ring))
        n2 = len(point_set(cov.loc_gf, ring))
        n12 = len(point_set(cov.joint, ring))
        assert n_total == n1 + n2 - n12
        # the pieces really embed: localized points restrict injectively
        restrict = lambda ps: {tuple(e.key() for e in pt[:A.nvars])
                               for pt in ps.points}
        assert len(restrict(point_set(cov.loc_fg, ring))) == n1
        assert len(restrict(point_set(cov.loc_gf, ring))) == n2


def test_localized_pieces_classify_etale(line):
    from adickit.differentials import classify_morphism
    T = line.var("T")
    for f, g in [(T, line.const(1)), (T, line.const(2)),
                 (T * T + line.const(1), T)]:
        cov = binary_covering(line, f, g)
        assert classify_morphism(cov.loc_fg).verdict == "etale"
        assert classify_morphism(cov.loc_gf).verdict == "etale"


def _truncated_gluing_reference(cov, cap, work):
    """The truncated-span check that the covering identity replaced, at one
    working degree and without a second one: whether (left, middle, right)
    hold on the degree <= cap coefficient spaces."""
    one = Fraction(1)

    def block(pres, degree):
        """The standard monomials of degree <= degree, and the coordinates
        on them of NF(m) for each exponent m in a list."""
        stairs = pres.staircase(degree)
        index = {m: i for i, m in enumerate(stairs)}

        def coords(monomials, shift=0, sign=1):
            return [{shift + index[e]: sign * c for e, c in pres.normal_form(
                Poly(pres.nvars, {m: one})).terms.items()}
                for m in monomials]
        return stairs, coords

    def blocks(degree):
        return [block(piece, degree)
                for piece in (cov.loc_fg, cov.loc_gf, cov.joint)]

    def alpha(T1, T2, degree):              # B -> B1 (+) B2
        (stairs1, coords1), (_, coords2) = T1, T2
        lifted = [m + (0,) for m in cov.base_pres.staircase(degree)]
        return [a | b for a, b in zip(coords1(lifted),
                                      coords2(lifted, len(stairs1)))]

    def beta(T1, T2, T12):                  # B1 (+) B2 -> B12
        (stairs1, _), (stairs2, _), (_, coords12) = T1, T2, T12
        return (coords12([m + (0,) for m in stairs1])
                + coords12([m[:-1] + (0, m[-1]) for m in stairs2], sign=-1))

    C1, C2, C12 = blocks(cap)
    widths = [len(C[0]) for C in (C1, C2, C12)]
    left = not kernel_of_map(alpha(C1, C2, cap), widths[0] + widths[1], one)
    # staircases are grevlex-ascending: the degree <= cap monomials are a
    # prefix of those of degree <= work
    W1, W2, W12 = blocks(work)
    low = list(range(widths[0])) + [len(W1[0]) + k for k in range(widths[1])]
    image = span_in_low_block(alpha(W1, W2, work), low,
                              len(W1[0]) + len(W2[0]), one)
    middle = all(image.contains(v) for v in
                 kernel_of_map(beta(C1, C2, C12), widths[2], one))
    image = span_in_low_block(beta(W1, W2, W12), list(range(widths[2])),
                              len(W12[0]), one)
    right = all(image.contains({k: one}) for k in range(widths[2]))
    return left, middle, right


def _drawn_coverings(q2, count):
    """Seeded (B, f, g, cap): B free in X or X, Y over Q_2, or the tower
    B[w]/(w^2 - X - 1); f of 1-3 terms of degree <= 3, g = 1 - a*f."""
    rng = random.Random(0)

    def draw(B, terms, degree):
        exps = rng.sample(monomials_upto(B.nvars, degree), terms)
        return Poly(B.nvars, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                          rng.choice((1, 1, 2)))
                              for e in exps})
    for _ in range(count):
        B = free_presentation(q2, ("X", "Y")[:rng.randint(1, 2)])
        if rng.random() < 0.3:
            n = B.nvars + 1
            w = Poly.variable(B.nvars, n, Fraction(1))
            B = B.extend(("w",), [w * w - B.var("X").extend_vars(n)
                                  - B.const(1).extend_vars(n)])
        f = draw(B, rng.randint(1, 3), 3)
        g = B.const(1) - draw(B, rng.randint(1, 2), 2) * f
        yield B, f, g, rng.randint(2, 4)


def test_gluing_check_agrees_with_the_truncated_spans_on_drawn_coverings(q2):
    for B, f, g, cap in _drawn_coverings(q2, 60):
        cov = binary_covering(B, f, g)
        assert cov.certificate.status == "true"
        assert gluing_sequence_check(cov, cap, 6).all_exact()
        assert _truncated_gluing_reference(cov, cap, cap + 3) == \
            (True, True, True)
        # the right clause read off the staircase: u*v = 1, so no standard
        # monomial of B<f/g, g/f> holds both u and v
        assert not any(m[-2] and m[-1] for m in cov.joint.staircase(cap))
