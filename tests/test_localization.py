from fractions import Fraction

from adickit.finiterings import gf, zmod
from adickit.localization import (BinaryCovering, binary_covering,
                                  covering_check, gluing_sequence_check,
                                  joint_surjection_lift,
                                  rational_localization)
from adickit.poly import Poly
from adickit.tate import IntegerBase, TruncatedBlock, free_presentation


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


def _negative_controls(line):
    T = line.var("T")
    cov = binary_covering(line, T, line.const(2))
    controls = []
    # drop the defining relation of the first piece
    controls.append(BinaryCovering(
        cov.base_pres, cov.f, cov.g, line.extend(("u",), []), cov.loc_gf,
        cov.joint, cov.certificate))
    # corrupt the joint relation g*u - f into g*u
    n = cov.joint.nvars
    u = Poly.variable(1, n, Fraction(1))
    bad_joint = line.extend(("u", "v"),
                            [line.const(2).extend_vars(n) * u,
                             cov.joint.gens[1]])
    controls.append(BinaryCovering(
        cov.base_pres, cov.f, cov.g, cov.loc_fg, cov.loc_gf, bad_joint,
        cov.certificate))
    # drop one relation from the joint localization
    thin_joint = line.extend(("u", "v"), [cov.joint.gens[0]])
    controls.append(BinaryCovering(
        cov.base_pres, cov.f, cov.g, cov.loc_fg, cov.loc_gf, thin_joint,
        cov.certificate))
    return controls


def test_gluing_negative_controls(line):
    for cov in _negative_controls(line):
        report = gluing_sequence_check(cov, 5, 5)
        assert not report.all_exact()
        # never a false "exact": at least one clause fails outright
        assert "failed" in (report.left, report.middle, report.right)


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


def _scratch_multiples(block, form, monomials):
    """The from-scratch loop that the incremental block coordinates
    replaced: one normal form per monomial and coefficient."""
    one = block.pres.coeff_one()
    vectors = []
    for m in monomials:
        vec = {}
        for k, c in form.items():
            nf = block.pres.normal_form(c.mul_term(m, one))
            vec.update((block.offsets[k] + block.index[e], a)
                       for e, a in nf.terms.items())
        vectors.append(vec)
    return vectors


def test_monomial_coords_match_from_scratch(line):
    T = line.var("T")
    covs = [binary_covering(line, T, line.const(c)) for c in (1, 2)]
    covs += _negative_controls(line)
    for cov in covs:
        for pres in (cov.loc_fg, cov.joint):
            block = TruncatedBlock(pres, 7, shift=3)
            monos = [m + (0,) * (pres.nvars - cov.base_pres.nvars)
                     for m in cov.base_pres.staircase(7)]
            monos += list(reversed(block.monomials))
            one = {0: Poly.constant(Fraction(1), pres.nvars)}
            assert block.multiples(one, monos) == \
                _scratch_multiples(block, one, monos)


def test_gluing_check_matches_from_scratch_loop(line, monkeypatch):
    T = line.var("T")
    covs = [binary_covering(line, T, line.const(c)) for c in (1, 2)]
    covs += _negative_controls(line)
    reports = [gluing_sequence_check(cov, 5, 5) for cov in covs]
    monkeypatch.setattr(TruncatedBlock, "multiples", _scratch_multiples)
    # the reports compare their kernel and span dimensions too
    assert reports == [gluing_sequence_check(cov, 5, 5) for cov in covs]
