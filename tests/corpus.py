"""Shared fixture corpora for the acceptance suite."""

from fractions import Fraction

from adickit.finiterings import (dual_numbers, fp_quotient, gf, product_ring,
                                 zmod)
from adickit.localization import rational_localization
from adickit.poly import Poly
from adickit.tate import (IntegerBase, QpBase, RingPresentation,
                          free_presentation)

Q2 = QpBase(2, 8)
Q3 = QpBase(3, 8)
Q5 = QpBase(5, 8)


def qp_pres(base, names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: Fraction(c) for e, c in d.items()}) for d in gen_dicts]
    return RingPresentation(base, tuple(names), gens)


def ring_pres(ring, names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: ring.from_int(c) for e, c in d.items()})
            for d in gen_dicts]
    parent = free_presentation(ring, ())
    return parent.extend(tuple(names), gens)


def z_pres(names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: Fraction(c) for e, c in d.items()}) for d in gen_dicts]
    parent = free_presentation(IntegerBase(), ())
    return parent.extend(tuple(names), gens)


def classifier_fixtures():
    """(label, presentation, expected verdict) over p-adic bases."""
    A = free_presentation(Q2, ("T",))
    T = A.var("T")
    fixtures = []
    # rational localizations: every piece must come out etale
    for label, f, g in [
        ("loc(T,1)", T, A.const(1)),
        ("loc(T,2)", T, A.const(2)),
        ("loc(T^2+1,T)", T * T + A.const(1), T),
        ("loc(T,T+2)", T, T + A.const(2)),
    ]:
        loc, _ = rational_localization(A, f, g)
        fixtures.append((label, loc, "etale"))
    # finite etale monic quotients with unit discriminant
    fixtures.append(("T^2-T/Q2",
                     qp_pres(Q2, ("T",), [{(2,): 1, (1,): -1}]), "etale"))
    fixtures.append(("T^2+T+1/Q2",
                     qp_pres(Q2, ("T",), [{(2,): 1, (1,): 1, (0,): 1}]),
                     "etale"))
    fixtures.append(("T^3-T/Q5",
                     qp_pres(Q5, ("T",), [{(3,): 1, (1,): -1}]), "etale"))
    fixtures.append(("T^2-T/Q3",
                     qp_pres(Q3, ("T",), [{(2,): 1, (1,): -1}]), "etale"))
    # the nilpotent fiber
    fixtures.append(("T^2/Q2", qp_pres(Q2, ("T",), [{(2,): 1}]), "none"))
    fixtures.append(("T^2/Q3", qp_pres(Q3, ("T",), [{(2,): 1}]), "none"))
    # zero-ideal Tate extensions
    fixtures.append(("free T", free_presentation(Q2, ("T",)), "lisse"))
    fixtures.append(("free X,Y", free_presentation(Q2, ("X", "Y")), "lisse"))
    fixtures.append(("A<T> ext S", A.extend(("S",), []), "lisse"))
    return fixtures


def char2_rings():
    F2 = gf(2, 1)
    return [F2, dual_numbers(2),
            fp_quotient(2, ("x",), [Poly(1, {(3,): F2.one})]),
            fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})]),
            product_ring(F2, F2), gf(2, 2)]


def char3_rings():
    F3 = gf(3, 1)
    return [F3, dual_numbers(3),
            fp_quotient(3, ("x",), [Poly(1, {(3,): F3.one})]),
            fp_quotient(3, ("x",), [Poly(1, {(4,): F3.one})]),
            product_ring(F3, F3), gf(3, 2)]


def mod4_rings():
    F2 = gf(2, 1)
    return [zmod(4), zmod(2), dual_numbers(2),
            fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})]),
            product_ring(F2, F2), product_ring(zmod(4), F2)]


def mod9_rings():
    F3 = gf(3, 1)
    return [zmod(9), zmod(3), dual_numbers(3),
            fp_quotient(3, ("x",), [Poly(1, {(3,): F3.one})]),
            product_ring(F3, F3), product_ring(zmod(9), F3)]


def gluing_negative_controls(line):
    """Coverings of (T, 2) with one corrupted piece, as (label, the piece's
    name in the gluing check's refusal, covering).  The covering identity
    alone holds in the first two, so only the piece check refuses them."""
    from adickit.localization import BinaryCovering, binary_covering
    T = line.var("T")
    cov = binary_covering(line, T, line.const(2))

    def corrupted(loc_fg=cov.loc_fg, joint=cov.joint):
        return BinaryCovering(cov.base_pres, cov.f, cov.g, loc_fg,
                              cov.loc_gf, joint, cov.certificate)
    u = Poly.variable(1, 2, Fraction(1))
    n = cov.joint.nvars
    bad_joint = line.extend(("u", "v"),
                            [line.const(2).extend_vars(n) * u.extend_vars(n),
                             cov.joint.gens[1]])
    return [
        ("free first piece", "B<f/g>", corrupted(loc_fg=line.extend(
            ("u",), []))),
        ("first piece with the extra relation u", "B<f/g>", corrupted(
            loc_fg=line.extend(("u",), [cov.loc_fg.gens[-1], u]))),
        ("corrupted joint relation", "B<f/g, g/f>", corrupted(
            joint=bad_joint)),
        ("joint missing a relation", "B<f/g, g/f>", corrupted(
            joint=line.extend(("u", "v"), [cov.joint.gens[0]])))]


def shared_oracle_corpus():
    """(label, presentation-or-morphism, 6 admissible test rings) pairs used
    for the Jacobian-vs-lifting cross-check."""
    F2, F3 = gf(2, 1), gf(3, 1)
    Z4, Z9 = zmod(4), zmod(9)
    entries = []
    entries.append(("F2:T^2-T", ring_pres(F2, ("T",), [{(2,): 1, (1,): 1}]),
                    char2_rings()))
    entries.append(("F2:T^2", ring_pres(F2, ("T",), [{(2,): 1}]),
                    char2_rings()))
    entries.append(("F2:T", ring_pres(F2, ("T",), [{(1,): 1}]),
                    char2_rings()))
    entries.append(("F2:free", free_presentation(F2, ()).extend(("T",), []),
                    char2_rings()))
    entries.append(("F2:T^2+T+1",
                    ring_pres(F2, ("T",), [{(2,): 1, (1,): 1, (0,): 1}]),
                    char2_rings()))
    entries.append(("F2:2var idem",
                    ring_pres(F2, ("S", "T"),
                              [{(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (0, 1): 1}]),
                    char2_rings()))
    entries.append(("F3:T^2-1", ring_pres(F3, ("T",), [{(2,): 1, (0,): -1}]),
                    char3_rings()))
    entries.append(("F3:T^3", ring_pres(F3, ("T",), [{(3,): 1}]),
                    char3_rings()))
    entries.append(("F3:free", free_presentation(F3, ()).extend(("T",), []),
                    char3_rings()))
    entries.append(("F3:T^2-T", ring_pres(F3, ("T",), [{(2,): 1, (1,): -1}]),
                    char3_rings()))
    entries.append(("Z4:T^2-T", ring_pres(Z4, ("T",), [{(2,): 1, (1,): -1}]),
                    mod4_rings()))
    entries.append(("Z4:T^2", ring_pres(Z4, ("T",), [{(2,): 1}]),
                    mod4_rings()))
    entries.append(("Z9:T^2-1", ring_pres(Z9, ("T",), [{(2,): 1, (0,): -1}]),
                    mod9_rings()))
    # a non-ramifie-but-not-etale fixture: a quotient by a free variable
    base = free_presentation(F2, ())
    A = base.extend(("S",), [])
    B = A.extend((), [Poly(1, {(1,): F2.one})])
    entries.append(("F2:A/(S) over A", B, char2_rings()))
    return entries


# the Qp(2, 8) presentations of the benchmark's `jacobian` workload, with the
# seed's sign flips and variable names fixed
JACOBIAN_DECLARATIONS = """
Q = Qp(2, 8);
A1 = Tate(Q, [T]);
A2 = Tate(Q, [X, Y]);
B1 = Quot(A1, [u], [u^2 + u - 1]);
B2 = Quot(A2, [u, v], [u^2 + u + 1, v^2 + v - 1]);
D2 = Quot(A2, [u], [u^2 + u + 1]);
C1 = Quot(B1, [w], [w^2 + w + 1]);
L1 = Loc(A1, T^2 + T + 3, 4);
KD = Quot(A1, [u], [u^2 - u - 2*T]);
"""


def script_names(text: str) -> dict:
    """The values an `adic-kit run` script declares, by name."""
    from adickit.cli import Declaration, Options, Session, parse_script
    session = Session(Options())
    for item in parse_script(text).items:
        if isinstance(item, Declaration):
            session.declare(item)
    return session.env


def jacobian_presentations() -> dict:
    return script_names(JACOBIAN_DECLARATIONS)


# coefficients of the seeded random presentations below
RANDOM_COEFFS = (-3, -2, -1, 1, 2, 3, 4, 8)
# draws whose 1-forms' tagged ideal takes Buchberger more than 5 s each
# without the sugar queue and the chain criterion, and 0.05-0.35 s with
# them, on one core of a 2-vCPU container
SLOW_DRAWS = (10, 27, 29, 31, 50)


def random_plane_presentations(count: int) -> list:
    """The first `count` of a seeded family: one or two relations in X, Y
    over Q_2 at D = 3, each of two to four terms with exponents 0..4 and
    coefficients from RANDOM_COEFFS."""
    import random
    rng = random.Random(7)
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                terms[(rng.randint(0, 4), rng.randint(0, 4))] = \
                    Fraction(rng.choice(RANDOM_COEFFS))
            gens.append(Poly(2, terms))
        out.append(RingPresentation(Q2, ("X", "Y"), gens, 3))
    return out
