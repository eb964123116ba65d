import time
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from adickit.finiterings import (TABLE_CAP, canonical_scalar_map,
                                 dual_numbers, fp_quotient, gf,
                                 ideal_generated, nilradical, product_ring,
                                 quotient_ring, zmod)
from adickit.infinitesimal import (PDStructure, classify_lifting,
                                   completed_points, default_corpus,
                                   enumerate_nilpotent_ideals,
                                   enumerate_pd_structures, point_set)
from adickit.poly import Poly
from adickit.tate import (IntegerBase, MorphismPresentation,
                          PresentationError, RingPresentation,
                          free_presentation)

F2 = gf(2, 1)


def fp_pres(field, names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: field.from_int(c) for e, c in d.items()})
            for d in gen_dicts]
    return RingPresentation(field, tuple(names), gens)


def z_pres(names, gen_dicts):
    n = len(names)
    gens = [Poly(n, {e: Fraction(c) for e, c in d.items()}) for d in gen_dicts]
    return RingPresentation(IntegerBase(), tuple(names), gens)


IDEM_F2 = fp_pres(F2, ("T",), [{(2,): 1, (1,): 1}])     # T^2 - T in char 2
NILP_F2 = fp_pres(F2, ("T",), [{(2,): 1}])              # T^2
IDEM_Z = z_pres(("T",), [{(2,): 1, (1,): -1}])
NILP_Z = z_pres(("T",), [{(2,): 1}])
LIFTING_FIXTURES = [IDEM_Z, NILP_Z, z_pres(("T",), [{(1,): 1}]),
                    z_pres(("T", "S"), [{(2, 0): 1, (1, 0): -1},
                                        {(0, 2): 1, (0, 1): -1}])]


def keys(ps) -> list:
    """The points of a point set as tuples of element keys."""
    return [tuple(e.key() for e in pt) for pt in ps.points]


def test_point_set_idempotents():
    ps = point_set(IDEM_F2, F2)
    assert len(ps) == 2
    assert keys(ps) == [((0,),), ((1,),)]


def test_point_set_nilpotents():
    assert len(point_set(NILP_F2, F2)) == 1
    D = dual_numbers(2)
    assert len(point_set(NILP_F2, D)) == 2  # 0 and eps


def test_de_rham_point_set_collapses_nilpotents():
    D = dual_numbers(2)
    assert len(completed_points(NILP_F2, D, "dR")) == 1
    # reduced rings are untouched
    assert len(completed_points(IDEM_F2, F2, "dR")) == \
        len(point_set(IDEM_F2, F2))


def test_de_rham_equals_points_on_reduced_rings():
    reduced = [F2, gf(3, 1), gf(2, 2), product_ring(F2, F2)]
    fixtures = [IDEM_Z, NILP_Z, z_pres(("T",), [{(1,): 1}])]
    for ring in reduced:
        assert nilradical(ring) == frozenset({ring.zero})
        for pres in fixtures:
            assert [pts.points for _, _, _, pts in
                    completed_points(pres, ring, "dR").index] == \
                [point_set(pres, ring).points]


def test_de_rham_point_set_z4():
    ps = point_set(IDEM_Z, zmod(4))
    dr = completed_points(IDEM_Z, zmod(4), "dR")
    assert len(ps) == 2 and len(dr) == 2  # unique lifts of 0 and 1


def test_de_rham_classes_are_the_points_over_the_reduction():
    # every node of a class reduces to one point over R/Nil(R), and the
    # classes meet the oracle's points, over a copy of R/Nil(R) built apart
    # from the levels, one to one
    for ring in default_corpus(2) + default_corpus(3):
        red, project, _ = quotient_ring(ring, nilradical(ring), name="oracle")
        for pres in LIFTING_FIXTURES:
            dr = completed_points(pres, ring, "dR")
            reductions: dict = {}
            for i, (_, _, (_, _, lift), pts) in enumerate(dr.index):
                for pt in pts.points:
                    reductions.setdefault(dr.class_of(i, pt), set()).add(
                        tuple(project(lift(e)).key() for e in pt))
            assert len(reductions) == len(dr)
            assert all(len(v) == 1 for v in reductions.values())
            assert sorted(min(v) for v in reductions.values()) == \
                keys(point_set(pres, red)), (ring.name, pres.gens)


def test_zero_level_is_the_point_set_in_both_modes():
    for ring in default_corpus(2) + default_corpus(3):
        for pres in LIFTING_FIXTURES:
            points = point_set(pres, ring).points
            for mode in ("dR", "crys"):
                ideal, pd, (quot, _, _), pts = \
                    completed_points(pres, ring, mode).index[0]
                assert ideal == frozenset({ring.zero}) and quot is ring
                assert (pd is None) == (mode == "dR")
                assert pts.points == points, (ring.name, mode)


def test_point_search_cap():
    big = z_pres(tuple(f"x{i}" for i in range(12)), [])
    with pytest.raises(PresentationError, match="exceeds the cap"):
        point_set(big, zmod(4))


def _brute_force_keys(pres, ring):
    """The exhaustive sweep over |R|^n candidates that the staged search
    replaced, as the reference."""
    coeff = canonical_scalar_map(None, ring)
    elems = sorted(ring.elements(), key=lambda e: e.key())
    points = [pt for pt in iproduct(elems, repeat=pres.nvars)
              if not any(g.evaluate(list(pt), coeff, ring.zero)
                         for g in pres.gens)]
    points.sort(key=lambda pt: tuple(e.key() for e in pt))
    return [tuple(e.key() for e in pt) for pt in points]


def test_point_set_matches_brute_force():
    # zmod(512) and F_2[x]/(x^9) lie above TABLE_CAP, so they take the
    # element path of the search; every other ring takes the table path
    x9 = Poly(1, {(9,): F2.one})
    rings = default_corpus(2) + default_corpus(3) + [
        zmod(16), zmod(512), fp_quotient(2, ("x",), [x9])]
    assert {r.cardinality > TABLE_CAP for r in rings} == {False, True}
    rings += [quotient_ring(r, nilradical(r))[0] for r in rings]
    names = ("Y", "V", "W")
    presentations = [
        z_pres((), []), z_pres((), [{(): 0}]), z_pres((), [{(): 6}]),
        z_pres(names[:1], [{(2,): 1, (1,): 1, (0,): 12}]),
        z_pres(names[:2], [{(2, 0): 1, (1, 0): 1, (0, 0): 12},
                           {(0, 1): 1, (1, 0): -1, (0, 0): -3}, {(0, 0): 6}]),
        z_pres(names[:2], [{(1, 1): 1}, {(0, 2): 1, (0, 0): -1}]),
        z_pres(names, [{(2, 0, 0): 1, (1, 0, 0): -1}]),         # first only
        z_pres(names, [{(0, 2, 0): 1}]),                        # middle only
        z_pres(names, [{(0, 0, 3): 1, (0, 0, 1): -1}]),         # last only
        z_pres(names, [{(1, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 3}]),
        z_pres(names, [{(1, 1, 0): 1}, {(0, 0, 2): 1, (0, 1, 0): 1},
                       {(0, 0, 0): 0}]),
        z_pres(names, [{(2, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1}]),
    ]
    compared = 0
    for pres in presentations:
        for ring in rings:
            if ring.cardinality ** pres.nvars > 512:
                continue
            assert keys(point_set(pres, ring)) == \
                _brute_force_keys(pres, ring), (pres.gens, ring.name)
            compared += 1
    assert compared > 200
    # coefficients are mapped before the search: a fraction fails even where
    # an earlier relation has no root
    halves = RingPresentation(IntegerBase(), ("Y",), [
        Poly(1, {(0,): Fraction(1)}), Poly(1, {(1,): Fraction(1, 2)})])
    with pytest.raises(ValueError, match="fraction"):
        point_set(halves, zmod(4))


_ZOO = ([zmod(p ** k) for p in (2, 3) for k in range(1, 5)]
        + [fp_quotient(p, ("t",), [Poly(1, {(k,): 1})])
           for p in (2, 3) for k in range(2, 5)]
        + [product_ring(zmod(4), gf(3, 1))])


@st.composite
def _monic_systems(draw):
    """A ring of the zoo and a monic integer system on it: a relation monic
    in Y, and with two variables one monic in V over Z[Y], sometimes with a
    third relation in Y and V.  Two variables only over rings of at most 27
    elements, so the brute force stays small."""
    ring = draw(st.sampled_from(_ZOO))
    nvars = draw(st.integers(1, 2 if ring.cardinality <= 27 else 1))
    small = st.integers(-6, 6)
    pad = (0,) * (nvars - 1)
    d = draw(st.integers(1, 3))
    gens = [{(i,) + pad: draw(small) for i in range(d)} | {(d,) + pad: 1}]
    if nvars == 2:
        d = draw(st.integers(1, 3))
        gens.append({(j, i): draw(small) for i in range(d) for j in range(3)}
                    | {(0, d): 1})
        if draw(st.booleans()):
            gens.append({(1, 1): 1, (0, 0): draw(small)})
    return ring, z_pres(("Y", "V")[:nvars], gens)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_monic_systems())
def test_point_set_matches_brute_force_on_drawn_systems(system):
    ring, pres = system
    assert keys(point_set(pres, ring)) == _brute_force_keys(pres, ring)


def test_nilpotent_ideal_enumeration():
    for p in (2, 3):
        field = gf(p, 1)
        # Z/p^k: the k ideals (p^j), j = 1..k
        for k in range(1, 5):
            found = enumerate_nilpotent_ideals(zmod(p ** k))
            assert [len(I) for I in found] == \
                [p ** (k - j) for j in range(k, 0, -1)]
        # F_p[x]/(x^4): the chain (x^4) = 0 < (x^3) < (x^2) < (x)
        chain = enumerate_nilpotent_ideals(
            fp_quotient(p, ("x",), [Poly(1, {(4,): field.one})]))
        assert [len(I) for I in chain] == \
            [p ** (4 - j) for j in range(4, 0, -1)]
        assert all(a <= b for a, b in zip(chain, chain[1:]))
        # F_p x F_p is reduced: only the zero ideal
        reduced = enumerate_nilpotent_ideals(product_ring(field, field))
        assert [len(I) for I in reduced] == [1]


def _nilpotent_ideals_by_closure(ring):
    """The former lattice growth, kept as the reference: each ideal I found
    is grown by a nilpotent x to the ideal generated by I and x."""
    nil = nilradical(ring)
    seen = {frozenset({ring.zero})}
    frontier = list(seen)
    while frontier:
        ideal = frontier.pop()
        for x in nil - ideal:
            bigger = ideal_generated(ring, list(ideal) + [x])
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(seen, key=lambda I: (len(I), sorted(x.key() for x in I)))


def test_nilpotent_ideals_match_closure_growth():
    # GF(2)[x,y]/(x^3,y^2) has 12 nilpotent ideals, not a chain
    rings = default_corpus(2) + default_corpus(3) + [
        zmod(16), fp_quotient(2, ("x", "y"), [Poly(2, {(3, 0): F2.one}),
                                               Poly(2, {(0, 2): F2.one})])]
    for ring in rings:
        ring._nil_ideals = None             # enumerate, not the memo
        assert enumerate_nilpotent_ideals(ring) == \
            _nilpotent_ideals_by_closure(ring), ring.name
    assert len(enumerate_nilpotent_ideals(rings[-1])) == 12


def test_enumeration_memos_hand_out_fresh_lists():
    Z4 = zmod(4)
    ideals = enumerate_nilpotent_ideals(Z4)
    expected = list(ideals)
    ideals.clear()
    assert enumerate_nilpotent_ideals(Z4) == expected
    ideal = expected[-1]
    structures = enumerate_pd_structures(Z4, ideal)
    expected_pd = list(structures)
    assert expected_pd
    structures.append(structures[0])
    structures.reverse()
    again = enumerate_pd_structures(Z4, ideal)
    assert again == expected_pd
    assert again[0] is expected_pd[0]       # searched once, kept on the ring


def test_pd_structures_on_two_in_z4():
    Z4 = zmod(4)
    two = Z4.from_int(2)
    ideal = frozenset({Z4.zero, two})
    structures = enumerate_pd_structures(Z4, ideal)
    assert len(structures) >= 1
    values = {pd.gamma(2, two) for pd in structures}
    assert two in values     # gamma_2(2) = 2^2/2 = 2 computed in Z, reduced
    for pd in structures:
        assert pd.verify()


def test_pd_structure_on_zero_ideal_unique():
    Z4 = zmod(4)
    assert len(enumerate_pd_structures(Z4, frozenset({Z4.zero}))) == 1


def test_pd_structures_on_dual_numbers_all_verify():
    D = dual_numbers(2)
    eps = D.element((0, 1))
    found = enumerate_pd_structures(D, frozenset({D.zero, eps}))
    assert found  # the count is computed, not asserted
    for pd in found:
        assert pd.verify()


def _structures_by_delta(ring, ideal):
    elements = sorted(ideal, key=lambda x: x.key())
    return {tuple(pd.delta[x].key() for x in elements): pd
            for pd in enumerate_pd_structures(ring, ideal)}


def test_pd_canonical_structure_on_p_power_ideals():
    # (p^j) in Z/p^k carries the structure gamma_n(x) = x^n / n! that Z_(p)
    # induces; compare every level up to p^3 with the rational value, on
    # all 18 nilpotent ideals, the 27-element (3) of Z/81 among them
    checked = 0
    for p in (2, 3):
        for k in range(2, 5):
            R = zmod(p ** k)
            for ideal in enumerate_nilpotent_ideals(R):
                elements = sorted(ideal, key=lambda x: x.key())

                def canonical(n, x):
                    q = Fraction(x.coords[0] ** n, factorial(n))
                    return R.from_int(q.numerator * pow(q.denominator, -1,
                                                        p ** k))
                delta = tuple(canonical(p, x).key() for x in elements)
                pd = _structures_by_delta(R, ideal).get(delta)
                assert pd is not None, (R.name, len(ideal))
                assert all(pd.gamma(n, x) == canonical(n, x)
                           for n in range(p ** 3 + 1) for x in elements)
                checked += 1
    assert checked == 18


def _pd_test_rings():
    return default_corpus(2) + default_corpus(3) + [zmod(16)]


def test_pd_gammas_map_ideal_into_ideal():
    for ring in _pd_test_rings():
        for ideal in enumerate_nilpotent_ideals(ring):
            for pd in enumerate_pd_structures(ring, ideal):
                top = pd.p ** 3 if pd.p else 1
                assert all(pd.gamma(n, x) in ideal for x in ideal
                           for n in range(1, top + 1)), ring.name


def test_pd_solver_matches_brute_force():
    # every map gamma_p: I -> I, with the levels it forces, checked on every
    # axiom for n <= p^3; equal to the solver's set on every small ideal
    compared = 0
    for ring in _pd_test_rings():
        if ring.cardinality > 16:
            continue
        p = next(d for d in range(2, 4) if ring.cardinality % d == 0)
        for ideal in enumerate_nilpotent_ideals(ring):
            if len(ideal) > 4:
                continue
            elements = tuple(sorted(ideal, key=lambda x: x.key()))
            brute = set()
            for values in iproduct(elements, repeat=len(elements)):
                delta = dict(zip(elements, values))
                if PDStructure(ring, elements, p, delta).verify(p ** 3):
                    brute.add(tuple(v.key() for v in values))
            assert set(_structures_by_delta(ring, ideal)) == brute, \
                (ring.name, len(ideal))
            compared += 1
    assert compared == 21


def test_pd_structures_on_two_in_z8_and_z16():
    # regression: the old "gamma_n = 0 for n > e" convention found none,
    # but gamma_{2^j}(2) has valuation 1 for every j
    for k in (3, 4):
        R = zmod(2 ** k)
        two = R.from_int(2)
        found = enumerate_pd_structures(R, ideal_generated(R, [two]))
        assert len(found) == 2
        assert {pd.gamma(2, two) for pd in found} == \
            {R.from_int(2), R.from_int(2 + 2 ** (k - 1))}
        # gamma_4(2) = 2^4 / 4! = 2/3 in the induced structure, never 0
        fourth = {pd.gamma(4, two) for pd in found}
        assert R.from_int(2 * pow(3, -1, 2 ** k)) in fourth
        assert R.zero not in fourth
        assert all(pd.verify() for pd in found)


def test_pd_structures_on_x3_keep_gamma_in_ideal():
    # regression: candidate values ranged over all of R, so gamma_2(x^3) was
    # x^2 or x^2 + x^3 on two of four returned structures
    R = fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])
    x3 = R.element((0, 0, 0, 1))
    ideal = ideal_generated(R, [x3])
    assert len(ideal) == 2
    found = enumerate_pd_structures(R, ideal)
    assert {pd.gamma(2, x3) for pd in found} == {R.zero, x3}
    assert all(pd.verify() for pd in found)


def test_pd_structures_on_maximal_ideal_of_f2xy_are_fast():
    R = fp_quotient(2, ("x", "y"), [Poly(2, {(2, 0): F2.one}),
                                    Poly(2, {(0, 2): F2.one})])
    ideal = nilradical(R)
    assert len(ideal) == 8
    R._pd_structures.pop(ideal, None)
    start = time.perf_counter()
    found = enumerate_pd_structures(R, ideal)
    assert time.perf_counter() - start < 1.0
    # x, y, xy square to 0, so gamma_2 is free on the generators up to (2)
    assert len(found) == 64
    assert all(pd.verify(4) for pd in found[::8])


def test_pd_search_cap():
    # 16 elements, four additive generators with square 0: 16^4 candidates
    R = fp_quotient(2, ("x", "y", "z"), [Poly(3, {e: F2.one}) for e in
                                         ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
    names = {name: b for name, b in zip(R.basis_names, R.basis)}
    ideal = ideal_generated(R, [names["x*y"], names["x*z"], names["y*z"]])
    assert len(ideal) == 16
    with pytest.raises(ValueError, match=r"65536 candidates, over "
                                         r"PD_SEARCH_CAP = 4096"):
        enumerate_pd_structures(R, ideal)


def test_pd_structures_need_prime_power_order():
    Z12 = zmod(12)
    with pytest.raises(ValueError, match="prime-power order"):
        enumerate_pd_structures(Z12, ideal_generated(Z12, [Z12.from_int(6)]))
    Z6 = zmod(6)
    only = enumerate_pd_structures(Z6, frozenset({Z6.zero}))
    assert len(only) == 1 and only[0].gamma(3, Z6.zero) == Z6.zero


def test_crystalline_reduces_to_points_on_fields():
    crys = completed_points(IDEM_F2, F2, "crys")
    assert len(crys) == len(point_set(IDEM_F2, F2))


def test_crystalline_over_z4():
    crys = completed_points(IDEM_Z, zmod(4), "crys")
    assert len(crys) == 2
    again = completed_points(IDEM_Z, zmod(4), "crys")
    assert len(again.index) == len(crys.index)
    assert all(a[2] is b[2] for a, b in zip(crys.index, again.index))


def _crystalline_partition_by_union_find(pres, p, k):
    """The crystalline classes of pres over Z/p^k, by brute force on
    integers over all (ideal, PD structure, point) triples.  Every ideal of
    Z/p^k is principal, so the ideals are the sets Rx; R/I is Z/m with
    m = p^k / |I|; a point over Z/m is a tuple of residues killing every
    relation; and (I, pd, x) ~ (J, pd', x mod m_J) whenever I is inside J
    and gamma_p of pd' agrees with that of pd on I.  The PD structures are
    the library's, checked against the axioms above.  Returns the classes as
    a set of frozensets of (m, gamma_p as integers, point) labels."""
    R = zmod(p ** k)
    elements = list(R.elements())
    ideals = {frozenset(x * r for r in elements) for x in elements
              if x ** k == R.zero}
    triples = [(ideal, pd) for ideal in ideals
               for pd in enumerate_pd_structures(R, ideal)]
    rels = [{e: int(c) for e, c in g.terms.items()} for g in pres.gens]

    def points(m):
        return [pt for pt in iproduct(range(m), repeat=pres.nvars)
                if all(sum(c * _monomial(pt, e) for e, c in rel.items())
                       % m == 0 for rel in rels)]

    def label(ideal, pd, pt):
        gamma = tuple(sorted((x.coords[0], y.coords[0])
                             for x, y in pd.delta.items()))
        return (p ** k // len(ideal), gamma, pt)

    parent = {label(ideal, pd, pt): label(ideal, pd, pt)
              for ideal, pd in triples
              for pt in points(p ** k // len(ideal))}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for small, pd_small in triples:
        for big, pd_big in triples:
            if not small <= big or \
                    any(pd_big.delta[x] != pd_small.delta[x] for x in small):
                continue
            m_big = p ** k // len(big)
            for pt in points(p ** k // len(small)):
                a = find(label(small, pd_small, pt))
                b = find(label(big, pd_big, tuple(t % m_big for t in pt)))
                parent[a] = b
    classes: dict = {}
    for node in parent:
        classes.setdefault(find(node), set()).add(node)
    return {frozenset(c) for c in classes.values()}


def _monomial(pt, exps):
    value = 1
    for t, e in zip(pt, exps):
        value *= t ** e
    return value


@pytest.mark.parametrize("p, k, pres, count", [
    (3, 4, IDEM_Z, 2), (3, 4, NILP_Z, 5),
    (2, 8, IDEM_Z, 2), (2, 8, NILP_Z, 8)])
def test_crystalline_classes_match_a_union_find_oracle(p, k, pres, count):
    R = zmod(p ** k)
    crys = completed_points(pres, R, "crys")
    classes: dict = {}
    for i, (ideal, pd, (_, _, lift), pts) in enumerate(crys.index):
        gamma = tuple(sorted((x.coords[0], y.coords[0])
                             for x, y in pd.delta.items()))
        m = p ** k // len(ideal)
        for pt in pts.points:
            node = (m, gamma, tuple(lift(e).coords[0] % m for e in pt))
            classes.setdefault(crys.class_of(i, pt), set()).add(node)
    assert {frozenset(c) for c in classes.values()} == \
        _crystalline_partition_by_union_find(pres, p, k)
    assert len(crys) == count


def test_classify_lifting_etale_both_modes():
    corpus = [F2, zmod(4), dual_numbers(2),
              fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])]
    assert classify_lifting(IDEM_Z, corpus, "dR").verdict == "etale"
    assert classify_lifting(IDEM_Z, corpus, "crys").verdict == "etale"


def test_classify_lifting_over_its_own_reduced_base_ring():
    # R/0 and R/Nil(R) of a reduced ring are R itself, so the identity base
    # map reaches them; it used to fail with "no base map" to a copy of F_4
    F4 = gf(2, 2)
    idem = fp_pres(F4, ("T",), [{(2,): 1, (1,): 1}])
    assert classify_lifting(idem, [F4], "dR").verdict == "etale"
    assert classify_lifting(idem, [F4], "crys").verdict == "etale"


@pytest.mark.parametrize("mode", ["dR", "crys"])
def test_classify_lifting_over_a_base_with_nilpotents(mode):
    # D = F_2[e]/(e^2) has two coordinates; its maps to D/Nil and to D/I
    # are D's identity followed by the projection.  u^2 - u is separable,
    # so D<T>[u]/(u^2 - u) is etale over D<T>; both modes used to fail with
    # "no base map"
    D = fp_quotient(2, ("e",), [Poly(1, {(2,): F2.one})])
    A = free_presentation(D, ("T",))
    B = A.extend(("u",), [Poly(2, {(0, 2): D.one, (0, 1): -D.one})])
    v = classify_lifting(B, [D], mode)
    assert v.verdict == "etale"
    assert [e["map"] for e in v.per_ring] == ["bijective"]
    # T in F_2 and u in {0, 1}, over D/Nil = F_2 or up to the PD classes
    assert len(point_set(B, D)) == 8
    assert len(completed_points(B, D, mode)) == 4


def test_classify_lifting_nilpotent_fails_etale():
    corpus = [F2, dual_numbers(2),
              fp_quotient(2, ("x",), [Poly(1, {(4,): F2.one})])]
    v = classify_lifting(NILP_F2, corpus, "dR")
    assert v.verdict != "etale"
    by_ring = {e["ring"]: e["map"] for e in v.per_ring}
    assert by_ring[dual_numbers(2).name] == "surjective"  # not injective


def test_classify_lifting_identity_is_etale():
    from test_tate import identity
    ident = identity(IDEM_F2)
    corpus = [F2, dual_numbers(2)]
    assert classify_lifting(ident, corpus, "dR").verdict == "etale"
    assert classify_lifting(ident, corpus, "crys").verdict == "etale"


def test_dr_etale_implies_crys_etale():
    corpus = [F2, zmod(4), dual_numbers(2)]
    fixtures = [IDEM_Z, z_pres(("T",), [{(1,): 1}]),
                z_pres(("T", "S"), [{(2, 0): 1, (1, 0): -1},
                                    {(0, 2): 1, (0, 1): -1}])]
    for pres in fixtures:
        if classify_lifting(pres, corpus, "dR").verdict == "etale":
            assert classify_lifting(pres, corpus, "crys").verdict == "etale"


def test_composition_closure_in_both_modes():
    base = free_presentation(IntegerBase(), ())
    A = base.extend(("a",), [Poly(1, {(2,): Fraction(1), (1,): Fraction(-1)})])
    B = A.extend(("b",), [Poly(2, {(0, 2): Fraction(1), (0, 1): Fraction(-1)})])
    f = MorphismPresentation.inclusion(base, A)
    g = MorphismPresentation.inclusion(A, B)
    from adickit.tate import compose_presentations
    comp = compose_presentations(f, g)
    corpus = [F2, zmod(4), dual_numbers(2)]
    for mode in ("dR", "crys"):
        assert classify_lifting(f, corpus, mode).verdict == "etale"
        assert classify_lifting(g, corpus, mode).verdict == "etale"
        assert classify_lifting(comp, corpus, mode).verdict == "etale"


def test_random_oracle_agreement():
    # the central cross-check on random monic univariate presentations:
    # exact agreement on etale; lisse implies surjective; non-ramifie
    # implies injective
    import random

    from adickit.differentials import classify_morphism
    from adickit.finiterings import fp_quotient
    rng = random.Random(20240501)
    for p in (2, 3):
        field = gf(p, 1)
        rings = [field, dual_numbers(p),
                 fp_quotient(p, ("x",), [Poly(1, {(3,): field.one})]),
                 product_ring(field, field)]
        base = free_presentation(field, ())
        for _ in range(10):
            deg = rng.randint(1, 3)
            coeffs = {(deg,): field.one}
            for i in range(deg):
                c = rng.randint(0, p - 1)
                if c:
                    coeffs[(i,)] = field.from_int(c)
            pres = base.extend(("T",), [Poly(1, coeffs)])
            jac = classify_morphism(pres).verdict
            lift = classify_lifting(pres, rings, "dR").verdict
            assert (jac == "etale") == (lift == "etale"), (coeffs, jac, lift)
            if jac in ("etale", "lisse"):
                assert lift in ("etale", "lisse"), (coeffs, jac, lift)
            if jac in ("etale", "non_ramifie"):
                assert lift in ("etale", "non_ramifie"), (coeffs, jac, lift)


def test_default_corpus_shape():
    corpus = default_corpus(2)
    assert len(corpus) == 6
    names = [r.name for r in corpus]
    assert "GF(2,1)" not in names  # GF(2) is the Zmod(2) prime field
    assert any("Zmod(4)" == n for n in names)


def test_skip_inadmissible_rings():
    v = classify_lifting(IDEM_F2, [F2, zmod(4)], "dR", skip_inadmissible=True)
    assert any("skipped" in e for e in v.per_ring)
    with pytest.raises(PresentationError):
        classify_lifting(IDEM_F2, [zmod(4)], "dR")
