import threading
import time
from itertools import combinations

import pytest

from adickit import finiterings
from adickit.finiterings import (QuotientRing, canonical_scalar_map,
                                 dual_numbers, fp_quotient, gf,
                                 ideal_generated, is_ideal, nilradical,
                                 product_ring, quotient_ring, reduced_ring,
                                 zmod)
from adickit.infinitesimal import default_corpus
from adickit.poly import Poly


def brute_nilpotents(ring):
    """Independent oracle: x is nilpotent iff some power vanishes."""
    out = []
    for x in ring.elements():
        y = x
        for _ in range(ring.cardinality + 1):
            if not y:
                out.append(x)
                break
            y = y * x
    return frozenset(out)


def test_zmod4_nilradical():
    r = zmod(4)
    assert nilradical(r) == frozenset({r.from_int(0), r.from_int(2)})


def test_dual_numbers():
    d = dual_numbers(2)
    assert d.cardinality == 4
    eps = d.element((0, 1))
    assert not eps * eps
    assert nilradical(d) == frozenset({d.zero, eps})


def test_f2_x4_quotient():
    q = fp_quotient(2, ("x",), [Poly(1, {(4,): gf(2, 1).one})])
    assert q.cardinality == 16
    assert nilradical(q) == brute_nilpotents(q)
    assert len(nilradical(q)) == 8


def test_product_of_fields_is_reduced():
    p = product_ring(gf(2, 1), gf(2, 1))
    assert nilradical(p) == frozenset({p.zero})


def test_nilradical_matches_oracle_on_corpus():
    corpus = [zmod(4), zmod(8), zmod(9), zmod(12), dual_numbers(3),
              product_ring(zmod(4), gf(3, 1))]
    for r in corpus:
        assert nilradical(r) == brute_nilpotents(r)


def test_reduction_is_reduced():
    for r in (zmod(4), zmod(8), dual_numbers(2)):
        red, proj = reduced_ring(r)
        assert nilradical(red) == frozenset({red.zero})
        assert proj(r.one) == red.one


def test_quotient_rings_are_built_once_per_ideal_and_name():
    r = zmod(8)
    red, _ = reduced_ring(r)
    assert reduced_ring(r)[0] is red
    assert quotient_ring(r, nilradical(r), name="Zmod(8)_red") is red
    ideal = ideal_generated(r, [r.from_int(4)])
    q = quotient_ring(r, ideal)
    assert quotient_ring(r, ideal) is q and q.name == "Zmod(8)/I2"
    assert quotient_ring(r, ideal, name="Z/4") is not q


def test_gf4_is_a_field():
    f4 = gf(2, 2)
    assert f4.is_field and f4.cardinality == 4 and f4.characteristic == 2
    for x in f4.elements():
        if x:
            assert x * x.inverse() == f4.one
    # frobenius is bijective
    squares = {x * x for x in f4.elements()}
    assert len(squares) == 4


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        gf(6)


def test_cardinality_cap():
    # every test-ring builder keeps the cap, with the same message
    x13 = Poly(1, {(13,): gf(2).one})
    builders = [(lambda: zmod(5000), 5000), (lambda: gf(67, 2), 4489),
                (lambda: product_ring(zmod(64), zmod(128)), 8192),
                (lambda: fp_quotient(2, ("x",), [x13]), 8192)]
    for build, size in builders:
        with pytest.raises(ValueError,
                           match=f"^cardinality {size} exceeds cap 4096$"):
            build()


def test_distributivity_exhaustive_small():
    for r in (zmod(6), gf(2, 2), dual_numbers(2)):
        els = list(r.elements())
        for a in els:
            for b in els:
                for c in els:
                    assert a * (b + c) == a * b + a * c


def test_axioms_on_basis_for_a_larger_ring():
    # 256 elements; bilinearity reduces the exhaustive triple check to basis
    # triples, which the constructor performs
    q = fp_quotient(2, ("x",), [Poly(1, {(8,): gf(2, 1).one})])
    assert q.cardinality == 256
    assert len(nilradical(q)) == 128


def test_ideals_and_quotients():
    r = zmod(4)
    ideal = ideal_generated(r, [r.from_int(2)])
    assert is_ideal(r, ideal)
    q = QuotientRing(r, ideal)
    assert q.cardinality == 2
    assert q.characteristic == 2
    assert q.project(r.from_int(3)) == q.one


def test_canonical_scalar_maps():
    z4 = zmod(4)
    f2 = gf(2, 1)
    # Z -> anything
    m = canonical_scalar_map(None, z4)
    assert m(6) == z4.from_int(2)
    # Z/4 -> F_2 exists, F_2 -> Z/4 does not
    assert canonical_scalar_map(z4, f2) is not None
    assert canonical_scalar_map(f2, z4) is None


# -- ideal closure against a brute-force oracle ---------------------------------

def brute_ideal(ring, gens, multiples):
    """Independent oracle: the sums r_1 g_1 + ... + r_k g_k, built one
    generator at a time from the brute-force multiple sets R g."""
    span = {ring.zero}
    for g in gens:
        span = {x + y for x in span for y in multiples[g]}
    return frozenset(span)


@pytest.mark.parametrize("p", [2, 3])
def test_ideal_generated_matches_brute_force(p):
    for ring in default_corpus(p):
        elems = list(ring.elements())
        multiples = {g: frozenset(r * g for r in elems) for g in elems}
        oracle = {}                 # (Rg, Rh) -> brute-force Rg + Rh
        for g in elems:
            assert ideal_generated(ring, [g]) == multiples[g]
        for g, h in combinations(elems, 2):
            key = (multiples[g], multiples[h])
            if key not in oracle:
                oracle[key] = brute_ideal(ring, [g, h], multiples)
            ideal = ideal_generated(ring, [g, h])
            assert ideal == oracle[key], (ring.name, g, h)


# -- interning --------------------------------------------------------------------

def test_equal_builders_return_the_same_ring():
    first, second = default_corpus(2), default_corpus(2)
    assert all(a is b for a, b in zip(first, second))
    assert len({id(r) for r in first}) == len(first)
    # so elements built from either compare equal
    assert first[1].one == second[1].one
    assert dual_numbers(3) is fp_quotient(
        3, ("eps",), [Poly(1, {(2,): gf(3, 1).one})])


def test_isomorphic_rings_with_other_names_stay_distinct():
    eps = fp_quotient(3, ("eps",), [Poly(1, {(2,): gf(3, 1).one})])
    x = fp_quotient(3, ("x",), [Poly(1, {(2,): gf(3, 1).one})])
    assert eps is not x
    assert eps.basis_products == x.basis_products
    assert eps.name == "GF(3)[eps]/(eps^2)" and x.name == "GF(3)[x]/(x^2)"
    assert repr(eps.element((0, 1))) == "eps"
    assert repr(x.element((0, 1))) == "x"
    assert eps.one != x.one


def test_equal_fp_quotients_skip_buchberger(monkeypatch):
    calls = []
    real = finiterings.buchberger

    def counting(gens, **kwargs):
        calls.append(gens)
        return real(gens, **kwargs)

    monkeypatch.setattr(finiterings, "buchberger", counting)
    # integer and GF(5) coefficients map to the same relation over GF(5)
    first = fp_quotient(5, ("lookup",), [Poly(1, {(2,): 1, (0,): -1})])
    F5 = gf(5, 1)
    second = fp_quotient(5, ("lookup",),
                         [Poly(1, {(2,): F5.one, (0,): F5.from_int(4)})])
    assert first is second and len(calls) == 1
    assert fp_quotient(5, ("other",),
                       [Poly(1, {(2,): 1, (0,): -1})]) is not first
    assert len(calls) == 2


def test_interning_keeps_one_ring_when_threads_race(monkeypatch):
    # a library user may build the same ring on several threads at once; a
    # slow constructor holds every thread inside the intern table's
    # check-then-insert window
    class SlowRing(finiterings.FiniteRing):
        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(finiterings, "FiniteRing", SlowRing)
    relations = [Poly(1, {(3,): gf(5, 1).one})]
    built = []
    start = threading.Barrier(8)

    def build():
        start.wait()
        built.append(fp_quotient(5, ("race",), relations))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 8 and all(r is built[0] for r in built)
