import random
import threading
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from adickit import finiterings
from adickit.cli import parse_script, run_script
from adickit.finiterings import (TABLE_CAP, FiniteRing,
                                 canonical_scalar_map, dual_numbers,
                                 fp_quotient, gf, hom_kernel, ideal_generated,
                                 is_ideal, nilradical, product_ring,
                                 quotient_ring, reduced_ring, spans_group,
                                 subgroup_tree, zmod)
from adickit.groebner import normal_form
from adickit.infinitesimal import default_corpus, enumerate_nilpotent_ideals
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
    assert quotient_ring(r, nilradical(r), name="Zmod(8)_red")[0] is red
    ideal = ideal_generated(r, [r.from_int(4)])
    q = quotient_ring(r, ideal)[0]
    assert quotient_ring(r, ideal)[0] is q and q.name == "Zmod(8)/I2"
    assert quotient_ring(r, ideal, name="Z/4")[0] is not q


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


def test_gf_rejects_composite_for_every_degree():
    for p in (6, 4):
        with pytest.raises(ValueError, match=rf"^GF\({p}\) needs a prime$"):
            gf(p, 2)
    # a 36-element "field" over Zmod(6) used to crash classify on a division
    outcome = run_script(parse_script(
        "K = GF(6,2); A = Quot(Tate(K,[T]),[u],[u^2-u]); classify A;"))
    assert outcome.reports[0]["error"] == "GF(6) needs a prime at 1:1"


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
    q, project, _ = quotient_ring(r, ideal)
    assert q.cardinality == 2
    assert q.characteristic == 2
    assert project(r.from_int(3)) == q.one


def _quotient_oracle_cases():
    """Every nilpotent ideal of the lifting corpora, Zmod(16),
    GF(2)[x,y]/(x^2,y^2) and the group ring Z/4[C2] (its ideal (2 + 2g)
    needs a column operation on a kept coordinate), and every ideal (all
    are principal) of two rings that are not local."""
    x2, y2 = Poly(2, {(2, 0): 1}), Poly(2, {(0, 2): 1})
    group_ring = FiniteRing((4, 4), (((1, 0), (0, 1)), ((0, 1), (1, 0))),
                            (1, 0), "Zmod(4)[C2]", ("1", "g"))
    for ring in default_corpus(2) + default_corpus(3) + [
            zmod(16), fp_quotient(2, ("x", "y"), [x2, y2]), group_ring]:
        yield ring, [ideal for ideal, _ in enumerate_nilpotent_ideals(ring)]
    for ring in (zmod(12), product_ring(zmod(4), gf(3))):
        yield ring, list({ideal_generated(ring, [x]): None
                          for x in ring.elements()})


def test_quotient_rings_against_brute_force():
    checked = 0
    for ring, ideals in _quotient_oracle_cases():
        elements = list(ring.elements())
        maps = {ideal: quotient_ring(ring, ideal) for ideal in ideals}
        for ideal, (q, project, lift) in maps.items():
            assert isinstance(q, FiniteRing)
            assert q.cardinality == ring.cardinality // len(ideal)
            assert len(set(q.elements())) == q.cardinality
            images = {x: project(x) for x in elements}
            assert all(y.parent is q for y in images.values())
            assert frozenset(x for x, y in images.items() if not y) == ideal
            for x in elements:
                for y in elements:
                    assert images[x + y] == images[x] + images[y]
                    assert images[x * y] == images[x] * images[y]
            assert all(project(lift(y)) == y for y in q.elements())
            n, acc = 1, q.one
            while acc:
                acc, n = acc + q.one, n + 1
            assert q.characteristic == n
            for small, (_, project_small, lift_small) in maps.items():
                if small <= ideal:
                    assert all(project(lift_small(project_small(x)))
                               == images[x] for x in elements)
            checked += 1
    assert checked == 54


KERNEL_MODULI = (2, 3, 4, 6, 8, 9)


def _small_group(draw) -> tuple:
    """Moduli of a product of cyclic groups with at most 500 elements."""
    mods = []
    for m in draw(st.lists(st.sampled_from(KERNEL_MODULI), max_size=5)):
        if prod(mods) * m > 500:
            break
        mods.append(m)
    return tuple(mods)


@st.composite
def _homs(draw):
    """A homomorphism Z/in_mods -> Z/out_mods by the images of the unit
    vectors: entry t of row i is a multiple of out_t / gcd(in_i, out_t),
    plus an arbitrary multiple of out_t (the rows need not be reduced)."""
    in_mods, out_mods = _small_group(draw), _small_group(draw)
    rows = [[draw(st.integers(0, gcd(a, b) - 1)) * (b // gcd(a, b))
             + b * draw(st.integers(-2, 2)) for b in out_mods]
            for a in in_mods]
    return in_mods, out_mods, rows


def _group_add(mods):
    return lambda u, v: tuple((x + y) % m for x, y, m in zip(u, v, mods))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_homs())
def test_hom_kernel_generates_the_brute_force_kernel(hom):
    in_mods, out_mods, rows = hom
    kernel, image = set(), set()
    for v in product(*(range(m) for m in in_mods)):
        w = tuple(sum(x * row[t] for x, row in zip(v, rows)) % m
                  for t, m in enumerate(out_mods))
        image.add(w)
        if not any(w):
            kernel.add(v)
    gens = hom_kernel(rows, in_mods, out_mods)
    assert all(len(v) == len(in_mods) and any(v) for v in gens)
    assert set(subgroup_tree((0,) * len(in_mods), gens,
                             _group_add(in_mods))) == kernel
    assert spans_group(rows, out_mods) == (len(image) == prod(out_mods))


def _rank(rows) -> int:
    """Rank over Q by Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            f = r[c] / pivot[c]
            r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
             max_size=n - 1),
    st.lists(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
             max_size=6))))
def test_diagonal_form_of_a_rank_deficient_lattice(case):
    # rows drawn as integer combinations of fewer than n generators: d has
    # the rank's length and the columns of V past it span the integer
    # vectors orthogonal to every row (V unimodular, so they are a basis)
    n, gens, weights = case
    rows = [[sum(w * g[j] for w, g in zip(ws, gens)) for j in range(n)]
            for ws in weights]
    d, cols, inv = finiterings._diagonal_form(rows, n)
    assert len(d) == _rank(rows) < n and all(x > 0 for x in d)
    assert [[sum(c[k] * r[k] for k in range(n)) for c in inv] for r in cols] \
        == [[int(i == j) for j in range(n)] for i in range(n)]
    assert all(sum(x * y for x, y in zip(r, col)) == 0
               for r in rows for col in cols[len(d):])


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


def fresh_copy(ring) -> FiniteRing:
    """A new, uninterned ring with the structure of `ring`: no table, no
    memos, and is_field left to the criterion."""
    return FiniteRing(ring.moduli, ring.basis_products, ring.one_coords,
                      ring.name, ring.basis_names)


# -- the constructor's axiom check ---------------------------------------------------

E0, E1, ZERO2 = (1, 0), (0, 1), (0, 0)


@pytest.mark.parametrize("products, message", [
    # e0 * e1 = e1 but e1 * e0 = 0
    (((E0, E1), (ZERO2, ZERO2)), "basis product not commutative"),
    # (e0 * e0) * e1 = e1 * e1 = e1 but e0 * (e0 * e1) = 0
    (((E1, ZERO2), (ZERO2, E1)), "basis product not associative"),
    # F_2 x F_2 with (1, 0) named as its unit: (1, 0) * e1 = 0
    (((E0, ZERO2), (ZERO2, E1)), "unit fails on basis"),
])
def test_constructor_rejects_a_broken_structure(products, message):
    with pytest.raises(ValueError, match=f"^bad: {message}$"):
        FiniteRing((2, 2), products, E0, "bad", ("a", "b"))


def test_constructor_rejects_a_product_associative_on_repeated_indices():
    # basis 1, a, b, c over F_2 with ab = c, c^2 = c and every other
    # product of a, b, c zero: associativity fails only on triples of three
    # distinct elements, e.g. (c b) a = 0 but c (b a) = c, whose first index
    # is past its last; the check reaches it through its mirror (a b) c
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    products = [[e[j] for j in range(4)]] + \
        [[e[i]] + [(0,) * 4] * 3 for i in range(1, 4)]
    products[1][2] = products[2][1] = products[3][3] = e[3]
    with pytest.raises(ValueError,
                       match="^bad: basis product not associative$"):
        FiniteRing((2,) * 4, tuple(map(tuple, products)), e[0], "bad",
                   ("1", "a", "b", "c"))


# -- is_field against a brute-force unit scan ----------------------------------------

def brute_is_field(ring) -> bool:
    """Independent oracle: every nonzero element has an inverse."""
    els = list(ring.elements())
    return all(any(x * y == ring.one for y in els) for x in els if x)


def field_test_rings() -> list:
    x = lambda *coeffs: Poly(1, {(k,): c for k, c in enumerate(coeffs)})
    quotients = [
        (2, ("x",), [x(1, 1, 1)]),          # x^2 + x + 1: GF(4)
        (3, ("x",), [x(1, 0, 1)]),          # x^2 + 1: GF(9)
        (2, ("x",), [x(1, 0, 1)]),          # (x + 1)^2: not reduced
        (5, ("x",), [x(-1, 0, 1)]),         # F_5 x F_5: idempotents
        (3, ("x",), [x(0, 0, 0, 0, 1)]),    # x^4
        (2, ("x", "y"), [Poly(2, {(2, 0): 1, (1, 0): 1}),
                         Poly(2, {(0, 2): 1})]),
    ]
    return ([zmod(m) for m in range(2, 40)]
            + [gf(p, k) for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                     (5, 2))]
            + [product_ring(gf(2), gf(2)), product_ring(gf(3), zmod(4)),
               dual_numbers(2), dual_numbers(3)]
            + [fp_quotient(*args) for args in quotients])


def test_is_field_matches_the_unit_scan():
    rings = field_test_rings()
    assert len(rings) == 54
    verdicts = [(fresh_copy(r).is_field, brute_is_field(r)) for r in rings]
    assert [a for a, _ in verdicts] == [b for _, b in verdicts]
    # the builders' declared answers agree too
    assert [r.is_field for r in rings] == [b for _, b in verdicts]
    assert sum(b for _, b in verdicts) == 20     # 12 primes, 6 GF, 2 quotients


def test_is_field_on_1024_elements_within_budget():
    field = fresh_copy(fp_quotient(2, ("x",), [
        Poly(1, {(10,): 1, (3,): 1, (0,): 1})]))
    start = time.perf_counter()
    assert field.is_field
    assert time.perf_counter() - start < 2.0
    # (x^5 + 1)^2 = x^10 + 1
    nonfield = fresh_copy(fp_quotient(2, ("x",), [
        Poly(1, {(10,): 1, (0,): 1})]))
    start = time.perf_counter()
    assert not nonfield.is_field
    assert time.perf_counter() - start < 2.0


# -- ring arithmetic against oracles without structure constants ---------------------

def pairs(ring, sample: int | None = None):
    els = [ring.element(c)
           for c in product(*(range(m) for m in ring.moduli))]
    if sample is None:
        return [(a, b) for a in els for b in els]
    rng = random.Random(ring.cardinality)
    return [(rng.choice(els), rng.choice(els)) for _ in range(sample)]


def check_zmod_against_ints(ring, sample=None):
    (m,) = ring.moduli
    checked = pairs(ring, sample)
    for a, b in checked:
        (i,), (j,) = a.coords, b.coords
        assert (a + b).coords == ((i + j) % m,)
        assert (a * b).coords == ((i * j) % m,)
        assert (a - b).coords == ((i - j) % m,)
    for a in {a for a, _ in checked}:
        (i,) = a.coords
        inv = pow(i, -1, m) if gcd(i, m) == 1 else None
        assert a.is_unit() == (inv is not None)
        if inv is not None:
            assert a.inverse().coords == (inv,)


def monomial(name: str, varnames: tuple) -> tuple:
    """Exponent vector of a basis name such as "1", "x", "x^2*y"."""
    exps = [0] * len(varnames)
    if name != "1":
        for factor in name.split("*"):
            var, _, deg = factor.partition("^")
            exps[varnames.index(var)] = int(deg or 1)
    return tuple(exps)


def check_against_polys(ring, p, varnames, relations, sample=None):
    """Compare * with polynomial arithmetic over Q reduced by normal_form
    modulo relations that are monic with pairwise coprime leading monomials
    (so a Groebner basis over Q and over F_p), then mod p; and + and - with
    arithmetic mod p on the coefficients of the monomial basis."""
    nvars = len(varnames)
    monos = [monomial(n, varnames) for n in ring.basis_names]
    position = {e: i for i, e in enumerate(monos)}
    basis = [rel.map_coeffs(Fraction) for rel in relations]

    def to_poly(x):
        return Poly(nvars, {monos[i]: Fraction(c)
                            for i, c in enumerate(x.coords) if c})

    def reduce(f):
        out = [0] * len(monos)
        for e, c in normal_form(f, basis).terms.items():
            assert c.denominator == 1
            out[position[e]] = c.numerator % p
        return tuple(out)

    for a, b in pairs(ring, sample):
        assert (a * b).coords == reduce(to_poly(a) * to_poly(b))
        assert (a + b).coords == tuple((u + v) % p
                                       for u, v in zip(a.coords, b.coords))
        assert (-a).coords == tuple(-u % p for u in a.coords)


def gf_modulus(ring) -> Poly:
    return Poly(1, {(k,): c for k, c in enumerate(ring.lift_model[1])})


UPTO_81 = [(3, ("x",), [Poly(1, {(4,): 1})]),
           (2, ("x", "y"), [Poly(2, {(2, 0): 1, (0, 1): 1}),
                            Poly(2, {(0, 3): 1})]),
           (2, ("x", "y"), [Poly(2, {(2, 0): 1, (0, 0): 1}),
                            Poly(2, {(0, 2): 1, (1, 0): 1})]),
           (5, ("x",), [Poly(1, {(2,): 1, (0,): 2})])]


def test_zmod_arithmetic_against_ints():
    for m in (2, 12, 25, 64, 81):
        check_zmod_against_ints(zmod(m))


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                  (3, 4), (5, 2)])
def test_gf_arithmetic_against_reduced_polys(p, k):
    field = gf(p, k)
    check_against_polys(field, p, ("x",), [gf_modulus(field)])


@pytest.mark.parametrize("p, names, relations", UPTO_81)
def test_fp_quotient_arithmetic_against_reduced_polys(p, names, relations):
    check_against_polys(fp_quotient(p, names, relations), p, names, relations)


def check_product_by_components(ring, a, b, sample=None):
    split = len(a.moduli)
    for x, y in pairs(ring, sample):
        for op in ("__add__", "__mul__"):
            got = getattr(x, op)(y).coords
            left = getattr(a.element(x.coords[:split]), op)(
                a.element(y.coords[:split]))
            right = getattr(b.element(x.coords[split:]), op)(
                b.element(y.coords[split:]))
            assert got == left.coords + right.coords


def test_product_ring_arithmetic_by_components():
    for a, b in ((zmod(9), gf(2, 2)), (gf(3), gf(3, 3)), (zmod(4), zmod(4))):
        check_product_by_components(product_ring(a, b), a, b)


def test_sampled_arithmetic_on_both_sides_of_the_table_cap():
    x8 = [Poly(1, {(8,): 1})]
    x9 = [Poly(1, {(9,): 1, (1,): 1, (0,): 1})]
    small = fp_quotient(2, ("x",), x8)
    large = fp_quotient(2, ("x",), x9)
    assert small.cardinality == TABLE_CAP < large.cardinality == 512
    check_against_polys(small, 2, ("x",), x8, sample=1000)
    check_against_polys(large, 2, ("x",), x9, sample=1000)
    check_zmod_against_ints(zmod(256), sample=1000)
    check_zmod_against_ints(zmod(512), sample=1000)
    check_product_by_components(product_ring(zmod(16), zmod(32)),
                                zmod(16), zmod(32), sample=1000)
    assert small._table is not None and large._table is None


# -- Cayley tables --------------------------------------------------------------------

@pytest.fixture
def table_builds(monkeypatch):
    """The rings whose Cayley table is built while the test runs."""
    built = []

    class Recording(finiterings._Cayley):
        __slots__ = ()

        def __init__(self, ring):
            built.append(ring)
            super().__init__(ring)

    monkeypatch.setattr(finiterings, "_Cayley", Recording)
    return built


def test_declarations_build_no_table_and_the_first_product_builds_one(
        table_builds):
    script = ("R1 = Quot(GF(5), [tq], [tq^3]); "
              "R2 = Quot(GF(2), [tq, sq], [tq^2, sq^3]); "
              "C1 = Corpus(GF(3), R1, R2, Zmod(27));")
    outcome = run_script(parse_script(script))
    assert outcome.exit_code == 0 and table_builds == []

    ring = fresh_copy(fp_quotient(5, ("tq",), [Poly(1, {(3,): 1})]))
    assert ring._table is None and table_builds == []
    x = ring.element((1, 2, 3))
    square = x * x
    assert table_builds == [ring]
    table = ring._table
    assert x * square == square * x and x + x == x.times_int(2)
    assert table_builds == [ring] and ring._table is table
    assert square.coords == ring._product(x.coords, x.coords)


def test_elements_come_in_key_order_on_both_sides_of_the_cap():
    for ring in (zmod(12), gf(2, 3), product_ring(zmod(4), gf(3)),
                 fp_quotient(2, ("x",), [Poly(1, {(8,): 1})]),
                 fp_quotient(2, ("x",), [Poly(1, {(9,): 1})]), zmod(300)):
        order = list(product(*(range(m) for m in ring.moduli)))
        assert [x.coords for x in ring.elements()] == order
        assert ring.cardinality > TABLE_CAP or ring._table is not None


def test_concurrent_first_products_agree(monkeypatch):
    # a slow build keeps both threads inside it at once
    class Slow(finiterings._Cayley):
        __slots__ = ()

        def __init__(self, ring):
            time.sleep(0.05)
            super().__init__(ring)

    monkeypatch.setattr(finiterings, "_Cayley", Slow)
    ring = fresh_copy(fp_quotient(3, ("x",), [Poly(1, {(4,): 1})]))
    els = [ring.element(c) for c in product(range(3), repeat=4)]
    start = threading.Barrier(2)
    results = []

    def multiply_all():
        start.wait()
        results.append([(a * b + a).coords for a in els for b in els])

    threads = [threading.Thread(target=multiply_all) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    expected = [tuple((u + v) % 3 for u, v in
                      zip(ring._product(a.coords, b.coords), a.coords))
                for a in els for b in els]
    assert results == [expected, expected]
