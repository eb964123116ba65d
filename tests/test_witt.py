import random
from itertools import product as iproduct

import pytest

from adickit.finiterings import fp_quotient, gf, nilradical, product_ring, zmod
from adickit.poly import Poly
from adickit.wittrobba import (WittError, WittVector, frobenius_witt,
                               ghost_components, lift_context, teichmuller,
                               tilt, verschiebung, witt_add, witt_arith,
                               witt_mul)

from corpus import char2_rings, char3_rings
from test_acceptance import witt_int_mul

F2 = gf(2, 1)
F4 = gf(2, 2)


def w2(x, y, ring=F2):
    return WittVector(2, (x, y), ring)


def all_w(ring, n):
    els = sorted(ring.elements(), key=lambda e: e.key())
    for coords in iproduct(els, repeat=n):
        yield WittVector(ring.characteristic, coords, ring)


def test_one_plus_one_carries():
    # ghost of (1,0) is (1,1); the sum has ghost (2,2); unwinding gives
    # x0 = 2 = 0, x1 = (2 - 0^2)/2 = 1
    a = w2(F2.one, F2.zero)
    assert witt_add(a, a).coords == (F2.zero, F2.one)


def test_additive_identity():
    zero = w2(F2.zero, F2.zero)
    for a in all_w(F2, 2):
        assert witt_add(a, zero).coords == a.coords


def test_teichmuller_multiplicative():
    a = w2(F2.one, F2.zero)
    assert witt_mul(a, a).coords == a.coords
    for c in F4.elements():
        if not c:
            continue
        t = teichmuller(c, 3)
        sq = witt_mul(t, t)
        assert sq.coords == (c * c, F4.zero, F4.zero)


def test_w2_f2_is_z4():
    def iso(w):
        c0, c1 = w.coords[0].coords[0], w.coords[1].coords[0]
        return (c0 * c0 + 2 * c1) % 4
    elems = list(all_w(F2, 2))
    assert sorted(iso(w) for w in elems) == [0, 1, 2, 3]
    for a in elems:
        for b in elems:
            assert iso(witt_add(a, b)) == (iso(a) + iso(b)) % 4
            assert iso(witt_mul(a, b)) == (iso(a) * iso(b)) % 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_vectors_over_fp_are_z_mod_p_power(p):
    # W_n(F_p) = Z/p^n through (a_i) -> sum p^i [a_i], where the Teichmueller
    # lift [a] is a^(p^(n-1)) mod p^n on the integer representative of a
    ring = gf(p, 1)
    rng = random.Random(p)
    for n in range(1, 5):
        mod = p ** n

        def iso(w):
            return sum(p ** i * c.coords[0] ** (p ** (n - 1))
                       for i, c in enumerate(w.coords)) % mod
        elems = list(all_w(ring, n))
        assert sorted(iso(w) for w in elems) == list(range(mod))
        pairs = [(a, b) for a in elems for b in elems] \
            if len(elems) ** 2 <= 256 else \
            [(rng.choice(elems), rng.choice(elems)) for _ in range(256)]
        for a, b in pairs:
            assert iso(witt_arith("add", a, b)) == (iso(a) + iso(b)) % mod
            assert iso(witt_arith("mul", a, b)) == (iso(a) * iso(b)) % mod
            assert iso(witt_arith("sub", a, b)) == (iso(a) - iso(b)) % mod


def test_ghost_consistency_mod_p_powers():
    # ghost components of an operation result agree with the ghost-wise
    # operation modulo p^(k+1) (reduction of the lifted coordinates can only
    # move ghosts by that much)
    rng = random.Random(3)
    for ring, n in ((F2, 3), (F4, 2), (gf(3, 1), 3)):
        p = ring.characteristic
        ctx = lift_context(ring)
        els = sorted(ring.elements(), key=lambda e: e.key())
        for _ in range(15):
            a = WittVector(p, tuple(rng.choice(els) for _ in range(n)), ring)
            b = WittVector(p, tuple(rng.choice(els) for _ in range(n)), ring)
            for op, combine in (("add", ctx.add), ("mul", ctx.mul)):
                c = witt_arith(op, a, b)
                gc = ghost_components(p, c.coords, ctx)
                expect = [combine(x, y) for x, y in
                          zip(ghost_components(p, a.coords, ctx),
                              ghost_components(p, b.coords, ctx))]
                for k, (got, want) in enumerate(zip(gc, expect)):
                    diff = ctx.add(got, want, -1)
                    # componentwise divisibility by p^(k+1)
                    assert all(x % p ** (k + 1) == 0 for x in diff.values())


def test_frobenius_verschiebung_identities():
    a = w2(F2.one, F2.zero)
    assert verschiebung(a).coords == (F2.zero, F2.one, F2.zero)

    # F(V(a)) = p a, exhaustively on W_2(F_2)
    for w in all_w(F2, 2):
        assert frobenius_witt(verschiebung(w)).coords == \
            witt_int_mul(2, w).coords

    # and sampled on W_3(F_2) and W_2(F_4)
    rng = random.Random(11)
    for ring, n in ((F2, 3), (F4, 2)):
        els = sorted(ring.elements(), key=lambda e: e.key())
        for _ in range(100):
            w = WittVector(2, tuple(rng.choice(els) for _ in range(n)), ring)
            assert frobenius_witt(verschiebung(w)).coords == \
                witt_int_mul(2, w).coords


def test_frobenius_of_teichmuller():
    for c in F4.elements():
        t = teichmuller(c, 3)
        assert frobenius_witt(t).coords == (c * c, F4.zero)


def test_projection_formula():
    # V(a) b = V(a F(b)) for a in W_2, b in W_3, exhaustively over F_2
    for a in all_w(F2, 2):
        for b in all_w(F2, 3):
            lhs = witt_mul(verschiebung(a), b)
            rhs = verschiebung(witt_mul(a, frobenius_witt(b)))
            assert lhs.coords == rhs.coords
    # sampled over F_4
    rng = random.Random(5)
    els = sorted(F4.elements(), key=lambda e: e.key())
    for _ in range(25):
        a = WittVector(2, tuple(rng.choice(els) for _ in range(2)), F4)
        b = WittVector(2, tuple(rng.choice(els) for _ in range(3)), F4)
        lhs = witt_mul(verschiebung(a), b)
        rhs = verschiebung(witt_mul(a, frobenius_witt(b)))
        assert lhs.coords == rhs.coords


def witt_map(hom, target_ring, a: WittVector) -> WittVector:
    """Coordinate-wise functoriality: a ring map of coefficient rings induces
    a ring map of the Witt rings."""
    return WittVector(a.p, tuple(hom(c) for c in a.coords), target_ring)


def test_witt_functoriality_along_field_embedding():
    # the embedding F_2 -> F_4 induces a ring map W_n(F_2) -> W_n(F_4)
    from adickit.finiterings import canonical_scalar_map
    embed = canonical_scalar_map(F2, F4)
    for a in all_w(F2, 2):
        for b in all_w(F2, 2):
            fa = witt_map(embed, F4, a)
            fb = witt_map(embed, F4, b)
            assert witt_map(embed, F4, witt_add(a, b)).coords == \
                witt_add(fa, fb).coords
            assert witt_map(embed, F4, witt_mul(a, b)).coords == \
                witt_mul(fa, fb).coords


def _componentwise(fn, a, b, *vectors: WittVector) -> tuple:
    """fn applied to the images of the vectors in the factors a and b of
    their ring product_ring(a, b), joined back into coordinates there."""
    ring, k = vectors[0].ring, len(a.moduli)

    def part(v, factor, cut):
        return WittVector(v.p, tuple(factor.element(c.coords[cut])
                                     for c in v.coords), factor)
    left = fn(*(part(v, a, slice(0, k)) for v in vectors)).coords
    right = fn(*(part(v, b, slice(k, None)) for v in vectors)).coords
    return tuple(ring.element(u.coords + v.coords)
                 for u, v in zip(left, right))


def test_witt_over_a_product_is_componentwise():
    # W_n(A x B) = W_n(A) x W_n(B), and F commutes with the projections; the
    # factors reduce by moduli of degree 3 and 4, and one product is nested
    rng = random.Random(19)
    F8, F16 = gf(2, 3), gf(2, 4)
    for a, b in ((F8, F16), (F16, F2), (product_ring(F2, F8), F16)):
        ring = product_ring(a, b)
        els = sorted(ring.elements(), key=lambda e: e.key())
        for n in (1, 2, 3):
            for _ in range(8):
                x, y = (WittVector(2, tuple(rng.choice(els) for _ in range(n)),
                                   ring) for _ in range(2))
                for op in ("add", "mul", "sub"):
                    assert witt_arith(op, x, y).coords == _componentwise(
                        lambda u, v: witt_arith(op, u, v), a, b, x, y), \
                        ring.name
                if n >= 2:
                    assert frobenius_witt(x).coords == \
                        _componentwise(frobenius_witt, a, b, x), ring.name


def test_wrong_characteristic_rejected():
    z4 = zmod(4)
    with pytest.raises(WittError):
        WittVector(2, (z4.one, z4.zero), z4)


@pytest.mark.parametrize("p, ring", [(4, zmod(4)), (6, zmod(6)),
                                     (9, zmod(9)), (1, zmod(2))],
                         ids=["4", "6", "9", "1"])
def test_composite_p_rejected(p, ring):
    # the characteristic matches, but for composite p the ghost map is no
    # Witt structure: W_2(Z/4) at p = 4 would add with a non-exact division
    # and multiply to vectors of no Witt ring
    with pytest.raises(WittError, match="prime p"):
        WittVector(p, (ring.one, ring.zero), ring)


def test_length_mismatch_rejected():
    with pytest.raises(WittError):
        witt_add(w2(F2.one, F2.zero), WittVector(2, (F2.one,), F2))


# -- tilting ------------------------------------------------------------------------

def test_tilt_perfect_ring_is_identity():
    res = tilt(F4)
    assert res.ring.cardinality == 4
    assert set(res.ring.elements()) == set(F4.elements())


def test_tilt_kills_nilpotents():
    r = fp_quotient(2, ("t",), [Poly(1, {(2,): F2.one})])
    res = tilt(r)
    assert res.ring.cardinality == 2  # compatible sequences are constants in F_2
    assert nilradical(res.ring) == frozenset({res.ring.zero})   # perfect


def test_tilt_product_componentwise():
    r = product_ring(F2, F4)
    res = tilt(r)
    assert res.ring.cardinality == 8


def test_tilt_idempotent():
    for ring in (F4, fp_quotient(2, ("t",), [Poly(1, {(2,): F2.one})]),
                 product_ring(F2, F4)):
        once = tilt(ring)
        twice = tilt(once.ring)
        assert set(once.ring.elements()) == set(twice.ring.elements())


def project(res, k: int, x):
    """The stage-k component of x in a perfect tilt: the y with
    y^(p^k) = x, read off the Frobenius orbit of x, which is a cycle."""
    p, orbit = res.ring.characteristic, [x]
    while len(orbit) <= res.ring.cardinality:
        if (y := orbit[-1] ** p) == x:
            return orbit[-k % len(orbit)]
        orbit.append(y)
    raise AssertionError(f"{x} lies on no Frobenius cycle of {res.ring.name}")


def test_tilt_projections_are_frobenius_compatible():
    res = tilt(F4)
    for x in res.ring.elements():
        for k in range(1, res.depth + 1):
            stage = project(res, k, x)
            powered = stage
            for _ in range(k):
                powered = powered * powered
            assert powered == x


def test_tilt_needs_prime_characteristic():
    with pytest.raises(WittError):
        tilt(zmod(4))


def test_tilt_below_the_stable_point_is_the_frobenius_image():
    # F(GF(2)[t]/(t^4)) = {0, 1, t^2, 1 + t^2}; the stable point is depth 3
    t4 = fp_quotient(2, ("t",), [Poly(1, {(4,): F2.one})])
    res = tilt(t4, depth=1)
    assert res.depth == 1
    assert sorted(repr(res.embed(x)) for x in res.ring.elements()) == \
        ["0", "1", "1 + t^2", "t^2"]
    t8 = fp_quotient(2, ("t",), [Poly(1, {(8,): F2.one})])
    assert tilt(t8, depth=2).ring.cardinality == 4      # {a + b t^4}


def _brute_tilt(ring, depth):
    """Reference: sweep the image chain of x -> x^p over every element of
    R until it stops shrinking or `depth` steps are taken; the final image
    and the number of steps."""
    p = ring.characteristic
    current = set(ring.elements())
    steps = 0
    while True:
        nxt = {x ** p for x in current}
        steps += 1
        if nxt == current:
            break
        current = nxt
        if depth is not None and steps >= depth:
            break
    return current, steps


def _oracle_rings():
    x2, y3 = Poly(2, {(2, 0): F2.one}), Poly(2, {(0, 3): F2.one})
    # GF(2,3): Frobenius has order 3, so F^-1 differs from F on the tilt
    return char2_rings() + char3_rings() + [
        gf(2, 3), fp_quotient(2, ("t",), [Poly(1, {(8,): F2.one})]),
        product_ring(F4, fp_quotient(2, ("t",), [Poly(1, {(3,): F2.one})])),
        fp_quotient(2, ("x", "y"), [x2, y3])]


@pytest.mark.parametrize("depth", [None, 0, 1, 2, 3, 5])
def test_tilt_agrees_with_the_frobenius_sweep(depth):
    for ring in _oracle_rings():
        image, steps = _brute_tilt(ring, depth)
        res = tilt(ring, depth)
        assert (res.ring.cardinality, res.depth) == (len(image), steps), ring
        els = list(res.ring.elements())
        assert {res.embed(x) for x in els} == image, ring
        for x in els:
            for y in els:
                assert res.embed(x + y) == res.embed(x) + res.embed(y)
                assert res.embed(x * y) == res.embed(x) * res.embed(y)
        p = ring.characteristic
        if {x ** p for x in image} != image:
            continue        # not perfect yet: F is not a bijection
        for k in range(res.depth + 1):
            for x in els:
                assert project(res, k, x) ** p ** k == x
                assert project(res, k, x ** p ** k) == x
