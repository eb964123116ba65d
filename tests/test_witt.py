import random
from itertools import product as iproduct

import pytest

from adickit.finiterings import fp_quotient, gf, nilradical, product_ring, zmod
from adickit.poly import Poly
from adickit.wittrobba import (WittError, frobenius_witt,
                               ghost_components, lift_context, teichmuller,
                               tilt, verschiebung, witt_add, witt_arith,
                               witt_int_mul, witt_mul, witt_vector)

from corpus import char2_rings, char3_rings

F2 = gf(2, 1)
F4 = gf(2, 2)


def w2(x, y, ring=F2):
    return witt_vector(2, (x, y), ring)


def all_w(ring, n):
    els = sorted(ring.elements(), key=lambda e: e.key())
    for coords in iproduct(els, repeat=n):
        yield witt_vector(ring.characteristic, coords, ring)


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
            a = witt_vector(p, tuple(rng.choice(els) for _ in range(n)), ring)
            b = witt_vector(p, tuple(rng.choice(els) for _ in range(n)), ring)
            for op, combine in (("add", ctx.add), ("mul", ctx.mul)):
                c = witt_arith(op, a, b)
                gc = ghost_components(c, ctx)
                expect = [combine(x, y) for x, y in
                          zip(ghost_components(a, ctx), ghost_components(b, ctx))]
                for k, (got, want) in enumerate(zip(gc, expect)):
                    diff = ctx.add(got, ctx.neg(want))
                    # componentwise divisibility by p^(k+1)
                    if isinstance(diff, int):
                        assert diff % p ** (k + 1) == 0
                    else:
                        assert all(x % p ** (k + 1) == 0 for x in diff)


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
            w = witt_vector(2, tuple(rng.choice(els) for _ in range(n)), ring)
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
        a = witt_vector(2, tuple(rng.choice(els) for _ in range(2)), F4)
        b = witt_vector(2, tuple(rng.choice(els) for _ in range(3)), F4)
        lhs = witt_mul(verschiebung(a), b)
        rhs = verschiebung(witt_mul(a, frobenius_witt(b)))
        assert lhs.coords == rhs.coords


def test_witt_functoriality_along_field_embedding():
    # the embedding F_2 -> F_4 induces a ring map W_n(F_2) -> W_n(F_4)
    from adickit.finiterings import canonical_scalar_map
    from adickit.wittrobba import witt_map
    embed = canonical_scalar_map(F2, F4)
    for a in all_w(F2, 2):
        for b in all_w(F2, 2):
            fa = witt_map(embed, F4, a)
            fb = witt_map(embed, F4, b)
            assert witt_map(embed, F4, witt_add(a, b)).coords == \
                witt_add(fa, fb).coords
            assert witt_map(embed, F4, witt_mul(a, b)).coords == \
                witt_mul(fa, fb).coords


def test_wrong_characteristic_rejected():
    z4 = zmod(4)
    with pytest.raises(WittError):
        witt_vector(2, (z4.one, z4.zero), z4)


def test_length_mismatch_rejected():
    with pytest.raises(WittError):
        witt_add(w2(F2.one, F2.zero), witt_vector(2, (F2.one,), F2))


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


def test_tilt_projections_are_frobenius_compatible():
    res = tilt(F4)
    for x in res.ring.elements():
        for k in range(1, res.depth + 1):
            stage = res.project(k, x)
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
                assert res.project(k, x) ** p ** k == x
                assert res.project(k, x ** p ** k) == x
