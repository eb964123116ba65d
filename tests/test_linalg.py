"""Oracle tests for the exact elimination core: sympy over Q, brute force
over GF(2) and GF(3)."""

import random
from fractions import Fraction
from itertools import product

import pytest

from adickit.finiterings import gf
from adickit.linalg import RowSpace, solve

# the truncated references of the de Rham, H^-1 and gluing tests, built on
# RowSpace; their oracles stay beside RowSpace's
from test_differentials import kernel_of_map, nullspace, span_in_low_block

sympy = pytest.importorskip("sympy")

ONE = Fraction(1)


def random_matrix(rng, nrows, ncols, deficient=False):
    """Small sparse-ish rational matrix; deficient ones are a product of
    two thin factors, so their rank is below min(nrows, ncols)."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) \
            if rng.random() < 0.6 else Fraction(0)
    if not deficient:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    inner = rng.randint(0, max(min(nrows, ncols) - 1, 0))
    left = [[entry() for _ in range(inner)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    return [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def cases(seed, count=60):
    rng = random.Random(seed)
    for n in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        yield rng, random_matrix(rng, nrows, ncols, deficient=n % 2 == 1)


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(c.numerator, c.denominator)
                         for row in rows for c in row])


def as_fractions(vec):
    return [Fraction(int(c.p), int(c.q)) for c in vec]


def sparse(row):
    return {k: c for k, c in enumerate(row) if c}


def rank(rows, one) -> int:
    """Rank of (dense or sparse) rows: the dimension of their RowSpace."""
    space = RowSpace(len(rows[0]) if rows else 0, one)
    for r in rows:
        space.insert(r)
    return space.dim


def test_rank_matches_sympy():
    for _, rows in cases(1):
        expected = to_sympy(rows, len(rows[0])).rank()
        assert rank(rows, ONE) == expected
        assert rank([sparse(r) for r in rows], ONE) == expected


def test_nullspace_is_sympys_canonical_basis():
    for _, rows in cases(2):
        ncols = len(rows[0])
        expected = [as_fractions(v) for v in
                    to_sympy(rows, ncols).nullspace()]
        assert nullspace(rows, ncols, ONE) == expected
        assert nullspace([sparse(r) for r in rows], ncols, ONE) == expected


def test_kernel_of_map_is_the_nullspace_of_the_transpose():
    for _, images in cases(3):
        codomain = len(images[0])
        columns = [[img[w] for img in images] for w in range(codomain)]
        expected = [as_fractions(v) for v in
                    to_sympy(columns, len(images)).nullspace()]
        assert kernel_of_map(images, codomain, ONE) == expected
        assert kernel_of_map([sparse(v) for v in images], codomain,
                             ONE) == expected


def test_solve_is_exact_or_none_exactly_when_inconsistent():
    for rng, rows in cases(4):
        ncols = len(rows[0])
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0))
                   for r in rows]
        else:
            rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        A = to_sympy(rows, ncols)
        augmented = A.row_join(to_sympy([[b] for b in rhs], 1))
        consistent = A.rank() == augmented.rank()
        x = solve(rows, rhs, ONE)
        if not consistent:
            assert x is None
            continue
        assert x is not None and len(x) == ncols
        assert all(sum((a * b for a, b in zip(r, x)), Fraction(0)) == b
                   for r, b in zip(rows, rhs))
    assert solve([], [], ONE) == [] and solve([], [ONE], ONE) is None


def test_span_in_low_block_is_the_intersection():
    rng = random.Random(5)
    for n in range(60):
        width = rng.randint(2, 7)
        vectors = random_matrix(rng, rng.randint(1, 7), width,
                                deficient=n % 2 == 1)
        low_cols = sorted(rng.sample(range(width), rng.randint(1, width)))
        high_cols = [c for c in range(width) if c not in low_cols]
        # brute force: the combinations c of the vectors whose high part
        # vanishes, read on the low columns
        high_part = [[v[c] for v in vectors] for c in high_cols]
        if high_cols:
            combos = [as_fractions(k) for k in
                      to_sympy(high_part, len(vectors)).nullspace()]
        else:
            combos = [[ONE if i == j else Fraction(0)
                       for j in range(len(vectors))]
                      for i in range(len(vectors))]
        inter = [[sum((c * v[col] for c, v in zip(combo, vectors)),
                      Fraction(0)) for col in low_cols] for combo in combos]
        expected_dim = to_sympy(inter, len(low_cols)).rank() if inter else 0
        space = span_in_low_block(vectors, low_cols, width, ONE)
        assert space.dim == expected_dim
        assert all(space.contains(w) for w in inter)
        # equal dimension plus containment: the spans are equal
        outside = [Fraction(rng.randint(-2, 2)) for _ in low_cols]
        stacked = to_sympy(inter + [outside], len(low_cols)).rank()
        assert space.contains(outside) == (stacked == expected_dim)


# -- brute force over small prime fields --------------------------------------

def finite_cases(p, count=40):
    field = gf(p, 1)
    rng = random.Random(10 + p)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[field.from_int(rng.randint(0, p - 1)) for _ in range(ncols)]
                for _ in range(nrows)]
        yield rng, field, rows


def all_vectors(field, n):
    return [list(v) for v in product(field.elements(), repeat=n)]


def combine(field, coeffs, vectors, width):
    out = [field.zero] * width
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def span_set(field, vectors, width):
    return {combine(field, cs, vectors, width)
            for cs in product(field.elements(), repeat=len(vectors))}


def apply(field, rows, x):
    return [sum((a * b for a, b in zip(r, x)), field.zero) for r in rows]


@pytest.mark.parametrize("p", [2, 3])
def test_rank_nullspace_and_solve_by_brute_force(p):
    for rng, field, rows in finite_cases(p):
        ncols = len(rows[0])
        row_span = span_set(field, rows, ncols)
        r = rank(rows, field.one)
        assert len(row_span) == p ** r
        kernel = {tuple(x) for x in all_vectors(field, ncols)
                  if not any(apply(field, rows, x))}
        basis = nullspace(rows, ncols, field.one)
        assert len(basis) == ncols - r
        assert span_set(field, basis, ncols) == kernel
        rhs = [field.from_int(rng.randint(0, p - 1)) for _ in rows]
        solutions = [x for x in all_vectors(field, ncols)
                     if apply(field, rows, x) == rhs]
        x = solve(rows, rhs, field.one)
        if solutions:
            assert x is not None and apply(field, rows, x) == rhs
        else:
            assert x is None


@pytest.mark.parametrize("p", [2, 3])
def test_row_space_and_low_block_by_brute_force(p):
    for rng, field, vectors in finite_cases(p):
        width = len(vectors[0])
        whole = span_set(field, vectors, width)
        space = RowSpace(width, field.one)
        for v in vectors:
            space.insert(v)
        assert len(whole) == p ** space.dim
        assert all(space.contains(list(w)) == (w in whole)
                   for w in map(tuple, all_vectors(field, width)))
        low_cols = sorted(rng.sample(range(width), rng.randint(1, width)))
        inter = {tuple(w[c] for c in low_cols) for w in whole
                 if not any(w[c] for c in range(width) if c not in low_cols)}
        low = span_in_low_block(vectors, low_cols, width, field.one)
        assert len(inter) == p ** low.dim
        assert all(low.contains(list(w)) == (w in inter)
                   for w in map(tuple, all_vectors(field, len(low_cols))))
