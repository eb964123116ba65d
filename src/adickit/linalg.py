"""Exact dense linear algebra over any field-like coefficient type.

Used for the truncated-coefficient-space exactness checks: ranks, kernels and
span containment are computed with exact arithmetic (Fractions or finite-field
elements), so a verdict of "exact at this cap" is a certificate, never a
float artifact.
"""

from __future__ import annotations


class RowSpace:
    """Incrementally maintained row-echelon span of vectors."""

    def __init__(self, width: int, one):
        self.width = width
        self.one = one
        self.zero = one - one
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: list) -> list:
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                for k in range(piv, self.width):
                    if row[k]:
                        vec[k] = vec[k] - c * row[k]
        return vec

    def insert(self, vec: list) -> bool:
        """Add a vector to the span; True if the dimension grew."""
        red = self._reduce(vec)
        piv = next((i for i, c in enumerate(red) if c), None)
        if piv is None:
            return False
        inv = red[piv] ** -1
        red = [c * inv for c in red]
        # keep earlier rows reduced against the new pivot
        for row in self.rows:
            c = row[piv]
            if c:
                for k in range(self.width):
                    if red[k]:
                        row[k] = row[k] - c * red[k]
        self.rows.append(red)
        self.pivots.append(piv)
        return True

    def contains(self, vec: list) -> bool:
        return not any(self._reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank(rows: list[list], one) -> int:
    if not rows:
        return 0
    space = RowSpace(len(rows[0]), one)
    for r in rows:
        space.insert(r)
    return space.dim


def nullspace(rows: list[list], ncols: int, one) -> list[list]:
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    zero = one - one
    work = [list(r) for r in rows]
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = work[r][col] ** -1
        work[r] = [c * inv for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for row_i, pc in enumerate(pivot_cols):
            vec[pc] = -work[row_i][fc]
        basis.append(vec)
    return basis


def kernel_of_map(images: list[list], codomain_dim: int, one) -> list[list]:
    """Kernel of the linear map sending basis vector i to images[i]."""
    if not images:
        return []
    rows = [[images[i][w] for i in range(len(images))]
            for w in range(codomain_dim)]
    return nullspace(rows, len(images), one)


def solve(rows: list[list], rhs: list, one):
    """One solution x of A x = rhs, or None."""
    zero = one - one
    ncols = len(rows[0]) if rows else 0
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    # account for equations with empty coefficient rows
    if not rows:
        return [] if not any(rhs) else None
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = work[r][col] ** -1
        work[r] = [c * inv for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    for i in range(r, len(work)):
        if work[i][ncols]:
            return None  # inconsistent
    x = [zero] * ncols
    for row_i, pc in enumerate(pivot_cols):
        x[pc] = work[row_i][ncols]
    return x


def span_in_low_block(vectors, low_cols, width: int, one) -> RowSpace:
    """Basis (as a RowSpace over the low columns) of span(vectors) intersected
    with the coordinate subspace supported on low_cols.  Columns outside
    low_cols are eliminated first, so surviving reduced rows live in the low
    block."""
    high_cols = [i for i in range(width) if i not in set(low_cols)]
    order = high_cols + list(low_cols)
    space = RowSpace(width, one)
    for v in vectors:
        space.insert([v[i] for i in order])
    low_space = RowSpace(len(low_cols), one)
    nhigh = len(high_cols)
    for row in space.rows:
        if not any(row[:nhigh]):
            low_space.insert(row[nhigh:])
    return low_space
