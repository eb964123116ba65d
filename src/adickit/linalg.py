"""Exact sparse linear algebra over any field-like coefficient type.

Used for the truncated-coefficient-space checks: the H^-1 kernel, the gluing
and joint-lift checks.  Ranks, kernels and span containment are computed
with exact arithmetic (Fractions or finite-field elements), so a verdict of
"exact at this cap" is a certificate, never a float artifact.  `settle`
serves only the gluing check, whose images span no submodule.

A vector is a dense list or a sparse dict {column: coefficient}.  One echelon
core, `RowSpace`, serves every routine: its rows are sparse dicts keyed by
their pivot (the first nonzero column, scaled to one), and a vector is
reduced against them in ascending pivot order.  Only `nullspace` and `solve`
back-substitute to the reduced row echelon form; its pivot columns and
entries are unique, so kernel bases are the standard "free column = 1"
basis whatever order the rows came in.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _sparse(vec) -> dict:
    """The nonzero entries of a dense list or sparse dict vector, as a new
    dict."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {k: c for k, c in items if c}


class RowSpace:
    """Incrementally maintained row-echelon span of vectors."""

    def __init__(self, width: int, one):
        self.width = width
        self.one = one
        # pivot -> the row's entries right of the pivot; the pivot entry is one
        self.rows: dict[int, dict] = {}

    def _reduce(self, vec: dict) -> dict:
        """Reduce a sparse vector in place until no entry sits on a pivot."""
        rows = self.rows
        todo = [k for k in vec if k in rows]
        heapify(todo)
        while todo:
            piv = heappop(todo)
            c = vec.pop(piv, None)
            if c is None:
                continue            # a duplicate of a pivot already cleared
            for k, a in rows[piv].items():
                if k in vec:
                    s = vec[k] - c * a
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
                else:
                    vec[k] = -(c * a)
                    if k in rows:
                        heappush(todo, k)
        return vec

    def insert(self, vec) -> bool:
        """Add a vector to the span; True if the dimension grew."""
        red = self._reduce(_sparse(vec))
        if not red:
            return False
        piv = min(red)
        inv = red.pop(piv) ** -1
        self.rows[piv] = {k: c * inv for k, c in red.items()}
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _back_substitute(self) -> None:
        """Clear each pivot column outside its own row (reduced row echelon
        form): a row's entries all lie right of its pivot, so reducing rows
        largest pivot first meets only rows already cleared."""
        for piv in sorted(self.rows, reverse=True):
            self._reduce(self.rows[piv])


def _echelon(rows, width: int, one) -> RowSpace:
    space = RowSpace(width, one)
    for r in rows:
        space.insert(r)
    return space


def nullspace(rows: list, ncols: int, one) -> list[list]:
    """Basis of {x : A x = 0} for the matrix with the given (dense or sparse)
    rows: one dense vector per free column, with a one there."""
    space = _echelon(rows, ncols, one)
    space._back_substitute()
    zero = one - one
    basis: dict = {}
    for fc in range(ncols):
        if fc not in space.rows:
            basis[fc] = vec = [zero] * ncols
            vec[fc] = one
    for pc, tail in space.rows.items():
        for fc, c in tail.items():
            basis[fc][pc] = -c
    return list(basis.values())


def kernel_of_map(images: list, codomain_dim: int, one) -> list[list]:
    """Kernel of the linear map sending basis vector i to images[i]."""
    if not images:
        return []
    rows: list[dict] = [{} for _ in range(codomain_dim)]
    for i, image in enumerate(images):
        for w, c in _sparse(image).items():
            rows[w][i] = c
    return nullspace(rows, len(images), one)


def solve(rows: list[list], rhs: list, one):
    """One solution x of A x = rhs (dense rows), or None."""
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    space = RowSpace(ncols + 1, one)
    for r, b in zip(rows, rhs):
        vec = _sparse(r)
        if b:
            vec[ncols] = b
        space.insert(vec)
    if ncols in space.rows:
        return None                 # a row reads 0 = 1: inconsistent
    space._back_substitute()
    x = [one - one] * ncols
    for pc, tail in space.rows.items():
        x[pc] = tail.get(ncols, x[pc])
    return x


def span_in_low_block(vectors: list, low_cols, width: int, one) -> RowSpace:
    """Basis (as a RowSpace over the low columns) of span(vectors) intersected
    with the coordinate subspace supported on low_cols.  Columns outside
    low_cols come first in the elimination order, so the echelon rows with a
    pivot in the low block span the intersection."""
    nhigh = width - len(low_cols)
    low_at = {col: nhigh + j for j, col in enumerate(low_cols)}
    high = iter(range(nhigh))
    at = [low_at[col] if col in low_at else next(high) for col in range(width)]
    space = RowSpace(width, one)
    for v in vectors:
        space.insert({at[k]: c for k, c in _sparse(v).items()})
    low = RowSpace(len(low_cols), one)
    low.rows = {piv - nhigh: {k - nhigh: c for k, c in tail.items()}
                for piv, tail in space.rows.items() if piv >= nhigh}
    return low


def settle(attempt, work: int) -> bool | None:
    """A containment checked on truncated spaces: `attempt(w)` returns
    (held, dimension of the span) at working degree w.  True if it holds at
    `work` or `work + 1`; False only if the span did not grow between them;
    else None (inconclusive)."""
    held, dim = attempt(work)
    if held:
        return True
    held, wider = attempt(work + 1)
    if held:
        return True
    return False if wider == dim else None
