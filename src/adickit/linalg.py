"""Exact sparse linear algebra over any field-like coefficient type.

Used by the one truncated check left, the joint-lift certificate of
`localization`: span containment and solutions are computed with exact
arithmetic (Fractions or finite-field elements), so a verdict of "exact at
this cap" is a certificate, never a float artifact.  The Jacobian route
eliminates by Groebner bases alone and imports nothing from here.

A vector is a dense list or a sparse dict {column: coefficient}.  One echelon
core, `RowSpace`, serves both routines: its rows are sparse dicts keyed by
their pivot (the first nonzero column, scaled to one), and a vector is
reduced against them in ascending pivot order.  Only `solve`
back-substitutes to the reduced row echelon form, whose pivot columns and
entries are unique.
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

    def _back_substitute(self) -> None:
        """Clear each pivot column outside its own row (reduced row echelon
        form): a row's entries all lie right of its pivot, so reducing rows
        largest pivot first meets only rows already cleared."""
        for piv in sorted(self.rows, reverse=True):
            self._reduce(self.rows[piv])


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

