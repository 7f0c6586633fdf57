"""
Exact linear algebra over the rationals: the nullspace the intertwiner
oracle is read from.

Matrices are plain lists of rows whose entries are ints or
``fractions.Fraction``; everything here is exact, there is no floating
point anywhere.  ``nullspace`` reads one sparse row echelon
(``_echelon``): each row is kept as {column: int} over its nonzeros,
scaled to integers with its content divided out, and reduced
fraction-free against a pivot column -> pivot row dict.  The oracle's
stacked equations have a few nonzeros per row, so the work follows the
nonzeros, not rows x columns.  Back substitution over the sparse pivot
rows reintroduces Fractions only at the end, and ``nullspace`` imports
``fractions`` itself, so a run without the oracle never loads it.
Coordinates in the two bases need none of this: both are unitriangular
(``specht.coordinates``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress


def _echelon(matrix: Sequence[Sequence[int | Fraction]]) -> dict[int, dict[int, int]]:
    """Sparse fraction-free row echelon: pivot column -> pivot row.

    Each row is scaled to integers and kept as {column: entry} over its
    nonzeros.  Rows are taken sparsest first and reduced against the pivot
    rows in column order (pivot * row - factor * pivot_row, then the
    content divided out) until the first column left has no pivot row, where
    the row becomes one, or until it vanishes; a row that reduces to zero
    costs only its own nonzeros.  The row order changes the work, not the
    pivot columns.
    """
    cols = range(len(matrix[0]) if matrix else 0)
    rows = []
    for dense in matrix:
        if len(dense) != len(cols):
            raise ValueError("rows of different lengths")
        row = {c: dense[c] for c in compress(cols, dense)}
        denom = math.lcm(*(x.denominator for x in row.values()))
        rows.append({c: x.numerator * (denom // x.denominator) for c, x in row.items()})
    rows.sort(key=len)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is not None:
                g = math.gcd(prow[c], row[c])
                p, f = prow[c] // g, row[c] // g
                if p != 1:
                    row = {k: p * v for k, v in row.items()}
                for k, v in prow.items():
                    w = row.get(k, 0) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
            g = math.gcd(*row.values())
            if g > 1:
                row = {k: v // g for k, v in row.items()}
            if prow is None:
                pivots[c] = row
                break
    return pivots


def nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """An exact basis of the right nullspace {x : A x = 0}.

    One basis vector per free (non-pivot) column, 1 at that column and 0
    at every other free column; the pivot columns of a row echelon form
    are canonical, so this basis does not depend on the elimination.

    >>> nullspace([[1, 1]])
    [[Fraction(-1, 1), Fraction(1, 1)]]
    """
    from fractions import Fraction  # here, not at import: only the oracle needs it

    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots = _echelon(matrix)
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for c in order:
            row = pivots[c]
            x[c] = Fraction(-sum(v * x[k] for k, v in row.items() if k != c and x[k]), row[c])
        basis.append(x)
    return basis
