"""
Exact integer linear algebra: the nullspace the intertwiner oracle is
read from.

Matrices are plain lists of rows of ints or of other exact rationals
with ``numerator`` and ``denominator``; there is no floating point and
no ``Fraction`` is built, so no run loads ``fractions``.  ``nullspace``
reads one sparse row echelon (``_echelon``): each row is kept as
{column: int} over its nonzeros, scaled to integers with its content
divided out, and reduced fraction-free against a pivot column -> pivot
row dict, with a positive pivot factor, so a row led by -1 is not
rebuilt.  The oracle's stacked equations have a few nonzeros per row, so
the work follows the nonzeros, not rows x columns.  Back substitution is
fraction-free too, and yields primitive integer vectors.  Coordinates in
the two bases need none of this: both are unitriangular
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
    rows in column order (p * row - f * pivot_row, p > 0, then the content
    divided out) until the first column left has no pivot row, where the
    row becomes one, or until it vanishes; a row that reduces to zero costs
    only its own nonzeros, and one whose pivot divides its lead (p = 1) is
    not rescaled.  The row order changes the work, not the pivot columns.
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
                # the pivot's sign goes into g, so that p > 0
                g = math.gcd(prow[c], row[c])
                if prow[c] < 0:
                    g = -g
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


def nullspace(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    """An exact integer basis of the right nullspace {x : A x = 0}.

    One basis vector per free (non-pivot) column: the primitive integer
    vector (gcd 1) that is positive at that column and 0 at every other
    free column.  The pivot columns of a row echelon form are canonical,
    so this basis does not depend on the elimination.  Back substitution
    keeps x in integers, starting from 1 at the free column: where a pivot
    does not divide its sum, x is scaled up by just enough, |lead| / g
    with g = gcd(sum, lead), and the new entry sum / g is prime to that
    scale, so x stays primitive with no content to divide out.

    >>> nullspace([[1, 1]])
    [[-1, 1]]
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots = _echelon(matrix)
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = 1
        for c in order:
            row = pivots[c]
            lead = row[c]
            s = sum(v * x[k] for k, v in row.items() if k != c and x[k])
            if s % lead:
                scale = abs(lead) // math.gcd(s, lead)
                x = [v * scale for v in x]
                s *= scale
            x[c] = -s // lead
        basis.append(x)
    return basis
