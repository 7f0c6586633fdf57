"""
Exact dense linear algebra over the rationals: products, rank and the
nullspace the intertwiner oracle is read from.

Matrices are plain lists of rows whose entries are ints or
``fractions.Fraction``; everything here is exact, there is no floating
point anywhere.  Internally each row is scaled to integers (clear the
denominators, divide out the content) and elimination runs in
fraction-free integer arithmetic, which keeps the hot loops on machine
ints for the problem sizes this package meets.  Back substitution
reintroduces Fractions only at the end.  Coordinates in the two bases
need none of this: both are unitriangular (``specht.coordinates``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Scalar = int | Fraction


def identity_matrix(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    """Scale a row by the lcm of its denominators, then divide out the gcd.
    An int is its own numerator over 1, so ints and Fractions need no
    separate cases."""
    denom = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _eliminate(rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """Forward elimination in place on the first ``ncols`` columns.

    Returns the pivot list [(row, col), ...].  Row combinations are
    fraction-free (pivot * row - factor * pivot_row) followed by division
    by the row content, so entries stay integral and small.
    """
    pivots: list[tuple[int, int]] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        # pick the nonzero entry of smallest magnitude to limit growth
        best = None
        for i in range(r, nrows):
            v = abs(rows[i][c])
            if v and (best is None or v < best[0]):
                best = (v, i)
                if v == 1:
                    break
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        p = prow[c]
        for j in range(r + 1, nrows):
            f = rows[j][c]
            if not f:
                continue
            row = rows[j]
            new = [0] * c + [p * a - f * b for a, b in zip(row[c:], prow[c:])]
            g = 0
            for x in new:
                g = math.gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                new = [x // g for x in new]
            rows[j] = new
        pivots.append((r, c))
        r += 1
    return pivots


def rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals.

    >>> rank([[1, 2], [2, 4], [0, 1]])
    2
    """
    if not matrix:
        return 0
    rows = [_integer_row(row) for row in matrix]
    return len(_eliminate(rows, len(matrix[0])))


def nullspace(matrix: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """An exact basis of the right nullspace {x : A x = 0}.

    One basis vector per free column, with that free variable set to 1.

    >>> nullspace([[1, 1]])
    [[Fraction(-1, 1), Fraction(1, 1)]]
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [_integer_row(row) for row in matrix]
    pivots = _eliminate(rows, ncols)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in reversed(pivots):
            row = rows[r]
            acc = -sum(row[j] * x[j] for j in range(c + 1, ncols) if x[j])
            x[c] = Fraction(acc, row[c])
        basis.append(x)
    return basis
