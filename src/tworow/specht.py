"""
The polytabloid model of the irreducible two-row representation, and the
tabloid space both models are computed in.

A (row) tabloid of shape (n, n) is determined by its first-row set, so we
store it as the sorted tuple of first-row entries.  The permutation module
spanned by all tabloids has dimension C(2n, n).  For disjoint pairs, the
signed sum over the choices of one letter per pair (``pair_vector``) is
the tabloid vector of both bases: the polytabloid of a tableau T is the
pair vector of its columns, and the minor product D(M) of a perfect
matching M is the pair vector of its pairs (``minors``).  The standard
polytabloids form a basis of the irreducible submodule; coordinates in
it, or in any other independent family of tabloid vectors, come from one
exact echelon form over the all_tabloids(n) index (``tabloid_echelon``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Sequence

from .combinat import Permutation, Tableau, adjacent_transposition, enumerate_syt
from .linalg import Echelon

Tabloid = tuple[int, ...]


def tabloid_of(t: Tableau) -> Tabloid:
    """The tabloid of a tableau: its first-row entries as a sorted tuple.

    Row-equivalent tableaux give the same tabloid.

    >>> tabloid_of(Tableau(((3, 1), (4, 2))))
    (1, 3)
    """
    return tuple(sorted(t.rows[0]))


def act_on_tabloid(sigma: Permutation, tab: Tabloid) -> Tabloid:
    return tuple(sorted(sigma(x) for x in tab))


def act_on_tabloid_vector(sigma: Permutation, vec: dict[Tabloid, int]) -> dict[Tabloid, int]:
    """Linear extension of the letter action; keys never collide because
    the action on tabloids is a bijection."""
    return {act_on_tabloid(sigma, tab): c for tab, c in vec.items()}


def pair_vector(pairs: Sequence[tuple[int, int]]) -> dict[Tabloid, int]:
    """The signed sum of tabloids over the choices of one letter per pair.

    Choosing the second letter b of a pair (a, b) costs a sign, so the
    vector has exactly 2^k tabloids, each with coefficient +1 or -1.
    Read as a polynomial in the entries x[r, j] of a 2 x 2n matrix, with
    the tabloid giving the row-1 columns, it is the product of the minors
    x[1,a] x[2,b] - x[1,b] x[2,a] of the pairs.

    >>> pair_vector([(1, 2)])
    {(1,): 1, (2,): -1}
    """
    letters = [x for pair in pairs for x in pair]
    if len(set(letters)) != len(letters):
        raise ValueError(f"pairs are not disjoint: {list(pairs)}")
    vec: dict[Tabloid, int] = {}
    for swaps in itertools.product((0, 1), repeat=len(pairs)):
        first = tuple(sorted(b if s else a for (a, b), s in zip(pairs, swaps)))
        vec[first] = -1 if sum(swaps) % 2 else 1
    return vec


def polytabloid(t: Tableau) -> dict[Tabloid, int]:
    """The signed sum of tabloids over the column stabilizer of t: the
    pair vector of its columns.

    >>> polytabloid(Tableau(((1,), (2,))))
    {(1,): 1, (2,): -1}
    """
    return pair_vector(t.columns())


@cache
def all_tabloids(n: int) -> tuple[Tabloid, ...]:
    """All n-subsets of 1..2n in colex order; the fixed coordinate order
    for matrices over the tabloid space."""
    subsets = itertools.combinations(range(1, 2 * n + 1), n)
    return tuple(sorted(subsets, key=lambda s: tuple(reversed(s))))


@cache
def _tabloid_index(n: int) -> dict[Tabloid, int]:
    return {tab: i for i, tab in enumerate(all_tabloids(n))}


def tabloid_echelon(vectors: Sequence[dict[Tabloid, int]], n: int) -> Echelon:
    """Echelon form of the C(2n,n) x k matrix whose columns are the k
    given tabloid vectors, rows in all_tabloids(n) order.

    Raises RuntimeError when the vectors are linearly dependent.
    """
    index = _tabloid_index(n)
    matrix = [[0] * len(vectors) for _ in index]
    for j, vec in enumerate(vectors):
        for tab, c in vec.items():
            matrix[index[tab]][j] = c
    ech = Echelon(matrix)
    if not ech.unique:
        raise RuntimeError(f"the {len(vectors)} tabloid vectors at n={n} are linearly dependent")
    return ech


def coordinates(ech: Echelon, vec: dict[Tabloid, int], n: int) -> list[Fraction]:
    """Exact coordinates of a tabloid vector in the columns of ech, an
    echelon from tabloid_echelon(..., n).

    Raises ValueError when the vector is outside their span.
    """
    index = _tabloid_index(n)
    rhs = [0] * len(index)
    for tab, c in vec.items():
        if tab not in index:
            raise ValueError(f"{tab} is not a tabloid of shape ({n}, {n})")
        rhs[index[tab]] = c
    coords = ech.solve(rhs)
    if coords is None:
        raise ValueError("vector is not in the span of the basis")
    return coords


@cache
def _standard_basis_echelon(n: int) -> Echelon:
    """Echelon form of the standard polytabloids, cached per n."""
    return tabloid_echelon([polytabloid(t) for t in enumerate_syt(n)], n)


def express_in_standard_polytabloids(vec: dict[Tabloid, int], n: int) -> list[Fraction]:
    """Exact coordinates of a tabloid-space vector in the standard
    polytabloid basis, ordered like enumerate_syt(n).

    Raises ValueError when the vector is outside the span (a caller bug:
    every vector produced by the module's own operations stays inside).

    >>> from .combinat import interleaved_tableau
    >>> express_in_standard_polytabloids(polytabloid(interleaved_tableau(2)), 2)
    [Fraction(1, 1), Fraction(0, 1)]
    """
    return coordinates(_standard_basis_echelon(n), vec, n)


def action_matrix(i: int, n: int) -> list[list[int]]:
    """Matrix of the adjacent transposition s_i on the irreducible module
    in the standard polytabloid basis; column T holds the coordinates of
    s_i acting on the polytabloid of T."""
    return [row[:] for row in _action_matrix(i, n)]


@cache
def _action_matrix(i: int, n: int) -> list[list[int]]:
    sigma = adjacent_transposition(2 * n, i)
    columns = []
    for t in enumerate_syt(n):
        moved = act_on_tabloid_vector(sigma, polytabloid(t))
        coords = express_in_standard_polytabloids(moved, n)
        if any(c.denominator != 1 for c in coords):
            raise ArithmeticError(
                f"non-integer coordinates of s_{i} on the polytabloid of {t.rows}"
            )
        columns.append([int(c) for c in coords])
    return [list(row) for row in zip(*columns)]
