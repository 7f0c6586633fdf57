"""
The polytabloid model of the irreducible two-row representation, and the
tabloid space both models are computed in.

A (row) tabloid of shape (n, n) is determined by its first-row set, so we
store it as the sorted tuple of first-row entries; s_i swaps the letters i
and i + 1 in it (``action_matrix``).  The tabloids span a permutation
module of dimension C(2n, n).  For disjoint pairs, the signed sum over the
choices of one letter per pair (``pair_vector``) is the tabloid vector of
both bases: the polytabloid of a tableau T is the pair vector of its
columns, and the minor product D(M) of a perfect matching M is the pair
vector of its pairs (``minors``).

Both bases are unitriangular over the tabloids, ordered by dominance:
the polytabloid of a standard T has coefficient 1 at the first row of T
and every other tabloid in it is dominated by that row (the standard
basis theorem), and D(M) for a noncrossing M does the same at the
openers of M.  So coordinates in either basis come from one integer peel
(``triangular_basis``, ``coordinates``): visit the leads most dominant
first, read the residual there and subtract that multiple of the basis
vector.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cache

from .combinat import Tableau, enumerate_syt

Tabloid = tuple[int, ...]


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


def _lead(vec: dict[Tabloid, int]) -> Tabloid | None:
    """The lexicographically first tabloid of vec when its coefficient is
    1 and it dominates every tabloid of vec, else None.

    For sorted first rows of equal length, a dominates b exactly when
    a[j] <= b[j] for every j; lexicographic order extends dominance.
    """
    lead = min(vec, default=None)
    ok = lead is not None and vec[lead] == 1
    return lead if ok and all(x <= y for tab in vec for x, y in zip(lead, tab)) else None


def is_unitriangular(vectors: Sequence[dict[Tabloid, int]]) -> bool:
    """Whether every vector has a lead (``_lead``) and no two share one:
    then the family is independent and ``coordinates`` need no division."""
    leads = [_lead(vec) for vec in vectors]
    return None not in leads and len(set(leads)) == len(leads)


def triangular_basis(vectors: Sequence[dict[Tabloid, int]]) -> list[tuple]:
    """(lead, index, vector) for each vector, leads ascending, so most
    dominant first.  Raises RuntimeError unless ``is_unitriangular``."""
    if not is_unitriangular(vectors):
        raise RuntimeError(f"the {len(vectors)} tabloid vectors are not unitriangular")
    return sorted((min(vec), j, vec) for j, vec in enumerate(vectors))


def _is_tabloid(tab: Tabloid, n: int) -> bool:
    return len(tab) == n and list(tab) == sorted(set(tab)) and all(1 <= x <= 2 * n for x in tab)


def coordinates(basis, vec: dict[Tabloid, int], n: int) -> list[int]:
    """Integer coordinates of a tabloid vector in a triangular_basis.

    Peels the basis vectors off by their leads, most dominant first: every
    other tabloid of a basis vector is dominated by its lead, so a peel
    never touches a lead already read.

    Raises ValueError when the vector is outside their span.
    """
    residual = dict(vec)
    coords = [0] * len(basis)
    for lead, j, basis_vec in basis:
        c = residual.pop(lead, 0)
        if c:
            coords[j] = c
            for tab, v in basis_vec.items():
                if tab != lead:
                    residual[tab] = residual.get(tab, 0) - c * v
    for tab, c in residual.items():
        if not _is_tabloid(tab, n):
            raise ValueError(f"{tab} is not a tabloid of shape ({n}, {n})")
    if any(residual.values()):
        raise ValueError("vector is not in the span of the basis")
    return coords


@cache
def _standard_basis(n: int):
    """The standard polytabloids as a triangular_basis, cached per n."""
    return triangular_basis([polytabloid(t) for t in enumerate_syt(n)])


def express_in_standard_polytabloids(vec: dict[Tabloid, int], n: int) -> list[int]:
    """Exact coordinates of a tabloid-space vector in the standard
    polytabloid basis, ordered like enumerate_syt(n).

    Raises ValueError when the vector is outside the span (a caller bug:
    every vector produced by the module's own operations stays inside).

    >>> from .combinat import interleaved_tableau
    >>> express_in_standard_polytabloids(polytabloid(interleaved_tableau(2)), 2)
    [1, 0]
    """
    return coordinates(_standard_basis(n), vec, n)


def action_matrix(i: int, n: int) -> list[list[int]]:
    """Matrix of the adjacent transposition s_i on the irreducible module
    in the standard polytabloid basis; column T holds the coordinates of
    s_i acting on the polytabloid of T: each of its tabloids with the
    letters i and i + 1 swapped and sorted again (a bijection, so no two
    collide).  Built afresh on every call."""
    if type(i) is not int or not 1 <= i <= 2 * n - 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * n - 1}")
    swap = {i: i + 1, i + 1: i}
    columns = []
    for t in enumerate_syt(n):
        vec = polytabloid(t)
        moved = {tuple(sorted(swap.get(x, x) for x in tab)): vec[tab] for tab in vec}
        columns.append(express_in_standard_polytabloids(moved, n))
    return [list(row) for row in zip(*columns)]
