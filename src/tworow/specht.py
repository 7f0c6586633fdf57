"""
The polytabloid model of the irreducible two-row representation, and the
tabloid space both models are computed in.

A (row) tabloid of shape (n, n) is determined by its first-row set, so we
store it as the sorted tuple of first-row entries.  The tabloids span a
permutation module of dimension C(2n, n).  For disjoint pairs, the signed
sum over the choices of one letter per pair (``pair_vector``) is the
tabloid vector of both bases: the polytabloid e_T of a tableau T is the
pair vector of its columns, and the minor product D(M) of a perfect
matching M is the pair vector of its pairs (``minors``).  So
s_i . e_T = e_{s_i T} is the pair vector of T's columns with the letters
i and i + 1 swapped (``action_matrix``), pairs such as (i + 1, i)
among them: a choice's sign follows the pair's order, not its letters'.
``pair_vector`` walks the letters in ascending order, so it builds each
tabloid already sorted.

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

from collections.abc import Sequence
from functools import cache

from .combinat import Tableau, enumerate_syt

Tabloid = tuple[int, ...]


def pair_vector(pairs: Sequence[tuple[int, int]]) -> dict[Tabloid, int]:
    """The signed sum of tabloids over the choices of one letter per pair.

    Choosing the second letter b of a pair (a, b) costs a sign, even when
    b < a, so the vector has exactly 2^k tabloids, each with coefficient
    +1 or -1.  Read as a polynomial in the entries x[r, j] of a 2 x 2n
    matrix, with the tabloid giving the row-1 columns, it is the product
    of the minors x[1,a] x[2,b] - x[1,b] x[2,a] of the pairs.

    The letters are walked in ascending order.  At the smaller letter of a
    pair each partial tabloid takes the letter or owes the partner, and
    both branches are signed; at the larger letter it takes the letter
    only if it owes it.  So every tabloid is built sorted, and they come
    out in ascending order.

    >>> pair_vector([(1, 2)])
    {(1,): 1, (2,): -1}
    >>> pair_vector([(2, 1)])
    {(1,): -1, (2,): 1}
    """
    # each letter's partner, and the sign of taking the letter
    partner: dict[int, tuple[int, int]] = {}
    for a, b in pairs:
        if a == b or a in partner or b in partner:
            raise ValueError(f"pairs are not disjoint: {list(pairs)}")
        partner[a], partner[b] = (b, 1), (a, -1)
    tabs: list[Tabloid] = [()]
    signs = [1]
    for x in sorted(partner):
        y, s = partner[x]
        if x < y:
            tabs = [u for t in tabs for u in (t + (x,), t)]
            signs = [c for v in signs for c in (s * v, -s * v)]
        else:
            tabs = [t if y in t else t + (x,) for t in tabs]
    return dict(zip(tabs, signs))


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
    s_i . e_T = e_{s_i T}, the pair vector of T's columns with the letters
    i and i + 1 swapped (s_i T need not be standard).  Built afresh on
    every call."""
    if type(i) is not int or not 1 <= i <= 2 * n - 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * n - 1}")
    swap = {i: i + 1, i + 1: i}
    columns = []
    for t in enumerate_syt(n):
        moved = pair_vector([(swap.get(a, a), swap.get(b, b)) for a, b in t.columns()])
        columns.append(express_in_standard_polytabloids(moved, n))
    return [list(row) for row in zip(*columns)]
