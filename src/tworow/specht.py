"""
The polytabloid model of the irreducible two-row representation.

A (row) tabloid of shape (n, n) is determined by its first-row set, so we
store it as the sorted tuple of first-row entries.  The permutation module
spanned by all tabloids has dimension C(2n, n); inside it, the polytabloid
of a tableau T is the signed sum over the 2^n column swaps of T, and the
polytabloids of the standard tableaux form a basis of the irreducible
submodule.  Coordinates in that basis are obtained by an exact linear
solve against the tabloid-coordinate matrix of the standard polytabloids.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

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


def polytabloid(t: Tableau) -> dict[Tabloid, int]:
    """The signed sum of tabloids over the column stabilizer of t.

    Each of the 2^n choices of columns to swap contributes the resulting
    tabloid with sign (-1)^(number of swapped columns).  The column entry
    sets are disjoint, so no cancellation occurs: the support has exactly
    2^n tabloids, each with coefficient +1 or -1.

    >>> polytabloid(Tableau(((1,), (2,))))
    {(1,): 1, (2,): -1}
    """
    cols = t.columns()
    vec: dict[Tabloid, int] = {}
    for swaps in itertools.product((0, 1), repeat=t.n):
        sign = -1 if sum(swaps) % 2 else 1
        first = tuple(sorted(b if s else a for (a, b), s in zip(cols, swaps)))
        vec[first] = vec.get(first, 0) + sign
    if len(vec) != 2**t.n:
        raise RuntimeError(f"polytabloid support has {len(vec)} tabloids, not {2**t.n}")
    return vec


@cache
def all_tabloids(n: int) -> tuple[Tabloid, ...]:
    """All n-subsets of 1..2n in colex order; the fixed coordinate order
    for matrices over the tabloid space."""
    subsets = itertools.combinations(range(1, 2 * n + 1), n)
    return tuple(sorted(subsets, key=lambda s: tuple(reversed(s))))


@cache
def _standard_basis_echelon(n: int) -> tuple[Echelon, dict[Tabloid, int]]:
    """Echelon form of the C(2n,n) x Cat(n) matrix whose columns are the
    standard polytabloids in tabloid coordinates, cached per n."""
    tabloids = all_tabloids(n)
    index = {tab: i for i, tab in enumerate(tabloids)}
    columns = [polytabloid(t) for t in enumerate_syt(n)]
    matrix = [[col.get(tab, 0) for col in columns] for tab in tabloids]
    ech = Echelon(matrix)
    if not ech.unique:
        raise RuntimeError(f"the n={n} standard polytabloids are linearly dependent")
    return ech, index


def express_in_standard_polytabloids(vec: dict[Tabloid, int], n: int) -> list[Fraction]:
    """Exact coordinates of a tabloid-space vector in the standard
    polytabloid basis, ordered like enumerate_syt(n).

    Raises ValueError when the vector is outside the span (a caller bug:
    every vector produced by the module's own operations stays inside).

    >>> from .combinat import interleaved_tableau
    >>> express_in_standard_polytabloids(polytabloid(interleaved_tableau(2)), 2)
    [Fraction(1, 1), Fraction(0, 1)]
    """
    ech, index = _standard_basis_echelon(n)
    rhs = [0] * len(index)
    for tab, c in vec.items():
        rhs[index[tab]] = c
    coords = ech.solve(rhs)
    if coords is None:
        raise ValueError("vector is not in the span of the standard polytabloids")
    return coords


def serialize_tabloid_vector(vec: dict[Tabloid, int]) -> list[dict]:
    """JSON-ready term list [{"firstRow": [...], "coeff": c}], keys in
    ascending first-row order."""
    return [
        {"firstRow": list(tab), "coeff": vec[tab]} for tab in sorted(vec)
    ]


def deserialize_tabloid_vector(terms: list[dict]) -> dict[Tabloid, int]:
    return {tuple(t["firstRow"]): t["coeff"] for t in terms}


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
