"""
The polynomial realization of the web model, in tabloid coordinates.

Take the entries x[r, j] of a 2 x 2n matrix of variables.  For columns
a < b the 2 x 2 minor is

    D(a, b) = x[1,a] * x[2,b] - x[1,b] * x[2,a]

and, for a perfect matching M, D(M) is the product of the minors of its
pairs.  The pairs are disjoint, so D(M) is multilinear: each monomial
puts n columns in row 1 and the other n in row 2, and is determined by
the row-1 set, a tabloid.  So D(M) is the signed tabloid vector
``specht.pair_vector(M.pairs())`` (``web_vector``), in the same space as
the polytabloids, and permuting the columns of the variable matrix is
the letter action on tabloids.  For a < b < c < d the minors satisfy the
three-term identity

    D(a,c) * D(b,d) = D(a,b) * D(c,d) + D(a,d) * D(b,c),

which is what makes the crossing rewrite of the web module work.  For
noncrossing N, D(N) has coefficient 1 at the openers of N and every other
tabloid in it is dominated by them, so expanding a vector in these
products is an integer peel over the tabloids (``specht.coordinates``)
and gives an independent check of that rewrite.  Permuting the columns
sends D(M) to +/- D(sigma(M)), the sign counting the pairs of M that
sigma inverts.
"""

from __future__ import annotations

from functools import cache

from . import specht
from .combinat import Matching, Permutation, adjacent_transposition, enumerate_webs, permute_matching
from .specht import Tabloid, act_on_tabloid_vector, pair_vector
from .webs import action_table


def web_vector(m: Matching) -> dict[Tabloid, int]:
    """D(m), the product of the pair minors of a perfect matching, as a
    tabloid vector: 2^n tabloids, each with coefficient +1 or -1.

    >>> web_vector(Matching((2, 1)))
    {(1,): 1, (2,): -1}
    """
    return pair_vector(m.pairs())


def syzygy_holds(a: int, b: int, c: int, d: int) -> bool:
    """Whether D(a,c) D(b,d) = D(a,b) D(c,d) + D(a,d) D(b,c), exactly."""
    if not a < b < c < d:
        raise ValueError("columns must satisfy a < b < c < d")
    rhs = pair_vector([(a, b), (c, d)])
    for tab, v in pair_vector([(a, d), (b, c)]).items():
        rhs[tab] = rhs.get(tab, 0) + v
    return pair_vector([(a, c), (b, d)]) == {tab: v for tab, v in rhs.items() if v}


def sign_rule_holds(sigma: Permutation, m: Matching) -> bool:
    """Whether permuting columns of D(m) equals sign * D(sigma(m)) with the
    inversion-pair sign computed by combinat.permute_matching."""
    sign, moved = permute_matching(sigma, m)
    expected = {tab: sign * c for tab, c in web_vector(moved).items()}
    return act_on_tabloid_vector(sigma, web_vector(m)) == expected


@cache
def _web_basis(n: int):
    """The minor products of the noncrossing matchings as a
    specht.triangular_basis, cached per n."""
    return specht.triangular_basis([web_vector(w) for w in enumerate_webs(n)])


def web_polynomials_independent(n: int) -> bool:
    """Whether the minor products of the Catalan(n) noncrossing matchings
    are unitriangular over the tabloids, which makes them independent."""
    return specht.is_unitriangular([web_vector(w) for w in enumerate_webs(n)])


def expand_in_web_basis(vec: dict[Tabloid, int], n: int) -> dict[Matching, int]:
    """Exact coordinates of a tabloid vector in the span of the
    noncrossing minor products; the independent check for the crossing
    rewrite.

    Raises ValueError when vec is outside the span.

    >>> from .combinat import consecutive_matching
    >>> m0 = consecutive_matching(2)
    >>> expand_in_web_basis(web_vector(m0), 2) == {m0: 1}
    True
    """
    coords = specht.coordinates(_web_basis(n), vec, n)
    return {w: c for w, c in zip(enumerate_webs(n), coords) if c}


def column_action_matches_web_action(n: int) -> bool:
    """Whether, for every generator s_i and every noncrossing matching M,
    permuting the columns of D(M) expands to exactly the web-model action
    of s_i on M, as ``webs.action_table`` codes it: -w_M, or w_M plus the
    web its entry names.  This is the compatibility that makes the two
    models the same representation."""
    web_list = enumerate_webs(n)
    for i in range(1, 2 * n):
        sigma = adjacent_transposition(2 * n, i)
        for m, target in zip(web_list, action_table(i, n)):
            moved = act_on_tabloid_vector(sigma, web_vector(m))
            expected = {m: -1} if target < 0 else {m: 1, web_list[target]: 1}
            if expand_in_web_basis(moved, n) != expected:
                return False
    return True


def serialize_polynomial(vec: dict[Tabloid, int]) -> list[dict]:
    """A tabloid vector as the JSON-ready term list of its polynomial,
    [{"exponents": [[r, j, e], ...], "coeff": c}]: the row-1 columns (the
    tabloid), then the row-2 columns (its complement in 1..2n), each with
    exponent 1; terms in ascending tabloid order.

    >>> serialize_polynomial({(2,): -1})
    [{'exponents': [[1, 2, 1], [2, 1, 1]], 'coeff': -1}]
    """
    terms = []
    for tab in sorted(vec):
        row2 = sorted(set(range(1, 2 * len(tab) + 1)).difference(tab))
        exponents = [[1, j, 1] for j in tab] + [[2, k, 1] for k in row2]
        terms.append({"exponents": exponents, "coeff": vec[tab]})
    return terms
