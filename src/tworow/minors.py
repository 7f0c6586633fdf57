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

The package needs only D(M) itself and its JSON text for
``enumerate --dump-poly``.  The identities above, the expansion over the
noncrossing products and the agreement of the column action with the web
action are checked in the test suite's model (``tests/model.py``).
"""

from __future__ import annotations

from .combinat import Matching
from .specht import Tabloid, pair_vector


def web_vector(m: Matching) -> dict[Tabloid, int]:
    """D(m), the product of the pair minors of a perfect matching, as a
    tabloid vector: 2^n tabloids, each with coefficient +1 or -1.

    >>> web_vector(Matching((2, 1)))
    {(1,): 1, (2,): -1}
    """
    return pair_vector(m.pairs())


def serialize_polynomial(vec: dict[Tabloid, int], pad: str = "") -> str:
    """A tabloid vector as the JSON text (``json.dumps(terms, indent=2)``)
    of its polynomial's term list, [{"exponents": [[r, j, e], ...],
    "coeff": c}]: the row-1 columns (the tabloid), then the row-2 columns
    (its complement in 1..2n), each with exponent 1; terms in ascending
    tabloid order.  Every line after the first starts with ``pad``, so the
    text can be written as an item nested in a larger document.  The
    tabloids all have the same n letters, so the text of each triple is
    made once, at its depth, and each term's triples are one join.

    >>> import json
    >>> json.loads(serialize_polynomial({(2,): -1}))
    [{'exponents': [[1, 2, 1], [2, 1, 1]], 'coeff': -1}]
    >>> serialize_polynomial({(1,): 1}, pad="  ").splitlines()[:2]
    ['[', '    {']
    >>> serialize_polynomial({}, pad="  ")
    '[]'
    """
    if not vec:
        return "[]"
    letters = range(1, 2 * len(next(iter(vec))) + 1)
    nl = "\n" + pad
    # [r, j, 1] as json.dumps lays it out in a term's exponents
    row1 = {j: f"[{nl}        1,{nl}        {j},{nl}        1{nl}      ]" for j in letters}
    row2 = {j: f"[{nl}        2,{nl}        {j},{nl}        1{nl}      ]" for j in letters}
    rest = set(letters).difference
    gap, head, sep = f",{nl}  ", f'{{{nl}    "exponents": [{nl}      ', f",{nl}      "
    # each term after a gap, the first after the opening bracket instead:
    # one join over all the pieces copies each term's text once
    pieces = []
    for tab in sorted(vec):
        pieces += (
            gap,
            head,
            sep.join([*map(row1.__getitem__, tab), *map(row2.__getitem__, sorted(rest(tab)))]),
            f'{nl}    ],{nl}    "coeff": {vec[tab]}{nl}  }}',
        )
    pieces[0] = f"[{nl}  "
    pieces.append(f"{nl}]")
    return "".join(pieces)
