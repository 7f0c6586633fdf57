"""
The JSON text of the polynomial realization of the web model.

Take the entries x[r, j] of a 2 x 2n matrix of variables.  For columns
a < b the 2 x 2 minor is

    D(a, b) = x[1,a] * x[2,b] - x[1,b] * x[2,a]

and, for a perfect matching M, D(M) is the product of the minors of its
pairs.  The pairs are disjoint, so D(M) is multilinear: each of its 2^n
monomials puts one letter of each pair in row 1 and the other in row 2,
and is fixed by its row-1 set, a tabloid, so D(M) is the signed tabloid
vector ``specht.pair_vector(M.pairs())``.  For a < b < c < d the minors
satisfy the three-term identity

    D(a,c) * D(b,d) = D(a,b) * D(c,d) + D(a,d) * D(b,c),

which is what makes the crossing rewrite of the web module work.

The package needs only the JSON text of D(M), for ``enumerate
--dump-poly``, and ``serialize_polynomial`` writes it straight from M.
The identity above, the sign rule for permuting columns, the expansion
over the noncrossing products and the agreement of the column action
with the web action are checked in the test suite's model
(``tests/model.py``), which holds D(M) as a tabloid vector.
"""

from __future__ import annotations

from itertools import repeat
from operator import concat, neg

from .combinat import Matching


def serialize_polynomial(m: Matching, pad: str = "") -> str:
    """D(m), the product of the pair minors of a perfect matching, as the
    JSON text (``json.dumps(terms, indent=2)``) of its term list,
    [{"exponents": [[r, j, e], ...], "coeff": c}]: the row-1 columns (the
    tabloid), then the row-2 columns, each with exponent 1; terms in
    ascending tabloid order.  Every line after the first starts with
    ``pad``, so the text can be written as an item nested in a larger
    document.

    One walk over the letters in ascending order builds every term.  At an
    opener each partial term branches: the opener goes to row 1, or to row
    2 with the sign negated.  At a closer it goes to the row its opener did
    not go to.  So each row comes out in letter order and the terms in
    ascending tabloid order, with no tabloid, sort or complement.  A term
    is a tuple of triple texts, each made once per call at its depth, and
    it is joined once.

    >>> import json
    >>> terms = json.loads(serialize_polynomial(Matching((2, 1))))
    >>> [t["exponents"] for t in terms], [t["coeff"] for t in terms]
    ([[[1, 1, 1], [2, 2, 1]], [[1, 2, 1], [2, 1, 1]]], [1, -1])
    >>> serialize_polynomial(Matching((2, 1)), pad="  ").splitlines()[:2]
    ['[', '    {']
    """
    nl = "\n" + pad
    start = f'[{nl}  {{{nl}    "exponents": ['
    if not m.partner:  # the empty product: one term, with no exponents
        return f'{start}],{nl}    "coeff": 1{nl}  }}{nl}]'
    letters = range(1, len(m.partner) + 1)
    # [r, j, 1] as json.dumps lays it out in a term's exponents
    row1 = {j: f"[{nl}        1,{nl}        {j},{nl}        1{nl}      ]" for j in letters}
    row2 = {j: f"[{nl}        2,{nl}        {j},{nl}        1{nl}      ]" for j in letters}
    # term k: its row-1 triples ones[k], its row-2 triples twos[k], its sign
    ones: list[tuple[str, ...]] = [()]
    twos: list[tuple[str, ...]] = [()]
    signs = [1]
    branched = {}  # closer -> how many openers had branched once its own had
    for x, y in zip(letters, m.partner):
        if x < y:
            # each term branches in two, side by side: x in row 1, then in row 2
            ones = _alternate(list(map(concat, ones, repeat((row1[x],)))), ones)
            twos = _alternate(twos, list(map(concat, twos, repeat((row2[x],)))))
            signs = _alternate(signs, list(map(neg, signs)))
            branched[y] = len(branched) + 1
        else:
            # each later branch doubled the terms in place, so the opener went
            # to row 1 in the first half of every run of 2 * half terms, and
            # x goes to the other row
            half = 1 << (len(branched) - branched[x])
            runs = len(ones) // (2 * half)
            none = [()] * half
            ones = list(map(concat, ones, (none + [(row1[x],)] * half) * runs))
            twos = list(map(concat, twos, ([(row2[x],)] * half + none) * runs))
    sep = f",{nl}      "
    # the text from a term's last triple to the next term's first
    after = {
        c: f'{nl}    ],{nl}    "coeff": {c}{nl}  }},{nl}  {{{nl}    "exponents": [{nl}      '
        for c in (1, -1)
    }
    pieces = [f"{start}{nl}      "] + [""] * (2 * len(ones))
    pieces[1::2] = map(sep.join, map(concat, ones, twos))
    pieces[2::2] = map(after.__getitem__, signs)
    pieces[-1] = f'{nl}    ],{nl}    "coeff": {signs[-1]}{nl}  }}{nl}]'
    return "".join(pieces)


def _alternate(evens: list, odds: list) -> list:
    """evens[0], odds[0], evens[1], odds[1], ...: two lists of one length,
    alternating."""
    both = evens * 2
    both[::2], both[1::2] = evens, odds
    return both
