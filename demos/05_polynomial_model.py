"""
The polynomial model
====================

Everything about webs can be phrased with polynomials in a 2 x 2n matrix
of variables: a matching becomes the product of the 2x2 minors of its
pairs, crossings disappear through the three-term minor identity, and
permuting columns realizes the symmetric group action with an explicit
sign.  The products are multilinear, so each monomial is fixed by the
set of columns it takes from row 1, a tabloid: D(M) is a signed tabloid
vector, in the same space as the polytabloids.  The package itself needs
only the JSON text of D(M), which ``minors.serialize_polynomial`` writes
straight from the matching.
"""

import json

from tworow import Matching, consecutive_matching, enumerate_webs, specht
from tworow.minors import serialize_polynomial


def web_vector(m):
    """D(m), the product of the minors of m's pairs, by row-1 columns."""
    return specht.pair_vector(m.pairs())


# A permutation is written in one-line notation: sigma[a - 1] is the
# image of column a.


def permute_columns(sigma, vec):
    """Send every column a of each tabloid of vec to sigma[a - 1]."""
    return {tuple(sorted(sigma[a - 1] for a in tab)): c for tab, c in vec.items()}


def inversion_sign(sigma, m):
    """(-1) to the number of pairs a < b of m with sigma(a) > sigma(b)."""
    return (-1) ** sum(1 for a, b in m.pairs() if sigma[a - 1] > sigma[b - 1])


m0 = consecutive_matching(2)
print("D(1,2):", web_vector(consecutive_matching(1)))
print("D(1,2)D(3,4) by row-1 columns:", web_vector(m0))
print("the same as monomials:")
# serialize_polynomial gives the JSON text that enumerate --dump-poly writes
for term in json.loads(serialize_polynomial(m0)):
    print(f"  {term['coeff']:+d} *", " ".join(f"x[{r},{j}]" for r, j, _ in term["exponents"]))

# The identity that powers the crossing rewrite.
rhs = web_vector(m0)
for tab, c in web_vector(Matching.from_pairs([(1, 4), (2, 3)])).items():
    rhs[tab] = rhs.get(tab, 0) + c
lhs = web_vector(Matching.from_pairs([(1, 3), (2, 4)]))
print("\nD(1,3)D(2,4) = D(1,2)D(3,4) + D(1,4)D(2,3):",
      lhs == {tab: c for tab, c in rhs.items() if c})

# Column permutation picks up a sign counting the inverted pairs.
s1 = (2, 1, 3, 4)
moved = permute_columns(s1, web_vector(m0))
print("\npermuting columns 1,2 of D(1,2)D(3,4) negates it:",
      moved == {tab: -c for tab, c in web_vector(m0).items()})
print("inversion-pair sign:", inversion_sign(s1, m0))

sigma = (3, 1, 4, 2)
crossed = Matching.from_pairs([(1, 3), (2, 4)])
image = Matching.from_pairs(sorted((sigma[a - 1], sigma[b - 1])) for a, b in crossed.pairs())
sign = inversion_sign(sigma, crossed)
print("sign rule for a full permutation:",
      permute_columns(sigma, web_vector(crossed))
      == {tab: sign * c for tab, c in web_vector(image).items()})

# The minor product of a noncrossing matching has coefficient 1 at its
# openers, and every other tabloid in it is dominated by them: the
# products are unitriangular over the tabloids, hence independent, and
# expanding in them is an integer peel, most dominant lead first.
for n in (1, 2, 3, 4):
    print(f"unitriangular at n={n}:",
          specht.is_unitriangular([web_vector(w) for w in enumerate_webs(n)]))
