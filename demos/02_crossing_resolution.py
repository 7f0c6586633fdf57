"""
Resolving crossings
===================

A crossing pair a < b < c < d (a~c, b~d) in a perfect matching can be
reconnected in the two planar ways, (a~b, c~d) and (a~d, b~c); both have
strictly fewer crossings, so repeating this expands any matching as a
sum of noncrossing ones with nonnegative integer coefficients.  The
expansion is independent of which crossing is rewritten first, and it
agrees with an exact expansion of products of 2x2 minors, written as
tabloid vectors.
"""

from tworow import Matching, crossing_pairs, enumerate_webs, specht
from tworow.minors import web_vector
from tworow.webs import resolve_crossings

crossed = Matching.from_pairs([(1, 4), (2, 5), (3, 6)])
print("matching:", " ".join(f"{a}~{b}" for a, b in crossed.pairs()))
print("crossing quadruples:", crossing_pairs(crossed))

expansion = resolve_crossings(crossed)
print("\nexpansion into noncrossing matchings:")
for m, c in sorted(expansion.items(), key=lambda kv: kv[0].partner):
    print(f"  {c} * ({' '.join(f'{a}~{b}' for a, b in m.pairs())})")

# The rewrite always takes the lexicographically smallest crossing.  The
# result does not depend on that choice: the test suite rewrites a random
# crossing at each step instead and gets the same vector
# (tests/test_webs.py, test_rewrite_order_does_not_matter).

# Independent check: expand the product of the pair minors of the
# matching over the minor products of noncrossing matchings.  Each
# product is multilinear, so a monomial is fixed by its row-1 columns (a
# tabloid), and the noncrossing products are unitriangular over the
# tabloids, so the expansion peels them off by their leading tabloids.
web_list = enumerate_webs(3)
basis = specht.triangular_basis([web_vector(w) for w in web_list])
oracle = specht.coordinates(basis, web_vector(crossed), 3)
print("minor-product expansion agrees:", oracle == [expansion.get(w, 0) for w in web_list])
