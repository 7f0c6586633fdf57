"""
The transition matrix
=====================

The polytabloid of a standard tableau T is the product of its column
minors, so resolving the crossings of the matching whose pairs are the
columns of T gives the web coordinates of the image of T's polytabloid.
Collected over all T these rows form the change-of-basis matrix, which
comes out with nonnegative integer entries and lower unitriangular in
canonical order (web k is the opener/closer image of tableau k, so the
pairing is the diagonal) -- exactly and at every size computed here.

``transition_matrix`` reaches the same rows faster: the map is
equivariant, so it builds the rows in canonical order, each one
generator step s_i away from a row built before it, starting from the
interleaved tableau.  The test suite checks that both constructions
agree entry for entry.
"""

from tworow import enumerate_syt, transition_matrix, verify

for n in (2, 3, 4):
    tm = transition_matrix(n)
    print(f"\nn={n}  ({len(tm.entries)} x {len(tm.entries)})")
    # row r is the r-th standard tableau in canonical order
    for t, row in zip(enumerate_syt(n), tm.entries):
        print(f"  {t.rows[0]} | {' '.join(f'{e:2d}' for e in row)}")
    # unit diagonal and nothing above it: lower unitriangular
    report = verify(n)
    unitriangular = report["diagonalOnes"] and report["supportAcyclic"]
    print("  nonnegative:", report["nonnegative"], " unitriangular:", unitriangular)

# Larger sizes stay exact: the 132 x 132 matrix at n=6.  verify reads the
# rows as a stream, holding a few of them, not the matrix.
tm6 = transition_matrix(6)
print("n=6 entry range:",
      min(min(r) for r in tm6.entries), "..", max(max(r) for r in tm6.entries),
      " nonnegative:", verify(6)["nonnegative"])
