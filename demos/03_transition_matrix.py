"""
The transition matrix
=====================

Each standard tableau T determines a permutation (the one aligning the
interleaved tableau with T); pushing the consecutive-pairs matching
through it and resolving the crossings gives the web coordinates of the
image of T's polytabloid.  Collected over all T these rows form the
change-of-basis matrix, which comes out with nonnegative integer entries
and lower unitriangular in canonical order (web k is the opener/closer
image of tableau k, so the pairing is the diagonal) -- exactly and at
every size computed here.

``transition_matrix`` reaches the same rows faster: the map is
equivariant, so each row is one generator step s_i away from a row
already built, starting from the interleaved tableau.  The test suite
checks that both constructions agree entry for entry.
"""

from tworow import enumerate_syt, transition_matrix
from tworow.transition import check_nonnegative, check_unitriangular, row_sign

for n in (2, 3, 4):
    tm = transition_matrix(n)
    print(f"\nn={n}  ({len(tm.entries)} x {len(tm.entries)})")
    for t, row in zip(tm.row_labels, tm.entries):
        print(f"  {t.rows[0]} | {' '.join(f'{e:2d}' for e in row)}")
    print("  nonnegative:", check_nonnegative(tm)[0],
          " unitriangular:", check_unitriangular(tm))

# The sign picked up while aligning the matchings is computed from the
# inversion pairs, never assumed; it comes out +1 for every row.
print("\nall row signs at n=5:",
      sorted({row_sign(t) for t in enumerate_syt(5)}))

# Larger sizes stay exact: the 132 x 132 matrix at n=6.
tm6 = transition_matrix(6)
print("n=6 entry range:",
      min(min(r) for r in tm6.entries), "..", max(max(r) for r in tm6.entries),
      " nonnegative:", check_nonnegative(tm6)[0])
