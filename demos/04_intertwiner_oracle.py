"""
The intertwiner cross-check
===========================

The polytabloid and web models are isomorphic irreducibles, so up to one
scalar there is exactly one map X between them commuting with every
adjacent transposition.  Stacking the linear conditions X A_i = B_i X
over all generators and computing the exact nullspace recovers that map
with no reference to crossing rewrites; after scaling its
(consecutive matching, interleaved tableau) entry to 1, it must equal
the transition matrix entry for entry.  It does.
"""

from tworow import intertwiner_oracle, transition_matrix
from tworow import specht, webs


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def web_action_matrix(i, n):
    """B_i from s_i's table: column k is -w_k when the entry is -1, and
    otherwise w_k plus the web the entry names."""
    table = webs.action_table(i, n)
    b = [[0] * len(table) for _ in table]
    for k, target in enumerate(table):
        if target < 0:
            b[k][k] = -1
        else:
            b[k][k] = b[target][k] = 1
    return b


for n in (1, 2, 3, 4):
    oracle = intertwiner_oracle(n)
    direct = transition_matrix(n)
    print(f"n={n}: oracle equals the transition matrix: {oracle == direct}")

# The commuting condition, spelled out at n=3: X is the transpose of the
# entry matrix (rows webs, columns tableaux).
n = 3
x = [list(col) for col in zip(*transition_matrix(n).entries)]
for i in range(1, 2 * n):
    a = specht.action_matrix(i, n)
    b = web_action_matrix(i, n)
    print(f"  X A_{i} == B_{i} X:", mat_mul(x, a) == mat_mul(b, x))
