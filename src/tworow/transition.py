"""
The change of basis from standard polytabloids to webs.

Row T of the matrix is the web expansion of the polytabloid of T, the
product of the column minors of T.  The map is equivariant, and the
polytabloid of s_i T is s_i times the polytabloid of T, so
row(s_i T) = s_i . row(T) in the web model.  ``rows`` streams the rows
in canonical order: row 0, of the interleaved tableau, is the
consecutive-pairs web, and every later row is one generator step, through
``webs.action_table``, from its latest parent built before it; no step
takes s_1 or s_{2n-1}, so only s_2 .. s_{2n-2} are tabled (none at
n = 1).  The stream reads only the first rows: each parent, like each
table's image, is found by its first row's bitmask in
``combinat.row_index``, so it builds no ``Tableau`` and no ``Matching``.
A parent is dropped after its last child, so at most n - 2 rows
(one at n = 2, 3) are held at once.  A row stream yields bare sparse
rows in canonical order: each row is a dict {column: entry} of its
nonzero entries, keys in no set order, and a row's index is its
position.  So a row step, a check and the rendering of a row walk only
the nonzeros, 11.7-18.5% of the cells at n = 8..11.
``transition_matrix`` makes each row of the stream dense once, ``matrix``
writes the stream row by row, and ``verify`` checks it row by row, or,
with the oracle, the rows of one such matrix.

The paper's construction is kept as the reference the tests compare
against: resolve the crossings of the matching whose pairs are the
columns of T (``transition_row``; every row: the stream ``_rewrite_rows``).
``FAULTS`` maps each injected fault to a stream of its broken rows, sparse
too, so a fault is checked row by row.  A whole matrix,
``TransitionMatrix``, is an immutable value (``combinat._Frozen``) of n
and the dense rows only: ``cli`` labels them from the enumerations.  Two
facts are checked rather than assumed, row by row, by the table
``CHECKS``:

- every entry is a nonnegative integer, and
- the matrix is lower unitriangular: the webs are enumerated as the
  opener/closer images of the tableaux in order, so entry (T, web of T)
  sits on the diagonal, every diagonal entry is 1 and every entry above
  it is 0.

The oracle recovers the unique intertwiner between the two models
(normalized to send the interleaved polytabloid to the consecutive-pairs
web) from the one-dimensional nullspace of the stacked constraints
X A_i = B_i X, entries as unknowns, to compare entry for entry.  Its
A_i come from ``specht``, which ``rows`` never runs and only the oracle
imports, but the rows of its B_i straight from the ``webs.action_table``
that ``rows`` steps through, and both read the same enumerations, so a
wrong table entry can escape both.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from . import webs
from .combinat import (
    Matching,
    Tableau,
    _Frozen,
    catalan,
    first_rows,
    row_index,
    tableau_rows,
)
from .linalg import nullspace


class TransitionMatrix(_Frozen):
    """Square integer matrix, a tuple of tuple rows: row r is tableau r of
    ``enumerate_syt(n)`` and column c is web c of ``enumerate_webs(n)``,
    both in canonical order."""

    __slots__ = ("n", "entries", "__weakref__")

    def __init__(self, n: int, entries: tuple[tuple[int, ...], ...]):
        TransitionMatrix.n.__set__(self, n)
        TransitionMatrix.entries.__set__(self, entries)

    def _key(self):
        return self.n, self.entries


def transition_row(t: Tableau) -> webs.WebVector:
    """Web coordinates of the polytabloid of t, the product of its column
    minors: the crossing rewrite of the matching of the columns of t, with
    a fresh memo.  Each coefficient counts the paths from that matching to
    its web in the rewrite DAG, whose edges are all the memo holds.

    >>> from tworow.combinat import consecutive_matching, interleaved_tableau
    >>> transition_row(interleaved_tableau(2)) == {consecutive_matching(2): 1}
    True
    """
    if not t.is_standard:
        raise ValueError("tableau is not standard")
    return webs.resolve_crossings(Matching.from_pairs(t.columns()))


def _canonical_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The first rows in canonical order, checked to start with 1, 3, ...,
    2n - 1: the interleaved tableau's, and the openers of the
    consecutive-pairs web, which every build pins together as row 0."""
    firsts = first_rows(n)
    if firsts[0] != tuple(range(1, 2 * n, 2)):
        raise RuntimeError("row 0 must be the indicator of web 0: canonical orders moved")
    return firsts


def _parents(n: int) -> tuple[list[int], list[int]]:
    """The index of the latest parent P = s_i T of each row T = 1, 2, ...
    of ``rows``, and its letter i: the largest letter in the first row of T
    whose i + 1 sits in the second row in another column.  P has i + 1 in
    place of i in its first row, so it comes earlier in canonical order;
    the largest i changes the furthest right, so P is the latest candidate.

    The search reads only the first row F of T and its bitmask m of
    ``combinat.row_index``: i = F[j] for the largest j (from 0) with
    F[j] + 1 not in F and F[j] <= 2j.  The letters up to i hold j + 1 of
    F, so i + 1 is the (i - j)-th letter of the second row, in its column
    i - j - 1, and that is column j exactly when F[j] = 2j + 1; a standard
    T has F[j] <= 2j + 1.  P's bitmask is m with the bits i and i + 1
    swapped, m ^ (3 << i).  Only row 0, F = 1, 3, ..., 2n - 1, has no such
    j; every other row has one, at j >= 1, since F[0] = 1.

    >>> _parents(3)
    ([0, 0, 2, 3], [4, 2, 4, 3])
    """
    index = row_index(n)
    parents, letters = [], []
    later = zip(_canonical_rows(n), index)
    next(later)  # row 0
    for first, m in later:
        j = n - 1
        while first[j] > 2 * j or m >> first[j] + 1 & 1:
            j -= 1
        i = first[j]
        parents.append(index[m ^ (3 << i)])
        letters.append(i)
    return parents, letters


def rows(n: int) -> Iterator[dict[int, int]]:
    """Every row of the matrix, in canonical order, as a dict {column:
    entry} of its nonzero entries, keys in no set order.

    Row T is s_i . row(P) for its latest parent P = s_i T (``_parents``).
    A row is built from its parent's nonzeros only, and held only until
    its last child is built; a yielded dict may be a held parent, so a
    consumer must not change it.

    Only s_2 .. s_{2n-2} are tabled: no step takes s_1 or s_{2n-1}.  1
    heads the first row, and when 2 is in the second row it is that row's
    smallest letter, so it heads the second row: 1 and 2 share column 0.
    2n always ends the second row, and when 2n - 1 is in the first row it
    is that row's largest letter, so it ends the first row: 2n - 1 and 2n
    share the last column.

    >>> list(rows(2))
    [{0: 1}, {0: 1, 1: 1}]
    """
    parents, letters = _parents(n)
    # the module global, so that a test's stand-in table is read
    tables = [None, None] + [webs.action_table(i, n) for i in range(2, 2 * n - 1)]
    last_child = {p: r for r, p in enumerate(parents, 1)}
    row = {0: 1}
    held = {0: row} if 0 in last_child else {}
    yield row
    for r, (p, i) in enumerate(zip(parents, letters), 1):
        parent = held.pop(p) if last_child[p] == r else held[p]
        # s_i keeps each w_k and adds w_target, or turns w_k into -w_k
        table = tables[i]
        row = dict(parent)
        get = row.get
        for k, v in parent.items():
            target = table[k]
            if target < 0:
                row[k] -= 2 * v
            else:
                row[target] = get(target, 0) + v
        if 0 in row.values():
            row = {k: v for k, v in row.items() if v}
        if r in last_child:
            held[r] = row
        yield row


def _dense(row: dict[int, int], d: int) -> tuple[int, ...]:
    """The d entries of a sparse row, zeros included."""
    dense = [0] * d
    for c, v in row.items():
        dense[c] = v
    return tuple(dense)


def transition_matrix(n: int) -> TransitionMatrix:
    """The full change-of-basis matrix, rows tableaux, columns webs: the
    rows of ``rows(n)``, each made dense once."""
    d = catalan(n)
    return TransitionMatrix(n, tuple(_dense(row, d) for row in rows(n)))


def _rewrite_rows(n: int, sign: int = 1) -> Iterator[dict[int, int]]:
    """Every row by the crossing rewrite, the paper's construction, in
    canonical order and sparse like ``rows``, on partner tuples, each row
    through its own rewrite DAG; ``sign=-1`` negates the second
    reconnection, the ``syzygy-sign-flip`` fault."""
    index = row_index(n)
    for top, bottom in tableau_rows(n):
        expansion = webs._expand(Matching.from_pairs(zip(top, bottom)).partner, {}, sign)
        # a web's column is the index of the bitmask of its openers
        yield {
            index[sum(1 << a for a, b in enumerate(p, 1) if a < b)]: c
            for p, c in expansion.items()
        }


# each --inject-fault name and the stream of its broken rows; negative-entry
# puts -1 in the last entry of row 0, above the diagonal if n > 1, in a new
# dict: the stream's row 0 is also the parent of later rows
FAULTS = {
    "syzygy-sign-flip": lambda n: _rewrite_rows(n, sign=-1),
    "negative-entry": lambda n: (
        row if r else {**row, catalan(n) - 1: -1} for r, row in enumerate(rows(n))
    ),
}


def check_nonnegative(r: int, row: dict[int, int]) -> list[tuple[int, int]]:
    """Every entry of row r >= 0: (col, entry) of each negative entry, by
    column.  Only a row with a negative minimum is walked entry by entry."""
    if min(row.values(), default=0) >= 0:
        return []
    return sorted((c, v) for c, v in row.items() if v < 0)


def check_diagonal_ones(r: int, row: dict[int, int]) -> list[tuple[int, int]]:
    """Entry 1 at (T, web of T) in row r: on the diagonal, because the
    canonical webs are the opener/closer images of the canonical tableaux
    in order."""
    v = row.get(r, 0)
    return [] if v == 1 else [(r, v)]


def check_support_acyclic(r: int, row: dict[int, int]) -> list[tuple[int, int]]:
    """Every entry of row r after the diagonal is 0: over all rows, the
    matrix is lower triangular in canonical order, which with
    check_diagonal_ones makes it unitriangular.  This is stronger than the
    acyclic off-diagonal support the check is named for; the counterexample
    is the row's first nonzero entry after the diagonal."""
    if max(row, default=r) <= r:
        return []
    c = min(c for c in row if c > r)
    return [(c, row[c])]


# each report key, in report order, with its row check
CHECKS = (
    ("nonnegative", check_nonnegative),
    ("diagonalOnes", check_diagonal_ones),
    ("supportAcyclic", check_support_acyclic),
)


def intertwiner_oracle(n: int) -> TransitionMatrix:
    """Recompute the transition matrix from the equivariance equations
    alone: unknown t * d + m is entry (tableau t, web m) of Y = X^T, so
    stack X A_i = B_i X, read as A_i^T Y = Y B_i^T, over all generators,
    take the nullspace (it must be one-dimensional: the two models are
    isomorphic irreducibles), normalize the (interleaved, consecutive)
    entry to 1, and check that everything is an integer.

    Each constraint row is dense, d² ints, but is filled from the
    nonzeros of column t of A_i and row m of B_i only, the rows of B_i
    all built in O(d) from s_i's ``webs.action_table``.  The nullspace is
    one primitive integer vector, so the normalization is an exact
    division by its (0, 0) entry, and an entry it does not divide is
    reported as the fraction in lowest terms.

    The B_i share ``webs.action_table`` with the build, so agreement with
    transition_matrix checks the build against the polytabloid model's
    A_i, but not the table.
    """
    from . import specht  # only the oracle builds the polytabloid model

    d = len(_canonical_rows(n))
    constraints: list[list[int]] = []
    for i in range(1, 2 * n):
        a_mat = specht.action_matrix(i, n)
        table = webs.action_table(i, n)
        # the nonzeros of each column t of A_i, at their offsets k * d, and
        # of each row m of B_i: -1 or 1 at m, and 1 at each web k that s_i
        # sends to w_k + w_m
        a_cols = [[(k * d, a[t]) for k, a in enumerate(a_mat) if a[t]] for t in range(d)]
        b_rows = [[(m, -1 if target < 0 else 1)] for m, target in enumerate(table)]
        for k, target in enumerate(table):
            if target >= 0:
                b_rows[target].append((k, 1))
        for t, a_col in enumerate(a_cols):
            base = t * d
            for m, b_row in enumerate(b_rows):
                row = [0] * (d * d)
                for kd, v in a_col:
                    row[kd + m] = v
                for k, v in b_row:
                    row[base + k] -= v
                constraints.append(row)
    basis = nullspace(constraints)
    if len(basis) != 1:
        raise ArithmeticError(
            f"intertwiner space has dimension {len(basis)}, expected 1: "
            "the two models are not behaving as isomorphic irreducibles"
        )
    scale = basis[0][0]  # the (interleaved tableau, consecutive matching) entry
    if scale == 0:
        raise ArithmeticError("intertwiner vanishes on the interleaved polytabloid")
    for v in basis[0]:
        if v % scale:
            # v / scale in lowest terms, the divisor made positive
            g = math.gcd(v, scale)
            if scale < 0:
                g = -g
            raise ArithmeticError(f"non-integer oracle entry {v // g}/{scale // g}")
    values = [v // scale for v in basis[0]]
    entries = tuple(tuple(values[t * d : (t + 1) * d]) for t in range(d))
    return TransitionMatrix(n, entries)


def verify(n: int, with_oracle: bool = False, fault: str | None = None) -> dict:
    """Run the checks on the transition matrix and return the report
    document that ``tworow verify`` writes.  Its keys, in order, are
    ``"n"``; each key of ``CHECKS``, mapped to whether that check passed;
    ``"oracleAgrees"``, None when the oracle was not run; and
    ``"counterexamples"``, which is empty exactly when everything passed:
    every failed check, and a failed oracle, adds one.

    The checks of ``CHECKS`` run in one pass over one row stream, so only
    the rows it holds are in memory; the counterexamples are grouped by
    check in table order, each group in row-major order.  The oracle
    compares a whole matrix, so with it the rows are built once into a
    ``TransitionMatrix`` and the checks read the nonzeros of its rows.

    ``fault`` names an entry of ``FAULTS``, whose rows are checked in
    place of ``rows(n)``, so that callers can confirm the checks detect
    a deliberate defect.  At n = 1 the one tableau's columns do not
    cross, so "syzygy-sign-flip" changes nothing and every check passes.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault mode: {fault}")
    if with_oracle:
        if fault is None:
            # the module global: perfbench's span recorder wraps
            # transition_matrix and counts the rows it builds
            tm = transition_matrix(n)
        else:
            d = catalan(n)
            tm = TransitionMatrix(n, tuple(_dense(row, d) for row in FAULTS[fault](n)))
        stream = ({c: v for c, v in enumerate(row) if v} for row in tm.entries)
    else:
        stream = rows(n) if fault is None else FAULTS[fault](n)

    found: dict[str, list[dict]] = {key: [] for key, _ in CHECKS}
    for r, row in enumerate(stream):
        for key, check in CHECKS:
            found[key] += [{"check": key, "row": r, "col": c, "entry": v} for c, v in check(r, row)]
    counterexamples = [bad for group in found.values() for bad in group]
    oracle_agrees: bool | None = None
    if with_oracle:
        try:
            oracle_agrees = intertwiner_oracle(n) == tm
        except ArithmeticError as exc:
            # no matrix to compare with: a failed check, not a crash
            oracle_agrees = False
            counterexamples.append({"check": "oracleAgrees", "n": n, "reason": str(exc)})
        else:
            if not oracle_agrees:
                counterexamples.append({"check": "oracleAgrees", "n": n})
    return {
        "n": n,
        **{key: not bad for key, bad in found.items()},
        "oracleAgrees": oracle_agrees,
        "counterexamples": counterexamples,
    }
