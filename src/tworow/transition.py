"""
The change of basis from standard polytabloids to webs.

Row T of the matrix is the web expansion of the polytabloid of T, the
product of the column minors of T.  The map is equivariant, and the
polytabloid of s_i T is s_i times the polytabloid of T, so
row(s_i T) = s_i . row(T) in the web model.  ``rows`` streams the rows
in canonical order: row 0, of the interleaved tableau, is the
consecutive-pairs web, and every later row is one generator step, through
``webs.action_table``, from its latest parent built before it.  A parent
is dropped after its last child, so at most n - 2 rows (one at n = 2, 3)
are held at once.  A row stream yields bare rows in canonical order, so
a row's index is its position: ``transition_matrix`` is the tuple of the
stream, ``matrix`` writes it row by row, and ``verify`` checks it row by
row.

The paper's construction is kept as the reference the tests compare
against: resolve the crossings of the matching whose pairs are the
columns of T (``transition_row``; every row: the stream ``_rewrite_rows``).
``FAULTS`` maps each injected fault to a stream of its broken rows, so a
fault is checked row by row too.  A whole matrix, ``TransitionMatrix``,
is an immutable value (``combinat._Frozen``) of n and the rows only:
``cli`` labels them from the enumerations.  Two facts are checked
rather than assumed, row by row, by the table ``CHECKS``:

- every entry is a nonnegative integer, and
- the matrix is lower unitriangular: the webs are enumerated as the
  opener/closer images of the tableaux in order, so entry (T, web of T)
  sits on the diagonal, every diagonal entry is 1 and every entry above
  it is 0.

Independently of both constructions, the matrix of the unique intertwiner
between the two models (normalized to send the interleaved polytabloid to
the consecutive-pairs web) is recovered, with the entries as unknowns,
from the one-dimensional nullspace of the stacked equivariance
constraints X A_i = B_i X; the computations must agree entry for entry.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress

from . import specht, webs
from .combinat import (
    Matching,
    Tableau,
    _Frozen,
    consecutive_matching,
    enumerate_syt,
    enumerate_webs,
    interleaved_tableau,
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
    a fresh memo.

    >>> transition_row(interleaved_tableau(2)) == {consecutive_matching(2): 1}
    True
    """
    if not t.is_standard:
        raise ValueError("tableau is not standard")
    return webs.resolve_crossings(Matching.from_pairs(t.columns()))


def _canonical_bases(n: int) -> tuple[tuple[Tableau, ...], tuple[Matching, ...]]:
    """Both bases in canonical order, checked to start with the interleaved
    tableau and the consecutive-pairs web, which every build pins together."""
    syt = enumerate_syt(n)
    web_list = enumerate_webs(n)
    if syt[0] != interleaved_tableau(n) or web_list[0] != consecutive_matching(n):
        raise RuntimeError("row 0 must be the indicator of web 0: canonical orders moved")
    return syt, web_list


def rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every row of the matrix, in canonical order.

    Row T is s_i . row(P) for its latest parent P = s_i T: i is the
    largest letter in the first row of T whose i + 1 sits in the second
    row in another column.  P has i + 1 in place of i in its first row, so
    it comes earlier in canonical order; the largest i changes the furthest
    right, so P is the latest candidate.  A row is held only until its last
    child is built.

    >>> list(rows(2))
    [(1, 0), (1, 1)]
    """
    syt, web_list = _canonical_bases(n)
    d = len(web_list)
    tables = [None] + [webs.action_table(i, n) for i in range(1, 2 * n)]
    slot = {t.rows[0]: r for r, t in enumerate(syt)}
    steps = []  # (parent index, letter i) of rows 1, 2, ...
    for t in syt[1:]:
        first, second = t.rows
        j, i = max(
            (j, a) for j, a in enumerate(first) if a + 1 in second and second[j] != a + 1
        )
        steps.append((slot[first[:j] + (i + 1,) + first[j + 1 :]], i))
    last_child = {p: r for r, (p, _) in enumerate(steps, 1)}
    row = (1,) + (0,) * (d - 1)
    held = {0: row} if 0 in last_child else {}
    yield row
    all_columns = range(d)
    for r, (p, i) in enumerate(steps, 1):
        parent = held.pop(p) if last_child[p] == r else held[p]
        # s_i keeps each w_k and adds w_target, or turns w_k into -w_k
        table = tables[i]
        row = list(parent)
        for k in compress(all_columns, parent):
            target = table[k]
            if target < 0:
                row[k] -= 2 * parent[k]
            else:
                row[target] += parent[k]
        row = tuple(row)
        if r in last_child:
            held[r] = row
        yield row


def transition_matrix(n: int) -> TransitionMatrix:
    """The full change-of-basis matrix, rows tableaux, columns webs: the
    rows of ``rows(n)``."""
    return TransitionMatrix(n, tuple(rows(n)))


def _rewrite_rows(n: int, sign: int = 1) -> Iterator[tuple[int, ...]]:
    """Every row by the crossing rewrite, the paper's construction, in
    canonical order, on partner tuples through one memo; ``sign=-1``
    negates the second reconnection, the ``syzygy-sign-flip`` fault."""
    syt, web_list = _canonical_bases(n)
    col = {m.partner: k for k, m in enumerate(web_list)}
    memo: dict = {}
    for t in syt:
        row = [0] * len(web_list)
        for p, c in webs._expand(Matching.from_pairs(t.columns()).partner, 1, memo, sign).items():
            row[col[p]] = c
        yield tuple(row)


# each --inject-fault name and the stream of its broken rows; negative-entry
# puts -1 in the last entry of row 0, above the diagonal if n > 1
FAULTS = {
    "syzygy-sign-flip": lambda n: _rewrite_rows(n, sign=-1),
    "negative-entry": lambda n: (row if r else row[:-1] + (-1,) for r, row in enumerate(rows(n))),
}


def check_nonnegative(r: int, row: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every entry of row r >= 0: (col, entry) of each negative entry.
    Only a row with a negative minimum is walked entry by entry."""
    if min(row, default=0) >= 0:
        return []
    return [(c, v) for c, v in enumerate(row) if v < 0]


def check_diagonal_ones(r: int, row: tuple[int, ...]) -> list[tuple[int, int]]:
    """Entry 1 at (T, web of T) in row r: on the diagonal, because the
    canonical webs are the opener/closer images of the canonical tableaux
    in order."""
    return [] if row[r] == 1 else [(r, row[r])]


def check_support_acyclic(r: int, row: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every entry of row r after the diagonal is 0: over all rows, the
    matrix is lower triangular in canonical order, which with
    check_diagonal_ones makes it unitriangular.  This is stronger than the
    acyclic off-diagonal support the check is named for; the counterexample
    is the row's first nonzero entry after the diagonal."""
    if not any(row[r + 1 :]):
        return []
    c = next(c for c in range(r + 1, len(row)) if row[c])
    return [(c, row[c])]


# each report key, in report order, with its row check and whether only
# the first failing row's counterexamples are kept
CHECKS = (
    ("nonnegative", check_nonnegative, False),
    ("diagonalOnes", check_diagonal_ones, False),
    ("supportAcyclic", check_support_acyclic, True),
)


def intertwiner_oracle(n: int) -> TransitionMatrix:
    """Recompute the transition matrix from the equivariance equations
    alone: unknown t * d + m is entry (tableau t, web m) of Y = X^T, so
    stack X A_i = B_i X, read as A_i^T Y = Y B_i^T, over all generators,
    take the nullspace (it must be one-dimensional: the two models are
    isomorphic irreducibles), normalize the (interleaved, consecutive)
    entry to 1, and check that everything is an integer.

    This never touches the crossing rewrite, so agreement with
    transition_matrix is a genuine independent check.
    """
    d = len(_canonical_bases(n)[0])
    constraints: list[list[int]] = []
    for i in range(1, 2 * n):
        a_mat = specht.action_matrix(i, n)
        b_mat = webs.action_matrix(i, n)
        for t in range(d):
            for m in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + m] += a_mat[k][t]
                    row[t * d + k] -= b_mat[m][k]
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
    values = [v / scale for v in basis[0]]
    for value in values:
        if value.denominator != 1:
            raise ArithmeticError(f"non-integer oracle entry {value}")
    entries = tuple(tuple(map(int, values[t * d : (t + 1) * d])) for t in range(d))
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
    compares a whole matrix, so with it the pass reads the stream's tuple.

    ``fault`` names an entry of ``FAULTS``, whose rows are checked in
    place of ``rows(n)``, so that callers can confirm the checks detect
    a deliberate defect.  At n = 1 the one tableau's columns do not
    cross, so "syzygy-sign-flip" changes nothing and every check passes.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault mode: {fault}")
    stream = rows(n) if fault is None else FAULTS[fault](n)
    if with_oracle:
        # through the module global, not tuple(stream): perfbench's span
        # recorder wraps transition_matrix and counts the rows it builds
        tm = transition_matrix(n) if fault is None else TransitionMatrix(n, tuple(stream))
        stream = tm.entries

    found: dict[str, list[dict]] = {key: [] for key, _, _ in CHECKS}
    for r, row in enumerate(stream):
        for key, check, first_only in CHECKS:
            if not (first_only and found[key]):
                found[key] += [
                    {"check": key, "row": r, "col": c, "entry": v} for c, v in check(r, row)
                ]
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
