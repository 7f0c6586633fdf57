"""
The web model: integer combinations of noncrossing matchings, the
generator action, and the resolution of crossings.

The adjacent transposition s_i acts on a basis matching M by

    s_i . w_M = -w_M                if i ~ i+1 in M,
    s_i . w_M = w_M + w_M'          otherwise,

where M' replaces the pairs a ~ i and b ~ i+1 with a ~ b and i ~ i+1;
``action_table`` codes this as one web index per basis matching.

An arbitrary (crossing) perfect matching is not a basis element, but the
product of its column minors expands into the basis by repeatedly
rewriting one crossing pair a < b < c < d (a ~ c, b ~ d) as the sum of
the two uncrossed reconnections (a ~ b, c ~ d) and (a ~ d, b ~ c); both
have strictly fewer crossings, so the rewrite terminates.
``resolve_crossings`` carries this out and returns the (nonnegative,
integer) coefficients; the test suite checks them against an
independent expansion of the minor products (see ``minors``).
The action and the rewrite work on bare partner tuples through one
move, ``_reconnect``: the action re-pairs the chords at i and i+1 once,
and the rewrite re-pairs the lexicographically smallest crossing
(``first_crossing``) twice.  The rewrite's memo is keyed by the tuples.

The rewrite is the recursion itself, ``_expand``: the expansion of a
crossing matching is that of its first reconnection plus that of its
second, memoised per partner tuple.  It is a module-level function and
not a closure inside ``resolve_crossings``: a nested function that calls
itself is a reference cycle, which would keep each call's memo alive
until the cycle collector runs.  Each child has fewer crossings than its
parent, so the depth is at most n(n-1)/2 + 1 (37 at n = 9), far below
Python's recursion limit at every n the rewrite can finish.  Its
``sign`` is -1 only in the ``syzygy-sign-flip`` fault (``transition.FAULTS``).

Three things keep the rewrite cheap.

- The scan starts at the parent's crossing.  If (a, b, c, d) is the
  smallest crossing of p, no crossing of either reconnection starts
  below a.  Such a crossing would pair an old chord a' ~ c' with a' < a
  and a new chord (two old chords that cross already crossed in p).
  The new chord's ends are two of a, b, c, d, so c' lies strictly
  between a and d, and a' ~ c' already crossed a ~ c or b ~ d in p.
  So each child is scanned from a.
- The merge touches only the keys the two expansions share: the sum
  starts as a copy of the first and takes the second with one
  ``update``.  Only when the union is shorter than the two together
  does it look for the shared keys, fixing their sums and deleting
  those that sum to zero.  Updating a key does not move it, so the
  order of every expansion is the one a walk over all the second's
  keys gives.
- The returned keys are built without ``Matching``'s check.  Each comes
  from partner swaps of the validated input, and each swap turns two
  pairs into two pairs, so each is a fixed-point-free involution; the
  test suite rebuilds them through the public constructor.
"""

from __future__ import annotations

from .combinat import Matching, _trusted, enumerate_webs, first_crossing

WebVector = dict[Matching, int]
# the partner array of a matching, bare: the rewrite's internal key
Partner = tuple[int, ...]


def _reconnect(p: Partner, a: int, b: int, c: int, d: int) -> Partner:
    """p with its two chords on a, b, c, d re-paired as a ~ b and c ~ d,
    the move of both the action and the rewrite; it may cross."""
    q = list(p)
    q[a - 1], q[b - 1], q[c - 1], q[d - 1] = b, a, d, c
    return tuple(q)


def _expand(
    p: Partner, start: int, memo: dict[Partner, dict[Partner, int]], sign: int
) -> dict[Partner, int]:
    """The expansion of p, keyed by partner tuples and stored in ``memo``:
    p itself when noncrossing, else the expansion of the first
    reconnection of its first crossing plus ``sign`` times that of the
    second, zeros dropped.  No crossing of p starts below ``start``.
    The value in ``memo`` is returned, not a copy."""
    known = memo.get(p)
    if known is not None:
        return known
    quad = first_crossing(p, start)
    if quad is None:
        out = {p: 1}
    else:
        a, b, c, d = quad
        x = _expand(_reconnect(p, a, b, c, d), a, memo, sign)
        y = _expand(_reconnect(p, a, d, b, c), a, memo, sign)
        out = dict(x)
        out.update(y if sign > 0 else {key: -coeff for key, coeff in y.items()})
        # a short union means shared keys, whose sums are fixed in place
        if len(out) < len(x) + len(y):
            for key in x.keys() & y.keys():
                total = x[key] + sign * y[key]
                if total:
                    out[key] = total
                else:
                    del out[key]
    memo[p] = out
    return out


def resolve_crossings(
    m: Matching, *, memo: dict[Partner, dict[Partner, int]] | None = None
) -> WebVector:
    """Expand an arbitrary perfect matching into noncrossing matchings.

    Returns a dict keyed by noncrossing matchings; every coefficient is a
    nonnegative integer and a noncrossing input returns {m: 1}.

    The expansion is the memoised recursion ``_expand``: each step
    rewrites the lexicographically smallest crossing and sums the
    expansions of its two reconnections.  The result does not depend on
    that choice, which the test suite checks with a random one.
    ``memo`` supplies a memo table to share across calls; by default each
    call uses a fresh one.  Memo tables map a partner tuple to its
    expansion, itself keyed by partner tuples; only the returned dict, a
    fresh one, is keyed by ``Matching``.  Those keys are trusted: each
    comes from partner swaps of a checked ``Matching`` (``m``, or an
    earlier input that filled a shared memo), so they skip the public
    constructor's check.

    >>> resolve_crossings(Matching.from_pairs([(1, 3), (2, 4)]))
    {Matching(partner=(2, 1, 4, 3)): 1, Matching(partner=(4, 3, 2, 1)): 1}
    """
    if memo is None:
        memo = {}
    expansion = _expand(m.partner, 1, memo, 1)
    return {_trusted(Matching, key): coeff for key, coeff in expansion.items()}


def action_table(i: int, n: int) -> tuple[int, ...]:
    """s_i on the web basis as one integer per web: entry k is -1 when
    s_i negates w_k (i ~ i+1 in it), and otherwise the index of the web
    w' in s_i . w_k = w_k + w', both in canonical order.

    >>> action_table(1, 2) == (-1, 0)
    True
    """
    if type(i) is not int or not 1 <= i <= 2 * n - 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * n - 1}")
    web_list = enumerate_webs(n)
    index = {w.partner: k for k, w in enumerate(web_list)}
    table = []
    for w in web_list:
        if w.of(i) == i + 1:
            table.append(-1)
            continue
        # the index holds every noncrossing matching, so a miss is a
        # crossing image: no scan for one is needed
        k = index.get(_reconnect(w.partner, w.of(i), w.of(i + 1), i, i + 1))
        if k is None:
            raise RuntimeError(f"s_{i} took the noncrossing {w.partner} to a crossing matching")
        table.append(k)
    return tuple(table)


def action_matrix(i: int, n: int) -> list[list[int]]:
    """Matrix of s_i on the web model in the web basis; entries -1, 0, 1."""
    table = action_table(i, n)
    matrix = [[0] * len(table) for _ in table]
    for k, target in enumerate(table):
        if target < 0:
            matrix[k][k] = -1
        else:
            matrix[k][k] = matrix[target][k] = 1
    return matrix
