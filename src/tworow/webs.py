"""
The web model: integer combinations of noncrossing matchings, the
generator action, and the resolution of crossings.

The adjacent transposition s_i acts on a basis matching M by

    s_i . w_M = -w_M                if i ~ i+1 in M,
    s_i . w_M = w_M + w_M'          otherwise,

where M' replaces the pairs a ~ i and b ~ i+1 with a ~ b and i ~ i+1.
``action_table`` codes this as one web index per basis matching, the
one form of s_i in the package: the row stream steps through it, and the
intertwiner oracle fills its sparse rows of B_i from it.  Every table
of an n reads the webs' partner arrays from one index of them,
``_web_index``, cached once per n like the enumeration it indexes.

An arbitrary (crossing) perfect matching is not a basis element, but the
product of its column minors expands into the basis by repeatedly
rewriting one crossing pair a < b < c < d (a ~ c, b ~ d) as the sum of
the two uncrossed reconnections (a ~ b, c ~ d) and (a ~ d, b ~ c); both
have strictly fewer crossings, so the rewrite terminates.
``resolve_crossings`` carries this out and returns the (nonnegative,
integer) coefficients; the test suite checks them against an
independent expansion of the minor products (``web_vector`` in
``tests/model.py``).
The action and the rewrite work on bare partner arrays and make the
same move, which re-pairs two chords.  The action re-pairs the chords at
i and i+1 of a partner tuple once (``_reconnect``).  The rewrite's
``_grow`` scans a node for its lexicographically smallest crossing and
re-pairs it twice, both inline, on one copy of the node.

The rewrite is a DAG and a count.  Each node is a partner array; a
crossing node has two edges, to the two reconnections of its first
crossing, and a noncrossing node none.  A web's coefficient is the number
of paths from the root to it, the leaves of the resolution tree that land
on it.  ``_grow`` fills the memo with each node's edges, a node after its
children, so the memo's order, whichever roots filled it, lists every
node after both its children.  ``_expand`` pushes path counts down in
the reverse order, parents before children, and keeps the noncrossing
nodes with a nonzero count.  The one recursion, ``_grow``, is a
module-level function and not a closure inside ``resolve_crossings``: a
nested function that calls itself is a reference cycle, which would keep
each call's memo alive until the cycle collector runs.  Each child has
fewer crossings than its parent, so the depth is at most n(n-1)/2 + 1
(37 at n = 9), far below Python's recursion limit at every n the rewrite
can finish.  Its ``sign`` weights each edge to a second reconnection,
and is -1 only in the ``syzygy-sign-flip`` fault (``transition.FAULTS``).

Four things keep the rewrite cheap.

- The scan starts at the parent's crossing.  If (a, b, c, d) is the
  smallest crossing of p, no crossing of either reconnection starts
  below a.  Such a crossing would pair an old chord a' ~ c' with a' < a
  and a new chord (two old chords that cross already crossed in p).
  The new chord's ends are two of a, b, c, d, so c' lies strictly
  between a and d, and a' ~ c' already crossed a ~ c or b ~ d in p.
  So each child is scanned from a.
- The nodes are bytes, one byte a letter: a key on 18 letters is a
  51-byte object, not a 184-byte tuple, and bytes cache their hash,
  which every memo and count lookup reuses.  ``_expand`` converts the
  root from a tuple and each leaf back, so its callers see tuples.  A
  letter above 255 fits no byte, so past 255 letters the nodes stay
  tuples: ``_grow`` builds each child with its parent's type.
- The memo holds edges, not expansions: a crossing node holds two
  references, where its whole expansion would hold a term for each web
  below it.  The one count pass touches each edge once.  The leaves
  come out in the order a first-child-first walk first reaches them.
- The returned keys are built without ``Matching``'s check, through
  the slot descriptor bound once per call.  Each comes
  from partner swaps of the validated input, and each swap turns two
  pairs into two pairs, so each is a fixed-point-free involution; the
  test suite rebuilds them through the public constructor.
"""

from __future__ import annotations

from functools import lru_cache

from .combinat import Matching, enumerate_webs

WebVector = dict[Matching, int]
# the partner array of a matching, bare
Partner = tuple[int, ...]
# the rewrite's key: a partner array as one byte a letter, or as a tuple
# past 255 letters
Key = bytes | Partner
# the rewrite DAG: each node's two reconnections, or () when it is noncrossing
Dag = dict[Key, tuple[Key, ...]]


def _reconnect(p: Partner, a: int, b: int, c: int, d: int) -> Partner:
    """p with its two chords on a, b, c, d re-paired as a ~ b and c ~ d,
    the move of both the action and the rewrite; it may cross."""
    q = list(p)
    q[a - 1], q[b - 1], q[c - 1], q[d - 1] = b, a, d, c
    return tuple(q)


def _grow(p: Key, start: int, memo: Dag) -> None:
    """Put p and every node below it that ``memo`` lacks into ``memo``,
    each after its children: () for a noncrossing node, else the first
    and the second reconnection of its first crossing, of p's type.  No
    crossing of p starts below ``start``."""
    # the smallest crossing a < b < c < d: letters a+1..c-1 sit at
    # p[a : c - 1], and a chord from one of them crosses a ~ c exactly
    # when its partner lies beyond c
    for a in range(start, len(p) + 1):
        c = p[a - 1]
        if c > a + 1 and max(p[a : c - 1]) > c:
            break
    else:
        memo[p] = ()
        return
    b = a + 1
    while p[b - 1] < c:
        b += 1
    d = p[b - 1]
    # both reconnections re-pair the same four letters: one copy serves both
    q = list(p)
    q[a - 1], q[b - 1], q[c - 1], q[d - 1] = b, a, d, c
    x = type(p)(q)
    if x not in memo:
        _grow(x, a, memo)
    q[a - 1], q[b - 1], q[c - 1], q[d - 1] = d, c, b, a
    y = type(p)(q)
    if y not in memo:
        _grow(y, a, memo)
    memo[p] = (x, y)


def _expand(p: Partner, memo: Dag, sign: int) -> dict[Partner, int]:
    """The expansion of p, keyed by partner tuples: each noncrossing node
    below p in the rewrite DAG ``memo`` with its path count from p, an
    edge to a second reconnection weighted by ``sign``, zeros dropped, in
    the memo's order, which for a fresh memo is the order a
    first-child-first walk first reaches them.  The DAG is keyed by
    bytes, or by tuples past 255 letters."""
    root = bytes(p) if len(p) < 256 else p
    if root not in memo:
        _grow(root, 1, memo)
    count = {root: 1}
    leaves = []
    # parents before children: ``_grow`` puts each node after its
    # children, whichever root filled the memo, so the reverse of its
    # order is one; a node not below p has no count
    for q, kids in reversed(memo.items()):
        c = count.pop(q, 0)
        if not c:
            continue
        if kids:
            x, y = kids
            count[x] = count.get(x, 0) + c
            count[y] = count.get(y, 0) + sign * c
        else:
            leaves.append((tuple(q), c))
    return dict(reversed(leaves))


def resolve_crossings(m: Matching, *, memo: Dag | None = None) -> WebVector:
    """Expand an arbitrary perfect matching into noncrossing matchings.

    Returns a dict keyed by noncrossing matchings; every coefficient is a
    nonnegative integer and a noncrossing input returns {m: 1}.

    Each rewrite step replaces the lexicographically smallest crossing
    by its two reconnections, and a coefficient counts the paths of
    steps from m to its web (``_expand``).  The result does not depend on
    that choice, which the test suite checks with a random one.
    ``memo`` supplies a memo table to share across calls; by default each
    call uses a fresh one.  A memo that earlier calls filled gives the
    same counts, but not the same key order, at one step per node it
    holds.  A memo table is the rewrite DAG: it maps a partner array to
    the partner arrays of its two reconnections, or to () when it is
    noncrossing.  Its keys are bytes, one byte a letter, or tuples past
    255 letters.  Only the returned dict, a fresh one, is keyed by
    ``Matching``.  Those keys are trusted: each comes from partner swaps
    of a checked ``Matching`` (``m``, or an earlier input that filled a
    shared memo), so they skip the public constructor's check.

    >>> resolve_crossings(Matching.from_pairs([(1, 3), (2, 4)]))
    {Matching(partner=(2, 1, 4, 3)): 1, Matching(partner=(4, 3, 2, 1)): 1}
    """
    if memo is None:
        memo = {}
    # combinat._trusted for each key, with the slot descriptor bound once
    new, set_partner = object.__new__, Matching.partner.__set__
    out = {}
    for partner, coeff in _expand(m.partner, memo, 1).items():
        key = new(Matching)
        set_partner(key, partner)
        out[key] = coeff
    return out


@lru_cache(maxsize=None, typed=True)  # untyped, True may hit the entry for 1
def _web_index(n: int) -> dict[Partner, int]:
    """The partner array of each web of ``enumerate_webs(n)``, in canonical
    order, mapped to its index: built once per n, like the enumeration."""
    return {w.partner: k for k, w in enumerate(enumerate_webs(n))}


def action_table(i: int, n: int) -> tuple[int, ...]:
    """s_i on the web basis as one integer per web: entry k is -1 when
    s_i negates w_k (i ~ i+1 in it), and otherwise the index of the web
    w' in s_i . w_k = w_k + w', both in canonical order.

    >>> action_table(1, 2) == (-1, 0)
    True
    """
    if type(i) is not int or not 1 <= i <= 2 * n - 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * n - 1}")
    index = _web_index(n)
    table = []
    for p in index:
        a, b = p[i - 1], p[i]
        if a == i + 1:
            table.append(-1)
            continue
        # the index holds every noncrossing matching, so a miss is a
        # crossing image: no scan for one is needed
        k = index.get(_reconnect(p, a, b, i, i + 1))
        if k is None:
            raise RuntimeError(f"s_{i} took the noncrossing {p} to a crossing matching")
        table.append(k)
    return tuple(table)
