"""
The web model: integer combinations of noncrossing matchings, the
generator action, and the resolution of crossings.

The adjacent transposition s_i acts on a basis matching M by

    s_i . w_M = -w_M                if i ~ i+1 in M,
    s_i . w_M = w_M + w_M'          otherwise,

where M' replaces the pairs a ~ i and b ~ i+1 with a ~ b and i ~ i+1.

An arbitrary (crossing) perfect matching is not a basis element, but the
product of its column minors expands into the basis by repeatedly
rewriting one crossing pair a < b < c < d (a ~ c, b ~ d) as the sum of
the two uncrossed reconnections (a ~ b, c ~ d) and (a ~ d, b ~ c); both
have strictly fewer crossings, so the rewrite terminates.
``resolve_crossings`` carries this out and returns the (nonnegative,
integer) coefficients; the polynomial module has an independent check.
Inside, the rewrite works on bare partner tuples: ``_first_crossing``
scans for the lexicographically smallest crossing, the reconnections are
built by swapping partners, and the memo is keyed by those tuples.  Only
the returned keys are validated ``Matching`` objects.
"""

from __future__ import annotations

from .combinat import Matching, Permutation, crossing_pairs, enumerate_webs

WebVector = dict[Matching, int]
# the partner array of a matching, bare: the rewrite's internal key
Partner = tuple[int, ...]


def generator_action(i: int, vec: WebVector) -> WebVector:
    """Act with s_i on a web-basis combination, linearly per key.

    >>> from .combinat import consecutive_matching
    >>> m0 = consecutive_matching(2)
    >>> generator_action(1, {m0: 1}) == {m0: -1}
    True
    """
    out: WebVector = {}

    def add(m: Matching, c):
        new = out.get(m, 0) + c
        if new:
            out[m] = new
        else:
            out.pop(m, None)

    for m, coeff in vec.items():
        if not 1 <= i <= m.size - 1:
            raise ValueError(f"generator index {i} out of range 1..{m.size - 1}")
        if m.of(i) == i + 1:
            add(m, -coeff)
        else:
            add(m, coeff)
            add(_uncross_at(m, i), coeff)
    return out


def _uncross_at(m: Matching, i: int) -> Matching:
    """The matching M' of the action's second branch: repartner the mates
    of i and i+1 with each other and pair i with i+1."""
    a, b = m.of(i), m.of(i + 1)
    partner = list(m.partner)
    partner[a - 1], partner[b - 1] = b, a
    partner[i - 1], partner[i] = i + 1, i
    out = Matching(tuple(partner))
    if _first_crossing(out.partner) is not None and _first_crossing(m.partner) is None:
        raise RuntimeError(f"s_{i} took the noncrossing {m.partner} to a crossing matching")
    return out


def _first_crossing(p: Partner) -> tuple[int, int, int, int] | None:
    """The lexicographically smallest quadruple a < b < c < d with a ~ c
    and b ~ d in the partner tuple p, or None when p is noncrossing; the
    same as ``crossing_pairs(Matching(p))[0]``.

    >>> _first_crossing((3, 4, 1, 2)), _first_crossing((2, 1, 4, 3))
    ((1, 2, 3, 4), None)
    """
    for a, c in enumerate(p, 1):
        for b in range(a + 1, c):
            d = p[b - 1]
            if d > c:
                return a, b, c, d
    return None


def _syzygy_children(p: Partner, quad: tuple[int, int, int, int]) -> tuple[Partner, Partner]:
    """Reconnect the crossing a ~ c, b ~ d as (a ~ b, c ~ d) and (a ~ d, b ~ c)."""
    a, b, c, d = quad
    first = list(p)
    first[a - 1], first[b - 1], first[c - 1], first[d - 1] = b, a, d, c
    second = list(p)
    second[a - 1], second[d - 1], second[b - 1], second[c - 1] = d, a, c, b
    return tuple(first), tuple(second)


# results for the standard rewrite are shared across calls, keyed by the
# signs and then by partner tuple; they are small (at most Catalan(n) keys
# each) and callers receive fresh dicts
_SHARED_MEMO: dict[tuple[int, int], dict[Partner, dict[Partner, int]]] = {}


def resolve_crossings(
    m: Matching,
    *,
    syzygy_signs: tuple[int, int] = (1, 1),
    pick=None,
    memo: dict[Partner, dict[Partner, int]] | None = None,
) -> WebVector:
    """Expand an arbitrary perfect matching into noncrossing matchings.

    Returns a dict keyed by noncrossing matchings; with the default
    arguments every coefficient is a nonnegative integer and a noncrossing
    input returns {m: 1}.

    ``pick`` chooses which crossing quadruple to rewrite, from the list
    ``crossing_pairs`` returns (default: the lexicographically smallest,
    found by a direct scan); the result does not depend on the choice,
    which the test suite checks directly.  ``syzygy_signs`` scales the two
    reconnection branches by nonzero integers and exists so the verifier
    can inject a sign fault and prove the downstream checks catch it.
    ``memo`` supplies a private memo table (used by the benchmark to count
    rewrites); by default a shared table keyed by the signs is used.  Memo
    tables map a partner tuple to its expansion, itself keyed by partner
    tuples; only the returned dict is keyed by ``Matching``.

    >>> resolve_crossings(Matching.from_pairs([(1, 3), (2, 4)]))
    {Matching(partner=(2, 1, 4, 3)): 1, Matching(partner=(4, 3, 2, 1)): 1}
    """
    s1, s2 = syzygy_signs
    if not (s1 and s2):
        raise ValueError(f"syzygy signs must be nonzero, got {syzygy_signs}")
    if memo is None:
        if pick is None:
            memo = _SHARED_MEMO.setdefault(syzygy_signs, {})
        else:
            memo = {}
    root = m.partner
    stack = [root]
    chosen: dict[Partner, tuple[Partner, Partner]] = {}
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        kids = chosen.get(top)
        if kids is None:
            if pick is None:
                quad = _first_crossing(top)
            else:
                quads = crossing_pairs(Matching(top))
                quad = pick(quads) if quads else None
            if quad is None:
                memo[top] = {top: 1}
                stack.pop()
                continue
            kids = chosen[top] = _syzygy_children(top, quad)
        pending = [k for k in kids if k not in memo]
        if pending:
            stack.extend(pending)
            continue
        first, second = kids
        combined = dict(memo[first])
        if s1 != 1:
            for key in combined:
                combined[key] *= s1
        for key, coeff in memo[second].items():
            total = combined.get(key, 0) + s2 * coeff
            if total:
                combined[key] = total
            else:
                del combined[key]
        memo[top] = combined
        del chosen[top]
        stack.pop()
    return {Matching(key): coeff for key, coeff in memo[root].items()}


def action_matrix(i: int, n: int) -> list[list[int]]:
    """Matrix of s_i on the web model in the web basis; entries -1, 0, 1."""
    webs = enumerate_webs(n)
    index = {w: k for k, w in enumerate(webs)}
    matrix = [[0] * len(webs) for _ in webs]
    for col, w in enumerate(webs):
        for key, coeff in generator_action(i, {w: 1}).items():
            matrix[index[key]][col] = coeff
    return matrix


def serialize_web_vector(vec: WebVector) -> list[dict]:
    """JSON-ready term list [{"partnerArray": [...], "coeff": c}], keys in
    ascending partner-array order."""
    return [
        {"partnerArray": list(m.partner), "coeff": vec[m]}
        for m in sorted(vec, key=lambda m: m.partner)
    ]


def deserialize_web_vector(terms: list[dict]) -> WebVector:
    return {Matching(tuple(t["partnerArray"])): t["coeff"] for t in terms}


def act_by_permutation(sigma: Permutation, vec: WebVector) -> WebVector:
    """Act with an arbitrary permutation by writing it as a product of
    adjacent transpositions (bubble-sort word) and applying the generator
    action one letter at a time.  The generator action satisfies the
    Coxeter relations, so the result is independent of the word."""
    out = dict(vec)
    for i in sigma.reduced_word():
        out = generator_action(i, out)
    return out
