"""
The model the test suite checks tworow against, kept out of the package
because no command of ``tworow`` runs it:

- ``Permutation`` and its algebra: transpositions, composition,
  inverse, sign, reduced words and cycle-type representatives;
- the signed tabloid vector of disjoint pairs built choice by choice,
  over every product of one letter per pair, the reference for
  ``specht.pair_vector``, which builds each tabloid in letter order;
- the action of any permutation on tabloids and tabloid vectors, the
  general reference for ``specht.action_matrix``, which swaps the letters
  of a tableau's columns to build s_i . e_T = e_{s_i T};
- a matching's partner in letter language (``partner_of``), which the
  package reads as ``m.partner[letter - 1]``;
- every perfect matching, crossing or not, the inversion-pair sign
  of permuting one, and the scan for its smallest crossing, which
  ``webs._grow`` makes inline;
- the re-pairing of two chords of a partner tuple (``reconnect``), the
  move that ``webs._grow`` makes inline and ``webs.action_table`` makes as
  four flipped bits of a web's openers;
- the latest-parent rule on a tableau's two rows (``latest_parent``),
  which ``transition._parents`` reads from the first row's bitmask;
- dense matrix products and rank, and the dense matrix of s_i on the
  web basis, which the package codes only as ``webs.action_table``;
- D(M), the product of the pair minors of a perfect matching, as a
  tabloid vector (``web_vector``), and its term list, which
  ``enumerate --dump-poly`` writes, built as Python lists and dicts: with
  ``json.dumps(polynomial_terms(web_vector(m)), indent=2)`` they are the
  reference for ``minors.serialize_polynomial``, which writes the text
  straight from the matching;
- the identities of the polynomial model: the three-term minor
  identity, the sign rule for permuting columns, the compatibility of
  the column action with the web action, and the exact expansion of a
  tabloid vector over the noncrossing minor products, which shares no
  code with the crossing rewrite.

Pytest rewrites asserts only in test modules, and ``python -O`` strips
them, so nothing here asserts: a check returns a bool, and bad input
raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

from tworow import specht
from tworow.combinat import Matching, Tableau, enumerate_webs
from tworow.linalg import _echelon
from tworow.specht import Tabloid, pair_vector
from tworow.webs import action_table

# permutations of 1..k


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1, ..., k} stored in one-line notation.

    ``images[i - 1]`` is the image of the letter ``i``; ``sigma(i)``
    reads it in letter language.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {self.images}")

    def __call__(self, letter: int) -> int:
        return self.images[letter - 1]

    @classmethod
    def transposition(cls, size: int, a: int, b: int) -> "Permutation":
        images = list(range(1, size + 1))
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(tuple(images))


def adjacent_transposition(size: int, i: int) -> Permutation:
    """The simple transposition s_i = (i, i+1) in the symmetric group."""
    if not 1 <= i <= size - 1:
        raise ValueError(f"generator index {i} out of range 1..{size - 1}")
    return Permutation.transposition(size, i, i + 1)


def identity_permutation(size: int) -> Permutation:
    return Permutation(tuple(range(1, size + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p * q, with (p * q)(x) = p(q(x)).

    >>> s1 = Permutation.transposition(3, 1, 2)
    >>> s2 = Permutation.transposition(3, 2, 3)
    >>> compose(s1, s2).images
    (2, 3, 1)
    """
    if len(p.images) != len(q.images):
        raise ValueError("size mismatch")
    return Permutation(tuple(p.images[j - 1] for j in q.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p.images)
    for i, img in enumerate(p.images):
        inv[img - 1] = i + 1
    return Permutation(tuple(inv))


def from_cycles(size: int, cycles) -> Permutation:
    """A permutation from disjoint cycles given in letter form.

    >>> from_cycles(4, [(1, 2, 3)]).images
    (2, 3, 1, 4)
    """
    images = list(range(1, size + 1))
    for cycle in cycles:
        for pos, letter in enumerate(cycle):
            images[letter - 1] = cycle[(pos + 1) % len(cycle)]
    return Permutation(tuple(images))


def permutation_sign(p: Permutation) -> int:
    k = len(p.images)
    inversions = sum(1 for i in range(k) for j in range(i + 1, k) if p.images[i] > p.images[j])
    return -1 if inversions % 2 else 1


def reduced_word(p: Permutation) -> tuple[int, ...]:
    """A word (j1, ..., jk) of adjacent-transposition indices with
    p = s_{jk} ... s_{j1}: acting with p means acting with s_{j1} first
    and s_{jk} last.

    Found by bubble-sorting the one-line notation; the word length is
    the inversion number of p.

    >>> reduced_word(Permutation((3, 1, 2)))
    (1, 2)
    """
    a = list(p.images)
    word = []
    i = 0
    while i < len(a) - 1:
        if a[i] > a[i + 1]:
            word.append(i + 1)
            a[i], a[i + 1] = a[i + 1], a[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(word)


def partitions(m: int):
    """All integer partitions of m in decreasing part order.

    >>> list(partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail

    yield from rec(m, m)


def cycle_type_representative(cycle_type, size: int) -> Permutation:
    """A permutation with the given cycle type, cycles on consecutive blocks.

    >>> cycle_type_representative((3, 2), 5).images
    (2, 3, 1, 5, 4)
    """
    if sum(cycle_type) != size:
        raise ValueError("cycle type must sum to the number of letters")
    cycles = []
    start = 1
    for length in cycle_type:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return from_cycles(size, cycles)


# tableaux, tabloids and matchings


def tableau_from_lists(rows) -> Tableau:
    return Tableau((tuple(rows[0]), tuple(rows[1])))


def tabloid_of(t: Tableau) -> Tabloid:
    """The tabloid of a tableau: its first-row entries as a sorted tuple.

    Row-equivalent tableaux give the same tabloid.

    >>> tabloid_of(Tableau(((3, 1), (4, 2))))
    (1, 3)
    """
    return tuple(sorted(t.rows[0]))


def pair_vector_by_products(pairs) -> dict[Tabloid, int]:
    """The reference for ``specht.pair_vector``: one tabloid per choice of
    a letter from each pair, taken over ``itertools.product``, sorted, and
    signed by how many pairs gave their second letter.

    >>> pair_vector_by_products([(3, 1), (2, 4)])
    {(2, 3): 1, (3, 4): -1, (1, 2): -1, (1, 4): 1}
    """
    letters = [x for pair in pairs for x in pair]
    if len(set(letters)) != len(letters):
        raise ValueError(f"pairs are not disjoint: {list(pairs)}")
    vec: dict[Tabloid, int] = {}
    for swaps in itertools.product((0, 1), repeat=len(pairs)):
        first = tuple(sorted(b if s else a for (a, b), s in zip(pairs, swaps)))
        vec[first] = -1 if sum(swaps) % 2 else 1
    return vec


def web_vector(m: Matching) -> dict[Tabloid, int]:
    """D(m), the product of the pair minors of a perfect matching, as a
    tabloid vector: 2^n tabloids, each with coefficient +1 or -1.

    >>> web_vector(Matching((2, 1)))
    {(1,): 1, (2,): -1}
    """
    return pair_vector(m.pairs())


def act_on_tabloid(sigma: Permutation, tab: Tabloid) -> Tabloid:
    return tuple(sorted(sigma(x) for x in tab))


def act_on_tabloid_vector(sigma: Permutation, vec: dict[Tabloid, int]) -> dict[Tabloid, int]:
    """Linear extension of the letter action; keys never collide because
    the action on tabloids is a bijection."""
    return {act_on_tabloid(sigma, tab): c for tab, c in vec.items()}


def openers(m: Matching) -> tuple[int, ...]:
    """The minima of the pairs, ascending."""
    return tuple(a for a, _ in m.pairs())


def partner_of(m: Matching, letter: int) -> int:
    """The letter that m matches with ``letter``, in letter language."""
    return m.partner[letter - 1]


def enumerate_perfect_matchings(n: int):
    """Iterate over all (2n - 1)!! perfect matchings on 1..2n, crossing or
    not, smallest free letter matched to each larger partner in turn."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(letters):
        if not letters:
            yield []
            return
        first, rest = letters[0], letters[1:]
        for k, mate in enumerate(rest):
            for tail in rec(rest[:k] + rest[k + 1 :]):
                yield [(first, mate)] + tail

    for ps in rec(tuple(range(1, 2 * n + 1))):
        yield Matching.from_pairs(ps)


def first_crossing(partner, start: int = 1) -> tuple[int, int, int, int] | None:
    """The lexicographically smallest quadruple a < b < c < d with a ~ c
    and b ~ d in a partner array (a tuple or bytes), or None when it is
    noncrossing; the same as ``crossing_pairs(Matching(partner))[0]``,
    found by a direct scan that stops at the first crossing.  It is the
    reference for the scan ``webs._grow`` makes inline.

    The scan looks only at openers a >= ``start``.  The caller promises
    that no crossing starts below ``start``; under that promise the
    answer is the same as with the default ``start=1``.  The rewrite
    keeps the promise by passing its parent's a down to both children
    (see ``webs``).

    >>> first_crossing((3, 4, 1, 2)), first_crossing((2, 1, 4, 3))
    ((1, 2, 3, 4), None)
    >>> first_crossing((2, 1, 5, 6, 3, 4), 3)
    (3, 4, 5, 6)
    """
    for a, c in enumerate(partner[start - 1 :], start):
        # letters a+1..c-1 sit at partner[a : c - 1]; a chord from one of
        # them crosses a ~ c exactly when its partner lies beyond c
        if c > a + 1 and max(partner[a : c - 1]) > c:
            for b, d in enumerate(partner[a : c - 1], a + 1):
                if d > c:
                    return a, b, c, d
    return None


def reconnect(p: tuple[int, ...], a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """The partner tuple p with its two chords on a, b, c, d re-paired as
    a ~ b and c ~ d; it may cross.

    >>> reconnect((3, 4, 1, 2), 1, 2, 3, 4)
    (2, 1, 4, 3)
    """
    q = list(p)
    q[a - 1], q[b - 1], q[c - 1], q[d - 1] = b, a, d, c
    return tuple(q)


def latest_parent(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, int]:
    """(j, i) for the largest letter i = first[j] of a standard tableau's
    first row whose i + 1 sits in the second row in another column: the
    row stream's parent letter, found on the two rows.

    >>> latest_parent((1, 2, 4), (3, 5, 6))
    (2, 4)
    """
    return max((j, a) for j, a in enumerate(first) if a + 1 in second and second[j] != a + 1)


def permute_matching(sigma: Permutation, m: Matching) -> tuple[int, Matching]:
    """Apply sigma to the endpoints of m, returning (sign, sigma(m)).

    The sign is (-1)^k where k counts pairs {a < b} of m that sigma
    inverts (sigma(a) > sigma(b)); it is the sign picked up by the
    corresponding product of column minors under column permutation.

    >>> from tworow.combinat import consecutive_matching
    >>> permute_matching(Permutation((2, 1, 3, 4)), consecutive_matching(2))
    (-1, Matching(partner=(2, 1, 4, 3)))
    """
    if len(sigma.images) != len(m.partner):
        raise ValueError("size mismatch")
    inverted = 0
    new_pairs = []
    for a, b in m.pairs():
        sa, sb = sigma(a), sigma(b)
        if sa > sb:
            inverted += 1
        new_pairs.append((min(sa, sb), max(sa, sb)))
    return (-1 if inverted % 2 else 1), Matching.from_pairs(new_pairs)


# dense matrices: lists of rows of ints or Fractions


def identity_matrix(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a, b) -> list[list]:
    if any(len(row) != len(m[0]) for m in (a, b) for row in m):
        raise ValueError("rows of different lengths")
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rank(matrix) -> int:
    """Rank over the rationals: the pivot count of the package's echelon,
    which takes ints only, so each row is first scaled by the lcm of its
    entries' denominators.

    >>> rank([[1, 2], [2, 4], [0, 1]])
    2
    """
    scaled = []
    for row in matrix:
        denom = math.lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (denom // x.denominator) for x in row])
    return len(_echelon(scaled))


def web_action_matrix(i: int, n: int) -> list[list[int]]:
    """Matrix of s_i on the web model in the web basis, entries -1, 0, 1,
    column k the image of w_k: the dense form of ``webs.action_table``."""
    table = action_table(i, n)
    matrix = [[0] * len(table) for _ in table]
    for k, target in enumerate(table):
        if target < 0:
            matrix[k][k] = -1
        else:
            matrix[k][k] = matrix[target][k] = 1
    return matrix


# the term list that enumerate --dump-poly writes


def polynomial_terms(vec: dict[Tabloid, int]) -> list[dict]:
    """A tabloid vector as the term list of its polynomial,
    [{"exponents": [[r, j, e], ...], "coeff": c}]: the row-1 columns (the
    tabloid), then the row-2 columns (its complement in 1..2n), each with
    exponent 1; terms in ascending tabloid order."""
    letters = range(1, 2 * len(next(iter(vec), ())) + 1)
    return [
        {
            "exponents": [[1, j, 1] for j in tab]
            + [[2, k, 1] for k in letters if k not in tab],
            "coeff": vec[tab],
        }
        for tab in sorted(vec)
    ]


# the identities of the polynomial model


def syzygy_holds(a: int, b: int, c: int, d: int) -> bool:
    """Whether D(a,c) D(b,d) = D(a,b) D(c,d) + D(a,d) D(b,c), exactly."""
    if not a < b < c < d:
        raise ValueError("columns must satisfy a < b < c < d")
    rhs = pair_vector([(a, b), (c, d)])
    for tab, v in pair_vector([(a, d), (b, c)]).items():
        rhs[tab] = rhs.get(tab, 0) + v
    return pair_vector([(a, c), (b, d)]) == {tab: v for tab, v in rhs.items() if v}


def sign_rule_holds(sigma: Permutation, m: Matching) -> bool:
    """Whether permuting columns of D(m) equals sign * D(sigma(m)) with the
    inversion-pair sign of ``permute_matching``."""
    sign, moved = permute_matching(sigma, m)
    expected = {tab: sign * c for tab, c in web_vector(moved).items()}
    return act_on_tabloid_vector(sigma, web_vector(m)) == expected


@cache
def _web_basis(n: int):
    """The minor products of the noncrossing matchings as a
    specht.triangular_basis, cached per n."""
    return specht.triangular_basis([web_vector(w) for w in enumerate_webs(n)])


def web_polynomials_independent(n: int) -> bool:
    """Whether the minor products of the Catalan(n) noncrossing matchings
    are unitriangular over the tabloids, which makes them independent."""
    return specht.is_unitriangular([web_vector(w) for w in enumerate_webs(n)])


def expand_in_web_basis(vec: dict[Tabloid, int], n: int) -> dict[Matching, int]:
    """Exact coordinates of a tabloid vector in the span of the
    noncrossing minor products; the independent check for the crossing
    rewrite.

    Raises ValueError when vec is outside the span.

    >>> from tworow.combinat import consecutive_matching
    >>> m0 = consecutive_matching(2)
    >>> expand_in_web_basis(web_vector(m0), 2) == {m0: 1}
    True
    """
    coords = specht.coordinates(_web_basis(n), vec, n)
    return {w: c for w, c in zip(enumerate_webs(n), coords) if c}


def column_action_matches_web_action(n: int) -> bool:
    """Whether, for every generator s_i and every noncrossing matching M,
    permuting the columns of D(M) expands to exactly the web-model action
    of s_i on M, as ``webs.action_table`` codes it: -w_M, or w_M plus the
    web its entry names.  This is the compatibility that makes the two
    models the same representation."""
    web_list = enumerate_webs(n)
    for i in range(1, 2 * n):
        sigma = adjacent_transposition(2 * n, i)
        for m, target in zip(web_list, action_table(i, n)):
            moved = act_on_tabloid_vector(sigma, web_vector(m))
            expected = {m: -1} if target < 0 else {m: 1, web_list[target]: 1}
            if expand_in_web_basis(moved, n) != expected:
                return False
    return True
