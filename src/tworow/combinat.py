"""
Indexing combinatorics for the two-row world: permutations of the letters
1..2n, fillings of the 2 x n rectangle, and perfect matchings on 1..2n.

Conventions used throughout the package:

- Letters are 1-based: permutations, tableau entries and matching endpoints
  all live in {1, ..., 2n}.  Internal tuples are 0-indexed by position, so
  ``sigma.images[i - 1]`` is the image of the letter ``i``; use
  ``sigma(i)`` to stay in letter language.
- The canonical enumeration order on standard tableaux (and on noncrossing
  matchings) is descending lexicographic on the first-row tuple (resp. the
  tuple of pair minima).  This puts the interleaved tableau 1,3,5,.. /
  2,4,6,.. and the consecutive-pairs matching {1~2, 3~4, ...} at index 0
  and makes every serialized enumeration reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly.

    >>> [catalan(n) for n in range(9)]
    [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1, ..., k} stored in one-line notation.

    ``images[i - 1]`` is the image of the letter ``i``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, letter: int) -> int:
        return self.images[letter - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x)).

        >>> s1 = Permutation.transposition(3, 1, 2)
        >>> s2 = Permutation.transposition(3, 2, 3)
        >>> (s1 * s2).images
        (2, 3, 1)
        """
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def transposition(cls, size: int, a: int, b: int) -> "Permutation":
        images = list(range(1, size + 1))
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, size: int, cycles) -> "Permutation":
        """Build a permutation from disjoint cycles given in letter form.

        >>> Permutation.from_cycles(4, [(1, 2, 3)]).images
        (2, 3, 1, 4)
        """
        images = list(range(1, size + 1))
        for cycle in cycles:
            for pos, letter in enumerate(cycle):
                images[letter - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(self.size)
            for j in range(i + 1, self.size)
            if self.images[i] > self.images[j]
        )
        return -1 if inversions % 2 else 1

    def reduced_word(self) -> tuple[int, ...]:
        """A word (j1, ..., jk) of adjacent-transposition indices with
        self = s_{jk} ... s_{j1}: acting with self means acting with
        s_{j1} first and s_{jk} last.

        Found by bubble-sorting the one-line notation; the word length is
        the inversion number of the permutation.

        >>> Permutation((3, 1, 2)).reduced_word()
        (1, 2)
        """
        a = list(self.images)
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


def adjacent_transposition(size: int, i: int) -> Permutation:
    """The simple transposition s_i = (i, i+1) in the symmetric group."""
    if not 1 <= i <= size - 1:
        raise ValueError(f"generator index {i} out of range 1..{size - 1}")
    return Permutation.transposition(size, i, i + 1)


@dataclass(frozen=True, slots=True)
class Tableau:
    """A filling of the 2 x n rectangle with the letters 1..2n, one each."""

    rows: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if len(self.rows) != 2 or len(self.rows[0]) != len(self.rows[1]):
            raise ValueError("shape must be a 2 x n rectangle")
        entries = sorted(self.rows[0] + self.rows[1])
        if entries != list(range(1, 2 * len(self.rows[0]) + 1)):
            raise ValueError("entries must be exactly 1..2n, one each")

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def is_standard(self) -> bool:
        """Rows increase left to right and columns increase top to bottom."""
        top, bottom = self.rows
        rows_ok = all(r[k] < r[k + 1] for r in self.rows for k in range(len(r) - 1))
        cols_ok = all(top[k] < bottom[k] for k in range(self.n))
        return rows_ok and cols_ok

    def columns(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows[0], self.rows[1]))

    @classmethod
    def from_lists(cls, rows) -> "Tableau":
        return cls((tuple(rows[0]), tuple(rows[1])))

    def to_lists(self) -> list[list[int]]:
        return [list(self.rows[0]), list(self.rows[1])]


@dataclass(frozen=True, slots=True)
class Matching:
    """A perfect matching on {1, ..., 2n} as a partner array.

    ``partner[i - 1]`` is the letter matched with ``i``; the array is a
    fixed-point-free involution, so equality and hashing are O(n) with no
    ambiguity about pair order.
    """

    partner: tuple[int, ...]

    def __post_init__(self):
        k = len(self.partner)
        ok = (
            k % 2 == 0
            and sorted(self.partner) == list(range(1, k + 1))
            and all(self.partner[p - 1] == i + 1 != p for i, p in enumerate(self.partner))
        )
        if not ok:
            raise ValueError(f"not a fixed-point-free involution: {self.partner}")

    @property
    def size(self) -> int:
        """Number of letters 2n."""
        return len(self.partner)

    def of(self, letter: int) -> int:
        return self.partner[letter - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (a, b) with a < b, sorted by a.

        >>> consecutive_matching(2).pairs()
        ((1, 2), (3, 4))
        """
        return tuple(
            (i + 1, p) for i, p in enumerate(self.partner) if i + 1 < p
        )

    def openers(self) -> tuple[int, ...]:
        """The minima of the pairs, ascending."""
        return tuple(a for a, _ in self.pairs())

    @property
    def is_noncrossing(self) -> bool:
        return not crossing_pairs(self)

    @classmethod
    def from_pairs(cls, pairs, size: int | None = None) -> "Matching":
        pairs = list(pairs)
        if size is None:
            size = 2 * len(pairs)
        partner = [0] * size
        for a, b in pairs:
            partner[a - 1], partner[b - 1] = b, a
        return cls(tuple(partner))


def crossing_pairs(m: Matching) -> list[tuple[int, int, int, int]]:
    """All quadruples a < b < c < d with a~c and b~d in m, sorted.

    Empty exactly when the matching is noncrossing.

    >>> crossing_pairs(Matching.from_pairs([(1, 3), (2, 4)]))
    [(1, 2, 3, 4)]
    """
    quads = []
    ps = m.pairs()
    for (a, c), (b, d) in itertools.combinations(ps, 2):
        # pairs() is sorted by opener, so a < b always holds here
        if a < b < c < d:
            quads.append((a, b, c, d))
    return sorted(quads)


def interleaved_tableau(n: int) -> Tableau:
    """The standard tableau with first row 1, 3, 5, ... and second row
    2, 4, 6, ...; index 0 of the canonical enumeration."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Tableau((tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2))))


def consecutive_matching(n: int) -> Matching:
    """The noncrossing matching pairing 2i-1 with 2i; index 0 of the
    canonical enumeration, and the image of the interleaved tableau."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Matching.from_pairs((2 * i - 1, 2 * i) for i in range(1, n + 1))


def _ballot_first_rows(n: int):
    """First-row sets of standard tableaux: n-subsets whose k-th smallest
    element is at most 2k - 1 (each prefix has at least as many first-row
    entries as second-row entries)."""
    for combo in itertools.combinations(range(1, 2 * n + 1), n):
        if all(combo[k] <= 2 * k + 1 for k in range(n)):
            yield combo


@cache
def enumerate_syt(n: int) -> tuple[Tableau, ...]:
    """All standard tableaux on the 2 x n rectangle, canonically ordered.

    >>> [t.rows[0] for t in enumerate_syt(3)]
    [(1, 3, 5), (1, 3, 4), (1, 2, 5), (1, 2, 4), (1, 2, 3)]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    letters = set(range(1, 2 * n + 1))
    tableaux = []
    for first in sorted(_ballot_first_rows(n), reverse=True):
        second = tuple(sorted(letters - set(first)))
        tableaux.append(Tableau((first, second)))
    if len(tableaux) != catalan(n):
        raise RuntimeError(
            f"found {len(tableaux)} tableaux, expected Catalan({n}) = {catalan(n)}"
        )
    return tuple(tableaux)


def _noncrossing_pairings(letters: tuple[int, ...]):
    """Yield the pair lists of all noncrossing matchings on the given
    (sorted) letters: letters[0] pairs at an odd offset, splitting the rest
    into an inside and an outside block."""
    if not letters:
        yield []
        return
    first = letters[0]
    for j in range(1, len(letters), 2):
        inside, outside = letters[1:j], letters[j + 1 :]
        for left in _noncrossing_pairings(inside):
            for right in _noncrossing_pairings(outside):
                yield [(first, letters[j])] + left + right


@cache
def enumerate_webs(n: int) -> tuple[Matching, ...]:
    """All noncrossing perfect matchings on 1..2n, canonically ordered.

    >>> [w.pairs() for w in enumerate_webs(2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    webs = [
        Matching.from_pairs(ps, size=2 * n)
        for ps in _noncrossing_pairings(tuple(range(1, 2 * n + 1)))
    ]
    webs.sort(key=lambda w: w.openers(), reverse=True)
    if len(webs) != catalan(n):
        raise RuntimeError(
            f"found {len(webs)} webs, expected Catalan({n}) = {catalan(n)}"
        )
    return tuple(webs)


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
        yield Matching.from_pairs(ps, size=2 * n)


def tableau_to_web(t: Tableau) -> Matching:
    """The opener/closer bijection from standard tableaux to noncrossing
    matchings: first-row entries open, second-row entries close, and each
    closer matches the nearest unmatched opener below it.

    >>> tableau_to_web(Tableau(((1, 2), (3, 4)))).pairs()
    ((1, 4), (2, 3))
    """
    if not t.is_standard:
        raise ValueError("tableau is not standard")
    openers = set(t.rows[0])
    stack: list[int] = []
    pairs = []
    for letter in range(1, 2 * t.n + 1):
        if letter in openers:
            stack.append(letter)
        else:
            pairs.append((stack.pop(), letter))
    m = Matching.from_pairs(pairs, size=2 * t.n)
    if not m.is_noncrossing:
        raise RuntimeError(f"opener/closer bijection gave the crossing {m.partner}")
    return m


def permutation_from_tableaux(t_from: Tableau, t_to: Tableau) -> Permutation:
    """The permutation sending each entry of t_from to the entry of t_to
    in the same cell, so that applying it to t_from entrywise gives t_to."""
    if t_from.n != t_to.n:
        raise ValueError("tableaux must have the same shape")
    images = [0] * (2 * t_from.n)
    for row_from, row_to in zip(t_from.rows, t_to.rows):
        for a, b in zip(row_from, row_to):
            images[a - 1] = b
    return Permutation(tuple(images))


def permute_matching(sigma: Permutation, m: Matching) -> tuple[int, Matching]:
    """Apply sigma to the endpoints of m, returning (sign, sigma(m)).

    The sign is (-1)^k where k counts pairs {a < b} of m that sigma
    inverts (sigma(a) > sigma(b)); it is the sign picked up by the
    corresponding product of column minors under column permutation.

    >>> permute_matching(Permutation((2, 1, 3, 4)), consecutive_matching(2))
    (-1, Matching(partner=(2, 1, 4, 3)))
    """
    if sigma.size != m.size:
        raise ValueError("size mismatch")
    inverted = 0
    new_pairs = []
    for a, b in m.pairs():
        sa, sb = sigma(a), sigma(b)
        if sa > sb:
            inverted += 1
        new_pairs.append((min(sa, sb), max(sa, sb)))
    sign = -1 if inverted % 2 else 1
    return sign, Matching.from_pairs(new_pairs, size=m.size)


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
    return Permutation.from_cycles(size, cycles)
