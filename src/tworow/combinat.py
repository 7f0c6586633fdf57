"""
Indexing combinatorics for the two-row world: fillings of the 2 x n
rectangle and perfect matchings on 1..2n, their canonical enumerations
and their crossings.  The package needs no permutation type: each
generator s_i acts by one elementary move per model (``specht`` swaps
two letters, ``webs`` reconnects two chords).  The permutation algebra
the tests check against (products, inverses, signs, reduced words) is
in the test suite's model.

Conventions used throughout the package:

- Letters are 1-based: tableau entries and matching endpoints all live
  in {1, ..., 2n}.  Internal tuples are 0-indexed by position, so
  ``m.partner[i - 1]`` is the partner of the letter ``i``.
- The canonical enumeration order on standard tableaux is descending
  lexicographic on the first-row tuple.  Noncrossing matchings are
  enumerated as the opener/closer images of the tableaux in that order;
  the openers of the image of T are the first row of T, so this is
  descending lexicographic on the tuple of pair minima.  It puts the
  interleaved tableau 1,3,5,.. / 2,4,6,.. and the consecutive-pairs
  matching {1~2, 3~4, ...} at index 0, pairs tableau k with web k, and
  makes every serialized enumeration reproducible byte for byte.
- ``Tableau`` and ``Matching``, like ``transition``'s
  ``TransitionMatrix``, are immutable values on ``_Frozen``: slotted
  classes whose ``__init__`` sets each field once (``Tableau`` and
  ``Matching`` check it first), with equality, hash and repr by field.
  They are not dataclasses, because importing ``dataclasses`` (with
  ``inspect``, ``ast`` and ``dis``) costs a short ``tworow`` run about a
  tenth of its wall time.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly.

    >>> [catalan(n) for n in range(9)]
    [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    return math.comb(2 * n, n) // (n + 1)


class _Frozen:
    """An immutable value.  Its fields lead ``__slots__`` and are set once,
    by ``__init__`` through their slot descriptors; ``_key()`` is the tuple
    of them, which equality (within one class), hash, repr, copies and
    pickles read."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        # zip stops at the fields: a trailing "__weakref__" slot is not one
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()


class Tableau(_Frozen):
    """A filling of the 2 x n rectangle with the letters 1..2n, one each."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], tuple[int, ...]]):
        if type(rows) is not tuple or {*map(type, rows)} - {tuple}:
            raise ValueError(f"rows must be a tuple of tuples: {rows!r}")
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise ValueError("shape must be a 2 x n rectangle")
        entries = rows[0] + rows[1]  # True and 1.0 equal 1 but are not letters
        if {*map(type, entries)} - {int} or sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError("entries must be exactly the ints 1..2n, one each")
        Tableau.rows.__set__(self, rows)

    def _key(self):
        return (self.rows,)

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


class Matching(_Frozen):
    """A perfect matching on {1, ..., 2n} as a partner array.

    ``partner[i - 1]`` is the letter matched with ``i``; the array is a
    fixed-point-free involution, so equality and hashing are O(n) with no
    ambiguity about pair order.
    """

    __slots__ = ("partner",)

    def __init__(self, partner: tuple[int, ...]):
        if type(partner) is not tuple:
            raise ValueError(f"partner must be a tuple: {partner!r}")
        # an int in range before it is used as an index; an involution with
        # no fixed point pairs the letters, so its length is even
        k = len(partner)
        ok = {*map(type, partner)} <= {int} and all(
            0 < p <= k and p != i and partner[p - 1] == i for i, p in enumerate(partner, 1)
        )
        if not ok:
            raise ValueError(f"not a fixed-point-free involution: {partner}")
        Matching.partner.__set__(self, partner)

    def _key(self):
        return (self.partner,)

    def __hash__(self):  # _Frozen's, in one call: the rewrite hashes every key it returns
        return hash((self.partner,))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (a, b) with a < b, sorted by a.

        >>> consecutive_matching(2).pairs()
        ((1, 2), (3, 4))
        """
        return tuple((i, p) for i, p in enumerate(self.partner, 1) if i < p)

    @property
    def is_noncrossing(self) -> bool:
        # the openers of a perfect matching are ballot, and the stack
        # pairing is the one noncrossing matching with those openers
        openers = tuple(i for i, p in enumerate(self.partner, 1) if i < p)
        return self.partner == _opener_closer_partner(openers)

    @classmethod
    def from_pairs(cls, pairs) -> "Matching":
        pairs = list(pairs)
        partner = [0] * (2 * len(pairs))
        try:
            for a, b in pairs:
                partner[a - 1], partner[b - 1] = b, a
        except (IndexError, TypeError):  # a letter past the list, or not an int
            raise ValueError(f"letters must be ints in 1..{len(partner)}: {pairs}") from None
        return cls(tuple(partner))


def _trusted(cls, value):
    """A ``cls`` (``Tableau`` or ``Matching``, one field) holding
    ``value``, built without the check of its ``__init__``: only for a
    value the caller has already proved valid.  The field is set through
    its slot descriptor, past the raising ``__setattr__``: faster than
    ``object.__setattr__``.  ``webs.resolve_crossings`` does the same
    with the descriptor bound once, for every key it returns."""
    obj = object.__new__(cls)
    getattr(cls, cls.__slots__[0]).__set__(obj, value)
    return obj


def crossing_pairs(m: Matching) -> list[tuple[int, int, int, int]]:
    """All quadruples a < b < c < d with a~c and b~d in m, sorted.

    Empty exactly when the matching is noncrossing.

    >>> crossing_pairs(Matching.from_pairs([(1, 3), (2, 4)]))
    [(1, 2, 3, 4)]
    """
    # pairs() is sorted by opener, so a < b always holds here
    two_pairs = itertools.combinations(m.pairs(), 2)
    return sorted((a, b, c, d) for (a, c), (b, d) in two_pairs if a < b < c < d)


def interleaved_tableau(n: int) -> Tableau:
    """The standard tableau with first row 1, 3, 5, ... and second row
    2, 4, 6, ...; index 0 of the canonical enumeration."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    return Tableau((tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2))))


def consecutive_matching(n: int) -> Matching:
    """The noncrossing matching pairing 2i-1 with 2i; index 0 of the
    canonical enumeration, and the image of the interleaved tableau."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    return Matching.from_pairs((2 * i - 1, 2 * i) for i in range(1, n + 1))


@lru_cache(maxsize=None, typed=True)  # untyped, True may hit the entry for 1
def enumerate_syt(n: int) -> tuple[Tableau, ...]:
    """All standard tableaux on the 2 x n rectangle, canonically ordered.

    >>> [t.rows[0] for t in enumerate_syt(3)]
    [(1, 3, 5), (1, 3, 4), (1, 2, 5), (1, 2, 4), (1, 2, 3)]
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    # the first rows, descending: the increasing tuples whose k-th entry
    # (from 0) is at most 2k + 1.  Every such prefix extends, so they grow
    # an entry at a time, each prefix's children largest entry first.  With
    # the sorted complement below, each holds 1..2n once: no check needed.
    rows = [(1,)]
    for k in range(1, n):
        rows = [row + (v,) for row in rows for v in range(2 * k + 1, row[-1], -1)]
    letters = set(range(1, 2 * n + 1))
    tableaux = tuple(_trusted(Tableau, (r, tuple(sorted(letters.difference(r))))) for r in rows)
    if len(tableaux) != catalan(n):
        raise RuntimeError(f"found {len(tableaux)} tableaux, expected Catalan({n}) = {catalan(n)}")
    return tableaux


def tableau_to_web(t: Tableau) -> Matching:
    """The opener/closer bijection from standard tableaux to noncrossing
    matchings: first-row entries open, second-row entries close, and each
    closer matches the nearest unmatched opener below it.

    >>> tableau_to_web(Tableau(((1, 2), (3, 4)))).pairs()
    ((1, 4), (2, 3))
    """
    if not t.is_standard:
        raise ValueError("tableau is not standard")
    m = Matching(_opener_closer_partner(t.rows[0]))
    if not m.is_noncrossing:
        raise RuntimeError(f"opener/closer bijection gave the crossing {m.partner}")
    return m


def _opener_closer_partner(first_row: tuple[int, ...]) -> tuple[int, ...]:
    """tableau_to_web's partner tuple, unchecked: for a ballot first row
    every closer finds an opener, and the stack nests the pairs."""
    openers = set(first_row)
    partner = [0] * (2 * len(first_row))
    stack: list[int] = []
    for letter in range(1, len(partner) + 1):
        if letter in openers:
            stack.append(letter)
        else:
            partner[letter - 1] = opener = stack.pop()
            partner[opener - 1] = letter
    return tuple(partner)


@lru_cache(maxsize=None, typed=True)  # untyped, True may hit the entry for 1
def enumerate_webs(n: int) -> tuple[Matching, ...]:
    """All noncrossing perfect matchings on 1..2n, canonically ordered:
    the opener/closer images of enumerate_syt(n), in order, unchecked:
    the first rows of standard tableaux are ballot.

    >>> [w.pairs() for w in enumerate_webs(2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    """
    return tuple(_trusted(Matching, _opener_closer_partner(t.rows[0])) for t in enumerate_syt(n))

