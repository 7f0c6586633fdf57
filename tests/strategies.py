"""Shared hypothesis strategies for the test suite."""

from hypothesis import strategies as st

from model import Permutation
from tworow.combinat import Matching


def permutations(size: int):
    return st.permutations(tuple(range(1, size + 1))).map(
        lambda images: Permutation(tuple(images))
    )


def matchings(n: int):
    """Arbitrary perfect matchings on 1..2n, crossing or not."""

    def pair_up(letters):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(letters[0::2], letters[1::2])
        ]
        return Matching.from_pairs(pairs)

    return st.permutations(tuple(range(1, 2 * n + 1))).map(pair_up)
