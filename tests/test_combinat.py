import copy
import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import (
    Permutation,
    adjacent_transposition,
    compose,
    cycle_type_representative,
    enumerate_perfect_matchings,
    from_cycles,
    identity_permutation,
    inverse,
    openers,
    permutation_sign,
    permute_matching,
    reduced_word,
)
from strategies import matchings, permutations
from tworow.combinat import (
    Matching,
    Tableau,
    catalan,
    consecutive_matching,
    crossing_pairs,
    enumerate_syt,
    enumerate_webs,
    interleaved_tableau,
    tableau_to_web,
)

# the five standard fillings of the 2 x 3 rectangle, in canonical order
SYT33 = [
    [[1, 3, 5], [2, 4, 6]],
    [[1, 3, 4], [2, 5, 6]],
    [[1, 2, 5], [3, 4, 6]],
    [[1, 2, 4], [3, 5, 6]],
    [[1, 2, 3], [4, 5, 6]],
]

WEBS3 = [
    [(1, 2), (3, 4), (5, 6)],
    [(1, 2), (3, 6), (4, 5)],
    [(1, 4), (2, 3), (5, 6)],
    [(1, 6), (2, 3), (4, 5)],
    [(1, 6), (2, 5), (3, 4)],
]


def catalan_by_recurrence(n):
    """Independent oracle: Cat(k+1) = sum Cat(i) Cat(k-i)."""
    cats = [1]
    for k in range(n):
        cats.append(sum(cats[i] * cats[k - i] for i in range(k + 1)))
    return cats[n]


class TestCatalan:
    def test_known_values(self):
        assert catalan(1) == 1
        assert catalan(3) == 5
        assert catalan(8) == 1430

    def test_degenerate_zero(self):
        assert catalan(0) == 1

    def test_matches_recurrence(self):
        for n in range(12):
            assert catalan(n) == catalan_by_recurrence(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)

    @pytest.mark.parametrize("n", [True, 2.0, "3", -1], ids=repr)
    def test_n_must_be_an_exact_int(self, n):
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            catalan(n)


class TestEnumerateSyt:
    def test_n3_matches_display(self):
        assert [list(map(list, t.rows)) for t in enumerate_syt(3)] == SYT33

    def test_n1(self):
        assert [t.rows for t in enumerate_syt(1)] == [((1,), (2,))]

    def test_n5_against_bruteforce_filter(self):
        # oracle: assemble a tableau from every 5-subset as first row and
        # keep the standard ones; no ballot logic involved
        letters = set(range(1, 11))
        expected = set()
        for first in itertools.combinations(sorted(letters), 5):
            t = Tableau((first, tuple(sorted(letters - set(first)))))
            if t.is_standard:
                expected.add(t)
        got = enumerate_syt(5)
        assert len(got) == 42
        assert set(got) == expected

    def test_all_standard_and_counted(self):
        for n in range(1, 9):
            tableaux = enumerate_syt(n)
            assert len(tableaux) == catalan(n)
            assert all(t.is_standard for t in tableaux)
            assert len(set(tableaux)) == len(tableaux)

    def test_interleaved_first(self):
        for n in range(1, 7):
            assert enumerate_syt(n)[0] == interleaved_tableau(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unchecked_tableaux_pass_the_public_check(self, n):
        # enumerate_syt builds its tableaux without Tableau's check
        for t in enumerate_syt(n):
            rebuilt = Tableau(t.rows)
            assert rebuilt == t
            assert rebuilt.is_standard

    @pytest.mark.parametrize("n", range(1, 10))
    def test_first_rows_are_the_ballot_filter_descending(self, n):
        # the enumeration the ballot recursion replaced: every n-subset of
        # 1..2n whose k-th entry is at most 2k + 1, sorted descending
        expected = sorted(
            (
                combo
                for combo in itertools.combinations(range(1, 2 * n + 1), n)
                if all(combo[k] <= 2 * k + 1 for k in range(n))
            ),
            reverse=True,
        )
        assert [t.rows[0] for t in enumerate_syt(n)] == expected


class TestEnumerateWebs:
    def test_n3_frozen(self):
        assert [list(w.pairs()) for w in enumerate_webs(3)] == WEBS3

    def test_n1(self):
        assert [w.pairs() for w in enumerate_webs(1)] == [((1, 2),)]

    def test_n4_against_matching_filter(self):
        all_matchings = list(enumerate_perfect_matchings(4))
        assert len(all_matchings) == 105
        expected = {m for m in all_matchings if not crossing_pairs(m)}
        got = enumerate_webs(4)
        assert len(got) == 14
        assert set(got) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_noncrossing_filter_by_openers_descending(self, n):
        # an enumeration independent of the tableaux: filter every perfect
        # matching, then sort by the tuple of pair minima, descending
        expected = sorted(
            (m for m in enumerate_perfect_matchings(n) if m.is_noncrossing),
            key=openers,
            reverse=True,
        )
        assert enumerate_webs(n) == tuple(expected)

    def test_counts_and_noncrossing(self):
        for n in range(1, 9):
            ws = enumerate_webs(n)
            assert len(ws) == catalan(n)
            assert all(w.is_noncrossing for w in ws)

    def test_consecutive_first(self):
        for n in range(1, 7):
            assert enumerate_webs(n)[0] == consecutive_matching(n)

    def test_unchecked_webs_pass_the_public_checks(self):
        # enumerate_webs skips Matching's check: rebuild every web through
        # the public constructor, which validates it
        for n in range(1, 9):
            for t, w in zip(enumerate_syt(n), enumerate_webs(n)):
                rebuilt = Matching(w.partner)
                assert rebuilt.is_noncrossing
                assert rebuilt == w == tableau_to_web(t)


class TestBaseObjects:
    def test_interleaved_tableau(self):
        assert interleaved_tableau(1).rows == ((1,), (2,))
        assert interleaved_tableau(6).rows == (
            (1, 3, 5, 7, 9, 11),
            (2, 4, 6, 8, 10, 12),
        )

    def test_consecutive_matching(self):
        assert consecutive_matching(1).pairs() == ((1, 2),)
        assert consecutive_matching(4).pairs() == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_tableau_validation(self):
        with pytest.raises(ValueError):
            Tableau(((1, 2), (3,)))
        with pytest.raises(ValueError):
            Tableau(((1, 2), (2, 3)))

    @pytest.mark.parametrize(
        "rows", [((True, 2), (3, 4)), ((1.0, 3), (2, 4)), ((1, 3), (2, 4.0)), (("1", 3), (2, 4))]
    )
    def test_tableau_letters_are_ints(self, rows):
        # True and 1.0 equal 1 but are not letters
        with pytest.raises(ValueError, match="ints"):
            Tableau(rows)

    def test_matching_validation(self):
        with pytest.raises(ValueError):
            Matching((1, 2))  # fixed points
        with pytest.raises(ValueError):
            Matching((2, 1, 3, 4))

    @pytest.mark.parametrize("partner", [(2, True), (4, 3, 2, True), (2.0, 1), (2, 1.0), ("2", 1)])
    def test_matching_letters_are_ints(self, partner):
        with pytest.raises(ValueError, match="involution"):
            Matching(partner)

    @pytest.mark.parametrize(
        "pairs", [[(1, 5), (2, 3)], [(-4, 1), (2, 3)], [(0, 1)], [(-1, 2)], [(1, 2), (2, 3)]]
    )
    def test_from_pairs_rejects_letters_out_of_range(self, pairs):
        # past 2k or at or below -2k (outside the list), in between, repeated
        with pytest.raises(ValueError):
            Matching.from_pairs(pairs)

    @given(
        st.integers(min_value=0, max_value=7).flatmap(
            lambda k: st.lists(st.integers(min_value=-2, max_value=k + 2), min_size=k, max_size=k)
            | st.permutations(range(1, k + 1))
        )
        | st.integers(min_value=0, max_value=3).flatmap(matchings).map(lambda m: m.partner)
    )
    def test_matching_accepts_exactly_the_fixed_point_free_involutions(self, partner):
        # odd lengths, zeros, negatives and letters past the end, the
        # permutations of 1..k, and matchings
        partner = tuple(partner)
        try:
            Matching(partner)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (partner in fixed_point_free_involutions(len(partner)))


class TestValueClasses:
    """Tableau and Matching are immutable values: built by position or by
    field name, compared and hashed by their one field, with no instance
    dict."""

    VALUES = [
        (Matching((2, 1, 4, 3)), "partner", "Matching(partner=(2, 1, 4, 3))"),
        (Tableau(((1, 3), (2, 4))), "rows", "Tableau(rows=((1, 3), (2, 4)))"),
    ]

    @pytest.mark.parametrize("value, field, text", VALUES)
    def test_repr(self, value, field, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value, field, text", VALUES)
    def test_construction_by_position_and_by_name(self, value, field, text):
        cls, content = type(value), getattr(value, field)
        assert cls(content) == cls(**{field: content}) == value
        assert cls(content) is not value

    @pytest.mark.parametrize("value, field, text", VALUES)
    def test_equal_values_hash_equal(self, value, field, text):
        content = getattr(value, field)
        twin = type(value)(tuple(content))
        assert twin == value and hash(twin) == hash(value) == hash((content,))
        # a value equals only a value of its own class
        assert value != content and value != (content,)
        assert len({value, twin}) == 1

    def test_unequal_values(self):
        assert Matching((2, 1, 4, 3)) != Matching((4, 3, 2, 1))
        assert Tableau(((1, 3), (2, 4))) != Tableau(((1, 2), (3, 4)))
        assert Matching((2, 1)) != Tableau(((1,), (2,)))

    @pytest.mark.parametrize("value, field, text", VALUES)
    def test_assignment_and_deletion_raise(self, value, field, text):
        content = getattr(value, field)
        for name in (field, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, content)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert getattr(value, field) is content
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value, field, text", VALUES)
    def test_copies_and_pickles_are_equal_values(self, value, field, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)

    @pytest.mark.parametrize("pairs", [[(1.0, 2)], [(1, 2.5)], [("a", 2)], [(1, 2), (3, None)]])
    def test_from_pairs_rejects_letters_that_are_not_ints(self, pairs):
        with pytest.raises(ValueError):
            Matching.from_pairs(pairs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Matching([2, 1]),
            lambda: Matching(range(2, 0, -1)),
            lambda: Matching(None),
            lambda: Tableau(([1], [2])),
            lambda: Tableau([(1,), (2,)]),
            lambda: Tableau(((1,), [2])),
            lambda: Tableau(None),
        ],
    )
    def test_fields_must_be_tuples(self, make):
        # a list field would make a "frozen" value that cannot be hashed
        with pytest.raises(ValueError):
            make()


@functools.cache
def fixed_point_free_involutions(k):
    """Every permutation q of 1..k with q(q(i)) = i != q(i), by brute force."""
    return {
        q
        for q in itertools.permutations(range(1, k + 1))
        if all(q[q[i] - 1] == i + 1 and q[i] != i + 1 for i in range(k))
    }


class TestTableauToWeb:
    def test_interleaved_goes_to_consecutive(self):
        for n in range(1, 7):
            assert tableau_to_web(interleaved_tableau(n)) == consecutive_matching(n)

    def test_nested_example(self):
        assert tableau_to_web(Tableau(((1, 2), (3, 4)))).pairs() == ((1, 4), (2, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bijective(self, n):
        image = [tableau_to_web(t) for t in enumerate_syt(n)]
        assert len(set(image)) == len(image)
        assert set(image) == set(enumerate_webs(n))

    def test_rejects_nonstandard(self):
        with pytest.raises(ValueError):
            tableau_to_web(Tableau(((2, 3), (1, 4))))


class TestPermuteMatching:
    def test_identity(self):
        m = Matching.from_pairs([(1, 3), (2, 4)])
        assert permute_matching(identity_permutation(4), m) == (1, m)

    def test_s1_flips_consecutive(self):
        m0 = consecutive_matching(2)
        sign, moved = permute_matching(adjacent_transposition(4, 1), m0)
        assert (sign, moved) == (-1, m0)

    def test_s2_no_inversion(self):
        sign, moved = permute_matching(
            adjacent_transposition(4, 2), consecutive_matching(2)
        )
        assert sign == 1
        assert moved.pairs() == ((1, 3), (2, 4))

    @settings(max_examples=60)
    @given(st.data())
    def test_composition_multiplies_signs(self, data):
        n = data.draw(st.integers(2, 5))
        sigma = data.draw(permutations(2 * n))
        tau = data.draw(permutations(2 * n))
        m = data.draw(matchings(n))
        s_tau, m_tau = permute_matching(tau, m)
        s_sigma, m_final = permute_matching(sigma, m_tau)
        s_both, m_both = permute_matching(compose(sigma, tau), m)
        assert m_both == m_final
        assert s_both == s_sigma * s_tau

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            permute_matching(identity_permutation(6), consecutive_matching(2))


class TestCrossingPairs:
    def test_consecutive_has_none(self):
        for n in range(1, 7):
            assert crossing_pairs(consecutive_matching(n)) == []

    def test_single_crossing(self):
        assert crossing_pairs(Matching.from_pairs([(1, 3), (2, 4)])) == [(1, 2, 3, 4)]

    def test_triple_crossing(self):
        m = Matching.from_pairs([(1, 4), (2, 5), (3, 6)])
        assert crossing_pairs(m) == [(1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 5, 6)]

    @settings(max_examples=60)
    @given(st.data())
    def test_noncrossing_iff_empty(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(matchings(n))
        assert m.is_noncrossing == (not crossing_pairs(m))


class TestPermutation:
    def test_compose_and_inverse(self):
        s1 = adjacent_transposition(3, 1)
        s2 = adjacent_transposition(3, 2)
        assert compose(s1, s2).images == (2, 3, 1)
        assert compose(compose(s1, s2), inverse(compose(s1, s2))) == identity_permutation(3)

    @settings(max_examples=60)
    @given(st.data())
    def test_reduced_word_reconstructs(self, data):
        k = data.draw(st.integers(2, 8))
        sigma = data.draw(permutations(k))
        word = reduced_word(sigma)
        prod = identity_permutation(k)
        for i in word:
            prod = compose(adjacent_transposition(k, i), prod)
        assert prod == sigma
        assert permutation_sign(sigma) == (-1) ** len(word)

    def test_from_cycles(self):
        assert from_cycles(4, [(1, 2, 3)]).images == (2, 3, 1, 4)

    def test_cycle_type_must_sum_to_size(self):
        assert cycle_type_representative((2, 1), 3).images == (2, 1, 3)
        with pytest.raises(ValueError, match="sum to the number of letters"):
            cycle_type_representative((2, 2), 5)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
