import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import matchings, permutations
from tworow.combinat import (
    Matching,
    adjacent_transposition,
    catalan,
    consecutive_matching,
    crossing_pairs,
    enumerate_perfect_matchings,
    enumerate_syt,
    enumerate_webs,
    partitions,
    cycle_type_representative,
)
from tworow.linalg import identity_matrix, mat_mul
from tworow.webs import (
    _first_crossing,
    act_by_permutation,
    action_matrix,
    generator_action,
    resolve_crossings,
)
from tworow import specht, webs


class TestGeneratorAction:
    def test_paired_letters_negate(self):
        m0 = consecutive_matching(3)
        for i in (1, 3, 5):
            assert generator_action(i, {m0: 1}) == {m0: -1}

    def test_unpaired_letters_add_uncrossing(self):
        m0 = consecutive_matching(2)
        nested = Matching.from_pairs([(1, 4), (2, 3)])
        assert generator_action(2, {m0: 1}) == {m0: 1, nested: 1}

    @settings(max_examples=40)
    @given(st.data())
    def test_involution(self, data):
        n = data.draw(st.integers(1, 5))
        webs = enumerate_webs(n)
        vec = {
            w: data.draw(st.integers(-3, 3))
            for w in data.draw(st.sets(st.sampled_from(webs), min_size=1, max_size=4))
        }
        vec = {k: v for k, v in vec.items() if v}
        i = data.draw(st.integers(1, 2 * n - 1))
        assert generator_action(i, generator_action(i, vec)) == vec

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            generator_action(4, {consecutive_matching(2): 1})


class TestResolveCrossings:
    def test_noncrossing_is_fixed(self):
        for n in range(1, 6):
            for w in enumerate_webs(n):
                assert resolve_crossings(w) == {w: 1}

    def test_single_crossing(self):
        crossed = Matching.from_pairs([(1, 3), (2, 4)])
        assert resolve_crossings(crossed) == {
            consecutive_matching(2): 1,
            Matching.from_pairs([(1, 4), (2, 3)]): 1,
        }

    def test_full_twist_n3(self):
        # resolving {1~4, 2~5, 3~6} by hand gives every web once: the lex
        # rewrite tree has leaves 12|36|45, 12|34|56, 14|23|56, 16|23|45,
        # 16|25|34, each reached exactly once
        twist = Matching.from_pairs([(1, 4), (2, 5), (3, 6)])
        assert resolve_crossings(twist) == {w: 1 for w in enumerate_webs(3)}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_all_matchings_nonneg_integer_noncrossing(self, n):
        for m in enumerate_perfect_matchings(n):
            out = resolve_crossings(m)
            assert all(k.is_noncrossing for k in out)
            assert all(isinstance(c, int) and c > 0 for c in out.values())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rewrite_order_does_not_matter(self, data):
        n = data.draw(st.integers(2, 5))
        m = data.draw(matchings(n))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        randomized = resolve_crossings(m, pick=rng.choice, memo={})
        assert randomized == resolve_crossings(m)

    def test_fault_signs_change_result(self):
        crossed = Matching.from_pairs([(1, 3), (2, 4)])
        flipped = resolve_crossings(crossed, syzygy_signs=(1, -1))
        assert flipped == {
            consecutive_matching(2): 1,
            Matching.from_pairs([(1, 4), (2, 3)]): -1,
        }


class TestTupleRewrite:
    """The rewrite runs on partner tuples; these pin it to the rewrite on
    ``Matching`` objects it replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_first_crossing_is_smallest_quadruple(self, n):
        for m in enumerate_perfect_matchings(n):
            assert _first_crossing(m.partner) == (crossing_pairs(m) or [None])[0]

    def test_returns_matching_keys(self):
        out = resolve_crossings(Matching.from_pairs([(1, 4), (2, 6), (3, 5)]), memo={})
        assert out and all(isinstance(k, Matching) for k in out)

    def test_result_is_a_copy_of_the_shared_memo(self, monkeypatch):
        monkeypatch.setattr(webs, "_SHARED_MEMO", {})
        crossed = Matching.from_pairs([(1, 4), (2, 5), (3, 6)])
        out = resolve_crossings(crossed)
        snapshot = {
            signs: {k: dict(v) for k, v in table.items()}
            for signs, table in webs._SHARED_MEMO.items()
        }
        out[next(iter(out))] += 5
        out.clear()
        assert webs._SHARED_MEMO == snapshot
        assert resolve_crossings(crossed) == {w: 1 for w in enumerate_webs(3)}

    def test_memo_size_on_fourteen_letters(self):
        # the same rewrite tree as the Matching-keyed loop, which left
        # 1772 keys holding 14873 terms on these twelve matchings
        rng = random.Random(14)
        letters = list(range(1, 15))
        memo: dict = {}
        for _ in range(12):
            rng.shuffle(letters)
            pairs = [sorted(letters[i : i + 2]) for i in range(0, 14, 2)]
            resolve_crossings(Matching.from_pairs(pairs), memo=memo)
        assert all(type(k) is tuple for k in memo)
        assert len(memo) == 1772
        assert sum(map(len, memo.values())) == 14873

    def test_zero_sign_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            resolve_crossings(consecutive_matching(2), syzygy_signs=(1, 0))


class TestActionMatrix:
    def test_n1_sign(self):
        assert action_matrix(1, 1) == [[-1]]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_entries_small_and_involutive(self, n):
        d = catalan(n)
        for i in range(1, 2 * n):
            b = action_matrix(i, n)
            assert {e for row in b for e in row} <= {-1, 0, 1}
            assert mat_mul(b, b) == identity_matrix(d)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_braid_and_commutation(self, n):
        mats = {i: action_matrix(i, n) for i in range(1, 2 * n)}
        for i in range(1, 2 * n - 1):
            a, b = mats[i], mats[i + 1]
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for i in mats:
            for j in mats:
                if abs(i - j) >= 2:
                    assert mat_mul(mats[i], mats[j]) == mat_mul(mats[j], mats[i])


class TestActByPermutation:
    def test_identity(self):
        from tworow.combinat import Permutation

        vec = {consecutive_matching(2): 3}
        assert act_by_permutation(Permutation.identity(4), vec) == vec

    def test_single_generator(self):
        m0 = consecutive_matching(2)
        vec = {m0: 1}
        assert act_by_permutation(adjacent_transposition(4, 1), vec) == generator_action(1, vec)

    @settings(max_examples=30)
    @given(st.data())
    def test_word_independence(self, data):
        # compare the bubble-sort word against an explicitly reversed
        # evaluation of sigma = tau1 * tau2 as tau1 acting after tau2
        n = 3
        sigma = data.draw(permutations(2 * n))
        tau = data.draw(permutations(2 * n))
        vec = {data.draw(st.sampled_from(enumerate_webs(n))): 1}
        combined = act_by_permutation(sigma * tau, vec)
        stepwise = act_by_permutation(sigma, act_by_permutation(tau, vec))
        assert combined == stepwise


def test_web_vector_serialization_round_trip():
    import json

    from tworow.webs import deserialize_web_vector, serialize_web_vector

    vec = resolve_crossings(Matching.from_pairs([(1, 4), (2, 5), (3, 6)]))
    doc = json.loads(json.dumps(serialize_web_vector(vec)))
    assert deserialize_web_vector(doc) == vec


def model_trace(n: int, cycle_type, matrices) -> int:
    sigma = cycle_type_representative(cycle_type, 2 * n)
    d = catalan(n)
    total = identity_matrix(d)
    for i in sigma.reduced_word():
        total = mat_mul(matrices[i], total)
    return sum(total[k][k] for k in range(d))


@pytest.mark.parametrize("n", range(1, 4))
def test_characters_agree_between_models(n):
    # the traces of matched conjugacy-class representatives coincide, as
    # they must for two models of the same irreducible
    a_mats = {i: specht.action_matrix(i, n) for i in range(1, 2 * n)}
    b_mats = {i: action_matrix(i, n) for i in range(1, 2 * n)}
    for cycle_type in partitions(2 * n):
        assert model_trace(n, cycle_type, a_mats) == model_trace(n, cycle_type, b_mats)
