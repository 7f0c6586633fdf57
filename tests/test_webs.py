import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import (
    adjacent_transposition,
    compose,
    cycle_type_representative,
    enumerate_perfect_matchings,
    first_crossing,
    identity_matrix,
    identity_permutation,
    mat_mul,
    partitions,
    partner_of,
    reduced_word,
    web_action_matrix,
)
from strategies import matchings, permutations
from tworow.combinat import (
    Matching,
    catalan,
    consecutive_matching,
    crossing_pairs,
    enumerate_syt,
    enumerate_webs,
)
from tworow import webs
from tworow.webs import action_table, resolve_crossings
from tworow import specht


def column(vec, n):
    """A web combination as a coordinate column in the web basis."""
    return [[vec.get(w, 0)] for w in enumerate_webs(n)]


class TestGeneratorAction:
    """s_i on the web basis as ``action_table`` codes it."""

    def test_paired_letters_negate(self):
        for i in (1, 3, 5):
            assert action_table(i, 3)[0] == -1  # s_i . w_0 = -w_0

    def test_unpaired_letters_add_uncrossing(self):
        nested = Matching.from_pairs([(1, 4), (2, 3)])
        # s_2 . w_0 = w_0 + w_nested
        assert enumerate_webs(2)[action_table(2, 2)[0]] == nested

    @settings(max_examples=40)
    @given(st.data())
    def test_involution(self, data):
        n = data.draw(st.integers(1, 5))
        vec = {
            w: data.draw(st.integers(-3, 3))
            for w in data.draw(st.sets(st.sampled_from(enumerate_webs(n)), min_size=1, max_size=4))
        }
        i = data.draw(st.integers(1, 2 * n - 1))
        b = web_action_matrix(i, n)
        assert mat_mul(b, mat_mul(b, column(vec, n))) == column(vec, n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_is_the_action_in_letters(self, n):
        # every entry against s_i read in letter language, past the n <= 4
        # of the polynomial model's check: -1 when i ~ i+1, else the web
        # with a ~ b and i ~ i+1 in place of a ~ i and b ~ i+1
        web_list = enumerate_webs(n)
        for i in range(1, 2 * n):
            for w, target in zip(web_list, action_table(i, n)):
                a, b = partner_of(w, i), partner_of(w, i + 1)
                if a == i + 1:
                    assert target == -1
                    continue
                kept = [p for p in w.pairs() if not {i, i + 1} & set(p)]
                image = Matching.from_pairs(kept + [(a, b), (i, i + 1)])
                assert web_list[target] == image

    def test_rejects_bad_index(self):
        # an index that is not an int is out of range too, even True or 1.0
        for i in (0, 4, 1.5, 1.0, True):
            with pytest.raises(ValueError, match="out of range"):
                action_table(i, 2)


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
        lexicographic = {k.partner: c for k, c in resolve_crossings(m).items()}
        chosen = []

        def random_crossing(quads):
            # rewrite a random crossing at each step in place of the smallest
            chosen.append(rng.choice(quads))
            return chosen[-1]

        randomized = reference_expand(m.partner, {}, 1, random_crossing)
        assert randomized == lexicographic
        assert bool(chosen) == bool(crossing_pairs(m))

    def test_fault_signs_change_result(self):
        # the syzygy-sign-flip fault: sign -1 negates the second reconnection
        crossed = Matching.from_pairs([(1, 3), (2, 4)])
        flipped = webs._expand(crossed.partner, {}, -1)
        assert flipped == {
            consecutive_matching(2).partner: 1,
            Matching.from_pairs([(1, 4), (2, 3)]).partner: -1,
        }


def reference_expand(p, memo, sign, choose=lambda quads: quads[0]):
    """A reference for ``webs._expand``: the crossing ``choose`` picks
    from ``crossing_pairs``, by default the smallest, and a merge that
    walks every key of the second expansion, with no start hint."""
    known = memo.get(p)
    if known is not None:
        return known
    quads = crossing_pairs(Matching(p))
    if not quads:
        out = {p: 1}
    else:
        a, b, c, d = choose(quads)
        first, second = list(p), list(p)
        first[a - 1], first[b - 1], first[c - 1], first[d - 1] = b, a, d, c
        second[a - 1], second[b - 1], second[c - 1], second[d - 1] = d, c, b, a
        out = dict(reference_expand(tuple(first), memo, sign, choose))
        for key, coeff in reference_expand(tuple(second), memo, sign, choose).items():
            total = out.get(key, 0) + sign * coeff
            if total:
                out[key] = total
            else:
                del out[key]
    memo[p] = out
    return out


def reference_dag(p, dag):
    """A reference for the memo ``webs._expand`` fills: each node below p,
    put in ``dag`` after its children, maps to the two reconnections of
    its smallest crossing from ``crossing_pairs``, or to () when it has
    none."""
    quads = crossing_pairs(Matching(p))
    if not quads:
        dag[p] = ()
        return
    a, b, c, d = quads[0]
    first, second = list(p), list(p)
    first[a - 1], first[b - 1], first[c - 1], first[d - 1] = b, a, d, c
    second[a - 1], second[b - 1], second[c - 1], second[d - 1] = d, c, b, a
    for child in (tuple(first), tuple(second)):
        if child not in dag:
            reference_dag(child, dag)
    dag[p] = (tuple(first), tuple(second))


def random_matching(rng, n):
    letters = list(range(1, 2 * n + 1))
    rng.shuffle(letters)
    return Matching.from_pairs(sorted(letters[i : i + 2]) for i in range(0, 2 * n, 2))


class TestTupleRewrite:
    """The rewrite runs on bare partner arrays, bytes or tuples; these pin
    it to the rewrite on ``Matching`` objects it replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_first_crossing_is_smallest_quadruple(self, n):
        for m in enumerate_perfect_matchings(n):
            assert first_crossing(m.partner) == (crossing_pairs(m) or [None])[0]

    def test_no_child_crossing_starts_before_its_parents(self):
        # the lemma behind the start hint: rewriting the smallest crossing
        # (a, b, c, d) leaves no crossing that starts below a
        children = 0
        for n in range(2, 7):
            for m in enumerate_perfect_matchings(n):
                quad = first_crossing(m.partner)
                if quad is None:
                    continue
                a, b, c, d = quad
                for child in (
                    webs._reconnect(m.partner, a, b, c, d),
                    webs._reconnect(m.partner, a, d, b, c),
                ):
                    children += 1
                    smallest = (crossing_pairs(Matching(child)) or [None])[0]
                    assert smallest is None or smallest[0] >= quad[0]
                    assert first_crossing(child, quad[0]) == smallest
        assert children == 22536

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6).flatmap(matchings), st.booleans())
    def test_same_memo_and_order_as_the_reference(self, m, sign_flip):
        # the memo is the reference DAG, node for node and in its order,
        # whatever the sign; the result is the reference merge's, in its
        # order for +1.  The flipped sign is the syzygy-sign-flip fault,
        # which only the private `_expand` takes; there the merge deleted
        # and re-added cancelled keys, so only the dicts compare.  The memo
        # is keyed by bytes, the reference DAG by tuples
        memo, dag = {}, {}
        if sign_flip:
            out = webs._expand(m.partner, memo, -1)
        else:
            out = {k.partner: c for k, c in resolve_crossings(m, memo=memo).items()}
        reference_dag(m.partner, dag)
        expected = reference_expand(m.partner, {}, -1 if sign_flip else 1)
        as_tuples = [(tuple(k), tuple(map(tuple, kids))) for k, kids in memo.items()]
        assert all(type(k) is bytes for k in memo)
        assert as_tuples == list(dag.items())
        if sign_flip:
            assert out == expected
        else:
            assert list(out.items()) == list(expected.items())

    def test_flipped_sign_cancels_like_the_reference(self):
        # under sign_flip the paths to two of the 14 webs of the full twist
        # on 8 letters cancel, and six of the other counts are -1; the
        # counts must be the reference merge's
        twist = Matching.from_pairs([(i, i + 4) for i in range(1, 5)])
        flipped = webs._expand(twist.partner, {}, -1)
        assert flipped == reference_expand(twist.partner, {}, -1)
        assert sorted(flipped.values()) == [-1] * 6 + [1] * 6

    def test_result_leaves_the_memo_unchanged(self):
        crossed = Matching.from_pairs([(1, 4), (2, 5), (3, 6)])
        memo: dict = {}
        out = resolve_crossings(crossed, memo=memo)
        snapshot = dict(memo)
        out[next(iter(out))] += 5
        out.clear()
        assert memo == snapshot
        # a second call finds the root in the memo and only counts its paths
        assert resolve_crossings(crossed, memo=memo) == {w: 1 for w in enumerate_webs(3)}
        assert memo == snapshot

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10**6), st.booleans())
    def test_shared_memo_gives_the_fresh_result(self, n, seed, sign_flip):
        # a memo that other matchings filled first, some of them below m,
        # gives the fresh memo's counts, for both signs; their order
        # follows the memo's, which is not promised
        rng = random.Random(seed)
        sign = -1 if sign_flip else 1
        m = random_matching(rng, n)
        shared: dict = {}
        for _ in range(3):
            webs._expand(random_matching(rng, n).partner, shared, sign)
        fresh = webs._expand(m.partner, {}, sign)
        assert webs._expand(m.partner, shared, sign) == fresh
        # now m is in the memo: the second call only counts its paths
        assert webs._expand(m.partner, shared, sign) == fresh

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_shared_memo_lists_each_node_after_its_children(self, n, seed):
        # the order ``_expand`` counts in: every root's growth puts each
        # new node after both its children, so the whole memo keeps it
        rng = random.Random(seed)
        memo: dict = {}
        for _ in range(4):
            webs._expand(random_matching(rng, n).partner, memo, 1)
        position = {q: k for k, q in enumerate(memo)}
        assert all(position[kid] < position[q] for q, kids in memo.items() for kid in kids)

    def test_memo_size_on_fourteen_letters(self):
        # the same rewrite tree as the Matching-keyed loop, which left
        # 1772 keys; each crossing node holds its two edges
        rng = random.Random(14)
        letters = list(range(1, 15))
        memo: dict = {}
        for _ in range(12):
            rng.shuffle(letters)
            pairs = [sorted(letters[i : i + 2]) for i in range(0, 14, 2)]
            resolve_crossings(Matching.from_pairs(pairs), memo=memo)
        assert all(type(k) is bytes for k in memo)
        assert len(memo) == 1772
        assert sum(map(len, memo.values())) == 2712

    def test_tuple_keys_past_255_letters(self):
        # a letter above 255 fits no byte, so on 258 letters the memo keeps
        # tuple keys; one crossing beside 127 untouched chords gives two webs
        rest = [(2 * k + 1, 2 * k + 2) for k in range(2, 129)]
        memo: dict = {}
        out = resolve_crossings(Matching.from_pairs([(1, 3), (2, 4), *rest]), memo=memo)
        assert list(out.items()) == [
            (Matching.from_pairs([(1, 2), (3, 4), *rest]), 1),
            (Matching.from_pairs([(1, 4), (2, 3), *rest]), 1),
        ]
        assert len(memo) == 3 and all(type(k) is tuple and len(k) == 258 for k in memo)

    def test_twist_on_eighteen_letters_stays_small(self):
        # the memo holds edges, not expansions, keyed by bytes: resolving the
        # full twist on 18 letters (4,862 webs) peaks at about 6 MB of Python
        # objects, against 10 MB with tuple keys and 25 MB when each node
        # stored its whole expansion
        twist = Matching.from_pairs([(i, i + 9) for i in range(1, 10)])
        gc.collect()
        tracemalloc.start()
        try:
            out = resolve_crossings(twist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == catalan(9)
        assert peak < 8 * 2**20

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6).flatmap(matchings), st.booleans())
    def test_returned_keys_pass_the_public_check(self, m, sign_flip):
        # the keys are built without Matching's check; the public
        # constructor raises ValueError on any that is not a matching
        if sign_flip:
            partners = list(webs._expand(m.partner, {}, -1))
        else:
            partners = [key.partner for key in resolve_crossings(m)]
        for partner in partners:
            rebuilt = Matching(partner)
            assert rebuilt.partner == partner and rebuilt.is_noncrossing

    def test_returns_matching_keys(self):
        out = resolve_crossings(Matching.from_pairs([(1, 4), (2, 6), (3, 5)]), memo={})
        assert out and all(isinstance(k, Matching) for k in out)

    def test_memo_freed_without_cycle_collector(self):
        # the rewrite holds no reference cycle, so each call's memo is
        # freed by reference counting alone; a self-calling closure would
        # keep every memo until the cycle collector ran
        twist = Matching.from_pairs([(i, i + 7) for i in range(1, 8)])
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            resolve_crossings(twist)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                resolve_crossings(twist)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 64 * 1024


class TestActionMatrix:
    def test_n1_sign(self):
        assert web_action_matrix(1, 1) == [[-1]]

    def test_image_missing_from_the_webs_raises(self, monkeypatch):
        # s_1 takes 1~4, 2~3 to the consecutive web, dropped here from the
        # index that every table reads the webs from
        index_without_first = {w.partner: k for k, w in enumerate(enumerate_webs(2)[1:])}
        monkeypatch.setattr(webs, "_web_index", lambda n: index_without_first)
        with pytest.raises(RuntimeError, match="to a crossing matching"):
            action_table(1, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_entries_small_and_involutive(self, n):
        d = catalan(n)
        for i in range(1, 2 * n):
            b = web_action_matrix(i, n)
            assert {e for row in b for e in row} <= {-1, 0, 1}
            assert mat_mul(b, b) == identity_matrix(d)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_braid_and_commutation(self, n):
        mats = {i: web_action_matrix(i, n) for i in range(1, 2 * n)}
        for i in range(1, 2 * n - 1):
            a, b = mats[i], mats[i + 1]
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for i in mats:
            for j in mats:
                if abs(i - j) >= 2:
                    assert mat_mul(mats[i], mats[j]) == mat_mul(mats[j], mats[i])


def act_by_permutation(sigma, vec, n):
    """Act with sigma on a coordinate column letter by letter along its
    bubble-sort word."""
    for i in reduced_word(sigma):
        vec = mat_mul(web_action_matrix(i, n), vec)
    return vec


class TestActByPermutation:
    """The generator action extends to a well-defined action of the whole
    symmetric group: the result does not depend on the word."""

    def test_identity(self):
        vec = column({consecutive_matching(2): 3}, 2)
        assert act_by_permutation(identity_permutation(4), vec, 2) == vec

    def test_single_generator(self):
        vec = column({consecutive_matching(2): 1}, 2)
        assert act_by_permutation(adjacent_transposition(4, 1), vec, 2) == [[-1], [0]]

    @settings(max_examples=30)
    @given(st.data())
    def test_word_independence(self, data):
        # compare the bubble-sort word against an explicitly reversed
        # evaluation of sigma = tau1 * tau2 as tau1 acting after tau2
        n = 3
        sigma = data.draw(permutations(2 * n))
        tau = data.draw(permutations(2 * n))
        vec = column({data.draw(st.sampled_from(enumerate_webs(n))): 1}, n)
        combined = act_by_permutation(compose(sigma, tau), vec, n)
        stepwise = act_by_permutation(sigma, act_by_permutation(tau, vec, n), n)
        assert combined == stepwise


def model_trace(n: int, cycle_type, matrices) -> int:
    sigma = cycle_type_representative(cycle_type, 2 * n)
    d = catalan(n)
    total = identity_matrix(d)
    for i in reduced_word(sigma):
        total = mat_mul(matrices[i], total)
    return sum(total[k][k] for k in range(d))


@pytest.mark.parametrize("n", range(1, 4))
def test_characters_agree_between_models(n):
    # the traces of matched conjugacy-class representatives coincide, as
    # they must for two models of the same irreducible
    a_mats = {i: specht.action_matrix(i, n) for i in range(1, 2 * n)}
    b_mats = {i: web_action_matrix(i, n) for i in range(1, 2 * n)}
    for cycle_type in partitions(2 * n):
        assert model_trace(n, cycle_type, a_mats) == model_trace(n, cycle_type, b_mats)
