from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import (
    Permutation,
    act_on_tabloid,
    act_on_tabloid_vector,
    adjacent_transposition,
    identity_matrix,
    identity_permutation,
    inverse,
    mat_mul,
    pair_vector_by_products,
    tabloid_of,
)
from strategies import permutations
from tworow.combinat import Tableau, catalan, enumerate_syt, interleaved_tableau
from tworow.specht import (
    action_matrix,
    coordinates,
    express_in_standard_polytabloids,
    is_unitriangular,
    pair_vector,
    polytabloid,
    triangular_basis,
)


def random_tableaux(n: int):
    """Arbitrary (possibly non-standard) fillings of the 2 x n rectangle."""
    return st.permutations(tuple(range(1, 2 * n + 1))).map(
        lambda letters: Tableau((tuple(letters[:n]), tuple(letters[n:])))
    )


class TestTabloid:
    def test_first_row_set(self):
        assert tabloid_of(interleaved_tableau(2)) == (1, 3)
        assert tabloid_of(Tableau(((1, 2), (3, 4)))) == (1, 2)

    def test_row_permutation_invariant(self):
        assert tabloid_of(Tableau(((3, 1), (4, 2)))) == tabloid_of(
            Tableau(((1, 3), (2, 4)))
        )

    def test_action(self):
        s1 = adjacent_transposition(4, 1)
        s3 = adjacent_transposition(4, 3)
        assert act_on_tabloid(s1, (1, 3)) == (2, 3)
        assert act_on_tabloid(s3, (1, 3)) == (1, 4)
        assert act_on_tabloid(identity_permutation(4), (1, 3)) == (1, 3)


class TestPolytabloid:
    def test_n1(self):
        assert polytabloid(Tableau(((1,), (2,)))) == {(1,): 1, (2,): -1}

    def test_n2_interleaved(self):
        assert polytabloid(interleaved_tableau(2)) == {
            (1, 3): 1,
            (2, 3): -1,
            (1, 4): -1,
            (2, 4): 1,
        }

    @pytest.mark.parametrize("n", range(1, 6))
    def test_support_and_signs(self, n):
        for t in enumerate_syt(n):
            vec = polytabloid(t)
            assert len(vec) == 2**n
            assert set(vec.values()) <= {1, -1}

    @settings(max_examples=40)
    @given(st.data())
    def test_action_commutes_with_construction(self, data):
        # acting on the polytabloid equals the polytabloid of the moved tableau
        t = data.draw(random_tableaux(3))
        sigma = data.draw(permutations(6))
        moved_tableau = Tableau(tuple(tuple(sigma(x) for x in row) for row in t.rows))
        assert act_on_tabloid_vector(sigma, polytabloid(t)) == polytabloid(moved_tableau)

    def test_vector_action_roundtrip(self):
        t = interleaved_tableau(3)
        sigma = Permutation((3, 1, 5, 2, 6, 4))
        vec = polytabloid(t)
        there = act_on_tabloid_vector(sigma, vec)
        back = act_on_tabloid_vector(inverse(sigma), there)
        assert back == vec


class TestExpress:
    def test_standard_is_indicator(self):
        for n in (1, 2, 3):
            for k, t in enumerate(enumerate_syt(n)):
                coords = express_in_standard_polytabloids(polytabloid(t), n)
                assert coords == [int(j == k) for j in range(catalan(n))]

    def test_nonstandard_tableau(self):
        # swapping the first column of the interleaved tableau negates it
        vec = polytabloid(Tableau(((2, 3), (1, 4))))
        assert express_in_standard_polytabloids(vec, 2) == [-1, 0]

    def test_column_pair_swap_negates(self):
        t0 = interleaved_tableau(2)
        vec = act_on_tabloid_vector(adjacent_transposition(4, 1), polytabloid(t0))
        assert express_in_standard_polytabloids(vec, 2) == [-1, 0]

    def test_outside_span_raises(self):
        with pytest.raises(ValueError):
            express_in_standard_polytabloids({(1,): 1}, 1)

    def test_expansion_reproduces_vector(self):
        # check the defining property on a straightened expansion
        n = 3
        t = Tableau(((2, 4, 6), (1, 3, 5)))
        vec = polytabloid(t)
        coords = express_in_standard_polytabloids(vec, n)
        rebuilt: dict = {}
        for c, basis_t in zip(coords, enumerate_syt(n)):
            if not c:
                continue
            for tab, v in polytabloid(basis_t).items():
                new = rebuilt.get(tab, 0) + c * v
                if new:
                    rebuilt[tab] = new
                else:
                    rebuilt.pop(tab, None)
        assert rebuilt == {k: Fraction(v) for k, v in vec.items()}


    @settings(max_examples=40)
    @given(st.data())
    def test_recovers_integer_combination(self, data):
        n = data.draw(st.integers(1, 4))
        d = catalan(n)
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        vec: dict = {}
        for c, t in zip(coeffs, enumerate_syt(n)):
            for tab, v in polytabloid(t).items():
                vec[tab] = vec.get(tab, 0) + c * v
        assert express_in_standard_polytabloids(vec, n) == coeffs


class TestBasis:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_standard_polytabloids_independent(self, n):
        # unitriangular over the tabloids, the lead of T being its first row
        vectors = [polytabloid(t) for t in enumerate_syt(n)]
        assert is_unitriangular(vectors)
        assert [lead for lead, _, _ in triangular_basis(vectors)] == sorted(
            tabloid_of(t) for t in enumerate_syt(n)
        )

    def test_dependent_vectors_raise(self):
        vec = polytabloid(interleaved_tableau(2))
        with pytest.raises(RuntimeError, match="not unitriangular"):
            triangular_basis([vec, {tab: -c for tab, c in vec.items()}])
        with pytest.raises(RuntimeError, match="not unitriangular"):
            triangular_basis([vec, vec])

    def test_lead_coefficient_two_raises(self):
        vec = polytabloid(interleaved_tableau(2))
        assert not is_unitriangular([{tab: 2 * c for tab, c in vec.items()}])
        with pytest.raises(RuntimeError, match="not unitriangular"):
            triangular_basis([{tab: 2 * c for tab, c in vec.items()}])

    def test_undominated_tabloid_raises(self):
        # (2, 3, 6) comes after (1, 4, 5) lexicographically, but 3 < 4:
        # the lead does not dominate it
        assert not is_unitriangular([{(1, 4, 5): 1, (2, 3, 6): -1}])
        with pytest.raises(RuntimeError, match="not unitriangular"):
            triangular_basis([{(1, 4, 5): 1, (2, 3, 6): -1}])
        assert is_unitriangular([{(1, 4, 5): 1, (2, 4, 6): -1}])

    def test_peel_reads_leads_most_dominant_first(self):
        # the first vector's lead (1, 3) is also a tabloid of the second,
        # so reading it before peeling the second (lead (1, 2)) gives a
        # wrong coordinate and leaves a residual
        basis = triangular_basis([{(1, 3): 1, (2, 4): 1}, {(1, 2): 1, (1, 3): 1}])
        assert coordinates(basis, {(1, 2): 1, (1, 3): 3, (2, 4): 2}, 2) == [2, 1]

    def test_foreign_tabloid_raises(self):
        with pytest.raises(ValueError, match="not a tabloid"):
            express_in_standard_polytabloids({(1, 2): 1}, 1)


class TestPairVector:
    def test_polytabloid_is_pair_vector_of_columns(self):
        for t in enumerate_syt(4):
            assert polytabloid(t) == pair_vector(t.columns())

    def test_rejects_overlapping_pairs(self):
        for build in (pair_vector, pair_vector_by_products):
            with pytest.raises(ValueError, match="disjoint"):
                build([(1, 2), (2, 3)])
            with pytest.raises(ValueError, match="disjoint"):
                build([(2, 2)])

    def test_no_pairs_is_the_empty_tabloid(self):
        assert pair_vector([]) == pair_vector_by_products([]) == {(): 1}

    @settings(max_examples=200)
    @given(st.integers(0, 6).flatmap(lambda k: st.permutations(range(1, 2 * k + 1))))
    def test_matches_the_product_over_choices(self, letters):
        # disjoint pairs on 1..2k, in a random order and orientation: the
        # sign follows each pair's order, as in the swapped columns of
        # action_matrix, even when its second letter is the smaller
        pairs = list(zip(letters[0::2], letters[1::2]))
        vec = pair_vector(pairs)
        assert vec == pair_vector_by_products(pairs)
        assert list(vec) == sorted(vec)


class TestActionMatrix:
    def test_n1_sign(self):
        assert action_matrix(1, 1) == [[-1]]

    @pytest.mark.parametrize("n", range(1, 4))
    def test_rejects_bad_index(self, n):
        # an index that is not an int is out of range too, even True or 1.0
        for i in (0, 2 * n, 1.5, 1.0, True):
            with pytest.raises(ValueError, match="out of range"):
                action_matrix(i, n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_involution(self, n):
        d = catalan(n)
        for i in range(1, 2 * n):
            a = action_matrix(i, n)
            assert mat_mul(a, a) == identity_matrix(d)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_braid(self, n):
        for i in range(1, 2 * n - 1):
            a, b = action_matrix(i, n), action_matrix(i + 1, n)
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_tabloid_action(self, n):
        # the letter swap must agree with the general action of the model
        tableaux = enumerate_syt(n)
        for i in range(1, 2 * n):
            a = action_matrix(i, n)
            sigma = adjacent_transposition(2 * n, i)
            for col, t in enumerate(tableaux):
                moved = act_on_tabloid_vector(sigma, polytabloid(t))
                rebuilt: dict = {}
                for row, basis_t in enumerate(tableaux):
                    c = a[row][col]
                    if not c:
                        continue
                    for tab, v in polytabloid(basis_t).items():
                        new = rebuilt.get(tab, 0) + c * v
                        if new:
                            rebuilt[tab] = new
                        else:
                            rebuilt.pop(tab, None)
                assert rebuilt == moved
