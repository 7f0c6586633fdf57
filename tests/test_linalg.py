from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworow.linalg import Echelon, identity_matrix, mat_mul, nullspace, rank, solve

small_entries = st.integers(-9, 9)


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def small_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestRank:
    def test_identity(self):
        assert rank(identity_matrix(5)) == 5

    def test_zero(self):
        assert rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_minor_product_coefficients(self):
        # monomial coefficient vectors of the two minor products
        # D(1,2)D(3,4) and D(1,4)D(2,3): expanding by hand over the six
        # balanced row assignments {13,14,23,24,12,34} of which columns
        # take row 1 gives these two columns
        matrix = [
            [1, -1],
            [-1, 0],
            [-1, 0],
            [1, -1],
            [0, 1],
            [0, 1],
        ]
        assert rank(matrix) == 2

    def test_fraction_entries(self):
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]) == 2
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]) == 1


class TestSolve:
    def test_identity_returns_rhs(self):
        sol, unique = solve(identity_matrix(3), [4, -1, 7])
        assert sol == [4, -1, 7]
        assert unique

    def test_inconsistent_two_by_one(self):
        assert solve([[1], [1]], [1, 2]) is None

    def test_underdetermined_flag(self):
        res = solve([[1, 1]], [3])
        assert res is not None
        sol, unique = res
        assert not unique
        assert sum(sol) == 3

    def test_recovers_known_vector(self):
        import random

        rng = random.Random(7)
        while True:
            a = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(8)]
            if rank(a) == 8:
                break
        x = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(8)]
        b = mat_vec(a, x)
        sol, unique = solve(a, b)
        assert unique
        assert sol == x

    @settings(max_examples=60)
    @given(small_matrices(), st.data())
    def test_solution_satisfies_system(self, matrix, data):
        rhs = data.draw(
            st.lists(small_entries, min_size=len(matrix), max_size=len(matrix))
        )
        res = solve(matrix, rhs)
        if res is not None:
            sol, _ = res
            assert mat_vec(matrix, sol) == rhs


class TestNullspace:
    def test_zero_matrix(self):
        basis = nullspace([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert len(basis) == 3

    def test_identity(self):
        assert nullspace(identity_matrix(4)) == []

    def test_simple_relation(self):
        basis = nullspace([[1, 1]])
        assert len(basis) == 1
        assert basis[0][0] + basis[0][1] == 0

    @settings(max_examples=60)
    @given(small_matrices())
    def test_rank_nullity(self, matrix):
        cols = len(matrix[0])
        basis = nullspace(matrix)
        assert rank(matrix) + len(basis) == cols
        for vec in basis:
            assert mat_vec(matrix, vec) == [0] * len(matrix)
        # basis vectors are independent: each has a free column where it
        # is 1 and the others are 0, but check the rank anyway
        if basis:
            assert rank(basis) == len(basis)


class TestEchelon:
    def test_reusable_solves(self):
        a = [[2, 1], [1, 3], [3, 4]]
        ech = Echelon(a)
        for rhs in ([3, 4, 7], [5, 5, 10], [1, 0, 0]):
            direct = solve(a, rhs)
            via_echelon = ech.solve(rhs)
            if direct is None:
                assert via_echelon is None
            else:
                assert via_echelon == direct[0]

    def test_rank_exposed(self):
        assert Echelon([[1, 2], [2, 4]]).rank == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Echelon([[1, 2]]).solve([1, 2, 3])


class TestExactArithmetic:
    @settings(max_examples=100)
    @given(
        st.integers(-50, 50),
        st.integers(1, 50),
        st.integers(-50, 50),
        st.integers(1, 50),
    )
    def test_fraction_addition_cross_multiplies(self, a, b, c, d):
        left = Fraction(a, b) + Fraction(c, d)
        assert left == Fraction(a * d + c * b, b * d)
        assert left.denominator > 0
        from math import gcd

        assert gcd(abs(left.numerator), left.denominator) == 1

    @settings(max_examples=60)
    @given(small_matrices(4), small_matrices(4))
    def test_mat_mul_shapes_guarded(self, a, b):
        if len(a[0]) != len(b):
            with pytest.raises(ValueError):
                mat_mul(a, b)
        else:
            prod = mat_mul(a, b)
            assert len(prod) == len(a) and len(prod[0]) == len(b[0])
