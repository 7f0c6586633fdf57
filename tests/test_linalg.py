from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworow.linalg import identity_matrix, mat_mul, nullspace, rank

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
