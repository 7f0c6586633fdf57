import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from model import identity_matrix, mat_mul, rank
from tworow.linalg import nullspace

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


def reference_echelon(matrix):
    """Textbook Gauss-Jordan over Fractions: the rank and the nullspace
    basis read from the reduced row echelon form, one vector per free
    column, 1 there and 0 at the other free columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    pivots = []
    for c in range(ncols):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        r = len(pivots)
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for j in range(len(rows)):
            f = rows[j][c]
            if j != r and f:
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -rows[r][f]
        basis.append(x)
    return len(pivots), basis


def primitive(vec):
    """A reference basis vector (1 at its free column) scaled to the
    primitive integer vector, gcd 1, that ``nullspace`` returns."""
    denom = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def free_columns(matrix):
    """The columns in the span of the columns before them, by the
    reference's rank of each leading block of columns."""
    free, before = [], 0
    for c in range(len(matrix[0])):
        upto = reference_echelon([row[: c + 1] for row in matrix])[0]
        if upto == before:
            free.append(c)
        before = upto
    return free


@st.composite
def sparse_matrices(draw, max_dim=8):
    """Integer matrices of mostly zeros, with all-zero rows and repeats
    of earlier rows."""
    nrows, ncols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(small_entries) if draw(st.integers(0, 2)) == 0 else 0
                         for _ in range(ncols)])
    return rows


class TestAgainstReference:
    @settings(max_examples=200)
    @given(sparse_matrices())
    def test_sparse(self, matrix):
        ref_rank, ref_basis = reference_echelon(matrix)
        assert rank(matrix) == ref_rank
        basis = nullspace(matrix)
        assert basis == [primitive(vec) for vec in ref_basis]
        assert all(type(x) is int for vec in basis for x in vec)


@st.composite
def negative_lead_matrices(draw):
    """Sparse integer matrices with the first nonzero of some rows made
    negative, so that pivot rows led by a negative entry reduce the rows
    after them."""
    matrix = draw(sparse_matrices())
    flips = draw(st.lists(st.booleans(), min_size=len(matrix), max_size=len(matrix)))
    for row, flip in zip(matrix, flips):
        lead = next((x for x in row if x), 0)
        if flip and lead > 0:
            row[:] = [-x for x in row]
    return matrix


class TestIntegerKernel:
    @settings(max_examples=200)
    @given(negative_lead_matrices())
    @example([[-1, 2, 0], [-2, 1, 1]])
    @example([[-1, 2], [-3, 6]])
    @example([[-2, 3, 0], [-3, 0, 5]])
    def test_primitive_integer_vectors(self, matrix):
        basis = nullspace(matrix)
        free = free_columns(matrix)
        assert len(basis) == len(free)
        for f, vec in zip(free, basis):
            assert all(type(x) is int for x in vec)
            assert math.gcd(*vec) == 1
            assert vec[f] > 0
            assert all(vec[g] == 0 for g in free if g != f)
            assert mat_vec(matrix, vec) == [0] * len(matrix)


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

    @pytest.mark.parametrize(
        "matrix",
        [
            [[Fraction(1, 2), 1]],
            [[1, 0.5]],
            [[2.0, 1]],
            # an integer value too, and rows that reduce to zero
            [[1, 1], [1, Fraction(1)]],
            [[2, 1], [1, Fraction(1, 2)]],
        ],
        ids=["fraction", "float", "integral-float", "integral-fraction", "cancelled-fraction"],
    )
    def test_non_integer_entries_rejected(self, matrix):
        with pytest.raises(TypeError):
            nullspace(matrix)

    @pytest.mark.parametrize("matrix", [[[1], [1, 2]], [[1, 2], [1]]], ids=["longer", "shorter"])
    def test_ragged_rows_rejected(self, matrix):
        with pytest.raises(ValueError, match="different lengths"):
            nullspace(matrix)
        with pytest.raises(ValueError, match="different lengths"):
            rank(matrix)

    @settings(max_examples=60)
    @given(small_matrices())
    def test_rank_nullity(self, matrix):
        cols = len(matrix[0])
        basis = nullspace(matrix)
        ref_rank, ref_basis = reference_echelon(matrix)
        assert (rank(matrix), basis) == (ref_rank, [primitive(vec) for vec in ref_basis])
        assert rank(matrix) + len(basis) == cols
        for vec in basis:
            assert mat_vec(matrix, vec) == [0] * len(matrix)
        # basis vectors are independent: each has a free column where it
        # is positive and the others are 0, but check the rank anyway
        if basis:
            assert rank(basis) == len(basis)


class TestExactArithmetic:
    @pytest.mark.parametrize(
        "a, b", [([[1, 2], [1]], [[1], [1]]), ([[1, 2]], [[1, 5], [1]])], ids=["left", "right"]
    )
    def test_mat_mul_ragged_rows_rejected(self, a, b):
        with pytest.raises(ValueError, match="different lengths"):
            mat_mul(a, b)

    @settings(max_examples=60)
    @given(small_matrices(4), small_matrices(4))
    def test_mat_mul_shapes_guarded(self, a, b):
        if len(a[0]) != len(b):
            with pytest.raises(ValueError):
                mat_mul(a, b)
        else:
            prod = mat_mul(a, b)
            assert len(prod) == len(a) and len(prod[0]) == len(b[0])
