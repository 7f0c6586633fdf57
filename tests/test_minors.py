import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import (
    act_on_tabloid_vector,
    adjacent_transposition,
    column_action_matches_web_action,
    enumerate_perfect_matchings,
    expand_in_web_basis,
    identity_permutation,
    polynomial_terms,
    sign_rule_holds,
    syzygy_holds,
    tabloid_of,
    web_polynomials_independent,
)
from strategies import matchings, permutations
from tworow.combinat import (
    Matching,
    consecutive_matching,
    enumerate_syt,
    enumerate_webs,
)
from tworow.minors import serialize_polynomial, web_vector
from tworow.specht import pair_vector
from tworow.webs import resolve_crossings


def combine(*terms):
    """The sum of c * vec over the (c, vec) terms, zero coefficients dropped."""
    out: dict = {}
    for c, vec in terms:
        for tab, v in vec.items():
            out[tab] = out.get(tab, 0) + c * v
    return {tab: v for tab, v in out.items() if v}


class TestMinor:
    def test_formula(self):
        # D(1, 2) = x[1,1] x[2,2] - x[1,2] x[2,1]; the tabloid is the
        # row-1 column
        assert pair_vector([(1, 2)]) == {(1,): 1, (2,): -1}

    def test_terms_and_degree(self):
        d = pair_vector([(3, 7)])
        assert len(d) == 2
        # one row-1 column per term, so degree 2 with its row-2 column
        assert all(len(tab) == 1 for tab in d)

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            pair_vector([(2, 2)])
        with pytest.raises(ValueError):
            pair_vector([(1, 3), (3, 4)])
        # D(3, 1) = -D(1, 3)
        assert pair_vector([(3, 1)]) == combine((-1, pair_vector([(1, 3)])))


class TestMinorProduct:
    def test_single_pair(self):
        assert web_vector(consecutive_matching(1)) == pair_vector([(1, 2)])

    def test_two_pairs_expansion(self):
        # (x11 x22 - x12 x21)(x13 x24 - x14 x23)
        p = web_vector(consecutive_matching(2))
        assert p == {(1, 3): 1, (1, 4): -1, (2, 3): -1, (2, 4): 1}

    @settings(max_examples=30)
    @given(st.data())
    def test_term_count_is_power_of_two(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(matchings(n))
        p = web_vector(m)
        assert len(p) == 2**n
        # multilinear: n columns in row 1, the other n in row 2
        assert all(len(tab) == n == len(set(tab)) for tab in p)
        assert set(p.values()) <= {1, -1}


class TestSyzygy:
    def test_basic_quadruple(self):
        assert syzygy_holds(1, 2, 3, 4)

    def test_all_quadruples_n4(self):
        for quad in itertools.combinations(range(1, 9), 4):
            assert syzygy_holds(*quad)

    def test_sign_flip_breaks_it(self):
        a, b, c, d = 1, 2, 3, 4
        wrong = combine((1, pair_vector([(a, b), (c, d)])), (-1, pair_vector([(a, d), (b, c)])))
        assert pair_vector([(a, c), (b, d)]) != wrong

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            syzygy_holds(2, 1, 3, 4)


class TestColumnPermute:
    def test_identity(self):
        p = web_vector(consecutive_matching(2))
        assert act_on_tabloid_vector(identity_permutation(4), p) == p

    def test_s1_negates_first_minor(self):
        s1 = adjacent_transposition(4, 1)
        d12 = pair_vector([(1, 2)])
        assert act_on_tabloid_vector(s1, d12) == combine((-1, d12))

    @settings(max_examples=30)
    @given(st.data())
    def test_degree_preserved(self, data):
        n = data.draw(st.integers(1, 4))
        p = web_vector(data.draw(matchings(n)))
        moved = act_on_tabloid_vector(data.draw(permutations(2 * n)), p)
        assert len(moved) == len(p)
        assert all(len(tab) == n for tab in moved)


class TestSignRule:
    def test_identity(self):
        for m in enumerate_webs(2):
            assert sign_rule_holds(identity_permutation(4), m)

    def test_s1_on_consecutive(self):
        s1 = adjacent_transposition(4, 1)
        m0 = consecutive_matching(2)
        assert sign_rule_holds(s1, m0)
        # and the sign really is -1 there
        assert act_on_tabloid_vector(s1, web_vector(m0)) == combine((-1, web_vector(m0)))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_exhaustive_generators(self, n):
        for i in range(1, 2 * n):
            sigma = adjacent_transposition(2 * n, i)
            for m in enumerate_perfect_matchings(n):
                assert sign_rule_holds(sigma, m)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_permutations(self, data):
        n = data.draw(st.integers(1, 4))
        sigma = data.draw(permutations(2 * n))
        m = data.draw(matchings(n))
        assert sign_rule_holds(sigma, m)


class TestWebBasisExpansion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_independent(self, n):
        # unitriangular over the tabloids: the lead of web k is its
        # opener set, the first row of tableau k
        assert web_polynomials_independent(n)
        leads = [min(web_vector(w)) for w in enumerate_webs(n)]
        assert leads == [tabloid_of(t) for t in enumerate_syt(n)]

    def test_identity_on_basis(self):
        m0 = consecutive_matching(2)
        assert expand_in_web_basis(web_vector(m0), 2) == {m0: 1}

    def test_syzygy_expansion(self):
        crossed = Matching.from_pairs([(1, 3), (2, 4)])
        assert expand_in_web_basis(web_vector(crossed), 2) == {
            consecutive_matching(2): 1,
            Matching.from_pairs([(1, 4), (2, 3)]): 1,
        }

    def test_outside_span_raises(self):
        with pytest.raises(ValueError):
            expand_in_web_basis({(1,): 1}, 1)
        # right monomials, wrong coefficients: a basis element plus a
        # lone extra monomial cannot be expanded
        p = combine((1, web_vector(consecutive_matching(1))), (1, {(1,): 1}))
        with pytest.raises(ValueError):
            expand_in_web_basis(p, 1)
        # a monomial of the wrong shape is outside the space altogether
        with pytest.raises(ValueError):
            expand_in_web_basis({(1, 2): 1}, 1)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_agrees_with_crossing_rewrite(self, n):
        for m in enumerate_perfect_matchings(n):
            expanded = expand_in_web_basis(web_vector(m), n)
            assert expanded == {
                k: Fraction(v) for k, v in resolve_crossings(m).items()
            }

    @pytest.mark.parametrize("n", range(2, 6))
    def test_rewrite_reproduces_polynomial_exactly(self, n):
        # the strongest form of the check: sum the minor products of the
        # rewrite output with their coefficients and compare polynomials,
        # for every perfect matching on 2n letters
        basis_polys = {w: web_vector(w) for w in enumerate_webs(n)}
        for m in enumerate_perfect_matchings(n):
            terms = [(c, basis_polys[w]) for w, c in resolve_crossings(m).items()]
            assert combine(*terms) == web_vector(m)


class TestPsiEquivariance:
    def test_frozen_n2_example(self):
        s2 = adjacent_transposition(4, 2)
        m0 = consecutive_matching(2)
        nested = Matching.from_pairs([(1, 4), (2, 3)])
        lhs = act_on_tabloid_vector(s2, web_vector(m0))
        assert lhs == combine((1, web_vector(m0)), (1, web_vector(nested)))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_holds(self, n):
        assert column_action_matches_web_action(n)


class TestPolynomialRing:
    """D(M) rendered as a polynomial in the x[r, j], as --dump-poly prints it:
    the text of ``json.dumps(polynomial_terms(vec), indent=2)``."""

    def test_serialization_round_trip(self):
        rng = random.Random(11)
        for m in itertools.islice(enumerate_perfect_matchings(3), 5):
            k = rng.randint(1, 4)
            p = combine((k, web_vector(m)))
            text = serialize_polynomial(p)
            assert text == json.dumps(polynomial_terms(p), indent=2)
            decoded = {
                tuple(j for r, j, _ in t["exponents"] if r == 1): t["coeff"]
                for t in json.loads(text)
            }
            assert decoded == p

    @pytest.mark.parametrize("n", range(1, 7))
    def test_serialization_shares_triples(self, n):
        # the terms share the 4n triple texts: the whole text is checked,
        # at the top level and laid out one array item deep
        for m in enumerate_webs(n):
            vec = web_vector(m)
            text = serialize_polynomial(vec)
            assert text == json.dumps(polynomial_terms(vec), indent=2)
            assert serialize_polynomial(vec, pad="    ") == text.replace("\n", "\n    ")

    def test_serialization_of_the_zero_vector(self):
        assert serialize_polynomial({}) == json.dumps(polynomial_terms({}), indent=2) == "[]"
        assert serialize_polynomial({}, pad="    ") == serialize_polynomial({}, pad="\t") == "[]"

    def test_serialization_order_stable(self):
        terms = json.loads(serialize_polynomial(web_vector(consecutive_matching(2))))
        # ascending row-1 sets, each term row-1 columns first
        assert terms == [
            {"exponents": [[1, 1, 1], [1, 3, 1], [2, 2, 1], [2, 4, 1]], "coeff": 1},
            {"exponents": [[1, 1, 1], [1, 4, 1], [2, 2, 1], [2, 3, 1]], "coeff": -1},
            {"exponents": [[1, 2, 1], [1, 3, 1], [2, 1, 1], [2, 4, 1]], "coeff": -1},
            {"exponents": [[1, 2, 1], [1, 4, 1], [2, 1, 1], [2, 3, 1]], "coeff": 1},
        ]
