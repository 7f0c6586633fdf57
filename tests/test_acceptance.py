"""
Acceptance suite: every release-gating check, one test per criterion,
each printing a single pass/fail line (run with ``pytest -s`` to see the
lines as they happen).  All checks are exact; there are no tolerances to
tune anywhere.
"""

import random
from fractions import Fraction

from model import (
    Permutation,
    adjacent_transposition,
    column_action_matches_web_action,
    cycle_type_representative,
    enumerate_perfect_matchings,
    expand_in_web_basis,
    identity_matrix,
    mat_mul,
    partitions,
    reduced_word,
    sign_rule_holds,
    web_vector,
)
from tworow import specht, webs
from tworow.cli import main
from tworow.combinat import (
    Matching,
    catalan,
    consecutive_matching,
    enumerate_syt,
    enumerate_webs,
    interleaved_tableau,
    tableau_to_web,
)
from tworow.transition import (
    check_diagonal_ones,
    check_nonnegative,
    check_support_acyclic,
    intertwiner_oracle,
    rows,
    transition_matrix,
)


def _check(num, description, fn):
    try:
        fn()
    except BaseException:
        print(f"[criterion {num:2d}] FAIL - {description}")
        raise
    print(f"[criterion {num:2d}] PASS - {description}")


def test_criterion_01_catalan_dimensions():
    def body():
        for n in range(1, 9):
            assert len(enumerate_syt(n)) == catalan(n)
            assert len(enumerate_webs(n)) == catalan(n)
        assert catalan(3) == 5

    _check(1, "tableau and web counts equal the Catalan numbers for n=1..8", body)


def test_criterion_02_positive_expansion():
    def body():
        # exhaustive: every perfect matching resolves to nonnegative
        # integers on noncrossing keys, and matches the polynomial
        # expansion exactly up to n=4
        for n in range(1, 6):
            for m in enumerate_perfect_matchings(n):
                out = webs.resolve_crossings(m)
                assert all(k.is_noncrossing for k in out)
                assert all(isinstance(c, int) and c > 0 for c in out.values())
                if m.is_noncrossing:
                    assert out == {m: 1}
                if n <= 4:
                    expanded = expand_in_web_basis(web_vector(m), n)
                    assert expanded == {k: Fraction(v) for k, v in out.items()}
        # sampled at n=5
        rng = random.Random(0)
        pool = list(enumerate_perfect_matchings(5))
        for m in rng.sample(pool, 100):
            expanded = expand_in_web_basis(web_vector(m), 5)
            resolved = webs.resolve_crossings(m)
            assert expanded == {k: Fraction(v) for k, v in resolved.items()}

    _check(
        2,
        "crossing rewrite is nonnegative-integer and matches the polynomial "
        "expansion (exhaustive n<=4, 100 samples at n=5)",
        body,
    )


def test_criterion_03_entries_nonnegative_integers():
    def body():
        for n in range(1, 7):
            tm = transition_matrix(n)
            d = catalan(n)
            assert len(tm.entries) == d and all(len(row) == d for row in tm.entries)
            assert all(isinstance(e, int) for row in tm.entries for e in row)
            assert not any(check_nonnegative(r, row) for r, row in enumerate(rows(n)))

    _check(3, "transition matrix entries are nonnegative integers for n=1..6", body)


def test_criterion_04_unitriangular():
    def body():
        for n in range(1, 7):
            tm = transition_matrix(n)
            assert not any(check_diagonal_ones(r, row) for r, row in enumerate(rows(n)))
            assert not any(check_support_acyclic(r, row) for r, row in enumerate(rows(n)))
            # row r is tableau r and column c is web c, so the diagonal is
            # the opener/closer pairing
            assert enumerate_webs(n) == tuple(map(tableau_to_web, enumerate_syt(n)))
            # first row is exactly the indicator of the consecutive matching
            indicator = tuple(
                1 if m == consecutive_matching(n) else 0 for m in enumerate_webs(n)
            )
            assert enumerate_syt(n)[0] == interleaved_tableau(n)
            assert tm.entries[0] == indicator

    _check(
        4,
        "lower unitriangular with the opener/closer pairing on the diagonal, "
        "and indicator first row for n=1..6",
        body,
    )


def test_criterion_05_oracle_equivalence():
    def body():
        for n in range(1, 5):
            assert intertwiner_oracle(n) == transition_matrix(n)

    _check(
        5,
        "intertwiner nullspace is one-dimensional and reproduces the matrix "
        "entrywise for n=1..4",
        body,
    )


def test_criterion_06_coxeter_relations():
    def body():
        for n in range(1, 6):
            d = catalan(n)
            ident = identity_matrix(d)
            for mats in (
                {i: specht.action_matrix(i, n) for i in range(1, 2 * n)},
                {i: webs.action_matrix(i, n) for i in range(1, 2 * n)},
            ):
                for i, a in mats.items():
                    assert mat_mul(a, a) == ident
                for i in range(1, 2 * n - 1):
                    a, b = mats[i], mats[i + 1]
                    assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
                for i in mats:
                    for j in mats:
                        if j - i >= 2:
                            assert mat_mul(mats[i], mats[j]) == mat_mul(mats[j], mats[i])

    _check(
        6,
        "involution, braid and commutation relations hold in both models "
        "for n<=5",
        body,
    )


def test_criterion_07_column_action_matches_web_action():
    def body():
        for n in range(1, 5):
            assert column_action_matches_web_action(n)

    _check(
        7,
        "column permutation of minor products matches the web generator "
        "rule, exhaustive n<=4",
        body,
    )


def test_criterion_08_sign_rule():
    def body():
        for n in range(1, 5):
            for i in range(1, 2 * n):
                sigma = adjacent_transposition(2 * n, i)
                for m in enumerate_perfect_matchings(n):
                    assert sign_rule_holds(sigma, m)
        rng = random.Random(0)
        pool = list(enumerate_perfect_matchings(5))
        for _ in range(200):
            images = list(range(1, 11))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            m = rng.choice(pool)
            assert sign_rule_holds(sigma, m)

    _check(
        8,
        "column permutation equals the inversion-pair sign times the "
        "permuted product (exhaustive n<=4, 200 samples at n=5)",
        body,
    )


def test_criterion_09_characters_agree():
    def body():
        for n in range(1, 5):
            d = catalan(n)
            a_mats = {i: specht.action_matrix(i, n) for i in range(1, 2 * n)}
            b_mats = {i: webs.action_matrix(i, n) for i in range(1, 2 * n)}
            for cycle_type in partitions(2 * n):
                sigma = cycle_type_representative(cycle_type, 2 * n)
                word = reduced_word(sigma)
                trace = []
                for mats in (a_mats, b_mats):
                    total = identity_matrix(d)
                    for i in word:
                        total = mat_mul(mats[i], total)
                    trace.append(sum(total[k][k] for k in range(d)))
                assert trace[0] == trace[1]

    _check(
        9,
        "conjugacy-class traces agree between the polytabloid and web "
        "models for n<=4",
        body,
    )


def test_criterion_10_negative_controls(capsys):
    def body():
        assert main(["verify", "--n", "3"]) == 0
        assert main(["verify", "--n", "3", "--inject-fault", "syzygy-sign-flip"]) == 1
        assert main(["verify", "--n", "3", "--inject-fault", "negative-entry"]) == 1
        capsys.readouterr()  # swallow the report json so the pass line stands out

    _check(10, "injected faults are detected by verify with a nonzero exit", body)


def test_optional_oracle_equivalence_n5():
    assert intertwiner_oracle(5) == transition_matrix(5)
