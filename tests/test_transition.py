import copy
import functools
import gc
import json
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import pytest

from model import (
    first_crossing,
    latest_parent,
    mat_mul,
    tableau_from_lists,
    web_action_matrix,
    web_vector,
)
from tworow.combinat import (
    Matching,
    Tableau,
    catalan,
    consecutive_matching,
    enumerate_syt,
    enumerate_webs,
    first_rows,
    interleaved_tableau,
    tableau_rows,
    tableau_to_web,
)
from tworow import combinat, specht, transition, webs
from tworow.cli import _matrix_pieces, main
from tworow.transition import (
    TransitionMatrix,
    _rewrite_rows,
    check_diagonal_ones,
    check_nonnegative,
    check_support_acyclic,
    intertwiner_oracle,
    transition_matrix,
    transition_row,
    verify,
)

def dense(row, d):
    """The d entries of the sparse row {column: entry}, zeros included."""
    return tuple(row.get(c, 0) for c in range(d))


def sparse(row):
    """The nonzero entries of a dense row, as a sparse row in column order."""
    return {c: v for c, v in enumerate(row) if v}


# worked by hand from the crossing rewrites of the five aligned matchings;
# the intertwiner oracle reproduces it below
MATRIX3 = (
    (1, 0, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1),
)


class TestTransitionRow:
    def test_interleaved_row_is_indicator(self):
        for n in range(1, 6):
            row = transition_row(interleaved_tableau(n))
            assert row == {consecutive_matching(n): 1}

    def test_n2_second_row(self):
        row = transition_row(Tableau(((1, 2), (3, 4))))
        assert row == {
            consecutive_matching(2): 1,
            Matching.from_pairs([(1, 4), (2, 3)]): 1,
        }

    def test_n3_rows_nonnegative_with_unit_diagonal(self):
        for t in enumerate_syt(3):
            row = transition_row(t)
            assert all(c > 0 for c in row.values())
            assert row[tableau_to_web(t)] == 1

    def test_column_matching_is_polytabloid(self):
        # the product of the column minors of T is the polytabloid of T,
        # so the reference row needs no aligning permutation and no sign
        for n in range(1, 7):
            for t in enumerate_syt(n):
                assert web_vector(Matching.from_pairs(t.columns())) == specht.polytabloid(t)

    def test_rejects_nonstandard(self):
        with pytest.raises(ValueError):
            transition_row(Tableau(((2, 1), (3, 4))))

    def test_rewrite_counts_n6(self):
        # every row of n = 6 through one shared memo: the matchings the
        # rewrite resolved, and those of them that cross
        memo = {}
        for t in enumerate_syt(6):
            webs.resolve_crossings(Matching.from_pairs(t.columns()), memo=memo)
        assert len(memo) == 1500
        assert sum(1 for m in memo if first_crossing(m) is not None) == 1368


class TestTransitionMatrix:
    def test_n1(self):
        tm = transition_matrix(1)
        assert tm.entries == ((1,),)

    def test_n2_frozen(self):
        tm = transition_matrix(2)
        assert tm.entries == ((1, 0), (1, 1))
        # row r is tableau r and column c is web c of the enumerations
        assert enumerate_syt(2) == (interleaved_tableau(2), Tableau(((1, 2), (3, 4))))
        assert enumerate_webs(2) == (
            consecutive_matching(2),
            Matching.from_pairs([(1, 4), (2, 3)]),
        )

    def test_holds_only_n_and_the_rows(self):
        tm = transition_matrix(3)
        # its public attributes are exactly the two fields, in this order
        assert {name for name in dir(tm) if not name.startswith("_")} == {"n", "entries"}
        assert repr(tm) == f"TransitionMatrix(n=3, entries={MATRIX3!r})"
        assert tm == TransitionMatrix(3, MATRIX3) == TransitionMatrix(n=3, entries=MATRIX3)
        with pytest.raises(TypeError):
            TransitionMatrix(3, MATRIX3, None)
        assert type(tm.entries) is tuple and all(type(row) is tuple for row in tm.entries)

    def test_is_an_immutable_value(self):
        tm = transition_matrix(3)
        twin = TransitionMatrix(3, MATRIX3)
        assert hash(tm) == hash(twin) == hash((3, MATRIX3))
        assert tm != TransitionMatrix(2, MATRIX3) and tm != (3, MATRIX3)
        for name in ("n", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(tm, name, 0)
            with pytest.raises(AttributeError):
                delattr(tm, name)
        assert (tm.n, tm.entries) == (3, MATRIX3)
        assert weakref.ref(tm)() is tm
        for copied in (copy.deepcopy(tm), pickle.loads(pickle.dumps(tm))):
            assert type(copied) is TransitionMatrix and copied == tm

    def test_n3_frozen(self):
        assert transition_matrix(3).entries == MATRIX3

    def test_deterministic(self):
        assert transition_matrix(3) == transition_matrix(3)


class TestGeneratorRecurrence:
    """The default build against the paper's construction, the crossing
    rewrite of every row."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_rewrite(self, n):
        # both streams are sparse, so equal dicts hold the same nonzeros
        streamed, reference = list(transition.rows(n)), list(_rewrite_rows(n))
        assert streamed == reference
        d = catalan(n)
        assert [dense(row, d) for row in streamed] == [dense(row, d) for row in reference]

    def test_never_calls_rewrite(self, monkeypatch):
        reference = TransitionMatrix(5, tuple(dense(row, 42) for row in _rewrite_rows(5)))
        calls = []
        monkeypatch.setattr(webs, "resolve_crossings", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(webs, "_expand", lambda *a, **k: calls.append(a))
        assert transition_matrix(5) == reference
        assert calls == []

    @staticmethod
    def spy_on_rewrite(monkeypatch):
        """The (memo, its size on entry, sign) of each ``webs._expand``
        call, one a row: the recursion is ``_grow``, so it never calls
        itself."""
        calls = []
        expand = webs._expand

        def spy(p, memo, sign):
            calls.append((memo, len(memo), sign))
            return expand(p, memo, sign)

        monkeypatch.setattr(webs, "_expand", spy)
        return calls

    def test_reference_build_gives_each_row_its_own_memo(self, monkeypatch):
        # one DAG a row: each call gets a new, empty memo and fills it
        calls = self.spy_on_rewrite(monkeypatch)
        list(_rewrite_rows(4))
        assert len(calls) == len(enumerate_syt(4))
        assert [size for _, size, _ in calls] == [0] * len(calls)
        assert len({id(memo) for memo, _, _ in calls}) == len(calls)
        assert all(memo for memo, _, _ in calls)

    def test_sign_fault_goes_through_rewrite(self, monkeypatch):
        calls = self.spy_on_rewrite(monkeypatch)
        report = verify(3, fault="syzygy-sign-flip")
        assert report["counterexamples"]
        assert [sign for _, _, sign in calls] == [-1] * len(enumerate_syt(3))

    def test_moved_canonical_order_raises(self, monkeypatch):
        # the build and the oracle share one guard, and its message
        firsts = first_rows(3)
        monkeypatch.setattr(transition, "first_rows", lambda n: firsts[::-1])
        for build in (transition_matrix, intertwiner_oracle):
            with pytest.raises(RuntimeError, match="row 0"):
                build(3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_row_has_an_earlier_parent(self, n):
        # the latest parent: the largest letter i of the first row whose
        # i + 1 sits in the second row in another column
        syt = enumerate_syt(n)
        slot = {t: r for r, t in enumerate(syt)}
        last_child = {}
        for r, t in enumerate(syt):
            first, second = t.rows
            letters = [a for j, a in enumerate(first) if a + 1 in second and second[j] != a + 1]
            assert bool(letters) == (r > 0)  # only the interleaved tableau has none
            if r == 0:
                continue
            parents = []
            for i in letters:
                swap = {i: i + 1, i + 1: i}
                parent = Tableau(tuple(tuple(swap.get(x, x) for x in row) for row in t.rows))
                assert parent.is_standard
                assert slot[parent] < r
                parents.append(slot[parent])
            # the largest letter gives the latest parent
            assert parents[-1] == max(parents)
            last_child[parents[-1]] = r
        # a row is held from when it is built until its last child is
        held = [sum(1 for p, last in last_child.items() if p <= r < last) for r in range(len(syt))]
        assert max(held, default=0) <= max(n - 2, 1)
        assert n < 4 or max(held) == n - 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parents_are_the_rule_on_two_rows(self, n):
        # the bitmask search gives the parent letter and index of the rule
        # read on the tuples of each tableau's two rows
        slot = {first: r for r, first in enumerate(first_rows(n))}
        expected_parents, expected_letters = [], []
        for first, second in list(tableau_rows(n))[1:]:
            j, i = latest_parent(first, second)
            expected_parents.append(slot[first[:j] + (i + 1,) + first[j + 1 :]])
            expected_letters.append(i)
        assert transition._parents(n) == (expected_parents, expected_letters)

    def test_the_row_path_builds_no_tableau_or_matching(self, monkeypatch):
        # the stream, the checks and the matrix document key on first rows
        # and their bitmasks: no Tableau or Matching, checked or trusted
        built = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                built.append(name)
                return fn(*args, **kwargs)

            return wrapper

        enumerate_syt.cache_clear()
        enumerate_webs.cache_clear()
        monkeypatch.setattr(Tableau, "__init__", spy("Tableau", Tableau.__init__))
        monkeypatch.setattr(Matching, "__init__", spy("Matching", Matching.__init__))
        monkeypatch.setattr(combinat, "_trusted", spy("_trusted", combinat._trusted))
        assert len(list(transition.rows(6))) == catalan(6)
        assert verify(6)["counterexamples"] == []
        for fmt in ("json", "csv"):
            assert "".join(_matrix_pieces(6, transition.rows(6), fmt))
        assert built == []
        # the spies see what the enumerations build
        enumerate_syt(2), enumerate_webs(2)
        assert built == ["_trusted"] * 4

    def test_results_are_not_cached(self):
        built = weakref.ref(transition_matrix(6))
        oracle = weakref.ref(intertwiner_oracle(3))
        gc.collect()
        assert built() is None
        assert oracle() is None

    def test_memory_stays_bounded_across_calls(self):
        # library calls, not cli.main: argparse itself keeps about 1 KB
        # per parser it builds
        crossed = Matching.from_pairs([(1, 5), (2, 7), (3, 8), (4, 10), (6, 9)])

        def calls():
            verify(5)
            verify(3, with_oracle=True)
            webs.resolve_crossings(crossed)

        calls()  # fills the per-n enumeration caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                calls()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024


def euler_zigzag(m):
    """E_m, the number of alternating permutations of m letters, by the
    Seidel-Entringer triangle (boustrophedon): each row is the running sum
    of the previous one read backwards, starting from 0."""
    row = [1]
    for _ in range(m):
        sums = [0]
        for x in reversed(row):
            sums.append(sums[-1] + x)
        row = sums
    return row[-1]


class TestRowStream:
    """``rows(n)``: the matrix one row at a time, in canonical order."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_collected_matrix(self, n):
        entries = transition_matrix(n).entries
        streamed = list(transition.rows(n))
        assert len(streamed) == len(entries) == catalan(n)
        assert tuple(dense(row, catalan(n)) for row in streamed) == entries

    @staticmethod
    def spy_on_tables(monkeypatch):
        """The generator index of each ``webs.action_table`` call."""
        asked = []
        action_table = webs.action_table

        def spy(i, n):
            asked.append(i)
            return action_table(i, n)

        monkeypatch.setattr(webs, "action_table", spy)
        return asked

    @pytest.mark.parametrize("n", range(1, 10))
    def test_no_step_takes_s1_or_the_last_generator(self, n, monkeypatch):
        # the parent letter of each later row: the largest i in the first
        # row of T whose i + 1 sits in the second row in another column
        letters = [
            max(a for a, b in zip(top, bottom) if a + 1 in bottom and b != a + 1)
            for top, bottom in (t.rows for t in enumerate_syt(n)[1:])
        ]
        assert all(2 <= i <= 2 * n - 2 for i in letters)
        assert set(letters) == set(range(2, 2 * n - 1))
        # so the stream tables s_2 .. s_{2n-2} only, none at n = 1 and s_2
        # at n = 2, through the module global that a test may patch
        # and every one of them is read
        asked = self.spy_on_tables(monkeypatch)
        assert len(list(transition.rows(n))) == catalan(n)
        assert asked == list(range(2, 2 * n - 1))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_reads_every_table(self, n, monkeypatch):
        asked = self.spy_on_tables(monkeypatch)
        intertwiner_oracle(n)
        assert asked == list(range(1, 2 * n))

    @pytest.mark.parametrize("stream", ["rows", "rewrite", *transition.FAULTS])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_stream_yields_bare_rows(self, n, stream):
        # each producer yields C(n) sparse rows and no index, in canonical
        # order: dicts of nonzero exact ints keyed by exact int columns in
        # range(C(n)); the good streams are the matrix itself
        producers = {"rows": transition.rows, "rewrite": _rewrite_rows, **transition.FAULTS}
        streamed = list(producers[stream](n))
        d = catalan(n)
        assert len(streamed) == d
        for row in streamed:
            assert type(row) is dict
            assert all(type(c) is int and 0 <= c < d for c in row)
            assert all(type(v) is int and v != 0 for v in row.values())
        if stream in ("rows", "rewrite"):
            assert tuple(dense(row, d) for row in streamed) == transition_matrix(n).entries

    @pytest.mark.parametrize("n", range(1, 8))
    def test_negative_entry_changes_row_0_alone(self, n):
        # row 0 is also the parent the stream holds: the fault puts its -1
        # in a new dict, so every later row is built as in rows(n)
        good = list(transition.rows(n))
        faulted = list(transition.FAULTS["negative-entry"](n))
        assert faulted[0] == {**good[0], catalan(n) - 1: -1}
        assert faulted[1:] == good[1:]

    def test_a_cancelled_entry_is_dropped(self, monkeypatch):
        # no step of a true table leaves a zero at n <= 9, so one is made:
        # row 3 of n = 3 is s_4 of row 2, {0: 1, 2: 1}, and with s_4 taking
        # w_0 to w_0 + w_2 and negating w_2 its entry at 2 is 1 + 1 - 2 = 0
        action_table = webs.action_table

        def patched(i, n):
            table = list(action_table(i, n))
            if (i, n) == (4, 3):
                table[0], table[2] = 2, -1
            return tuple(table)

        monkeypatch.setattr(webs, "action_table", patched)
        streamed = list(transition.rows(3))
        parent, table = dense(streamed[2], 5), patched(4, 3)
        step = list(parent)
        for k, v in enumerate(parent):
            if table[k] < 0:
                step[k] -= 2 * v
            else:
                step[table[k]] += v
        assert step[2] == 0 and streamed[3] == sparse(step)
        assert all(0 not in row.values() for row in streamed)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_holds_a_few_rows_not_the_matrix(self):
        # the growth of a fresh process's peak resident size (VmHWM; its
        # ru_maxrss would start at the size of the process that spawned it)
        # while it reads rows(8), against the 1430 rows of 1430 entries,
        # about 16 MB of tuples, that the matrix would hold.  Unlike
        # tracemalloc, this does not slow the build several-fold.  The
        # process reuses memory it freed before, so the bound is half the
        # one a traced peak met
        script = textwrap.dedent(
            """
            import sys
            from tworow import transition
            from tworow.combinat import enumerate_syt, enumerate_webs

            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

            n = 8
            d = len(enumerate_syt(n))
            enumerate_syt(n), enumerate_webs(n)  # the cached enumerations
            before = peak_kb()
            held = sys.getsizeof((None,) * d)  # the tuple of the rows
            for row in transition.rows(n):
                held += sys.getsizeof(row)
            dense = sys.getsizeof((None,) * d) * (d + 1)  # the dense tuples
            print(held, dense, (peak_kb() - before) * 1024)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        held, dense, grown = map(int, proc.stdout.split())
        # the bound stays a twentieth of the dense matrix, not of the
        # smaller dict rows the stream now yields
        assert dense > 16 * 10**6 and held > 10**7
        assert grown < 16 * 10**6 / 20

    def test_euler_zigzag_numbers(self):
        expected = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]  # OEIS A000111
        assert [euler_zigzag(m) for m in range(11)] == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_nonzero_count_is_the_catalan_hankel_determinant(self, n):
        # nested pairs of Dyck paths (Lindstrom-Gessel-Viennot), OEIS A005700
        nonzeros, _ = stream_counts(n)
        assert nonzeros == catalan(n) * catalan(n + 2) - catalan(n + 1) ** 2

    @pytest.mark.parametrize("n", range(1, 10))
    def test_last_row_sums_to_an_euler_number(self, n):
        # the last tableau's columns pairwise cross; its row sum counts the
        # leaves of their resolution, the largest row sum of the matrix
        _, sums = stream_counts(n)
        assert sums[-1] == euler_zigzag(n + 1)
        assert max(sums) == sums[-1]


@functools.cache
def stream_counts(n):
    """The nonzero count and the row sums of ``rows(n)``, from one pass
    shared by the tests that read them (1.3 s at n = 9)."""
    nonzeros, sums = 0, []
    for row in transition.rows(n):
        nonzeros += len(row)
        sums.append(sum(row.values()))
    return nonzeros, sums


def found(check, tm):
    """What ``check`` finds in the rows of tm, each passed to it sparse, in
    row-major order, as the counterexamples ``verify`` builds from its
    (col, entry) pairs.  A row's key order must not matter, so each row is
    also checked with its keys inserted in reverse order."""
    [key] = [key for key, table_check in transition.CHECKS if table_check is check]
    pairs = []
    for r, row in enumerate(map(sparse, tm.entries)):
        pairs.append(check(r, row))
        assert check(r, dict(reversed(row.items()))) == pairs[-1]
    return [
        {"check": key, "row": r, "col": c, "entry": v}
        for r, row_pairs in enumerate(pairs)
        for c, v in row_pairs
    ]


class TestChecks:
    def test_checks_return_col_entry_pairs(self):
        row = {0: -1, 1: 2, 3: -3, 4: 4}
        assert check_nonnegative(1, row) == [(0, -1), (3, -3)]
        assert check_diagonal_ones(1, row) == [(1, 2)]
        assert check_support_acyclic(1, row) == [(3, -3)]

    @pytest.mark.parametrize("check", [c for _, c in transition.CHECKS])
    def test_key_order_does_not_matter(self, check):
        # a row's keys come in no set order; the pairs come by column
        row = {0: -1, 1: 2, 3: -3, 4: 4, 6: -5, 7: 1}
        for r in range(8):
            expected = check(r, row)
            assert check(r, dict(reversed(row.items()))) == expected
            assert check(r, dict(sorted(row.items(), key=lambda kv: kv[1]))) == expected
        assert check_nonnegative(2, dict(reversed(row.items()))) == [(0, -1), (3, -3), (6, -5)]
        assert check_support_acyclic(2, dict(reversed(row.items()))) == [(3, -3)]
        assert check_diagonal_ones(2, row) == [(2, 0)]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_clean_matrix_passes(self, n):
        tm = transition_matrix(n)
        assert found(check_nonnegative, tm) == []
        assert found(check_diagonal_ones, tm) == []
        assert found(check_support_acyclic, tm) == []

    def test_negative_entry_located(self):
        entries = ((1, 0), (-1, 1))
        bad = TransitionMatrix(2, entries)
        assert found(check_nonnegative, bad) == [
            {"check": "nonnegative", "row": 1, "col": 0, "entry": -1}
        ]

    def test_negative_entries_in_row_major_order(self):
        good = transition_matrix(3)
        entries = [list(row) for row in good.entries]
        entries[1][3], entries[3][0], entries[3][4] = -2, -1, -5
        bad = TransitionMatrix(3, tuple(map(tuple, entries)))
        assert found(check_nonnegative, bad) == [
            {"check": "nonnegative", "row": 1, "col": 3, "entry": -2},
            {"check": "nonnegative", "row": 3, "col": 0, "entry": -1},
            {"check": "nonnegative", "row": 3, "col": 4, "entry": -5},
        ]

    def test_all_ones_has_cycle(self):
        bad = TransitionMatrix(2, ((1, 1), (1, 1)))
        assert found(check_diagonal_ones, bad) == []
        assert found(check_support_acyclic, bad) == [
            {"check": "supportAcyclic", "row": 0, "col": 1, "entry": 1}
        ]

    def test_upper_triangular_entry_located(self):
        # unit diagonal and acyclic support (web 1 -> web 0 only), but not
        # lower triangular in canonical order
        bad = TransitionMatrix(2, ((1, 1), (0, 1)))
        assert found(check_diagonal_ones, bad) == []
        assert found(check_support_acyclic, bad) == [
            {"check": "supportAcyclic", "row": 0, "col": 1, "entry": 1}
        ]

    def test_first_entry_above_diagonal_reported(self, monkeypatch):
        entries = [list(row) for row in transition_matrix(4).entries]
        entries[5][9] = 3
        entries[7][8] = 2
        bad = TransitionMatrix(4, tuple(map(tuple, entries)))
        assert found(check_support_acyclic, bad) == [
            {"check": "supportAcyclic", "row": 5, "col": 9, "entry": 3},
            {"check": "supportAcyclic", "row": 7, "col": 8, "entry": 2},
        ]
        # verify reports each failing row's first entry, as the check does
        monkeypatch.setitem(transition.FAULTS, "two-above", lambda n: map(sparse, bad.entries))
        assert verify(4, fault="two-above")["counterexamples"] == [
            {"check": "supportAcyclic", "row": 5, "col": 9, "entry": 3},
            {"check": "supportAcyclic", "row": 7, "col": 8, "entry": 2},
        ]

    def test_broken_diagonal_located(self):
        bad = TransitionMatrix(2, ((1, 0), (1, 2)))
        assert found(check_diagonal_ones, bad) == [
            {"check": "diagonalOnes", "row": 1, "col": 1, "entry": 2}
        ]


class TestIntertwinerOracle:
    def test_n1(self):
        assert intertwiner_oracle(1).entries == ((1,),)

    def test_n2_matches_frozen(self):
        assert intertwiner_oracle(2).entries == ((1, 0), (1, 1))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_agrees_with_rewrite(self, n):
        assert intertwiner_oracle(n) == transition_matrix(n)

    @staticmethod
    def _assert_intertwines(n):
        # X A_i = B_i X with X the transpose of the entry matrix
        x = [list(col) for col in zip(*transition_matrix(n).entries)]
        for i in range(1, 2 * n):
            a = specht.action_matrix(i, n)
            b = web_action_matrix(i, n)
            assert mat_mul(x, a) == mat_mul(b, x)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_realized_map_equivariant(self, n):
        self._assert_intertwines(n)

    def test_matrix_intertwines_explicitly(self):
        self._assert_intertwines(3)

    @pytest.mark.parametrize("n, shape", [(2, (12, 4)), (3, (125, 25)), (4, (1372, 196))])
    def test_system_shape(self, n, shape, monkeypatch):
        # one unknown per entry, and one row per equation: (2n - 1) d^2
        shapes = []
        solve = transition.nullspace

        def spy(rows):
            shapes.append((len(rows), len(rows[0])))
            return solve(rows)

        monkeypatch.setattr(transition, "nullspace", spy)
        intertwiner_oracle(n)
        assert shapes == [shape]


class TestVerify:
    CHECKED = {"nonnegative": True, "diagonalOnes": True, "supportAcyclic": True}

    def test_n3_with_oracle(self):
        report = verify(3, with_oracle=True)
        assert report["oracleAgrees"] is True
        assert report["counterexamples"] == []

    def test_without_oracle_not_run(self):
        report = verify(2)
        assert report == {"n": 2, **self.CHECKED, "oracleAgrees": None, "counterexamples": []}
        assert report["oracleAgrees"] is None

    def test_syzygy_sign_fault_detected(self):
        report = verify(2, fault="syzygy-sign-flip")
        assert report["nonnegative"] is False
        assert report["counterexamples"]

    def test_negative_entry_fault_detected(self):
        report = verify(3, fault="negative-entry")
        assert report["counterexamples"]
        assert report["nonnegative"] is False

    @pytest.mark.parametrize("fault", ["syzygy-sign-flip", "negative-entry"])
    def test_oracle_catches_fault(self, fault):
        report = verify(3, with_oracle=True, fault=fault)
        assert report["oracleAgrees"] is False
        assert report["counterexamples"][-1] == {"check": "oracleAgrees", "n": 3}

    @pytest.mark.parametrize("with_oracle", [False, True])
    @pytest.mark.parametrize("fault", [None, "syzygy-sign-flip", "negative-entry"])
    @pytest.mark.parametrize("n", range(2, 5))
    def test_every_failed_check_leaves_a_counterexample(self, n, fault, with_oracle):
        report = verify(n, with_oracle=with_oracle, fault=fault)
        checks = [report[key] for key, _ in transition.CHECKS]
        passed = all(checks) and report["oracleAgrees"] is not False
        assert (not report["counterexamples"]) == passed

    @pytest.mark.parametrize("n", range(1, 7))
    def test_which_checks_each_fault_fails(self, n):
        # at n = 1 the one tableau's columns do not cross, so the sign
        # flip changes nothing and that negative control passes
        expected = {
            "syzygy-sign-flip": set() if n == 1 else {"nonnegative", "diagonalOnes"},
            "negative-entry": {"nonnegative", "diagonalOnes" if n == 1 else "supportAcyclic"},
        }
        # a fault added to the table needs its expected checks here
        assert expected.keys() == set(transition.FAULTS)
        for fault, failed in expected.items():
            report = verify(n, fault=fault)
            assert {key for key, value in report.items() if value is False} == failed

    @pytest.mark.parametrize("fault", list(transition.FAULTS))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_support_fails_in_at_most_one_row(self, n, fault):
        # negative-entry edits row 0 only, and the sign fault's support lies
        # inside the +1 rewrite's leaves, which are lower triangular; so no
        # CLI fault report has supportAcyclic counterexamples from two rows
        rows = {
            bad["row"]
            for bad in verify(n, fault=fault)["counterexamples"]
            if bad["check"] == "supportAcyclic"
        }
        assert len(rows) <= 1

    # for each check, one cell (row, col, value) of the matrix of d rows
    # whose edit trips that check and no other
    ALONE = {
        "nonnegative": lambda d: (d - 1, 0, -1),
        "diagonalOnes": lambda d: (d - 1, d - 1, 2),
        "supportAcyclic": lambda d: (0, d - 1, 1),
    }

    @pytest.mark.parametrize("key", list(ALONE))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_each_check_is_caught_alone(self, n, key, monkeypatch):
        # a check added to the table needs its own fault here
        assert self.ALONE.keys() == {key for key, _ in transition.CHECKS}
        r0, c0, value = self.ALONE[key](catalan(n))

        def edited(n):
            for r, row in enumerate(transition.rows(n)):
                yield {**row, c0: value} if r == r0 else row

        monkeypatch.setitem(transition.FAULTS, "one-cell", edited)
        report = verify(n, fault="one-cell")
        assert [k for k, _ in transition.CHECKS if not report[k]] == [key]
        assert report["counterexamples"] == [{"check": key, "row": r0, "col": c0, "entry": value}]
        assert main(["verify", "--n", str(n), "--inject-fault", "one-cell"]) == 1

    def test_table_alone_adds_a_check(self, monkeypatch, capsys):
        def check_corner(r, row):
            return [(0, row[0])] if r == 0 else []

        extra = ("corner", check_corner)
        monkeypatch.setattr(transition, "CHECKS", transition.CHECKS + (extra,))
        assert main(["verify", "--n", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "n",
            "nonnegative",
            "diagonalOnes",
            "supportAcyclic",
            "corner",
            "oracleAgrees",
            "counterexamples",
        ]
        assert doc["nonnegative"] and doc["diagonalOnes"] and doc["supportAcyclic"]
        assert doc["corner"] is False
        assert doc["counterexamples"] == [{"check": "corner", "row": 0, "col": 0, "entry": 1}]

    @pytest.mark.parametrize("fault", [None, "syzygy-sign-flip", "negative-entry"])
    def test_without_oracle_builds_no_matrix(self, fault, monkeypatch):
        # the checks read a row stream; only the oracle compares a matrix
        def refuse(*args):
            raise AssertionError("a TransitionMatrix was built")

        monkeypatch.setattr(transition, "TransitionMatrix", refuse)
        assert (not verify(4, fault=fault)["counterexamples"]) == (fault is None)
        with pytest.raises(AssertionError, match="TransitionMatrix"):
            verify(2, with_oracle=True, fault=fault)

    @pytest.mark.parametrize(
        "fault, calls",
        [
            (None, ["rows"]),
            ("syzygy-sign-flip", ["syzygy-sign-flip"]),
            # this fault's stream edits the stream of rows
            ("negative-entry", ["negative-entry", "rows"]),
        ],
    )
    def test_with_oracle_builds_the_rows_once(self, fault, calls, monkeypatch):
        # one stream makes the matrix the oracle compares, and the checks
        # read its rows
        made = []

        def spy(name, stream):
            def spied(n):
                made.append(name)
                return stream(n)

            return spied

        monkeypatch.setattr(transition, "rows", spy("rows", transition.rows))
        for name, stream in list(transition.FAULTS.items()):
            monkeypatch.setitem(transition.FAULTS, name, spy(name, stream))
        report = verify(4, with_oracle=True, fault=fault)
        assert made == calls
        assert report["oracleAgrees"] is (fault is None)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            verify(2, fault="gremlins")

    @pytest.mark.parametrize(
        "build, n",
        [
            (verify, True),
            (transition_matrix, 2.0),
            (enumerate_webs, True),
            (enumerate_syt, "3"),
            (interleaved_tableau, 2.0),
            (consecutive_matching, True),
        ],
    )
    def test_n_must_be_an_exact_int(self, build, n):
        # True and 2.0 equal 1 and 2, so a cache keyed on value alone would
        # hand back the entries built for them here
        for cached in (1, 2):
            verify(cached)
        with pytest.raises(ValueError, match="n must be an int"):
            build(n)

    def test_report_json_shape(self):
        doc = verify(2, with_oracle=True)
        assert list(doc) == [
            "n",
            "nonnegative",
            "diagonalOnes",
            "supportAcyclic",
            "oracleAgrees",
            "counterexamples",
        ]
        # serializable as-is
        json.dumps(doc)


class TestSerialization:
    """The matrix document as ``cli`` writes it, labeled from the
    enumerations."""

    @pytest.mark.parametrize("n", range(1, 4))
    def test_json_round_trip(self, n):
        tm = transition_matrix(n)
        doc = json.loads("".join(_matrix_pieces(n, transition.rows(n), "json")))
        assert list(doc) == ["n", "rowLabels", "colLabels", "entries"]
        assert doc["n"] == n
        assert doc["entries"] == [list(row) for row in tm.entries]
        assert tuple(tableau_from_lists(rows) for rows in doc["rowLabels"]) == enumerate_syt(n)
        assert tuple(Matching(tuple(p)) for p in doc["colLabels"]) == enumerate_webs(n)

    def test_csv_shape(self):
        text = "".join(_matrix_pieces(2, transition.rows(2), "csv"))
        lines = text.strip().split("\n")
        assert lines[0].startswith("tableau\\web,")
        assert lines[1].split(",")[0] == "1 3|2 4"
        assert lines[1].split(",")[1:] == ["1", "0"]
        assert lines[2].split(",")[1:] == ["1", "1"]
