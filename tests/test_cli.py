import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from model import polynomial_terms, tableau_from_lists, web_vector
from tworow import cli, minors, transition, webs
from tworow.cli import _json_chunks, _JsonText, _write, build_parser, main
from tworow.combinat import Matching, catalan, enumerate_syt, enumerate_webs
from tworow.transition import transition_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# a buffered stdout, as in a normal run: an unbuffered one hides the bytes
# left in the buffer after a failed write
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

# the package source, importable also without site-packages (python -S)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestEnumerate:
    def test_counts_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["catalan"] == 5
        assert len(doc["tableaux"]) == 5 and len(doc["webs"]) == 5
        tableaux = [tableau_from_lists(rows) for rows in doc["tableaux"]]
        webs = [Matching(tuple(p)) for p in doc["webs"]]
        assert all(t.is_standard for t in tableaux)
        assert all(w.is_noncrossing for w in webs)
        assert sorted(doc["pairing"]) == list(range(5))

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["tableaux"] == [[[1], [2]]]
        assert doc["webs"] == [[2, 1]]

    def test_n6_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["tableaux"]) == len(doc["webs"]) == 132 == catalan(6)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enumerate", "--n", "4", "--out", str(a)]) == 0
        assert main(["enumerate", "--n", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_poly(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--dump-poly")
        doc = json.loads(out)
        assert code == 0
        webs = [Matching(tuple(p)) for p in doc["webs"]]
        assert len(doc["webPolynomials"]) == len(webs)
        for terms, w in zip(doc["webPolynomials"], webs):
            # each term is x[1, j] over the tabloid's columns j, then
            # x[2, k] over the other columns k, all to the first power
            tabloids = []
            for term in terms:
                exponents = term["exponents"]
                row1 = [j for r, j, e in exponents if r == 1]
                row2 = [k for r, k, e in exponents if r == 2]
                assert all(e == 1 for _, _, e in exponents)
                assert exponents == [[1, j, 1] for j in row1] + [[2, k, 1] for k in row2]
                assert sorted(row1 + row2) == [1, 2, 3, 4]
                assert row1 == sorted(row1) and row2 == sorted(row2)
                tabloids.append(tuple(row1))
            assert tabloids == sorted(tabloids)
            coeffs = {tab: term["coeff"] for tab, term in zip(tabloids, terms)}
            assert coeffs == web_vector(w)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,index,label"
        assert "tableau,0,1 3|2 4" in lines
        assert "web,0,2 1 4 3" in lines

    def test_dump_poly_needs_json(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "2", "--format", "csv", "--dump-poly")
        assert code == 2 and out == ""
        assert "tworow: --dump-poly needs --format json" in err

    def test_cap_refused(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "11")
        assert code == 2
        assert "cap" in err

    def test_cap_raised_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TWOROW_ENUM_CAP", "11")
        code, out, _ = run(capsys, "enumerate", "--n", "11")
        assert code == 0
        assert json.loads(out)["catalan"] == catalan(11)


class TestMatrix:
    def test_n2_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 2,
            "rowLabels": [[list(r) for r in t.rows] for t in enumerate_syt(2)],
            "colLabels": [list(w.partner) for w in enumerate_webs(2)],
            "entries": [[1, 0], [1, 1]],
        }

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "1")
        assert json.loads(out)["entries"] == [[1]]

    def test_n5_nonnegative(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["entries"]) == 42
        assert all(e >= 0 for row in doc["entries"] for e in row)

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["matrix", "--n", "3", "--format", "csv", "--out", str(a)]) == 0
        assert main(["matrix", "--n", "3", "--format", "csv", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("tableau\\web,")

    def test_cap(self, capsys):
        code, _, err = run(capsys, "matrix", "--n", "7")
        assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["matrix"], 0),
        (["matrix", "--format", "csv"], 0),
        (["verify"], 0),
        (["verify", "--inject-fault", "negative-entry"], 1),
        (["bench"], 0),
    ],
    ids=["matrix-json", "matrix-csv", "verify", "verify-negative-entry", "bench"],
)
def test_row_stream_holds_no_matrix(argv, code, monkeypatch):
    # the n = 7 matrix is 429 rows of 429 entries, about 1.5 MB of tuples;
    # each command reads the rows from transition.rows, built as it goes,
    # and builds no TransitionMatrix.  The JSON document's labels and the
    # text of a row stay below the bound
    def refuse(*args):
        raise AssertionError("a TransitionMatrix was built")

    monkeypatch.setenv("TWOROW_MATRIX_CAP", "7")
    monkeypatch.setattr(transition, "transition_matrix", None)
    monkeypatch.setattr(transition, "TransitionMatrix", refuse)
    enumerate_syt(7), enumerate_webs(7)  # the cached enumerations
    tracemalloc.start()
    try:
        assert main([*argv, "--n", "7", "--out", os.devnull]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800 * 1024


class TestVerify:
    def test_n3_with_oracle_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--with-oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracleAgrees"] is True
        assert doc["counterexamples"] == []

    def test_n6_without_oracle_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracleAgrees"] is None
        assert doc["nonnegative"] and doc["diagonalOnes"] and doc["supportAcyclic"]

    def test_syzygy_fault_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--inject-fault", "syzygy-sign-flip")
        assert code == 1
        doc = json.loads(out)
        assert not doc["nonnegative"]
        assert doc["counterexamples"]

    def test_negative_entry_fault_reports_both_checks(self, capsys):
        # the -1 sits at (row 0, last column), above the diagonal
        code, out, _ = run(capsys, "verify", "--n", "3", "--inject-fault", "negative-entry")
        assert code == 1
        doc = json.loads(out)
        assert not doc["nonnegative"] and not doc["supportAcyclic"]
        assert doc["counterexamples"] == [
            {"check": "nonnegative", "row": 0, "col": 4, "entry": -1},
            {"check": "supportAcyclic", "row": 0, "col": 4, "entry": -1},
        ]

    def test_negative_entry_fault_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--inject-fault", "negative-entry")
        assert code == 1
        assert json.loads(out)["counterexamples"]

    @pytest.mark.parametrize(
        "broken, reason",
        [
            # a second intertwiner: the space is not one-dimensional
            (lambda basis: basis + [[1] * len(basis[0])], "has dimension 2, expected 1"),
            # the (consecutive, interleaved) entry is zero
            (lambda basis: [[0] + basis[0][1:]], "vanishes on the interleaved"),
            # the others doubled, the last entry becomes half the (0, 0) one
            (
                lambda basis: [[2 * v for v in basis[0][:-1]] + [basis[0][0]]],
                "non-integer oracle entry 1/2",
            ),
            # the others times -2, so the (0, 0) entry is negative: the sign
            # goes to the numerator
            (
                lambda basis: [[-2 * v for v in basis[0][:-1]] + [basis[0][0]]],
                "non-integer oracle entry -1/2",
            ),
        ],
        ids=["dimension", "scale", "integrality", "negative-integrality"],
    )
    def test_oracle_without_a_matrix_fails_the_check(self, broken, reason, capsys, monkeypatch):
        nullspace = transition.nullspace
        monkeypatch.setattr(transition, "nullspace", lambda rows: broken(nullspace(rows)))
        code, out, _ = run(capsys, "verify", "--n", "3", "--with-oracle")
        assert code == 1
        doc = json.loads(out)
        assert doc["oracleAgrees"] is False
        assert doc["nonnegative"] and doc["diagonalOnes"] and doc["supportAcyclic"]
        [counterexample] = doc["counterexamples"]
        assert counterexample.keys() == {"check", "n", "reason"}
        assert counterexample["check"] == "oracleAgrees" and counterexample["n"] == 3
        assert reason in counterexample["reason"]

    def test_oracle_cap_refused_and_raised(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "5", "--with-oracle")
        assert code == 2 and "cap" in err
        # without the oracle the same n is fine
        code, _, _ = run(capsys, "verify", "--n", "5")
        assert code == 0

    def test_oracle_cap_from_env_and_flag(self, capsys, monkeypatch):
        # the variable is the one way to set the oracle cap
        monkeypatch.setenv("TWOROW_ORACLE_CAP", "3")
        code, _, err = run(capsys, "verify", "--n", "4", "--with-oracle")
        assert code == 2 and "oracle cap of 3" in err
        monkeypatch.setenv("TWOROW_ORACLE_CAP", "4")
        code, out, _ = run(capsys, "verify", "--n", "4", "--with-oracle")
        assert code == 0
        assert json.loads(out)["oracleAgrees"] is True


class TestBench:
    def test_reports_metrics(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert all(doc[key] >= 0 for key in ("matrixSeconds", "writeSeconds", "oracleSeconds"))
        assert doc["peakRssMb"] > 0

    def test_reports_only_the_commands_paths(self, capsys):
        # the build, the write and the oracle, then the process's peak
        code, out, _ = run(capsys, "bench", "--n", "4")
        assert code == 0
        assert list(json.loads(out)) == [
            "n",
            "matrixSeconds",
            "writeSeconds",
            "oracleSeconds",
            "peakRssMb",
        ]

    def test_never_calls_rewrite(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(webs, "resolve_crossings", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(webs, "_expand", lambda *a, **k: calls.append(a))
        code, _, _ = run(capsys, "bench", "--n", "4")
        assert code == 0
        assert calls == []

    def test_times_the_default_build(self, capsys, monkeypatch):
        # the row stream, read once and written as it comes: no matrix
        built = []
        build = transition.rows
        monkeypatch.setattr(transition, "rows", lambda n: built.append(n) or build(n))
        monkeypatch.setattr(transition, "transition_matrix", None)
        code, _, _ = run(capsys, "bench", "--n", "3")
        assert code == 0
        assert built == [3]

    def test_splits_one_pass_into_build_and_write(self, capsys, monkeypatch):
        # each row takes 10 ms to make, and the write takes the rest
        build = transition.rows

        def slow(n):
            for row in build(n):
                time.sleep(0.01)
                yield row

        monkeypatch.setattr(transition, "rows", slow)
        code, out, _ = run(capsys, "bench", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert 0.05 <= doc["matrixSeconds"] and doc["writeSeconds"] < 0.05

    def test_platform_without_resource_is_a_usage_error(self, capsys, monkeypatch):
        # as on Windows: bench reads its peak RSS through resource
        monkeypatch.setitem(sys.modules, "resource", None)
        code, out, err = run(capsys, "bench", "--n", "2")
        assert code == 2 and out == ""
        assert err == "tworow: bench needs the resource module, which this platform lacks\n"

    def test_bad_oracle_cap_refused_before_the_build(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(transition, "rows", built.append)
        monkeypatch.setenv("TWOROW_ORACLE_CAP", "x")
        code, out, err = run(capsys, "bench", "--n", "3")
        assert code == 2 and out == ""
        assert "TWOROW_ORACLE_CAP must be an integer" in err
        assert built == []


class TestUsageErrors:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["enumerate", "matrix", "verify", "bench"])
    def test_seed_is_not_a_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fmt", [("bench", "csv"), ("verify", "json")])
    def test_format_only_where_there_is_a_choice(self, command, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "2", "--format", fmt])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3", "abc", "2.5"])
    def test_bad_n(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --n: n must be a positive integer" in err
        assert "_positive_int" not in err

    def test_unknown_fault_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--inject-fault", "nope"])
        assert exc.value.code == 2

    def test_fault_choices_are_the_fault_table(self):
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        [fault] = [a for a in sub.choices["verify"]._actions if a.dest == "inject_fault"]
        assert fault.choices == tuple(transition.FAULTS)

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "matrix", "--n", "2", "--out", str(path))
        assert code == 2
        assert f"tworow: cannot write {path}" in err

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["verify", "--with-oracle"], ["bench"], ["enumerate"], ["enumerate", "--dump-poly"]],
    )
    def test_unwritable_out_fails_before_the_work(self, argv, capsys, monkeypatch, tmp_path):
        # --out is opened before any row or enumeration is built, so a bad
        # path costs nothing
        def refuse(*args, **kwargs):
            raise AssertionError("ran before --out was opened")

        for name in ("verify", "rows", "intertwiner_oracle"):
            monkeypatch.setattr(transition, name, refuse)
        for name in ("enumerate_syt", "enumerate_webs"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--n", "3", "--out", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"tworow: cannot write {path}: No such file or directory"]

    @pytest.mark.parametrize("command", ["matrix", "verify", "bench"])
    def test_refused_cap_leaves_out_untouched(self, command, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("kept")
        code, _, err = run(capsys, command, "--n", "7", "--out", str(path))
        assert code == 2 and "cap" in err
        assert path.read_text() == "kept"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stdout(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tworow", "verify", "--n", "3"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=BUFFERED_ENV,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("tworow: cannot write stdout")
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 in the child")
    def test_stdout_closed_at_start(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tworow", "verify", "--n", "2"],
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["tworow: cannot write stdout: it is closed"]

    def test_stdout_closed_midway(self):
        # the document is about 160 kB, more than a pipe holds, so the
        # writer is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "tworow", "matrix", "--n", "6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=BUFFERED_ENV,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err.splitlines() == ["tworow: cannot write stdout: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_full_midway(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tworow", "matrix", "--n", "6", "--out", "/dev/full"],
            capture_output=True,
            text=True,
            env=BUFFERED_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "tworow: cannot write /dev/full: No space left on device"
        ]

    def test_non_integer_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TWOROW_MATRIX_CAP", "seven")
        code, _, err = run(capsys, "matrix", "--n", "2")
        assert code == 2
        assert "TWOROW_MATRIX_CAP" in err

    def test_negative_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TWOROW_MATRIX_CAP", "-1")
        code, _, err = run(capsys, "matrix", "--n", "1")
        assert code == 2
        assert "TWOROW_MATRIX_CAP must be nonnegative" in err


# exit code and sha256 of stdout for fixed command lines; any byte change
# in the enumeration, the matrix, the polynomial rendering, the CSV writer,
# the verify report or either fault path shows here
PINNED_OUTPUTS = {
    ("matrix", "--n", "5"): (
        0, "4039813e75aed1cfd935ea6c1a5e2d79fb24fb9346333133fcef52dd01d2f206"
    ),
    ("matrix", "--n", "5", "--format", "csv"): (
        0, "c4deedba9120af90c54c7659e6d5a4b77537cacd2fb451616b19dd9ac47cf58c"
    ),
    ("enumerate", "--n", "4", "--dump-poly"): (
        0, "cc0bb88ae66ba2f2664ac2a23d226fa62e3aa14935804d08665325e72b2b4b22"
    ),
    ("enumerate", "--n", "4", "--format", "csv"): (
        0, "40283e1718a7b9061e0322ba5a9b87069caf41eda835a9a2080ccc4aef3d809f"
    ),
    ("verify", "--n", "4", "--with-oracle"): (
        0, "9b252b8490241e1b7eaa8754ccf9c7ab688e08c78c81c5b9161b068367aa0f1f"
    ),
    # the default report, without the oracle ("oracleAgrees": null)
    ("verify", "--n", "5"): (
        0, "fda8540d58c578b77b27a96ae7986d610dd27cabecbd7f1de0ed4d872d1c530b"
    ),
    ("verify", "--n", "3", "--inject-fault", "syzygy-sign-flip"): (
        1, "c113ca4ba1e54b7e6e6687636de1bd50b1378349b4a68c46be24369848b49a79"
    ),
    # the sign fault where many flipped terms cancel; its counterexamples
    # are sorted, so the rewrite may yield a row's terms in any order
    ("verify", "--n", "6", "--inject-fault", "syzygy-sign-flip"): (
        1, "6271aad759588921257f047cf3f0100b12fd6d7f06d667e07394d7462031d795"
    ),
    ("verify", "--n", "3", "--inject-fault", "negative-entry"): (
        1, "0311549765bcb661b4685ff174bdff598b4720fcdcf21abda764b843d76a5885"
    ),
    # the only report with an oracleAgrees counterexample: it runs the
    # polytabloid action A_i on a faulty matrix
    ("verify", "--n", "3", "--with-oracle", "--inject-fault", "negative-entry"): (
        1, "a67b21c7333d7ca5646835f465b065d1b3b1b4e9f3023c2f6d79c92dfb62f167"
    ),
    # the oracle on a fault's rows, which make the matrix that the checks
    # read and the oracle compares
    ("verify", "--n", "4", "--with-oracle", "--inject-fault", "syzygy-sign-flip"): (
        1, "64542cabdf42868603b98bcd7999d702a915bffb5d2fec42260a2d7223423d69"
    ),
    ("verify", "--n", "4", "--with-oracle", "--inject-fault", "negative-entry"): (
        1, "7949e05909fd5c4b0e831f21349006a632d961d757b0fab831e0c16123f1be62"
    ),
    # d = 1, so the fault's -1 lands on the diagonal
    ("verify", "--n", "1", "--inject-fault", "negative-entry"): (
        1, "cc9cfb5d992c7384a32ee95ba0db8fcc295f9b836d15ba5c1ff8686bdd7ee19b"
    ),
    ("matrix", "--n", "6"): (
        0, "9c2dd696b9fb8f14d50a9afcea0cc420a10ec187c2617d70e7bd9e4d2c8bd37f"
    ),
    ("matrix", "--n", "6", "--format", "csv"): (
        0, "cd94bc4f42b585b3ba620d156e301dcbb6622ee81302919d7d25e494f5637059"
    ),
    # the benchmark's poly-n6 output, whose digest its reference also holds
    ("enumerate", "--n", "6", "--dump-poly"): (
        0, "68abf4c2183cc5eb5fd940d06daf83e6e3529abcfe3ac9ccdf9f2fc64eabe95e"
    ),
}


def test_outputs_match_pinned_digests(capsys):
    for argv, (exit_code, digest) in PINNED_OUTPUTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == exit_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# every pinned verify command line, and verify --n 1..5 with each fault and none
VERIFY_ARGVS = dict.fromkeys(
    [argv for argv in PINNED_OUTPUTS if argv[0] == "verify"]
    + [
        ("verify", "--n", str(n), *fault)
        for n in range(1, 6)
        for fault in [(), *(("--inject-fault", name) for name in transition.FAULTS)]
    ]
)


@pytest.mark.parametrize("argv", VERIFY_ARGVS, ids=" ".join)
def test_verify_returns_the_document_it_writes(argv, capsys):
    args = build_parser().parse_args(argv)
    report = transition.verify(args.n, with_oracle=args.with_oracle, fault=args.inject_fault)
    code, out, _ = run(capsys, *argv)
    assert out == json.dumps(report, indent=2) + "\n"
    assert code == (1 if report["counterexamples"] else 0)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.text()
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans())
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


def as_json_text(value):
    """value as the _JsonText of an item of a top-level array."""
    return _JsonText(json.dumps(value, indent=2).replace("\n", "\n    "))


def written_and_plain(values):
    """(what the writer takes, the plain value) for a drawn list of such pairs."""
    return [w for w, _ in values], [p for _, p in values]


# what the writer takes: scalars and dicts of them, at any depth, and in a
# top-level array also any JSON value as its _JsonText, the form of every
# nested array the commands write; each drawn with its plain value
JSON_FLAT = st.recursive(
    JSON_SCALARS, lambda inner: st.dictionaries(st.text(), inner), max_leaves=20
).map(lambda v: (v, v))
JSON_ITEMS = JSON_FLAT | JSON_DOCS.map(lambda v: (as_json_text(v), v))
JSON_ARRAYS = st.lists(JSON_ITEMS).map(written_and_plain)
JSON_VALUES = JSON_FLAT | JSON_ARRAYS | JSON_ARRAYS.map(lambda wp: (tuple(wp[0]), wp[1]))
WRITER_DOCS = st.dictionaries(st.text(), JSON_VALUES).map(
    lambda doc: tuple(dict(zip(doc, side)) for side in written_and_plain(doc.values()))
)


def with_generators(doc, rng):
    """doc with each top-level list or tuple value, at random, replaced by
    a generator of the same items."""
    return {
        key: (item for item in value)
        if type(value) in (list, tuple) and rng.random() < 0.5
        else value
        for key, value in doc.items()
    }


class PieceSink(io.StringIO):
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


class TestJsonWriter:
    """``_json_chunks`` writes a top-level dict, with a generator of items
    for any of its array values."""

    @given(WRITER_DOCS, st.randoms(use_true_random=False))
    def test_matches_json_dumps(self, docs, rng):
        doc, plain = docs
        expected = json.dumps(plain, indent=2) + "\n"
        assert "".join(_json_chunks(doc)) == expected
        # a generator is written as the list of its items
        assert "".join(_json_chunks(with_generators(doc, rng))) == expected

    @pytest.mark.parametrize(
        "doc", [{"a": [[1]]}, {"a": [(1,)]}, {"a": {"b": [1]}}, {"a": [{"b": ()}]}]
    )
    def test_nested_array_refused(self, doc):
        # every nested array a command writes is _JsonText, laid out where
        # it is written
        with pytest.raises(TypeError, match="nested array"):
            "".join(_json_chunks(doc))

    def test_empty_generator_is_an_empty_array(self):
        doc = {"a": (x for x in ()), "b": []}
        assert "".join(_json_chunks(doc)) == json.dumps({"a": [], "b": []}, indent=2) + "\n"

    def test_json_text_is_written_at_its_depth(self):
        # text laid out as an item of a top-level array, as a label, a
        # matrix row or a web's term list is, is written as it is
        terms = [{"exponents": [[1, 2, 1]], "coeff": -1}, [0, 3]]
        text = as_json_text(terms)
        expected = json.dumps({"n": 1, "entries": [terms, terms]}, indent=2) + "\n"
        for items in ([text, text], (text, text), (x for x in [text, text])):
            assert "".join(_json_chunks({"n": 1, "entries": items})) == expected

    def test_non_str_key_refused(self):
        with pytest.raises(TypeError, match="keys must be str"):
            "".join(_json_chunks({"n": {1: 2}}))

    def test_shared_objects(self):
        # one dict held many times, in one piece and across pieces
        row = {"c": 3, "d": 1}
        in_one_piece = {"a": [{"b": row, "e": {"f": row}}]}
        in_two_pieces = {"a": [row, {"b": row}, row], "g": row}
        # fresh dicts that die as soon as they are written, so later dicts
        # can take their ids
        fresh = {
            "a": ({"k": k, "i": {"i": i}} for k in range(20) for i in range(40)),
            "b": ({"k": k} for k in range(200)),
        }
        expected_fresh = {
            "a": [{"k": k, "i": {"i": i}} for k in range(20) for i in range(40)],
            "b": [{"k": k} for k in range(200)],
        }
        # equal and hashed alike, but written differently
        lookalikes = {"a": [1, True, 1.0, {"b": 1, "c": True, "d": 1.0}], "e": 1.0}
        for doc in (in_one_piece, in_two_pieces, lookalikes):
            assert "".join(_json_chunks(doc)) == json.dumps(doc, indent=2) + "\n"
        assert "".join(_json_chunks(fresh)) == json.dumps(expected_fresh, indent=2) + "\n"

    def test_stream_holds_no_document(self):
        doc = {
            "n": 6,
            "rowLabels": [t.rows for t in enumerate_syt(6)],
            "colLabels": [w.partner for w in enumerate_webs(6)],
            "entries": transition_matrix(6).entries,
        }
        size = len(json.dumps(doc, indent=2)) + 1
        rows = list(transition.rows(6))
        tracemalloc.start()
        try:
            _write(cli._matrix_pieces(6, iter(rows), "json"), os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matrix_and_enumerate_are_json_dumps(self, n):
        # every label and row is _JsonText: each document is the plain one
        tableaux = [t.rows for t in enumerate_syt(n)]
        web_list = [w.partner for w in enumerate_webs(n)]
        matrix = {
            "n": n,
            "rowLabels": tableaux,
            "colLabels": web_list,
            "entries": transition_matrix(n).entries,
        }
        pairs = {
            "n": n,
            "catalan": catalan(n),
            "tableaux": tableaux,
            "webs": web_list,
            "pairing": list(range(catalan(n))),
        }
        text = "".join(cli._matrix_pieces(n, transition.rows(n), "json"))
        assert text == json.dumps(matrix, indent=2) + "\n"
        text = "".join(cli._enumerate_pieces(n, "json", False))
        assert text == json.dumps(pairs, indent=2) + "\n"

    def test_matrix_is_written_a_row_at_a_time(self, monkeypatch):
        sink = PieceSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["matrix", "--n", "6"]) == 0
        rows = transition_matrix(6).entries
        # a row's text in the document: the ",\n" before it, then the row
        # indented to its depth under "entries"
        row_text = max(
            len(",\n" + textwrap.indent(json.dumps(row, indent=2), "    ")) for row in rows
        )
        assert len(sink.pieces) > len(rows)
        assert max(map(len, sink.pieces)) <= row_text
        digest = PINNED_OUTPUTS[("matrix", "--n", "6")][1]
        assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == digest

    def test_enumerate_is_written_an_item_at_a_time(self, monkeypatch):
        sink = PieceSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "--n", "6"]) == 0
        tableaux, web_list = enumerate_syt(6), enumerate_webs(6)
        doc = {
            "n": 6,
            "catalan": catalan(6),
            "tableaux": [t.rows for t in tableaux],
            "webs": [w.partner for w in web_list],
            "pairing": list(range(len(tableaux))),
        }
        # an item's text in the document: the ",\n" before it, then the item
        # indented to its depth under its key
        item_text = max(
            len(",\n" + textwrap.indent(json.dumps(item, indent=2), "    "))
            for key in ("tableaux", "webs", "pairing")
            for item in doc[key]
        )
        assert len(sink.pieces) > 3 * len(tableaux)
        assert max(map(len, sink.pieces)) <= item_text
        assert sink.getvalue() == json.dumps(doc, indent=2) + "\n"

    def test_dump_poly_is_written_a_web_at_a_time(self, monkeypatch):
        sink = PieceSink()
        pieces = sink.pieces
        made = []  # how many pieces were written when each web's D(M) was made
        serialize_polynomial = minors.serialize_polynomial

        def spy(m, pad=""):
            made.append(len(pieces))
            return serialize_polynomial(m, pad)

        monkeypatch.setattr(minors, "serialize_polynomial", spy)
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "--n", "6", "--dump-poly"]) == 0
        # a web's term list in the document: the separator before it, then
        # the list indented to its depth under "webPolynomials"
        texts = [
            textwrap.indent(json.dumps(polynomial_terms(web_vector(w)), indent=2), "    ")
            for w in enumerate_webs(6)
        ]
        assert max(map(len, pieces)) <= max(len(",\n" + text) for text in texts)
        # web k is piece first + k, and web k + 1 is made only after it is
        # written: the generator is never more than one web ahead
        first = pieces.index(',\n  "webPolynomials": ') + 1
        assert made == [first + k for k in range(len(texts))]
        for k, text in enumerate(texts):
            assert pieces[first + k] == ("[\n" if k == 0 else ",\n") + text
        digest = PINNED_OUTPUTS[("enumerate", "--n", "6", "--dump-poly")][1]
        assert hashlib.sha256("".join(pieces).encode()).hexdigest() == digest


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tworow", "verify", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nonnegative"] is True


def test_invariants_survive_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tworow", "verify", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["supportAcyclic"] is True


@pytest.mark.parametrize(
    "argv",
    [["verify", "--n", "3", "--with-oracle"], ["enumerate", "--n", "3", "--dump-poly"]],
)
def test_optimized_run_passes(argv):
    # specht and the tableau-to-web bijection check their
    # invariants with explicit raises, which python -O keeps
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tworow", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


@pytest.mark.parametrize("flags", [[], ["-O"], ["-S"]], ids=["plain", "optimized", "no-site"])
def test_start_up_loads_only_what_runs(flags):
    # dataclasses (with inspect, ast and dis) and fractions cost about a
    # tenth of a short run's start-up.  No run needs fractions (with
    # decimal), not even the oracle, whose nullspace is in integers; the
    # oracle imports specht when it runs, and only --dump-poly imports
    # minors.  typing is needed by nothing, but a .pth file under
    # site-packages may import it first, so -S, with the source tree on the
    # path, is the run that can see it
    script = textwrap.dedent(
        """
        import json, os, sys

        before = set(sys.modules)
        import tworow, tworow.cli

        code = tworow.cli.main(["matrix", "--n", "2", "--out", os.devnull])
        unwanted = {"dataclasses", "inspect", "fractions", "typing", "tworow.minors", "tworow.specht"}
        loaded = sorted(unwanted & (set(sys.modules) - before))
        oracle_code = tworow.cli.main(["verify", "--n", "2", "--with-oracle", "--out", os.devnull])
        oracle_loaded = sorted({"fractions", "decimal"} & (set(sys.modules) - before))
        print(json.dumps([code, loaded, oracle_code, oracle_loaded]))
        """
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(proc.stdout) == [0, [], 0, []]
