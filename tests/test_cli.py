import json
import subprocess
import sys

import pytest

from tworow import transition
from tworow.cli import main
from tworow.combinat import Matching, Tableau, catalan
from tworow.minors import deserialize_polynomial, minor_product
from tworow.transition import TransitionMatrix, transition_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_counts_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["catalan"] == 5
        assert len(doc["tableaux"]) == 5 and len(doc["webs"]) == 5
        tableaux = [Tableau.from_lists(rows) for rows in doc["tableaux"]]
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
        polys = [deserialize_polynomial(terms) for terms in doc["webPolynomials"]]
        webs = [Matching(tuple(p)) for p in doc["webs"]]
        assert polys == [minor_product(w) for w in webs]

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
        assert doc["entries"] == [[1, 0], [1, 1]]
        assert TransitionMatrix.from_json_dict(doc) == transition_matrix(2)

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

    def test_negative_entry_fault_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--inject-fault", "negative-entry")
        assert code == 1
        assert json.loads(out)["counterexamples"]

    def test_oracle_cap_refused_and_raised(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "5", "--with-oracle")
        assert code == 2 and "cap" in err
        # without the oracle the same n is fine
        code, _, _ = run(capsys, "verify", "--n", "5")
        assert code == 0


class TestOracleCompare:
    def test_n2_agrees(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"n": 2, "agrees": True}

    def test_cap(self, capsys):
        code, _, err = run(capsys, "oracle-compare", "--n", "5")
        assert code == 2 and "cap" in err


class TestBench:
    def test_reports_metrics(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["matchingsResolved"] >= 5
        assert doc["syzygyRewrites"] >= 1
        assert "matrixSeconds" in doc and "oracleSeconds" in doc

    def test_seed_controls_samples(self, capsys):
        _, out1, _ = run(capsys, "bench", "--n", "2", "--seed", "1")
        _, out2, _ = run(capsys, "bench", "--n", "2", "--seed", "1")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["sampleRewrites"] == d2["sampleRewrites"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.startswith("metric,value")

    def test_rewrite_counts_n6(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "6", "--samples", "20")
        doc = json.loads(out)
        assert code == 0
        assert doc["matchingsResolved"] == 1500
        assert doc["syzygyRewrites"] == 1368
        assert doc["sampleRewrites"] == 440

    def test_times_the_default_build(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(transition._transition_matrix, "__wrapped__", built.append)
        code, _, _ = run(capsys, "bench", "--n", "3")
        assert code == 0
        assert built == [3]


class TestUsageErrors:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--n", "0"])
        assert exc.value.code == 2

    def test_unknown_fault_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--inject-fault", "nope"])
        assert exc.value.code == 2

    def test_negative_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "2", "--samples", "-3"])
        assert exc.value.code == 2

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "matrix", "--n", "2", "--out", str(path))
        assert code == 2
        assert f"tworow: cannot write {path}" in err

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

    @pytest.mark.parametrize("command", ["verify", "oracle-compare"])
    def test_negative_oracle_cap(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "2", "--oracle-cap", "-5"])
        assert exc.value.code == 2
        assert "--oracle-cap" in capsys.readouterr().err


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
    # specht, minors and the tableau-to-web bijection check their
    # invariants with explicit raises, which python -O keeps
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tworow", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
