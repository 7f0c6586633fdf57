"""Tests of the benchmark harness, including its negative controls.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import probe
import run
import spans
from tworow import webs
from tworow.combinat import Matching, crossing_pairs

HERE = Path(__file__).resolve().parent


def bench(*args, cwd=None):
    script = (cwd / "perfbench" / "run.py") if cwd else HERE / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.1", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
    return proc.returncode, result, proc.stderr


class TestCheckExpansion:
    partner = (5, 3, 2, 6, 1, 4)  # 1~5, 2~3, 4~6: one crossing

    def resolved(self):
        return webs.resolve_crossings(Matching(self.partner), memo={})

    def test_accepts_the_rewrite(self):
        point = child.random_point(1, 6)
        assert child.check_expansion(self.partner, self.resolved(), point) is None

    def test_accepts_random_matchings_on_18_letters(self):
        batch, point_seed = next(run.resolve_batches(5))
        point = child.random_point(point_seed, 18)
        for partner in batch[:5]:
            result = webs.resolve_crossings(Matching(tuple(partner)), memo={})
            assert child.check_expansion(partner, result, point) is None

    @pytest.mark.parametrize("change", ["plus_one", "zero", "fraction", "crossing_key", "drop_key"])
    def test_rejects(self, change):
        result = self.resolved()
        key = next(iter(result))
        if change == "plus_one":
            result[key] += 1
        elif change == "zero":
            result[key] = 0
        elif change == "fraction":
            from fractions import Fraction

            result[key] = Fraction(result[key])
        elif change == "crossing_key":
            result[Matching(self.partner)] = 1
        else:
            del result[key]
        point = child.random_point(1, 6)
        assert child.check_expansion(self.partner, result, point) is not None


class TestInputs:
    def test_relabel_keeps_crossings(self):
        partner = (5, 3, 2, 6, 1, 4)
        for rotation in range(6):
            for reflect in (False, True):
                image = run.relabel(list(partner), rotation, reflect)
                assert len(crossing_pairs(Matching(tuple(image)))) == 1

    def test_batches_follow_the_seed(self):
        first = next(run.resolve_batches(1))
        assert first == next(run.resolve_batches(1))
        assert first != next(run.resolve_batches(2))
        assert len(first[0]) == run.RESOLVE_BATCH


def test_self_time_excludes_children_and_their_counting():
    # [name, start, end, done, parent, rss0, rss1, counts]
    recorded = [
        ["cli.main", 0.0, 10.0, 10.0, -1, 100, 300, None],
        ["webs.resolve", 1.0, 4.0, 5.0, 0, 100, 200, {"terms": 7}],
        ["webs.resolve", 6.0, 7.0, 7.0, 0, 200, 200, {"terms": 3}],
    ]
    layers = spans.layer_metrics(recorded)
    assert layers["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert layers["webs.resolve_s"] == 4.0
    assert layers["webs.resolve_calls"] == 2
    assert layers["webs.resolve_terms"] == 10
    assert layers["webs.resolve.rss_delta_mb"] == 100 / 1024
    assert layers["linalg.nullspace_s"] == 0


def test_probe_scales_times_to_the_reference_speed():
    assert probe.scale(probe.UNIT_S, probe.UNIT_S) == 1
    # a CPU running at half the reference speed halves the time reported
    assert probe.scale(2 * probe.UNIT_S, 2 * probe.UNIT_S) == 0.5
    assert 0 < probe.unit_s(1) < 1


def test_resolve_report_probes_around_every_call(tmp_path):
    batch, point_seed = next(run.resolve_batches(2))
    matchings, report = tmp_path / "m.json", tmp_path / "r.json"
    matchings.write_text(json.dumps(batch[:3]))
    code = child.main(["resolve", "--matchings", str(matchings), "--report", str(report),
                       "--point-seed", str(point_seed), "--probe-units", "1"])
    result = json.loads(report.read_text())
    assert code == 0 and result["failures"] == []
    assert len(result["probes"]) == len(result["latencies"]) + 1 == 4


def test_max_rss_is_not_floored_at_the_benchmarks_own():
    # the benchmark's own RSS is about 20 MB; a bare interpreter needs less
    child = run.spawn([sys.executable, "-S", "-c", "pass"], dict(os.environ))
    assert child.code == 0
    assert child.maxrss_mb < 15
    assert run.spawn([sys.executable, "-c", "raise SystemExit(3)"], dict(os.environ)).code == 3


def test_clean_run_passes_and_traces_the_oracle():
    code, result, _ = bench("--workload", "verify-oracle-n4", "--trace", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["linalg.nullspace_rows"] == 1372
    assert metrics["linalg.nullspace_cols"] == 196
    assert metrics["transition.rows"] == 14
    assert metrics["minors.minor_product_calls"] == 0
    assert set(metrics) == set(spans.layer_metrics([])) | {"trace.overhead_s"}


@pytest.mark.parametrize(
    "workload, fault",
    [
        ("verify-oracle-n4", "digest"),
        ("resolve-n9", "coefficient"),
        ("verify-oracle-n4", "exit1"),
        ("resolve-n9", "exit1"),
    ],
)
def test_negative_controls_fail_the_run(workload, fault):
    code, result, err = bench("--workload", workload, "--inject-fault", fault)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "perfbench:" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, err = bench("--workload", "verify-oracle-n4", cwd=tmp_path)
    assert code == 2 and result is None
    assert "no tworow sources" in err
