#!/usr/bin/env python3
"""The tworow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Every operation runs in a fresh process, one at a time (a closed loop with
one client), so no cache of the package carries over between operations.
Operations are started until ``--seconds`` have passed; at least one always
runs.  The benchmark and every process it starts stay on one CPU, and each
time is scaled to a reference speed by the probe of probe.py, timed on that
CPU right before and after the operation.  Workloads:

    matrix-n7         TWOROW_MATRIX_CAP=7 tworow matrix --n 7 --out F
    verify-oracle-n4  tworow verify --n 4 --with-oracle > F
    poly-n6           tworow enumerate --n 6 --dump-poly --out F
    resolve-n9        batches of 100 perfect matchings on 18 letters
                      (see resolve_batches), each resolved by
                      webs.resolve_crossings with a fresh memo

Output bytes of the first three must match the sha256 digests in
reference.json; resolve results pass child.check_expansion.  A failed
check or a nonzero exit counts as a failed operation, and the command then
exits 1.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics, measured with tracing off.  With ``--trace 1``
traced and untraced operations alternate; the traced ones install the
span recorder of spans.py, and the metrics are the per-layer ones.
The lines before the last one print the same metrics for people, with the
error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

# name -> (tworow arguments, environment, whether output goes to --out)
CLI_WORKLOADS = {
    "matrix-n7": (["matrix", "--n", "7"], {"TWOROW_MATRIX_CAP": "7"}, True),
    "verify-oracle-n4": (["verify", "--n", "4", "--with-oracle"], {}, False),
    "poly-n6": (["enumerate", "--n", "6", "--dump-poly"], {}, True),
}
RESOLVE = "resolve-n9"
RESOLVE_LETTERS = 18
# enough latencies per batch for a p90 with ten samples beyond it
RESOLVE_BATCH = 100
WORKLOADS = [*CLI_WORKLOADS, RESOLVE]

# probe units timed after each operation of the benchmark process (about
# 0.1 s), and after each resolve call in a batch process (about 10 ms)
PROBE_UNITS = 10
CALL_PROBE_UNITS = 1

# set-up time is about 0.1 s with a spread near a third of that, so it is
# the median of many interpreter starts, after one that warms the caches
SETUP_REPEATS = 11
SETUP_ARGV = {"cli": ["-m", "tworow", "--help"], "library": ["-c", "import tworow"]}

# a real tworow process that exits 1: verify with a negative entry injected
EXIT1_ARGS = ["verify", "--n", "2", "--inject-fault", "negative-entry"]

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_p50_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Child:
    code: int
    started: float
    wall_s: float
    maxrss_mb: float


def spawn(argv: list[str], env: dict, stdout_path: Path | None = None) -> Child:
    """Run one process to its end, through spawn.py, which times it and
    takes its max-RSS from wait4."""
    proc = subprocess.Popen(
        [PY, "-S", str(HERE / "spawn.py"), str(stdout_path or os.devnull), *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        report, _ = proc.communicate()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    code, started, wall, maxrss_kb = report.split()
    return Child(int(code), float(started), float(wall), int(maxrss_kb) / 1024)


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWOROW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def random_matching(rng: random.Random, size: int) -> list[int]:
    """Partner array of a uniformly random perfect matching on 1..size."""
    letters = list(range(1, size + 1))
    rng.shuffle(letters)
    partner = [0] * size
    for a, b in zip(letters[::2], letters[1::2]):
        partner[a - 1], partner[b - 1] = b, a
    return partner


def relabel(partner: list[int], rotation: int, reflect: bool) -> list[int]:
    """The image of a matching under a symmetry of the circle of letters:
    letter i goes to i + rotation (mod size), after i -> size + 1 - i when
    ``reflect``.  Two chords cross exactly when their images do."""
    size = len(partner)

    def image(i: int) -> int:
        return (((size + 1 - i) if reflect else i) - 1 + rotation) % size + 1

    out = [0] * size
    for i, p in enumerate(partner, start=1):
        out[image(i) - 1] = image(p)
    return out


def resolve_batches(seed: int):
    """Batches of (matchings, check-point seed) for resolve-n9.

    The cost of resolving a uniformly random matching on 18 letters is
    heavy-tailed (crossings explain 89% of its variance), so with fresh
    samples the batch time, median and p90 of a three-batch run spread by
    17%, 21% and 26% across ten seeds.  Every batch therefore holds the same
    RESOLVE_BATCH uniformly random matchings, drawn once from a fixed
    seed, each moved by a rotation or reflection of the circle chosen
    from ``seed``, in an order chosen from ``seed``.  That keeps the
    crossings, so costs stay within a few percent, while tworow sees
    matchings that differ from seed to seed.
    """
    base_rng = random.Random(0)
    base = [random_matching(base_rng, RESOLVE_LETTERS) for _ in range(RESOLVE_BATCH)]
    rng = random.Random(seed)
    while True:
        batch = [relabel(p, rng.randrange(RESOLVE_LETTERS), rng.random() < 0.5) for p in base]
        rng.shuffle(batch)
        yield batch, rng.getrandbits(64)


@dataclass
class Run:
    workload: str
    work: Path
    fault: str | None
    attempted: int = 0
    failed: int = 0
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    maxrss_mb: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    ops: int = 0
    # seconds per probe unit at the last probe
    pace: float = field(default_factory=lambda: probe.unit_s(PROBE_UNITS))

    def command(self, argv: list[str]) -> list[str]:
        """The process to start for the next operation: ``argv``, unless
        the exit1 fault replaces the first operation."""
        self.ops += 1
        if self.fault == "exit1" and self.ops == 1:
            return [PY, "-m", "tworow", *EXIT1_ARGS]
        return argv

    def probe_factor(self) -> float:
        """Probe the CPU and return the factor that scales a time measured
        since the last probe to the reference speed."""
        before, self.pace = self.pace, probe.unit_s(PROBE_UNITS)
        return probe.scale(before, self.pace)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        print(f"perfbench: {self.workload}: {why}", file=sys.stderr)


def run_setup(run: Run) -> float:
    kind = "library" if run.workload == RESOLVE else "cli"
    env = child_env({})
    samples = []
    for i in range(SETUP_REPEATS + 1):
        child = spawn([PY, *SETUP_ARGV[kind]], env)
        factor = run.probe_factor()
        run.attempted += 1
        if child.code != 0:
            run.fail(1, f"set-up process exited {child.code}")
        if i:
            samples.append(child.wall_s * factor)
    return statistics.median(samples)


def cli_op(run: Run, traced: bool, reference: dict) -> None:
    args, env, to_file = CLI_WORKLOADS[run.workload]
    out = run.work / "out"
    spans_path = run.work / "spans.json"
    out.unlink(missing_ok=True)
    spans_path.unlink(missing_ok=True)
    args = [*args, "--out", str(out)] if to_file else args
    if traced:
        argv = [PY, str(HERE / "child.py"), "cli", str(spans_path), *args]
    else:
        argv = [PY, "-m", "tworow", *args]
    child = spawn(run.command(argv), child_env(env), None if to_file else out)
    factor = run.probe_factor()
    run.attempted += 1
    if child.code != 0:
        return run.fail(1, f"exit code {child.code}")
    digest = sha256_of(out)
    if digest != reference["sha256"]:
        return run.fail(1, f"output sha256 {digest} differs from the reference")
    run.walls[traced].append(child.wall_s * factor)
    run.maxrss_mb.append(child.maxrss_mb)
    run.latencies_ms.append(child.wall_s * factor * 1000)
    if traced:
        with open(spans_path) as fh:
            layers = spans.layer_metrics(json.load(fh))
        layers["cli.output_bytes"] = out.stat().st_size
        run.layers.append(scaled(layers, factor))


def resolve_op(run: Run, traced: bool, matchings: list, point_seed: int) -> None:
    paths = {k: run.work / f"{k}.json" for k in ("matchings", "report", "spans")}
    for path in paths.values():
        path.unlink(missing_ok=True)
    with open(paths["matchings"], "w") as fh:
        json.dump(matchings, fh)
    argv = [PY, str(HERE / "child.py"), "resolve", "--matchings", str(paths["matchings"]),
            "--report", str(paths["report"]), "--point-seed", str(point_seed),
            "--probe-units", str(CALL_PROBE_UNITS)]
    if traced:
        argv += ["--spans", str(paths["spans"])]
    if run.fault == "coefficient":
        argv += ["--fault", "coefficient"]
    child = spawn(run.command(argv), child_env({}))
    run.attempted += len(matchings)
    if child.code != 0:
        return run.fail(len(matchings), f"batch process exited {child.code}")
    with open(paths["report"]) as fh:
        report = json.load(fh)
    for failure in report["failures"]:
        run.fail(1, f"matching {failure['partner']}: {failure['reason']}")
    # each call is scaled by the probes the batch process timed right
    # before and after it, and the interpreter start and import by the
    # last probe of this process and the first of the batch process
    paces = report["probes"]
    raw = report["latencies"]
    latencies = [x * probe.scale(a, b) for x, a, b in zip(raw, paces, paces[1:])]
    start_s = (report["ready_at"] - child.started) * probe.scale(run.pace, paces[0])
    run.pace = paces[-1]
    # wall time of the batch: interpreter start and import, then the timed
    # calls; the checks and probes between calls are the benchmark's, so
    # left out
    run.walls[traced].append(start_s + sum(latencies))
    run.maxrss_mb.append(child.maxrss_mb)
    run.latencies_ms.extend(x * 1000 for x in latencies)
    if traced:
        with open(paths["spans"]) as fh:
            layers = scaled(spans.layer_metrics(json.load(fh)), sum(latencies) / sum(raw))
        layers["webs.memo_keys"] = report["memo_keys"]
        layers["webs.memo_terms"] = report["memo_terms"]
        layers["webs.useful_ratio"] = layers["webs.resolve_terms"] / report["memo_terms"]
        run.layers.append(layers)


def scaled(layers: dict, factor: float) -> dict:
    """Per-layer metrics with their times scaled by ``factor``."""
    return {k: v * factor if k.endswith(("_s", "_ms")) else v for k, v in layers.items()}


def _median(xs: list) -> float | None:
    return statistics.median(xs) if xs else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 fault: str | None = None) -> dict:
    """One run: the result object the last line of stdout carries."""
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh).get(workload)
    if fault == "digest":
        reference = {**reference, "sha256": reference["sha256"][:-1] + "x"}
    batches = resolve_batches(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        run = Run(workload, Path(work), fault)
        setup_s = None if trace else run_setup(run)

        deadline = time.monotonic() + seconds
        while True:
            # a traced operation repeats the untraced one on the same inputs
            batch = next(batches) if workload == RESOLVE else None
            for traced in (False, True) if trace else (False,):
                if batch:
                    resolve_op(run, traced, *batch)
                else:
                    cli_op(run, traced, reference)
            if time.monotonic() >= deadline:
                break

    if trace:
        metrics = {
            name: statistics.median_low([layers[name] for layers in run.layers])
            for name in (run.layers[0] if run.layers else [])
        }
        traced, untraced = _median(run.walls[True]), _median(run.walls[False])
        metrics["trace.overhead_s"] = (
            traced - untraced if traced is not None and untraced is not None else None
        )
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        values = {
            "wall_s": _median(run.walls[False]),
            "peak_rss_mb": max(run.maxrss_mb, default=None),
            "setup_s": setup_s,
            "op_p50_ms": _median(run.latencies_ms),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def print_result(workload: str, result: dict) -> None:
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload}:")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  error_rate = {rate} ({result['failed']} of {result['attempted']} operations failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--inject-fault",
        choices=["digest", "coefficient", "exit1"],
        help="negative controls: corrupt the reference digest (fixed workloads), "
        "add 1 to a resolve coefficient (resolve-n9), or replace the first "
        "operation with a tworow process that exits 1",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject_fault == "digest" and args.workload not in CLI_WORKLOADS:
        parser.error("--inject-fault digest needs a workload with a reference digest")
    if args.inject_fault == "coefficient" and args.workload != RESOLVE:
        parser.error(f"--inject-fault coefficient needs --workload {RESOLVE}")
    if not (ROOT / "src" / "tworow" / "__init__.py").is_file():
        print(f"perfbench: no tworow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    probe.pin()
    probe.unit_s(PROBE_UNITS)  # warm-up: the first probe of a process runs cold
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.inject_fault
        )
        print_result(workload, results[workload])
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
