"""Processes that the benchmark starts, one per operation or batch.

    python child.py cli SPANS ARG...
        Install the span recorder, run ``tworow.cli.main([ARG...])`` and
        write the spans to SPANS as JSON.  Output goes where the tworow
        command line sends it, so it is checked like an untraced run's.

    python child.py resolve --matchings F --report R --point-seed S
                            --probe-units U [--spans P] [--fault coefficient]
        Resolve the crossings of every perfect matching in F (a JSON list
        of partner arrays), each with a fresh memo, timing each call.
        After each call, and outside its timing, check the result with
        ``check_expansion`` and time U units of the probe of probe.py,
        which is also timed once before the first call.  Write latencies,
        probe times, failures and memo counts to R as JSON.
        ``--fault coefficient`` adds 1 to a coefficient of the first
        result before its check, as a negative control.

The resolve check is the benchmark's own arithmetic and uses no tworow
code, so a fresh seed needs no reference file.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

P = 2**61 - 1


def random_point(seed: int, size: int) -> tuple[list[int], list[int]]:
    """Two rows of a 2 x size integer matrix mod P, 1-indexed by letter."""
    rng = random.Random(seed)
    return ([0] + [rng.randrange(P) for _ in range(size)],
            [0] + [rng.randrange(P) for _ in range(size)])


def _pairs(partner) -> list[tuple[int, int]]:
    return [(i, p) for i, p in enumerate(partner, start=1) if i < p]


def _minor_product(partner, point) -> int:
    """D(M) = product over pairs a < b of x1[a] x2[b] - x1[b] x2[a], mod P."""
    x1, x2 = point
    acc = 1
    for a, b in _pairs(partner):
        acc = acc * (x1[a] * x2[b] - x1[b] * x2[a]) % P
    return acc


def _is_perfect_matching(partner, size: int) -> bool:
    return (
        len(partner) == size
        and all(1 <= p <= size and p != i and partner[p - 1] == i
                for i, p in enumerate(partner, start=1))
    )


def _is_noncrossing(partner) -> bool:
    """The pairs nest like parentheses: each closer meets the last open opener."""
    opened = []
    for i, p in enumerate(partner, start=1):
        if i < p:
            opened.append(i)
        elif not opened or opened.pop() != p:
            return False
    return True


def check_expansion(partner, expansion: dict, point) -> str | None:
    """Why ``expansion`` is not the web expansion of the matching
    ``partner``, or None when it passes.  It passes when every key is a
    noncrossing perfect matching, every coefficient is a positive int and
    D(M) equals sum c_N D(N) at ``point``."""
    if not expansion:
        return "empty expansion"
    total = 0
    for key, coeff in expansion.items():
        q = tuple(key.partner)
        if not _is_perfect_matching(q, len(partner)):
            return f"key {q} is not a perfect matching on {len(partner)} letters"
        if not _is_noncrossing(q):
            return f"key {q} is crossing"
        if type(coeff) is not int or coeff <= 0:
            return f"coefficient {coeff!r} of {q} is not a positive int"
        total = (total + coeff * _minor_product(q, point)) % P
    if total != _minor_product(partner, point):
        return "D(M) differs from sum c_N D(N) at the check point"
    return None


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def run_cli(spans_path: str, argv: list[str]) -> int:
    from spans import Recorder

    recorder = Recorder()
    recorder.install()
    from tworow import cli

    try:
        return cli.main(argv)
    finally:
        _write_json(spans_path, recorder.spans)


def run_resolve(args) -> int:
    from tworow import webs
    from tworow.combinat import Matching

    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    ready_at = time.monotonic()
    import probe

    with open(args.matchings) as fh:
        matchings = json.load(fh)
    point = random_point(args.point_seed, len(matchings[0]))
    latencies, failures = [], []
    probe.unit_s(args.probe_units)  # warm-up: the first probe of a process runs cold
    probes = [probe.unit_s(args.probe_units)]
    memo_keys = memo_terms = 0
    for index, partner in enumerate(matchings):
        m = Matching(tuple(partner))
        memo: dict = {}
        start = time.perf_counter()
        result = webs.resolve_crossings(m, memo=memo)
        latencies.append(time.perf_counter() - start)
        if args.fault == "coefficient" and index == 0:
            key = next(iter(result))
            result[key] += 1
        reason = check_expansion(partner, result, point)
        if reason is not None:
            failures.append({"index": index, "partner": partner, "reason": reason})
        memo_keys += len(memo)
        memo_terms += sum(map(len, memo.values()))
        probes.append(probe.unit_s(args.probe_units))
    _write_json(args.report, {
        "ready_at": ready_at,
        "latencies": latencies,
        "probes": probes,
        "failures": failures,
        "memo_keys": memo_keys,
        "memo_terms": memo_terms,
    })
    if recorder is not None:
        _write_json(args.spans, recorder.spans)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return run_cli(argv[1], argv[2:])
    parser = argparse.ArgumentParser(prog="child.py resolve")
    parser.add_argument("command", choices=["resolve"])
    parser.add_argument("--matchings", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--point-seed", type=int, required=True)
    parser.add_argument("--probe-units", type=int, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--fault", choices=["coefficient"])
    return run_resolve(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
