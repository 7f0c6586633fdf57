"""Spans recorded at tworow's module boundaries, and the per-layer metrics
computed from them.

The recorder replaces public functions of the tworow modules with
wrappers, from outside the package: nothing under ``src/`` is edited.  A
function imported by name into another module (``from .combinat import
enumerate_syt``) is wrapped under that name in the importing module,
because that is the name the caller looks up.

A span is ``[name, start, end, done, parent, rss_start_kb, rss_end_kb,
counts]``.  ``end`` closes the timed call; ``done`` follows the counting
of its result, which is excluded from the parent's self time so that the
counting itself does not show up as work of the enclosing layer.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time

NAME, START, END, DONE, PARENT, RSS0, RSS1, COUNTS = range(8)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _matrix_counts(args, tm) -> dict:
    nnz = sum(1 for row in tm.entries for v in row if v)
    return {"rows": len(tm.entries), "nnz": nnz, "max_entry": max(map(max, tm.entries))}


def _system_counts(args, basis) -> dict:
    matrix = args[0]
    return {"rows": len(matrix), "cols": len(matrix[0]) if matrix else 0}


# (module, attribute, span name, counts of the call's result)
BOUNDARIES = [
    ("cli", "enumerate_syt", "combinat.enumerate", None),
    ("cli", "enumerate_webs", "combinat.enumerate", None),
    ("transition", "enumerate_syt", "combinat.enumerate", None),
    ("transition", "enumerate_webs", "combinat.enumerate", None),
    ("transition", "permutation_from_tableaux", "combinat.permute", None),
    ("transition", "permute_matching", "combinat.permute", None),
    ("webs", "resolve_crossings", "webs.resolve", lambda args, r: {"terms": len(r)}),
    ("webs", "action_matrix", "webs.action_matrix", None),
    ("transition", "transition_matrix", "transition.matrix", _matrix_counts),
    ("transition", "check_nonnegative", "transition.check", None),
    ("transition", "check_diagonal_ones", "transition.check", None),
    ("transition", "check_support_acyclic", "transition.check", None),
    ("transition", "intertwiner_oracle", "transition.oracle", None),
    ("specht", "action_matrix", "specht.action_matrix", None),
    ("transition", "nullspace", "linalg.nullspace", _system_counts),
    ("minors", "minor_product", "minors.minor_product", lambda args, p: {"terms": p.term_count()}),
    ("minors", "serialize_polynomial", "minors.serialize", None),
    ("cli", "main", "cli.main", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in BOUNDARIES})


class Recorder:
    """Keeps every span in memory; ``spans`` is written out by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def install(self) -> None:
        """Wrap every boundary in BOUNDARIES.  A boundary the package no
        longer has is reported on stderr and skipped, so its metrics read 0."""
        import importlib

        for module_name, attr, name, counts in BOUNDARIES:
            module = importlib.import_module(f"tworow.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: tworow.{module_name}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name, counts))

    def _wrap(self, fn, name, counts):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, open_[-1] if open_ else -1, _maxrss_kb(), 0, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()
                span[RSS1] = _maxrss_kb()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            span[DONE] = time.perf_counter()
            return result

        return wrapper


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced process: seconds, calls, counts and
    max-RSS growth (MB) per span name, and the self time of the spans whose
    self time is a metric.  The metrics measured outside the spans (output
    bytes, and the memo the resolve loop owns) read 0 here; the caller sets
    those it measured."""
    seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    rss_kb = dict.fromkeys(SPAN_NAMES, 0)
    child_s = [0.0] * len(spans)
    counts: dict[str, list[dict]] = {name: [] for name in SPAN_NAMES}
    resolve_ms = []
    for span in spans:
        name, parent = span[NAME], span[PARENT]
        if parent >= 0:
            child_s[parent] += span[DONE] - span[START]
        if parent >= 0 and spans[parent][NAME] == name:
            continue  # a recursive call is already inside its caller's span
        seconds[name] += span[END] - span[START]
        calls[name] += 1
        if name == "webs.resolve":
            resolve_ms.append((span[END] - span[START]) * 1000)
        rss_kb[name] += span[RSS1] - span[RSS0]
        if span[COUNTS]:
            counts[name].append(span[COUNTS])

    def self_s(name):
        return sum(s[END] - s[START] - child_s[i] for i, s in enumerate(spans) if s[NAME] == name)

    def total(name, key):
        return sum(c[key] for c in counts[name])

    systems = counts["linalg.nullspace"]
    largest = max(systems, key=lambda c: c["rows"] * c["cols"], default={"rows": 0, "cols": 0})
    out = {
        "combinat.enumerate_s": seconds["combinat.enumerate"],
        "combinat.permute_s": seconds["combinat.permute"],
        "combinat.permute_calls": calls["combinat.permute"],
        "webs.resolve_s": seconds["webs.resolve"],
        "webs.resolve_calls": calls["webs.resolve"],
        "webs.resolve_terms": total("webs.resolve", "terms"),
        # a tail latency wants ten calls beyond it; fewer calls read 0
        "webs.resolve_p90_ms": (
            statistics.quantiles(resolve_ms, n=10, method="inclusive")[8]
            if len(resolve_ms) >= 100 else 0
        ),
        "webs.action_matrix_s": seconds["webs.action_matrix"],
        "transition.matrix_s": seconds["transition.matrix"],
        "transition.matrix_self_s": self_s("transition.matrix"),
        "transition.rows": total("transition.matrix", "rows"),
        "transition.nnz": total("transition.matrix", "nnz"),
        "transition.max_entry": max((c["max_entry"] for c in counts["transition.matrix"]), default=0),
        "transition.check_s": seconds["transition.check"],
        "transition.oracle_s": seconds["transition.oracle"],
        "specht.action_matrix_s": seconds["specht.action_matrix"],
        "specht.action_matrix_calls": calls["specht.action_matrix"],
        "linalg.nullspace_s": seconds["linalg.nullspace"],
        "linalg.nullspace_rows": largest["rows"],
        "linalg.nullspace_cols": largest["cols"],
        "minors.minor_product_s": seconds["minors.minor_product"],
        "minors.minor_product_calls": calls["minors.minor_product"],
        "minors.terms": total("minors.minor_product", "terms"),
        "minors.serialize_s": seconds["minors.serialize"],
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": 0,
        "webs.memo_keys": 0,
        "webs.memo_terms": 0,
        "webs.useful_ratio": 0,
    }
    for name in SPAN_NAMES:
        out[f"{name}.rss_delta_mb"] = rss_kb[name] / 1024
    return out
