"""
Batch front end.

Subcommands: ``enumerate`` (dump the two indexing sets and their
pairing), ``matrix`` (the transition matrix), ``verify`` (checks plus
exit code), ``oracle-compare`` (rewrite vs. intertwiner), ``bench``
(timings and rewrite counts).  JSON is the canonical output format and is
byte-stable for a fixed command line; CSV is available where tabular
output makes sense.

Exit codes: 0 success, 1 a verification check failed, 2 usage error
(including an unwritable --out, a cap variable or --oracle-cap that is
not a nonnegative integer, --dump-poly without JSON, and requests
above the memory-guard caps, which can be raised via TWOROW_ENUM_CAP /
TWOROW_MATRIX_CAP / TWOROW_ORACLE_CAP or, for the oracle, --oracle-cap).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import minors, transition, webs
from .combinat import (
    Matching,
    catalan,
    consecutive_matching,
    enumerate_syt,
    enumerate_webs,
    interleaved_tableau,
    permutation_from_tableaux,
    permute_matching,
    tableau_to_web,
)

DEFAULT_ENUM_CAP = 10
DEFAULT_MATRIX_CAP = 6
DEFAULT_ORACLE_CAP = 4


class _UsageError(Exception):
    """A request the command refuses: exit code 2, message on stderr."""


def _cap(env: str, default: int) -> int:
    value = os.environ.get(env)
    if value is None:
        return default
    try:
        cap = int(value)
    except ValueError:
        raise _UsageError(f"{env} must be an integer, got {value!r}") from None
    if cap < 0:
        raise _UsageError(f"{env} must be nonnegative, got {value!r}")
    return cap


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("n must be a positive integer")
    return n


def _nonnegative_int(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return k


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise _UsageError(
            f"n={n} exceeds the {what} cap of {cap}; raise the cap explicitly "
            "if you really want this"
        )


def cmd_enumerate(args) -> int:
    if args.dump_poly and args.format != "json":
        raise _UsageError("--dump-poly needs --format json")
    _guard(args.n, _cap("TWOROW_ENUM_CAP", DEFAULT_ENUM_CAP), "enumeration")
    n = args.n
    tableaux = enumerate_syt(n)
    web_list = enumerate_webs(n)
    web_index = {w: k for k, w in enumerate(web_list)}
    pairing = [web_index[tableau_to_web(t)] for t in tableaux]
    if args.format == "csv":
        lines = ["kind,index,label"]
        for k, t in enumerate(tableaux):
            lines.append(f"tableau,{k},{'|'.join(' '.join(map(str, r)) for r in t.rows)}")
        for k, w in enumerate(web_list):
            lines.append(f"web,{k},{' '.join(map(str, w.partner))}")
        for k, p in enumerate(pairing):
            lines.append(f"pair,{k},{p}")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    doc = {
        "n": n,
        "catalan": catalan(n),
        "tableaux": [t.to_lists() for t in tableaux],
        "webs": [list(w.partner) for w in web_list],
        "pairing": pairing,
    }
    if args.dump_poly:
        doc["webPolynomials"] = [
            minors.serialize_polynomial(minors.minor_product(w)) for w in web_list
        ]
    _write(_json_text(doc), args.out)
    return 0


def cmd_matrix(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    tm = transition.transition_matrix(args.n)
    if args.format == "csv":
        _write(tm.to_csv(), args.out)
    else:
        _write(_json_text(tm.to_json_dict()), args.out)
    return 0


def cmd_verify(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    if args.with_oracle:
        oracle_cap = (
            args.oracle_cap
            if args.oracle_cap is not None
            else _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP)
        )
        _guard(args.n, oracle_cap, "oracle")
    report = transition.verify(args.n, with_oracle=args.with_oracle, fault=args.inject_fault)
    _write(_json_text(report.to_json_dict()), args.out)
    return 0 if report.all_passed else 1


def cmd_oracle_compare(args) -> int:
    oracle_cap = (
        args.oracle_cap
        if args.oracle_cap is not None
        else _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP)
    )
    _guard(args.n, oracle_cap, "oracle")
    computed = transition.transition_matrix(args.n)
    oracle = transition.intertwiner_oracle(args.n)
    agrees = computed == oracle
    _write(_json_text({"n": args.n, "agrees": agrees}), args.out)
    return 0 if agrees else 1


def cmd_bench(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    n = args.n
    t_start = time.perf_counter()
    transition._transition_matrix.__wrapped__(n)
    matrix_seconds = time.perf_counter() - t_start
    # the crossing rewrite of every row, untimed: it is the reference
    # construction, and its memo gives the rewrite counts
    memo: dict = {}
    t0 = interleaved_tableau(n)
    m0 = consecutive_matching(n)
    for t in enumerate_syt(n):
        sigma = permutation_from_tableaux(t0, t)
        _, moved = permute_matching(sigma, m0)
        webs.resolve_crossings(moved, memo=memo)
    rewrites = sum(1 for p in memo if webs._first_crossing(p) is not None)
    rows = {
        "n": n,
        "matrixSeconds": round(matrix_seconds, 6),
        "matchingsResolved": len(memo),
        "syzygyRewrites": rewrites,
    }

    rng = random.Random(args.seed)
    letters = list(range(1, 2 * n + 1))
    sample_memo: dict = {}
    t_start = time.perf_counter()
    for _ in range(args.samples):
        rng.shuffle(letters)
        pairs = [(letters[2 * i], letters[2 * i + 1]) for i in range(n)]
        m = Matching.from_pairs(
            [(min(p), max(p)) for p in pairs], size=2 * n
        )
        webs.resolve_crossings(m, memo=sample_memo)
    rows["sampleSeconds"] = round(time.perf_counter() - t_start, 6)
    rows["sampleCount"] = args.samples
    rows["sampleRewrites"] = sum(
        1 for p in sample_memo if webs._first_crossing(p) is not None
    )

    oracle_cap = _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP)
    if n <= oracle_cap:
        t_start = time.perf_counter()
        transition.intertwiner_oracle.__wrapped__(n)
        rows["oracleSeconds"] = round(time.perf_counter() - t_start, 6)

    if args.format == "csv":
        lines = ["metric,value"] + [f"{k},{v}" for k, v in rows.items()]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(_json_text(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworow",
        description="Exact two-row basis computations: enumerate, build and verify the "
        "polytabloid-to-web transition matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv")):
        p.add_argument("--n", type=_positive_int, required=True, help="half the number of letters")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized subsets")

    p_enum = sub.add_parser("enumerate", help="dump standard tableaux, webs and their pairing")
    common(p_enum)
    p_enum.add_argument(
        "--dump-poly",
        action="store_true",
        help="include the minor-product polynomial of every web (JSON only)",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_matrix = sub.add_parser("matrix", help="compute the transition matrix")
    common(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="check nonnegativity and unitriangularity")
    common(p_verify, formats=("json",))
    p_verify.add_argument("--with-oracle", action="store_true")
    p_verify.add_argument("--oracle-cap", type=_nonnegative_int, default=None)
    p_verify.add_argument(
        "--inject-fault",
        choices=("syzygy-sign-flip", "negative-entry"),
        default=None,
        help="deliberately break the computation to confirm the checks catch it",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser(
        "oracle-compare", help="compare the matrix against the intertwiner nullspace"
    )
    common(p_oracle, formats=("json",))
    p_oracle.add_argument("--oracle-cap", type=_nonnegative_int, default=None)
    p_oracle.set_defaults(func=cmd_oracle_compare)

    p_bench = sub.add_parser("bench", help="wall times and rewrite counts")
    common(p_bench)
    p_bench.add_argument(
        "--samples", type=_nonnegative_int, default=5, help="random matchings to resolve"
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"tworow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
