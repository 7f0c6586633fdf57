"""
Batch front end.

Subcommands: ``enumerate`` (dump the two indexing sets and their
pairing), ``matrix`` (the transition matrix), ``verify`` (checks plus
exit code; ``--with-oracle`` adds the rewrite vs. intertwiner
comparison), ``bench`` (build, write and oracle times).  JSON is the
canonical output format and is byte-stable for a fixed command line;
``enumerate`` and ``matrix`` also write CSV (``--format csv``).  One
function, ``_matrix_pieces``, writes the matrix of ``matrix`` and
``bench``, its labels read from the enumerations.  Every output is
streamed: ``_json_chunks`` yields the text of ``json.dumps(doc,
indent=2)`` one piece per item of the document or of one of its arrays
(one matrix row, one web's term list), and ``_write`` writes each piece
as it comes, so no document is ever held whole in memory.  ``matrix``
and ``verify`` read the rows from the stream ``transition.rows``, which
holds at most n - 2 of them, or ``verify --inject-fault`` from the
fault's row stream, so neither holds the matrix either (``verify
--with-oracle`` does: it compares a whole matrix).  Within one piece, an
array of ints that the piece holds many times (an exponent triple of
``--dump-poly``) is rendered once: the memo of ``_json_text`` is keyed
by the array's identity, because equal values can be written differently
(``1``, ``1.0``, ``true``), and it is dropped with its piece, because one
memo for the whole stream would keep the text of every matrix row.

Exit codes: 0 success, 1 a verification check failed, 2 usage error
(including an unwritable --out, an unwritable or closed stdout, a cap
variable that is not a nonnegative integer, --dump-poly without JSON,
and requests above the memory-guard caps, which can be raised via
TWOROW_ENUM_CAP / TWOROW_MATRIX_CAP / TWOROW_ORACLE_CAP).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from types import GeneratorType

from . import minors, transition
from .combinat import catalan, enumerate_syt, enumerate_webs

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
    try:
        n = int(text)
    except ValueError:
        n = 0  # not an integer: refused with the same message
    if n < 1:
        raise argparse.ArgumentTypeError("n must be a positive integer")
    return n


def _write(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the pieces to ``out_path``, or to stdout when it is None.  An
    OSError, also one after part of the output is out, is a usage error,
    and so is a stdout that was closed before the start (then it is None)."""
    if out_path is None and sys.stdout is None:
        raise _UsageError("cannot write stdout: it is closed")
    try:
        if out_path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        if out_path is None:
            _discard_stdout()
        target = "stdout" if out_path is None else out_path
        raise _UsageError(f"cannot write {target}: {exc.strerror or exc}") from None


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device.  What stdout still
    buffers would otherwise fail again when the interpreter flushes it at
    exit, which prints an ignored exception and exits 120."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor: nothing is flushed at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2) + "\\n"``, in pieces, where
    a generator stands for a list of the items it yields.  A piece is one
    item of the document or of one of its arrays, such as one matrix row or
    one web's term list, made whole by ``_json_text``.

    >>> "".join(_json_chunks({"a": [1, 2], "b": []}))
    '{\\n  "a": [\\n    1,\\n    2\\n  ],\\n  "b": []\\n}\\n'
    """
    yield from _json_stream("", obj, "", 2)
    yield "\n"


def _json_stream(head: str, obj, pad: str, depth: int) -> Iterator[str]:
    """``head``, then ``obj`` at indentation ``pad``: a dict, list, tuple or
    generator one piece per item ``depth`` levels down, the rest whole."""
    if type(obj) not in (dict, list, tuple, GeneratorType):
        yield head + _json_text(obj, pad, {})
        return
    yield head
    inner = pad + "  "
    start, end = "{}" if type(obj) is dict else "[]"
    items = ((_json_key(k), v) for k, v in obj.items()) if end == "}" else (("", v) for v in obj)
    opening = sep = start + "\n" + inner
    for label, value in items:
        if depth > 1:
            yield from _json_stream(sep + label, value, inner, depth - 1)
        else:
            yield sep + label + _json_text(value, inner, {})
        sep = ",\n" + inner
    yield start + end if sep is opening else "\n" + pad + end


def _json_text(obj, pad: str, memo: dict) -> str:
    """The whole text of ``obj`` at indentation ``pad``.  A generator is
    read as a list, and json lays out a subclass of a container itself.

    ``memo`` belongs to one piece, so it is freed with it.  It maps
    ``(id(a), pad)`` to ``(a, text)`` for each array ``a`` of exact ints
    met in the piece, so an array held many times, such as an exponent
    triple of ``minors.serialize_polynomial``, is rendered once at each
    depth.  The key is the identity, since ``[True]`` and ``[1.0]`` equal
    ``[1]`` and hash alike but are written differently; keeping ``a`` in
    the entry keeps it alive, so no later object can take its id."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    if (seen := memo.get((id(obj), pad))) is not None:
        return seen[1]
    if kind is GeneratorType:
        return _json_text(list(obj), pad, memo)
    if kind is not dict and kind is not list and kind is not tuple:
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    start, end = "{}" if kind is dict else "[]"
    if not obj:
        return start + end
    inner = pad + "  "
    ints = False
    if kind is dict:
        parts = [_json_key(key) + _json_text(value, inner, memo) for key, value in obj.items()]
    elif set(map(type, obj)) != {int}:
        parts = [_json_text(value, inner, memo) for value in obj]
    elif 2 * len(values := set(obj)) <= len(obj):
        # a matrix row repeats a few values: str each of them once
        parts = map({x: str(x) for x in values}.__getitem__, obj)
        ints = True
    else:
        parts = map(str, obj)
        ints = True
    sep = ",\n" + inner
    text = f"{start}\n{inner}{sep.join(parts)}\n{pad}{end}"
    if ints:
        memo[id(obj), pad] = obj, text
    return text


@functools.lru_cache(maxsize=256)
def _json_key(key) -> str:
    """The text of a dict key and its colon.  The cache holds only str keys:
    any other key raises before it is stored."""
    # json.dumps would turn an int, float, bool or None key into a string
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
    return json.dumps(key) + ": "


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
    # web k is the opener/closer image of tableau k
    pairing = list(range(len(tableaux)))
    if args.format == "csv":
        _write(_enumerate_csv_lines(tableaux, web_list, pairing), args.out)
        return 0
    doc = {
        "n": n,
        "catalan": catalan(n),
        "tableaux": [t.rows for t in tableaux],
        "webs": [w.partner for w in web_list],
        "pairing": pairing,
    }
    if args.dump_poly:
        # a generator: each web's term list is built as it is written
        doc["webPolynomials"] = (
            minors.serialize_polynomial(minors.web_vector(w)) for w in web_list
        )
    _write(_json_chunks(doc), args.out)
    return 0


# the CSV label of a tableau and of a web, one each for enumerate and matrix
def _tableau_csv(t) -> str:
    return "|".join(" ".join(map(str, r)) for r in t.rows)


def _web_csv(w) -> str:
    return " ".join(map(str, w.partner))


def _enumerate_csv_lines(tableaux, web_list, pairing) -> Iterator[str]:
    yield "kind,index,label\n"
    for k, t in enumerate(tableaux):
        yield f"tableau,{k},{_tableau_csv(t)}\n"
    for k, w in enumerate(web_list):
        yield f"web,{k},{_web_csv(w)}\n"
    for k, p in enumerate(pairing):
        yield f"pair,{k},{p}\n"


def _matrix_pieces(n: int, entries: Iterable[tuple[int, ...]], fmt: str) -> Iterator[str]:
    """The matrix document in ``fmt``, "json" or "csv", piece by piece.  Row
    r is labeled by tableau r of ``enumerate_syt(n)`` and column c by web c
    of ``enumerate_webs(n)``; ``entries`` is read once, a row per piece."""
    tableaux, web_list = enumerate_syt(n), enumerate_webs(n)
    if fmt == "csv":
        yield ",".join(["tableau\\web"] + [_web_csv(w) for w in web_list]) + "\n"
        for t, row in zip(tableaux, entries):
            yield ",".join([_tableau_csv(t)] + [str(e) for e in row]) + "\n"
        return
    row_labels = [t.rows for t in tableaux]
    col_labels = [w.partner for w in web_list]
    doc = {"n": n, "rowLabels": row_labels, "colLabels": col_labels, "entries": entries}
    yield from _json_chunks(doc)


def cmd_matrix(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    # the rows are built as they are written: at most n - 2 are held
    _write(_matrix_pieces(args.n, transition.rows(args.n), args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    if args.with_oracle:
        _guard(args.n, _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP), "oracle")
    report = transition.verify(args.n, with_oracle=args.with_oracle, fault=args.inject_fault)
    _write(_json_chunks(report), args.out)
    return 1 if report["counterexamples"] else 0


def cmd_bench(args) -> int:
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    oracle_cap = _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP)
    n = args.n
    t_start = time.perf_counter()
    tm = transition.transition_matrix(n)
    matrix_seconds = time.perf_counter() - t_start
    t_start = time.perf_counter()
    _write(_matrix_pieces(n, tm.entries, "json"), os.devnull)
    write_seconds = time.perf_counter() - t_start
    rows = {
        "n": n,
        "matrixSeconds": round(matrix_seconds, 6),
        "writeSeconds": round(write_seconds, 6),
    }
    if n <= oracle_cap:
        t_start = time.perf_counter()
        transition.intertwiner_oracle(n)
        rows["oracleSeconds"] = round(time.perf_counter() - t_start, 6)
    _write(_json_chunks(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworow",
        description="Exact two-row basis computations: enumerate, build and verify the "
        "polytabloid-to-web transition matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_positive_int, required=True, help="half the number of letters")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p_enum = sub.add_parser("enumerate", help="dump standard tableaux, webs and their pairing")
    common(p_enum)
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.add_argument(
        "--dump-poly",
        action="store_true",
        help="include the minor-product polynomial of every web (JSON only)",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_matrix = sub.add_parser("matrix", help="compute the transition matrix")
    common(p_matrix)
    p_matrix.add_argument("--format", choices=("json", "csv"), default="json")
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="check nonnegativity and unitriangularity")
    common(p_verify)
    p_verify.add_argument("--with-oracle", action="store_true")
    p_verify.add_argument(
        "--inject-fault",
        choices=tuple(transition.FAULTS),
        default=None,
        help="deliberately break the computation to confirm the checks catch it "
        "(syzygy-sign-flip changes nothing at n=1, where no columns cross)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="build, write and oracle times")
    common(p_bench)
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
