"""
Batch front end.

Subcommands: ``enumerate`` (dump the two indexing sets and their
pairing), ``matrix`` (the transition matrix), ``verify`` (checks plus
exit code; ``--with-oracle`` adds the comparison with the intertwiner
oracle, which shares the enumerations and ``webs.action_table`` with the
build), ``bench`` (build and write times, oracle time, peak RSS).
JSON is the canonical output format and is byte-stable for a fixed
command line; ``enumerate`` and ``matrix`` also write CSV (``--format
csv``).  One function, ``_matrix_pieces``, writes the matrix of
``matrix`` and ``bench``, its labels read from the enumerations, each
dense row text joined once from the sparse row's nonzeros, with the text
of each value made once a run.  Every output
is streamed.  Each JSON document is one dict: ``_json_chunks`` yields the
text of ``json.dumps(doc, indent=2)`` one piece per key of it or per item
of one of its top-level arrays (one tableau, matrix row, web's term list
or counterexample), and ``_write`` writes each piece as it comes, so no
document is ever held whole in memory.  ``matrix``, ``bench`` and
``verify`` read the rows from the stream ``transition.rows``, which holds
at most n - 2 of them, or ``verify --inject-fault`` from the fault's row
stream, so none of them holds the matrix either (``verify --with-oracle``
does: it compares a whole matrix).  ``verify`` and ``bench`` open their
output before they run, so an unwritable --out fails at once.  Text that is
already JSON, an item of a top-level array laid out where it is written,
is marked by ``_JsonText``: each label of ``enumerate`` and ``matrix``
(a tableau's two rows or a web's partner array) and each matrix row,
made by ``_json_block`` as it is written, and a web's term list for
``--dump-poly``, written at its depth straight from the web by
``minors.serialize_polynomial``.  So every nested array of a document is
one of these, and ``_json_text`` writes only scalars and dicts.  Only ``--dump-poly`` imports
``minors``, and only the oracle ``specht``, so no other command loads
them.

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

from . import transition
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


class _JsonText(str):
    """Text that is already JSON, laid out as an item of a top-level array
    of a ``json.dumps(..., indent=2)`` document: written as it is."""


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` for a dict ``doc``,
    in pieces, where a generator value stands for a list of the items it
    yields.  A piece is one key of ``doc`` or one item of a list, tuple or
    generator value, such as one label, matrix row or web's term list, made
    whole by ``_json_text``.

    >>> list(_json_chunks({"a": [1, 2], "b": []}))
    ['{\\n  "a": ', '[\\n    1', ',\\n    2', '\\n  ]', ',\\n  "b": ', '[]', '\\n}\\n']
    """
    sep = "{\n  "
    for key, value in doc.items():
        if type(value) in (list, tuple, GeneratorType):
            yield sep + _json_key(key)
            item_sep = "[\n    "
            for item in value:
                yield item_sep + _json_text(item, "    ")
                item_sep = ",\n    "
            yield "[]" if item_sep == "[\n    " else "\n  ]"
        else:
            yield sep + _json_key(key) + _json_text(value, "  ")
        sep = ",\n  "
    yield "{}\n" if sep == "{\n  " else "\n}\n"


def _json_text(obj, pad: str) -> str:
    """The whole text at indentation ``pad`` of ``obj``: a scalar, a
    ``_JsonText``, written as it is, or a dict of them.  A nested array is
    refused: every one the commands write is a ``_JsonText``."""
    kind = type(obj)
    if kind is _JsonText:
        return obj
    if kind is dict:
        inner = pad + "  "
        return _json_block([_json_key(k) + _json_text(v, inner) for k, v in obj.items()], pad, "{}")
    if kind is list or kind is tuple:
        raise TypeError("a nested array must be written as _JsonText")
    return json.dumps(obj)


def _json_block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """The array, or with ``brackets`` "{}" the object, at indentation
    ``pad`` whose items' texts, each laid out one level in, are ``items``."""
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    # no item's text is empty, so an empty body has no items
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if body else brackets


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
    _write(_enumerate_pieces(args.n, args.format, args.dump_poly), args.out)
    return 0


# the JSON and the CSV label of a tableau and of a web, each written by
# enumerate and matrix; a JSON label is laid out as an item of a top-level
# array, like a matrix row
def _tableau_json(t) -> _JsonText:
    return _JsonText(_json_block([_json_block(map(str, r), "      ") for r in t.rows], "    "))


def _web_json(w) -> _JsonText:
    return _JsonText(_json_block(map(str, w.partner), "    "))


def _tableau_csv(t) -> str:
    return "|".join(" ".join(map(str, r)) for r in t.rows)


def _web_csv(w) -> str:
    return " ".join(map(str, w.partner))


def _enumerate_pieces(n: int, fmt: str, dump_poly: bool) -> Iterator[str]:
    """The enumerate document in ``fmt``, "json" or "csv", piece by piece;
    both enumerations are built at the first piece, so after ``_write``
    has opened its target."""
    tableaux = enumerate_syt(n)
    web_list = enumerate_webs(n)
    # web k is the opener/closer image of tableau k
    pairing = list(range(len(tableaux)))
    if fmt == "csv":
        yield "kind,index,label\n"
        for k, t in enumerate(tableaux):
            yield f"tableau,{k},{_tableau_csv(t)}\n"
        for k, w in enumerate(web_list):
            yield f"web,{k},{_web_csv(w)}\n"
        for k, p in enumerate(pairing):
            yield f"pair,{k},{p}\n"
        return
    doc = {
        "n": n,
        "catalan": catalan(n),
        "tableaux": (_tableau_json(t) for t in tableaux),
        "webs": (_web_json(w) for w in web_list),
        "pairing": pairing,
    }
    if dump_poly:
        from . import minors  # only --dump-poly writes D(M)

        # a generator: each web's term list is built as it is written, laid
        # out as an item of a top-level array
        doc["webPolynomials"] = (_JsonText(minors.serialize_polynomial(w, "    ")) for w in web_list)
    yield from _json_chunks(doc)


def _cells(row: dict[int, int], d: int, texts: dict[int, str]) -> list[str]:
    """The text of each of the d entries of a sparse row: "0" everywhere,
    then the nonzero cells set, each value's text read from ``texts``,
    which gains the text of each value it lacks."""
    cells = ["0"] * d
    for c, v in row.items():
        text = texts.get(v)
        if text is None:
            text = texts[v] = str(v)
        cells[c] = text
    return cells


def _matrix_pieces(n: int, entries: Iterable[dict[int, int]], fmt: str) -> Iterator[str]:
    """The matrix document in ``fmt``, "json" or "csv", piece by piece.  Row
    r is labeled by tableau r of ``enumerate_syt(n)`` and column c by web c
    of ``enumerate_webs(n)``; ``entries`` is read once, a sparse row per
    piece, whose dense text is joined once from its cells."""
    tableaux, web_list = enumerate_syt(n), enumerate_webs(n)
    d = len(web_list)
    texts: dict[int, str] = {}  # the text of each value, made once a run
    if fmt == "csv":
        yield ",".join(["tableau\\web"] + [_web_csv(w) for w in web_list]) + "\n"
        for t, row in zip(tableaux, entries):
            yield _tableau_csv(t) + "," + ",".join(_cells(row, d, texts)) + "\n"
        return
    # each label's and each row's text is laid out where the document writes
    # it, as an item of a top-level array, so it is written as it is
    doc = {
        "n": n,
        "rowLabels": (_tableau_json(t) for t in tableaux),
        "colLabels": (_web_json(w) for w in web_list),
        "entries": (_JsonText(_json_block(_cells(row, d, texts), "    ")) for row in entries),
    }
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
    report = {}

    def pieces():  # made once the output is open: an unwritable --out fails first
        made = transition.verify(args.n, with_oracle=args.with_oracle, fault=args.inject_fault)
        report.update(made)
        yield from _json_chunks(report)

    _write(pieces(), args.out)
    return 1 if report["counterexamples"] else 0


def cmd_bench(args) -> int:
    try:
        import resource  # only bench reads its peak: start-up loads nothing new
    except ImportError:
        raise _UsageError("bench needs the resource module, which this platform lacks") from None
    _guard(args.n, _cap("TWOROW_MATRIX_CAP", DEFAULT_MATRIX_CAP), "matrix")
    oracle_cap = _cap("TWOROW_ORACLE_CAP", DEFAULT_ORACLE_CAP)
    n = args.n
    build_seconds = 0.0

    def timed(stream):
        # the time spent making each row, apart from the time writing it
        nonlocal build_seconds
        t_row = time.perf_counter()
        for row in stream:
            build_seconds += time.perf_counter() - t_row
            yield row
            t_row = time.perf_counter()
        build_seconds += time.perf_counter() - t_row

    def pieces():  # made once the output is open, as in verify
        # one pass: the rows are built as they are written, as in matrix
        t_start = time.perf_counter()
        _write(_matrix_pieces(n, timed(transition.rows(n)), "json"), os.devnull)
        pass_seconds = time.perf_counter() - t_start
        doc = {
            "n": n,
            "matrixSeconds": round(build_seconds, 6),
            "writeSeconds": round(pass_seconds - build_seconds, 6),
        }
        if n <= oracle_cap:
            t_start = time.perf_counter()
            transition.intertwiner_oracle(n)
            doc["oracleSeconds"] = round(time.perf_counter() - t_start, 6)
        # ru_maxrss is in kB on Linux, in bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        doc["peakRssMb"] = round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)
        yield from _json_chunks(doc)

    _write(pieces(), args.out)
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

    p_bench = sub.add_parser("bench", help="build, write and oracle times, peak RSS")
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
