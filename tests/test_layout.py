"""The package holds what it runs.

Every top-level function, class method and property under src/tworow
must be named somewhere else in src/tworow; code that only the tests
need lives in tests/model.py.  The match is by name, read from the
syntax tree.  A method counts as used only when it is taken as an
attribute, so a local variable of the same name does not hide it.  A
re-export in ``__init__`` is not a use, and neither is a recursive call.

The same definitions must also run: every one is reached by some pinned
command line of ``tworow``, or is named in ``UNREACHED``.  And the type
hints of every function and method resolve, although no run of the
package evaluates them.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

from test_cli import PINNED_OUTPUTS

SRC = Path(__file__).resolve().parent.parent / "src" / "tworow"

# named only from outside the package: the library entry point
# transition_row, crossing_pairs, which perfbench imports, the checked
# bijection tableau_to_web, whose unchecked twin builds enumerate_webs, and
# the index-0 elements interleaved_tableau and consecutive_matching, which
# the row stream checks by their first row alone
ALLOWED = {
    "transition_row",
    "crossing_pairs",
    "tableau_to_web",
    "interleaved_tableau",
    "consecutive_matching",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(node, the name of its class, or None) for the top-level functions
    of a module and the methods and properties of its top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            yield from ((item, node.name) for item in node.body if isinstance(item, FUNCTIONS))


def references(node: ast.AST):
    """(name, whether it is an attribute) for every name read, attribute
    taken or name imported under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True
        elif isinstance(sub, ast.alias):
            yield sub.name, False


def test_every_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(
        ref for module, tree in trees.items() if module != "__init__.py" for ref in references(tree)
    )
    defined = [
        (module, node, owner is not None)
        for module, tree in trees.items()
        for node, owner in definitions(tree)
    ]
    for _, node, _ in defined:
        uses.subtract(ref for ref in references(node) if ref[0] == node.name)
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, node, is_method in defined
        if uses[node.name, True] + (0 if is_method else uses[node.name, False]) <= 0
        and node.name not in ALLOWED
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []
    assert ALLOWED <= {node.name for _, node, _ in defined}


# the command lines run under the profiler: every pinned one, and the
# two commands no pin covers
PROFILED = [*map(list, PINNED_OUTPUTS), ["bench", "--n", "3"], ["enumerate", "--n", "3"]]

# definitions that no profiled command line reaches, each kept for a
# caller outside the commands
UNREACHED = {
    # the value classes' immutability, repr and pickling, for library users
    "combinat._Frozen.__setattr__",
    "combinat._Frozen.__delattr__",
    "combinat._Frozen.__hash__",
    "combinat._Frozen.__repr__",
    "combinat._Frozen.__reduce__",
    # the rows key on first rows, not on matchings or checked tableaux,
    # and compare none
    "combinat.Matching.__hash__",
    "combinat.Matching._key",
    "combinat.Matching.is_noncrossing",
    "combinat.Matching.pairs",
    "combinat.Tableau.__init__",
    "combinat.Tableau._key",
    "combinat.Tableau.is_standard",
    "combinat.Tableau.n",
    # the library entry points of ALLOWED, and the one-matching rewrite
    # that transition_row runs
    "combinat.consecutive_matching",
    "combinat.crossing_pairs",
    "combinat.interleaved_tableau",
    "combinat.tableau_to_web",
    "transition.transition_row",
    "webs.resolve_crossings",
    # only a failed write to stdout runs it
    "cli._discard_stdout",
}

# run in a fresh interpreter, so that no cache another test filled hides
# a call: prints the (file name, qualified name) of every package code
# object called, by name only before Python 3.11
PROFILER = """
import contextlib, io, json, os, sys
import tworow
from tworow import cli

package = os.path.dirname(tworow.__file__)
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        name = getattr(code, "co_qualname", code.co_name)
        reached.add((os.path.basename(code.co_filename), name))

sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def test_every_definition_runs_in_a_command():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROFILER, json.dumps(PROFILED)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    reached = {tuple(pair) for pair in json.loads(done.stdout)}
    qualified = sys.version_info >= (3, 11)
    unreached = set()
    for path in sorted(SRC.glob("*.py")):
        for node, owner in definitions(ast.parse(path.read_text())):
            name = f"{owner}.{node.name}" if owner else node.name
            if (path.name, name if qualified else node.name) not in reached:
                unreached.add(f"{path.stem}.{name}")
    assert unreached == UNREACHED


def test_type_hints_resolve():
    # no run of the package evaluates its hints, so a name that a hint
    # uses and its module lacks shows only here, as a NameError
    for path in sorted(SRC.glob("*.py")):
        for node, owner in definitions(ast.parse(path.read_text())):
            module = importlib.import_module(f"tworow.{path.stem}")
            fn = vars(getattr(module, owner) if owner else module)[node.name]
            fn = getattr(fn, "fget", fn)  # a property's getter
            fn = getattr(fn, "__func__", fn)  # a classmethod's function
            typing.get_type_hints(fn)
