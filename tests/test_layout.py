"""The package holds what it runs.

Every top-level function, class method and property under src/tworow
must be named somewhere else in src/tworow; code that only the tests
need lives in tests/model.py.  The match is by name, read from the
syntax tree.  A method counts as used only when it is taken as an
attribute, so a local variable of the same name does not hide it.  A
re-export in ``__init__`` is not a use, and neither is a recursive call.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tworow"

# named only from outside the package: the library entry point
# transition_row, crossing_pairs, which perfbench imports, and the checked
# bijection tableau_to_web, whose unchecked twin builds enumerate_webs
ALLOWED = {
    "transition_row",
    "crossing_pairs",
    "tableau_to_web",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(node, whether it is a method) for the top-level functions of a
    module and the methods and properties of its top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body if isinstance(item, FUNCTIONS))


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
        (module, node, is_method)
        for module, tree in trees.items()
        for node, is_method in definitions(tree)
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
