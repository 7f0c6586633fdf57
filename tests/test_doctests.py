"""Keep the usage examples in the docstrings honest."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import model
import tworow

# every module of the package; __main__ exits on import
MODULES = [
    importlib.import_module(f"tworow.{info.name}")
    for info in pkgutil.iter_modules(tworow.__path__)
    if info.name != "__main__"
]


def test_modules_found():
    names = {m.__name__ for m in MODULES}
    assert names >= {
        f"tworow.{name}"
        for name in ("cli", "combinat", "linalg", "minors", "specht", "transition", "webs")
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_model_doctests():
    failures, tried = doctest.testmod(model)
    assert failures == 0 and tried > 0


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0 and tried > 0
