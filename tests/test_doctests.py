"""Keep the usage examples in the docstrings honest."""

import doctest

import pytest

import tworow.cli
import tworow.combinat
import tworow.linalg
import tworow.minors
import tworow.specht
import tworow.transition
import tworow.webs


@pytest.mark.parametrize(
    "module",
    [
        tworow.cli,
        tworow.combinat,
        tworow.linalg,
        tworow.minors,
        tworow.specht,
        tworow.transition,
        tworow.webs,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
