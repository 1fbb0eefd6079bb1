import doctest
import importlib

import pytest

# the number of docstring examples in each module of the package
EXAMPLES = {
    "affsym": 0,
    "affsym.cli": 0,
    "affsym.errors": 0,
    "affsym.group": 5,
    "affsym.little": 0,
    "affsym.stanley": 1,
    "affsym.verify": 0,
    "affsym.words": 3,
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result == (0, EXAMPLES[name])
