"""The standing mutants of `tests/mutants.py` still fit the source: each
snippet occurs exactly once, and each test it names exists.  Running the
mutants themselves is `python tests/mutants.py`."""

import re

import pytest

from mutants import BY_NAME, MUTANTS, ROOT, source


def test_mutant_names_are_distinct():
    assert len(BY_NAME) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_once(mutant):
    assert source(mutant).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name)}\(", text, re.M), test
