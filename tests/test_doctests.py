import doctest
import importlib
import pkgutil

import quatspec


def test_docstring_examples_pass():
    # every quatspec module, so an example added anywhere runs here
    attempted = 0
    failures = []
    names = ["quatspec"] + [info.name for info in pkgutil.iter_modules(
        quatspec.__path__, "quatspec.")]
    for name in names:
        result = doctest.testmod(importlib.import_module(name), report=False)
        attempted += result.attempted
        if result.failed:
            failures.append(f"{name}: {result.failed} failed")
    assert failures == []
    assert attempted > 0, "no docstring examples found"
