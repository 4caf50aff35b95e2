"""The public API: no name that pytest would collect as a test, and the
README's library example runs as written."""

import re
from pathlib import Path

import tailjoint
from tailjoint.equality_tests import TestResult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_public_name_starts_with_test():
    # A module that imports such a function gets it collected as a test.
    assert [name for name in dir(tailjoint) if name.startswith("test")] == []


def test_result_class_is_not_collected():
    assert TestResult.__test__ is False


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[0].endswith("True")
