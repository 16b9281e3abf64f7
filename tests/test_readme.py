import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples_run():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted >= 10 and failed == 0
