"""The package's public surface."""

import doctest
import types
from pathlib import Path

import rbx


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(rbx.__all__)) == len(rbx.__all__)
    for name in rbx.__all__:
        assert not isinstance(getattr(rbx, name), types.ModuleType), name



def test_readme_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
