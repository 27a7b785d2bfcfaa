"""The package's public surface."""

import doctest
import types
from pathlib import Path

import rbx


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(rbx.__all__)) == len(rbx.__all__)
    for name in rbx.__all__:
        assert not isinstance(getattr(rbx, name), types.ModuleType), name


def test_tuple_staging_is_not_exported():
    # the staging of tuple words is private to rbx.transitivity
    staging = [
        "DiagonalTuple", "bridge_tuple", "diagonalize_tuple", "fiber_move", "select_basepoints",
        "BasePointCollision", "FiberMismatch", "ZeroFiberValue",
    ]
    for name in staging:
        assert name not in rbx.__all__ and not hasattr(rbx, name), name
    assert len(rbx.__all__) <= 55


def test_readme_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
