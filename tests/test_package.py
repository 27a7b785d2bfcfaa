"""The package's public surface."""

import doctest
import os
import subprocess
import sys
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
        "make_independent", "BasePointCollision", "FiberMismatch", "ZeroFiberValue",
    ]
    for name in staging:
        assert name not in rbx.__all__ and not hasattr(rbx, name), name
    assert len(rbx.__all__) <= 55


def test_readme_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def fresh_python(code):
    """stdout of ``python -c code`` in a new process that imports rbx from this checkout."""
    src = str(Path(rbx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.stdout.strip()


def test_cli_start_skips_dataclasses_inspect_and_selftest():
    # every rbx process pays for what importing rbx.cli loads; the acceptance
    # suite is loaded by the selftest command alone.  Only what the import adds
    # counts: site hooks of the interpreter may have loaded inspect already
    code = (
        "import sys; before = set(sys.modules); import rbx.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'rbx.selftest') if m in set(sys.modules) - before])"
    )
    assert fresh_python(code) == "[]"


def test_package_import_is_eager():
    # perfbench/tracer.py rewires only the modules loaded when it installs, so
    # ``import rbx`` loads every submodule, and resolving __all__ loads nothing more
    code = (
        "import rbx, sys; before = set(sys.modules); "
        "names = [getattr(rbx, name) for name in rbx.__all__]; "
        "print(len(names), sorted(set(sys.modules) - before), "
        "all(f'rbx.{m}' in before for m in ('actions', 'functionals', 'linalg', 'mpoly', "
        "'operators', 'poly', 'transitivity')))"
    )
    assert fresh_python(code) == f"{len(rbx.__all__)} [] True"
