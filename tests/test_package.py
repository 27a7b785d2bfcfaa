"""The package's public surface."""

import types

import rbx


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(rbx.__all__)) == len(rbx.__all__)
    for name in rbx.__all__:
        assert not isinstance(getattr(rbx, name), types.ModuleType), name

