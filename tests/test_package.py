"""The package's public name list."""

import opflow


def test_all_is_sorted_unique_and_resolves():
    names = opflow.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(opflow, name)] == []
