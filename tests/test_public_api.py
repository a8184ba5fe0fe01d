"""The package's public names: `__all__` lists exactly what it re-exports."""

import types

import impulselab


def test_all_names_the_public_reexports():
    exported = {name for name, value in vars(impulselab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(impulselab.__all__)) == len(impulselab.__all__)
    assert set(impulselab.__all__) == exported
