"""Package-level layout of the spoofamp namespace."""

import pkgutil
import types

import spoofamp


def test_submodules_not_shadowed_by_root_exports():
    """`import spoofamp.<name> as m` must bind the submodule, not a function
    of the same name re-exported at the package root."""
    names = [m.name for m in pkgutil.iter_modules(spoofamp.__path__)]
    assert {"amplify", "enhance", "stft"} <= set(names)
    for name in names:
        scope = {}
        exec(f"import spoofamp.{name} as m", scope)
        assert isinstance(scope["m"], types.ModuleType), name
