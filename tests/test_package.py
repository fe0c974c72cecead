"""Package-level layout of the spoofamp namespace."""

import os
import pkgutil
import subprocess
import sys
import types

import spoofamp

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(spoofamp.__file__)))


def _run_fresh(code):
    """Run code in a new interpreter that imports spoofamp from this tree."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_submodules_not_shadowed_by_root_exports():
    """`import spoofamp.<name> as m` must bind the submodule, not a function
    of the same name re-exported at the package root."""
    names = [m.name for m in pkgutil.iter_modules(spoofamp.__path__)]
    assert {"amplify", "enhance", "stft"} <= set(names)
    for name in names:
        scope = {}
        exec(f"import spoofamp.{name} as m", scope)
        assert isinstance(scope["m"], types.ModuleType), name


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the CLI, which imports
    every submodule, must not pull in scipy."""
    loaded = _run_fresh(
        "import sys, spoofamp.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith(('spoofamp.', 'scipy'))))"
    )
    submodules = {f"spoofamp.{m.name}" for m in pkgutil.iter_modules(spoofamp.__path__)}
    assert submodules <= set(loaded)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_root_binds_only_version():
    """The submodules are the API; the package root defines only __version__."""
    names = _run_fresh(
        "import spoofamp\nprint(*sorted(n for n in vars(spoofamp) if not n.startswith('_')))"
    )
    assert names == []
    assert _run_fresh("import spoofamp\nprint(spoofamp.__version__)") == [spoofamp.__version__]
