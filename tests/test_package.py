"""Package-level layout of the spoofamp namespace."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types

import spoofamp
from spoofamp import errors

# Public functions and classes defined in each submodule. A name added or
# dropped here is a change to the library's public surface.
_PUBLIC_SURFACE = {
    "_files": set(),
    "amplify": {
        "ProcessDetails", "Residual", "amplify", "extract_residual", "process_utterance",
        "process_utterance_details",
    },
    "audio": {"Waveform", "crop_or_pad", "read_wav", "write_wav"},
    "cli": {"build_parser", "main"},
    "config": {"PipelineConfig", "config_doc", "config_hash", "derive_seed", "load_config"},
    "detector": {
        "FeatureConfig", "GaussianModel", "extract_features", "fit", "load_model", "save_model",
        "score",
    },
    "enhance": {"EnhancerKind", "enhance"},
    "errors": {
        "AudioIOError", "ConfigError", "DegenerateSignalError", "EnhancerError",
        "ManifestError", "ScoreFileError", "SpoofampError", "StageError", "TrainingDataError",
        "UnwritablePathError",
    },
    "manifest": {"ManifestEntry", "load_manifest", "write_manifest"},
    "metrics": {
        "Report", "ScoreRecord", "TdcfParams", "eer", "min_tdcf",
        "parse_score_file", "report", "tdcf_coefficients", "write_score_file",
    },
    "mixing": {"add_noise_at_snr"},
    "noise": {"generate"},
    "pipeline": {
        "RunResult", "SweepCell", "join_scores", "load_tdcf_params", "run_pipeline", "sweep",
        "sweep_csv_text",
    },
    "stft": {"hann_periodic", "istft", "stft"},
    "synth": {"SynthSpec", "apply_artifact", "synth_corpus", "synth_utterance"},
}

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


def test_detector_import_loads_no_dsp_chain():
    """Reading and writing a model needs the file boundary, not the config,
    the DSP chain or the WAV module."""
    loaded = _run_fresh(
        "import sys, spoofamp.detector\n"
        "print(*sorted(m for m in sys.modules if m.startswith('spoofamp.')))"
    )
    assert loaded == [
        "spoofamp._files", "spoofamp.detector", "spoofamp.errors", "spoofamp.metrics",
        "spoofamp.stft",
    ]


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


def test_public_surface():
    """Each submodule defines exactly the public functions and classes listed
    in _PUBLIC_SURFACE; names it imports from elsewhere do not count."""
    found = {}
    for info in pkgutil.iter_modules(spoofamp.__path__):
        module = importlib.import_module(f"spoofamp.{info.name}")
        found[info.name] = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
    assert found == _PUBLIC_SURFACE


def test_error_bases():
    """Every error derives directly from SpoofampError, so catching one class
    never catches another by accident."""
    bases = {name: getattr(errors, name).__bases__ for name in _PUBLIC_SURFACE["errors"]}
    assert bases.pop("SpoofampError") == (Exception,)
    assert bases == {name: (errors.SpoofampError,) for name in bases}


def test_every_error_is_raised_or_caught():
    """An error class earns its name only where code raises or catches it, or
    where it is the base of one that is."""
    named = set()
    package = os.path.dirname(spoofamp.__file__)
    for info in pkgutil.iter_modules(spoofamp.__path__):
        with open(os.path.join(package, f"{info.name}.py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                clause = node.exc
            elif isinstance(node, ast.ExceptHandler):
                clause = node.type
            else:
                continue
            for sub in ast.walk(clause) if clause else ():  # a bare raise or except names none
                if isinstance(sub, ast.Name):
                    named.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    named.add(sub.attr)
    used = [getattr(errors, name) for name in _PUBLIC_SURFACE["errors"] & named]
    unused = [
        name for name in sorted(_PUBLIC_SURFACE["errors"])
        if not any(issubclass(cls, getattr(errors, name)) for cls in used)
    ]
    assert unused == []
