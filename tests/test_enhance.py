"""Built-in enhancers, the external-command adapter, and their contracts."""

import sys
import textwrap

import numpy as np
import pytest

from spoofamp.audio import Waveform, measure_snr, read_wav, write_wav
from spoofamp.enhance import ENHANCER_KINDS, EnhancerKind, enhance, run_external
from spoofamp.errors import (
    ConfigError,
    EnhancerOutputError,
    EnhancerProcessError,
    EnhancerTimeoutError,
    MissingReferenceError,
)
from spoofamp.mixing import MixSpec, add_noise_at_snr
from spoofamp.noise import NoiseSpec, generate

from conftest import make_speechlike


def _noisy_pair(seed, snr_db=0.0, seconds=2.0):
    x = make_speechlike(seed=seed, seconds=seconds)
    n = generate(NoiseSpec("white", len(x), x.sample_rate, seed=seed + 1000))
    return x, add_noise_at_snr(x, n, MixSpec(snr_db))


class TestEnhancerKind:
    def test_known_kinds(self):
        assert set(ENHANCER_KINDS) == {
            "identity", "oracle_clean", "spectral_subtraction", "wiener", "external",
        }

    def test_rejects_unknown_tag(self):
        with pytest.raises(ConfigError):
            EnhancerKind("dnn")

    def test_external_requires_command(self):
        with pytest.raises(ConfigError):
            EnhancerKind("external")
        with pytest.raises(ConfigError):
            EnhancerKind("external", {"command": "   "})
        with pytest.raises(ConfigError):
            EnhancerKind("external", {"command": "prog {in} {out}", "timeout_s": 0})
        EnhancerKind("external", {"command": "prog {in} {out}"})

    def test_params_checked_once_with_defaults(self):
        assert EnhancerKind("wiener").params == {"floor": 0.01}
        kind = EnhancerKind("spectral_subtraction", {"floor": 0})
        assert kind.params == {"subtraction_factor": 1.0, "floor": 0.0}
        assert type(kind.params["floor"]) is float
        for bad in (-0.1, True, float("inf"), 10**400):
            with pytest.raises(ConfigError):
                EnhancerKind("wiener", {"floor": bad})


class TestBuiltinEnhancers:
    def test_identity_exact_passthrough(self):
        _, y = _noisy_pair(seed=40)
        out = enhance(EnhancerKind("identity"), y)
        assert out is y

    def test_oracle_clean_returns_reference(self):
        x, y = _noisy_pair(seed=41)
        out = enhance(EnhancerKind("oracle_clean"), y, reference_clean=x)
        assert np.array_equal(out.samples, x.samples)

    def test_oracle_clean_needs_reference(self):
        _, y = _noisy_pair(seed=42)
        with pytest.raises(MissingReferenceError):
            enhance(EnhancerKind("oracle_clean"), y)

    @pytest.mark.parametrize("tag", ["spectral_subtraction", "wiener"])
    def test_improves_snr_on_modulated_tone(self, tag):
        """Classical enhancers gain at least 3 dB on speech-like mixtures at
        0 dB input SNR."""
        gains = []
        for seed in (43, 44, 45):
            x, y = _noisy_pair(seed=seed, snr_db=0.0)
            out = enhance(EnhancerKind(tag), y)
            gains.append(measure_snr(x, out) - measure_snr(x, y))
        assert min(gains) >= 3.0

    @pytest.mark.parametrize("tag", ["spectral_subtraction", "wiener"])
    def test_length_and_rate_preserved(self, tag):
        for n in (777, 4096, 16000):
            rng = np.random.default_rng(n)
            y = Waveform(rng.standard_normal(n), 16000)
            out = enhance(EnhancerKind(tag), y)
            assert len(out) == n
            assert out.sample_rate == 16000

    def test_deterministic(self):
        _, y = _noisy_pair(seed=46)
        a = enhance(EnhancerKind("wiener"), y)
        b = enhance(EnhancerKind("wiener"), y)
        assert np.array_equal(a.samples, b.samples)

    def test_wiener_attenuates_pure_noise(self):
        rng = np.random.default_rng(47)
        y = Waveform(rng.standard_normal(16000), 16000)
        out = enhance(EnhancerKind("wiener"), y)
        assert out.energy() < y.energy()


def _backend_template(body):
    """Command template running an inline python backend script."""
    script = textwrap.dedent(body).replace('"', '\\"')
    return f'{sys.executable} -c "{script}" {{in}} {{out}}'


_COPY_BACKEND = """
import shutil, sys
shutil.copyfile(sys.argv[1], sys.argv[2])
"""

_FAIL_BACKEND = """
import sys
sys.stderr.write('backend blew up')
sys.exit(1)
"""

_SLOW_BACKEND = """
import time
time.sleep(30)
"""

_EXTRA_SAMPLE_BACKEND = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
from spoofamp.audio import read_wav, write_wav
w = read_wav(sys.argv[1])
write_wav(w.with_samples(np.concatenate([w.samples, [0.125]])), sys.argv[2], 'float32')
"""

_RATE_CHANGE_BACKEND = """
import sys
sys.path.insert(0, {src!r})
from spoofamp.audio import Waveform, read_wav, write_wav
w = read_wav(sys.argv[1])
write_wav(Waveform(w.samples, 8000), sys.argv[2], 'float32')
"""


def _src_dir():
    import spoofamp

    return str(sys.modules["spoofamp"].__path__[0].rsplit("/spoofamp", 1)[0])


class TestRunExternal:
    def test_copy_backend_roundtrip(self):
        x = make_speechlike(seed=50, seconds=0.5)
        out = run_external(_backend_template(_COPY_BACKEND), x, timeout_s=60.0)
        # float32 write/read round-trip bounds the error
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-6
        assert len(out) == len(x)

    def test_nonzero_exit_reports_stderr(self):
        x = make_speechlike(seed=51, seconds=0.2)
        with pytest.raises(EnhancerProcessError) as exc:
            run_external(_backend_template(_FAIL_BACKEND), x, timeout_s=60.0)
        assert "backend blew up" in exc.value.stderr

    def test_timeout(self):
        x = make_speechlike(seed=52, seconds=0.2)
        with pytest.raises(EnhancerTimeoutError):
            run_external(_backend_template(_SLOW_BACKEND), x, timeout_s=1.0)

    def test_extra_sample_trimmed(self):
        x = make_speechlike(seed=53, seconds=0.2)
        template = _backend_template(_EXTRA_SAMPLE_BACKEND.format(src=_src_dir()))
        out = run_external(template, x, timeout_s=60.0)
        assert len(out) == len(x)
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-6

    def test_sample_rate_change_rejected(self):
        x = make_speechlike(seed=54, seconds=0.2)
        template = _backend_template(_RATE_CHANGE_BACKEND.format(src=_src_dir()))
        with pytest.raises(EnhancerOutputError):
            run_external(template, x, timeout_s=60.0)

    def test_no_output_file_rejected(self):
        x = make_speechlike(seed=55, seconds=0.2)
        with pytest.raises(EnhancerOutputError):
            run_external(_backend_template("pass"), x, timeout_s=60.0)

    def test_missing_placeholders_rejected(self):
        x = make_speechlike(seed=56, seconds=0.2)
        with pytest.raises(ConfigError):
            run_external("prog --flag", x)

    def test_unlaunchable_command(self):
        x = make_speechlike(seed=57, seconds=0.2)
        with pytest.raises(EnhancerProcessError):
            run_external("/no/such/binary {in} {out}", x, timeout_s=5.0)

    def test_enhance_dispatches_external(self, tmp_path):
        x = make_speechlike(seed=58, seconds=0.3)
        kind = EnhancerKind("external", {"command": _backend_template(_COPY_BACKEND)})
        out = enhance(kind, x)
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-6
