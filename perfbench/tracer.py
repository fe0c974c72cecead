"""Outside-in span tracer for the spoofamp layers.

The library is not instrumented. Instead the tracer rebinds, for the duration
of a traced pass, the names through which callers reach each public layer
function, and records one span per call. Callers import functions by name
(``from .audio import read_wav``) and ``spoofamp/__init__.py`` rebinds
``spoofamp.amplify``, ``spoofamp.enhance`` and others to functions, so
modules are resolved with ``importlib.import_module`` and the name is patched
inside each calling module.

Spans stay in memory: per call the tracer keeps the span name, start, end,
self time (duration minus the time of spans nested in it on the same thread)
and nesting depth.
"""

import importlib
import os
import threading
import time
from collections import defaultdict
from functools import wraps

# span name -> the (module, attribute) bindings its callers look up at call time
SPAN_SITES = {
    "noise.generate": [("spoofamp.noise", "generate"), ("spoofamp.synth", "generate")],
    "mixing.add_noise_at_snr": [("spoofamp.mixing", "add_noise_at_snr")],
    "stft.stft": [("spoofamp.enhance", "stft"), ("spoofamp.detector", "stft")],
    "stft.istft": [("spoofamp.enhance", "istft")],
    "enhance.enhance": [("spoofamp.amplify", "enhance")],
    "amplify.extract_residual": [("spoofamp.amplify", "extract_residual")],
    "amplify.amplify": [("spoofamp.amplify", "amplify")],
    "amplify.process_utterance_details": [
        ("spoofamp.amplify", "process_utterance_details"),
        ("spoofamp.pipeline", "process_utterance_details"),
    ],
    "audio.read_wav": [("spoofamp.audio", "read_wav"), ("spoofamp.pipeline", "read_wav")],
    "audio.write_wav": [
        ("spoofamp.audio", "write_wav"),
        ("spoofamp.pipeline", "write_wav"),
        ("spoofamp.synth", "write_wav"),
    ],
    "audio.crop_or_pad": [("spoofamp.audio", "crop_or_pad"), ("spoofamp.pipeline", "crop_or_pad")],
    "synth.synth_utterance": [("spoofamp.synth", "synth_utterance")],
    "synth.apply_artifact": [("spoofamp.synth", "apply_artifact")],
    "detector.extract_features": [("spoofamp.detector", "extract_features")],
    "detector.fit": [("spoofamp.detector", "fit")],
    "detector.score": [("spoofamp.detector", "score")],
    "metrics.eer": [("spoofamp.metrics", "eer")],
    "metrics.min_tdcf": [("spoofamp.metrics", "min_tdcf")],
}

# spans that have traced children, so their self time differs from their duration
PARENT_SPANS = (
    "enhance.enhance",
    "amplify.process_utterance_details",
    "synth.synth_utterance",
    "detector.extract_features",
)

# span name -> position of the file path argument, for byte counting
_PATH_ARG = {"audio.read_wav": 0, "audio.write_wav": 1}


class WiringError(RuntimeError):
    """A traced binding no longer points at the function it should."""


class Tracer:
    """Records spans for every function in SPAN_SITES while installed.

    Use as a context manager around one traced pass; the recorded spans and
    counters accumulate across passes until the tracer is discarded.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.spans = []  # (name, start, end, self_seconds, depth)
        self.waveforms = 0
        self.bytes = {"audio.read_wav": 0, "audio.write_wav": 0}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        path_arg = _PATH_ARG.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by this span's children
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append((name, start, end, end - start - child, len(stack)))
                if path_arg is not None:
                    path = kwargs.get("path", args[path_arg] if len(args) > path_arg else None)
                    if path is not None and os.path.isfile(path):
                        size = os.path.getsize(path)
                        with self._lock:
                            self.bytes[name] += size

        return traced

    def __enter__(self):
        for name, sites in SPAN_SITES.items():
            bound = [(importlib.import_module(m), attr) for m, attr in sites]
            originals = {id(getattr(mod, attr)): getattr(mod, attr) for mod, attr in bound}
            if len(originals) != 1:
                raise WiringError(f"{name}: call sites {sites} hold different functions")
            (original,) = originals.values()
            traced = self._wrap(name, original)
            for mod, attr in bound:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, traced)
        waveform = importlib.import_module("spoofamp.audio").Waveform
        post_init = waveform.__post_init__

        def counted(wave_self):
            with self._lock:
                self.waveforms += 1
            post_init(wave_self)

        self._saved.append((waveform, "__post_init__", post_init))
        waveform.__post_init__ = counted
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)
        return False

    def layer_metrics(self, passes, utterances, busy_capacity_s):
        """Per-layer metrics over `passes` traced passes.

        utterances is the number of utterances those passes processed;
        busy_capacity_s is their summed wall time times the worker count.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_total = defaultdict(float)
        busy = 0.0
        for name, start, end, self_s, depth in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_total[name] += self_s
            if depth == 0:
                busy += end - start
        out = {}
        for name in SPAN_SITES:
            n = calls[name]
            out[f"{name}.calls"] = (n / passes, "calls/pass")
            out[f"{name}.ms_per_call"] = (1e3 * total[name] / n if n else 0.0, "ms")
            if name in PARENT_SPANS:
                out[f"{name}.self_ms_per_call"] = (1e3 * self_total[name] / n if n else 0.0, "ms")
        out["audio.bytes_read"] = (self.bytes["audio.read_wav"] / utterances, "B/utt")
        out["audio.bytes_written"] = (self.bytes["audio.write_wav"] / utterances, "B/utt")
        out["audio.waveforms_per_utt"] = (self.waveforms / utterances, "count/utt")
        out["pipeline.worker_busy_ratio"] = (busy / busy_capacity_s, "ratio")
        return out, calls
