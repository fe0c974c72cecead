"""Artifact amplification for audio anti-spoofing.

The pipeline adds calibrated noise to an utterance, enhances it, extracts
the residual the enhancer removed via an orthogonal projection, and adds a
scaled copy of that residual back onto the original signal. Generative
artifacts survive enhancement poorly, so the residual concentrates them and
re-adding it makes spoofed audio easier to separate from bona fide audio.
"""

__version__ = "0.1.0"
