"""Independent reference for the package's outputs, used by the checks.

It reads WAV and ``.rot`` files with the standard library and computes the
cepstral coefficients with ``np.fft.rfft`` and a Mel filterbank built from its
documented definition (README and ``MfccConfig`` defaults). A defect in the
package's reader, transform or filterbank therefore shows up as a mismatch
instead of being repeated here.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

FS = 25600.0
N = 2048
MEL_CHANNELS = 26
COEFFS = 13
LOG_FLOOR = 1e-10
BAND = (42.0, 45.0)
PCM_FULL_SCALE = 32767
# Frames per block in mfcc_rows, so the check adds little to peak memory.
CHUNK = 256


def read_wav(path) -> np.ndarray:
    with wave.open(str(path), "rb") as w:
        if (w.getsampwidth(), w.getnchannels(), w.getframerate()) != (2, 1, int(FS)):
            raise ValueError(f"{path}: not mono 16-bit PCM at {FS:g} Hz")
        raw = w.readframes(w.getnframes())
    return np.frombuffer(raw, dtype="<i2")


def read_rot(wav_path) -> np.ndarray:
    text = Path(wav_path).with_suffix(".rot").read_text(encoding="utf-8")
    return np.array([float(line) for line in text.split()])


def in_band(track: np.ndarray) -> np.ndarray:
    """Indices of the frames whose mean shaft frequency lies in BAND."""
    return np.flatnonzero((track >= BAND[0]) & (track <= BAND[1]))


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_inverse(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangles between MEL_CHANNELS + 2 equidistant Mel points on 0..FS/2,
    snapped to bins floor((N + 1) f / FS), each rising to 1 at its center."""
    points = _mel_inverse(np.linspace(_mel(0.0), _mel(FS / 2), MEL_CHANNELS + 2))
    bins = np.minimum(np.floor((N + 1) * points / FS).astype(int), N // 2)
    weights = np.zeros((MEL_CHANNELS, N // 2 + 1))
    for i in range(MEL_CHANNELS):
        lo, mid, hi = bins[i], bins[i + 1], bins[i + 2]
        for k in range(lo, mid):
            weights[i, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            weights[i, k] = (hi - k) / (hi - mid)
    return weights


def mfcc_rows(pcm: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Coefficients c1..c13 of the given frame indices of a 16-bit signal."""
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / (N - 1)))
    weights = mel_filterbank()
    mu = np.arange(1, COEFFS + 1)[:, None]
    i = np.arange(1, MEL_CHANNELS + 1)[None, :]
    basis = np.cos(np.pi * (2 * i - 1) * mu / (2 * MEL_CHANNELS))
    out = np.empty((len(frames), COEFFS))
    for start in range(0, len(frames), CHUNK):
        rows = frames[start:start + CHUNK]
        block = pcm[rows[:, None] * N + np.arange(N)] / PCM_FULL_SCALE
        power = np.abs(np.fft.rfft(block * window, axis=1)) ** 2
        energies = power @ weights.T
        out[start:start + CHUNK] = np.log(np.maximum(energies, LOG_FLOOR)) @ basis.T
    return out
