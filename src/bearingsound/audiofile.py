"""Single-channel 16-bit PCM WAV files plus the rotational-track sidecar,
and ``AudioRecording``, the samples and track held in memory.

The sidecar is a plain text file next to the WAV (same stem, ``.rot``
extension) holding one finite ASCII float per ``FRAME_SAMPLES``-sample
block: the mean shaft rotational frequency of that block in Hz.
"""

from __future__ import annotations

import hashlib
import math
import os
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

PCM_FULL_SCALE = 32767
FRAME_SAMPLES = 2048


@dataclass
class AudioRecording:
    """Sampled waveform with its sample rate, channel identity, and the
    per-block mean rotational frequency track (one value per FRAME_SAMPLES).

    samples are float64, or the int16 PCM ``read_pcm`` maps from the file,
    kept without a copy (full scale PCM_FULL_SCALE).
    """

    samples: np.ndarray
    fs: float
    channel_id: str
    rotational_freq_track: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.dtype != np.int16:
            self.samples = np.asarray(self.samples, dtype=float)
            # Every sample is finite exactly when the extremes are (NaN
            # propagates), and the extremes need no full-length mask.
            if self.samples.size and not np.isfinite(
                    [self.samples.min(), self.samples.max()]).all():
                raise DataError(f"{self.channel_id}: non-finite samples")
        self.rotational_freq_track = np.asarray(self.rotational_freq_track, dtype=float)
        expected = len(self.samples) // FRAME_SAMPLES
        if len(self.rotational_freq_track) != expected:
            raise DataError(
                f"{self.channel_id}: track has {len(self.rotational_freq_track)} "
                f"entries, expected {expected}"
            )


_WRITE_BLOCK = 1 << 17


def write_wav(path, samples: np.ndarray, fs: float) -> None:
    """Write samples as mono 16-bit little-endian PCM, block by block.

    Floating-point input is scaled so the peak sits at 95% of full scale;
    a silent signal is written as zeros.
    """
    samples = np.asarray(samples, dtype=float)
    # max(max, -min) is max(abs) without a full-length temporary.
    peak = max(samples.max(), -samples.min()) if samples.size else 0.0
    # Scale by 2**-exponent (exact), then by a gain that is finite for any peak.
    mantissa, exponent = np.frexp(peak or 1.0)
    gain = 0.95 * PCM_FULL_SCALE / mantissa
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(round(fs)))
        w.setnframes(len(samples))
        for start in range(0, len(samples), _WRITE_BLOCK):
            scaled = np.ldexp(samples[start : start + _WRITE_BLOCK], -exponent)
            scaled *= gain
            np.rint(scaled, out=scaled)
            w.writeframesraw(scaled.astype("<i2"))


def read_pcm(path) -> tuple[np.ndarray, float]:
    """Read a mono 16-bit PCM WAV; returns (int16 samples, fs), the samples
    a read-only ``np.memmap`` of the file's data chunk.

    The pages are the file cache's, not a copy on the caller's heap, so a
    worker thread's allocator keeps nothing after the array is dropped.
    The file must not be rewritten while the array is alive."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"audio file not found: {path}")
    try:
        # wave.open leaves f at the first byte of the data chunk.
        with path.open("rb") as f, wave.open(f) as w:
            if w.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got "
                                f"{8 * w.getsampwidth()}-bit")
            if w.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got "
                                f"{w.getnchannels()} channels")
            fs = float(w.getframerate())
            if fs == 0:
                raise DataError(f"{path}: WAV header states a sample rate of 0 Hz")
            n, offset = w.getnframes(), f.tell()
            if offset + 2 * n > os.fstat(f.fileno()).st_size:
                raise DataError(f"{path}: truncated WAV data chunk")
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc!r})") from exc
    if n == 0:
        return np.zeros(0, dtype="<i2"), fs
    return np.memmap(path, dtype="<i2", mode="r", offset=offset, shape=(n,)), fs


def source_sha256(wav_path) -> str:
    """Hex SHA-256 of a WAV file's bytes followed by its sidecar's bytes."""
    digest = hashlib.sha256()
    for path in (Path(wav_path), sidecar_path(wav_path)):
        if not path.exists():
            raise DataError(f"source file not found: {path}")
        # Below glibc's 128 KiB mmap threshold, so a worker's arena reuses one.
        with path.open("rb") as f:
            while chunk := f.read(1 << 16):
                digest.update(chunk)
    return digest.hexdigest()


def sidecar_path(wav_path) -> Path:
    return Path(wav_path).with_suffix(".rot")


def write_rot_track(wav_path, track: np.ndarray) -> None:
    lines = "".join(f"{float(v)!r}\n" for v in np.asarray(track, dtype=float))
    sidecar_path(wav_path).write_text(lines, encoding="utf-8")


def read_rot_track(wav_path) -> np.ndarray:
    path = sidecar_path(wav_path)
    if not path.exists():
        raise DataError(f"rotational track sidecar not found: {path}")
    values = []
    # float() parses ASCII bytes, so bytes that are not text fail per line.
    for line_no, line in enumerate(path.read_bytes().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad float {line!r}") from exc
        if not math.isfinite(values[-1]):
            raise DataError(f"{path}:{line_no}: non-finite value {values[-1]}")
    return np.asarray(values, dtype=float)
