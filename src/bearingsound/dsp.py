"""Cepstral feature extraction for airborne machine sound.

The chain is: window a fixed-length frame, take the squared-magnitude DFT on
bins 0..N/2, weight the bins with a triangular Mel filterbank, and transform
the log filter energies with a cosine sum into cepstral coefficients.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError

MEL_SCALE_FACTOR = 2595.0
MEL_BREAK_HZ = 700.0


def hz_to_mel(f):
    """Warp frequency in Hz onto the Mel scale."""
    return MEL_SCALE_FACTOR * np.log10(1.0 + np.asarray(f, dtype=float) / MEL_BREAK_HZ)


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    return MEL_BREAK_HZ * (10.0 ** (np.asarray(m, dtype=float) / MEL_SCALE_FACTOR) - 1.0)


# Half of audiofile.FRAME_SAMPLES: no frame's DFT bins hold more Mel channels
# at any rate, so a config checks this before any file is read.
MAX_MEL_CHANNELS = 1024


@dataclass(frozen=True)
class MfccConfig:
    """The feature settings a user chooses, which a cache's signature and a
    model record beside the frame length and the recording's sample rate.

    num_channels is the Mel filter count over 0..fs/2, num_coeffs the number
    of cepstral coefficients kept (c1..c_num_coeffs; there is no c0 term).
    Frames are Hann-windowed. band_low..band_high is the rotational gating
    band in Hz, both ends inclusive.
    """

    num_channels: int = 26
    num_coeffs: int = 13
    band_low: float = 42.0
    band_high: float = 45.0
    log_floor: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not (1 <= self.num_coeffs <= self.num_channels <= MAX_MEL_CHANNELS):
            raise ConfigError(
                f"need 1 <= num_coeffs <= num_channels <= {MAX_MEL_CHANNELS}, got "
                f"num_coeffs={self.num_coeffs}, num_channels={self.num_channels}")
        if self.band_low > self.band_high:
            raise ConfigError(
                f"band low {self.band_low} exceeds high {self.band_high}")


def hann_window(n: int) -> np.ndarray:
    """The symmetric raised cosine of length n, zero at both ends."""
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))


def _mel_bins(k: int, fs: float, n: int) -> np.ndarray:
    """The DFT bins of k + 2 equidistant Mel points from 0 to fs/2."""
    hz_points = mel_to_hz(np.linspace(0.0, hz_to_mel(fs / 2.0), k + 2))
    return np.minimum(np.floor((n + 1) * hz_points / fs).astype(int), n // 2)


def build_filterbank(config: MfccConfig, fs: float, n: int) -> np.ndarray:
    """The triangular Mel filter weights of n-sample frames at fs Hz, shape
    (num_channels, n//2 + 1).

    Centers sit at num_channels + 2 equidistant points on the Mel scale
    between 0 and fs/2, each snapped to bin min(floor((n + 1) f / fs), n/2).
    Row i rises from the previous center bin to exactly 1.0 at its own,
    which is the zero of rows i-1 and i+1, and falls to zero at the next.
    Raises ConfigError when the Mel points collapse onto non-distinct DFT
    bins, i.e. when fs/n is too coarse for the channel count; it names the
    most channels that fit.
    """
    k = config.num_channels
    bins = _mel_bins(k, fs, n)
    if np.any(np.diff(bins) < 1):
        # k + 2 distinct bins of n//2 + 1 hold at most n//2 - 1 channels.
        fits = next((j for j in range(min(k, n // 2) - 1, 0, -1)
                     if np.all(np.diff(_mel_bins(j, fs, n)) >= 1)), 0)
        raise ConfigError(f"{k} Mel channels do not fit below {fs / 2.0} Hz "
                          f"at a bin width of {fs / n:.3f} Hz; at most {fits} do")

    weights = np.zeros((k, n // 2 + 1))
    for i in range(k):
        left, center, right = bins[i], bins[i + 1], bins[i + 2]
        up = np.arange(left, center)
        weights[i, up] = (up - left) / (center - left)
        down = np.arange(center, right)
        weights[i, down] = (right - down) / (right - center)
    return weights


def power_spectrum(frame: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Squared-magnitude DFT of a windowed frame on bins 0..N/2, along the
    last axis (numpy's real-input FFT).

    No 1/N scaling is applied, so a rectangular-windowed unit tone at an
    exact bin lands (N/2)^2 there. frame and window must have equal length.
    """
    frame = np.asarray(frame, dtype=float)
    window = np.asarray(window, dtype=float)
    if frame.shape[-1] != window.shape[0]:
        raise ValueError(
            f"frame length {frame.shape[-1]} != window length {window.shape[0]}"
        )
    return np.abs(np.fft.rfft(frame * window)) ** 2


def filterbank_energies(spectrum: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-channel energies: sums of power-spectrum bins under each row of
    ``build_filterbank``'s weights."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.shape[-1] != weights.shape[1]:
        raise ValueError(
            f"spectrum has {spectrum.shape[-1]} bins, filterbank expects "
            f"{weights.shape[1]}"
        )
    return np.einsum("...k,ck->...c", spectrum, weights)


def cepstral_basis(num_channels: int, num_coeffs: int) -> np.ndarray:
    """Cosine basis B[mu-1, i-1] = cos(pi*(2i-1)*mu / (2K)) for mu=1..num_coeffs."""
    mu = np.arange(1, num_coeffs + 1)[:, None]
    i = np.arange(1, num_channels + 1)[None, :]
    return np.cos(np.pi * (2 * i - 1) * mu / (2 * num_channels))


def mfcc(energies: np.ndarray, config: MfccConfig) -> np.ndarray:
    """Cepstral coefficients c1..c_num_coeffs: the cosine transform of the log
    filter energies.

    c_mu = sum_i log(max(X_i, log_floor)) * cos(pi*(2i-1)*mu / (2K)) for
    mu = 1..num_coeffs. The sum is unscaled and natural-log based; the floor
    keeps silent frames finite.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape[-1] != config.num_channels:
        raise ValueError(
            f"got {energies.shape[-1]} energies for {config.num_channels} channels"
        )
    log_e = np.log(np.maximum(energies, config.log_floor))
    basis = cepstral_basis(config.num_channels, config.num_coeffs)
    return np.einsum("...k,ck->...c", log_e, basis)


# Samples per block of feature_matrix: its float copy, windowed frames and
# spectra stay in cache, and few numpy calls hand the GIL to other workers.
_SPECTRUM_SAMPLES = 1 << 17


def feature_matrix(samples: np.ndarray, fs: float, n: int, config: MfccConfig,
                   index=None) -> np.ndarray:
    """Feature vectors for the complete non-overlapping n-sample frames that
    index names, in its order (every one if index is None), as rows; fs is
    the sample rate in Hz.

    Integer samples are PCM: each gathered block is cast to float and divided
    by the dtype's maximum just before windowing, so the recording is never
    copied to float whole. Returns an array of shape (len(index), num_coeffs).
    The products are np.einsum calls, summed in numpy's own loop rather than
    BLAS (so no optimize=True), and a row's bytes depend neither on its block
    nor on the OpenBLAS kernel.
    """
    samples = np.asarray(samples)
    if samples.dtype.kind == "i":
        scale = np.iinfo(samples.dtype).max
    else:
        samples, scale = np.asarray(samples, dtype=float), 1
    num_frames = len(samples) // n
    if num_frames == 0:
        return np.zeros((0, config.num_coeffs))
    weights = build_filterbank(config, fs, n)
    window = hann_window(n)
    frames = samples[: num_frames * n].reshape(num_frames, n)
    index = np.arange(num_frames) if index is None else index
    out = np.empty((len(index), config.num_coeffs))
    rows = max(1, _SPECTRUM_SAMPLES // n)
    for start in range(0, len(index), rows):
        block = frames[index[start : start + rows]] / scale
        energies = filterbank_energies(power_spectrum(block, window), weights)
        out[start : start + rows] = mfcc(energies, config)
    return out
