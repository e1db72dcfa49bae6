"""Recordings to labeled, gated feature frames.

A campaign on disk is a set of WAV files plus a JSON manifest mapping channel
ids to file, label (H/D), axle, component and a free-text damage description.
Frames whose mean shaft frequency falls outside the gating band are dropped;
the survivors are held as parallel arrays of features, label, channel, shaft
frequency and original frame index, and each channel's are cached in a framed
file (``common.write_framed``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audiofile import FRAME_SAMPLES, AudioRecording
from .common import (LABELS, ManifestEntry, manifest_entry, read_framed, read_json,
                     write_framed, write_json)
from .dsp import MfccConfig, feature_matrix
from .errors import ConfigError, DataError, FormatError

CACHE_MAGIC = b"ABFC"
CACHE_VERSION = 3


@dataclass
class Manifest:
    """Channel metadata table; file paths are kept relative to base_dir."""

    entries: dict[str, ManifestEntry]
    base_dir: Path

    def wav_path(self, channel_id: str) -> Path:
        if channel_id not in self.entries:
            raise DataError(f"channel not in manifest: {channel_id}")
        return self.base_dir / self.entries[channel_id].file

    def label(self, channel_id: str) -> str:
        if channel_id not in self.entries:
            raise DataError(f"channel not in manifest: {channel_id}")
        return self.entries[channel_id].label


def save_manifest(manifest: Manifest, path) -> None:
    write_json(path, {channel_id: asdict(e)
                      for channel_id, e in manifest.entries.items()})


def load_manifest(path) -> Manifest:
    path = Path(path)
    raw = read_json(path, "manifest")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    entries = {}
    for channel_id, fields in raw.items():
        try:
            entries[channel_id] = manifest_entry(channel_id, fields)
        except (AttributeError, KeyError, TypeError) as exc:  # AttributeError: not an object
            raise DataError(f"{path}: bad entry for {channel_id} ({exc})") from exc
    return Manifest(entries=entries, base_dir=path.parent)


@dataclass(frozen=True)
class Frames:
    """Gated frames as parallel arrays, one row per frame.

    coeffs is (n, num_coeffs); labels are class indices into LABELS; channels
    index channel_ids; rot is each frame's mean shaft frequency and index its
    position in the source recording.
    """

    coeffs: np.ndarray
    labels: np.ndarray
    channels: np.ndarray
    rot: np.ndarray
    index: np.ndarray
    channel_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows) -> "Frames":
        return Frames(coeffs=self.coeffs[rows], labels=self.labels[rows],
                      channels=self.channels[rows], rot=self.rot[rows],
                      index=self.index[rows], channel_ids=self.channel_ids)

    @staticmethod
    def concat(parts) -> "Frames":
        """The parts' rows in order, with their channel ids appended in turn."""
        offsets = np.cumsum([0] + [len(p.channel_ids) for p in parts])
        return Frames(
            coeffs=np.concatenate([p.coeffs for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            channels=np.concatenate([p.channels + o for p, o in zip(parts, offsets)]),
            rot=np.concatenate([p.rot for p in parts]),
            index=np.concatenate([p.index for p in parts]),
            channel_ids=sum((p.channel_ids for p in parts), ()))


def _channel_frames(coeffs, rot, index, label: str, channel_id: str) -> Frames:
    n = len(rot)
    return Frames(coeffs=coeffs, labels=np.full(n, LABELS.index(label)),
                  channels=np.zeros(n, dtype=np.int64), rot=rot, index=index,
                  channel_ids=(channel_id,))


def gate_frames(recording: AudioRecording, config: MfccConfig, label: str) -> Frames:
    """Features for the frames whose mean rotational frequency lies in the
    config's [band_low, band_high] (both ends inclusive), at the recording's
    rate; a rate too high for the config's Mel channels is a DataError."""
    track = recording.rotational_freq_track
    if len(track) == 0:
        raise DataError(f"{recording.channel_id}: recording has no rotational track")
    index = np.flatnonzero((track >= config.band_low) & (track <= config.band_high))
    try:
        coeffs = feature_matrix(recording.samples, recording.fs, FRAME_SAMPLES,
                                config, index)
    except ConfigError as exc:
        raise DataError(f"{recording.channel_id}: {exc}") from exc
    return _channel_frames(coeffs, track[index], index, label, recording.channel_id)


# --- train/test splitting ---------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """A train/test partition of gated frames: by channel if it has channel lists."""

    train_size: int
    test_size: int
    seed: int = 0
    train_channels: tuple[str, ...] | None = None
    test_channels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.train_size <= 0 or self.test_size <= 0:
            raise ConfigError("train_size and test_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.train_channels is not None or self.test_channels is not None:
            if not self.train_channels or not self.test_channels:
                raise ConfigError("by_channel split needs train and test channel lists")
            overlap = set(self.train_channels) & set(self.test_channels)
            if overlap:
                raise DataError(
                    f"channels in both train and test: {', '.join(sorted(overlap))}")


def _subsample_per_channel(frames: Frames, channels: tuple[str, ...],
                           size: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of `size` frames spread as evenly as possible over the channels."""
    codes = {c: i for i, c in enumerate(frames.channel_ids)}
    base, extra = divmod(size, len(channels))
    picked = []
    for rank, channel in enumerate(channels):
        want = base + (1 if rank < extra else 0)
        pool = np.flatnonzero(frames.channels == codes.get(channel, -1))
        if len(pool) < want:
            raise DataError(
                f"channel {channel} has {len(pool)} gated frames, need {want}")
        picked.append(pool[np.sort(rng.permutation(len(pool))[:want])])
    return np.concatenate(picked)


def make_split(frames: Frames, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices into frames; deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.train_channels is None:
        total = spec.train_size + spec.test_size
        if total > len(frames):
            raise DataError(
                f"split needs {total} frames, only {len(frames)} available")
        order = rng.permutation(len(frames))
        return order[: spec.train_size], order[spec.train_size : total]

    train = _subsample_per_channel(frames, spec.train_channels, spec.train_size, rng)
    test = _subsample_per_channel(frames, spec.test_channels, spec.test_size, rng)
    return train, test


def label_counts(labels: np.ndarray) -> dict[str, int]:
    counts = np.bincount(labels, minlength=len(LABELS))
    return {label: int(count) for label, count in zip(LABELS, counts)}


# --- per-channel feature cache -----------------------------------------------


def _cache_dtype(num_coeffs: int) -> np.dtype:
    return np.dtype([("rot", "<f8"), ("coeffs", "<f8", (num_coeffs,)),
                     ("idx", "<u8")])


def write_cache(path, frames: Frames, signature: dict) -> None:
    """ABFC v3: gated frame records in a framed file headed by their signature."""
    num_coeffs = frames.coeffs.shape[1]
    data = np.zeros(len(frames), dtype=_cache_dtype(num_coeffs))
    data["rot"], data["coeffs"], data["idx"] = frames.rot, frames.coeffs, frames.index
    write_framed(path, CACHE_MAGIC, CACHE_VERSION, {
        "coeffs": num_coeffs, "frames": len(frames), "signature": signature}, [data])


def _parse_cache(path) -> tuple[dict, tuple]:
    """A cache's signature and (coeffs, rot, idx) columns, after its checks."""
    header, blob, start = read_framed(path, CACHE_MAGIC, CACHE_VERSION,
                                      "feature cache", "extract")
    num_coeffs, count = header.get("coeffs"), header.get("frames")
    if not (type(num_coeffs) is int and 0 <= num_coeffs < 1 << 16
            and type(count) is int and count >= 0
            and isinstance(header.get("signature"), dict)):
        raise FormatError(f"{path}: cache header needs counts and a JSON object signature")
    dtype = _cache_dtype(num_coeffs)
    expected = start + count * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(f"{path}: truncated or padded cache ({len(blob)} "
                          f"bytes, expected {expected})")
    data = np.frombuffer(blob, dtype=dtype, offset=start)
    for name in ("coeffs", "rot"):
        if not np.all(np.isfinite(data[name])):
            raise FormatError(f"{path}: cache {name} holds a non-finite value")
    return header["signature"], (data["coeffs"].copy(), data["rot"].copy(),
                                 data["idx"].astype(np.int64))


def read_cache(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (coeffs matrix, rotational frequencies, frame indices)."""
    return _parse_cache(path)[1]


def frames_from_cache(path, label: str, channel_id: str) -> tuple[Frames, dict]:
    """A cache's frames under label and channel_id, and its signature."""
    signature, columns = _parse_cache(path)
    return _channel_frames(*columns, label, channel_id), signature
