"""End-to-end experiment protocols over a campaign directory.

Four named experiments are built in:

* seen-motor:    pooled random split over the motor channels A1_b1, A2_b2
                 (damaged) and B1_b1, B2_b2 (healthy).
* seen-gearbox:  damaged A2_b3 versus every healthy gearbox channel at the
                 axles B1, B2 and A1 that the manifest provides.
* unseen-A2b2:   train on A1_b1 + B1_b1, test on A2_b2 + B2_b2.
* unseen-A1b1:   train on A2_b2 + B2_b2, test on A1_b1 + B1_b1.

``ensure_caches`` runs one job per channel on ``common.map_channels``'s
workers, which hashes the source, reads the rate in the WAV's header and
reuses the cache (parsed once) or extracts the channel at that rate.

Each run writes a self-contained results directory: the model, the training
log ``train_on_split`` returns (as ``train`` writes it), the evaluation report
(JSON and text, also returned) and a config echo sufficient to replay the run.
Nothing written depends on wall-clock time or absolute paths, so identical
inputs and seeds reproduce identical bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import audiofile, dataset, metrics, mlp
from .audiofile import AudioRecording
from .common import check_unique_ids, map_channels, write_json
from .dataset import Manifest, SplitSpec
from .dsp import MfccConfig
from .errors import ConfigError, DataError
from .mlp import TrainConfig

EXPERIMENT_NAMES = ("seen-motor", "seen-gearbox", "unseen-A2b2", "unseen-A1b1")

SEEN_SPLIT = (8000, 2000)
UNSEEN_SPLIT = (5000, 5000)

@dataclass(frozen=True)
class ExperimentSpec:
    """A named protocol resolved against a manifest."""

    name: str
    channels: tuple[str, ...]
    split: SplitSpec


def named_experiment(name: str, manifest: Manifest, seed: int,
                     train_size: int | None = None,
                     test_size: int | None = None) -> ExperimentSpec:
    """Resolve one of the built-in experiment names against a manifest."""
    train_channels = test_channels = None
    if name == "seen-motor":
        channels = ("A1_b1", "A2_b2", "B1_b1", "B2_b2")
    elif name == "seen-gearbox":
        channels = ("A2_b3",)
    elif name in ("unseen-A2b2", "unseen-A1b1"):
        pair = (("A1_b1", "B1_b1"), ("A2_b2", "B2_b2"))
        train_channels, test_channels = pair if name == "unseen-A2b2" else pair[::-1]
        channels = train_channels + test_channels
    else:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}")
    missing = [c for c in channels if c not in manifest.entries]
    if missing:
        raise DataError("manifest is missing required channel(s): " + ", ".join(missing))
    if name == "seen-gearbox":
        healthy = tuple(c for c, e in manifest.entries.items() if e.label == "H"
                        and e.component == "gearbox" and e.axle in ("B1", "B2", "A1"))
        if not healthy:
            raise DataError(
                "no healthy gearbox channels at axles B1/B2/A1 in the manifest")
        channels += healthy
    default = SEEN_SPLIT if train_channels is None else UNSEEN_SPLIT
    split = SplitSpec(seed=seed,
                      train_size=default[0] if train_size is None else train_size,
                      test_size=default[1] if test_size is None else test_size,
                      train_channels=train_channels, test_channels=test_channels)
    return ExperimentSpec(name=name, channels=channels, split=split)


# --- feature extraction with cache reuse -------------------------------------


def extract_channel(manifest: Manifest, channel_id: str, config: MfccConfig,
                    cache_path, signature: dict) -> tuple[int, dataset.Frames]:
    """Gate one channel and cache it with signature; returns (total, gated frames)."""
    wav_path = manifest.wav_path(channel_id)
    pcm, fs = audiofile.read_pcm(wav_path)
    track = audiofile.read_rot_track(wav_path)
    recording = AudioRecording(samples=pcm, fs=fs, channel_id=channel_id,
                               rotational_freq_track=track)
    frames = dataset.gate_frames(recording, config, manifest.label(channel_id))
    dataset.write_cache(cache_path, frames, signature)
    return len(recording.samples) // config.dft_size, frames


def ensure_caches(manifest: Manifest, channels, config: MfccConfig, features_dir,
                  log=None) -> dict[str, tuple[dataset.Frames, dict]]:
    """Each channel's gated frames and cache signature, in order: read once
    from a cache whose signature holds these settings at the WAV's own
    sample rate (``asdict``) and the source's hash, else extracted and
    cached, one channel per job on worker threads. Logs each channel."""
    check_unique_ids(channels)
    features_dir = Path(features_dir)
    features_dir.mkdir(parents=True, exist_ok=True)

    def job(channel_id):
        path, wav_path = features_dir / f"{channel_id}.abfc", manifest.wav_path(channel_id)
        source = audiofile.source_sha256(wav_path)
        mfcc = replace(config, sample_rate=audiofile.read_pcm(wav_path)[1])
        signature = {"mfcc": asdict(mfcc), "source_sha256": source}
        label = manifest.label(channel_id)
        if path.exists():
            try:
                frames, found = dataset.frames_from_cache(path, label, channel_id)
            except DataError:  # an unreadable cache is stale
                found = None
            if found == signature:
                return (frames, signature), "cache reused"
        total, frames = extract_channel(manifest, channel_id, mfcc, path, signature)
        return (frames, signature), f"{total} frames, {len(frames)} gated"

    done = dict(zip(channels, map_channels(job, channels)))
    if log:
        for channel_id, (_, note) in done.items():
            log(f"{channel_id}: {note}")
    return {channel_id: cached for channel_id, (cached, _) in done.items()}


def pool_frames(cached: dict) -> tuple[dataset.Frames, dict]:
    """The frames of {channel: (frames, cache signature)}, in order, plus the
    MFCC settings their signatures record, which must be the same for every
    channel."""
    if not cached:
        raise DataError("no channels to load")
    channels = list(cached)
    settings = [signature.get("mfcc") for _, signature in cached.values()]
    differ = [c for c, s in zip(channels, settings) if s != settings[0]]
    if differ:
        raise DataError(f"caches of {', '.join(differ)} have other feature "
                        f"settings than {channels[0]}'s; re-run extract")
    return dataset.Frames.concat([frames for frames, _ in cached.values()]), settings[0]


def load_frames(manifest: Manifest, channels,
                features_dir) -> tuple[dataset.Frames, dict]:
    """``pool_frames`` of the channels' caches in features_dir."""
    check_unique_ids(channels)
    return pool_frames({c: dataset.frames_from_cache(
        Path(features_dir) / f"{c}.abfc", manifest.label(c), c) for c in channels})


# --- the run itself -----------------------------------------------------------


def train_on_split(manifest: Manifest, frames: dataset.Frames, mfcc: dict | None,
                   split: SplitSpec, train_config: TrainConfig):
    """Split and train; returns (model, training log, test frames). The model
    records mfcc, the frames' feature settings."""
    train_rows, test_rows = dataset.make_split(frames, split)
    x_train, y_train = frames.coeffs[train_rows], frames.labels[train_rows]
    model, history = mlp.train(x_train, y_train, train_config)
    model.mfcc = mfcc
    train_probs = mlp.predict_batch(model, x_train)
    log = {
        "channels": {c: manifest.label(c) for c in frames.channel_ids},
        "mfcc": mfcc,
        "split": asdict(split),
        "train_config": asdict(train_config),
        "train_class_counts": dataset.label_counts(y_train),
        "per_epoch_loss": history,
        "final_train_accuracy": float(np.mean(train_probs.argmax(axis=1) == y_train)),
    }
    return model, log, frames.take(test_rows)


def evaluate_frames(model: mlp.MlpModel, frames: dataset.Frames) -> dict:
    """The report record of a model's verdicts on raw frames, which it z-scores."""
    probs = mlp.predict_batch(model, frames.coeffs)
    return metrics.metrics(metrics.confusion(probs.argmax(axis=1), frames.labels))


def run_experiment(manifest: Manifest, spec: ExperimentSpec,
                   mfcc_config: MfccConfig, train_config: TrainConfig,
                   out_dir, features_dir, log=None) -> dict:
    """Extract, split, train and evaluate one named experiment; returns the
    test report record."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames, mfcc = pool_frames(ensure_caches(
        manifest, spec.channels, mfcc_config, features_dir, log=log))
    model, run_log, test_frames = train_on_split(
        manifest, frames, mfcc, spec.split, train_config)
    report = evaluate_frames(model, test_frames)

    mlp.save_model(model, out_dir / "model.abmm")
    train_log = {"experiment": spec.name, **run_log,
                 "test_class_counts": dataset.label_counts(test_frames.labels)}
    write_json(out_dir / "train_log.json", train_log)
    metrics.write_report(report, out_dir)
    write_json(out_dir / "experiment.json",
               {**train_log, "report": report})
    return report
