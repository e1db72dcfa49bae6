"""End-to-end experiment protocols over a campaign directory.

Four named experiments are built in:

* seen-motor:    pooled random split over the motor channels A1_b1, A2_b2
                 (damaged) and B1_b1, B2_b2 (healthy).
* seen-gearbox:  damaged A2_b3 versus every healthy gearbox channel at the
                 axles B1, B2 and A1 that the manifest provides.
* unseen-A2b2:   train on A1_b1 + B1_b1, test on A2_b2 + B2_b2.
* unseen-A1b1:   train on A2_b2 + B2_b2, test on A1_b1 + B1_b1.

``ensure_caches`` hashes the sources and checks the cache signatures in the
calling thread, in channel order, and extracts only the stale channels, on
``synth.map_channels``'s worker threads; a run that reuses every cache starts
no thread.

Each run writes a self-contained results directory: the model, a training
log, the evaluation report (JSON and text), and a config echo sufficient to
replay the run. Nothing written depends on wall-clock time or absolute
paths, so identical inputs and seeds reproduce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import audiofile, dataset, metrics, mlp
from .dataset import Manifest, SplitSpec
from .dsp import MfccConfig
from .errors import ConfigError, DataError
from .mlp import TrainConfig
from .synth import AudioRecording, check_unique_ids, map_channels

EXPERIMENT_NAMES = ("seen-motor", "seen-gearbox", "unseen-A2b2", "unseen-A1b1")

SEEN_SPLIT = (8000, 2000)
UNSEEN_SPLIT = (5000, 5000)

@dataclass(frozen=True)
class ExperimentSpec:
    """A named protocol resolved against a manifest."""

    name: str
    channels: tuple[str, ...]
    split: SplitSpec


def _require_channels(manifest: Manifest, channels) -> None:
    missing = [c for c in channels if c not in manifest.entries]
    if missing:
        raise DataError(
            "manifest is missing required channel(s): " + ", ".join(missing))


def named_experiment(name: str, manifest: Manifest, seed: int,
                     train_size: int | None = None,
                     test_size: int | None = None) -> ExperimentSpec:
    """Resolve one of the built-in experiment names against a manifest."""
    if name == "seen-motor":
        channels = ("A1_b1", "A2_b2", "B1_b1", "B2_b2")
        _require_channels(manifest, channels)
        split = SplitSpec(
            mode="random", seed=seed,
            train_size=train_size or SEEN_SPLIT[0],
            test_size=test_size or SEEN_SPLIT[1])
        return ExperimentSpec(name=name, channels=channels, split=split)

    if name == "seen-gearbox":
        _require_channels(manifest, ("A2_b3",))
        healthy = tuple(manifest.select(label="H", component="gearbox",
                                        axles=("B1", "B2", "A1")))
        if not healthy:
            raise DataError(
                "no healthy gearbox channels at axles B1/B2/A1 in the manifest")
        channels = ("A2_b3",) + healthy
        split = SplitSpec(
            mode="random", seed=seed,
            train_size=train_size or SEEN_SPLIT[0],
            test_size=test_size or SEEN_SPLIT[1])
        return ExperimentSpec(name=name, channels=channels, split=split)

    if name in ("unseen-A2b2", "unseen-A1b1"):
        if name == "unseen-A2b2":
            train_channels, test_channels = ("A1_b1", "B1_b1"), ("A2_b2", "B2_b2")
        else:
            train_channels, test_channels = ("A2_b2", "B2_b2"), ("A1_b1", "B1_b1")
        _require_channels(manifest, train_channels + test_channels)
        split = SplitSpec(
            mode="by_channel", seed=seed,
            train_size=train_size or UNSEEN_SPLIT[0],
            test_size=test_size or UNSEEN_SPLIT[1],
            train_channels=train_channels, test_channels=test_channels)
        return ExperimentSpec(name=name, channels=train_channels + test_channels,
                              split=split)

    raise ConfigError(
        f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}")


# --- feature extraction with cache reuse -------------------------------------


def load_recording(manifest: Manifest, channel_id: str) -> AudioRecording:
    wav_path = manifest.wav_path(channel_id)
    samples, fs = audiofile.read_wav(wav_path)
    track = audiofile.read_rot_track(wav_path)
    return AudioRecording(samples=samples, fs=fs, channel_id=channel_id,
                          rotational_freq_track=track)


def extract_channel(manifest: Manifest, channel_id: str, config: MfccConfig,
                    band: tuple[float, float], cache_path,
                    signature: dict) -> tuple[int, int]:
    """Gate one channel and cache it with signature; returns (total, gated) frames."""
    recording = load_recording(manifest, channel_id)
    if float(recording.fs) != float(config.sample_rate):
        raise DataError(
            f"{channel_id}: WAV sample rate {recording.fs} Hz does not match "
            f"configured {config.sample_rate} Hz")
    frames = dataset.gate_frames(recording, config, manifest.label(channel_id),
                                 band_low=band[0], band_high=band[1])
    dataset.write_cache(cache_path, frames, signature)
    total = len(recording.samples) // config.dft_size
    return total, len(frames)


def ensure_caches(manifest: Manifest, channels, config: MfccConfig,
                  band: tuple[float, float], features_dir,
                  log=None) -> dict[str, Path]:
    """Extract any channel whose cache has another signature, on worker
    threads; reuse the rest. Logs one line per channel, in channel order."""
    check_unique_ids(channels)
    features_dir = Path(features_dir)
    features_dir.mkdir(parents=True, exist_ok=True)
    mfcc = {**asdict(config), "band": list(band)}
    paths, stale = {}, {}
    for channel_id in channels:
        paths[channel_id] = features_dir / f"{channel_id}.abfc"
        source = audiofile.source_sha256(manifest.wav_path(channel_id))
        signature = {"mfcc": mfcc, "source_sha256": source}
        if not _cache_matches(paths[channel_id], signature):
            stale[channel_id] = signature
    counts = map_channels(
        lambda c: extract_channel(manifest, c, config, band, paths[c], stale[c]),
        stale)
    extracted = dict(zip(stale, counts))
    if log:
        for channel_id in channels:
            if channel_id in extracted:
                total, gated = extracted[channel_id]
                log(f"{channel_id}: {total} frames, {gated} gated")
            else:
                log(f"{channel_id}: cache reused")
    return paths


def _cache_matches(cache_path: Path, signature: dict) -> bool:
    """Whether a cache exists with this signature; an unreadable or older
    cache does not match."""
    if not cache_path.exists():
        return False
    try:
        return dataset.read_cache_signature(cache_path) == signature
    except DataError:
        return False


def load_frames(manifest: Manifest, channels,
                features_dir) -> tuple[dataset.Frames, dict]:
    """The cached frames of the channels, in order, plus the MFCC settings
    their caches record, which must be the same for every channel."""
    if not channels:
        raise DataError("no channels to load")
    check_unique_ids(channels)
    paths = [Path(features_dir) / f"{c}.abfc" for c in channels]
    settings = [dataset.read_cache_signature(p).get("mfcc") for p in paths]
    differ = [c for c, s in zip(channels, settings) if s != settings[0]]
    if differ:
        raise DataError(f"caches of {', '.join(differ)} have other feature "
                        f"settings than {channels[0]}'s; re-run extract")
    frames = dataset.Frames.concat([
        dataset.frames_from_cache(path, manifest.label(channel_id), channel_id)
        for channel_id, path in zip(channels, paths)])
    return frames, settings[0]


# --- the run itself -----------------------------------------------------------


def split_and_train(frames: dataset.Frames, split: SplitSpec,
                    train_config: TrainConfig):
    """Split, train (z-scoring with stats fitted on the training rows);
    returns a run dict."""
    train_rows, test_rows = dataset.make_split(frames, split)
    x_train, y_train = frames.coeffs[train_rows], frames.labels[train_rows]
    stats = dataset.fit_normalization(x_train)
    model, history = mlp.train(x_train, y_train, train_config, norm_stats=stats)
    train_probs = mlp.predict_batch(model, x_train)
    train_accuracy = float(np.mean(train_probs.argmax(axis=1) == y_train))
    return {
        "model": model,
        "loss_history": history,
        "train_frames": frames.take(train_rows),
        "test_frames": frames.take(test_rows),
        "train_accuracy": train_accuracy,
    }


def evaluate_frames(model: mlp.MlpModel,
                    frames: dataset.Frames) -> metrics.MetricsReport:
    """Score raw frames with a model, which applies its stored normalization."""
    probs = mlp.predict_batch(model, frames.coeffs)
    return metrics.metrics(metrics.confusion(probs.argmax(axis=1), frames.labels))


def provenance(manifest: Manifest, channels, mfcc: dict, split: SplitSpec,
               train_config: TrainConfig) -> dict:
    """The settings a training run used, echoed into its logs."""
    return {
        "channels": {c: manifest.label(c) for c in channels},
        "mfcc": mfcc,
        "split": asdict(split),
        "train_config": asdict(train_config),
    }


def run_experiment(manifest: Manifest, spec: ExperimentSpec,
                   mfcc_config: MfccConfig, train_config: TrainConfig,
                   band: tuple[float, float], out_dir, features_dir=None,
                   log=None) -> dict:
    """Extract, split, train and evaluate one named experiment."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if features_dir is None:
        features_dir = manifest.base_dir / "features"
    ensure_caches(manifest, spec.channels, mfcc_config, band, features_dir,
                  log=log)
    frames, mfcc = load_frames(manifest, spec.channels, features_dir)
    run = split_and_train(frames, spec.split, train_config)
    report = evaluate_frames(run["model"], run["test_frames"])

    model_path = out_dir / "model.abmm"
    mlp.save_model(run["model"], model_path)
    train_log = {
        "experiment": spec.name,
        **provenance(manifest, spec.channels, mfcc, spec.split, train_config),
        "train_class_counts": dataset.label_counts(run["train_frames"].labels),
        "test_class_counts": dataset.label_counts(run["test_frames"].labels),
        "per_epoch_loss": run["loss_history"],
        "final_train_accuracy": run["train_accuracy"],
    }
    (out_dir / "train_log.json").write_text(
        json.dumps(train_log, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    metrics.write_report(report, out_dir / "report.json", out_dir / "report.txt")
    experiment_echo = dict(train_log)
    experiment_echo["report"] = metrics.report_to_dict(report)
    (out_dir / "experiment.json").write_text(
        json.dumps(experiment_echo, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return {
        "report": report,
        "model_path": model_path,
        "train_log": train_log,
        "out_dir": out_dir,
    }
