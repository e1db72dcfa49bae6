"""The benchmark's workloads.

Each workload drives the documented CLI (``bearingsound.cli.main``) in the
benchmark's own process. ``setup`` runs in a fresh child process and builds
the workload's inputs from the seed; ``reset`` clears the previous pass's
outputs; ``run`` is the timed pass; ``check`` verifies the pass's outputs
and returns an Outcome. Nothing but ``run`` is timed.

Why these three:

* campaign-cold: the default campaign synthesized and extracted into a fresh
  directory. Synth, WAV/.rot writes, the DSP front end, gating and cache
  writes do the work; the MLP does none. Each channel lasts 170 s, i.e. 2125
  frames, more than the 2048 frames ``feature_matrix`` handles per chunk, and
  keeps the profile's deceleration dip, so gating rejects frames.
* seen-motor-warm: ``experiment seen-motor`` on feature caches built during
  set-up, so extraction is skipped and training does almost all the work.
  The campaign is 90 s per channel (3924 gated motor frames), so the split
  is the default 8000/2000 scaled to 3000/750, with the default 20 epochs.
  At 2000/500 on 60 s, 2 of 30 seeds scored below the 95% check; at
  3000/750 none of 22 did.
* score-sweep: ``eval`` of a model trained during set-up over a 2000-frame
  motor test split of a 60 s campaign, then a six-channel ``scatter``: model
  read and one large-batch forward, cache reads, no training and no cache
  writes.

Frames counted per pass for frames_per_s: every 2048-sample frame extracted
(campaign-cold), the train plus test frames of the split (seen-motor-warm),
and the test frames scored plus the scatter rows written (score-sweep).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from bearingsound import cli, dataset

MOTOR = ("A1_b1", "A2_b2", "B1_b1", "B2_b2")
COLD_SECONDS = 170
SEEN_SECONDS = 90
SWEEP_SECONDS = 60
SEEN_SPLIT = (3000, 750)
SWEEP_SPLIT = (500, 2000)
SWEEP_TRAIN_EPOCHS = 5
MIN_ACCURACY_PCT = 95.0


class PassFailed(Exception):
    """A CLI call exited non-zero or a check on its outputs failed."""


@dataclass
class Outcome:
    frames: int
    digest: str
    accuracy_pct: float = 0.0
    damage_detection_pct: float = 0.0


def run_cli(*argv) -> None:
    argv = [str(a) for a in argv]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(argv)
    if rc != 0:
        raise PassFailed(f"bearingsound {' '.join(argv)} exited {rc}:\n"
                         + captured.getvalue())


def digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()


def _manifest_channels(data: Path) -> list[str]:
    return sorted(json.loads((data / "manifest.json").read_text(encoding="utf-8")))


def _report_scores(report: dict) -> dict:
    return {"accuracy_pct": float(report["accuracy"]),
            "damage_detection_pct": float(report["damage_detection_rate"])}


class CampaignCold:
    name = "campaign-cold"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.out = work / "pass"

    def setup(self) -> None:
        # The only input is the seed: set-up is a fresh process importing the
        # package, which every invocation of the CLI pays.
        self.work.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> None:
        data = self.out / "data"
        run_cli("--seed", self.seed, "synth", "--default-campaign",
                "--duration", COLD_SECONDS, "--out", data)
        run_cli("extract", "--manifest", data / "manifest.json",
                "--out", self.out / "features")

    def check(self) -> Outcome:
        data, features = self.out / "data", self.out / "features"
        channels = _manifest_channels(data)
        if len(channels) != 6:
            raise PassFailed(f"expected 6 channels, manifest has {len(channels)}")
        frames = 0
        for channel in channels:
            wav = data / f"{channel}.wav"
            pcm, track = reference.read_wav(wav), reference.read_rot(wav)
            if len(track) != len(pcm) // reference.N:
                raise PassFailed(f"{channel}: .rot has {len(track)} entries for "
                                 f"{len(pcm) // reference.N} frames")
            frames += len(track)
            gated = reference.in_band(track)
            coeffs, _, index = dataset.read_cache(features / f"{channel}.abfc")
            if len(index) != len(gated) or np.any(index != gated):
                raise PassFailed(f"{channel}: cache holds {len(index)} frames, "
                                 f".rot has {len(gated)} in band")
            try:
                np.testing.assert_allclose(coeffs, reference.mfcc_rows(pcm, gated),
                                           rtol=1e-9, atol=1e-9)
            except AssertionError as exc:
                raise PassFailed(f"{channel}: coefficients differ from the "
                                 f"rfft reference\n{exc}") from None
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        return Outcome(frames=frames, digest=digest(files))


class SeenMotorWarm:
    name = "seen-motor-warm"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.data = work / "data"
        self.out = work / "results"

    def setup(self) -> None:
        run_cli("--seed", self.seed, "synth", "--default-campaign",
                "--duration", SEEN_SECONDS, "--out", self.data)
        run_cli("extract", "--manifest", self.data / "manifest.json",
                "--channels", ",".join(MOTOR), "--out", self.data / "features")

    def _cache_stamps(self) -> dict:
        return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
                for p in sorted((self.data / "features").glob("*.abfc"))}

    def prepare(self) -> None:
        self.stamps = self._cache_stamps()

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> None:
        run_cli("--seed", self.seed, "experiment", "seen-motor",
                "--data", self.data, "--train-size", SEEN_SPLIT[0],
                "--test-size", SEEN_SPLIT[1], "--out", self.out)

    def check(self) -> Outcome:
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        if report["accuracy"] < MIN_ACCURACY_PCT:
            raise PassFailed(f"accuracy {report['accuracy']}% is below "
                             f"{MIN_ACCURACY_PCT}%")
        if self._cache_stamps() != self.stamps:
            raise PassFailed("feature caches built in set-up were rewritten")
        files = sorted(p for p in self.out.iterdir() if p.is_file())
        return Outcome(frames=sum(SEEN_SPLIT), digest=digest(files),
                       **_report_scores(report))


class ScoreSweep:
    name = "score-sweep"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.data = work / "data"
        self.model = work / "model.abmm"
        self.out = work / "sweep"

    def _split_args(self):
        return ("--manifest", self.data / "manifest.json",
                "--features", self.data / "features",
                "--channels", ",".join(MOTOR),
                "--train-size", SWEEP_SPLIT[0], "--test-size", SWEEP_SPLIT[1])

    def setup(self) -> None:
        run_cli("--seed", self.seed, "synth", "--default-campaign",
                "--duration", SWEEP_SECONDS, "--out", self.data)
        run_cli("extract", "--manifest", self.data / "manifest.json",
                "--out", self.data / "features")
        run_cli("--seed", self.seed, "train", *self._split_args(),
                "--epochs", SWEEP_TRAIN_EPOCHS, "--out", self.model)

    def prepare(self) -> None:
        self.gated = sum(
            len(reference.in_band(reference.read_rot(self.data / f"{c}.wav")))
            for c in _manifest_channels(self.data))

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run(self) -> None:
        run_cli("--seed", self.seed, "eval", *self._split_args(),
                "--model", self.model, "--out", self.out / "report")
        run_cli("scatter", "--manifest", self.data / "manifest.json",
                "--features", self.data / "features", "--pair", "1:2",
                "--out", self.out / "scatter.tsv")

    def check(self) -> Outcome:
        report_path = self.out / "report" / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        scored = int(np.sum(report["counts"]))
        if scored != SWEEP_SPLIT[1]:
            raise PassFailed(f"confusion counts sum to {scored}, "
                             f"test split is {SWEEP_SPLIT[1]}")
        scatter = self.out / "scatter.tsv"
        rows = len(scatter.read_text(encoding="utf-8").splitlines()) - 1
        if rows != self.gated:
            raise PassFailed(f"scatter has {rows} rows, .rot tracks have "
                             f"{self.gated} gated frames")
        return Outcome(frames=SWEEP_SPLIT[1] + rows,
                       digest=digest([report_path, scatter]),
                       **_report_scores(report))


WORKLOADS = {w.name: w for w in (CampaignCold, SeenMotorWarm, ScoreSweep)}
