"""Command-line front end.

Subcommands cover the full workflow: ``synth`` writes a campaign of WAV files
plus manifest, ``extract`` turns them into per-channel feature caches,
``train``/``eval`` fit and score a classifier over an explicit split,
``scatter`` exports 2-D coefficient views, and ``experiment`` runs a named
protocol end to end.

Exit codes are stable for scripting: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import audiofile, common, dataset, experiments, metrics, mlp, synth
from .dataset import SplitSpec
from .dsp import MfccConfig
from .errors import ConfigError, DataError, NumericError
from .mlp import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_band(text: str) -> tuple[float, float]:
    try:
        low_text, high_text = text.split(":", 1)
        low, high = finite_float(low_text), finite_float(high_text)
    except ValueError:
        raise ConfigError(f"--band expects LO:HI, got {text!r}") from None
    return low, high


def positive_int(text: str) -> int:
    """Split sizes are checked at parse time, before any file is read."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """--seed: numpy's seed sequences take no negative number."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def positive_float(text: str) -> float:
    """--fs and --duration: checked before synth divides by fs or makes --out."""
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a_text, b_text = text.split(":", 1)
        return int(a_text), int(b_text)
    except ValueError:
        raise ConfigError(
            f"--pair expects A:B coefficient indices, got {text!r}") from None


def _parse_channels(text: str) -> tuple[str, ...]:
    channels = tuple(c.strip() for c in text.split(",") if c.strip())
    if not channels:
        raise ConfigError("expected a comma-separated channel list")
    common.check_unique_ids(channels, error=ConfigError)
    return channels


def _add_mfcc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mel-channels", type=int, default=MfccConfig.num_channels,
                   help="number of Mel filters")
    p.add_argument("--coeffs", type=int, default=MfccConfig.num_coeffs,
                   help="number of cepstral coefficients")
    p.add_argument("--band", type=_parse_band,
                   default=(MfccConfig.band_low, MfccConfig.band_high),
                   help="rotational gating band LO:HI in Hz")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channels", type=_parse_channels, default=None,
                   help="channels to pool for a random split (default: all)")
    p.add_argument("--train-channels", type=_parse_channels, default=None,
                   help="with --test-channels: a by-channel split")
    p.add_argument("--test-channels", type=_parse_channels, default=None)
    seen_motor = experiments.PROTOCOLS["seen-motor"]
    p.add_argument("--train-size", type=positive_int, default=seen_motor.train_size)
    p.add_argument("--test-size", type=positive_int, default=seen_motor.test_size)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=finite_float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)


def _mfcc_config(args) -> MfccConfig:
    """The feature flags; MfccConfig rejects a reversed --band or too many channels."""
    return MfccConfig(num_channels=args.mel_channels, num_coeffs=args.coeffs,
                      band_low=args.band[0], band_high=args.band[1])


def _split_spec(args) -> SplitSpec:
    """By-channel when the two lists are given, else random over --channels."""
    return SplitSpec(train_size=args.train_size, test_size=args.test_size,
                     seed=args.seed, train_channels=args.train_channels,
                     test_channels=args.test_channels, channels=args.channels)


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                       batch_size=args.batch, seed=args.seed)


def _listed_channels(args, manifest) -> tuple[str, ...]:
    """--channels, parsed before any file was read, else every manifest channel."""
    return args.channels or tuple(manifest.entries)


def _write_campaign(scenario, out_dir: Path) -> None:
    """Synthesize a scenario into out_dir: WAVs, .rot tracks, then the
    manifest once every channel is written. Each worker drops its recording
    as soon as it is on disk, so the campaign is never held in memory whole.
    out_dir is made only once a channel has been synthesized, so a campaign
    that fails before that leaves no directory behind."""
    common.check_unique_ids(spec.channel_id for spec in scenario)

    def write(spec):
        recording = synth.synth_recording(spec.config, spec.channel_id)
        out_dir.mkdir(parents=True, exist_ok=True)
        wav_path, track = out_dir / spec.entry.file, recording.rotational_freq_track
        audiofile.write_wav(wav_path, recording.samples, recording.fs)
        audiofile.write_rot_track(wav_path, track)
        return len(recording.samples) / recording.fs, len(track)

    for spec, (duration, frames) in zip(scenario, common.map_channels(write, scenario)):
        print(f"{spec.channel_id}: {duration:.1f} s, {frames} frames "
              f"[{spec.entry.label}]")
    entries = {spec.channel_id: spec.entry for spec in scenario}
    out_dir.mkdir(parents=True, exist_ok=True)  # also for no channels
    common.save_manifest(entries, out_dir / "manifest.json")
    print(f"wrote {len(entries)} channels to {out_dir}")


def cmd_synth(args) -> int:
    if args.scenario:
        scenario = synth.scenario_from_json(args.scenario)
    else:
        scenario = synth.default_scenario(args.seed, duration=args.duration,
                                          fs=args.fs)
    _write_campaign(scenario, Path(args.out))
    return EXIT_OK


def cmd_extract(args) -> int:
    config, manifest = _mfcc_config(args), common.load_manifest(args.manifest)
    experiments.ensure_caches(manifest, _listed_channels(args, manifest),
                              config, Path(args.out), log=print)
    return EXIT_OK


def cmd_train(args) -> int:
    split, train_config = _split_spec(args), _train_config(args)
    manifest = common.load_manifest(args.manifest)
    frames, mfcc = experiments.load_frames(
        manifest, split.loaded_channels(manifest), args.features)
    model, log, _ = experiments.train_on_split(
        manifest, frames, mfcc, split, train_config)
    model_path = Path(args.out)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    mlp.save_model(model, model_path)
    log_path = model_path.with_suffix(".train_log.json")
    common.write_json(log_path, log)
    print(f"trained {model.dims} on {split.train_size} frames; "
          f"train accuracy {100 * log['final_train_accuracy']:.2f}%")
    print(f"model: {model_path}")
    print(f"log:   {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    split = _split_spec(args)
    manifest = common.load_manifest(args.manifest)
    model = mlp.load_model(args.model)
    frames, mfcc = experiments.load_frames(
        manifest, split.loaded_channels(manifest), args.features)
    if model.mfcc != mfcc:
        raise DataError(f"model features {model.mfcc} differ from the caches' {mfcc}")
    _, test_rows = dataset.make_split(frames, split)
    report = experiments.evaluate_frames(model, frames.take(test_rows))
    metrics.write_report(report, args.out)
    print(metrics.report_to_text(report), end="")
    return EXIT_OK


def cmd_scatter(args) -> int:
    manifest = common.load_manifest(args.manifest)
    frames, _ = experiments.load_frames(
        manifest, _listed_channels(args, manifest), args.features)
    rows = metrics.export_scatter(frames, args.pair, args.out)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    data_dir = Path(args.data)
    config, train_config = _mfcc_config(args), _train_config(args)
    manifest = common.load_manifest(data_dir / "manifest.json")
    split = experiments.named_experiment(
        args.name, manifest, seed=args.seed,
        train_size=args.train_size, test_size=args.test_size)
    out_dir = Path(args.out) if args.out else data_dir / "results" / args.name
    report = experiments.run_experiment(
        manifest, args.name, split, config, train_config, out_dir=out_dir,
        features_dir=data_dir / "features", log=print)
    print(f"{args.name}: accuracy {report['accuracy']:.2f}%  "
          f"TPR {report['tpr']:.2f}%  TNR {report['tnr']:.2f}%")
    print(f"results: {out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bearingsound",
                     description="Airborne bearing-fault detection pipeline")
    parser.add_argument("--seed", type=non_negative_int, default=0,
                        help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic campaign")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--default-campaign", action="store_true")
    source.add_argument("--scenario", type=str, default=None,
                        help="JSON scenario file")
    p.add_argument("--duration", type=positive_float,
                   default=synth.CAMPAIGN_DURATION_S,
                   help="seconds of audio per channel")
    p.add_argument("--fs", type=positive_float, default=synth.SynthConfig.fs)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract per-channel feature caches")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--channels", type=_parse_channels, default=None)
    _add_mfcc_flags(p)
    p.add_argument("--out", type=str, required=True, help="features directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a classifier over a split")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--features", type=str, required=True)
    _add_split_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", type=str, required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the test partition")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--features", type=str, required=True)
    p.add_argument("--model", type=str, required=True)
    _add_split_flags(p)
    p.add_argument("--out", type=str, required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scatter", help="export a 2-D coefficient scatter table")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--features", type=str, required=True)
    p.add_argument("--channels", type=_parse_channels, default=None)
    p.add_argument("--pair", type=_parse_pair, required=True, help="A:B, 1-based")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("experiment", help="run a named end-to-end protocol")
    p.add_argument("name", choices=experiments.PROTOCOLS)
    p.add_argument("--data", type=str, required=True, help="campaign directory")
    _add_mfcc_flags(p)
    p.add_argument("--train-size", type=positive_int, default=None)
    p.add_argument("--test-size", type=positive_int, default=None)
    _add_train_flags(p)
    p.add_argument("--out", type=str, default=None, help="results directory")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
