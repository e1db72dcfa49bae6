import dataclasses
import struct

import numpy as np
import pytest

from bearingsound import audiofile, cli, common, dataset, experiments, mlp
from bearingsound.dsp import MfccConfig
from bearingsound.errors import ConfigError, DataError, FormatError

# What a cache of the 25.6 kHz campaign records under MfccConfig().
DEFAULT_SETTINGS = {"band_high": 45.0, "band_low": 42.0, "dft_size": 2048,
                    "num_channels": 26, "num_coeffs": 13, "sample_rate": 25600.0}


@pytest.fixture(scope="module")
def manifest(campaign_dir):
    return common.load_manifest(campaign_dir / "manifest.json")


class TestNamedExperiments:
    def test_seen_motor_channels(self, manifest):
        split = experiments.named_experiment("seen-motor", manifest, seed=3)
        assert split.channels == ("A1_b1", "A2_b2", "B1_b1", "B2_b2")
        assert split.train_channels is split.test_channels is None
        assert (split.train_size, split.test_size) == (8000, 2000)

    def test_seen_gearbox_resolves_healthy_gearbox_channels(self, manifest):
        split = experiments.named_experiment("seen-gearbox", manifest, seed=3)
        assert split.channels[0] == "A2_b3"
        healthy = split.channels[1:]
        assert healthy  # default campaign provides B2_b3
        for channel in healthy:
            entry = manifest.entries[channel]
            assert entry.label == "H"
            assert entry.component == "gearbox"
            assert entry.axle in ("B1", "B2", "A1")

    def test_unseen_protocols_swap_train_and_test(self, manifest):
        a = experiments.named_experiment("unseen-A2b2", manifest, seed=3)
        assert a.train_channels == ("A1_b1", "B1_b1")
        assert a.test_channels == ("A2_b2", "B2_b2")
        b = experiments.named_experiment("unseen-A1b1", manifest, seed=3)
        assert b.train_channels == ("A2_b2", "B2_b2")
        assert b.test_channels == ("A1_b1", "B1_b1")
        assert (b.train_size, b.test_size) == (5000, 5000)

    def test_size_overrides(self, manifest):
        split = experiments.named_experiment("seen-motor", manifest, seed=3,
                                             train_size=100, test_size=50)
        assert (split.train_size, split.test_size) == (100, 50)

    @pytest.mark.parametrize("name", experiments.PROTOCOLS)
    def test_explicit_zero_size_is_kept(self, manifest, name):
        with pytest.raises(ConfigError, match="must be positive"):
            experiments.named_experiment(name, manifest, seed=3, train_size=0,
                                         test_size=50)

    def test_unknown_name_rejected(self, manifest):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiments.named_experiment("seen-everything", manifest, seed=3)

    def test_missing_channels_detected(self, manifest, tmp_path):
        partial = common.Manifest(
            entries={k: v for k, v in manifest.entries.items() if k != "A2_b2"},
            base_dir=manifest.base_dir)
        with pytest.raises(DataError, match="A2_b2"):
            experiments.named_experiment("seen-motor", partial, seed=3)

    @staticmethod
    def _without(manifest, keep):
        return common.Manifest(
            entries={k: v for k, v in manifest.entries.items() if keep(k, v)},
            base_dir=manifest.base_dir)

    def test_seen_gearbox_needs_the_damaged_gearbox(self, manifest):
        partial = self._without(manifest, lambda k, v: k != "A2_b3")
        with pytest.raises(DataError, match="missing required channel.*A2_b3"):
            experiments.named_experiment("seen-gearbox", partial, seed=3)

    def test_seen_gearbox_needs_a_healthy_gearbox(self, manifest):
        partial = self._without(manifest, lambda k, v: k == "A2_b3" or not (
            v.label == "H" and v.component == "gearbox"))
        assert "A2_b3" in partial.entries
        with pytest.raises(DataError, match="no healthy gearbox channels"):
            experiments.named_experiment("seen-gearbox", partial, seed=3)

    def test_unseen_needs_its_channels(self, manifest):
        partial = self._without(manifest, lambda k, v: k != "B1_b1")
        with pytest.raises(DataError, match="missing required channel.*B1_b1"):
            experiments.named_experiment("unseen-A1b1", partial, seed=3)

    def test_unknown_name_rejected_before_the_manifest_is_read(self, manifest):
        empty = self._without(manifest, lambda k, v: False)
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiments.named_experiment("seen-everything", empty, seed=3)


class TestCaches:
    def test_caches_are_reused_when_config_matches(self, manifest, tmp_path):
        config = MfccConfig()
        messages = []
        experiments.ensure_caches(manifest, ("B1_b1",), config,
                                  tmp_path / "f", log=messages.append)
        assert "gated" in messages[0]
        messages.clear()
        experiments.ensure_caches(manifest, ("B1_b1",), config,
                                  tmp_path / "f", log=messages.append)
        assert messages == ["B1_b1: cache reused"]
        assert sorted(p.name for p in (tmp_path / "f").iterdir()) == ["B1_b1.abfc"]

    def test_config_change_invalidates_caches(self, manifest, tmp_path):
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(),
                                  tmp_path / "f")
        messages = []
        experiments.ensure_caches(manifest, ("B1_b1",),
                                  MfccConfig(num_coeffs=10),
                                  tmp_path / "f", log=messages.append)
        assert "gated" in messages[0]

    def test_band_change_on_some_channels_invalidates_only_theirs(
            self, manifest, tmp_path):
        # Extract everything at 42:45, two channels at 30:50, then everything
        # at 30:50: only the two re-extracted caches hold 30:50 features.
        channels = list(manifest.entries)
        wide = MfccConfig(band_low=30.0, band_high=50.0)
        experiments.ensure_caches(manifest, channels, MfccConfig(),
                                  tmp_path / "f")
        experiments.ensure_caches(manifest, ("A1_b1", "B1_b1"), wide,
                                  tmp_path / "f")
        messages = []
        result = experiments.ensure_caches(manifest, channels, wide,
                                           tmp_path / "f", log=messages.append)
        reused = sorted(m.split(":")[0] for m in messages if "reused" in m)
        assert reused == ["A1_b1", "B1_b1"]
        assert len(messages) == len(channels)
        # Reused and extracted frames come back in channel order, as cached.
        assert list(result) == channels
        for channel_id, (frames, _) in result.items():
            cached, _ = dataset.frames_from_cache(
                tmp_path / "f" / f"{channel_id}.abfc", manifest.label(channel_id),
                channel_id)
            assert np.array_equal(frames.coeffs, cached.coeffs)
            assert np.array_equal(frames.index, cached.index)
        _, mfcc = experiments.load_frames(manifest, channels, tmp_path / "f")
        assert (mfcc["band_low"], mfcc["band_high"]) == (30.0, 50.0)

    def test_new_audio_invalidates_caches(self, tmp_path):
        data = tmp_path / "data"
        messages = []
        for seed in ("1", "1", "2"):
            assert cli.main(["--seed", seed, "synth", "--default-campaign",
                             "--duration", "2", "--out", str(data)]) == 0
            manifest = common.load_manifest(data / "manifest.json")
            experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(),
                                      tmp_path / "f", log=messages.append)
        assert "gated" in messages[0]
        assert messages[1] == "B1_b1: cache reused"  # same seed, same bytes
        assert "gated" in messages[2]

    def test_version_1_cache_is_re_extracted(self, manifest, tmp_path):
        features = tmp_path / "f"
        features.mkdir()
        record = struct.pack("<d13dQ", 43.0, *range(13), 7)
        (features / "B1_b1.abfc").write_bytes(
            b"ABFC" + struct.pack("<HHQ", 1, 13, 1) + record)
        with pytest.raises(DataError, match="re-run extract"):
            experiments.load_frames(manifest, ("B1_b1",), features)
        messages = []
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(),
                                  features, log=messages.append)
        assert "gated" in messages[0]
        frames, mfcc = experiments.load_frames(manifest, ("B1_b1",), features)
        assert mfcc == DEFAULT_SETTINGS
        assert len(frames) > 1

    def test_cache_with_a_non_finite_value_is_re_extracted(self, manifest,
                                                           tmp_path):
        # A NaN read back would score as a frame; the cache is stale instead.
        features = tmp_path / "f"
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(), features)
        path = features / "B1_b1.abfc"
        valid = path.read_bytes()
        frames, signature = dataset.frames_from_cache(path, "H", "B1_b1")
        coeffs = frames.coeffs.copy()
        coeffs[3, 2] = np.nan
        dataset.write_cache(path, dataclasses.replace(frames, coeffs=coeffs),
                            signature)
        with pytest.raises(FormatError, match="cache coeffs holds a non-finite"):
            experiments.load_frames(manifest, ("B1_b1",), features)
        messages = []
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(), features,
                                  log=messages.append)
        assert len(messages) == 1
        assert messages[0].endswith(f"{len(frames)} gated")
        assert path.read_bytes() == valid

    def test_cache_with_the_older_signature_layout_is_re_extracted(
            self, manifest, tmp_path):
        # Older caches recorded the window, Mel range and log floor, and the
        # band as a separate list; the same frames under that signature are
        # stale, so they are extracted again and recorded with the new one.
        features = tmp_path / "f"
        frames = experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(),
                                           features)["B1_b1"][0]
        older = {"dft_size": 2048, "num_channels": 26, "sample_rate": 25600.0,
                 "freq_low": 0.0, "freq_high": 12800.0, "num_coeffs": 13,
                 "window_kind": "hann", "log_floor": 1e-10, "band": [42.0, 45.0]}
        source = audiofile.source_sha256(manifest.wav_path("B1_b1"))
        dataset.write_cache(features / "B1_b1.abfc", frames,
                            {"mfcc": older, "source_sha256": source})
        messages = []
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(), features,
                                  log=messages.append)
        assert len(messages) == 1
        assert messages[0].endswith(f"{len(frames)} gated")
        _, mfcc = experiments.load_frames(manifest, ("B1_b1",), features)
        assert mfcc == DEFAULT_SETTINGS

    def test_fresh_directory_probes_without_errors(self, manifest, tmp_path,
                                                   monkeypatch):
        # A missing cache is stale without a failed read; a v1 cache still
        # fails its read and is re-extracted (test above).
        errors = []
        real = dataset.frames_from_cache

        def frames_from_cache(*args):
            try:
                return real(*args)
            except DataError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(dataset, "frames_from_cache", frames_from_cache)
        experiments.ensure_caches(manifest, list(manifest.entries), MfccConfig(),
                                  tmp_path / "f")
        assert errors == []
        assert len(list((tmp_path / "f").glob("*.abfc"))) == len(list(manifest.entries))

    def test_experiment_parses_each_cache_once_warm_and_none_cold(
            self, manifest, tmp_path, monkeypatch):
        parsed = []
        real = dataset._parse_cache
        monkeypatch.setattr(dataset, "_parse_cache",
                            lambda path: parsed.append(path.name) or real(path))
        split = experiments.named_experiment("seen-motor", manifest, seed=4,
                                             train_size=300, test_size=100)
        per_run, messages = [], []
        for run in ("cold", "warm"):
            parsed.clear()
            experiments.run_experiment(
                manifest, "seen-motor", split, MfccConfig(),
                mlp.TrainConfig(epochs=1, seed=4),
                out_dir=tmp_path / run, features_dir=tmp_path / "f",
                log=messages.append)
            per_run.append(sorted(parsed))
        assert per_run == [[], sorted(f"{c}.abfc" for c in split.channels)]
        warm = messages[len(split.channels):]
        assert warm == [f"{c}: cache reused" for c in split.channels]
        # Frames just extracted train the same model as frames read back.
        assert ((tmp_path / "cold" / "model.abmm").read_bytes()
                == (tmp_path / "warm" / "model.abmm").read_bytes())

    def test_duplicate_channels_rejected(self, manifest, tmp_path):
        with pytest.raises(DataError, match="duplicate channel id: B1_b1"):
            experiments.ensure_caches(manifest, ("B1_b1", "A1_b1", "B1_b1"),
                                      MfccConfig(), tmp_path / "f")
        assert not (tmp_path / "f").exists()
        experiments.ensure_caches(manifest, ("B1_b1",), MfccConfig(),
                                  tmp_path / "f")
        with pytest.raises(DataError, match="duplicate channel id: B1_b1"):
            experiments.load_frames(manifest, ("B1_b1", "B1_b1"), tmp_path / "f")

    def test_mixed_settings_are_rejected_naming_channels(self, manifest,
                                                         tmp_path):
        experiments.ensure_caches(manifest, ("A1_b1", "B1_b1"), MfccConfig(),
                                  tmp_path / "f")
        experiments.ensure_caches(manifest, ("B1_b1",),
                                  MfccConfig(num_coeffs=10),
                                  tmp_path / "f")
        with pytest.raises(DataError, match="B1_b1.*A1_b1"):
            experiments.load_frames(manifest, ("A1_b1", "B1_b1"),
                                    tmp_path / "f")


class TestRun:
    def test_train_on_split_reports_run_details(self, manifest, tmp_path):
        config = MfccConfig()
        channels = ("A1_b1", "A2_b2", "B1_b1", "B2_b2")
        experiments.ensure_caches(manifest, channels, config,
                                  tmp_path / "f")
        frames, mfcc = experiments.load_frames(manifest, channels, tmp_path / "f")
        split = dataset.SplitSpec(train_size=300, test_size=100, seed=2)
        model, log, test_frames = experiments.train_on_split(
            manifest, frames, mfcc, split,
            mlp.TrainConfig(epochs=3, seed=2))
        assert sum(log["train_class_counts"].values()) == 300
        assert len(test_frames) == 100
        assert len(log["per_epoch_loss"]) == 3
        train_rows, _ = dataset.make_split(frames, split)
        fitted = mlp.NormalizationStats.fit(frames.coeffs[train_rows])
        assert np.array_equal(model.norm_stats.mean, fitted.mean)
        assert np.array_equal(model.norm_stats.std, fitted.std)
        assert model.mfcc == mfcc == log["mfcc"]
        report = experiments.evaluate_frames(model, test_frames)
        assert 0.0 <= report["accuracy"] <= 100.0

    def test_evaluate_applies_stored_normalization_to_raw_frames(self, manifest,
                                                                 tmp_path):
        config = MfccConfig()
        experiments.ensure_caches(
            manifest, ("A2_b2", "B2_b2"), config, tmp_path / "f")
        frames, _ = experiments.load_frames(manifest, ("A2_b2", "B2_b2"),
                                            tmp_path / "f")
        split = dataset.SplitSpec(train_size=200, test_size=80, seed=5)
        model, _, test_frames = experiments.train_on_split(
            manifest, frames, None, split,
            mlp.TrainConfig(epochs=3, seed=5))
        _, test_rows = dataset.make_split(frames, split)
        raw_report = experiments.evaluate_frames(model, frames.take(test_rows))
        stats = model.norm_stats
        bare = dataclasses.replace(model, norm_stats=None)
        normalized = dataclasses.replace(
            test_frames, coeffs=(test_frames.coeffs - stats.mean) / stats.std)
        normalized_report = experiments.evaluate_frames(bare, normalized)
        np.testing.assert_array_equal(raw_report["counts"],
                                      normalized_report["counts"])

    def test_evaluate_rejects_dimension_mismatch(self, manifest, tmp_path):
        model = mlp.init_model((10, 4, 2), seed=0)
        experiments.ensure_caches(
            manifest, ("B1_b1",), MfccConfig(), tmp_path / "f")
        frames, _ = experiments.load_frames(manifest, ("B1_b1",), tmp_path / "f")
        with pytest.raises(DataError, match="dimension"):
            experiments.evaluate_frames(model, frames)

    def test_model_records_the_settings_its_caches_hold(self, manifest, tmp_path):
        # The WAVs are 25.6 kHz; the frame length and the rate come from them.
        split = experiments.named_experiment("seen-motor", manifest, seed=4,
                                             train_size=100, test_size=40)
        experiments.run_experiment(
            manifest, "seen-motor", split, MfccConfig(),
            mlp.TrainConfig(epochs=1, seed=4), out_dir=tmp_path / "r",
            features_dir=tmp_path / "f")
        _, mfcc = experiments.load_frames(manifest, split.channels, tmp_path / "f")
        assert mfcc == DEFAULT_SETTINGS
        assert mlp.load_model(tmp_path / "r" / "model.abmm").mfcc == mfcc

    def test_load_frames_needs_a_channel(self, manifest, tmp_path):
        with pytest.raises(DataError, match="no channels"):
            experiments.load_frames(manifest, (), tmp_path)

    def test_run_experiment_writes_complete_results(self, manifest, tmp_path):
        split = experiments.named_experiment("seen-motor", manifest, seed=4,
                                             train_size=300, test_size=100)
        result = experiments.run_experiment(
            manifest, "seen-motor", split, MfccConfig(),
            mlp.TrainConfig(epochs=3, seed=4),
            out_dir=tmp_path / "out",
            features_dir=tmp_path / "f")
        out = tmp_path / "out"
        for name in ("model.abmm", "train_log.json", "report.json",
                     "report.txt", "experiment.json"):
            assert (out / name).exists()
        loaded = mlp.load_model(out / "model.abmm")
        assert loaded.dims == (13, 1024, 100, 2)
