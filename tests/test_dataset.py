import json
import struct

import numpy as np
import pytest

from bearingsound import audiofile, common, dataset, dsp, experiments, mlp, synth
from bearingsound.audiofile import AudioRecording
from bearingsound.common import LABELS, Manifest, ManifestEntry
from bearingsound.dataset import Frames, SplitSpec
from bearingsound.dsp import MfccConfig
from bearingsound.errors import ConfigError, DataError, FormatError
from bearingsound.mlp import NormalizationStats

FRAME = 2048
FS = 25600.0
SIGNATURE = {"mfcc": {"num_coeffs": 13, "band": [42.0, 45.0]},
             "source_sha256": "0" * 64}


def recording_with_track(track, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(len(track) * FRAME)
    return AudioRecording(samples=samples, fs=FS, channel_id="c",
                          rotational_freq_track=np.asarray(track, dtype=float))


def profile_frame_means(profile, num_frames, fs=FS, frame=FRAME):
    """Analytic per-frame means of a piecewise-linear profile.

    Independent of the generator: integrates the interpolant on a dense
    regular grid per frame using the trapezoid rule, which is exact for
    piecewise-linear functions once breakpoints are grid points.
    """
    times = np.array([p[0] for p in profile])
    means = []
    for index in range(num_frames):
        t0 = index * frame / fs
        t1 = (index + 1) * frame / fs
        knots = np.unique(np.concatenate(
            [[t0, t1], times[(times > t0) & (times < t1)]]))
        f = np.interp(knots, times, [p[1] for p in profile])
        area = np.trapezoid(f, knots) if hasattr(np, "trapezoid") else np.trapz(f, knots)
        means.append(area / (t1 - t0))
    return np.asarray(means)


class TestPcmFeatures:
    def test_extract_from_pcm_chunks_caches_the_float_samples_features(self, tmp_path):
        # Two full spectrum blocks, a partial one and a partial last frame;
        # some frames fall outside the gating band.
        n = 2 * dsp._SPECTRUM_SAMPLES + 5 * FRAME + 300
        wav = tmp_path / "c.wav"
        audiofile.write_wav(wav, np.random.default_rng(6).standard_normal(n), FS)
        track = np.where(np.arange(n // FRAME) % 7 == 3, 40.0, 43.0)
        audiofile.write_rot_track(wav, track)
        manifest = Manifest({"c": ManifestEntry(file="c.wav", label="D", axle="",
                                                component="motor", description="")},
                            tmp_path)
        total, frames = experiments.extract_channel(
            manifest, "c", MfccConfig(), tmp_path / "pcm.abfc", SIGNATURE)

        samples = audiofile.read_pcm(wav)[0] / audiofile.PCM_FULL_SCALE
        recording = AudioRecording(samples=samples, fs=FS, channel_id="c",
                                   rotational_freq_track=track)
        expected = dataset.gate_frames(recording, MfccConfig(), "D")
        dataset.write_cache(tmp_path / "float.abfc", expected, SIGNATURE)
        assert total == n // FRAME
        assert frames.coeffs.tobytes() == expected.coeffs.tobytes()
        assert ((tmp_path / "pcm.abfc").read_bytes()
                == (tmp_path / "float.abfc").read_bytes())


class TestGating:
    def test_boundary_semantics(self):
        track = [41.9, 42.0, 43.0, 45.0, 45.1, 30.0]
        recording = recording_with_track(track)
        frames = dataset.gate_frames(recording, MfccConfig(), "H")
        assert frames.index.tolist() == [1, 2, 3]
        assert np.all(frames.labels == LABELS.index("H"))
        assert frames.rot[0] == 42.0
        assert frames.rot[-1] == 45.0

    def test_only_in_band_frames_are_featurized(self, monkeypatch):
        blocks = []
        real = dsp.power_spectrum
        monkeypatch.setattr(dsp, "power_spectrum", lambda frames, window: (
            blocks.append(len(frames)) or real(frames, window)))
        recording = recording_with_track([41.9, 42.0, 43.0, 45.0, 45.1, 30.0, 44.0])
        frames = dataset.gate_frames(recording, MfccConfig(), "H")
        assert frames.index.tolist() == [1, 2, 3, 6]
        assert blocks == [4]
        whole = dsp.feature_matrix(recording.samples, FS, FRAME, MfccConfig())
        assert frames.coeffs.tobytes() == whole[frames.index].tobytes()

    def test_missing_track_is_malformed_input(self):
        recording = AudioRecording(samples=np.zeros(FRAME - 1), fs=FS,
                                   channel_id="c",
                                   rotational_freq_track=np.zeros(0))
        with pytest.raises(DataError):
            dataset.gate_frames(recording, MfccConfig(), "H")

    def test_rate_too_high_for_the_mel_channels_names_the_channel(self):
        track = [43.0] * 2
        recording = AudioRecording(samples=np.ones(2 * FRAME), fs=400000.0,
                                   channel_id="c", rotational_freq_track=track)
        with pytest.raises(DataError) as info:
            dataset.gate_frames(recording, MfccConfig(), "H")
        assert str(info.value) == ("c: 26 Mel channels do not fit below 200000.0 Hz "
                                   "at a bin width of 195.312 Hz; at most 22 do")

    def test_kept_fraction_tracks_profile_analytically(self):
        profile = ((0.0, 43.5), (18.0, 43.5), (20.0, 36.0), (24.0, 36.0),
                   (26.0, 44.0), (40.96, 44.0))
        config = synth.SynthConfig(fs=FS, duration=40.96, seed=2,
                                   profile=profile,
                                   harmonics=((1, 1.0),),
                                   noise_level=0.1)
        recording = synth.synth_recording(config, "p")
        frames = dataset.gate_frames(recording, MfccConfig(), "H")
        num_frames = len(recording.samples) // FRAME
        means = profile_frame_means(profile, num_frames)
        expected = int(np.sum((means >= 42.0) & (means <= 45.0)))
        assert len(frames) == expected
        # time-fraction reading of the same expectation
        in_band_time = expected * FRAME / FS
        assert abs(len(frames) * FRAME / FS - in_band_time) <= 0.02 * 40.96

    def test_gating_is_idempotent(self):
        recording = recording_with_track([41.0, 43.0, 44.0, 46.0])
        frames = dataset.gate_frames(recording, MfccConfig(), "D")
        # Gate a recording made of only the kept frames: nothing more drops.
        kept = AudioRecording(
            samples=np.concatenate([recording.samples[i * FRAME : (i + 1) * FRAME]
                                    for i in frames.index]),
            fs=FS, channel_id="c", rotational_freq_track=frames.rot)
        again = dataset.gate_frames(kept, MfccConfig(), "D")
        assert len(again) == len(frames) == 2
        assert np.array_equal(again.coeffs, frames.coeffs)
        assert np.array_equal(again.rot, frames.rot)
        assert np.array_equal(again.labels, frames.labels)

    def test_default_campaign_counts_match_analytic_means(self):
        scenario = synth.default_scenario(seed=31, duration=50.0)
        config = MfccConfig()
        for spec in scenario[:2]:
            recording = synth.synth_recording(spec.config, spec.channel_id)
            frames = dataset.gate_frames(recording, config, spec.entry.label)
            num_frames = len(recording.samples) // FRAME
            means = profile_frame_means(spec.config.profile,
                                        num_frames)
            expected = int(np.sum((means >= 42.0) & (means <= 45.0)))
            assert len(frames) == expected


def make_frames(n, label="H", channel="c", dim=13, seed=0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Frames(coeffs=rng.standard_normal((n, dim)) + offset,
                  labels=np.full(n, LABELS.index(label)),
                  channels=np.zeros(n, dtype=np.int64), rot=np.full(n, 43.0),
                  index=np.arange(n), channel_ids=(channel,))


def frame_keys(frames):
    return [(frames.channel_ids[c], i)
            for c, i in zip(frames.channels.tolist(), frames.index.tolist())]


class TestSplits:
    def test_random_split_is_deterministic_partition(self):
        frames = Frames.concat([make_frames(60, "H"),
                                make_frames(40, "D", channel="d", seed=1)])
        spec = SplitSpec(train_size=70, test_size=30, seed=9)
        train1, test1 = dataset.make_split(frames, spec)
        train2, test2 = dataset.make_split(frames, spec)
        assert frame_keys(frames.take(train1)) == frame_keys(frames.take(train2))
        assert frame_keys(frames.take(test1)) == frame_keys(frames.take(test2))
        train_keys = set(frame_keys(frames.take(train1)))
        test_keys = set(frame_keys(frames.take(test1)))
        assert not (train_keys & test_keys)
        assert len(train_keys | test_keys) == 100

    def test_random_split_needs_enough_frames(self):
        frames = make_frames(10)
        with pytest.raises(DataError):
            dataset.make_split(frames, SplitSpec(train_size=8, test_size=3,
                                                 seed=0))

    def test_by_channel_split_respects_assignment(self):
        frames = Frames.concat([
            make_frames(50, label, channel, seed=seed)
            for seed, (channel, label) in enumerate((("A1_b1", "D"), ("B1_b1", "H"),
                                                     ("A2_b2", "D"), ("B2_b2", "H")))])
        spec = SplitSpec(train_size=60, test_size=60, seed=4,
                         train_channels=("A1_b1", "B1_b1"),
                         test_channels=("A2_b2", "B2_b2"))
        train, test = dataset.make_split(frames, spec)
        assert {c for c, _ in frame_keys(frames.take(train))} == {"A1_b1", "B1_b1"}
        assert {c for c, _ in frame_keys(frames.take(test))} == {"A2_b2", "B2_b2"}
        assert dataset.label_counts(frames.labels[train]) == {"H": 30, "D": 30}

    def test_by_channel_overlap_rejected(self):
        with pytest.raises(DataError):
            SplitSpec(train_size=10, test_size=10, seed=0,
                      train_channels=("a", "b"), test_channels=("b", "c"))

    @pytest.mark.parametrize("fields", [
        {"train_size": 0},
        {"test_size": -1},
        {"train_channels": ()},
        {"train_channels": ("a",)},
        {"test_channels": ("b",)},
        {"seed": -1},
        {"channels": ("c",), "train_channels": ("a",), "test_channels": ("b",)},
    ])
    def test_usage_errors_are_config_errors(self, fields):
        # A channel list makes the split by-channel, which needs both lists
        # and pools no other channels; a negative seed would fail only in
        # make_split's default_rng.
        with pytest.raises(ConfigError):
            SplitSpec(**{"train_size": 10, "test_size": 10, **fields})

    def test_by_channel_insufficient_frames_names_channel(self):
        frames = Frames.concat([make_frames(5, "D", "small"),
                                make_frames(50, "H", "big")])
        spec = SplitSpec(train_size=20, test_size=10, seed=0,
                         train_channels=("small",), test_channels=("big",))
        with pytest.raises(DataError, match="small"):
            dataset.make_split(frames, spec)


def zscore(x, stats):
    return (x - stats.mean) / stats.std


class TestNormalization:
    def test_single_frame_is_degenerate(self):
        with pytest.raises(DataError):
            NormalizationStats.fit(make_frames(1).coeffs)

    def test_fitted_stats_standardize_training_set(self):
        x = make_frames(500, seed=3).coeffs
        stats = NormalizationStats.fit(x)
        matrix = zscore(x, stats)
        np.testing.assert_allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(matrix.std(axis=0), 1.0, atol=1e-9)
        # A model holding the stats applies them to raw rows.
        model = mlp.init_model((13, 4, 2), seed=0)
        on_normalized = mlp.predict_batch(model, matrix)
        model.norm_stats = stats
        assert np.array_equal(mlp.predict_batch(model, x), on_normalized)

    def test_shift_invariance(self):
        x = make_frames(200, seed=8).coeffs
        shifted = x + 17.5
        base = zscore(x, NormalizationStats.fit(x))
        other = zscore(shifted, NormalizationStats.fit(shifted))
        np.testing.assert_allclose(base, other, atol=1e-9)

    def test_zero_variance_coefficient_rejected(self):
        constant = make_frames(50, seed=2).coeffs
        constant[:, -1] = 3.0
        with pytest.raises(DataError, match="c13"):
            NormalizationStats.fit(constant)

    def test_stats_depend_only_on_training_partition(self):
        frames = make_frames(100, seed=5)
        spec = SplitSpec(train_size=70, test_size=30, seed=1)
        train, _ = dataset.make_split(frames, spec)
        stats1 = NormalizationStats.fit(frames.coeffs[train])
        stats2 = NormalizationStats.fit(frames.coeffs[train].copy())
        assert np.array_equal(stats1.mean, stats2.mean)
        assert np.array_equal(stats1.std, stats2.std)

    def test_bad_stats_rejected(self):
        with pytest.raises(DataError):
            NormalizationStats(mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0]))


class TestFeatureCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        for trial in range(10):
            rows = [(rng.standard_normal(13), rng.uniform(42, 45),
                     rng.integers(0, 10000))
                    for _ in range(int(rng.integers(1, 40)))]
            n = len(rows)
            frames = Frames(coeffs=np.array([r[0] for r in rows]),
                            labels=np.full(n, LABELS.index("D")),
                            channels=np.zeros(n, dtype=np.int64),
                            rot=np.array([r[1] for r in rows]),
                            index=np.array([r[2] for r in rows]),
                            channel_ids=("x",))
            path = tmp_path / f"t{trial}.abfc"
            dataset.write_cache(path, frames, SIGNATURE)
            coeffs, rot, idx = dataset.read_cache(path)
            assert dataset.frames_from_cache(path, "D", "x")[1] == SIGNATURE
            assert np.array_equal(coeffs, frames.coeffs)
            assert np.array_equal(rot, frames.rot)
            assert np.array_equal(idx, frames.index)

    def test_frames_round_trip_through_cache(self, tmp_path):
        frames = make_frames(20, "D", "ch")
        path = tmp_path / "c.abfc"
        dataset.write_cache(path, frames, SIGNATURE)
        loaded, signature = dataset.frames_from_cache(path, "D", "ch")
        assert signature == SIGNATURE
        assert frame_keys(loaded) == frame_keys(frames)
        assert np.array_equal(loaded.coeffs, frames.coeffs)
        assert np.array_equal(loaded.labels, frames.labels)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.abfc"
        dataset.write_cache(path, make_frames(3), SIGNATURE)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            dataset.read_cache(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.abfc"
        dataset.write_cache(path, make_frames(3), SIGNATURE)
        blob = bytearray(path.read_bytes())
        for version in (99, 1):  # 1 is the layout without a signature
            blob[4:6] = version.to_bytes(2, "little")
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError, match="version.*re-run extract"):
                dataset.read_cache(path)
            with pytest.raises(FormatError, match="version"):
                dataset.frames_from_cache(path, "D", "x")[1]

    def test_signature_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.abfc"
        dataset.write_cache(path, make_frames(3), ["mfcc"])
        with pytest.raises(FormatError, match="JSON object"):
            dataset.frames_from_cache(path, "D", "x")[1]
        nested = b"[" * 100_000
        path.write_bytes(b"ABFC" + struct.pack("<HI", 3, len(nested)) + nested)
        with pytest.raises(FormatError, match="corrupt feature cache header"):
            dataset.frames_from_cache(path, "D", "x")[1]

    @pytest.mark.parametrize("counts", [
        {"coeffs": True, "frames": 0}, {"coeffs": 3, "frames": -1},
        {"coeffs": "3", "frames": 0}, {"coeffs": 1.5, "frames": 0},
        {"coeffs": 1 << 16, "frames": 0}, {"frames": 0}])
    def test_header_counts_must_be_integers(self, tmp_path, counts):
        path = tmp_path / "counts.abfc"
        header = json.dumps({**counts, "signature": SIGNATURE}).encode()
        path.write_bytes(b"ABFC" + struct.pack("<HI", 3, len(header)) + header)
        with pytest.raises(FormatError, match="cache header needs counts"):
            dataset.read_cache(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "trunc.abfc"
        dataset.write_cache(path, make_frames(3), SIGNATURE)
        blob = path.read_bytes()
        # Into the frame records, the signature and the fixed header.
        for keep in (len(blob) - 5, 40, 10):
            path.write_bytes(blob[:keep])
            with pytest.raises(FormatError, match="truncated"):
                dataset.read_cache(path)


class TestManifest:
    def entry(self, file="a.wav", label="H"):
        return ManifestEntry(file=file, label=label, axle="B1",
                             component="motor", description="")

    def test_round_trip(self, tmp_path):
        entries = {"B1_b1": self.entry(), "A1_b1": self.entry("b.wav", "D")}
        common.save_manifest(entries, tmp_path / "manifest.json")
        loaded = common.load_manifest(tmp_path / "manifest.json")
        assert loaded.entries == entries
        assert loaded.wav_path("B1_b1") == tmp_path / "a.wav"
        assert loaded.label("A1_b1") == "D"

    def test_duplicate_channel_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        entry = ('{"file": "a.wav", "label": "H", "axle": "B1", '
                 '"component": "motor", "description": ""}')
        path.write_text('{"X": %s, "X": %s}' % (entry, entry))
        with pytest.raises(DataError, match="duplicate"):
            common.load_manifest(path)

    def test_duplicate_field_in_entry_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"A1_b1": {"file": "A1_b1.wav", "label": "H", "label": "D"}}')
        with pytest.raises(DataError, match="duplicate key in manifest: label") as info:
            common.load_manifest(path)
        assert "channel id" not in str(info.value)

    @pytest.mark.parametrize("fields", [["file", "label"], "a.wav", None])
    def test_entry_that_is_not_an_object_rejected(self, tmp_path, fields):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"X": fields}))
        with pytest.raises(DataError, match="bad entry for X"):
            common.load_manifest(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"X": {"file": "a.wav", "label": "H",
                                          "componnet": "gearbox", "axel": "B1"}}))
        with pytest.raises(DataError) as info:
            common.load_manifest(path)
        assert str(info.value) == (f"{path}: bad entry for X "
                                   "(unknown manifest keys: axel, componnet)")

    @pytest.mark.parametrize("channel_id,record,reason", [
        ("X", ["file", "label"], "entry must be a JSON object, got ['file', 'label']"),
        ("X", {"label": "H"}, "missing manifest keys: file"),
        ("X", {"file": "a.wav", "label": "broken"}, "label must be H or D, got 'broken'"),
        ("X", {"file": "a.wav", "label": "H", "component": "axle"},
         "component must be motor or gearbox, got 'axle'"),
        ("a/b", {"file": "a.wav", "label": "H"},
         "channel id 'a/b' must be a string naming a file, not a path"),
        ("X", {"file": "a.wav", "label": "H", "axle": 3}, "axle: 3 is not a string"),
        ("X", {"file": "a.wav", "label": "H", "description": None},
         "description: None is not a string"),
        ("X", {"file": "a.wav", "label": "H", "axle": ["A1"]},
         "axle: ['A1'] is not a string"),
        ("X", {"file": 12, "label": "H"}, "file: 12 is not a string"),
        ("X", {"file": None, "label": "H"}, "file: None is not a string"),
        ("X", {"file": "a.wav", "label": 1}, "label: 1 is not a string")])
    def test_bad_entry_names_file_channel_and_reason(self, tmp_path, channel_id,
                                                     record, reason):
        # Non-strings were once recorded through str() ("3", "None"), and a
        # file of 12 failed later as "source file not found: 12".
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({channel_id: record}))
        with pytest.raises(DataError) as info:
            common.load_manifest(path)
        assert str(info.value) == f"{path}: bad entry for {channel_id} ({reason})"

    def test_entry_defaults(self):
        assert ManifestEntry("a.wav", "H") == ManifestEntry(
            file="a.wav", label="H", axle="", component="motor", description="")

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"X": {"file": "a.wav", "label": "broken"}}))
        with pytest.raises(DataError):
            common.load_manifest(path)

    @pytest.mark.parametrize("channel_id", ["", ".", "..", "../evil", "a/b", "a\\b",
                                            "a\0b"])
    def test_path_like_channel_id_rejected(self, tmp_path, channel_id):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({channel_id: {"file": "a.wav", "label": "H"}}))
        with pytest.raises(DataError, match="channel id"):
            common.load_manifest(path)

    def test_undecodable_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        for blob in (b'{"X": {"file": "a.wav", "label": "\xff"}}',
                     b"[" * 100_000):  # not UTF-8; nested past the stack
            path.write_bytes(blob)
            with pytest.raises(DataError, match="invalid JSON"):
                common.load_manifest(path)

    def test_select_filters(self, tmp_path):
        # seen-gearbox keeps the healthy gearbox channels at B1/B2/A1, in
        # manifest order: not the A2 gearbox, not the motor channel.
        manifest = Manifest(entries={
            "A1_b3": ManifestEntry("1.wav", "H", "A1", "gearbox", ""),
            "A2_b4": ManifestEntry("2.wav", "H", "A2", "gearbox", ""),
            "A2_b3": ManifestEntry("3.wav", "D", "A2", "gearbox", ""),
            "B1_b1": ManifestEntry("4.wav", "H", "B1", "motor", ""),
            "B2_b3": ManifestEntry("5.wav", "H", "B2", "gearbox", ""),
        }, base_dir=tmp_path)
        spec = experiments.named_experiment("seen-gearbox", manifest, seed=0)
        assert spec.channels == ("A2_b3", "A1_b3", "B2_b3")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            common.load_manifest(tmp_path / "none.json")
