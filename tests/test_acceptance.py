"""Acceptance gate for the whole pipeline.

Each test enforces one release criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s``). The synthetic-experiment checks
build one full-size campaign (10 minutes of audio per channel) and run the
named protocols end to end.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bearingsound import cli, common, dataset, dsp, metrics, mlp
from bearingsound.audiofile import AudioRecording
from bearingsound.dsp import MfccConfig
from bearingsound.metrics import round_half_up


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] {title}: FAIL")
        raise
    print(f"[ACCEPTANCE {number}] {title}: PASS")


@pytest.fixture(scope="module")
def full_campaign_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("full_campaign")
    rc = cli.main(["--seed", "0", "synth", "--default-campaign",
                   "--duration", "600", "--out", str(path)])
    assert rc == 0
    return path


def run_named_experiment(name, data_dir, out_dir):
    rc = cli.main(["--seed", "5", "experiment", name, "--data", str(data_dir),
                   "--out", str(out_dir)])
    assert rc == 0
    return json.loads((out_dir / "report.json").read_text())


def test_criterion_1_metric_reproduction():
    published = [
        ([[9987, 135], [56, 9822]], [[99.44, 1.36], [0.56, 98.64]], 99.04),
        ([[15000, 29], [20, 4949]], [[99.87, 0.58], [0.13, 99.42]], 99.75),
        ([[21850, 636], [3150, 24363]], [[87.40, 2.54], [12.60, 97.46]], 92.43),
        ([[24656, 3194], [344, 21805]], [[98.62, 12.78], [1.38, 87.22]], 92.92),
    ]
    with criterion(1, "published count matrices reproduce printed values"):
        start = time.perf_counter()
        for counts, expected_pct, expected_acc in published:
            report = metrics.metrics(np.array(counts))
            for r in range(2):
                for c in range(2):
                    assert abs(report["percentages"][r][c] - expected_pct[r][c]) <= 0.01
            assert abs(round_half_up(report["accuracy"]) - expected_acc) <= 0.01
        assert time.perf_counter() - start < 1.0


def test_criterion_2_cepstral_identities():
    with criterion(2, "cepstral analytic identities"):
        start = time.perf_counter()
        cfg = dsp.MfccConfig()
        # constant filter energies annihilate every coefficient
        for level in (1e-4, 1.0, 3.7e5):
            coeffs = dsp.mfcc(np.full(26, level), cfg)
            assert np.all(np.abs(coeffs) < 1e-9)
        # amplitude invariance of c1..c13
        fb = dsp.build_filterbank(cfg, 25600.0, 2048)
        window = dsp.hann_window(2048)
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(2048)
        base = dsp.mfcc(dsp.filterbank_energies(
            dsp.power_spectrum(frame, window), fb), cfg)
        for alpha in (0.5, 2.0, 10.0):
            scaled = dsp.mfcc(dsp.filterbank_energies(
                dsp.power_spectrum(alpha * frame, window), fb), cfg)
            assert np.all(np.abs(scaled - base) < 1e-6)
        # full chain against a naive direct evaluation at small N
        small = MfccConfig(num_channels=6, num_coeffs=4)
        small_fb = dsp.build_filterbank(small, 1000.0, 64)
        small_window = dsp.hann_window(64)
        samples = rng.standard_normal(5 * 64)
        got = dsp.feature_matrix(samples, 1000.0, 64, small)
        for frame_no in range(5):
            piece = samples[frame_no * 64 : (frame_no + 1) * 64]
            spectrum = []
            for nu in range(33):
                re = im = 0.0
                for k in range(64):
                    angle = 2.0 * math.pi * k * nu / 64
                    re += piece[k] * small_window[k] * math.cos(angle)
                    im -= piece[k] * small_window[k] * math.sin(angle)
                spectrum.append(re * re + im * im)
            expected = []
            for mu in range(1, 5):
                total = 0.0
                for i in range(1, 7):
                    energy = sum(small_fb[i - 1][nu] * spectrum[nu]
                                 for nu in range(33))
                    total += math.log(max(energy, small.log_floor)) * math.cos(
                        math.pi * (2 * i - 1) * mu / 12.0)
                expected.append(total)
            np.testing.assert_allclose(got[frame_no], expected, rtol=1e-9,
                                       atol=1e-9)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_dft_correctness():
    with criterion(3, "transform Parseval and brute-force equivalence"):
        rng = np.random.default_rng(2)
        n = 64
        rect = np.ones(n)
        angles = 2.0 * np.pi * np.outer(np.arange(n // 2 + 1), np.arange(n)) / n
        cos_m, sin_m = np.cos(angles), np.sin(angles)
        for _ in range(100):
            frame = rng.standard_normal(n)
            ps = dsp.power_spectrum(frame, rect)
            # Parseval within 1e-6 relative
            spectral = (ps[0] + 2.0 * ps[1:-1].sum() + ps[-1]) / n
            time_energy = float(np.sum(frame**2))
            assert abs(spectral - time_energy) <= 1e-6 * time_energy
            # direct quadratic-cost evaluation within 1e-9
            brute = (cos_m @ frame) ** 2 + (sin_m @ frame) ** 2
            np.testing.assert_allclose(ps, brute, rtol=1e-9, atol=1e-9)


def test_criterion_4_gradient_correctness():
    with criterion(4, "backpropagation matches central finite differences"):
        start = time.perf_counter()
        model = mlp.init_model((13, 4, 3, 2), seed=11)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 13))
        y = rng.integers(0, 2, size=6)
        grad_w, grad_b = mlp.backward(model, x, y)
        h = 1e-5
        for param, grad in zip(model.weights + model.biases, grad_w + grad_b):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                index = it.multi_index
                saved = param[index]
                param[index] = saved + h
                up = mlp.loss(mlp.predict_batch(model, x), y)
                param[index] = saved - h
                down = mlp.loss(mlp.predict_batch(model, x), y)
                param[index] = saved
                numeric = (up - down) / (2.0 * h)
                scale = max(abs(numeric), abs(grad[index]), 1e-8)
                assert abs(numeric - grad[index]) / scale < 1e-4
        assert time.perf_counter() - start < 10.0


def test_criterion_5_experiment_determinism(campaign_dir, tmp_path):
    with criterion(5, "repeated runs are byte-identical"):
        outs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            rc = cli.main(["--seed", "17", "experiment", "seen-motor",
                           "--data", str(campaign_dir),
                           "--train-size", "400", "--test-size", "100",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for name in ("model.abmm", "report.json", "report.txt",
                     "train_log.json", "experiment.json"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name


def test_criterion_6_seen_damage_analog(full_campaign_dir, tmp_path):
    with criterion(6, "seen-damage analog reaches 95% at desk scale"):
        start = time.perf_counter()
        report = run_named_experiment("seen-motor", full_campaign_dir,
                                      tmp_path / "seen-motor")
        elapsed = time.perf_counter() - start
        assert report["accuracy"] >= 95.0, report
        assert elapsed < 300.0


def test_criterion_7_unseen_damage_analog(full_campaign_dir, tmp_path):
    with criterion(7, "unseen-damage analogs reach 85% with severity asymmetry"):
        developed_unseen = run_named_experiment(
            "unseen-A2b2", full_campaign_dir, tmp_path / "unseen-A2b2")
        early_unseen = run_named_experiment(
            "unseen-A1b1", full_campaign_dir, tmp_path / "unseen-A1b1")
        assert developed_unseen["accuracy"] >= 85.0, developed_unseen
        assert early_unseen["accuracy"] >= 85.0, early_unseen
        # Trained on the developed fault, the early fault is missed more
        # often than the reverse.
        assert (early_unseen["damage_detection_rate"]
                < developed_unseen["damage_detection_rate"])


def in_band_time_fraction(profile, duration, low=42.0, high=45.0):
    """Exact measure of {t in [0, duration] : low <= f(t) <= high} / duration
    for a piecewise-linear profile (computed segment by segment)."""
    points = list(profile) + [(duration, profile[-1][1])]
    total = 0.0
    for (t0, f0), (t1, f1) in zip(points, points[1:]):
        t1 = min(t1, duration)
        if t1 <= t0:
            continue
        if f0 == f1:
            total += (t1 - t0) if low <= f0 <= high else 0.0
            continue
        slope = (f1 - f0) / (t1 - t0)
        f_lo, f_hi = min(f0, f1), max(f0, f1)
        overlap = max(0.0, min(f_hi, high) - max(f_lo, low))
        total += overlap / abs(slope)
    return total / duration


def test_criterion_8_gating_exactness():
    with criterion(8, "frame gate matches analytic in-band expectation"):
        from bearingsound import synth

        duration = 81.92  # 1024 frames at the default rate
        profile = ((0.0, 43.7), (30.0, 43.7), (34.0, 33.0), (40.0, 33.0),
                   (46.0, 44.2), (duration, 44.2))
        config = synth.SynthConfig(fs=25600.0, duration=duration, seed=6,
                                   profile=profile,
                                   harmonics=((1, 1.0),),
                                   noise_level=0.1)
        recording = synth.synth_recording(config, "gate")
        frames = dataset.gate_frames(recording, MfccConfig(), "H")
        expected_fraction = in_band_time_fraction(profile, duration)
        total = len(recording.samples) // 2048
        got_fraction = len(frames) / total
        assert abs(got_fraction - expected_fraction) <= 0.02
        # closed-interval boundaries: 42.0 and 45.0 are both kept
        rng = np.random.default_rng(0)
        boundary = AudioRecording(
            samples=rng.standard_normal(3 * 2048), fs=25600.0, channel_id="b",
            rotational_freq_track=np.array([42.0, 45.0, 41.999]))
        kept = dataset.gate_frames(boundary, MfccConfig(), "H")
        assert kept.rot.tolist() == [42.0, 45.0]


def test_criterion_9_round_trips(tmp_path):
    with criterion(9, "model and feature-cache round-trips are bit-exact"):
        rng = np.random.default_rng(31)
        for trial in range(100):
            dims = (13, int(rng.integers(2, 12)), 2)
            model = mlp.init_model(dims, seed=trial)
            model_path = tmp_path / "model.abmm"
            mlp.save_model(model, model_path)
            loaded = mlp.load_model(model_path)
            for a, b in zip(model.weights + model.biases,
                            loaded.weights + loaded.biases):
                assert np.array_equal(a, b)

            count = int(rng.integers(1, 30))
            rows = [(rng.standard_normal(13), rng.uniform(42, 45),
                     rng.integers(0, 1 << 40)) for _ in range(count)]
            frames = dataset.Frames(
                coeffs=np.array([r[0] for r in rows]),
                labels=np.full(count, common.LABELS.index("D")),
                channels=np.zeros(count, dtype=np.int64),
                rot=np.array([r[1] for r in rows]),
                index=np.array([r[2] for r in rows]), channel_ids=("x",))
            cache_path = tmp_path / "cache.abfc"
            signature = {"mfcc": {"num_coeffs": 13}, "source_sha256": str(trial)}
            dataset.write_cache(cache_path, frames, signature)
            coeffs, rot, idx = dataset.read_cache(cache_path)
            assert dataset.frames_from_cache(cache_path, "D", "x")[1] == signature
            assert np.array_equal(coeffs, frames.coeffs)
            assert np.array_equal(rot, frames.rot)
            assert np.array_equal(idx, frames.index)
