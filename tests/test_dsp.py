import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bearingsound
from bearingsound import dsp
from bearingsound.errors import ConfigError


def direct_dft_power(frame, window):
    """O(N^2) windowed DFT power on bins 0..N/2, summed term by term."""
    n = len(frame)
    out = []
    for nu in range(n // 2 + 1):
        re = im = 0.0
        for k in range(n):
            angle = 2.0 * math.pi * k * nu / n
            re += frame[k] * window[k] * math.cos(angle)
            im -= frame[k] * window[k] * math.sin(angle)
        out.append(re * re + im * im)
    return np.array(out)


def naive_cepstrum(energies, num_coeffs, floor=1e-10):
    """Scalar-loop cosine transform of the log energies."""
    k = len(energies)
    coeffs = []
    for mu in range(1, num_coeffs + 1):
        total = 0.0
        for i in range(1, k + 1):
            total += math.log(max(energies[i - 1], floor)) * math.cos(
                math.pi * (2 * i - 1) * mu / (2 * k))
        coeffs.append(total)
    return np.array(coeffs)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = dsp.MfccConfig()
        assert cfg.dft_size == 2048
        assert cfg.num_channels == 26
        assert cfg.num_coeffs == 13
        assert (cfg.band_low, cfg.band_high) == (42.0, 45.0)

    @pytest.mark.parametrize("kwargs", [
        {"dft_size": 1000},                      # not a power of two
        {"dft_size": 0},
        {"num_coeffs": 30},                      # > num_channels
        {"num_channels": 2000},                  # > N/2
        {"band_low": 45.0, "band_high": 42.0},   # reversed gating band
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            dsp.MfccConfig(**kwargs)


class TestFilterbank:
    def test_single_channel_peaks_at_one(self):
        cfg = dsp.MfccConfig(dft_size=256, num_channels=1, num_coeffs=1,
                             sample_rate=8000.0)
        fb = dsp.build_filterbank(cfg)
        assert fb.shape == (1, 129)
        assert fb[0].max() == 1.0
        assert 0 < int(np.argmax(fb[0])) < 128

    def test_default_centers_interior_and_increasing(self):
        fb = dsp.build_filterbank(dsp.MfccConfig())
        centers = np.argmax(fb, axis=1)
        assert len(centers) == 26
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 0
        assert centers[-1] < 1024

    def test_centers_match_scalar_warp_oracle(self):
        cfg = dsp.MfccConfig()
        fb = dsp.build_filterbank(cfg)

        def mel(f):
            return 2595.0 * math.log10(1.0 + f / 700.0)

        def mel_inv(m):
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

        lo, hi = mel(0.0), mel(12800.0)
        step = (hi - lo) / 27.0
        expected = [mel_inv(lo + step * (i + 1)) for i in range(26)]
        np.testing.assert_allclose(
            dsp.mel_to_hz(np.linspace(0.0, dsp.hz_to_mel(12800.0), 28))[1:-1],
            expected, rtol=1e-10)
        assert np.argmax(fb, axis=1).tolist() == [
            math.floor(2049 * f / 25600.0) for f in expected]

    def test_every_row_is_a_triangle(self):
        fb = dsp.build_filterbank(dsp.MfccConfig())
        for row in fb:
            assert row.min() >= 0.0
            assert row.max() == 1.0
            peak = int(np.argmax(row))
            support = np.flatnonzero(row)
            assert np.all(np.diff(row[support[0] : peak + 1]) > 0)
            assert np.all(np.diff(row[peak : support[-1] + 1]) < 0)

    def test_adjacent_peak_is_neighbors_zero(self):
        fb = dsp.build_filterbank(dsp.MfccConfig())
        peaks = [int(np.argmax(row)) for row in fb]
        for i in range(1, len(peaks)):
            assert fb[i - 1][peaks[i]] == 0.0
            assert fb[i][peaks[i - 1]] == 0.0

    def test_too_many_channels_for_coarse_bins(self):
        cfg = dsp.MfccConfig(dft_size=64, num_channels=26, num_coeffs=13)
        with pytest.raises(ConfigError):
            dsp.build_filterbank(cfg)


class TestPowerSpectrum:
    def test_zero_frame_gives_zero_spectrum(self):
        n = 128
        ps = dsp.power_spectrum(np.zeros(n), np.ones(n))
        assert np.all(ps == 0.0)

    @pytest.mark.parametrize("nu0", [1, 7, 31])
    def test_exact_bin_tone_rectangular(self, nu0):
        n = 128
        k = np.arange(n)
        frame = np.cos(2.0 * np.pi * nu0 * k / n)
        ps = dsp.power_spectrum(frame, np.ones(n))
        expected = (n / 2.0) ** 2
        assert abs(ps[nu0] - expected) <= 1e-6 * expected
        rest = np.delete(ps, nu0)
        assert np.all(rest <= 1e-6 * expected)

    def test_matches_direct_dft_on_random_frames(self):
        rng = np.random.default_rng(41)
        n = 64
        for window in (np.ones(n), dsp.hann_window(n)):
            frame = rng.standard_normal(n)
            expected = direct_dft_power(frame, window)
            got = dsp.power_spectrum(frame, window)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_length_mismatch_is_a_caller_bug(self):
        with pytest.raises(ValueError):
            dsp.power_spectrum(np.zeros(64), dsp.hann_window(128))

    def test_parseval_rectangular(self):
        rng = np.random.default_rng(5)
        n = 256
        window = np.ones(n)
        for _ in range(20):
            frame = rng.standard_normal(n)
            ps = dsp.power_spectrum(frame, window)
            spectral = (ps[0] + 2.0 * ps[1:-1].sum() + ps[-1]) / n
            time_energy = float(np.sum(frame**2))
            assert abs(spectral - time_energy) <= 1e-6 * time_energy


class TestWindows:
    def test_hann_endpoints_and_symmetry(self):
        w = dsp.hann_window(64)
        assert w[0] == 0.0 and w[-1] == 0.0
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestFilterbankEnergies:
    def test_zero_spectrum_gives_zero_energies(self):
        cfg = dsp.MfccConfig()
        fb = dsp.build_filterbank(cfg)
        energies = dsp.filterbank_energies(np.zeros(1025), fb)
        assert np.all(energies == 0.0)

    def test_unit_bin_at_filter_center(self):
        cfg = dsp.MfccConfig()
        fb = dsp.build_filterbank(cfg)
        center_bin = int(np.argmax(fb[10]))
        spectrum = np.zeros(1025)
        spectrum[center_bin] = 1.0
        energies = dsp.filterbank_energies(spectrum, fb)
        assert energies[10] == 1.0
        assert energies[9] == fb[9][center_bin]
        assert energies[11] == fb[11][center_bin]

    def test_matches_double_loop_oracle(self):
        cfg = dsp.MfccConfig(dft_size=32, num_channels=4, num_coeffs=3,
                             sample_rate=1000.0)
        fb = dsp.build_filterbank(cfg)
        rng = np.random.default_rng(9)
        spectrum = rng.uniform(0.0, 5.0, size=17)
        expected = np.zeros(4)
        for i in range(4):
            for nu in range(17):
                expected[i] += fb[i][nu] * spectrum[nu]
        got = dsp.filterbank_energies(spectrum, fb)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_shape_mismatch_rejected(self):
        fb = dsp.build_filterbank(dsp.MfccConfig())
        with pytest.raises(ValueError):
            dsp.filterbank_energies(np.zeros(10), fb)


class TestMfcc:
    def test_constant_energies_give_zero_coefficients(self):
        cfg = dsp.MfccConfig()
        for level in (1e-3, 1.0, 7.3e4):
            coeffs = dsp.mfcc(np.full(26, level), cfg)
            assert np.all(np.abs(coeffs) < 1e-9)

    def test_two_channel_hand_expansion(self):
        cfg = dsp.MfccConfig(dft_size=16, num_channels=2, num_coeffs=2)
        coeffs = dsp.mfcc(np.array([math.e, 1.0]), cfg)
        assert abs(coeffs[0] - math.cos(math.pi / 4.0)) < 1e-12
        assert abs(coeffs[1]) < 1e-12

    def test_matches_naive_cosine_sum(self):
        cfg = dsp.MfccConfig()
        rng = np.random.default_rng(13)
        energies = rng.uniform(1e-6, 10.0, size=26)
        expected = naive_cepstrum(energies, 13)
        got = dsp.mfcc(energies, cfg)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_floor_absorbs_silence(self):
        cfg = dsp.MfccConfig()
        coeffs = dsp.mfcc(np.zeros(26), cfg)
        assert np.all(np.isfinite(coeffs))

    def test_wrong_energy_count_rejected(self):
        with pytest.raises(ValueError):
            dsp.mfcc(np.ones(10), dsp.MfccConfig())


class TestExtractFeatures:
    def test_two_complete_frames(self):
        cfg = dsp.MfccConfig()
        rng = np.random.default_rng(3)
        features = dsp.feature_matrix(rng.standard_normal(4096), cfg)
        assert features.shape == (2, 13)

    def test_partial_frame_dropped(self):
        cfg = dsp.MfccConfig()
        rng = np.random.default_rng(3)
        assert len(dsp.feature_matrix(rng.standard_normal(2047), cfg)) == 0
        features = dsp.feature_matrix(rng.standard_normal(4097), cfg)
        assert len(features) == 2

    def test_stationary_tone_yields_stable_features(self):
        cfg = dsp.MfccConfig()
        k = np.arange(10 * 2048)
        tone = np.sin(2.0 * np.pi * 100.0 * k / 25600.0)  # exact-bin frequency
        features = dsp.feature_matrix(tone, cfg)
        assert len(features) == 10
        base = features[0]
        for row in features[1:]:
            np.testing.assert_allclose(row, base, atol=1e-6)

    @staticmethod
    def pcm_and_floats():
        """600 frames and 5 more samples of random int16 PCM, and the same
        samples as floats in [-1, 1]."""
        ints = np.random.default_rng(8).integers(-32767, 32768, 600 * 2048 + 5)
        return ints.astype(np.int16), ints / 32767

    @pytest.mark.parametrize("pcm", [False, True])
    def test_a_row_does_not_depend_on_its_block(self, pcm):
        # 600 frames make blocks of 64 and a partial last one of 24; pieces
        # cut at frames 1, 63, 64, 65 and 588 put every frame in other blocks,
        # of 1 to 64 rows. The chain over all 600 frames at once agrees too.
        cfg = dsp.MfccConfig()
        n = cfg.dft_size
        ints, floats = self.pcm_and_floats()
        samples = ints if pcm else floats
        whole = dsp.feature_matrix(samples, cfg)
        cuts = (0, 1, 63, 64, 65, 588, 600)
        pieces = [dsp.feature_matrix(samples[a * n : b * n], cfg)
                  for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        fb = dsp.build_filterbank(cfg)
        spectra = dsp.power_spectrum(floats[: 600 * n].reshape(-1, n),
                                     dsp.hann_window(n))
        chain = dsp.mfcc(dsp.filterbank_energies(spectra, fb), cfg)
        assert chain.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("pcm", [False, True])
    @pytest.mark.parametrize("index", [[], [599], [3, 70, 64, 63, 0, 599, 130, 3],
                                       list(range(599, 0, -6))])
    def test_an_index_picks_the_same_rows(self, pcm, index):
        # Frames out of order, repeated, on both sides of the recording's
        # 64-frame block edges, and 100 of them, gathered in two blocks.
        cfg = dsp.MfccConfig()
        ints, floats = self.pcm_and_floats()
        samples = ints if pcm else floats
        index = np.array(index, dtype=np.int64)
        got = dsp.feature_matrix(samples, cfg, index=index)
        assert got.shape == (len(index), cfg.num_coeffs)
        assert got.tobytes() == dsp.feature_matrix(samples, cfg)[index].tobytes()

    def test_same_bytes_on_another_blas_kernel(self):
        # OpenBLAS's Prescott kernel sums a float64 matrix product in another
        # order than the kernels it picks on current x86 CPUs; the features
        # do not move.
        script = ("import hashlib, numpy as np; from bearingsound import dsp; "
                  "ints = np.random.default_rng(8).integers(-32767, 32768, "
                  "600 * 2048 + 5).astype(np.int16); "
                  "print(hashlib.sha256(dsp.feature_matrix(ints, dsp.MfccConfig())"
                  ".tobytes()).hexdigest())")
        package_root = str(Path(bearingsound.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        ints, _ = self.pcm_and_floats()
        here = dsp.feature_matrix(ints, dsp.MfccConfig()).tobytes()
        assert proc.stdout.strip() == hashlib.sha256(here).hexdigest()


class TestPipelineProperties:
    def test_amplitude_invariance(self):
        cfg = dsp.MfccConfig()
        fb = dsp.build_filterbank(cfg)
        rng = np.random.default_rng(11)
        frame = rng.standard_normal(2048) + np.sin(np.arange(2048) * 0.1)
        window = dsp.hann_window(2048)
        base_energies = dsp.filterbank_energies(dsp.power_spectrum(frame, window), fb)
        base = dsp.mfcc(base_energies, cfg)
        for alpha in (0.5, 2.0, 10.0):
            energies = dsp.filterbank_energies(
                dsp.power_spectrum(alpha * frame, window), fb)
            np.testing.assert_allclose(energies, alpha**2 * base_energies,
                                       rtol=1e-9)
            coeffs = dsp.mfcc(energies, cfg)
            np.testing.assert_allclose(coeffs, base, atol=1e-6)

    def test_deterministic_across_runs(self):
        cfg = dsp.MfccConfig()
        rng = np.random.default_rng(17)
        samples = rng.standard_normal(6 * 2048)
        first = dsp.feature_matrix(samples, cfg)
        second = dsp.feature_matrix(samples, cfg)
        assert np.array_equal(first, second)

    def test_full_chain_matches_naive_oracle_small_n(self):
        cfg = dsp.MfccConfig(dft_size=64, num_channels=6, num_coeffs=4,
                             sample_rate=1000.0)
        fb = dsp.build_filterbank(cfg)
        window = dsp.hann_window(64)
        rng = np.random.default_rng(23)
        samples = rng.standard_normal(3 * 64)
        got = dsp.feature_matrix(samples, cfg)
        for frame_no in range(3):
            frame = samples[frame_no * 64 : (frame_no + 1) * 64]
            spectrum = direct_dft_power(frame, window)
            energies = np.zeros(6)
            for i in range(6):
                for nu in range(33):
                    energies[i] += fb[i][nu] * spectrum[nu]
            expected = naive_cepstrum(energies, 4)
            np.testing.assert_allclose(got[frame_no], expected, rtol=1e-9,
                                       atol=1e-9)
