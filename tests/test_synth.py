import dataclasses
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bearingsound import audiofile, cli, common, dataset, dsp, experiments, synth
from bearingsound.errors import ConfigError, DataError


def tone_config(seed=123, duration=4.0, fault=None, noise=0.0,
                harmonics=((1, 1.0),), f_r=43.0):
    return synth.SynthConfig(
        fs=25600.0, duration=duration, seed=seed,
        rotational_freq_profile=((0.0, f_r),),
        harmonic_amplitudes=harmonics, noise_level=noise, fault=fault)


def impulse_train(config):
    """The impact sample positions and amplitudes synth_recording draws for a
    faulted config."""
    _, revs = synth._shaft_revolutions(config)
    rng_fault = synth._child_rngs(config.seed)[2]
    return synth._fault_impulses(config, revs, rng_fault)


def impulse_indices(config):
    return impulse_train(config)[0]


def outer_fault(amplitude=2.0, ratio=3.5, jitter=0.0):
    return synth.FaultSpec(
        fault_kind=synth.OUTER_RING, fault_freq_ratio=ratio,
        impulse_amplitude=amplitude, resonance_freq=4000.0,
        resonance_decay=900.0, severity_jitter=jitter)


class TestConfigValidation:
    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthConfig(rotational_freq_profile=((0.0, 43.0), (0.0, 44.0)))
        with pytest.raises(ConfigError):
            synth.SynthConfig(rotational_freq_profile=((0.0, -1.0),))
        with pytest.raises(ConfigError):
            synth.SynthConfig(rotational_freq_profile=())

    def test_bad_fault_rejected(self):
        with pytest.raises(ConfigError):
            synth.FaultSpec(fault_kind="cage", fault_freq_ratio=3.5,
                            impulse_amplitude=1.0, resonance_freq=4000.0,
                            resonance_decay=900.0)
        with pytest.raises(ConfigError):
            outer_fault(ratio=-1.0)
        with pytest.raises(ConfigError):
            synth.SynthConfig(fault=dataclasses.replace(
                outer_fault(), resonance_freq=20000.0))

    def test_harmonic_above_table_bound_rejected(self):
        # 2^15 + 1 times a 0.01 Hz shaft is far below fs/2; the bound is on
        # the Taylor tables, which would grow past 131072 points per turn.
        slow = ((0.0, 0.01),)
        synth.SynthConfig(duration=0.1, rotational_freq_profile=slow,
                          harmonic_amplitudes=((1, 1.0), (1 << 15, 0.5)))
        with pytest.raises(ConfigError, match="above 32768"):
            synth.SynthConfig(duration=0.1, rotational_freq_profile=slow,
                              harmonic_amplitudes=((1, 1.0), ((1 << 15) + 1, 0.5)))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthConfig(noise_level=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_rejected(self, bad):
        for kwargs in ({"fs": bad}, {"duration": bad}, {"noise_level": bad},
                       {"rotational_freq_profile": ((0.0, 43.0), (bad, 44.0))},
                       {"rotational_freq_profile": ((0.0, bad),)},
                       {"harmonic_amplitudes": ((1, 1.0), (2, bad))}):
            with pytest.raises(ConfigError, match="finite"):
                synth.SynthConfig(**kwargs)
        for field in ("fault_freq_ratio", "impulse_amplitude", "resonance_freq",
                      "resonance_decay", "severity_jitter"):
            with pytest.raises(ConfigError):
                dataclasses.replace(outer_fault(), **{field: bad})

    def test_harmonic_at_or_above_nyquist_rejected(self):
        # The 3 000 000th harmonic of 43 Hz would alias, and its Horner sum
        # once ran for seconds on a 0.05 s channel.
        with pytest.raises(ConfigError, match="fs/2"):
            synth.SynthConfig(duration=0.05,
                              harmonic_amplitudes=((1, 1.0), (3000000, 0.5)))
        # The fastest point of the profile counts: 10 x 50 Hz is fs/2 exactly.
        profile = ((0.0, 40.0), (1.0, 50.0))
        with pytest.raises(ConfigError, match="fs/2"):
            synth.SynthConfig(fs=1000.0, rotational_freq_profile=profile,
                              harmonic_amplitudes=((1, 1.0), (10, 0.0)))
        synth.SynthConfig(fs=1001.0, rotational_freq_profile=profile,
                          harmonic_amplitudes=((1, 1.0), (10, 0.0)))


class TestSingleToneRecording:
    def test_energy_concentrates_at_the_shaft_line(self):
        # 43 Hz sits between DFT bins (bin 3.44 at fs=25600, N=2048), so a
        # Hann-windowed frame keeps ~96% of the energy in the two nearest
        # bins and >99% within two bins either side; the peak is the nearest
        # bin. Asserting the main-lobe concentration captures the intent
        # without fighting window leakage.
        recording = synth.synth_recording(tone_config(), "tone")
        frame = recording.samples[2048 : 2 * 2048]
        ps = dsp.power_spectrum(frame, dsp.window_samples("hann", 2048))
        assert int(np.argmax(ps)) == 3  # nearest bin to 43 Hz at 12.5 Hz/bin
        main_lobe = ps[2:6].sum()
        assert main_lobe > 0.99 * ps.sum()

    def test_track_reports_constant_speed(self):
        recording = synth.synth_recording(tone_config(), "tone")
        assert len(recording.rotational_freq_track) == len(recording.samples) // 2048
        np.testing.assert_allclose(recording.rotational_freq_track, 43.0)


class TestHarmonicSum:
    def test_matches_direct_sine_sum(self):
        # 600 s at 2.1 kHz: revolutions reach about 25 000, and 1.26 M
        # samples end in a partial block. The harmonics leave gaps, repeat
        # h = 3, carry a zero amplitude that still draws its phase, and reach
        # h = 23 (1023.5 Hz, below fs/2).
        harmonics = ((1, 1.0), (3, 0.4), (4, 0.0), (3, 0.25), (8, 0.1), (23, 0.05))
        config = synth.SynthConfig(
            fs=2100.0, duration=600.0, seed=17,
            rotational_freq_profile=((0.0, 43.0), (250.0, 44.5), (400.0, 38.0)),
            harmonic_amplitudes=harmonics)
        recording = synth.synth_recording(config, "h")
        assert len(recording.samples) % synth._HARMONIC_BLOCK != 0

        _, revs = synth._shaft_revolutions(config)
        rng_phase = synth._child_rngs(config.seed)[0]
        expected = np.zeros(len(revs))
        for h, amp in harmonics:
            phase = rng_phase.uniform(0.0, 2.0 * np.pi)
            expected += amp * np.sin(2.0 * np.pi * h * revs + phase)
        np.testing.assert_allclose(recording.samples, expected, rtol=0, atol=1e-9)

    @staticmethod
    def horner_sum(harmonics, revs, rng):
        """One np.cos and one np.sin per sample, as the unit phasor z, and
        Re(sum_h w_h z^h) by Horner's rule, one complex multiply per
        harmonic number up to the top one. The angle is taken from the
        fractional turn, 2*pi*(revs - floor(revs)), so that it carries no
        rounding that grows with revs."""
        weights = {}
        for h, amp in harmonics:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if amp > 0:
                weights[h] = weights.get(h, 0j) + complex(amp * np.sin(phase),
                                                          -amp * np.cos(phase))
        theta = 2.0 * np.pi * (revs - np.floor(revs))
        z = np.cos(theta) + 1j * np.sin(theta)
        top = max(weights)
        p = np.full(len(revs), weights[top])
        for h in range(top - 1, -1, -1):
            p *= z
            if h in weights:
                p += weights[h]
        return p.real

    @pytest.mark.parametrize("top,shaft_hz", [(1, 43.0), (8, 43.0), (23, 43.0),
                                              (200, 43.0), (1500, 4.0)])
    def test_matches_horner_sum(self, top, shaft_hz):
        # 5.3 s ends in a partial block; the zero amplitude above the top
        # harmonic draws a phase but adds nothing. At h = 1500 the tables
        # have 16384 points per turn instead of 4096.
        harmonics = tuple((h, 1.0 / h) for h in sorted({1, 2, (top + 1) // 2, top}))
        harmonics += ((top + 1, 0.0),)
        config = synth.SynthConfig(
            duration=5.3, seed=top,
            rotational_freq_profile=((0.0, shaft_hz), (3.0, 1.04 * shaft_hz)),
            harmonic_amplitudes=harmonics)
        _, revs = synth._shaft_revolutions(config)
        assert len(revs) % synth._HARMONIC_BLOCK != 0
        expected = self.horner_sum(harmonics, revs, synth._child_rngs(top)[0])
        got = synth._harmonic_sum(harmonics, revs, synth._child_rngs(top)[0])
        tolerance = 1e-13 * sum(amp for _, amp in harmonics)
        np.testing.assert_allclose(got, expected, rtol=0, atol=tolerance)

    def test_top_harmonic_on_a_slow_shaft(self):
        # h = 30000 of a 0.4 Hz shaft: 4096 points per turn would leave
        # Taylor terms near e^23 and lose ten digits; the tables grow to
        # 131072 points instead.
        harmonics = ((1, 1.0), (30000, 0.5))
        config = synth.SynthConfig(duration=1.0, seed=6,
                                   rotational_freq_profile=((0.0, 0.4),),
                                   harmonic_amplitudes=harmonics)
        recording = synth.synth_recording(config, "h")
        _, revs = synth._shaft_revolutions(config)
        rng_phase = synth._child_rngs(config.seed)[0]
        expected = np.zeros(len(revs))
        for h, amp in harmonics:
            phase = rng_phase.uniform(0.0, 2.0 * np.pi)
            expected += amp * np.sin(2.0 * np.pi * h * revs + phase)
        np.testing.assert_allclose(recording.samples, expected, rtol=0, atol=1e-9)

    def test_long_recording_matches_horner_sum(self):
        # 120 s of a 300 Hz shaft: theta reaches 2.26e5 rad, where rounding
        # 2*pi*revs moves it by up to 1.5e-11 rad; the reduction in turns
        # takes no such rounding.
        harmonics = ((1, 1.0), (3, 0.4))
        config = synth.SynthConfig(fs=2100.0, duration=120.0, seed=9,
                                   rotational_freq_profile=((0.0, 300.0),),
                                   harmonic_amplitudes=harmonics)
        recording = synth.synth_recording(config, "h")
        _, revs = synth._shaft_revolutions(config)
        assert 2.0 * np.pi * revs[-1] > 2e5
        expected = self.horner_sum(harmonics, revs, synth._child_rngs(config.seed)[0])
        tolerance = 1e-13 * sum(amp for _, amp in harmonics)
        np.testing.assert_allclose(recording.samples, expected, rtol=0, atol=tolerance)


class TestFaultTrain:
    def test_impulse_spacing_matches_rate_arithmetic(self):
        config = tone_config(fault=outer_fault())
        indices = impulse_indices(config)
        expected = 25600.0 / (3.5 * 43.0)  # ~170.1 samples
        spacing = np.diff(indices)
        assert abs(spacing.mean() - expected) < 0.5
        assert np.all(np.abs(spacing - expected) <= 1.0)

    def test_squared_residual_autocorrelation_peaks_at_spacing(self):
        config = tone_config(fault=outer_fault(), noise=0.05)
        healthy = synth.synth_recording(
            dataclasses.replace(config, fault=None), "h")
        faulted = synth.synth_recording(config, "d")
        residual = (faulted.samples - healthy.samples) ** 2
        residual -= residual.mean()
        lags = np.arange(100, 251)
        ac = np.array([np.dot(residual[:-lag], residual[lag:]) for lag in lags])
        peak_lag = int(lags[np.argmax(ac)])
        expected = 25600.0 / (3.5 * 43.0)
        assert abs(peak_lag - expected) <= 1.0

    def test_only_inner_ring_trains_follow_the_shaft(self):
        # Without jitter every impact has the fault's amplitude, times
        # 1 + cos(shaft angle) for an inner-ring fault.
        outer = tone_config(fault=outer_fault(amplitude=0.8))
        inner = tone_config(fault=dataclasses.replace(
            outer.fault, fault_kind=synth.INNER_RING))
        indices, amps = impulse_train(outer)
        assert np.array_equal(amps, np.full(indices.size, 0.8))
        _, revs = synth._shaft_revolutions(inner)
        indices, amps = impulse_train(inner)
        assert np.array_equal(amps, 0.8 * (1.0 + np.cos(2.0 * np.pi * revs[indices])))

    def test_no_fault_means_no_impulses(self):
        # Without a fault the recording is its harmonic sum and nothing else.
        config = tone_config()
        _, revs = synth._shaft_revolutions(config)
        harmonics = synth._harmonic_sum(config.harmonic_amplitudes, revs,
                                        synth._child_rngs(config.seed)[0])
        residual = synth.synth_recording(config, "h").samples - harmonics
        assert np.flatnonzero(residual).size == 0


class TestImpactOverlapAdd:
    """The chunked np.bincount overlap-add against a per-impact loop that
    adds each impact's kernel, cut at the end of the recording."""

    @staticmethod
    def impact_component(config):
        silent = dataclasses.replace(config, harmonic_amplitudes=((1, 0.0),),
                                     noise_level=0.0)
        return synth.synth_recording(silent, "f").samples

    @staticmethod
    def loop_reference(config, indices, amps):
        fault = config.fault
        kernel = synth.resonance_kernel(fault.resonance_freq, fault.resonance_decay,
                                        config.fs, sys.maxsize)
        n = int(round(config.duration * config.fs))
        expected = np.zeros(n)
        for idx, amp in zip(indices, amps):
            stop = min(idx + len(kernel), n)
            expected[idx:stop] += amp * kernel[: stop - idx]
        return expected

    def check(self, config, indices, amps):
        np.testing.assert_allclose(self.impact_component(config),
                                   self.loop_reference(config, indices, amps),
                                   rtol=0, atol=1e-12)

    def test_jittered_inner_ring_train(self):
        # Jitter 0.75 moves neighbouring impacts past each other, so the
        # indices are unsorted; four seconds span several chunks.
        fault = synth.FaultSpec(
            fault_kind=synth.INNER_RING, fault_freq_ratio=5.4,
            impulse_amplitude=0.8, resonance_freq=4300.0, resonance_decay=900.0,
            severity_jitter=0.75)
        config = tone_config(seed=31, fault=fault)
        indices, amps = impulse_train(config)
        assert np.any(np.diff(indices) < 0)
        self.check(config, indices, amps)

    def test_repeated_and_clipped_indices(self, monkeypatch):
        # Impacts clipped to the first and last sample land on one index.
        config = tone_config(duration=1.0, fault=outer_fault(jitter=0.5))
        n = int(round(config.duration * config.fs))
        indices = np.concatenate([impulse_indices(config), [n - 1, 0, n - 1, n - 1, 0]])
        amps = np.linspace(0.5, 2.0, indices.size)
        monkeypatch.setattr(synth, "_fault_impulses", lambda *args: (indices, amps))
        self.check(config, indices, amps)

    def test_sparse_unsorted_impacts(self, monkeypatch):
        # Impacts further apart than a chunk's span and out of order: a late
        # impact's early neighbours, and an early one after late ones, each
        # end a chunk.
        config = tone_config(seed=4, duration=8.0, fault=outer_fault())
        indices = np.array([70000, 10, 5, 140000, 65600, 66000, 204700, 3, 204799])
        amps = np.linspace(0.5, 2.0, indices.size)
        monkeypatch.setattr(synth, "_fault_impulses", lambda *args: (indices, amps))
        spreads, bincount = [], np.bincount

        def recorded_bincount(*args):
            spreads.append(bincount(*args))
            return spreads[-1]

        monkeypatch.setattr(np, "bincount", recorded_bincount)
        self.check(config, indices, amps)
        kernel = synth.resonance_kernel(4000.0, 900.0, config.fs, sys.maxsize)
        assert max(map(len, spreads)) < synth._IMPACT_CHUNK_SAMPLES + len(kernel)

    def test_kernel_longer_than_recording(self):
        # The -80 dB kernel of a 5/s decay is 47 000 samples, the recording
        # 12 800: the kernel stops at the recording's end, and every impact
        # is its own chunk.
        fault = dataclasses.replace(outer_fault(amplitude=0.05, jitter=0.3),
                                    resonance_decay=5.0)
        config = tone_config(seed=8, duration=0.5, fault=fault)
        n = int(round(config.duration * config.fs))
        assert len(synth.resonance_kernel(4000.0, 5.0, config.fs, sys.maxsize)) > n
        self.check(config, *impulse_train(config))

    def test_recording_of_no_samples(self):
        # 1e-5 s rounds to zero samples: no impacts, and no kernel to spread.
        config = tone_config(duration=1e-5, fault=outer_fault())
        assert synth.synth_recording(config, "f").samples.size == 0


class TestStreamedBlocks:
    """The full-length passes run block by block, and the blocks repeat the
    one-shot arithmetic exactly. 11.3 s is 289 280 samples: 141.25 frames,
    so the last block and the last frame are partial at any block size."""

    PROFILE = ((0.0, 43.0), (0.6, 44.5), (1.2, 41.0), (9.0, 43.5))

    def config(self, fault=None, noise=0.0):
        return synth.SynthConfig(
            fs=25600.0, duration=11.3, seed=5, rotational_freq_profile=self.PROFILE,
            harmonic_amplitudes=((1, 1.0), (2, 0.5), (7, 0.1)),
            noise_level=noise, fault=fault)

    @staticmethod
    def inner_fault(jitter):
        # Ratio 5.4 on this profile crosses a turn on sample 4 * FRAME_SAMPLES.
        return synth.FaultSpec(
            fault_kind=synth.INNER_RING, fault_freq_ratio=5.4,
            impulse_amplitude=0.8, resonance_freq=4300.0, resonance_decay=900.0,
            severity_jitter=jitter)

    @pytest.mark.parametrize("block", [None, audiofile.FRAME_SAMPLES])
    def test_revolutions_equal_one_sequential_sum(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(synth, "_STREAM_BLOCK", block)
        config = self.config()
        n = int(round(config.duration * config.fs))
        freq = np.interp(np.arange(n) / config.fs, [t for t, _ in self.PROFILE],
                         [f for _, f in self.PROFILE])
        frames = n // audiofile.FRAME_SAMPLES
        track, revs = synth._shaft_revolutions(config)
        assert np.array_equal(revs, np.cumsum(freq) / config.fs)
        assert np.array_equal(track, freq[: frames * audiofile.FRAME_SAMPLES]
                              .reshape(frames, -1).mean(axis=1))

    def test_impact_search_carries_the_turn_count_across_blocks(self, monkeypatch):
        monkeypatch.setattr(synth, "_STREAM_BLOCK", audiofile.FRAME_SAMPLES)
        config = self.config(fault=self.inner_fault(jitter=0.0))
        _, revs = synth._shaft_revolutions(config)
        turns = np.floor(5.4 * revs)
        expected = np.flatnonzero(turns[1:] > turns[:-1]) + 1
        assert 4 * audiofile.FRAME_SAMPLES in expected
        indices, _ = synth._fault_impulses(config, revs, synth._child_rngs(5)[2])
        assert np.array_equal(indices, expected)

    def test_recording_is_the_same_for_any_stream_block(self, monkeypatch):
        config = self.config(fault=self.inner_fault(jitter=0.75), noise=0.3)
        default = synth.synth_recording(config, "s")
        monkeypatch.setattr(synth, "_STREAM_BLOCK", audiofile.FRAME_SAMPLES)
        small = synth.synth_recording(config, "s")
        assert default.samples.tobytes() == small.samples.tobytes()
        assert (default.rotational_freq_track.tobytes()
                == small.rotational_freq_track.tobytes())


class TestDeterminismAndSeparation:
    def test_same_seed_is_bit_identical(self):
        config = tone_config(fault=outer_fault(jitter=0.3), noise=0.1)
        a = synth.synth_recording(config, "x")
        b = synth.synth_recording(config, "x")
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.rotational_freq_track, b.rotational_freq_track)

    def test_healthy_and_faulted_differ_only_by_impact_component(self):
        config = tone_config(fault=outer_fault(jitter=0.2), noise=0.1,
                             harmonics=((1, 1.0), (2, 0.5), (3, 0.3)))
        faulted = synth.synth_recording(config, "d")
        healthy = synth.synth_recording(
            dataclasses.replace(config, fault=None), "h")
        fault_only = synth.synth_recording(dataclasses.replace(
            config,
            harmonic_amplitudes=tuple((h, 0.0) for h, _ in config.harmonic_amplitudes),
            noise_level=0.0), "f")
        diff = faulted.samples - healthy.samples
        first = impulse_indices(config).min()
        assert np.all(diff[:first] == 0.0)
        np.testing.assert_allclose(diff, fault_only.samples, atol=1e-9)

    def test_noise_rms_matches_level(self):
        config = synth.SynthConfig(
            fs=25600.0, duration=10.0, seed=9,
            rotational_freq_profile=((0.0, 43.0),),
            harmonic_amplitudes=((1, 0.0),), noise_level=0.25)
        recording = synth.synth_recording(config, "n")
        rms = float(np.sqrt(np.mean(recording.samples**2)))
        assert abs(rms - 0.25) <= 0.02 * 0.25

    def test_blocked_noise_is_one_draw(self):
        # Zero harmonics leave only the noise, drawn block by block into one
        # buffer; it must equal one standard_normal(n) draw of its stream.
        n = 3 * synth._STREAM_BLOCK + 1234
        config = synth.SynthConfig(
            fs=1000.0, duration=n / 1000.0, seed=21,
            rotational_freq_profile=((0.0, 43.0),),
            harmonic_amplitudes=((1, 0.0),), noise_level=0.35)
        recording = synth.synth_recording(config, "n")
        assert len(recording.samples) == n
        stream = np.random.default_rng(np.random.SeedSequence(21).spawn(3)[1])
        assert np.array_equal(recording.samples, 0.35 * stream.standard_normal(n))

    def test_track_stays_within_profile_range(self):
        profile = ((0.0, 43.0), (2.0, 44.5), (4.0, 36.0), (6.0, 43.5))
        config = synth.SynthConfig(fs=25600.0, duration=6.0, seed=1,
                                   rotational_freq_profile=profile,
                                   harmonic_amplitudes=((1, 1.0),))
        recording = synth.synth_recording(config, "p")
        track = recording.rotational_freq_track
        assert track.min() >= 36.0 - 1e-9
        assert track.max() <= 44.5 + 1e-9


class TestCampaign:
    def test_default_scenario_mirrors_damage_table(self):
        scenario = synth.default_scenario(seed=3, duration=2.0)
        assert [s.channel_id for s in scenario] == [
            "A1_b1", "A2_b2", "A2_b3", "B1_b1", "B2_b2", "B2_b3"]
        labels = [s.entry.label for s in scenario]
        assert labels.count("D") == 3 and labels.count("H") == 3
        by_id = {s.channel_id: s for s in scenario}
        assert by_id["A1_b1"].config.fault.fault_kind == synth.INNER_RING
        assert by_id["A2_b2"].config.fault.fault_kind == synth.OUTER_RING
        assert by_id["A2_b3"].entry.component == "gearbox"
        for channel in ("B1_b1", "B2_b2", "B2_b3"):
            assert by_id[channel].config.fault is None

    def test_severity_ordering(self):
        scenario = synth.default_scenario(seed=3, duration=2.0)
        by_id = {s.channel_id: s for s in scenario}
        early = by_id["A1_b1"].config.fault.impulse_amplitude
        developed = by_id["A2_b2"].config.fault.impulse_amplitude
        assert early < developed

    def test_campaign_generates_every_channel(self, tmp_path):
        scenario = synth.default_scenario(seed=5, duration=1.0)
        cli._write_campaign(scenario, tmp_path)
        manifest = dataset.load_manifest(tmp_path / "manifest.json")
        assert set(manifest.channels()) == {s.channel_id for s in scenario}
        assert {p.stem for p in tmp_path.glob("*.wav")} == set(manifest.channels())

    def test_empty_scenario_gives_empty_campaign(self, tmp_path):
        cli._write_campaign([], tmp_path)
        assert dataset.load_manifest(tmp_path / "manifest.json").entries == {}

    def test_duplicate_channel_rejected(self, tmp_path, monkeypatch):
        # The ids are checked before any channel is generated or written.
        scenario = synth.default_scenario(seed=5, duration=1.0)
        monkeypatch.setattr(synth, "synth_recording", None)
        with pytest.raises(DataError, match="A1_b1"):
            cli._write_campaign([scenario[0], scenario[0]], tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_profiles_dip_out_of_band(self):
        for spec in synth.default_scenario(seed=8, duration=100.0):
            freqs = [f for _, f in spec.config.rotational_freq_profile]
            assert min(freqs) < 42.0
            assert 42.0 <= freqs[0] <= 45.0
            assert 42.0 <= freqs[-1] <= 45.0


class TestMapChannels:
    def test_results_in_input_order_on_worker_threads(self, monkeypatch):
        monkeypatch.setattr(common, "_available_cpus", lambda: 3)
        threads = []

        def square(x):
            threads.append(threading.current_thread())
            return x * x

        assert common.map_channels(square, range(7)) == [x * x for x in range(7)]
        assert threading.main_thread() not in threads

    def test_one_worker_is_a_plain_loop(self, monkeypatch):
        monkeypatch.setattr(common, "_available_cpus", lambda: 1)
        threads = []
        assert common.map_channels(
            lambda x: threads.append(threading.current_thread()) or x,
            "abc") == ["a", "b", "c"]
        assert set(threads) == {threading.main_thread()}
        assert common.map_channels(lambda x: 1 / 0, []) == []

    def test_earliest_failure_raised_and_queue_cancelled(self, monkeypatch):
        monkeypatch.setattr(common, "_available_cpus", lambda: 2)
        started = []
        item_1_failed = threading.Event()

        def work(x):
            started.append(x)
            if x == 0:
                # Fails after item 1 has: the error raised is still item 0's.
                item_1_failed.wait(timeout=10)
                raise KeyError("item 0")
            if x == 1:
                item_1_failed.set()
                raise ValueError("item 1")
            time.sleep(0.02)
            return x

        with pytest.raises(KeyError, match="item 0"):
            common.map_channels(work, range(50))
        assert started[:2] in ([0, 1], [1, 0])
        assert len(started) < 50


class TestMemory:
    def test_synth_recording_and_write_wav_peaks(self, tmp_path):
        # A long damaged channel: both peaks are measured in float64 arrays
        # of the recording's length (about 1.13 and 0.09 of them).
        spec = synth.default_scenario(seed=1, duration=120.0)[0]
        assert spec.config.fault is not None
        n = int(round(spec.config.duration * spec.config.fs))
        tracemalloc.start()
        try:
            recording = synth.synth_recording(spec.config, spec.channel_id)
            synth_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            audiofile.write_wav(tmp_path / "a.wav", recording.samples, recording.fs)
            wav_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert synth_peak <= 1.3 * n * 8
        assert wav_peak <= 0.2 * n * 8

    def test_sparse_fault_synth_peak(self):
        # A2_b2 at one impact per 20 turns: impacts 12 000 samples apart. A
        # chunk of them ends at 2^16 samples' span, so the overlap-add
        # spreads no array of the recording's length (2.07 arrays when only
        # the kernel samples bounded a chunk, 1.13 since).
        spec = synth.default_scenario(seed=1, duration=120.0)[1]
        config = dataclasses.replace(spec.config, fault=dataclasses.replace(
            spec.config.fault, fault_freq_ratio=0.05))
        n = int(round(config.duration * config.fs))
        tracemalloc.start()
        try:
            synth.synth_recording(config, spec.channel_id)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * n * 8

    def test_extract_channel_peak(self, tmp_path):
        # 120 s of int16 PCM is a quarter of a float64 array, mapped from the
        # file (tracemalloc does not see the mapped pages); the features are
        # made block by block, with no float copy of the recording (about
        # 0.32 arrays in all, 0.17 of them the spectra of one 512-frame
        # product).
        n = 120 * 25600
        wav = tmp_path / "c.wav"
        audiofile.write_wav(wav, np.random.default_rng(4).standard_normal(n), 25600.0)
        audiofile.write_rot_track(wav, np.full(n // audiofile.FRAME_SAMPLES, 43.0))
        manifest = dataset.Manifest({"c": common.ManifestEntry(
            file="c.wav", label="H", axle="", component="motor", description="")},
            tmp_path)
        tracemalloc.start()
        try:
            experiments.extract_channel(manifest, "c", dsp.MfccConfig(),
                                        tmp_path / "c.abfc", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * n * 8


class TestScenarioFile:
    def test_round_trip_through_json(self, tmp_path):
        payload = [{
            "channel": "C1", "label": "D", "axle": "A9", "component": "motor",
            "description": "test fault", "seed": 42, "duration": 1.0,
            "profile": [[0.0, 43.0], [0.5, 44.0]],
            "harmonics": [[1, 1.0], [2, 0.5]], "noise_level": 0.1,
            "fault": {"kind": "outer_ring", "freq_ratio": 3.5,
                      "amplitude": 1.5, "resonance_freq": 4000.0,
                      "resonance_decay": 900.0, "jitter": 0.1},
        }]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        (spec,) = synth.scenario_from_json(path)
        assert spec.channel_id == "C1"
        assert spec.config.fault.fault_freq_ratio == 3.5
        assert spec.config.rotational_freq_profile == ((0.0, 43.0), (0.5, 44.0))

    def test_scenario_entry_is_the_manifest_entry(self, tmp_path):
        # axle, component and description are left out: the manifest
        # records the same defaults the scenario parser applied.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([
            {"channel": "C1", "label": "D", "seed": 1, "duration": 0.5,
             "profile": [[0.0, 43.0]]},
            {"channel": "C2", "label": "H", "axle": "B2", "component": "gearbox",
             "description": "reference", "seed": 2, "duration": 0.5,
             "profile": [[0.0, 44.0]]}]))
        scenario = synth.scenario_from_json(path)
        out = tmp_path / "out"
        out.mkdir()
        cli._write_campaign(scenario, out)
        manifest = dataset.load_manifest(out / "manifest.json")
        assert manifest.entries == {s.channel_id: s.entry for s in scenario}
        assert manifest.entries["C1"] == common.ManifestEntry(
            file="C1.wav", label="D", axle="", component="motor", description="")

    @pytest.mark.parametrize("field,value", [("label", "X"),
                                             ("component", "axle")])
    def test_channel_metadata_checked_as_in_manifests(self, tmp_path, field,
                                                      value):
        entry = {"channel": "C1", "label": "H", "seed": 1, "duration": 0.5,
                 "profile": [[0.0, 43.0]], field: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(DataError, match=rf"scenario.json: bad channel entry "
                                            rf"\(C1: {field} must be"):
            synth.scenario_from_json(path)

    def test_unknown_keys_are_named(self, tmp_path):
        channel = {"channel": "C1", "label": "D", "seed": 1, "duration": 0.5,
                   "profile": [[0.0, 43.0]], "noise": 0.3, "file": "x.wav",
                   "fault": {"kind": "inner_ring", "freq_ratio": 5.4,
                             "amplitude": 1.0, "resonance_freq": 4000.0,
                             "resonance_decay": 900.0}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([channel]))
        with pytest.raises(DataError, match="unknown channel keys: file, noise"):
            synth.scenario_from_json(path)
        del channel["noise"], channel["file"]
        channel["fault"]["modulated"] = True
        path.write_text(json.dumps([channel]))
        with pytest.raises(DataError, match="unknown fault keys: modulated"):
            synth.scenario_from_json(path)

    def test_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(DataError):
            synth.scenario_from_json(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError):
            synth.scenario_from_json(bad)
        not_list = tmp_path / "obj.json"
        not_list.write_text("{}")
        with pytest.raises(DataError):
            synth.scenario_from_json(not_list)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text('[{"channel": "C1"}]')
        with pytest.raises(DataError):
            synth.scenario_from_json(incomplete)
        not_objects = tmp_path / "numbers.json"
        not_objects.write_text("[1]")
        with pytest.raises(DataError):
            synth.scenario_from_json(not_objects)
        undecodable = tmp_path / "latin1.json"
        undecodable.write_bytes(b'[{"channel": "\xe9"}]')
        with pytest.raises(DataError):
            synth.scenario_from_json(undecodable)
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        with pytest.raises(DataError):
            synth.scenario_from_json(nested)
        bad_value = tmp_path / "zero.json"
        bad_value.write_text('[{"channel": "C1", "label": "H", "seed": 1, '
                             '"duration": 0, "profile": [[0, 43]]}]')
        with pytest.raises(DataError, match="duration"):
            synth.scenario_from_json(bad_value)
        for h in (0, -2):
            bad_value.write_text('[{"channel": "C1", "label": "H", "seed": 1, '
                                 '"duration": 1, "profile": [[0, 43]], '
                                 f'"harmonics": [[1, 1.0], [{h}, 0.5]]}}]')
            with pytest.raises(DataError, match="harmonic numbers"):
                synth.scenario_from_json(bad_value)
