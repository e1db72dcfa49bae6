import copy
import dataclasses
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import bearingsound
from bearingsound import audiofile, cli, common, dataset, experiments, mlp, synth
from bearingsound.dsp import MfccConfig
from bearingsound.errors import DataError, FormatError


def run(argv, capsys=None):
    rc = cli.main(argv)
    if capsys is None:
        return rc, "", ""
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSynthCommand:
    def test_campaign_layout_and_manifest(self, campaign_dir):
        manifest = common.load_manifest(campaign_dir / "manifest.json")
        assert sorted(list(manifest.entries)) == [
            "A1_b1", "A2_b2", "A2_b3", "B1_b1", "B2_b2", "B2_b3"]
        labels = [e.label for e in manifest.entries.values()]
        assert labels.count("D") == 3 and labels.count("H") == 3
        for channel in list(manifest.entries):
            assert manifest.wav_path(channel).exists()
            assert manifest.wav_path(channel).with_suffix(".rot").exists()

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            rc = cli.main(["--seed", "3", "synth", "--default-campaign",
                           "--duration", "2", "--out", str(tmp_path / sub)])
            assert rc == 0
        for name in ("A1_b1.wav", "A1_b1.rot", "B2_b3.wav", "manifest.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_duplicate_channel_in_scenario_names_it(self, tmp_path, capsys):
        channel = {
            "channel": "X1", "label": "H", "axle": "B1", "component": "motor",
            "seed": 1, "duration": 0.5, "profile": [[0.0, 43.0]],
            "harmonics": [[1, 1.0]],
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([channel, channel]))
        rc, _, err = run(["synth", "--scenario", str(scenario),
                          "--out", str(tmp_path / "out")], capsys)
        assert rc == 2
        assert "X1" in err

    def test_channel_id_cannot_leave_out_dir(self, tmp_path, capsys):
        channel = {
            "channel": "../evil", "label": "H", "seed": 1, "duration": 0.5,
            "profile": [[0.0, 43.0]],
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([channel]))
        rc, _, err = run(["synth", "--scenario", str(scenario),
                          "--out", str(tmp_path / "run" / "out")], capsys)
        assert rc == 2
        assert "../evil" in err
        assert list(tmp_path.rglob("evil*")) == []
        assert not (tmp_path / "run" / "out").exists()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # Synth and extract of the six-channel campaign on one worker (the
        # plain loop) and on three worker threads write the same bytes.
        real_synth, real_extract = synth.synth_recording, experiments.extract_channel
        outputs = {}
        for cpus in (1, 3):
            threads = set()

            def synth_recording(*args, **kwargs):
                threads.add(threading.current_thread())
                return real_synth(*args, **kwargs)

            def extract_channel(*args, **kwargs):
                threads.add(threading.current_thread())
                return real_extract(*args, **kwargs)

            monkeypatch.setattr(common, "_available_cpus", lambda: cpus)
            monkeypatch.setattr(synth, "synth_recording", synth_recording)
            monkeypatch.setattr(experiments, "extract_channel", extract_channel)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["--seed", "4", "synth", "--default-campaign",
                             "--duration", "3", "--out", str(out / "data")]) == 0
            assert cli.main(["extract", "--manifest",
                             str(out / "data" / "manifest.json"),
                             "--out", str(out / "features")]) == 0
            assert threads and (threading.main_thread() in threads) == (cpus == 1)
            outputs[cpus] = {p.relative_to(out): p.read_bytes()
                             for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs[1]) == 6 * 3 + 1  # .wav, .rot, .abfc; manifest
        assert outputs[1] == outputs[3]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failed_channel_writes_no_manifest(self, tmp_path, monkeypatch,
                                               capsys, cpus):
        real_synth = synth.synth_recording

        def synth_recording(config, channel_id="synth"):
            if channel_id == "A2_b2":  # the second channel
                raise DataError(f"{channel_id}: synthesis failed")
            return real_synth(config, channel_id)

        monkeypatch.setattr(common, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(synth, "synth_recording", synth_recording)
        out = tmp_path / "out"
        rc, _, err = run(["--seed", "1", "synth", "--default-campaign",
                          "--duration", "2", "--out", str(out)], capsys)
        assert rc == 2
        assert "A2_b2: synthesis failed" in err
        assert not (out / "manifest.json").exists()

    def test_duration_too_large_to_allocate_is_a_data_error(self, tmp_path,
                                                            capsys):
        # 1e9 s at 25.6 kHz asks for 186 TiB per channel, which fails at once.
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--default-campaign", "--duration", "1e9",
                          "--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("data error: ") and "allocate" in err
        assert not out.exists()

    def test_rejected_scenario_leaves_no_directory(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([{"channel": "Z1", "label": "H", "seed": 1,
                                     "duration": 0, "profile": [[0.0, 43.0]]}]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(path), "--out", str(out)],
                         capsys)
        assert rc == 2, err
        assert not out.exists()

    @pytest.mark.parametrize("flags,shown", [
        (["--fs", "25600.5"], "fs: 25600.5 is not a whole number of Hz"),
        (["--fs", "2147483648"], "below 2^31")])
    def test_rate_a_wav_cannot_state_is_a_usage_error(self, tmp_path, capsys,
                                                      flags, shown):
        # 25600.5 Hz was written to headers as 25600 Hz; 2^31 Hz overflowed
        # the header's byte rate with a traceback.
        out = tmp_path / "out"
        rc, stdout, err = run(["synth", "--default-campaign", *flags,
                               "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "")
        assert err.startswith("error: ") and shown in err
        assert not out.exists()

    def test_campaign_shorter_than_a_frame_is_a_data_error(self, tmp_path, capsys):
        # Its .rot would be empty, and every extract of it would fail.
        out = tmp_path / "out"
        rc, stdout, err = run(["synth", "--default-campaign", "--duration", "0.05",
                               "--out", str(out)], capsys)
        assert (rc, stdout) == (2, "")
        assert err == "data error: A1_b1: shorter than one 2048-sample frame\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,code,shown", [
        (["--fs", "1"], 1, "error: harmonic 8 of the 44.2 Hz shaft speed is at or "
                           "above fs/2 = 0.5 Hz\n"),
        (["--fs", "100"], 1, "error: harmonic 8 of the 44.2 Hz shaft speed is at or "
                             "above fs/2 = 50.0 Hz\n"),
        (["--duration", "1e-6"], 2,
         "data error: A1_b1: shorter than one 2048-sample frame\n"),
        (["--duration", "2e-5"], 2,
         "data error: A1_b1: shorter than one 2048-sample frame\n")],
        ids=["fs-1", "fs-100", "duration-1e-6", "duration-2e-5"])
    def test_default_campaign_is_checked_before_its_amplitudes(
            self, tmp_path, capsys, flags, code, shown):
        # Each once divided by a zero resonance energy while the impact
        # amplitudes were derived, before the channel's checks: a traceback.
        out = tmp_path / "out"
        assert run(["synth", "--default-campaign", *flags, "--out", str(out)],
                   capsys) == (code, "", shown)
        assert not out.exists()

    def test_default_campaign_is_its_own_scenario(self, tmp_path):
        # Each channel as its id, its manifest record but the file, and its
        # config: synth --scenario writes the default campaign's bytes.
        scenario = [{"channel": spec.channel_id, **dataclasses.asdict(spec.entry),
                     **dataclasses.asdict(spec.config)}
                    for spec in synth.default_scenario(5, duration=3.0)]
        for channel in scenario:
            del channel["file"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        default, from_file = tmp_path / "default", tmp_path / "scenario"
        assert cli.main(["--seed", "5", "synth", "--default-campaign",
                         "--duration", "3", "--out", str(default)]) == 0
        assert cli.main(["synth", "--scenario", str(path), "--out", str(from_file)]) == 0
        names = sorted(p.name for p in default.iterdir())
        assert len(names) == 6 * 2 + 1  # .wav, .rot; manifest
        assert sorted(p.name for p in from_file.iterdir()) == names
        for name in names:
            assert (default / name).read_bytes() == (from_file / name).read_bytes()

    @pytest.mark.parametrize("fields,shown", [
        ({"fs": 25600.5, "duration": 1}, "fs: 25600.5 is not a whole number"),
        ({"duration": 0.05}, "Z1: shorter than one 2048-sample frame")])
    def test_scenario_channel_a_wav_cannot_hold_is_a_data_error(
            self, tmp_path, capsys, fields, shown):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([{"channel": "Z1", "label": "H", "seed": 1,
                                     "profile": [[0.0, 43.0]], **fields}]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(path), "--out", str(out)],
                         capsys)
        assert rc == 2
        assert err.startswith(f"data error: {path}: bad channel entry")
        assert shown in err
        assert not out.exists()

    def test_harmonic_above_nyquist_is_a_data_error(self, tmp_path, capsys):
        # The 3 000 000th harmonic of 43 Hz would alias; the scenario is
        # rejected before any sample is made.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([{
            "channel": "N1", "label": "H", "seed": 1, "duration": 0.05,
            "profile": [[0.0, 43.0]], "harmonics": [[1, 1.0], [3000000, 0.5]]}]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(path), "--out", str(out)],
                         capsys)
        assert rc == 2
        assert err.startswith("data error: ") and "fs/2" in err
        assert not out.exists()

    def test_top_harmonic_on_a_slow_shaft_is_a_data_error(self, tmp_path, capsys):
        # Harmonic 10^6 of a 0.01 Hz shaft lies below fs/2, but its Taylor
        # tables would take over 900 MB for one 80 ms frame; the scenario is
        # rejected before any sample is made.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([{
            "channel": "T1", "label": "H", "seed": 1, "duration": 0.1,
            "profile": [[0.0, 0.01]], "harmonics": [[1, 1.0], [1000000, 0.5]]}]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(path), "--out", str(out)],
                         capsys)
        assert rc == 2
        assert err.startswith("data error: ") and "above 32768" in err
        assert not out.exists()

    SCENARIO = {
        "channel": "F1", "label": "D", "seed": 1, "fs": 25600.0, "duration": 0.5,
        "profile": [[0.0, 43.0], [0.25, 44.0]], "harmonics": [[1, 1.0], [2, 0.5]],
        "noise_level": 0.1,
        "fault": {"kind": "inner_ring", "freq_ratio": 5.4, "amplitude": 0.5,
                  "resonance_freq": 4000.0, "resonance_decay": 900.0,
                  "jitter": 0.1}}

    def synth_with(self, tmp_path, capsys, path, value):
        """synth --scenario of SCENARIO with the value at path replaced:
        (exit code, stderr, --out directory)."""
        channel = copy.deepcopy(self.SCENARIO)
        *parents, last = path
        target = channel
        for key in parents:
            target = target[key]
        target[last] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([channel]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(scenario), "--out", str(out)],
                         capsys)
        return rc, err, out

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("path,message", [
        (("duration",), "duration"), (("fs",), "fs"),
        (("noise_level",), "noise_level"),
        (("profile", 1, 0), "breakpoint times"),
        (("profile", 0, 1), "rotational frequency"),
        (("harmonics", 1, 1), "harmonic amplitudes"),
        (("fault", "freq_ratio"), "freq_ratio"),
        (("fault", "amplitude"), "amplitude"),
        (("fault", "resonance_freq"), "resonance_freq"),
        (("fault", "resonance_decay"), "resonance_decay"),
        (("fault", "jitter"), "jitter")],
        ids=lambda p: "/".join(map(str, p)) if isinstance(p, tuple) else None)
    def test_non_finite_scenario_number_is_a_data_error(self, tmp_path, capsys,
                                                        path, message, value):
        # These once raised a traceback or synthesized something else (a NaN
        # fault ratio: no impacts at all), exit 0.
        rc, err, out = self.synth_with(tmp_path, capsys, path, value)
        assert rc == 2, err
        assert err.startswith("data error: ") and message in err
        # Each mention is the scenario's key itself, not an older, longer
        # field name that contains it, as the fault's three once were.
        reason = err.partition("bad channel entry (")[2]
        assert set(re.findall(rf"\w*{message}\w*", reason)) == {message}
        assert not out.exists()

    @pytest.mark.parametrize("path,value", [
        (("seed",), 2.9), (("seed",), True), (("seed",), "3"),
        (("harmonics", 1, 0), 1.5), (("harmonics", 0, 0), True)],
        ids=["seed-2.9", "seed-true", "seed-string", "harmonic-1.5", "harmonic-true"])
    def test_non_integral_seed_or_harmonic_is_a_data_error(self, tmp_path, capsys,
                                                           path, value):
        # int() once read 2.9 as seed 2, 1.5 as harmonic 1 and true as 1.
        rc, err, out = self.synth_with(tmp_path, capsys, path, value)
        assert rc == 2, err
        assert err.startswith("data error: ")
        assert f"{path[0]}: {value!r} is not an integer" in err
        assert not out.exists()
        # A whole number written as a float reads as that integer.
        rc, err, out = self.synth_with(tmp_path, capsys, path, 2.0)
        assert rc == 0, err

    @pytest.mark.parametrize("value", [None, 7, ["A1"], "", "a\0b"])
    def test_scenario_channel_that_is_not_a_file_name_is_a_data_error(
            self, tmp_path, capsys, value):
        # A null or 7 channel was once written as None.wav or 7.wav, exit 0,
        # and a NUL byte raised a ValueError traceback from open().
        rc, err, out = self.synth_with(tmp_path, capsys, ("channel",), value)
        assert (rc, err) == (2, f"data error: {tmp_path / 'scenario.json'}: bad "
                                f"channel entry ({value}: channel id {value!r} must "
                                "be a string naming a file, not a path)\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("axle", 3), ("description", None), ("axle", ["A1"]), ("label", 1),
        ("component", None)])
    def test_scenario_field_that_is_not_a_string_is_a_data_error(
            self, tmp_path, capsys, field, value):
        # str() once wrote these to manifest.json as "3", "None", "['A1']"
        # and "1" (a bad label), or read a null component as "None".
        rc, err, out = self.synth_with(tmp_path, capsys, (field,), value)
        assert (rc, err) == (2, f"data error: {tmp_path / 'scenario.json'}: bad "
                                f"channel entry (F1: {field}: {value!r} is not a "
                                "string)\n")
        assert not out.exists()

    @pytest.mark.parametrize("path,value", [
        (("fs",), "25600"), (("duration",), None), (("noise_level",), True),
        (("fault", "amplitude"), "0.5"), (("profile", 0, 0), "0"),
        (("profile", 0, 1), "43.0"), (("profile", 1, 0), True),
        (("harmonics", 0, 1), "1.0"), (("harmonics", 1, 1), False)])
    def test_scenario_number_that_is_not_a_number_is_a_data_error(
            self, tmp_path, capsys, path, value):
        # float() once read "25600" as 25600.0 and true as 1.0, and so it
        # did in a profile point or a harmonic amplitude.
        key = [step for step in path if isinstance(step, str)][-1]
        rc, err, out = self.synth_with(tmp_path, capsys, path, value)
        assert (rc, err) == (2, f"data error: {tmp_path / 'scenario.json'}: bad "
                                f"channel entry ({key}: {value!r} is not a "
                                "number)\n")
        assert not out.exists()

    def test_negative_scenario_seed_is_a_data_error(self, tmp_path, capsys):
        # numpy's seed sequence once raised a ValueError traceback here.
        rc, err, out = self.synth_with(tmp_path, capsys, ("seed",), -1)
        assert rc == 2, err
        assert err.startswith("data error: ")
        assert "seed must be non-negative, got -1" in err
        assert not out.exists()

    def test_duplicate_scenario_key_is_a_data_error(self, tmp_path, capsys):
        # json.loads keeps the last of two equal keys: this scenario once
        # wrote B9.wav at the second duration and exited 0.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '[{"channel": "A1", "channel": "B9", "label": "H", "seed": 1, '
            '"duration": 0.5, "duration": 1, "profile": [[0, 43.0]]}]')
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(scenario), "--out", str(out)],
                         capsys)
        assert rc == 2, err
        assert err == (f"data error: {scenario}: duplicate key in scenario file: "
                       "channel\n")
        assert not out.exists()

    def test_fault_rate_above_nyquist_is_a_data_error(self, tmp_path, capsys):
        # 300 impacts per turn of a 44 Hz shaft is 13 200 Hz, above fs/2.
        rc, err, out = self.synth_with(tmp_path, capsys, ("fault", "freq_ratio"), 300.0)
        assert rc == 2, err
        assert err.startswith("data error: ") and "fault rate" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault,shown", [
        ({}, "missing fault keys: amplitude, freq_ratio, kind, resonance_decay, "
             "resonance_freq"),
        (False, "fault must be null or an object, got False"),
        (0, "fault must be null or an object, got 0"),
        ([], "fault must be null or an object, got []"),
        ("", "fault must be null or an object, got ''"),
        ("outer_ring", "fault must be null or an object, got 'outer_ring'")],
        ids=["empty-object", "false", "zero", "empty-list", "empty-string", "string"])
    def test_fault_that_is_not_a_fault_object_is_a_data_error(self, tmp_path, capsys,
                                                               fault, shown):
        # The first five once synthesized a fault-free channel labelled D, exit 0.
        rc, err, out = self.synth_with(tmp_path, capsys, ("fault",), fault)
        assert rc == 2, err
        assert err.startswith("data error: ") and err.endswith(f"({shown})\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "duration", "profile", "channel"])
    def test_missing_channel_key_without_a_default_is_a_data_error(
            self, tmp_path, capsys, key):
        channel = copy.deepcopy(self.SCENARIO)
        del channel[key]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([channel]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(scenario), "--out", str(out)],
                         capsys)
        assert rc == 2
        assert err == (f"data error: {scenario}: bad channel entry "
                       f"(missing channel keys: {key})\n")
        assert not out.exists()

    def test_integer_spellings_write_the_bytes_of_float_ones(self, tmp_path, capsys):
        # An int amplitude once reached np.full and made an int64 impact train.
        outputs = []
        for number in (int, float):
            channel = copy.deepcopy(self.SCENARIO)
            channel.update(fs=number(16000), duration=number(1),
                           harmonics=[[1, number(1)], [2, 0.5]])
            channel["fault"].update(amplitude=number(1), resonance_freq=number(4000),
                                    resonance_decay=number(900))
            scenario = tmp_path / f"{number.__name__}.json"
            scenario.write_text(json.dumps([channel]))
            out = tmp_path / number.__name__
            assert run(["synth", "--scenario", str(scenario), "--out", str(out)],
                       capsys)[0] == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["F1.rot", "F1.wav", "manifest.json"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("where,key", [(None, "noise"), ("fault", "modulated")])
    def test_unknown_scenario_key_is_a_data_error(self, tmp_path, capsys, where,
                                                  key):
        # "noise" for noise_level used to be dropped, and the WAV written
        # without noise; "modulated" is decided by the fault kind.
        channel = copy.deepcopy(self.SCENARIO)
        (channel[where] if where else channel)[key] = 0.3
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([channel]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(scenario), "--out", str(out)],
                         capsys)
        assert rc == 2
        assert f"unknown {where or 'channel'} keys: {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("decay", [1e-6, 5e-324])
    def test_slow_resonance_decay_writes_its_wav(self, tmp_path, capsys, decay):
        # A -80 dB kernel of fs*ln(1e4)/1e-6 samples would need terabytes;
        # the resonance recursion runs to the end of the 2 s recording. At
        # 5e-324/s that span overflows to inf, once an OverflowError.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([{
            "channel": "S1", "label": "D", "seed": 1, "duration": 2.0,
            "profile": [[0.0, 43.0]], "harmonics": [[1, 1.0]],
            "fault": {"kind": "outer_ring", "freq_ratio": 3.5,
                      "amplitude": 0.01, "resonance_freq": 4000.0,
                      "resonance_decay": decay}}]))
        out = tmp_path / "out"
        rc, _, err = run(["synth", "--scenario", str(scenario),
                          "--out", str(out)], capsys)
        assert rc == 0, err
        pcm, fs = audiofile.read_pcm(out / "S1.wav")
        assert (len(pcm), fs) == (51200, 25600.0)
        assert (out / "manifest.json").exists()

    def test_requires_a_source(self, tmp_path, capsys):
        rc, _, err = run(["synth", "--out", str(tmp_path / "o")], capsys)
        assert rc == 1

    def test_two_sources_are_a_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([{
            "channel": "X1", "label": "H", "seed": 1, "duration": 0.5,
            "profile": [[0.0, 43.0]]}]))
        out = tmp_path / "o"
        rc, _, err = run(["synth", "--default-campaign", "--scenario",
                          str(scenario), "--duration", "2", "--out", str(out)],
                         capsys)
        assert rc == 1
        assert "not allowed with" in err
        assert not (out / "manifest.json").exists()

    def test_summary_lines(self, tmp_path, capsys):
        rc, out, _ = run(["--seed", "1", "synth", "--default-campaign",
                          "--duration", "2", "--out", str(tmp_path / "c")],
                         capsys)
        assert rc == 0
        assert "A1_b1: 2.0 s" in out
        assert "wrote 6 channels" in out


class TestExtractCommand:
    def test_summary_and_cache_files(self, campaign_dir, tmp_path, capsys):
        rc, out, _ = run(["extract", "--manifest",
                          str(campaign_dir / "manifest.json"),
                          "--channels", "B1_b1",
                          "--out", str(tmp_path / "f")], capsys)
        assert rc == 0
        assert "B1_b1:" in out and "gated" in out
        assert (tmp_path / "f" / "B1_b1.abfc").exists()

    def test_wide_band_keeps_every_frame(self, campaign_dir, tmp_path):
        rc = cli.main(["extract", "--manifest",
                       str(campaign_dir / "manifest.json"),
                       "--channels", "B1_b1", "--band", "0:1e9",
                       "--out", str(tmp_path / "f")])
        assert rc == 0
        coeffs, _, _ = dataset.read_cache(tmp_path / "f" / "B1_b1.abfc")
        pcm, _ = audiofile.read_pcm(campaign_dir / "B1_b1.wav")
        assert len(coeffs) == len(pcm) // 2048

    def test_missing_wav_names_file(self, campaign_dir, tmp_path, capsys):
        manifest = common.load_manifest(campaign_dir / "manifest.json")
        broken = {"ghost": common.ManifestEntry(
            file="ghost.wav", label="H", axle="B1", component="motor",
            description="")}
        common.save_manifest(broken, tmp_path / "manifest.json")
        rc, _, err = run(["extract", "--manifest", str(tmp_path / "manifest.json"),
                          "--out", str(tmp_path / "f")], capsys)
        assert rc == 2
        assert "ghost.wav" in err

    def test_channel_ahead_of_a_missing_wav_keeps_its_cache(self, campaign_dir,
                                                            tmp_path, capsys):
        # Each channel is one job: B1_b1's missing WAV fails the run with its
        # own error, and A1_b1, ahead of it, is cached and reused next time.
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        for name in ("manifest.json", "A1_b1.wav", "A1_b1.rot", "B1_b1.rot"):
            shutil.copy(campaign_dir / name, campaign / name)
        extract = ["extract", "--manifest", str(campaign / "manifest.json"),
                   "--out", str(tmp_path / "f")]
        rc, out, err = run(extract + ["--channels", "A1_b1,B1_b1"], capsys)
        assert rc == 2
        assert (out, err) == ("", "data error: source file not found: "
                                  f"{campaign / 'B1_b1.wav'}\n")
        rc, out, _ = run(extract + ["--channels", "A1_b1"], capsys)
        assert (rc, out) == (0, "A1_b1: cache reused\n")

    def test_channel_id_cannot_leave_out_dir(self, campaign_dir, tmp_path, capsys):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        for name in ("B1_b1.wav", "B1_b1.rot"):
            shutil.copy(campaign_dir / name, campaign / name)
        (campaign / "manifest.json").write_text(json.dumps(
            {"../evil": {"file": "B1_b1.wav", "label": "H"}}))
        rc, _, err = run(["extract", "--manifest", str(campaign / "manifest.json"),
                          "--out", str(campaign / "f")], capsys)
        assert rc == 2
        assert "../evil" in err
        assert list(tmp_path.rglob("evil*")) == []
        assert not (campaign / "f").exists()

    def test_duplicate_channel_is_usage_error(self, campaign_dir, tmp_path,
                                               capsys):
        rc, _, err = run(["extract", "--manifest",
                          str(campaign_dir / "manifest.json"),
                          "--channels", "B1_b1,A1_b1,B1_b1",
                          "--out", str(tmp_path / "f")], capsys)
        assert rc == 1
        assert "duplicate channel id: B1_b1" in err
        assert not (tmp_path / "f").exists()

    def test_empty_channel_list_is_usage_error(self, campaign_dir, tmp_path,
                                               capsys):
        # An empty list is not "every channel": nothing is extracted.
        rc, out, err = run(["extract", "--manifest",
                            str(campaign_dir / "manifest.json"),
                            "--channels", "", "--out", str(tmp_path / "f")], capsys)
        assert rc == 1
        assert err.startswith("error: ")
        assert out == ""
        assert not (tmp_path / "f").exists()


    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_channel_not_in_manifest_is_a_data_error(self, campaign_dir,
                                                     features_dir, tmp_path,
                                                     capsys, command):
        where = (["--out", str(tmp_path / "f")] if command == "extract" else
                 ["--features", str(features_dir), "--out", str(tmp_path / "m")])
        rc, out, err = run([command, "--manifest",
                            str(campaign_dir / "manifest.json"),
                            "--channels", "NOPE", *where], capsys)
        assert (rc, out) == (2, "")
        assert err == "data error: channel not in manifest: NOPE\n"

    def test_manifest_that_is_a_list_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[]")
        rc, _, err = run(["extract", "--manifest", str(tmp_path / "manifest.json"),
                          "--out", str(tmp_path / "f")], capsys)
        assert rc == 2
        assert err.endswith("manifest.json: manifest must be a JSON object\n")

    def test_unknown_manifest_key_is_a_data_error(self, campaign_dir, tmp_path, capsys):
        # A misspelt "componnet" was dropped, so B2_b3 read as a motor channel
        # and seen-gearbox found no healthy gearbox channel after extract.
        manifest = json.loads((campaign_dir / "manifest.json").read_text())
        manifest["B2_b3"]["componnet"] = manifest["B2_b3"].pop("component")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        rc, out, err = run(["extract", "--manifest", str(path),
                            "--out", str(tmp_path / "f")], capsys)
        assert (rc, out, err) == (2, "", f"data error: {path}: bad entry for B2_b3 "
                                         "(unknown manifest keys: componnet)\n")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("field,value", [
        ("axle", 3), ("description", None), ("axle", ["A1"]), ("file", 12),
        ("file", None)])
    def test_manifest_field_that_is_not_a_string_is_a_data_error(
            self, campaign_dir, tmp_path, capsys, field, value):
        # The first three were once written on as "3", "None" and "['A1']";
        # a file of 12 failed later as "source file not found: 12".
        manifest = json.loads((campaign_dir / "manifest.json").read_text())
        manifest["B2_b3"][field] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        rc, out, err = run(["extract", "--manifest", str(path),
                            "--out", str(tmp_path / "f")], capsys)
        assert (rc, out, err) == (2, "", f"data error: {path}: bad entry for B2_b3 "
                                         f"({field}: {value!r} is not a string)\n")
        assert not (tmp_path / "f").exists()

    def test_rot_one_entry_short_is_a_data_error(self, tmp_path, capsys):
        # 2 s at 25.6 kHz is 25 frames of 2048 samples.
        data = tmp_path / "c"
        assert cli.main(["synth", "--default-campaign", "--duration", "2",
                         "--out", str(data)]) == 0
        rot = data / "A1_b1.rot"
        rot.write_text("".join(rot.read_text().splitlines(keepends=True)[:-1]))
        rc, _, err = run(["extract", "--manifest", str(data / "manifest.json"),
                          "--channels", "A1_b1", "--out", str(tmp_path / "f")],
                         capsys)
        assert rc == 2
        assert err == "data error: A1_b1: track has 24 entries, expected 25\n"

    def test_cache_header_that_is_a_list_is_re_extracted(self, campaign_dir,
                                                         tmp_path, capsys):
        extract = ["extract", "--manifest", str(campaign_dir / "manifest.json"),
                   "--channels", "B1_b1", "--out", str(tmp_path / "f")]
        assert run(extract, capsys)[0] == 0
        path = tmp_path / "f" / "B1_b1.abfc"
        valid = path.read_bytes()
        path.write_bytes(b"ABFC" + struct.pack("<HI", 3, 2) + b"[]")
        with pytest.raises(FormatError, match="header is not a JSON object"):
            dataset.read_cache(path)
        rc, out, _ = run(extract, capsys)
        assert rc == 0 and out.endswith("gated\n")
        assert path.read_bytes() == valid

    def test_zero_hz_wav_is_a_data_error_naming_it(self, campaign_dir,
                                                    tmp_path, capsys):
        # The WAV states the rate; 0 Hz would reach MfccConfig as a usage error.
        for name in ("manifest.json", "B1_b1.rot"):
            shutil.copy(campaign_dir / name, tmp_path / name)
        blob = (campaign_dir / "B1_b1.wav").read_bytes()
        (tmp_path / "B1_b1.wav").write_bytes(blob[:24] + bytes(8) + blob[32:])
        rc, out, err = run(["extract", "--manifest", str(tmp_path / "manifest.json"),
                            "--channels", "B1_b1", "--out", str(tmp_path / "f")],
                           capsys)
        assert (rc, out) == (2, "")
        assert err == (f"data error: {tmp_path / 'B1_b1.wav'}: WAV header states "
                       "a sample rate of 0 Hz\n")


class TestTrainEvalCommands:
    def train_args(self, campaign_dir, features_dir, out, seed="5", epochs="3"):
        return ["--seed", seed, "train",
                "--manifest", str(campaign_dir / "manifest.json"),
                "--features", str(features_dir),
                "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                "--train-size", "400", "--test-size", "100",
                "--epochs", epochs, "--out", str(out)]

    def test_train_writes_model_and_log(self, campaign_dir, features_dir,
                                        tmp_path, capsys):
        model_path = tmp_path / "model.abmm"
        rc, out, _ = run(self.train_args(campaign_dir, features_dir, model_path),
                         capsys)
        assert rc == 0
        assert model_path.exists()
        log = json.loads(model_path.with_suffix(".train_log.json").read_text())
        assert len(log["per_epoch_loss"]) == 3
        assert log["train_class_counts"]["H"] + log["train_class_counts"]["D"] == 400
        assert log["split"] == {"seed": 5, "train_size": 400, "test_size": 100,
                                "train_channels": None, "test_channels": None,
                                "channels": ["A1_b1", "A2_b2", "B1_b1", "B2_b2"]}
        assert sorted(log["train_config"]) == ["batch_size", "epochs",
                                               "learning_rate", "seed"]

    def test_two_channel_lists_alone_split_by_channel(self, campaign_dir,
                                                      features_dir, tmp_path,
                                                      capsys):
        # No mode flag: the two lists are what asks for a by-channel split.
        split = ["--manifest", str(campaign_dir / "manifest.json"),
                 "--features", str(features_dir),
                 "--train-channels", "A1_b1,B1_b1", "--test-channels", "A2_b2,B2_b2",
                 "--train-size", "100", "--test-size", "50"]
        model_path = tmp_path / "m.abmm"
        rc, _, err = run(["--seed", "5", "train", *split, "--epochs", "1",
                          "--out", str(model_path)], capsys)
        assert rc == 0, err
        log = json.loads(model_path.with_suffix(".train_log.json").read_text())
        assert log["split"]["train_channels"] == ["A1_b1", "B1_b1"]
        assert log["split"]["test_channels"] == ["A2_b2", "B2_b2"]
        rc, _, err = run(["--seed", "5", "eval", *split, "--model", str(model_path),
                          "--out", str(tmp_path / "rep")], capsys)
        assert rc == 0, err
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert sum(map(sum, report["counts"])) == 50

    def test_fixed_seed_reproduces_model_bytes(self, campaign_dir, features_dir,
                                               tmp_path):
        a, b = tmp_path / "a.abmm", tmp_path / "b.abmm"
        assert cli.main(self.train_args(campaign_dir, features_dir, a)) == 0
        assert cli.main(self.train_args(campaign_dir, features_dir, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_epochs_is_chance_level(self, campaign_dir, features_dir,
                                         tmp_path):
        model_path = tmp_path / "zero.abmm"
        rc = cli.main(self.train_args(campaign_dir, features_dir, model_path,
                                      epochs="0"))
        assert rc == 0
        log = json.loads(model_path.with_suffix(".train_log.json").read_text())
        assert log["per_epoch_loss"] == []
        assert 0.3 <= log["final_train_accuracy"] <= 0.7

    def test_eval_writes_reports(self, campaign_dir, features_dir, tmp_path,
                                 capsys):
        model_path = tmp_path / "model.abmm"
        assert cli.main(self.train_args(campaign_dir, features_dir,
                                        model_path)) == 0
        rc, out, _ = run(["--seed", "5", "eval",
                          "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(features_dir),
                          "--model", str(model_path),
                          "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                          "--train-size", "400", "--test-size", "100",
                          "--out", str(tmp_path / "rep")], capsys)
        assert rc == 0
        assert (tmp_path / "rep" / "report.json").exists()
        assert (tmp_path / "rep" / "report.txt").exists()
        assert "accuracy" in out

    def test_eval_rejects_feature_dimension_mismatch(self, campaign_dir,
                                                     tmp_path, capsys):
        narrow = tmp_path / "narrow"
        assert cli.main(["extract", "--manifest",
                         str(campaign_dir / "manifest.json"),
                         "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                         "--coeffs", "10", "--out", str(narrow)]) == 0
        model_path = tmp_path / "model13.abmm"
        features13 = tmp_path / "full"
        assert cli.main(["extract", "--manifest",
                         str(campaign_dir / "manifest.json"),
                         "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                         "--out", str(features13)]) == 0
        assert cli.main(self.train_args(campaign_dir, features13,
                                        model_path)) == 0
        rc, _, err = run(["--seed", "5", "eval",
                          "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(narrow),
                          "--model", str(model_path),
                          "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                          "--train-size", "400", "--test-size", "100",
                          "--out", str(tmp_path / "rep2")], capsys)
        assert rc == 2
        assert "'num_coeffs': 13" in err and "'num_coeffs': 10" in err
        assert not (tmp_path / "rep2").exists()

    def test_eval_of_overflowing_model_is_a_numeric_error(self, campaign_dir,
                                                          features_dir, tmp_path,
                                                          capsys):
        # Every parameter finite but 1e300: the posteriors were NaN, each
        # row's argmax read H, and the report was written.
        model = mlp.init_model((13, 1024, 100, 2))
        model.params[:] = 1e300
        model.mfcc = {"band_high": 45.0, "band_low": 42.0, "dft_size": 2048,
                      "num_channels": 26, "num_coeffs": 13, "sample_rate": 25600.0}
        model_path = tmp_path / "huge.abmm"
        mlp.save_model(model, model_path)
        rc, _, err = run(self.eval_args(campaign_dir, features_dir, model_path,
                                        tmp_path / "rep"), capsys)
        assert rc == 3, err
        assert err == "numeric failure: non-finite posterior in rows 0 to 99\n"
        assert not (tmp_path / "rep").exists()

    def eval_args(self, campaign_dir, features_dir, model_path, out):
        return ["--seed", "5", "eval",
                "--manifest", str(campaign_dir / "manifest.json"),
                "--features", str(features_dir), "--model", str(model_path),
                "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                "--train-size", "400", "--test-size", "100", "--out", str(out)]

    def test_eval_rejects_model_of_other_mel_channels(self, campaign_dir,
                                                      features_dir, tmp_path,
                                                      capsys):
        # Same 13 coefficients, other filterbank: the dimensions agree, so
        # only the settings the model records tell the features apart.
        mel24 = tmp_path / "mel24"
        assert cli.main(["extract", "--manifest",
                         str(campaign_dir / "manifest.json"),
                         "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                         "--mel-channels", "24", "--out", str(mel24)]) == 0
        model_path = tmp_path / "model.abmm"
        assert cli.main(self.train_args(campaign_dir, features_dir,
                                        model_path)) == 0
        assert mlp.load_model(model_path).mfcc == experiments.load_frames(
            common.load_manifest(campaign_dir / "manifest.json"),
            ("A1_b1",), features_dir)[1]
        capsys.readouterr()
        rc, _, err = run(self.eval_args(campaign_dir, mel24, model_path,
                                        tmp_path / "rep"), capsys)
        assert rc == 2
        assert "'num_channels': 26" in err and "'num_channels': 24" in err
        assert not (tmp_path / "rep").exists()

    def test_version_1_model_asks_to_re_run_train(self, campaign_dir,
                                                  features_dir, tmp_path,
                                                  capsys):
        # ABMM v1: tag byte, dim count, u32 dims, params, no-stats flag.
        model_path = tmp_path / "v1.abmm"
        model_path.write_bytes(b"ABMM" + struct.pack("<HBB2I", 1, 0, 2, 13, 2)
                               + bytes(8 * 28) + b"\x00")
        rc, _, err = run(self.eval_args(campaign_dir, features_dir, model_path,
                                        tmp_path / "rep"), capsys)
        assert rc == 2
        assert "version 1" in err and "re-run train" in err

    def test_version_2_cache_asks_to_re_run_extract(self, campaign_dir,
                                                    features_dir, tmp_path,
                                                    capsys):
        # ABFC v2: coeffs, frames and signature length in a fixed header.
        old = tmp_path / "old"
        shutil.copytree(features_dir, old)
        (old / "B1_b1.abfc").write_bytes(
            b"ABFC" + struct.pack("<HHQI", 2, 13, 0, 2) + b"{}")
        rc, _, err = run(self.train_args(campaign_dir, old,
                                         tmp_path / "m.abmm"), capsys)
        assert rc == 2
        assert "version 2" in err and "re-run extract" in err
        assert not (tmp_path / "m.abmm").exists()

    def test_train_takes_feature_settings_from_caches(self, campaign_dir,
                                                      tmp_path):
        narrow = tmp_path / "narrow"
        assert cli.main(["extract", "--manifest",
                         str(campaign_dir / "manifest.json"),
                         "--channels", "A1_b1,A2_b2,B1_b1,B2_b2",
                         "--coeffs", "10", "--out", str(narrow)]) == 0
        model_path = tmp_path / "model10.abmm"
        assert cli.main(self.train_args(campaign_dir, narrow, model_path)) == 0
        log = json.loads(model_path.with_suffix(".train_log.json").read_text())
        assert log["mfcc"]["num_coeffs"] == 10
        assert "normalize" not in log
        assert mlp.load_model(model_path).dims[0] == 10

    def test_mixed_feature_settings_are_a_data_error(self, campaign_dir,
                                                     features_dir, tmp_path,
                                                     capsys):
        mixed = tmp_path / "mixed"
        shutil.copytree(features_dir, mixed)
        assert cli.main(["extract", "--manifest",
                         str(campaign_dir / "manifest.json"),
                         "--channels", "B2_b2", "--coeffs", "10",
                         "--out", str(mixed)]) == 0
        capsys.readouterr()
        rc, _, err = run(self.train_args(campaign_dir, mixed,
                                         tmp_path / "m.abmm"), capsys)
        assert rc == 2
        assert "B2_b2" in err and "extract" in err

    def test_version_1_cache_is_a_data_error(self, campaign_dir, features_dir,
                                             tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(features_dir, old)
        record = struct.pack("<d13dQ", 43.0, *range(13), 7)
        (old / "A2_b2.abfc").write_bytes(
            b"ABFC" + struct.pack("<HHQ", 1, 13, 1) + record)
        rc, _, err = run(self.train_args(campaign_dir, old,
                                         tmp_path / "m.abmm"), capsys)
        assert rc == 2
        assert "version 1" in err and "extract" in err

    @pytest.mark.parametrize("flags", [
        ["--channels", "A1_b1,A1_b1,B1_b1"],
        ["--train-channels", "A1_b1,B1_b1,B1_b1", "--test-channels", "A2_b2,B2_b2"],
        ["--train-channels", "A1_b1,B1_b1", "--test-channels", "A2_b2,A2_b2"],
    ])
    def test_duplicate_channel_is_usage_error(self, campaign_dir, features_dir,
                                              tmp_path, capsys, flags):
        # A repeated channel would put the same frames in train and test.
        model_path = tmp_path / "m.abmm"
        rc, _, err = run(["--seed", "1", "train",
                          "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(features_dir), *flags,
                          "--train-size", "100", "--test-size", "50",
                          "--out", str(model_path)], capsys)
        assert rc == 1
        assert "duplicate channel id" in err
        assert not model_path.exists()

    def test_model_with_a_nan_is_a_data_error(self, campaign_dir, features_dir,
                                              small_model, tmp_path, capsys):
        model_path = tmp_path / "nan.abmm"
        model_path.write_bytes(small_model.read_bytes()[:-8]
                               + struct.pack("<d", math.nan))  # the last std
        rc, _, err = run(["eval", "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(features_dir),
                          "--channels", "A1_b1,B1_b1",
                          "--train-size", "40", "--test-size", "10",
                          "--model", str(model_path),
                          "--out", str(tmp_path / "rep")], capsys)
        assert rc == 2
        assert f"{model_path}: model std holds a non-finite value" in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "scatter"])
    def test_non_finite_cache_value_is_a_data_error(self, campaign_dir,
                                                    features_dir, small_model,
                                                    tmp_path, capsys, command):
        features = tmp_path / "f"
        shutil.copytree(features_dir, features)
        frames, signature = dataset.frames_from_cache(
            features / "B1_b1.abfc", "H", "B1_b1")
        rot = frames.rot.copy()
        rot[0] = math.inf
        dataset.write_cache(features / "B1_b1.abfc",
                            dataclasses.replace(frames, rot=rot), signature)
        files = ["--manifest", str(campaign_dir / "manifest.json"),
                 "--features", str(features), "--channels", "A1_b1,B1_b1"]
        split = ["--train-size", "40", "--test-size", "10"]
        argv = {"train": ["train", *files, *split, "--out", str(tmp_path / "m.abmm")],
                "eval": ["eval", *files, *split, "--model", str(small_model),
                         "--out", str(tmp_path / "rep")],
                "scatter": ["scatter", *files, "--pair", "1:2",
                            "--out", str(tmp_path / "s.tsv")]}[command]
        rc, _, err = run(argv, capsys)
        assert rc == 2
        assert "B1_b1.abfc: cache rot holds a non-finite value" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    def test_missing_cache_is_a_data_error(self, campaign_dir, tmp_path, capsys):
        rc, _, err = run(self.train_args(campaign_dir, tmp_path / "nowhere",
                                         tmp_path / "m.abmm"), capsys)
        assert rc == 2
        assert "extract" in err


class TestScatterCommand:
    def test_export_counts_rows(self, campaign_dir, features_dir, tmp_path,
                                capsys):
        out_file = tmp_path / "scatter.tsv"
        rc, out, _ = run(["scatter",
                          "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(features_dir),
                          "--channels", "A1_b1,B1_b1",
                          "--pair", "1:2", "--out", str(out_file)], capsys)
        assert rc == 0
        lines = out_file.read_text().splitlines()
        total = 0
        for channel in ("A1_b1", "B1_b1"):
            coeffs, _, _ = dataset.read_cache(features_dir / f"{channel}.abfc")
            total += len(coeffs)
        assert len(lines) == total + 1

    def test_zero_based_pair_rejected(self, campaign_dir, features_dir,
                                      tmp_path, capsys):
        rc, _, err = run(["scatter",
                          "--manifest", str(campaign_dir / "manifest.json"),
                          "--features", str(features_dir),
                          "--pair", "0:2", "--out", str(tmp_path / "s.tsv")],
                         capsys)
        assert rc == 2


class TestExperimentCommand:
    def test_unknown_name_is_usage_error(self, campaign_dir, capsys):
        rc, _, _ = run(["experiment", "seen-everything",
                        "--data", str(campaign_dir)], capsys)
        assert rc == 1

    def test_missing_manifest_is_a_data_error(self, tmp_path, capsys):
        rc, out, err = run(["experiment", "seen-motor",
                            "--data", str(tmp_path / "empty")], capsys)
        assert (rc, out) == (2, "")
        assert err == ("data error: manifest not found: "
                       f"{tmp_path / 'empty' / 'manifest.json'}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--synth-first"], ["--duration", "8"]],
                             ids=lambda f: f[0])
    def test_synth_flags_removed(self, tmp_path, capsys, flags):
        # synth --default-campaign writes the campaign; experiment only reads it.
        rc, out, err = run(["experiment", "seen-motor", "--data",
                            str(tmp_path / "d"), *flags], capsys)
        assert (rc, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(flags)}" in err
        assert list(tmp_path.iterdir()) == []

    def test_seen_motor_end_to_end(self, campaign_dir, tmp_path, capsys):
        rc, out, _ = run(["--seed", "9", "experiment", "seen-motor",
                          "--data", str(campaign_dir),
                          "--train-size", "400", "--test-size", "100",
                          "--epochs", "5",
                          "--out", str(tmp_path / "res")], capsys)
        assert rc == 0
        assert "seen-motor: accuracy" in out
        echo = json.loads((tmp_path / "res" / "experiment.json").read_text())
        assert echo["experiment"] == "seen-motor"
        assert echo["split"]["train_size"] == 400
        assert echo["train_config"]["epochs"] == 5
        assert "report" in echo

    def test_summary_line_reads_the_report(self, campaign_dir, tmp_path, capsys):
        rc, out, _ = run(["--seed", "9", "experiment", "seen-motor",
                          "--data", str(campaign_dir),
                          "--train-size", "400", "--test-size", "100",
                          "--epochs", "1",
                          "--out", str(tmp_path / "res")], capsys)
        assert rc == 0
        report = json.loads((tmp_path / "res" / "report.json").read_text())
        summary = [line for line in out.splitlines()
                   if line.startswith("seen-motor: ")]
        assert summary == [f"seen-motor: accuracy {report['accuracy']:.2f}%  "
                           f"TPR {report['tpr']:.2f}%  TNR {report['tnr']:.2f}%"]

    def test_bytes_identical_across_processes(self, campaign_dir, tmp_path):
        # Hash seed and BLAS thread count differ between the two processes;
        # criterion 5's artifacts must not.
        package_root = str(Path(bearingsound.__file__).resolve().parents[1])
        outs = []
        for hash_seed, threads in (("0", "1"), ("1", "2")):
            out = tmp_path / f"hash{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [package_root, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "bearingsound.cli", "--seed", "17",
                 "experiment", "seen-motor", "--data", str(campaign_dir),
                 "--train-size", "400", "--test-size", "100", "--epochs", "3",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("model.abmm", "report.json", "report.txt",
                     "train_log.json", "experiment.json"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_insufficient_frames_is_data_error(self, campaign_dir, tmp_path,
                                               capsys):
        rc, _, err = run(["--seed", "9", "experiment", "seen-motor",
                          "--data", str(campaign_dir),
                          "--out", str(tmp_path / "res2")], capsys)
        assert rc == 2  # 16 s campaign cannot fill the default 8000/2000 split
        assert "available" in err


class TestSampleRateFromWav:
    def test_fs_flag_removed_where_the_wav_decides(self, campaign_dir, tmp_path,
                                                   capsys):
        for argv in (["extract", "--manifest", str(campaign_dir / "manifest.json"),
                      "--fs", "16000", "--out", str(tmp_path / "f")],
                     ["experiment", "seen-motor", "--data", str(campaign_dir),
                      "--fs", "16000", "--out", str(tmp_path / "r")]):
            rc, out, err = run(argv, capsys)
            assert (rc, out) == (1, ""), argv
            assert "unrecognized arguments: --fs 16000" in err
        assert list(tmp_path.iterdir()) == []

    def test_16_khz_campaign_extracts_and_trains_at_its_rate(self, tmp_path,
                                                              capsys):
        # Before, extract and experiment refused it unless given --fs 16000.
        data = tmp_path / "c"
        assert cli.main(["--seed", "3", "synth", "--default-campaign",
                         "--duration", "12", "--fs", "16000",
                         "--out", str(data)]) == 0
        manifest = common.load_manifest(data / "manifest.json")
        rc, _, _ = run(["extract", "--manifest", str(data / "manifest.json"),
                        "--out", str(data / "features")], capsys)
        assert rc == 0
        for channel in manifest.entries:
            _, signature = dataset.frames_from_cache(
                data / "features" / f"{channel}.abfc", "H", channel)
            assert signature["mfcc"]["sample_rate"] == 16000.0
        results = tmp_path / "r"
        rc, out, _ = run(["--seed", "3", "experiment", "seen-motor", "--data",
                          str(data), "--train-size", "200", "--test-size", "60",
                          "--epochs", "3", "--out", str(results)], capsys)
        assert rc == 0
        assert out.count("cache reused") == 4
        record = json.loads((results / "experiment.json").read_text())
        assert record["mfcc"]["sample_rate"] == 16000.0
        model = mlp.load_model(results / "model.abmm")
        assert model.mfcc == record["mfcc"]

    def test_mixed_rates_extract_in_one_call_and_never_pool(self, tmp_path,
                                                             capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([
            {"channel": channel, "label": label, "seed": seed, "fs": fs,
             "duration": 2, "profile": [[0.0, 43.0]]}
            for seed, (channel, label, fs) in enumerate(
                [("A1_b1", "D", 25600), ("A2_b2", "D", 25600),
                 ("B1_b1", "H", 25600), ("B2_b2", "H", 16000)])]))
        data = tmp_path / "c"
        assert cli.main(["synth", "--scenario", str(path), "--out", str(data)]) == 0
        manifest = str(data / "manifest.json")
        features = str(data / "features")
        assert run(["extract", "--manifest", manifest, "--out", features],
                   capsys)[0] == 0
        _, signature = dataset.frames_from_cache(
            data / "features" / "B2_b2.abfc", "H", "B2_b2")
        assert signature["mfcc"]["sample_rate"] == 16000.0
        other = ("data error: caches of B2_b2 have other feature settings "
                 "than A1_b1's; re-run extract\n")
        rc, _, err = run(["train", "--manifest", manifest, "--features", features,
                          "--train-size", "20", "--test-size", "10",
                          "--out", str(tmp_path / "m.abmm")], capsys)
        assert (rc, err) == (2, other)
        rc, _, err = run(["experiment", "seen-motor", "--data", str(data),
                          "--train-size", "20", "--test-size", "10",
                          "--out", str(tmp_path / "r")], capsys)
        assert (rc, err) == (2, other)
        assert not (tmp_path / "r" / "model.abmm").exists()

    def test_rate_too_high_for_the_mel_channels_is_a_data_error(self, tmp_path,
                                                                capsys):
        # The rate comes from the WAV, not a flag, so this was exit 1 before.
        data = tmp_path / "c"
        assert cli.main(["synth", "--default-campaign", "--fs", "400000",
                         "--duration", "0.2", "--out", str(data)]) == 0
        capsys.readouterr()
        rc, out, err = run(["extract", "--manifest", str(data / "manifest.json"),
                            "--out", str(tmp_path / "f")], capsys)
        assert (rc, out) == (2, "")
        assert err == ("data error: A1_b1: 26 Mel channels do not fit below "
                       "200000.0 Hz at a bin width of 195.312 Hz; at most 22 do\n")


class TestUsageErrors:
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, seed):
        # A negative seed once reached numpy's seed sequence as a traceback.
        rc, out, err = run(["--seed", seed, "synth", "--default-campaign",
                            "--duration", "1", "--out", str(tmp_path / "out")],
                           capsys)
        assert rc == 1
        assert "argument --seed: " in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_band_syntax(self, campaign_dir, tmp_path, capsys):
        rc, _, err = run(["extract", "--manifest",
                          str(campaign_dir / "manifest.json"),
                          "--band", "abc", "--out", str(tmp_path / "f")],
                         capsys)
        assert rc == 1
        assert "LO:HI" in err

    @pytest.mark.parametrize("argv", [
        ["extract", "--manifest", "{t}/manifest.json", "--band", "45:42",
         "--out", "{t}/f"],
        ["experiment", "seen-motor", "--data", "{t}/d", "--band", "45:42"]])
    def test_reversed_band_is_usage_error(self, tmp_path, capsys, argv):
        # MfccConfig rejects the band before any input is read or written.
        rc, out, err = run([a.format(t=tmp_path) for a in argv], capsys)
        assert rc == 1
        assert err.startswith("error: ") and "exceeds" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["extract", "--manifest", "{t}/manifest.json", "--band", "nan:nan",
         "--out", "{t}/f"],
        ["extract", "--manifest", "{t}/manifest.json", "--band=0:inf",
         "--out", "{t}/f"],
        ["synth", "--default-campaign", "--duration", "nan", "--out", "{t}/s"],
        ["synth", "--default-campaign", "--fs", "nan", "--out", "{t}/s"],
        ["synth", "--default-campaign", "--fs", "inf", "--out", "{t}/s"],
        ["experiment", "seen-motor", "--data", "{t}/d", "--lr", "nan"],
        ["experiment", "seen-motor", "--data", "{t}/d", "--band", "42:nan"],
        ["train", "--manifest", "{t}/manifest.json", "--features", "{t}/f",
         "--lr", "nan", "--out", "{t}/m.abmm"]])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, argv):
        # No input exists: the check fires while the arguments are parsed.
        rc, out, err = run([a.format(t=tmp_path) for a in argv], capsys)
        assert rc == 1
        assert "error: argument" in err and "must be finite" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["synth", "--default-campaign", "--fs", "0", "--out", "{t}/s"],
        ["synth", "--default-campaign", "--fs", "-5", "--out", "{t}/s"],
        ["synth", "--default-campaign", "--duration", "0", "--out", "{t}/s"],
        ["experiment", "seen-motor", "--data", "{t}/d", "--test-size=-1"]])
    def test_non_positive_number_is_usage_error(self, tmp_path, capsys, argv):
        # A zero fs used to end in a ZeroDivisionError inside synth.
        rc, out, err = run([a.format(t=tmp_path) for a in argv], capsys)
        assert rc == 1
        assert "error: argument" in err and "must be positive" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_feature_flags_removed_where_caches_decide(self, campaign_dir,
                                                       features_dir, tmp_path,
                                                       capsys):
        split = ["--manifest", str(campaign_dir / "manifest.json"),
                 "--features", str(features_dir), "--channels", "A1_b1,B1_b1",
                 "--train-size", "40", "--test-size", "10"]
        model = str(tmp_path / "m.abmm")
        for argv, flag in (
                (["train", *split, "--coeffs", "20", "--out", model], "--coeffs"),
                (["train", *split, "--no-normalize", "--out", model],
                 "--no-normalize"),
                (["eval", *split, "--model", model, "--band", "30:50",
                  "--out", str(tmp_path / "r")], "--band"),
                (["experiment", "seen-motor", "--data", str(campaign_dir),
                  "--no-normalize"], "--no-normalize"),
                (["synth", "--default-campaign", "--band", "30:50",
                  "--out", str(tmp_path / "s")], "--band")):
            rc, _, err = run(argv, capsys)
            assert rc == 1, argv
            assert flag in err
        assert not (tmp_path / "m.abmm").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_split_flag_removed(self, tmp_path, capsys, command):
        # The channel lists decide the split mode.
        model = ["--model", f"{tmp_path}/m.abmm"] if command == "eval" else []
        rc, _, err = run([command, "--manifest", f"{tmp_path}/manifest.json",
                          "--features", f"{tmp_path}/f", *model, "--split",
                          "by-channel", "--out", f"{tmp_path}/out"], capsys)
        assert rc == 1
        assert "--split" in err
        assert list(tmp_path.iterdir()) == []

    def test_frame_len_flag_removed(self, campaign_dir, tmp_path, capsys):
        rc, _, err = run(["extract", "--manifest",
                          str(campaign_dir / "manifest.json"),
                          "--frame-len", "1024", "--out", str(tmp_path / "f")],
                         capsys)
        assert rc == 1
        assert "--frame-len" in err

    def test_missing_subcommand_flag(self, capsys):
        rc, _, _ = run(["extract"], capsys)
        assert rc == 1

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(["transmogrify"], capsys)
        assert rc == 1


@pytest.fixture(scope="module")
def small_model(campaign_dir, features_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.abmm"
    rc = cli.main(["train", "--manifest", str(campaign_dir / "manifest.json"),
                   "--features", str(features_dir), "--channels", "A1_b1,B1_b1",
                   "--train-size", "40", "--test-size", "10", "--epochs", "1",
                   "--out", str(path)])
    assert rc == 0
    return path


class TestSplitUsageErrors:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("flags,message", [
        (["--train-size", "0"], "must be positive"),
        (["--test-size", "-5"], "must be positive"),
        (["--train-channels", "A1_b1"], "channel lists"),
        (["--test-channels", "B1_b1"], "channel lists"),
    ])
    def test_exit_1(self, campaign_dir, features_dir, small_model, tmp_path,
                    capsys, command, flags, message):
        argv = [command, "--manifest", str(campaign_dir / "manifest.json"),
                "--features", str(features_dir), *flags,
                "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--model", str(small_model)]
        rc, _, err = run(argv, capsys)
        assert rc == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("lists", [
        ["--train-channels", "A1_b1", "--test-channels", "B1_b1"],
        ["--train-channels", "A1_b1"],
        ["--test-channels", "B1_b1"],
    ], ids=" ".join)
    def test_channels_beside_a_channel_list(
            self, campaign_dir, features_dir, small_model, tmp_path, capsys,
            command, lists):
        # --channels pools a random split; a list asks for a by-channel one.
        argv = [command, "--manifest", str(campaign_dir / "manifest.json"),
                "--features", str(features_dir), "--train-size", "40",
                "--test-size", "10", "--channels", "A2_b3", *lists,
                "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--model", str(small_model)]
        rc, out, err = run(argv, capsys)
        assert rc == 1
        assert "--channels does not apply to a by-channel split" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_explicit_zero_size_stops_experiment_before_extract(
            self, campaign_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for path in campaign_dir.iterdir():
            if path.is_file():
                shutil.copy(path, data / path.name)
        rc, out, err = run(["experiment", "seen-motor", "--data", str(data),
                            "--train-size", "0", "--test-size", "50",
                            "--out", str(tmp_path / "res")], capsys)
        assert rc == 1
        assert "must be positive" in err
        assert out == ""
        assert not (data / "features").exists()


class TestFlagsBeforeFiles:
    @pytest.mark.parametrize("argv", [
        ["extract", "--coeffs", "0"],
        ["extract", "--mel-channels", "2000"],
        ["extract", "--channels", "A1,A1"],
        ["train", "--epochs", "-1"],
        ["train", "--test-channels", "B1"],
        ["train", "--channels", "A1,A1"],
        ["eval", "--channels", "A1", "--train-channels", "A", "--test-channels", "B"],
        ["eval", "--train-channels", "A"],
        ["scatter", "--pair", "x"],
        ["scatter", "--channels", "A1,A1"],
        ["extract", "--channels", ""],
        ["train", "--channels", ""],
        ["eval", "--channels", ""],
        ["scatter", "--channels", ""],
        ["train", "--train-channels", "", "--test-channels", "B1_b1"],
        ["experiment", "--epochs", "-1"],
        ["experiment", "--batch", "0"],
        ["experiment", "--lr", "-0.5"],
        ["experiment", "--coeffs", "0"],
        ["experiment", "--mel-channels", "2000"],
        ["experiment", "--band", "45:42"]], ids=" ".join)
    def test_bad_flag_is_a_usage_error_before_the_manifest_is_read(
            self, tmp_path, capsys, argv):
        # No manifest exists: a flag error must still win, as exit 1.
        command, *flags = argv
        manifest = ["--manifest", f"{tmp_path}/manifest.json"]
        features = [*manifest, "--features", f"{tmp_path}/f"]
        inputs = {"extract": manifest, "train": features,
                  "eval": [*features, "--model", f"{tmp_path}/m.abmm"],
                  "scatter": [*features, "--pair", "1:2"],
                  "experiment": ["seen-motor", "--data", f"{tmp_path}/d"]}[command]
        rc, out, err = run([command, *inputs, *flags, "--out", f"{tmp_path}/out"],
                           capsys)
        assert rc == 1
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_train_flag_is_a_usage_error_before_the_caches_are_read(
            self, campaign_dir, tmp_path, capsys):
        rc, out, err = run(["train", "--manifest", str(campaign_dir / "manifest.json"),
                            "--features", str(tmp_path / "missing"),
                            "--epochs", "-1", "--out", str(tmp_path / "m.abmm")],
                           capsys)
        assert rc == 1
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestDefaults:
    def test_flag_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["experiment", "seen-motor", "--data", "d"])
        assert cli._mfcc_config(args) == MfccConfig()
        assert cli._train_config(args) == mlp.TrainConfig()
        args = parser.parse_args(["synth", "--default-campaign", "--out", "o"])
        assert args.fs == synth.SynthConfig.fs
