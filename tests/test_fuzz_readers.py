"""Fuzzing of the six on-disk formats: whatever bytes a reader is given, it
returns or raises DataError (exit 2), never another exception."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bearingsound import audiofile, common, dataset, mlp, synth  # noqa: E402
from bearingsound.errors import DataError  # noqa: E402
from bearingsound.mlp import NormalizationStats  # noqa: E402

SCENARIO = [{
    "channel": "C1", "label": "D", "axle": "A1", "component": "motor",
    "description": "fuzz", "seed": 3, "duration": 0.5,
    "profile": [[0.0, 43.0], [0.25, 44.0]], "harmonics": [[1, 1.0], [2, 0.5]],
    "noise_level": 0.1,
    "fault": {"kind": "inner_ring", "freq_ratio": 5.4, "amplitude": 1.0,
              "resonance_freq": 4000.0, "resonance_decay": 800.0,
              "jitter": 0.1},
}]


def _write_valid_inputs(directory):
    """Writes one valid file per format; returns {format: (file, reader)}."""
    wav = directory / "x.wav"
    audiofile.write_wav(wav, np.sin(np.arange(300)), 25600.0)
    audiofile.write_rot_track(wav, [42.5, 43.25])
    frames = dataset.Frames(
        coeffs=np.arange(6.0).reshape(2, 3), labels=np.zeros(2, dtype=np.int64),
        channels=np.zeros(2, dtype=np.int64), rot=np.array([43.0, 44.0]),
        index=np.array([0, 5]), channel_ids=("x",))
    dataset.write_cache(directory / "x.abfc", frames,
                        {"mfcc": {"num_coeffs": 3}, "source_sha256": "ab"})
    model = mlp.init_model((3, 4, 2), seed=1)
    model.norm_stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
    mlp.save_model(model, directory / "x.abmm")
    dataset.save_manifest(dataset.Manifest(entries={
        "A1_b1": common.ManifestEntry("x.wav", "D", "A1", "motor", "inner"),
        "B1_b1": common.ManifestEntry("y.wav", "H", "B1", "gearbox", ""),
    }, base_dir=directory), directory / "manifest.json")
    (directory / "scenario.json").write_text(json.dumps(SCENARIO))
    return {
        "ABFC": (directory / "x.abfc", dataset.read_cache),
        "ABMM": (directory / "x.abmm", mlp.load_model),
        "WAV": (wav, lambda p: audiofile.read_pcm(p)[0] / audiofile.PCM_FULL_SCALE),
        "rot": (directory / "x.rot", lambda _: audiofile.read_rot_track(wav)),
        "manifest": (directory / "manifest.json", dataset.load_manifest),
        "scenario": (directory / "scenario.json", synth.scenario_from_json),
    }


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """{format: (file, reader, the file's valid bytes)}; each file reads."""
    inputs = {}
    for fmt, (path, reader) in _write_valid_inputs(
            tmp_path_factory.mktemp("fuzz")).items():
        reader(path)
        inputs[fmt] = (path, reader, path.read_bytes())
    return inputs


def _flip(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for position, value in edits:
        out[position] = value
    return bytes(out)


def corruptions(blob: bytes):
    """Truncations, byte flips and unrelated random bytes of a valid file."""
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda keep: blob[:keep]),
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(lambda edits: _flip(blob, edits)),
        st.binary(max_size=2 * len(blob)))


@pytest.mark.parametrize("fmt", ["ABFC", "ABMM", "WAV", "rot", "manifest",
                                 "scenario"])
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_only_data_errors_escape(valid_inputs, fmt, data):
    path, reader, valid = valid_inputs[fmt]
    path.write_bytes(data.draw(corruptions(valid)))
    try:
        reader(path)
    except DataError:
        pass
    finally:
        path.write_bytes(valid)
