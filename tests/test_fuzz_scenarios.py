"""Fuzzing of scenario files within their schema: each ``synth --scenario``
exits 0 or 2 (a data error), never with a traceback, and 2 for a fault that
is not a fault object, a channel id that is not a string or a profile or
harmonic number that is a string or a boolean; whatever it writes
``extract`` reads with no feature flag, each cache recording its WAV's
rate."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bearingsound import cli, dataset  # noqa: E402


def log_uniform(low, high):
    """Floats spread evenly over the decades from low to high."""
    return st.floats(0.0, 1.0).map(lambda u: low * (high / low) ** u)


# A number that float() once read: a string or a boolean.
not_numbers = st.sampled_from(["0", "43.0", "1e3", "", True, False])


def sometimes_not_numbers(points):
    """points, or, one draw in four, points with one number a not_numbers value."""
    if not points:
        return st.just(points)

    def swap(where):
        row, column, value = where
        swapped = [list(point) for point in points]
        swapped[row][column] = value
        return swapped

    swapped = st.tuples(st.integers(0, len(points) - 1), st.integers(0, 1),
                        not_numbers).map(swap)
    return st.one_of(st.just(points), st.just(points), st.just(points), swapped)


def has_not_number(points):
    return any(isinstance(x, (str, bool)) for point in points for x in point)


# Below 200 Hz, harmonic 64 stays under fs/2 at 25.6 kHz and above; at lower
# rates it may cross fs/2, as fault ratios up to 100 may, which is a data error.
profiles = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 199.0)),
                    min_size=1, max_size=4, unique_by=lambda p: p[0]).map(
                        sorted).flatmap(sometimes_not_numbers)
harmonics = st.lists(st.tuples(st.integers(1, 64), st.floats(0.0, 2.0)),
                     max_size=6).flatmap(sometimes_not_numbers)
# A fault that is neither null nor a fault object, each once read as no fault.
not_faults = st.sampled_from([{}, False, True, 0, 2.5, [], [1.0], "", "outer_ring"])
faults = st.none() | not_faults | st.fixed_dictionaries({
    "kind": st.sampled_from(["inner_ring", "outer_ring"]),
    "freq_ratio": log_uniform(0.01, 100.0),
    "amplitude": st.floats(0.0, 10.0),
    "resonance_freq": st.floats(10.0, 12000.0),
    "resonance_decay": log_uniform(1e-6, 1e4),
    "jitter": st.floats(0.0, 0.99),
})
# A channel id that is not a string, each once written as <id>.wav; a channel
# without one is F<i>.
not_ids = st.sampled_from([None, 7, 2.5, True, [], ["A1"], {}])
channels = st.fixed_dictionaries({
    "label": st.sampled_from(["H", "D"]),
    "seed": st.integers(0, 2**32),
    "fs": st.sampled_from([16000, 22050, 25600, 44100, 48000]),
    "duration": st.floats(1e-4, 1.0, exclude_max=True),
    "profile": profiles,
    "harmonics": harmonics,
    "noise_level": st.floats(0.0, 1.0),
    "fault": faults,
}, optional={"channel": not_ids})


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(scenario=st.lists(channels, min_size=1, max_size=2))
def test_synth_and_extract_exit_0_or_2(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "scenario.json"
        path.write_text(json.dumps([{"channel": f"F{i}", **channel}
                                    for i, channel in enumerate(scenario)]))
        rc = cli.main(["synth", "--scenario", str(path), "--out", str(tmp / "c")])
        not_a_fault = [c for c in scenario if c["fault"] is not None
                       and not (isinstance(c["fault"], dict) and c["fault"])]
        not_an_id = [c for c in scenario if "channel" in c]
        not_a_number = [c for c in scenario if has_not_number(c["profile"])
                        or has_not_number(c["harmonics"])]
        assert rc in ((2,) if not_a_fault or not_an_id or not_a_number else (0, 2))
        manifest = tmp / "c" / "manifest.json"
        assert manifest.exists() == (rc == 0)
        if rc == 0:
            assert cli.main(["extract", "--manifest", str(manifest),
                             "--out", str(tmp / "f")]) == 0
            for i, channel in enumerate(scenario):
                _, signature = dataset.frames_from_cache(
                    tmp / "f" / f"F{i}.abfc", channel["label"], f"F{i}")
                assert signature["mfcc"]["sample_rate"] == channel["fs"]
