import struct

import numpy as np
import pytest

from bearingsound import audiofile
from bearingsound.errors import DataError


@pytest.fixture
def wav_bytes(tmp_path):
    path = tmp_path / "good.wav"
    audiofile.write_wav(path, np.sin(np.arange(64)), 25600.0)
    return path.read_bytes()


class TestReadWav:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.wav"
        audiofile.write_wav(path, np.array([0.0, 1.0, -1.0]), 25600.0)
        samples, fs = audiofile.read_wav(path)
        assert fs == 25600.0
        np.testing.assert_allclose(samples, [0.0, 0.95, -0.95], atol=1e-4)

    def test_malformed_files_are_data_errors(self, tmp_path, wav_bytes):
        # Each of these escaped as a non-DataError exception before.
        cases = {
            "truncated fmt chunk": wav_bytes[:30],
            "bad chunk size": (wav_bytes[:16] + struct.pack("<I", 0xFFFFFFF0)
                               + wav_bytes[20:]),
            "odd data length": wav_bytes[:-3],
            "truncated data": wav_bytes[:-4],
            "no chunks": wav_bytes[:12],
        }
        for name, blob in cases.items():
            path = tmp_path / "bad.wav"
            path.write_bytes(blob)
            with pytest.raises(DataError, match="bad.wav"):
                audiofile.read_wav(path)


class TestRotTrack:
    def test_round_trip(self, tmp_path):
        track = np.array([42.5, 43.0 + 1e-12, 44.75])
        audiofile.write_rot_track(tmp_path / "a.wav", track)
        assert np.array_equal(audiofile.read_rot_track(tmp_path / "a.wav"), track)

    def test_bad_lines_are_data_errors(self, tmp_path):
        for body in (b"43.0\nfast\n", b"43.0\n\xff\xfe\n", b"\x80"):
            (tmp_path / "a.rot").write_bytes(body)
            with pytest.raises(DataError, match="bad float"):
                audiofile.read_rot_track(tmp_path / "a.wav")


class TestSourceHash:
    def test_covers_wav_and_sidecar_bytes(self, tmp_path, wav_bytes):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes)
        audiofile.write_rot_track(path, [43.0])
        first = audiofile.source_sha256(path)
        assert first == audiofile.source_sha256(path)
        audiofile.write_rot_track(path, [44.0])
        second = audiofile.source_sha256(path)
        assert second != first
        path.write_bytes(wav_bytes[:-2])
        assert audiofile.source_sha256(path) not in (first, second)

    def test_missing_sidecar_is_a_data_error(self, tmp_path, wav_bytes):
        (tmp_path / "a.wav").write_bytes(wav_bytes)
        with pytest.raises(DataError, match="a.rot"):
            audiofile.source_sha256(tmp_path / "a.wav")
