import struct
import wave

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
        pcm, fs = audiofile.read_pcm(path)
        assert fs == 25600.0
        np.testing.assert_allclose(pcm / audiofile.PCM_FULL_SCALE,
                                   [0.0, 0.95, -0.95], atol=1e-4)

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
                audiofile.read_pcm(path)


    @pytest.mark.parametrize("width,channels,shown", [
        (1, 1, "expected 16-bit PCM, got 8-bit"),
        (2, 2, "expected mono, got 2 channels")])
    def test_other_sample_layouts_are_data_errors(self, tmp_path, width,
                                                  channels, shown):
        path = tmp_path / "other.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(25600)
            w.writeframes(bytes(8 * width * channels))
        with pytest.raises(DataError, match=f"other.wav: {shown}"):
            audiofile.read_pcm(path)

    def test_zero_hz_header_is_a_data_error(self, tmp_path, wav_bytes):
        # The rate is the recording's: MfccConfig would refuse 0 Hz as a
        # usage error, so the reader names the file instead.
        path = tmp_path / "zero.wav"
        path.write_bytes(wav_bytes[:24] + bytes(8) + wav_bytes[32:])
        with pytest.raises(DataError, match="zero.wav: WAV header states a "
                                            "sample rate of 0 Hz"):
            audiofile.read_pcm(path)

    def test_pcm_is_the_int16_data_chunk(self, tmp_path):
        path = tmp_path / "a.wav"
        x = np.sin(np.arange(5000))
        audiofile.write_wav(path, x, 8000.0)
        pcm, fs = audiofile.read_pcm(path)
        assert (pcm.dtype, fs) == (np.dtype(np.int16), 8000.0)
        scale = 0.95 * audiofile.PCM_FULL_SCALE / np.abs(x).max()
        assert np.array_equal(pcm, np.rint(x * scale))


class TestReadPcm:
    @staticmethod
    def readframes(path):
        with wave.open(str(path), "rb") as w:
            return w.readframes(w.getnframes())

    def test_mapped_read_only_and_equal_to_readframes(self, tmp_path):
        path = tmp_path / "a.wav"
        audiofile.write_wav(path, np.sin(np.arange(5000)), 8000.0)
        pcm, _ = audiofile.read_pcm(path)
        assert isinstance(pcm, np.memmap)
        assert not pcm.flags.writeable
        with pytest.raises(ValueError):
            pcm[0] = 1
        assert pcm.tobytes() == self.readframes(path)

    def test_list_chunk_before_and_chunk_after_the_data(self, tmp_path, wav_bytes):
        # The data starts at byte 58, not 44, and a chunk follows it.
        data_at = wav_bytes.index(b"data")
        info = b"LIST" + struct.pack("<I", 6) + b"INFOab"
        tail = b"junk" + struct.pack("<I", 2) + b"\x01\x02"
        blob = bytearray(wav_bytes[:data_at] + info + wav_bytes[data_at:] + tail)
        blob[4:8] = struct.pack("<I", len(blob) - 8)
        path = tmp_path / "list.wav"
        path.write_bytes(bytes(blob))
        pcm, fs = audiofile.read_pcm(path)
        assert pcm.offset == data_at + len(info) + 8 == 58
        assert fs == 25600.0
        assert pcm.tobytes() == self.readframes(path) == wav_bytes[data_at + 8 :]

    def test_zero_frames(self, tmp_path):
        path = tmp_path / "e.wav"
        audiofile.write_wav(path, np.zeros(0), 25600.0)
        pcm, fs = audiofile.read_pcm(path)
        assert (pcm.dtype, pcm.size, fs) == (np.dtype(np.int16), 0, 25600.0)


class TestWriteWav:
    @pytest.mark.parametrize("kind", ["noise", "silence"])
    def test_blocks_write_the_whole_array_rounding(self, tmp_path, monkeypatch,
                                                   kind):
        # Two full blocks and a partial one, at the default block and at a
        # block that divides nothing.
        n = 2 * audiofile._WRITE_BLOCK + 12345
        x = (np.random.default_rng(3).standard_normal(n) if kind == "noise"
             else np.zeros(n))
        peak = np.abs(x).max()
        scale = 0.95 * audiofile.PCM_FULL_SCALE / peak if peak > 0 else 1.0
        expected = np.rint(x * scale).astype("<i2").tobytes()
        blobs = []
        for block in (audiofile._WRITE_BLOCK, 1000):
            monkeypatch.setattr(audiofile, "_WRITE_BLOCK", block)
            path = tmp_path / f"{block}.wav"
            audiofile.write_wav(path, x, 25600.0)
            with wave.open(str(path), "rb") as w:
                assert w.getnframes() == n
                assert w.readframes(n) == expected
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_signal(self, tmp_path):
        audiofile.write_wav(tmp_path / "e.wav", np.zeros(0), 25600.0)
        pcm, fs = audiofile.read_pcm(tmp_path / "e.wav")
        assert (pcm.size, fs) == (0, 25600.0)


class TestAudioRecording:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.zeros(3000)
        samples[1234] = bad
        with pytest.raises(DataError, match="non-finite"):
            audiofile.AudioRecording(samples, 25600.0, "c", [0.0])

    def test_pcm_is_kept_without_a_float_copy(self):
        pcm = np.arange(-2048, 2048, dtype=np.int16)
        recording = audiofile.AudioRecording(pcm, 25600.0, "c", [43.0, 43.0])
        assert recording.samples is pcm
        assert audiofile.AudioRecording([], 25600.0, "c", []).samples.dtype == float


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_data_errors(self, tmp_path, bad):
        # A non-finite speed fails every band test, so it was silently gated out.
        (tmp_path / "a.rot").write_text(f"43.0\n{bad}\n44.0\n")
        with pytest.raises(DataError, match=rf"a.rot:2: non-finite value {bad}$"):
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
