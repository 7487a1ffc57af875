import struct
import wave

import numpy as np
import pytest

from specret import Signal, load_wav, make_grid, save_wav


def make_tone(L=8000, rate=8000):
    grid = make_grid(L / (2 * rate), L)
    t = np.arange(L) / rate
    values = 0.5 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 1000.0 * t)
    return Signal(grid=grid, values=values.astype(complex)), rate


class TestWavRoundTrip:
    def test_quantization_bound(self, tmp_path):
        sig, rate = make_tone()
        p = tmp_path / "tone.wav"
        save_wav(sig, p, sample_rate=rate)
        back = load_wav(p)
        assert back.grid.L == sig.grid.L
        assert np.max(np.abs(back.values.real - sig.values.real)) <= 2 ** -15

    def test_reload_is_lossless(self, tmp_path):
        sig, rate = make_tone()
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        save_wav(sig, p1, sample_rate=rate)
        first = load_wav(p1)
        save_wav(first, p2)
        second = load_wav(p2)
        assert np.array_equal(first.values, second.values)

    def test_one_second_grid(self, tmp_path):
        sig, rate = make_tone(L=8000, rate=8000)
        p = tmp_path / "tone.wav"
        save_wav(sig, p, sample_rate=rate)
        back = load_wav(p)
        assert back.grid.L == 8000
        assert back.grid.dt == 1 / 8000
        assert back.grid.T == 0.5

    def test_silence(self, tmp_path):
        grid = make_grid(0.5, 8000)
        p = tmp_path / "silence.wav"
        save_wav(Signal(grid=grid, values=np.zeros(8000)), p, sample_rate=8000)
        assert not load_wav(p).values.any()

    def test_full_scale_clipping(self, tmp_path):
        grid = make_grid(1.0, 16)
        sig = Signal(grid=grid, values=np.full(16, 1.5))
        p = tmp_path / "clip.wav"
        save_wav(sig, p, sample_rate=8)
        back = load_wav(p)
        assert np.max(np.abs(back.values.real)) <= 1.0


class TestWavErrors:
    def test_rejects_stereo(self, tmp_path):
        p = tmp_path / "stereo.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.zeros(64, dtype="<i2").tobytes())
        with pytest.raises(ValueError):
            load_wav(p)

    def test_rejects_8bit(self, tmp_path):
        p = tmp_path / "pcm8.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes(64))
        with pytest.raises(ValueError):
            load_wav(p)

    def test_truncated_file(self, tmp_path):
        sig, rate = make_tone(L=256, rate=8000)
        p = tmp_path / "trunc.wav"
        save_wav(sig, p, sample_rate=rate)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(OSError):
            load_wav(p)

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"this is not a wav file at all")
        with pytest.raises(OSError):
            load_wav(p)


class TestWavHeaderErrors:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.wav"
        p.write_bytes(b"")
        with pytest.raises(OSError):
            load_wav(p)

    def test_header_cut_short(self, tmp_path):
        sig, rate = make_tone(L=256, rate=8000)
        p = tmp_path / "short.wav"
        save_wav(sig, p, sample_rate=rate)
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(OSError):
            load_wav(p)

    def test_zero_sample_rate(self, tmp_path):
        sig, rate = make_tone(L=256, rate=8000)
        p = tmp_path / "zero.wav"
        save_wav(sig, p, sample_rate=rate)
        raw = p.read_bytes()  # the sample rate and byte rate fields are bytes 24-31
        p.write_bytes(raw[:24] + struct.pack("<II", 0, 0) + raw[32:])
        with pytest.raises(ValueError, match="sample rate"):
            load_wav(p)
