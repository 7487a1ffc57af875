import tracemalloc

import numpy as np
import pytest

from specret import dilated_gauss_samples, make_grid, numeric_ambiguity
from specret.container import (
    read_mask,
    read_signal,
    signal_to_csv,
    write_mask,
    write_pgm_heatmap,
    write_pgm_mask,
    write_signal,
)
from conftest import random_signal

KIND_OFFSET = 8 + 2  # magic, version
HOP_OFFSET = 8 + 2 + 2 + 8 + 8 + 8 + 8  # magic, version, kind, M, K, dt, T


@pytest.fixture()
def signal_file(grid256, rng, tmp_path):
    p = tmp_path / "sig.bin"
    write_signal(random_signal(grid256, rng), p)
    return p


class TestBinaryContainer:
    def test_signal_round_trip(self, grid256, rng, tmp_path):
        f = random_signal(grid256, rng)
        p = tmp_path / "sig.bin"
        write_signal(f, p)
        back = read_signal(p)
        assert back.grid == grid256
        assert np.array_equal(back.values, f.values)

    def test_mask_rle_round_trip(self, grid256, rng, tmp_path):
        bits = rng.random((grid256.L, grid256.L)) < 0.3
        p = tmp_path / "mask.bin"
        write_mask(bits, grid256, p)
        grid, back = read_mask(p)
        assert grid == grid256
        assert np.array_equal(back, bits)

    def test_mask_edge_cases(self, tmp_path):
        grid = make_grid(1.0, 4)
        for bits in (np.zeros((4, 4), bool), np.ones((4, 4), bool)):
            p = tmp_path / "m.bin"
            write_mask(bits, grid, p)
            assert np.array_equal(read_mask(p)[1], bits)

    def test_mask_of_another_shape_is_not_written(self, tmp_path):
        p = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="mask shape"):
            write_mask(np.zeros((4, 5), bool), make_grid(1.0, 4), p)
        assert not p.exists()

    def test_mask_runs_must_cover_the_lattice(self, tmp_path):
        p = tmp_path / "m.bin"
        write_mask(np.eye(4, dtype=bool), make_grid(1.0, 4), p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = (int.from_bytes(raw[-4:], "little") + 1).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="mask runs cover 17 cells"):
            read_mask(p)

    def test_kind_mismatch_rejected(self, signal_file):
        with pytest.raises(ValueError):
            read_mask(signal_file)
        raw = bytearray(signal_file.read_bytes())
        for retired in (1, 2):  # the real and complex matrix kinds
            raw[KIND_OFFSET:KIND_OFFSET + 2] = retired.to_bytes(2, "little")
            signal_file.write_bytes(bytes(raw))
            with pytest.raises(ValueError, match=f"got kind {retired}"):
                read_signal(signal_file)

    def test_truncation_detected(self, signal_file):
        raw = signal_file.read_bytes()
        signal_file.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(OSError):
            read_signal(signal_file)

    def test_non_square_header_rejected(self, signal_file):
        raw = bytearray(signal_file.read_bytes())
        assert int.from_bytes(raw[HOP_OFFSET:HOP_OFFSET + 8], "little") == 1
        raw[HOP_OFFSET:HOP_OFFSET + 8] = (2).to_bytes(8, "little")
        signal_file.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_signal(signal_file)

    def test_bad_magic_rejected(self, signal_file):
        raw = bytearray(signal_file.read_bytes())
        raw[:8] = b"NOTMAGIC"
        signal_file.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_signal(signal_file)


class TestCsv:
    def test_signal_columns(self, grid256, rng, tmp_path):
        f = random_signal(grid256, rng)
        p = tmp_path / "sig.csv"
        signal_to_csv(f, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "index,t,re,im"
        idx, t, re, im = lines[5].split(",")
        assert int(idx) == 4
        assert float(t) == f.grid.t[4]
        assert float(re) == f.values[4].real
        assert float(im) == f.values[4].imag


class TestPgm:
    def test_heatmap_header_and_range(self, grid256, tmp_path):
        amb = numeric_ambiguity(dilated_gauss_samples(1.0, grid256), grid256)
        p = tmp_path / "amb.pgm"
        write_pgm_heatmap(amb, p)
        raw = p.read_bytes()
        header = b"P5\n%d %d\n255\n" % (grid256.L, grid256.L)
        assert raw.startswith(header)
        img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(grid256.L, grid256.L)
        assert img.max() == 255  # max-normalized
        k0 = grid256.L // 2
        assert img[k0, k0] == 255  # peak at the origin

    def test_zero_field_heatmap(self, tmp_path):
        p = tmp_path / "z.pgm"
        write_pgm_heatmap(np.zeros((8, 8)), p)
        raw = p.read_bytes()
        img = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert not img.any()

    def test_mask_bitmap(self, tmp_path):
        bits = np.zeros((4, 6), dtype=bool)
        bits[1, 2] = True
        p = tmp_path / "m.pgm"
        write_pgm_mask(bits, p)
        raw = p.read_bytes()
        img = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(4, 6)
        assert img[1, 2] == 255
        assert img.sum() == 255

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_mask_bytes_are_the_int_images(self, rng, tmp_path, layout):
        # the bytes of the int64 image and its uint8 copy it once made
        bits = rng.random((300, 200)) < 0.3
        bits = {"C": bits, "F": np.asfortranarray(bits), "sliced": bits[::3, 1::2]}[layout]
        p = tmp_path / "m.pgm"
        write_pgm_mask(bits, p)
        h, w = bits.shape
        want = b"P5\n%d %d\n255\n" % (w, h) + np.where(bits, 255, 0).astype(np.uint8).tobytes()
        assert p.read_bytes() == want
        values = rng.random((h, w))  # a heatmap out of C order writes C order too
        write_pgm_heatmap(values, p)
        write_pgm_heatmap(np.asfortranarray(values), tmp_path / "f.pgm")
        assert (tmp_path / "f.pgm").read_bytes() == p.read_bytes()

    def test_mask_writes_one_uint8_image(self, rng, tmp_path):
        # the int64 image, its uint8 copy and that copy's bytes took 10 L^2
        L = 1024
        bits = rng.random((L, L)) < 0.5
        p = tmp_path / "m.pgm"
        write_pgm_mask(bits, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_pgm_mask(bits, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * L * L
