"""Binary container, CSV, and PGM serialization.

Container layout (little-endian):

    magic     8 bytes  b"TFGRID01"
    version   u16      currently 1
    kind      u16      3 signal | 4 mask RLE
    M, K      u64 x2   matrix shape: M = K = L (signals use M=1, K=L)
    dt, T     f64 x2   lattice parameters
    hop       u64      always 1
    desc_len  u32      UTF-8 descriptor length
    desc      bytes    window/source descriptor

followed by the payload: complex128 samples for kind 3, and a u64 run
count plus u32 run lengths of the row-major bitmap (alternating,
starting with the False run) for kind 4.  Kinds 1 (real matrix) and 2
(complex matrix with mask) are retired: no reader accepts them, so such
files are refused as a kind mismatch.

Every lattice is the square L x L grid; M, K and hop stay in the header
for format compatibility, and readers reject any other values.  A mask
is a bare boolean (L, L) array: `write_mask` takes its bits and grid,
and `read_mask` returns the pair (grid, bits).
"""
from __future__ import annotations

import struct

import numpy as np

from .grid import Grid, Signal

MAGIC = b"TFGRID01"
VERSION = 1
KIND_SIGNAL = 3
KIND_MASK = 4

_HEAD = struct.Struct("<8sHHQQddQI")


def _pack_header(kind: int, grid: Grid, desc: str) -> bytes:
    rows = 1 if kind == KIND_SIGNAL else grid.L
    d = desc.encode("utf-8")
    return _HEAD.pack(MAGIC, VERSION, kind, rows, grid.L, grid.dt, grid.T, 1, len(d)) + d


def _read_header(fh, expected_kind: int, what: str) -> tuple[Grid, str]:
    raw = fh.read(_HEAD.size)
    if len(raw) < _HEAD.size:
        raise OSError("truncated container header")
    magic, version, kind, M, K, dt, T, hop, dlen = _HEAD.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    if kind != expected_kind:
        raise ValueError(f"expected {what} container, got kind {kind}")
    L = K if kind == KIND_SIGNAL else int(round(2 * T / dt))
    rows = 1 if kind == KIND_SIGNAL else L
    if hop != 1 or (M, K) != (rows, L):
        raise ValueError(f"lattice is not square: hop={hop}, M={M}, K={K}, L={L}")
    desc = fh.read(dlen).decode("utf-8")
    return Grid(T=T, L=L), desc


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) < n:
        raise OSError("truncated container payload")
    return raw


def write_signal(sig: Signal, path, desc: str = "signal"):
    with open(path, "wb") as fh:
        fh.write(_pack_header(KIND_SIGNAL, sig.grid, desc))
        fh.write(np.ascontiguousarray(sig.values, dtype="<c16").tobytes())


def read_signal(path) -> Signal:
    with open(path, "rb") as fh:
        grid, _ = _read_header(fh, KIND_SIGNAL, "signal")
        values = np.frombuffer(_read_exact(fh, 16 * grid.L), dtype="<c16")
        return Signal(grid=grid, values=values.copy())


def _rle_encode(bits: np.ndarray) -> np.ndarray:
    """Run lengths of a flat boolean array, alternating and starting with False."""
    flat = bits.reshape(-1)
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], edges, [flat.size]))
    runs = np.diff(bounds).astype(np.uint32)
    if flat.size and flat[0]:
        runs = np.concatenate(([np.uint32(0)], runs))
    return runs


def write_mask(bits: np.ndarray, grid: Grid, path, desc: str = "mask"):
    bits = np.asarray(bits, dtype=bool)
    if bits.shape != (grid.L, grid.L):
        raise ValueError(f"mask shape {bits.shape} does not match the grid's {(grid.L, grid.L)}")
    runs = _rle_encode(bits)
    with open(path, "wb") as fh:
        fh.write(_pack_header(KIND_MASK, grid, desc))
        fh.write(struct.pack("<Q", len(runs)))
        fh.write(runs.astype("<u4").tobytes())


def read_mask(path) -> tuple[Grid, np.ndarray]:
    with open(path, "rb") as fh:
        grid, _ = _read_header(fh, KIND_MASK, "mask")
        L = grid.L
        (nruns,) = struct.unpack("<Q", _read_exact(fh, 8))
        runs = np.frombuffer(_read_exact(fh, 4 * nruns), dtype="<u4").astype(np.int64)
        vals = (np.arange(nruns) % 2).astype(bool)  # False run first
        flat = np.repeat(vals, runs)
        if flat.size != L * L:
            raise ValueError(f"mask runs cover {flat.size} cells, lattice has {L * L}")
        return grid, flat.reshape(L, L)


# ---------------------------------------------------------------- CSV

def signal_to_csv(sig: Signal, path):
    with open(path, "w", newline="") as fh:
        fh.write("index,t,re,im\r\n")
        for i, (t, v) in enumerate(zip(sig.grid.t, sig.values)):
            fh.write(f"{i},{float(t)!r},{float(v.real)!r},{float(v.imag)!r}\r\n")


# ---------------------------------------------------------------- PGM

PGM_FLOOR = 1e-12


def write_pgm_heatmap(values: np.ndarray, path):
    """8-bit log-magnitude P5 heatmap, max-normalized, floored at PGM_FLOOR."""
    mags = np.abs(np.asarray(values))
    peak = mags.max()
    if peak <= 0:
        img = np.zeros(mags.shape, dtype=np.uint8)
    else:
        db = np.log10(np.maximum(mags / peak, PGM_FLOOR))
        span = -np.log10(PGM_FLOOR)
        img = np.round(255.0 * (db + span) / span).astype(np.uint8)
    _write_pgm(img, path)


def write_pgm_mask(bits: np.ndarray, path):
    _write_pgm(np.asarray(bits, dtype=bool) * np.uint8(255), path)  # one uint8 image


def _write_pgm(img: np.ndarray, path):
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img))  # its buffer, copied only out of C order
