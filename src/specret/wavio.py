"""Mono 16-bit PCM WAV ingestion and export.

Loaded samples are normalized to [-1, 1] and bound to a grid with
dt = 1/sample_rate and T = L*dt/2 (natural time units).  Retrieval
pipelines typically rebind the samples to a square lattice first; see
cli.audio_grid.
"""
from __future__ import annotations

import wave

import numpy as np

from .grid import Grid, Signal

_FULL_SCALE = 32768.0


def load_wav(path) -> Signal:
    """Read a mono PCM-16 WAV file into a Signal.

    The trailing sample is dropped when the frame count is odd (grids
    need even lengths).
    """
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            nframes = wf.getnframes()
            frames = wf.readframes(nframes)
    except (wave.Error, EOFError) as exc:  # EOFError: a header cut short
        raise OSError(f"unreadable wav file {path}: {exc}") from exc
    if rate <= 0:
        raise ValueError(f"wav sample rate must be positive, got {rate}")
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    if width != 2:
        raise ValueError(f"expected 16-bit PCM, got sample width {width}")
    if len(frames) < 2 * nframes:
        raise OSError(f"truncated wav file {path}: {len(frames)} bytes for {nframes} frames")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / _FULL_SCALE
    if len(samples) % 2 == 1:
        samples = samples[:-1]
    if len(samples) == 0:
        raise ValueError(f"empty wav file {path}")
    L = len(samples)
    dt = 1.0 / rate
    grid = Grid(T=L * dt / 2.0, L=L)
    return Signal(grid=grid, values=samples.astype(np.complex128))


def save_wav(signal: Signal, path, sample_rate: int | None = None):
    """Write the real part of a signal as mono PCM-16.

    The rate defaults to 1/dt of the signal's grid (valid for signals
    loaded by load_wav); values are clipped to [-1, 1] and quantized.
    """
    rate = int(round(1.0 / signal.grid.dt)) if sample_rate is None else int(sample_rate)
    data = np.clip(np.real(signal.values), -1.0, 1.0 - 1.0 / _FULL_SCALE)
    pcm = np.round(data * _FULL_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())
