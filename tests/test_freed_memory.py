"""The package's allocator policy (`specret._keep_freed_memory`): freed
arrays stay in the process for the next run instead of going back to the
OS, where each new run would fault them in and zero them again."""
import ctypes
import logging
import platform
import resource

import numpy as np
import pytest

import specret
from specret import Signal, build_hermite_family, make_grid, measure_family


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_a_second_run_reuses_the_first_runs_memory():
    grid = make_grid(8.0, 512)
    fam = build_hermite_family([0, 10, 20, 30, 40, 50], grid)
    sig = Signal(grid=grid, values=np.random.default_rng(5).standard_normal(512) + 0j)
    measure_family(sig, fam)  # warm-up, freed at once
    # the second core's one worker thread keeps its glibc arena: a thread
    # started per call could get a fresh arena and fault its powers in again
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    powers = measure_family(sig, fam)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    pages = sum(p.nbytes for p in powers) // resource.getpagesize()  # 3 072
    assert faults < 0.1 * pages, f"{faults} minor faults for {pages} pages of powers"


class NoMallopt:
    pass


class Refusing:
    @staticmethod
    def mallopt(param, value):
        return 0  # glibc's answer to a value out of range


def no_libc(_):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [no_libc, lambda _: NoMallopt(), lambda _: Refusing()],
                         ids=["no-libc", "no-mallopt", "refused"])
def test_without_glibc_the_policy_logs_and_returns(monkeypatch, caplog, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    with caplog.at_level(logging.DEBUG, logger="specret"):
        specret._keep_freed_memory()
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert caplog.records[0].name == "specret"
    assert "freed memory goes back to the OS" in caplog.records[0].getMessage()
