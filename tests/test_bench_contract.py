"""The library API the benchmark drives: each workload in
perfbench/workloads.py sets up at its smoke-test grid and runs one op
that passes its own check."""
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from specret import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SMALL_L = {"fan-chirp-1024": 512, "hermite-noisy-1024": 256, "hermite-study-512": 512}


def load_workloads():
    if "bench_workloads" not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"].WORKLOADS


@pytest.mark.parametrize("name", sorted(SMALL_L))
def test_one_op_passes_its_check(name, tmp_path, monkeypatch):
    # the noisy workload wraps the CLI's runners in timers; put them back after
    monkeypatch.setattr(cli, "run_alg1", cli.run_alg1)
    monkeypatch.setattr(cli, "run_alg2", cli.run_alg2)
    workload = load_workloads()[name]()
    mods = {mod: importlib.import_module(mod) for mod in workload.imports}
    workload.setup(mods, 1, SMALL_L[name], tmp_path)
    workload.prepare(0)
    result = workload.op(0)
    assert result.problem is None
    assert math.isfinite(result.misfit)
    assert result.retrieve_s is not None
    assert workload.run_problems([result]) == []


@pytest.mark.parametrize("name, plans", [("fan-chirp-1024", 1), ("hermite-study-512", 2)])
def test_plan_reuse_across_ops(name, plans, tmp_path, monkeypatch):
    # the fan measures one fixed family every op, so its second op reuses the
    # plan; the study draws a fresh family every op, so each op builds one
    from specret import retrieval
    builds = []
    build = retrieval.make_plan
    monkeypatch.setattr(retrieval, "make_plan", lambda *args: builds.append(1) or build(*args))
    workload = load_workloads()[name]()
    mods = {mod: importlib.import_module(mod) for mod in workload.imports}
    workload.setup(mods, 1, SMALL_L[name], tmp_path)
    results = []
    for i in range(2):
        workload.prepare(i)
        results.append(workload.op(i))
    assert [r.problem for r in results] == [None, None]
    assert len(builds) == plans
    if plans == 1:
        assert results[1].recon == results[0].recon
