"""Benchmark runner for specret.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a source checkout,
importing the package from ./src.  One process, one client, closed loop:
each op starts when the previous one has returned.  A run

1. sets up once (fresh `specret` import, grid, signal, fixed family,
   config) and runs one untimed warm-up op under tracemalloc for
   `peak_mem_mb`;
2. with --trace 0, runs ops back to back until S seconds have passed and
   reports end-to-end medians (the misfit is a geometric mean over the
   checked ops).  Between ops it repeats the set-up on a throwaway copy of
   the workload, spread over the whole run (one per op, and at least
   SETUP_REPEATS in all), and reports the median as `setup_s`; set-ups
   timed in one burst would all see the same short phase of a shared
   host, while these see the same mix as the ops;
3. with --trace 1, runs pairs of an untraced and a traced op on the same
   input, checks that both give the same reconstruction bits, and reports
   per-layer figures per traced op.

A detailed report (machine, working set, op count, failures, absent
trace targets) goes out as a JSON line before the final result line.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

# one client, no extra threads: keep any BLAS pool numpy loads single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

SETUP_REPEATS = 40
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
WORK_DIR = ROOT / ".bench_work"


def loaded_specret():
    return {m: mod for m, mod in sys.modules.items() if m == "specret" or m.startswith("specret.")}


def load_specret_fresh(names):
    """Import the named modules from ./src, dropping any cached specret modules first."""
    for mod in loaded_specret():
        del sys.modules[mod]
    return {name: importlib.import_module(name) for name in names}


def timed_setup(workload_cls, seed, L):
    """Set a new workload up from a fresh import; returns (seconds, workload, modules)."""
    gc.collect()
    t0 = time.perf_counter()
    workload = workload_cls()
    mods = load_specret_fresh(workload.imports)
    workload.setup(mods, seed, L, WORK_DIR)
    return time.perf_counter() - t0, workload, mods


def repeat_setup(workload_cls, seed, L, live_modules):
    """Time one more set-up on a throwaway workload, then put back the modules in use."""
    seconds, _, _ = timed_setup(workload_cls, seed, L)
    for mod in loaded_specret():
        del sys.modules[mod]
    sys.modules.update(live_modules)
    return seconds


def run_op(workload, i, tracer=None):
    """One op with its untimed preparation; exceptions become failed ops."""
    workload.prepare(i)
    gc.collect()
    if tracer is not None:
        tracer.begin_op(i)
        tracer.install()
    t0 = time.perf_counter()
    try:
        return workload.op(i)
    except Exception as exc:  # a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return OpResult(op_s=time.perf_counter() - t0, problem=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()


def peak_memory_op(workload):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = run_op(workload, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def machine_info():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"L{level}_cache"] = size
    return info


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize_untraced(results, peak_bytes, setup_s):
    ok = [r for r in results if r.problem is None]
    timed = ok or results
    op_times = [r.op_s for r in timed]
    retrieve = [r.retrieve_s for r in timed if r.retrieve_s is not None] or op_times
    misfits = [r.misfit for r in ok if r.misfit is not None]
    return {
        "op_s": metric(statistics.median(op_times), "s"),
        "retrieve_s": metric(statistics.median(retrieve), "s"),
        "peak_mem_mb": metric(peak_bytes / 1e6, "MB"),
        "setup_s": metric(setup_s, "s"),
        # a geometric mean, not a median: on the study workload each op's misfit
        # is set by its largest drawn degree, so a median over a run jumps
        # between levels, and an arithmetic mean follows the rare low-degree draws
        "misfit": metric(statistics.geometric_mean(misfits) if misfits else 1.0, "1"),
    }


def summarize_traced(tracer, plain, traced):
    n = max(len(traced), 1)
    totals = tracer.layer_totals()
    counters = tracer.counters

    def calls(name):
        return totals[name]["calls"] / n if name in totals else 0.0

    def self_s(name):
        return totals[name]["self_s"] / n if name in totals else 0.0

    def per_op(name, counter):
        return counters.get((name, counter), 0) / n

    def share(num, den):
        return num / den if den else 0.0

    lattice_calls = totals["ambiguity.on_lattice"]["calls"] if "ambiguity.on_lattice" in totals else 0
    transformed = counters.get(("ambiguity.spectrogram_to_product", "cells"), 0)
    overhead = share(statistics.median(r.op_s for r in traced),
                     statistics.median(r.op_s for r in plain)) - 1.0
    layers = {
        "stft.forward_stft.calls": metric(calls("stft.forward_stft"), "count"),
        "stft.forward_stft.self_s": metric(self_s("stft.forward_stft"), "s"),
        "stft.forward_stft.cells": metric(per_op("stft.forward_stft", "cells"), "count"),
        "stft.add_noise.self_s": metric(self_s("stft.add_noise"), "s"),
        "ambiguity.spectrogram_to_product.calls":
            metric(calls("ambiguity.spectrogram_to_product"), "count"),
        "ambiguity.spectrogram_to_product.self_s":
            metric(self_s("ambiguity.spectrogram_to_product"), "s"),
        "retrieval.used_cell_frac":
            metric(share(counters.get(("retrieval.assemble", "used_cells"), 0), transformed), "1"),
        "ambiguity.on_lattice.calls": metric(calls("ambiguity.on_lattice"), "count"),
        "ambiguity.on_lattice.self_s": metric(self_s("ambiguity.on_lattice"), "s"),
        "ambiguity.on_lattice.repeat_frac":
            metric(share(counters.get(("ambiguity.on_lattice", "repeats"), 0), lattice_calls), "1"),
        "special.laguerre_function.calls": metric(calls("special.laguerre_function"), "count"),
        "special.laguerre_function.self_s": metric(self_s("special.laguerre_function"), "s"),
        "special.laguerre_function.cell_steps":
            metric(per_op("special.laguerre_function", "cell_steps"), "count"),
        "windows.peel_masks.calls": metric(calls("windows.peel_masks"), "count"),
        "windows.peel_masks.self_s": metric(self_s("windows.peel_masks"), "s"),
        "retrieval.assemble.calls": metric(calls("retrieval.assemble"), "count"),
        "retrieval.assemble.self_s": metric(self_s("retrieval.assemble"), "s"),
        "retrieval.reconstruct_from_ambiguity.self_s":
            metric(self_s("retrieval.reconstruct_from_ambiguity"), "s"),
        "metrics.verify_noise_bounds.self_s": metric(self_s("metrics.verify_noise_bounds"), "s"),
        "cli.artifacts.self_s": metric(self_s("cli.artifacts"), "s"),
        "cli.artifacts.bytes": metric(sum(r.artifact_bytes for r in traced) / n, "bytes"),
        "config.load_config.self_s": metric(self_s("config.load_config"), "s"),
        "special.window_samples.self_s": metric(self_s("special.window_samples"), "s"),
        "windows.build_family.self_s": metric(self_s("windows.build_family"), "s"),
        "trace.overhead_frac": metric(overhead, "1"),
    }
    table = {name: {"calls_per_op": row["calls"] / n, "self_s_per_op": row["self_s"] / n}
             for name, row in sorted(totals.items())}
    return layers, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid-L", type=int, default=None,
                        help="grid size override for smoke runs (default: the workload's L)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specret" / "__init__.py").is_file():
        print(f"specret sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)

    workload_cls = WORKLOADS[args.workload]
    L = args.grid_L or workload_cls.default_L
    first_setup, workload, mods = timed_setup(workload_cls, args.seed, L)
    setup_times = [first_setup]
    live_modules = loaded_specret()
    src = Path(mods["specret"].__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"imported specret from {src}, not from this checkout", file=sys.stderr)
        return 2

    warm, peak_bytes = peak_memory_op(workload)
    plain, traced = [], []
    problems = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    setup_wall = 0.0  # the repeated set-ups do not eat into the ops' S seconds

    def op_clock():
        return time.perf_counter() - start - setup_wall

    i = 0
    while op_clock() < args.seconds:
        plain.append(run_op(workload, i))
        if tracer is not None:
            traced.append(run_op(workload, i, tracer))
            if traced[-1].recon != plain[-1].recon:
                problems.append(f"op {i}: traced reconstruction differs from untraced")
        else:
            t0 = time.perf_counter()
            due = max(i + 2, SETUP_REPEATS * min(op_clock() / args.seconds, 1.0))
            while len(setup_times) < due:
                setup_times.append(repeat_setup(workload_cls, args.seed, L, live_modules))
            setup_wall += time.perf_counter() - t0
        i += 1

    results = plain + traced
    failed = sum(r.problem is not None for r in results)
    for kind, runs in (("op", plain), ("traced op", traced)):
        problems += [f"{kind} {k}: {r.problem}" for k, r in enumerate(runs) if r.problem]
    problems += workload.run_problems(plain)

    op_times = [r.op_s for r in plain]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "L": L,
        "machine": machine_info(),
        "working_set": {"complex_L2_bytes": L * L * 16, **workload.working_set()},
        "ops": len(plain),
        "traced_ops": len(traced),
        "fail_frac": failed / len(results),
        "warmup_problem": warm.problem,
        "retrieve_s_timed": all(r.retrieve_s is not None for r in results),
        "setup_s_each": setup_times,
        "op_s_each": op_times,
        "retrieve_s_each": [r.retrieve_s for r in plain],
        "problems": problems,
    }
    if len(op_times) >= P90_MIN_OPS:
        report["op_s_p90"] = statistics.quantiles(op_times, n=10)[-1]
    if tracer is None:
        metrics = summarize_untraced(plain, peak_bytes, statistics.median(setup_times))
    else:
        metrics, report["layers"] = summarize_traced(tracer, plain, traced)
        report["absent_trace_targets"] = tracer.absent
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.as_records()))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems and warm.problem is None,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
