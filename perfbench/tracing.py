"""Span tracing for the benchmark, installed from outside the library.

The tracer wraps each layer's public functions and rebinds every name in
the loaded ``specret.*`` modules that refers to the original object, so
names imported by value (``from .ambiguity import spectrogram_to_product``)
are traced too.  A target that no longer exists is recorded as absent and
reports zero calls, so the benchmark keeps running across refactors.

Spans hold name, start, end, parent span and op id; they stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the durations of its direct children (the program is single
threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib.util
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _out_cells(tracer, args, kwargs, out):
    values = getattr(out, "values", None)
    return _size(values) if values is not None else 0


def _laguerre_steps(tracer, args, kwargs, out):
    n = args[0] if args else kwargs.get("n", 0)
    z = args[1] if len(args) > 1 else kwargs.get("z")
    return int(n) * _size(z)


def _mask_cells(tracer, args, kwargs, out):
    mask = getattr(out, "mask", None)
    return int(mask.sum()) if mask is not None else 0


def _lattice_repeat(tracer, args, kwargs, out):
    key = repr(args[0]) if args else None
    seen = tracer.seen_windows
    repeat = key in seen
    seen.add(key)
    return int(repeat)


# layer span name -> (module, attribute names, counter name, counter)
# Attribute "Class.method" wraps a method; "*.on_lattice" wraps that method
# on every class of the module that defines it.
TARGETS = [
    ("special.laguerre_function", "specret.special", ["laguerre_function"],
     "cell_steps", _laguerre_steps),
    ("special.window_samples", "specret.special",
     ["frft_gauss_samples", "hermite_samples", "dilated_gauss_samples"], None, None),
    ("windows.build_family", "specret.windows",
     ["build_frft_family", "build_hermite_family"], None, None),
    ("windows.peel_masks", "specret.windows", ["peel_masks"], None, None),
    ("stft.forward_stft", "specret.stft", ["forward_stft"], "cells", _out_cells),
    ("stft.to_measurement", "specret.stft", ["to_measurement"], None, None),
    ("stft.add_noise", "specret.stft", ["add_noise"], None, None),
    ("ambiguity.on_lattice", "specret.ambiguity", ["*.on_lattice"], "repeats", _lattice_repeat),
    ("ambiguity.spectrogram_to_product", "specret.ambiguity", ["spectrogram_to_product"],
     "cells", _out_cells),
    ("ambiguity.numeric_ambiguity", "specret.ambiguity", ["numeric_ambiguity"], None, None),
    ("retrieval.measure_family", "specret.retrieval", ["measure_family"], None, None),
    ("retrieval.assemble", "specret.retrieval", ["assemble_alg1", "assemble_alg2"],
     "used_cells", _mask_cells),
    ("retrieval.reconstruct_from_ambiguity", "specret.retrieval",
     ["reconstruct_from_ambiguity"], None, None),
    ("metrics.misfit", "specret.metrics", ["misfit"], None, None),
    ("metrics.verify_noise_bounds", "specret.metrics", ["verify_noise_bounds"], None, None),
    ("config.load_config", "specret.config", ["load_config"], None, None),
    ("cli.artifacts", "specret.container",
     ["write_signal", "write_measurement", "write_ambiguity", "write_mask",
      "signal_to_csv", "measurement_to_csv", "write_pgm_mask", "write_pgm_heatmap"],
     None, None),
    ("cli.artifacts", "specret.cli",
     ["ArtifactWriter.record", "ArtifactWriter.write_json", "ArtifactWriter.finish"],
     None, None),
]


class Tracer:
    """Collects spans and per-span counters while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.stack: list[int] = []
        self.op: int | None = None
        self.seen_windows: set = set()
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op: int):
        self.op = op
        self.seen_windows = set()

    def wrap(self, name, fn, counter_name=None, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            if counter is not None:
                tracer.counters[(name, counter_name)] += counter(tracer, args, kwargs, out)
            return out

        return traced

    def _rebind(self, original, wrapper):
        """Point every specret module attribute naming `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "specret" or mod_name.startswith("specret.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        self.absent = []
        for name, mod_name, attrs, counter_name, counter in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                # a module the workload never loads is idle, not absent
                if importlib.util.find_spec(mod_name) is None:
                    self.absent.extend(f"{mod_name}.{attr}" for attr in attrs)
                continue
            for attr in attrs:
                label = f"{mod_name}.{attr}"
                if attr.startswith("*."):
                    method = attr[2:]
                    owners = [cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                              if cls.__module__ == mod_name and method in vars(cls)]
                    if not owners:
                        self.absent.append(label)
                    for cls in owners:
                        self._wrap_method(cls, method, name, counter_name, counter)
                elif "." in attr:
                    cls_name, method = attr.split(".", 1)
                    cls = getattr(mod, cls_name, None)
                    if cls is None or method not in vars(cls):
                        self.absent.append(label)
                        continue
                    self._wrap_method(cls, method, name, counter_name, counter)
                else:
                    original = getattr(mod, attr, None)
                    if not callable(original):
                        self.absent.append(label)
                        continue
                    self._rebind(original, self.wrap(name, original, counter_name, counter))

    def _wrap_method(self, cls, method, name, counter_name, counter):
        original = vars(cls)[method]
        self._undo.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, counter_name, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds summed over all recorded spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += (span.end - span.start) - child[idx]
        return out

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans if s is not None
        ]
