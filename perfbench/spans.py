"""Outside-in span recorder for the dartclean package.

The tracer wraps the public functions and methods of each layer module in
place, for the duration of a ``with tracer.installed():`` block, and puts
the originals back on exit.  It also patches every other name the package
holds the same function under (``pipeline.make_windows``,
``cli.fill_gaps``, ``postprocess.denormalize``, the ``cli.COMMANDS``
table, ...): a function imported by name into another module is a second
reference that patching the defining module alone would miss.

Each call records one span ``[name, start, end, parent, work]`` in memory;
``work`` is an exact count taken from the call's arguments or result where
a counter is registered (rows encoded, multiply-accumulates, bytes
written).  Timed runs never install the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

PACKAGE = "dartclean"
LAYERS = ("cli", "pipeline", "series_io", "synth", "preprocess", "detector",
          "refiner", "postprocess", "model", "layers", "optim", "trainer",
          "metrics")
# Private helpers that bound a layer metric; everything public is traced.
EXTRA = {"trainer": ("_validation_loss",)}


def _rows(args, kwargs, result):
    return int(len(args[1]))


def _dense_macs(factor):
    def count(args, kwargs, result):
        dense, data = args[0], args[1]
        return factor * int(data.shape[0]) * dense.in_dim * dense.out_dim
    return count


def _bytes_written(position):
    def count(args, kwargs, result):
        dest = args[position] if len(args) > position else kwargs.get("destination")
        return os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0
    return count


def _steps_vetoed(args, kwargs, result):
    candidates = int(args[1].sum())
    return candidates, candidates - int(result[0].sum())


# span name -> work(args, kwargs, result)
WORK = {
    "model.Vae.encode": _rows,
    "model.Vae.decode": _rows,
    "layers.Dense.forward": _dense_macs(1),
    "layers.Dense.backward": _dense_macs(2),   # gW = gy.T @ x and gx = gy @ W
    "series_io.write_cleaned_csv": _bytes_written(1),
    "series_io.save_checkpoint": _bytes_written(2),
    "series_io.emit_dart": _bytes_written(1),
    "postprocess.validate_steps": _steps_vetoed,
}


class Tracer:
    """Collects spans while installed; ``spans`` survives uninstalling."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}     # original function -> wrapper
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        for short, module in modules.items():
            extra = EXTRA.get(short, ())
            for key, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and (not key.startswith("_") or key in extra):
                    self._set(module, key, self._wrap(f"{short}.{key}", obj))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            self._set(obj, attr, self._wrap(
                                f"{short}.{obj.__name__}.{attr}", member))
        # second references: names imported into other modules, and tables
        for module in modules.values():
            for key, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._set(module, key, self._wrappers[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in self._wrappers:
                            self._set(obj, k, self._wrappers[v])

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()
        self._wrappers.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Profile:
    """Per-name aggregates of a span list: calls, total, self time, work."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def select(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def calls(self, name):
        return len(self.select(name))

    def self_s(self, *names):
        return sum(self.self_time[i] for n in names for i in self.select(n))

    def total_s(self, *names):
        return sum(self.spans[i][2] - self.spans[i][1]
                   for n in names for i in self.select(n))

    def work(self, name):
        return [self.spans[i][4] for i in self.select(name)]

    def roots(self):
        return [i for i, s in enumerate(self.spans) if s[3] < 0]

    def subtree(self, root):
        """``root`` and every span nested under it.  Spans are stored in
        call order, so a subtree is one contiguous run of the list."""
        members = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] not in members:
                break
            members.add(i)
        return sorted(members)
