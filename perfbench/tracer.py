"""Spans around calls into semican's public functions, from outside the package.

``Tracer.install`` wraps each function of ``TARGETS`` in every loaded
``semican`` module that binds it (``semican.cli`` re-binds functions of
``bases``, ``geom`` and ``separation``; ``bases`` re-binds ``eval_word``), and
methods on their class.  A name that no longer exists is reported as absent,
so the package can be refactored without editing this file.

Spans stay in memory (name, start, end, parent; one run id per file) and are
written once at the end.  ``self_times`` derives each span's self time as its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# layer -> public names; "Class.method" wraps a method.
TARGETS = {
    "core": ("enumerate_orbits", "representative_pair"),
    "qcount": ("eval_word", "sub_grouped"),
    "ratlin": ("solve_pivoted", "rank", "kernel_basis", "pivot_columns"),
    "bases": ("monomial_matrix_E", "monomial_matrix_Pi", "m_coefficients",
              "cc_multiplicities"),
    "sympoly": ("expand_trace", "bilinear_decompose", "MultiPoly.substitute"),
    "separation": ("build_and_separate", "back_substitute",
                   "SeparationReport.to_dict"),
    "geom": ("hessian_rank_check", "conormal_dimension", "w_regularity_sample"),
    "cli": ("main",),
}

ROOT_SPAN = "workload"


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _cells(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()), [])
    return len(a) * len(a[0]) if len(a) else 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = [ROOT_SPAN]
        self.errors = [0]
        # Columns indexed by span id; arrays keep 300k spans at ~10 MB.
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.eval_keys = set()   # distinct (word, class, side) of eval_word
        self.instances = set()   # distinct (composition, y0) separated
        self.cells = 0           # sum of rows * cols over ratlin inputs

    def _hook(self, name):
        if name == "qcount.eval_word":
            return lambda args, kwargs: self.eval_keys.add(_key(args, kwargs))
        if name == "separation.build_and_separate":
            return lambda args, kwargs: self.instances.add(_key(args, kwargs))
        if name.startswith("ratlin."):
            def cells(args, kwargs):
                self.cells += _cells(args, kwargs)
            return cells
        return None

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        stack, errors = self.stack, self.errors
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        hook = self._hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap every target; return the names that do not exist."""
        absent = []
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"semican.{layer}")
            except ImportError:
                absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    absent.append(f"{layer}.{name}")
                    continue
                wrapped = self.wrap(f"{layer}.{name}", fn)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "semican" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
        return absent

    @contextlib.contextmanager
    def root(self):
        """The span every top-level call hangs from: one workload run."""
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_end.append(0)
        self.stack.append(0)
        self.span_start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_end[0] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path: str) -> None:
        counts = {"qcount.eval_word.distinct": len(self.eval_keys),
                  "separation.instances": len(self.instances),
                  "ratlin.cells": self.cells}
        data = {"run_id": self.run_id, "names": self.names,
                "errors": self.errors, "counts": counts,
                "name": self.span_name.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def self_times(path: str) -> dict:
    """Per span name: calls, summed self time in seconds, errors; plus counts."""
    with gzip.open(path, "rt") as fh:
        data = json.load(fh)
    dur = [e - s for s, e in zip(data["start_ns"], data["end_ns"])]
    covered = [0] * len(dur)
    for sid, parent in enumerate(data["parent"]):
        if parent >= 0:
            covered[parent] += dur[sid]
    names = data["names"]
    out = {n: {"calls": 0, "self_s": 0.0, "errors": e}
           for n, e in zip(names, data["errors"])}
    for sid, idx in enumerate(data["name"]):
        entry = out[names[idx]]
        entry["calls"] += 1
        entry["self_s"] += (dur[sid] - covered[sid]) / 1e9
    return {"run_id": data["run_id"], "spans": out, "counts": data["counts"]}
