"""Spans around every public function and class of the layer modules.

A Tracer replaces, for as long as it is installed, each public function of
each layer module, and the public methods, ``__init__`` and ``__call__`` of
each public class, with a wrapper that records one span per call: its name,
its layer, its start and end (``time.perf_counter``) and the id of the span
that was open when it began.  Other modules of the package that imported one
of those functions by name are rebound too.  Spans stay in flat arrays in
memory; ``write_spans`` dumps them once a run has ended.

A layer's self time is the duration of its spans minus the time their direct
child spans cover (calls run on one thread, so children nest inside their
parent and do not overlap).
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "newtonbench"
LAYERS = (
    "linalg",
    "net",
    "diffsort",
    "smoothing",
    "shortest_path",
    "newton",
    "bench.datagen",
    "bench.trainers",
    "bench.report",
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    layers = LAYERS

    def __init__(self):
        self.names = []        # span-name table
        self.name_layer = []   # layer index of each name
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []     # (owner, attribute, original value)

    # ------------------------------------------------------------ recording

    def _name_index(self, name, layer):
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        idx = self._name_index(name, layer)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer):
        prefix = f"{layer}.{cls.__name__}"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue  # properties and plain data
            self._patch(cls, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}  # original function -> its wrapper
        for layer in self.layers:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---------------------------------------------------------- analysis

    def arrays(self):
        """(name index, parent id, start, end) as numpy arrays."""
        return (
            np.array(self.name_of, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def under(parent, marked):
    """Mask of spans that are marked or have a marked ancestor."""
    parent = np.asarray(parent, dtype=np.int64)
    mask = np.asarray(marked, dtype=bool).copy()
    has_parent = parent >= 0
    while True:
        grown = mask | (has_parent & mask[np.where(has_parent, parent, 0)])
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def write_spans(path, segments):
    """Write spans as gzip TSV: segment, id, parent, name, layer, start, end.

    segments is a list of (label, Tracer); ids restart in each segment.
    """
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("segment\tid\tparent\tname\tlayer\tstart\tend\n")
        for label, tr in segments:
            labels = [f"{n}\t{tr.layers[tr.name_layer[i]]}" for i, n in enumerate(tr.names)]
            for sid, (idx, par, t0, t1) in enumerate(
                zip(tr.name_of, tr.parent, tr.start, tr.end)
            ):
                fh.write(f"{label}\t{sid}\t{par}\t{labels[idx]}\t{t0:.9f}\t{t1:.9f}\n")
