"""Spans around calls into sbnn, recorded from outside the package.

`Tracer.install()` replaces each target below with a wrapper at the place
the program looks it up: a module attribute (e.g. `sbnn.engine.pack`,
`sbnn._kernels.and_popcount_matmat`) or a class attribute (e.g.
`BinStage.forward`). Only the traced run installs them; `uninstall()`
restores the originals.

A span has a name, start, end, parent span and group. A group is one
inference batch, one training step or one set-up/model-I/O call; spans of
the same group share its id. Spans stay in memory until `to_json()`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

import numpy as np


def _matmat_work(args, out):
    a, b = args
    return {
        "word_pairs": a.shape[0] * b.shape[0] * a.shape[1],
        "bytes": a.nbytes + b.nbytes + out.nbytes,
    }


def _pack_work(args, out):
    return {"bytes": int(np.asarray(args[0]).size)}


# (module, attribute path, group kind the call opens or None, work counter).
# A span is named after where it was looked up, e.g. "engine.pack" for
# sbnn.engine.pack, which is sbnn.bitpack.pack imported into the engine.
TARGETS = [
    ("sbnn.engine", "infer", None, None),
    ("sbnn.engine", "reference_forward", None, None),
    ("sbnn.engine", "pack", None, _pack_work),
    ("sbnn.engine", "affine_remap", None, None),
    ("sbnn.engine", "classify_kernels", None, None),
    ("sbnn.engine", "BinStage._prepare", None, None),
    ("sbnn.engine", "BinStage.window_bits", None, None),
    ("sbnn.engine", "BinStage.forward", None, None),
    ("sbnn.engine", "FusedThreshold.decide", None, None),
    ("sbnn.engine", "FusedThreshold.from_batchnorm", None, None),
    ("sbnn.engine", "FloatStage.forward", None, None),
    ("sbnn.engine", "BitPool.forward", None, None),
    ("sbnn.engine", "Head.forward", None, None),
    ("sbnn._kernels", "and_popcount_matmat", None, _matmat_work),
    ("sbnn._kernels", "popcount_rows", None, None),
    ("sbnn.modelio", "encode", None, None),
    ("sbnn.modelio", "decode", None, None),
    ("sbnn.modelio", "save_model", None, None),
    ("sbnn.modelio", "load_model", None, None),
    ("sbnn.nn", "fit_omega", None, None),
    ("sbnn.nn", "Network.forward", None, None),
    ("sbnn.nn", "Network.backward", None, None),
    ("sbnn.nn", "Conv3x3.forward", None, None),
    ("sbnn.nn", "Conv3x3.backward", None, None),
    ("sbnn.nn", "BatchNorm.forward", None, None),
    ("sbnn.nn", "BatchNorm.backward", None, None),
    ("sbnn.train", "train", None, None),
    ("sbnn.train", "sbnn_step", "step", None),
    ("sbnn.train", "evaluate", "evaluate", None),
    ("sbnn.train", "Adam.step", None, None),
    ("sbnn.train", "quantize_network", None, None),
    ("sbnn.train", "fit_omega", None, None),
    ("sbnn.train", "penalty_j", None, None),
    ("sbnn.train", "lambda_update", None, None),
    ("sbnn.dataio", "synthetic_classification", None, None),
    ("sbnn.metrics", "build_ops_report", None, None),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, group, work dict]
        self.spans = []
        self.groups = []  # [kind, images]
        self._stack = []
        self._installed = []
        self.group("setup")

    def group(self, kind, images=0):
        """Start a new group; spans started from now on belong to it."""
        self.groups.append([kind, images])
        self._group = len(self.groups) - 1

    def _wrap(self, fn, name, opens, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens:
                tracer.group(opens)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._group, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, out)
            return out

        return wrapper

    def install(self):
        for module, path, opens, work in TARGETS:
            owner, attr, raw = _resolve(module, path)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            name = f"{module.removeprefix('sbnn.')}.{path}"
            wrapped = self._wrap(fn, name, opens, work)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its child spans."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            end = -np.inf
            for c in sorted(children[i], key=lambda c: self.spans[c][1]):
                lo, hi = max(self.spans[c][1], end), self.spans[c][2]
                if hi > lo:
                    covered += hi - lo
                end = max(end, hi)
            out.append(s[2] - s[1] - covered)
        return out

    def to_json(self):
        selfs = self.self_times()
        return {
            "groups": self.groups,
            "spans": [
                {
                    "name": s[0],
                    "start": s[1],
                    "end": s[2],
                    "parent": s[3],
                    "group": s[4],
                    "self": t,
                    **({"work": s[5]} if s[5] else {}),
                }
                for s, t in zip(self.spans, selfs)
            ],
        }


class SpanTable:
    """Sums over the recorded spans, selected by span name and group kind."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.selfs = tracer.self_times()

    def _rows(self, names, kinds, parent=None):
        spans, groups = self.t.spans, self.t.groups
        for i, s in enumerate(spans):
            if s[0] in names and groups[s[4]][0] in kinds:
                if parent is None or (s[3] >= 0 and spans[s[3]][0] == parent):
                    yield i, s

    def self_s(self, names, kinds, parent=None):
        return sum(self.selfs[i] for i, _ in self._rows(names, kinds, parent))

    def total_s(self, names, kinds):
        return sum(s[2] - s[1] for _, s in self._rows(names, kinds))

    def calls(self, names, kinds):
        return sum(1 for _ in self._rows(names, kinds))

    def work(self, names, kinds, key):
        return sum((s[5] or {}).get(key, 0) for _, s in self._rows(names, kinds))

    def groups(self, kinds):
        return [g for g in self.t.groups if g[0] in kinds]

    def images(self, kinds):
        return sum(g[1] for g in self.groups(kinds))

    def per_group_median(self, names, kinds, inclusive=False):
        """Median over groups of `kinds` of the summed span time in each."""
        sums = {}
        for i, s in self._rows(names, kinds):
            t = s[2] - s[1] if inclusive else self.selfs[i]
            sums[s[4]] = sums.get(s[4], 0.0) + t
        return statistics.median(sums.values()) if sums else 0.0
