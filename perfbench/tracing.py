"""Span tracing from outside the program.

``install`` rebinds the public functions of the latentrul modules to wrappers
that record one span each (name, start, end, parent span) in memory; nothing
inside ``src/`` changes. Autodiff primitives also wrap the ``_backward``
closure of the tensor they return, so backward time is attributed to the op
that built the node. ``report.per_layer`` turns the spans and counts into
the benchmark's per-layer figures.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# Primitives of latentrul.autodiff; nn, model and vq import some by name, so
# those module attributes are rebound too.
AUTODIFF_OPS = (
    "add", "sub", "mul", "neg", "square", "matmul", "transpose_last2", "reshape",
    "concat", "gather_rows", "relu", "softmax", "normalize_last_axis", "tsum",
    "tmean", "straight_through",
)


class Tracer:
    """Spans and counts of one traced pipeline run, kept in memory.

    Spans are stored column-wise (one list per field) so that tracing adds
    almost no objects for the garbage collector to traverse; a list per span
    made every collection in the kNN-heavy predict stage slower.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = defaultdict(int)
        self._open = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result, args)`` may count."""
        return functools.wraps(fn)(self._timed(name, fn, after))

    def _timed(self, name, fn, after=None):
        # Without functools.wraps: this also wraps every backward closure, and
        # copying their metadata would charge microseconds per graph node to
        # the calling span's self time.
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        open_, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside one span named ``name``."""
        return self._timed(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, name, after=None):
        self._patch(module, attr, self.wrap(name, getattr(module, attr), after))

    def _patch_classmethod(self, cls, attr, name, after=None):
        self._patch(cls, attr, staticmethod(self.wrap(name, getattr(cls, attr), after)))

    def install(self):
        """Wrap every traced boundary of latentrul; ``uninstall`` restores them."""
        from latentrul import autodiff, ingest, metrics, model, nn, priors, similarity, vq

        count = self.counts

        def op(name, fn):
            fwd = self.wrap(f"autodiff.{name}.fwd", fn)
            bwd_name = f"autodiff.{name}.bwd"

            def traced_op(*args, **kwargs):
                out = fwd(*args, **kwargs)
                if out._backward is not None:
                    out._backward = self._timed(bwd_name, out._backward)
                return out

            return functools.wraps(fn)(traced_op)

        for name in AUTODIFF_OPS:
            original = getattr(autodiff, name)
            traced = op(name, original)
            for module in (autodiff, nn, model, vq):
                if module.__dict__.get(name) is original:
                    self._patch(module, name, traced)
        self._patch(autodiff.Tensor, "backward",
                    self.wrap("autodiff.Tensor.backward", autodiff.Tensor.backward))
        self._patch(autodiff.Adam, "step", self.wrap("autodiff.Adam.step", autodiff.Adam.step))

        def records(result, args):
            count["ingest.records"] += sum(len(s.records) for s in result)

        def windows(result, args):
            count["ingest.windows"] += sum(len(u.windows) for u in result.units)

        def written(result, args):
            count["ingest.bytes_written"] += Path(args[1]).stat().st_size

        def loaded(result, args):
            count["ingest.load_calls"] += 1

        self._patch_function(ingest, "parse_cmapss", "ingest.parse_cmapss", records)
        self._patch_function(ingest, "build_dataset", "ingest.build_dataset", windows)
        self._patch_function(ingest, "save_dataset", "ingest.save_dataset", written)
        self._patch_function(ingest, "load_dataset", "ingest.load_dataset", loaded)

        for name in ("multi_head_attention", "layer_norm", "feed_forward"):
            self._patch_function(nn, name, f"nn.{name}")
        self._patch_function(vq, "nearest_indices", "vq.nearest_indices")

        def encoded(result, args):
            count["model.encode_windows"] += len(args[1])

        for name in ("train", "forward_loss", "encoder_forward", "decoder_forward"):
            self._patch_function(model, name, f"model.{name}")
        self._patch(model.TrainedModel, "encode_batch",
                    self.wrap("model.encode_batch", model.TrainedModel.encode_batch, encoded))
        self._patch(model.TrainedModel, "save",
                    self.wrap("model.save", model.TrainedModel.save))
        self._patch_classmethod(model.TrainedModel, "load", "model.load")

        def solved(result, args):
            count["priors.power_iterations"] += result.iterations

        self._patch_function(priors, "estimate_transition", "priors.estimate_transition")
        self._patch_function(priors, "steady_state", "priors.steady_state", solved)
        # Called only when the power-iteration budget ran out: one span per fallback.
        self._patch_function(priors, "_solve_stationary", "priors.solve_stationary")
        self._patch_function(priors, "fold_priors", "priors.fold_priors")
        self._patch_function(priors, "priors_for_system", "priors.priors_for_system")

        def entries(result, args):
            count["similarity.library_entries"] = max(
                count["similarity.library_entries"], len(args[1]))

        self._patch_function(similarity, "nearest", "similarity.nearest", entries)
        self._patch(similarity.PriorLibrary, "add",
                    self.wrap("similarity.PriorLibrary.add", similarity.PriorLibrary.add))
        self._patch(similarity.PriorLibrary, "save",
                    self.wrap("similarity.PriorLibrary.save", similarity.PriorLibrary.save))
        self._patch_classmethod(similarity.PriorLibrary, "load", "similarity.PriorLibrary.load")

        self._patch_classmethod(metrics.EvaluationReport, "build", "metrics.EvaluationReport.build")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        """Write the spans (column-wise) and counts as one JSON document."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "run_id": self.run_id,
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path):
    """(run_id, spans, counts) from a file written by ``Tracer.dump``; each
    span is [name, start, end, parent index or -1]."""
    with open(path) as fh:
        doc = json.load(fh)
    table = doc["names"]
    spans = [[table[i], s, e, p]
             for i, s, e, p in zip(doc["name"], doc["start"], doc["end"], doc["parent"])]
    return doc["run_id"], spans, doc["counts"]


def self_times(spans) -> list:
    """Duration of each span minus the part of it covered by its children.

    Parents precede their children in ``spans``; children of one parent do not
    overlap (single thread), but their union is still taken so that bad
    input cannot give a negative self time.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
