"""Span tracing of the program's layers from the benchmark's side.

:class:`Tracer` replaces the public functions of each module where their
callers look them up (module attributes such as ``taxidest.nncore.matmul``
and ``taxidest.nncore.ops.matmul``, ``training.make_prefix_example``, class
attributes such as ``PrefixSampler.sample``) with wrappers that record a
span: name, start, end and parent.  Backward passes are attributed by
wrapping the function each op records on the tape.  Spans live in flat
in-memory arrays and are written out once, at the end of the run.

The top-level spans are the benchmark's stages; every span belongs to the
stage it ran in.  A span's self time is its duration minus its children's.
Spans nest (:meth:`Tracer.finish` counts any that close out of order), so
within a stage call the self times add up to the call's wall time, and a
stage's own self time is the time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

import checks
from taxidest import _kernels, clustering, data, models, nncore, training
from taxidest.nncore import Tape, ops

#: Cheap elementwise ops of the loss (and LSTM glue) share one span name.
ELEMENTWISE = ("add", "sub", "mul", "scale", "add_const", "affine_const", "cos", "sqrt", "mean_all")


def op_group(op: str) -> str:
    return "elementwise" if op in ELEMENTWISE else op


NNCORE_GROUPS = tuple(dict.fromkeys(op_group(op) for op in ops.__all__))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.owner = array("i")  # outermost composite op enclosing an op's tape node, or -1
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.misnested = 0  # spans closed while a span opened after them was still open
        self._ops: list[int] = []  # name ids of the open nncore op spans
        self.counters: dict[tuple[int, str], float] = {}  # (stage span, counter) -> value
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, nid: int, owner: int = -1) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.owner.append(owner)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        if self._stack.pop() != i:
            self.misnested += 1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(i)

    def count(self, counter: str, value: float) -> None:
        stage = self._stack[1] if len(self._stack) > 1 else -1
        key = (stage, counter)
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrapped(self, fn, name: str, after=None):
        nid, begin, finish = self.name_id(name), self.begin, self.finish

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _wrapped_op(self, fn, name: str):
        nid, begin, finish, op_stack = self.name_id(name), self.begin, self.finish, self._ops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            op_stack.append(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                op_stack.pop()
                finish(i)

        return traced

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` restores them."""
        w = self._wrapped
        parse_csv = data.parse_csv
        self._patch(data, "parse_csv", w(lambda stream: list(parse_csv(stream)), "data.parse_csv"))
        for fn in ("split_dataset", "fit_standardization", "build_vocab", "save_records", "load_records"):
            self._patch(data, fn, w(getattr(data, fn), f"data.{fn}"))
        mpe = w(data.make_prefix_example, "data.make_prefix_example")
        for module in (data, training, models):
            self._patch(module, "make_prefix_example", mpe)
        self._patch(data.PrefixSampler, "sample", w(data.PrefixSampler.sample, "data.PrefixSampler.sample"))

        self._patch(clustering, "mean_shift", w(clustering.mean_shift, "clustering.mean_shift",
                                                lambda a, cs: self.count("centers", cs.count)))
        self._patch(_kernels, "GridIndex", w(_kernels.GridIndex, "_kernels.GridIndex"))

        def seeds_done(args, out):
            self.count("seeds", len(args[1]))
            self.count("iterations", int(out[1].sum()))

        self._patch(_kernels, "iterate_seeds", w(_kernels.iterate_seeds, "_kernels.iterate_seeds", seeds_done))
        self._patch(_kernels, "scatter_add_rows", w(_kernels.scatter_add_rows, "_kernels.scatter_add_rows",
                                                    lambda a, out: self.count("scatter_rows", len(a[1]))))

        for fn in ("forward", "predict", "build_model", "save_model", "load_model"):
            self._patch(models, fn, w(getattr(models, fn), f"models.{fn}"))
        self._patch(models, "candidates_from_records", w(models.candidates_from_records, "models.candidates_from_records",
                                                         lambda a, out: self.count("candidate_rows", len(a[0]))))

        for fn in ("train", "evaluate", "write_submission", "equirectangular_loss"):
            self._patch(training, fn, w(getattr(training, fn), f"training.{fn}"))
        sampler = training._CandidateSampler
        self._patch(sampler, "sample", w(sampler.sample, "training.CandidateSampler.sample"))

        for op in ops.__all__:
            traced = self._wrapped_op(getattr(ops, op), f"nncore.{op_group(op)}")
            self._patch(ops, op, traced)
            self._patch(nncore, op, traced)
        self._patch(nncore, "sgd_momentum_step", w(nncore.sgd_momentum_step, "nncore.sgd_momentum_step"))
        self._patch(Tape, "backward", w(Tape.backward, "nncore.Tape.backward"))
        self._patch(Tape, "record", self._traced_record(Tape.record))

    def _traced_record(self, record):
        tracer, begin, finish, op_stack = self, self.begin, self.finish, self._ops
        bwd_ids = {}

        def traced_record(tape, output, backward_fn):
            tracer.count("tape_nodes", 1)
            tracer.count("tape_bytes", output.data.nbytes)
            op = op_stack[-1]
            bid = bwd_ids.get(op)
            if bid is None:
                bid = bwd_ids[op] = tracer.name_id(tracer.names[op] + ".bwd")
            owner = op_stack[0] if len(op_stack) > 1 else -1

            def traced_backward(g):
                i = begin(bid, owner)
                try:
                    backward_fn(g)
                finally:
                    finish(i)

            record(tape, output, traced_backward)

        return traced_record

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; ``stage`` is the index of each span's top-level span."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        stage = np.arange(len(parent))
        for i in np.flatnonzero(parent >= 0):  # parents precede their children
            stage[i] = stage[parent[i]]
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "owner": np.frombuffer(self.owner, dtype=np.int32),
            "start": start,
            "dur": dur,
            "self": dur - child,
            "stage": stage,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


# -- per-layer metrics --------------------------------------------------------
#
# Each metric is read in one stage: train-stage figures are per batch (the
# validations that training.train runs included), the others per stage call.
# Kinds: "s" inclusive span time, "self" span time minus its children's,
# "calls" span count, "bwd" backward time of the tape nodes an op recorded
# (for a composite op, those of the ops it called), "count:<c>" a counter.

def _layer_table() -> list[tuple[str, str, str, str, str]]:
    """(metric, unit, stage, span name, kind)"""
    t = []
    for fn in ("parse_csv", "split_dataset", "fit_standardization", "build_vocab", "save_records"):
        t.append((f"data.{fn}.s", "s", "prepare", f"data.{fn}", "s"))
    t += [
        ("clustering.mean_shift.s", "s", "cluster", "clustering.mean_shift", "s"),
        ("clustering.mean_shift.self_s", "s", "cluster", "clustering.mean_shift", "self"),
        ("kernels.GridIndex.s", "s", "cluster", "_kernels.GridIndex", "s"),
        ("kernels.iterate_seeds.s", "s", "cluster", "_kernels.iterate_seeds", "s"),
        ("kernels.iterate_seeds.seeds", "count", "cluster", "", "count:seeds"),
        ("kernels.iterate_seeds.iterations", "count", "cluster", "", "count:iterations"),
        ("clustering.centers_per_seed", "ratio", "cluster", "", "ratio:centers/seeds"),
        ("data.load_records.s", "s", "setup", "data.load_records", "s"),
        ("models.build_model.s", "s", "setup", "models.build_model", "s"),
        ("data.make_prefix_example.setup_s", "s", "setup", "data.make_prefix_example", "s"),
        ("data.make_prefix_example.s", "s/batch", "train", "data.make_prefix_example", "s"),
        ("data.make_prefix_example.calls", "count/batch", "train", "data.make_prefix_example", "calls"),
        ("data.PrefixSampler.sample.s", "s/batch", "train", "data.PrefixSampler.sample", "s"),
        ("kernels.scatter_add_rows.s", "s/batch", "train", "_kernels.scatter_add_rows", "s"),
        ("kernels.scatter_add_rows.rows", "count/batch", "train", "", "count:scatter_rows"),
        ("models.forward.s", "s/batch", "train", "models.forward", "s"),
        ("models.forward.self_s", "s/batch", "train", "models.forward", "self"),
        ("models.candidates_from_records.s", "s/batch", "train", "models.candidates_from_records", "s"),
        ("models.candidates_from_records.rows", "count/batch", "train", "", "count:candidate_rows"),
    ]
    for g in NNCORE_GROUPS:
        t += [
            (f"nncore.{g}.fwd_s", "s/batch", "train", f"nncore.{g}", "s"),
            (f"nncore.{g}.bwd_s", "s/batch", "train", f"nncore.{g}", "bwd"),
            (f"nncore.{g}.calls", "count/batch", "train", f"nncore.{g}", "calls"),
        ]
    t += [
        ("nncore.tape.nodes", "count/batch", "train", "", "count:tape_nodes"),
        ("nncore.tape.bytes", "bytes/batch", "train", "", "count:tape_bytes"),
        ("nncore.Tape.backward.s", "s/batch", "train", "nncore.Tape.backward", "s"),
        ("nncore.sgd_momentum_step.s", "s/batch", "train", "nncore.sgd_momentum_step", "s"),
        ("training.train.self_s", "s/batch", "train", "training.train", "self"),
        ("training.equirectangular_loss.s", "s/batch", "train", "training.equirectangular_loss", "s"),
        ("training.evaluate.val_s", "s/batch", "train", "training.evaluate", "s"),
        ("models.predict.s", "s", "predict", "models.predict", "s"),
        ("models.predict.calls", "count", "predict", "models.predict", "calls"),
        ("models.save_model.s", "s", "predict", "models.save_model", "s"),
        ("models.load_model.s", "s", "predict", "models.load_model", "s"),
        ("training.evaluate.s", "s", "predict", "training.evaluate", "s"),
        ("training.write_submission.s", "s", "predict", "training.write_submission", "s"),
        ("training.CandidateSampler.sample.s", "s", "predict", "training.CandidateSampler.sample", "s"),
    ]
    for stage in STAGES:
        unit = "s/batch" if stage == "train" else "s"
        t.append((f"stage.{stage}.s", unit, stage, f"stage.{stage}", "s"))
        t.append((f"stage.{stage}.self_s", unit, stage, f"stage.{stage}", "self"))
    return t


STAGES = ("prepare", "cluster", "setup", "train", "predict")
LAYER_METRICS = _layer_table()


def layer_metrics(tracer: Tracer, batches: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit)."""
    a = tracer.arrays()
    names = np.array(tracer.names + [""])
    span_name = names[a["name"]]
    stage_name = np.where(a["parent"] < 0, span_name, "")[a["stage"]]
    norm = {}
    for stage in STAGES:
        n = int((span_name == f"stage.{stage}").sum())
        norm[stage] = max(n, 1) * (batches if stage == "train" else 1)
    counters: dict[tuple[str, str], float] = {}
    for (stage_span, c), v in tracer.counters.items():
        key = (str(names[a["name"][stage_span]]) if stage_span >= 0 else "", c)
        counters[key] = counters.get(key, 0.0) + v
    owner_name = np.where(a["owner"] >= 0, names[a["owner"]], "")

    out = {}
    for metric, unit, stage, span, kind in LAYER_METRICS:
        in_stage = stage_name == f"stage.{stage}"
        sel = in_stage & (span_name == span)
        if kind == "s":
            v = a["dur"][sel].sum()
        elif kind == "self":
            v = a["self"][sel].sum()
        elif kind == "calls":
            v = float(sel.sum())
        elif kind == "bwd":
            v = a["dur"][in_stage & ((span_name == span + ".bwd") | (owner_name == span))].sum()
        elif kind.startswith("count:"):
            v = counters.get((f"stage.{stage}", kind[6:]), 0.0)
        else:  # ratio:<numerator>/<denominator>, both counters of the stage
            num, den = kind[6:].split("/")
            d = counters.get((f"stage.{stage}", den), 0.0)
            out[metric] = (counters.get((f"stage.{stage}", num), 0.0) / d if d else 0.0, unit)
            continue
        out[metric] = (float(v) / norm[stage], unit)
    return out


#: A stage call's time that no layer span covers may be at most this share of
#: the call, or UNCOVERED_FLOOR_S when that is more: the per-layer metrics
#: must account for most of each stage, and a short stage may spend a few
#: milliseconds on the benchmark's own glue.  Seen so far: at most 8 % or
#: 0.03 s.
UNCOVERED_SHARE = 0.25
UNCOVERED_FLOOR_S = 0.05


def check_coverage(tracer: Tracer) -> None:
    """Spans nest, and the layer spans cover each stage call but for its
    allowance; raises :class:`checks.CheckFailed` otherwise."""
    if tracer.misnested:
        raise checks.CheckFailed(f"{tracer.misnested} spans closed out of order")
    a = tracer.arrays()
    for s in np.flatnonzero(a["parent"] < 0):
        name, dur, uncovered = tracer.names[a["name"][s]], a["dur"][s], a["self"][s]
        if name.startswith("stage.") and uncovered > max(UNCOVERED_SHARE * dur, UNCOVERED_FLOOR_S):
            raise checks.CheckFailed(f"{name}: {uncovered:.3f} s of {dur:.3f} s covered by no layer span")
