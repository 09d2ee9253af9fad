"""In-process runs of the CLI with spans around the calls into each layer.

``run_cli_inprocess`` calls ``revla.cli.main`` exactly as the command line
does. Under a ``Tracer`` the layer functions that the CLI (and the lab's
experiment module) call are temporarily replaced by wrappers that record a
span per call; nothing inside the program is edited, and the artifacts are
written by the CLI's own code, so they must match an untraced run byte for
byte. Spans stay in memory until ``Tracer.dump`` writes them out.

With ``alloc=True`` the tracer also records the tracemalloc peak of every
top-level layer call. That pass is separate because tracemalloc slows
allocation-heavy code and would distort the timings.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import revla.cli as cli
import revla.ood_eval as ood_eval
import revla.toy_lab.experiment as experiment
from revla.tensor_store import select

MIB = float(1 << 20)


def _frozen(args, kwargs) -> bool:
    return (args[4] if len(args) > 4 else kwargs.get("freeze")) is not None


def _selected_bytes(args, kwargs, result) -> int:
    current, spec = args[0], args[2]
    return sum(current[name].nbytes for name in select(current, spec.selector))


# (owner, attribute, span name, work done by one call). A span name is a
# string, or a function of the call's arguments. The ``cli`` entries wrap
# the names the CLI module imported, so only calls made by the CLI are
# traced; the ``experiment`` entries do the same inside the lab's experiment.
_PATCHES = (
    (cli, "load_checkpoint", "tensor_store.load", lambda a, k, r: os.path.getsize(a[0])),
    (cli, "save_checkpoint", "tensor_store.save", lambda a, k, r: os.path.getsize(a[1])),
    (cli, "serialize_checkpoint", "tensor_store.serialize", lambda a, k, r: len(r)),
    (cli, "linear_merge", "merge.linear_merge", _selected_bytes),
    (cli, "plan_for_variant", "schedule.plan_for_variant", None),
    (cli, "run_reversal_experiment", "toy_lab.run_reversal_experiment", None),
    (cli, "render_comparison", "toy_lab.render_comparison", None),
    (experiment, "train",
     lambda a, k: "toy_lab.train_frozen" if _frozen(a, k) else "toy_lab.train",
     lambda a, k, r: a[2]),
    (experiment, "probe_linear", "toy_lab.probe_linear", None),
    (experiment, "apply_stage", "schedule.apply_stage", None),
    (cli, "parse_episode_log", "ood_eval.parse_episode_log", lambda a, k, r: len(r)),
    (cli, "aggregate", "ood_eval.aggregate", None),
    (cli, "partial_success_summary", "ood_eval.partial_success_summary", None),
    (cli, "render_ood_table", "ood_eval.render_ood_table", None),
    (cli, "render_in_domain_table", "ood_eval.render_in_domain_table", None),
    (cli, "render_partial_success", "ood_eval.render_partial_success", None),
    (ood_eval.SuccessTable, "to_dict", "ood_eval.SuccessTable.to_dict", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    work: float | None = None
    alloc_peak: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans while installed; ``alloc`` adds tracemalloc peaks."""

    alloc: bool = False
    spans: list[Span] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, **op_fields):
        """A span; with ``op_fields`` it opens an operation that owns its descendants."""
        parent = self._stack[-1] if self._stack else None
        if op_fields:
            op = len(self.ops)
            self.ops.append({"id": op, "span": len(self.spans), **op_fields})
        else:
            op = self.spans[parent].op if parent is not None else None
        record = Span(name, 0.0, parent=parent, op=op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        measure_alloc = self.alloc and parent is not None and self.spans[parent].parent is None
        if measure_alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if measure_alloc:
                record.alloc_peak = tracemalloc.get_traced_memory()[1] - base
            self._stack.pop()

    def _wrap(self, func, name, work):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = func(*args, **kwargs)
            if work is not None:
                record.work = work(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions with span-recording wrappers, then restore them."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _PATCHES]
        if self.alloc:
            tracemalloc.start()
        try:
            for owner, attr, name, work in _PATCHES:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, work))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            if self.alloc:
                tracemalloc.stop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "self_s": own,
             "parent": s.parent, "op": s.op, "work": s.work, "alloc_peak": s.alloc_peak}
            for s, own in zip(self.spans, self.self_times())
        ]
        path.write_text(json.dumps({"ops": self.ops, "spans": rows}) + "\n", encoding="utf-8")


def run_cli_inprocess(argv: list[str], stdout_path: Path, tracer: Tracer | None = None,
                      **op_fields) -> tuple[int, float]:
    """``revla.cli.main(argv)`` with stdout sent to a file; returns (exit code, wall s)."""
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start
        with tracer.installed(), tracer.span("cli." + argv[0], argv=argv, **op_fields) as record:
            code = cli.main(argv)
        return code, record.duration


def _rate(spans: list[Span], scale: float = 1.0) -> float:
    """Work per second over all spans, work divided by ``scale``."""
    return sum(s.work for s in spans) / scale / sum(s.duration for s in spans)


def layer_metrics(tracer: Tracer, alloc: Tracer) -> dict[str, float]:
    """Per-layer figures from a timing trace and a separate allocation trace."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    eval_ops = [op["span"] for op in tracer.ops if op["argv"][0] == "eval"]

    def op_sum(op_span: int, names: tuple[str, ...]) -> float:
        return sum(c.duration for c in children.get(op_span, ()) if c.name in names)

    phases = []
    for index, s in enumerate(tracer.spans):
        if s.name == "toy_lab.run_reversal_experiment":
            split = min(c.start for c in children[index] if c.name == "schedule.apply_stage")
            phases.append((split - s.start, s.end - split))

    def alloc_ratio(name: str) -> float:
        spans = [s for s in alloc.spans if s.name == name]
        return max(s.alloc_peak / s.work for s in spans)

    # A merge's peak is taken per byte of one input; both inputs have the same size.
    input_bytes = {s.op: s.work for s in alloc.spans if s.name == "tensor_store.load"}
    merges = [s for s in alloc.spans if s.name == "merge.linear_merge"]
    median = statistics.median
    return {
        "tensor_store.load_mb_per_s": _rate(by_name["tensor_store.load"], MIB),
        "tensor_store.load_alloc_per_byte": alloc_ratio("tensor_store.load"),
        "tensor_store.save_mb_per_s": _rate(by_name["tensor_store.save"], MIB),
        "tensor_store.serialize_mb_per_s": _rate(by_name["tensor_store.serialize"], MIB),
        "merge.blend_mb_per_s": _rate(by_name["merge.linear_merge"], MIB),
        "merge.alloc_per_byte": max(m.alloc_peak / input_bytes[m.op] for m in merges),
        "schedule.apply_stage_us": 1e6 * median(s.duration for s in by_name["schedule.apply_stage"]),
        "toy_lab.train_steps_per_s": _rate(by_name["toy_lab.train"]),
        "toy_lab.frozen_train_steps_per_s": _rate(by_name["toy_lab.train_frozen"]),
        "toy_lab.probe_ms": 1e3 * median(s.duration for s in by_name["toy_lab.probe_linear"]),
        "toy_lab.shared_phase_s": median(p[0] for p in phases),
        "toy_lab.reversal_phase_s": median(p[1] for p in phases),
        "ood_eval.parse_episodes_per_s": _rate(by_name["ood_eval.parse_episode_log"]),
        "ood_eval.aggregate_ms": 1e3 * median(s.duration for s in by_name["ood_eval.aggregate"]),
        "ood_eval.partial_ms": 1e3 * median(
            s.duration for s in by_name["ood_eval.partial_success_summary"]),
        "ood_eval.render_ms": 1e3 * median(op_sum(op, (
            "ood_eval.render_ood_table", "ood_eval.render_in_domain_table",
            "ood_eval.render_partial_success", "ood_eval.SuccessTable.to_dict",
        )) for op in eval_ops),
        "ood_eval.parse_alloc_per_episode": alloc_ratio("ood_eval.parse_episode_log"),
    }


def direct_layer_time(tracer: Tracer, op_span: int) -> float:
    """Seconds an operation spent inside the layer calls the CLI made directly."""
    return sum(s.duration for s in tracer.spans if s.parent == op_span)
