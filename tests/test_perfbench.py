"""The benchmark's tracer wraps program attributes by name; they must exist
and keep splitting checkpoint, lab and eval runs into their layers."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest
from synthetic_episodes import expand_cell, write_episode_log


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

EVAL_SPANS = (
    "ood_eval.parse_episode_log",
    "ood_eval.aggregate",
    "ood_eval.partial_success_summary",
    "ood_eval.render_ood_table",
    "ood_eval.render_in_domain_table",
    "ood_eval.render_partial_success",
    "ood_eval.SuccessTable.to_dict",
)
LAB_SPANS = (
    "toy_lab.train",
    "toy_lab.train_frozen",
    "toy_lab.probe_linear",
    "schedule.plan_for_variant",
    "toy_lab.render_comparison",
)


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_attributes_exist(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing._PATCHES
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_eval_records_every_layer(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    records = expand_cell("OpenVLA", "pear", "single", episodes=5, lift_successes=2)
    records += expand_cell("ReVLA", "pear", "distractor", episodes=4, lift_successes=3)
    log = tmp_path / "episodes.jsonl"
    write_episode_log(records, log)
    tracer = tracing.Tracer()
    argv = ["eval", str(log), "--out", str(tmp_path / "report.json")]
    code, _ = tracing.run_cli_inprocess(argv, tmp_path / "stdout.txt", tracer)
    assert code == 0
    names = {span.name for span in tracer.spans}
    assert [name for name in EVAL_SPANS if name not in names] == []
    parse = [span for span in tracer.spans if span.name == "ood_eval.parse_episode_log"]
    assert [span.work for span in parse] == [len(records)]


def test_traced_checkpoint_ops_record_every_layer(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    inputs = importlib.import_module("inputs")
    oracles = importlib.import_module("oracles")
    pair = inputs.write_checkpoint_pair(tmp_path, 1, 64)
    merged, report = tmp_path / "merged.safetensors", tmp_path / "inspect.json"
    ops = {
        "merge": ["merge", str(pair.current), str(pair.pretrained), "--alpha", str(inputs.MERGE_ALPHA),
                  "--select", inputs.MERGE_SELECT, "--out", str(merged)],
        "inspect": ["inspect", str(pair.current), "--out", str(report)],
    }
    tracer = tracing.Tracer()
    for argv in ops.values():
        code, _ = tracing.run_cli_inprocess(argv, tmp_path / "stdout.txt", tracer)
        assert code == 0
    spans = {op: sorted(s.name for s in tracer.spans if s.parent is not None and s.op == index)
             for index, op in enumerate(ops)}
    assert spans == {
        "merge": ["merge.linear_merge", "tensor_store.load", "tensor_store.load", "tensor_store.save"],
        "inspect": ["tensor_store.load", "tensor_store.serialize"],
    }
    oracles.check_merge(merged, pair)
    oracles.check_inspect(report, pair)


def test_traced_inspect_counts_the_canonical_bytes_as_its_serialize_work(monkeypatch, tmp_path):
    # inspect streams the file to a digest writer, whose len() the tracer reads as the bytes serialized
    tracing = _tracing(monkeypatch)
    pair = importlib.import_module("inputs").write_checkpoint_pair(tmp_path, 1, 64)
    tracer = tracing.Tracer()
    argv = ["inspect", str(pair.current), "--out", str(tmp_path / "inspect.json")]
    assert tracing.run_cli_inprocess(argv, tmp_path / "stdout.txt", tracer)[0] == 0
    assert [s.work for s in tracer.spans if s.name == "tensor_store.serialize"] == [pair.file_bytes]


def test_traced_lab_records_every_layer(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    run = importlib.import_module("run")
    oracles = importlib.import_module("oracles")
    out = tmp_path / "lab"
    tracer = tracing.Tracer()
    argv = ["lab", "--variant", "all", "--seed", "7", *run._SMALL_LAB_FLAGS, "--out", str(out)]
    code, _ = tracing.run_cli_inprocess(argv, tmp_path / "stdout.txt", tracer)
    assert code == 0
    names = {span.name for span in tracer.spans}
    assert [name for name in LAB_SPANS if name not in names] == []
    # the shared and reversal phases are split at the first in-process apply_stage
    runs = [i for i, span in enumerate(tracer.spans) if span.name == "toy_lab.run_reversal_experiment"]
    assert len(runs) == 1
    assert any(span.name == "schedule.apply_stage" and span.parent == runs[0]
               for span in tracer.spans)
    oracles.check_lab(out)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_every_committed_bench_file_is_json(path):
    assert isinstance(json.loads(path.read_text(encoding="utf-8")), dict)
