"""The benchmark's tracer wraps program attributes by name; they must exist
and keep splitting checkpoint and eval runs into their layers."""

from __future__ import annotations

import importlib
from pathlib import Path

from revla.ood_eval import expand_cell, write_episode_log

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EVAL_SPANS = (
    "ood_eval.parse_episode_log",
    "ood_eval.aggregate",
    "ood_eval.partial_success_summary",
    "ood_eval.render_ood_table",
    "ood_eval.render_in_domain_table",
    "ood_eval.render_partial_success",
    "ood_eval.SuccessTable.to_dict",
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
