"""Command-line surface: artifacts, exit codes, diagnostics."""

from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from synthetic_episodes import expand_cell, to_json_obj, write_episode_log
from test_ood_eval import _change_after_cutting

import revla
import revla.ood_eval as ood_eval
import revla.toy_lab.experiment as experiment
from revla import cli
from revla.cli import main
from revla.tensor_store import Checkpoint, load_checkpoint, save_checkpoint, serialize_checkpoint
from revla.toy_lab.training import TrainingDiverged

OPENVLA_CELLS = {
    ("pear", "single"): 7,
    ("mustard_bottle", "single"): 3,
    ("tomato_can", "single"): 14,
    ("pear", "distractor"): 2,
    ("mustard_bottle", "distractor"): 1,
    ("tomato_can", "distractor"): 8,
}


@pytest.fixture
def checkpoint_pair(tmp_path):
    rng = np.random.default_rng(31)
    names = ["vision.dino.w", "vision.siglip.w", "llm.w"]
    current = Checkpoint({n: rng.standard_normal(6) for n in names})
    pretrained = Checkpoint({n: rng.standard_normal(6) for n in names})
    cur_path, pre_path = tmp_path / "current.st", tmp_path / "pretrained.st"
    save_checkpoint(current, cur_path)
    save_checkpoint(pretrained, pre_path)
    return current, pretrained, cur_path, pre_path


def test_inspect_is_deterministic(checkpoint_pair, tmp_path, capsys):
    _, _, cur_path, _ = checkpoint_pair
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["inspect", str(cur_path), "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["inspect", str(cur_path), "--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["tensor_count"] == 3
    assert len(payload["tensors"]) == 3


def test_inspect_corrupted_header_fails_with_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.st"
    bad.write_bytes(b"\xff\xff\xff\xff\xff\xff\xff\xff{}")
    code = main(["inspect", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "malformed header length" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [[1] * 70, [0, 10**30], [0, 2**62]],
                         ids=["too-many-dims", "dim-past-intp", "size-past-intp"])
def test_inspect_of_a_shape_numpy_cannot_build_names_the_tensor(tmp_path, capsys, shape):
    nbytes = 8 if all(shape) else 0
    header = json.dumps({"a": {"dtype": "F64", "shape": shape, "data_offsets": [0, nbytes]}}).encode()
    bad = tmp_path / "bad.st"
    bad.write_bytes(struct.pack("<Q", len(header)) + header + bytes(nbytes))
    out = tmp_path / "o.json"
    assert main(["inspect", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: tensor 'a': invalid shape {shape}\n"
    assert not out.exists()


def test_inspect_of_33_to_64_dims_is_refused_only_before_numpy_2(tmp_path, capsys):
    shape = [1] * 40
    header = json.dumps({"a": {"dtype": "F64", "shape": shape, "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "deep.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + struct.pack("<d", 2.5))
    out = tmp_path / "o.json"
    code = main(["inspect", str(path), "--out", str(out)])
    if int(np.__version__.split(".")[0]) >= 2:
        assert np.ndarray(shape, "<f8", bytes(8)).ndim == 40
        assert code == 0
        assert json.loads(out.read_text())["tensors"][0]["shape"] == shape
        assert load_checkpoint(path)["a"].item() == 2.5
    else:
        assert code == 1
        assert capsys.readouterr().err == f"error: tensor 'a': invalid shape {shape}\n"


def test_the_index_limit_is_numpys_intp():
    # the loader bounds a tensor's size by sys.maxsize, without importing numpy
    assert sys.maxsize == np.iinfo(np.intp).max


def test_inspect_of_a_non_canonical_file_reports_the_canonical_digest(checkpoint_pair, tmp_path):
    current, _, cur_path, _ = checkpoint_pair
    canonical = cur_path.read_bytes()
    (header_len,) = struct.unpack("<Q", canonical[:8])
    header = json.loads(canonical[8:8 + header_len])
    spaced = json.dumps(header, indent=1).encode()
    spaced += b" " * (-len(spaced) % 8)
    odd = tmp_path / "spaced.st"
    odd.write_bytes(struct.pack("<Q", len(spaced)) + spaced + canonical[8 + header_len:])
    assert load_checkpoint(odd) == current
    out_odd, out_canonical = tmp_path / "odd.json", tmp_path / "canonical.json"
    assert main(["inspect", str(odd), "--out", str(out_odd)]) == 0
    assert main(["inspect", str(cur_path), "--out", str(out_canonical)]) == 0
    odd_report, canonical_report = json.loads(out_odd.read_text()), json.loads(out_canonical.read_text())
    assert odd_report["canonical_sha256"] == hashlib.sha256(canonical).hexdigest()
    assert odd_report["canonical_sha256"] != hashlib.sha256(odd.read_bytes()).hexdigest()
    assert odd_report["tensors"] == canonical_report["tensors"]


def test_inspect_hashing_error_exits_1_with_one_line(checkpoint_pair, tmp_path, monkeypatch, capsys):
    _, _, cur_path, _ = checkpoint_pair
    sha256 = hashlib.sha256

    def failing_off_the_main_thread(data=b""):
        if threading.current_thread() is not threading.main_thread():
            raise OSError("hashing failed")
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", failing_off_the_main_thread)
    out = tmp_path / "inspect.json"
    assert main(["inspect", str(cur_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: hashing failed\n"
    assert not out.exists()


@pytest.mark.parametrize("change", ["rewritten", "truncated"])
def test_inspect_of_a_file_changed_after_loading_fails_with_one_line(checkpoint_pair, tmp_path, monkeypatch,
                                                                     capsys, change):
    _, _, cur_path, _ = checkpoint_pair
    out = tmp_path / "inspect.json"
    out.write_bytes(b"earlier report")
    load = cli.load_checkpoint

    def load_then_change(path):
        ckpt, raw, stat = load(path), cur_path.read_bytes(), cur_path.stat()
        if change == "rewritten":  # same size, one bit flipped, a later modification time
            cur_path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
            os.utime(cur_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        else:
            os.truncate(cur_path, len(raw) - 4)
        return ckpt

    monkeypatch.setattr(cli, "load_checkpoint", load_then_change)
    assert main(["inspect", str(cur_path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {cur_path} changed since it was loaded\n")
    assert out.read_bytes() == b"earlier report"


def test_merge_alpha_one_select_all_equals_pretrained(checkpoint_pair, tmp_path):
    _, pretrained, cur_path, pre_path = checkpoint_pair
    out = tmp_path / "merged.st"
    code = main([
        "merge", str(cur_path), str(pre_path), "--alpha", "1", "--select", "*",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == serialize_checkpoint(pretrained)


def test_merge_alpha_one_select_all_covers_a_name_with_a_newline(tmp_path, capsys):
    rng = np.random.default_rng(32)
    names = ["enc\nw", "head.w"]
    current, pretrained = (Checkpoint({n: rng.standard_normal(4) for n in names}) for _ in range(2))
    cur_path, pre_path, out = tmp_path / "current.st", tmp_path / "pretrained.st", tmp_path / "merged.st"
    save_checkpoint(current, cur_path)
    save_checkpoint(pretrained, pre_path)
    code = main([
        "merge", str(cur_path), str(pre_path), "--alpha", "1", "--select", "*",
        "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}: 2 tensors merged at alpha=1.0\n"
    assert out.read_bytes() == serialize_checkpoint(pretrained)


def test_merge_alpha_zero_equals_current(checkpoint_pair, tmp_path):
    current, _, cur_path, pre_path = checkpoint_pair
    out = tmp_path / "merged.st"
    assert main(["merge", str(cur_path), str(pre_path), "--alpha", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == serialize_checkpoint(current)


def test_merge_midpoint_matches_scalar_oracle_file(checkpoint_pair, tmp_path):
    current, pretrained, cur_path, pre_path = checkpoint_pair
    expected = {}
    for name in current.names():
        cur, pre = current[name], pretrained[name]
        blended = np.empty_like(cur)
        for i in range(cur.size):
            blended[i] = (1.0 - 0.5) * float(cur[i]) + 0.5 * float(pre[i])
        expected[name] = blended
    oracle_path = tmp_path / "oracle.st"
    save_checkpoint(Checkpoint(expected), oracle_path)

    out = tmp_path / "merged.st"
    assert main(["merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_path.read_bytes()


def test_merge_selection_matching_nothing_fails(checkpoint_pair, tmp_path, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    out = tmp_path / "merged.st"
    code = main([
        "merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--select", "vision.clip.*",
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --select matched no tensors; top-level prefixes: ['llm', 'vision']\n"
    assert not out.exists()


def test_merge_selection_matching_nothing_fails_before_reading_pretrained(checkpoint_pair, tmp_path, capsys):
    _, _, cur_path, _ = checkpoint_pair
    out = tmp_path / "merged.st"
    code = main([
        "merge", str(cur_path), str(tmp_path / "missing.st"), "--alpha", "0.5",
        "--select", "vision.clip.*", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --select matched no tensors; top-level prefixes: ['llm', 'vision']\n"
    assert not out.exists()


def test_merge_into_missing_directory_names_the_target(checkpoint_pair, tmp_path, monkeypatch, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    monkeypatch.chdir(tmp_path)
    code = main(["merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--out", "missing/o.st"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: 'missing/o.st'\n"
    assert not (tmp_path / "missing").exists()


def test_merge_to_a_name_too_long_fails_before_writing(checkpoint_pair, tmp_path, monkeypatch, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    name = "m" * 256
    code = main(["merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--out", name])
    assert code == 1
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert capsys.readouterr().err == f"error: {too_long}: '{name}'\n"
    assert sorted(tmp_path.iterdir()) == before


def test_merge_to_a_directory_fails_before_writing(checkpoint_pair, tmp_path, monkeypatch, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept").write_bytes(b"kept")
    before = sorted(tmp_path.iterdir())
    code = main(["merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--out", "out"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'out'\n"
    assert ".tmp" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert [(p.name, p.read_bytes()) for p in (tmp_path / "out").iterdir()] == [("kept", b"kept")]


def test_merge_incompatible_prints_full_report(tmp_path, capsys):
    a, b = tmp_path / "a.st", tmp_path / "b.st"
    save_checkpoint(Checkpoint({"w": np.zeros(3)}), a)
    save_checkpoint(Checkpoint({"w": np.zeros(4)}), b)
    code = main(["merge", str(a), str(b), "--alpha", "0.5", "--out", str(tmp_path / "o.st")])
    assert code == 1
    err = capsys.readouterr().err
    assert "shape mismatch" in err and "w" in err


def test_merge_alpha_out_of_range_fails(checkpoint_pair, tmp_path, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    code = main(["merge", str(cur_path), str(pre_path), "--alpha", "1.5", "--out", str(tmp_path / "o.st")])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_schedule_paper_scale_table(tmp_path, capsys):
    out = tmp_path / "schedule.json"
    code = main([
        "schedule", "--mode", "gradual", "--total-steps", "100000",
        "--stage-length", "10000", "--select", "vision.dino.*", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stage_count"] == 10
    assert len(payload["boundaries"]) == 10
    assert payload["boundaries"][-1] == [90000, 1.0]
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 11  # header + 10 boundary rows
    assert "90000" in lines[-1]


def test_schedule_flip_single_row(tmp_path):
    out = tmp_path / "schedule.json"
    assert main(["schedule", "--mode", "flip", "--total-steps", "100000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["boundaries"] == [[0, 1.0]]


def test_schedule_indivisible_fails(tmp_path, capsys):
    code = main([
        "schedule", "--mode", "gradual", "--total-steps", "100000",
        "--stage-length", "30000", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1
    assert "stage length must divide total steps" in capsys.readouterr().err


def test_schedule_from_config_file(tmp_path):
    config = tmp_path / "sched.json"
    config.write_text(json.dumps({
        "mode": "gradual", "total_steps": 60, "stage_length": 20,
        "selector": ["vision.dino.*"],
    }))
    out = tmp_path / "out.json"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["stage_count"] == 3
    assert payload["selector"] == ["vision.dino.*"]


def test_schedule_flags_override_config_file(tmp_path):
    config = tmp_path / "sched.json"
    config.write_text(json.dumps({
        "mode": "flip", "total_steps": 60, "selector": ["vision.dino.*"],
    }))
    out = tmp_path / "out.json"
    assert main([
        "schedule", "--config", str(config), "--total-steps", "100", "--select", "llm.*",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["total_steps"] == 100  # flag wins
    assert payload["selector"] == ["llm.*"]  # flag wins
    assert payload["mode"] == "flip"  # file wins over the default
    assert payload["boundaries"] == [[0, 1.0]]


@pytest.mark.parametrize("command, config", [
    ("lab", {"variant": "D_flip", "total_steps": 200.0}),
    ("lab", {"variant": "D_flip", "pretrain_steps": True}),
    ("lab", {"variant": "D_flip", "seed": "7"}),
    ("lab", {"variant": "D_flip", "seed": -1}),
    ("lab", ["D_flip"]),
    ("lab", {"variant": "D_flip", "learning_rate": 0.1}),
    ("schedule", {"mode": "gradual", "total_steps": "60", "stage_length": 20}),
    ("schedule", {"mode": "gradual", "total_steps": 60.0, "stage_length": 20}),
    ("schedule", {"mode": "gradual", "total_steps": 60, "stage_length": True}),
    ("schedule", {"mode": "gradual", "stage_length": 20}),
    ("schedule", [1, 2]),
    ("schedule", {"mode": "gradual", "total_steps": 60, "stage_length": 20, "groups": ["a"]}),
    ("schedule", {"mode": "gradual", "total_steps": 60, "stage_length": 20,
                  "selector": "vision.dino.*"}),
    ("lab", '{"total_steps": 60,}'),
    ("schedule", '{"total_steps": 60,}'),
    ("lab", b'{"seed": "\xff"}'),
    ("schedule", b'{"mode": "\xff"}'),
], ids=[
    "lab-float-total", "lab-bool-pretrain", "lab-str-seed", "lab-negative-seed", "lab-list",
    "lab-unknown-key",
    "sched-str-total", "sched-float-total", "sched-bool-stage", "sched-no-total", "sched-list",
    "sched-unknown-key", "sched-str-selector", "lab-invalid-json", "sched-invalid-json",
    "lab-not-utf8", "sched-not-utf8",
])
def test_bad_config_fails_with_one_line(command, config, tmp_path, capsys):
    """A config given as bytes or a string is written as is, anything else as JSON."""
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    if isinstance(config, (str, bytes)):
        assert f"{command} config {path} is not valid JSON" in err


LAB_FAST = [
    "--total-steps", "200", "--stage-length", "100",
    "--pretrain-steps", "300", "--finetune-steps", "300",
]


def test_lab_single_variant_report(tmp_path):
    out_dir = tmp_path / "reports"
    code = main(["lab", "--variant", "DS_gradual", "--seed", "7", "--out", str(out_dir)] + LAB_FAST)
    assert code == 0
    report = json.loads((out_dir / "report_DS_gradual.json").read_text())
    assert report["encoder_bitwise_reverted"] is True
    assert report["probe_err_after_reversal"] == report["probe_err_pretrained"]
    assert (out_dir / "comparison.txt").exists()


def test_lab_all_variants_writes_four_reports(tmp_path):
    out_dir = tmp_path / "reports"
    code = main(["lab", "--variant", "all", "--seed", "3", "--out", str(out_dir)] + LAB_FAST)
    assert code == 0
    reports = sorted(p.name for p in out_dir.glob("report_*.json"))
    assert reports == [
        "report_DS_flip.json",
        "report_DS_gradual.json",
        "report_D_flip.json",
        "report_D_gradual.json",
    ]
    comparison = (out_dir / "comparison.txt").read_text()
    for variant in ("D_flip", "D_gradual", "DS_flip", "DS_gradual"):
        assert variant in comparison


def test_lab_writes_each_shared_artifact_once(tmp_path):
    # the shared checkpoints and loss curves are written once, not once per variant
    saved, unsaved = tmp_path / "saved", tmp_path / "unsaved"
    for out_dir, flags in ((saved, ["--save-checkpoints"]), (unsaved, [])):
        assert main(["lab", "--variant", "all", "--seed", "3", "--out", str(out_dir)] + flags + LAB_FAST) == 0
    variants = ("DS_flip", "DS_gradual", "D_flip", "D_gradual")
    texts = ["comparison.txt", "shared.json", *(f"report_{v}.json" for v in variants)]
    checkpoints = ["finetuned", "pretrained", *(f"{v}_final" for v in variants)]
    assert sorted(p.name for p in unsaved.iterdir()) == sorted(texts)
    assert sorted(p.name for p in saved.iterdir()) == sorted(
        texts + [f"{name}.safetensors" for name in checkpoints])
    for name in texts:
        assert (saved / name).read_bytes() == (unsaved / name).read_bytes(), name
    raw = (unsaved / "shared.json").read_text()
    shared = json.loads(raw)
    assert raw == json.dumps(shared, sort_keys=True, indent=2) + "\n"
    assert {name: len(curve) for name, curve in shared["loss_curves"].items()} == {
        "finetune": 300, "pretrain": 300}
    for variant in variants:
        report = json.loads((unsaved / f"report_{variant}.json").read_text())
        assert list(report["loss_curves"]) == ["reversal"]
        assert len(report["loss_curves"]["reversal"]) == 200


def test_lab_divergence_in_a_worker_fails_with_one_line(tmp_path, monkeypatch, capsys):
    caller, real_train = os.getpid(), experiment.train

    def train(*args, **kwargs):
        if os.getpid() != caller:
            raise TrainingDiverged(4, float("nan"))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(experiment, "train", train)
    code = main(["lab", "--variant", "all", "--seed", "3", "--out", str(tmp_path / "r")] + LAB_FAST)
    assert code == 1
    assert capsys.readouterr().err == "error: training diverged at step 4: loss=nan\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lab_config_file_with_flag_override(tmp_path):
    config = tmp_path / "lab.json"
    config.write_text(json.dumps({
        "variant": "D_flip", "seed": 5, "pretrain_steps": 300,
        "finetune_steps": 300, "total_steps": 200, "stage_length": 100,
    }))
    out_dir = tmp_path / "reports"
    code = main(["lab", "--config", str(config), "--seed", "9", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report_D_flip.json").read_text())
    assert report["seed"] == 9  # flag wins
    assert report["config"]["pretrain_steps"] == 300  # config wins over default


def test_lab_config_unknown_key_fails(tmp_path, capsys):
    config = tmp_path / "lab.json"
    config.write_text(json.dumps({"learning": 1}))
    assert main(["lab", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert "unknown lab config keys" in capsys.readouterr().err


def test_lab_repeated_runs_are_bitwise_identical(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        assert main(["lab", "--variant", "D_flip", "--seed", "11", "--out", str(out_dir)] + LAB_FAST) == 0
    first = (dirs[0] / "report_D_flip.json").read_bytes()
    second = (dirs[1] / "report_D_flip.json").read_bytes()
    assert first == second


def _write_openvla_log(path, grasps=None):
    records = []
    for (obj, setting), lifts in OPENVLA_CELLS.items():
        records.extend(
            expand_cell(
                "OpenVLA", obj, setting, episodes=36, lift_successes=lifts,
                grasp_successes=None if grasps is None else grasps[(obj, setting)],
            )
        )
    write_episode_log(records, path)


def test_eval_reproduces_published_cells(tmp_path, capsys):
    log = tmp_path / "openvla.jsonl"
    _write_openvla_log(log)
    out = tmp_path / "report.json"
    assert main(["eval", str(log), "--metric", "lift", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["table"]["policies"]["OpenVLA"]["total"] == 0.162
    assert payload["table"]["policies"]["OpenVLA"]["single"] == 0.222
    assert payload["table"]["policies"]["OpenVLA"]["distractor"] == 0.102
    stdout = capsys.readouterr().out
    assert "0.162" in stdout


def test_eval_metric_choice_on_partial_success_fixture(tmp_path):
    lifts = (14, 4, 19, 11, 4, 8)
    grasps = (24, 12, 30, 22, 12, 25)
    records = []
    for i, (obj, setting) in enumerate(
        [(o, s) for s in ("single", "distractor") for o in ("pear", "mustard_bottle", "tomato_can")]
    ):
        records.extend(
            expand_cell(
                "ReVLA (Gradual)", obj, setting, episodes=36,
                lift_successes=lifts[i], grasp_successes=grasps[i],
            )
        )
    log = tmp_path / "revla.jsonl"
    write_episode_log(records, log)
    for metric in ("lift", "grasp"):
        out = tmp_path / f"report_{metric}.json"
        assert main(["eval", str(log), "--metric", metric, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        partial = payload["partial_success"]["ReVLA (Gradual)"]
        assert partial == {"grasp": 0.579, "lift": 0.278}


def test_eval_baseline_improvement(tmp_path):
    log = tmp_path / "both.jsonl"
    base = expand_cell("OpenVLA", "pear", "single", episodes=36, lift_successes=7,
                       grasp_successes=13)
    cand = expand_cell("ReVLA", "pear", "single", episodes=36, lift_successes=13,
                       grasp_successes=21)
    write_episode_log(base + cand, log)
    out = tmp_path / "report.json"
    assert main(["eval", str(log), "--baseline", "OpenVLA", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    improvement = payload["improvement_over_baseline"]["policies"]["ReVLA"]
    # 13/36=0.361 vs 7/36=0.194 lift; 21/36=0.583 vs 13/36=0.361 grasp
    assert improvement["lift_pct"] == 86
    assert improvement["grasp_pct"] == 61


def test_eval_zero_baseline_records_null_and_prints_na(tmp_path, capsys):
    log = tmp_path / "zero.jsonl"
    fails = expand_cell("p", "pear", "single", episodes=1, lift_successes=0)
    lifts = expand_cell("q", "pear", "single", episodes=1, lift_successes=1)
    write_episode_log(fails + lifts, log)
    out = tmp_path / "report.json"
    assert main(["eval", str(log), "--baseline", "p", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["improvement_over_baseline"] == {
        "baseline": "p", "policies": {"q": {"grasp_pct": None, "lift_pct": None}},
    }
    assert capsys.readouterr().out.endswith("improvement over p:\n  q: grasp n/a  lift n/a\n")


def test_eval_missing_baseline_fails_before_printing(tmp_path, capsys):
    log = tmp_path / "five.jsonl"
    write_episode_log(expand_cell("p", "pear", "single", episodes=5, lift_successes=2), log)
    out = tmp_path / "report.json"
    assert main(["eval", str(log), "--baseline", "P", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: baseline policy 'P' not present in the logs\n"
    assert not out.exists()


def test_eval_empty_log_fails(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    code = main(["eval", str(log), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "no records" in capsys.readouterr().err


def test_eval_schema_violation_names_line(tmp_path, capsys):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"policy": "p"}\n')
    code = main(["eval", str(log), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", ["success", "bad-log", "missing"])
def test_eval_leaves_the_collector_as_the_caller_set_it(tmp_path, monkeypatch, capsys, case, collecting):
    log = tmp_path / "episodes.jsonl"
    if case != "missing":
        write_episode_log(expand_cell("OpenVLA", "pear", "single", episodes=2, lift_successes=1), log)
    if case == "bad-log":
        with log.open("a") as fh:
            fh.write('{"policy": "p"}\n')
    seen, parse_lines = [], ood_eval._parse_lines

    def parse(lines):
        seen.append(("parse", gc.isenabled()))
        return parse_lines(lines)

    def aggregate(records, metric):
        seen.append(("aggregate", gc.isenabled()))
        return ood_eval.aggregate(records, metric)

    monkeypatch.setattr(ood_eval, "_parse_lines", parse)
    monkeypatch.setattr("revla.cli.aggregate", aggregate)
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code = main(["eval", str(log), "--out", str(tmp_path / "r.json")])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    capsys.readouterr()
    assert code == (0 if case == "success" else 1)
    calls = {"success": ["parse", "aggregate"], "bad-log": ["parse"], "missing": []}[case]
    assert seen == [(call, collecting) for call in calls]


@pytest.mark.parametrize("change", ["truncate", "rewrite"])
def test_eval_of_a_log_changed_while_it_is_read_fails_and_keeps_the_report(tmp_path, monkeypatch, capsys, change):
    log, out = tmp_path / "episodes.jsonl", tmp_path / "r.json"
    write_episode_log(expand_cell("OpenVLA", "pear", "single", episodes=36, lift_successes=12), log)
    out.write_text("earlier report\n")
    _change_after_cutting(monkeypatch, log, change)
    assert main(["eval", str(log), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: episode log {log} changed while it was read"]
    assert captured.out == "" and out.read_text() == "earlier report\n"


def test_eval_names_undecodable_and_too_deep_lines(tmp_path, capsys):
    records = expand_cell("OpenVLA", "pear", "single", episodes=3, lift_successes=1)
    good = [json.dumps(to_json_obj(record)).encode() for record in records]
    log = tmp_path / "hostile.jsonl"
    # one line per terminator kind, so each bad line's number counts all three
    log.write_bytes(good[0] + b"\r\n" + b'{"policy": "\xff"}\r' + good[1] + b"\n"
                    + b"[" * 100_000 + b"\n" + good[2] + b"\n" + b'{"policy": 1}\n')
    code = main(["eval", str(log), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: invalid episode log {log}:",
        "line 2: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
        "line 4: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        "line 6: missing fields: ['object', 'setting', 'protocol', 'episode', 'grasp_success', "
        "'lift_success', 'sub_setting']",
    ]


def test_eval_gives_the_same_bytes_from_one_range_or_several(tmp_path, monkeypatch, capsys):
    records = []
    for policy in ("OpenVLA", "ReVLA", "Octo"):
        for (obj, setting), lifts in OPENVLA_CELLS.items():
            records += expand_cell(policy, obj, setting, episodes=36, lift_successes=lifts)
    log = tmp_path / "episodes.jsonl"
    write_episode_log(records, log)
    runs = []
    for cores, minimum, ranges in (({0}, 1 << 20, 1), ({0, 1, 2}, 4096, 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", minimum)
        with open(log, "rb") as fh:
            assert len(ood_eval._line_ranges(fh.fileno(), log.stat().st_size)) == ranges
        out = tmp_path / f"report_{ranges}.json"
        assert main(["eval", str(log), "--baseline", "OpenVLA", "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_eval_of_two_logs_gives_the_bytes_of_one_log_holding_both(tmp_path, monkeypatch, capsys):
    # the second log repeats a cell of the first with new episode ids, so its counts are summed across logs
    first = []
    for policy in ("OpenVLA", "ReVLA"):
        for (obj, setting), lifts in OPENVLA_CELLS.items():
            first += expand_cell(policy, obj, setting, episodes=36, lift_successes=lifts)
    second = expand_cell("ReVLA", "pear", "single", episodes=5, lift_successes=4, first_episode=36)
    second += expand_cell("Octo", "coke_can", "single", episodes=9, lift_successes=2, sub_setting="vertical")
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "joined.jsonl")]
    for records, path in zip((first, second, first + second), paths):
        write_episode_log(records, path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", 4096)
    runs = []
    for logs in ([paths[0], paths[1]], [paths[2]]):
        out = tmp_path / f"report_{len(logs)}.json"
        assert main(["eval", *map(str, logs), "--baseline", "OpenVLA", "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["table"]["policies"]["ReVLA"]["total"] == 0.176  # (35 + 4) / 221


def test_eval_names_duplicates_across_logs_in_one_line(tmp_path, capsys):
    pear = expand_cell("p", "pear", "single", episodes=3, lift_successes=1)
    logs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    write_episode_log(pear, logs[0])
    write_episode_log(pear[1:] + expand_cell("q", "pear", "single", episodes=1, lift_successes=1), logs[1])
    out = tmp_path / "r.json"
    assert main(["eval", *map(str, logs), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: duplicate episode ids: [('p', 'pear', 'single', 'visual_matching', None, 1), "
                            "('p', 'pear', 'single', 'visual_matching', None, 2)]\n")


def test_eval_duplicates_with_and_without_sub_setting_fail_with_one_line(tmp_path, capsys):
    records = []
    for sub_setting in (None, None, "vertical", "vertical"):
        records += expand_cell("OpenVLA", "coke_can", "single", episodes=2, lift_successes=1,
                               sub_setting=sub_setting)
    log = tmp_path / "dupes.jsonl"
    write_episode_log(records, log)
    code = main(["eval", str(log), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate episode ids: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_is_idempotent(tmp_path):
    log = tmp_path / "openvla.jsonl"
    _write_openvla_log(log)
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for out in outs:
        assert main(["eval", str(log), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _json_dumps_of_itself(path) -> bool:
    """Whether the file at ``path`` is ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` of its payload."""
    raw = Path(path).read_bytes()
    return raw == (json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n").encode()


def test_every_json_artifact_is_json_dumps_of_its_payload(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.st"
    save_checkpoint(Checkpoint({"vision.dïno.w": np.arange(3.0), "llm.w": np.ones(2, np.float32)},
                               metadata={"modèle": "ReVLA – 7.5B"}), ckpt)
    log = tmp_path / "log.jsonl"
    write_episode_log(expand_cell("Öctö-VLA", "pear", "single", episodes=4, lift_successes=1, grasp_successes=3)
                      + expand_cell("OpenVLA", "pear", "single", episodes=4, lift_successes=2), log)
    runs = {
        "inspect.json": ["inspect", str(ckpt)],
        "eval.json": ["eval", str(log), "--baseline", "OpenVLA"],
        "schedule.json": ["schedule", "--total-steps", "12", "--stage-length", "4", "--select", "vision.dïno.*"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert main(["lab", "--variant", "all", "--seed", "7", "--out", str(tmp_path / "lab"), *LAB_FAST]) == 0
    capsys.readouterr()
    lab = sorted((tmp_path / "lab").glob("*.json"))
    assert len(lab) == 5
    for path in [*(tmp_path / name for name in runs), *lab]:
        assert _json_dumps_of_itself(path), path
    assert "\\u00d6ct\\u00f6-VLA" in (tmp_path / "eval.json").read_text()


def test_a_json_artifact_is_written_without_being_held_whole(tmp_path):
    # the shape of a lab's shared.json: two curves of 5,000 floats
    rng = np.random.default_rng(5)
    payload = {"loss_curves": {"finetune": rng.random(5000).tolist(), "pretrain": rng.random(5000).tolist()}}
    whole, pieces = tmp_path / "whole.json", tmp_path / "pieces.json"
    peaks = {}
    for path, chunks in ((whole, lambda: [(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()]),
                         (pieces, lambda: cli._json(payload))):
        write = revla.check_output(path)
        tracemalloc.start()
        try:
            write(chunks())
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert pieces.read_bytes() == whole.read_bytes()
    assert peaks[pieces] < peaks[whole] / 3


def test_merged_checkpoint_loads_back(checkpoint_pair, tmp_path):
    _, _, cur_path, pre_path = checkpoint_pair
    out = tmp_path / "merged.st"
    assert main([
        "merge", str(cur_path), str(pre_path), "--alpha", "0.25",
        "--select", "vision.dino.*", "--out", str(out),
    ]) == 0
    merged = load_checkpoint(out)
    current = load_checkpoint(cur_path)
    assert merged["llm.w"].tobytes() == current["llm.w"].tobytes()


def test_merge_may_overwrite_its_current_input(checkpoint_pair, tmp_path):
    # either input may be the output: the merged file is renamed over it
    # while the loaded checkpoint still reads the old file
    current, pretrained, cur_path, pre_path = checkpoint_pair
    expected = tmp_path / "expected.st"
    args = [str(cur_path), str(pre_path), "--alpha", "0.25", "--select", "vision.*"]
    assert main(["merge", *args, "--out", str(expected)]) == 0
    for target, original in ((cur_path, current), (pre_path, pretrained)):
        assert main(["merge", *args, "--out", str(target)]) == 0
        assert target.read_bytes() == expected.read_bytes()
        assert target.read_bytes() != serialize_checkpoint(original)
        save_checkpoint(original, target)


_RUN_CLI_UNDER_AN_ADDRESS_SPACE_CAP = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
sys.path.insert(0, {root!r})
sys.argv = ["revla", *{argv!r}]
runpy.run_module("revla.cli", run_name="__main__")
"""


def _write_sparse_checkpoint(path, nbytes):
    """A checkpoint of one F32 tensor of ``nbytes`` zero bytes, left as a hole in a sparse file."""
    header = json.dumps({"w": {"dtype": "F32", "shape": [nbytes // 4], "data_offsets": [0, nbytes]}})
    header = header.encode().ljust(-(-len(header) // 8) * 8)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)) + header)
        fh.truncate(8 + len(header) + nbytes)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv", [
    ["inspect", "a.st", "--out", "inspect.json"],
    ["merge", "a.st", "b.st", "--alpha", "0.5", "--out", "merged.st"],
], ids=["inspect", "merge"])
def test_running_out_of_memory_fails_with_one_line(tmp_path, argv):
    # 1 GiB tensors under a 768 MiB address-space cap, set in the child only
    for name in ("a.st", "b.st"):
        _write_sparse_checkpoint(tmp_path / name, 1 << 30)
    root = str(Path(revla.__file__).resolve().parent.parent)
    code = _RUN_CLI_UNDER_AN_ADDRESS_SPACE_CAP.format(cap=768 << 20, root=root, argv=argv)
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], cwd=tmp_path, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 1
    assert result.stderr == f"error: out of memory: {argv[0]} needs more memory than this process may use\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.st", "b.st"]  # no output, no .tmp


def _write_sparse_gib_of_tensors(path, values=()):
    """A checkpoint of 64 F32 tensors of 16 MiB, 1 GiB of zero bytes left as holes in a sparse file,
    but for ``values``, written as F32 at the start of each tensor."""
    header = {f"t{i:02d}": {"dtype": "F32", "shape": [4 << 20], "data_offsets": [i << 24, (i + 1) << 24]}
              for i in range(64)}
    blob = json.dumps(header).encode()
    blob = blob.ljust(-(-len(blob) // 8) * 8)
    start = 8 + len(blob)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)) + blob)
        fh.truncate(start + (1 << 30))
        for i in range(64 if values else 0):
            fh.seek(start + (i << 24))
            fh.write(np.asarray(values, np.float32).tobytes())


def _run_cli_under_768_mib(tmp_path, argv):
    """Run the command line in a child whose address space is capped at 768 MiB; the cap is set in
    the child only."""
    root = str(Path(revla.__file__).resolve().parent.parent)
    code = _RUN_CLI_UNDER_AN_ADDRESS_SPACE_CAP.format(cap=768 << 20, root=root, argv=argv)
    return subprocess.run([sys.executable, "-I", "-B", "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_inspect_of_a_file_larger_than_its_memory_cap_streams_it(tmp_path, monkeypatch):
    # 1 GiB of 16 MiB tensors under a 768 MiB address-space cap, set in the child only: inspect
    # holds one tensor at a time, so it succeeds and reports what an uncapped run reports
    _write_sparse_gib_of_tensors(tmp_path / "a.st")
    result = _run_cli_under_768_mib(tmp_path, ["inspect", "a.st", "--out", "capped.json"])
    assert (result.returncode, result.stderr) == (0, "")
    monkeypatch.chdir(tmp_path)
    assert main(["inspect", "a.st", "--out", "uncapped.json"]) == 0
    assert (tmp_path / "capped.json").read_bytes() == (tmp_path / "uncapped.json").read_bytes()
    report = json.loads((tmp_path / "capped.json").read_text())
    assert report["tensor_count"] == 64
    assert {row["sha256"] for row in report["tensors"]} == {hashlib.sha256(bytes(16 << 20)).hexdigest()}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_merge_of_files_larger_than_its_memory_cap_streams_them(tmp_path, monkeypatch):
    # two files of 1 GiB in 16 MiB tensors under a 768 MiB address-space cap: merge blends each
    # pair in two reused buffers as it writes it, so it succeeds and writes what an uncapped run
    # writes. The pretrained tensors differ from the current ones, so every pair is blended.
    _write_sparse_gib_of_tensors(tmp_path / "a.st")
    _write_sparse_gib_of_tensors(tmp_path / "b.st", [1.0, -3.0, 0.5, 2.0**-20])
    merge = ["merge", "a.st", "b.st", "--alpha", "0.25", "--out"]
    try:
        result = _run_cli_under_768_mib(tmp_path, [*merge, "capped.st"])
        assert (result.returncode, result.stderr) == (0, "")
        monkeypatch.chdir(tmp_path)
        assert main([*merge, "uncapped.st"]) == 0
        with open("capped.st", "rb") as capped, open("uncapped.st", "rb") as uncapped:
            while chunk := capped.read(16 << 20):
                assert chunk == uncapped.read(16 << 20)
            assert uncapped.read(1) == b""
        metas = load_checkpoint("capped.st").metas()
        assert [(meta.name, meta.shape) for meta in metas] == [(f"t{i:02d}", (4 << 20,)) for i in range(64)]
        with open("capped.st", "rb") as fh:
            start = 8 + struct.unpack("<Q", fh.read(8))[0]
            for meta in metas:
                fh.seek(start + meta.byte_range[0])
                blended = np.frombuffer(fh.read(32), np.float32).tolist()
                assert blended == [0.25, -0.75, 0.125, 2.0**-22, 0, 0, 0, 0]
    finally:  # two files of 1 GiB that are not holes
        for name in ("capped.st", "uncapped.st"):
            (tmp_path / name).unlink(missing_ok=True)


_RUN_CLI_THEN_REPORT_MODULES = """
import runpy, sys
sys.path.insert(0, {root!r})
sys.argv = ["revla", *{argv!r}]
try:
    runpy.run_module("revla.cli", run_name="__main__")
finally:
    print(sorted({unloaded!r} & set(sys.modules)))
"""

# the argv each command runs with in the import tests, over the inputs of ``_write_small_inputs``
_ARGV_BY_COMMAND = {
    "version": ["--version"],
    "eval": ["eval", "episodes.jsonl"],
    "schedule": ["schedule", "--total-steps", "10", "--stage-length", "5"],
    "inspect": ["inspect", "small.st"],
    "lab": ["lab", "--variant", "D_flip", "--seed", "1", "--total-steps", "4", "--stage-length", "2",
            "--pretrain-steps", "4", "--finetune-steps", "4"],
}


def _write_small_inputs(tmp_path):
    """``episodes.jsonl`` and ``small.st`` in ``tmp_path``, for the commands that read them."""
    write_episode_log(expand_cell("OpenVLA", "pear", "single", episodes=2, lift_successes=1),
                      tmp_path / "episodes.jsonl")
    save_checkpoint(Checkpoint({"a.w": np.ones((2, 3)), "b.w": np.zeros(4, dtype=np.float32)}),
                    tmp_path / "small.st")


def _loaded_after(tmp_path, command, modules):
    """Which of ``modules`` a fresh interpreter has loaded once ``revla <command>`` has run."""
    _write_small_inputs(tmp_path)
    root = str(Path(revla.__file__).resolve().parent.parent)
    code = _RUN_CLI_THEN_REPORT_MODULES.format(root=root, argv=_ARGV_BY_COMMAND[command], unloaded=modules)
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], cwd=tmp_path, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["version", "eval", "schedule", "inspect"])
def test_commands_that_use_no_numpy_never_load_it(tmp_path, command):
    assert _loaded_after(tmp_path, command, {"numpy"}) == "[]"


def test_version_loads_neither_pickle_nor_the_fork_helper(tmp_path):
    modules = {"logging", "pickle", "revla.cores", "revla.ood_eval", "revla.schedule", "revla.selector",
               "dataclasses", "decimal", "hashlib", "concurrent.futures"}
    assert _loaded_after(tmp_path, "version", modules) == "[]"


def test_schedule_loads_neither_numpy_nor_ood_eval(tmp_path):
    assert _loaded_after(tmp_path, "schedule", {"numpy", "revla.ood_eval"}) == "[]"


def test_inspect_loads_no_pickle(tmp_path):
    assert _loaded_after(tmp_path, "inspect", {"pickle"}) == "[]"


def test_lab_loads_neither_ood_eval_nor_decimal(tmp_path):
    assert _loaded_after(tmp_path, "lab", {"revla.ood_eval", "decimal"}) == "[]"


@pytest.mark.parametrize("command", ["inspect", "eval", "schedule"])
def test_an_out_that_cannot_be_written_fails_before_anything_is_printed(tmp_path, monkeypatch, capsys,
                                                                         command):
    _write_small_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "outdir"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    assert main([*_ARGV_BY_COMMAND[command], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n"
    assert [(path.name, path.read_text()) for path in out.iterdir()] == [("kept.txt", "kept")]


def test_importing_the_cli_and_schedule_leaves_numpy_unloaded():
    root = str(Path(revla.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); "
            "import revla.cli, revla.schedule; print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
