"""Command-line surface: artifacts, exit codes, diagnostics."""

from __future__ import annotations

import hashlib
import json
import struct
import threading

import numpy as np
import pytest

from revla.cli import main
from revla.ood_eval import expand_cell, write_episode_log
from revla.tensor_store import Checkpoint, load_checkpoint, save_checkpoint, serialize_checkpoint

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


def test_merge_alpha_one_select_all_equals_pretrained(checkpoint_pair, tmp_path):
    _, pretrained, cur_path, pre_path = checkpoint_pair
    out = tmp_path / "merged.st"
    code = main([
        "merge", str(cur_path), str(pre_path), "--alpha", "1", "--select", "*",
        "--out", str(out),
    ])
    assert code == 0
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


def test_merge_into_missing_directory_names_the_target(checkpoint_pair, tmp_path, monkeypatch, capsys):
    _, _, cur_path, pre_path = checkpoint_pair
    monkeypatch.chdir(tmp_path)
    code = main(["merge", str(cur_path), str(pre_path), "--alpha", "0.5", "--out", "missing/o.st"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: 'missing/o.st'\n"
    assert not (tmp_path / "missing").exists()


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


def test_log_level_env_var_is_honored(checkpoint_pair, tmp_path, monkeypatch):
    _, _, cur_path, _ = checkpoint_pair
    monkeypatch.setenv("REVLA_LOG_LEVEL", "debug")
    assert main(["inspect", str(cur_path), "--out", str(tmp_path / "o.json")]) == 0


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


def test_eval_names_undecodable_and_too_deep_lines(tmp_path, capsys):
    records = expand_cell("OpenVLA", "pear", "single", episodes=3, lift_successes=1)
    good = [json.dumps(record.to_json_obj()).encode() for record in records]
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
    current, pretrained, cur_path, pre_path = checkpoint_pair
    expected = tmp_path / "expected.st"
    args = [str(cur_path), str(pre_path), "--alpha", "0.25", "--select", "vision.*"]
    assert main(["merge", *args, "--out", str(expected)]) == 0
    assert main(["merge", *args, "--out", str(cur_path)]) == 0
    assert cur_path.read_bytes() == expected.read_bytes()
    assert cur_path.read_bytes() != serialize_checkpoint(current)
