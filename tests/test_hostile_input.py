"""Hostile input to every command ends in a result or in one diagnostic.

Random byte edits, deletions and splices, seeded with values that parsers
mishandle, are made to a valid checkpoint, episode log and config file, and
the command is run on them in process. Whatever the bytes, a run must:

- exit 0, or exit 1 with a first stderr line starting ``error: ``; more lines
  follow only in the two multi-line forms, ``eval`` naming every bad line and
  ``merge`` listing every incompatibility;
- or fail as an argparse usage error (exit 2), which prints its usage first;
- leave no temporary file, and, when it fails, leave an existing ``--out`` as
  it was.

An ``--out`` that cannot be written, or that is one of the command's inputs,
is refused before any input is read. A write cut short leaves every earlier
file as it was.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from synthetic_episodes import expand_cell, write_episode_log

import revla
from revla import cli
from revla.cli import main
from revla.tensor_store import Checkpoint, load_checkpoint, save_checkpoint

DEEP = b"[" * 100_000  # deeper than the recursion limit
HOSTILE = (
    b"1e999", b"-1e999", b"NaN", b"Infinity", b"-0", b"18446744073709551616", b"-18446744073709551616",
    b'"\\ud800"', b"\\udfff", b"\xed\xa0\x80",  # a lone surrogate: escaped, half an escape, raw bytes
    b"[" * 50 + b"]" * 50, b'{"a":' * 50 + b"0" + b"}" * 50, DEEP, b"\xff", b"\x80", b"\xc3",
)
PUNCTUATION = (b"\x00", b"\n", b"\r", b'"', b",", b":", b"{", b"}", b"[", b"]")
# argument values: some argparse refuses (exit 2), the rest the command must
HOSTILE_ARGS = ("1e999", "NaN", "-0", "18446744073709551616", "\ud800", "x")
PREVIOUS = b"previous bytes\n"
# an example whose parsed step counts exceed these is skipped, so no example starts a long run
LAB_STEP_CAP = 8
SCHEDULE_STEP_CAP = 10_000

_token = st.one_of(st.sampled_from(HOSTILE), st.sampled_from(PUNCTUATION), st.binary(min_size=1, max_size=8))
_position = st.integers(0, 1 << 16)  # taken modulo the length of the bytes
_edit = st.one_of(
    st.tuples(st.just("flip"), _position, st.integers(1, 255)),
    st.tuples(st.just("insert"), _position, _token),
    st.tuples(st.just("replace"), _position, _token),
    st.tuples(st.just("delete"), _position, st.integers(1, 64)),
    st.tuples(st.just("splice"), _position, st.integers(1, 64), _position),
)
edits = st.lists(_edit, min_size=1, max_size=3)
hostile_arg = st.one_of(st.none(), st.sampled_from(HOSTILE_ARGS))
fuzz = settings(max_examples=80, deadline=None, derandomize=True)


def mutate(data: bytes, changes: list[tuple]) -> bytes:
    for kind, pos, *rest in changes:
        if kind == "flip":  # one byte changed, so every offset stays where it was
            if data:
                pos %= len(data)
                data = data[:pos] + bytes([data[pos] ^ rest[0]]) + data[pos + 1:]
            continue
        pos %= len(data) + 1
        if kind == "insert":
            data = data[:pos] + rest[0] + data[pos:]
        elif kind == "replace":
            data = data[:pos] + rest[0] + data[pos + len(rest[0]):]
        elif kind == "delete":
            data = data[:pos] + data[pos + rest[0]:]
        else:  # splice: a copy of one stretch of the bytes goes in elsewhere
            at = rest[1] % (len(data) + 1)
            data = data[:at] + data[pos:pos + rest[0]] + data[at:]
    return data


def _checkpoint_bytes(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    ckpt = Checkpoint({"vision.dino.w": rng.standard_normal(4).astype(np.float32),
                       "llm.w": rng.standard_normal((8, 8))}, metadata={"format": "pt"})
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(ckpt, Path(d) / "c.st")
        return (Path(d) / "c.st").read_bytes()


CHECKPOINT, OTHER_CHECKPOINT = _checkpoint_bytes(1), _checkpoint_bytes(2)
SCHEDULE_CONFIG = json.dumps({"mode": "gradual", "total_steps": 12, "stage_length": 4,
                              "selector": ["vision.dino.*"]}).encode()
LAB_CONFIG = json.dumps({"variant": "D_gradual", "seed": 3, "pretrain_steps": 4, "finetune_steps": 4,
                         "total_steps": 4, "stage_length": 2}).encode()


def _episode_log() -> bytes:
    records = (expand_cell("OpenVLA", "pear", "single", episodes=3, lift_successes=1, grasp_successes=2)
               + expand_cell("Octo", "coke_can", "single", episodes=2, lift_successes=1,
                             protocol="variant_aggregation", sub_setting="vertical"))
    with tempfile.TemporaryDirectory() as d:
        write_episode_log(records, Path(d) / "log.jsonl")
        return (Path(d) / "log.jsonl").read_bytes()


EPISODE_LOG = _episode_log()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A factory of empty directories, one per example."""
    base = tmp_path_factory.mktemp("hostile")
    return lambda: tempfile.TemporaryDirectory(dir=base)


def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _snapshot(out: Path):
    if out.is_dir():
        return sorted((p.name, p.read_bytes()) for p in out.iterdir())
    return out.read_bytes()


def _steps_within(config: bytes, keys: tuple[str, ...], cap: int) -> bool:
    """Whether the command, reading ``config``, refuses it or takes every step count in ``keys``
    from it, each at most ``cap`` if it is an int. A key left out takes the command's default."""
    try:
        settings = json.loads(config.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return True
    if not isinstance(settings, dict):
        return True
    return all(key in settings and (not isinstance(settings[key], int) or settings[key] <= cap)
               for key in keys)


_CONTINUATIONS = {  # a multi-line diagnostic's first line, and how each line after it starts
    "error: checkpoints are not mergeable:": ("missing in first checkpoint: ", "missing in second checkpoint: ",
                                             "shape mismatch for ", "dtype mismatch for "),
    "error: invalid episode log ": ("line ",),
}


def run(argv: list[str], work: Path, out: Path) -> None:
    """Run ``revla argv`` in process and check how it ended."""
    before = _snapshot(out)
    # encoded as a UTF-8 terminal's streams are, so text that cannot be printed fails here as there
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace", write_through=True)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.buffer.getvalue().decode("utf-8")
    lines = err.split("\n")
    if code == 0:
        assert err == ""
    elif code == 1:
        assert lines[0].startswith("error: ") and lines[-1] == "", err
        if len(lines) > 2:
            starts = next((v for k, v in _CONTINUATIONS.items() if lines[0].startswith(k)), ())
            assert all(line.startswith(starts) for line in lines[1:-1]), err
    else:
        assert code == 2, err
        assert lines[0].startswith("usage: revla ") and f"revla {argv[0]}: error: " in err, err
    assert not list(work.rglob(".revla.*.tmp"))
    if code != 0:
        assert _snapshot(out) == before


@fuzz
@given(changes=edits)
def test_inspect_of_a_hostile_checkpoint(workspace, changes):
    with workspace() as d:
        work = Path(d)
        bad = _write(work / "bad.st", mutate(CHECKPOINT, changes))
        out = _write(work / "out.json", PREVIOUS)
        run(["inspect", str(bad), "--out", str(out)], work, out)


@fuzz
@given(changes=edits, bad_first=st.booleans(), alpha=hostile_arg)
def test_merge_with_a_hostile_checkpoint_in_either_place(workspace, changes, bad_first, alpha):
    with workspace() as d:
        work = Path(d)
        bad = _write(work / "bad.st", mutate(CHECKPOINT, changes))
        good = _write(work / "good.st", OTHER_CHECKPOINT)
        out = _write(work / "out.st", PREVIOUS)
        pair = [str(bad), str(good)] if bad_first else [str(good), str(bad)]
        run(["merge", *pair, "--alpha", alpha or "0.5", "--out", str(out)], work, out)


@fuzz
@example(changes=[("insert", 0, DEEP)], metric="lift")
@given(changes=edits, metric=st.sampled_from(["lift", "grasp", "NaN"]))
def test_eval_of_a_hostile_episode_log(workspace, changes, metric):
    with workspace() as d:
        work = Path(d)
        log = _write(work / "log.jsonl", mutate(EPISODE_LOG, changes))
        out = _write(work / "out.json", PREVIOUS)
        run(["eval", str(log), "--metric", metric, "--out", str(out)], work, out)


@fuzz
@example(changes=[("insert", 0, DEEP)], total_steps=None)
@given(changes=edits, total_steps=hostile_arg)
def test_schedule_of_a_hostile_config(workspace, changes, total_steps):
    config = mutate(SCHEDULE_CONFIG, changes)
    if total_steps is None:
        assume(_steps_within(config, ("total_steps",), SCHEDULE_STEP_CAP))
    with workspace() as d:
        work = Path(d)
        path = _write(work / "schedule.json", config)
        out = _write(work / "out.json", PREVIOUS)
        flags = [] if total_steps is None else ["--total-steps", total_steps]
        run(["schedule", "--config", str(path), *flags, "--out", str(out)], work, out)


@fuzz
@example(changes=[("insert", 0, DEEP)], seed=None)
@given(changes=edits, seed=hostile_arg)
def test_lab_of_a_hostile_config(workspace, changes, seed):
    config = mutate(LAB_CONFIG, changes)
    assume(_steps_within(config, ("pretrain_steps", "finetune_steps", "total_steps"), LAB_STEP_CAP))
    with workspace() as d:
        work = Path(d)
        path = _write(work / "lab.json", config)
        out = work / "reports"
        out.mkdir()
        _write(out / "previous.txt", PREVIOUS)
        flags = [] if seed is None else ["--seed", seed]
        run(["lab", "--config", str(path), *flags, "--out", str(out)], work, out)


# a name that would print as a diagnostic line of its own
FORGING_NAME = "x\nshape mismatch for y: [1] vs [2]"


def test_a_tensor_name_cannot_forge_a_merge_diagnostic(tmp_path, capsys):
    current, pretrained = tmp_path / "current.st", tmp_path / "pretrained.st"
    save_checkpoint(Checkpoint({FORGING_NAME: np.zeros(3), "vision.ä": np.zeros(2)}), current)
    save_checkpoint(Checkpoint({FORGING_NAME: np.zeros(4)}), pretrained)
    assert main(["merge", str(current), str(pretrained), "--alpha", "0.5", "--out", str(tmp_path / "out.st")]) == 1
    assert capsys.readouterr().err == (
        "error: checkpoints are not mergeable:\n"
        "missing in second checkpoint: vision.ä\n"
        "shape mismatch for 'x\\nshape mismatch for y: [1] vs [2]': [3] vs [4]\n"
    )


def test_a_tensor_name_cannot_split_an_inspect_row(tmp_path, capsys):
    path, out = tmp_path / "c.st", tmp_path / "inspect.json"
    save_checkpoint(Checkpoint({FORGING_NAME: np.zeros(1), "vision.ä": np.zeros(2)}), path)
    assert main(["inspect", str(path), "--out", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("vision.ä  f64  [2]  ")
    assert rows[1].startswith("'x\\nshape mismatch for y: [1] vs [2]'  f64  [1]  ")
    assert [row["name"] for row in json.loads(out.read_text(encoding="utf-8"))["tensors"]] == [
        "vision.ä", FORGING_NAME]


# Each command with the inputs it reads (written by ``_write_out_inputs``) and, where it
# has one, the cli name through which it reads its first input or, for lab, starts its work.
_OUT_COMMANDS = {
    "inspect": (["inspect", "c.st"], ["c.st"], "load_checkpoint"),
    "eval": (["eval", "log.jsonl"], ["log.jsonl"], "parse_episode_log"),
    "schedule": (["schedule", "--config", "s.json"], ["s.json"], None),
    "merge": (["merge", "c.st", "o.st", "--alpha", "0.5"], ["c.st", "o.st"], "load_checkpoint"),
    "lab": (["lab", "--variant", "D_flip", "--pretrain-steps", "4", "--finetune-steps", "4",
             "--total-steps", "4"], [], "run_reversal_experiment"),
}


def _out_directory(inputs: list[str]) -> str:
    Path("outdir").mkdir()
    _write(Path("outdir") / "kept", PREVIOUS)
    return "outdir"


def _out_directory_link(inputs: list[str]) -> str:
    os.symlink(_out_directory(inputs), "dirlink")  # written through by a JSON output
    return "dirlink"


def _out_hard_link(inputs: list[str]) -> str:
    os.link(inputs[0], "hard")
    return "hard"


def _out_symlink(inputs: list[str]) -> str:
    os.symlink(inputs[0], "soft")
    return "soft"


def _out_fifo(inputs: list[str]) -> str:
    os.mkfifo("fifo")
    return "fifo"


_OUT_CASES = {  # how each case makes its --out, in the working directory
    "directory": _out_directory,
    "directory link": _out_directory_link,
    "long name": lambda inputs: "m" * 256,
    "own input": lambda inputs: inputs[0],
    "own input, hard link": _out_hard_link,
    "own input, symlink": _out_symlink,
    "fifo": _out_fifo,
    "missing parent": lambda inputs: os.path.join("nodir", "sub", "out"),
}
# merge's rename replaces a link to a directory, and keeps its inputs as they were
_JSON_ONLY = ("directory link", "own input", "own input, hard link", "own input, symlink")
_OUT_ROWS = [(command, case) for command in _OUT_COMMANDS if command != "lab"
             for case in ("directory", "long name", "missing parent",
                          *(("fifo",) if command == "merge" else _JSON_ONLY))]
_OUT_ROWS.append(("lab", "missing parent"))  # lab makes its --out directory, but not a missing parent


def _write_out_inputs() -> None:
    for name, data in (("c.st", CHECKPOINT), ("o.st", OTHER_CHECKPOINT), ("log.jsonl", EPISODE_LOG),
                       ("s.json", SCHEDULE_CONFIG)):
        _write(Path(name), data)


def _tree() -> list:
    """Every entry under the working directory, by name and kind, with the bytes of each regular file."""
    return sorted((str(p), stat.S_IFMT(p.lstat().st_mode), p.read_bytes() if p.is_file() else None)
                  for p in Path().rglob("*"))


@pytest.mark.parametrize("command, case", _OUT_ROWS, ids=[f"{c}-{k}" for c, k in _OUT_ROWS])
def test_an_out_that_cannot_be_written_is_refused_before_the_work(tmp_path, monkeypatch, capsys,
                                                                   command, case):
    monkeypatch.chdir(tmp_path)
    _write_out_inputs()
    argv, inputs, reader = _OUT_COMMANDS[command]
    out = _OUT_CASES[case](inputs)
    calls = []
    if reader:
        real = getattr(cli, reader)
        monkeypatch.setattr(cli, reader, lambda *args: calls.append(args) or real(*args))
    before = _tree()
    assert main([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert repr(out) in captured.err
    assert _tree() == before
    assert calls == []


# the files a lab run over LAB_CONFIG (variant D_gradual) writes with --save-checkpoints
_LAB_OUTPUTS = ("shared.json", "report_D_gradual.json", "comparison.txt", "pretrained.safetensors",
                "finetuned.safetensors", "D_gradual_final.safetensors")


@pytest.mark.parametrize("name", _LAB_OUTPUTS)
def test_a_lab_config_among_its_outputs_is_refused_before_the_work(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    config = _write(Path("out") / name, LAB_CONFIG)
    calls = []
    real = cli.run_reversal_experiment
    monkeypatch.setattr(cli, "run_reversal_experiment", lambda *a, **k: calls.append(a) or real(*a, **k))
    before = _tree()
    assert main(["lab", "--config", str(config), "--save-checkpoints", "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output {str(config)!r} is one of the command's inputs\n"
    assert _tree() == before
    assert calls == []


def test_a_fifo_out_receives_the_report_in_place(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_out_inputs()
    assert main(["eval", "log.jsonl", "--out", "report.json"]) == 0
    os.mkfifo("fifo")
    received = []
    reader = threading.Thread(target=lambda: received.append(Path("fifo").read_bytes()), daemon=True)
    reader.start()
    assert main(["eval", "log.jsonl", "--out", "fifo"]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [Path("report.json").read_bytes()]
    assert Path("fifo").is_fifo()
    assert not list(Path().glob(".revla.*.tmp"))


def test_a_json_out_that_links_to_a_file_is_written_through(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_out_inputs()
    assert main(["schedule", "--config", "s.json", "--out", "plain.json"]) == 0
    _write(Path("target.json"), PREVIOUS)
    os.symlink("target.json", "link.json")
    assert main(["schedule", "--config", "s.json", "--out", "link.json"]) == 0
    assert os.readlink("link.json") == "target.json"
    assert Path("target.json").read_bytes() == Path("plain.json").read_bytes()


def test_a_regular_json_out_is_a_new_file_so_a_hard_link_keeps_the_earlier_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_out_inputs()
    _write(Path("out.json"), PREVIOUS)
    os.link("out.json", "kept.json")
    assert main(["schedule", "--config", "s.json", "--out", "out.json"]) == 0
    assert Path("kept.json").read_bytes() == PREVIOUS
    assert json.loads(Path("out.json").read_bytes())["total_steps"] == 12


_RUN_CLI_UNDER_A_FILE_SIZE_CAP = """
import resource, runpy, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the cap fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, ({cap}, {cap}))
sys.path.insert(0, {root!r})
sys.argv = ["revla", *{argv!r}]
runpy.run_module("revla.cli", run_name="__main__")
"""
FILE_SIZE_CAP = 64  # bytes; every artifact below is larger
_TINY_LAB = ["lab", "--variant", "D_flip", "--pretrain-steps", "4", "--finetune-steps", "4",
             "--total-steps", "4", "--stage-length", "2"]
_DINO_MERGE = ["merge", "c.st", "o.st", "--select", "vision.dino.*", "--alpha"]


def _inside_the_copied_tensor(out: Path) -> int:
    """A cap half way into ``llm.w`` of the checkpoint ``out``: the tensor a DINO merge leaves in
    its file, so the save copies it in the kernel."""
    (llm,) = (meta for meta in load_checkpoint(out).metas() if meta.name == "llm.w")
    data_start = 8 + struct.unpack("<Q", out.read_bytes()[:8])[0]
    return data_start + sum(llm.byte_range) // 2


# each command's earlier run, then a run that would write other bytes to the same --out, given last,
# then, where it is not FILE_SIZE_CAP, the cap as a function of the earlier run's --out
_CAPPED_RUNS = {
    "inspect": (["inspect", "c.st", "--out", "out.json"], ["inspect", "o.st", "--out", "out.json"]),
    "eval": (["eval", "log.jsonl", "--out", "out.json"],
             ["eval", "log.jsonl", "--metric", "grasp", "--out", "out.json"]),
    "schedule": (["schedule", "--config", "s.json", "--out", "out.json"],
                 ["schedule", "--total-steps", "20", "--stage-length", "5", "--out", "out.json"]),
    "merge": (["merge", "c.st", "o.st", "--alpha", "0.5", "--out", "out.st"],
              ["merge", "c.st", "o.st", "--alpha", "0.3", "--out", "out.st"]),
    "lab": ([*_TINY_LAB, "--seed", "7", "--out", "out"], [*_TINY_LAB, "--seed", "3", "--out", "out"]),
    "merge-copy": ([*_DINO_MERGE, "0.5", "--out", "out.st"], [*_DINO_MERGE, "0.3", "--out", "out.st"],
                   _inside_the_copied_tensor),
}


def _fail_under_a_file_size_cap(argv: list[str], cap: int) -> None:
    """Run ``revla argv`` in a child whose files cannot grow past ``cap`` bytes; it must exit 1 with
    one line."""
    root = str(Path(revla.__file__).resolve().parent.parent)
    code = _RUN_CLI_UNDER_A_FILE_SIZE_CAP.format(cap=cap, root=root, argv=argv)
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 1
    assert result.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"


def _run_under_a_file_size_cap(argv: list[str], cap: int) -> None:
    """``_fail_under_a_file_size_cap``, which must also leave the working directory's tree as it was."""
    before = _tree()
    _fail_under_a_file_size_cap(argv, cap)
    assert _tree() == before  # no file changed, and no .revla.*.tmp was left


@pytest.mark.parametrize("command", _CAPPED_RUNS)
def test_a_write_cut_short_leaves_every_earlier_file_as_it_was(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _write_out_inputs()
    earlier, capped, *cap_of = _CAPPED_RUNS[command]
    assert main(earlier) == 0
    capsys.readouterr()
    out = Path(earlier[-1])
    cap = cap_of[0](out) if cap_of else FILE_SIZE_CAP
    assert min(p.stat().st_size for p in (out.iterdir() if out.is_dir() else [out])) > cap
    _run_under_a_file_size_cap(capped, cap)


LAB_FILE_SIZE_CAP = 1300  # bytes: the seed-3 lab below writes a smaller shared.json, then a larger report
_CAPPED_LAB = ["lab", "--variant", "D_flip", "--pretrain-steps", "20", "--finetune-steps", "20",
               "--total-steps", "40"]


def test_a_lab_cut_short_after_a_file_that_fits_leaves_the_earlier_run_whole(tmp_path, monkeypatch, capsys):
    # the lab's files are written as one set: a report that fails after shared.json was written whole
    # must not leave the new shared.json beside the earlier run's report
    monkeypatch.chdir(tmp_path)
    assert main([*_CAPPED_LAB, "--seed", "3", "--out", "uncapped"]) == 0
    sizes = {p.name: p.stat().st_size for p in Path("uncapped").iterdir()}
    assert sizes["shared.json"] < LAB_FILE_SIZE_CAP < sizes["report_D_flip.json"]
    shutil.rmtree("uncapped")
    assert main([*_CAPPED_LAB, "--seed", "7", "--out", "out"]) == 0
    capsys.readouterr()
    _run_under_a_file_size_cap([*_CAPPED_LAB, "--seed", "3", "--out", "out"], LAB_FILE_SIZE_CAP)


def test_a_lab_cut_short_leaves_an_in_place_output_as_it_was(tmp_path, monkeypatch, capsys):
    # shared.json comes first in the lab's table of files, but as a symbolic link it is written in place,
    # so only after every renamed file is staged: a report that fails must leave the link's target alone
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    os.symlink(os.path.join("..", "target.json"), Path("out", "shared.json"))
    assert main([*_CAPPED_LAB, "--seed", "7", "--out", "out"]) == 0
    capsys.readouterr()
    earlier = Path("target.json").read_bytes()
    _run_under_a_file_size_cap([*_CAPPED_LAB, "--seed", "3", "--out", "out"], LAB_FILE_SIZE_CAP)
    assert Path("target.json").read_bytes() == earlier
    assert Path("out", "shared.json").is_symlink()


def test_a_lab_cut_short_while_an_in_place_output_is_written_leaves_it_cut(tmp_path, monkeypatch, capsys):
    # the one exception to a lab written whole or not at all: a report inside --out that is a symbolic
    # link is written through in place, last, so a failure while it is written leaves its target holding
    # the new run's first bytes, while every renamed file keeps the earlier run's bytes
    monkeypatch.chdir(tmp_path)
    assert main([*_CAPPED_LAB, "--seed", "3", "--out", "uncapped"]) == 0
    new_report = Path("uncapped", "report_D_flip.json").read_bytes()
    assert len(new_report) > LAB_FILE_SIZE_CAP
    shutil.rmtree("uncapped")
    Path("out").mkdir()
    os.symlink(os.path.join("..", "target.json"), Path("out", "report_D_flip.json"))
    assert main([*_CAPPED_LAB, "--seed", "7", "--out", "out"]) == 0
    capsys.readouterr()
    renamed = {p.name: p.read_bytes() for p in Path("out").iterdir() if not p.is_symlink()}
    _fail_under_a_file_size_cap([*_CAPPED_LAB, "--seed", "3", "--out", "out"], LAB_FILE_SIZE_CAP)
    assert Path("target.json").read_bytes() == new_report[:LAB_FILE_SIZE_CAP]
    assert Path("out", "report_D_flip.json").is_symlink()
    assert {p.name: p.read_bytes() for p in Path("out").iterdir() if not p.is_symlink()} == renamed
