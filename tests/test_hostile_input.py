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
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from synthetic_episodes import expand_cell, write_episode_log

from revla.cli import main
from revla.tensor_store import Checkpoint, save_checkpoint

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
