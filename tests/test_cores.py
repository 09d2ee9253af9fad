"""The fork helper that the lab and eval share: results, failures and reaping."""

from __future__ import annotations

import io
import os
import pickle
import re
import time

import pytest

from revla import cores
from revla.cores import map_on_cores


class Failed(Exception):
    """A failure carrying attributes, which must survive the trip from a worker."""

    def __init__(self, item, detail):
        super().__init__(item, detail)
        self.item, self.detail = item, detail


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so a call with two items forks one worker on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_keep_item_order_and_the_caller_runs_the_first_slice(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    caller = os.getpid()
    results = map_on_cores(lambda item: (item * item, os.getpid()), list(range(7)))
    assert [square for square, _ in results] == [item * item for item in range(7)]
    pids = [pid for _, pid in results]
    assert pids[:2] == [caller, caller]  # slices of 2, 2 and 3 items
    assert len(set(pids[2:4])) == 1 and len(set(pids[4:])) == 1
    assert len({caller, pids[2], pids[4]}) == 3


def test_one_usable_core_or_one_item_runs_in_the_caller(monkeypatch):
    caller = os.getpid()
    assert map_on_cores(lambda item: os.getpid(), [0]) == [caller]
    assert map_on_cores(lambda item: os.getpid(), []) == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert map_on_cores(lambda item: os.getpid(), [0, 1, 2]) == [caller] * 3


def test_a_failure_in_a_worker_is_raised_in_the_caller_unchanged(two_cores):
    caller = os.getpid()

    def fail_in_worker(item):
        if os.getpid() != caller:
            raise Failed(item, {"step": 17, "loss": float("inf")})
        return item

    with pytest.raises(Failed) as info:
        map_on_cores(fail_in_worker, [0, 1])
    assert type(info.value) is Failed
    assert (info.value.item, info.value.detail) == (1, {"step": 17, "loss": float("inf")})
    assert str(info.value) == "(1, {'step': 17, 'loss': inf})"


def test_a_failure_in_the_callers_slice_kills_and_reaps_the_worker(two_cores):
    caller = os.getpid()
    read_fd, write_fd = os.pipe()
    worker = []

    def hang_in_worker_fail_in_caller(item):
        if os.getpid() != caller:
            os.write(write_fd, f"{os.getpid()}\n".encode())
            time.sleep(60)
        worker.append(int(os.read(read_fd, 64)))
        raise ValueError("caller's slice failed")

    start = time.monotonic()
    try:
        with pytest.raises(ValueError, match="caller's slice failed"):
            map_on_cores(hang_in_worker_fail_in_caller, [0, 1])
    finally:
        os.close(read_fd)
        os.close(write_fd)
    assert time.monotonic() - start < 30  # the worker was killed, not waited for
    with pytest.raises(ProcessLookupError):
        os.kill(worker[0], 0)


def test_a_worker_that_exits_without_a_result_is_an_error(two_cores):
    caller = os.getpid()

    def exit_in_worker(item):
        if os.getpid() != caller:
            os._exit(3)
        return item

    with pytest.raises(RuntimeError) as info:
        map_on_cores(exit_in_worker, [0, 1])
    assert re.fullmatch(r"worker \d+ sent no result \(wait status 768\)", str(info.value))


def test_a_worker_that_dies_while_writing_its_result_is_an_error(two_cores, monkeypatch):
    def write_half_then_exit(fn, items, write_fd):
        payload = pickle.dumps((True, [fn(item) for item in items]), pickle.HIGHEST_PROTOCOL)
        os.write(write_fd, payload[: len(payload) // 2])
        os._exit(0)

    monkeypatch.setattr(cores, "_run_in_worker", write_half_then_exit)
    with pytest.raises(RuntimeError) as info:
        map_on_cores(lambda item: "x" * 100 + str(item), [0, 1])
    assert re.fullmatch(r"worker \d+ sent no result \(wait status 0\)", str(info.value))


@pytest.fixture
def open_data(tmp_path):
    """A file of 64 KiB of counting bytes, open unbuffered at offset 123, and its bytes."""
    data = bytes(range(256)) * 256
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    with open(path, "rb", buffering=0) as fh:
        fh.seek(123)
        yield fh.fileno(), data


def test_a_byte_range_yields_exactly_its_bytes_and_leaves_the_file_offset(open_data):
    fd, data = open_data
    reader = io.BufferedReader(cores.ByteRange(fd, 1000, 50_000), buffer_size=4096)
    assert reader.read(10) == data[1000:1010]
    assert reader.read() == data[1010:50_000]
    assert reader.read() == b"" and reader.read(1) == b""
    assert os.lseek(fd, 0, os.SEEK_CUR) == 123


def test_a_byte_range_returns_no_bytes_at_its_stop(open_data):
    fd, data = open_data
    whole, empty = cores.ByteRange(fd, 7, 12), cores.ByteRange(fd, 500, 500)
    buffer = bytearray(64)
    assert whole.readinto(buffer) == 5 and bytes(buffer[:5]) == data[7:12]
    assert whole.readinto(buffer) == 0 and whole.read(8) == b""
    assert empty.read(8) == b"" and empty.readall() == b""
    assert os.lseek(fd, 0, os.SEEK_CUR) == 123


def test_a_byte_range_resumes_a_short_read(open_data, monkeypatch):
    fd, data = open_data
    preadv, offsets = os.preadv, []

    def short(fd, buffers, offset):
        offsets.append(offset)
        return preadv(fd, [memoryview(buffers[0])[:1000]], offset)

    monkeypatch.setattr(os, "preadv", short)
    reader = io.BufferedReader(cores.ByteRange(fd, 100, 5600))
    assert reader.read(5000) == data[100:5100]
    assert reader.read() == data[5100:5600]
    assert offsets[:6] == [100, 1100, 2100, 3100, 4100, 5100] and offsets[-1] == 5600
    assert os.lseek(fd, 0, os.SEEK_CUR) == 123
