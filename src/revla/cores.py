"""Run a function over a list of items on every usable core, with ``os.fork`` and a pipe.

Forked workers run every slice of the items but the first, which the calling
process runs itself, and each pickles its results back through a pipe. No
``multiprocessing``: a forked worker starts from the caller's state, so the
function may be a closure over anything the caller holds. This module does
not import numpy, so the commands that never use it can fork through it.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """The cores this process may run on, or 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class ByteRange(io.RawIOBase):
    """Bytes ``start:stop`` of an open file, read by ``os.preadv``, which moves no file offset.

    Processes forked with the file open may so read it at once. Eval reads each range of an
    episode log, in its own process, line by line through ``io.BufferedReader``: a short read
    goes on from where it stopped at the next call, and a read at ``stop`` returns no bytes.
    """

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = os.preadv(self._fd, [memoryview(buffer)[: self._stop - self._pos]], self._pos)
        self._pos += count
        return count


def _run_in_worker(fn: Callable[[T], R], items: Sequence[T], write_fd: int) -> NoReturn:
    """In a forked worker: pickle ``(True, results)`` or ``(False, exception)`` to the pipe, then exit.

    ``os._exit`` skips the caller's cleanup (atexit hooks, buffered stdio,
    pending ``finally`` blocks) that the worker inherited at the fork.
    """
    import pickle

    status = 1
    try:
        try:
            outcome = (True, [fn(item) for item in items])
        except BaseException as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def map_on_cores(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, split into contiguous slices, one per usable core.

    Forked workers run every slice but the first, which the calling process
    runs itself. A worker's exception is re-raised here as it was raised
    there. If the caller's slice fails, the workers are killed. Every worker
    is reaped before this returns or raises. A worker's result is unpickled
    as it is read, so neither side holds it whole in pickled form; one that
    is empty or cut short is an error.
    """
    k = min(len(items), usable_cores())
    if k < 2:
        return [fn(item) for item in items]
    import pickle  # here, not at load: a call that forks no worker needs none

    cuts = [len(items) * i // k for i in range(k + 1)]
    slices = [items[start:stop] for start, stop in zip(cuts, cuts[1:])]
    # numpy's OpenBLAS shuts its thread pool down before a fork (a pthread_atfork
    # handler) and restarts it on use, so forking after numpy has run is safe
    workers: dict[int, BinaryIO] = {}  # pid -> read end of the pipe it writes its outcome to
    try:
        for part in slices[1:]:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write_fd)
                raise
            if pid == 0:
                _run_in_worker(fn, part, write_fd)
            os.close(write_fd)
            workers[pid] = pipe
        results = [fn(item) for item in slices[0]]
        for pid, pipe in list(workers.items()):
            with pipe:
                try:
                    outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # empty, or cut short
                    outcome = None
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if outcome is None:
                raise RuntimeError(f"worker {pid} sent no result (wait status {status})")
            ok, value = outcome
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        if workers:
            import signal  # only a failed call needs it; importing it costs the lab child 40 KB

            for pid, pipe in workers.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
