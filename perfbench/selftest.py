#!/usr/bin/env python3
"""Self-test of the benchmark's merge oracle and failure counting.

    python3 perfbench/selftest.py

Runs ``revla merge`` on small generated checkpoints three times: once
intact, and twice with one byte of the merged output flipped before the
check (inside a blended tensor, then inside a copied one). The intact run
must pass and each corrupted run must be counted as failed. Exits 0 when
the oracle behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import struct
import sys
from pathlib import Path

import run


def flip_byte_in(tensor_prefix: str):
    """A corruption that flips one byte inside the first tensor named ``tensor_prefix*``."""
    def corrupt(out: Path) -> None:
        with open(out, "r+b") as fh:
            (header_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(header_len))
            name = min(n for n in header if n.startswith(tensor_prefix))
            offset = 8 + header_len + header[name]["data_offsets"][0] + 5
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x01]))
    return corrupt


def main() -> int:
    if not (run.ROOT / "src" / "revla" / "__init__.py").is_file():
        print(f"error: no revla sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    base = run.ROOT / ".perfbench_work"
    inputs, work = base / "inputs", base / f"selftest_{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    try:
        merge = next(op for op in run.ckpt_ops(inputs, 0, False) if op.name == "merge")
        runner = run.Runner(work, env)
        runner.child(merge)
        intact_ok = not runner.failures
        cases = {"blended": "vision.dino.", "copied": "llm."}
        for label, prefix in cases.items():
            corrupt = flip_byte_in(prefix)

            def check(out: Path, corrupt=corrupt) -> str:
                corrupt(out)
                return merge.check(out)

            before = len(runner.failures)
            runner.child(dataclasses.replace(merge, check=check, name=f"merge_{label}"))
            print(f"corrupted {label} tensor: counted as failed = {len(runner.failures) > before}")
        counted = len(runner.failures) == (0 if intact_ok else 1) + len(cases)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"intact merge passed = {intact_ok}")
    ok = intact_ok and counted and runner.attempted == 1 + len(cases)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
