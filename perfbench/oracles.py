"""Checks that each CLI artifact is correct.

Every check raises ``OracleError`` naming the first mismatch, and otherwise
returns the sha256 of the artifact's bytes, so callers can also require two
runs of an operation to produce identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import CheckpointPair, EpisodeLog

_CHUNK = 1 << 22

LAB_ARTIFACTS = ("comparison.txt",) + tuple(
    f"report_{v}.json" for v in ("D_flip", "D_gradual", "DS_flip", "DS_gradual"))


class OracleError(Exception):
    """An artifact differs from its reference."""


def check_merge(out: Path, pair: CheckpointPair) -> str:
    """The merged file is the canonical header plus one tensor per digest."""
    whole = hashlib.sha256()
    with open(out, "rb") as fh:
        header = fh.read(len(pair.header))
        whole.update(header)
        if header != pair.header:
            raise OracleError(f"{out.name}: header differs from the canonical one")
        entries = json.loads(header[8:])
        for name in pair.names:
            start, end = entries[name]["data_offsets"]
            digest = hashlib.sha256()
            remaining = end - start
            while remaining:
                chunk = fh.read(min(_CHUNK, remaining))
                if not chunk:
                    raise OracleError(f"{out.name}: truncated inside {name}")
                digest.update(chunk)
                whole.update(chunk)
                remaining -= len(chunk)
            if digest.hexdigest() != pair.merged_digests[name]:
                raise OracleError(f"{out.name}: tensor {name} differs from the reference merge")
        if fh.read(1):
            raise OracleError(f"{out.name}: trailing bytes after the data section")
    return whole.hexdigest()


def check_inspect(out: Path, pair: CheckpointPair) -> str:
    """Per-tensor digests and the canonical digest match the generator's."""
    raw = out.read_bytes()
    report = json.loads(raw)
    got = {row["name"]: row["sha256"] for row in report["tensors"]}
    if got != pair.current_digests:
        wrong = sorted(n for n in pair.current_digests if got.get(n) != pair.current_digests[n])
        raise OracleError(f"{out.name}: tensor digests differ, first {(wrong or sorted(got))[0]}")
    if report["canonical_sha256"] != pair.current_sha256:
        raise OracleError(f"{out.name}: canonical_sha256 differs from the generated file's")
    return hashlib.sha256(raw).hexdigest()


def check_lab(out: Path) -> str:
    """All four variants restore the encoder bitwise; returns a digest of every artifact."""
    digest = hashlib.sha256()
    for name in LAB_ARTIFACTS:
        raw = (out / name).read_bytes()
        digest.update(raw)
        if name.endswith(".json") and json.loads(raw)["encoder_bitwise_reverted"] is not True:
            raise OracleError(f"{name}: encoder_bitwise_reverted is not true")
    return digest.hexdigest()


def check_eval(out: Path, log: EpisodeLog) -> str:
    """Every cell's counts equal the generator's tallies."""
    raw = out.read_bytes()
    cells = json.loads(raw)["table"]["cells"]
    got = {
        (c["policy"], c["object"], c["setting"], c["protocol"], c["sub_setting"]):
            [c["episodes"], c["grasp_successes"], c["lift_successes"]]
        for c in cells
    }
    if len(cells) != len(got) or got != log.tallies:
        wrong = sorted((k for k in log.tallies.keys() | got.keys()
                        if got.get(k) != log.tallies.get(k)), key=str)
        raise OracleError(f"{out.name}: cell counts differ from the log, first {wrong[:1]}")
    return hashlib.sha256(raw).hexdigest()
