"""Synthetic episode records for tests: one cell's records from its success counts, and their log."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from revla.ood_eval import LOG_FIELDS, PROTOCOL_VISUAL_MATCHING, EpisodeRecord


def expand_cell(
    policy: str,
    target_object: str,
    setting: str,
    *,
    episodes: int,
    lift_successes: int,
    grasp_successes: int | None = None,
    protocol: str = PROTOCOL_VISUAL_MATCHING,
    sub_setting: str | None = None,
    first_episode: int = 0,
) -> list[EpisodeRecord]:
    """Synthesize per-episode records realizing the given success counts.

    The first ``lift_successes`` episodes grasp and lift, the next
    ``grasp_successes - lift_successes`` grasp only, the rest fail.
    """
    if grasp_successes is None:
        grasp_successes = lift_successes
    if not 0 <= lift_successes <= grasp_successes <= episodes:
        raise ValueError(
            f"need 0 <= lift ({lift_successes}) <= grasp ({grasp_successes}) "
            f"<= episodes ({episodes})"
        )
    records = []
    for i in range(episodes):
        records.append(
            EpisodeRecord(
                policy=policy,
                target_object=target_object,
                setting=setting,
                protocol=protocol,
                episode=first_episode + i,
                grasp_success=i < grasp_successes,
                lift_success=i < lift_successes,
                sub_setting=sub_setting,
            )
        )
    return records


def to_json_obj(record: EpisodeRecord) -> dict:
    """The object of ``record``'s log line: its fields under the log's names, in the log's order."""
    return dict(zip(LOG_FIELDS, record))


def write_episode_log(records: Iterable[EpisodeRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(to_json_obj(record), sort_keys=True) + "\n")
