"""Success-rate accounting for manipulation evaluation episodes.

Consumes newline-delimited JSON episode logs (one grasp/lift outcome per
line) and aggregates them into per-policy success tables with single /
distractor / total marginals, partial-success (grasp vs lift) summaries,
and relative-improvement figures. Rates are exact ratios of integer counts
until presentation, where they are rounded half-up to three decimals;
marginals are always episode-weighted means of raw counts, never averages
of rounded cells, so published-style tables can be recomputed from raw
records without trusting printed totals.

Simulation is deliberately out of scope: any simulator that can emit the
log schema below can be scored here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

OOD_OBJECTS = ("pear", "mustard_bottle", "tomato_can")
IN_DOMAIN_OBJECT = "coke_can"
SUB_SETTINGS = ("horizontal", "vertical", "standing")

SETTING_SINGLE = "single"
SETTING_DISTRACTOR = "distractor"
SETTINGS = (SETTING_SINGLE, SETTING_DISTRACTOR)

PROTOCOL_VISUAL_MATCHING = "visual_matching"
PROTOCOL_VARIANT_AGGREGATION = "variant_aggregation"
PROTOCOLS = (PROTOCOL_VISUAL_MATCHING, PROTOCOL_VARIANT_AGGREGATION)

METRIC_LIFT = "lift"
METRIC_GRASP = "grasp"
METRICS = (METRIC_LIFT, METRIC_GRASP)

# (object, setting, protocol): the three unseen objects alone and among
# distractors, plus the in-domain can alone under both protocols
SCENARIOS = frozenset(
    [(obj, setting, PROTOCOL_VISUAL_MATCHING) for obj in OOD_OBJECTS for setting in SETTINGS]
    + [(IN_DOMAIN_OBJECT, SETTING_SINGLE, protocol) for protocol in PROTOCOLS]
)

LOG_FIELDS = (
    "policy",
    "object",
    "setting",
    "protocol",
    "episode",
    "grasp_success",
    "lift_success",
    "sub_setting",
)


class EvalLogError(ValueError):
    """An episode log violates the record schema or its invariants."""


class UnknownScenarioError(ValueError):
    """Records reference scenarios outside ``SCENARIOS``."""


class DuplicateEpisodeError(ValueError):
    """The same (policy, scenario, episode id) appears more than once."""


def round_rate(successes: int, episodes: int) -> float:
    """Exact ratio of counts, rounded half-up to three decimals."""
    if episodes <= 0:
        raise ValueError(f"episode count must be positive, got {episodes}")
    ratio = Decimal(successes) / Decimal(episodes)
    return float(ratio.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def relative_improvement(candidate: float, baseline: float) -> int:
    """Percentage change of ``candidate`` over ``baseline``, nearest integer."""
    if baseline <= 0:
        raise ValueError(f"baseline rate must be positive, got {baseline}")
    pct = 100 * (Decimal(repr(candidate)) - Decimal(repr(baseline))) / Decimal(repr(baseline))
    return int(pct.quantize(Decimal(1), rounding=ROUND_HALF_UP))


class _EpisodeFields(NamedTuple):
    policy: str
    target_object: str
    setting: str
    protocol: str
    episode: int
    grasp_success: bool
    lift_success: bool
    sub_setting: str | None = None


class EpisodeRecord(_EpisodeFields):
    """One rollout's outcome; lifting implies a grasp happened first.

    An immutable named tuple: it indexes and compares like a plain tuple of
    its field values.
    """

    __slots__ = ()

    def __new__(
        cls,
        policy: str,
        target_object: str,
        setting: str,
        protocol: str,
        episode: int,
        grasp_success: bool,
        lift_success: bool,
        sub_setting: str | None = None,
    ) -> "EpisodeRecord":
        if not policy:
            raise ValueError("policy must be a non-empty string")
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
        if episode < 0:
            raise ValueError(f"episode id must be non-negative, got {episode}")
        if lift_success and not grasp_success:
            raise ValueError("lift_success without grasp_success (a lift requires a grasp)")
        return tuple.__new__(
            cls,
            (policy, target_object, setting, protocol, episode, grasp_success, lift_success,
             sub_setting),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "EpisodeRecord":
        # the inherited ``_make`` and ``_replace`` would skip the checks above
        return cls(*iterable)

    def to_json_obj(self) -> dict:
        return {
            "policy": self.policy,
            "object": self.target_object,
            "setting": self.setting,
            "protocol": self.protocol,
            "episode": self.episode,
            "grasp_success": self.grasp_success,
            "lift_success": self.lift_success,
            "sub_setting": self.sub_setting,
        }


@dataclass(frozen=True)
class Cell:
    """Raw counts backing one table cell."""

    episodes: int = 0
    grasp_successes: int = 0
    lift_successes: int = 0

    def successes(self, metric: str) -> int:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        return self.lift_successes if metric == METRIC_LIFT else self.grasp_successes

    def rate(self, metric: str) -> float:
        return round_rate(self.successes(metric), self.episodes)


def _sum_cells(cells: Iterable[Cell]) -> Cell:
    episodes = grasps = lifts = 0
    for cell in cells:
        episodes += cell.episodes
        grasps += cell.grasp_successes
        lifts += cell.lift_successes
    return Cell(episodes, grasps, lifts)


CellKey = tuple[str, str, str, str, str | None]  # policy, object, setting, protocol, sub
_CELL_KEY_FIELDS = ("policy", "target_object", "setting", "protocol", "sub_setting")


def _tally(
    records: Iterable[EpisodeRecord],
    key: Callable[[EpisodeRecord], Hashable],
    duplicates: set[tuple] | None = None,
) -> dict:
    """Episode, grasp and lift counts of ``records`` grouped by ``key``.

    With ``duplicates`` given, each ``(*key, episode)`` that occurs more
    than once is added to it.
    """
    counts: dict[Hashable, tuple[int, int, int]] = {}
    episode_ids: dict[Hashable, set[int]] = {}
    for r in records:
        k = key(r)
        episodes, grasps, lifts = counts.get(k, (0, 0, 0))
        counts[k] = (episodes + 1, grasps + r.grasp_success, lifts + r.lift_success)
        if duplicates is not None:
            ids = episode_ids[k] if episodes else episode_ids.setdefault(k, set())
            if r.episode in ids:
                duplicates.add((*k, r.episode))
            ids.add(r.episode)
    return {k: Cell(*c) for k, c in counts.items()}


@dataclass(frozen=True)
class SuccessTable:
    """Aggregated counts at full resolution plus rounded-rate views."""

    metric: str
    cells: Mapping[CellKey, Cell]

    @cached_property
    def _by_policy(self) -> dict[str, list[tuple[CellKey, Cell]]]:
        grouped: dict[str, list[tuple[CellKey, Cell]]] = {}
        for key, cell in self.cells.items():
            grouped.setdefault(key[0], []).append((key, cell))
        return grouped

    def policies(self) -> list[str]:
        return sorted(self._by_policy)

    def counts(
        self,
        policy: str,
        target_object: str | None = None,
        setting: str | None = None,
        protocol: str | None = None,
        sub_setting: str | None = None,
    ) -> Cell:
        """Summed raw counts over the policy's cells matching the given filters."""
        return _sum_cells(
            cell for (_, obj, sett, proto, sub), cell in self._by_policy.get(policy, ())
            if (target_object is None or obj == target_object)
            and (setting is None or sett == setting)
            and (protocol is None or proto == protocol)
            and (sub_setting is None or sub == sub_setting)
        )

    def rate(self, policy: str, target_object: str, setting: str, **filters) -> float:
        return self.counts(policy, target_object, setting, **filters).rate(self.metric)

    def total_rate(self, policy: str) -> float:
        return self.counts(policy).rate(self.metric)

    def sub_setting_rates(self, policy: str, target_object: str, protocol: str) -> dict[str, float]:
        """Per-sub-setting rates plus their episode-weighted average."""
        out = {}
        for sub in sorted({key[4] for key, _ in self._by_policy.get(policy, ()) if key[4]}):
            counts = self.counts(policy, target_object, protocol=protocol, sub_setting=sub)
            if counts.episodes:
                out[sub] = counts.rate(self.metric)
        out["average"] = self.counts(policy, target_object, protocol=protocol).rate(self.metric)
        return out

    def to_dict(self) -> dict:
        cells = []
        for key in sorted(self.cells, key=lambda k: tuple(str(p) for p in k)):
            policy, obj, setting, protocol, sub = key
            cell = self.cells[key]
            cells.append({
                "policy": policy,
                "object": obj,
                "setting": setting,
                "protocol": protocol,
                "sub_setting": sub,
                "episodes": cell.episodes,
                "grasp_successes": cell.grasp_successes,
                "lift_successes": cell.lift_successes,
                "rate": cell.rate(self.metric),
            })
        policies = {}
        for policy in self.policies():
            total = self.counts(policy)
            policies[policy] = {
                "total": total.rate(self.metric),
                "grasp_rate": total.rate(METRIC_GRASP),
                "lift_rate": total.rate(METRIC_LIFT),
            }
            for setting in SETTINGS:
                counts = self.counts(policy, setting=setting)
                policies[policy][setting] = counts.rate(self.metric) if counts.episodes else None
        return {"metric": self.metric, "cells": cells, "policies": policies}


def aggregate(records: Sequence[EpisodeRecord], success_field: str = METRIC_LIFT) -> SuccessTable:
    """Count successes per (policy, object, setting, protocol, sub-setting).

    Every record must reference a scenario of ``SCENARIOS`` and no
    (policy, scenario, episode) may repeat. Episode counts are taken from
    the log itself.
    """
    if success_field not in METRICS:
        raise ValueError(f"unknown metric {success_field!r}; expected one of {METRICS}")
    if not records:
        raise EvalLogError("no records")
    duplicates: set[tuple] = set()
    cells = _tally(records, attrgetter(*_CELL_KEY_FIELDS), duplicates)
    unknown = sorted({key[1:4] for key in cells} - SCENARIOS)
    if unknown:
        raise UnknownScenarioError(f"records reference undeclared scenarios: {unknown}")
    # sub_setting may be None in one key and a string in another
    dupes = sorted(duplicates, key=lambda k: [(p is not None, p) for p in k])
    if dupes:
        raise DuplicateEpisodeError(f"duplicate episode ids: {dupes}")
    return SuccessTable(success_field, cells)


def partial_success_summary(records: Sequence[EpisodeRecord]) -> dict[str, tuple[float, float]]:
    """Overall (grasp rate, lift rate) per policy across all records."""
    if not records:
        raise EvalLogError("no records")
    return {
        policy: (cell.rate(METRIC_GRASP), cell.rate(METRIC_LIFT))
        for policy, cell in sorted(_tally(records, attrgetter("policy")).items())
    }


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


def _record_from_json_obj(obj: dict) -> EpisodeRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    missing = [f for f in LOG_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    extra = sorted(set(obj) - set(LOG_FIELDS))
    if extra:
        raise ValueError(f"unexpected fields: {extra}")
    if not isinstance(obj["policy"], str):
        raise ValueError("policy must be a string")
    if not isinstance(obj["object"], str):
        raise ValueError("object must be a string")
    if not isinstance(obj["episode"], int) or isinstance(obj["episode"], bool):
        raise ValueError("episode must be an integer")
    for flag in ("grasp_success", "lift_success"):
        if not isinstance(obj[flag], bool):
            raise ValueError(f"{flag} must be a boolean")
    if obj["sub_setting"] is not None and not isinstance(obj["sub_setting"], str):
        raise ValueError("sub_setting must be a string or null")
    return EpisodeRecord(
        policy=obj["policy"],
        target_object=obj["object"],
        setting=obj["setting"],
        protocol=obj["protocol"],
        episode=obj["episode"],
        grasp_success=obj["grasp_success"],
        lift_success=obj["lift_success"],
        sub_setting=obj["sub_setting"],
    )


_JSON_WHITESPACE = " \t\n\r"
_log_values = itemgetter(*LOG_FIELDS)
_SETTING_CONSTANTS = {setting: setting for setting in SETTINGS}
_PROTOCOL_CONSTANTS = {protocol: protocol for protocol in PROTOCOLS}


def parse_episode_log(path: str | Path) -> list[EpisodeRecord]:
    """Read a newline-delimited JSON episode log, naming every bad line.

    A line holding exactly one valid record is decoded by the C scanner
    behind ``json.loads`` and checked in place. Its policy, object and
    sub-setting strings are shared with earlier records of the same call,
    and its setting and protocol are the module's constants. Any other
    non-blank line goes through ``json.loads`` and
    ``_record_from_json_obj``, which accept the same records and word
    every message. A line that is not UTF-8, or is nested deeper than the
    recursion limit, is a bad line like any other.
    """
    records: list[EpisodeRecord] = []
    problems: list[str] = []
    scan_once = json.decoder.JSONDecoder().scan_once
    shared: dict[str | None, str | None] = {}
    share = shared.setdefault
    new_record = tuple.__new__
    # Bytes that are not UTF-8 come through as surrogate escapes, and only they do.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:  # undo the escapes, so that decoding names the first bad byte
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    problems.append(f"line {lineno}: {exc}")
                    continue
            try:
                obj, end = scan_once(line, 0)
                if type(obj) is dict and len(obj) == len(LOG_FIELDS):
                    policy, target, setting, protocol, episode, grasp, lift, sub = _log_values(obj)
                else:
                    policy = None
            except (StopIteration, ValueError, KeyError, RecursionError):
                policy = None
            if (
                type(policy) is str and policy
                and not line[end:].strip(_JSON_WHITESPACE)
                and type(target) is str
                and type(setting) is str and (setting := _SETTING_CONSTANTS.get(setting))
                and type(protocol) is str and (protocol := _PROTOCOL_CONSTANTS.get(protocol))
                and type(episode) is int and episode >= 0
                and type(grasp) is bool
                and type(lift) is bool and (grasp or not lift)
                and (sub is None or type(sub) is str)
            ):
                records.append(new_record(EpisodeRecord, (
                    share(policy, policy), share(target, target), setting, protocol,
                    episode, grasp, lift, share(sub, sub),
                )))
                continue
            if not line.strip():
                continue
            try:
                records.append(_record_from_json_obj(json.loads(line)))
            except (json.JSONDecodeError, ValueError, RecursionError) as exc:
                problems.append(f"line {lineno}: {exc}")
    if problems:
        raise EvalLogError(f"invalid episode log {path}:\n" + "\n".join(problems))
    return records


def write_episode_log(records: Iterable[EpisodeRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_obj(), sort_keys=True) + "\n")


def format_table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, a dash rule under the header row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _fmt(rate: float) -> str:
    return f"{rate:.3f}"


def render_ood_table(table: SuccessTable) -> str:
    """Text table: per-object cells under each setting plus marginals.

    Marginals cover the out-of-domain objects only, so mixing in-domain
    records into the same log does not skew this view.
    """

    def rate_text(counts: Cell) -> str:
        return _fmt(counts.rate(table.metric)) if counts.episodes else "-"

    header = ["policy"]
    for setting in SETTINGS:
        header.extend(f"{obj}/{setting}" for obj in OOD_OBJECTS)
    header.extend(["single", "distractor", "total"])
    rows = [tuple(header)]
    for policy in table.policies():
        row = [policy]
        row += [rate_text(table.counts(policy, obj, setting)) for setting in SETTINGS for obj in OOD_OBJECTS]
        row += [
            rate_text(_sum_cells(table.counts(policy, obj, setting) for obj in OOD_OBJECTS))
            for setting in SETTINGS + (None,)
        ]
        rows.append(tuple(row))
    return format_table(rows)


def render_in_domain_table(table: SuccessTable) -> str:
    """Text table of the in-domain object's per-sub-setting rates grouped by protocol."""
    sections = []
    for protocol in PROTOCOLS:
        policies = [
            p for p in table.policies()
            if table.counts(p, IN_DOMAIN_OBJECT, protocol=protocol).episodes
        ]
        if not policies:
            continue
        rows = [("policy",) + SUB_SETTINGS + ("average",)]
        for policy in policies:
            rates = table.sub_setting_rates(policy, IN_DOMAIN_OBJECT, protocol)
            rows.append(
                (policy,)
                + tuple(_fmt(rates[s]) if s in rates else "-" for s in SUB_SETTINGS)
                + (_fmt(rates["average"]),)
            )
        sections.append(f"[{protocol}]\n" + format_table(rows))
    return "\n".join(sections)


def render_partial_success(summary: Mapping[str, tuple[float, float]]) -> str:
    rows = [("policy", "grasp", "lift")]
    for policy, (grasp, lift) in summary.items():
        rows.append((policy, _fmt(grasp), _fmt(lift)))
    return format_table(rows)
