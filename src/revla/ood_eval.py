"""Success-rate accounting for manipulation evaluation episodes.

Consumes newline-delimited JSON episode logs (one grasp/lift outcome per
line) and aggregates them into per-policy success tables with single /
distractor / total marginals, partial-success (grasp vs lift) summaries,
and relative-improvement figures. Rates are exact ratios of integer counts
until presentation, where they are rounded half-up to three decimals;
marginals are always episode-weighted means of raw counts, never averages
of rounded cells, so published-style tables can be recomputed from raw
records without trusting printed totals.

A parsed log (``EpisodeLog``) keeps each byte range of the file as
columns (a cell index, an episode id and an outcome per episode) beside
the range's per-cell counts, which ``aggregate`` sums; its
``EpisodeRecord``s are built only when they are read.

Simulation is deliberately out of scope: any simulator that can emit the
log schema below can be scored here.
"""

from __future__ import annotations

import io
import json
import operator
import os
import stat
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import METRIC_GRASP, METRIC_LIFT, METRICS, format_table

OOD_OBJECTS = ("pear", "mustard_bottle", "tomato_can")
IN_DOMAIN_OBJECT = "coke_can"
SUB_SETTINGS = ("horizontal", "vertical", "standing")

SETTING_SINGLE = "single"
SETTING_DISTRACTOR = "distractor"
SETTINGS = (SETTING_SINGLE, SETTING_DISTRACTOR)

PROTOCOL_VISUAL_MATCHING = "visual_matching"
PROTOCOL_VARIANT_AGGREGATION = "variant_aggregation"
PROTOCOLS = (PROTOCOL_VISUAL_MATCHING, PROTOCOL_VARIANT_AGGREGATION)

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
        if not isinstance(policy, str):
            raise ValueError("policy must be a string")
        if not isinstance(target_object, str):
            raise ValueError("object must be a string")
        if not isinstance(episode, int) or isinstance(episode, bool):
            raise ValueError("episode must be an integer")
        for flag, value in (("grasp_success", grasp_success), ("lift_success", lift_success)):
            if not isinstance(value, bool):
                raise ValueError(f"{flag} must be a boolean")
        if sub_setting is not None and not isinstance(sub_setting, str):
            raise ValueError("sub_setting must be a string or null")
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


# (grasp_success, lift_success) of each outcome byte, grasp + 2 * lift
_OUTCOME_FLAGS = ((False, False), (True, False), None, (True, True))


class _Range(NamedTuple):
    """The episodes of one byte range of a log, as columns in file order, and their counts per cell.

    ``keys`` holds each cell (policy, object, setting, protocol,
    sub-setting) once, its strings shared by the whole range; ``cells``
    (``array('I')``) holds each episode's index into ``keys``, ``episodes``
    its id (a list: ids are unbounded) and ``outcomes`` its grasp + 2 * lift.
    ``counts`` holds (episodes, grasps, lifts) for each key.
    """

    keys: list[CellKey]
    cells: array
    episodes: list[int]
    outcomes: bytes
    counts: list[tuple[int, int, int]]

    def record(self, i: int) -> EpisodeRecord:
        key = self.keys[self.cells[i]]
        fields = (*key[:4], self.episodes[i], *_OUTCOME_FLAGS[self.outcomes[i]], key[4])
        return tuple.__new__(EpisodeRecord, fields)  # checked when the line was parsed


class EpisodeLog(Sequence[EpisodeRecord]):
    """The records of one or more parsed logs, in file order, held as ``_Range`` columns.

    A read-only sequence: its length, iteration, indexing and slicing
    build each ``EpisodeRecord`` when it is read, and a slice is a list.
    It compares equal to an ``EpisodeLog`` or a list holding the same
    records, and two logs join with ``+``.
    """

    __slots__ = ("_ranges", "_ends")

    def __init__(self, ranges: Iterable[_Range] = ()) -> None:
        self._ranges = tuple(part for part in ranges if part.episodes)
        self._ends = list(accumulate(len(part.episodes) for part in self._ranges))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[EpisodeRecord]:
        for part in self._ranges:
            yield from map(part.record, range(len(part.episodes)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("episode log index out of range")
        k = bisect_right(self._ends, i)
        return self._ranges[k].record(i - (self._ends[k - 1] if k else 0))

    def __add__(self, other):
        if not isinstance(other, EpisodeLog):
            return NotImplemented
        return EpisodeLog(self._ranges + other._ranges)

    def __eq__(self, other):
        if not isinstance(other, (EpisodeLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


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


def _cell_figures(records: Sequence[EpisodeRecord]) -> Iterator[tuple[CellKey, tuple[int, int, int], list]]:
    """``(cell key, (episodes, grasps, lifts), episode ids)`` per cell of each range of an ``EpisodeLog``,
    or of any other sequence of records, which is read once."""
    if isinstance(records, EpisodeLog):
        for part in records._ranges:
            ids: list[list[int]] = [[] for _ in part.keys]
            add = [group.append for group in ids]
            for cell, episode in zip(part.cells, part.episodes):
                add[cell](episode)
            yield from zip(part.keys, part.counts, ids)
        return
    key = attrgetter(*_CELL_KEY_FIELDS)
    groups: dict[CellKey, list] = {}  # cell key -> [grasps, lifts, episode ids]
    for r in records:
        if (group := groups.get(k := key(r))) is None:
            group = groups[k] = [0, 0, []]
        group[0] += r.grasp_success
        group[1] += r.lift_success
        group[2].append(r.episode)
    for k, (grasps, lifts, ids) in groups.items():
        yield k, (len(ids), grasps, lifts), ids


def _tally(records: Sequence[EpisodeRecord], duplicates: set[tuple]) -> dict[CellKey, Cell]:
    """Episode, grasp and lift counts of ``records`` per cell.

    The counts of every range (``_cell_figures``) are summed per cell, and
    each cell's episode ids, from all ranges, are then checked on their own,
    so the only set of ids alive is the current cell's. Each
    ``(*cell key, episode)`` that occurs more than once is added to
    ``duplicates``.
    """
    counts: dict[CellKey, tuple[int, int, int]] = {}
    ids: dict[CellKey, list] = {}
    for k, cell, group in _cell_figures(records):
        if k in counts:
            counts[k] = tuple(map(operator.add, counts[k], cell))
            ids[k] += group
        else:
            counts[k], ids[k] = cell, group
    for k, group in ids.items():
        if len(set(group)) != len(group):
            duplicates.update((*k, i) for i, n in Counter(group).items() if n > 1)
    return {k: Cell(*cell) for k, cell in counts.items()}


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
    the log itself: an ``EpisodeLog``'s per-range counts are summed, and any
    other sequence of records is counted in one pass.
    """
    if success_field not in METRICS:
        raise ValueError(f"unknown metric {success_field!r}; expected one of {METRICS}")
    if not records:
        raise EvalLogError("no records")
    duplicates: set[tuple] = set()
    cells = _tally(records, duplicates)
    unknown = sorted({key[1:4] for key in cells} - SCENARIOS)
    if unknown:
        raise UnknownScenarioError(f"records reference undeclared scenarios: {unknown}")
    # sub_setting may be None in one key and a string in another
    dupes = sorted(duplicates, key=lambda k: [(p is not None, p) for p in k])
    if dupes:
        raise DuplicateEpisodeError(f"duplicate episode ids: {dupes}")
    return SuccessTable(success_field, cells)


def partial_success_summary(table: SuccessTable) -> dict[str, tuple[float, float]]:
    """Overall (grasp rate, lift rate) per policy, summed over the table's cells."""
    if not table.cells:
        raise EvalLogError("no records")
    totals = {policy: table.counts(policy) for policy in table.policies()}
    return {policy: (c.rate(METRIC_GRASP), c.rate(METRIC_LIFT)) for policy, c in totals.items()}


def _record_from_json_obj(obj: dict) -> EpisodeRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    missing = [f for f in LOG_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    extra = sorted(set(obj) - set(LOG_FIELDS))
    if extra:
        raise ValueError(f"unexpected fields: {extra}")
    return EpisodeRecord(*_log_values(obj))


_JSON_WHITESPACE = " \t\n\r"
_log_values = itemgetter(*LOG_FIELDS)
_SETTING_CONSTANTS = {setting: setting for setting in SETTINGS}
_PROTOCOL_CONSTANTS = {protocol: protocol for protocol in PROTOCOLS}

# A regular file is cut into ranges of at least this many bytes. Measured on a
# 2-vCPU x86-64 host, parsing costs about 22 ns per byte of log. A worker adds about
# 2.4 ms to fork and reap, and about 0.25 ns per byte to send its columns back, so
# it saves time on a range from about 110 KB, and about 20 ms on a range of this size.
_MIN_RANGE_BYTES = 1 << 20


def _text_lines(binary: io.BufferedIOBase) -> io.TextIOWrapper:
    """``binary`` read as text mode reads a file.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Bytes that are not UTF-8
    come through as surrogate escapes, and only they do.
    """
    return io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape")


def _line_start(fd: int, pos: int) -> int:
    """The first offset at or after ``pos`` (at least 1) that follows a ``\\n``, or the end of the file."""
    offset = pos - 1
    while chunk := os.pread(fd, 1 << 16, offset):
        newline = chunk.find(b"\n")
        if newline >= 0:
            return offset + newline + 1
        offset += len(chunk)
    return offset


def _line_ranges(fd: int, size: int) -> list[tuple[int, int]]:
    """Byte ranges of the first ``size`` bytes of a file, one per usable core, each starting at a line.

    No range is shorter than ``_MIN_RANGE_BYTES``, unless the file is.
    """
    from .cores import usable_cores

    parts = max(1, min(usable_cores(), size // _MIN_RANGE_BYTES))
    starts = [0]
    for i in range(1, parts):
        cut = _line_start(fd, max(size * i // parts, starts[-1] + _MIN_RANGE_BYTES))
        if size - cut < _MIN_RANGE_BYTES:
            break
        starts.append(cut)
    return list(zip(starts, starts[1:] + [size]))


def _parse_lines(lines: Iterable[str]) -> tuple[_Range, list[tuple[int, str]], int]:
    """The episodes of ``lines`` as a ``_Range``, each bad line's number (from 1) and reason,
    and the line count. Columns of numbers pickle far faster and smaller than records.

    A line holding exactly one valid record is decoded by the C scanner
    behind ``json.loads`` and checked in place. Any other non-blank line
    goes through ``json.loads`` and ``_record_from_json_obj``, which accept
    the same records and word every message. The cell keys share one object
    per distinct string; their settings and protocols are the module's
    constants.
    """
    keys: list[CellKey] = []
    index: dict[CellKey, int] = {}  # cell key -> its index in keys
    cells, episodes, outcomes = array("I"), [], bytearray()
    tallies: list[int] = []  # per cell, the episodes of each outcome 0 to 3
    problems: list[tuple[int, str]] = []
    scan_once = json.decoder.JSONDecoder().scan_once
    share = {**_SETTING_CONSTANTS, **_PROTOCOL_CONSTANTS}.setdefault
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            try:  # undo the escapes, so that decoding names the first bad byte
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                problems.append((lineno, str(exc)))
                continue
        try:
            obj, end = scan_once(line, 0)
            if type(obj) is dict and len(obj) == len(LOG_FIELDS):
                policy, target, setting, protocol, episode, grasp, lift, sub = _log_values(obj)
            else:
                policy = None
        except (StopIteration, ValueError, KeyError, RecursionError):
            policy = None
        if not (
            type(policy) is str and policy
            and not line[end:].strip(_JSON_WHITESPACE)
            and type(target) is str
            and type(setting) is str and setting in _SETTING_CONSTANTS
            and type(protocol) is str and protocol in _PROTOCOL_CONSTANTS
            and type(episode) is int and episode >= 0
            and type(grasp) is bool
            and type(lift) is bool and (grasp or not lift)
            and (sub is None or type(sub) is str)
        ):
            if not line.strip():
                continue
            try:
                policy, target, setting, protocol, episode, grasp, lift, sub = _record_from_json_obj(
                    json.loads(line))
            except (json.JSONDecodeError, ValueError, RecursionError) as exc:
                problems.append((lineno, str(exc)))
                continue
        key = (policy, target, setting, protocol, sub)
        if (cell := index.get(key)) is None:
            key = tuple(map(share, key, key))
            cell = index[key] = len(keys)
            keys.append(key)
            tallies += (0, 0, 0, 0)
        outcome = grasp + lift + lift
        cells.append(cell)
        episodes.append(episode)
        outcomes.append(outcome)
        tallies[4 * cell + outcome] += 1
    counts = [(none + grasped + lifted, grasped + lifted, lifted)
              for none, grasped, _, lifted in zip(*[iter(tallies)] * 4)]
    return _Range(keys, cells, episodes, bytes(outcomes), counts), problems, lineno


def parse_episode_log(path: str | Path) -> EpisodeLog:
    """Read a newline-delimited JSON episode log, naming every bad line.

    A regular file is cut into byte ranges at line starts, one per usable
    core, which ``revla.cores.map_on_cores`` parses with ``_parse_lines``;
    any other file (a pipe, say) has no size to cut by and is read in one
    pass. A regular file whose size or modification time differs after the
    parse changed while it was read, and fails before any bad line is named
    (a same-size rewrite within one timestamp tick goes unseen). Each range
    comes back as columns and counts (``_Range``), and the records are built
    from them when they are read. The records of one range share one object
    per distinct string. A line that is not UTF-8, or is nested deeper than
    the recursion limit, is a bad line like any other.
    """
    with open(path, "rb") as raw:
        fd = raw.fileno()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            from .cores import ByteRange, map_on_cores

            parts = map_on_cores(
                lambda r: _parse_lines(_text_lines(io.BufferedReader(ByteRange(fd, *r)))),
                _line_ranges(fd, info.st_size),
            )
            after = os.fstat(fd)
            if (after.st_size, after.st_mtime_ns) != (info.st_size, info.st_mtime_ns):
                raise EvalLogError(f"episode log {path} changed while it was read")
        else:
            with _text_lines(raw) as lines:
                parts = [_parse_lines(lines)]
    problems: list[str] = []
    lines_before = 0
    for _, bad, line_count in parts:
        problems += [f"line {lines_before + n}: {reason}" for n, reason in bad]
        lines_before += line_count
    if problems:
        raise EvalLogError(f"invalid episode log {path}:\n" + "\n".join(problems))
    return EpisodeLog(part for part, _, _ in parts)


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
