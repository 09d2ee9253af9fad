"""Success-rate aggregation with fixtures reconstructed from published counts."""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthetic_episodes import expand_cell, to_json_obj, write_episode_log

import revla
import revla.ood_eval as ood_eval
from revla.ood_eval import (
    LOG_FIELDS,
    PROTOCOLS,
    SCENARIOS,
    SETTINGS,
    Cell,
    DuplicateEpisodeError,
    EpisodeRecord,
    EvalLogError,
    SuccessTable,
    UnknownScenarioError,
    aggregate,
    parse_episode_log,
    partial_success_summary,
    relative_improvement,
    render_in_domain_table,
    render_ood_table,
    render_partial_success,
    round_rate,
)

# per-cell lift success counts out of 36 episodes (single pear/mustard/tomato,
# then distractor pear/mustard/tomato); tomato cells for RT1-X ran 34 episodes
OPENVLA_LIFTS = (7, 3, 14, 2, 1, 8)
RT1X_LIFTS = (8, 0, 4, 6, 0, 2)
RT1X_EPISODES = (36, 36, 34, 36, 36, 34)
REVLA_GRADUAL_LIFTS = (14, 4, 19, 11, 4, 8)
REVLA_GRADUAL_GRASPS = (24, 12, 30, 22, 12, 25)

OBJECTS = ("pear", "mustard_bottle", "tomato_can")


def ood_records(policy, lifts, grasps=None, episodes=None, first_episode=0):
    records = []
    cells = []
    for setting_idx, setting in enumerate(("single", "distractor")):
        for obj_idx, obj in enumerate(OBJECTS):
            cells.append((obj, setting, 3 * setting_idx + obj_idx))
    for obj, setting, i in cells:
        records.extend(
            expand_cell(
                policy,
                obj,
                setting,
                episodes=36 if episodes is None else episodes[i],
                lift_successes=lifts[i],
                grasp_successes=None if grasps is None else grasps[i],
                first_episode=first_episode,
            )
        )
    return records


def test_eight_of_thirtysix_rounds_to_published_cell():
    assert round_rate(8, 36) == 0.222


def test_zero_successes():
    assert round_rate(0, 36) == 0.0


def test_rounding_is_half_up():
    assert round_rate(2225, 10000) == 0.223  # bankers' rounding would give 0.222
    assert round_rate(9, 108) == 0.083  # 0.08333…


def test_openvla_row_reproduces_published_cells():
    table = aggregate(ood_records("OpenVLA", OPENVLA_LIFTS))
    assert table.rate("OpenVLA", "pear", "single") == 0.194
    assert table.rate("OpenVLA", "mustard_bottle", "single") == 0.083
    assert table.rate("OpenVLA", "tomato_can", "single") == 0.389
    assert table.rate("OpenVLA", "pear", "distractor") == 0.056
    assert table.rate("OpenVLA", "mustard_bottle", "distractor") == 0.028
    assert table.rate("OpenVLA", "tomato_can", "distractor") == 0.222
    assert table.counts("OpenVLA", setting="single").rate("lift") == 0.222
    assert table.counts("OpenVLA", setting="distractor").rate("lift") == 0.102
    assert table.counts("OpenVLA").rate(table.metric) == 0.162


def test_grand_total_is_episode_weighted_not_cell_averaged():
    table = aggregate(ood_records("OpenVLA", OPENVLA_LIFTS))
    counts = table.counts("OpenVLA")
    assert counts.episodes == 216
    assert counts.lift_successes == 35
    assert round_rate(35, 216) == 0.162


def test_rt1x_row_with_explicit_episode_counts():
    table = aggregate(ood_records("RT1-X", RT1X_LIFTS, episodes=RT1X_EPISODES))
    assert table.rate("RT1-X", "pear", "single") == 0.222
    assert table.rate("RT1-X", "tomato_can", "single") == 0.118
    assert table.rate("RT1-X", "tomato_can", "distractor") == 0.059
    assert table.counts("RT1-X", setting="single").rate("lift") == 0.113
    assert table.counts("RT1-X", setting="distractor").rate("lift") == 0.075
    assert table.counts("RT1-X").rate(table.metric) == 0.094


def test_all_zero_policy():
    table = aggregate(ood_records("Octo", (0, 0, 0, 0, 0, 0)))
    assert table.counts("Octo").rate(table.metric) == 0.0
    for obj in OBJECTS:
        assert table.rate("Octo", obj, "single") == 0.0


def in_domain_records(policy, successes_by_sub, episodes=100):
    records = []
    for sub, successes in successes_by_sub.items():
        records.extend(
            expand_cell(
                policy,
                "coke_can",
                "single",
                episodes=episodes,
                lift_successes=successes,
                sub_setting=sub,
            )
        )
    return records


def test_in_domain_sub_setting_average():
    records = in_domain_records(
        "OpenVLA", {"horizontal": 31, "vertical": 3, "standing": 19}
    )
    table = aggregate(records)
    rates = table.sub_setting_rates("OpenVLA", "coke_can", "visual_matching")
    assert rates["horizontal"] == 0.310
    assert rates["vertical"] == 0.030
    assert rates["standing"] == 0.190
    assert rates["average"] == 0.177


def test_partial_success_matches_published_grasp_and_lift():
    records = ood_records(
        "ReVLA (Gradual)", REVLA_GRADUAL_LIFTS, grasps=REVLA_GRADUAL_GRASPS
    )
    summary = partial_success_summary(aggregate(records))
    assert summary["ReVLA (Gradual)"] == (0.579, 0.278)


def test_partial_success_all_successful():
    records = expand_cell("perfect", "pear", "single", episodes=36, lift_successes=36)
    assert partial_success_summary(aggregate(records))["perfect"] == (1.0, 1.0)


def test_grasp_rate_never_below_lift_rate():
    records = ood_records(
        "ReVLA (Gradual)", REVLA_GRADUAL_LIFTS, grasps=REVLA_GRADUAL_GRASPS
    ) + ood_records("OpenVLA", OPENVLA_LIFTS)
    table = aggregate(records)
    for grasp, lift in partial_success_summary(table).values():
        assert grasp >= lift
    for policy in table.policies():
        counts = table.counts(policy)
        assert counts.rate("grasp") >= counts.rate("lift")


def test_relative_improvement_published_claims():
    assert relative_improvement(0.287, 0.162) == 77
    assert relative_improvement(0.579, 0.348) == 66


def test_relative_improvement_identity_and_errors():
    assert relative_improvement(0.25, 0.25) == 0
    with pytest.raises(ValueError, match="baseline"):
        relative_improvement(0.5, 0.0)


# --- invariants -----------------------------------------------------------------


def test_aggregation_is_permutation_invariant():
    records = ood_records("OpenVLA", OPENVLA_LIFTS) + ood_records("Octo", (1, 0, 2, 0, 0, 1))
    shuffled = records[:]
    random.Random(13).shuffle(shuffled)
    assert aggregate(records) == aggregate(shuffled)


def test_concatenation_aggregates_to_weighted_mean():
    first = ood_records("OpenVLA", OPENVLA_LIFTS)
    second = ood_records("OpenVLA", (1, 1, 1, 1, 1, 1), episodes=(12,) * 6, first_episode=36)
    table_a, table_b = aggregate(first), aggregate(second)
    combined = aggregate(first + second)
    ca, cb = table_a.counts("OpenVLA"), table_b.counts("OpenVLA")
    cc = combined.counts("OpenVLA")
    assert cc.episodes == ca.episodes + cb.episodes
    assert cc.lift_successes == ca.lift_successes + cb.lift_successes
    # exact pre-rounding: combined rate is the episode-weighted mean
    weighted = (
        ca.episodes * (ca.lift_successes / ca.episodes)
        + cb.episodes * (cb.lift_successes / cb.episodes)
    ) / cc.episodes
    assert cc.lift_successes / cc.episodes == pytest.approx(weighted, abs=1e-15)


def test_counts_match_brute_force_recount():
    records = (
        ood_records("OpenVLA", OPENVLA_LIFTS)
        + ood_records("ReVLA", REVLA_GRADUAL_LIFTS, grasps=REVLA_GRADUAL_GRASPS)
        + in_domain_records("OpenVLA", {"horizontal": 31, "vertical": 3, "standing": 19})
        + in_domain_records("Octo", {"horizontal": 5, "standing": 2}, episodes=20)
    )
    for protocol in ("visual_matching", "variant_aggregation"):
        records += expand_cell("ReVLA", "coke_can", "single", episodes=10, lift_successes=4,
                               grasp_successes=7, protocol=protocol, sub_setting="vertical")
    table = aggregate(records)
    objects = [None, *OBJECTS, "coke_can"]
    settings = [None, "single", "distractor"]
    protocols = [None, "visual_matching", "variant_aggregation"]
    subs = [None, "horizontal", "vertical", "standing"]
    for policy in ("OpenVLA", "ReVLA", "Octo", "absent"):
        for obj, setting, protocol, sub in itertools.product(objects, settings, protocols, subs):
            matching = [
                r for r in records
                if r.policy == policy
                and obj in (None, r.target_object)
                and setting in (None, r.setting)
                and protocol in (None, r.protocol)
                and sub in (None, r.sub_setting)
            ]
            expected = Cell(
                len(matching),
                sum(r.grasp_success for r in matching),
                sum(r.lift_success for r in matching),
            )
            assert table.counts(policy, obj, setting, protocol, sub) == expected
    assert table.counts("absent") == Cell(0, 0, 0)


def test_round_trip_through_rounded_rates():
    table = aggregate(ood_records("OpenVLA", OPENVLA_LIFTS))
    rebuilt = []
    for setting in ("single", "distractor"):
        for obj in OBJECTS:
            cell = table.counts("OpenVLA", obj, setting)
            implied = round(table.rate("OpenVLA", obj, setting) * cell.episodes)
            rebuilt.extend(
                expand_cell("OpenVLA", obj, setting, episodes=cell.episodes, lift_successes=implied)
            )
    again = aggregate(rebuilt)
    for setting in ("single", "distractor"):
        for obj in OBJECTS:
            delta = abs(again.rate("OpenVLA", obj, setting) - table.rate("OpenVLA", obj, setting))
            assert delta <= 5e-4
    again_total, total = (t.counts("OpenVLA").rate(t.metric) for t in (again, table))
    assert abs(again_total - total) <= 5e-4


# --- suite, records, and errors ---------------------------------------------------


def test_aggregate_accepts_exactly_the_declared_scenarios():
    records = []
    for obj, setting, protocol in sorted(SCENARIOS):
        records.extend(expand_cell("p", obj, setting, episodes=1, lift_successes=1, protocol=protocol))
    table = aggregate(records)
    ood = {(obj, setting, "visual_matching") for obj in OBJECTS for setting in SETTINGS}
    assert SCENARIOS == ood | {("coke_can", "single", protocol) for protocol in PROTOCOLS}
    assert {key[1:4] for key in table.cells} == SCENARIOS
    for obj, setting, protocol in [
        ("pear", "single", "variant_aggregation"),
        ("coke_can", "distractor", "visual_matching"),
        ("banana", "single", "visual_matching"),
    ]:
        undeclared = expand_cell("p", obj, setting, episodes=1, lift_successes=0, protocol=protocol)
        with pytest.raises(UnknownScenarioError, match=re.escape(repr((obj, setting, protocol)))):
            aggregate(records + undeclared)


def test_importing_the_package_and_ood_eval_leaves_numpy_unloaded():
    package_root = str(Path(revla.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {package_root!r}); "
            "import revla, revla.ood_eval; print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_lift_without_grasp_rejected():
    with pytest.raises(ValueError, match="lift requires a grasp"):
        EpisodeRecord("p", "pear", "single", "visual_matching", 0, False, True)


def test_unknown_scenario_rejected():
    records = expand_cell("p", "banana", "single", episodes=2, lift_successes=1)
    with pytest.raises(UnknownScenarioError, match="banana"):
        aggregate(records)


def test_duplicate_episode_ids_rejected():
    pear = expand_cell("p", "pear", "single", episodes=3, lift_successes=1)
    can = expand_cell("p", "coke_can", "single", episodes=2, lift_successes=1)
    vertical = expand_cell("p", "coke_can", "single", episodes=2, lift_successes=0,
                           sub_setting="vertical")
    # pear episode 2 three times, apart; each coke_can cell repeats episode 0 once
    records = pear + vertical[:1] + can + pear[2:] + vertical + can[:1] + pear[2:]
    with pytest.raises(DuplicateEpisodeError) as excinfo:
        aggregate(records)
    assert str(excinfo.value) == (
        "duplicate episode ids: ["
        "('p', 'coke_can', 'single', 'visual_matching', None, 0), "
        "('p', 'coke_can', 'single', 'visual_matching', 'vertical', 0), "
        "('p', 'pear', 'single', 'visual_matching', None, 2)]"
    )


def _reference_aggregate(records):
    """Cells and error text of ``aggregate`` from ``Counter``s over cell keys and a plain scan."""
    keys = [(r.policy, r.target_object, r.setting, r.protocol, r.sub_setting) for r in records]
    episodes = Counter(keys)
    grasps = Counter(k for k, r in zip(keys, records) if r.grasp_success)
    lifts = Counter(k for k, r in zip(keys, records) if r.lift_success)
    cells = {k: Cell(n, grasps[k], lifts[k]) for k, n in episodes.items()}
    unknown = sorted({k[1:4] for k in keys if k[1:4] not in SCENARIOS})
    if unknown:
        return cells, f"records reference undeclared scenarios: {unknown}"
    repeats = []
    for i, (k, r) in enumerate(zip(keys, records)):
        if any(keys[j] == k and records[j].episode == r.episode for j in range(i)):
            if (*k, r.episode) not in repeats:
                repeats.append((*k, r.episode))
    if repeats:
        # a missing sub-setting sorts before every named one
        repeats.sort(key=lambda d: (d[:4], d[4] is not None, d[4] or "", d[5]))
        return cells, f"duplicate episode ids: {repeats}"
    return cells, None


@st.composite
def _records_with_repeats(draw):
    scenarios = sorted(SCENARIOS) + [("banana", "single", "visual_matching")]
    records = []
    for _ in range(draw(st.integers(1, 6))):
        obj, setting, protocol = draw(st.sampled_from(scenarios))
        records += expand_cell(
            draw(st.sampled_from(["p", "q"])), obj, setting, protocol=protocol,
            episodes=draw(st.integers(1, 5)), lift_successes=0,
            grasp_successes=draw(st.integers(0, 1)),
            sub_setting=draw(st.sampled_from([None, "vertical", "horizontal"])),
            first_episode=draw(st.integers(0, 3)),
        )
    # repeat some records once or twice, with their own outcomes
    for record in draw(st.lists(st.sampled_from(records), max_size=4)):
        for _ in range(draw(st.integers(1, 2))):
            grasp = draw(st.booleans())
            records.append(record._replace(grasp_success=grasp,
                                           lift_success=grasp and draw(st.booleans())))
    return draw(st.permutations(records))


@settings(max_examples=300, deadline=None)
@given(_records_with_repeats())
def test_aggregate_matches_the_brute_force_reference(records):
    cells, error = _reference_aggregate(records)
    assert ood_eval._tally(records, set()) == cells
    if error is None:
        assert aggregate(records).cells == cells
    else:
        with pytest.raises((UnknownScenarioError, DuplicateEpisodeError)) as excinfo:
            aggregate(records)
        assert str(excinfo.value) == error
        assert isinstance(excinfo.value, UnknownScenarioError) == error.startswith("records")


def test_empty_aggregate_rejected():
    with pytest.raises(EvalLogError, match="no records"):
        aggregate([])
    with pytest.raises(EvalLogError, match="no records"):
        partial_success_summary(SuccessTable("lift", {}))


def test_log_round_trip(tmp_path):
    records = ood_records("OpenVLA", OPENVLA_LIFTS)
    path = tmp_path / "episodes.jsonl"
    write_episode_log(records, path)
    assert parse_episode_log(path) == records


def test_parse_errors_name_line_numbers(tmp_path):
    good = '{"policy":"p","object":"pear","setting":"single","protocol":"visual_matching","episode":0,"grasp_success":true,"lift_success":false,"sub_setting":null}'
    bad_json = "{truncated"
    bad_invariant = good.replace('"episode":0', '"episode":1').replace(
        '"grasp_success":true,"lift_success":false', '"grasp_success":false,"lift_success":true'
    )
    missing_field = '{"policy":"p","object":"pear"}'
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([good, bad_json, bad_invariant, missing_field]) + "\n")
    with pytest.raises(EvalLogError) as excinfo:
        parse_episode_log(path)
    message = str(excinfo.value)
    flagged = re.findall(r"^line (\d+):", message, re.MULTILINE)
    assert flagged == ["2", "3", "4"]
    assert "lift requires a grasp" in message
    assert "missing fields" in message


def test_record_is_an_immutable_named_tuple():
    record = EpisodeRecord("p", "pear", "single", "visual_matching", 3, True, False)
    assert record == ("p", "pear", "single", "visual_matching", 3, True, False, None)
    assert record[4] == 3 and record.sub_setting is None
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.episode = 4
    with pytest.raises(ValueError, match="episode id must be non-negative, got -1"):
        EpisodeRecord("p", "pear", "single", "visual_matching", -1, True, False)
    with pytest.raises(ValueError, match="policy must be a non-empty string"):
        EpisodeRecord(policy="", target_object="pear", setting="single",
                      protocol="visual_matching", episode=0, grasp_success=False,
                      lift_success=False)
    with pytest.raises(ValueError, match="lift requires a grasp"):
        record._replace(lift_success=True, grasp_success=False)
    assert record._replace(episode=5) == record[:4] + (5,) + record[5:]


@pytest.mark.parametrize("field,value,message", [
    ("policy", 3, "policy must be a string"),
    ("policy", None, "policy must be a string"),
    ("target_object", 7, "object must be a string"),
    ("target_object", ["pear"], "object must be a string"),
    ("episode", True, "episode must be an integer"),
    ("episode", "3", "episode must be an integer"),
    ("grasp_success", 1, "grasp_success must be a boolean"),
    ("lift_success", 0, "lift_success must be a boolean"),
    ("sub_setting", 3, "sub_setting must be a string or null"),
])
def test_record_checks_field_types(field, value, message):
    fields = dict(policy="p", target_object="pear", setting="single", protocol="visual_matching",
                  episode=3, grasp_success=True, lift_success=False, sub_setting="vertical")
    fields[field] = value
    with pytest.raises(ValueError) as excinfo:
        EpisodeRecord(**fields)
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


# --- parse against the plain per-line parser ----------------------------------------


def _reference_record(obj):
    """Field checks of the per-line parser: ``json.loads`` then these, in this order."""
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
    if not obj["policy"]:
        raise ValueError("policy must be a non-empty string")
    if obj["setting"] not in SETTINGS:
        raise ValueError(f"unknown setting {obj['setting']!r}; expected one of {SETTINGS}")
    if obj["protocol"] not in PROTOCOLS:
        raise ValueError(f"unknown protocol {obj['protocol']!r}; expected one of {PROTOCOLS}")
    if obj["episode"] < 0:
        raise ValueError(f"episode id must be non-negative, got {obj['episode']}")
    if obj["lift_success"] and not obj["grasp_success"]:
        raise ValueError("lift_success without grasp_success (a lift requires a grasp)")
    return tuple(obj[f] for f in LOG_FIELDS)


def _reference_parse(path):
    records, problems = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            if not line.strip():
                continue
            try:
                records.append(_reference_record(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                problems.append(f"line {lineno}: {exc}")
    if problems:
        raise EvalLogError(f"invalid episode log {path}:\n" + "\n".join(problems))
    return records


_BAD_VALUES = {
    "policy": ["", 3, None],
    "object": [7, None, ["pear"]],
    "setting": [1, ["single"], "Single", None],
    "protocol": [0, "visual", ["visual_matching"]],
    "episode": [True, -1, 1.0, "3", None],
    "grasp_success": [1, "true", None],
    "lift_success": [0, "false"],
    "sub_setting": [3, ["vertical"], True],
}


@st.composite
def _record_texts(draw):
    grasp = draw(st.booleans())
    obj = {
        "policy": draw(st.sampled_from(["p", "OpenVLA", "ReVLA (Gradual)", "pol\u00e9"])),
        "object": draw(st.sampled_from(["pear", "coke_can", ""])),
        "setting": draw(st.sampled_from(SETTINGS)),
        "protocol": draw(st.sampled_from(PROTOCOLS)),
        "episode": draw(st.integers(0, 300)),
        "grasp_success": grasp,
        "lift_success": grasp and draw(st.booleans()),
        "sub_setting": draw(st.sampled_from([None, "vertical", "horizontal"])),
    }
    fault = draw(st.sampled_from(
        ["none"] * 4 + ["value", "lift_without_grasp", "extra", "missing", "duplicate"]))
    if fault == "value":
        field = draw(st.sampled_from(sorted(_BAD_VALUES)))
        obj[field] = draw(st.sampled_from(_BAD_VALUES[field]))
    elif fault == "lift_without_grasp":
        obj["grasp_success"], obj["lift_success"] = False, True
    elif fault == "extra":
        obj["extra"] = 1
    elif fault == "missing":
        del obj[draw(st.sampled_from(LOG_FIELDS))]
    items = draw(st.permutations(list(obj.items())))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    text = json.dumps(dict(items), separators=separators, ensure_ascii=draw(st.booleans()))
    if fault == "duplicate":
        key = draw(st.sampled_from(LOG_FIELDS))
        text = "{" + json.dumps(key) + ": " + json.dumps(draw(st.sampled_from(["p", 1]))) + ", " + text[1:]
    return text


@st.composite
def _log_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(
            ["record"] * 4 + ["padded", "two_values", "spanning", "non_object", "undecodable", "blank"]))
        if kind == "record":
            lines.append(draw(_record_texts()))
        elif kind == "padded":
            lead = draw(st.sampled_from(["", " ", "\t", "\x0c", "\xa0"]))
            trail = draw(st.sampled_from(["", " ", "\t", "\x0c", "\xa0", "\x0b", "\x1c", "\x85"]))
            lines.append(lead + draw(_record_texts()) + trail)
        elif kind == "two_values":
            lines.append(draw(_record_texts()) + draw(st.sampled_from(["", " "])) + draw(_record_texts()))
        elif kind == "spanning":
            text = draw(_record_texts())
            cut = draw(st.integers(1, len(text) - 1))
            lines.extend([text[:cut], text[cut:]])
        elif kind == "non_object":
            lines.append(draw(st.sampled_from(["[]", "1", '"x"', "null", "true", "[1, 2]", "{}"])))
        elif kind == "undecodable":
            # bytes that are not UTF-8 (a stray byte, a cut sequence), written by surrogateescape
            text = draw(_record_texts())
            cut = draw(st.integers(0, len(text)))
            lines.append(text[:cut] + draw(st.sampled_from(["\udcff", "\udce2\udc82", "\udcc3"])) + text[cut:])
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0c"])))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _typed(records):
    return [[(type(value), value) for value in record] for record in records]


def _write_log(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("log") / "episodes.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _check_parse_matches_reference(path):
    try:
        expected = _typed(_reference_parse(path))
    except EvalLogError as exc:
        with pytest.raises(EvalLogError) as excinfo:
            parse_episode_log(path)
        assert str(excinfo.value) == str(exc)
    else:
        records = parse_episode_log(path)
        assert all(type(record) is EpisodeRecord for record in records)
        assert _typed(records) == expected


@settings(max_examples=300, deadline=None)
@given(_log_texts())
def test_parse_matches_per_line_parser(tmp_path_factory, text):
    _check_parse_matches_reference(_write_log(tmp_path_factory, text))


def test_parse_in_several_ranges_matches_per_line_parser(tmp_path_factory):
    # three usable cores and no minimum range size cut most logs into two or three ranges
    range_counts = []
    line_ranges = ood_eval._line_ranges

    def counted_line_ranges(fd, size):
        ranges = line_ranges(fd, size)
        range_counts.append(len(ranges))
        return ranges

    @settings(max_examples=300, deadline=None)
    @given(_log_texts())
    def check(text):
        _check_parse_matches_reference(_write_log(tmp_path_factory, text))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        patch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
        patch.setattr(ood_eval, "_line_ranges", counted_line_ranges)
        check()
    assert set(range_counts) <= {1, 2, 3}
    assert sum(count > 1 for count in range_counts) >= len(range_counts) // 2


@pytest.mark.parametrize("size,cores,minimum", [
    (0, 2, 1 << 20), (5_000, 1, 1), (5_000, 2, 1), (5_000, 3, 1000), (5_000, 8, 1000), (5_000, 4, 3000),
])
def test_ranges_start_at_lines_and_are_never_below_the_minimum(tmp_path, monkeypatch, size, cores,
                                                               minimum):
    rng = random.Random(size + cores + minimum)
    data = bytes(rng.choice(b"ab\r\n") for _ in range(size))
    path = tmp_path / "log"
    path.write_bytes(data)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", minimum)
    with open(path, "rb") as fh:
        ranges = ood_eval._line_ranges(fh.fileno(), size)
    assert ranges[0][0] == 0 and ranges[-1][1] == size
    assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
    assert all(data[start - 1] == ord("\n") for start, _ in ranges[1:])
    assert len(ranges) <= max(1, min(cores, size // minimum))
    if len(ranges) > 1:
        assert min(stop - start for start, stop in ranges) >= minimum


def test_a_pipe_parses_like_the_same_bytes_in_a_file(tmp_path, monkeypatch):
    # a pipe has no size to cut by, so it is read in one pass however many cores there are
    records = ood_records("OpenVLA", OPENVLA_LIFTS) + ood_records("ReVLA", OPENVLA_LIFTS)
    good = [json.dumps(to_json_obj(record)).encode() for record in records]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
    for data in (b"\n".join(good) + b"\n",
                 b"\r\n".join(good[:100]) + b'\r{"policy": "\xff"}\r\n\n' + b"\r".join(good[100:])):
        path, fifo = tmp_path / "episodes.jsonl", tmp_path / "episodes.fifo"
        path.write_bytes(data)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            from_pipe = _parse_or_error(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert from_pipe == _parse_or_error(path)
        assert from_pipe != ([], None)
        fifo.unlink()


def _change_after_cutting(monkeypatch, path, change):
    """Cut ``path`` into two ranges, then change it before they are parsed:
    truncate it at a line start within the second range, or rewrite it at the
    same size, every ``true`` made an invalid ``True``, with a later mtime."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
    data, line_ranges = path.read_bytes(), ood_eval._line_ranges

    def cut_then_change(fd, size):
        ranges = line_ranges(fd, size)
        assert len(ranges) == 2
        if change == "truncate":
            os.truncate(path, data.index(b"\n", (ranges[1][0] + size) // 2) + 1)
        else:
            mtime = os.stat(path).st_mtime_ns + 10**9
            path.write_bytes(data.replace(b"true", b"True"))
            os.utime(path, ns=(mtime, mtime))
        return ranges

    monkeypatch.setattr(ood_eval, "_line_ranges", cut_then_change)


@pytest.mark.parametrize("change", ["truncate", "rewrite"])
def test_a_log_changed_while_it_is_read_fails(tmp_path, monkeypatch, change):
    path = tmp_path / "episodes.jsonl"
    write_episode_log(expand_cell("OpenVLA", "pear", "single", episodes=36, lift_successes=12), path)
    size = path.stat().st_size
    _change_after_cutting(monkeypatch, path, change)
    with pytest.raises(EvalLogError) as info:
        parse_episode_log(path)
    assert str(info.value) == f"episode log {path} changed while it was read"
    assert (path.stat().st_size < size) is (change == "truncate")


def test_records_of_all_ranges_share_their_strings(tmp_path, monkeypatch):
    # policies interleaved, so that every range holds every policy, object and sub-setting;
    # each range has its own string table, so only records of one range share a string
    cells = [expand_cell(policy, "coke_can", "single", episodes=60, lift_successes=20,
                         protocol=protocol, sub_setting=sub)
             for policy in ("OpenVLA", "ReVLA") for protocol in PROTOCOLS for sub in (None, "vertical")]
    records = [record for group in zip(*cells) for record in group]
    path = tmp_path / "episodes.jsonl"
    write_episode_log(records, path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", path.stat().st_size // 4)
    with open(path, "rb") as fh:
        ranges = ood_eval._line_ranges(fh.fileno(), path.stat().st_size)
    assert len(ranges) == 3
    parsed = parse_episode_log(path)
    assert parsed == records
    data, lines_before = path.read_bytes(), 0
    for start, stop in ranges:
        line_count = data[start:stop].count(b"\n")
        objects = {}
        for record in parsed[lines_before:lines_before + line_count]:
            for value in record:
                if isinstance(value, str):
                    objects.setdefault(value, set()).add(id(value))
        assert {value: len(ids) for value, ids in objects.items()} == dict.fromkeys(objects, 1)
        lines_before += line_count
    assert lines_before == len(parsed)


def _write_records(records, path):
    """``records`` as a log, each line as ``json.dumps`` gives it: ``write_episode_log`` sorts keys."""
    path.write_text("".join(json.dumps(to_json_obj(record)) + "\n" for record in records))
    return path


def test_a_log_in_one_to_three_ranges_reads_and_tallies_as_its_records(tmp_path_factory):
    # the compact log against the per-line parser and the tally of a plain list, on 1, 2 or 3 cores
    cores, range_counts = [3], []
    line_ranges = ood_eval._line_ranges

    def counted_line_ranges(fd, size):
        ranges = line_ranges(fd, size)
        range_counts.append(len(ranges))
        return ranges

    @settings(max_examples=200, deadline=None)
    @given(_records_with_repeats(), st.integers(1, 3), st.data())
    def check(records, core_count, data):
        cores[0] = core_count
        path = _write_records(records, tmp_path_factory.mktemp("log") / "episodes.jsonl")
        parsed = parse_episode_log(path)
        assert _typed(_reference_parse(path)) == _typed(records)
        assert isinstance(parsed, ood_eval.EpisodeLog) and len(parsed) == len(records)
        assert parsed == records and _typed(parsed) == _typed(records)
        assert [parsed[i] for i in range(-len(records), len(records))] == records * 2
        bounds = st.none() | st.integers(-len(records) - 2, len(records) + 2)
        cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.sampled_from([None, 1, 2, -1, -3])))
        assert parsed[cut] == records[cut]
        for index in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                parsed[index]
        tallied, listed = set(), set()
        assert ood_eval._tally(parsed, tallied) == ood_eval._tally(records, listed)
        assert tallied == listed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores[0])))
        patch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
        patch.setattr(ood_eval, "_line_ranges", counted_line_ranges)
        check()
    assert set(range_counts) == {1, 2, 3}


# the one message for these records, as a plain list of them gives it: pear episodes 1 and 2 and
# can episode 0 repeat
_SPLIT_DUPLICATES = (
    "duplicate episode ids: ["
    "('p', 'coke_can', 'single', 'visual_matching', 'vertical', 0), "
    "('p', 'pear', 'single', 'visual_matching', None, 1), "
    "('p', 'pear', 'single', 'visual_matching', None, 2)]"
)


def _split_duplicates():
    """Two halves whose records are each unique, but repeat three (cell, episode id) pairs between them."""
    pear = expand_cell("p", "pear", "single", episodes=4, lift_successes=1)
    can = expand_cell("p", "coke_can", "single", episodes=3, lift_successes=1, sub_setting="vertical")
    return pear + can, can[:1] + pear[1:3] + expand_cell("q", "pear", "single", episodes=2, lift_successes=0)


def test_duplicates_split_across_ranges_or_logs_fail_with_one_message(tmp_path, monkeypatch):
    first, second = _split_duplicates()
    with pytest.raises(DuplicateEpisodeError, match=re.escape(_SPLIT_DUPLICATES) + "$"):
        aggregate(first + second)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
    joined = _write_records(first + second, tmp_path / "joined.jsonl")
    with open(joined, "rb") as fh:
        (_, cut), _ = ood_eval._line_ranges(fh.fileno(), joined.stat().st_size)
    assert joined.read_bytes()[:cut].count(b"\n") == len(first)  # one half per range
    logs = [parse_episode_log(joined),
            parse_episode_log(_write_records(first, tmp_path / "a.jsonl"))
            + parse_episode_log(_write_records(second, tmp_path / "b.jsonl"))]
    for log in logs:
        assert log == first + second
        with pytest.raises(DuplicateEpisodeError) as excinfo:
            aggregate(log)
        assert str(excinfo.value) == _SPLIT_DUPLICATES
    # an unknown scenario is named before any duplicate, across logs too
    banana = parse_episode_log(_write_records(expand_cell("p", "banana", "single", episodes=1, lift_successes=0),
                                              tmp_path / "banana.jsonl"))
    with pytest.raises(UnknownScenarioError, match="banana"):
        aggregate(logs[1] + banana)


def test_an_episode_id_past_64_bits_parses_and_round_trips(tmp_path, monkeypatch):
    records = expand_cell("p", "pear", "single", episodes=3, lift_successes=1, first_episode=2**70)
    records += expand_cell("q", "pear", "single", episodes=3, lift_successes=2, first_episode=2**70)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ood_eval, "_MIN_RANGE_BYTES", 1)
    path = _write_records(records, tmp_path / "big.jsonl")
    parsed = parse_episode_log(path)
    assert parsed == records and parsed[-1].episode == 2**70 + 2
    assert aggregate(parsed) == aggregate(records)
    with pytest.raises(DuplicateEpisodeError, match=re.escape(f"None, {2**70 + 1})")):
        aggregate(parsed + parse_episode_log(path))


def test_an_episode_log_is_a_read_only_sequence(tmp_path):
    records = ood_records("OpenVLA", OPENVLA_LIFTS)
    log = parse_episode_log(_write_records(records, tmp_path / "episodes.jsonl"))
    assert log[-1] == records[-1] and log[-len(records)] == records[0]
    assert log[5:9] == records[5:9] and type(log[5:9]) is list
    assert log[::-7] == records[::-7] and log[100:3] == []
    assert list(reversed(log)) == records[::-1]
    assert records[40] in log and log.index(records[40]) == 40
    assert log + log == records + records and len(log + log) == 2 * len(records)
    assert log != records[1:] and log != tuple(records)
    with pytest.raises(TypeError):
        log + records
    with pytest.raises(TypeError):
        log[0] = records[0]
    with pytest.raises(TypeError):
        hash(log)
    assert ood_eval.EpisodeLog() == [] and not ood_eval.EpisodeLog()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_parse_and_aggregate_leave_the_collector_as_the_caller_set_it(tmp_path, monkeypatch, collecting):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_episode_log(ood_records("OpenVLA", OPENVLA_LIFTS), good)
    bad.write_text("{truncated\n")
    seen, parse_lines, cell_figures = [], ood_eval._parse_lines, ood_eval._cell_figures

    def parse(lines):
        seen.append(("parse", gc.isenabled()))
        return parse_lines(lines)

    def figures(records):
        seen.append(("aggregate", gc.isenabled()))
        return cell_figures(records)

    monkeypatch.setattr(ood_eval, "_parse_lines", parse)
    monkeypatch.setattr(ood_eval, "_cell_figures", figures)
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert aggregate(parse_episode_log(good), "lift").policies() == ["OpenVLA"]
        assert gc.isenabled() is collecting
        with pytest.raises(EvalLogError):
            parse_episode_log(bad)
        assert gc.isenabled() is collecting
        with pytest.raises(FileNotFoundError):
            parse_episode_log(tmp_path / "missing.jsonl")
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert seen == [("parse", collecting), ("aggregate", collecting), ("parse", collecting)]


def _parse_or_error(path):
    """(records, None), or ([], the error's lines after the one naming the file)."""
    try:
        return parse_episode_log(path), None
    except EvalLogError as exc:
        return [], str(exc).split("\n")[1:]


def _sweep_records(policies):
    """100 episodes in each of 12 cells per policy: 6 out-of-domain, 6 in-domain."""
    records = []
    for policy in policies:
        records += ood_records(policy, (50,) * 6, episodes=(100,) * 6)
        for protocol, sub in itertools.product(PROTOCOLS, ("horizontal", "vertical", "standing")):
            records += expand_cell(policy, "coke_can", "single", episodes=100, lift_successes=40,
                                   grasp_successes=60, protocol=protocol, sub_setting=sub)
    return records


def test_parse_memory_per_episode_is_capped(tmp_path):
    policies = [f"policy_{i:02d}" for i in range(20)]
    records = _sweep_records(policies)
    path = tmp_path / "episodes.jsonl"
    write_episode_log(records, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_episode_log(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(parsed) == 24_000 and parsed == records
    # columns, not records: 21 B per episode measured on 2 cores (19-22 on 1-4), plus half again
    assert peak / len(parsed) <= 32, f"{peak / len(parsed):.1f} B per episode"
    # each range has its own string table, so a policy has at most one object per range
    with open(path, "rb") as fh:
        range_count = len(ood_eval._line_ranges(fh.fileno(), path.stat().st_size))
    for policy in policies:
        assert len({id(r.policy) for r in parsed if r.policy == policy}) <= range_count


def test_aggregate_memory_per_record_is_capped():
    records = _sweep_records([f"policy_{i:02d}" for i in range(20)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = aggregate(records)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 24_000 and len(table.cells) == 240
    # a list of references per cell, and one cell's episode ids at a time
    assert peak / len(records) <= 24, f"{peak / len(records):.1f} B per record"


def test_renderers_produce_aligned_tables():
    records = ood_records("OpenVLA", OPENVLA_LIFTS) + in_domain_records(
        "OpenVLA", {"horizontal": 31, "vertical": 3, "standing": 19}
    )
    table = aggregate(records)
    ood_text = render_ood_table(table)
    assert "0.162" in ood_text and "OpenVLA" in ood_text
    in_domain_text = render_in_domain_table(table)
    assert "0.177" in in_domain_text and "visual_matching" in in_domain_text
    partial = render_partial_success(partial_success_summary(table))
    assert "grasp" in partial and "lift" in partial


def test_table_to_dict_is_json_friendly():
    table = aggregate(ood_records("OpenVLA", OPENVLA_LIFTS))
    payload = table.to_dict()
    assert payload["metric"] == "lift"
    assert payload["policies"]["OpenVLA"]["total"] == 0.162
    assert len(payload["cells"]) == 6
