"""Success-rate aggregation with fixtures reconstructed from published counts."""

from __future__ import annotations

import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revla
from revla.ood_eval import (
    LOG_FIELDS,
    PROTOCOLS,
    SCENARIOS,
    SETTINGS,
    Cell,
    DuplicateEpisodeError,
    EpisodeRecord,
    EvalLogError,
    UnknownScenarioError,
    aggregate,
    expand_cell,
    parse_episode_log,
    partial_success_summary,
    relative_improvement,
    render_in_domain_table,
    render_ood_table,
    render_partial_success,
    round_rate,
    write_episode_log,
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
    assert table.total_rate("OpenVLA") == 0.162


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
    assert table.total_rate("RT1-X") == 0.094


def test_all_zero_policy():
    table = aggregate(ood_records("Octo", (0, 0, 0, 0, 0, 0)))
    assert table.total_rate("Octo") == 0.0
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
    summary = partial_success_summary(records)
    assert summary["ReVLA (Gradual)"] == (0.579, 0.278)


def test_partial_success_all_successful():
    records = expand_cell("perfect", "pear", "single", episodes=36, lift_successes=36)
    assert partial_success_summary(records)["perfect"] == (1.0, 1.0)


def test_grasp_rate_never_below_lift_rate():
    records = ood_records(
        "ReVLA (Gradual)", REVLA_GRADUAL_LIFTS, grasps=REVLA_GRADUAL_GRASPS
    ) + ood_records("OpenVLA", OPENVLA_LIFTS)
    for grasp, lift in partial_success_summary(records).values():
        assert grasp >= lift
    table = aggregate(records)
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
    assert abs(again.total_rate("OpenVLA") - table.total_rate("OpenVLA")) <= 5e-4


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
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
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
    records = expand_cell("p", "pear", "single", episodes=2, lift_successes=1)
    with pytest.raises(DuplicateEpisodeError, match="duplicate"):
        aggregate(records + records[:1])


def test_empty_aggregate_rejected():
    with pytest.raises(EvalLogError, match="no records"):
        aggregate([])
    with pytest.raises(EvalLogError, match="no records"):
        partial_success_summary([])


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            ["record"] * 4 + ["padded", "two_values", "spanning", "non_object", "blank"]))
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
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0c"])))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _typed(records):
    return [[(type(value), value) for value in record] for record in records]


@settings(max_examples=300, deadline=None)
@given(_log_texts())
def test_parse_matches_per_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("log") / "episodes.jsonl"
    path.write_bytes(text.encode("utf-8"))
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


def test_parse_memory_per_episode_is_capped(tmp_path):
    policies = [f"policy_{i:02d}" for i in range(20)]
    records = []
    for policy in policies:
        records += ood_records(policy, (50,) * 6, episodes=(100,) * 6)
        for protocol, sub in itertools.product(PROTOCOLS, ("horizontal", "vertical", "standing")):
            records += expand_cell(policy, "coke_can", "single", episodes=100, lift_successes=40,
                                   grasp_successes=60, protocol=protocol, sub_setting=sub)
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
    assert peak / len(parsed) <= 200, f"{peak / len(parsed):.0f} B per episode"
    for policy in policies:
        assert len({id(r.policy) for r in parsed if r.policy == policy}) == 1


def test_renderers_produce_aligned_tables():
    records = ood_records("OpenVLA", OPENVLA_LIFTS) + in_domain_records(
        "OpenVLA", {"horizontal": 31, "vertical": 3, "standing": 19}
    )
    table = aggregate(records)
    ood_text = render_ood_table(table)
    assert "0.162" in ood_text and "OpenVLA" in ood_text
    in_domain_text = render_in_domain_table(table)
    assert "0.177" in in_domain_text and "visual_matching" in in_domain_text
    partial = render_partial_success(partial_success_summary(records))
    assert "grasp" in partial and "lift" in partial


def test_table_to_dict_is_json_friendly():
    table = aggregate(ood_records("OpenVLA", OPENVLA_LIFTS))
    payload = table.to_dict()
    assert payload["metric"] == "lift"
    assert payload["policies"]["OpenVLA"]["total"] == 0.162
    assert len(payload["cells"]) == 6
