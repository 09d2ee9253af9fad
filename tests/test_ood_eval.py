"""Success-rate aggregation with fixtures reconstructed from published counts."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from revla.ood_eval import (
    Cell,
    DuplicateEpisodeError,
    EpisodeRecord,
    EvalLogError,
    ScenarioSpec,
    UnknownScenarioError,
    aggregate,
    expand_cell,
    ood_suite,
    parse_episode_log,
    partial_success_summary,
    relative_improvement,
    render_in_domain_table,
    render_ood_table,
    render_partial_success,
    round_rate,
    scenario_suite,
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


def test_default_ood_suite_is_216_episodes():
    suite = ood_suite()
    assert len(suite) == 6
    assert sum(spec.episodes_per_setting for spec in suite) == 216
    assert {spec.target_object for spec in suite} == set(OBJECTS)


def test_suite_episode_override():
    suite = ood_suite(10)
    assert sum(spec.episodes_per_setting for spec in suite) == 60


def test_full_suite_includes_in_domain_protocols():
    suite = scenario_suite()
    coke = [s for s in suite if s.target_object == "coke_can"]
    assert {s.protocol for s in coke} == {"visual_matching", "variant_aggregation"}
    assert len(suite) == 8


def test_distractor_specs_list_distractors():
    for spec in ood_suite():
        if spec.setting == "distractor":
            assert spec.distractor_objects
        else:
            assert spec.distractor_objects == ()


def test_single_spec_cannot_have_distractors():
    with pytest.raises(ValueError, match="single"):
        ScenarioSpec("pear", "single", distractor_objects=("coke_can",))


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
