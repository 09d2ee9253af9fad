"""Batch command line: inspect, merge, schedule, lab, and eval subcommands.

Every successful run writes a machine-readable artifact; every failure
prints a diagnostic and exits nonzero. There is no ambient randomness: the
lab takes an explicit --seed, so repeated runs produce bitwise-identical
artifacts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from itertools import islice
from pathlib import Path

from . import METRIC_LIFT, METRICS, MODE_GRADUAL, MODES, VARIANTS, __version__, check_output

DEFAULT_LAB_TOTAL_STEPS = 5000
DEFAULT_LAB_STAGE_LENGTH = 500

# The keys a subcommand's --config file may set; each is also the dest of a flag.
_CONFIG_KEYS = {
    "lab": ("variant", "seed", "pretrain_steps", "finetune_steps", "total_steps", "stage_length"),
    "schedule": ("mode", "total_steps", "stage_length", "selector"),
}


def _on_first_call(module: str, name: str):
    """A function that imports ``module`` (relative to this package) when called, then calls its ``name``.

    This module imports no library module at load time: each command imports
    what it runs, so ``--version`` loads none, and ``schedule`` neither numpy
    nor ``ood_eval``.
    """
    def forward(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    return forward


# perfbench/tracing.py times the layers by wrapping these names on this module,
# so the commands call them through its globals. They become plain imports inside
# the commands once the library records its own spans (ROADMAP item 1).
load_checkpoint = _on_first_call(".tensor_store", "load_checkpoint")
save_checkpoint = _on_first_call(".tensor_store", "save_checkpoint")
serialize_checkpoint = _on_first_call(".tensor_store", "serialize_checkpoint")
linear_merge = _on_first_call(".merge", "linear_merge")
plan_for_variant = _on_first_call(".schedule", "plan_for_variant")
run_reversal_experiment = _on_first_call(".toy_lab.experiment", "run_reversal_experiment")
render_comparison = _on_first_call(".toy_lab.experiment", "render_comparison")
parse_episode_log = _on_first_call(".ood_eval", "parse_episode_log")
aggregate = _on_first_call(".ood_eval", "aggregate")
partial_success_summary = _on_first_call(".ood_eval", "partial_success_summary")
render_ood_table = _on_first_call(".ood_eval", "render_ood_table")
render_in_domain_table = _on_first_call(".ood_eval", "render_in_domain_table")
render_partial_success = _on_first_call(".ood_eval", "render_partial_success")


def _json(payload: dict):
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` as UTF-8, a few encoder pieces at a time,
    so the writer holds a few KB of the file, not the file."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    # 256 pieces to a chunk: one encode and one write per piece made a lab's JSON 25 % slower than json.dumps
    while text := "".join(islice(pieces, 256)):
        yield text.encode("utf-8")
    yield b"\n"


def _settings(args: argparse.Namespace) -> dict:
    """The --config file's settings with every flag that was given laid over them.

    Values are type-checked by the constructors that consume them.
    """
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{args.command} config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(settings, dict):
            raise ValueError(f"{args.command} config must be a JSON object")
        unknown = set(settings) - set(_CONFIG_KEYS[args.command])
        if unknown:
            raise ValueError(f"unknown {args.command} config keys: {sorted(unknown)}")
    for key in _CONFIG_KEYS[args.command]:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


class _Digests:
    """A writer for ``serialize_checkpoint`` that hashes the canonical file part by part.

    Each part is hashed on its own (``sha256(part)``) on the pool's thread while the calling thread
    adds it to the file's hash; hashlib releases the GIL on a large buffer, so the two run on two
    cores. Both end before ``write`` returns, because the next part may reuse the part's buffer."""

    def __init__(self, sha256, pool) -> None:
        self.sha256, self.pool = sha256, pool
        self.file, self.parts, self.nbytes = sha256(), [], 0

    def write(self, part) -> None:
        own = self.pool.submit(self.sha256, part)
        self.file.update(part)
        self.parts.append(own.result().hexdigest())
        self.nbytes += len(part)

    # perfbench's tracer takes len() of what serialize_checkpoint returns as the bytes serialized;
    # this goes once the library records its own spans (ROADMAP item 1 part B)
    def __len__(self) -> int:
        return self.nbytes


def cmd_inspect(args: argparse.Namespace) -> int:
    write_out = check_output(args.out, [args.checkpoint])
    import hashlib  # imported here to keep startup fast
    from concurrent.futures import ThreadPoolExecutor

    from .tensor_store import printable

    ckpt = load_checkpoint(args.checkpoint)
    with ThreadPoolExecutor(1) as pool:
        digests = serialize_checkpoint(ckpt, out=_Digests(hashlib.sha256, pool))
    rows = [
        {
            "name": meta.name,
            "dtype": meta.dtype.lower(),
            "shape": list(meta.shape),
            "byte_range": list(meta.byte_range),
            "sha256": digest,
        }
        for meta, digest in zip(ckpt.metas(), digests.parts[1:])  # parts[0] is the header's
    ]
    file_digest = digests.file.hexdigest()
    payload = {
        "file": str(args.checkpoint),
        "tensor_count": len(rows),
        "tensors": rows,
        "canonical_sha256": file_digest,
        "metadata": ckpt.metadata,
    }
    write_out(_json(payload))
    for row in rows:
        print(f"{printable(row['name'])}  {row['dtype']}  {row['shape']}  {row['sha256'][:16]}")
    print(f"tensors: {len(rows)}  canonical sha256: {file_digest[:16]}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    check_output(args.out, renamed=True)  # the rename keeps the inputs safe
    from .merge import MergeSpec
    from .selector import Selector
    from .tensor_store import select

    spec = MergeSpec(args.alpha, Selector(args.select or ["*"]))
    current = load_checkpoint(args.current)
    selected = select(current, spec.selector)
    if not selected:
        prefixes = sorted({name.split(".")[0] for name in current})
        raise ValueError(f"--select matched no tensors; top-level prefixes: {prefixes}")
    pretrained = load_checkpoint(args.pretrained)
    merged = linear_merge(current, pretrained, spec)
    save_checkpoint(merged, args.out)
    print(f"wrote {args.out}: {len(selected)} tensors merged at alpha={args.alpha}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    write_out = check_output(args.out, [args.config] if args.config else ())
    from .schedule import Schedule, stage_boundaries
    from .selector import Selector

    settings = _settings(args)
    if "total_steps" not in settings:
        raise ValueError("total steps required: pass --total-steps or set total_steps in --config")
    schedule = Schedule(
        settings.get("mode", MODE_GRADUAL), settings["total_steps"], settings.get("stage_length")
    )
    selector = Selector(settings.get("selector", []))
    boundaries = stage_boundaries(schedule)
    payload = {
        "mode": schedule.mode,
        "total_steps": schedule.total_steps,
        "stage_length": schedule.stage_length,
        "stage_count": schedule.stage_count,
        "boundaries": [[step, alpha] for step, alpha in boundaries],
        "selector": list(selector.patterns),
    }
    write_out(_json(payload))
    groups = ", ".join(selector.patterns) if selector.patterns else "-"
    print(f"{'step':>8}  {'alpha':>6}  groups")
    for step, alpha in boundaries:
        print(f"{step:>8}  {alpha:>6.3f}  {groups}")
    return 0


def cmd_lab(args: argparse.Namespace) -> int:
    from . import write_together
    from .toy_lab.experiment import LabConfig

    settings = _settings(args)
    variant = settings.pop("variant", "all")
    variants = list(VARIANTS) if variant == "all" else [variant]
    total_steps = settings.pop("total_steps", DEFAULT_LAB_TOTAL_STEPS)
    stage_length = settings.pop("stage_length", DEFAULT_LAB_STAGE_LENGTH)
    plans = [plan_for_variant(name, total_steps, stage_length) for name in variants]
    config = LabConfig(**settings)
    Path(args.out).mkdir(exist_ok=True)
    # one table of the files the lab writes: checked before the first training step, written after the run
    saved = ["pretrained", "finetuned", *(f"{v}_final" for v in variants)] if args.save_checkpoints else []
    names = ["shared.json", *(f"report_{v}.json" for v in variants), "comparison.txt",
             *(f"{name}.safetensors" for name in saved)]
    inputs = [args.config] if args.config else ()
    write = {name: check_output(Path(args.out, name), inputs, renamed=name.endswith(".safetensors"))
             for name in names}
    reports, shared_curves, checkpoints = run_reversal_experiment(plans, config)
    comparison = render_comparison(reports)
    chunks = {"shared.json": _json({"loss_curves": shared_curves}), "comparison.txt": [comparison.encode()]}
    chunks.update((f"report_{report.variant_name}.json", _json(report.to_dict())) for report in reports)
    chunks.update((f"{name}.safetensors", [serialize_checkpoint(checkpoints[name])]) for name in saved)
    write_together((write[name], chunks[name]) for name in names)
    print(comparison, end="")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    write_out = check_output(args.out, args.logs)
    from .ood_eval import EvalLogError, relative_improvement

    records = parse_episode_log(args.logs[0])
    for log_path in args.logs[1:]:
        records += parse_episode_log(log_path)
    table = aggregate(records, args.metric)
    del records  # all that follows reads the table
    summary = partial_success_summary(table)
    if args.baseline and args.baseline not in summary:
        raise EvalLogError(f"baseline policy {args.baseline!r} not present in the logs")

    # each section ends its lines; an empty one (no in-domain records) is left out
    sections = [render_ood_table(table), render_in_domain_table(table), render_partial_success(summary)]
    payload = {
        "metric": args.metric,
        "table": table.to_dict(),
        "partial_success": {
            policy: {"grasp": grasp, "lift": lift} for policy, (grasp, lift) in summary.items()
        },
    }
    if args.baseline:
        base_grasp, base_lift = summary[args.baseline]
        improvements = {}
        for policy, (grasp, lift) in summary.items():
            if policy == args.baseline:
                continue
            # a gain over a zero rate is undefined, so it is recorded as null
            improvements[policy] = {
                "grasp_pct": relative_improvement(grasp, base_grasp) if base_grasp else None,
                "lift_pct": relative_improvement(lift, base_lift) if base_lift else None,
            }
        payload["improvement_over_baseline"] = {"baseline": args.baseline, "policies": improvements}
        lines = [f"improvement over {args.baseline}:\n"]
        for policy, imp in improvements.items():
            grasp_text, lift_text = (
                "n/a" if pct is None else f"{pct:+d}%" for pct in (imp["grasp_pct"], imp["lift_pct"])
            )
            lines.append(f"  {policy}: grasp {grasp_text}  lift {lift_text}\n")
        sections.append("".join(lines))
    write_out(_json(payload))
    print("\n".join(section for section in sections if section), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revla",
        description="Checkpoint merging, reversal schedules, the forgetting lab, and episode-log scoring.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="list a checkpoint's tensors and checksums")
    p_inspect.add_argument("checkpoint")
    p_inspect.add_argument("--out", default="inspect.json", help="JSON inventory path")
    p_inspect.set_defaults(func=cmd_inspect)

    p_merge = sub.add_parser("merge", help="linearly interpolate two checkpoints")
    p_merge.add_argument("current")
    p_merge.add_argument("pretrained")
    p_merge.add_argument("--alpha", type=float, required=True, help="pretrained mixing weight in [0, 1]")
    p_merge.add_argument("--select", action="append", help="tensor name pattern (repeatable; default '*')")
    p_merge.add_argument("--out", required=True, help="merged checkpoint path")
    p_merge.set_defaults(func=cmd_merge)

    p_sched = sub.add_parser("schedule", help="print the stage boundary table of a curriculum")
    p_sched.add_argument("--mode", choices=MODES, help=f"default: {MODE_GRADUAL}")
    p_sched.add_argument("--total-steps", type=int)
    p_sched.add_argument("--stage-length", type=int)
    p_sched.add_argument("--select", action="append", dest="selector",
                         help="parameter group pattern (repeatable)")
    p_sched.add_argument("--config", help="JSON schedule config; explicit flags override it")
    p_sched.add_argument("--out", default="schedule.json", help="JSON boundary table path")
    p_sched.set_defaults(func=cmd_schedule)

    p_lab = sub.add_parser("lab", help="run the forgetting-and-reversal experiment")
    p_lab.add_argument("--variant", choices=VARIANTS + ("all",))
    p_lab.add_argument("--seed", type=int)
    p_lab.add_argument("--total-steps", type=int, help="reversal-phase steps")
    p_lab.add_argument("--stage-length", type=int)
    p_lab.add_argument("--pretrain-steps", type=int)
    p_lab.add_argument("--finetune-steps", type=int)
    p_lab.add_argument("--config", help="JSON experiment config; explicit flags override it")
    p_lab.add_argument("--save-checkpoints", action="store_true",
                       help="also write the shared pretrained/fine-tuned and each final checkpoint")
    p_lab.add_argument("--out", default="lab_reports", help="report directory")
    p_lab.set_defaults(func=cmd_lab)

    p_eval = sub.add_parser("eval", help="aggregate episode logs into success tables")
    p_eval.add_argument("logs", nargs="+", help="newline-delimited JSON episode logs")
    p_eval.add_argument("--metric", choices=METRICS, default=METRIC_LIFT)
    p_eval.add_argument("--baseline", help="policy to compute relative improvements against")
    p_eval.add_argument("--out", default="eval_report.json", help="JSON report path")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory: {args.command} needs more memory than this process may use",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
