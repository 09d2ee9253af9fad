#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the revla command line.

    python3 perfbench/run.py --workload ckpt_512mb --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory, nothing needs to be installed. The inputs are generated
from ``--seed`` into ``.perfbench_work/inputs/``, where the next run
rewrites them in place (see ``inputs.rewrite_in_place``). Results, the
environment and (with ``--trace 1``) the spans go to ``.perfbench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Without a ``src/revla``
next to this directory the benchmark exits with status 2.

With ``--trace 0`` every operation is a fresh ``python -m revla.cli``
child, run one at a time (a closed loop with one client) for ``--seconds``
after one warm-up iteration. Each child's own peak RSS comes from
``os.wait4``. The reported figures are medians over iterations; one
iteration runs the workload's operations once. Every artifact is checked
against a reference computed by the benchmark and must equal the first
run's byte for byte.

With ``--trace 1`` the same operations also run in process through
``revla.cli.main``, untraced and then traced (see ``tracing.py``), and the
metrics are per layer. Layers the workload does not drive are traced on
small inputs of the other workloads, so every layer figure exists on every
workload; compare a layer figure only within one workload.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import MERGE_ALPHA, MERGE_SELECT, write_checkpoint_pair, write_episode_log
from oracles import check_eval, check_inspect, check_lab, check_merge

ROOT = Path(__file__).resolve().parent.parent
MIB = float(1 << 20)
MIN_ITERATIONS = 3
SETUP_CALLS = 15

# Small sizes that other workloads' traced runs use for the layers they do not drive.
_SMALL_LAB_FLAGS = ["--pretrain-steps", "500", "--finetune-steps", "500",
                    "--total-steps", "500", "--stage-length", "50"]


@dataclass(frozen=True)
class Op:
    """One CLI operation of a workload, with the check its artifact must pass."""

    name: str
    argv: Callable[[Path], list[str]]  # arguments, given a fresh output path
    check: Callable[[Path], str]      # raises OracleError, else returns a digest
    rate_name: str                    # throughput figure of the report
    rate_unit: str
    work: float                       # units of ``rate_unit`` done by one call
    suffix: str                       # output file suffix; "" for a directory
    full: bool                        # full-size inputs, or the small ones

    @property
    def key(self) -> str:
        return self.name if self.full else self.name + "_small"


def ckpt_ops(directory: Path, seed: int, full: bool) -> list[Op]:
    """Merge the DINO group of two ~512 MiB checkpoints, then inspect one."""
    pair = write_checkpoint_pair(directory, seed, 1024 if full else 256)
    return [
        Op("merge",
           lambda out: ["merge", str(pair.current), str(pair.pretrained), "--alpha",
                        str(MERGE_ALPHA), "--select", MERGE_SELECT, "--out", str(out)],
           lambda out: check_merge(out, pair), "merge_mb_per_s", "MB/s",
           2 * pair.file_bytes / MIB, ".safetensors", full),
        Op("inspect", lambda out: ["inspect", str(pair.current), "--out", str(out)],
           lambda out: check_inspect(out, pair), "inspect_mb_per_s", "MB/s",
           pair.file_bytes / MIB, ".json", full),
    ]


def lab_ops(directory: Path, seed: int, full: bool) -> list[Op]:
    """All four reversal variants with the default lab config."""
    flags = [] if full else _SMALL_LAB_FLAGS
    return [Op("lab", lambda out: ["lab", "--variant", "all", "--seed", str(seed), *flags,
                                   "--out", str(out)],
               check_lab, "lab_variants_per_s", "variants/s", 4.0, "", full)]


def eval_ops(directory: Path, seed: int, full: bool) -> list[Op]:
    """Score a 240k-episode log of 200 policies against the first policy."""
    log = write_episode_log(directory, seed, 200 if full else 20)
    return [Op("eval", lambda out: ["eval", str(log.path), "--metric", "lift", "--baseline",
                                    log.policies[0], "--out", str(out)],
               lambda out: check_eval(out, log), "eval_episodes_per_s", "episodes/s",
               float(log.episodes), ".json", full)]


WORKLOADS = {"ckpt_512mb": ckpt_ops, "lab_all": lab_ops, "eval_sweep": eval_ops}


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> ChildRun:
    """Run ``python -m revla.cli argv`` to completion and return its own usage."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "revla.cli", *argv], env=env, cwd=cwd,
                                stdout=sink, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _release_memory() -> None:
    """Hand freed heap pages back to the OS so the next child runs beside a small parent."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class Runner:
    """Runs operations, checks and then deletes their artifacts, and counts failures.

    Every run writes to a new path: overwriting a large file can be far
    slower than writing a new one. Checking and deleting happen after the
    operation has returned, outside its timed window.
    """

    def __init__(self, work: Path, env: dict) -> None:
        self.work = work
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[str, str] = {}
        self._outputs = itertools.count()

    def child(self, op: Op) -> ChildRun:
        """One fresh ``python -m revla.cli`` process."""
        out, log = self._paths(op)
        run = run_child(op.argv(out), self.env, self.work, log)
        self._settle(op, out, run.code, log)
        return run

    def inprocess(self, op: Op, tracer=None, **op_fields) -> float:
        """One ``revla.cli.main`` call in this process; returns its wall time."""
        from tracing import run_cli_inprocess

        out, log = self._paths(op)
        code, wall = run_cli_inprocess(op.argv(out), log, tracer, **op_fields)
        self._settle(op, out, code, log)
        _release_memory()
        return wall

    def _paths(self, op: Op) -> tuple[Path, Path]:
        return (self.work / f"{op.key}_{next(self._outputs)}{op.suffix}",
                self.work / f"{op.key}.log")

    def _settle(self, op: Op, out: Path, code: int, log: Path) -> None:
        self.attempted += 1
        try:
            if code != 0:
                tail = log.read_text(encoding="utf-8", errors="replace").strip()[-300:]
                raise RuntimeError(f"exit status {code}: {tail}")
            digest = op.check(out)
            if self._digests.setdefault(op.key, digest) != digest:
                raise RuntimeError("artifact differs from the first run's")
        except Exception as exc:  # any failure to produce a correct artifact is counted
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            print(f"FAILED {op.key}: {exc}", file=sys.stderr)
        finally:
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p50..p99 with at least ten samples beyond it, and its value."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, unit: str, value: float, samples: list[float], sample_unit: str) -> str:
    """One report line: a median-based figure and the tail of the samples behind it."""
    tail = tail_percentile(samples)
    spread = (f"p{tail[0]} {tail[1]:.4g} {sample_unit}" if tail
              else "no percentile has 10 samples beyond it")
    return f"{name} = {value:.6g} {unit}  (median of n={len(samples)}; {spread})"


def measure_setup(env: dict, work: Path) -> list[float]:
    """Wall times of fresh ``revla --version`` calls: interpreter start plus every import."""
    log = work / "version.log"
    run_child(["--version"], env, work, log)  # warm the page cache and bytecode cache
    return [run_child(["--version"], env, work, log).wall_s for _ in range(SETUP_CALLS)]


def timed_run(ops: list[Op], seconds: float, runner: Runner, report: list[str],
              samples: dict[str, list[float]]) -> dict[str, float]:
    """Closed loop over the workload's operations after one warm-up iteration."""
    for op in ops:
        runner.child(op)
    runs: dict[str, list[ChildRun]] = {op.name: [] for op in ops}
    iterations: list[list[ChildRun]] = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        row = [runner.child(op) for op in ops]
        for op, run in zip(ops, row):
            runs[op.name].append(run)
        iterations.append(row)
    for op in ops:
        walls = [r.wall_s for r in runs[op.name]]
        report.append(describe(op.rate_name, op.rate_unit, op.work / statistics.median(walls),
                               walls, "s"))
        rss = [r.peak_rss_mb for r in runs[op.name]]
        report.append(describe(f"{op.name}_peak_rss_mb", "MB", statistics.median(rss),
                               rss, "MB"))
        samples[f"{op.name}_wall_s"] = walls
        samples[f"{op.name}_peak_rss_mb"] = rss
    iter_s = [sum(r.wall_s for r in row) for row in iterations]
    iter_rss = [max(r.peak_rss_mb for r in row) for row in iterations]
    report.append(describe("iter_s", "s", statistics.median(iter_s), iter_s, "s"))
    report.append(describe("peak_rss_mb", "MB", statistics.median(iter_rss), iter_rss, "MB"))
    samples["iter_s"] = iter_s
    return {
        "iter_s": statistics.median(iter_s),
        "peak_rss_mb": statistics.median(iter_rss),
    }


def traced_run(own: list[Op], small: list[Op], seconds: float, runner: Runner,
               report: list[str], spans_path: Path) -> dict[str, float]:
    """Per-layer metrics from subprocess, untraced and traced in-process runs of each op."""
    from tracing import Tracer, direct_layer_time, layer_metrics

    tracer = Tracer()
    unaccounted, overhead = [], []
    start = time.perf_counter()
    while not unaccounted or time.perf_counter() - start < seconds:
        rep = len(unaccounted)
        child_wall = sum(runner.child(op).wall_s for op in own)
        first = len(tracer.ops)
        walls = {}
        for traced in (rep % 2 == 0, rep % 2 == 1):  # alternate which pass runs first
            walls[traced] = sum(runner.inprocess(op, tracer if traced else None, rep=rep)
                                for op in own)
        layer = sum(direct_layer_time(tracer, o["span"]) for o in tracer.ops[first:])
        unaccounted.append(child_wall - layer)
        overhead.append(walls[True] / walls[False] - 1.0)
    # Layers this workload does not drive, on small inputs.
    for op in small:
        if op.name not in {o.name for o in own}:
            runner.inprocess(op, tracer, rep=None)
    # tracemalloc slows record parsing ~5x, so allocation ratios (per input
    # byte, per episode) come from the small inputs on every workload.
    alloc = Tracer(alloc=True)
    for op in small:
        if op.name in ("merge", "eval"):
            runner.inprocess(op, alloc, rep=None)
    tracer.dump(spans_path)
    metrics = layer_metrics(tracer, alloc)
    metrics["cli.unaccounted_s"] = statistics.median(unaccounted)
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    report.append(f"traced repetitions: {len(unaccounted)}; spans in {spans_path}")
    report.append("per repetition: cli.unaccounted_s "
                  + " ".join(f"{v:.4f}" for v in unaccounted)
                  + "; trace.overhead_frac " + " ".join(f"{v:.4f}" for v in overhead))
    return metrics


END_TO_END_UNITS = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tensor_store.load_mb_per_s": "MB/s",
    "tensor_store.load_alloc_per_byte": "ratio",
    "tensor_store.save_mb_per_s": "MB/s",
    "tensor_store.serialize_mb_per_s": "MB/s",
    "merge.blend_mb_per_s": "MB/s",
    "merge.alloc_per_byte": "ratio",
    "schedule.apply_stage_us": "us",
    "toy_lab.train_steps_per_s": "1/s",
    "toy_lab.frozen_train_steps_per_s": "1/s",
    "toy_lab.probe_ms": "ms",
    "toy_lab.shared_phase_s": "s",
    "toy_lab.reversal_phase_s": "s",
    "ood_eval.parse_episodes_per_s": "1/s",
    "ood_eval.aggregate_ms": "ms",
    "ood_eval.partial_ms": "ms",
    "ood_eval.render_ms": "ms",
    "ood_eval.parse_alloc_per_episode": "B",
    "cli.unaccounted_s": "s",
    "trace.overhead_frac": "ratio",
}


def _blas_threads() -> int | None:
    """OpenBLAS's thread count as numpy's bundled library reports it, left at its default."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _mount_of(path: Path) -> dict:
    """File system type and mount options of the mount holding ``path``."""
    best: dict = {}
    with open("/proc/self/mountinfo", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount_point = fields[4]
            rest = fields[fields.index("-") + 1:]
            if (str(path).startswith(mount_point.rstrip("/") + "/")
                    and len(mount_point) >= len(best.get("mount_point", ""))):
                best = {"mount_point": mount_point, "fstype": rest[0],
                        "options": fields[5] + "," + rest[2]}
    return best


def describe_environment(seed: int, src: Path, work: Path) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git: the commit stays unknown
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "seed": seed,
        "commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "work_dir_mount": _mount_of(work),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced in-process runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "revla" / "__init__.py").is_file():
        print(f"error: no revla sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import revla

    src = Path(revla.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    inputs = ROOT / ".perfbench_work" / "inputs"
    work = ROOT / ".perfbench_work" / f"run_{os.getpid()}"
    results = ROOT / ".perfbench_out"
    for directory in (inputs, work, results):
        directory.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    runner = Runner(work, env)
    report: list[str] = []
    samples: dict[str, list[float]] = {}
    try:
        environment = describe_environment(args.seed, src, work)
        own = WORKLOADS[args.workload](inputs, args.seed, True)
        if args.trace:
            small = [op for make in WORKLOADS.values() for op in make(inputs, args.seed, False)]
            metrics = traced_run(own, small, args.seconds, runner, report,
                                 results / f"{stem}_spans.json")
            units = PER_LAYER_UNITS
        else:
            samples["setup_s"] = setup = measure_setup(env, work)
            report.append(describe("setup_s", "s", statistics.median(setup), setup, "s"))
            metrics = {"setup_s": statistics.median(setup),
                       **timed_run(own, args.seconds, runner, report, samples)}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    report.append(f"failed_frac = {failed / runner.attempted:.6g} "
                  f"({failed} of {runner.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "environment": environment,
         "report": report, "failures": runner.failures, "samples": samples, **result},
        indent=2) + "\n",
        encoding="utf-8")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
