"""Benchmark for zerosum: times each workload's operations and checks their outputs.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src. One run
sets the package up several times (a fresh import plus a first untimed call)
and reports the median as setup_s. It then runs rounds of the workload's
operations, each round in a seeded order, until the next round would pass
--seconds, with at least MIN_ROUNDS rounds. Every operation is timed on its
own, scaled by the machine speed that SpeedProbe measured next to it, and
summarised by its median over the rounds, so a slow stretch of the machine
moves one sample of an operation rather than the whole figure.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics. With --trace 1 each operation runs once untraced and once
under the tracer in every round, and the result holds the per-layer metrics.
Either way the full result, spans included when traced, is also written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkers import CheckFailed  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

SETUPS = 7
MIN_ROUNDS = 3
MODULES = ("groups", "sequences", "_bitdp", "engine", "extractors", "constructions", "search", "cli")


def load_zerosum(src: Path) -> types.SimpleNamespace:
    """A fresh import of zerosum from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "zerosum" or m.startswith("zerosum.")]:
        del sys.modules[name]
    pkg = importlib.import_module("zerosum")
    if Path(pkg.__file__).resolve().parent != src / "zerosum":
        raise ImportError(f"zerosum was imported from {pkg.__file__}, not from {src}")
    mods = {m: importlib.import_module(f"zerosum.{m}") for m in MODULES}
    return types.SimpleNamespace(modules=mods, **mods)


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timed(fn):
    """(result, wall seconds, CPU seconds of this process and reaped children)."""
    c0, k0 = time.process_time(), children_cpu()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0 + children_cpu() - k0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


class Outcome:
    """Per-operation samples, failures and the correctness verdict of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.correct = True
        self.first: dict[str, object] = {}
        # (kind, "wall" or "cpu") -> operation name -> seconds per sample
        self.samples: dict[tuple[str, str], dict[str, list[float]]] = {}

    def record(self, op, kind: str, fn) -> tuple[float, float] | None:
        """Run and time one operation and check its output; its (wall, CPU)
        seconds, or None if it failed."""
        if kind == "untraced":
            self.attempted += 1
        try:
            out, wall, cpu = timed(fn)
        except (OpFailed, ValueError, RuntimeError, AssertionError) as exc:
            self.failed += 1
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.samples.setdefault((kind, "wall"), {}).setdefault(op.name, []).append(wall)
        self.samples.setdefault((kind, "cpu"), {}).setdefault(op.name, []).append(cpu)
        if op.name not in self.first:
            self.first[op.name] = out
            t0 = time.perf_counter()
            try:
                op.check(out)
            except CheckFailed as exc:
                self.correct = False
                print(f"WRONG {op.name}: {exc}", file=sys.stderr)
            self.check_s += time.perf_counter() - t0
        elif out != self.first[op.name]:
            self.correct = False
            print(f"WRONG {op.name}: output differs between rounds", file=sys.stderr)
        return wall, cpu

    def medians(self, kind: str, measure: str = "wall") -> dict[str, float]:
        per = self.samples.get((kind, measure), {})
        return {name: statistics.median(v) for name, v in per.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    workload = WORKLOADS[workload_name]
    setup_times = []
    setup_probe = SpeedProbe(share=1.0, workers=1)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        zs = load_zerosum(src)
        workload.warmup(zs)
        setup_times.append(time.perf_counter() - t0)
        setup_probe.after("setup", setup_times[-1], setup_times[-1])
    setup_probe.flush()
    pack_info = zs._bitdp.get_pack.cache_info

    rng = random.Random(seed)
    ops = workload.make_ops(zs, rng)
    outcome = Outcome()
    tracer = Tracer(zs) if trace else None
    serial_ops = None
    if trace and workload.workers > 1:
        serial_ops = {op.name: op for op in WORKLOADS["scan"].make_ops(zs, random.Random(seed))}
    rounds = 0
    measured = 0.0
    pack_builds = None
    probe = SpeedProbe(share=0.25, workers=1 if trace else workload.workers)
    try:
        while rounds < (1 if trace else MIN_ROUNDS) or measured * (rounds + 1) / rounds <= seconds:
            t0 = time.perf_counter()
            order = list(ops)
            rng.shuffle(order)
            for op in order:
                timing = outcome.record(op, "untraced", op.call)
                if timing is None:
                    continue
                if not trace:
                    probe.after(op.name, *timing)
                    continue
                outcome.record(op, "traced", lambda op=op: tracer.traced(op.name, op.call))
                if serial_ops is not None:
                    outcome.record(op, "serial", serial_ops[op.name].call)
            if pack_builds is None:
                pack_builds = pack_info().misses
            measured += time.perf_counter() - t0 - outcome.check_s
            outcome.check_s = 0.0
            rounds += 1
        probe.flush()
        # Before the probe's own worker processes are reaped, so that only
        # the program's workers count.
        peak_rss = peak_rss_mb()
    finally:
        probe.close()

    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "setup_s_samples": setup_times,
        "probe_s": probe.samples,
        "op_wall_scaled_s": probe.scaled["wall"],
        "setup_probe_s": setup_probe.samples,
        "op_wall_s": outcome.medians("untraced"),
        "op_cpu_s": outcome.medians("untraced", "cpu"),
    }
    if trace:
        metrics = per_layer_metrics(tracer, outcome, rounds, workload.workers, pack_builds)
        result["spans"] = tracer.spans_jsonable()
    else:
        metrics = {
            "wall_s": {"value": probe.total("wall"), "unit": "s"},
            "cpu_s": {"value": probe.total("cpu"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "setup_s": {"value": setup_probe.total("wall"), "unit": "s"},
        }
    result["metrics"] = metrics
    result["summary"] = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "zerosum" / "__init__.py").is_file():
        print(f"ERROR: no zerosum package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), src.resolve())

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
