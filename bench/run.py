"""Benchmark of the polykh pipeline, one workload per process.

    python3 bench/run.py --workload kh-torus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; polykh is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0 on a
checked result, 1 if an output check failed, 2 if polykh cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed, require
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kh-torus", "corpus-refine", "cube-moves")
SETUP_REPEATS = 5

TIME_LAYERS = (
    "geometry.direction", "geometry.refine", "geometry.deform",
    "diagram.build", "cube.build", "cube.formula", "cube.trace",
    "khovanov.complex", "khovanov.homology", "khovanov.jones",
    "moves.classify", "moves.transform", "moves.apply")
COUNTS = ("geometry.vertices_added", "diagram.crossings", "cube.vertices",
          "cube.resolve_steps", "khovanov.generators", "khovanov.nonzeros",
          "khovanov.max_block_rows")
RATIOS = {"geometry.deform_accept_ratio": ("geometry.insertions_constructible",
                                           "geometry.insertions"),
          "moves.closed_per_classified": ("moves.closed", "moves.classified")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        print(f"{name} {lines[-1] if lines else '(no result)'}")
        worst = max(worst, proc.returncode)
    return worst


class Runner:
    def __init__(self, make_ops, inputs, tracer, descend):
        self.make_ops = make_ops
        self.inputs = inputs
        self.t = tracer
        self.descend = descend
        self.op_times: list[list[float]] = []     # per untraced round
        self.attempted = 0
        self.failed = 0

    def round(self) -> tuple[float, dict]:
        """One pass over the workload's operations: (seconds, layer values)."""
        t = self.t
        first_span = len(t.spans)
        t.counts = {}
        extra = {"cube.formula": 0.0, "cube.trace": 0.0}
        times = []
        for label, op in self.make_ops(self.inputs):
            t.start_op(label)
            self.attempted += 1
            start = time.perf_counter()
            try:
                op(t)
            except CheckFailed:
                raise
            except Exception:
                self.failed += 1
                print(f"operation {label} failed:", file=sys.stderr)
                traceback.print_exc()
            times.append(time.perf_counter() - start)
            for diagram, order in t.cubes:
                f, tr, steps = self.descend(diagram, order)
                extra["cube.formula"] += f
                extra["cube.trace"] += tr
                t.count("cube.resolve_steps", steps)
        layers = {}
        if t.enabled:
            layers = t.span_totals(first_span)
            layers.update(extra)
            layers.update(t.counts)
        else:
            self.op_times.append(times)
        return sum(times), layers

    def op_medians(self) -> list[float]:
        """Each operation's median seconds over the untraced rounds.

        A burst of load on the machine slows the operations that run during
        it; the median over rounds leaves them out, operation by operation.
        """
        return [median(op) for op in zip(*self.op_times)]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(args, runner: Runner, setup_s: float) -> dict:
    """Run whole rounds until ``--seconds`` have passed."""
    t = runner.t
    deadline = time.perf_counter() + args.seconds
    plain: list[float] = []
    traced: list[float] = []
    layer_rounds: list[dict] = []
    while True:
        t.enabled = False
        plain.append(runner.round()[0])
        if args.trace:
            t.enabled = True
            wall, layers = runner.round()
            t.enabled = False
            traced.append(wall)
            layer_rounds.append(layers)
        if time.perf_counter() >= deadline:
            break
    print("rounds_s = " + " ".join(f"{x:.3f}" for x in plain))
    if args.trace:
        print("traced_rounds_s = " + " ".join(f"{x:.3f}" for x in traced))
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_op = runner.op_medians()
        return {"wall_s": (sum(per_op), "s"),
                "op_p50_s": (median(per_op), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "setup_s": (setup_s, "s")}

    for name in COUNTS + tuple(n for pair in RATIOS.values() for n in pair):
        values = {r.get(name, 0) for r in layer_rounds}
        require(len(values) == 1,
                f"count {name} differs between rounds: {sorted(values)}")
    t.memory = True
    runner.round()
    t.memory = False
    last = layer_rounds[-1]
    metrics = {}
    for name in TIME_LAYERS:
        metrics[name + "_s"] = (
            median([r.get(name, 0.0) for r in layer_rounds]), "s")
    for name in COUNTS:
        metrics[name] = (last.get(name, 0), "count")
    for name, (num, den) in RATIOS.items():
        ratio = last.get(num, 0) / last[den] if last.get(den) else 0.0
        metrics[name] = (ratio, "ratio")
    for name in ("khovanov.complex", "khovanov.homology"):
        metrics[name + "_peak_mb"] = (t.peaks.get(name, 0) / 2 ** 20, "MB")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "polykh" / "__init__.py").is_file():
        print(f"error: no polykh sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, descend
    import_s = time.perf_counter() - start

    make_inputs, make_ops = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = make_inputs(args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + median(setups)

    tracer = Tracer()
    runner = Runner(make_ops, inputs, tracer, descend)
    correct = True
    try:
        metrics = measure(args, runner, setup_s)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    if args.trace and tracer.spans:
        out = ROOT / "bench" / "out"
        os.makedirs(out, exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
