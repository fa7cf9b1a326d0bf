"""Benchmark of debye-screen, run against the package in ``src`` from outside.

    python3 benchmark/run.py --workload kernel_scan --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Each run runs whole rounds of the workload's operations until the next
round would end past ``--seconds`` (at least one round), measures the
set-up time in fresh interpreters, then checks the outputs against
independent results. The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. See benchmark/README.md.
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

from inputs import WORKLOADS as WORKLOAD_NAMES, make_inputs
from spans import Tracer, cpu_counters, steal_adjusted
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9      # timed fresh interpreters per run, after one discarded
SETUP_TIMEOUT_S = 60.0


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Median (set-up, import, CPU) seconds over fresh interpreters.

    The first probe is discarded: in a fresh checkout it also compiles
    the bytecode caches. The probes run with one OpenBLAS thread. With
    its default pool, importing numpy took 0.16 s or 0.24 s, depending on
    whether the scheduler put the pool's spinning threads on the idle CPU
    or beside the importing thread; that is numpy's start-up, not this
    package's.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    rows = [subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=SETUP_TIMEOUT_S, check=True).stdout.split()
            for _ in range(SETUP_PROBES + 1)][1:]
    return tuple(statistics.median(float(r[i]) for r in rows) for i in range(3))


def run_rounds(workload, budget: float, first: int, tracer=None):
    """Whole rounds until the next one would end past ``budget`` seconds.

    A round's time is the sum of its operations' steal-adjusted times;
    adjusting per operation keeps single- and multi-threaded phases apart.
    """
    ops = workload.ops()
    walls, times, steals, cpus, rounds = [], [], [], [], []
    op_times = {op.name: [] for op in ops}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        index = first + len(rounds)
        t0, c0 = time.perf_counter(), workload.cpu_seconds()
        outputs, adjusted, stolen = {}, 0.0, 0.0
        for op in ops:
            if tracer is not None:
                tracer.op, tracer.round = op.name, index
            k0, o0 = cpu_counters(), time.perf_counter()
            try:
                value = op.run()
                bad = op.fails(value)
            except Exception:   # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                value, bad = None, True
            o1 = time.perf_counter()
            op_time, op_steal = steal_adjusted(o1 - o0, k0, cpu_counters())
            adjusted += op_time
            op_times[op.name].append(op_time)
            stolen += op_steal
            if tracer is not None:
                tracer.record("op", o0, o1, seconds=op_time)
            attempted += 1
            failed += bool(bad)
            outputs[op.name] = None if bad else value
        walls.append(time.perf_counter() - t0)
        cpus.append(workload.cpu_seconds() - c0)
        times.append(adjusted)
        steals.append(stolen)
        rounds.append(outputs)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            break
    if tracer is not None:
        tracer.op = tracer.round = None
    return {"times": times, "walls": walls, "steals": steals, "cpus": cpus, "ops": op_times,
            "rounds": rounds, "attempted": attempted, "failed": failed}


def per_layer_units() -> dict:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def peak_rss_mib(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0   # ru_maxrss is in KiB on Linux


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if threads := WORKLOADS[name].threads:
        os.environ["DEBYE_SCREEN_THREADS"] = threads
    else:
        os.environ.pop("DEBYE_SCREEN_THREADS", None)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[name](make_inputs(name, seed), ROOT)
    try:
        workload.warm_up()
        if not trace:
            plain = run_rounds(workload, seconds, 0)
            runs = [plain]
            peak = peak_rss_mib(name == "cli")
            setup_s, _, setup_cpu = measure_setup(name, seed)
            print(f"{name} set-up: median {setup_s:.4f} s wall, {setup_cpu:.4f} s CPU "
                  f"over {SETUP_PROBES} fresh interpreters")
            metrics = {
                "setup_s": (setup_s, "s"),
                "round_s": (statistics.median(plain["times"]), "s"),
                "peak_rss_mib": (peak, "MiB"),
            }
        else:
            tracer = Tracer()
            plain = run_rounds(workload, seconds / 2.0, 0)
            workload.instrument(tracer)
            try:
                traced = run_rounds(workload, seconds / 2.0, len(plain["rounds"]), tracer)
            finally:
                tracer.restore()
            runs = [plain, traced]
            layer_rounds = range(len(plain["rounds"]), len(plain["rounds"]) + len(traced["rounds"]))
            units = per_layer_units()
            layers = dict.fromkeys(units, 0.0)   # 0 where this workload skips the layer
            layers.update(workload.layer_metrics(tracer, layer_rounds))
            if name == "cli":
                layers["cli.import_s"] = measure_setup(name, seed)[1]
            layers["proc.cpu_s"] = statistics.median(plain["cpus"])
            layers["trace.overhead_s"] = (statistics.median(traced["times"])
                                          - statistics.median(plain["times"]))
            metrics = {k: (v, units[k]) for k, v in layers.items()}
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))

        rounds = [r for run in runs for r in run["rounds"]]
        checks = workload.checks(rounds)
    finally:
        workload.close()
    for i, run in enumerate(runs):
        for key in ("times", "walls", "steals", "cpus"):
            print(f"{name} {('untraced', 'traced')[i]} rounds, {key} (s): "
                  + " ".join(f"{t:.3f}" for t in run[key]))
        print(f"{name} {('untraced', 'traced')[i]} operations, median adjusted (s): "
              + " ".join(f"{k} {statistics.median(v):.3f}" for k, v in run["ops"].items()))
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {name}.{c.name}: {c.detail}")
    return {
        "correct": all(c.ok for c in checks),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metric names get the workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
            print(f"{name:12s} {metric:32s} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:12s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "debye_screen", "__init__.py")):
        print(f"error: no package source at {SRC}/debye_screen; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
