"""mcpursuit benchmark: one workload, one seed, one run length.

    python3 bench/run.py --workload battery --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (setup_s, wall_s,
steps_per_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics of a
traced run and its overhead against untraced rounds. ``--workload all``
runs every workload in turn. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
#: Fewest fresh interpreters timed for setup_s; one runs after each round.
SETUP_CHILDREN = 9

clock = time.perf_counter


def _use_checkout_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "mcpursuit", "__init__.py")):
        raise SystemExit(f"bench: no package source at {os.path.join(SRC, 'mcpursuit')}")
    sys.path.insert(0, SRC)


class SimClock:
    """Times each call to ``module.simulate`` and keeps the records it returns."""

    def __init__(self, module):
        self.module = module
        self.seconds = 0.0
        self.records = []

    def __enter__(self) -> "SimClock":
        inner = self.inner = self.module.simulate

        def timed(*args, **kwargs):
            t0 = clock()
            record = inner(*args, **kwargs)
            self.seconds += clock() - t0
            self.records.append(record)
            return record

        self.module.simulate = timed
        return self

    def __exit__(self, *exc) -> None:
        self.module.simulate = self.inner


def measure(workload, seconds: float, between=None, tracer=None) -> tuple:
    """Whole rounds until ``seconds`` have passed; (rounds, last round's records).

    ``between``, if given, is called untimed after each round. With a
    ``tracer``, rounds alternate untraced and traced and end on a whole pair,
    so that a drift in the machine's speed weighs on both kinds alike.
    """
    import layers  # imports mcpursuit, so only once src/ is on sys.path

    rounds = []
    deadline = clock() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        # The tracer goes on first, so that it sees the package's own simulate.
        with tracer if traced else contextlib.nullcontext(), SimClock(workload.sim_module) as sim:
            t0 = clock()
            attempted, failed = workload.run_round()
            wall = clock() - t0
        steps = sum(layers.record_steps(r) for r in sim.records)
        rounds.append({"wall": wall, "sim": sim.seconds, "steps": steps,
                       "attempted": attempted, "failed": failed})
        if between is not None:
            between()
        if clock() >= deadline and (tracer is None or traced):
            return rounds, sim.records


def _child(name: str, seed: int, kind: str) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--child", kind]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True, timeout=170)
    return float(done.stdout.split()[-1])


def child_main(workload_name: str, seed: int, kind: str) -> None:
    """Run in a fresh interpreter: print set-up seconds or peak RSS in MB."""
    t0 = clock()
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, os.path.join(OUT, workload_name))
    workload.setup()
    if kind == "setup":
        print(repr(clock() - t0))
        return
    workload.run_round()
    print(repr(peak_rss_mb()))


def peak_rss_mb() -> float:
    """This process's peak resident set since exec.

    ru_maxrss also counts the parent's resident set at fork, so the kernel's
    high-water mark of the current image is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_benchmark() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """One workload's result; ``units`` maps each metric it reports to its unit."""
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    metrics = {}
    if not trace:
        _child(name, seed, "setup")  # warms the file cache; not counted
        metrics["peak_rss_mb"] = _child(name, seed, "rss")
        shutil.rmtree(out)
        os.makedirs(out)

    import layers  # these import mcpursuit, so only once src/ is on sys.path
    import workloads

    workload = workloads.WORKLOADS[name](seed, out)
    workload.setup()
    if not trace:
        # Set-up children run between the timed rounds, so that their median
        # spans the whole run rather than one moment of a machine whose speed
        # drifts.
        setups = []
        rounds, records = measure(workload, seconds,
                                  lambda: setups.append(_child(name, seed, "setup")))
        while len(setups) < SETUP_CHILDREN:
            setups.append(_child(name, seed, "setup"))
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(r["wall"] for r in rounds)
        metrics["steps_per_s"] = statistics.median(r["steps"] / r["sim"] for r in rounds)
    else:
        tracer = layers.Tracer()
        rounds, records = measure(workload, seconds, tracer=tracer)
        metrics = layers.per_layer(workload, records, tracer, len(rounds) // 2,
                                   os.path.join(OUT, f"{name}-replay"))
        # Each traced round against the untraced round just before it.
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            b["wall"] / a["wall"] for a, b in zip(rounds[0::2], rounds[1::2])) - 1.0)
    problems = workload.check()
    problems.extend_from("self-check", workload.self_check())
    if set(metrics) != set(units):
        raise SystemExit(f"bench: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        "round_walls": [r["wall"] for r in rounds],
        "problems": list(problems) + ([f"... and {problems.dropped} more"] if problems.dropped else []),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = load_benchmark()
    workload_names = tuple(w["name"] for w in benchmark["workloads"])
    parser.add_argument("--workload", required=True, choices=workload_names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.child:
        child_main(args.workload, args.seed, args.child)
        return 0

    names = workload_names if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    results = {}
    for name in names:
        result = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']!r} {m['unit']}")
        print(f"{name} attempted = {result['attempted']} failed = {result['failed']} "
              f"correct = {result['correct']} round walls (s) = "
              + " ".join(f"{w:.3f}" for w in result["round_walls"]))
        for problem in result["problems"]:
            print(f"{name} problem: {problem}", file=sys.stderr)
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
