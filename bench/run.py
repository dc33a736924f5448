"""planarcount benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition of a workload runs
in a fresh interpreter (bench/worker.py), so the library's caches start
empty as they do for each CLI call.  The run

1. after one untimed warm-up import that compiles the bytecode, repeats the
   workload's job list, untraced, until S seconds have passed, timing the
   import of planarcount.cli in SETUP_SAMPLES fresh interpreters before each
   repetition and after the last;
2. with --trace 1, runs it once more with every layer traced.

The last line of output is one JSON object: with --trace 0 the end-to-end
metrics (medians over the repetitions), with --trace 1 the per-layer
metrics of the traced repetition.  Spans of a traced run are written to
.bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import LAYER_TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Import timings taken before each repetition and after the last, so that
# set-up is sampled across the whole run rather than in one burst.
SETUP_SAMPLES = 3
# Every run must end within 180 s; workers are killed past this point.
DEADLINE_S = 170

# Per-layer metrics: every traced function (see worker.LAYER_TARGETS) gets
# .calls and .self_s, generators also .items.
GENERATORS = {
    "graphs.enumerate_multigraphs",
    "tableaux.enumerate_tableaux",
    "walks.iter_region_walks",
    "walks.iter_profile_walks",
    "walks.iter_restricted_walks",
}
ENTRY_POINTS = [
    "verify.verify_matching_identity",
    "verify.verify_subgraph_identity",
    "verify.verify_walk_scaling",
    "verify.audit_bijections",
    "verify.audit_involution",
    "verify.verify_gessel_identity",
    "cli.main",
]


def layer_names() -> list[str]:
    names = []
    for module, attr, split_by in LAYER_TARGETS:
        if split_by == "counter":
            names += [f"{module}.{attr}.enumerate", f"{module}.{attr}.dp"]
        else:
            names.append(f"{module}.{attr}")
    return names


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = []
    for name in layer_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in GENERATORS:
            spec.append((f"{name}.items", "count"))
    spec += [
        ("walks.signed_walk_sum.dp.wide.self_s", "s"),
        ("walks.signed_walk_sum.dp.long.self_s", "s"),
    ]
    for entry in ENTRY_POINTS:
        spec += [(f"{entry}.failures", "count"), (f"{entry}.budget_refusals", "count")]
    spec += [
        ("error_rate", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.outside_s", "s"),
    ]
    return spec


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# Timed inside the child: with a timeout, subprocess polls for the child's
# exit in steps of up to 50 ms, which would quantise a time taken outside.
IMPORT_TIMER = (
    "import time; started = time.perf_counter(); import planarcount.cli; "
    "print(time.perf_counter() - started)"
)


def time_setup(env: dict, timeout: float) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    return float(proc.stdout)


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced repetition; layers the workload
    does not reach report 0."""
    values = {}
    for name, stats in traced["layers"].items():
        for key, value in stats.items():
            values[f"{name}.{key}"] = value
    dp = traced["layers"].get("walks.signed_walk_sum.dp", {})
    values["walks.signed_walk_sum.dp.wide.self_s"] = dp.get("self_s.wide", 0.0)
    values["walks.signed_walk_sum.dp.long.self_s"] = dp.get("self_s.long", 0.0)
    for entry in ENTRY_POINTS:
        counts = traced["entries"].get(entry, {})
        values[f"{entry}.failures"] = counts.get("failed", 0)
        values[f"{entry}.budget_refusals"] = counts.get("refused", 0)
    values["error_rate"] = traced["failed"] / traced["attempted"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    values["trace.outside_s"] = traced["outside_s"]
    return {name: metric(values.get(name, 0), unit) for name, unit in per_layer_spec()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "planarcount" / "cli.py").is_file():
        print(f"error: no planarcount sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    env = worker_env()
    time_setup(env, remaining())

    def sample_setup() -> list[float]:
        return [time_setup(env, remaining()) for _ in range(SETUP_SAMPLES)]

    job_args = ["--workload", args.workload, "--seed", str(args.seed)]
    reps = []
    setup = []
    window = time.perf_counter()
    while not reps or time.perf_counter() - window < args.seconds:
        setup += sample_setup()
        reps.append(run_worker(job_args, env, remaining()))
    setup += sample_setup()
    runs = list(reps)
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        traced = run_worker([*job_args, "--trace", str(spans)], env, remaining())
        runs.append(traced)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["wrong"] == 0 for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"job failed: {problem}", file=sys.stderr)
    wall = statistics.median(r["wall_s"] for r in reps)
    print(
        f"{args.workload} seed={args.seed}: {len(reps)} repetition(s), "
        f"wall_s {[round(r['wall_s'], 3) for r in reps]}, "
        f"setup_s median {statistics.median(setup):.4f}"
    )

    if traced is None:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(
                statistics.median(r["peak_rss_mb"] for r in reps), "MB"
            ),
        }
    else:
        if not traced["accounting_ok"]:
            print("trace accounting check failed", file=sys.stderr)
            correct = False
        metrics = per_layer_metrics(traced, wall)
        top = sorted(
            ((stats.get("self_s", 0.0), name) for name, stats in traced["layers"].items()),
            reverse=True,
        )[:5]
        print(
            f"traced wall_s {traced['wall_s']:.3f}, {traced['spans']} spans; "
            "top self time: " + ", ".join(f"{name} {t:.3f}" for t, name in top)
        )

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
