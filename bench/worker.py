"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace SPANS_PATH]

Imports planarcount (from PYTHONPATH), runs the workload's job list once,
checks every result and prints one JSON object on its last line of output.
With --trace the public functions of every layer are wrapped by the
benchmark's tracer first, and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
from collections import Counter

from tracer import Tracer
from workloads import jobs_for

MODULES = ("cli", "verify", "graphs", "tableaux", "walks", "series")

# (module, function, argument whose value splits the span name)
LAYER_TARGETS = [
    ("walks", "signed_walk_sum", "counter"),
    ("walks", "count_all_walks_signed", None),
    ("walks", "iter_region_walks", None),
    ("walks", "iter_profile_walks", None),
    ("walks", "iter_restricted_walks", None),
    ("walks", "profile_walk", None),
    ("walks", "crossing_pairing", None),
    ("walks", "nonprofile_involution", None),
    ("walks", "offregion_involution", None),
    ("graphs", "count_bounded_matching", None),
    ("graphs", "count_bounded_subgraph", None),
    ("graphs", "enumerate_multigraphs", None),
    ("graphs", "canonical_lift", None),
    ("graphs", "planar_matching_profile", None),
    ("graphs", "count_bounded_lis", None),
    ("tableaux", "count_tableau_pairs", None),
    ("tableaux", "enumerate_tableaux", None),
    ("tableaux", "rsk", None),
    ("tableaux", "rsk_inverse", None),
    ("tableaux", "pair_walk", None),
    ("tableaux", "tableau_from_column_word", None),
    ("verify", "audit_bijections", None),
    ("verify", "audit_involution", None),
    ("verify", "verify_matching_identity", None),
    ("verify", "verify_subgraph_identity", None),
    ("verify", "verify_walk_scaling", None),
    ("verify", "verify_gessel_identity", None),
    ("series", "series_determinant", None),
    ("series", "bessel_series", None),
    ("cli", "main", None),
]


def load_modules() -> dict:
    return {name: importlib.import_module(f"planarcount.{name}") for name in MODULES}


def run_job(job, modules) -> tuple[str, str | None]:
    """Run one job; returns (outcome, detail) with outcome one of "ok",
    "wrong" (a wrong count or a failing report), "refused" (budget) or
    "error" (raised, or a nonzero exit)."""
    module, attr = job.entry.split(".")
    fn = getattr(modules[module], attr)
    try:
        if module == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fn(list(job.args))
            if code == 3:
                return "refused", err.getvalue().strip()
            if code != 0:
                return "error", f"exit code {code}: {err.getvalue().strip()}"
            value = int(json.loads(out.getvalue())["count"])
            if value != job.expected:
                return "wrong", f"count {value}, pinned {job.expected}"
            return "ok", None
        report = fn(*job.args, **dict(job.kwargs))
    except modules["walks"].BudgetExceeded as exc:
        return "refused", str(exc)
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
        return "error", repr(exc)
    if not report.passed:
        return "wrong", report.witness
    return "ok", None


def run_jobs(jobs, modules, tracer: Tracer | None = None) -> dict:
    """Run every job, never stopping at a failure.  Counts attempts,
    failures and budget refusals per entry point."""
    entries: dict[str, Counter] = {}
    problems = []
    for job in jobs:
        if tracer is not None:
            tracer.set_job(job.tag)
        outcome, detail = run_job(job, modules)
        counts = entries.setdefault(job.entry, Counter())
        counts["attempted"] += 1
        if outcome != "ok":
            counts["failed"] += 1
            counts[outcome] += 1
            problems.append(f"{job.tag}: {outcome}: {detail}")
    return {
        "entries": {entry: dict(counts) for entry, counts in entries.items()},
        "attempted": sum(c["attempted"] for c in entries.values()),
        "failed": sum(c["failed"] for c in entries.values()),
        "wrong": sum(c["wrong"] for c in entries.values()),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args(argv)

    modules = load_modules()
    jobs = jobs_for(args.workload, args.seed)
    tracer = None
    if args.trace:
        import planarcount

        tracer = Tracer()
        targets = [
            (modules[module], attr, f"{module}.{attr}", split_by)
            for module, attr, split_by in LAYER_TARGETS
        ]
        tracer.instrument([planarcount, *modules.values()], targets)

    begin = time.perf_counter()
    result = run_jobs(jobs, modules, tracer)
    end = time.perf_counter()
    result["wall_s"] = end - begin
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.restore()
        ok, outside = tracer.check_accounting(begin, end)
        result["accounting_ok"] = ok
        result["outside_s"] = outside
        result["spans"] = len(tracer.span_start)
        result["layers"] = tracer.summary(job_key=lambda tag: tag and tag["group"])
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
