"""Tests of the benchmark itself: tracer arithmetic and job failure counting."""

import json
import types
from pathlib import Path

from run import per_layer_spec
from tracer import Tracer
from worker import load_modules, run_jobs
from workloads import WORKLOADS, Job, count_argv, jobs_for


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def traced_namespace(clock):
    """Functions that advance a fake clock by fixed amounts and call each
    other through the namespace, as planarcount's modules do."""
    ns = types.SimpleNamespace()

    def inner(mode="a"):
        clock.advance(2.0)
        return mode

    def outer():
        clock.advance(1.0)
        ns.inner()
        clock.advance(3.0)
        ns.inner(mode="b")
        return "done"

    def numbers(k):
        for i in range(k):
            clock.advance(0.5)
            ns.inner()
            yield i

    def pairs(k):
        for x in ns.numbers(k):
            clock.advance(1.0)
            yield (x, x)

    ns.inner, ns.outer, ns.numbers, ns.pairs = inner, outer, numbers, pairs
    tracer = Tracer(clock=clock)
    tracer.instrument(
        [ns],
        [
            (ns, "inner", "inner", "mode"),
            (ns, "outer", "outer", None),
            (ns, "numbers", "numbers", None),
            (ns, "pairs", "pairs", None),
        ],
    )
    return ns, tracer


def test_self_time_of_nested_call():
    clock = FakeClock()
    ns, tracer = traced_namespace(clock)
    begin = clock()
    clock.advance(0.25)
    assert ns.outer() == "done"
    clock.advance(0.5)
    end = clock()

    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 4.0, "items": 0}
    assert summary["inner.a"] == {"calls": 1, "self_s": 2.0, "items": 0}
    assert summary["inner.b"] == {"calls": 1, "self_s": 2.0, "items": 0}
    ok, outside = tracer.check_accounting(begin, end)
    assert ok and outside == 0.75


def test_self_time_of_nested_generator():
    clock = FakeClock()
    ns, tracer = traced_namespace(clock)
    tracer.set_job({"group": "g"})
    begin = clock()
    consumed = []
    for item in ns.pairs(3):
        clock.advance(10.0)  # consumer work between items is outside any span
        consumed.append(item)
    end = clock()

    assert consumed == [(0, 0), (1, 1), (2, 2)]
    summary = tracer.summary(job_key=lambda tag: tag and tag["group"])
    assert summary["pairs"] == {"calls": 1, "self_s": 3.0, "items": 3, "self_s.g": 3.0}
    assert summary["numbers"] == {"calls": 1, "self_s": 1.5, "items": 3, "self_s.g": 1.5}
    assert summary["inner.a"]["self_s"] == 6.0
    # every numbers() span runs inside a pairs() span
    numbers_id = tracer.names.index("numbers")
    pairs_id = tracer.names.index("pairs")
    for idx, name_id in enumerate(tracer.span_name):
        if name_id == numbers_id:
            assert tracer.span_name[tracer.span_parent[idx]] == pairs_id
    ok, outside = tracer.check_accounting(begin, end)
    assert ok and outside == 30.0


def test_restore_puts_originals_back():
    clock = FakeClock()
    ns, tracer = traced_namespace(clock)
    tracer.restore()
    ns.outer()
    assert not tracer.calls and len(tracer.span_start) == 0


def test_failures_are_counted_not_raised():
    modules = load_modules()
    jobs = [
        Job("cli.main", count_argv(3, 1, 3, "matching"), 3, 1, 3, "matching", expected=6),
        Job("cli.main", count_argv(3, 1, 3, "matching"), 3, 1, 3, "matching", expected=7),
        Job("cli.main", count_argv(3, 1, 3, "matching", budget=1), 3, 1, 3, "matching",
            expected=6),
        Job("verify.verify_gessel_identity", (0, 14), 0, 0, 0, "gessel"),
        Job("verify.verify_gessel_identity", (2, 6), 0, 0, 2, "gessel"),
    ]
    result = run_jobs(jobs, modules)
    assert result["attempted"] == 5
    assert result["failed"] == 3
    assert result["wrong"] == 1
    assert result["entries"]["cli.main"] == {
        "attempted": 3, "failed": 2, "wrong": 1, "refused": 1,
    }
    assert result["entries"]["verify.verify_gessel_identity"] == {
        "attempted": 2, "failed": 1, "error": 1,
    }


def test_seed_only_shuffles_jobs():
    for workload in WORKLOADS:
        one, again, other = jobs_for(workload, 1), jobs_for(workload, 1), jobs_for(workload, 2)
        assert one == again
        assert one != other
        assert sorted(map(repr, one)) == sorted(map(repr, other))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec()
