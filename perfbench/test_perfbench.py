"""Unit tests of the benchmark's own helpers (no library run needed).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
import types

import pytest

import benchstats
import workloads
from spans import ROOTS, Tracer, layer_report, self_times


# ----------------------------------------------------------- schedule


def test_seeded_schedule_replays_identically():
    assert workloads.service_schedule(7, 12.0, 3) == workloads.service_schedule(7, 12.0, 3)
    assert workloads.service_schedule(7, 12.0, 3) != workloads.service_schedule(8, 12.0, 3)


def test_schedule_rungs_have_exact_counts_and_miss_share():
    (whole,) = workloads.service_schedule(3, 20.0)
    seen_miss_seeds = set()
    for rung, (name, rate, share) in zip(whole, workloads.RUNGS):
        n = round(rate * share * 20.0)
        offsets = [due for due, _, _ in rung["requests"]]
        assert rung["name"] == name and len(offsets) == n
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] <= rung["duration"]
        kinds = [kind for _, _, kind in rung["requests"]]
        assert kinds.count("miss") == round(workloads.MISS_SHARE * n)
        for _, doc, kind in rung["requests"]:
            if kind == "miss":
                assert doc["seed"] not in seen_miss_seeds
                seen_miss_seeds.add(doc["seed"])
            else:
                assert doc in workloads.hit_specs(3)


def test_segments_cut_the_same_schedule_into_time_slices():
    (whole,) = workloads.service_schedule(4, 18.0)
    sliced = workloads.service_schedule(4, 18.0, 3)
    for r, rung in enumerate(whole):
        rebuilt = [
            (k * seg[r]["duration"] + due, doc, kind)
            for k, seg in enumerate(sliced)
            for due, doc, kind in seg[r]["requests"]
        ]
        assert [kind for _, _, kind in rebuilt] == [kind for _, _, kind in rung["requests"]]
        assert [doc for _, doc, _ in rebuilt] == [doc for _, doc, _ in rung["requests"]]
        assert [due for due, _, _ in rebuilt] == pytest.approx(
            [due for due, _, _ in rung["requests"]]
        )
        for seg in sliced:
            assert all(0.0 <= due <= seg[r]["duration"] for due, _, _ in seg[r]["requests"])


def test_sweep_seeds_are_distinct_and_seeded():
    seeds = workloads.sweep_seeds(5)
    assert len(set(seeds)) == workloads.SWEEP_SEEDS
    assert seeds == workloads.sweep_seeds(5) != workloads.sweep_seeds(6)


# --------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    "n, q",
    [(19, 0.5), (20, 0.5), (40, 0.75), (100, 0.9), (199, 0.9), (200, 0.95),
     (999, 0.95), (1000, 0.99), (2000, 0.995), (10000, 0.999)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    values = list(range(n, 0, -1))  # distinct, unsorted
    chosen, value = benchstats.tail_percentile(values)
    assert chosen == q
    if n >= 20:
        assert sum(1 for v in values if v > value) >= benchstats.MIN_BEYOND
    higher = [c for c in benchstats.TAIL_CANDIDATES if c > chosen]
    if higher:
        next_value = benchstats.percentile(values, higher[0])
        assert sum(1 for v in values if v > next_value) < benchstats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    assert benchstats.percentile([3, 1, 2, 4], 0.5) == 2
    assert benchstats.percentile([3, 1, 2, 4], 0.75) == 3
    assert benchstats.percentile([5], 0.99) == 5
    with pytest.raises(ValueError):
        benchstats.percentile([], 0.5)


# ---------------------------------------------------------- self time


def _span(sid, parent, name, start, end, attrs=None, rid=1):
    return (sid, parent, rid, name, start, end, attrs)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),    # overlaps a: the union counts once
        _span(4, 2, "c", 2.0, 3.0),
        _span(5, 1, "d", 9.0, 12.0),   # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})


def test_layer_report_counts_outermost_calls_and_sums_attrs():
    spans = [
        _span(1, None, "bench", 0.0, 10.0),
        _span(2, 1, "fp.fold", 1.0, 5.0, {"elems": 8}),
        _span(3, 2, "fp.fold", 2.0, 3.0, {"elems": 4}),  # nested: not a new call
        _span(4, 1, "fp.fold", 6.0, 7.0, {"elems": 2}),
    ]
    report = layer_report(spans)
    fold = report["fp.fold"]
    assert (fold["spans"], fold["calls"]) == (3, 2)
    assert fold["incl_s"] == pytest.approx(5.0)
    assert fold["self_s"] == pytest.approx(3.0 + 1.0 + 1.0)
    assert fold["sums"] == {"elems": 10}
    assert report[ROOTS]["incl_s"] == pytest.approx(10.0)
    assert report[ROOTS]["self_s"] == pytest.approx(5.0)


# ------------------------------------------------------------ tracer


def test_patch_function_reaches_from_import_bindings_and_restores():
    defining = types.ModuleType("repro_perfbench_fake_defining")
    caller = types.ModuleType("repro_perfbench_fake_caller")

    def fold(x):
        return x + 1

    defining.fold = fold
    caller.fold = fold  # what ``from defining import fold`` leaves behind
    sys.modules[defining.__name__] = defining
    sys.modules[caller.__name__] = caller
    try:
        tracer = Tracer()
        assert tracer.patch_function(defining.__name__, "fold",
                                     lambda f: tracer.wrapper("fp.fold", f)) == 2
        assert caller.fold(1) == 2 and defining.fold(2) == 3
        assert [s[3] for s in tracer.spans] == ["fp.fold", "fp.fold"]
        tracer.restore()
        assert caller.fold is fold and defining.fold is fold
    finally:
        del sys.modules[defining.__name__], sys.modules[caller.__name__]


def test_request_ids_are_shared_within_a_job_only():
    tracer = Tracer()
    inner = tracer.wrapper("results.key", lambda: None)
    job = tracer.wrapper("jobs.run", lambda: inner())
    with tracer.span("bench.batch"):
        job()
        job()
    by_name = {}
    for sid, parent, rid, name, *_ in tracer.spans:
        by_name.setdefault(name, []).append(rid)
    keys, jobs = by_name["results.key"], by_name["jobs.run"]
    assert keys == jobs and jobs[0] != jobs[1]
    assert by_name["bench.batch"][0] not in jobs


def test_rename_names_the_span_after_the_outcome():
    tracer = Tracer()
    run = tracer.wrapper("jobs.run", lambda hit: hit,
                         rename=lambda hit: "jobs.run_hit" if hit else "jobs.run_miss")
    run(True)
    run(False)
    assert [s[3] for s in tracer.spans] == ["jobs.run_hit", "jobs.run_miss"]
