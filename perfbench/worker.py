"""In-process phases of a run: ``batch`` and ``sweep``.

``run.py`` starts this script in a fresh interpreter and times
it from launch to the ``READY`` line: one ``setup_s`` sample.  The worker
then measures the batch phase and the sweep phase and prints one ``RESULT``
JSON line.  ``run.py`` splits a run's in-process phases over several
workers, so each run times several set-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads
from benchstats import control, summary
from spans import Tracer, layer_report, merge_reports

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
PINS = Path(__file__).resolve().parent / "pins.json"


def session_info() -> dict:
    import numpy
    from repro import backend

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend.active_backend(),
    }


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _take(tracer: Tracer | None) -> list:
    if tracer is None:
        return []
    spans, tracer.spans = tracer.spans, []
    return spans


class Batch:
    """The pinned run-all set through ``JobRunner`` over a fresh empty
    cache, once on a ``workers=2`` executor and once on ``workers=1``."""

    name = "batch"

    def __init__(self, seed: int, work: Path) -> None:
        from repro.harness import ShardedExecutor

        self.workers = min(2, os.cpu_count() or 1)
        self.sharded = ShardedExecutor(workers=self.workers)
        self.sharded.run("table3", seed=0, n_trials=50)  # spawn the pool
        self.serial = ShardedExecutor(workers=1)
        self.seed, self.work = seed, work
        self.legs = 0
        self.pins = json.loads(PINS.read_text())["batch"].get(str(seed), {})

    def close(self) -> None:
        self.sharded.close()
        self.serial.close()

    def leg(self, executor) -> tuple[float, dict[str, str]]:
        """One pass over the set; returns wall time and per-experiment digests."""
        from repro.harness import JobRunner, JobSpec, ResultCache

        self.legs += 1
        cache_dir = self.work / f"batch-{self.legs}"
        runner = JobRunner(executor, ResultCache(cache_dir))
        start = time.perf_counter()
        outcomes = [
            runner.run(JobSpec(eid, seed=self.seed, overrides=ov))
            for eid, ov in workloads.BATCH
        ]
        elapsed = time.perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        return elapsed, {o.spec.experiment_id: o.digest for o in outcomes}

    def round(self, checks: list[str], tracer: Tracer | None = None) -> tuple[dict, dict]:
        """Sharded leg then serial leg; returns wall times and, when
        traced, the span reports of both legs."""
        d0 = self.sharded.dispatches
        with _span(tracer, "bench.batch"):
            sharded_s, sharded = self.leg(self.sharded)
        sharded_spans = _take(tracer)
        with _span(tracer, "bench.batch_serial"):
            serial_s, serial = self.leg(self.serial)
        serial_spans = _take(tracer)
        for eid, digest in serial.items():
            if sharded.get(eid) != digest:
                checks.append(
                    f"batch: {eid} digest differs between workers={self.workers} and workers=1"
                )
        for eid, digest in self.pins.items():
            if serial.get(eid) != digest:
                checks.append(f"batch: {eid} digest {serial.get(eid)} != pinned {digest}")
        reports = {}
        if tracer is not None:
            reports = {
                "serial": layer_report(serial_spans),
                "sharded": layer_report(sharded_spans),
                "dispatches": self.sharded.dispatches - d0,
            }
        return {"batch_s": [sharded_s], "batch_serial_s": [serial_s]}, reports


class Sweep:
    """A mixed ``plan_grid`` grid: a cold pass into an empty cache, then
    warm passes that re-plan the grid and answer it with no dispatch."""

    name = "sweep"

    def __init__(self, seed: int, work: Path) -> None:
        from repro.harness import ShardedExecutor

        self.executor = ShardedExecutor(workers=1)
        self.seeds = workloads.sweep_seeds(seed)
        self.work = work
        self.rounds = 0

    def close(self) -> None:
        self.executor.close()

    def plan(self):
        from repro.harness import plan_grid

        return plan_grid(
            sorted(workloads.SWEEP_GRID), seeds=self.seeds,
            overrides=workloads.SWEEP_GRID,
        )

    def round(self, checks: list[str], tracer: Tracer | None = None) -> tuple[dict, dict]:
        from repro.harness import ResultCache, SweepFarm, result_digest

        self.rounds += 1
        cache_dir = self.work / f"sweep-{self.rounds}"
        cache = ResultCache(cache_dir)
        with _span(tracer, "bench.sweep_cold"):
            start = time.perf_counter()
            cells = self.plan()
            cold = SweepFarm(cache, self.executor).run(cells)
            cold_s = time.perf_counter() - start
        if cold.n_executed != len(cells):
            checks.append(f"sweep: cold pass executed {cold.n_executed} of {len(cells)} cells")
        stored = {}
        for cell in cells:
            meta = cache.read_meta(cell.key)
            stored[cell.cell_id] = meta.get("digest") if meta else None
        dispatches = self.executor.dispatches
        warm_s = []
        for _ in range(1 if tracer else workloads.WARM_PASSES):
            with _span(tracer, "bench.sweep_warm"):
                start = time.perf_counter()
                warm_cells = self.plan()
                warm = SweepFarm(cache, self.executor, pins=stored).run(warm_cells)
                warm_s.append(time.perf_counter() - start)
            if warm.n_executed or self.executor.dispatches != dispatches:
                checks.append(f"sweep: warm pass executed {warm.n_executed} cells")
            if [c.key for c in warm_cells] != [c.key for c in cells]:
                checks.append("sweep: warm pass planned other keys than the cold pass")
            if warm.n_hits != len(cells) or warm.drift:
                checks.append(
                    f"sweep: warm pass hit {warm.n_hits}/{len(cells)} cells, "
                    f"{len(warm.drift)} digests drifted"
                )
        for cell in cells:
            result = cache.lookup(cell.key)
            if result is None or result_digest(result) != stored[cell.cell_id]:
                checks.append(f"sweep: {cell.cell_id} payload does not match its stored digest")
        shutil.rmtree(cache_dir, ignore_errors=True)
        reports = {}
        if tracer is not None:
            reports = {
                "sweep": layer_report(_take(tracer)),
                "executed": cold.n_executed + warm.n_executed,
                "recompute_fraction": warm.recompute_fraction,
            }
        return {"sweep_cold_s": [cold_s], "sweep_warm_s": warm_s}, reports


def control_sample() -> float:
    """Median of three control legs (see ``benchstats.control``)."""
    return statistics.median(control() for _ in range(3))


def measure(phase, seconds: float, checks: list[str], samples: dict) -> None:
    """Repeat ``phase.round`` (at least once) until another round would
    overrun ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        e2e, _ = phase.round(checks)
        for k, v in e2e.items():
            samples.setdefault(k, []).extend(v)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def traced_round(batch: Batch, sweep: Sweep, checks: list[str]) -> dict:
    """One traced round of each phase; returns span reports and the
    counts the per-layer metrics need."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        batch_e2e, b = batch.round(checks, tracer)
        sweep_e2e, s = sweep.round(checks, tracer)
    finally:
        tracer.restore()
    for phase, report in (("batch", merge_reports(b["serial"], b["sharded"])),
                          ("sweep", s["sweep"])):
        checks += [
            f"trace: wrapper {name} never fired in the {phase} phase"
            for name in layers.missing_wrappers(report, phase)
        ]
    return {
        "report": merge_reports(b["serial"], b["sharded"], s["sweep"]),
        "serial": b["serial"],
        "traced_s": sum(batch_e2e["batch_serial_s"] + sweep_e2e["sweep_cold_s"]
                        + sweep_e2e["sweep_warm_s"]),
        "parallel.dispatches": b["dispatches"] + s["executed"],
        "parallel.pools_created": batch.sharded.pools_created + sweep.executor.pools_created,
        "farm.executed": s["executed"],
        "farm.recompute_fraction": s["recompute_fraction"],
    }


def overheads(traced_s: float, workers: int, samples: dict) -> dict:
    """Tracing overhead against an untraced round, and the executor's
    parallel efficiency from that round."""
    med = {k: summary(v)["median"] for k, v in samples.items()}
    base_s = med["batch_serial_s"] + med["sweep_cold_s"] + med["sweep_warm_s"]
    return {
        "overhead_frac": traced_s / base_s - 1.0,
        "parallel.efficiency": med["batch_serial_s"] / (workers * med["batch_s"]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    from repro import backend
    from repro.harness import experiment_fingerprint

    backend.warm_up()
    for eid in {e for e, _ in workloads.BATCH} | set(workloads.SWEEP_GRID):
        experiment_fingerprint(eid)  # fill the per-process fingerprint memo
    batch = Batch(args.seed, work)
    sweep = Sweep(args.seed, work)
    print(READY, flush=True)

    checks: list[str] = []
    samples: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    controls = [control_sample()]
    try:
        # A traced run measures one untraced round of each phase (which
        # pays the process's first-call costs), one traced round, and one
        # more untraced round: the baseline of the tracing overhead.
        budget = 0.0 if args.trace else args.seconds
        for phase in (batch, sweep):
            phase_samples: dict[str, list[float]] = {}
            measure(phase, workloads.SHARES[phase.name] * budget, checks, phase_samples)
            controls.append(control_sample())
            # The control legs just before and after the phase bracket it.
            factor = workloads.CONTROL_REF_S / statistics.fmean(controls[-2:])
            for k, v in phase_samples.items():
                samples[k] = v
                if k in workloads.RESCALED:
                    scaled[k] = [x * factor for x in v]
        traced = None
        if args.trace:
            traced = traced_round(batch, sweep, checks)
            after: dict[str, list[float]] = {}
            measure(batch, 0.0, checks, after)
            measure(sweep, 0.0, checks, after)
            traced.update(overheads(traced.pop("traced_s"), batch.workers, after))
            for k, v in after.items():
                samples[k] += v
    finally:
        batch.close()
        sweep.close()
    attempted = 2 * len(workloads.BATCH) * len(samples["batch_s"])
    attempted += len(sweep.plan()) * (len(samples["sweep_cold_s"]) + len(samples["sweep_warm_s"]))
    doc = {
        "samples": samples,
        "scaled": scaled,
        "controls": controls,
        "traced": traced,
        "checks": checks,
        "attempted": attempted,
        "session": session_info(),
    }
    print(RESULT + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
