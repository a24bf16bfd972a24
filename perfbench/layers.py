"""Which library entry point belongs to which layer, and the guard that
every wrapper fired in the phase that should exercise it.

Each entry in :func:`install` names a span after the layer metric it feeds
(``fp.fold`` feeds ``fp.fold.{calls,elems,s}``).  The engine layers run
in-process only on the serial leg of ``batch``, in the ``sweep`` passes and
inside the traced daemon of ``service``: spawn workers re-import the
library and never see these wrappers.
"""

from __future__ import annotations

import workloads
from spans import ROOTS, Tracer

#: Span names that must fire at least once in each phase of a traced run.
#: A name bound somewhere the wrapper could not reach would otherwise
#: report 0 s without failing.
EXPECTED = {
    "batch": {
        "runtime.scheduler", "gpusim.draws", "fp.fold", "ops.segment",
        "ops.cumsum", "ops.conv", "solvers.cg", "parallel.run",
        "parallel.merge", "fingerprint.experiment", "results.key",
        "results.probe", "results.store", "jobs.run_miss",
    },
    "sweep": {
        "runtime.scheduler", "fp.fold", "solvers.cg", "parallel.run",
        "fingerprint.experiment", "results.key", "results.probe",
        "results.store", "jobs.execute", "farm.plan", "farm.index",
        "farm.probe",
    },
    "service": {
        "runtime.scheduler", "fp.fold", "parallel.run",
        "fingerprint.experiment", "results.key", "results.probe",
        "results.lookup", "results.store", "jobs.run_hit", "jobs.run_miss",
    },
}

BATCH_EXPERIMENTS = tuple(eid for eid, _ in workloads.BATCH)


def _elems(index):
    """attrs: size of the positional argument holding the per-run orders."""

    def attrs(args, kwargs, out):
        arr = args[index] if len(args) > index else None
        return {"elems": int(getattr(arr, "size", 0))}

    return attrs


def _store_attrs(args, kwargs, path):
    return {"bytes": path.stat().st_size}


def _probe_attrs(args, kwargs, hit):
    return {"hits": int(bool(hit)), "misses": int(not hit)}


def _job_name(outcome):
    return "jobs.run_hit" if outcome.cached else "jobs.run_miss"


def _experiment_name(args, kwargs):
    return f"experiments.{args[0].experiment_id}"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.restore()``."""
    from repro.experiments import base, get_experiment, list_experiments
    from repro.gpusim.scheduler import WaveSchedulerBatch
    from repro.harness import farm, jobs, parallel, results
    from repro.ops.segmented import SegmentPlan
    from repro.runtime import RunContext

    w = tracer.wrapper

    # runtime / gpusim: per-run stream construction and scheduler draws.
    for attr in ("scheduler", "device_stream"):
        tracer.patch_method(RunContext, attr, lambda f: w("runtime.scheduler", f))
    for attr in (
        "block_arrival_times_batch", "block_completion_orders",
        "block_completion_orders_from_draws", "thread_retirement_orders",
        "thread_retirement_warp_orders",
    ):
        tracer.patch_method(WaveSchedulerBatch, attr, lambda f: w("gpusim.draws", f))

    # fp / ops / solvers: the batched folds and the kernels built on them.
    tracer.patch_function("repro.fp.summation", "permuted_sums", lambda f: w("fp.fold", f, _elems(1)))
    tracer.patch_function("repro.fp.summation", "batched_tree_fold", lambda f: w("fp.fold", f, _elems(0)))
    tracer.patch_function("repro.gpusim.atomics", "batched_atomic_fold", lambda f: w("fp.fold", f, _elems(1)))
    for attr in ("fold_runs", "fold_runs_sparse", "fold_runs_values"):
        tracer.patch_method(SegmentPlan, attr, lambda f: w("ops.segment", f))
    tracer.patch_function("repro.ops.cumsum", "cumsum_runs", lambda f: w("ops.cumsum", f))
    tracer.patch_function("repro.ops.conv_transpose", "conv_transpose_runs", lambda f: w("ops.conv", f))
    tracer.patch_function("repro.solvers.cg", "conjugate_gradient_runs", lambda f: w("solvers.cg", f))

    # experiments, and the executor's merge in the parent process.
    tracer.patch_method(base.Experiment, "run", lambda f: w(_experiment_name, f))
    tracer.patch_method(parallel.ShardedExecutor, "run", lambda f: w("parallel.run", f))
    merge = lambda f: tracer.conditional_wrapper("parallel.merge", f, parent="parallel.run")
    tracer.patch_method(base.Experiment, "merge_shards", merge)
    classes = {type(get_experiment(eid)) for eid in list_experiments()}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if "finalize" in cls.__dict__:
            tracer.patch_method(cls, "finalize", merge)

    # harness: fingerprint / key, cache probe, payload read, store.
    tracer.patch_function(
        "repro.harness.fingerprint", "experiment_fingerprint",
        lambda f: w("fingerprint.experiment", f),
    )
    tracer.patch_function("repro.harness.results", "cache_key", lambda f: w("results.key", f))
    tracer.patch_method(results.ResultCache, "contains", lambda f: w("results.probe", f, _probe_attrs))
    tracer.patch_method(results.ResultCache, "lookup", lambda f: w("results.lookup", f))
    tracer.patch_method(results.ResultCache, "store", lambda f: w("results.store", f, _store_attrs))
    tracer.patch_method(results.ResultCache, "iter_meta", lambda f: tracer.gen_wrapper("farm.index", f))

    # job core and farm.
    tracer.patch_method(jobs.JobRunner, "run", lambda f: w("jobs.run", f, rename=_job_name))
    tracer.patch_method(jobs.JobRunner, "execute", lambda f: w("jobs.execute", f))
    tracer.patch_function("repro.harness.farm", "plan_grid", lambda f: w("farm.plan", f))
    tracer.patch_method(farm.SweepFarm, "probe", lambda f: w("farm.probe", f))


def missing_wrappers(report: dict, phase: str) -> list[str]:
    """Expected span names that never fired during a traced phase."""
    return sorted(n for n in EXPECTED[phase] if report.get(n, {}).get("spans", 0) == 0)


def _get(report: dict, name: str, key: str):
    return report.get(name, {}).get(key, 0)


def _per_call_ms(report: dict, name: str) -> float:
    calls = _get(report, name, "calls")
    return 1e3 * _get(report, name, "incl_s") / calls if calls else 0.0


def layer_metrics(report: dict, serial: dict) -> dict:
    """Per-layer metrics from the merged span report of a traced run.

    ``serial`` is the report of the batch phase's serial leg alone, the
    source of the per-experiment times.  Busy times (``.s``) are self
    times; per-call costs (``.ms``) are inclusive means over outermost
    calls, i.e. what one call costs its caller.
    """
    out = {}
    for layer in ("runtime.scheduler", "gpusim.draws", "fp.fold", "ops.segment",
                  "ops.cumsum", "ops.conv", "solvers.cg"):
        out[f"{layer}.calls"] = _get(report, layer, "calls")
        out[f"{layer}.s"] = _get(report, layer, "self_s")
    out["fp.fold.elems"] = report.get("fp.fold", {}).get("sums", {}).get("elems", 0)
    for eid in BATCH_EXPERIMENTS:
        out[f"experiments.{eid}.s"] = _get(serial, f"experiments.{eid}", "incl_s")
    out["experiments.self.s"] = sum(
        e["self_s"] for name, e in serial.items() if name.startswith("experiments.")
    )
    out["parallel.merge.s"] = _get(report, "parallel.merge", "self_s")
    out["fingerprint.experiment.ms"] = _per_call_ms(report, "fingerprint.experiment")
    out["results.key.calls"] = _get(report, "results.key", "calls")
    for name in ("results.key", "results.probe", "results.lookup", "results.store",
                 "jobs.run_hit", "jobs.run_miss"):
        out[f"{name}.ms"] = _per_call_ms(report, name)
    stores = _get(report, "results.store", "calls")
    store_bytes = report.get("results.store", {}).get("sums", {}).get("bytes", 0)
    out["results.store.bytes"] = store_bytes / stores if stores else 0.0
    probe_sums = report.get("results.probe", {}).get("sums", {})
    out["results.hits"] = probe_sums.get("hits", 0)
    out["results.misses"] = probe_sums.get("misses", 0)
    for name in ("farm.plan", "farm.index", "farm.probe"):
        out[f"{name}.s"] = _get(report, name, "self_s")
    roots = report.get(ROOTS, {})
    wall = roots.get("incl_s", 0.0)
    out["trace.unattributed_frac"] = roots.get("self_s", 0.0) / wall if wall else 0.0
    out["trace.spans"] = sum(e["spans"] for name, e in report.items() if name != ROOTS)
    return out
