"""The repository's benchmark: one command, every phase, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload compiled --seed 0 --seconds 30 --trace 0

A run executes three phases against the public API of ``repro.harness``
under the backend the workload names (``compiled`` or ``numpy``):

* ``batch``: the pinned run-all set through ``JobRunner`` on a fresh
  cache, sharded (``workers=2``) and serial;
* ``sweep``: a mixed ``plan_grid`` grid, cold into an empty cache, then
  warm with zero dispatches;
* ``service``: the daemon as its own process under a seeded open-loop
  Poisson ladder of fixed rates, 80 % cache hits and 20 % fresh misses.

It checks every output (digests bit for bit, zero warm dispatches, cached
hits with their warmed digests), prints each metric by name with its unit
and quartiles, and ends with one JSON line.  ``--trace 1`` reports the
per-layer metrics instead (see ``perfbench/README.md``).  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import loadclient
import workloads
from benchstats import summary
from spans import merge_reports
from worker import READY, RESULT

HERE = Path(__file__).resolve().parent
#: Workloads: each names the compute backend every process of the run uses.
WORKLOADS = ("compiled", "numpy")
#: Segments of an untraced run: worker processes, each measuring its share
#: of the in-process phases (``setup_s`` takes the median of their
#: set-ups), each followed by a slice of the service ladder.
WORKER_PROCESSES = 3
#: The whole run must end well inside the 180 s a run may take.
DEADLINE_S = 160.0


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield ``proc``'s stdout lines until EOF or the deadline."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            raise TimeoutError("benchmark worker missed its deadline")
        line = proc.stdout.readline()
        if not line:
            return
        yield line


def run_worker(env: dict, root: Path, work: Path, args, deadline: float, segments: int):
    """One worker process; returns ``(set-up seconds, RESULT doc)``."""
    share = args.seconds / segments
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed),
           "--seconds", str(share), "--trace", str(args.trace),
           "--work", str(work / "worker")]
    start = time.perf_counter()
    # Its own process group, so the worker's pool processes go with it.
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    setup_s, doc = None, None
    try:
        for line in _lines(proc, deadline):
            if line.strip() == READY:
                setup_s = time.perf_counter() - start
            elif line.startswith(RESULT):
                doc = json.loads(line[len(RESULT):])
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the worker and its pool have all exited
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or doc is None:
        raise RuntimeError(f"benchmark worker failed with exit code {proc.returncode}")
    return setup_s, doc


def python_env(root: Path, work: Path, backend: str) -> dict:
    """Environment of every process a run starts: the library from ``src/``,
    the workload's backend, and every cache inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_BACKEND"] = backend
    env["REPRO_BACKEND_BUILD_DIR"] = str(root / ".perfbench-work" / "backend")
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env.pop("REPRO_WORKERS", None)
    return env


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def traced_service(env: dict, root: Path, work: Path, seed: int, segment: list,
                   checks: list[str]) -> dict:
    """The ladder once more against a daemon with span wrappers; returns
    the daemon's span report."""
    spans_out = work / "daemon-spans.json"
    daemon, digests, _ = loadclient.start_and_warm(
        env, root, work / "traced-daemon-cache", seed, spans_out
    )
    try:
        dispatch0 = loadclient.dispatches(daemon)
        raw = loadclient.run_segment(daemon, segment)
        dispatched = loadclient.dispatches(daemon) - dispatch0
    finally:
        code = daemon.stop()
    if code != 0:
        checks.append(f"service: traced daemon exited with code {code}")
    checks += loadclient.summarize_ladder(raw, digests, dispatched)[1]
    report = json.loads(spans_out.read_text())
    checks += [f"trace: wrapper {name} never fired in the service phase"
               for name in layers.missing_wrappers(report, "service")]
    return report


def run(args, root: Path, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = python_env(root, work, args.workload)
    # The run is cut into segments spread over its length: each segment is
    # one worker process (set-up, then its share of the batch and sweep
    # rounds) followed by one slice of the service ladder.  A machine that
    # runs slower for part of a run then weighs on every phase alike.  A
    # traced run uses one segment.
    segments = 1 if args.trace else WORKER_PROCESSES
    schedule = workloads.service_schedule(
        args.seed, workloads.SHARES["service"] * args.seconds, segments
    )
    daemon, digests, daemon_setup_s = loadclient.start_and_warm(
        env, root, work / "daemon-cache", args.seed
    )
    setups, docs, raw = [], [], []
    try:
        dispatch0 = loadclient.dispatches(daemon)
        for segment in schedule:
            setup_s, doc = run_worker(env, root, work, args, deadline, segments)
            setups.append(setup_s)
            docs.append(doc)
            raw += loadclient.run_segment(daemon, segment)
        dispatched = loadclient.dispatches(daemon) - dispatch0
    finally:
        code = daemon.stop()
    checks = [c for d in docs for c in d["checks"]]
    if code != 0:
        checks.append(f"service: daemon exited with code {code}")
    ladder, ladder_checks = loadclient.summarize_ladder(raw, digests, dispatched)
    checks += ladder_checks

    def pooled(key: str) -> dict[str, dict]:
        merged: dict[str, list[float]] = {}
        for d in docs:
            for k, v in d[key].items():
                merged.setdefault(k, []).extend(v)
        return {k: summary(v) for k, v in merged.items()}

    samples = pooled("samples")
    control_s = statistics.median(c for d in docs for c in d["controls"])
    e2e = {k: s["median"] for k, s in samples.items()}
    e2e.update((k, s["median"]) for k, s in pooled("scaled").items())
    e2e["setup_s"] = summary(setups)["median"] + daemon_setup_s
    e2e.update(loadclient.service_metrics(ladder))

    per_layer = None
    if args.trace:
        daemon_report = traced_service(env, root, work, args.seed, schedule[0], checks)
        traced = docs[0]["traced"]
        per_layer = layers.layer_metrics(merge_reports(traced["report"], daemon_report),
                                         traced["serial"])
        for key in ("parallel.dispatches", "parallel.pools_created", "parallel.efficiency",
                    "farm.executed", "farm.recompute_fraction"):
            per_layer[key] = traced[key]
        per_layer["parallel.dispatches"] += ladder["dispatches"]
        per_layer["trace.overhead_frac"] = traced["overhead_frac"]
        per_layer.update(loadclient.service_layer_metrics(ladder))
        per_layer.update(loadclient.service_metrics(ladder))
        per_layer["service.setup_s"] = daemon_setup_s

    rungs = ladder["rungs"]
    sent = sum(r["sent"] for r in rungs)
    failed = sum(r["failed"] + r["rejected"] for r in rungs)
    session = dict(docs[0]["session"])
    session.update(
        control_s=control_s,
        workload=args.workload,
        seed=args.seed,
        git_sha=git_sha(root),
        tail_percentiles={
            "svc_p99_ms": next(r["tail_q"] for r in rungs if r["name"] == "heavy"),
            "service.queue_wait.p99_ms":
                next(r["queue_wait_tail_q"] for r in rungs if r["name"] == "heavy"),
        },
    )
    if session["backend"] != args.workload:
        checks.append(f"session: backend {session['backend']} is not {args.workload}")
    return {
        "samples": samples,
        "setups": setups,
        "daemon_setup_s": daemon_setup_s,
        "e2e": e2e,
        "per_layer": per_layer,
        "rungs": rungs,
        "checks": checks,
        "attempted": sum(d["attempted"] for d in docs) + sent,
        "failed": sum(len(d["checks"]) for d in docs) + failed,
        "session": session,
    }


def report(result: dict, bench: dict, trace: bool) -> dict:
    """Print the human-readable report; return the metrics of the last line."""
    print("session: " + json.dumps(result["session"], sort_keys=True))
    print(f"setup samples (s): {[round(s, 4) for s in result['setups']]} "
          f"+ daemon {result['daemon_setup_s']:.4f}")
    for r in result["rungs"]:
        print(f"rung {r['name']} @ {r['rate']:g}/s: sent {r['sent']} succeeded "
              f"{r['succeeded']} failed {r['failed']} rejected {r['rejected']} "
              f"p50 {r['p50_ms']:.2f} ms p{100 * r['tail_q']:g} {r['tail_ms']:.2f} ms "
              f"hit p50 {r['hit_p50_ms']:.2f} ms miss p50 {r['miss_p50_ms']:.2f} ms "
              f"backlog_end {r['backlog_end']} sustained {r['sustained']}")
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    values = result["per_layer"] if trace else result["e2e"]
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = values[name]
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        s = result["samples"].get(name)
        raw = (f"  raw median of {s['n']} {s['median']:.4f} "
               f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]") if s else ""
        print(f"{name}: {value:.6g} {unit}{raw}")
        metrics[name] = {"value": value, "unit": unit}
    for check in result["checks"]:
        print(f"CHECK FAILED: {check}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still stops its workers and daemon (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench-work" / f"run-{os.getpid()}"
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report(result, bench, bool(args.trace))
    correct = not result["checks"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
