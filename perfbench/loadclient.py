"""Service phase: the daemon process and a single-thread open-loop client.

The daemon runs as its own process (``python -m repro.harness.service``,
one executor worker, an empty cache directory).  The client is one asyncio
thread.  It submits each request at its due time with a plain ``POST
/jobs`` (no ``?wait=1``), so it holds no connection per in-flight job.
After each rung it reads ``/stats`` once, waits for the backlog to drain,
then reads every job's own timings from ``GET /jobs/<id>``.

A request's latency is timed from its due time, not from when it was
sent: ``(admission reply - due) + the daemon's latency_s`` (admission to
completion).  This overstates the true due-to-completion time by the
transit of one 202 reply on localhost.  The generator's lateness (send
time minus due time) is reported separately.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads
from benchstats import percentile, tail_percentile

#: Seconds to wait for the daemon's readiness line or its drain on exit.
DAEMON_TIMEOUT_S = 60.0


class Daemon:
    """One daemon process: start, wait for readiness, stop and reap."""

    def __init__(self, cmd: list[str], env: dict, cwd: Path) -> None:
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            self.port = self._await_readiness()
        except BaseException:
            self.stop()
            raise

    def _await_readiness(self) -> int:
        """Port from the ``[serving http://host:port ...]`` line."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                raise RuntimeError("daemon did not report readiness in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before reporting readiness")
            if line.startswith("[serving http://"):
                return int(line.split()[1].rsplit(":", 1)[1])

    def stop(self) -> int:
        """Graceful drain (SIGTERM), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


async def http(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    """One HTTP/1.1 request on its own connection (the daemon closes it)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, data = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(data or b"{}")


async def warm(port: int, seed: int) -> dict[str, str]:
    """Compute the hit set once (set-up); returns digest per spec."""
    digests = {}
    for spec in workloads.hit_specs(seed):
        status, doc = await http(port, "POST", "/jobs?wait=1", spec)
        if status != 200 or doc.get("status") != "done":
            raise RuntimeError(f"warming {spec['experiment_id']} failed: {status} {doc}")
        digests[json.dumps(spec, sort_keys=True)] = doc["outcome"]["digest"]
    return digests


async def _submit(port: int, due: float, doc: dict, kind: str) -> dict:
    sent = time.monotonic()
    rec = {"due": due, "kind": kind, "doc": doc, "lag": sent - due}
    try:
        status, body = await http(port, "POST", "/jobs", doc)
    except (OSError, ValueError, IndexError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["ack"] = time.monotonic()
    rec["status"] = status
    if status == 202:
        rec["job_id"] = body["job_id"]
    return rec


async def _stats(port: int) -> dict:
    status, doc = await http(port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats returned {status}")
    return doc


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def run_rung(port: int, pid: int, rung: dict) -> dict:
    """Fire one rung's schedule, then collect every job's timings."""
    before = await _stats(port)
    cpu0 = cpu_seconds(pid)
    t0 = time.monotonic() + 0.05
    tasks = []
    for offset, doc, kind in rung["requests"]:
        delay = t0 + offset - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_submit(port, t0 + offset, doc, kind)))
    recs = await asyncio.gather(*tasks)
    end = await _stats(port)
    stats = end
    while stats["completed"] + stats["failed"] < stats["submitted"]:
        await asyncio.sleep(0.05)
        stats = await _stats(port)
    cpu = cpu_seconds(pid) - cpu0
    for rec in recs:
        rec["t0"] = t0
        if "job_id" in rec:
            status, job = await http(port, "GET", f"/jobs/{rec['job_id']}")
            rec["job"] = job if status == 200 else None
    return {
        "name": rung["name"],
        "rate": rung["rate"],
        "cpu_s": cpu,
        "recs": recs,
        "backlog_end": end["queue_depth"],
        "rejected": (end["rejected_429"] + end["rejected_503"])
        - (before["rejected_429"] + before["rejected_503"]),
    }


def dispatches(daemon: Daemon) -> int:
    """The daemon executor's dispatch counter, from ``/stats``."""
    return asyncio.run(_stats(daemon.port))["executor"]["dispatches"]


def run_segment(daemon: Daemon, segment: list[dict]) -> list[dict]:
    """One segment of the ladder: each rung's slice, in ladder order."""

    async def go():
        return [await run_rung(daemon.port, daemon.proc.pid, rung) for rung in segment]

    return asyncio.run(go())


def _pool(parts: list[dict]) -> dict:
    """One rung's results over all segments."""
    return {
        "name": parts[0]["name"],
        "rate": parts[0]["rate"],
        "cpu_s": sum(p["cpu_s"] for p in parts),
        "recs": [r for p in parts for r in p["recs"]],
        "backlog_end": max(p["backlog_end"] for p in parts),
        "rejected": sum(p["rejected"] for p in parts),
    }


def summarize_rung(rung: dict, digests: dict[str, str]) -> tuple[dict, list[str]]:
    """Latencies and outcome counts of one rung; output-check failures."""
    checks = []
    lat, by_kind = [], {"hit": [], "miss": []}
    queue_wait, run_ms, ack_ms, finishes = [], [], [], []
    failed = rejected = 0
    for rec in rung["recs"]:
        job = rec.get("job")
        if rec.get("status") in (429, 503):
            rejected += 1
        if job is None or job.get("status") != "done":
            if rec.get("status") not in (429, 503):
                failed += 1
            lat.append(math.inf)  # a failed or refused request misses any limit
            continue
        ms = 1e3 * ((rec["ack"] - rec["due"]) + job["latency_s"])
        lat.append(ms)
        by_kind[rec["kind"]].append(ms)
        finishes.append((rec["t0"], rec["due"] + ms / 1e3))
        queue_wait.append(1e3 * job["queue_wait_s"])
        run_ms.append(1e3 * job["outcome"]["elapsed_s"])
        ack_ms.append(1e3 * (rec["ack"] - rec["due"]))
        outcome = job["outcome"]
        if rec["kind"] == "hit":
            want = digests[json.dumps(rec["doc"], sort_keys=True)]
            if not outcome["cached"] or outcome["digest"] != want:
                checks.append(
                    f"service: hit {rec['doc']['experiment_id']} came back "
                    f"cached={outcome['cached']} digest={outcome['digest'][:12]}"
                )
        elif outcome["cached"]:
            checks.append(f"service: miss seed {rec['doc']['seed']} was answered from cache")
    n = len(rung["recs"])
    q, tail = tail_percentile(lat)
    qw_q, qw_tail = tail_percentile(queue_wait) if queue_wait else (0.5, 0.0)
    sustained = (
        failed == 0 and rejected == 0 and rung["rejected"] == 0
        and tail <= workloads.LATENCY_LIMIT_MS
        and rung["backlog_end"] <= max(4, 0.05 * n)
    )
    last: dict[float, float] = {}  # segment start -> its last completion
    for t0, finish in finishes:
        last[t0] = max(last.get(t0, t0), finish)
    span = sum(end - t0 for t0, end in last.items())
    return {
        "name": rung["name"],
        "rate": rung["rate"],
        "sent": n,
        "succeeded": len(finishes),
        "failed": failed,
        "rejected": rejected,
        "p50_ms": percentile(lat, 0.5),
        "tail_q": q,
        "tail_ms": tail,
        "hit_p50_ms": percentile(by_kind["hit"], 0.5) if by_kind["hit"] else math.inf,
        "miss_p50_ms": percentile(by_kind["miss"], 0.5) if by_kind["miss"] else math.inf,
        "queue_wait_p50_ms": percentile(queue_wait, 0.5) if queue_wait else 0.0,
        "queue_wait_tail_q": qw_q,
        "queue_wait_tail_ms": qw_tail,
        "run_ms": percentile(run_ms, 0.5) if run_ms else 0.0,
        "ack_ms": percentile(ack_ms, 0.5) if ack_ms else 0.0,
        "gen_lag_max_ms": 1e3 * max(r["lag"] for r in rung["recs"]),
        "backlog_end": rung["backlog_end"],
        "sustained": sustained,
        "achieved_rps": len(finishes) / span if span > 0 else 0.0,
        "cpu_ms_per_request": 1e3 * rung["cpu_s"] / n,
    }, checks


def daemon_cmd(cache_dir: Path, spans_out: Path | None) -> list[str]:
    """The daemon command line; traced runs go through the span recorder."""
    args = ["--port", "0", "--workers", "1", "--queue-limit", "1024",
            "--cache-dir", str(cache_dir)]
    if spans_out is None:
        return [sys.executable, "-m", "repro.harness.service", *args]
    here = Path(__file__).resolve().parent
    return [sys.executable, str(here / "traced_daemon.py"), str(spans_out), *args]


def start_and_warm(env: dict, cwd: Path, cache_dir: Path, seed: int, spans_out=None):
    """One service set-up: daemon readiness plus the warmed hit set.
    Returns ``(daemon, digests, seconds)``."""
    start = time.perf_counter()
    daemon = Daemon(daemon_cmd(cache_dir, spans_out), env, cwd)
    try:
        digests = asyncio.run(warm(daemon.port, seed))
    except BaseException:
        daemon.stop()
        raise
    return daemon, digests, time.perf_counter() - start


def summarize_ladder(raw: list[dict], digests: dict, dispatched: int) -> tuple[dict, list[str]]:
    """Pool the segments' results per rung and run the output checks.

    ``dispatched`` is the executor's dispatch delta over the whole ladder.
    """
    names = [name for name, _, _ in workloads.RUNGS]
    rungs = [_pool([p for p in raw if p["name"] == name]) for name in names]
    checks: list[str] = []
    summaries = []
    for rung in rungs:
        s, c = summarize_rung(rung, digests)
        summaries.append(s)
        checks += c
    misses_done = sum(
        1 for rung in rungs for r in rung["recs"]
        if r["kind"] == "miss" and (r.get("job") or {}).get("status") == "done"
    )
    if dispatched != misses_done:
        checks.append(f"service: {dispatched} executor dispatches for {misses_done} misses")
    return {"rungs": summaries, "dispatches": dispatched}, checks


def service_metrics(ladder: dict) -> dict:
    """End-to-end service metrics from one ladder."""
    rungs = {r["name"]: r for r in ladder["rungs"]}
    heavy, light = rungs["heavy"], rungs["light"]
    sustained = [r for r in ladder["rungs"] if r["sustained"]]
    best = max(sustained, key=lambda r: r["rate"]) if sustained else None
    return {
        "svc_p50_ms": heavy["p50_ms"],
        "svc_p99_ms": heavy["tail_ms"],
        "svc_hit_p50_ms": heavy["hit_p50_ms"],
        "svc_miss_p50_ms": heavy["miss_p50_ms"],
        "svc_max_rps": best["achieved_rps"] if best else 0.0,
        "svc_light_p50_ms": light["p50_ms"],
        "svc_cpu_ms": heavy["cpu_ms_per_request"],
    }


def service_layer_metrics(ladder: dict) -> dict:
    """Per-layer service metrics: the daemon's own job documents, the
    client's clocks and ``/stats``, at the heavy rung."""
    rungs = {r["name"]: r for r in ladder["rungs"]}
    heavy = rungs["heavy"]
    return {
        "service.queue_wait.p50_ms": heavy["queue_wait_p50_ms"],
        "service.queue_wait.p99_ms": heavy["queue_wait_tail_ms"],
        "service.run.ms": heavy["run_ms"],
        "service.ack.ms": heavy["ack_ms"],
        "service.gen_lag.max_ms": max(r["gen_lag_max_ms"] for r in ladder["rungs"]),
        "service.rejected": sum(r["rejected"] for r in ladder["rungs"]),
        "service.backlog_end": heavy["backlog_end"],
    }
