"""Workload definitions and their seeded inputs.

Everything the library sees is generated here from the ``--seed`` the
benchmark is given: the batch set's master seed, the sweep's seed list and
the service's arrival schedule and request mix.  This module imports only
the standard library, so the load client runs without NumPy.
"""

from __future__ import annotations

import random

#: The pinned run-all set (``benchmarks/test_runall_workers.py``) at a tenth
#: of its run counts: the run axis still dominates every experiment, and one
#: serial plus one sharded leg fit a few times into a measured run.
BATCH = (
    ("fig1", {"n_runs": 400}),
    ("fig3", {"n_runs": 20}),
    ("fig4", {"n_runs": 100}),
    ("fig5", {"n_runs": 100}),
    ("table5", {"n_runs": 40}),
    ("cgdiv", {"n_runs": 8}),
    ("table3", {"n_trials": 200}),
    ("table7", {"n_models": 4}),
)

#: The farm grid of BENCH_0007 (seven experiments, the GNN tables and the
#: decomposing seed ensemble): ten cells per seed, each computing for tens
#: of milliseconds, so fingerprint/key, probe, store and dispatch dominate.
SWEEP_GRID = {
    "fig4": {"n_runs": 40},
    "fig5": {"n_runs": 40},
    "cgdiv": {"n": 80, "n_runs": 3, "n_iter": 12},
    "maxvs": {"sizes": (1_000, 4_000), "n_arrays": 2, "n_runs": 40},
    "table7": {"n_models": 4, "epochs": 3},
    "table8": {},
    "seedens": {"seeds": (0, 1), "devices": ("v100", "lpu"),
                "n_elements": 2_000, "n_arrays": 2, "n_runs": 12},
}
SWEEP_SEEDS = 3
#: Warm passes per cold pass: a warm pass is short, so it is repeated.
WARM_PASSES = 6


def sweep_seeds(seed: int) -> tuple[int, ...]:
    """The sweep's seed axis: ``SWEEP_SEEDS`` distinct seeds drawn from ``seed``."""
    return tuple(random.Random(seed).sample(range(1_000_000), SWEEP_SEEDS))


#: Service hit set, warmed during set-up: several experiments, each answered
#: from the cache for the rest of the run.
SERVICE_HITS = (
    {"experiment_id": "fig4", "overrides": {"n_runs": 40}},
    {"experiment_id": "fig5", "overrides": {"n_runs": 40}},
    {"experiment_id": "table3", "overrides": {"n_trials": 200}},
    {"experiment_id": "table2", "overrides": {}},
)
#: Service miss: a small experiment under a fresh seed each time, so every
#: miss computes, dispatches once and stores.
SERVICE_MISS = {"experiment_id": "fig5", "overrides": {"n_runs": 8}}
MISS_SHARE = 0.2

#: Control-leg time (``benchstats.control``) of the reference machine speed:
#: the fast state of a 2-vCPU Xeon virtual machine, Python 3.11, NumPy 2.4.
#: The ``RESCALED`` times are reported at this speed (see README.md).
CONTROL_REF_S = 0.033
#: The times that run single-threaded in the process that times the
#: control.  ``batch_s`` runs in the pool's processes on both vCPUs, where
#: the parent's control tracked the machine worse, so it stays raw.
RESCALED = ("batch_serial_s", "sweep_cold_s", "sweep_warm_s")

#: Share of ``--seconds`` each phase of a run measures for.
SHARES = {"batch": 0.35, "sweep": 0.225, "service": 0.425}

#: The rate ladder: (name, requests per second, share of the service phase).
#: ``light`` builds no queue.  ``heavy`` loads the single worker to under a
#: third of its capacity, so a machine that runs slower for a while does not
#: push it into heavy queueing; it gives the latency metrics and needs 100+
#: requests for a p90.  ``overload`` offers more than the worker can serve,
#: so it only passes the limit once the service gets much faster.
RUNGS = (
    ("light", 4.0, 0.15),
    ("heavy", 8.0, 0.78),
    ("overload", 80.0, 0.07),
)
#: Latency limit on the tail percentile for a rung to count as sustained.
LATENCY_LIMIT_MS = 250.0


def hit_specs(seed: int) -> list[dict]:
    return [dict(spec, seed=seed) for spec in SERVICE_HITS]


def service_schedule(seed: int, seconds: float, segments: int = 1) -> list[list[dict]]:
    """The open-loop arrival schedule of a ``seconds``-long service phase,
    cut into ``segments`` that ``run.py`` runs at different times of a run.

    Each rung is a Poisson process conditioned on its count: ``n`` arrival
    times drawn uniformly over the rung and sorted, so the offered rate is
    exact while the gaps stay exponential-like.  Exactly ``MISS_SHARE`` of
    each rung's requests are misses, at seeded positions; every hit names
    one of the warmed specs.  Segment ``k`` holds, for every rung in ladder
    order, the requests of the rung's ``k``-th time slice as ``(due offset s
    within the slice, job doc, kind)``.
    """
    rng = random.Random(seed)
    hits = hit_specs(seed)
    miss_seed = 1_000_000_007 + 100_003 * seed
    out: list[list[dict]] = [[] for _ in range(segments)]
    for name, rate, share in RUNGS:
        duration = share * seconds
        n = max(2, round(rate * duration))
        times = sorted(rng.uniform(0.0, duration) for _ in range(n))
        misses = set(rng.sample(range(n), round(MISS_SHARE * n)))
        sliced = [[] for _ in range(segments)]
        width = duration / segments
        for i, due in enumerate(times):
            k = min(int(due / width), segments - 1)
            if i in misses:
                request = (due - k * width, dict(SERVICE_MISS, seed=miss_seed), "miss")
                miss_seed += 1
            else:
                request = (due - k * width, hits[rng.randrange(len(hits))], "hit")
            sliced[k].append(request)
        for k in range(segments):
            out[k].append({"name": name, "rate": rate, "duration": width,
                           "requests": sliced[k]})
    return out
