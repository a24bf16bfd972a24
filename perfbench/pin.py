"""Regenerate ``pins.json``: the batch set's digests per seed.

The digests come from plain serial ``Experiment.run`` calls, not from the
job core the benchmark measures, so the batch check compares two paths::

    PYTHONPATH=src python3 perfbench/pin.py 0 1 2 3 4 5 6 7 8 9
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import PINS


def main(seeds: list[int]) -> int:
    from repro.experiments import get_experiment
    from repro.harness import result_digest
    from repro.runtime import RunContext

    doc = json.loads(PINS.read_text())
    for seed in seeds:
        doc["batch"][str(seed)] = {
            eid: result_digest(get_experiment(eid).run(ctx=RunContext(seed=seed), **ov))
            for eid, ov in workloads.BATCH
        }
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main([int(s) for s in sys.argv[1:]]))
