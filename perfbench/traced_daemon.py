"""The daemon with span wrappers installed: ``traced_daemon.py OUT ARGS...``.

Runs ``repro.harness.service``'s own entry point in this process with the
layer wrappers of :mod:`layers` installed, and writes the span report of the
whole daemon lifetime to ``OUT`` (JSON) once the daemon has drained.
"""

from __future__ import annotations

import json
import sys

import layers
from spans import Tracer, layer_report


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    from repro.harness.service.__main__ import main as serve

    tracer = Tracer()
    layers.install(tracer)
    try:
        code = serve(args)
    finally:
        tracer.restore()
        with open(out, "w") as fh:
            json.dump(layer_report(tracer.spans), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
