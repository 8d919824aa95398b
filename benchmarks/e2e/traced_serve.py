"""``repro-serve`` with the benchmark's layer spans, for traced serve runs.

Usage::

    python benchmarks/e2e/traced_serve.py --summary-out S.json --trace-out T.json [repro-serve args]

Installs :class:`~benchmarks.e2e.layers.LayerTracer` on the pipeline
stages, ``Interpreter.run``, the engine's ``compile_source`` and
``PromotionEngine.execute`` (one op per job), then runs the default
``repro-serve`` entry point unchanged.  After the daemon drains it
writes the layer summary and the Chrome trace.  SIGUSR1 clears what
was recorded so far (the harness sends it after its warm-up) and
answers ``tracer reset`` on stderr.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro.service import __main__ as serve  # noqa: E402
from repro.service import engine  # noqa: E402

from benchmarks.e2e import layers  # noqa: E402


def main(argv) -> int:
    outputs = {}
    rest = []
    args = iter(argv)
    for arg in args:
        if arg in ("--summary-out", "--trace-out"):
            outputs[arg] = next(args)
        else:
            rest.append(arg)
    tracer = layers.LayerTracer()
    tracer.patch(engine, "compile_source", count=layers.count_source)
    tracer.patch(engine.PromotionEngine, "execute", root=True)
    tracer.install()

    def reset(signum, frame) -> None:
        tracer.reset()
        print("tracer reset", file=sys.stderr, flush=True)

    signal.signal(signal.SIGUSR1, reset)
    code = serve.main(rest)
    tracer.uninstall()
    with open(outputs["--summary-out"], "w") as handle:
        json.dump(tracer.summary(), handle)
    tracer.write_trace(outputs["--trace-out"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
