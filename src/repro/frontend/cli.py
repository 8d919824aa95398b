"""Command-line driver: compile, optimize, run, and dump mini-C programs.

Usage::

    repro-minic program.c                 # compile + run
    repro-minic program.c --promote       # run the register promotion pass
    repro-minic program.c --emit-ir       # dump IR instead of running
    repro-minic program.c --baseline lucooper
    repro-minic program.c --args 3 4
    repro-minic program.c --promote --diagnostics out.json --strict

Exit codes: the program's return value (masked to 0..255) on success, 2
on driver errors (missing file, compile error, bad flags, runtime
error), 1 when ``--strict`` is given and the pipeline rolled back or
skipped any function or could not preserve behaviour, and 3 when the
run completed only in **degraded** mode — a function was quarantined by
the supervised worker, the worker could not start and promotion fell
back to in-process, or retries/worker replacements were needed.
Precedence: 2 > 1 > 3 > the program's return value.  ``--trace-out``/``--metrics-out`` export
failures are reported on stderr but never change the exit code —
observability is best-effort and must not mask (or manufacture) a
degraded or strict exit.

The supervised worker (``--timeout``, ``--retries``, ``--chaos``)
requires ``--promote``; see docs/API.md "Resilience".
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.frontend.errors import CompileError
from repro.frontend.lower import compile_source
from repro.frontend.runflags import (
    add_run_flags,
    export_observability,
    observability_from,
    resilience_from,
    write_best_effort,
)
from repro.ir.printer import print_module
from repro.profile.interp import MAX_STEPS, Interpreter, InterpreterError


def _error(message: str) -> int:
    print(f"repro-minic: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-minic", description="mini-C compiler and runner"
    )
    parser.add_argument("source", help="mini-C source file")
    parser.add_argument("--entry", default="main")
    parser.add_argument("--args", nargs="*", type=int, default=[])
    parser.add_argument(
        "--promote", action="store_true", help="run SSA register promotion"
    )
    parser.add_argument(
        "--baseline",
        choices=["lucooper", "mahlke"],
        help="run a baseline promoter instead of the paper's algorithm",
    )
    parser.add_argument(
        "--unroll", action="store_true", help="unroll innermost loops first"
    )
    parser.add_argument(
        "--emit-ir", action="store_true", help="print IR instead of executing"
    )
    parser.add_argument(
        "--emit-dot", action="store_true", help="print a Graphviz CFG dump"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print before/after operation counts"
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=MAX_STEPS,
        metavar="N",
        help="interpreter step budget for profiling and execution",
    )
    add_run_flags(parser, requires="--promote")
    parser.add_argument(
        "--decisions-out",
        metavar="FILE",
        help="write the promotion decision journal as JSONL — one "
        "verdict per candidate access (requires --promote)",
    )
    parser.add_argument(
        "--diagnostics",
        metavar="FILE",
        help="write the pipeline's per-function outcome report as JSON",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if the pipeline rolled back or skipped any function",
    )
    options = parser.parse_args(argv)

    try:
        with open(options.source) as handle:
            source = handle.read()
    except OSError as exc:
        return _error(f"cannot read {options.source}: {exc.strerror or exc}")
    try:
        module = compile_source(source)
    except CompileError as exc:
        return _error(f"{options.source}: {exc}")

    if options.unroll:
        from repro.passes.unroll import unroll_module

        unrolled = unroll_module(module)
        print(f"unrolled {unrolled} loop(s)", file=sys.stderr)

    try:
        resilience = resilience_from(options)
    except ValueError as exc:
        return _error(str(exc))
    if resilience is not None and (
        not options.promote or options.baseline is not None
    ):
        return _error("--timeout/--retries/--chaos require --promote")

    observability = observability_from(options)
    if observability is not None and (
        not options.promote or options.baseline is not None
    ):
        return _error("--trace-out/--metrics-out require --promote")

    decisions = None
    if options.decisions_out:
        if not options.promote or options.baseline is not None:
            return _error("--decisions-out requires --promote")
        from repro.observability import DecisionJournal

        decisions = DecisionJournal()

    result = None
    pipeline = None
    if options.promote or options.baseline is not None:
        from repro.baselines import BASELINES
        from repro.promotion.pipeline import PromotionPipeline

        pipeline = PromotionPipeline(
            promoter=BASELINES.get(options.baseline),
            resilience=resilience,
            observability=observability,
            decisions=decisions,
            entry=options.entry,
            args=options.args,
            max_steps=options.max_steps,
        )
        result = pipeline.run(module)

    if options.stats and result is not None:
        print(result.report(), file=sys.stderr)

    if observability is not None and pipeline is not None and result is not None:
        from repro.observability import build_metadata

        export_observability(
            "repro-minic",
            options,
            observability,
            build_metadata(
                profile_source=result.diagnostics.profile_source,
                config=pipeline.config_stamp(),
            ),
        )

    if decisions is not None and result is not None:
        from repro.observability import build_metadata

        metadata = build_metadata(profile_source=result.diagnostics.profile_source)
        write_best_effort(
            "repro-minic",
            "decisions",
            options.decisions_out,
            lambda path: decisions.write(path, metadata),
        )

    if options.diagnostics:
        if result is None:
            return _error("--diagnostics requires --promote or --baseline")
        try:
            result.diagnostics.write(options.diagnostics)
        except OSError as exc:
            return _error(f"cannot write {options.diagnostics}: {exc.strerror or exc}")
        fallback = result.diagnostics.fallback_reason
        if fallback:
            print(
                "repro-minic: worker fallback: "
                f"{fallback.get('error_type')}: {fallback.get('detail')}",
                file=sys.stderr,
            )

    strict_failed = (
        options.strict
        and result is not None
        and (not result.diagnostics.clean or not result.output_matches)
    )
    if strict_failed:
        print(
            "repro-minic: strict: "
            f"{result.diagnostics.summary()}, behaviour preserved: "
            f"{result.output_matches}",
            file=sys.stderr,
        )
    degraded = result is not None and result.diagnostics.degraded
    if degraded:
        counters = result.diagnostics.resilience or {}
        print(
            "repro-minic: degraded: "
            f"{len(result.diagnostics.quarantined_functions)} quarantined, "
            f"{counters.get('retries', 0)} retries, "
            f"{counters.get('pool_rebuilds', 0)} worker replacements"
            + (
                "; promoted in process after the worker failed"
                if result.diagnostics.fallback_reason
                else ""
            ),
            file=sys.stderr,
        )

    def _exit(code: int) -> int:
        if strict_failed:
            return 1
        if degraded:
            return 3
        return code

    if options.emit_dot:
        from repro.ir.dot import module_to_dot

        print(module_to_dot(module), end="")
        return _exit(0)
    if options.emit_ir:
        print(print_module(module), end="")
        return _exit(0)

    # Phase 5 already ran the module as returned; run it here only when
    # there was no such run to answer from.
    run = result.final_run if result is not None else None
    if run is None:
        try:
            run = Interpreter(module, max_steps=options.max_steps).run(
                options.entry, options.args
            )
        except InterpreterError as exc:
            return _error(f"execution failed: {exc}")
    for values in run.output:
        print(" ".join(str(v) for v in values))
    return _exit(run.return_value & 0xFF)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
