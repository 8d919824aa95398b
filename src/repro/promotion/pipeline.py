"""The end-to-end register promotion pipeline.

Order of operations per function:

1. remove unreachable blocks, run classic SSA construction (mem2reg) for
   unexposed locals, and normalize the CFG for promotion (split critical
   edges, dedicated preheaders and exit tails);
2. profile: execute the program once with the interpreter (or fall back
   to the static estimator), collecting block frequencies and the
   "before" dynamic costs;
3. build memory SSA and run interval-scoped web promotion;
4. clean up: delete dummy loads, propagate copies, sweep dead code and
   dead memory phis; verify SSA and memory SSA;
5. re-execute to collect the "after" dynamic costs and check that the
   observable behaviour (printed output, return value, final global
   values) is unchanged.  Phases 3+4 never change the CFG, so phase 2's
   profile also holds for phase 5: each function's profiled steps pick
   its interpreter tier at its first call, and the code objects phase 2
   compiled are reused for identical generated text.

Phase 3 applies one per-function *promoter*: :func:`promote_function`
(the paper's algorithm) by default, or a baseline from
:mod:`repro.baselines`.  Everything else is shared, so the baselines
differ from the paper's algorithm in policy alone.

Every per-function transformation (phases 1, 3, and 4) is a
*transaction*: the function's IR is snapshotted first, and any exception
or verification failure restores the snapshot, records a structured
:class:`~repro.robustness.diagnostics.FunctionOutcome`, and lets the rest
of the module proceed.  When phase 5 detects a behaviour divergence, the
pipeline delta-debugs over the transformed functions (re-running from
snapshots) to isolate a minimal culprit set and rolls only those back, so
the module the caller gets is always behaviour-preserving.  The result's
``diagnostics`` names every rolled-back function with its reason.

The result object carries everything Tables 1 and 2 need.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.intervals import IntervalTree, normalize_for_promotion
from repro.ir.module import Module
from repro.ir.verify import verify_function
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.observability import (
    NULL_OBSERVABILITY,
    DecisionJournal,
    Observability,
    OpCounts,
    activate_decisions,
    activate_metrics,
)
from repro.observability.export import SCHEMA_VERSION
from repro.passes.copyprop import propagate_copies
from repro.passes.dce import (
    dead_code_elimination,
    dead_memory_elimination,
    remove_dummy_loads,
)
from repro.profile.codegen import CodeObjects, profiled_steps
from repro.profile.estimator import estimate_profile
from repro.profile.interp import (
    MAX_STEPS,
    ExecutionResult,
    Interpreter,
    InterpreterError,
    InterpreterLimitError,
)
from repro.profile.profiles import ProfileData
from repro.promotion.driver import (
    FunctionPromotionStats,
    PromotionOptions,
    promote_function,
)
from repro.robustness.bisect import isolate_culprits
from repro.robustness.diagnostics import (
    BisectionReport,
    FunctionOutcome,
    PipelineDiagnostics,
    first_line,
)
from repro.robustness.snapshot import (
    FunctionSnapshot,
    FunctionState,
    TransportError,
    capture_state,
    snapshot_function,
)
from repro.robustness.supervise import (
    ResilienceOptions,
    Supervisor,
    SupervisorError,
    WorkerReply,
)
from repro.ssa.construct import construct_ssa


class StaticCounts(OpCounts):
    """Static (textual) operation counts — Table 1's metric.

    A thin view over :class:`repro.observability.OpCounts`, the one
    shared counting helper — the bench tables and the exported run
    metrics read the same walk and can never disagree.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticCounts(loads={self.loads}, stores={self.stores})"


class DynamicCounts(OpCounts):
    """Executed operation counts — Table 2's metric (same shared helper)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"DynamicCounts(loads={self.loads}, stores={self.stores})"


def improvement(before: int, after: int) -> float:
    """Percentage improvement as the paper reports it (negative when the
    count increased)."""
    if before == 0:
        return 0.0
    return 100.0 * (before - after) / before


class PipelineResult:
    def __init__(self, module: Module) -> None:
        self.module = module
        self.static_before = StaticCounts()
        self.static_after = StaticCounts()
        self.dynamic_before = DynamicCounts()
        self.dynamic_after = DynamicCounts()
        self.stats: Dict[str, FunctionPromotionStats] = {}
        self.output_matches = True
        #: Phase 5's last completed run of the module as returned (after
        #: any bisection rollback), or ``None`` when phase 5 did not run
        #: or its last run raised.  Drivers answer from it instead of
        #: running the module again.
        self.final_run: Optional[ExecutionResult] = None
        self.profile: Optional[ProfileData] = None
        #: Per-function outcomes, warnings, and the bisection report.
        self.diagnostics = PipelineDiagnostics()
        #: Always ``None`` (there is no analysis cache); the e2e layer split reads it.
        self.cache_stats = None
        #: The tracer + metrics bundle the run recorded into
        #: (:data:`~repro.observability.NULL_OBSERVABILITY` when
        #: tracing was off) — exporters read the trace from here.
        self.observability: Observability = NULL_OBSERVABILITY
        #: The promotion decision journal the run recorded into, or
        #: ``None`` when journaling was off — ``--decisions-out`` and the
        #: diagnostics summary read from here.
        self.decisions: Optional[DecisionJournal] = None

    def totals(self) -> FunctionPromotionStats:
        total = FunctionPromotionStats()
        for stats in self.stats.values():
            total.absorb(stats.as_dict())
        return total

    def report(self) -> str:
        lines = [
            f"static  loads {self.static_before.loads:>8} -> {self.static_after.loads:<8}"
            f" ({improvement(self.static_before.loads, self.static_after.loads):+.1f}%)",
            f"static  stores {self.static_before.stores:>7} -> {self.static_after.stores:<8}"
            f" ({improvement(self.static_before.stores, self.static_after.stores):+.1f}%)",
            f"dynamic loads {self.dynamic_before.loads:>8} -> {self.dynamic_after.loads:<8}"
            f" ({improvement(self.dynamic_before.loads, self.dynamic_after.loads):+.1f}%)",
            f"dynamic stores {self.dynamic_before.stores:>7} -> {self.dynamic_after.stores:<8}"
            f" ({improvement(self.dynamic_before.stores, self.dynamic_after.stores):+.1f}%)",
            f"behaviour preserved: {self.output_matches}",
        ]
        if self.diagnostics.outcomes:
            lines.append(f"functions: {self.diagnostics.summary()}")
        for warning in self.diagnostics.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


def _behaviour_matches(before: ExecutionResult, after: ExecutionResult) -> bool:
    return (
        after.output == before.output
        and after.return_value == before.return_value
        and after.globals_snapshot() == before.globals_snapshot()
    )


#: A per-function promoter: ``(function, mssa, profile, interval_tree,
#: options) -> FunctionPromotionStats``, with :func:`promote_function`'s
#: signature.
Promoter = Callable[..., FunctionPromotionStats]


def promote_transaction(
    function,
    model: AliasModel,
    profile: Optional[ProfileData],
    tree: IntervalTree,
    promoter: Promoter,
    options: PromotionOptions,
    tracer,
):
    """Phases 3+4 on one function as one transaction: snapshot, memory
    SSA, ``promoter``, cleanup, verification — rolled back on any failure.

    Returns ``(snapshot, stats, stage, error)``: ``error`` is ``None``
    when the transformation stands, and otherwise the exception raised
    in ``stage`` after the snapshot was restored.  The in-process loop
    and the supervised worker both run this.
    """
    name = function.name
    snap = snapshot_function(function)
    stage = "memssa"
    with tracer.span("function:" + name, category="promote") as fn_span:
        try:
            with tracer.span("stage:memssa", category="promote"):
                mssa = build_memory_ssa(function, model)
            stage = "promote"
            with tracer.span("stage:promote", category="promote"):
                stats = promoter(function, mssa, profile, tree, options)
            stage = "cleanup"
            with tracer.span("stage:cleanup", category="promote"):
                remove_dummy_loads(function)
                propagate_copies(function)
                dead_code_elimination(function)
                dead_memory_elimination(function)
            stage = "verify"
            with tracer.span("stage:verify", category="promote"):
                verify_function(function, check_ssa=True, check_memssa=True)
        except Exception as exc:
            snap.restore()
            fn_span.set("status", "rolled_back").set("stage", stage)
            return snap, None, stage, exc
        fn_span.set("status", "promoted")
        fn_span.set("webs_promoted", stats.webs_promoted)
        return snap, stats, stage, None


def _block_counts(profile: ProfileData, module: Module) -> Dict[str, Dict[str, int]]:
    """The profile keyed by ``{function: {block: count}}``.

    ``ProfileData`` is keyed by block identity, which neither pickling
    nor a snapshot restore (fresh block objects) preserves; block names
    survive both.
    """
    return {
        name: {block.name: profile.freq(block) for block in function.blocks}
        for name, function in module.functions.items()
    }


class _WorkerPromoter:
    """The worker half of a supervised run (see
    :mod:`repro.robustness.supervise`): shipped with the pre-phase-3
    module, then promotes one function per request with
    :func:`promote_transaction` and restores its copy afterwards, so
    every attempt starts from the module the parent prepared.

    The module travels as bytes pickled once, here: the parent's module
    changes as promoted images install, and a restarted worker must
    still start from the prepared module.
    """

    def __init__(
        self,
        module: Module,
        profile: ProfileData,
        promoter: Promoter,
        options: PromotionOptions,
        alias_model_factory: Callable[[Module], AliasModel],
        observe: bool,
        journal: bool,
        trace_id: Optional[str],
    ) -> None:
        self.module_data = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        self.block_counts = _block_counts(profile, module)
        self.promoter = promoter
        self.options = options
        self.alias_model_factory = alias_model_factory
        self.observe = observe
        self.journal = journal
        self.trace_id = trace_id

    def setup(self) -> None:
        self.module = pickle.loads(self.module_data)
        self.model = self.alias_model_factory(self.module)

    def promote(self, name: str) -> WorkerReply:
        function = self.module.functions[name]
        counts = self.block_counts[name]
        profile = ProfileData(
            {block: counts.get(block.name, 0) for block in function.blocks}
        )
        obs = (
            Observability.recording(trace_id=self.trace_id)
            if self.observe
            else NULL_OBSERVABILITY
        )
        journal = DecisionJournal() if self.journal else None
        started = time.perf_counter()
        with activate_metrics(
            obs.metrics if obs.enabled else None
        ), activate_decisions(journal):
            snap, stats, stage, error = promote_transaction(
                function,
                self.model,
                profile,
                IntervalTree.compute(function),
                self.promoter,
                self.options,
                obs.tracer,
            )
        duration_ms = (time.perf_counter() - started) * 1e3
        if error is None:
            reply = WorkerReply(
                name, FunctionOutcome.PROMOTED, duration_ms=duration_ms
            )
            reply.stats = stats.as_dict()
            reply.payload = snapshot_function(function)
            snap.restore()
        else:
            reply = WorkerReply(
                name,
                FunctionOutcome.ROLLED_BACK,
                stage=stage,
                error_type=type(error).__name__,
                reason=first_line(error),
                duration_ms=duration_ms,
            )
        if obs.enabled:
            reply.spans = obs.tracer.export()
            reply.metrics = obs.metrics.as_dict()
        if journal is not None:
            docs = journal.export()
            reply.decisions = docs[0] if docs else None
        return reply


class PromotionPipeline:
    """The user-facing transactional pass manager around one
    per-function promoter.

    ``promoter`` defaults to :func:`promote_function`, the paper's
    algorithm; the baselines pass theirs (``lu_cooper_promote``,
    ``mahlke_promote``, or a :func:`functools.partial` of one).  It must
    be picklable (a module-level function or a partial of one) for the
    supervised path.  Every function is snapshotted before it is
    transformed; failures roll the function back instead of aborting
    the run, and a phase-5 behaviour divergence triggers bisection over
    the transformed functions.

    ``resilience`` (a :class:`~repro.robustness.ResilienceOptions`) runs
    phases 3+4 in one supervised worker process
    (:mod:`repro.robustness.supervise`) with per-function deadlines,
    bounded retry with seeded backoff, crash recovery, poison-function
    quarantine, and optional chaos injection.  Results merge in module
    order, so a clean supervised run is identical to an in-process one.
    A quarantined function keeps its pre-promotion IR —
    behaviour-preserving by construction — and the run is reported as
    *degraded* (``diagnostics.degraded``, CLI exit code 3) rather than
    failed.
    """

    def __init__(
        self,
        options: Optional[PromotionOptions] = None,
        promoter: Optional[Promoter] = None,
        alias_model: Optional[Callable[[Module], AliasModel]] = None,
        entry: str = "main",
        args: Sequence[int] = (),
        use_interpreter_profile: bool = True,
        max_steps: int = MAX_STEPS,
        resilience: Optional[ResilienceOptions] = None,
        observability: Optional[Observability] = None,
        decisions: Optional[DecisionJournal] = None,
    ) -> None:
        # Looked up when the pipeline is built, so a wrapper installed on
        # this module's ``promote_function`` sees every call.
        self.promoter = promoter or promote_function
        self.options = options or PromotionOptions()
        self.alias_model_factory = alias_model or AliasModel.conservative
        self.entry = entry
        self.args = list(args)
        self.use_interpreter_profile = use_interpreter_profile
        self.max_steps = max_steps
        #: When set, phases 3+4 run in a supervised worker process:
        #: per-function deadlines, retry with backoff, quarantine, and
        #: (optionally) chaos injection.
        self.resilience = resilience
        #: The tracer + metrics bundle; :data:`NULL_OBSERVABILITY` (the
        #: default) makes every instrumentation point a no-op.
        self.observability = observability or NULL_OBSERVABILITY
        #: The promotion decision journal; ``None`` (the default) keeps
        #: the driver's decision sites on the null path.
        self.decisions = decisions

    def run(self, module: Module) -> PipelineResult:
        result = PipelineResult(module)
        result.observability = self.observability
        obs = self.observability
        result.decisions = self.decisions
        with activate_metrics(
            obs.metrics if obs.enabled else None
        ), activate_decisions(self.decisions), obs.tracer.span(
            "pipeline", module=module.name
        ):
            self._run_phases(module, result)
        if obs.enabled:
            self._finalize_observability(result)
        if self.decisions is not None:
            result.diagnostics.decisions = self.decisions.summary()
        return result

    def config_stamp(self) -> Dict[str, object]:
        """The pipeline configuration as stamped into every exported
        trace/metrics artifact and the diagnostics ``observability``
        section, so artifacts are self-describing."""
        resilience = self.resilience
        stamp: Dict[str, object] = {
            "entry": self.entry,
            "max_steps": self.max_steps,
            "resilience": None if resilience is None else resilience.as_dict(),
        }
        return stamp

    def _mark_decision(self, name: str, status: str) -> None:
        """Re-stamp a function's decision document after the pipeline
        overrode the promotion attempt (rollback, quarantine)."""
        if self.decisions is not None:
            self.decisions.mark(name, status)

    def _finalize_observability(self, result: PipelineResult) -> None:
        """Publish run aggregates into the metrics registry and the
        diagnostics ``observability`` section.

        The load/store gauges and ``promotion.*`` counters are set from
        the :class:`PipelineResult` itself — the exported metrics read
        the same :class:`OpCounts` the report prints, so they can never
        disagree.  Only called when tracing is enabled; when disabled the
        diagnostics section stays ``None`` so a run's diagnostics are
        identical with and without this layer.
        """
        metrics = self.observability.metrics
        for prefix, counts in (
            ("pipeline.static_before", result.static_before),
            ("pipeline.static_after", result.static_after),
            ("pipeline.dynamic_before", result.dynamic_before),
            ("pipeline.dynamic_after", result.dynamic_after),
        ):
            metrics.set(prefix + ".loads", counts.loads, unit="ops")
            metrics.set(prefix + ".stores", counts.stores, unit="ops")
        metrics.set(
            "pipeline.output_matches", int(result.output_matches), unit="bool"
        )
        for field, value in result.totals().as_dict().items():
            metrics.inc("promotion." + field, value)
        diags = result.diagnostics
        diags.observability = {
            "version": SCHEMA_VERSION,
            "profile_source": diags.profile_source,
            "config": self.config_stamp(),
            "spans": len(self.observability.tracer.records),
            "metrics": metrics.as_dict(),
        }

    def _run_phases(self, module: Module, result: PipelineResult) -> None:
        diags = result.diagnostics
        tracer = self.observability.tracer

        # Phase 1: prepare every function (transaction: skip on failure).
        trees: Dict[str, IntervalTree] = {}
        prepared: List[str] = []
        with tracer.span("phase:prepare", category="phase"):
            for function in list(module.functions.values()):
                started = time.perf_counter()
                pre = snapshot_function(function)
                with tracer.span(
                    "prepare:" + function.name, category="prepare"
                ) as prep_span:
                    try:
                        construct_ssa(function)
                        trees[function.name] = normalize_for_promotion(function)
                        verify_function(function, check_ssa=True)
                    except Exception as exc:
                        pre.restore()
                        trees.pop(function.name, None)
                        prep_span.set("status", "skipped")
                        prep_span.set("error_type", type(exc).__name__)
                        diags.record_skip(
                            function.name,
                            stage="prepare",
                            error=exc,
                            duration_ms=(time.perf_counter() - started) * 1e3,
                        )
                    else:
                        prepared.append(function.name)

        result.static_before = StaticCounts.of_module(module)

        # Phase 2: profile (a run that trips the step limit or traps
        # falls back to the static estimate instead of aborting the run).
        # Its code objects and per-function steps go to phase 5; both die
        # with this call.
        before_run: Optional[ExecutionResult] = None
        code = CodeObjects()
        steps: Dict[str, int] = {}
        with tracer.span("phase:profile", category="phase") as profile_span:
            if self.use_interpreter_profile and self.entry in module.functions:
                try:
                    before_run = Interpreter(
                        module, max_steps=self.max_steps, code_objects=code
                    ).run(self.entry, self.args)
                except InterpreterError as exc:
                    if isinstance(exc, InterpreterLimitError):
                        cause = f"hit the interpreter limit ({exc})"
                    else:
                        cause = f"failed ({type(exc).__name__}: {exc})"
                    diags.warn(
                        f"profiling run {cause}; "
                        "falling back to the static profile estimate"
                    )
                    result.profile = estimate_profile(module)
                    diags.profile_source = "estimator-fallback"
                else:
                    result.profile = ProfileData.from_execution(before_run)
                    result.dynamic_before = DynamicCounts.of_execution(before_run)
                    diags.profile_source = "interpreter"
                    steps = profiled_steps(before_run)
            else:
                result.profile = estimate_profile(module)
                diags.profile_source = "estimator"
            profile_span.set("profile_source", diags.profile_source)
            profile_span.set("units_compiled", code.compiled)
            profile_span.set("units_reused", code.reused)

        # Phases 3+4: memory SSA, promotion, and cleanup — one
        # transaction per function, verified before committing.
        snapshots: Dict[str, FunctionSnapshot] = {}
        committed: Dict[str, FunctionState] = {}
        with tracer.span("phase:promote", category="phase") as promote_span:
            supervised = False
            if self.resilience is not None and prepared:
                supervised = self._phase34_supervised(
                    module, result, prepared, snapshots, committed
                )
            if not supervised:
                self._phase34_in_process(
                    module, result, trees, prepared, snapshots, committed
                )
            promote_span.set("functions", len(prepared))

        result.static_after = StaticCounts.of_module(module)

        # Phase 5: re-execute, compare behaviour, and bisect divergence.
        if before_run is not None:
            compiled, reused = code.compiled, code.reused
            with tracer.span("phase:re-execute", category="phase") as rerun_span:
                self._check_behaviour(
                    module, result, before_run, snapshots, committed, steps, code
                )
                rerun_span.set("output_matches", result.output_matches)
                rerun_span.set("units_compiled", code.compiled - compiled)
                rerun_span.set("units_reused", code.reused - reused)

    # -- phases 3+4 ------------------------------------------------------

    def _phase34_in_process(
        self,
        module: Module,
        result: PipelineResult,
        trees: Dict[str, IntervalTree],
        prepared: List[str],
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
    ) -> None:
        diags = result.diagnostics
        model = self.alias_model_factory(module)
        for name in prepared:
            function = module.functions[name]
            started = time.perf_counter()
            snap, stats, stage, error = promote_transaction(
                function,
                model,
                result.profile,
                trees[name],
                self.promoter,
                self.options,
                self.observability.tracer,
            )
            duration_ms = (time.perf_counter() - started) * 1e3
            if error is not None:
                result.stats[name] = FunctionPromotionStats()
                self._mark_decision(name, "rolled_back")
                diags.record_rollback(
                    name, stage=stage, error=error, duration_ms=duration_ms
                )
                continue
            result.stats[name] = stats
            snapshots[name] = snap
            committed[name] = capture_state(function)
            diags.record_promoted(
                name, duration_ms=duration_ms, webs_promoted=stats.webs_promoted
            )

    def _phase34_supervised(
        self,
        module: Module,
        result: PipelineResult,
        prepared: List[str],
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
    ) -> bool:
        """Phases 3+4 in one supervised worker process: deadlines, retry
        with backoff, crash recovery, and quarantine.  False means fall
        back to in-process promotion (nothing was modified)."""
        diags = result.diagnostics
        obs = self.observability
        try:
            promoter = _WorkerPromoter(
                module,
                result.profile,
                self.promoter,
                self.options,
                self.alias_model_factory,
                observe=obs.enabled,
                journal=self.decisions is not None,
                trace_id=obs.tracer.trace_id,
            )
            replies, report = Supervisor(promoter, self.resilience).run(prepared)
        except SupervisorError as exc:
            diags.warn(str(exc))
            diags.fallback_reason = exc.as_dict()
            obs.tracer.add_record(
                "event:serial-fallback",
                category="event",
                error_type=exc.error_type,
                detail=exc.detail,
            )
            obs.metrics.inc("pipeline.serial_fallbacks")
            return False
        diags.resilience = report.as_dict()
        diags.resilience["options"] = self.resilience.as_dict()
        for reply, history in replies:
            name = reply.name
            function = module.functions[name]
            diags.attempt_histories[name] = history.as_dict()
            # One synthetic span per attempt (reconstructed from the
            # retry history — earlier attempts left no live spans), then
            # the final attempt's real worker spans.
            for rec in history.records:
                obs.tracer.add_record(
                    "attempt:" + name,
                    category="attempt",
                    duration_ms=rec.duration_ms,
                    attempt=rec.attempt,
                    outcome=rec.outcome,
                    error_type=rec.error_type,
                    reason=rec.reason,
                    backoff_s=rec.backoff_s,
                )
                obs.metrics.inc("resilience.attempts")
                if rec.outcome not in ("promoted", "rolled_back"):
                    obs.metrics.inc("resilience." + rec.outcome.replace("-", "_"))
            obs.tracer.merge(reply.spans)
            obs.metrics.absorb(reply.metrics)
            if self.decisions is not None:
                self.decisions.absorb(reply.decisions)
            attempts = history.attempts
            if reply.status == FunctionOutcome.QUARANTINED:
                # The worker never shipped an image, so this module's
                # function still holds its pre-promotion IR — degraded
                # but sound by construction.
                result.stats[name] = FunctionPromotionStats()
                obs.metrics.inc("resilience.quarantines")
                self._mark_decision(name, "quarantined")
                diags.record_quarantine(
                    name,
                    reason=reply.reason,
                    error_type=reply.error_type,
                    stage=reply.stage,
                    duration_ms=reply.duration_ms,
                    attempts=attempts,
                )
                continue
            stats = FunctionPromotionStats()
            if reply.status == FunctionOutcome.PROMOTED:
                snap = snapshot_function(function)
                try:
                    reply.payload.install(module)
                except TransportError as exc:
                    reply.stage, reply.reason = "install", first_line(exc)
                    reply.error_type = type(exc).__name__
                else:
                    stats.absorb(reply.stats)
                    result.stats[name] = stats
                    snapshots[name] = snap
                    committed[name] = capture_state(function)
                    record = diags.record_promoted(
                        name,
                        duration_ms=reply.duration_ms,
                        webs_promoted=stats.webs_promoted,
                    )
                    record.attempts = attempts
                    continue
            result.stats[name] = stats
            self._mark_decision(name, "rolled_back")
            record = diags.record_rollback(
                name,
                stage=reply.stage,
                reason=reply.reason,
                error_type=reply.error_type,
                duration_ms=reply.duration_ms,
            )
            record.attempts = attempts
        return True

    # -- phase 5 ---------------------------------------------------------

    def _execute(self, module: Module, steps: Dict[str, int], code: CodeObjects):
        """One re-execution attempt, tiered by the profiled ``steps`` and
        reusing ``code``: (run, error) with exactly one set."""
        try:
            run = Interpreter(
                module,
                max_steps=self.max_steps,
                profiled_steps=steps,
                code_objects=code,
            ).run(self.entry, self.args)
        except InterpreterError as exc:
            return None, exc
        return run, None

    def _check_behaviour(
        self,
        module: Module,
        result: PipelineResult,
        before_run: ExecutionResult,
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
        steps: Dict[str, int],
        code: CodeObjects,
    ) -> None:
        diags = result.diagnostics
        after_run, error = self._execute(module, steps, code)
        result.final_run = after_run
        if after_run is not None and _behaviour_matches(before_run, after_run):
            result.dynamic_after = DynamicCounts.of_execution(after_run)
            result.output_matches = True
            return

        reason = (
            f"re-execution raised {type(error).__name__}: {error}"
            if error is not None
            else "re-execution diverged from the baseline behaviour"
        )
        if not committed:
            diags.warn(f"{reason}; no transformed function to roll back")
            result.output_matches = False
            if after_run is not None:
                result.dynamic_after = DynamicCounts.of_execution(after_run)
            return

        # Delta-debug: find the minimal culprit set among the transformed
        # functions, toggling each between its promoted and pre-promotion
        # IR and re-running from the snapshots.
        diags.warn(
            f"{reason}; bisecting over {len(committed)} transformed function(s)"
        )
        candidates = list(committed)

        def diverges(kept: List[str]) -> bool:
            kept_set = set(kept)
            for name in candidates:
                if name in kept_set:
                    committed[name].install(module.functions[name])
                else:
                    snapshots[name].restore()
            run, _ = self._execute(module, steps, code)
            return run is None or not _behaviour_matches(before_run, run)

        culprits, tests_run, resolved = isolate_culprits(candidates, diverges)
        diags.bisection = BisectionReport(candidates, culprits, tests_run, resolved)

        culprit_set = set(culprits)
        for name in candidates:
            if name in culprit_set:
                snapshots[name].restore()
            else:
                committed[name].install(module.functions[name])
        for name in culprits:
            result.stats[name] = FunctionPromotionStats()
            self._mark_decision(name, "rolled_back")
            diags.record_rollback(
                name,
                stage="re-execution",
                reason="behaviour divergence isolated by bisection",
            )

        final_run, _ = self._execute(module, steps, code)
        result.final_run = final_run
        result.output_matches = final_run is not None and _behaviour_matches(
            before_run, final_run
        )
        if final_run is not None:
            result.dynamic_after = DynamicCounts.of_execution(final_run)
        result.static_after = StaticCounts.of_module(module)
        if not result.output_matches:
            diags.warn(
                "behaviour divergence persists after rolling back every "
                "transformed function; promotion is not the cause"
            )
