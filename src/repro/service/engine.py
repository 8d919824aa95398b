"""The promotion engine: a thread pool behind the daemon.

Every job builds its own module from source and runs a fresh
:class:`~repro.promotion.pipeline.PromotionPipeline`; nothing a job
builds outlives it except, for clean default runs, its printed result
in the result cache.  Jobs that set ``timeout_s``/``retries``/``chaos``
promote in one supervised worker process underneath their pool thread
(:mod:`repro.robustness.supervise`), and the job's deadline is the
per-function timeout unless ``timeout_s`` says otherwise, so a hung
worker process is killed by the supervisor rather than orphaned.  The
worker lives for one job only.

Deadline semantics for the pool thread itself: Python threads cannot be
interrupted, so a job that outlives its deadline is **abandoned** — the
caller gets a 504 immediately, the thread runs to completion in the
background, and the engine accounts for it (``abandoned`` gauge, slot
pressure visible in ``/healthz``).  An abandoned job's result is
discarded, never cached; shared state stays consistent because every
job builds its own module from source (shared-nothing).

Failure taxonomy: anything the *client* caused (malformed source, input
over limits, runtime error in the submitted program) raises a
:class:`~repro.service.errors.ServiceError` subclass and does NOT count
against the circuit breaker; anything else is wrapped in
:class:`EngineCrashError` and does.

The result cache memoizes clean, default-option runs only
(:meth:`JobRequest.is_default_run`), keyed by a sha256 of the full
payload — a hit is byte-identical to a fresh serial run by
construction, because that is exactly what produced it.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.frontend.errors import CompileError, FrontendLimitError
from repro.observability import flightrecorder
from repro.frontend.limits import InputLimits
from repro.frontend.lower import compile_source
from repro.ir.module import Module
from repro.ir.parser import IRParseError, parse_module
from repro.ir.printer import print_module
from repro.profile.interp import MAX_STEPS, Interpreter, InterpreterError
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness.supervise import ResilienceOptions
from repro.service.errors import DeadlineExceededError, JobInputError, ServiceError
from repro.service.jobs import JobRequest, JobResult


class EngineCrashError(RuntimeError):
    """An engine-level failure — the class the circuit breaker counts."""


class PromotionEngine:
    """Thread pool + result cache."""

    def __init__(
        self,
        workers: int = 2,
        limits: Optional[InputLimits] = None,
        result_cache_size: int = 64,
    ) -> None:
        self.workers = workers
        self.limits = limits or InputLimits()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="promotion-worker"
        )
        self._result_cache: "collections.OrderedDict[str, JobResult]" = (
            collections.OrderedDict()
        )
        self._result_cache_size = result_cache_size
        self._cache_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.jobs_total = 0
        self.degraded_total = 0
        self.failed_total = 0
        self.abandoned = 0
        self.result_cache_hits = 0
        self._job_seq = 0

    # -- identity --------------------------------------------------------

    def next_job_id(self) -> str:
        with self._counter_lock:
            self._job_seq += 1
            return f"job-{self._job_seq}"

    # -- the synchronous job body (runs in a pool thread) ----------------

    def _build_module(self, job: JobRequest) -> Module:
        if job.kind == "minic":
            try:
                return compile_source(job.source, limits=self.limits)
            except FrontendLimitError as exc:
                raise JobInputError(str(exc), limit=exc.limit) from None
            except CompileError as exc:
                raise JobInputError(f"compile error: {exc}") from None
        try:
            self.limits.check_source(job.source)
        except FrontendLimitError as exc:
            raise JobInputError(str(exc), limit=exc.limit) from None
        try:
            return parse_module(job.source)
        except IRParseError as exc:
            raise JobInputError(f"IR parse error: {exc}") from None

    def _resilience_for(self, job: JobRequest, deadline_s: float):
        if not job.wants_resilience:
            return None
        return ResilienceOptions.from_flags(
            job.timeout_s if job.timeout_s is not None else deadline_s,
            job.retries,
            job.chaos,
        )

    def execute(
        self,
        job: JobRequest,
        deadline_s: float,
        job_id: str,
        observability=None,
    ) -> JobResult:
        """Run one job to completion in the calling thread.

        Client-caused problems raise :class:`ServiceError` subclasses;
        anything else escapes as :class:`EngineCrashError`.  Passing an
        ``observability`` bundle records the run's spans into it (for
        per-request streaming) and bypasses the result cache — a
        streamed request always runs fresh so its spans are real.
        """
        started = time.perf_counter()
        cache_key = None
        if job.is_default_run and self._result_cache_size and observability is None:
            material = job.cache_key_material().encode()
            cache_key = hashlib.sha256(material).hexdigest()
            with self._cache_lock:
                hit = self._result_cache.get(cache_key)
                if hit is not None:
                    self._result_cache.move_to_end(cache_key)
            if hit is not None:
                with self._counter_lock:
                    self.result_cache_hits += 1
                    self.jobs_total += 1
                return JobResult(
                    job_id=job_id,
                    ir=hit.ir,
                    output=list(hit.output),
                    return_value=hit.return_value,
                    output_matches=hit.output_matches,
                    degraded=hit.degraded,
                    quarantined=list(hit.quarantined),
                    rolled_back=list(hit.rolled_back),
                    duration_ms=(time.perf_counter() - started) * 1e3,
                    cached=True,
                )

        try:
            result = self._run_pipeline(job, deadline_s, job_id, started, observability)
        except ServiceError:
            with self._counter_lock:
                self.jobs_total += 1
                self.failed_total += 1
            raise
        except Exception as exc:
            with self._counter_lock:
                self.jobs_total += 1
                self.failed_total += 1
            recorder = flightrecorder.ambient()
            recorder.record(
                "engine.crash",
                job_id=job_id,
                error_type=type(exc).__name__,
                detail=str(exc).splitlines()[0] if str(exc) else None,
            )
            recorder.dump(f"engine-crash-{job_id}")
            raise EngineCrashError(
                f"engine failure on {job_id}: {type(exc).__name__}: {exc}"
            ) from exc
        with self._counter_lock:
            self.jobs_total += 1
            if result.degraded:
                self.degraded_total += 1
        # Only clean default runs are cacheable: a degraded run's output
        # is still sound, but we never want to pin degradation.
        if cache_key is not None and not result.degraded and result.output_matches:
            with self._cache_lock:
                self._result_cache[cache_key] = result
                self._result_cache.move_to_end(cache_key)
                while len(self._result_cache) > self._result_cache_size:
                    self._result_cache.popitem(last=False)
        return result

    def _run_pipeline(
        self,
        job: JobRequest,
        deadline_s: float,
        job_id: str,
        started: float,
        observability=None,
    ) -> JobResult:
        module = self._build_module(job)
        max_steps = job.max_steps or MAX_STEPS
        result = PromotionPipeline(
            entry=job.entry,
            args=job.args,
            max_steps=max_steps,
            resilience=self._resilience_for(job, deadline_s),
            observability=observability,
        ).run(module)

        # Phase 5 already ran the module as returned; run it here only
        # when there was no such run to answer from.
        run = result.final_run
        if run is None:
            try:
                run = Interpreter(module, max_steps=max_steps).run(job.entry, job.args)
            except InterpreterError as exc:
                raise JobInputError(f"execution failed: {exc}") from None

        diags = result.diagnostics
        return JobResult(
            job_id=job_id,
            ir=print_module(module),
            output=[" ".join(str(v) for v in values) for values in run.output],
            return_value=run.return_value & 0xFF,
            output_matches=result.output_matches,
            degraded=diags.degraded,
            quarantined=list(diags.quarantined_functions),
            rolled_back=list(diags.rolled_back_functions),
            duration_ms=(time.perf_counter() - started) * 1e3,
        )

    # -- the async dispatch (runs in the event loop) ---------------------

    async def run_job(
        self,
        job: JobRequest,
        deadline_s: float,
        job_id: str,
        observability=None,
    ) -> JobResult:
        """Dispatch a job onto the pool with a wall-clock deadline.

        On deadline the caller gets :class:`DeadlineExceededError`
        immediately and the thread is abandoned (see module docstring);
        cancellation (client disconnect) abandons the same way.  The
        raw :class:`concurrent.futures.Future` is kept alongside the
        asyncio wrapper because only *its* ``cancel()`` tells the truth
        about whether the pool thread already started — the wrapper's
        always claims success.
        """
        cfuture = self._pool.submit(
            self.execute, job, deadline_s, job_id, observability
        )
        future = asyncio.wrap_future(cfuture)
        try:
            done, pending = await asyncio.wait({future}, timeout=deadline_s)
        except asyncio.CancelledError:
            self._abandon(cfuture, future)
            raise
        if pending:
            self._abandon(cfuture, future)
            raise DeadlineExceededError(
                f"{job_id} exceeded its {deadline_s:g}s deadline"
            )
        return future.result()

    def _abandon(
        self, cfuture: "concurrent.futures.Future", future: "asyncio.Future"
    ) -> None:
        future.cancel()  # the loop will never consume the result
        if cfuture.cancel():
            return  # never started: no thread to account for
        # Already running: the thread finishes in the background and the
        # gauge drops when it does.  add_done_callback fires immediately
        # if it slipped to done between the cancel and here, so the
        # increment/decrement always pair up.
        with self._counter_lock:
            self.abandoned += 1

        def _reap(done_future: "concurrent.futures.Future") -> None:
            with self._counter_lock:
                self.abandoned -= 1

        cfuture.add_done_callback(_reap)

    async def probe(self, timeout_s: float = 1.0) -> bool:
        """Readiness probe: can the pool still turn a trivial job
        around?  False means the pool is wedged (all threads abandoned
        or deadlocked)."""
        loop = asyncio.get_event_loop()
        future = loop.run_in_executor(self._pool, lambda: 42)
        done, pending = await asyncio.wait({future}, timeout=timeout_s)
        if pending:
            future.cancel()
            future.add_done_callback(_swallow)
            return False
        return future.result() == 42

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def as_dict(self) -> Dict[str, object]:
        with self._counter_lock:
            return {
                "workers": self.workers,
                "jobs_total": self.jobs_total,
                "degraded_total": self.degraded_total,
                "failed_total": self.failed_total,
                "abandoned": self.abandoned,
                "result_cache_hits": self.result_cache_hits,
                "result_cache_entries": len(self._result_cache),
            }


def _swallow(future: "asyncio.Future") -> None:
    if future.cancelled():
        return
    future.exception()
