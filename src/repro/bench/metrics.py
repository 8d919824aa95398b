"""Metric collection for the evaluation tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines import BASELINES
from repro.bench.workloads import Workload
from repro.frontend.lower import compile_source
from repro.promotion.driver import PromotionOptions, promote_function
from repro.promotion.pipeline import (
    PipelineResult,
    PromotionPipeline,
    Promoter,
    _prepare,
    improvement,
)
from repro.regalloc.coloring import colors_needed
from repro.regalloc.interference import build_interference_graph

#: name -> per-function promoter; "sastry-ju" is the paper's algorithm.
PROMOTERS: Dict[str, Promoter] = {"sastry-ju": promote_function, **BASELINES}


@dataclass
class PressureRow:
    """One routine's register pressure (one row of Table 3)."""

    name: str
    routine: str
    colors_before: int
    colors_after: int


@dataclass
class BenchmarkRow:
    """One workload's before/after counts (one row of Tables 1 and 2),
    and its routines' register pressure (its rows of Table 3)."""

    name: str
    promoter: str
    static_loads_before: int
    static_loads_after: int
    static_stores_before: int
    static_stores_after: int
    dynamic_loads_before: int
    dynamic_loads_after: int
    dynamic_stores_before: int
    dynamic_stores_after: int
    output_matches: bool
    #: Supervised-worker outcome (all defaults when it did not run).
    quarantined: List[str] = field(default_factory=list)
    retries: int = 0
    degraded: bool = False
    #: Table 3's rows: colors before and after, per pressure routine.
    pressure: List[PressureRow] = field(default_factory=list)
    #: The run's full ``PipelineDiagnostics.as_dict()``, for
    #: ``--diagnostics-dir``; excluded from repr — it is large.
    diagnostics: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def static_total_before(self) -> int:
        return self.static_loads_before + self.static_stores_before

    @property
    def static_total_after(self) -> int:
        return self.static_loads_after + self.static_stores_after

    @property
    def dynamic_total_before(self) -> int:
        return self.dynamic_loads_before + self.dynamic_stores_before

    @property
    def dynamic_total_after(self) -> int:
        return self.dynamic_loads_after + self.dynamic_stores_after

    def pct(self, metric: str) -> float:
        """Percentage improvement for e.g. ``"dynamic_loads"`` (negative
        when the count increased — the paper's sign convention)."""
        before = getattr(self, f"{metric}_before")
        after = getattr(self, f"{metric}_after")
        return improvement(before, after)


def measure_workload(
    workload: Workload,
    promoter: str = "sastry-ju",
    options: Optional[PromotionOptions] = None,
    resilience=None,
    observability=None,
) -> BenchmarkRow:
    """Compile a workload, run a promoter, return the counts row.

    Every promoter runs through the one :class:`PromotionPipeline`, so
    ``resilience``/``observability`` configure its execution layer
    whichever promoter it applies.  Passing one ``observability`` bundle
    across several workloads accumulates their traces (one ``pipeline``
    root span per workload) and counters.  Table 3's colors after are
    read off this run's module, and before off phase 1 on a fresh
    compile (phase 1 is deterministic).
    """
    module = compile_source(workload.source)
    pipeline = PromotionPipeline(
        options=options,
        promoter=PROMOTERS[promoter],
        entry=workload.entry,
        args=list(workload.args),
        resilience=resilience,
        observability=observability,
    )
    result: PipelineResult = pipeline.run(module)
    prepared = compile_source(workload.source)
    pressure = []
    for routine in workload.pressure_routines:
        _prepare(prepared.functions[routine])
        before = colors_needed(build_interference_graph(prepared.functions[routine]))
        after = colors_needed(build_interference_graph(module.functions[routine]))
        pressure.append(PressureRow(workload.name, routine, before, after))
    diags = result.diagnostics
    counters = diags.resilience or {}
    return BenchmarkRow(
        name=workload.name,
        promoter=promoter,
        static_loads_before=result.static_before.loads,
        static_loads_after=result.static_after.loads,
        static_stores_before=result.static_before.stores,
        static_stores_after=result.static_after.stores,
        dynamic_loads_before=result.dynamic_before.loads,
        dynamic_loads_after=result.dynamic_after.loads,
        dynamic_stores_before=result.dynamic_before.stores,
        dynamic_stores_after=result.dynamic_after.stores,
        output_matches=result.output_matches,
        quarantined=list(diags.quarantined_functions),
        retries=int(counters.get("retries", 0) or 0),
        degraded=diags.degraded,
        pressure=pressure,
        diagnostics=diags.as_dict(),
    )
