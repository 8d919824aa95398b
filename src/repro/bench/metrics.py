"""Metric collection for the evaluation tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.intervals import normalize_for_promotion
from repro.baselines.lucooper import LuCooperPipeline
from repro.baselines.mahlke import MahlkePipeline
from repro.bench.workloads import Workload
from repro.frontend.lower import compile_source
from repro.promotion.driver import PromotionOptions
from repro.promotion.pipeline import PipelineResult, PromotionPipeline, improvement
from repro.regalloc.coloring import colors_needed
from repro.regalloc.interference import build_interference_graph
from repro.ssa.construct import construct_ssa

#: name -> pipeline factory; "sastry-ju" is the paper's algorithm.
PROMOTERS: Dict[str, Callable[..., object]] = {
    "sastry-ju": PromotionPipeline,
    "lucooper": LuCooperPipeline,
    "mahlke": MahlkePipeline,
}


@dataclass
class BenchmarkRow:
    """One workload's before/after counts (one row of Tables 1 and 2)."""

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


@dataclass
class PressureRow:
    """One routine's register pressure (one row of Table 3)."""

    name: str
    routine: str
    colors_before: int
    colors_after: int


def measure_workload(
    workload: Workload,
    promoter: str = "sastry-ju",
    options: Optional[PromotionOptions] = None,
    resilience=None,
    observability=None,
) -> BenchmarkRow:
    """Compile a workload, run a promoter, return the counts row.

    ``resilience``/``observability`` configure the paper
    pipeline's execution layer only; the baselines have no supervised
    path (and their counts would be identical anyway).  Passing one
    ``observability`` bundle across
    several workloads accumulates their traces (one ``pipeline`` root
    span per workload) and counters.
    """
    module = compile_source(workload.source)
    factory = PROMOTERS[promoter]
    if promoter == "sastry-ju":
        pipeline = factory(
            options=options,
            entry=workload.entry,
            args=list(workload.args),
            resilience=resilience,
            observability=observability,
        )
    else:
        pipeline = factory(entry=workload.entry, args=list(workload.args))
    result: PipelineResult = pipeline.run(module)
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
        diagnostics=diags.as_dict(),
    )


def pressure_rows(workload: Workload) -> List[PressureRow]:
    """Colors needed to color each selected routine's interference graph
    before and after promotion (Table 3)."""
    # Before: same preparation the pipeline applies, minus promotion.
    before_module = compile_source(workload.source)
    for function in before_module.functions.values():
        construct_ssa(function)
        normalize_for_promotion(function)
    before: Dict[str, int] = {
        name: colors_needed(build_interference_graph(before_module.functions[name]))
        for name in workload.pressure_routines
    }

    after_module = compile_source(workload.source)
    PromotionPipeline(entry=workload.entry, args=list(workload.args)).run(after_module)
    rows = []
    for routine in workload.pressure_routines:
        after = colors_needed(build_interference_graph(after_module.functions[routine]))
        rows.append(PressureRow(workload.name, routine, before[routine], after))
    return rows
