"""The documented public API (docs/API.md) must stay importable, and the
README quickstart must run as written."""


def test_api_imports():
    from repro.frontend import CompileError, compile_source, parse_program
    from repro.profile import (
        Interpreter,
        InterpreterError,
        InterpreterLimitError,
        ProfileData,
        estimate_profile,
        run_module,
    )
    from repro.promotion import (
        PromotionError,
        PromotionOptions,
        PromotionPipeline,
        construct_ssa_webs,
        promote_function,
    )
    from repro.baselines import BASELINES, lu_cooper_promote, mahlke_promote
    from repro.robustness import (
        BisectionReport,
        FaultInjector,
        FunctionOutcome,
        FunctionSnapshot,
        PipelineDiagnostics,
        UnsoundAliasModel,
        capture_state,
        isolate_culprits,
        snapshot_function,
    )
    from repro.ssa.construct import construct_ssa
    from repro.ssa.destruct import destruct_ssa, eliminate_phis
    from repro.ssa.incremental import (
        convert_var_to_ssa,
        names_of_var,
        update_ssa_for_cloned_resources,
    )
    from repro.ssa.css96 import css96_update
    from repro.ssa.unionfind import UnionFind
    from repro.analysis import (
        DominatorTree,
        IntervalTree,
        Liveness,
        idf_cytron,
        idf_sreedhar_gao,
        iterated_dominance_frontier,
        normalize_for_promotion,
        reverse_postorder,
        split_critical_edges,
        split_edge,
    )
    from repro.memory import AliasModel, MemName, MemoryVar, build_memory_ssa
    from repro.ir import (
        BasicBlock,
        Function,
        IRBuilder,
        Module,
        print_function,
        print_module,
        verify_function,
        verify_module,
    )
    from repro.ir.dot import function_to_dot
    from repro.ir.parser import parse_module
    from repro.passes import (
        dead_code_elimination,
        dead_memory_elimination,
        propagate_copies,
        remove_dummy_loads,
    )
    from repro.passes.unroll import unroll_function, unroll_module
    from repro.regalloc import build_interference_graph, color_graph, colors_needed
    from repro.bench import WORKLOADS, measure_workload, pressure_rows
    from repro.bench.tables import format_table1, format_table2, format_table3
    from repro.service import (
        ClusterConfig,
        FingerprintResolver,
        LocalCluster,
        PromotionDaemon,
        PromotionRouter,
        RouterConfig,
        ServiceClient,
        ServiceConfig,
        ServiceProcess,
        hrw_order,
        run_daemon,
    )


def test_readme_quickstart():
    from repro.frontend import compile_source
    from repro.promotion import PromotionPipeline

    module = compile_source(
        """
        int hits = 0;
        void report(int n) { print(n); }
        int main() {
            for (int i = 0; i < 1000; i++) {
                hits += i % 3;
                if (hits % 997 == 0) report(hits);   // cold call
            }
            return hits % 256;
        }
        """
    )
    result = PromotionPipeline().run(module)
    assert result.output_matches
    assert "behaviour preserved: True" in result.report()
    # The README claims the hot loop's ~1000 loads collapse.
    assert result.dynamic_after.loads <= 8
