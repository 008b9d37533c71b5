/**
 * @file
 * Entry point of the repository benchmark (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --prepare-native DIR
 *
 * The last line on stdout is the result object. With --trace 0 it holds
 * the end-to-end metrics below, with --trace 1 the per-layer ones; a layer
 * a workload does not exercise reads 0. Diagnostics go to stderr.
 */
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;

/** End-to-end metrics (BENCHMARK.json "end_to_end"), measured untraced. */
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "ops/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},
    {"code_instrs", "count"},
    {"sim_speedup_geomean", "x"},
};

/** Per-layer metrics (BENCHMARK.json "per_layer"), from the traced run. */
const MetricList kPerLayer = {
    {"scalar.lift_ms", "ms"},
    {"scalar.spec_dag_nodes", "count"},
    {"egraph.saturate_ms", "ms"},
    {"egraph.iterations", "count"},
    {"egraph.nodes", "count"},
    {"egraph.classes", "count"},
    {"egraph.matches", "count"},
    {"egraph.applied_ratio", "ratio"},
    {"egraph.memory_proxy_mb", "MB"},
    {"egraph.extract_ms", "ms"},
    {"egraph.extracted_cost", "cost"},
    {"vir.lower_ms", "ms"},
    {"vir.lvn_ms", "ms"},
    {"vir.lvn_removed", "count"},
    {"vir.cprint_ms", "ms"},
    {"vir.cprint_bytes", "bytes"},
    {"machine.emit_ms", "ms"},
    {"machine.instrs", "count"},
    {"machine.sim_cycles", "cycles"},
    {"machine.emit_c_ms", "ms"},
    {"machine.native_ns", "ns"},
    {"analysis.audit_ms", "ms"},
    {"analysis.verify_vir_ms", "ms"},
    {"analysis.verify_machine_ms", "ms"},
    {"analysis.machine_tv_ms", "ms"},
    {"analysis.machine_tv_decided", "count"},
    {"validation.term_tv_ms", "ms"},
    {"validation.term_tv_decided", "count"},
    {"service.cache_key_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.memory_hit_ratio", "ratio"},
    {"service.disk_hit_ratio", "ratio"},
    {"service.miss_ratio", "ratio"},
    {"service.disk_load_ms", "ms"},
    {"service.reconstruct_ms", "ms"},
    {"service.entry_bytes", "bytes"},
    {"service.disk_store_ms", "ms"},
    {"daemon.protocol_codec_us", "us"},
    {"daemon.frame_codec_us", "us"},
    {"daemon.overhead_ms", "ms"},
    {"daemon.wall_ms_p50", "ms"},
    {"daemon.wall_ms_p95", "ms"},
    {"daemon.retries", "count"},
    {"daemon.fallback_local", "count"},
    {"daemon.frames_rejected", "count"},
    {"failed_ratio", "ratio"},
    {"validated_ratio", "ratio"},
    {"native_ns_geomean", "ns"},
    {"trace.overhead_ms", "ms"},
    {"trace.child_coverage", "ratio"},
    {"trace.replay_mismatches", "count"},
    {"determinism.drift", "count"},
};

/**
 * Puts the workload's metrics in the published order and unit; a listed
 * metric the workload did not measure reads 0. A metric the list does not
 * know, or a unit that disagrees, is a benchmark bug.
 */
bool
normalize(RunOutcome& outcome, const MetricList& list)
{
    Metrics ordered;
    for (const auto& [name, unit] : list) {
        ordered.set(name, 0.0, unit);
    }
    for (const auto& [name, value_unit] : outcome.metrics.items()) {
        bool known = false;
        for (const auto& [lname, lunit] : list) {
            if (name == lname && value_unit.second == lunit) {
                known = true;
            }
        }
        if (!known) {
            std::fprintf(stderr, "perfbench: metric %s [%s] is not listed\n",
                         name.c_str(), value_unit.second.c_str());
            return false;
        }
        ordered.set(name, value_unit.first, value_unit.second);
    }
    outcome.metrics = ordered;
    return true;
}

int
run(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    if (!args.prepare_native.empty()) {
        return prepare_native(args);
    }
    make_dirs(args.work_dir);
    RunOutcome outcome;
    if (args.workload == "table1-cold") {
        outcome = run_compile_workload(args, false);
    } else if (args.workload == "validate") {
        outcome = run_compile_workload(args, true);
    } else if (args.workload == "serve") {
        outcome = run_serve(args);
    } else if (args.workload == "native") {
        outcome = run_native(args);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    if (outcome.attempted == 0 ||
        !normalize(outcome, args.trace ? kPerLayer : kEndToEnd)) {
        return 1;
    }
    print_result(outcome);
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
