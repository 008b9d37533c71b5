/**
 * @file
 * The benchmark's workloads (README.md gives the reasons for each) and the
 * pieces they share: the Table-1 case set, the compile budget, and the
 * per-case output check against the reference interpreter.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernels/kernels.h"
#include "trace.h"

namespace perfbench {

/** One Table-1 kernel at one vector width, with seeded inputs. */
struct Case {
    std::string id;  ///< "<label>@w<width>", unique in the set
    int width = 4;
    scalar::Kernel kernel;
    scalar::BufferMap inputs;
    scalar::BufferMap want;  ///< run_reference on `inputs`
};

/**
 * The 21 Table-1 kernels at each width, in the paper's order. Input data
 * comes from `seed`; everything else is fixed.
 */
std::vector<Case> table1_cases(const std::vector<int>& widths,
                               std::uint64_t seed);

/**
 * The bench budget (12 iterations / 300k nodes / 20 s, as in
 * bench/bench_common.h) for the width's target preset; `validate` turns on
 * term- and machine-level validation and the analysis gates, the
 * configuration of the corpus gate in tools/check.sh.
 */
CompilerOptions bench_options(int width, bool validate);

/** Simulator run of a compiled case checked against its reference. */
struct CaseCheck {
    bool ok = false;
    double rel_error = 0.0;
    std::uint64_t cycles = 0;
    /** The naive fixed-size baseline's cycles (paper Figure 5). */
    std::uint64_t fixed_cycles = 0;
    scalar::BufferMap outputs;
};
CaseCheck check_case(const Case& c, const CompiledKernel& compiled,
                     const TargetSpec& target);

/**
 * Runs `setup` `times` times and returns the median of the process CPU
 * seconds each took; the first is counted from process start.
 */
double median_setup_seconds(int times, const std::function<void()>& setup);

/**
 * The latency distribution of workloads that visit a fixed case set
 * repeatedly: each case's median over the run. The result reports its
 * median and a tail over the cases, so a burst of contention moves one
 * sample of a case, not the result; and throughput as cases per second of
 * the summed medians (a pass over the set), or, with `geometric`, as calls
 * per second at the geometric-mean case (how Figure 5 averages speed).
 */
struct CaseLatencies {
    explicit CaseLatencies(std::size_t cases) : samples(cases) {}
    void add(std::size_t i, double ms) { samples[i].push_back(ms); }
    /** Writes throughput_per_s, latency_ms_p50 and latency_ms_tail. */
    void report(Metrics& m, const char* what, bool geometric) const;

    std::vector<std::vector<double>> samples;
};

RunOutcome run_compile_workload(const Args& args, bool validate);
RunOutcome run_serve(const Args& args);
RunOutcome run_native(const Args& args);
/** Writes the native workload's C units and manifest (build step). */
int prepare_native(const Args& args);

}  // namespace perfbench
