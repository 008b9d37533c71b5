/**
 * @file
 * The end-to-end Diospyros compiler driver (paper Figure 1):
 *
 *   scalar kernel --symbolic eval--> List spec --equality saturation-->
 *   saturated e-graph --extract--> optimized DSL --lower/LVN/emit-->
 *   DSP machine code (+ C intrinsics text) [--translation validation]
 *
 * The driver also pads the spec so each output array starts on a
 * vector-width boundary (vector stores never straddle arrays) and
 * produces the compile report that Table 1 summarizes: wall-clock per
 * phase, e-graph size, stop reason, and a memory proxy.
 *
 * Two entry points:
 *  - compile_kernel(): the raw pipeline; throws on any failure
 *    (UserError, InternalError, ResourceLimitError / DeadlineExceeded).
 *  - compile_kernel_resilient(): the fault-tolerant service wrapper. It
 *    never throws; on failure it retries down a *degradation ladder* of
 *    progressively cheaper configurations and reports which rung
 *    produced the result:
 *
 *      rung 0  full rule set, caller's limits
 *      rung 1  reduced search: aggressive backoff, match caps, lower
 *              node budget
 *      rung 2  vector rules off — scalar simplification only
 *      rung 3  direct scalar lowering of the padded spec (no e-graph at
 *              all) — correct by construction, succeeds whenever the
 *              input kernel itself is valid
 *
 *    The paper leans on this shape of robustness implicitly — when
 *    saturation trips the 3-minute / 10M-node limits it extracts from
 *    the partial e-graph (§5.2, §5.5) — and the ladder extends it to
 *    failures in *any* phase.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "egraph/runner.h"
#include "machine/sim.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "scalar/ast.h"
#include "scalar/interp.h"
#include "scalar/symbolic.h"
#include "strategy/strategy.h"
#include "support/deadline.h"
#include "validation/validate.h"
#include "vir/emit.h"
#include "vir/lower_term.h"
#include "vir/lvn.h"

namespace diospyros {

/** Compiler configuration (paper §5.2 defaults). */
struct CompilerOptions {
    TargetSpec target = TargetSpec::fusion_g3_like();
    RuleConfig rules{target.vector_width};
    RunnerLimits limits = {.node_limit = 10'000'000,
                           .iter_limit = 100,
                           .time_limit_seconds = 180.0,
                           .match_limit_per_rule = 0};
    CostParams cost;
    /** Run translation validation after extraction. */
    bool validate = false;
    /** Also differential-test spec vs extracted term on random inputs. */
    bool random_check = false;
    /**
     * Wall-clock budget for the *whole* compile — saturation,
     * extraction, LVN, emission, validation — as one Deadline
     * (support/deadline.h). 0 disables the global deadline; the
     * saturation phase still honors limits.time_limit_seconds either
     * way. Expiry raises DeadlineExceeded from compile_kernel(); the
     * resilient driver degrades instead.
     */
    double deadline_seconds = 0.0;
    /**
     * Absolute wall-clock deadline intersected with `deadline_seconds`.
     * A service threads the *request* deadline (which started ticking at
     * admission, so queue wait counts against it) through here; the
     * compile then honors whichever budget expires first. Unlimited by
     * default. Like the other wall-clock budgets, excluded from the
     * cache key (service/cache_key.h).
     */
    Deadline absolute_deadline;
    /**
     * Bounded retries for transient cache-store/scan I/O failures
     * (service/disk_cache.h IoPolicy): each store attempt may be retried
     * this many times with deterministic backoff before the failure
     * surfaces. Excluded from the cache key — it shapes durability, not
     * the artifact. Load-side corruption is never retried (quarantined).
     */
    int io_retries = 2;
    /**
     * Fault-injection specs ("site[:nth[:count]]"; see support/faults.h)
     * armed by compile_kernel_resilient() before the first attempt.
     * Normally empty; populated by `dioscc --fault` and tests.
     */
    std::vector<std::string> fault_specs;
    /**
     * Run the static-analysis gates (src/analysis/): e-graph audit after
     * saturation and extraction, VIR verification after lowering and
     * after LVN. Always on in debug and sanitizer builds regardless of
     * this flag; release builds opt in here (dioscc --verify-ir).
     * Failures raise InternalError, so the resilient driver degrades.
     */
    bool verify_ir = false;
    /**
     * Run the machine-code gates (analysis/verify_machine.h): structural
     * verification of the emitted program before and after scheduling,
     * the scheduler-preservation proof (M008), and symbolic machine-level
     * translation validation of the final scheduled code against the
     * padded spec. The structural/scheduling gates follow verify_ir's
     * build-type default (always on in debug and sanitizer builds);
     * symbolic validation runs only when this flag or `validate` is set,
     * since it fingerprints every output element. Release builds opt in
     * via dioscc --verify-machine. Structural failures raise
     * InternalError; a kNotEquivalent machine validation degrades the
     * resilient driver like a failed term-level validation does.
     */
    bool verify_machine = false;
    /**
     * Saturation strategy (strategy/strategy.h). Disengaged (the
     * default), saturation runs the built-in "default" strategy: one
     * phase with all rules, the monolithic run under `limits`. Engaged,
     * the strategy's phases run over the shared e-graph with `limits`
     * as the base budget every phase tightens into. The degradation ladder keeps the strategy on rung 1 (the
     * reduced base limits clamp each phase) and drops it from rung 2 on
     * (vector rules are off there, so phase rule subsets would no
     * longer resolve). Folded into the service cache key via its
     * canonical rendering.
     */
    std::optional<strategy::Strategy> strategy;

    /** Synchronizes rule/target parameters (width, recip support). */
    void
    sync()
    {
        rules.vector_width = target.vector_width;
        rules.target_has_recip = target.has_reciprocal;
    }
};

/**
 * Why a compile (or one ladder attempt) failed, at the granularity the
 * service's failure memory needs. Deterministic failures (`kUser`, and
 * `kResource` under a no-larger budget) are safe to negative-cache —
 * retrying without changing anything would fail identically. Transient
 * or environmental ones (`kInjectedFault`, `kInternal`) must never be
 * remembered, and the service-synthesized kinds (`kOverloaded`,
 * `kExpired`) describe requests that were never compiled at all.
 */
enum class FailureClass {
    kNone = 0,       ///< no failure (the compile succeeded)
    kUser,           ///< invalid kernel or options — deterministic
    kResource,       ///< a wall-clock / node / memory budget ran out
    kInternal,       ///< library bug or unexpected exception
    kInjectedFault,  ///< an armed fault site fired
    kOverloaded,     ///< service shed the request (admission control)
    kExpired,        ///< request deadline passed while queued
};

/** Debug/JSON spelling ("none", "user", "resource", ...). */
const char* failure_class_name(FailureClass c);

/** One rung attempt by the resilient driver. */
struct AttemptDiagnostic {
    /** Ladder rung tried (0 = full pipeline ... 3 = direct scalar). */
    int level = 0;
    /** Failure message; empty when this attempt succeeded. */
    std::string error;
    /** What kind of failure this attempt hit (kNone on success). */
    FailureClass failure_class = FailureClass::kNone;
    /** Wall-clock spent on this attempt. */
    double seconds = 0.0;
};

/** Human-readable rung name ("full", "reduced", ...). */
const char* fallback_level_name(int level);

/** Everything Table 1 reports, per kernel. */
struct CompileReport {
    double lift_seconds = 0.0;
    double saturation_seconds = 0.0;
    double extract_seconds = 0.0;
    double backend_seconds = 0.0;
    double total_seconds = 0.0;
    std::size_t spec_elements = 0;      ///< output elements (padded)
    std::size_t spec_dag_nodes = 0;     ///< lifted spec size (DAG)
    std::size_t egraph_nodes = 0;
    std::size_t egraph_classes = 0;
    StopReason stop_reason = StopReason::kSaturated;
    std::size_t runner_iterations = 0;
    /**
     * Per-iteration saturation stats (search/apply/rebuild seconds and
     * sizes after each iteration) in run order; for strategy runs, the
     * phases' iterations back to back. Timing data: cache entries do not
     * store it, like the *_seconds fields.
     */
    std::vector<IterationStats> iterations;
    /**
     * Per-rule e-matching totals across the saturation run (rule-set
     * order): matches found, applications that changed the graph, and
     * search/apply wall-clock. Surfaced via `dioscc --json`.
     */
    std::vector<RuleStats> rule_stats;
    /**
     * Strategy that drove saturation: "default" when none was set, ""
     * on the direct rung (no saturation ran).
     */
    std::string strategy_name;
    /**
     * Per-phase reports of the saturation run — the `phases` array of
     * `dioscc --json`. Live runs only: empty on cache hits.
     */
    std::vector<strategy::PhaseReport> strategy_phases;
    /** The strategy goal sketch was satisfied (false without a goal). */
    bool strategy_goal_satisfied = false;
    double extracted_cost = 0.0;
    vir::LvnStats lvn;
    /** Estimated peak e-graph memory (bytes), the Table 1 "Memory" proxy. */
    std::size_t memory_proxy_bytes = 0;
    Verdict validation = Verdict::kUnknown;
    bool random_check_passed = true;
    /**
     * Symbolic machine-level translation validation of the final
     * scheduled machine code against the padded spec (M009). kUnknown
     * until `machine_validated` is set; kNotEquivalent is only ever
     * reported together with a concrete counterexample in
     * `machine_witness`.
     */
    Verdict machine_validation = Verdict::kUnknown;
    /** Whether machine-level validation actually ran on this compile. */
    bool machine_validated = false;
    /** Rendered counterexample witness for a kNotEquivalent ("" = none). */
    std::string machine_witness;
    /** Degradation-ladder rung that produced this result (0 = none). */
    int fallback_level = 0;
    /** Every rung tried by the resilient driver (empty for raw compiles). */
    std::vector<AttemptDiagnostic> attempts;
    /** Failure message of the *last failed* attempt ("" when rung 0 won). */
    std::string error;
};

/**
 * A fully compiled kernel. A compile fills every field; an artifact
 * served from the compile cache or a daemon
 * (service::compiled_from_entry) fills only `kernel`, `layout`,
 * `machine`, `c_source` and `report`, so readers of the spec lift it
 * from `kernel`.
 */
struct CompiledKernel {
    scalar::Kernel kernel;
    /** The lifted spec (empty on a served artifact). */
    scalar::LiftedSpec spec;
    /**
     * The padded spec actually optimized (alignment zeros inserted);
     * null on a served artifact.
     */
    TermRef padded_spec;
    /** The extracted term; null on a served artifact. */
    TermRef extracted;
    /** The lowered vector program; empty on a served artifact. */
    vir::VProgram vprogram;
    vir::CompiledLayout layout;
    Program machine;
    std::string c_source;
    CompileReport report;

    /** Simulates the compiled kernel on the given inputs. */
    struct RunOutcome {
        scalar::BufferMap outputs;
        RunResult result;
    };
    /**
     * Runs on the simulator. The returned output buffers are validated
     * against the kernel's output manifest (scalar::output_manifest:
     * every declared output present, at its declared length) before
     * being handed back, so callers can element-wise compare without
     * out-of-bounds risk. The manifest comes from `kernel`, so served
     * artifacts are checked exactly like compiled ones.
     */
    RunOutcome run(const scalar::BufferMap& inputs,
                   const TargetSpec& target) const;
};

/**
 * Compiles a scalar kernel end to end. Throws UserError on invalid
 * input, InternalError on library bugs, and DeadlineExceeded when
 * `options.deadline_seconds` expires mid-compile.
 */
CompiledKernel compile_kernel(const scalar::Kernel& kernel,
                              CompilerOptions options = {});

/**
 * Result of a resilient compile. Exactly one of the following holds:
 * `ok` and `compiled` is engaged (with `fallback_level` telling which
 * rung produced it), or `!ok` and `error` describes the final failure.
 */
struct CompileResult {
    bool ok = false;
    /** Rung that succeeded (0 = full pipeline ... 3 = direct scalar). */
    int fallback_level = 0;
    /**
     * True when the failure was the caller's fault (invalid kernel or
     * options) — the one category batch drivers report with a non-zero
     * exit code, since no retry or degradation can fix it.
     */
    bool user_error = false;
    /**
     * Classification of the final failure (kNone when ok). The service's
     * negative cache keys its "safe to remember?" decision off this, so
     * it must faithfully reflect the *last failed* attempt.
     */
    FailureClass failure_class = FailureClass::kNone;
    /** Final failure when !ok; empty otherwise. */
    std::string error;
    /** One entry per rung tried (also mirrored into the report). */
    std::vector<AttemptDiagnostic> attempts;
    /** Engaged iff ok. Its report carries fallback_level + attempts. */
    std::optional<CompiledKernel> compiled;

    const CompileReport& report() const { return compiled->report; }
};

/**
 * Fault-tolerant compile: never throws. Attempts the full pipeline and
 * walks the degradation ladder (see file header) on any failure —
 * resource-limit blow-up, internal error, injected fault, failed
 * translation validation or random check. All rungs share one Deadline
 * when options.deadline_seconds > 0; the final direct-scalar rung
 * ignores it (it must be allowed to finish to return *something*).
 */
CompileResult compile_kernel_resilient(const scalar::Kernel& kernel,
                                       CompilerOptions options = {});

/**
 * The compile-wide budget: the relative `options.deadline_seconds`
 * intersected with `options.absolute_deadline`.
 */
Deadline effective_deadline(const CompilerOptions& options);

/**
 * Equality saturation as every compile runs it: `options.strategy`, or
 * the built-in "default" strategy (one phase, all rules — the monolithic
 * run) when none is set, over `graph` from the spec root `root`, with
 * `options.limits` as the base budget. `options` is not modified, so
 * the cache key of a compile without a strategy stays the same. Throws
 * UserError when a strategy's rule references do not resolve against
 * `rules`.
 */
strategy::StrategyReport saturate(EGraph& graph, ClassId root,
                                  const std::vector<Rewrite>& rules,
                                  const CompilerOptions& options,
                                  const Deadline& deadline);

/**
 * Shape-checked comparison of simulated outputs against a reference.
 * Never indexes out of bounds: missing or mis-sized buffers are
 * reported through `shape_error` instead.
 */
struct OutputComparison {
    /** Empty when every expected buffer is present at the right size. */
    std::string shape_error;
    /** Max |got - want| over all compared elements (shapes permitting). */
    float max_abs_error = 0.0f;

    bool shapes_ok() const { return shape_error.empty(); }
};
OutputComparison compare_outputs(const scalar::BufferMap& got,
                                 const scalar::BufferMap& want);

/** One-line Table 1-style row for a report. */
std::string report_row(const std::string& name, const CompileReport& r);

/**
 * Pads a lifted spec so every output array's element run is a multiple of
 * the vector width (vector stores never straddle arrays) and returns the
 * matching output slots. Exposed so the compile service can rebuild the
 * padded spec when reconstructing a kernel from the on-disk cache.
 */
std::pair<TermRef, std::vector<vir::OutputSlot>> pad_lifted_spec(
    const scalar::LiftedSpec& spec, int width);

}  // namespace diospyros
