/**
 * @file
 * The `table1-cold` and `validate` workloads: a single-threaded closed loop
 * of full compiles over the Table-1 case set, with no cache.
 *
 * A run measures whole passes: each pass compiles every case once in a
 * seeded order, and passes start until --seconds have elapsed (at least
 * one), so every run does the same mix of work. The untraced run charges
 * each `compile_kernel_resilient` call the CPU time of the compiling
 * thread (the loop is single-threaded and does no I/O). The traced run
 * replays each compile stage by stage (staged.h), checks the replay
 * against `compile_kernel`, and reports per-pass layer totals, medians
 * over passes.
 */
#include <algorithm>
#include <cstdio>
#include <numeric>

#include <malloc.h>

#include "scalar/lower.h"
#include "staged.h"
#include "workloads.h"

namespace perfbench {

std::vector<Case>
table1_cases(const std::vector<int>& widths, std::uint64_t seed)
{
    std::vector<Case> cases;
    const std::vector<kernels::BenchmarkInstance> instances =
        kernels::table1_instances();
    for (const int width : widths) {
        for (const kernels::BenchmarkInstance& inst : instances) {
            Case c;
            c.id = inst.label() + "@w" + std::to_string(width);
            c.width = width;
            c.kernel = inst.kernel;
            c.inputs = kernels::make_inputs(
                inst.kernel, derive_seed(seed, cases.size()));
            c.want = scalar::run_reference(inst.kernel, c.inputs);
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

CompilerOptions
bench_options(int width, bool validate)
{
    CompilerOptions options;
    options.target = TargetSpec::for_width(width);
    options.limits = RunnerLimits{.node_limit = 300'000,
                                  .iter_limit = 12,
                                  .time_limit_seconds = 20.0};
    options.validate = validate;
    options.verify_ir = validate;
    options.verify_machine = validate;
    options.sync();
    return options;
}

CaseCheck
check_case(const Case& c, const CompiledKernel& compiled,
           const TargetSpec& target)
{
    CaseCheck check;
    const CompiledKernel::RunOutcome run = compiled.run(c.inputs, target);
    check.cycles = run.result.cycles;
    check.rel_error = max_rel_error(run.outputs, c.want);
    check.fixed_cycles =
        scalar::run_baseline(c.kernel, c.inputs,
                             scalar::LowerMode::kNaiveFixed, target)
            .result.cycles;
    check.ok = check.rel_error <= kRelTolerance;
    check.outputs = run.outputs;
    return check;
}

double
median_setup_seconds(int times, const std::function<void()>& setup)
{
    std::vector<double> seconds;
    for (int i = 0; i < times; ++i) {
        const double start = i == 0 ? 0.0 : process_cpu_ms();
        setup();
        seconds.push_back((process_cpu_ms() - start) / 1e3);
    }
    return median(seconds);
}

void
CaseLatencies::report(Metrics& m, const char* what, bool geometric) const
{
    std::vector<double> medians;
    double sum = 0.0;
    for (const std::vector<double>& s : samples) {
        if (!s.empty()) {
            medians.push_back(median(s));
            sum += medians.back();
        }
    }
    const Tail tail = tail_of(medians, medians.size());
    std::fprintf(stderr,
                 "perfbench: %s: %zu cases; latency tail is p%g of the case "
                 "medians (Harrell-Davis)\n",
                 what, medians.size(), tail.percentile);
    m.set("throughput_per_s",
          geometric ? 1e3 / geomean(medians)
                    : static_cast<double>(medians.size()) / (sum / 1e3),
          "ops/s");
    m.set("latency_ms_p50", harrell_davis(medians, 50.0), "ms");
    m.set("latency_ms_tail", harrell_davis(medians, tail.percentile), "ms");
}

namespace {

/**
 * Returns the heap's free memory to the system before a timed compile, so
 * every compile starts from the same heap state, as in a fresh compiler
 * process. Without it a compile's time depended on what ran before it: in
 * `validate`, MatMul 8x8 took 22-36 ms within one run after the QRDecomp
 * validations had grown the heap, and it sits at the median case.
 */
void
reset_heap()
{
    malloc_trim(0);
}

/** Samples per case every run reaches, unless one compile is slow... */
constexpr std::size_t kMinSamples = 5;
/** ...meaning it takes at least this much CPU time. */
constexpr double kTopUpCpuMs = 1000.0;

/** Counts the determinism guard pins for one compiled case. */
std::map<std::string, double>
deterministic_counts(const CompiledKernel& ck)
{
    return {
        {"egraph.nodes", static_cast<double>(ck.report.egraph_nodes)},
        {"egraph.extracted_cost", ck.report.extracted_cost},
        {"machine.instrs", static_cast<double>(ck.machine.size())},
        {"validation.term", static_cast<double>(ck.report.validation)},
        {"validation.machine",
         static_cast<double>(ck.report.machine_validation)},
        {"c_source", static_cast<double>(fingerprint(ck.c_source) >> 12)},
    };
}

bool
validated(const CompiledKernel& ck)
{
    return ck.report.validation == Verdict::kEquivalent &&
           ck.report.machine_validation == Verdict::kEquivalent;
}

/**
 * The weakest verdict a case may get at each validation level. Every
 * Table-1 kernel compiles correctly, so `equivalent` is the true answer
 * everywhere; only QRDecomp 4x4 exceeds the canonicalizer's caps and ends
 * `unknown` at both levels today. A verdict below this floor is a failed
 * compile, so a validator that gives up earlier cannot pass as faster. A
 * stronger verdict (QRDecomp 4x4 decided) is not a failure.
 */
Verdict
verdict_floor(const Case& c)
{
    return c.id.rfind("QRDecomp 4x4@", 0) == 0 ? Verdict::kUnknown
                                                : Verdict::kEquivalent;
}

bool
meets(Verdict got, Verdict floor)
{
    return got == Verdict::kEquivalent || got == floor;
}

/**
 * Why a compile's verdicts are wrong, or "" when they are not: a
 * `kNotEquivalent` at any level, and with validation on, a verdict below
 * the case's floor or a machine-level validation that did not run.
 */
std::string
verdict_problem(const Case& c, const CompiledKernel& ck, bool validate)
{
    const Verdict term = ck.report.validation;
    const Verdict machine = ck.report.machine_validation;
    if (term == Verdict::kNotEquivalent || machine == Verdict::kNotEquivalent) {
        return "refuted";
    }
    if (!validate) {
        return "";
    }
    if (!ck.report.machine_validated) {
        return "machine-level validation did not run";
    }
    if (!meets(term, verdict_floor(c)) || !meets(machine, verdict_floor(c))) {
        return std::string("verdicts term=") + verdict_name(term) +
               " machine=" + verdict_name(machine) + ", expected " +
               verdict_name(verdict_floor(c)) + " or better";
    }
    return "";
}

/**
 * Output checks shared by both modes. Each case's artifact is simulated
 * against the reference interpreter once, the first time it compiles,
 * and then dropped: keeping the artifacts alive across passes was
 * measured to slow later compiles (heap state), which would distort the
 * loop being timed. The checks run on the loop's thread, outside the
 * CPU time each compile is charged.
 */
class CaseChecks {
  public:
    explicit CaseChecks(const std::vector<Case>& cases)
        : cases_(cases), checks_(cases.size()), instrs_(cases.size(), 0.0)
    {
    }

    /** Checks case `i` unless it was checked already. */
    void
    check_once(std::size_t i, const CompiledKernel& ck)
    {
        if (checks_[i]) {
            return;
        }
        checks_[i] = check_case(cases_[i], ck,
                                TargetSpec::for_width(cases_[i].width));
        checks_[i]->outputs.clear();
        instrs_[i] = static_cast<double>(ck.machine.size());
        if (!checks_[i]->ok) {
            std::fprintf(stderr,
                         "perfbench: OUTPUT MISMATCH %s: relative error %g\n",
                         cases_[i].id.c_str(), checks_[i]->rel_error);
        }
    }

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(
            std::count_if(checks_.begin(), checks_.end(),
                          [](const auto& c) { return c && !c->ok; }));
    }

    double
    speedup_geomean() const
    {
        std::vector<double> speedups;
        for (const auto& c : checks_) {
            if (c) {
                speedups.push_back(static_cast<double>(c->fixed_cycles) /
                                   static_cast<double>(c->cycles));
            }
        }
        return geomean(speedups);
    }

    double
    total_instrs() const
    {
        return std::accumulate(instrs_.begin(), instrs_.end(), 0.0);
    }

    double
    total_cycles() const
    {
        double sum = 0.0;
        for (const auto& c : checks_) {
            sum += c ? static_cast<double>(c->cycles) : 0.0;
        }
        return sum;
    }

  private:
    const std::vector<Case>& cases_;
    std::vector<std::optional<CaseCheck>> checks_;
    std::vector<double> instrs_;
};

RunOutcome
run_untraced(const Args& args, bool validate, const std::vector<int>& widths)
{
    std::vector<Case> cases;
    const double setup_s = median_setup_seconds(
        5, [&] { cases = table1_cases(widths, args.seed); });

    RunOutcome outcome;
    const char* name = validate ? "validate" : "table1-cold";
    DeterminismGuard guard(args.work_dir, name);
    CaseChecks checks(cases);
    CaseLatencies latencies(cases.size());
    std::uint64_t validated_compiles = 0;
    std::uint64_t wrong_verdicts = 0;
    Rng rng(derive_seed(args.seed, 1000));
    std::vector<std::size_t> order(cases.size());

    auto compile_case = [&](std::size_t i) {
        const Case& c = cases[i];
        reset_heap();
        const double t0 = thread_cpu_ms();
        CompileResult result = compile_kernel_resilient(
            c.kernel, bench_options(c.width, validate));
        latencies.add(i, thread_cpu_ms() - t0);
        ++outcome.attempted;
        if (!result.ok || result.fallback_level > 0) {
            std::fprintf(stderr,
                         "perfbench: COMPILE FAILED %s: ok=%d rung=%d %s\n",
                         c.id.c_str(), result.ok ? 1 : 0,
                         result.fallback_level, result.error.c_str());
            ++outcome.failed;
            return;
        }
        const std::string wrong =
            verdict_problem(c, *result.compiled, validate);
        if (!wrong.empty()) {
            std::fprintf(stderr, "perfbench: WRONG VERDICT %s: %s\n",
                         c.id.c_str(), wrong.c_str());
            ++outcome.failed;
            ++wrong_verdicts;
        }
        validated_compiles += validated(*result.compiled) ? 1 : 0;
        guard.record(c.id, deterministic_counts(*result.compiled));
        checks.check_once(i, *result.compiled);
    };
    const Clock::time_point start = Clock::now();
    while (outcome.attempted == 0 || ms_since(start) < args.seconds * 1e3) {
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        rng.shuffle(order);
        for (const std::size_t i : order) {
            compile_case(i);
        }
    }
    // A validate pass outlasts --seconds, which would leave one sample per
    // case; cases that compile in under kTopUpCpuMs get topped up to
    // kMinSamples so their medians mean something. The slow QRDecomp
    // validations keep their single sample.
    for (const std::size_t i : order) {
        while (latencies.samples[i].size() < kMinSamples &&
               median(latencies.samples[i]) < kTopUpCpuMs) {
            compile_case(i);
        }
    }
    const std::size_t bad_outputs = checks.failed();
    outcome.failed += bad_outputs;
    const std::size_t drift = guard.finish();
    outcome.correct = bad_outputs == 0 && wrong_verdicts == 0 && drift == 0;
    std::fprintf(stderr, "perfbench: %s: %llu compiles; validated %llu\n",
                 name, static_cast<unsigned long long>(outcome.attempted),
                 static_cast<unsigned long long>(validated_compiles));

    Metrics& m = outcome.metrics;
    m.set("setup_s", setup_s, "s");
    latencies.report(m, name, false);
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("code_instrs", checks.total_instrs(), "count");
    m.set("sim_speedup_geomean", checks.speedup_geomean(), "x");
    return outcome;
}

/** Per-pass layer totals of the traced run. */
struct PassTotals {
    std::map<std::string, double> self_ms;
    std::map<std::string, double> counts;
    double memory_proxy_mb = 0.0;
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
};

RunOutcome
run_traced(const Args& args, bool validate, const std::vector<int>& widths)
{
    const std::vector<Case> cases = table1_cases(widths, args.seed);
    RunOutcome outcome;
    const char* name = validate ? "validate" : "table1-cold";
    DeterminismGuard guard(args.work_dir, name);
    Tracer tracer(Tracer::Time::kThreadCpu);
    std::vector<PassTotals> passes;
    CaseChecks checks(cases);
    std::vector<bool> invalid(cases.size(), false);
    std::uint64_t validated_compiles = 0;
    std::uint64_t wrong_verdicts = 0;
    double parent_ms = 0.0;
    double children_ms = 0.0;
    Rng rng(derive_seed(args.seed, 1000));
    std::vector<std::size_t> order(cases.size());

    const Clock::time_point start = Clock::now();
    while (passes.empty() || ms_since(start) < args.seconds * 1e3) {
        PassTotals pass;
        const int pass_span = tracer.open("pass", -1, passes.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        rng.shuffle(order);
        for (const std::size_t i : order) {
            const Case& c = cases[i];
            const CompilerOptions options = bench_options(c.width, validate);
            const std::uint64_t request = outcome.attempted++;
            reset_heap();
            SpanGuard compile(&tracer, "compile", pass_span, request);
            CompiledKernel staged;
            try {
                staged = staged_compile(c.kernel, options, tracer,
                                        compile.id(), request);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: COMPILE FAILED %s: %s\n",
                             c.id.c_str(), e.what());
                ++outcome.failed;
                invalid[i] = true;
                continue;
            }
            compile.close();
            reset_heap();
            const double t0 = thread_cpu_ms();
            const CompiledKernel reference = compile_kernel(c.kernel, options);
            const double untraced_ms = thread_cpu_ms() - t0;

            const std::string mismatch =
                replay_mismatch(staged, reference, c.width);
            if (!mismatch.empty()) {
                std::fprintf(stderr,
                             "perfbench: REPLAY MISMATCH %s: %s; its layer "
                             "numbers are left out\n",
                             c.id.c_str(), mismatch.c_str());
                invalid[i] = true;
            }
            const std::string wrong = verdict_problem(c, staged, validate);
            if (!wrong.empty()) {
                std::fprintf(stderr, "perfbench: WRONG VERDICT %s: %s\n",
                             c.id.c_str(), wrong.c_str());
                ++outcome.failed;
                ++wrong_verdicts;
            }
            validated_compiles += validated(staged) ? 1 : 0;
            guard.record(c.id, deterministic_counts(staged));
            if (invalid[i]) {
                continue;
            }
            tracer.aggregate(compile.id(), pass.self_ms, pass.counts);
            pass.memory_proxy_mb = std::max(
                pass.memory_proxy_mb,
                static_cast<double>(staged.report.memory_proxy_bytes) /
                    (1024.0 * 1024.0));
            pass.traced_ms += tracer.duration_ms(compile.id());
            pass.untraced_ms += untraced_ms;
            parent_ms += tracer.duration_ms(compile.id());
            children_ms += tracer.children_ms(compile.id());
            checks.check_once(i, staged);
        }
        tracer.close(pass_span);
        passes.push_back(std::move(pass));
    }

    const std::size_t bad_outputs = checks.failed();
    outcome.failed += bad_outputs;
    const std::size_t drift = guard.finish();
    outcome.correct = bad_outputs == 0 && wrong_verdicts == 0 && drift == 0;
    const std::size_t mismatches = static_cast<std::size_t>(
        std::count(invalid.begin(), invalid.end(), true));

    make_dirs(args.work_dir);
    const std::string trace_path =
        args.work_dir + "/trace-" + name + ".json";
    tracer.write_chrome_json(trace_path);
    std::fprintf(stderr,
                 "perfbench: traced %zu passes, %zu replay mismatches; "
                 "spans in %s\n",
                 passes.size(), mismatches, trace_path.c_str());

    auto pass_median = [&](auto&& get) {
        std::vector<double> values;
        for (const PassTotals& p : passes) {
            values.push_back(get(p));
        }
        return median(values);
    };
    auto self = [&](std::initializer_list<const char*> spans) {
        return pass_median([&](const PassTotals& p) {
            double sum = 0.0;
            for (const char* span : spans) {
                const auto it = p.self_ms.find(span);
                sum += it == p.self_ms.end() ? 0.0 : it->second;
            }
            return sum;
        });
    };
    auto count = [&](const char* key) {
        return pass_median([&](const PassTotals& p) {
            const auto it = p.counts.find(key);
            return it == p.counts.end() ? 0.0 : it->second;
        });
    };

    Metrics& m = outcome.metrics;
    m.set("scalar.lift_ms", self({"scalar.lift"}), "ms");
    m.set("scalar.spec_dag_nodes", count("spec_dag_nodes"), "count");
    m.set("egraph.saturate_ms", self({"egraph.saturate", "egraph.free"}), "ms");
    m.set("egraph.iterations", count("iterations"), "count");
    m.set("egraph.nodes", count("nodes"), "count");
    m.set("egraph.classes", count("classes"), "count");
    m.set("egraph.matches", count("matches"), "count");
    const double matches = count("matches");
    m.set("egraph.applied_ratio",
          matches > 0.0 ? count("applications") / matches : 0.0, "ratio");
    m.set("egraph.memory_proxy_mb",
          pass_median([](const PassTotals& p) { return p.memory_proxy_mb; }),
          "MB");
    m.set("egraph.extract_ms", self({"egraph.extract"}), "ms");
    m.set("egraph.extracted_cost", count("extracted_cost"), "cost");
    m.set("vir.lower_ms", self({"vir.lower", "vir.layout"}), "ms");
    m.set("vir.lvn_ms", self({"vir.lvn"}), "ms");
    m.set("vir.lvn_removed", count("lvn_removed"), "count");
    m.set("vir.cprint_ms", self({"vir.cprint"}), "ms");
    m.set("vir.cprint_bytes", count("cprint_bytes"), "bytes");
    m.set("machine.emit_ms", self({"machine.emit"}), "ms");
    m.set("machine.instrs", count("instrs"), "count");
    m.set("machine.sim_cycles", checks.total_cycles(), "cycles");
    m.set("analysis.audit_ms", self({"analysis.audit"}), "ms");
    m.set("analysis.verify_vir_ms", self({"analysis.verify_vir"}), "ms");
    m.set("analysis.verify_machine_ms", self({"analysis.verify_machine"}),
          "ms");
    m.set("analysis.machine_tv_ms", self({"analysis.machine_tv"}), "ms");
    m.set("analysis.machine_tv_decided", count("machine_tv_decided"),
          "count");
    m.set("validation.term_tv_ms", self({"validation.term_tv"}), "ms");
    m.set("validation.term_tv_decided", count("term_tv_decided"), "count");
    m.set("failed_ratio",
          static_cast<double>(outcome.failed) /
              static_cast<double>(outcome.attempted),
          "ratio");
    m.set("validated_ratio",
          static_cast<double>(validated_compiles) /
              static_cast<double>(outcome.attempted),
          "ratio");
    m.set("trace.overhead_ms", pass_median([](const PassTotals& p) {
              return p.traced_ms - p.untraced_ms;
          }),
          "ms");
    m.set("trace.child_coverage",
          parent_ms > 0.0 ? children_ms / parent_ms : 0.0, "ratio");
    m.set("trace.replay_mismatches", static_cast<double>(mismatches),
          "count");
    m.set("determinism.drift", static_cast<double>(drift), "count");
    return outcome;
}

}  // namespace

RunOutcome
run_compile_workload(const Args& args, bool validate)
{
    const std::vector<int> widths =
        validate ? std::vector<int>{4} : std::vector<int>{4, 8};
    return args.trace ? run_traced(args, validate, widths)
                      : run_untraced(args, validate, widths);
}

}  // namespace perfbench
