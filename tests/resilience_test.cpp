// Fault-tolerance tests: the degradation ladder, the compile-wide
// Deadline, the fault-injection registry, and the strict numeric
// parsers. Every recovery path is exercised by arming a deterministic
// fault at each pipeline site and asserting (a) the expected rung is
// reached, (b) the CompileResult carries the failure diagnostics, and
// (c) the final output still matches the scalar reference interpreter.

#include <gtest/gtest.h>

#include <cmath>

#include "compiler/driver.h"
#include "support/deadline.h"
#include "support/faults.h"
#include "support/numeric.h"
#include "support/rng.h"
#include "validation/validate.h"

namespace diospyros {
namespace {

using scalar::BufferMap;
using scalar::Kernel;
using scalar::KernelBuilder;

Kernel
vector_add_kernel(std::int64_t n)
{
    KernelBuilder kb("vadd" + std::to_string(n));
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0), size,
                             {scalar::st_store(
                                 "C", i,
                                 KernelBuilder::load("A", i) +
                                     KernelBuilder::load("B", i))}));
    return kb.build();
}

BufferMap
random_inputs(const Kernel& kernel, std::uint64_t seed)
{
    Rng rng(seed);
    BufferMap out;
    for (const auto& decl :
         kernel.arrays_with_role(scalar::ArrayRole::kInput)) {
        std::vector<float> data(static_cast<std::size_t>(
            scalar::array_length(kernel, decl)));
        for (float& v : data) {
            v = rng.uniform_float(-2.0f, 2.0f);
        }
        out.emplace(decl.name.str(), std::move(data));
    }
    return out;
}

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.limits = RunnerLimits{.node_limit = 200'000,
                                  .iter_limit = 10,
                                  .time_limit_seconds = 20.0};
    options.validate = true;
    options.random_check = true;
    return options;
}

/** Compiled output must still match the reference interpreter. */
void
expect_correct(const CompileResult& result, const Kernel& kernel,
               std::uint64_t seed)
{
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.compiled.has_value());
    const BufferMap inputs = random_inputs(kernel, seed);
    const auto run =
        result.compiled->run(inputs, TargetSpec::fusion_g3_like());
    const OutputComparison cmp =
        compare_outputs(run.outputs, scalar::run_reference(kernel, inputs));
    EXPECT_TRUE(cmp.shapes_ok()) << cmp.shape_error;
    EXPECT_LE(cmp.max_abs_error, 1e-3f);
}

/** Clears the global fault registry around every test. */
class Resilience : public ::testing::Test {
  protected:
    void SetUp() override { faults::disarm_all(); }
    void TearDown() override { faults::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsUnlimited)
{
    const Deadline d;
    EXPECT_TRUE(d.is_unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_TRUE(std::isinf(d.remaining_seconds()));
    EXPECT_NO_THROW(d.check("anything"));
}

TEST(DeadlineTest, ZeroBudgetIsExpired)
{
    const Deadline d = Deadline::after_seconds(0.0);
    EXPECT_FALSE(d.is_unlimited());
    EXPECT_TRUE(d.expired());
    EXPECT_THROW(d.check("saturation"), DeadlineExceeded);
    // DeadlineExceeded is a ResourceLimitError (failure taxonomy).
    EXPECT_THROW(d.check("saturation"), ResourceLimitError);
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired)
{
    const Deadline d = Deadline::after_seconds(3600.0);
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remaining_seconds(), 3000.0);
    EXPECT_NO_THROW(d.check("any phase"));
}

TEST(DeadlineTest, CheckNamesThePhase)
{
    try {
        Deadline::after_seconds(0.0).check("extraction");
        FAIL() << "expected DeadlineExceeded";
    } catch (const DeadlineExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("extraction"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Numeric parsing (the dioscc CLI helpers)
// ---------------------------------------------------------------------------

TEST(NumericTest, ParseIntegerStrict)
{
    EXPECT_EQ(parse_integer("42"), 42);
    EXPECT_EQ(parse_integer("-7"), -7);
    EXPECT_FALSE(parse_integer("").has_value());
    EXPECT_FALSE(parse_integer("abc").has_value());
    EXPECT_FALSE(parse_integer("12x").has_value());
    EXPECT_FALSE(parse_integer("0.5").has_value());
    EXPECT_FALSE(parse_integer("99999999999999999999999").has_value());
}

TEST(NumericTest, ParseNumberStrict)
{
    EXPECT_DOUBLE_EQ(*parse_number("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(*parse_number("3"), 3.0);
    EXPECT_DOUBLE_EQ(*parse_number("1e3"), 1000.0);
    EXPECT_FALSE(parse_number("abc").has_value());
    EXPECT_FALSE(parse_number("1.5s").has_value());
    EXPECT_FALSE(parse_number("").has_value());
}

TEST(NumericTest, RequirePositiveRejectsBadInput)
{
    EXPECT_EQ(require_positive_integer("--iters", "12"), 12);
    EXPECT_THROW(require_positive_integer("--iters", "abc"), UserError);
    EXPECT_THROW(require_positive_integer("--iters", "0"), UserError);
    EXPECT_THROW(require_positive_integer("--iters", "-3"), UserError);
    EXPECT_DOUBLE_EQ(require_positive_number("--timeout", "0.5"), 0.5);
    EXPECT_THROW(require_positive_number("--timeout", "0"), UserError);
    EXPECT_THROW(require_positive_number("--timeout", "x"), UserError);
    EXPECT_EQ(require_nonnegative_integer("--seed", "0"), 0);
    EXPECT_THROW(require_nonnegative_integer("--seed", "-1"), UserError);
}

// ---------------------------------------------------------------------------
// Fault registry
// ---------------------------------------------------------------------------

TEST_F(Resilience, FaultSpecParsing)
{
    const faults::FaultSpec plain = faults::parse_spec("runner.iter");
    EXPECT_EQ(plain.site, "runner.iter");
    EXPECT_EQ(plain.nth, 1);
    EXPECT_EQ(plain.count, 1);

    const faults::FaultSpec nth = faults::parse_spec("x:3");
    EXPECT_EQ(nth.nth, 3);
    EXPECT_EQ(nth.count, 1);

    const faults::FaultSpec windowed = faults::parse_spec("x:2:5");
    EXPECT_EQ(windowed.nth, 2);
    EXPECT_EQ(windowed.count, 5);

    const faults::FaultSpec forever = faults::parse_spec("x:1:*");
    EXPECT_EQ(forever.count, -1);

    EXPECT_THROW(faults::parse_spec(""), UserError);
    EXPECT_THROW(faults::parse_spec(":1"), UserError);
    EXPECT_THROW(faults::parse_spec("x:abc"), UserError);
    EXPECT_THROW(faults::parse_spec("x:0"), UserError);
    EXPECT_THROW(faults::parse_spec("x:1:0"), UserError);
}

TEST_F(Resilience, FaultFiresOnNthHitOnly)
{
    faults::arm("test.site", 2, 1);
    EXPECT_TRUE(faults::any_armed());
    EXPECT_NO_THROW(DIOS_FAULT_POINT("test.site"));       // hit 1
    EXPECT_THROW(DIOS_FAULT_POINT("test.site"),           // hit 2
                 faults::InjectedFault);
    EXPECT_NO_THROW(DIOS_FAULT_POINT("test.site"));       // hit 3
    EXPECT_EQ(faults::hit_count("test.site"), 3u);
    EXPECT_NO_THROW(DIOS_FAULT_POINT("other.site"));
}

TEST_F(Resilience, FaultWindowAndForever)
{
    faults::arm("win.site", 1, 2);
    EXPECT_THROW(DIOS_FAULT_POINT("win.site"), faults::InjectedFault);
    EXPECT_THROW(DIOS_FAULT_POINT("win.site"), faults::InjectedFault);
    EXPECT_NO_THROW(DIOS_FAULT_POINT("win.site"));

    faults::arm("always.site", 1, -1);
    for (int i = 0; i < 5; ++i) {
        EXPECT_THROW(DIOS_FAULT_POINT("always.site"),
                     faults::InjectedFault);
    }
}

TEST_F(Resilience, DisarmedRegistryIsInert)
{
    EXPECT_FALSE(faults::any_armed());
    EXPECT_FALSE(faults::enabled());
    // Hit counters are not even tracked while disabled.
    DIOS_FAULT_POINT("untracked.site");
    EXPECT_EQ(faults::hit_count("untracked.site"), 0u);
}

TEST_F(Resilience, InjectedFaultCarriesSiteAndHit)
{
    faults::arm("info.site", 1, 1);
    try {
        DIOS_FAULT_POINT("info.site");
        FAIL() << "expected InjectedFault";
    } catch (const faults::InjectedFault& e) {
        EXPECT_EQ(e.site(), "info.site");
        EXPECT_EQ(e.hit(), 1u);
        EXPECT_NE(std::string(e.what()).find("info.site"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

TEST_F(Resilience, NoFaultsMeansNoFallback)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result =
        compile_kernel_resilient(kernel, test_options());
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.fallback_level, 0);
    EXPECT_TRUE(result.error.empty());
    ASSERT_EQ(result.attempts.size(), 1u);
    EXPECT_TRUE(result.attempts[0].error.empty());
    EXPECT_EQ(result.report().fallback_level, 0);
    EXPECT_TRUE(result.report().error.empty());
    EXPECT_EQ(result.report().validation, Verdict::kEquivalent);
    expect_correct(result, kernel, 1);
}

/** Each pipeline fault site, armed once, must cost exactly one rung. */
class FaultSiteLadder : public Resilience,
                        public ::testing::WithParamInterface<const char*> {
};

TEST_P(FaultSiteLadder, SingleFaultFallsBackOneRung)
{
    const std::string site = GetParam();
    faults::arm(site, 1, 1);

    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result =
        compile_kernel_resilient(kernel, test_options());

    ASSERT_TRUE(result.ok) << site << ": " << result.error;
    EXPECT_EQ(result.fallback_level, 1) << site;
    ASSERT_EQ(result.attempts.size(), 2u) << site;
    EXPECT_EQ(result.attempts[0].level, 0);
    EXPECT_NE(result.attempts[0].error.find(site), std::string::npos)
        << "diagnostic should name the injected site, got: "
        << result.attempts[0].error;
    EXPECT_TRUE(result.attempts[1].error.empty());
    // The report mirrors the diagnostics for --json consumers.
    EXPECT_EQ(result.report().fallback_level, 1);
    EXPECT_EQ(result.report().attempts.size(), 2u);
    EXPECT_EQ(result.report().error, result.attempts[0].error);
    expect_correct(result, kernel, 7);
}

INSTANTIATE_TEST_SUITE_P(PipelineSites, FaultSiteLadder,
                         ::testing::Values("runner.iter", "extract.build",
                                           "lower.term", "emit.machine",
                                           "validate.exact"));

TEST_F(Resilience, RepeatedRunnerFaultReachesScalarRung)
{
    // Fires on the runner's first two entries: rung 0 and rung 1 both
    // die in saturation; rung 2 (scalar rules, still saturating) gets
    // hit 3 and survives.
    faults::arm("runner.iter", 1, 2);
    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result =
        compile_kernel_resilient(kernel, test_options());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fallback_level, 2);
    ASSERT_EQ(result.attempts.size(), 3u);
    EXPECT_FALSE(result.attempts[0].error.empty());
    EXPECT_FALSE(result.attempts[1].error.empty());
    expect_correct(result, kernel, 11);
}

TEST_F(Resilience, PersistentRunnerFaultReachesDirectScalarRung)
{
    // Every saturation attempt dies; only the e-graph-free direct rung
    // can succeed.
    faults::arm("runner.iter", 1, -1);
    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result =
        compile_kernel_resilient(kernel, test_options());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fallback_level, 3);
    ASSERT_EQ(result.attempts.size(), 4u);
    expect_correct(result, kernel, 13);
}

TEST_F(Resilience, PersistentBackendFaultFailsWithoutThrowing)
{
    // A fault that also kills the final rung: the resilient driver must
    // report failure — with full diagnostics — rather than throw.
    faults::arm("lower.term", 1, -1);
    const Kernel kernel = vector_add_kernel(8);
    CompileResult result;
    ASSERT_NO_THROW(
        result = compile_kernel_resilient(kernel, test_options()));
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.compiled.has_value());
    EXPECT_NE(result.error.find("lower.term"), std::string::npos);
    ASSERT_EQ(result.attempts.size(), 4u);
    for (const AttemptDiagnostic& a : result.attempts) {
        EXPECT_FALSE(a.error.empty());
    }
}

TEST_F(Resilience, FaultSpecsInOptionsArmTheRegistry)
{
    CompilerOptions options = test_options();
    options.fault_specs = {"extract.build"};
    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fallback_level, 1);
    expect_correct(result, kernel, 17);
}

TEST_F(Resilience, MalformedFaultSpecFailsGracefully)
{
    CompilerOptions options = test_options();
    options.fault_specs = {"runner.iter:notanumber"};
    CompileResult result;
    ASSERT_NO_THROW(result = compile_kernel_resilient(
                        vector_add_kernel(4), options));
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
}

TEST_F(Resilience, UserErrorDoesNotWalkTheLadder)
{
    // An invalid kernel fails identically at every rung — the driver
    // must report it once instead of burning budget on retries. This
    // kernel reads an array it never declared, which lifting rejects.
    KernelBuilder kb("bad");
    const scalar::IntRef size = kb.param("n", 4);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", i, KernelBuilder::load("Z", i))}));

    const CompileResult result =
        compile_kernel_resilient(kb.build(), test_options());
    EXPECT_FALSE(result.ok);
    ASSERT_EQ(result.attempts.size(), 1u);
    EXPECT_NE(result.error.find("user error"), std::string::npos);
    EXPECT_NE(result.error.find("undeclared array"), std::string::npos);
}

TEST_F(Resilience, ExpiredDeadlineDegradesToDirectScalar)
{
    // A hopeless global deadline: rungs 0-2 die at their first
    // checkpoint; the deadline-exempt direct rung still delivers a
    // correct kernel.
    CompilerOptions options = test_options();
    options.deadline_seconds = 1e-9;
    const Kernel kernel = vector_add_kernel(8);
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fallback_level, 3);
    EXPECT_NE(result.report().error.find("deadline"), std::string::npos);
    expect_correct(result, kernel, 19);
}

TEST_F(Resilience, DeadlineExpiringMidSearchIsNotSaturation)
{
    // Regression: when the compile-wide deadline expires during the
    // runner's search phase, the iteration may change nothing — because
    // later rules were never searched, not because the graph saturated.
    // The runner used to declare kSaturated before consulting the budget.
    EGraph graph(false);
    graph.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    graph.rebuild();
    std::vector<Rewrite> rules;
    rules.push_back(
        Rewrite::make("never-fires", "(sqrt (sqrt ?x))", "(sqrt (sqrt ?x))"));
    rules.push_back(
        Rewrite::make("would-fire", "(+ ?a ?b)", "(+ ?b ?a)"));
    const Runner runner(RunnerLimits{.node_limit = 100'000,
                                     .iter_limit = 100,
                                     .time_limit_seconds = 60.0});
    const RunnerReport report =
        runner.run(graph, rules, Deadline::after_seconds(0.0));
    EXPECT_EQ(report.stop_reason, StopReason::kDeadline);
    // The graph is still clean and usable for partial extraction.
    EXPECT_TRUE(graph.is_clean());
}

TEST_F(Resilience, StrictCompileThrowsOnDeadline)
{
    CompilerOptions options = test_options();
    options.deadline_seconds = 1e-9;
    EXPECT_THROW(compile_kernel(vector_add_kernel(8), options),
                 ResourceLimitError);
}

TEST_F(Resilience, ValidatorsCheckTheDeadlinePerElement)
{
    const TermRef spec = Term::parse("(List (Get a 0) (Get a 1))");
    EXPECT_EQ(validate_translation(spec, spec, Deadline::after_seconds(3600)),
              Verdict::kEquivalent);
    try {
        validate_translation(spec, spec, Deadline::after_seconds(0.0));
        FAIL() << "expected DeadlineExceeded";
    } catch (const DeadlineExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("during validation"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(Resilience, DeadlineExpiringDuringValidationDegrades)
{
    // Validation (machine level after emission, then term level) is the
    // last deadline-checked work of a compile, and both validators check
    // the deadline per output element. Bisect the budget until it runs
    // out inside validation: rung 0 must then fail with DeadlineExceeded
    // naming validation, within one element's work of the budget rather
    // than after validating everything, and the ladder must still
    // deliver a correct kernel.
    //
    // Two things keep the window wide whatever the host load. The random
    // differential check is off: it runs after validation and costs more
    // than it, so without it validation is the last ~40% of the compile
    // rather than a fifth in the middle. And the bisection is over the
    // budget as a fraction of a full compile timed just before each
    // probe, so a host that slows down or speeds up during the search
    // moves the window in seconds but not in fraction.
    const Kernel kernel = vector_add_kernel(256);
    CompilerOptions options = test_options();
    options.random_check = false;
    double lo = 0.0;
    double hi = 2.0;
    bool found = false;
    for (int step = 0; step < 40 && !found; ++step) {
        options.deadline_seconds = 0.0;
        const CompileResult calibration =
            compile_kernel_resilient(kernel, options);
        ASSERT_TRUE(calibration.ok) << calibration.error;
        const double fraction = 0.5 * (lo + hi);
        const double budget =
            fraction * calibration.report().total_seconds;
        options.deadline_seconds = budget;
        const CompileResult result =
            compile_kernel_resilient(kernel, options);
        ASSERT_TRUE(result.ok) << result.error;
        ASSERT_FALSE(result.attempts.empty());
        const AttemptDiagnostic& first = result.attempts.front();
        if (first.error.empty()) {
            hi = fraction;  // expired after validation, or never
            continue;
        }
        if (first.error.find("validation") == std::string::npos) {
            lo = fraction;  // expired before validation started
            continue;
        }
        found = true;
        EXPECT_EQ(first.failure_class, FailureClass::kResource);
        EXPECT_NE(first.error.find("compile deadline exceeded during"),
                  std::string::npos)
            << first.error;
        EXPECT_LT(first.seconds, budget + 0.25) << "validation overran";
        EXPECT_GE(result.fallback_level, 1);
        expect_correct(result, kernel, 29);
    }
    EXPECT_TRUE(found) << "no budget expired inside validation";
}

TEST_F(Resilience, DirectScalarRungMatchesReferenceOnUnalignedKernel)
{
    // The always-succeeds rung on a kernel whose output needs padding.
    faults::arm("runner.iter", 1, -1);
    const Kernel kernel = vector_add_kernel(5);
    const CompileResult result =
        compile_kernel_resilient(kernel, test_options());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.fallback_level, 3);
    const BufferMap inputs = random_inputs(kernel, 23);
    const auto run =
        result.compiled->run(inputs, TargetSpec::fusion_g3_like());
    EXPECT_EQ(run.outputs.at("C").size(), 5u);
    const OutputComparison cmp = compare_outputs(
        run.outputs, scalar::run_reference(kernel, inputs));
    EXPECT_TRUE(cmp.shapes_ok()) << cmp.shape_error;
    EXPECT_LE(cmp.max_abs_error, 1e-3f);
}

// ---------------------------------------------------------------------------
// Output comparison helper
// ---------------------------------------------------------------------------

TEST(OutputComparisonTest, DetectsMissingAndMisSizedBuffers)
{
    const BufferMap want = {{"C", {1.0f, 2.0f, 3.0f}}};
    const OutputComparison missing = compare_outputs({}, want);
    EXPECT_FALSE(missing.shapes_ok());
    EXPECT_NE(missing.shape_error.find("missing output 'C'"),
              std::string::npos);

    const BufferMap short_buf = {{"C", {1.0f, 2.0f}}};
    const OutputComparison mis_sized = compare_outputs(short_buf, want);
    EXPECT_FALSE(mis_sized.shapes_ok());
    EXPECT_NE(mis_sized.shape_error.find("expected 3"), std::string::npos);

    const BufferMap exact = {{"C", {1.0f, 2.5f, 3.0f}}};
    const OutputComparison ok = compare_outputs(exact, want);
    EXPECT_TRUE(ok.shapes_ok());
    EXPECT_FLOAT_EQ(ok.max_abs_error, 0.5f);
}

}  // namespace
}  // namespace diospyros
