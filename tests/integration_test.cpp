// Full-pipeline integration sweeps: every kernel family from the paper's
// evaluation at small/medium sizes, across target widths, checked for
// (a) translation validation, (b) simulator-vs-reference output
// agreement, and (c) Diospyros never losing to the naive parametric
// baseline.

#include <gtest/gtest.h>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "scalar/lower.h"
#include "support/rng.h"

namespace diospyros {
namespace {

CompilerOptions
sweep_options(int width)
{
    CompilerOptions options;
    options.target = TargetSpec::fusion_g3_like();
    options.target.vector_width = width;
    options.limits = RunnerLimits{.node_limit = 300'000,
                                  .iter_limit = 12,
                                  .time_limit_seconds = 20.0};
    options.validate = true;
    options.random_check = true;
    return options;
}

void
check_compiled(const scalar::Kernel& kernel, const CompilerOptions& options,
               const std::string& label)
{
    const CompiledKernel compiled = compile_kernel(kernel, options);

    // Term-level validation must prove the extracted program equivalent,
    // and the randomized differential must agree.
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent) << label;
    EXPECT_TRUE(compiled.report.random_check_passed) << label;

    // Machine-level symbolic validation ran (validate=true) and uses the
    // same fingerprint evaluator as term-level validation, which decides
    // every kernel here (qr4 included): the *scheduled machine code*
    // must also be proved equivalent — not merely fail to disprove it.
    EXPECT_TRUE(compiled.report.machine_validated) << label;
    EXPECT_EQ(compiled.report.machine_validation, Verdict::kEquivalent)
        << label << " " << compiled.report.machine_witness;

    const scalar::BufferMap inputs = kernels::make_inputs(kernel, 7);
    const auto run = compiled.run(inputs, options.target);
    const scalar::BufferMap want = scalar::run_reference(kernel, inputs);
    for (const auto& [name, w] : want) {
        const auto& g = run.outputs.at(name);
        ASSERT_EQ(g.size(), w.size()) << label;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const float scale =
                std::max({1.0f, std::abs(w[i]), std::abs(g[i])});
            ASSERT_LE(std::abs(g[i] - w[i]), 5e-3f * scale)
                << label << " " << name << "[" << i << "]";
        }
    }

    const auto naive = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveParametric,
        options.target);
    EXPECT_LT(run.result.cycles, naive.result.cycles) << label;
}

// --- 2D convolution sweep ----------------------------------------------------

class ConvSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvSweep, CompilesValidatesAndBeatsNaive)
{
    const auto [ir, ic, fr, fc] = GetParam();
    check_compiled(kernels::make_conv2d(ir, ic, fr, fc),
                   sweep_options(4),
                   "conv " + std::to_string(ir) + "x" + std::to_string(ic) +
                       "/" + std::to_string(fr) + "x" + std::to_string(fc));
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, ConvSweep,
    ::testing::Values(std::make_tuple(3, 3, 2, 2),
                      std::make_tuple(3, 3, 3, 3),
                      std::make_tuple(3, 5, 3, 3),
                      std::make_tuple(4, 4, 3, 3),
                      std::make_tuple(8, 8, 3, 3),
                      std::make_tuple(5, 7, 2, 3),   // rectangular
                      std::make_tuple(2, 2, 4, 4),   // filter > input
                      std::make_tuple(1, 6, 1, 3),   // 1-row signals
                      std::make_tuple(6, 1, 3, 1)));

// --- Matrix multiply sweep ------------------------------------------------------

class MatMulSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweep, CompilesValidatesAndBeatsNaive)
{
    const auto [n, m, p] = GetParam();
    check_compiled(kernels::make_matmul(n, m, p), sweep_options(4),
                   "matmul " + std::to_string(n) + "x" + std::to_string(m) +
                       "x" + std::to_string(p));
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, MatMulSweep,
    ::testing::Values(std::make_tuple(2, 2, 2), std::make_tuple(2, 3, 3),
                      std::make_tuple(3, 3, 3), std::make_tuple(4, 4, 4),
                      std::make_tuple(1, 4, 4),   // row-vector times matrix
                      std::make_tuple(4, 4, 1),   // matrix times column
                      std::make_tuple(3, 5, 2),   // rectangular
                      std::make_tuple(8, 8, 8)));

// --- Width portability sweep ----------------------------------------------------

class WidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(WidthSweep, MatMul3x3AcrossVectorWidths)
{
    check_compiled(kernels::make_matmul(3, 3, 3),
                   sweep_options(GetParam()),
                   "matmul3 width " + std::to_string(GetParam()));
}

TEST_P(WidthSweep, ConvAcrossVectorWidths)
{
    check_compiled(kernels::make_conv2d(3, 3, 2, 2),
                   sweep_options(GetParam()),
                   "conv width " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(2, 4, 8));

// --- Remaining paper kernels -----------------------------------------------------

TEST(Integration, QProd)
{
    check_compiled(kernels::make_qprod(), sweep_options(4), "qprod");
}

TEST(Integration, QrDecomp3)
{
    check_compiled(kernels::make_qrdecomp(3), sweep_options(4), "qr3");
}

TEST(Integration, QrDecomp4)
{
    check_compiled(kernels::make_qrdecomp(4), sweep_options(4), "qr4");
}

// --- Full-AC configuration stays sound ---------------------------------------------

TEST(Integration, FullAcProducesEquivalentKernels)
{
    CompilerOptions options = sweep_options(4);
    options.rules.full_ac = true;
    options.limits.node_limit = 400'000;
    check_compiled(kernels::make_matmul(2, 2, 2), options, "matmul2 AC");
    check_compiled(kernels::make_conv2d(3, 3, 2, 2), options, "conv AC");
}

// --- Headline-regression guard -------------------------------------------------

TEST(Integration, HeadlineSpeedupsHold)
{
    // Guards the Figure 5 story against compiler regressions: on these
    // representative kernels Diospyros must beat the fixed-size baseline
    // by a healthy margin (full-figure numbers live in bench/).
    const CompilerOptions options = sweep_options(4);
    const struct {
        scalar::Kernel kernel;
        double min_speedup;
    } cases[] = {
        {kernels::make_matmul(4, 4, 4), 3.0},
        {kernels::make_conv2d(3, 5, 3, 3), 2.0},
        {kernels::make_matmul(2, 2, 2), 2.0},
    };
    for (const auto& c : cases) {
        const CompiledKernel compiled = compile_kernel(c.kernel, options);
        const scalar::BufferMap inputs = kernels::make_inputs(c.kernel, 1);
        const auto dios = compiled.run(inputs, options.target);
        const auto fixed = scalar::run_baseline(
            c.kernel, inputs, scalar::LowerMode::kNaiveFixed,
            options.target);
        EXPECT_GE(static_cast<double>(fixed.result.cycles) /
                      static_cast<double>(dios.result.cycles),
                  c.min_speedup)
            << c.kernel.name;
    }
}

// --- Determinism ---------------------------------------------------------------------

TEST(Integration, CompilationIsDeterministic)
{
    const scalar::Kernel kernel = kernels::make_conv2d(3, 5, 3, 3);
    const CompilerOptions options = sweep_options(4);
    const CompiledKernel a = compile_kernel(kernel, options);
    const CompiledKernel b = compile_kernel(kernel, options);
    EXPECT_TRUE(Term::equal(a.extracted, b.extracted));
    EXPECT_EQ(a.machine.code.size(), b.machine.code.size());
    EXPECT_EQ(a.c_source, b.c_source);
    const scalar::BufferMap inputs = kernels::make_inputs(kernel, 3);
    EXPECT_EQ(a.run(inputs, options.target).result.cycles,
              b.run(inputs, options.target).result.cycles);
}

}  // namespace
}  // namespace diospyros
