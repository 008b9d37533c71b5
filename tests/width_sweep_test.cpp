// Width-parametric integration sweep: the Table-1 corpus compiled at
// every supported preset width {2, 4, 8, 16}, checking per width that
//   (i) extraction is deterministic — two independent compiles produce
//       byte-identical machine code and constant pools;
//  (ii) the simulated compiled kernel agrees with the scalar reference
//       interpreter on concrete inputs;
// (iii) translation validation proves the extracted program and the
//       scheduled machine code equivalent to the spec;
//  (iv) each width gets its own cache key, so a multi-width service can
//       never serve 4-wide code to a 16-wide client.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "machine/program.h"
#include "scalar/interp.h"
#include "service/cache_key.h"

namespace diospyros {
namespace {

CompilerOptions
sweep_options(int width)
{
    CompilerOptions options;
    options.target = TargetSpec::for_width(width);
    // Tight budgets keep 21 kernels x 4 widths x 2 compiles tractable.
    options.limits = RunnerLimits{.node_limit = 60'000,
                                  .iter_limit = 6,
                                  .time_limit_seconds = 8.0};
    options.validate = true;
    return options;
}

class WidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(WidthSweep, CorpusIsDeterministicAndAgreesWithReference)
{
    const int width = GetParam();
    const CompilerOptions options = sweep_options(width);
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        SCOPED_TRACE(inst.label() + " @ width " + std::to_string(width));

        const CompiledKernel a = compile_kernel(inst.kernel, options);
        const CompiledKernel b = compile_kernel(inst.kernel, options);
        EXPECT_EQ(disassemble(a.machine, width),
                  disassemble(b.machine, width))
            << "extraction must be deterministic per width";
        EXPECT_EQ(a.layout.pool(), b.layout.pool());
        EXPECT_EQ(a.report.validation, Verdict::kEquivalent);
        EXPECT_TRUE(a.report.machine_validated);
        EXPECT_EQ(a.report.machine_validation, Verdict::kEquivalent)
            << a.report.machine_witness;

        const scalar::BufferMap inputs =
            kernels::make_inputs(inst.kernel, 11);
        const auto run = a.run(inputs, options.target);
        const scalar::BufferMap want =
            scalar::run_reference(inst.kernel, inputs);
        for (const auto& [name, w] : want) {
            const auto it = run.outputs.find(name);
            ASSERT_NE(it, run.outputs.end()) << name;
            ASSERT_EQ(it->second.size(), w.size()) << name;
            for (std::size_t i = 0; i < w.size(); ++i) {
                const float g = it->second[i];
                const float scale =
                    std::max({1.0f, std::abs(w[i]), std::abs(g)});
                ASSERT_LE(std::abs(g - w[i]), 5e-3f * scale)
                    << name << "[" << i << "]";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, WidthSweep,
                         ::testing::Values(2, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "w" + std::to_string(info.param);
                         });

TEST(WidthSweepExtra, WidthsGetDistinctCacheKeys)
{
    const scalar::Kernel kernel = kernels::make_qprod();
    std::set<std::string> keys;
    for (const int width : {2, 4, 8, 16}) {
        keys.insert(
            service::compute_cache_key(kernel, sweep_options(width))
                .hex());
    }
    EXPECT_EQ(keys.size(), 4u);
}

}  // namespace
}  // namespace diospyros
