// Shape golden: pins, for every Table-1 kernel at widths 4 and 8, the
// size and outcome of saturation and the extraction it leads to — e-graph
// nodes and classes, stop reason, runner iterations, extracted cost and
// machine instruction count. Any change to the e-graph core, the rules,
// the cost model or the runner that alters the explored graph or the
// extracted program shows up here as a row diff.
//
// The budget is the benchmark budget (12 iterations / 300k nodes) with a
// time limit far beyond any real run, so the figures do not depend on the
// machine. On a mismatch the test prints the whole observed table in the
// source format below; a deliberate shape change replaces kGolden with it.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "compiler/driver.h"
#include "kernels/kernels.h"

namespace diospyros {
namespace {

struct Shape {
    std::size_t nodes;
    std::size_t classes;
    const char* stop;
    std::size_t iterations;
    double cost;
    std::size_t instrs;

    bool
    operator==(const Shape& o) const
    {
        return nodes == o.nodes && classes == o.classes &&
               std::string(stop) == o.stop && iterations == o.iterations &&
               cost == o.cost && instrs == o.instrs;
    }
};

struct Row {
    const char* label;
    int width;
    Shape shape;
};

// clang-format off
const Row kGolden[] = {
    {"2DConv 3x3, 2x2", 4, {195, 128, "saturated", 7, 135.14999999999998, 40}},
    {"2DConv 3x3, 3x3", 4, {794, 499, "saturated", 12, 342.5, 130}},
    {"2DConv 3x5, 3x3", 4, {940, 624, "saturated", 12, 503, 168}},
    {"2DConv 4x4, 3x3", 4, {1037, 667, "saturated", 12, 545.20000000000005, 181}},
    {"2DConv 8x8, 3x3", 4, {2922, 1932, "saturated", 12, 1994.8, 429}},
    {"2DConv 10x10, 2x2", 4, {1759, 1242, "saturated", 7, 1351.3, 303}},
    {"2DConv 10x10, 3x3", 4, {4675, 2974, "saturated", 12, 3154.75, 624}},
    {"2DConv 10x10, 4x4", 4, {7228, 5124, "iter-limit", 12, 6951.199999999998, 1752}},
    {"2DConv 16x16, 2x2", 4, {4148, 2961, "saturated", 7, 3384.6000000000004, 632}},
    {"2DConv 16x16, 3x3", 4, {9778, 6708, "saturated", 12, 7636.0000000000009, 1245}},
    {"2DConv 16x16, 4x4", 4, {15818, 11604, "iter-limit", 12, 18340.400000000009, 4074}},
    {"MatMul 2x2, 2x2", 4, {38, 30, "saturated", 5, 26, 10}},
    {"MatMul 2x3, 3x3", 4, {99, 74, "saturated", 6, 67.449999999999989, 29}},
    {"MatMul 3x3, 3x3", 4, {140, 104, "saturated", 6, 101.30000000000001, 39}},
    {"MatMul 4x4, 4x4", 4, {259, 198, "saturated", 7, 192.75, 45}},
    {"MatMul 8x8, 8x8", 4, {1923, 1426, "saturated", 11, 1539.75, 241}},
    {"MatMul 10x10, 10x10", 4, {3778, 2802, "iter-limit", 12, 3156, 506}},
    {"MatMul 16x16, 16x16", 4, {12895, 10206, "iter-limit", 12, 18959.75, 3821}},
    {"QProd 4, 3, 4, 3", 4, {1032, 432, "saturated", 11, 185.94999999999999, 65}},
    {"QRDecomp 3x3", 4, {3077, 1186, "iter-limit", 12, 373566.45000000007, 443}},
    {"QRDecomp 4x4", 4, {5921, 2290, "iter-limit", 12, 20025238.349999994, 666}},
    {"2DConv 3x3, 2x2", 8, {218, 151, "saturated", 7, 117.84999999999998, 33}},
    {"2DConv 3x3, 3x3", 8, {694, 446, "saturated", 12, 291.75, 89}},
    {"2DConv 3x5, 3x3", 8, {851, 579, "saturated", 12, 422.19999999999987, 106}},
    {"2DConv 4x4, 3x3", 8, {910, 619, "saturated", 12, 464.7999999999999, 121}},
    {"2DConv 8x8, 3x3", 8, {2682, 1917, "saturated", 12, 1655.1999999999998, 344}},
    {"2DConv 10x10, 2x2", 8, {1477, 1154, "saturated", 7, 1096.9499999999998, 225}},
    {"2DConv 10x10, 3x3", 8, {3792, 2703, "saturated", 12, 2530.0499999999993, 464}},
    {"2DConv 10x10, 4x4", 8, {6451, 4944, "iter-limit", 12, 5934.5499999999984, 1507}},
    {"2DConv 16x16, 2x2", 8, {3278, 2615, "saturated", 7, 2742.4000000000005, 412}},
    {"2DConv 16x16, 3x3", 8, {8227, 6224, "saturated", 12, 6289.0000000000018, 913}},
    {"2DConv 16x16, 4x4", 8, {13412, 10782, "iter-limit", 12, 15805.950000000001, 3612}},
    {"MatMul 2x2, 2x2", 8, {41, 32, "saturated", 5, 27.599999999999994, 12}},
    {"MatMul 2x3, 3x3", 8, {76, 62, "saturated", 6, 52.200000000000003, 17}},
    {"MatMul 3x3, 3x3", 8, {117, 92, "saturated", 6, 88.450000000000003, 27}},
    {"MatMul 4x4, 4x4", 8, {205, 174, "saturated", 7, 168.25, 27}},
    {"MatMul 8x8, 8x8", 8, {1539, 1290, "saturated", 11, 1281.75, 153}},
    {"MatMul 10x10, 10x10", 8, {3079, 2562, "iter-limit", 12, 2648, 360}},
    {"MatMul 16x16, 16x16", 8, {10761, 9416, "iter-limit", 12, 17031.75, 3367}},
    {"QProd 4, 3, 4, 3", 8, {1036, 434, "saturated", 11, 199.94999999999996, 65}},
    {"QRDecomp 3x3", 8, {2473, 991, "iter-limit", 12, 357869.65000000002, 439}},
    {"QRDecomp 4x4", 8, {7691, 3124, "iter-limit", 12, 19739397.349999994, 1186}},
};
// clang-format on

std::string
render(const std::string& label, int width, const Shape& s)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", %d, {%zu, %zu, \"%s\", %zu, %.17g, %zu}},",
                  label.c_str(), width, s.nodes, s.classes, s.stop,
                  s.iterations, s.cost, s.instrs);
    return buf;
}

TEST(ShapeGolden, Table1AtWidths4And8)
{
    std::map<std::pair<std::string, int>, Shape> golden;
    for (const Row& row : kGolden) {
        golden.emplace(std::make_pair(std::string(row.label), row.width),
                       row.shape);
    }
    std::string observed;
    bool all_match = true;
    for (const int width : {4, 8}) {
        CompilerOptions options;
        options.target = TargetSpec::for_width(width);
        options.limits = RunnerLimits{.node_limit = 300'000,
                                      .iter_limit = 12,
                                      .time_limit_seconds = 1e9};
        options.sync();
        for (const kernels::BenchmarkInstance& inst :
             kernels::table1_instances()) {
            const CompiledKernel ck = compile_kernel(inst.kernel, options);
            const Shape got{ck.report.egraph_nodes,
                            ck.report.egraph_classes,
                            stop_reason_name(ck.report.stop_reason),
                            ck.report.runner_iterations,
                            ck.report.extracted_cost,
                            ck.machine.size()};
            const std::string line = render(inst.label(), width, got);
            observed += line + "\n";
            const auto it = golden.find({inst.label(), width});
            if (it == golden.end()) {
                ADD_FAILURE() << "no golden row for " << inst.label()
                              << " @ width " << width;
                all_match = false;
            } else if (!(it->second == got)) {
                ADD_FAILURE() << "shape changed:\n  golden:  "
                              << render(inst.label(), width, it->second)
                              << "\n  observed:" << line;
                all_match = false;
            }
        }
    }
    EXPECT_EQ(golden.size(), 42u);
    if (!all_match) {
        std::printf("observed table:\n%s", observed.c_str());
    }
}

}  // namespace
}  // namespace diospyros
