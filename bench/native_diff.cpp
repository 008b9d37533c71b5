/**
 * Differential execution harness for the native multi-ISA backend.
 *
 * For every Table-1 kernel at every requested vector width it:
 *   1. compiles the kernel for that width's target preset;
 *   2. lowers the scheduled machine program to C (machine/emit_c.h) and
 *      compiles it with the *host* toolchain (-O2 -ffp-contract=off,
 *      shared object);
 *   3. dlopens the object and runs both the CPU-dispatched entry point
 *      and the forced-scalar entry point natively;
 *   4. checks agreement: native vs the cycle simulator must match
 *      within a small ULP budget (the emitter's bit-exactness
 *      contract), and native vs the scalar reference interpreter must
 *      match within the relative tolerance the integration sweeps use;
 *   5. times native-dispatched vs native-scalar execution and writes
 *      everything to BENCH_native.json.
 *
 * Widths wider than the host's SIMD registers still run — the emitted
 * leaves chunk wide kernels over narrower registers with scalar tails —
 * so "unsupported" widths degrade, never fail. The selected leaf is
 * recorded per case so the gate can see what actually executed.
 *
 * Exit status: 0 when every case agrees (compile failures of the
 * *vectorizer* under tight limits are reported and tolerated; native
 * disagreement or host-toolchain failure is fatal), 1 otherwise.
 */
#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "machine/emit_c.h"
#include "scalar/interp.h"
#include "support/json.h"

namespace diospyros {
namespace {

constexpr std::uint32_t kUlpBudget = 4;

struct Cli {
    std::string out = "BENCH_native.json";
    std::string cc;
    std::string filter;
    std::vector<int> widths = {2, 4, 8, 16};
    std::uint64_t seed = 7;
    bool check_only = false;
    bool keep_temp = false;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--out FILE] [--cc PATH] [--filter SUBSTR] "
                 "[--widths CSV] [--seed N] [--check-only] "
                 "[--keep-temp]\n",
                 argv0);
    std::exit(2);
}

Cli
parse_cli(int argc, char** argv)
{
    Cli cli;
    if (const char* env_cc = std::getenv("CC")) {
        cli.cc = env_cc;
    }
    if (cli.cc.empty()) {
        cli.cc = "cc";
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (arg == "--out") {
            cli.out = value();
        } else if (arg == "--cc") {
            cli.cc = value();
        } else if (arg == "--filter") {
            cli.filter = value();
        } else if (arg == "--seed") {
            cli.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--widths") {
            cli.widths.clear();
            const std::string csv = value();
            std::size_t at = 0;
            while (at < csv.size()) {
                const std::size_t comma = csv.find(',', at);
                const std::string tok =
                    csv.substr(at, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - at);
                cli.widths.push_back(
                    static_cast<int>(std::strtol(tok.c_str(), nullptr,
                                                 10)));
                if (comma == std::string::npos) {
                    break;
                }
                at = comma + 1;
            }
        } else if (arg == "--check-only") {
            cli.check_only = true;
        } else if (arg == "--keep-temp") {
            cli.keep_temp = true;
        } else {
            usage(argv[0]);
        }
    }
    return cli;
}

/** ULP distance with ±0 identified; NaN pairs count as equal (the
 *  simulator and native code must produce NaN in the same places). */
std::uint32_t
ulp_distance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b)) {
        return (std::isnan(a) && std::isnan(b)) ? 0u : ~0u;
    }
    auto key = [](float x) -> std::int64_t {
        std::int32_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        // Map to a monotonic integer line (negative floats reversed).
        return bits >= 0 ? bits
                         : static_cast<std::int64_t>(
                               std::numeric_limits<std::int32_t>::min()) -
                               bits;
    };
    const std::int64_t d = key(a) - key(b);
    const std::int64_t mag = d < 0 ? -d : d;
    return mag > ~0u ? ~0u : static_cast<std::uint32_t>(mag);
}

using KernelFn = void (*)(float*);
using WidthFn = int (*)();
using IsaFn = const char* (*)();

struct NativeKernel {
    void* handle = nullptr;
    KernelFn run = nullptr;
    KernelFn run_scalar = nullptr;
    WidthFn native_width = nullptr;
    IsaFn native_isa = nullptr;
    std::size_t mem_words = 0;
};

/** Writes, host-compiles, and dlopens one emitted kernel. Returns an
 *  empty optional (with `error` set) on any toolchain failure. */
std::optional<NativeKernel>
load_native(const std::string& c_source, const std::string& symbol,
            const std::string& dir, const std::string& cc,
            std::string& error)
{
    const std::string c_path = dir + "/" + symbol + ".c";
    const std::string so_path = dir + "/" + symbol + ".so";
    const std::string log_path = dir + "/" + symbol + ".log";
    {
        std::ofstream out(c_path);
        out << c_source;
        if (!out) {
            error = "cannot write " + c_path;
            return std::nullopt;
        }
    }
    const std::string cmd = cc +
                            " -O2 -fPIC -shared -ffp-contract=off -o " +
                            so_path + " " + c_path + " -lm 2> " +
                            log_path;
    if (std::system(cmd.c_str()) != 0) {
        std::ifstream log(log_path);
        std::string line, text;
        while (std::getline(log, line)) {
            text += line + "\n";
        }
        error = "host compile failed: " + cmd + "\n" + text;
        return std::nullopt;
    }

    NativeKernel nk;
    nk.handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (nk.handle == nullptr) {
        error = std::string("dlopen failed: ") + dlerror();
        return std::nullopt;
    }
    auto sym = [&](const std::string& name) {
        return dlsym(nk.handle, name.c_str());
    };
    nk.run = reinterpret_cast<KernelFn>(sym(symbol));
    nk.run_scalar = reinterpret_cast<KernelFn>(sym(symbol + "_scalar"));
    nk.native_width =
        reinterpret_cast<WidthFn>(sym(symbol + "_native_width"));
    nk.native_isa = reinterpret_cast<IsaFn>(sym(symbol + "_native_isa"));
    const void* words = sym(symbol + "_mem_words");
    if (nk.run == nullptr || nk.run_scalar == nullptr ||
        nk.native_width == nullptr || nk.native_isa == nullptr ||
        words == nullptr) {
        error = "missing symbols in " + so_path;
        dlclose(nk.handle);
        return std::nullopt;
    }
    nk.mem_words = *static_cast<const std::size_t*>(words);
    return nk;
}

/** Copies the flat simulator memory image into a raw vector. */
std::vector<float>
image_of(const Memory& mem)
{
    std::vector<float> image(mem.size());
    for (std::size_t i = 0; i < image.size(); ++i) {
        image[i] = mem.at(i);
    }
    return image;
}

/** Reads output buffers back out of a raw image via the layout. */
scalar::BufferMap
outputs_of(const vir::CompiledLayout& layout,
           const scalar::BufferMap& inputs,
           const std::vector<float>& image)
{
    Memory mem = layout.make_memory(inputs);
    for (std::size_t i = 0; i < image.size(); ++i) {
        mem.at(i) = image[i];
    }
    return layout.read_outputs(mem);
}

/** Max ULP distance between two output maps; ~0u on shape mismatch. */
std::uint32_t
max_ulp(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    std::uint32_t worst = 0;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.size() != w.size()) {
            return ~0u;
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            worst = std::max(worst, ulp_distance(it->second[i], w[i]));
        }
    }
    return worst;
}

/** Max relative error, integration-sweep style (scale >= 1). */
float
max_rel_error(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    float worst = 0.0f;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.size() != w.size()) {
            return std::numeric_limits<float>::infinity();
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            const float g = it->second[i];
            const float scale =
                std::max({1.0f, std::abs(w[i]), std::abs(g)});
            worst = std::max(worst, std::abs(g - w[i]) / scale);
        }
    }
    return worst;
}

/** Nanoseconds per call, with rep count auto-scaled to ~30 ms. */
double
time_ns(KernelFn fn, float* buf)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t reps = 8;
    for (;;) {
        const auto start = clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) {
            fn(buf);
        }
        const double ns =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    clock::now() - start)
                    .count());
        if (ns >= 30e6 || reps >= (1u << 22)) {
            return ns / static_cast<double>(reps);
        }
        reps *= 4;
    }
}

struct CaseResult {
    std::string kernel;
    int width = 0;
    std::string status = "ok";  // ok | vectorize-error | native-error
    std::string detail;
    std::string isa;
    int host_simd_width = 0;
    std::uint32_t ulp_vs_sim = 0;
    float rel_err_vs_ref = 0.0f;
    double native_ns = 0.0;
    double native_scalar_ns = 0.0;
    double speedup = 0.0;
    std::uint64_t sim_cycles = 0;
};

CompilerOptions
diff_options(int width)
{
    CompilerOptions options;
    options.target = TargetSpec::for_width(width);
    // Same budgets the width-sweep integration test proved sufficient
    // for the whole corpus: the gate compares native against the
    // simulator running the *same* program, so extraction quality does
    // not affect the differential — only wall-clock does.
    options.limits = RunnerLimits{.node_limit = 60'000,
                                  .iter_limit = 6,
                                  .time_limit_seconds = 8.0};
    options.deadline_seconds = 30.0;
    return options;
}

}  // namespace

int
run(int argc, char** argv)
{
    const Cli cli = parse_cli(argc, argv);

    char tmpl[] = "/tmp/dios_native_XXXXXX";
    const char* dir_c = mkdtemp(tmpl);
    if (dir_c == nullptr) {
        std::fprintf(stderr, "native_diff: mkdtemp failed\n");
        return 1;
    }
    const std::string dir = dir_c;

    std::vector<CaseResult> results;
    int hard_failures = 0;
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        if (!cli.filter.empty() &&
            inst.label().find(cli.filter) == std::string::npos) {
            continue;
        }
        for (const int width : cli.widths) {
            CaseResult cr;
            cr.kernel = inst.label();
            cr.width = width;
            std::fprintf(stderr, "; %s @ width %d\n", cr.kernel.c_str(),
                         width);

            const CompilerOptions options = diff_options(width);
            CompileResult compiled =
                compile_kernel_resilient(inst.kernel, options);
            if (!compiled.ok) {
                // The vectorizer itself failing under tight limits is a
                // result, not a harness error.
                cr.status = "vectorize-error";
                cr.detail = compiled.error;
                results.push_back(cr);
                continue;
            }
            const CompiledKernel& ck = *compiled.compiled;

            EmitCOptions copts;
            copts.symbol = native_symbol_for(ck.kernel.name) + "_w" +
                           std::to_string(width);
            copts.vector_width = width;
            copts.memory_words = ck.layout.memory_words();
            copts.pool = ck.layout.pool();
            copts.pool_base = ck.layout.pool_base_words();
            const std::string c_source =
                emit_c_kernel(ck.machine, copts);

            std::string error;
            const std::optional<NativeKernel> nk = load_native(
                c_source, copts.symbol, dir, cli.cc, error);
            if (!nk) {
                cr.status = "native-error";
                cr.detail = error;
                ++hard_failures;
                results.push_back(cr);
                continue;
            }
            cr.isa = nk->native_isa();
            cr.host_simd_width = nk->native_width();

            // --- Correctness: dispatched + scalar leaves vs sim/ref.
            const scalar::BufferMap inputs =
                kernels::make_inputs(inst.kernel, cli.seed);
            const auto sim = ck.run(inputs, options.target);
            cr.sim_cycles = sim.result.cycles;
            const scalar::BufferMap want =
                scalar::run_reference(inst.kernel, inputs);

            const std::vector<float> image =
                image_of(ck.layout.make_memory(inputs));
            if (image.size() != nk->mem_words) {
                cr.status = "native-error";
                cr.detail = "memory size mismatch: layout " +
                            std::to_string(image.size()) + " vs symbol " +
                            std::to_string(nk->mem_words);
                ++hard_failures;
                results.push_back(cr);
                dlclose(nk->handle);
                continue;
            }
            for (const bool scalar_leaf : {false, true}) {
                std::vector<float> buf = image;
                (scalar_leaf ? nk->run_scalar : nk->run)(buf.data());
                const scalar::BufferMap native =
                    outputs_of(ck.layout, inputs, buf);
                cr.ulp_vs_sim = std::max(
                    cr.ulp_vs_sim, max_ulp(native, sim.outputs));
                cr.rel_err_vs_ref = std::max(
                    cr.rel_err_vs_ref, max_rel_error(native, want));
            }
            if (cr.ulp_vs_sim > kUlpBudget ||
                cr.rel_err_vs_ref > 5e-3f) {
                cr.status = "native-error";
                cr.detail = "native disagreement: " +
                            std::to_string(cr.ulp_vs_sim) +
                            " ULP vs simulator, rel err " +
                            std::to_string(cr.rel_err_vs_ref) +
                            " vs reference";
                ++hard_failures;
            }

            // --- Timing: dispatched vs forced-scalar, same buffer.
            if (cr.status == "ok" && !cli.check_only) {
                std::vector<float> buf = image;
                cr.native_ns = time_ns(nk->run, buf.data());
                buf = image;
                cr.native_scalar_ns =
                    time_ns(nk->run_scalar, buf.data());
                cr.speedup = cr.native_ns > 0.0
                                 ? cr.native_scalar_ns / cr.native_ns
                                 : 0.0;
            }
            results.push_back(cr);
            dlclose(nk->handle);
        }
    }

    // --- JSON report. --------------------------------------------------
    double log_speedup_sum = 0.0;
    int speedup_cases = 0;
    int vectorize_errors = 0;
    for (const CaseResult& cr : results) {
        if (cr.status == "vectorize-error") {
            ++vectorize_errors;
        }
        if (cr.status == "ok" && cr.speedup > 0.0) {
            log_speedup_sum += std::log(cr.speedup);
            ++speedup_cases;
        }
    }
    const double geomean =
        speedup_cases > 0
            ? std::exp(log_speedup_sum /
                       static_cast<double>(speedup_cases))
            : 0.0;

    std::FILE* out = std::fopen(cli.out.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "native_diff: cannot write %s\n",
                     cli.out.c_str());
        return 1;
    }
    std::fprintf(out, "{\n  \"cases\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult& cr = results[i];
        std::fprintf(
            out,
            "    {\"kernel\": \"%s\", \"width\": %d, \"status\": "
            "\"%s\", \"isa\": \"%s\", \"host_simd_width\": %d, "
            "\"ulp_vs_sim\": %u, \"rel_err_vs_ref\": %.3g, "
            "\"native_ns\": %.1f, \"native_scalar_ns\": %.1f, "
            "\"speedup\": %.3f, \"sim_cycles\": %llu, \"detail\": "
            "\"%s\"}%s\n",
            json_escape(cr.kernel).c_str(), cr.width, cr.status.c_str(),
            cr.isa.c_str(), cr.host_simd_width, cr.ulp_vs_sim,
            static_cast<double>(cr.rel_err_vs_ref), cr.native_ns,
            cr.native_scalar_ns, cr.speedup,
            static_cast<unsigned long long>(cr.sim_cycles),
            json_escape(cr.detail).c_str(),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"summary\": {\"cases\": %zu, "
                 "\"hard_failures\": %d, \"vectorize_errors\": %d, "
                 "\"timed_cases\": %d, \"geomean_speedup\": %.4f}\n}\n",
                 results.size(), hard_failures, vectorize_errors,
                 speedup_cases, geomean);
    std::fclose(out);

    if (!cli.keep_temp) {
        const std::string rm = "rm -rf " + dir;
        if (std::system(rm.c_str()) != 0) {
            std::fprintf(stderr, "; warning: could not remove %s\n",
                         dir.c_str());
        }
    } else {
        std::fprintf(stderr, "; kept temp dir %s\n", dir.c_str());
    }

    std::fprintf(stderr,
                 "; native_diff: %zu cases, %d hard failures, %d "
                 "vectorize errors, geomean speedup %.3f -> %s\n",
                 results.size(), hard_failures, vectorize_errors, geomean,
                 cli.out.c_str());
    return hard_failures == 0 ? 0 : 1;
}

}  // namespace diospyros

int
main(int argc, char** argv)
{
    return diospyros::run(argc, argv);
}
