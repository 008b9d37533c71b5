/**
 * @file
 * The `native` workload: the C that `emit_c_kernel` produces for the 21
 * Table-1 kernels at widths 4 and 8, compiled by the host C compiler and
 * timed on the host CPU.
 *
 * The emitted units are large (tens of MB of straight-line C for the 42
 * cases) and take the host compiler minutes, far over one run's time
 * limit, so that compile is a build step: `--prepare-native DIR` writes
 * the units and run.py compiles them into one shared object (-O2 -fPIC
 * -ffp-contract=off, native_diff's flags). Set-up then recompiles the 42
 * kernels, re-emits their C and requires it to be byte-identical to the
 * prepared units, so the object always holds this compiler's output.
 *
 * The timed loop takes many interleaved samples: each round visits every
 * case once in a seeded order and times, in thread CPU time, a fixed
 * number of calls of its CPU-dispatched entry point after one untimed
 * call (the count derives from the case's simulated cycles, so it never
 * depends on timing). A case's time is the median of its samples.
 * Outputs must match the cycle simulator at 0 ULP and the reference
 * interpreter within the relative tolerance.
 */
#include <dlfcn.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "machine/emit_c.h"
#include "workloads.h"

namespace perfbench {

namespace {

using KernelFn = void (*)(float*);
using IsaFn = const char* (*)();

std::string
case_symbol(std::size_t index)
{
    return "dios_perfbench_" + std::to_string(index);
}

std::string
case_path(const std::string& dir, std::size_t index)
{
    return dir + "/case_" + std::to_string(index) + ".c";
}

const std::vector<int> kWidths = {4, 8};

/** The emitted C unit of one compiled case. */
std::string
emit_case(const CompiledKernel& ck, std::size_t index, int width)
{
    EmitCOptions options;
    options.symbol = case_symbol(index);
    options.vector_width = width;
    options.memory_words = ck.layout.memory_words();
    options.pool = ck.layout.pool();
    options.pool_base = ck.layout.pool_base_words();
    return emit_c_kernel(ck.machine, options);
}

CompiledKernel
compile_case(const Case& c)
{
    CompileResult r = compile_kernel_resilient(c.kernel,
                                               bench_options(c.width, false));
    if (!r.ok || r.fallback_level > 0) {
        throw std::runtime_error("compile failed for " + c.id + ": " + r.error);
    }
    return std::move(*r.compiled);
}

/** ULP distance with ±0 identified; NaN only matches NaN. */
std::uint32_t
ulp_distance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b)) {
        return std::isnan(a) && std::isnan(b) ? 0u : ~0u;
    }
    auto key = [](float x) -> std::int64_t {
        std::int32_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        return bits >= 0 ? bits
                         : static_cast<std::int64_t>(
                               std::numeric_limits<std::int32_t>::min()) -
                               bits;
    };
    const std::int64_t d = key(a) - key(b);
    const std::int64_t mag = d < 0 ? -d : d;
    return mag > ~0u ? ~0u : static_cast<std::uint32_t>(mag);
}

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

/** One loaded case: its compile, entry points and input image. */
struct NativeCase {
    Case c;
    CompiledKernel compiled;
    KernelFn run = nullptr;
    KernelFn run_scalar = nullptr;
    IsaFn isa = nullptr;
    std::vector<float> image;
    std::uint64_t calls_per_sample = 1;
    bool mismatch = false;
};

/** The shared object of prepared cases; closed on destruction. */
class NativeObject {
  public:
    explicit NativeObject(const std::string& path)
        : handle_(dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL))
    {
        if (handle_ == nullptr) {
            throw std::runtime_error(std::string("dlopen failed: ") +
                                     dlerror());
        }
    }
    ~NativeObject() { dlclose(handle_); }
    NativeObject(const NativeObject&) = delete;
    NativeObject& operator=(const NativeObject&) = delete;

    void*
    symbol(const std::string& name) const
    {
        void* p = dlsym(handle_, name.c_str());
        if (p == nullptr) {
            throw std::runtime_error("missing symbol " + name);
        }
        return p;
    }

  private:
    void* handle_;
};

/** Reads output buffers out of a raw memory image via the layout. */
scalar::BufferMap
outputs_of(const NativeCase& nc, const std::vector<float>& image)
{
    Memory mem = nc.compiled.layout.make_memory(nc.c.inputs);
    for (std::size_t i = 0; i < image.size(); ++i) {
        mem.at(i) = image[i];
    }
    return nc.compiled.layout.read_outputs(mem);
}

struct NativeSetup {
    std::vector<NativeCase> cases;
    std::unique_ptr<NativeObject> object;
};

/**
 * Compiles the cases, re-emits their C (spans around `emit_c_kernel` when
 * traced), checks it against the prepared units and binds the entry points.
 */
std::unique_ptr<NativeSetup>
set_up(const Args& args, Tracer* tracer, double* emit_c_ms)
{
    auto s = std::make_unique<NativeSetup>();
    std::vector<Case> cases = table1_cases(kWidths, args.seed);
    s->object = std::make_unique<NativeObject>(args.native_dir + "/native.so");
    for (std::size_t i = 0; i < cases.size(); ++i) {
        NativeCase nc;
        nc.compiled = compile_case(cases[i]);
        std::string c_source;
        {
            SpanGuard span(tracer, "machine.emit_c", -1, i);
            c_source = emit_case(nc.compiled, i, cases[i].width);
            span.close();
            if (tracer != nullptr) {
                *emit_c_ms += tracer->duration_ms(span.id());
            }
        }
        if (c_source != read_file(case_path(args.native_dir, i))) {
            throw std::runtime_error(
                "prepared native unit for " + cases[i].id +
                " differs from this compiler's output; rebuild it with "
                "--prepare-native");
        }
        const std::string sym = case_symbol(i);
        nc.run = reinterpret_cast<KernelFn>(s->object->symbol(sym));
        nc.run_scalar =
            reinterpret_cast<KernelFn>(s->object->symbol(sym + "_scalar"));
        nc.isa =
            reinterpret_cast<IsaFn>(s->object->symbol(sym + "_native_isa"));
        const Memory mem = nc.compiled.layout.make_memory(cases[i].inputs);
        nc.image.resize(mem.size());
        for (std::size_t w = 0; w < nc.image.size(); ++w) {
            nc.image[w] = mem.at(w);
        }
        nc.c = std::move(cases[i]);
        s->cases.push_back(std::move(nc));
    }
    return s;
}

/**
 * Samples of roughly this many simulated cycles' worth of calls (tens of
 * microseconds), so reading the CPU clock costs under 1% of a sample.
 */
constexpr std::uint64_t kCyclesPerSample = 100'000;

}  // namespace

int
prepare_native(const Args& args)
{
    make_dirs(args.prepare_native);
    const std::vector<Case> cases = table1_cases(kWidths, args.seed);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CompiledKernel ck = compile_case(cases[i]);
        write_file(case_path(args.prepare_native, i),
                   emit_case(ck, i, cases[i].width));
    }
    std::fprintf(stderr, "perfbench: wrote %zu native units to %s\n",
                 cases.size(), args.prepare_native.c_str());
    return 0;
}

RunOutcome
run_native(const Args& args)
{
    if (args.native_dir.empty()) {
        throw std::runtime_error("the native workload needs --native-dir");
    }
    Tracer tracer(Tracer::Time::kThreadCpu);
    Tracer* trace = args.trace ? &tracer : nullptr;
    double emit_c_ms = 0.0;
    std::unique_ptr<NativeSetup> setup;
    const double setup_s =
        median_setup_seconds(args.trace ? 1 : 3, [&] {
            setup.reset();
            emit_c_ms = 0.0;
            setup = set_up(args, trace, &emit_c_ms);
        });
    std::vector<NativeCase>& cases = setup->cases;

    // Check first, on fresh images: 0 ULP against the simulator for both
    // the dispatched and the scalar entry, and the reference tolerance.
    RunOutcome outcome;
    std::vector<double> speedups;
    double instrs = 0.0;
    DeterminismGuard guard(args.work_dir, "native");
    std::string isas;
    for (NativeCase& nc : cases) {
        const CaseCheck sim = check_case(nc.c, nc.compiled,
                                         TargetSpec::for_width(nc.c.width));
        speedups.push_back(static_cast<double>(sim.fixed_cycles) /
                           static_cast<double>(sim.cycles));
        instrs += static_cast<double>(nc.compiled.machine.size());
        nc.calls_per_sample =
            std::max<std::uint64_t>(1, kCyclesPerSample / sim.cycles);
        guard.record(nc.c.id,
                     {{"machine.instrs",
                       static_cast<double>(nc.compiled.machine.size())},
                      {"machine.sim_cycles", static_cast<double>(sim.cycles)}});
        for (const KernelFn fn : {nc.run, nc.run_scalar}) {
            std::vector<float> buf = nc.image;
            fn(buf.data());
            const scalar::BufferMap got = outputs_of(nc, buf);
            const std::uint32_t ulp = max_ulp(got, sim.outputs);
            const double rel = max_rel_error(got, nc.c.want);
            if (ulp != 0 || !(rel <= kRelTolerance) || !sim.ok) {
                std::fprintf(stderr,
                             "perfbench: NATIVE MISMATCH %s: %u ULP vs "
                             "simulator, relative error %g vs reference\n",
                             nc.c.id.c_str(), ulp, rel);
                nc.mismatch = true;
            }
        }
        if (isas.find(nc.isa()) == std::string::npos) {
            isas += std::string(isas.empty() ? "" : ",") + nc.isa();
        }
    }
    const std::size_t drift = guard.finish();

    // Timed loop: interleaved fixed-size samples, seeded visiting order.
    Rng rng(derive_seed(args.seed, 1000));
    std::vector<std::size_t> order(cases.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::vector<std::vector<float>> buffers;
    for (const NativeCase& nc : cases) {
        buffers.push_back(nc.image);
    }
    CaseLatencies latencies(cases.size());
    std::uint64_t calls = 0;
    SpanGuard loop_span(trace, "native.calls", -1, 0);
    const Clock::time_point start = Clock::now();
    std::size_t rounds = 0;
    while (rounds < 1 || ms_since(start) < args.seconds * 1e3) {
        rng.shuffle(order);
        for (const std::size_t i : order) {
            NativeCase& nc = cases[i];
            float* buf = buffers[i].data();
            nc.run(buf);  // untimed: the sample measures warm caches
            const double t0 = thread_cpu_ms();
            for (std::uint64_t r = 0; r < nc.calls_per_sample; ++r) {
                nc.run(buf);
            }
            latencies.add(i, (thread_cpu_ms() - t0) /
                                 static_cast<double>(nc.calls_per_sample));
            calls += nc.calls_per_sample;
        }
        ++rounds;
    }
    loop_span.close();
    // Every timed call of a case whose outputs are wrong counts as failed.
    outcome.attempted = calls;
    std::size_t bad_cases = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cases[i].mismatch) {
            ++bad_cases;
            outcome.failed +=
                cases[i].calls_per_sample * latencies.samples[i].size();
        }
    }
    outcome.correct = bad_cases == 0 && drift == 0;
    std::fprintf(stderr,
                 "perfbench: native: %zu rounds, %llu calls; ISA leaves %s\n",
                 rounds, static_cast<unsigned long long>(calls), isas.c_str());

    Metrics& m = outcome.metrics;
    if (args.trace) {
        std::vector<double> medians_ns;
        double ns_sum = 0.0;
        for (const std::vector<double>& samples : latencies.samples) {
            medians_ns.push_back(median(samples) * 1e6);
            ns_sum += medians_ns.back();
        }
        make_dirs(args.work_dir);
        tracer.write_chrome_json(args.work_dir + "/trace-native.json");
        m.set("machine.emit_c_ms", emit_c_ms, "ms");
        m.set("machine.native_ns", ns_sum, "ns");
        m.set("native_ns_geomean", geomean(medians_ns), "ns");
        m.set("failed_ratio",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              "ratio");
        m.set("determinism.drift", static_cast<double>(drift), "count");
        return outcome;
    }
    m.set("setup_s", setup_s, "s");
    latencies.report(m, "native", true);
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("code_instrs", instrs, "count");
    m.set("sim_speedup_geomean", geomean(speedups), "x");
    return outcome;
}

}  // namespace perfbench
