/**
 * @file
 * Shared plumbing of the repository benchmark: command line, seeded
 * randomness, timing statistics, the result line, output checks and the
 * determinism guard. Nothing here calls into the compiler's layers; the
 * workloads do that (see README.md for what each one measures).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.h"
#include "scalar/interp.h"

namespace perfbench {

using namespace diospyros;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch space inside the checkout (temp dirs, traces, guards). */
    std::string work_dir = ".bench_build/run";
    /** Prepared native objects (see native.cpp and run.py). */
    std::string native_dir;
    /** `--prepare-native DIR`: write the emitted C units and exit. */
    std::string prepare_native;
};

Args parse_args(int argc, char** argv);

// ---------------------------------------------------------------------------
// Time, randomness, statistics
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * CPU time of the calling thread / of the whole process, in ms. The
 * benchmark times work in CPU time: the development host's hypervisor
 * stole 13-24% of the CPU, varying from run to run, which moved wall-clock
 * figures by up to 40% between identical runs and CPU-time figures by a
 * few percent.
 */
double thread_cpu_ms();
double process_cpu_ms();

/** splitmix64: a small seeded generator with a fixed, portable sequence. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);

    template <typename T>
    void
    shuffle(std::vector<T>& items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[below(i)]);
        }
    }

  private:
    std::uint64_t state_;
};

/** Mixes a seed with a stream index, so streams never share sequences. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> values);
/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> values, double p);
/**
 * Harrell-Davis estimate of percentile p in (0, 100): a weighted mean of
 * all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass of
 * each one's rank interval. Over a few dozen values with gaps between
 * them it moves smoothly where the plain percentile jumps from one value
 * to the next.
 */
double harrell_davis(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/**
 * The tail the result reports: the highest percentile of a fixed ladder
 * (99.9, 99, 95, 90, 75, 50) with at least ten samples beyond it among
 * `guaranteed` samples, the count every run of the workload reaches. The
 * percentile therefore does not move between runs whose sample counts
 * differ.
 */
struct Tail {
    double percentile = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values, std::size_t guaranteed);

/** Peak resident set of this process, in MiB (getrusage). */
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/** Named metrics of one run, with units, in insertion order. */
class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** What a workload hands back to main. */
struct RunOutcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when an output check or the determinism guard failed. */
    bool correct = true;
    Metrics metrics;
};

/** Prints the result line, last on stdout: correct, attempted, failed
 * and metrics. */
void print_result(const RunOutcome& outcome);

/** Escapes a string for a JSON string literal. */
std::string json_escape(const std::string& s);

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/**
 * Largest relative error of `got` against `want`, with the scale floored
 * at 1 (the integration sweeps' measure); infinity when a buffer is
 * missing or has the wrong length.
 */
double max_rel_error(const scalar::BufferMap& got,
                     const scalar::BufferMap& want);

/** Tolerance of the simulator/native outputs against the interpreter. */
inline constexpr double kRelTolerance = 5e-3;

/** 64-bit fingerprint of an artifact's text (the daemon soak's hash). */
std::uint64_t fingerprint(const std::string& text);

// ---------------------------------------------------------------------------
// Determinism guard
// ---------------------------------------------------------------------------

/**
 * Counts that must repeat exactly whenever the same case is compiled
 * again: within a run (a case compiled in several passes), across runs
 * and across seeds (a seed only reorders work and changes input data).
 * Each case's counts are kept in a file under the work directory, keyed
 * by the benchmark binary, so a second run of the same build compares
 * against the first. Any difference is reported as compiler
 * nondeterminism.
 */
class DeterminismGuard {
  public:
    DeterminismGuard(const std::string& work_dir, const std::string& workload);

    /** Records (or compares) the counts of one case. */
    void record(const std::string& case_id,
                const std::map<std::string, double>& counts);

    /** Compares against the stored file and rewrites it; returns drift. */
    std::size_t finish();

  private:
    std::string path_;
    std::map<std::string, std::map<std::string, double>> seen_;
    std::size_t drift_ = 0;
};

/** Filesystem helpers for the work directory. */
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);
void make_dirs(const std::string& path);
/** Identity of the running benchmark binary (hash of its bytes). */
std::string binary_id();

}  // namespace perfbench
