#include "bench_util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/hash.h"

namespace perfbench {

namespace {

double
cpu_clock_ms(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}


[[noreturn]] void
usage(const char* argv0, const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
                 "          [--work-dir DIR] [--native-dir DIR]\n"
                 "       %s --prepare-native DIR\n",
                 why.c_str(), argv0, argv0);
    std::exit(2);
}

}  // namespace

double
thread_cpu_ms()
{
    return cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID);
}

double
process_cpu_ms()
{
    return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID);
}

Args
parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(argv[0], "missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--native-dir") {
            args.native_dir = value;
        } else if (flag == "--prepare-native") {
            args.prepare_native = value;
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
    }
    if (args.prepare_native.empty() && args.workload.empty()) {
        usage(argv[0], "--workload is required");
    }
    if (!(args.seconds > 0.0)) {
        usage(argv[0], "--seconds must be positive");
    }
    return args;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
    return rng.next();
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
harrell_davis(std::vector<double> values, double p)
{
    if (values.size() < 2) {
        return values.empty() ? 0.0 : values[0];
    }
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double a = (n + 1.0) * p / 100.0;
    const double b = (n + 1.0) * (1.0 - p / 100.0);
    // The Beta density, up to its constant, at the midpoints of kSteps
    // slices of each rank interval [i/n, (i+1)/n]; the constant cancels.
    constexpr int kSteps = 1000;
    std::vector<double> log_density;
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (int j = 0; j < kSteps; ++j) {
            const double x = (static_cast<double>(i) + (j + 0.5) / kSteps) / n;
            log_density.push_back((a - 1.0) * std::log(x) +
                                  (b - 1.0) * std::log1p(-x));
        }
    }
    const double peak =
        *std::max_element(log_density.begin(), log_density.end());
    double sum = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        double weight = 0.0;
        for (int j = 0; j < kSteps; ++j) {
            weight += std::exp(log_density[i * kSteps + j] - peak);
        }
        sum += weight * values[i];
        total += weight;
    }
    return sum / total;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (const double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Tail
tail_of(const std::vector<double>& values, std::size_t guaranteed)
{
    Tail tail;
    tail.samples = values.size();
    const std::size_t n = std::min(guaranteed, values.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
        if (beyond >= 10.0 || p == 50.0) {
            tail.percentile = p;
            tail.value = percentile(values, p);
            return tail;
        }
    }
    return tail;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (auto& item : items_) {
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    }
    items_.push_back({name, {value, unit}});
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
print_result(const RunOutcome& outcome)
{
    std::ostringstream os;
    os << "{\"correct\": " << (outcome.correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value_unit] : outcome.metrics.items()) {
        char value[64];
        const double v = std::isfinite(value_unit.first) ? value_unit.first
                                                         : 0.0;
        std::snprintf(value, sizeof value, "%.17g", v);
        os << (first ? "" : ", ") << '"' << json_escape(name)
           << "\": {\"value\": " << value << ", \"unit\": \""
           << json_escape(value_unit.second) << "\"}";
        first = false;
    }
    os << "}}";
    std::fflush(stderr);
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

double
max_rel_error(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    double worst = 0.0;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.size() != w.size()) {
            return std::numeric_limits<double>::infinity();
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            const double g = it->second[i];
            const double scale = std::max(
                {1.0, std::abs(static_cast<double>(w[i])), std::abs(g)});
            const double err = std::abs(g - w[i]) / scale;
            if (!(err <= worst)) {  // also catches NaN
                worst = std::isnan(err)
                            ? std::numeric_limits<double>::infinity()
                            : err;
            }
        }
    }
    return worst;
}

std::uint64_t
fingerprint(const std::string& text)
{
    StableHasher h;
    h.tag("dios-soak").str(text);
    return h.digest();
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

void
make_dirs(const std::string& path)
{
    std::filesystem::create_directories(path);
}

std::string
binary_id()
{
    static const std::string id = [] {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(
                          stable_hash_string(read_file("/proc/self/exe"))));
        return std::string(buf);
    }();
    return id;
}

DeterminismGuard::DeterminismGuard(const std::string& work_dir,
                                   const std::string& workload)
    : path_(work_dir + "/determinism-" + workload + ".txt")
{
}

void
DeterminismGuard::record(const std::string& case_id,
                         const std::map<std::string, double>& counts)
{
    const auto [it, inserted] = seen_.emplace(case_id, counts);
    if (!inserted && it->second != counts) {
        std::fprintf(stderr,
                     "perfbench: NONDETERMINISM: %s changed between two "
                     "compiles in one run\n",
                     case_id.c_str());
        ++drift_;
    }
}

std::size_t
DeterminismGuard::finish()
{
    // File format: "binary <id>" then one "<case>\t<key>\t<value>" line
    // per count. Counts from another build are ignored and replaced.
    std::map<std::string, std::map<std::string, double>> stored;
    std::istringstream in(read_file(path_));
    std::string line;
    const bool same_binary =
        std::getline(in, line) && line == "binary " + binary_id();
    while (same_binary && std::getline(in, line)) {
        const std::size_t a = line.find('\t');
        const std::size_t b = line.find('\t', a + 1);
        if (a == std::string::npos || b == std::string::npos) {
            continue;
        }
        stored[line.substr(0, a)][line.substr(a + 1, b - a - 1)] =
            std::strtod(line.c_str() + b + 1, nullptr);
    }
    for (const auto& [case_id, counts] : seen_) {
        const auto it = stored.find(case_id);
        if (it == stored.end()) {
            stored.emplace(case_id, counts);
        } else if (it->second != counts) {
            for (const auto& [key, value] : counts) {
                const auto old = it->second.find(key);
                if (old == it->second.end() || old->second != value) {
                    std::fprintf(stderr,
                                 "perfbench: NONDETERMINISM: %s %s = %.17g, "
                                 "an earlier run of this build had %.17g\n",
                                 case_id.c_str(), key.c_str(), value,
                                 old == it->second.end() ? -1.0
                                                         : old->second);
                }
            }
            ++drift_;
        }
    }
    std::ostringstream out;
    out << "binary " << binary_id() << "\n";
    for (const auto& [case_id, counts] : stored) {
        for (const auto& [key, value] : counts) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out << case_id << '\t' << key << '\t' << buf << "\n";
        }
    }
    write_file(path_, out.str());
    return drift_;
}

}  // namespace perfbench
