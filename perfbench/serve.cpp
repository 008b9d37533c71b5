/**
 * @file
 * The `serve` workload: an in-process diosd (`daemon::Daemon`) on a Unix
 * socket in a fresh directory, driven by one `RemoteClient` in a closed
 * loop after a warm-up that brings the daemon's memory LRU to its steady
 * state.
 *
 * Set-up renders the 21 Table-1 kernels as `.ksp` text at widths 2/4/8/16
 * (84 hot keys), compiles each locally and stores it in the daemon's disk
 * cache, then starts the daemon (service jobs=2, memory LRU of 24 entries,
 * smaller than the hot set). The request stream is seeded draws from a
 * Zipf over the hot keys plus one never-seen small kernel in every 50
 * requests, which compiles cold and is stored. Every served artifact is
 * checked against a cold local compile of the same key by the daemon
 * soak's fingerprint of its C source. A request during which the client
 * retried, was shed or fell back to a local compile counts as failed.
 *
 * The traced run replays the same seeded stream single-threaded through
 * the layer calls one request makes — protocol and frame codecs on the
 * same payloads, parse, cache key, disk-cache load (envelope parse and
 * `entry_from_sexpr`), `compiled_from_entry`, `CompileService::submit` on
 * a second, in-process service prepared the same way — and then sends it
 * to the daemon, so the daemon's overhead is remote minus direct latency
 * on the same request.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "ksp_text.h"
#include "scalar/canonical.h"
#include "scalar/parse.h"
#include "scalar/symbolic.h"
#include "service/disk_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kServiceJobs = 2;
constexpr std::size_t kMemoryCapacity = 24;
/** One request in every kColdEvery is a never-seen kernel (2%). */
constexpr std::uint64_t kColdEvery = 50;
constexpr double kZipfExponent = 1.0;
/**
 * Requests every serve run measures, even past --seconds: with fewer, the
 * per-key samples near the median were too few for a steady p50. The
 * count also sets the reported tail (p99, which falls on the cold
 * compiles).
 */
constexpr std::size_t kGuaranteedRequests = 1600;
/**
 * Requests sent before the measured loop, so the daemon's memory LRU is
 * in its steady state (it starts empty) whatever the run's length.
 */
constexpr std::size_t kWarmupRequests = 300;

/** One pre-stored key: a Table-1 kernel at one width, as wire text. */
struct HotKey {
    Case c;
    std::string name;
    std::string text;
    scalar::Kernel parsed;
    CompilerOptions options;
    service::CachedEntry entry;
    std::uint64_t fingerprint = 0;
    std::optional<CompiledKernel> compiled;
};

/** A never-seen small kernel (unique name, so a unique cache key). */
std::string
cold_kernel_text(const std::string& name)
{
    return "(kernel " + name +
           " (param n 8) (input A n) (input B n) (output C n)"
           " (for i 0 n (store C i (+ (* (load A i) (load B i)) "
           "(load A i)))))";
}

/**
 * The options as the daemon sees them: the wire carries a subset of
 * CompilerOptions (the width, but not the rest of the target preset), so
 * keys and reference compiles use the decoded copy.
 */
CompilerOptions
wire_options(const CompilerOptions& options)
{
    daemon::CompileRequest req;
    req.options = options;
    return daemon::decode_compile_request(daemon::encode_compile_request(req))
        .options;
}

/** Compiles and renders the hot set (the expensive part of set-up). */
std::vector<HotKey>
build_hot_set(std::uint64_t seed)
{
    std::vector<HotKey> hot;
    const std::vector<kernels::BenchmarkInstance> instances =
        kernels::table1_instances();
    std::vector<Case> cases = table1_cases({2, 4, 8, 16}, seed);
    for (Case& c : cases) {
        HotKey h;
        const std::size_t index = hot.size() % instances.size();
        h.name = "table1_" + std::to_string(index);
        h.text = kernel_source_text(c.kernel, h.name);
        h.parsed = scalar::parse_kernel(h.text);
        h.options = wire_options(bench_options(c.width, false));
        h.c = std::move(c);
        hot.push_back(std::move(h));
    }
    // The rendered text must lift to the kernel's own spec, or the
    // workload would be serving a different program.
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (scalar::stable_spec_hash(scalar::lift(hot[i].parsed)) !=
            scalar::stable_spec_hash(scalar::lift(hot[i].c.kernel))) {
            throw std::runtime_error("kernel text of " + hot[i].c.id +
                                     " does not re-parse to its spec");
        }
    }
    // Two compile threads, like the service's two workers.
    std::vector<std::string> errors(hot.size());
    auto compile_range = [&](std::size_t first) {
        for (std::size_t i = first; i < hot.size(); i += kServiceJobs) {
            HotKey& h = hot[i];
            CompileResult r = compile_kernel_resilient(h.parsed, h.options);
            if (!r.ok || r.fallback_level > 0) {
                errors[i] = h.c.id + ": " + r.error;
                continue;
            }
            h.entry = service::make_entry(
                service::compute_cache_key(h.parsed, h.options), h.options,
                *r.compiled);
            h.fingerprint = fingerprint(r.compiled->c_source);
            h.compiled = std::move(r.compiled);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kServiceJobs; ++t) {
        threads.emplace_back(compile_range, static_cast<std::size_t>(t));
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (const std::string& e : errors) {
        if (!e.empty()) {
            throw std::runtime_error("hot-set compile failed: " + e);
        }
    }
    return hot;
}

void
store_all(const std::vector<HotKey>& hot, const std::string& cache_dir)
{
    const service::DiskCache disk(cache_dir);
    for (const HotKey& h : hot) {
        disk.store(h.entry);
    }
}

service::CompileService::Options
service_options(const std::string& cache_dir)
{
    service::CompileService::Options o;
    o.jobs = kServiceJobs;
    o.memory_cache_capacity = kMemoryCapacity;
    o.cache_dir = cache_dir;
    return o;
}

/** A running serve set-up: directory, hot set, daemon. */
struct ServeSetup {
    std::string dir;
    std::vector<HotKey> hot;
    std::unique_ptr<daemon::Daemon> daemon;

    ServeSetup() = default;
    ServeSetup(const ServeSetup&) = delete;
    ServeSetup& operator=(const ServeSetup&) = delete;

    ~ServeSetup()
    {
        if (daemon) {
            daemon->shutdown(service::DrainMode::kFinish);
        }
        if (!dir.empty()) {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    }

    std::string socket_path() const { return dir + "/d.sock"; }
};

std::unique_ptr<ServeSetup>
set_up(const Args& args, int attempt)
{
    auto s = std::make_unique<ServeSetup>();
    s->dir = args.work_dir + "/serve-" + std::to_string(::getpid()) + "-" +
             std::to_string(attempt);
    std::error_code ec;
    fs::remove_all(s->dir, ec);
    make_dirs(s->dir);
    s->hot = build_hot_set(args.seed);
    store_all(s->hot, s->dir + "/cache");
    daemon::DaemonOptions d;
    d.socket_path = s->socket_path();
    d.service = service_options(s->dir + "/cache");
    d.dedup_capacity = 64;
    s->daemon = std::make_unique<daemon::Daemon>(d);
    s->daemon->start();
    return s;
}

/** One request of the seeded stream. */
struct Request {
    int hot = -1;  ///< index into the hot set; -1 for a cold kernel
    std::string name;
    std::string text;
    CompilerOptions options;
};

/** Seeded request generator for one client stream. */
class Stream {
  public:
    Stream(std::uint64_t seed, const std::vector<HotKey>& hot)
        : rng_(derive_seed(seed, 100)), seed_(seed), hot_(hot)
    {
        // Which keys are hottest is fixed, not seeded: the seed varies
        // the draws, never the mix, so runs with different seeds measure
        // the same workload.
        Rng rank_rng(99);
        for (std::size_t i = 0; i < hot.size(); ++i) {
            by_rank_.push_back(static_cast<int>(i));
        }
        rank_rng.shuffle(by_rank_);
        double sum = 0.0;
        for (std::size_t r = 0; r < hot.size(); ++r) {
            sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
            cdf_.push_back(sum);
        }
        key_probability_.resize(hot.size());
        for (std::size_t r = 0; r < cdf_.size(); ++r) {
            cdf_[r] /= sum;
            key_probability_[by_rank_[r]] =
                cdf_[r] - (r == 0 ? 0.0 : cdf_[r - 1]);
        }
    }

    /** Probability that a request is for hot key `index` (-1: cold). */
    double
    probability(int index) const
    {
        const double cold = 1.0 / static_cast<double>(kColdEvery);
        return index < 0 ? cold : (1.0 - cold) * key_probability_[index];
    }

    Request
    next()
    {
        // Exactly one cold request per block of kColdEvery, at a seeded
        // position, so every run has the same cold share.
        if (issued_ % kColdEvery == 0) {
            cold_slot_ = rng_.below(kColdEvery);
        }
        const bool cold = issued_++ % kColdEvery == cold_slot_;
        Request req;
        if (cold) {
            req.name = "cold_" + std::to_string(seed_) + "_" +
                       std::to_string(cold_++);
            req.text = cold_kernel_text(req.name);
            req.options = wire_options(bench_options(4, false));
            return req;
        }
        const double u = rng_.uniform();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        req.hot = by_rank_[std::min(rank, by_rank_.size() - 1)];
        req.name = hot_[req.hot].name;
        req.text = hot_[req.hot].text;
        req.options = hot_[req.hot].options;
        return req;
    }

  private:
    Rng rng_;
    std::uint64_t seed_;
    const std::vector<HotKey>& hot_;
    std::vector<int> by_rank_;
    std::vector<double> cdf_;
    std::vector<double> key_probability_;
    std::uint64_t cold_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t cold_slot_ = 0;
};

daemon::CompileRequest
wire_request(const Request& r)
{
    daemon::CompileRequest req;
    req.kernel_name = r.name;
    req.kernel_text = r.text;
    req.options = r.options;
    return req;
}

daemon::RemoteOptions
remote_options(const std::string& socket, std::uint64_t jitter_seed)
{
    daemon::RemoteOptions o;
    o.socket_path = socket;
    o.request_timeout_seconds = 60.0;
    o.jitter_seed = jitter_seed;
    return o;
}

/**
 * Retries, shed responses and local fallbacks the client has seen so far.
 * A request during which this grows took a detour that CPU time does not
 * show (backoff sleeps, shed waits, a reconnect), so it counts as failed.
 */
std::uint64_t
detours(const daemon::RemoteClient& remote)
{
    const daemon::ClientCounters& c = remote.counters();
    return c.remote_retries + c.remote_shed + c.remote_fallback_local;
}

/** Cold requests are checked after the timed loop, by a local compile. */
struct ColdServed {
    std::string text;
    std::uint64_t fingerprint = 0;
};

/** Checks the cold artifacts against local compiles; returns mismatches. */
std::size_t
check_cold(const std::vector<ColdServed>& cold)
{
    std::size_t bad = 0;
    for (const ColdServed& c : cold) {
        const CompileResult local =
            compile_kernel_resilient(scalar::parse_kernel(c.text),
                                     wire_options(bench_options(4, false)));
        if (!local.ok ||
            fingerprint(local.compiled->c_source) != c.fingerprint) {
            ++bad;
        }
    }
    return bad;
}

/** Output checks and Figure-5 counts over the hot set's own compiles. */
std::size_t
check_hot(const std::vector<HotKey>& hot, Metrics& m)
{
    std::size_t bad = 0;
    std::vector<double> speedups;
    double instrs = 0.0;
    for (const HotKey& h : hot) {
        const CaseCheck check =
            check_case(h.c, *h.compiled, h.options.target);
        if (!check.ok) {
            std::fprintf(stderr, "perfbench: OUTPUT MISMATCH %s: %g\n",
                         h.c.id.c_str(), check.rel_error);
            ++bad;
        }
        speedups.push_back(static_cast<double>(check.fixed_cycles) /
                           static_cast<double>(check.cycles));
        instrs += static_cast<double>(h.compiled->machine.size());
    }
    m.set("code_instrs", instrs, "count");
    m.set("sim_speedup_geomean", geomean(speedups), "x");
    return bad;
}

void
release_compiled(std::vector<HotKey>& hot)
{
    for (HotKey& h : hot) {
        h.compiled.reset();
    }
}

/** Determinism guard over the hot set's compiles; returns the drift. */
std::size_t
guard_hot_set(const Args& args, const std::vector<HotKey>& hot)
{
    DeterminismGuard guard(args.work_dir, "serve");
    for (const HotKey& h : hot) {
        guard.record(h.c.id,
                     {{"egraph.nodes",
                       static_cast<double>(h.compiled->report.egraph_nodes)},
                      {"egraph.extracted_cost",
                       h.compiled->report.extracted_cost},
                      {"machine.instrs",
                       static_cast<double>(h.compiled->machine.size())},
                      {"c_source", static_cast<double>(h.fingerprint >> 12)}});
    }
    return guard.finish();
}

/** Mean of a list, 0 when empty. */
double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/**
 * Percentile `p` of the request cost of the stream's mix: every sample of a
 * key weighs the key's probability in the stream divided by the key's
 * sample count. The request-level median sits in a gap between two cost
 * clusters (memory hits of small kernels, and the hottest key's ~6 ms), so
 * the random draws of a run moved it by up to 60%; with the weights fixed
 * it moves with the costs, not with how often a run happened to draw each
 * key.
 */
double
mix_percentile(const std::vector<std::vector<double>>& by_key,
               const Stream& stream, double p)
{
    std::vector<std::pair<double, double>> samples;  // (cost, weight)
    double total = 0.0;
    for (std::size_t i = 0; i < by_key.size(); ++i) {
        if (by_key[i].empty()) {
            continue;
        }
        const double weight = stream.probability(static_cast<int>(i) - 1) /
                              static_cast<double>(by_key[i].size());
        for (const double cost : by_key[i]) {
            samples.emplace_back(cost, weight);
            total += weight;
        }
    }
    std::sort(samples.begin(), samples.end());
    double seen = 0.0;
    for (const auto& [cost, weight] : samples) {
        seen += weight;
        if (seen >= total * p / 100.0) {
            return cost;
        }
    }
    return samples.back().first;
}

/**
 * Mean request cost of the stream's mix: each key's mean cost weighted by
 * the key's probability, for the same reason. Over the raw requests the
 * mean moved by 12% between seeds with the number of expensive keys a run
 * drew; weighted, by 7%.
 */
double
mix_mean(const std::vector<std::vector<double>>& by_key, const Stream& stream)
{
    double cost = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < by_key.size(); ++i) {
        if (!by_key[i].empty()) {
            const double p = stream.probability(static_cast<int>(i) - 1);
            cost += p * mean(by_key[i]);
            total += p;
        }
    }
    return cost / total;
}

RunOutcome
run_untraced(const Args& args)
{
    std::unique_ptr<ServeSetup> setup;
    int attempt = 0;
    const double setup_s = median_setup_seconds(3, [&] {
        setup.reset();
        setup = set_up(args, attempt++);
    });
    // Output checks of the hot set happen before the loop; the compiled
    // kernels are then dropped so the loop runs with the daemon's own
    // heap only.
    RunOutcome outcome;
    const std::size_t bad_hot = check_hot(setup->hot, outcome.metrics);
    const std::size_t drift = guard_hot_set(args, setup->hot);
    release_compiled(setup->hot);

    // One client: a request is charged the process CPU time that passes
    // while it is in flight (see bench_util.h for why CPU time), which is
    // its own cost only while no other request is in flight.
    std::optional<daemon::RemoteClient> remote;
    remote.emplace(
        remote_options(setup->socket_path(), derive_seed(args.seed, 200)));
    Stream stream(args.seed, setup->hot);
    std::vector<double> latencies;
    // The same costs per key; index 0 holds the cold requests.
    std::vector<std::vector<double>> by_key(setup->hot.size() + 1);
    std::vector<double> wall;
    std::vector<ColdServed> cold;
    std::uint64_t mismatched = 0;
    std::uint64_t detoured = 0;
    auto serve_one = [&](bool measure) {
        const Request r = stream.next();
        const daemon::CompileRequest req = wire_request(r);
        const std::uint64_t detours_before = detours(*remote);
        const Clock::time_point w0 = Clock::now();
        const double t0 = process_cpu_ms();
        const std::optional<daemon::CompileResponse> resp =
            remote->compile(req);
        if (measure) {
            latencies.push_back(process_cpu_ms() - t0);
            wall.push_back(ms_since(w0));
            by_key[static_cast<std::size_t>(r.hot + 1)].push_back(
                latencies.back());
        }
        ++outcome.attempted;
        if (!resp || resp->status != daemon::ResponseStatus::kOk ||
            !resp->entry || detours(*remote) != detours_before) {
            ++outcome.failed;
            ++detoured;
            return;
        }
        const std::uint64_t fp = fingerprint(resp->entry->c_source);
        if (r.hot < 0) {
            cold.push_back({r.text, fp});
        } else if (fp != setup->hot[r.hot].fingerprint) {
            ++mismatched;
        }
    };
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        serve_one(false);
    }
    const Clock::time_point start = Clock::now();
    while (latencies.size() < kGuaranteedRequests ||
           ms_since(start) < args.seconds * 1e3) {
        serve_one(true);
    }
    const std::string status = setup->daemon->status_json();
    remote.reset();
    setup.reset();  // stop the daemon before the checks compile locally

    mismatched += check_cold(cold);
    outcome.failed += mismatched + bad_hot;
    outcome.correct = mismatched == 0 && bad_hot == 0 && drift == 0;

    const Tail tail = tail_of(latencies, kGuaranteedRequests);
    const Tail wall_tail = tail_of(wall, kGuaranteedRequests);
    std::fprintf(stderr,
                 "perfbench: serve: %zu requests (%zu cold, %llu failed or "
                 "retried); latency tail is p%g of %zu samples; wall p50 %.4f "
                 "ms, tail %.4f ms; daemon status %s\n",
                 latencies.size(), cold.size(),
                 static_cast<unsigned long long>(detoured), tail.percentile,
                 tail.samples, median(wall), wall_tail.value, status.c_str());
    Metrics& m = outcome.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("throughput_per_s", 1e3 / mix_mean(by_key, stream), "ops/s");
    m.set("latency_ms_p50", mix_percentile(by_key, stream, 50.0), "ms");
    m.set("latency_ms_tail", mix_percentile(by_key, stream, tail.percentile),
          "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return outcome;
}

/** Encodes one frame and decodes it back, as the two ends of a socket do. */
void
frame_round_trip(daemon::FrameType type, std::uint64_t seq,
                 const std::string& payload)
{
    daemon::Frame frame;
    frame.type = type;
    frame.client_id = 1;
    frame.seq = seq + 1;
    frame.payload = payload;
    const std::string bytes = daemon::encode_frame(frame);
    daemon::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    daemon::Frame out;
    daemon::FrameError err;
    if (decoder.poll(out, err) != daemon::FrameDecoder::Status::kFrame ||
        out.payload != payload) {
        throw std::runtime_error("frame codec round trip failed");
    }
}

RunOutcome
run_traced(const Args& args)
{
    const std::unique_ptr<ServeSetup> setup = set_up(args, 0);
    release_compiled(setup->hot);
    // The direct service gets its own copy of the pre-stored entries, so
    // its cache evolves exactly as the daemon's does under the stream.
    const std::string direct_dir = setup->dir + "/direct";
    store_all(setup->hot, direct_dir);
    service::CompileService direct(service_options(direct_dir));
    const service::DiskCache probe(direct_dir);
    const service::DiskCache store_probe(setup->dir + "/store-probe");
    daemon::RemoteClient remote(
        remote_options(setup->socket_path(), derive_seed(args.seed, 200)));

    Stream stream(args.seed, setup->hot);
    Tracer tracer(Tracer::Time::kWall);
    RunOutcome outcome;
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t lost = 0;
    std::vector<double> cache_key_ms, queue_wait_ms, disk_load_ms,
        reconstruct_ms, entry_bytes, disk_store_ms, protocol_us, frame_us,
        overhead_ms, remote_ms;
    double parent_ms = 0.0;
    double children_ms = 0.0;

    // The first kWarmupRequests are replayed but left out of the figures.
    Clock::time_point start = Clock::now();
    while (outcome.attempted <= kWarmupRequests ||
           ms_since(start) < args.seconds * 1e3) {
        const std::uint64_t id = outcome.attempted++;
        if (id == kWarmupRequests) {
            memory_hits = disk_hits = misses = 0;
            for (std::vector<double>* v :
                 {&cache_key_ms, &queue_wait_ms, &disk_load_ms,
                  &reconstruct_ms, &entry_bytes, &disk_store_ms, &protocol_us,
                  &frame_us, &overhead_ms, &remote_ms}) {
                v->clear();
            }
            parent_ms = children_ms = 0.0;
            start = Clock::now();
        }
        const Request r = stream.next();
        const daemon::CompileRequest req = wire_request(r);
        SpanGuard request(&tracer, "request", -1, id);
        const int parent = request.id();

        double codec_us = 0.0;
        double frame_codec_us = 0.0;
        daemon::CompileRequest decoded;
        std::string payload;
        {
            SpanGuard span(&tracer, "daemon.protocol", parent, id);
            payload = daemon::encode_compile_request(req);
            decoded = daemon::decode_compile_request(payload);
            span.close();
            codec_us += tracer.duration_ms(span.id()) * 1e3;
        }
        {
            SpanGuard span(&tracer, "daemon.frame", parent, id);
            frame_round_trip(daemon::FrameType::kCompileRequest, id, payload);
            span.close();
            frame_codec_us += tracer.duration_ms(span.id()) * 1e3;
        }
        scalar::Kernel kernel;
        {
            SpanGuard span(&tracer, "scalar.parse", parent, id);
            kernel = scalar::parse_kernel(decoded.kernel_text);
        }
        service::CacheKey key;
        {
            SpanGuard span(&tracer, "service.cache_key", parent, id);
            key = service::compute_cache_key(kernel, decoded.options);
            span.close();
            cache_key_ms.push_back(tracer.duration_ms(span.id()));
        }
        service::LoadResult loaded;
        {
            SpanGuard span(&tracer, "service.disk_load", parent, id);
            loaded = probe.load(key);
            span.close();
            if (loaded.status == service::LoadStatus::kHit) {
                disk_load_ms.push_back(tracer.duration_ms(span.id()));
                entry_bytes.push_back(
                    static_cast<double>(fs::file_size(probe.path_for(key))));
            }
        }
        if (loaded.status == service::LoadStatus::kHit) {
            SpanGuard span(&tracer, "service.reconstruct", parent, id);
            const CompiledKernel rebuilt =
                service::compiled_from_entry(kernel, *loaded.entry);
            span.close();
            reconstruct_ms.push_back(tracer.duration_ms(span.id()));
        }
        service::ResultPtr result;
        double direct_ms = 0.0;
        {
            SpanGuard span(&tracer, "service.submit", parent, id);
            const service::Ticket ticket =
                direct.submit(kernel, decoded.options);
            result = ticket.future.get();
            span.close();
            direct_ms = tracer.duration_ms(span.id());
            switch (ticket.outcome()) {
              case service::CacheOutcome::kMemoryHit:
                ++memory_hits;
                break;
              case service::CacheOutcome::kDiskHit:
                ++disk_hits;
                queue_wait_ms.push_back(ticket.queue_wait_seconds() * 1e3);
                break;
              default:
                ++misses;
                queue_wait_ms.push_back(ticket.queue_wait_seconds() * 1e3);
            }
        }
        if (!result->ok) {
            ++outcome.failed;
            continue;
        }
        daemon::CompileResponse response;
        {
            SpanGuard span(&tracer, "service.make_entry", parent, id);
            response.status = daemon::ResponseStatus::kOk;
            response.entry =
                service::make_entry(key, decoded.options, *result->compiled);
        }
        if (r.hot < 0) {
            SpanGuard span(&tracer, "service.disk_store", parent, id);
            store_probe.store(*response.entry);
            span.close();
            disk_store_ms.push_back(tracer.duration_ms(span.id()));
        }
        {
            SpanGuard span(&tracer, "daemon.protocol", parent, id);
            payload = daemon::encode_compile_response(response);
            const daemon::CompileResponse back =
                daemon::decode_compile_response(payload);
            span.close();
            codec_us += tracer.duration_ms(span.id()) * 1e3;
        }
        {
            SpanGuard span(&tracer, "daemon.frame", parent, id);
            frame_round_trip(daemon::FrameType::kCompileResponse, id, payload);
            span.close();
            frame_codec_us += tracer.duration_ms(span.id()) * 1e3;
        }
        protocol_us.push_back(codec_us);
        frame_us.push_back(frame_codec_us);
        std::optional<daemon::CompileResponse> served;
        const std::uint64_t detours_before = detours(remote);
        {
            SpanGuard span(&tracer, "daemon.remote", parent, id);
            served = remote.compile(req);
            span.close();
            remote_ms.push_back(tracer.duration_ms(span.id()));
            overhead_ms.push_back(remote_ms.back() - direct_ms);
        }
        request.close();
        parent_ms += tracer.duration_ms(parent);
        children_ms += tracer.children_ms(parent);

        const std::uint64_t want =
            r.hot >= 0 ? setup->hot[r.hot].fingerprint
                       : fingerprint(result->compiled->c_source);
        if (!served) {
            ++lost;
            ++outcome.failed;
        } else if (served->status != daemon::ResponseStatus::kOk ||
                   !served->entry || detours(remote) != detours_before) {
            ++outcome.failed;
        } else if (fingerprint(served->entry->c_source) != want ||
                   fingerprint(result->compiled->c_source) != want) {
            ++mismatched;
        }
    }

    const double total =
        static_cast<double>(outcome.attempted - kWarmupRequests);
    Metrics& m = outcome.metrics;
    m.set("service.cache_key_ms", mean(cache_key_ms), "ms");
    m.set("service.queue_wait_ms", mean(queue_wait_ms), "ms");
    m.set("service.memory_hit_ratio", static_cast<double>(memory_hits) / total,
          "ratio");
    m.set("service.disk_hit_ratio", static_cast<double>(disk_hits) / total,
          "ratio");
    m.set("service.miss_ratio", static_cast<double>(misses) / total, "ratio");
    m.set("service.disk_load_ms", mean(disk_load_ms), "ms");
    m.set("service.reconstruct_ms", mean(reconstruct_ms), "ms");
    m.set("service.entry_bytes", mean(entry_bytes), "bytes");
    m.set("service.disk_store_ms", mean(disk_store_ms), "ms");
    m.set("daemon.protocol_codec_us", mean(protocol_us), "us");
    m.set("daemon.frame_codec_us", mean(frame_us), "us");
    m.set("daemon.overhead_ms", median(overhead_ms), "ms");
    m.set("daemon.wall_ms_p50", median(remote_ms), "ms");
    m.set("daemon.wall_ms_p95", percentile(remote_ms, 95.0), "ms");
    m.set("daemon.retries",
          static_cast<double>(remote.counters().remote_retries), "count");
    m.set("daemon.fallback_local", static_cast<double>(lost), "count");
    m.set("daemon.frames_rejected",
          static_cast<double>(setup->daemon->frames_rejected()), "count");
    outcome.failed += mismatched;
    outcome.correct = mismatched == 0;
    m.set("failed_ratio",
          static_cast<double>(outcome.failed) /
              static_cast<double>(outcome.attempted),
          "ratio");
    m.set("trace.child_coverage",
          parent_ms > 0.0 ? children_ms / parent_ms : 0.0, "ratio");

    const std::string trace_path = args.work_dir + "/trace-serve.json";
    tracer.write_chrome_json(trace_path);
    std::fprintf(stderr,
                 "perfbench: serve: traced %llu requests; spans in %s\n",
                 static_cast<unsigned long long>(outcome.attempted),
                 trace_path.c_str());
    return outcome;
}

}  // namespace

RunOutcome
run_serve(const Args& args)
{
    return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
