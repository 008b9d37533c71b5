/**
 * @file
 * dioscc — the Diospyros command-line compiler.
 *
 * Compiles a kernel written in the textual input language (see
 * src/scalar/parse.h) through the full pipeline and reports the result:
 *
 *   dioscc <kernel.ksp> [options]
 *
 * Options:
 *   --width N       target vector width (default 4)
 *   --iters N       saturation iteration budget (default 12)
 *   --nodes N       e-graph node limit (default 300000)
 *   --timeout S     saturation wall-clock budget in seconds (default 20;
 *                   fractions allowed, e.g. 0.5)
 *   --deadline S    wall-clock budget for the WHOLE compile (all phases
 *                   share one deadline; the final degradation rung is
 *                   exempt so a result is always produced)
 *   --memory BYTES  e-graph memory ceiling for saturation (proxy bytes)
 *   --no-vector     disable vector rewrite rules (§5.6 ablation)
 *   --ac            enable full associativity/commutativity (§3.3)
 *   --recip         target has a fast reciprocal (§6 extension)
 *   --validate      run translation validation
 *   --verify-ir     run the static-analysis gates (e-graph audit + VIR
 *                   verifier) inside the compile; always on in debug and
 *                   sanitizer builds
 *   --verify-machine
 *                   run the machine-code gates: structural verification
 *                   of the emitted program (M001-M007), the scheduler-
 *                   preservation proof (M008), and symbolic machine-level
 *                   translation validation of the scheduled code against
 *                   the spec (M009, with a concrete counterexample
 *                   witness on NOT-equivalent). The structural gates are
 *                   always on in debug and sanitizer builds; this flag
 *                   opts release builds in and additionally enables the
 *                   symbolic validation. With --json the verdict lands in
 *                   "machine_validation" / "machine_witness"
 *   --lint-rules    lint every registered rewrite rule for soundness
 *                   against the fingerprint validator and exit (no kernel
 *                   required); non-zero exit if any rule is unsound
 *   --strategy S    saturation strategy: a built-in name ("default",
 *                   "phased") or a strategy file in the s-expression DSL
 *                   (src/strategy/parse.h). Phases, per-phase limits,
 *                   rule schedulers and sketch goals replace the single
 *                   monolithic saturation run; with --json the report
 *                   gains a per-phase "phases" array. A bad name/file
 *                   exits 2 with the S4xx diagnostics.
 *   --lint-strategies
 *                   check every built-in strategy (rule references
 *                   resolve against the registered rule set; canonical
 *                   rendering round-trips through the parser) and exit;
 *                   non-zero exit on any failure
 *   --strict        raw pipeline: fail outright instead of walking the
 *                   degradation ladder on errors
 *   --fault SPEC    arm a fault site, SPEC = site[:nth[:count|*]]
 *                   (also honoured from the DIOS_FAULT env var)
 *   --list-faults   print the fault-site catalog and exit
 *   --emit-c        print the generated C intrinsics
 *   --emit-native   print a host-compilable multi-ISA C kernel
 *                   (SSE/AVX2/AVX-512/NEON leaves + CPU dispatch; see
 *                   machine/emit_c.h)
 *   --emit-asm      print the scheduled DSP assembly
 *   --emit-spec     print the lifted specification
 *   --emit-dot FILE write the e-graph as Graphviz (debugging): saturation
 *                   re-run exactly as the full-pipeline compile ran it
 *                   (same strategy, limits and deadline)
 *   --json          print the compile report as a JSON object
 *   --run           run on random inputs and compare with the baselines
 *   --seed N        RNG seed for --run (default 1)
 *
 * Batch mode (the compile service):
 *   --batch FILE    compile every kernel listed in FILE (one path per
 *                   line; blank lines and '#' comments skipped) through
 *                   the concurrent compile service. With --json, prints
 *                   ONE JSON array with a per-kernel report. The exit
 *                   code is non-zero only for user errors (bad manifest,
 *                   unparsable kernel, invalid options) — degraded or
 *                   failed compiles are reported in-band.
 *   --jobs N        worker threads for --batch (default 1)
 *   --cache-dir D   persistent compile cache directory (also honoured in
 *                   single-kernel mode: a warm run is served from cache)
 *   --cache-disk-budget BYTES
 *                   on-disk cache size budget: the recovery scan evicts
 *                   oldest entries (mtime LRU) past this many bytes
 *                   (0 = unlimited, the default)
 *   --io-retries N  bounded retries (deterministic backoff) for
 *                   transient cache-store I/O failures (default 2)
 *
 * Admission control (service paths: --batch, or --cache-dir):
 *   --priority P    admission class: interactive | batch | background
 *                   (default: interactive for single kernels, batch for
 *                   --batch). Workers drain interactive first; past the
 *                   shed watermark only interactive is admitted.
 *   --submit-timeout-ms N
 *                   wait at most N ms for queue space, then shed with a
 *                   structured Overloaded result (0 = shed immediately;
 *                   default: block indefinitely)
 *   --neg-cache-ttl-s S
 *                   remember deterministic failures for S seconds and
 *                   serve them without recompiling (0 disables the
 *                   failure memory and circuit breaker; default 300)
 *   --shed-watermark N
 *                   once N jobs are queued, shed batch/background
 *                   submits immediately (0 = only the hard queue
 *                   capacity sheds, the default)
 *
 *   Shed or breaker-rejected kernels are reported in-band: the batch
 *   JSON carries "cache":"shed"/"breaker-open"/"negative-hit", the
 *   retry hint in "retry_after_ms", and per-kernel "queue_wait_ms".
 *
 * Remote mode (DESIGN.md §5j; serve with the standalone diosd binary):
 *   --remote SOCK   compile via a diosd daemon at SOCK instead of
 *                   in-process (single-kernel and --batch). Retries under
 *                   bounded exponential backoff with jitter, honours shed
 *                   retry_after_ms hints, and replays torn requests
 *                   against the daemon's dedup table. If the daemon
 *                   stays unreachable, falls back to a local in-process
 *                   compile ("cache":"local-fallback" in --json) — the
 *                   bytes of a successful result never depend on the
 *                   transport
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>

#include "analysis/diagnostics.h"
#include "daemon/client.h"
#include "analysis/lint_rules.h"
#include "analysis/verify_machine.h"
#include "compiler/driver.h"
#include "machine/emit_c.h"
#include "service/compile_service.h"
#include "rules/rules.h"
#include "scalar/lower.h"
#include "scalar/parse.h"
#include "strategy/parse.h"
#include "strategy/strategy.h"
#include "support/faults.h"
#include "support/json.h"
#include "support/numeric.h"
#include "support/rng.h"

using namespace diospyros;

namespace {

struct CliOptions {
    std::string path;
    CompilerOptions compiler;
    bool emit_c = false;
    bool emit_native = false;
    bool emit_asm = false;
    bool emit_spec = false;
    bool json = false;
    bool run = false;
    bool strict = false;
    bool lint_rules = false;
    bool lint_strategies = false;
    std::string dot_path;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string cache_dir;
    std::uintmax_t cache_disk_budget = 0;
    std::string batch_path;
    /** Admission-control knobs (service paths only). */
    service::Priority priority = service::Priority::kBatch;
    bool priority_set = false;
    double submit_timeout_seconds = -1.0;  ///< < 0: block (legacy)
    double neg_cache_ttl_seconds = 300.0;
    std::size_t shed_watermark = 0;
    /** Remote mode: compile via a diosd daemon at this socket. */
    std::string remote_socket;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <kernel.ksp> [--width N] [--iters N] "
                 "[--nodes N] [--timeout S] [--deadline S] [--memory B] "
                 "[--no-vector] [--ac] [--recip] [--validate] "
                 "[--verify-ir] [--verify-machine] [--lint-rules] "
                 "[--strategy NAME|FILE] "
                 "[--lint-strategies] [--strict] "
                 "[--fault SPEC] [--list-faults] [--emit-c] "
                 "[--emit-native] [--emit-asm] "
                 "[--emit-spec] [--emit-dot FILE] [--json] [--run] "
                 "[--seed N] [--batch FILE] [--jobs N] [--cache-dir D] "
                 "[--cache-disk-budget BYTES] [--io-retries N] "
                 "[--priority interactive|batch|background] "
                 "[--submit-timeout-ms N] [--neg-cache-ttl-s S] "
                 "[--shed-watermark N] [--remote SOCK]\n",
                 argv0);
    std::exit(2);
}

CliOptions
parse_cli(int argc, char** argv)
{
    CliOptions cli;
    cli.compiler.limits = RunnerLimits{.node_limit = 300'000,
                                       .iter_limit = 12,
                                       .time_limit_seconds = 20.0};
    // Strict numeric parsing: the whole token must parse and limits must
    // be positive ("--timeout 0.5" works; "--iters abc" is rejected
    // instead of silently becoming 0).
    auto next_arg = [&](int& i) -> std::string {
        if (i + 1 >= argc) {
            usage(argv[0]);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--width") {
            cli.compiler.target.vector_width = static_cast<int>(
                require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--iters") {
            cli.compiler.limits.iter_limit = static_cast<int>(
                require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--nodes") {
            cli.compiler.limits.node_limit = static_cast<std::size_t>(
                require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--timeout") {
            cli.compiler.limits.time_limit_seconds =
                require_positive_number(arg, next_arg(i));
        } else if (arg == "--deadline") {
            cli.compiler.deadline_seconds =
                require_positive_number(arg, next_arg(i));
        } else if (arg == "--memory") {
            cli.compiler.limits.memory_limit_bytes =
                static_cast<std::size_t>(
                    require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--no-vector") {
            cli.compiler.rules.enable_vector_rules = false;
        } else if (arg == "--ac") {
            cli.compiler.rules.full_ac = true;
        } else if (arg == "--recip") {
            cli.compiler.target.has_reciprocal = true;
        } else if (arg == "--validate") {
            cli.compiler.validate = true;
            cli.compiler.random_check = true;
        } else if (arg == "--verify-ir") {
            cli.compiler.verify_ir = true;
        } else if (arg == "--verify-machine") {
            cli.compiler.verify_machine = true;
        } else if (arg == "--lint-rules") {
            cli.lint_rules = true;
        } else if (arg == "--strategy") {
            const std::string ref = next_arg(i);
            analysis::DiagEngine diags;
            auto strat = strategy::load_strategy(ref, diags);
            if (!strat) {
                // Structured UserError, same convention as every other
                // bad flag value: "dioscc: error: ..." and exit 2.
                throw UserError("--strategy " + ref + ":\n" +
                                diags.render_text());
            }
            cli.compiler.strategy = std::move(*strat);
        } else if (arg == "--lint-strategies") {
            cli.lint_strategies = true;
        } else if (arg == "--strict") {
            cli.strict = true;
        } else if (arg == "--fault") {
            cli.compiler.fault_specs.push_back(next_arg(i));
        } else if (arg == "--list-faults") {
            for (const std::string& site : faults::known_sites()) {
                std::printf("%s\n", site.c_str());
            }
            std::exit(0);
        } else if (arg == "--emit-c") {
            cli.emit_c = true;
        } else if (arg == "--emit-native") {
            cli.emit_native = true;
        } else if (arg == "--emit-asm") {
            cli.emit_asm = true;
        } else if (arg == "--emit-spec") {
            cli.emit_spec = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--emit-dot") {
            cli.dot_path = next_arg(i);
        } else if (arg == "--run") {
            cli.run = true;
        } else if (arg == "--jobs") {
            cli.jobs = static_cast<int>(
                require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--cache-dir") {
            cli.cache_dir = next_arg(i);
        } else if (arg == "--cache-disk-budget") {
            cli.cache_disk_budget = static_cast<std::uintmax_t>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (arg == "--io-retries") {
            cli.compiler.io_retries = static_cast<int>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (arg == "--batch") {
            cli.batch_path = next_arg(i);
        } else if (arg == "--priority") {
            cli.priority = service::parse_priority(next_arg(i));
            cli.priority_set = true;
        } else if (arg == "--submit-timeout-ms") {
            cli.submit_timeout_seconds =
                static_cast<double>(
                    require_nonnegative_integer(arg, next_arg(i))) /
                1000.0;
        } else if (arg == "--neg-cache-ttl-s") {
            cli.neg_cache_ttl_seconds =
                require_nonnegative_number(arg, next_arg(i));
        } else if (arg == "--shed-watermark") {
            cli.shed_watermark = static_cast<std::size_t>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (arg == "--remote") {
            cli.remote_socket = next_arg(i);
        } else if (arg == "--seed") {
            cli.seed = static_cast<std::uint64_t>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else if (cli.path.empty()) {
            cli.path = arg;
        } else {
            usage(argv[0]);
        }
    }
    if (cli.path.empty() && cli.batch_path.empty() && !cli.lint_rules &&
        !cli.lint_strategies) {
        usage(argv[0]);
    }
    return cli;
}

scalar::BufferMap
random_inputs(const scalar::Kernel& kernel, std::uint64_t seed)
{
    Rng rng(seed);
    scalar::BufferMap out;
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

/**
 * One per-kernel report object (no trailing newline): the single-kernel
 * --json payload, and one element of the --batch --json array.
 */
void
print_json_object(const std::string& kernel_name, const CompileReport& r,
                  const char* cache, double queue_wait_ms = 0.0)
{
    std::printf(
        "{\"kernel\":\"%s\",\"ok\":true,\"cache\":\"%s\","
        "\"queue_wait_ms\":%.3f,"
        "\"total_seconds\":%.6f,\"lift_seconds\":%.6f,"
        "\"saturation_seconds\":%.6f,\"extract_seconds\":%.6f,"
        "\"backend_seconds\":%.6f,\"egraph_nodes\":%zu,"
        "\"egraph_classes\":%zu,\"iterations\":%zu,"
        "\"stop\":\"%s\",\"extracted_cost\":%.2f,"
        "\"spec_elements\":%zu,\"memory_proxy_bytes\":%zu,"
        "\"lvn_removed\":%zu,\"fallback_level\":%d,"
        "\"fallback\":\"%s\",\"error\":\"%s\","
        "\"validation\":\"%s\",\"random_check_passed\":%s,"
        "\"machine_validation\":\"%s\",\"machine_validated\":%s,"
        "\"machine_witness\":\"%s\",\"attempts\":[",
        json_escape(kernel_name).c_str(), cache, queue_wait_ms,
        r.total_seconds, r.lift_seconds, r.saturation_seconds,
        r.extract_seconds, r.backend_seconds, r.egraph_nodes,
        r.egraph_classes,
        r.runner_iterations, stop_reason_name(r.stop_reason),
        r.extracted_cost, r.spec_elements, r.memory_proxy_bytes,
        r.lvn.value_numbered + r.lvn.dead_removed, r.fallback_level,
        fallback_level_name(r.fallback_level),
        json_escape(r.error).c_str(), verdict_name(r.validation),
        r.random_check_passed ? "true" : "false",
        verdict_name(r.machine_validation),
        r.machine_validated ? "true" : "false",
        json_escape(r.machine_witness).c_str());
    for (std::size_t i = 0; i < r.attempts.size(); ++i) {
        const AttemptDiagnostic& a = r.attempts[i];
        std::printf("%s{\"level\":%d,\"rung\":\"%s\",\"seconds\":%.6f,"
                    "\"error\":\"%s\"}",
                    i == 0 ? "" : ",", a.level,
                    fallback_level_name(a.level), a.seconds,
                    json_escape(a.error).c_str());
    }
    // Per-rule e-matching profile (rule-set order), plus the totals.
    std::size_t ematch_matches = 0;
    double ematch_search = 0.0;
    double ematch_apply = 0.0;
    std::printf("],\"rule_stats\":[");
    for (std::size_t i = 0; i < r.rule_stats.size(); ++i) {
        const RuleStats& s = r.rule_stats[i];
        ematch_matches += s.matches;
        ematch_search += s.search_seconds;
        ematch_apply += s.apply_seconds;
        std::printf("%s{\"rule\":\"%s\",\"matches\":%zu,"
                    "\"applications\":%zu,\"search_seconds\":%.6f,"
                    "\"apply_seconds\":%.6f,\"times_banned\":%d,"
                    "\"banned_until\":%d}",
                    i == 0 ? "" : ",", json_escape(s.name).c_str(),
                    s.matches, s.applications, s.search_seconds,
                    s.apply_seconds, s.times_banned, s.banned_until);
    }
    std::printf("],\"ematch_matches\":%zu,\"ematch_search_seconds\":%.6f,"
                "\"ematch_apply_seconds\":%.6f",
                ematch_matches, ematch_search, ematch_apply);
    // Per-iteration saturation profile ("iterations" is the count).
    std::printf(",\"iteration_stats\":[");
    for (std::size_t i = 0; i < r.iterations.size(); ++i) {
        const IterationStats& it = r.iterations[i];
        std::printf("%s{\"search_seconds\":%.6f,\"apply_seconds\":%.6f,"
                    "\"rebuild_seconds\":%.6f,\"nodes_after\":%zu,"
                    "\"classes_after\":%zu}",
                    i == 0 ? "" : ",", it.search_seconds, it.apply_seconds,
                    it.rebuild_seconds, it.nodes_after, it.classes_after);
    }
    std::printf("]");
    // Strategy runs: the schedule's identity and per-phase telemetry.
    std::printf(",\"strategy\":\"%s\",\"goal_satisfied\":%s,\"phases\":[",
                json_escape(r.strategy_name).c_str(),
                r.strategy_goal_satisfied ? "true" : "false");
    for (std::size_t i = 0; i < r.strategy_phases.size(); ++i) {
        const strategy::PhaseReport& p = r.strategy_phases[i];
        std::size_t matches = 0;
        std::size_t applications = 0;
        for (const RuleStats& s : p.runner.rule_stats) {
            matches += s.matches;
            applications += s.applications;
        }
        std::printf(
            "%s{\"phase\":\"%s\",\"runs\":%d,\"skipped\":%s,"
            "\"stop\":\"%s\",\"iterations\":%zu,\"nodes\":%zu,"
            "\"classes\":%zu,\"matches\":%zu,\"applications\":%zu,"
            "\"sketch_checked\":%s,\"sketch_satisfied\":%s,"
            "\"seconds\":%.6f,\"rule_stats\":[",
            i == 0 ? "" : ",", json_escape(p.name).c_str(), p.runs,
            p.skipped ? "true" : "false",
            p.skipped ? "skipped" : stop_reason_name(p.runner.stop_reason),
            p.runner.iterations.size(), p.runner.final_nodes,
            p.runner.final_classes, matches, applications,
            p.sketch_checked ? "true" : "false",
            p.sketch_satisfied ? "true" : "false", p.seconds);
        for (std::size_t j = 0; j < p.runner.rule_stats.size(); ++j) {
            const RuleStats& s = p.runner.rule_stats[j];
            std::printf("%s{\"rule\":\"%s\",\"matches\":%zu,"
                        "\"applications\":%zu,\"times_banned\":%d,"
                        "\"banned_until\":%d}",
                        j == 0 ? "" : ",", json_escape(s.name).c_str(),
                        s.matches, s.applications, s.times_banned,
                        s.banned_until);
        }
        std::printf("]}");
    }
    std::printf("]}");
}

/**
 * Report object for a kernel that produced no result at all: parse
 * failures, compile failures, and admission rejections alike. Shed and
 * breaker-open rejections carry their structured retry hint.
 */
void
print_json_failure(const std::string& kernel_name, const std::string& error,
                   bool user_error, const char* cache,
                   double queue_wait_ms = 0.0,
                   std::uint64_t retry_after_ms = 0)
{
    std::printf("{\"kernel\":\"%s\",\"ok\":false,\"cache\":\"%s\","
                "\"queue_wait_ms\":%.3f,\"retry_after_ms\":%llu,"
                "\"user_error\":%s,\"fallback_level\":-1,\"error\":\"%s\"}",
                json_escape(kernel_name).c_str(), cache, queue_wait_ms,
                static_cast<unsigned long long>(retry_after_ms),
                user_error ? "true" : "false", json_escape(error).c_str());
}

/** Reads a --batch manifest: one kernel path per line, '#' comments. */
std::vector<std::string>
read_manifest(const std::string& path)
{
    std::ifstream in(path);
    DIOS_CHECK(in.good(), "cannot open batch manifest '" + path + "'");
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        const auto begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos || line[begin] == '#') {
            continue;
        }
        const auto end = line.find_last_not_of(" \t\r");
        out.push_back(line.substr(begin, end - begin + 1));
    }
    DIOS_CHECK(!out.empty(),
               "batch manifest '" + path + "' lists no kernels");
    return out;
}

// ---------------------------------------------------------------------------
// Signal handling (--batch): a Ctrl-C or SIGTERM must drain the service
// and still flush ONE well-formed --json document.
// ---------------------------------------------------------------------------

std::atomic<bool> g_interrupted{false};

void
handle_stop_signal(int)
{
    g_interrupted.store(true);
}

void
install_stop_handlers()
{
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/** Whole-file read (the raw kernel text shipped to a remote daemon). */
std::string
slurp_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    DIOS_CHECK(in.good(), "cannot open kernel file '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Client-side counters rendered as a ServiceMetrics JSON document. */
std::string
remote_metrics_json(const daemon::ClientCounters& counters)
{
    service::ServiceMetrics m;
    m.remote_requests = counters.remote_requests;
    m.remote_retries = counters.remote_retries;
    m.remote_fallback_local = counters.remote_fallback_local;
    return m.to_json();
}

/** Rejects flag combinations no compile path honours, before any work. */
void
check_flag_combinations(const CliOptions& cli)
{
    if (!cli.batch_path.empty()) {
        DIOS_CHECK(!cli.strict && !cli.run && !cli.emit_c &&
                       !cli.emit_native && !cli.emit_asm &&
                       !cli.emit_spec && cli.dot_path.empty() &&
                       cli.path.empty(),
                   "--batch combines only with --json, --jobs, --cache-dir, "
                   "--cache-disk-budget, --remote, the admission flags, "
                   "and compiler options");
    }
    DIOS_CHECK(cli.remote_socket.empty() || !cli.strict,
               "--remote and --strict do not combine: the strict path is "
               "local by definition");
}

/** How one kernel's compile came out, whichever path produced it. */
struct KernelOutcome {
    /** The kernel's name, or its path when it did not parse. */
    std::string name;
    /** `compiled` is engaged iff `ok`. */
    CompileResult result;
    /** The --json "cache" label: none, miss, hit, remote, ... */
    const char* cache = "none";
    /** Service paths: the cache outcome ("disk-hit", ...). */
    const char* service_cache = nullptr;
    double queue_wait_ms = 0.0;
    std::uint64_t retry_after_ms = 0;
};

/**
 * The compile path of one dioscc run, shared by all its kernels: a diosd
 * daemon (compiling locally when it stays unreachable), the raw pipeline
 * (--strict), the compile service (--batch, --cache-dir), or a plain
 * resilient compile. start() parses a kernel and, on the service,
 * submits it, so the workers run while later kernels are still being
 * read; finish() waits for the result.
 */
class KernelCompiler {
  public:
    struct Job {
        std::string path;
        std::optional<scalar::Kernel> kernel;
        /** --remote: the kernel text shipped to the daemon. */
        std::string text;
        /** Why the kernel could not be started (a user error). */
        std::string error;
        std::optional<service::Ticket> ticket;
    };

    KernelCompiler(const CliOptions& cli, std::size_t kernels) : cli_(cli)
    {
        const bool batch = !cli.batch_path.empty();
        // A human at the keyboard is the definition of interactive.
        priority_ = cli.priority_set ? cli.priority
                    : batch          ? service::Priority::kBatch
                                     : service::Priority::kInteractive;
        if (!cli.remote_socket.empty()) {
            daemon::RemoteOptions ropts;
            ropts.socket_path = cli.remote_socket;
            ropts.jitter_seed = cli.seed;
            remote_.emplace(ropts);
        } else if (!cli.strict && (batch || !cli.cache_dir.empty())) {
            // The service serves a warm --cache-dir run from the
            // persistent cache instead of re-saturating.
            service::CompileService::Options sopts;
            sopts.jobs = cli.jobs;
            sopts.cache_dir = cli.cache_dir;
            sopts.disk_budget_bytes = cli.cache_disk_budget;
            // Room for every kernel: submit never blocks here.
            sopts.queue_capacity =
                std::max(sopts.queue_capacity, kernels + 1);
            sopts.negative_ttl_seconds = cli.neg_cache_ttl_seconds;
            sopts.shed_watermark = cli.shed_watermark;
            service_.emplace(sopts);
        }
    }

    Job
    start(const std::string& path)
    {
        Job job;
        job.path = path;
        try {
            job.kernel = scalar::parse_kernel_file(path);
            if (remote_) {
                job.text = slurp_file(path);
            }
            if (service_) {
                service::SubmitOptions subopts;
                subopts.priority = priority_;
                subopts.submit_timeout_seconds = cli_.submit_timeout_seconds;
                job.ticket =
                    service_->submit(*job.kernel, cli_.compiler, subopts);
            }
        } catch (const UserError& e) {
            job.error = e.what();
        }
        return job;
    }

    KernelOutcome
    finish(Job& job)
    {
        KernelOutcome out;
        out.name = job.kernel ? job.kernel->name : job.path;
        if (!job.error.empty()) {
            out.result.error = job.error;
            out.result.user_error = true;
            out.result.failure_class = FailureClass::kUser;
        } else if (job.ticket) {
            wait(*job.ticket);
            out.result = job.ticket->get();
            const service::CacheOutcome outcome = job.ticket->outcome();
            out.cache = service::cache_outcome_json_name(outcome);
            out.service_cache = service::cache_outcome_name(outcome);
            out.queue_wait_ms = job.ticket->queue_wait_seconds() * 1000.0;
            out.retry_after_ms = job.ticket->retry_after_ms();
        } else if (g_interrupted.load()) {
            out.result.error = "interrupted by signal";
        } else if (!remote_ || !compile_remote(job, out)) {
            if (remote_) {
                out.cache = "local-fallback";
            }
            out.result = compile_local(*job.kernel);
        }
        return out;
    }

    /** The closing metrics line of a batch. */
    void
    print_metrics(std::FILE* info) const
    {
        if (service_) {
            std::fprintf(info, "; service metrics: %s\n",
                         service_->metrics().to_json().c_str());
        } else if (remote_) {
            std::fprintf(info, "; remote metrics: %s\n",
                         remote_metrics_json(remote_->counters()).c_str());
        }
    }

  private:
    /**
     * One compile through the daemon. False when it stayed unreachable
     * (or kept shedding): the caller then compiles locally with the
     * same pipeline and options, so the artifact bytes do not change,
     * only the process that computed them.
     */
    bool
    compile_remote(const Job& job, KernelOutcome& out)
    {
        daemon::CompileRequest req;
        req.kernel_name = job.kernel->name;
        req.kernel_text = job.text;
        req.options = cli_.compiler;
        req.priority = priority_;
        req.submit_timeout_seconds = cli_.submit_timeout_seconds;
        const std::uint64_t retries = remote_->counters().remote_retries;
        const std::optional<daemon::CompileResponse> resp =
            remote_->compile(req);
        if (!resp) {
            std::fprintf(stderr,
                         "; daemon unreachable after %llu retries: "
                         "compiling locally\n",
                         static_cast<unsigned long long>(
                             remote_->counters().remote_retries - retries));
            return false;
        }
        out.cache = "remote";
        if (resp->status == daemon::ResponseStatus::kOk) {
            out.result.ok = true;
            out.result.compiled =
                service::compiled_from_entry(*job.kernel, *resp->entry);
            out.result.fallback_level =
                out.result.compiled->report.fallback_level;
        } else {
            out.result.error = resp->error;
            out.result.failure_class = resp->failure_class;
            out.result.user_error = resp->failure_class == FailureClass::kUser;
            out.retry_after_ms = resp->retry_after_ms;
        }
        return true;
    }

    CompileResult
    compile_local(const scalar::Kernel& kernel) const
    {
        if (!cli_.strict) {
            return compile_kernel_resilient(kernel, cli_.compiler);
        }
        // --strict: the raw pipeline, which throws on any failure. The
        // resilient driver arms --fault specs itself; this path must arm
        // them here or they would be silently ignored.
        for (const std::string& spec : cli_.compiler.fault_specs) {
            faults::arm(faults::parse_spec(spec));
        }
        CompileResult result;
        result.ok = true;
        result.compiled = compile_kernel(kernel, cli_.compiler);
        return result;
    }

    /**
     * Polls instead of blocking so a SIGINT/SIGTERM mid-batch sheds the
     * queue and every remaining ticket resolves with a structured
     * Overloaded result — the JSON array always closes.
     */
    void
    wait(const service::Ticket& ticket)
    {
        while (ticket.future.wait_for(std::chrono::milliseconds(100)) !=
               std::future_status::ready) {
            if (g_interrupted.load() && !drained_) {
                std::fprintf(stderr,
                             "dioscc: interrupted: shedding queued "
                             "kernels\n");
                service_->drain(service::DrainMode::kShed);
                drained_ = true;
            }
        }
    }

    const CliOptions& cli_;
    service::Priority priority_;
    std::optional<daemon::RemoteClient> remote_;
    std::optional<service::CompileService> service_;
    bool drained_ = false;
};

/**
 * Reports one kernel's outcome: the commentary row (in single-kernel
 * runs also the DEGRADED and compile-cache lines) or the error, and
 * with --json the report object. A failed single kernel prints no
 * object; its exit code carries the failure. Returns whether it
 * compiled.
 */
bool
report_outcome(const CliOptions& cli, const KernelOutcome& o,
               std::FILE* info)
{
    const bool batch = !cli.batch_path.empty();
    const CompileResult& result = o.result;
    if (!result.ok) {
        std::fprintf(stderr, "dioscc: error: %s%s%s\n",
                     batch ? o.name.c_str() : "", batch ? ": " : "",
                     result.error.c_str());
        if (result.attempts.size() > 1) {
            for (const AttemptDiagnostic& a : result.attempts) {
                std::fprintf(stderr, ";   rung %d (%s): %s\n", a.level,
                             fallback_level_name(a.level), a.error.c_str());
            }
        }
        if (cli.json && batch) {
            print_json_failure(o.name, result.error, result.user_error,
                               o.cache, o.queue_wait_ms, o.retry_after_ms);
        }
        return false;
    }
    const CompileReport& r = result.report();
    if (batch) {
        std::fprintf(info, "; [%s] %s\n", o.cache,
                     report_row(o.name, r).c_str());
    } else {
        if (r.fallback_level > 0) {
            std::fprintf(info, "; DEGRADED to rung %d (%s) after: %s\n",
                         r.fallback_level,
                         fallback_level_name(r.fallback_level),
                         r.error.c_str());
        }
        if (o.service_cache != nullptr) {
            std::fprintf(info, "; compile cache: %s\n", o.service_cache);
        }
        std::fprintf(info, "; %s\n", report_row(o.name, r).c_str());
    }
    if (cli.json) {
        print_json_object(o.name, r, o.cache, o.queue_wait_ms);
        if (!batch) {
            std::printf("\n");
        }
    }
    return true;
}

/**
 * --batch driver: every manifest kernel through one compile path (the
 * service, or a daemon with local fallback). Returns non-zero only when
 * some kernel failed with a *user* error.
 */
int
run_batch(const CliOptions& cli)
{
    install_stop_handlers();
    std::FILE* info = cli.json ? stderr : stdout;
    const std::vector<std::string> paths = read_manifest(cli.batch_path);
    KernelCompiler compiler(cli, paths.size());
    std::vector<KernelCompiler::Job> jobs;
    jobs.reserve(paths.size());
    for (const std::string& path : paths) {
        jobs.push_back(compiler.start(path));
    }

    bool any_user_error = false;
    if (cli.json) {
        std::printf("[");
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cli.json && i > 0) {
            std::printf(",");
        }
        const KernelOutcome outcome = compiler.finish(jobs[i]);
        if (!report_outcome(cli, outcome, info)) {
            any_user_error = any_user_error || outcome.result.user_error;
        }
    }
    if (cli.json) {
        std::printf("]\n");
    }
    compiler.print_metrics(info);
    return any_user_error ? 2 : 0;
}

/**
 * The maximal rule configuration at the given width: every optional rule
 * family on, so the linter covers the whole inventory in one pass.
 */
RuleConfig
maximal_rule_config(int width)
{
    RuleConfig config(width);
    config.enable_scalar_rules = true;
    config.enable_vector_rules = true;
    config.full_ac = true;
    config.target_has_recip = true;
    return config;
}

/**
 * --lint-rules driver: prove every registered rewrite rule sound at the
 * CLI's vector width. Returns non-zero if any rule is unsound.
 */
int
run_lint_rules(const CliOptions& cli)
{
    const RuleConfig config =
        maximal_rule_config(cli.compiler.target.vector_width);
    const std::vector<analysis::RuleLintResult> results =
        analysis::lint_rules(config);
    for (const analysis::RuleLintResult& r : results) {
        const char* status = "sound";
        if (r.verdict == Verdict::kNotEquivalent) {
            status = "UNSOUND";
        } else if (!r.exercised) {
            status = "unexercised";
        }
        std::printf("%-20s %s%s%s\n", r.rule.c_str(), status,
                    r.detail.empty() ? "" : ": ", r.detail.c_str());
    }
    analysis::DiagEngine diags;
    const bool sound = analysis::lint_to_diags(results, diags);
    if (diags.error_count() > 0 || diags.warning_count() > 0) {
        std::fprintf(stderr, "%s", diags.render_text().c_str());
    }
    std::printf("; linted %zu rules at width %d: %s\n", results.size(),
                config.vector_width, sound ? "all sound" : "UNSOUND");
    return sound ? 0 : 1;
}

/**
 * --lint-strategies driver: every named built-in strategy must (a)
 * resolve all its rule references against the default rule set at the
 * CLI's vector width, and (b) round-trip through its canonical DSL
 * rendering. Returns non-zero on any failure.
 */
int
run_lint_strategies(const CliOptions& cli)
{
    RuleConfig config(cli.compiler.target.vector_width);
    const std::vector<Rewrite> rules = build_rules(config);

    bool ok = true;
    for (const std::string& name : strategy::builtin_strategy_names()) {
        const auto strat = strategy::builtin_strategy(name);
        std::string problems;

        analysis::DiagEngine resolve_diags;
        strategy::resolve_phase_rules(*strat, rules, resolve_diags);
        if (resolve_diags.has_errors()) {
            problems += resolve_diags.render_text();
        }

        analysis::DiagEngine parse_diags;
        const auto reparsed =
            strategy::parse_strategy(strat->to_string(), parse_diags);
        if (!reparsed) {
            problems += "canonical rendering does not parse:\n" +
                        parse_diags.render_text();
        } else if (!(*reparsed == *strat)) {
            problems +=
                "canonical rendering does not round-trip to an equal "
                "strategy\n";
        }

        if (problems.empty()) {
            std::printf("%-12s ok (%zu phases%s)\n", name.c_str(),
                        strat->phases.size(),
                        strat->goal ? ", goal" : "");
        } else {
            ok = false;
            std::printf("%-12s FAILED\n%s", name.c_str(),
                        problems.c_str());
        }
    }
    std::printf("; linted %zu built-in strategies at width %d: %s\n",
                strategy::builtin_strategy_names().size(),
                config.vector_width, ok ? "all ok" : "FAILED");
    return ok ? 0 : 1;
}

/**
 * Debug-build startup self-check: every named built-in strategy must
 * reference only registered rules, so a rule rename cannot silently
 * strand a shipped schedule. Opt out: DIOS_NO_STRATEGY_LINT=1.
 */
void
startup_strategy_lint(int width)
{
#ifndef NDEBUG
    if (std::getenv("DIOS_NO_STRATEGY_LINT") != nullptr) {
        return;
    }
    RuleConfig config(width);
    const std::vector<Rewrite> rules = build_rules(config);
    for (const std::string& name : strategy::builtin_strategy_names()) {
        analysis::DiagEngine diags;
        strategy::resolve_phase_rules(*strategy::builtin_strategy(name),
                                      rules, diags);
        if (diags.has_errors()) {
            std::fprintf(
                stderr,
                "dioscc: strategy self-check failed for '%s':\n%s",
                name.c_str(), diags.render_text().c_str());
            std::exit(1);
        }
    }
#else
    (void)width;
#endif
}

/**
 * Debug-build startup self-check: the machine verifier must accept a
 * known-good program and catch planted bugs (bad shuffle lane, reordered
 * dependent pair), so a broken gate cannot silently wave miscompiles
 * through. Opt out: DIOS_NO_MACHINE_LINT=1.
 */
void
startup_machine_lint()
{
#ifndef NDEBUG
    if (std::getenv("DIOS_NO_MACHINE_LINT") != nullptr) {
        return;
    }
    const std::string problem = analysis::machine_verifier_self_check();
    if (!problem.empty()) {
        std::fprintf(stderr,
                     "dioscc: machine verifier self-check failed: %s\n",
                     problem.c_str());
        std::exit(1);
    }
#endif
}

/**
 * Debug-build startup self-check: lint the full rule inventory before
 * compiling anything, so an unsound rewrite is caught at the front door
 * rather than as a miscompiled kernel. Opt out: DIOS_NO_RULE_LINT=1.
 */
void
startup_rule_lint(int width)
{
#ifndef NDEBUG
    if (std::getenv("DIOS_NO_RULE_LINT") != nullptr) {
        return;
    }
    analysis::DiagEngine diags;
    if (!analysis::lint_to_diags(
            analysis::lint_rules(maximal_rule_config(width)), diags)) {
        std::fprintf(stderr,
                     "dioscc: rule soundness self-check failed:\n%s",
                     diags.render_text().c_str());
        std::exit(1);
    }
#else
    (void)width;
#endif
}

}  // namespace

int
main(int argc, char** argv)
try {
    CliOptions cli = parse_cli(argc, argv);
    faults::arm_from_env();
    if (cli.lint_rules) {
        return run_lint_rules(cli);
    }
    if (cli.lint_strategies) {
        return run_lint_strategies(cli);
    }
    check_flag_combinations(cli);
    startup_rule_lint(cli.compiler.target.vector_width);
    startup_strategy_lint(cli.compiler.target.vector_width);
    startup_machine_lint();
    if (!cli.batch_path.empty()) {
        return run_batch(cli);
    }

    // With --json, stdout must stay machine-parseable; with
    // --emit-native it must stay host-compilable (the ';' commentary
    // is not C). Route the commentary to stderr in both cases.
    std::FILE* info = (cli.json || cli.emit_native) ? stderr : stdout;

    KernelCompiler compiler(cli, 1);
    KernelCompiler::Job job = compiler.start(cli.path);
    if (job.kernel) {
        std::fprintf(info, "; kernel '%s' from %s\n",
                     job.kernel->name.c_str(), cli.path.c_str());
    }
    const KernelOutcome outcome = compiler.finish(job);
    if (!report_outcome(cli, outcome, info)) {
        return outcome.result.user_error ? 2 : 1;
    }
    const scalar::Kernel& kernel = *job.kernel;
    const CompiledKernel& compiled = *outcome.result.compiled;
    if (cli.compiler.validate) {
        std::fprintf(info,
                     "; translation validation: %s; random check: %s\n",
                     verdict_name(compiled.report.validation),
                     compiled.report.random_check_passed ? "passed"
                                                         : "FAILED");
    }
    if (compiled.report.machine_validated) {
        std::fprintf(info, "; machine-level validation: %s%s%s\n",
                     verdict_name(compiled.report.machine_validation),
                     compiled.report.machine_witness.empty() ? "" : "; ",
                     compiled.report.machine_witness.c_str());
    }

    // The padded spec, lifted here from the kernel: an artifact served
    // from --cache-dir or --remote carries no spec, so cold and served
    // compiles take the same path.
    TermRef padded_spec;
    if (cli.emit_spec || !cli.dot_path.empty()) {
        padded_spec = pad_lifted_spec(scalar::lift(kernel),
                                      cli.compiler.target.vector_width)
                          .first;
    }

    if (!cli.dot_path.empty()) {
        // The compiled artifact does not retain its e-graph: re-run
        // saturation on the padded spec exactly as the full-pipeline
        // rung ran it (same strategy, limits and deadline), then dump
        // Graphviz.
        CompilerOptions opts = cli.compiler;
        opts.sync();
        EGraph graph;
        const ClassId root = graph.add_term(padded_spec);
        graph.rebuild();
        saturate(graph, root, build_rules(opts.rules), opts,
                 effective_deadline(opts));
        std::ofstream out(cli.dot_path);
        out << graph.to_dot();
        std::fprintf(info,
                     "; wrote e-graph (%zu nodes, %zu classes) to %s\n",
                     graph.num_nodes(), graph.num_classes(),
                     cli.dot_path.c_str());
    }

    if (cli.emit_spec) {
        std::printf("\n; lifted specification\n%s\n",
                    Term::to_string(padded_spec).c_str());
    }
    if (cli.emit_c) {
        std::printf("\n%s", compiled.c_source.c_str());
    }
    if (cli.emit_native) {
        EmitCOptions copts;
        copts.symbol = native_symbol_for(kernel.name);
        copts.vector_width = cli.compiler.target.vector_width;
        copts.memory_words = compiled.layout.memory_words();
        copts.pool = compiled.layout.pool();
        copts.pool_base = compiled.layout.pool_base_words();
        std::printf("\n%s",
                    emit_c_kernel(compiled.machine, copts).c_str());
    }
    if (cli.emit_asm) {
        std::printf("\n; scheduled DSP assembly\n%s",
                    disassemble(compiled.machine,
                                cli.compiler.target.vector_width)
                        .c_str());
    }

    if (cli.run) {
        const scalar::BufferMap inputs = random_inputs(kernel, cli.seed);
        const auto run = compiled.run(inputs, cli.compiler.target);
        const auto naive = scalar::run_baseline(
            kernel, inputs, scalar::LowerMode::kNaiveParametric,
            cli.compiler.target);
        const auto fixed = scalar::run_baseline(
            kernel, inputs, scalar::LowerMode::kNaiveFixed,
            cli.compiler.target);
        const scalar::BufferMap want =
            scalar::run_reference(kernel, inputs);
        // Shape-check before comparing so a mis-sized simulated buffer
        // is reported, not read out of bounds.
        const OutputComparison cmp = compare_outputs(run.outputs, want);
        if (!cmp.shapes_ok()) {
            std::fprintf(stderr,
                         "dioscc: error: simulated outputs do not match "
                         "the kernel manifest: %s\n",
                         cmp.shape_error.c_str());
            return 1;
        }
        std::fprintf(info, "\n; simulated cycles\n");
        std::fprintf(info, ";   naive (parametric) : %llu\n",
                     static_cast<unsigned long long>(naive.result.cycles));
        std::fprintf(info, ";   naive (fixed size) : %llu\n",
                     static_cast<unsigned long long>(fixed.result.cycles));
        std::fprintf(info, ";   diospyros          : %llu (%.2fx over fixed)\n",
                     static_cast<unsigned long long>(run.result.cycles),
                     static_cast<double>(fixed.result.cycles) /
                         static_cast<double>(run.result.cycles));
        std::fprintf(info, ";   max |error| vs reference: %g\n",
                     cmp.max_abs_error);
        if (cmp.max_abs_error > 1e-2f) {
            return 1;
        }
    }
    return 0;
} catch (const UserError& e) {
    std::fprintf(stderr, "dioscc: error: %s\n", e.what());
    return 2;
} catch (const std::exception& e) {
    std::fprintf(stderr, "dioscc: error: %s\n", e.what());
    return 1;
}
