// Compile-service tests: canonical hashing, cache-key sensitivity,
// entry serialization round-trips, the two cache levels, in-flight
// coalescing, LRU eviction, determinism across worker counts, and fault
// injection inside worker threads.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "compiler/driver.h"
#include "daemon/protocol.h"
#include "kernels/kernels.h"
#include "machine/program.h"
#include "scalar/canonical.h"
#include "service/cache_key.h"
#include "service/compile_service.h"
#include "service/disk_cache.h"
#include "service/serialize.h"
#include "support/hash.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

using scalar::Kernel;
using scalar::KernelBuilder;
using service::CacheKey;
using service::CacheOutcome;
using service::CompileService;

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

/** Same program as vector_add_kernel, params declared in reverse order. */
Kernel
vector_add_kernel_reordered_params(std::int64_t n)
{
    KernelBuilder kb("vadd" + std::to_string(n));
    const scalar::IntRef pad = kb.param("z_unused", 7);
    (void)pad;
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

Kernel
dot_kernel(std::int64_t n)
{
    KernelBuilder kb("dot" + std::to_string(n));
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", scalar::IntExpr::constant(1));
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_store("C", scalar::IntExpr::constant(0),
                               scalar::FloatExpr::constant(0.0f)));
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", scalar::IntExpr::constant(0),
                          KernelBuilder::load("C",
                                              scalar::IntExpr::constant(0)) +
                              KernelBuilder::load("A", i) *
                                  KernelBuilder::load("B", i))}));
    return kb.build();
}

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.limits = RunnerLimits{.node_limit = 200'000,
                                  .iter_limit = 10,
                                  .time_limit_seconds = 20.0};
    return options;
}

/** A fresh directory under the system temp dir, removed on destruction. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
        : path(std::filesystem::temp_directory_path() /
               ("dios_service_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::string
asm_text(const CompiledKernel& c, const CompilerOptions& o)
{
    return disassemble(c.machine, o.target.vector_width);
}

// ---------------------------------------------------------------------------
// Satellite 1: stable hashing
// ---------------------------------------------------------------------------

TEST(StableHasher, ByteStableAndOrderSensitive)
{
    StableHasher a;
    a.str("hello").u64(42).f64(1.5);
    StableHasher b;
    b.str("hello").u64(42).f64(1.5);
    EXPECT_EQ(a.digest(), b.digest());

    StableHasher c;
    c.u64(42).str("hello").f64(1.5);
    EXPECT_NE(a.digest(), c.digest());

    // Length prefixing: ("ab","c") must not collide with ("a","bc").
    StableHasher d, e;
    d.str("ab").str("c");
    e.str("a").str("bc");
    EXPECT_NE(d.digest(), e.digest());
}

TEST(StableHasher, NegativeZeroNormalized)
{
    StableHasher a, b;
    a.f64(0.0);
    b.f64(-0.0);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(CanonicalHash, IdenticalKernelsHashEqual)
{
    // Two independently built but semantically identical kernels.
    const std::uint64_t h1 = scalar::stable_kernel_hash(vector_add_kernel(8));
    const std::uint64_t h2 = scalar::stable_kernel_hash(vector_add_kernel(8));
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(scalar::canonical_kernel_text(vector_add_kernel(8)),
              scalar::canonical_kernel_text(vector_add_kernel(8)));
}

TEST(CanonicalHash, ParamDeclarationOrderIrrelevant)
{
    // The canonical form sorts parameters by name, so an extra parameter
    // declared before `n` lands in the same place either way; only its
    // *presence* changes the hash, not where it was declared.
    KernelBuilder ka("k");
    ka.param("m", 3);
    ka.param("n", 8);
    ka.input("A", ka.param("p", 4));
    ka.output("C", scalar::IntExpr::constant(4));
    const scalar::IntRef i = KernelBuilder::var("i");
    ka.append(scalar::st_for("i", scalar::IntExpr::constant(0),
                             scalar::IntExpr::constant(4),
                             {scalar::st_store("C", i,
                                               KernelBuilder::load("A", i))}));

    KernelBuilder kb("k");
    kb.param("n", 8);
    kb.param("m", 3);
    kb.input("A", kb.param("p", 4));
    kb.output("C", scalar::IntExpr::constant(4));
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0),
                             scalar::IntExpr::constant(4),
                             {scalar::st_store("C", i,
                                               KernelBuilder::load("A", i))}));

    EXPECT_EQ(scalar::stable_kernel_hash(ka.build()),
              scalar::stable_kernel_hash(kb.build()));
}

TEST(CanonicalHash, DifferentBodiesHashDifferently)
{
    EXPECT_NE(scalar::stable_kernel_hash(vector_add_kernel(8)),
              scalar::stable_kernel_hash(dot_kernel(8)));
    EXPECT_NE(scalar::stable_kernel_hash(vector_add_kernel(8)),
              scalar::stable_kernel_hash(vector_add_kernel(12)));
    // An extra (unused) parameter is a different spec.
    EXPECT_NE(
        scalar::stable_kernel_hash(vector_add_kernel(8)),
        scalar::stable_kernel_hash(vector_add_kernel_reordered_params(8)));
}

TEST(CanonicalHash, LiftedSpecHashStable)
{
    const scalar::LiftedSpec s1 = scalar::lift(vector_add_kernel(8));
    const scalar::LiftedSpec s2 = scalar::lift(vector_add_kernel(8));
    EXPECT_EQ(scalar::stable_spec_hash(s1), scalar::stable_spec_hash(s2));
    const scalar::LiftedSpec s3 = scalar::lift(dot_kernel(8));
    EXPECT_NE(scalar::stable_spec_hash(s1), scalar::stable_spec_hash(s3));
}

// ---------------------------------------------------------------------------
// Sexpr quoted-string atoms (cache serialization prerequisite)
// ---------------------------------------------------------------------------

TEST(SexprString, QuotedAtomRoundTrip)
{
    const std::string nasty =
        "void f() {\n  // (parens) \"quotes\" \\backslash\t;semicolon\n}\n";
    const Sexpr s = Sexpr::list(
        {Sexpr::atom("src"), Sexpr::string_atom(nasty),
         Sexpr::string_atom(""), Sexpr::string_atom("plain")});
    const Sexpr back = parse_sexpr(s.to_string());
    ASSERT_TRUE(back.is_list());
    ASSERT_EQ(back.size(), 4u);
    EXPECT_EQ(back[1].token(), nasty);
    EXPECT_EQ(back[2].token(), "");
    EXPECT_EQ(back[3].token(), "plain");
    // Serialization is a fixed point after one round trip.
    EXPECT_EQ(back.to_string(), s.to_string());
}

// ---------------------------------------------------------------------------
// Satellite 4: cache-key sensitivity
// ---------------------------------------------------------------------------

TEST(CacheKey, SensitiveToArtifactShapingOptions)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions base = test_options();
    const CacheKey k0 = service::compute_cache_key(kernel, base);

    CompilerOptions width = base;
    width.target.vector_width = 8;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, width));

    CompilerOptions rules = base;
    rules.rules.enable_vector_rules = false;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, rules));

    CompilerOptions nodes = base;
    nodes.limits.node_limit = 50'000;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, nodes));

    CompilerOptions cost = base;
    cost.cost.vector_op += 1.0;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, cost));
}

TEST(CacheKey, TimeoutAloneDoesNotChangeKey)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions base = test_options();
    const CacheKey k0 = service::compute_cache_key(kernel, base);

    CompilerOptions timeout = base;
    timeout.limits.time_limit_seconds = 123.0;
    EXPECT_TRUE(k0 == service::compute_cache_key(kernel, timeout));

    CompilerOptions deadline = base;
    deadline.deadline_seconds = 55.0;
    EXPECT_TRUE(k0 == service::compute_cache_key(kernel, deadline));
}

TEST(CacheKey, SyncedAndUnsyncedOptionsAgree)
{
    const Kernel kernel = vector_add_kernel(8);
    CompilerOptions a = test_options();
    a.target.vector_width = 8;
    CompilerOptions b = a;
    b.sync();  // a is deliberately left un-synced
    EXPECT_TRUE(service::compute_cache_key(kernel, a) ==
                service::compute_cache_key(kernel, b));
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------

/** An entry's canonical text (the bytes the checksum and wire carry). */
std::string
entry_text(const service::CachedEntry& entry)
{
    std::string text;
    SexprWriter w(text);
    service::write_entry(w, entry);
    return text;
}

service::CachedEntry
entry_from_text(const std::string& text)
{
    const SexprDoc doc(text);
    return service::read_entry(doc.root());
}

TEST(Serialization, EntryRoundTripsByteForByte)
{
    const Kernel kernel = dot_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);

    const CacheKey key = service::compute_cache_key(kernel, options);
    const service::CachedEntry entry =
        service::make_entry(key, options, *result.compiled);

    const std::string text = entry_text(entry);
    const service::CachedEntry back = entry_from_text(text);
    EXPECT_EQ(entry_text(back), text);

    // The reconstructed kernel serves byte-identical artifacts...
    const CompiledKernel served =
        service::compiled_from_entry(kernel, back);
    EXPECT_EQ(served.c_source, result.compiled->c_source);
    EXPECT_EQ(asm_text(served, options), asm_text(*result.compiled, options));
    EXPECT_EQ(served.report.extracted_cost,
              result.compiled->report.extracted_cost);

    // ...and still computes the right answer on the simulator.
    scalar::BufferMap inputs;
    inputs["A"] = {1, 2, 3, 4, 5, 6, 7, 8};
    inputs["B"] = {8, 7, 6, 5, 4, 3, 2, 1};
    const auto run = served.run(inputs, options.target);
    const scalar::BufferMap want = scalar::run_reference(kernel, inputs);
    const OutputComparison cmp = compare_outputs(run.outputs, want);
    ASSERT_TRUE(cmp.shapes_ok()) << cmp.shape_error;
    EXPECT_LE(cmp.max_abs_error, 1e-4f);

    // Every Table-1 kernel at every width round-trips the same way.
    int cases = 0;
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        for (const int width : {2, 4, 8, 16}) {
            const std::string what =
                inst.label() + " width " + std::to_string(width);
            CompilerOptions o = test_options();
            o.target.vector_width = width;
            const CompileResult r = compile_kernel_resilient(inst.kernel, o);
            ASSERT_TRUE(r.ok) << what;
            const service::CachedEntry e = service::make_entry(
                service::compute_cache_key(inst.kernel, o), o, *r.compiled);
            const std::string e_text = entry_text(e);
            const service::CachedEntry e_back = entry_from_text(e_text);
            EXPECT_EQ(entry_text(e_back), e_text) << what;
            const CompiledKernel s =
                service::compiled_from_entry(inst.kernel, e_back);
            EXPECT_EQ(s.c_source, r.compiled->c_source) << what;
            EXPECT_EQ(asm_text(s, o), asm_text(*r.compiled, o)) << what;
            EXPECT_EQ(s.report.extracted_cost,
                      r.compiled->report.extracted_cost)
                << what;
            ++cases;
        }
    }
    EXPECT_EQ(cases, 84);
}

/**
 * One synthetic, fully populated entry for the golden wire and disk
 * bytes below: strings that need every escape, empty strings, -0.0, a
 * subnormal and a large float in the pool and in `fimm`, lane tables
 * with trailing zeros and with all 16 lanes set, and several attempts.
 */
service::CachedEntry
golden_entry()
{
    service::CachedEntry e;
    e.key = CacheKey{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    e.kernel_name = "golden \"kernel\" \\ v1";
    e.vector_width = 16;
    e.time_limit_seconds = 2.5;
    e.fallback_level = 1;

    CompileReport& r = e.report;
    r.lift_seconds = 0.001;
    r.saturation_seconds = 0.25;
    r.extract_seconds = 5e-324;  // subnormal double
    r.backend_seconds = 1e300;
    r.total_seconds = -0.0;
    r.spec_elements = 12;
    r.spec_dag_nodes = 34;
    r.egraph_nodes = 567;
    r.egraph_classes = 89;
    r.memory_proxy_bytes = 1048576;
    r.runner_iterations = 7;
    r.stop_reason = StopReason::kNodeLimit;
    r.extracted_cost = 42.5;
    r.lvn = {10, 2, 3, 5};
    r.validation = Verdict::kEquivalent;
    r.random_check_passed = false;
    r.machine_validation = Verdict::kNotEquivalent;
    r.machine_validated = true;
    r.machine_witness = "lane 3:\t1.5 != \"2.5\"\n";
    r.fallback_level = 1;
    r.error = "rung 0: (timeout)\r\n\\";
    r.strategy_name = "";
    r.strategy_goal_satisfied = true;
    r.attempts = {{0, "saturation \"timed out\"\n", FailureClass::kNone,
                   0.125},
                  {1, "", FailureClass::kNone, 0.5},
                  {2, ";semicolon\t(paren", FailureClass::kNone, 3.0}};

    e.c_source =
        "void k(float* A) {\n\tA[0] = 1.0f; // \"q\" \\ (p) ;c\r\n}\n";
    e.pool = {-0.0f, 1e-40f, 3.0e38f, 1.0f, 0.1f, 0.0f};

    Program& p = e.machine;
    p.num_int_regs = 3;
    p.num_float_regs = 4;
    p.num_vec_regs = 5;
    Instr movi;
    movi.op = Opcode::kFMovI;
    movi.dst = 0;
    movi.fimm = -0.0f;
    Instr splat;
    splat.op = Opcode::kVSplat;
    splat.dst = 1;
    splat.fimm = 1e-45f;
    Instr big;
    big.op = Opcode::kFMovI;
    big.dst = 2;
    big.fimm = 3.4e38f;
    Instr shuf;
    shuf.op = Opcode::kShuf;
    shuf.dst = 2;
    shuf.a = 1;
    shuf.lanes[0] = 3;
    shuf.lanes[2] = 1;  // lanes 3.. are trailing zeros
    Instr sel;
    sel.op = Opcode::kSel;
    sel.dst = 3;
    sel.a = 1;
    sel.b = 2;
    for (std::size_t k = 0; k < sel.lanes.size(); ++k) {
        sel.lanes[k] = static_cast<std::int16_t>(31 - 2 * k);
    }
    Instr store;
    store.op = Opcode::kVStore;
    store.a = -1;
    store.b = 3;
    store.imm = -16;
    Instr halt;
    p.code = {movi, splat, big, shuf, sel, store, halt};
    return e;
}

/** Generated from golden_entry() by the tree-based codec (format 3). */
const char* const kGoldenPayload =
    R"golden((compile-response (status ok) (retry-after-ms 0) (failure-class )golden"
    R"golden(none) (error "warn: \"x\"\t\\\n") (entry (dios-cache-entry )golden"
    R"golden((version 1) (key 0123456789abcdef fedcba9876543210) (kernel )golden"
    R"golden("golden \"kernel\" \\ v1") (width 16) (time-limit 0x1.4p+1) )golden"
    R"golden((fallback-level 1) (report (phases 0x1.0624dd2f1a9fcp-10 0x1p-2 )golden"
    R"golden(0x0.0000000000001p-1022 0x1.7e43c8800759cp+996 -0x0p+0) (spec )golden"
    R"golden(12 34) (egraph 567 89 1048576 7) (stop node-limit) (cost )golden"
    R"golden(0x1.54p+5) (lvn 10 2 3 5) (validation equivalent 0) )golden"
    R"golden((machine-validation NOT-equivalent 1 "lane 3:\t1.5 != )golden"
    R"golden(\"2.5\"\n") (fallback 1 "rung 0: (timeout)\r\n\\") (strategy "" )golden"
    R"golden(1) (attempts (0 0x1p-3 "saturation \"timed out\"\n") (1 0x1p-1 )golden"
    R"golden("") (2 0x1.8p+1 ";semicolon\t(paren"))) (c-source "void )golden"
    R"golden(k(float* A) {\n\tA[0] = 1.0f; // \"q\" \\ (p) ;c\r\n}\n") (pool )golden"
    R"golden(-0x0p+0 0x1.16c2p-133 0x1.c363ccp+127 0x1p+0 0x1.99999ap-4 )golden"
    R"golden(0x0p+0) (machine (regs 3 4 5) (code (fmovi 0 -1 -1 0 -0x0p+0 0) )golden"
    R"golden((vsplat 1 -1 -1 0 0x1p-149 0) (fmovi 2 -1 -1 0 0x1.ff933cp+127 )golden"
    R"golden(0) (shuf 2 1 -1 0 0x0p+0 3 3 0 1) (sel 3 1 2 0 0x0p+0 16 31 29 )golden"
    R"golden(27 25 23 21 19 17 15 13 11 9 7 5 3 1) (vstore -1 -1 3 -16 )golden"
    R"golden(0x0p+0 0) (halt -1 -1 -1 0 0x0p+0 0)))))))golden";

const char* const kGoldenEnvelope = R"golden((dios-cache-envelope
  (format-version 3)
  (rule-set-version 1)
  (checksum d037521bae607d09)
  (payload
    (dios-cache-entry
      (version 1)
      (key 0123456789abcdef fedcba9876543210)
      (kernel "golden \"kernel\" \\ v1")
      (width 16)
      (time-limit 0x1.4p+1)
      (fallback-level 1)
      (report
        (phases
          0x1.0624dd2f1a9fcp-10
          0x1p-2
          0x0.0000000000001p-1022
          0x1.7e43c8800759cp+996
          -0x0p+0)
        (spec 12 34)
        (egraph 567 89 1048576 7)
        (stop node-limit)
        (cost 0x1.54p+5)
        (lvn 10 2 3 5)
        (validation equivalent 0)
        (machine-validation NOT-equivalent 1 "lane 3:\t1.5 != \"2.5\"\n")
        (fallback 1 "rung 0: (timeout)\r\n\\")
        (strategy "" 1)
        (attempts
          (0 0x1p-3 "saturation \"timed out\"\n")
          (1 0x1p-1 "")
          (2 0x1.8p+1 ";semicolon\t(paren")))
      (c-source "void k(float* A) {\n\tA[0] = 1.0f; // \"q\" \\ (p) ;c\r\n}\n")
      (pool -0x0p+0 0x1.16c2p-133 0x1.c363ccp+127 0x1p+0 0x1.99999ap-4 0x0p+0)
      (machine
        (regs 3 4 5)
        (code
          (fmovi 0 -1 -1 0 -0x0p+0 0)
          (vsplat 1 -1 -1 0 0x1p-149 0)
          (fmovi 2 -1 -1 0 0x1.ff933cp+127 0)
          (shuf 2 1 -1 0 0x0p+0 3 3 0 1)
          (sel 3 1 2 0 0x0p+0 16 31 29 27 25 23 21 19 17 15 13 11 9 7 5 3 1)
          (vstore -1 -1 3 -16 0x0p+0 0)
          (halt -1 -1 -1 0 0x0p+0 0))))))
)golden";

const char* const kGoldenChecksum = "d037521bae607d09";


TEST(Serialization, GoldenWireAndEnvelopeBytes)
{
    const service::CachedEntry entry = golden_entry();
    daemon::CompileResponse resp;
    resp.status = daemon::ResponseStatus::kOk;
    resp.error = "warn: \"x\"\t\\\n";
    resp.entry = entry;
    const std::string payload = daemon::encode_compile_response(resp);
    EXPECT_EQ(payload, kGoldenPayload);

    TempDir dir("golden");
    service::DiskCache disk(dir.str());
    disk.store(entry);
    std::ifstream in(disk.path_for(entry.key), std::ios::binary);
    std::ostringstream file;
    file << in.rdbuf();
    EXPECT_EQ(file.str(), kGoldenEnvelope);

    // The checksum covers the entry's canonical flat rendering: exactly
    // the bytes the wire carries inside `(entry ...)`.
    const std::size_t at = payload.find("(dios-cache-entry ");
    ASSERT_NE(at, std::string::npos);
    const std::string flat = payload.substr(at, payload.size() - at - 2);
    EXPECT_EQ(hash_hex(stable_hash_string(flat)), kGoldenChecksum);

    // Both readers accept the golden bytes and reproduce them.
    const daemon::CompileResponse decoded =
        daemon::decode_compile_response(kGoldenPayload);
    EXPECT_EQ(daemon::encode_compile_response(decoded), kGoldenPayload);
    const service::LoadResult loaded = disk.load(entry.key);
    ASSERT_EQ(loaded.status, service::LoadStatus::kHit) << loaded.detail;
    resp.entry = loaded.entry;
    EXPECT_EQ(daemon::encode_compile_response(resp), kGoldenPayload);
}

TEST(Serialization, VersionMismatchRejected)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    service::CachedEntry entry = service::make_entry(
        service::compute_cache_key(kernel, options), options,
        *result.compiled);
    entry.rule_set_version = service::kRuleSetVersion + 1;
    // The parser itself is lenient about the version; DiskCache::load is
    // the layer that rejects it. A stale rule-set version is a clean
    // *miss* (legitimately outdated, not corrupt — no quarantine).
    TempDir dir("version");
    service::DiskCache disk(dir.str());
    disk.store(entry);
    const service::LoadResult r =
        disk.load(service::compute_cache_key(kernel, options));
    EXPECT_EQ(r.status, service::LoadStatus::kMiss);
    EXPECT_FALSE(r.entry.has_value());
}

TEST(Serialization, CorruptDiskEntryIsDetected)
{
    TempDir dir("corrupt");
    service::DiskCache disk(dir.str());
    const Kernel kernel = vector_add_kernel(8);
    const CacheKey key =
        service::compute_cache_key(kernel, test_options());
    {
        std::filesystem::create_directories(
            disk.path_for(key).parent_path());
        std::ofstream out(disk.path_for(key));
        out << "(this is (not a cache entry";
    }
    const service::LoadResult r = disk.load(key);
    EXPECT_EQ(r.status, service::LoadStatus::kCorrupt);
    EXPECT_FALSE(r.entry.has_value());
    EXPECT_FALSE(r.detail.empty());
}

// ---------------------------------------------------------------------------
// Tentpole: the compile service
// ---------------------------------------------------------------------------

TEST(CompileService, DeterministicAcrossWorkerCounts)
{
    std::vector<Kernel> kernels;
    for (const std::int64_t n : {4, 8, 12}) {
        kernels.push_back(vector_add_kernel(n));
        kernels.push_back(dot_kernel(n));
    }
    const CompilerOptions options = test_options();

    auto compile_all = [&](int jobs) {
        CompileService::Options sopts;
        sopts.jobs = jobs;
        CompileService svc(sopts);
        std::vector<service::Ticket> tickets;
        for (const Kernel& k : kernels) {
            tickets.push_back(svc.submit(k, options));
        }
        std::vector<std::string> artifacts;
        for (service::Ticket& t : tickets) {
            const CompileResult& r = t.get();
            EXPECT_TRUE(r.ok) << r.error;
            artifacts.push_back(r.compiled->c_source + "\n===\n" +
                                asm_text(*r.compiled, options));
        }
        return artifacts;
    };

    const std::vector<std::string> serial = compile_all(1);
    const std::vector<std::string> parallel = compile_all(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "kernel #" << i;
    }
}

TEST(CompileService, CoalescesDuplicateInflightKeys)
{
    CompileService::Options sopts;
    sopts.jobs = 1;
    CompileService svc(sopts);
    // One worker: the first ticket occupies it (or the queue) while the
    // duplicates arrive, so they must coalesce rather than recompile.
    const Kernel kernel = dot_kernel(24);
    const CompilerOptions options = test_options();
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 5; ++i) {
        tickets.push_back(svc.submit(kernel, options));
    }
    svc.wait_idle();

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.submitted, 5u);
    EXPECT_EQ(m.misses, 1u);  // exactly one saturation ran
    EXPECT_EQ(m.coalesced + m.memory_hits, 4u);

    // Every ticket resolves to the *same* shared result object.
    const service::ResultPtr first = tickets[0].future.get();
    ASSERT_TRUE(first->ok);
    for (service::Ticket& t : tickets) {
        if (t.outcome() == CacheOutcome::kCoalesced) {
            EXPECT_EQ(t.future.get().get(), first.get());
        }
    }
}

TEST(CompileService, MemoryCacheHitsAndLruEviction)
{
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.memory_cache_capacity = 2;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    const Kernel a = vector_add_kernel(4);
    const Kernel b = vector_add_kernel(8);
    const Kernel c = vector_add_kernel(12);

    svc.submit(a, options).future.wait();
    svc.submit(b, options).future.wait();
    // Touch `a` so `b` is the LRU victim when `c` arrives.
    service::Ticket hit = svc.submit(a, options);
    hit.future.wait();
    EXPECT_EQ(hit.outcome(), CacheOutcome::kMemoryHit);
    svc.submit(c, options).future.wait();

    service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.evictions, 1u);
    EXPECT_EQ(m.misses, 3u);

    // `a` survived (memory hit), `b` was evicted (recompiled).
    EXPECT_EQ(svc.submit(a, options).outcome(), CacheOutcome::kMemoryHit);
    service::Ticket again_b = svc.submit(b, options);
    again_b.future.wait();
    EXPECT_EQ(again_b.outcome(), CacheOutcome::kMiss);
    svc.wait_idle();
    EXPECT_EQ(svc.metrics().misses, 4u);
}

TEST(CompileService, DiskCacheServesAcrossServiceInstances)
{
    TempDir dir("disk");
    const Kernel kernel = dot_kernel(12);
    const CompilerOptions options = test_options();

    std::string cold_c, cold_asm;
    {
        CompileService::Options sopts;
        sopts.cache_dir = dir.str();
        CompileService svc(sopts);
        service::Ticket t = svc.submit(kernel, options);
        const CompileResult& r = t.get();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(t.outcome(), CacheOutcome::kMiss);
        cold_c = r.compiled->c_source;
        cold_asm = asm_text(*r.compiled, options);
        EXPECT_EQ(svc.metrics().disk_writes, 1u);
    }

    // A brand-new service (fresh memory cache) must hit the disk level
    // and serve byte-identical artifacts without compiling.
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    service::Ticket warm = svc.submit(kernel, options);
    const CompileResult& r = warm.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(warm.outcome(), CacheOutcome::kDiskHit);
    EXPECT_EQ(r.compiled->c_source, cold_c);
    EXPECT_EQ(asm_text(*r.compiled, options), cold_asm);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.disk_hits, 1u);
    EXPECT_EQ(m.misses, 0u);
    EXPECT_DOUBLE_EQ(m.saturation_seconds, 0.0);  // zero saturations warm
}

TEST(CompileService, TimeoutChangeStillHitsSuccessfulEntry)
{
    CompileService::Options sopts;
    CompileService svc(sopts);
    const Kernel kernel = vector_add_kernel(8);
    CompilerOptions options = test_options();
    svc.submit(kernel, options).future.wait();

    // Same kernel, wildly different wall-clock budget: the entry
    // saturated (not time-bound), so this must be a hit, not a miss.
    options.limits.time_limit_seconds = 500.0;
    options.deadline_seconds = 500.0;
    service::Ticket t = svc.submit(kernel, options);
    t.future.wait();
    EXPECT_EQ(t.outcome(), CacheOutcome::kMemoryHit);
}

TEST(CompileService, FaultArmedCompilesBypassTheCache)
{
    TempDir dir("fault");
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    const Kernel kernel = vector_add_kernel(8);

    // Fault inside the worker thread: lowering blows up on rung 0, the
    // resilient driver degrades, and the service must neither cache the
    // degraded artifact nor serve it to clean requests.
    CompilerOptions faulty = test_options();
    faulty.fault_specs = {"lower.term:1"};
    service::Ticket t1 = svc.submit(kernel, faulty);
    const CompileResult& r1 = t1.get();
    EXPECT_EQ(t1.outcome(), CacheOutcome::kBypass);
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_GT(r1.fallback_level, 0);

    service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.bypasses, 1u);
    EXPECT_EQ(m.disk_writes, 0u);

    // A clean submit of the same kernel is a genuine miss (nothing was
    // cached by the bypass) and produces an undegraded artifact.
    service::Ticket t2 = svc.submit(kernel, test_options());
    const CompileResult& r2 = t2.get();
    EXPECT_EQ(t2.outcome(), CacheOutcome::kMiss);
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.fallback_level, 0);
}

TEST(CompileService, ManyFaultyJobsAcrossWorkersStayIsolated)
{
    // Several fault-armed compiles racing across 4 workers: each must
    // degrade gracefully and none may poison the cache or each other.
    CompileService::Options sopts;
    sopts.jobs = 4;
    CompileService svc(sopts);
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
        CompilerOptions faulty = test_options();
        faulty.fault_specs = {i % 2 == 0 ? "lower.term:1"
                                         : "extract.build:1"};
        tickets.push_back(svc.submit(vector_add_kernel(4 + 4 * (i % 3)),
                                     faulty));
    }
    for (service::Ticket& t : tickets) {
        const CompileResult& r = t.get();
        EXPECT_EQ(t.outcome(), CacheOutcome::kBypass);
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.fallback_level, 0);
    }
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.bypasses, 8u);
    EXPECT_EQ(m.memory_hits + m.disk_hits + m.coalesced, 0u);
}

TEST(CompileService, UserErrorsAreCountedAndNotCached)
{
    CompileService::Options sopts;
    CompileService svc(sopts);
    CompilerOptions bad = test_options();
    bad.fault_specs = {"::not a valid fault spec::"};
    service::Ticket t = svc.submit(vector_add_kernel(8), bad);
    const CompileResult& r = t.get();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.user_error);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.failures, 1u);
    EXPECT_EQ(m.user_errors, 1u);
}

TEST(CompileService, BackpressureQueueDrainsWithoutDeadlock)
{
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.queue_capacity = 1;  // every submit beyond the first blocks
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    std::vector<service::Ticket> tickets;
    for (std::int64_t n = 4; n <= 32; n += 4) {
        tickets.push_back(svc.submit(vector_add_kernel(n), options));
    }
    for (service::Ticket& t : tickets) {
        EXPECT_TRUE(t.get().ok);
    }
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(CompileService, MetricsJsonIsWellFormed)
{
    CompileService svc;
    svc.submit(vector_add_kernel(8), test_options()).future.wait();
    const std::string json = svc.metrics().to_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"submitted\":1"), std::string::npos);
    EXPECT_NE(json.find("\"misses\":1"), std::string::npos);
    EXPECT_NE(json.find("\"verifier_rejects\":0"), std::string::npos);
    EXPECT_NE(json.find("\"saturation_seconds\":"), std::string::npos);
}

TEST(CompileService, VerifierGateKeepsCorruptProgramsOutOfTheCaches)
{
    TempDir dir("verifier_gate");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    // Corrupt every freshly compiled program between the compiler and
    // the cache gate: an out-of-bounds shuffle lane the VIR verifier
    // must catch (V004).
    sopts.post_compile_hook = [](CompiledKernel& compiled) {
        vir::VInstr shuf;
        shuf.op = vir::VOp::kShuffle;
        shuf.dst = compiled.vprogram.fresh_vector();
        shuf.a = 0;
        shuf.lanes = {99, 0, 0, 0};
        compiled.vprogram.instrs.push_back(shuf);
    };
    CompileService svc(sopts);

    // The caller still gets the result (the compiler's own gates vouch
    // for what it produced), but neither cache level may keep it.
    service::Ticket first = svc.submit(vector_add_kernel(8), test_options());
    EXPECT_TRUE(first.get().ok);
    svc.wait_idle();
    {
        const service::ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.verifier_rejects, 1u);
        EXPECT_EQ(m.disk_writes, 0u);
        EXPECT_NE(m.to_json().find("\"verifier_rejects\":1"),
                  std::string::npos);
    }

    // Resubmission must recompile — no memory hit, no disk hit.
    service::Ticket second =
        svc.submit(vector_add_kernel(8), test_options());
    EXPECT_TRUE(second.get().ok);
    EXPECT_EQ(second.outcome(), CacheOutcome::kMiss);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 2u);
    EXPECT_EQ(m.memory_hits, 0u);
    EXPECT_EQ(m.disk_hits, 0u);
    EXPECT_EQ(m.verifier_rejects, 2u);
}

TEST(CompileService, CleanCompilesPassTheVerifierGate)
{
    TempDir dir("verifier_clean");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    svc.submit(vector_add_kernel(8), test_options()).future.wait();
    svc.wait_idle();
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.verifier_rejects, 0u);
    EXPECT_EQ(m.disk_writes, 1u);
}

}  // namespace
}  // namespace diospyros
