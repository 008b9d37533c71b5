#include "service/serialize.h"

#include <array>
#include <cstdlib>
#include <string_view>

#include "machine/target.h"
#include "support/error.h"
#include "support/hash.h"

namespace diospyros::service {

namespace {

using View = SexprDoc::View;

// ---------------------------------------------------------------------------
// Atom readers
// ---------------------------------------------------------------------------

double
as_f64(View s)
{
    const std::optional<double> v = s.number();
    DIOS_CHECK(v.has_value(), "cache entry: expected a number, got '" +
                                  s.to_string() + "'");
    return *v;
}

std::int64_t
as_i64(View s)
{
    const std::optional<std::int64_t> v = s.integer();
    DIOS_CHECK(v.has_value(), "cache entry: expected an integer, got '" +
                                  s.to_string() + "'");
    return *v;
}

std::string_view
as_text(View s)
{
    DIOS_CHECK(s.is_atom(), "cache entry: expected an atom, got '" +
                                s.to_string() + "'");
    return s.token();
}

std::uint64_t
as_hex(View s)
{
    DIOS_CHECK(s.is_atom(), "cache entry: expected a hex atom");
    const std::string text(s.token());
    return std::strtoull(text.c_str(), nullptr, 16);
}

// ---------------------------------------------------------------------------
// Enum spellings (reverse lookups over the existing name functions)
// ---------------------------------------------------------------------------

Opcode
opcode_from_name(std::string_view name)
{
    // One lookup per instruction: compare against cached views.
    static const auto names = [] {
        std::array<std::string_view, kNumOpcodes> out;
        for (int i = 0; i < kNumOpcodes; ++i) {
            out[static_cast<std::size_t>(i)] =
                opcode_name(static_cast<Opcode>(i));
        }
        return out;
    }();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (name == names[i]) {
            return static_cast<Opcode>(i);
        }
    }
    detail::raise_user("cache entry: unknown opcode '" + std::string(name) +
                       "'");
}

StopReason
stop_reason_from_name(std::string_view name)
{
    for (int i = 0; i < kNumStopReasons; ++i) {
        const auto r = static_cast<StopReason>(i);
        if (name == stop_reason_name(r)) {
            return r;
        }
    }
    detail::raise_user("cache entry: unknown stop reason '" +
                       std::string(name) + "'");
}

Verdict
verdict_from_name(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(Verdict::kUnknown); ++i) {
        const auto v = static_cast<Verdict>(i);
        if (name == verdict_name(v)) {
            return v;
        }
    }
    detail::raise_user("cache entry: unknown validation verdict '" +
                       std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void
write_report(SexprWriter& w, const CompileReport& r)
{
    w.open("report");
    w.open("phases")
        .f64(r.lift_seconds)
        .f64(r.saturation_seconds)
        .f64(r.extract_seconds)
        .f64(r.backend_seconds)
        .f64(r.total_seconds)
        .close();
    w.open("spec").u64(r.spec_elements).u64(r.spec_dag_nodes).close();
    w.open("egraph")
        .u64(r.egraph_nodes)
        .u64(r.egraph_classes)
        .u64(r.memory_proxy_bytes)
        .u64(r.runner_iterations)
        .close();
    w.open("stop").atom(stop_reason_name(r.stop_reason)).close();
    w.open("cost").f64(r.extracted_cost).close();
    w.open("lvn")
        .u64(r.lvn.input_instrs)
        .u64(r.lvn.value_numbered)
        .u64(r.lvn.dead_removed)
        .u64(r.lvn.output_instrs)
        .close();
    w.open("validation")
        .atom(verdict_name(r.validation))
        .i64(r.random_check_passed ? 1 : 0)
        .close();
    w.open("machine-validation")
        .atom(verdict_name(r.machine_validation))
        .i64(r.machine_validated ? 1 : 0)
        .atom(r.machine_witness)
        .close();
    w.open("fallback").i64(r.fallback_level).atom(r.error).close();
    // Only the strategy's *name* is persisted (like rule_stats, per-phase
    // telemetry is live-run-only; cache hits come back with empty
    // `strategy_phases`).
    w.open("strategy")
        .atom(r.strategy_name)
        .i64(r.strategy_goal_satisfied ? 1 : 0)
        .close();
    w.open("attempts");
    for (const AttemptDiagnostic& a : r.attempts) {
        w.open().i64(a.level).f64(a.seconds).atom(a.error).close();
    }
    w.close();
    w.close();
}

CompileReport
read_report(View s)
{
    DIOS_CHECK(s.has_head("report"), "cache entry: missing report");
    CompileReport r;
    for (std::size_t i = 1; i < s.size(); ++i) {
        const View f = s[i];
        if (f.has_head("phases") && f.size() == 6) {
            r.lift_seconds = as_f64(f[1]);
            r.saturation_seconds = as_f64(f[2]);
            r.extract_seconds = as_f64(f[3]);
            r.backend_seconds = as_f64(f[4]);
            r.total_seconds = as_f64(f[5]);
        } else if (f.has_head("spec") && f.size() == 3) {
            r.spec_elements = static_cast<std::size_t>(as_i64(f[1]));
            r.spec_dag_nodes = static_cast<std::size_t>(as_i64(f[2]));
        } else if (f.has_head("egraph") && f.size() == 5) {
            r.egraph_nodes = static_cast<std::size_t>(as_i64(f[1]));
            r.egraph_classes = static_cast<std::size_t>(as_i64(f[2]));
            r.memory_proxy_bytes = static_cast<std::size_t>(as_i64(f[3]));
            r.runner_iterations = static_cast<std::size_t>(as_i64(f[4]));
        } else if (f.has_head("stop") && f.size() == 2) {
            r.stop_reason = stop_reason_from_name(as_text(f[1]));
        } else if (f.has_head("cost") && f.size() == 2) {
            r.extracted_cost = as_f64(f[1]);
        } else if (f.has_head("lvn") && f.size() == 5) {
            r.lvn.input_instrs = static_cast<std::size_t>(as_i64(f[1]));
            r.lvn.value_numbered = static_cast<std::size_t>(as_i64(f[2]));
            r.lvn.dead_removed = static_cast<std::size_t>(as_i64(f[3]));
            r.lvn.output_instrs = static_cast<std::size_t>(as_i64(f[4]));
        } else if (f.has_head("validation") && f.size() == 3) {
            r.validation = verdict_from_name(as_text(f[1]));
            r.random_check_passed = as_i64(f[2]) != 0;
        } else if (f.has_head("machine-validation") && f.size() == 4) {
            r.machine_validation = verdict_from_name(as_text(f[1]));
            r.machine_validated = as_i64(f[2]) != 0;
            r.machine_witness = as_text(f[3]);
        } else if (f.has_head("fallback") && f.size() == 3) {
            r.fallback_level = static_cast<int>(as_i64(f[1]));
            r.error = as_text(f[2]);
        } else if (f.has_head("strategy") && f.size() == 3) {
            r.strategy_name = as_text(f[1]);
            r.strategy_goal_satisfied = as_i64(f[2]) != 0;
        } else if (f.has_head("attempts")) {
            for (std::size_t j = 1; j < f.size(); ++j) {
                const View a = f[j];
                DIOS_CHECK(a.is_list() && a.size() == 3,
                           "cache entry: malformed attempt record");
                AttemptDiagnostic diag;
                diag.level = static_cast<int>(as_i64(a[0]));
                diag.seconds = as_f64(a[1]);
                diag.error = as_text(a[2]);
                r.attempts.push_back(std::move(diag));
            }
        }
    }
    return r;
}

// ---------------------------------------------------------------------------
// Machine program
// ---------------------------------------------------------------------------

void
write_program(SexprWriter& w, const Program& p)
{
    w.open("machine");
    w.open("regs")
        .i64(p.num_int_regs)
        .i64(p.num_float_regs)
        .i64(p.num_vec_regs)
        .close();
    w.open("code");
    for (const Instr& instr : p.code) {
        w.open(opcode_name(instr.op))
            .i64(instr.dst)
            .i64(instr.a)
            .i64(instr.b)
            .i64(instr.imm)
            .f64(static_cast<double>(instr.fimm));
        // Explicit lane count (trailing zeros trimmed) rather than a
        // fixed kMaxVectorWidth slots: entries stay readable across
        // builds whose compile-time maximum width differs.
        std::size_t nlanes = instr.lanes.size();
        while (nlanes > 0 && instr.lanes[nlanes - 1] == 0) {
            --nlanes;
        }
        w.i64(static_cast<std::int64_t>(nlanes));
        for (std::size_t k = 0; k < nlanes; ++k) {
            w.i64(instr.lanes[k]);
        }
        w.close();
    }
    w.close();
    w.close();
}

Program
read_program(View s)
{
    DIOS_CHECK(s.has_head("machine"), "cache entry: missing machine");
    Program p;
    for (std::size_t i = 1; i < s.size(); ++i) {
        const View f = s[i];
        if (f.has_head("regs") && f.size() == 4) {
            p.num_int_regs = static_cast<int>(as_i64(f[1]));
            p.num_float_regs = static_cast<int>(as_i64(f[2]));
            p.num_vec_regs = static_cast<int>(as_i64(f[3]));
        } else if (f.has_head("code")) {
            p.code.reserve(p.code.size() + f.size() - 1);
            for (std::size_t j = 1; j < f.size(); ++j) {
                const View node = f[j];
                DIOS_CHECK(node.is_list() && node.size() >= 7,
                           "cache entry: malformed instruction");
                Instr instr;
                instr.op = opcode_from_name(as_text(node[0]));
                instr.dst = static_cast<int>(as_i64(node[1]));
                instr.a = static_cast<int>(as_i64(node[2]));
                instr.b = static_cast<int>(as_i64(node[3]));
                instr.imm = static_cast<int>(as_i64(node[4]));
                instr.fimm = static_cast<float>(as_f64(node[5]));
                const std::int64_t nlanes = as_i64(node[6]);
                DIOS_CHECK(nlanes >= 0 && nlanes <= kMaxVectorWidth &&
                               node.size() ==
                                   7 + static_cast<std::size_t>(nlanes),
                           "cache entry: malformed lane table");
                for (std::int64_t k = 0; k < nlanes; ++k) {
                    instr.lanes[static_cast<std::size_t>(k)] =
                        static_cast<std::int16_t>(
                            as_i64(node[7 + static_cast<std::size_t>(k)]));
                }
                p.code.push_back(instr);
            }
        }
    }
    return p;
}

}  // namespace

void
write_entry(SexprWriter& w, const CachedEntry& entry)
{
    w.open("dios-cache-entry");
    w.open("version").u64(entry.rule_set_version).close();
    w.open("key")
        .atom(hash_hex(entry.key.spec_hash))
        .atom(hash_hex(entry.key.options_hash))
        .close();
    w.open("kernel").atom(entry.kernel_name).close();
    w.open("width").i64(entry.vector_width).close();
    w.open("time-limit").f64(entry.time_limit_seconds).close();
    w.open("fallback-level").i64(entry.fallback_level).close();
    write_report(w, entry.report);
    w.open("c-source").atom(entry.c_source).close();
    w.open("pool");
    for (const float v : entry.pool) {
        w.f64(static_cast<double>(v));
    }
    w.close();
    write_program(w, entry.machine);
    w.close();
}

CachedEntry
read_entry(View view)
{
    DIOS_CHECK(view.has_head("dios-cache-entry"),
               "not a dios-cache-entry s-expression");
    CachedEntry entry;
    bool saw_version = false;
    for (std::size_t i = 1; i < view.size(); ++i) {
        const View f = view[i];
        if (f.has_head("version") && f.size() == 2) {
            entry.rule_set_version =
                static_cast<std::uint64_t>(as_i64(f[1]));
            saw_version = true;
        } else if (f.has_head("key") && f.size() == 3) {
            entry.key.spec_hash = as_hex(f[1]);
            entry.key.options_hash = as_hex(f[2]);
        } else if (f.has_head("kernel") && f.size() == 2) {
            entry.kernel_name = as_text(f[1]);
        } else if (f.has_head("width") && f.size() == 2) {
            entry.vector_width = static_cast<int>(as_i64(f[1]));
        } else if (f.has_head("time-limit") && f.size() == 2) {
            entry.time_limit_seconds = as_f64(f[1]);
        } else if (f.has_head("fallback-level") && f.size() == 2) {
            entry.fallback_level = static_cast<int>(as_i64(f[1]));
        } else if (f.has_head("report")) {
            entry.report = read_report(f);
        } else if (f.has_head("c-source") && f.size() == 2) {
            entry.c_source = as_text(f[1]);
        } else if (f.has_head("pool")) {
            entry.pool.reserve(entry.pool.size() + f.size() - 1);
            for (std::size_t j = 1; j < f.size(); ++j) {
                entry.pool.push_back(static_cast<float>(as_f64(f[j])));
            }
        } else if (f.has_head("machine")) {
            entry.machine = read_program(f);
        }
    }
    DIOS_CHECK(saw_version, "cache entry: missing version field");
    return entry;
}

std::string
envelope_text(const CachedEntry& entry)
{
    // One flat pass with a placeholder digest, patched once the payload
    // it covers is written; then one wrapping pass.
    std::string flat;
    SexprWriter w(flat);
    w.open("dios-cache-envelope");
    w.open("format-version").u64(kCacheFormatVersion).close();
    w.open("rule-set-version").u64(entry.rule_set_version).close();
    w.open("checksum").atom(hash_hex(0));
    const std::size_t digest_at = flat.size() - 16;
    w.close();
    w.open("payload");
    const std::size_t payload_at = flat.size() + 1;  // past the separator
    write_entry(w, entry);
    const std::string_view payload =
        std::string_view(flat).substr(payload_at);
    const std::string digest = hash_hex(stable_hash_string(payload));
    w.close().close();
    flat.replace(digest_at, digest.size(), digest);
    return SexprDoc(flat).root().to_pretty_string();
}

EnvelopeFields
envelope_fields(View view)
{
    EnvelopeFields env;
    if (!(view.has_head("dios-cache-envelope") && view.size() == 5)) {
        env.error = "not a dios-cache-envelope";
        return env;
    }
    bool saw_format = false, saw_rules = false, saw_checksum = false;
    for (std::size_t i = 1; i < view.size(); ++i) {
        const View f = view[i];
        if (f.has_head("format-version") && f.size() == 2 &&
            f[1].is_integer()) {
            env.format_version = static_cast<std::uint64_t>(as_i64(f[1]));
            saw_format = true;
        } else if (f.has_head("rule-set-version") && f.size() == 2 &&
                   f[1].is_integer()) {
            env.rule_set_version =
                static_cast<std::uint64_t>(as_i64(f[1]));
            saw_rules = true;
        } else if (f.has_head("checksum") && f.size() == 2 &&
                   f[1].is_atom()) {
            env.checksum = as_hex(f[1]);
            saw_checksum = true;
        } else if (f.has_head("payload") && f.size() == 2) {
            env.payload = f[1];
        }
    }
    if (!saw_format || !saw_rules || !saw_checksum || !env.payload) {
        env.error = "missing envelope field";
        env.payload.reset();
        return env;
    }
    env.payload_text = env.payload->to_string();
    env.well_formed = true;
    return env;
}

CachedEntry
make_entry(const CacheKey& key, const CompilerOptions& options,
           const CompiledKernel& compiled)
{
    CachedEntry entry;
    entry.key = key;
    entry.kernel_name = compiled.kernel.name;
    entry.vector_width = options.target.vector_width;
    entry.time_limit_seconds = options.limits.time_limit_seconds;
    entry.fallback_level = compiled.report.fallback_level;
    entry.report = compiled.report;
    entry.c_source = compiled.c_source;
    entry.pool = compiled.layout.pool();
    entry.machine = compiled.machine;
    return entry;
}

CompiledKernel
compiled_from_entry(const scalar::Kernel& kernel, const CachedEntry& entry)
{
    // No compiler stage runs here: the spec, padded spec and extracted
    // term stay empty (see serialize.h file header).
    CompiledKernel ck;
    ck.kernel = kernel;
    ck.layout = vir::CompiledLayout::make(kernel, entry.vector_width);
    ck.layout.set_pool(entry.pool);
    ck.machine = entry.machine;
    ck.c_source = entry.c_source;
    ck.report = entry.report;
    return ck;
}

}  // namespace diospyros::service
