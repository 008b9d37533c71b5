/**
 * @file
 * On-disk representation of a compiled kernel: the compile service's
 * disk cache persists entries as s-expressions (support/sexpr.h), the
 * same machinery the rest of the toolchain uses for specs and rules.
 * Entries are written straight to text with SexprWriter and read back
 * from a SexprDoc::View; no tree is built on either side.
 *
 * An entry stores exactly what a warm process needs to *serve* the
 * kernel without re-running saturation: the emitted machine program
 * (instruction by instruction, floats as exact hexfloat atoms), the
 * constant pool, the generated C source (quoted-string atom), and the
 * original CompileReport. The optimized DSL term is deliberately NOT
 * persisted: printed as a tree it can be exponentially larger than its
 * DAG, and nothing downstream of emission needs it. Rebuilding a
 * servable kernel from an entry runs no compiler stage: the kernel is
 * not re-lifted, and the rebuilt artifact's `spec`, `padded_spec`,
 * `extracted` and `vprogram` stay empty (see CompiledKernel).
 *
 * Round-trip contract: write(read(x)) == x byte-for-byte, and a
 * deserialized program disassembles identically to the original —
 * that is what makes warm-cache outputs byte-identical to cold ones.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "machine/program.h"
#include "service/cache_key.h"
#include "support/sexpr.h"

namespace diospyros::service {

/** One persisted compile result (see file header). */
struct CachedEntry {
    std::uint64_t rule_set_version = kRuleSetVersion;
    CacheKey key;
    std::string kernel_name;
    int vector_width = 4;
    /**
     * Saturation wall-clock budget the entry was produced under. Not part
     * of the key; the service consults it when deciding whether a
     * time-bound entry may serve a request with a larger budget.
     */
    double time_limit_seconds = 0.0;
    int fallback_level = 0;
    CompileReport report;
    std::string c_source;
    std::vector<float> pool;
    Program machine;
};

/** Writes an entry's canonical `(dios-cache-entry ...)` form. */
void write_entry(SexprWriter& w, const CachedEntry& entry);

/**
 * Reads an entry; raises UserError on malformed input. Unknown fields
 * are skipped; the rule-set version is returned, not checked.
 */
CachedEntry read_entry(SexprDoc::View view);

/**
 * Version of the on-disk *envelope* format (distinct from
 * kRuleSetVersion, which versions the artifact semantics). Bump when
 * the envelope layout itself changes. Entries from an *older* format
 * are ordinary misses — stale, not suspect — while entries claiming a
 * version this build has never heard of are quarantined.
 *
 * History: 1–2 fixed-width lane tables (6 + kMaxVectorWidth slots per
 * instruction); 3 explicit per-instruction lane counts, so the format
 * survives kMaxVectorWidth changes.
 */
constexpr std::uint64_t kCacheFormatVersion = 3;

/**
 * The durable on-disk envelope text of an entry, as DiskCache::store
 * writes it (less the final newline):
 *
 *   (dios-cache-envelope
 *     (format-version 3)
 *     (rule-set-version N)
 *     (checksum <16-hex StableHasher digest of the payload's canonical
 *                flat rendering>)
 *     (payload
 *       (dios-cache-entry ...)))
 *
 * The text is wrapped at 79 columns (SexprDoc::View::to_pretty_string).
 * The checksum is computed over the payload's canonical (flat)
 * rendering — the bytes write_entry() produces — so on-disk whitespace
 * differences never matter while any content-bearing bit flip is
 * detected.
 */
std::string envelope_text(const CachedEntry& entry);

/** Parsed envelope header; see envelope_fields(). */
struct EnvelopeFields {
    bool well_formed = false;
    /** Why !well_formed ("" otherwise). */
    std::string error;
    std::uint64_t format_version = 0;
    std::uint64_t rule_set_version = 0;
    /** Stored payload checksum (compare with stable_hash_string). */
    std::uint64_t checksum = 0;
    /** The payload node of the inspected document; engaged iff well_formed. */
    std::optional<SexprDoc::View> payload;
    /** Canonical rendering of the payload — the checksummed bytes. */
    std::string payload_text;
};

/**
 * Dissects an envelope without verifying the checksum or parsing the
 * payload into an entry — DiskCache layers those checks (and their
 * corruption policy) on top. Never throws; malformed input comes back
 * as !well_formed.
 */
EnvelopeFields envelope_fields(SexprDoc::View view);

/** Builds the persistable entry for a finished resilient compile. */
CachedEntry make_entry(const CacheKey& key, const CompilerOptions& options,
                       const CompiledKernel& compiled);

/**
 * Reconstructs a servable CompiledKernel from a cached entry without
 * lifting the kernel: rebuilds the memory layout from the kernel's
 * declarations, and installs the stored machine program, pool, C
 * source, and report. The compiler intermediates (`spec`,
 * `padded_spec`, `extracted`, `vprogram`) stay empty; run() takes its
 * output manifest from the kernel's declarations instead.
 */
CompiledKernel compiled_from_entry(const scalar::Kernel& kernel,
                                   const CachedEntry& entry);

}  // namespace diospyros::service
