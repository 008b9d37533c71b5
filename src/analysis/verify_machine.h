/**
 * @file
 * Machine-program verifier + symbolic machine-level translation
 * validation: the last links of the verification chain (DESIGN.md §5i).
 *
 * Everything upstream of emission is already gated (V0xx over VIR, E1xx/
 * E2xx over the e-graph, R3xx over the rule set, term-level
 * translation validation), but the final artifact — scheduled machine
 * code — was not: a wrong shuffle lane in emit.cpp, a WAR-violating
 * reorder in the list scheduler, or a clobbered accumulator register was
 * invisible to every existing gate. This module closes that gap.
 *
 * Structural checks and their stable diagnostic codes (pass
 * "machine-verify"):
 *
 *   M001  register read before any guaranteed definition (per-file
 *         definite-assignment dataflow; meet over all paths for
 *         branching code)
 *   M002  register index outside the program's declared file size
 *   M003  opcode/operand disagreement against instr_ports (required
 *         operand missing, or a stray operand the opcode never reads)
 *   M004  shuffle/select/insert/extract lane out of bounds for the
 *         target's vector width (select indexes the 2x-width concat)
 *   M005  branch or jump target outside [0, code size)
 *   M006  halt not guaranteed: execution can fall off the end, or a
 *         reachable instruction has no path to any halt
 *   M007  absolute memory access outside every declared array extent /
 *         the constant pool, straddling two segments, or a store into
 *         the constant pool
 *   M008  scheduler preservation failure: the scheduled program is not
 *         a dependence-preserving permutation of the unscheduled one
 *         (the RAW/WAR/WAW + per-word memory dependence graph is
 *         recomputed here, independently of machine/schedule.cpp)
 *   M009  symbolic machine-level validation: a memory location provably
 *         differs from the spec
 *   M010  (note) concrete counterexample witness for an M009
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/verify_vir.h"
#include "ir/term.h"
#include "machine/program.h"
#include "machine/schedule.h"
#include "machine/target.h"
#include "validation/validate.h"
#include "vir/emit.h"
#include "vir/lower_term.h"

namespace diospyros::analysis {

/**
 * Runs the per-instruction and whole-program structural checks
 * (M001–M007) over `program`. Memory-bounds checks (M007) only run when
 * `layout` is non-null. Returns true when no errors were added.
 */
bool verify_machine_program(const Program& program, const TargetSpec& target,
                            DiagEngine& diags,
                            const vir::CompiledLayout* layout = nullptr);

/**
 * Proves `after` is a dependence-preserving permutation of `before`
 * under the scheduler's claimed order (ScheduleStats::order — empty
 * means "scheduling did not apply", in which case the programs must be
 * identical). The register RAW/WAR/WAW and per-word memory dependence
 * graph is recomputed here from scratch; any violation diags M008.
 * Returns true when the schedule is preserved.
 */
bool check_schedule_preservation(const Program& before, const Program& after,
                                 const ScheduleStats& stats,
                                 const TargetSpec& target,
                                 DiagEngine& diags);

/** A concrete diverging input found for a kNotEquivalent verdict. */
struct MachineWitness {
    /** Input array name -> concrete values (minimized: mostly zeros). */
    std::vector<std::pair<std::string, std::vector<double>>> inputs;
    std::string output_array;
    std::int64_t output_index = 0;
    double spec_value = 0.0;
    double machine_value = 0.0;

    /** One-line rendering for diagnostics and --json. */
    std::string to_string() const;
};

/** Outcome of symbolic machine-level translation validation. */
struct MachineValidation {
    Verdict verdict = Verdict::kUnknown;
    /** Why the verdict is kUnknown / which location diverged. */
    std::string detail;
    /** Engaged for kNotEquivalent when a concrete witness was found. */
    std::optional<MachineWitness> witness;
};

/**
 * Symbolically executes a straight-line machine program — registers and
 * memory words as scalar terms, inputs seeded from the layout as
 * Get(array, i) atoms, the constant pool as exact rationals — then
 * compares the GF(p) fingerprint of every padded output location with
 * that of the corresponding element of `padded_spec`, using one
 * Fingerprinter (validation/validate.h) for the whole program.
 *
 * kNotEquivalent is only reported when a concrete diverging input was
 * found (attached as the witness); a fingerprint mismatch that no random
 * environment reproduces degrades to kUnknown, so float-rounded
 * constants can never produce a false alarm. Programs with control flow
 * or register-relative addressing yield kUnknown with a detail message.
 * `deadline` is checked once per output element; expiry raises
 * DeadlineExceeded.
 */
MachineValidation validate_machine_translation(
    const TermRef& padded_spec, const std::vector<vir::OutputSlot>& slots,
    const Program& program, const vir::CompiledLayout& layout,
    const TargetSpec& target, const Deadline& deadline = {});

/**
 * Debug-startup self-check (dioscc, mirroring --lint-rules): verifies a
 * known-good program passes cleanly and that planted bugs (a bad
 * shuffle lane, a dependence-violating reorder) are caught with their
 * M-codes. Returns "" on success, else a description of what broke.
 */
std::string machine_verifier_self_check();

/**
 * Machine gates share the VIR gates' default: always on in debug and
 * sanitizer builds; release builds opt in via
 * CompilerOptions::verify_machine (dioscc --verify-machine).
 */
constexpr bool
verify_machine_default()
{
    return verify_ir_default();
}

}  // namespace diospyros::analysis
