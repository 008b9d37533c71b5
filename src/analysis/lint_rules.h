/**
 * @file
 * Rewrite-rule soundness linter.
 *
 * Every rule the compiler registers is checked against the GF(p)
 * fingerprint validator in src/validation/: pattern-based rules are
 * instantiated with fresh symbolic atoms on both sides and proven
 * equivalent; custom searcher/applier rules (list chunking, the
 * lane-wise lifts, VecMAC) are exercised on a synthetic witness term in
 * a scratch e-graph, and every alternative the rule adds to the matched
 * class must validate against the witness.
 *
 * Diagnostic codes (pass "rule-lint"):
 *   R301  rule is unsound (proved not equivalent, or an RHS variable is
 *         unbound on the LHS)
 *   R302  rule could not be exercised (no witness template, or the
 *         witness did not match) — coverage gap, not unsoundness
 *
 * Runs as `dioscc --lint-rules` and as a debug-build startup self-check
 * (env opt-out DIOS_NO_RULE_LINT).
 */
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "egraph/rewrite.h"
#include "rules/rules.h"
#include "validation/validate.h"

namespace diospyros::analysis {

/** Outcome of linting one rule. */
struct RuleLintResult {
    std::string rule;
    /** kEquivalent = proven sound; kUnknown = unexercised. */
    Verdict verdict = Verdict::kUnknown;
    /** False when the linter had no way to exercise the rule. */
    bool exercised = false;
    std::string detail;
};

/** Lints one rule at the given vector width. */
RuleLintResult lint_rule(const Rewrite& rule, int vector_width);

/** Lints every rule build_rules(config) registers. */
std::vector<RuleLintResult> lint_rules(const RuleConfig& config);

/**
 * Folds results into diagnostics (R301/R302). Returns true when no
 * rule was unsound.
 */
bool lint_to_diags(const std::vector<RuleLintResult>& results,
                   DiagEngine& diags);

}  // namespace diospyros::analysis
