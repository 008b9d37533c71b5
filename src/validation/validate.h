/**
 * @file
 * Translation validation (paper §3.4).
 *
 * The original Diospyros discharges spec ≡ optimized with Rosette/SMT over
 * *real* arithmetic. This module decides the same question without a
 * solver, by Schwartz–Zippel fingerprinting: both programs are
 * devectorized to per-output scalar terms, and every term is evaluated in
 * the prime field GF(p), p = 2^61 - 1, at one fixed pseudo-random point
 * (each Get/Symbol leaf is a seeded hash of its name). + - × are field
 * operations and / and recip use the field inverse, so two terms that
 * agree as rational functions — everything AC, distribution, MAC fusion
 * and padding can introduce — always get equal fingerprints. sqrt, sgn
 * and user calls are opaque: a seeded hash of their argument
 * fingerprints (sqrt/sgn of a constant fold exactly).
 *
 * The check is one linear pass over each term DAG, never overflows and
 * never gives up. A kEquivalent verdict is wrong with probability at most
 * deg/p (about deg * 4e-19) over the choice of point; DESIGN.md §5 states
 * the bound and the model.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ir/term.h"
#include "support/deadline.h"

namespace diospyros {

/** Outcome of translation validation. */
enum class Verdict {
    kEquivalent,
    kNotEquivalent,
    kUnknown,  ///< not decided (e.g. machine code with control flow)
};

const char* verdict_name(Verdict v);

/**
 * Flattens a vector-DSL term into one scalar term per output element
 * (Vec/Concat/List structure dissolved, lane-wise operators distributed).
 */
std::vector<TermRef> devectorize(const TermRef& term);

/**
 * Memoized GF(2^61 - 1) evaluation of scalar terms at one fixed point.
 * Each distinct subterm is evaluated once, so one instance shared across
 * many queries (e.g. every output of a program) costs time linear in
 * the combined DAG size. Terms are memoized by address and must outlive
 * the Fingerprinter.
 */
class Fingerprinter {
  public:
    /** The term's value in GF(p); throws UserError on vector operators. */
    std::uint64_t of(const TermRef& t);

  private:
    struct Value {
        std::uint64_t fp = 0;
        /** Exact value, when `t` is built from constants alone. */
        std::optional<Rational> exact;
    };

    const Value& eval(const TermRef& t);
    Value compute(const TermRef& t);

    std::unordered_map<const Term*, Value> memo_;
};

/**
 * Equivalence of two programs in the vector DSL. Both are devectorized;
 * `optimized` may be longer than `spec` (zero padding): the extra
 * positions must fingerprint to zero. `deadline` is checked once per
 * output element; expiry raises DeadlineExceeded.
 */
Verdict validate_translation(const TermRef& spec, const TermRef& optimized,
                             const Deadline& deadline = {});

/** Equivalence of two scalar terms. */
Verdict scalar_equivalent(const TermRef& a, const TermRef& b);

/**
 * Randomized differential testing: evaluates both programs on `trials`
 * random environments (inputs drawn from ±[0.5, 3] so division stays
 * away from zero and sqrt arguments that appear in practice stay
 * positive) and compares with relative tolerance. Returns false on the
 * first mismatch.
 */
bool random_equivalent(const TermRef& spec, const TermRef& optimized,
                       int trials = 16, std::uint64_t seed = 1,
                       double tolerance = 1e-4);

}  // namespace diospyros
