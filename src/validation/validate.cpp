#include "validation/validate.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "ir/eval.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/hash.h"
#include "support/rng.h"

namespace diospyros {

const char*
verdict_name(Verdict v)
{
    switch (v) {
      case Verdict::kEquivalent:
        return "equivalent";
      case Verdict::kNotEquivalent:
        return "NOT-equivalent";
      case Verdict::kUnknown:
        return "unknown";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Devectorization
// ---------------------------------------------------------------------------

namespace {

class Devectorizer {
  public:
    const std::vector<TermRef>&
    flatten(const TermRef& t)
    {
        auto it = memo_.find(t.get());
        if (it != memo_.end()) {
            return it->second;
        }
        std::vector<TermRef> out = compute(t);
        return memo_.emplace(t.get(), std::move(out)).first->second;
    }

  private:
    std::vector<TermRef>
    compute(const TermRef& t)
    {
        if (t->is_scalar()) {
            return {t};
        }
        switch (t->op()) {
          case Op::kList:
          case Op::kConcat: {
            std::vector<TermRef> out;
            for (const TermRef& c : t->children()) {
                const auto& v = flatten(c);
                out.insert(out.end(), v.begin(), v.end());
            }
            return out;
          }
          case Op::kVec: {
            std::vector<TermRef> out;
            for (const TermRef& c : t->children()) {
                DIOS_CHECK(c->is_scalar(), "Vec lane is not scalar");
                out.push_back(c);
            }
            return out;
          }
          case Op::kVecAdd:
          case Op::kVecMinus:
          case Op::kVecMul:
          case Op::kVecDiv: {
            const auto a = flatten(t->child(0));
            const auto b = flatten(t->child(1));
            DIOS_CHECK(a.size() == b.size(),
                       "lane mismatch during devectorization");
            const Op sop = t->op() == Op::kVecAdd     ? Op::kAdd
                           : t->op() == Op::kVecMinus ? Op::kSub
                           : t->op() == Op::kVecMul   ? Op::kMul
                                                      : Op::kDiv;
            std::vector<TermRef> out;
            out.reserve(a.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                out.push_back(Term::make(sop, {a[i], b[i]}));
            }
            return out;
          }
          case Op::kVecMAC: {
            const auto acc = flatten(t->child(0));
            const auto x = flatten(t->child(1));
            const auto y = flatten(t->child(2));
            DIOS_CHECK(acc.size() == x.size() && x.size() == y.size(),
                       "lane mismatch during devectorization");
            std::vector<TermRef> out;
            out.reserve(acc.size());
            for (std::size_t i = 0; i < acc.size(); ++i) {
                out.push_back(t_add(acc[i], t_mul(x[i], y[i])));
            }
            return out;
          }
          case Op::kVecNeg:
          case Op::kVecSqrt:
          case Op::kVecSgn:
          case Op::kVecRecip: {
            const auto a = flatten(t->child(0));
            const Op sop = t->op() == Op::kVecNeg    ? Op::kNeg
                           : t->op() == Op::kVecSqrt ? Op::kSqrt
                           : t->op() == Op::kVecSgn  ? Op::kSgn
                                                     : Op::kRecip;
            std::vector<TermRef> out;
            out.reserve(a.size());
            for (const TermRef& lane : a) {
                out.push_back(Term::make(sop, {lane}));
            }
            return out;
          }
          default:
            throw UserError("cannot devectorize operator " +
                            std::string(op_name(t->op())));
        }
    }

    std::unordered_map<const Term*, std::vector<TermRef>> memo_;
};

}  // namespace

std::vector<TermRef>
devectorize(const TermRef& term)
{
    Devectorizer d;
    return d.flatten(term);
}

// ---------------------------------------------------------------------------
// Fingerprints over GF(2^61 - 1)
// ---------------------------------------------------------------------------

namespace {

/** The Mersenne prime 2^61 - 1: reduction is a shift and an add. */
constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;
/** Seed of the evaluation point. Fixed so verdicts are reproducible. */
constexpr std::uint64_t kSeed = 0xd105'f1e1'd5ee'd001ULL;

std::uint64_t
add_mod(std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t s = a + b;
    return s >= kP ? s - kP : s;
}

std::uint64_t
neg_mod(std::uint64_t a)
{
    return a == 0 ? 0 : kP - a;
}

std::uint64_t
mul_mod(std::uint64_t a, std::uint64_t b)
{
    const unsigned __int128 x = static_cast<unsigned __int128>(a) * b;
    const std::uint64_t r = static_cast<std::uint64_t>(x & kP) +
                            static_cast<std::uint64_t>(x >> 61);
    return r >= kP ? r - kP : r;
}

/** a^(p-2) = a^-1 for a != 0 (Fermat). */
std::uint64_t
inv_mod(std::uint64_t a)
{
    std::uint64_t result = 1;
    for (std::uint64_t e = kP - 2; e != 0; e >>= 1) {
        if (e & 1) {
            result = mul_mod(result, a);
        }
        a = mul_mod(a, a);
    }
    return result;
}

std::uint64_t
int_mod(std::int64_t n)
{
    const std::uint64_t magnitude =
        n < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(n)
              : static_cast<std::uint64_t>(n);
    return n < 0 ? neg_mod(magnitude % kP) : magnitude % kP;
}

std::uint64_t
rational_mod(const Rational& r)
{
    return mul_mod(int_mod(r.num()), inv_mod(int_mod(r.den())));
}

/** Seeded hasher for an opaque atom; `tag` names the atom kind. */
StableHasher
atom_hasher(std::string_view tag)
{
    StableHasher h;
    h.u64(kSeed).tag(tag);
    return h;
}

/** Maps a hash into GF(p) (splitmix64 finalizer, then 61 bits). */
std::uint64_t
to_field(const StableHasher& h)
{
    std::uint64_t z = h.digest();
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t r = z >> 3;
    return r >= kP ? r - kP : r;
}

/** Square root of a rational if it is an exact perfect square. */
std::optional<Rational>
exact_sqrt(const Rational& r)
{
    if (r < Rational(0)) {
        return std::nullopt;
    }
    auto isqrt = [](std::int64_t v) -> std::optional<std::int64_t> {
        const auto root = static_cast<std::int64_t>(
            std::llround(std::sqrt(static_cast<double>(v))));
        for (std::int64_t cand = std::max<std::int64_t>(0, root - 2);
             cand <= root + 2; ++cand) {
            if (cand * cand == v) {
                return cand;
            }
        }
        return std::nullopt;
    };
    const auto n = isqrt(r.num());
    const auto d = isqrt(r.den());
    if (n && d) {
        return Rational(*n, *d);
    }
    return std::nullopt;
}

}  // namespace

std::uint64_t
Fingerprinter::of(const TermRef& t)
{
    return eval(t).fp;
}

const Fingerprinter::Value&
Fingerprinter::eval(const TermRef& t)
{
    auto it = memo_.find(t.get());
    if (it != memo_.end()) {
        return it->second;
    }
    Value v = compute(t);
    return memo_.emplace(t.get(), std::move(v)).first->second;
}

Fingerprinter::Value
Fingerprinter::compute(const TermRef& t)
{
    // Exact constant folding can overflow; that only loses the exact
    // value (sqrt/sgn of it then hash opaquely), never the fingerprint.
    auto fold = [](auto&& f) -> std::optional<Rational> {
        try {
            return f();
        } catch (const RationalOverflow&) {
            return std::nullopt;
        }
    };
    switch (t->op()) {
      case Op::kConst:
        return {rational_mod(t->value()), t->value()};
      case Op::kSymbol:
        return {to_field(atom_hasher("S").str(t->symbol().str())), {}};
      case Op::kGet:
        return {to_field(atom_hasher("G")
                             .str(t->symbol().str())
                             .i64(t->index())),
                {}};
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul: {
        const Value& a = eval(t->child(0));
        const Value& b = eval(t->child(1));
        Value out;
        if (t->op() == Op::kAdd) {
            out.fp = add_mod(a.fp, b.fp);
        } else if (t->op() == Op::kSub) {
            out.fp = add_mod(a.fp, neg_mod(b.fp));
        } else {
            out.fp = mul_mod(a.fp, b.fp);
        }
        if (a.exact && b.exact) {
            out.exact = fold([&] {
                return t->op() == Op::kAdd   ? *a.exact + *b.exact
                       : t->op() == Op::kSub ? *a.exact - *b.exact
                                             : *a.exact * *b.exact;
            });
        }
        return out;
      }
      case Op::kNeg: {
        const Value& a = eval(t->child(0));
        Value out{neg_mod(a.fp), {}};
        if (a.exact) {
            out.exact = fold([&] { return -*a.exact; });
        }
        return out;
      }
      case Op::kDiv:
      case Op::kRecip: {
        const Value one{1, Rational(1)};
        const Value& num = t->op() == Op::kDiv ? eval(t->child(0)) : one;
        const Value& den =
            eval(t->op() == Op::kDiv ? t->child(1) : t->child(0));
        if (den.fp == 0) {
            // Division by zero is undefined over the reals; one opaque
            // atom keeps both sides of a query in agreement.
            return {mul_mod(num.fp, to_field(atom_hasher("R:zero"))), {}};
        }
        Value out{mul_mod(num.fp, inv_mod(den.fp)), {}};
        if (num.exact && den.exact) {
            out.exact = fold([&] { return *num.exact / *den.exact; });
        }
        return out;
      }
      case Op::kSqrt:
      case Op::kSgn: {
        const Value& a = eval(t->child(0));
        if (a.fp == 0) {
            return {0, Rational(0)};
        }
        std::optional<Rational> folded;
        if (a.exact) {
            folded = t->op() == Op::kSgn
                         ? Rational(*a.exact < Rational(0) ? -1 : 1)
                         : exact_sqrt(*a.exact);
        }
        if (folded) {
            return {rational_mod(*folded), folded};
        }
        return {to_field(atom_hasher(t->op() == Op::kSqrt ? "Q" : "N")
                             .u64(a.fp)),
                {}};
      }
      case Op::kCall: {
        StableHasher h = atom_hasher("C");
        h.str(t->symbol().str());
        for (const TermRef& c : t->children()) {
            h.u64(eval(c).fp);
        }
        return {to_field(h), {}};
      }
      default:
        throw UserError("cannot fingerprint vector operator " +
                        std::string(op_name(t->op())) +
                        "; devectorize first");
    }
}

Verdict
scalar_equivalent(const TermRef& a, const TermRef& b)
{
    Fingerprinter fingerprints;
    return fingerprints.of(a) == fingerprints.of(b) ? Verdict::kEquivalent
                                                    : Verdict::kNotEquivalent;
}

Verdict
validate_translation(const TermRef& spec, const TermRef& optimized,
                     const Deadline& deadline)
{
    DIOS_FAULT_POINT("validate.exact");
    const std::vector<TermRef> lhs = devectorize(spec);
    const std::vector<TermRef> rhs = devectorize(optimized);
    if (rhs.size() < lhs.size()) {
        return Verdict::kNotEquivalent;
    }
    Fingerprinter fingerprints;
    for (std::size_t i = 0; i < rhs.size(); ++i) {
        deadline.check("validation");
        const std::uint64_t expected =
            i < lhs.size() ? fingerprints.of(lhs[i]) : 0;
        if (expected != fingerprints.of(rhs[i])) {
            return Verdict::kNotEquivalent;
        }
    }
    return Verdict::kEquivalent;
}

// ---------------------------------------------------------------------------
// Randomized differential testing
// ---------------------------------------------------------------------------

namespace {

/** Collects, per input array, the maximum Get index. */
void
collect_arrays(const TermRef& t,
               std::unordered_map<Symbol, std::int64_t>& max_index,
               std::unordered_map<const Term*, bool>& seen)
{
    if (seen.count(t.get())) {
        return;
    }
    seen.emplace(t.get(), true);
    if (t->op() == Op::kGet) {
        auto [it, inserted] = max_index.try_emplace(t->symbol(), t->index());
        if (!inserted) {
            it->second = std::max(it->second, t->index());
        }
    }
    for (const TermRef& c : t->children()) {
        collect_arrays(c, max_index, seen);
    }
}

bool
values_close(double a, double b, double tol)
{
    if (std::isnan(a) && std::isnan(b)) {
        return true;
    }
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tol * scale;
}

}  // namespace

bool
random_equivalent(const TermRef& spec, const TermRef& optimized, int trials,
                  std::uint64_t seed, double tolerance)
{
    std::unordered_map<Symbol, std::int64_t> max_index;
    std::unordered_map<const Term*, bool> seen;
    collect_arrays(spec, max_index, seen);
    collect_arrays(optimized, max_index, seen);

    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
        EvalEnv env;
        for (const auto& [array, max_i] : max_index) {
            std::vector<double> data(static_cast<std::size_t>(max_i) + 1);
            for (double& v : data) {
                // Stay away from zero so / and accumulated cancellations
                // behave; mixed signs keep sgn/neg paths honest.
                const double magnitude = rng.uniform(0.5, 3.0);
                v = rng.uniform_int(0, 1) ? magnitude : -magnitude;
            }
            env.bind_array(array.str(), std::move(data));
        }
        const std::vector<double> lhs = evaluate(spec, env);
        std::vector<double> rhs = evaluate(optimized, env);
        if (rhs.size() < lhs.size()) {
            return false;
        }
        for (std::size_t i = 0; i < rhs.size(); ++i) {
            const double expected = i < lhs.size() ? lhs[i] : 0.0;
            if (!values_close(expected, rhs[i], tolerance)) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace diospyros
