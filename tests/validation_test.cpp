// Tests for translation validation: devectorization, GF(p) fingerprint
// equivalence, and the randomized differential tester.

#include <gtest/gtest.h>

#include "validation/validate.h"

namespace diospyros {
namespace {

TEST(Devectorize, FlattensStructure)
{
    const auto v = devectorize(Term::parse(
        "(List (Concat (Vec 1 2) (Vec (Get a 0) 4)) (Get a 1))"));
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(Term::to_string(v[2]), "(Get a 0)");
    EXPECT_EQ(Term::to_string(v[4]), "(Get a 1)");
}

TEST(Devectorize, DistributesLaneWiseOps)
{
    const auto v = devectorize(Term::parse(
        "(VecMAC (Vec (Get o 0) (Get o 1)) (Vec (Get a 0) (Get a 1)) (Vec "
        "(Get b 0) (Get b 1)))"));
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(Term::to_string(v[0]),
              "(+ (Get o 0) (* (Get a 0) (Get b 0)))");
    EXPECT_EQ(Term::to_string(v[1]),
              "(+ (Get o 1) (* (Get a 1) (Get b 1)))");
}

TEST(ScalarEquivalence, DecidesAcIdentities)
{
    auto eq = [](const char* a, const char* b) {
        return scalar_equivalent(Term::parse(a), Term::parse(b));
    };
    // Commutativity and associativity.
    EXPECT_EQ(eq("(+ (Get a 0) (Get a 1))", "(+ (Get a 1) (Get a 0))"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(* (+ (Get a 0) (Get a 1)) (Get a 2))",
                 "(+ (* (Get a 2) (Get a 0)) (* (Get a 1) (Get a 2)))"),
              Verdict::kEquivalent);
    // Identities.
    EXPECT_EQ(eq("(+ (Get a 0) 0)", "(Get a 0)"), Verdict::kEquivalent);
    EXPECT_EQ(eq("(* (Get a 0) 1)", "(Get a 0)"), Verdict::kEquivalent);
    EXPECT_EQ(eq("(- (Get a 0) (Get a 0))", "0"), Verdict::kEquivalent);
    EXPECT_EQ(eq("(neg (neg (Get a 0)))", "(Get a 0)"),
              Verdict::kEquivalent);
    // Non-equivalences.
    EXPECT_EQ(eq("(+ (Get a 0) (Get a 1))", "(+ (Get a 0) (Get a 2))"),
              Verdict::kNotEquivalent);
    EXPECT_EQ(eq("(* (Get a 0) (Get a 0))", "(Get a 0)"),
              Verdict::kNotEquivalent);
}

TEST(ScalarEquivalence, HandlesOpaqueOperators)
{
    auto eq = [](const char* a, const char* b) {
        return scalar_equivalent(Term::parse(a), Term::parse(b));
    };
    // sqrt/sgn are opaque but keyed by argument fingerprints.
    EXPECT_EQ(eq("(sqrt (+ (Get a 0) (Get a 1)))",
                 "(sqrt (+ (Get a 1) (Get a 0)))"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(/ (Get a 0) (+ (Get b 0) (Get b 1)))",
                 "(/ (Get a 0) (+ (Get b 1) (Get b 0)))"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(sqrt (Get a 0))", "(sqrt (Get a 1))"),
              Verdict::kNotEquivalent);
    // Division by a constant is exact.
    EXPECT_EQ(eq("(/ (Get a 0) 2)", "(* (Get a 0) 1/2)"),
              Verdict::kEquivalent);
    // recip(x) == 1/x.
    EXPECT_EQ(eq("(recip (Get a 0))", "(/ 1 (Get a 0))"),
              Verdict::kEquivalent);
    // sgn of constants folds.
    EXPECT_EQ(eq("(sgn -5)", "-1"), Verdict::kEquivalent);
    // sqrt of a perfect square folds.
    EXPECT_EQ(eq("(sqrt 9/4)", "3/2"), Verdict::kEquivalent);
    // Uninterpreted calls compare by argument canonical form.
    EXPECT_EQ(eq("(Call f (+ (Get a 0) (Get a 1)))",
                 "(Call f (+ (Get a 1) (Get a 0)))"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(Call f (Get a 0))", "(Call g (Get a 0))"),
              Verdict::kNotEquivalent);
}

TEST(TranslationValidation, AcceptsVectorizedPrograms)
{
    const TermRef spec = Term::parse(
        "(List (+ (Get a 0) (* (Get b 0) (Get c 0))) (+ (Get a 1) (* (Get "
        "b 1) (Get c 1))))");
    const TermRef optimized = Term::parse(
        "(VecMAC (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)) (Vec "
        "(Get c 0) (Get c 1)))");
    EXPECT_EQ(validate_translation(spec, optimized), Verdict::kEquivalent);
}

TEST(TranslationValidation, AcceptsZeroPadding)
{
    const TermRef spec =
        Term::parse("(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))");
    // Optimized output is wider; the padding lanes must be zero.
    const TermRef ok = Term::parse(
        "(VecAdd (Vec (Get a 0) (Get a 1) 0 0) (Vec (Get b 0) (Get b 1) 0 "
        "0))");
    EXPECT_EQ(validate_translation(spec, ok), Verdict::kEquivalent);
    // Nonzero garbage in the padding is rejected.
    const TermRef bad = Term::parse(
        "(VecAdd (Vec (Get a 0) (Get a 1) 1 0) (Vec (Get b 0) (Get b 1) 0 "
        "0))");
    EXPECT_EQ(validate_translation(spec, bad), Verdict::kNotEquivalent);
}

TEST(TranslationValidation, CatchesMiscompiles)
{
    const TermRef spec =
        Term::parse("(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))");
    const TermRef wrong = Term::parse(
        "(VecAdd (Vec (Get a 0) (Get a 0)) (Vec (Get b 0) (Get b 1)))");
    EXPECT_EQ(validate_translation(spec, wrong), Verdict::kNotEquivalent);
}

TEST(TranslationValidation, TooShortIsRejected)
{
    const TermRef spec = Term::parse("(List (Get a 0) (Get a 1))");
    const TermRef shorter = Term::parse("(List (Get a 0))");
    EXPECT_EQ(validate_translation(spec, shorter),
              Verdict::kNotEquivalent);
}

TEST(ScalarEquivalence, DecidesHighDegreeTerms)
{
    // (x0+x1+x2+x3)^16 has 969 monomials when expanded; fingerprinting
    // evaluates it without expanding, so both verdicts are decided.
    auto power16 = [](const char* last) {
        TermRef sum = t_get("x", 0);
        for (int i = 1; i < 3; ++i) {
            sum = t_add(sum, t_get("x", i));
        }
        sum = t_add(sum, t_get(last, 3));
        TermRef pow = sum;
        for (int i = 0; i < 4; ++i) {
            pow = t_mul(pow, pow);
        }
        return pow;
    };
    const TermRef pow = power16("x");
    EXPECT_EQ(scalar_equivalent(pow, pow), Verdict::kEquivalent);
    EXPECT_EQ(scalar_equivalent(pow, power16("y")),
              Verdict::kNotEquivalent);
}

TEST(ScalarEquivalence, DecidesRationalFunctionIdentities)
{
    auto eq = [](const char* a, const char* b) {
        return scalar_equivalent(Term::parse(a), Term::parse(b));
    };
    EXPECT_EQ(eq("(/ (* (Get a 0) (Get b 0)) (Get b 0))", "(Get a 0)"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(/ (Get a 0) (Get b 0))", "(/ (Get b 0) (Get a 0))"),
              Verdict::kNotEquivalent);
}

TEST(ScalarEquivalence, AgreesOnDivisionByIdenticallyZero)
{
    // Both sides divide by b - b; the shared division-by-zero atom keeps
    // them equal, and a different numerator still differs.
    auto eq = [](const char* a, const char* b) {
        return scalar_equivalent(Term::parse(a), Term::parse(b));
    };
    EXPECT_EQ(eq("(/ (Get a 0) (- (Get b 0) (Get b 0)))",
                 "(/ (Get a 0) (- (Get b 1) (Get b 1)))"),
              Verdict::kEquivalent);
    EXPECT_EQ(eq("(/ (Get a 0) (- (Get b 0) (Get b 0)))",
                 "(/ (Get a 1) (- (Get b 0) (Get b 0)))"),
              Verdict::kNotEquivalent);
}

TEST(RandomCheck, AcceptsEquivalentAndRejectsDifferent)
{
    const TermRef spec = Term::parse(
        "(List (+ (Get a 0) (* (Get b 0) (Get c 0))) (* (Get b 1) (Get c "
        "1)))");
    const TermRef same = Term::parse(
        "(VecMAC (Vec (Get a 0) 0) (Vec (Get b 0) (Get b 1)) (Vec (Get c "
        "0) (Get c 1)))");
    const TermRef different = Term::parse(
        "(VecMAC (Vec (Get a 0) 0) (Vec (Get b 0) (Get b 0)) (Vec (Get c "
        "0) (Get c 1)))");
    EXPECT_TRUE(random_equivalent(spec, same));
    EXPECT_FALSE(random_equivalent(spec, different));
}

TEST(RandomCheck, ToleratesSqrtOfProducts)
{
    const TermRef spec = Term::parse(
        "(List (sqrt (+ (* (Get a 0) (Get a 0)) (* (Get a 1) (Get a "
        "1)))))");
    const TermRef same = Term::parse(
        "(List (sqrt (+ (* (Get a 1) (Get a 1)) (* (Get a 0) (Get a "
        "0)))))");
    EXPECT_TRUE(random_equivalent(spec, same));
}

}  // namespace
}  // namespace diospyros
