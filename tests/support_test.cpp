// Unit tests for the support layer: s-expressions, rationals, RNG, hashing.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "support/error.h"
#include "support/hash.h"
#include "support/rational.h"
#include "support/rng.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

TEST(Sexpr, ParsesAtom)
{
    const Sexpr s = parse_sexpr("hello");
    ASSERT_TRUE(s.is_atom());
    EXPECT_EQ(s.token(), "hello");
}

TEST(Sexpr, ParsesNestedList)
{
    const Sexpr s = parse_sexpr("(+ (Get a 0) (Get b 1))");
    ASSERT_TRUE(s.is_list());
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].token(), "+");
    EXPECT_TRUE(s[1].is_list());
    EXPECT_EQ(s[1][1].token(), "a");
    EXPECT_EQ(s[2][2].as_integer(), 1);
}

TEST(Sexpr, RoundTripsThroughToString)
{
    const std::string text = "(List (+ a 1) (* b -2) (Vec 0 0 0 0))";
    const Sexpr s = parse_sexpr(text);
    EXPECT_EQ(s.to_string(), text);
    EXPECT_EQ(parse_sexpr(s.to_string()), s);
}

TEST(Sexpr, SkipsCommentsAndWhitespace)
{
    const Sexpr s = parse_sexpr("; header\n ( a ; mid\n b )\n; tail\n");
    ASSERT_TRUE(s.is_list());
    EXPECT_EQ(s.size(), 2u);
}

TEST(Sexpr, ParsesMultipleTopLevelForms)
{
    const auto forms = parse_sexpr_list("(a) (b c) d");
    ASSERT_EQ(forms.size(), 3u);
    EXPECT_TRUE(forms[2].is_atom());
}

TEST(Sexpr, RejectsMalformedInput)
{
    EXPECT_THROW(parse_sexpr("(a b"), UserError);
    EXPECT_THROW(parse_sexpr(")"), UserError);
    EXPECT_THROW(parse_sexpr("a b"), UserError);
    EXPECT_THROW(parse_sexpr(""), UserError);
}

TEST(Sexpr, IntegerClassification)
{
    EXPECT_TRUE(parse_sexpr("-42").is_integer());
    EXPECT_TRUE(parse_sexpr("+7").is_integer());
    EXPECT_FALSE(parse_sexpr("4.5").is_integer());
    EXPECT_TRUE(parse_sexpr("4.5").is_number());
    EXPECT_FALSE(parse_sexpr("x1").is_number());
}

TEST(Sexpr, PrettyPrintWrapsLongForms)
{
    std::vector<Sexpr> kids;
    for (int i = 0; i < 20; ++i) {
        kids.push_back(parse_sexpr("(+ some-long-atom-name " +
                                   std::to_string(i) + ")"));
    }
    const Sexpr s = Sexpr::list(kids);
    const std::string flat = s.to_string();
    const std::string pretty = SexprDoc(flat).root().to_pretty_string(40);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    EXPECT_EQ(parse_sexpr(pretty), s);
}

TEST(Sexpr, PrettyPrintKeepsShortListsFlatAndIndentsTheRest)
{
    const std::string text = "(outer (a b) (inner \"x y\" (deep 1 2 3)) z)";
    EXPECT_EQ(SexprDoc(text).root().to_pretty_string(79), text);
    EXPECT_EQ(SexprDoc(text).root().to_pretty_string(20),
              "(outer\n"
              "  (a b)\n"
              "  (inner\n"
              "    \"x y\"\n"
              "    (deep 1 2 3))\n"
              "  z)");
}

TEST(SexprWriter, MatchesTreeRenderingIncludingQuoting)
{
    std::string out;
    SexprWriter w(out);
    w.open("entry")
        .atom("plain")
        .atom("")
        .atom("a b\t\"q\"\\\n\r;(x)")
        .i64(-42)
        .u64(18446744073709551615ULL)
        .f64(1.5)
        .f64(-0.0)
        .f64(0.0)
        .f64(5e-324)
        .open()
        .close()
        .close();
    const Sexpr tree = Sexpr::list(
        {Sexpr::atom("entry"), Sexpr::atom("plain"), Sexpr::string_atom(""),
         Sexpr::string_atom("a b\t\"q\"\\\n\r;(x)"), Sexpr::atom("-42"),
         Sexpr::atom("18446744073709551615"), Sexpr::atom("0x1.8p+0"),
         Sexpr::atom("-0x0p+0"), Sexpr::atom("0x0p+0"),
         Sexpr::atom("0x0.0000000000001p-1022"), Sexpr::list({})});
    EXPECT_EQ(out, tree.to_string());
    EXPECT_EQ(parse_sexpr(out), tree);
}

TEST(SexprDoc, ViewReadsLikeTheTree)
{
    const std::string text =
        "; comment\n(head \"esc\\\"aped\" \"plain\" \"\" -7 +3 0x1p-2 x1\n"
        "  (nested (deeper)) ())  \n";
    const SexprDoc doc(text);
    ASSERT_EQ(doc.root_count(), 1u);
    const SexprDoc::View root = doc.root();
    ASSERT_TRUE(root.is_list());
    ASSERT_EQ(root.size(), 10u);
    EXPECT_TRUE(root.has_head("head"));
    EXPECT_FALSE(root.has_head("nested"));
    EXPECT_EQ(root[1].token(), "esc\"aped");
    EXPECT_EQ(root[2].token(), "plain");
    EXPECT_EQ(root[3].token(), "");
    EXPECT_EQ(root[4].as_integer(), -7);
    EXPECT_EQ(root[5].as_integer(), 3);
    EXPECT_FALSE(root[6].is_integer());
    EXPECT_DOUBLE_EQ(root[6].as_number(), 0.25);
    EXPECT_FALSE(root[7].is_number());
    EXPECT_TRUE(root[8].is_list());
    EXPECT_EQ(root[8][1].size(), 1u);
    EXPECT_EQ(root[9].size(), 0u);
    EXPECT_FALSE(root[9].is_integer());
    // The canonical rendering is the tree's.
    EXPECT_EQ(root.to_string(), parse_sexpr(text).to_string());
    EXPECT_EQ(root[8].to_string(), "(nested (deeper))");

    const SexprDoc seq = SexprDoc::sequence("(a) b ; c\n (d e)");
    ASSERT_EQ(seq.root_count(), 3u);
    EXPECT_EQ(seq.root(2).to_string(), "(d e)");
    EXPECT_EQ(SexprDoc::sequence("  ; nothing\n").root_count(), 0u);
}

TEST(SexprDoc, NestingCapRaisesUserErrorNotAStackOverflow)
{
    auto nested = [](std::size_t depth) {
        return std::string(depth, '(') + std::string(depth, ')');
    };
    const std::string deepest = nested(kMaxSexprDepth);
    const std::string too_deep = nested(kMaxSexprDepth + 1);
    EXPECT_NO_THROW(parse_sexpr(deepest));
    EXPECT_THROW(parse_sexpr(too_deep), UserError);
    EXPECT_THROW(SexprDoc{too_deep}, UserError);
    EXPECT_THROW(parse_sexpr_list("(a) " + too_deep), UserError);
    // A million unclosed parens: the recursive parser this replaced
    // overflowed the stack here.
    const std::string million(1'000'000, '(');
    EXPECT_THROW(parse_sexpr(million), UserError);
    EXPECT_THROW(SexprDoc{million}, UserError);

    // The writers walk the deepest accepted document without recursion
    // trouble; one child per level never wraps.
    const SexprDoc doc(deepest);
    EXPECT_EQ(doc.root().to_string(), deepest);
    EXPECT_EQ(doc.root().to_pretty_string(), deepest);
}

TEST(Rational, NormalizesOnConstruction)
{
    EXPECT_EQ(Rational(2, 4), Rational(1, 2));
    EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
    EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
    EXPECT_EQ(Rational(0, 7), Rational(0));
    EXPECT_EQ(Rational(0, 7).den(), 1);
}

TEST(Rational, Arithmetic)
{
    const Rational half(1, 2);
    const Rational third(1, 3);
    EXPECT_EQ(half + third, Rational(5, 6));
    EXPECT_EQ(half - third, Rational(1, 6));
    EXPECT_EQ(half * third, Rational(1, 6));
    EXPECT_EQ(half / third, Rational(3, 2));
    EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(Rational, Ordering)
{
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
    EXPECT_EQ(Rational(3, 6) <=> Rational(1, 2),
              std::strong_ordering::equal);
}

TEST(Rational, DetectsOverflow)
{
    const Rational big(INT64_MAX);
    EXPECT_THROW(big * Rational(2), RationalOverflow);
    EXPECT_THROW(big + big, RationalOverflow);
}

TEST(Rational, DivisionByZeroThrows)
{
    EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
    EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, ToStringForms)
{
    EXPECT_EQ(Rational(5).to_string(), "5");
    EXPECT_EQ(Rational(-3, 4).to_string(), "-3/4");
}

TEST(Rng, IsDeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, Uniform01StaysInRange)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Hash, CombineSpreadsValues)
{
    std::unordered_set<std::size_t> seen;
    for (int a = 0; a < 30; ++a) {
        for (int b = 0; b < 30; ++b) {
            std::size_t seed = 0;
            hash_combine(seed, a);
            hash_combine(seed, b);
            seen.insert(seed);
        }
    }
    // All 900 (a, b) pairs should hash distinctly.
    EXPECT_EQ(seen.size(), 900u);
}

TEST(Error, CheckMacroThrowsUserError)
{
    EXPECT_THROW(DIOS_CHECK(false, "bad input"), UserError);
    EXPECT_NO_THROW(DIOS_CHECK(true, "ok"));
    EXPECT_THROW(DIOS_ASSERT(false, "bug"), InternalError);
}

}  // namespace
}  // namespace diospyros
