// Unit and property tests for the e-graph engine: union-find, hashcons,
// congruence closure, pattern matching, rewriting, saturation, and
// extraction.

#include <gtest/gtest.h>

#include <algorithm>

#include "egraph/egraph.h"
#include "egraph/extract.h"
#include "egraph/pattern.h"
#include "egraph/rewrite.h"
#include "egraph/runner.h"
#include "ir/eval.h"
#include "rules/rules.h"
#include "support/rng.h"

namespace diospyros {
namespace {

TEST(UnionFind, BasicMerging)
{
    UnionFind uf;
    const ClassId a = uf.make_set();
    const ClassId b = uf.make_set();
    const ClassId c = uf.make_set();
    EXPECT_FALSE(uf.same(a, b));
    EXPECT_EQ(uf.merge(a, b), a);  // first argument becomes root
    EXPECT_TRUE(uf.same(a, b));
    EXPECT_FALSE(uf.same(a, c));
    uf.merge(b, c);
    EXPECT_TRUE(uf.same(a, c));
    EXPECT_EQ(uf.find(c), a);
}

TEST(UnionFind, RandomizedAgainstNaive)
{
    // Property: union-find agrees with a brute-force labeling under a
    // random sequence of merges.
    Rng rng(123);
    constexpr int kN = 100;
    UnionFind uf;
    std::vector<int> label(kN);
    for (int i = 0; i < kN; ++i) {
        uf.make_set();
        label[i] = i;
    }
    for (int step = 0; step < 200; ++step) {
        const int a = static_cast<int>(rng.uniform_int(0, kN - 1));
        const int b = static_cast<int>(rng.uniform_int(0, kN - 1));
        uf.merge(static_cast<ClassId>(a), static_cast<ClassId>(b));
        const int keep = label[a], kill = label[b];
        for (int& l : label) {
            if (l == kill) {
                l = keep;
            }
        }
        for (int i = 0; i < kN; ++i) {
            for (int j = 0; j < kN; ++j) {
                EXPECT_EQ(label[i] == label[j],
                          uf.same(static_cast<ClassId>(i),
                                  static_cast<ClassId>(j)));
            }
        }
    }
}

TEST(EGraph, HashconsDeduplicates)
{
    EGraph g;
    const ClassId a1 = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    const ClassId a2 = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    EXPECT_EQ(a1, a2);
    // get a0, get a1, the add: 3 classes (+1 for nothing else).
    EXPECT_EQ(g.num_classes(), 3u);
}

TEST(EGraph, MergePropagatesCongruence)
{
    // f(a) and f(b) must collapse once a = b.
    EGraph g(false);
    const ClassId a = g.add_term(Term::parse("(Get x 0)"));
    const ClassId b = g.add_term(Term::parse("(Get x 1)"));
    const ClassId fa = g.add_op(Op::kSqrt, {a});
    const ClassId fb = g.add_op(Op::kSqrt, {b});
    EXPECT_NE(g.find(fa), g.find(fb));
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(fa), g.find(fb));
    g.check_invariants();
}

TEST(EGraph, CongruenceCascades)
{
    // g(f(a)) = g(f(b)) after a = b, two levels up.
    EGraph g(false);
    const ClassId a = g.add_term(Term::parse("(Get x 0)"));
    const ClassId b = g.add_term(Term::parse("(Get x 1)"));
    const ClassId fa = g.add_op(Op::kSqrt, {a});
    const ClassId fb = g.add_op(Op::kSqrt, {b});
    const ClassId gfa = g.add_op(Op::kNeg, {fa});
    const ClassId gfb = g.add_op(Op::kNeg, {fb});
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(gfa), g.find(gfb));
    g.check_invariants();
}

TEST(EGraph, ConstantFoldingDerivesValues)
{
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ 2 (* 3 4))"));
    g.rebuild();
    ASSERT_TRUE(g.constant_of(id).has_value());
    EXPECT_EQ(*g.constant_of(id), Rational(14));
}

TEST(EGraph, ConstantFoldingUnifiesEqualConstants)
{
    EGraph g;
    const ClassId a = g.add_term(Term::parse("(+ 1 1)"));
    const ClassId b = g.add_term(Term::parse("(* 1 2)"));
    g.rebuild();
    EXPECT_EQ(g.find(a), g.find(b));
    g.check_invariants();
}

TEST(EGraph, ConstantFoldingSkipsDivByZero)
{
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(/ 1 0)"));
    g.rebuild();
    EXPECT_FALSE(g.constant_of(id).has_value());
}

TEST(EGraph, RandomizedInvariantsUnderMergesAndAdds)
{
    // Property: after arbitrary interleavings of adds and merges plus a
    // rebuild, all invariants hold.
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        EGraph g;
        std::vector<ClassId> ids;
        for (int i = 0; i < 8; ++i) {
            ids.push_back(g.add_get(Symbol("a"), i));
        }
        for (int step = 0; step < 60; ++step) {
            const int action = static_cast<int>(rng.uniform_int(0, 2));
            if (action == 0 && ids.size() >= 2) {
                const auto x = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const auto y = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                g.merge(ids[x], ids[y]);
            } else {
                const auto x = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const auto y = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const Op op = (action == 1) ? Op::kAdd : Op::kMul;
                ids.push_back(g.add_op(op, {ids[x], ids[y]}));
            }
        }
        g.rebuild();
        g.check_invariants();
    }
}

TEST(EGraph, CountersAndDenseTableMatchRecount)
{
    // Property: the O(1) node and class counters, the dense table's
    // class_ids() order and the memory proxy agree with a from-scratch
    // recount after every add, merge and rebuild, including the Const
    // nodes the folding analysis injects.
    Rng rng(31);
    auto pick = [&rng](const std::vector<ClassId>& ids) {
        return ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
    };
    for (int trial = 0; trial < 12; ++trial) {
        EGraph g;
        std::vector<ClassId> ids;
        for (int i = 0; i < 4; ++i) {
            ids.push_back(g.add_get(Symbol("a"), i));
            ids.push_back(g.add_const(Rational(i)));
        }
        for (int step = 0; step < 120; ++step) {
            const int action = static_cast<int>(rng.uniform_int(0, 5));
            if (action == 0) {
                const ClassId x = pick(ids);
                const ClassId y = pick(ids);
                const auto cx = g.constant_of(x);
                const auto cy = g.constant_of(y);
                // Constant classes stay out of random merges: joining one
                // could make congruent parents fold to different values.
                if (!cx && !cy) {
                    g.merge(x, y);
                }
            } else if (action == 1) {
                g.rebuild();
                g.check_invariants();
            } else if (action == 2) {
                const int arity = static_cast<int>(rng.uniform_int(1, 5));
                std::vector<ClassId> lanes;
                for (int l = 0; l < arity; ++l) {
                    lanes.push_back(pick(ids));
                }
                ids.push_back(g.add_op(Op::kVec, lanes));
            } else {
                const Op op = action == 3   ? Op::kAdd
                              : action == 4 ? Op::kMul
                                            : Op::kNeg;
                ids.push_back(op == Op::kNeg
                                  ? g.add_op(op, {pick(ids)})
                                  : g.add_op(op, {pick(ids), pick(ids)}));
            }

            std::vector<ClassId> order;
            std::vector<bool> seen(g.id_bound(), false);
            std::size_t nodes = 0;
            for (ClassId raw = 0; raw < g.id_bound(); ++raw) {
                const ClassId root = g.find_const(raw);
                if (!seen[root]) {
                    seen[root] = true;
                    order.push_back(root);
                    nodes += g.eclass(root).nodes.size();
                }
            }
            ASSERT_EQ(g.class_ids(), order) << "step " << step;
            ASSERT_EQ(g.num_classes(), order.size()) << "step " << step;
            ASSERT_EQ(g.num_nodes(), nodes) << "step " << step;
            ASSERT_EQ(g.memory_proxy_bytes(),
                      nodes * 160 + order.size() * 160);
        }
        g.rebuild();
        g.check_invariants();
    }
}

TEST(Pattern, ParsesVariablesAndLiterals)
{
    const Pattern p = Pattern::parse("(+ ?a (* ?b 0))");
    EXPECT_EQ(p.variables().size(), 2u);
    EXPECT_EQ(p.to_string(), "(+ ?a (* ?b 0))");
}

TEST(Pattern, MatchesSimpleExpression)
{
    EGraph g;
    const ClassId id =
        g.add_term(Term::parse("(+ (Get a 0) (* (Get b 0) (Get c 0)))"));
    g.rebuild();
    const Pattern p = Pattern::parse("(+ ?x (* ?y ?z))");
    const auto matches = p.match_class(g, id);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].bindings().size(), 3u);
}

TEST(Pattern, NonlinearPatternsRequireConsistency)
{
    EGraph g;
    const ClassId same = g.add_term(Term::parse("(+ (Get a 0) (Get a 0))"));
    const ClassId diff = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    g.rebuild();
    const Pattern p = Pattern::parse("(+ ?x ?x)");
    EXPECT_EQ(p.match_class(g, same).size(), 1u);
    EXPECT_TRUE(p.match_class(g, diff).empty());
}

TEST(Pattern, MatchesAcrossEquivalentNodes)
{
    // After merging, matching sees through the equivalence.
    EGraph g;
    const ClassId x = g.add_term(Term::parse("(Get a 0)"));
    const ClassId y = g.add_term(Term::parse("(* (Get b 0) (Get c 0))"));
    const ClassId sum = g.add_op(Op::kAdd, {x, y});
    g.merge(x, y);  // pretend a rule proved them equal
    g.rebuild();
    const Pattern p = Pattern::parse("(+ (* ?p ?q) (* ?r ?s))");
    EXPECT_EQ(p.match_class(g, g.find(sum)).size(), 1u);
}

TEST(Rewrite, RejectsUnboundRhsVariables)
{
    EXPECT_THROW(Rewrite::make("bad", "(+ ?a ?b)", "(+ ?a ?c)"), UserError);
}

TEST(Rewrite, AppliesCommutativity)
{
    EGraph g;
    const ClassId ab = g.add_term(Term::parse("(+ (Get a 0) (Get b 0))"));
    const ClassId ba = g.add_term(Term::parse("(+ (Get b 0) (Get a 0))"));
    g.rebuild();
    EXPECT_NE(g.find(ab), g.find(ba));

    const Rewrite comm = Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)");
    Runner runner;
    const RunnerReport report = runner.run(g, {comm});
    EXPECT_EQ(report.stop_reason, StopReason::kSaturated);
    EXPECT_EQ(g.find(ab), g.find(ba));
    g.check_invariants();
}

TEST(Runner, SaturatesMacFusion)
{
    // The paper's fused multiply-accumulate example (Figure 4).
    EGraph g;
    const ClassId root = g.add_term(Term::parse(
        "(VecAdd (Vec (Get v1 0) (Get v1 1)) (VecMul (Vec (Get v2 0) (Get "
        "v2 1)) (Vec (Get v3 0) (Get v3 1))))"));
    g.rebuild();
    const Rewrite mac = Rewrite::make("mac", "(VecAdd ?a (VecMul ?b ?c))",
                                      "(VecMAC ?a ?b ?c)");
    Runner runner;
    runner.run(g, {mac});

    // The root class must now contain a VecMAC node.
    bool found = false;
    for (const ENode& n : g.eclass(g.find(root)).nodes) {
        found |= n.op == Op::kVecMAC;
    }
    EXPECT_TRUE(found);
}

namespace {

/** A left-leaning 8-leaf sum; AC rules explode its e-graph for a while. */
TermRef
wide_sum()
{
    TermRef t = t_get("a", 0);
    for (int i = 1; i < 8; ++i) {
        t = t_add(t, t_get("a", i));
    }
    return t;
}

std::vector<Rewrite>
ac_rules()
{
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)"));
    rules.push_back(
        Rewrite::make("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"));
    return rules;
}

}  // namespace

TEST(Runner, RespectsIterLimit)
{
    // AC over an 8-leaf sum keeps creating classes for several rounds
    // (this is the paper §3.3 AC blow-up); a 2-iteration limit must stop
    // it mid-way.
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 2,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kIterLimit);
    EXPECT_EQ(report.iterations.size(), 2u);
}

TEST(Runner, ZeroIterLimitReportsIterLimitNotSaturation)
{
    // Regression: with iter_limit = 0 the loop never executes — the
    // graph was *not* saturated, the budget stopped it. The untouched
    // graph must still support extraction.
    EGraph g(false);
    const ClassId root = g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000,
                               .iter_limit = 0,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kIterLimit);
    EXPECT_TRUE(report.iterations.empty());

    const TreeSizeCost cost;
    const Extractor extractor(g, cost);
    const Extraction best = extractor.extract(g.find(root));
    ASSERT_NE(best.term, nullptr);
    // 8 Get leaves + 7 additions.
    EXPECT_EQ(best.cost, 15.0);
}

TEST(Runner, MemoryLimitStopsSaturation)
{
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0,
                               .memory_limit_bytes = 64 * 1024});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kMemoryLimit);
    EXPECT_LT(report.iterations.size(), 1000u);
}

TEST(Runner, ExpiredDeadlineStopsGracefully)
{
    // An already-expired compile-wide deadline: the runner must stop with
    // kDeadline and still leave a clean, extractable graph.
    EGraph g(false);
    const ClassId root = g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0});
    const RunnerReport report =
        runner.run(g, ac_rules(), Deadline::after_seconds(0.0));
    EXPECT_EQ(report.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(g.is_clean());
    const TreeSizeCost cost;
    const Extractor extractor(g, cost);
    EXPECT_NE(extractor.extract(g.find(root)).term, nullptr);
}

TEST(Runner, RespectsNodeLimit)
{
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kNodeLimit);
    // Overshoot within one iteration is expected (limits are checked per
    // batch), but the runner must have stopped promptly afterwards.
    EXPECT_LT(report.iterations.size(), 1000u);
}

TEST(Runner, MatchLimitCapsWorkPerRule)
{
    // With a per-rule match cap, each iteration applies at most that many
    // matches — the graph grows, but strictly slower than uncapped.
    EGraph g1(false), g2(false);
    g1.add_term(wide_sum());
    g2.add_term(wide_sum());
    g1.rebuild();
    g2.rebuild();
    RunnerLimits capped{.node_limit = 1'000'000,
                        .iter_limit = 3,
                        .time_limit_seconds = 30.0,
                        .match_limit_per_rule = 2};
    RunnerLimits uncapped{.node_limit = 1'000'000,
                          .iter_limit = 3,
                          .time_limit_seconds = 30.0};
    Runner(capped).run(g1, ac_rules());
    Runner(uncapped).run(g2, ac_rules());
    EXPECT_LT(g1.num_nodes(), g2.num_nodes());
}

TEST(Runner, BackoffBansExplosiveRules)
{
    // With a backoff threshold, an AC rule that floods the graph gets
    // banned for growing windows; the run still makes progress but grows
    // far slower, and the runner never falsely reports saturation while
    // rules are banned.
    EGraph g1(false), g2(false);
    g1.add_term(wide_sum());
    g2.add_term(wide_sum());
    g1.rebuild();
    g2.rebuild();
    RunnerLimits backoff{.node_limit = 1'000'000,
                         .iter_limit = 4,
                         .time_limit_seconds = 30.0,
                         .match_limit_per_rule = 0,
                         .backoff_threshold = 4};
    RunnerLimits plain{.node_limit = 1'000'000,
                       .iter_limit = 4,
                       .time_limit_seconds = 30.0};
    const RunnerReport rb = Runner(backoff).run(g1, ac_rules());
    Runner(plain).run(g2, ac_rules());
    EXPECT_LT(g1.num_nodes(), g2.num_nodes());
    // Some iteration must have recorded a ban.
    std::size_t banned = 0;
    for (const IterationStats& it : rb.iterations) {
        banned += it.banned_rules;
    }
    EXPECT_GT(banned, 0u);
    EXPECT_NE(rb.stop_reason, StopReason::kSaturated);
}

TEST(Extract, PrefersCheaperEquivalent)
{
    EGraph g;
    const ClassId id = g.add_term(
        Term::parse("(+ (* (Get a 0) 2) (* (Get a 0) 0))"));
    g.rebuild();
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("mul0", "(* ?x 0)", "0"));
    rules.push_back(Rewrite::make("add0", "(+ ?x 0)", "?x"));
    Runner().run(g, rules);

    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(id));
    EXPECT_EQ(Term::to_string(best.term), "(* (Get a 0) 2)");
    EXPECT_DOUBLE_EQ(best.cost, 3.0);
}

TEST(Extract, HandlesCyclicClasses)
{
    // x = x + 0 introduces a cycle through the class; extraction must
    // still terminate and pick the finite leaf.
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ (Get a 0) 0)"));
    g.rebuild();
    Runner().run(g, {Rewrite::make("add0", "(+ ?x 0)", "?x")});
    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(id));
    EXPECT_EQ(Term::to_string(best.term), "(Get a 0)");
}

TEST(Extract, ExtractionIsSemanticallyEquivalent)
{
    // Property: for a random expression and sound rules, the extracted
    // term evaluates identically to the original.
    Rng rng(99);
    EvalEnv env;
    env.bind_array("a", {1.5, -2.0, 3.25, 0.5});
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"));
    rules.push_back(Rewrite::make("comm-mul", "(* ?a ?b)", "(* ?b ?a)"));
    rules.push_back(Rewrite::make("add0", "(+ ?x 0)", "?x"));
    rules.push_back(Rewrite::make("mul1", "(* ?x 1)", "?x"));

    for (int trial = 0; trial < 10; ++trial) {
        // Random small term over Get a i, constants 0/1, +, *.
        std::vector<TermRef> pool;
        for (int i = 0; i < 4; ++i) {
            pool.push_back(t_get("a", i));
        }
        pool.push_back(t_const(0));
        pool.push_back(t_const(1));
        for (int step = 0; step < 10; ++step) {
            const auto x = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pool.size()) - 1));
            const auto y = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pool.size()) - 1));
            pool.push_back(rng.uniform_int(0, 1) ? t_add(pool[x], pool[y])
                                                 : t_mul(pool[x], pool[y]));
        }
        const TermRef original = pool.back();
        EGraph g;
        const ClassId root = g.add_term(original);
        g.rebuild();
        Runner(RunnerLimits{.node_limit = 20'000,
                            .iter_limit = 8,
                            .time_limit_seconds = 5.0})
            .run(g, rules);
        const TreeSizeCost cost;
        const Extractor ex(g, cost);
        const Extraction best = ex.extract(g.find(root));
        EXPECT_DOUBLE_EQ(evaluate_scalar(best.term, env),
                         evaluate_scalar(original, env));
        EXPECT_LE(Term::tree_size(best.term), Term::tree_size(original));
    }
}

TEST(EGraph, DotExportIsWellFormed)
{
    EGraph g;
    const ClassId root =
        g.add_term(Term::parse("(+ (Get a 0) (* (Get a 1) 2))"));
    g.rebuild();
    (void)root;
    const std::string dot = g.to_dot();
    EXPECT_EQ(dot.rfind("digraph egraph {", 0), 0u);
    EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
    EXPECT_NE(dot.find("(Get a 0)") != std::string::npos ||
                  dot.find("Get a 0") != std::string::npos,
              false);
    EXPECT_NE(dot.find("->"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
              std::count(dot.begin(), dot.end(), '}'));
}

TEST(EGraph, AddTermHandlesLargeSharedDags)
{
    // A deep shared DAG must insert in linear time/nodes.
    TermRef t = t_add(t_get("a", 0), t_get("a", 1));
    for (int i = 0; i < 200; ++i) {
        t = t_add(t, t);
    }
    EGraph g;
    g.add_term(t);
    g.rebuild();
    EXPECT_EQ(g.num_classes(), 203u);
    g.check_invariants();
}

// ---------------------------------------------------------------------------
// Op-index: the e-matching fast path (classes_with_op).

/** Ground truth for classes_with_op: full scan in class_ids() order. */
std::vector<ClassId>
classes_holding(const EGraph& g, Op op)
{
    std::vector<ClassId> out;
    for (const ClassId id : g.class_ids()) {
        for (const ENode& n : g.eclass(id).nodes) {
            if (n.op == op) {
                out.push_back(id);
                break;
            }
        }
    }
    return out;
}

TEST(OpIndex, ListsClassesInCreationOrder)
{
    EGraph g(false);
    const ClassId g0 = g.add_get(Symbol("a"), 0);
    const ClassId g1 = g.add_get(Symbol("a"), 1);
    const ClassId sum = g.add_op(Op::kAdd, {g0, g1});
    const ClassId prod = g.add_op(Op::kMul, {g0, g1});
    g.rebuild();
    EXPECT_EQ(g.classes_with_op(Op::kGet), (std::vector<ClassId>{g0, g1}));
    EXPECT_EQ(g.classes_with_op(Op::kAdd), std::vector<ClassId>{sum});
    EXPECT_EQ(g.classes_with_op(Op::kMul), std::vector<ClassId>{prod});
    EXPECT_TRUE(g.classes_with_op(Op::kVec).empty());
}

TEST(OpIndex, StaysCanonicalAndCompleteAcrossMerges)
{
    // After a merge the absorbed class's journal entries must
    // re-canonicalize to the surviving id, deduplicated, and the merged
    // class must be listed under every op either side contributed.
    EGraph g(false);
    const ClassId g0 = g.add_get(Symbol("a"), 0);
    const ClassId g1 = g.add_get(Symbol("a"), 1);
    const ClassId sum = g.add_op(Op::kAdd, {g0, g1});
    g.merge(sum, g0);  // pretend a rule proved (+ a0 a1) = a0
    g.rebuild();
    const ClassId root = g.find(sum);
    EXPECT_EQ(g.classes_with_op(Op::kAdd), std::vector<ClassId>{root});
    EXPECT_EQ(g.classes_with_op(Op::kGet),
              (std::vector<ClassId>{root, g.find(g1)}));
}

TEST(OpIndex, AgreesWithFullScanOnRandomGraphs)
{
    // Property: under arbitrary interleavings of adds, merges, and
    // rebuilds, the op-index equals a recomputed full scan for every op.
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        EGraph g(false);
        std::vector<ClassId> ids;
        for (int i = 0; i < 6; ++i) {
            ids.push_back(g.add_get(Symbol("a"), i));
            ids.push_back(g.add_get(Symbol("b"), i));
        }
        for (int step = 0; step < 80; ++step) {
            const auto pick = [&] {
                return ids[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(ids.size()) - 1))];
            };
            switch (rng.uniform_int(0, 4)) {
              case 0:
                g.merge(pick(), pick());
                break;
              case 1:
                ids.push_back(g.add_op(Op::kAdd, {pick(), pick()}));
                break;
              case 2:
                ids.push_back(g.add_op(Op::kMul, {pick(), pick()}));
                break;
              case 3:
                ids.push_back(g.add_op(Op::kNeg, {pick()}));
                break;
              default:
                g.rebuild();
                for (int op_i = 0; op_i < kNumOps; ++op_i) {
                    const Op op = static_cast<Op>(op_i);
                    EXPECT_EQ(g.classes_with_op(op), classes_holding(g, op));
                }
                break;
            }
        }
        g.rebuild();
        g.check_invariants();
        for (int op_i = 0; op_i < kNumOps; ++op_i) {
            const Op op = static_cast<Op>(op_i);
            EXPECT_EQ(g.classes_with_op(op), classes_holding(g, op));
        }
    }
}

TEST(OpIndex, TracksConstantsInjectedByAnalysis)
{
    // The constant-folding analysis injects Const nodes via modify(),
    // not add(); those classes must still appear under kConst.
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ 2 (* 3 4))"));
    g.rebuild();
    const std::vector<ClassId>& consts = g.classes_with_op(Op::kConst);
    EXPECT_NE(std::find(consts.begin(), consts.end(), g.find(id)),
              consts.end());
    EXPECT_EQ(consts, classes_holding(g, Op::kConst));
}

// ---------------------------------------------------------------------------
// Differential: indexed search must equal the naive full scan, for every
// registered rule (pattern searchers and the custom vectorization
// searchers alike), and saturation must produce identical graphs.

/**
 * A random vectorizable e-graph: scalar expressions over two arrays,
 * width-4 Vec roots and vector ops over them, plus a few merges to create
 * aliased classes. Constant folding off so random merges cannot trip the
 * analysis soundness assert.
 */
EGraph
random_vec_graph(Rng& rng)
{
    EGraph g(false);
    std::vector<ClassId> scalars;
    for (int i = 0; i < 4; ++i) {
        scalars.push_back(g.add_get(Symbol("a"), i));
        scalars.push_back(g.add_get(Symbol("b"), i));
    }
    scalars.push_back(g.add_const(Rational(0)));
    scalars.push_back(g.add_const(Rational(1)));
    const auto pick = [&] {
        return scalars[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(scalars.size()) - 1))];
    };
    for (int step = 0; step < 24; ++step) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            scalars.push_back(g.add_op(Op::kAdd, {pick(), pick()}));
            break;
          case 1:
            scalars.push_back(g.add_op(Op::kMul, {pick(), pick()}));
            break;
          case 2:
            scalars.push_back(g.add_op(Op::kNeg, {pick()}));
            break;
          default:
            scalars.push_back(g.add_op(Op::kDiv, {pick(), pick()}));
            break;
        }
    }
    std::vector<ClassId> vecs;
    for (int v = 0; v < 4; ++v) {
        vecs.push_back(
            g.add_op(Op::kVec, {pick(), pick(), pick(), pick()}));
    }
    g.add_op(Op::kVecAdd, {vecs[0], vecs[1]});
    g.add_op(Op::kVecMul, {vecs[2], vecs[3]});
    g.add_op(Op::kList, {vecs[0], vecs[2]});
    for (int m = 0; m < 3; ++m) {
        g.merge(pick(), pick());
    }
    g.rebuild();
    return g;
}

TEST(OpIndex, IndexedSearchEqualsNaiveForEveryRule)
{
    RuleConfig config(4);
    config.target_has_recip = true;
    const std::vector<Rewrite> rules = build_rules(config);
    Rng rng(42);
    for (int trial = 0; trial < 6; ++trial) {
        const EGraph g = random_vec_graph(rng);
        for (const Rewrite& rule : rules) {
            const std::vector<RuleMatch> indexed =
                rule.searcher().search(g);
            const std::vector<RuleMatch> naive =
                rule.searcher().search_naive(g);
            ASSERT_EQ(indexed.size(), naive.size())
                << "rule " << rule.name() << ", trial " << trial;
            for (std::size_t i = 0; i < indexed.size(); ++i) {
                EXPECT_EQ(g.find_const(indexed[i].root),
                          g.find_const(naive[i].root))
                    << "rule " << rule.name();
                EXPECT_TRUE(indexed[i].subst.bindings() ==
                            naive[i].subst.bindings())
                    << "rule " << rule.name();
            }
        }
    }
}

TEST(OpIndex, SaturationWithIndexMatchesNaiveByteForByte)
{
    // End to end: saturate two copies of the same graph, one through the
    // op-indexed searchers and one forced down the full-scan path. The
    // final graphs and the extracted programs must agree exactly.
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    std::vector<Rewrite> naive_rules;
    naive_rules.reserve(rules.size());
    for (const Rewrite& r : rules) {
        naive_rules.push_back(r.with_naive_search());
    }
    const RunnerLimits limits{.node_limit = 50'000,
                              .iter_limit = 6,
                              .time_limit_seconds = 30.0};
    Rng rng_a(7), rng_b(7);
    for (int trial = 0; trial < 4; ++trial) {
        EGraph ga = random_vec_graph(rng_a);
        EGraph gb = random_vec_graph(rng_b);
        const ClassId roota = ga.class_ids().back();
        const ClassId rootb = gb.class_ids().back();
        ASSERT_EQ(roota, rootb);
        const RunnerReport ra = Runner(limits).run(ga, rules);
        const RunnerReport rb = Runner(limits).run(gb, naive_rules);
        EXPECT_EQ(ra.stop_reason, rb.stop_reason);
        EXPECT_EQ(ga.num_nodes(), gb.num_nodes());
        EXPECT_EQ(ga.num_classes(), gb.num_classes());
        std::size_t matches_a = 0, matches_b = 0;
        for (const RuleStats& s : ra.rule_stats) {
            matches_a += s.matches;
        }
        for (const RuleStats& s : rb.rule_stats) {
            matches_b += s.matches;
        }
        EXPECT_EQ(matches_a, matches_b);
        const TreeSizeCost cost;
        const Extractor ea(ga, cost), eb(gb, cost);
        const Extraction besta = ea.extract(ga.find(roota));
        const Extraction bestb = eb.extract(gb.find(rootb));
        EXPECT_EQ(Term::to_string(besta.term), Term::to_string(bestb.term));
        EXPECT_DOUBLE_EQ(besta.cost, bestb.cost);
    }
}

// ---------------------------------------------------------------------------
// Stop-reason regression (S1).

TEST(Runner, DeadlineMidSearchIsNotReportedAsSaturation)
{
    // An expired deadline makes phase 1 stop after the *first* rule. That
    // rule finds nothing, so the iteration changes nothing — but the
    // second rule was never searched and would have matched, so reporting
    // kSaturated here would be false. Must report kDeadline.
    EGraph g(false);
    g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    g.rebuild();
    std::vector<Rewrite> rules;
    rules.push_back(
        Rewrite::make("never", "(sqrt (sqrt ?x))", "(sqrt (sqrt ?x))"));
    rules.push_back(Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)"));
    Runner runner(RunnerLimits{.node_limit = 100'000,
                               .iter_limit = 100,
                               .time_limit_seconds = 60.0});
    const RunnerReport report =
        runner.run(g, rules, Deadline::after_seconds(0.0));
    EXPECT_EQ(report.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(g.is_clean());
}

// ---------------------------------------------------------------------------
// Deep-chain extraction regression.

TEST(Extract, DeepChainDoesNotOverflowTheStack)
{
    // A ~50k-deep unshared accumulation chain: extraction (and the
    // resulting term's destruction) must both run iteratively.
    constexpr int kDepth = 50'000;
    TermRef t = t_get("a", 0);
    for (int i = 0; i < kDepth; ++i) {
        t = t_add(t, t_get("a", i % 4));
    }
    EGraph g(false);
    const ClassId root = g.add_term(t);
    g.rebuild();
    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(root));
    ASSERT_NE(best.term, nullptr);
    EXPECT_EQ(Term::dag_size(best.term), static_cast<std::size_t>(kDepth) + 4);
    t.reset();  // the original chain's teardown must be iterative too
}

}  // namespace
}  // namespace diospyros
