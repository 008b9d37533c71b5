#include "egraph/extract.h"

#include "support/error.h"
#include "support/faults.h"

namespace diospyros {

Extractor::Extractor(const EGraph& graph, const CostModel& cost,
                     const Deadline& deadline)
    : graph_(graph)
{
    DIOS_ASSERT(graph.is_clean(), "extraction requires a rebuilt e-graph");
    const std::vector<ClassId> ids = graph.class_ids();
    best_.assign(graph.id_bound(), Choice{});

    // Bellman-Ford-style relaxation to a fixpoint. Each pass is linear in
    // the number of e-nodes; the pass count is bounded by the extraction
    // DAG depth.
    bool changed = true;
    while (changed) {
        deadline.check("extraction");
        changed = false;
        for (const ClassId id : ids) {
            const EClass& cls = graph.eclass(id);
            Choice& choice = best_[id];
            for (std::size_t i = 0; i < cls.nodes.size(); ++i) {
                const ENode& node = cls.nodes[i];
                double total = cost.node_cost(graph, node);
                DIOS_ASSERT(total > 0.0,
                            "cost model must be strictly monotonic");
                bool realizable = true;
                for (const ClassId child : node.children) {
                    const Choice& cc = best_[graph.find_const(child)];
                    if (cc.node < 0) {
                        realizable = false;
                        break;
                    }
                    total += cc.cost;
                }
                if (realizable && total < choice.cost) {
                    choice.cost = total;
                    choice.node = static_cast<int>(i);
                    changed = true;
                }
            }
        }
    }
}

double
Extractor::class_cost(ClassId id) const
{
    id = graph_.find_const(id);
    DIOS_ASSERT(id < best_.size(), "class_cost() for unknown class");
    return best_[id].cost;
}

Extraction
Extractor::extract(ClassId id) const
{
    DIOS_FAULT_POINT("extract.build");
    id = graph_.find_const(id);
    DIOS_ASSERT(id < best_.size(), "extract() for unknown class");
    DIOS_CHECK(best_[id].node >= 0,
               "e-class has no realizable term (cyclic without leaves)");
    std::vector<TermRef> memo(best_.size());
    Extraction result;
    result.term = build(id, memo);
    result.cost = best_[id].cost;
    return result;
}

TermRef
Extractor::build(ClassId id, std::vector<TermRef>& memo) const
{
    // Explicit worklist instead of recursion: the extracted term's depth
    // is bounded only by the e-graph (a chain of n adds extracts as a
    // depth-n term), and deep kernels used to overflow the call stack
    // here. Each frame visits its chosen node's children first (post-order
    // via the `expanded` flag), then materializes the term.
    struct Frame {
        ClassId id;
        bool expanded;
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{graph_.find_const(id), false});
    while (!stack.empty()) {
        Frame& frame = stack.back();
        const ClassId cur = frame.id;
        if (memo[cur] != nullptr) {
            stack.pop_back();
            continue;
        }
        const Choice& choice = best_[cur];
        DIOS_ASSERT(choice.node >= 0, "building an unrealizable class");
        const ENode& node =
            graph_.eclass(cur).nodes[static_cast<std::size_t>(choice.node)];
        if (!frame.expanded) {
            frame.expanded = true;
            // Push children in reverse so they build left-to-right,
            // matching the old recursive order.
            for (auto it = node.children.rbegin();
                 it != node.children.rend(); ++it) {
                const ClassId child = graph_.find_const(*it);
                if (memo[child] == nullptr) {
                    stack.push_back(Frame{child, false});
                }
            }
            continue;
        }
        std::vector<TermRef> kids;
        kids.reserve(node.children.size());
        for (const ClassId child : node.children) {
            kids.push_back(memo[graph_.find_const(child)]);
        }
        memo[cur] = enode_to_term(node, kids);
        stack.pop_back();
    }
    return memo[graph_.find_const(id)];
}

}  // namespace diospyros
