/**
 * @file
 * Extraction of the cheapest represented program (paper §3.4).
 *
 * The cost model assigns each e-node an additive cost on top of its
 * children's costs and may inspect the *classes* of the children (but not
 * the choice of node within them) — this keeps extraction a linear-time
 * bottom-up fixpoint while still letting the Vec cost depend on lane
 * provenance (single-array shuffles cheaper than cross-array gathers).
 * Strict monotonicity (every node adds > 0) is what the paper requires of
 * its cost models.
 */
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "egraph/egraph.h"
#include "support/deadline.h"

namespace diospyros {

/** Additive, class-aware node cost. */
class CostModel {
  public:
    virtual ~CostModel() = default;

    /**
     * The cost this node adds on top of the sum of its children's best
     * costs. Must be strictly positive for extraction to terminate with
     * meaningful costs on cyclic e-graphs.
     */
    virtual double node_cost(const EGraph& graph,
                             const ENode& node) const = 0;
};

/** Counts every node as 1 (extracts the smallest tree). */
class TreeSizeCost : public CostModel {
  public:
    double
    node_cost(const EGraph&, const ENode&) const override
    {
        return 1.0;
    }
};

/** Result of extraction: the chosen term and its modeled cost. */
struct Extraction {
    TermRef term;
    double cost = std::numeric_limits<double>::infinity();
};

/** Bottom-up optimal extraction under a CostModel. */
class Extractor {
  public:
    /**
     * Computes best costs for every class reachable in the graph.
     * Requires a clean (rebuilt) graph. The compile-wide `deadline` is
     * checked once per relaxation pass (each pass is linear in the
     * e-graph, so large partial graphs cannot run away unbounded);
     * expiry raises DeadlineExceeded.
     */
    Extractor(const EGraph& graph, const CostModel& cost,
              const Deadline& deadline = {});

    /** Best cost of a class (infinity if unrealizable). */
    double class_cost(ClassId id) const;

    /** Extracts the best term rooted at `id`. */
    Extraction extract(ClassId id) const;

  private:
    struct Choice {
        double cost = std::numeric_limits<double>::infinity();
        /** Index of the best node in the class, or -1. */
        int node = -1;
    };

    /** Builds the chosen term of `id`; memo is indexed by ClassId. */
    TermRef build(ClassId id, std::vector<TermRef>& memo) const;

    const EGraph& graph_;
    /** Best choice per class, indexed by canonical ClassId. */
    std::vector<Choice> best_;
};

}  // namespace diospyros
