/**
 * @file
 * E-nodes: operator applications over e-class ids.
 *
 * An e-node is a DSL operator plus payload (constant value / symbol /
 * Get index) whose children are e-classes rather than terms. Hash-consing
 * e-nodes is what gives the e-graph its compact representation of
 * exponentially many equivalent programs (paper §3.3).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "egraph/union_find.h"
#include "ir/term.h"
#include "support/hash.h"

namespace diospyros {

/** An operator application over e-class children. */
struct ENode {
    Op op = Op::kConst;
    /** Payload for kConst. */
    Rational value;
    /** Payload for kSymbol / kGet / kCall. */
    Symbol symbol;
    /** Payload for kGet. */
    std::int64_t index = 0;
    std::vector<ClassId> children;

    /** Leaf constructors. */
    static ENode
    make_const(Rational v)
    {
        ENode n;
        n.op = Op::kConst;
        n.value = v;
        return n;
    }

    static ENode
    make_symbol(Symbol s)
    {
        ENode n;
        n.op = Op::kSymbol;
        n.symbol = s;
        return n;
    }

    static ENode
    make_get(Symbol array, std::int64_t idx)
    {
        ENode n;
        n.op = Op::kGet;
        n.symbol = array;
        n.index = idx;
        return n;
    }

    static ENode
    make_call(Symbol fn, std::vector<ClassId> args)
    {
        ENode n;
        n.op = Op::kCall;
        n.symbol = fn;
        n.children = std::move(args);
        return n;
    }

    static ENode
    make(Op op, std::vector<ClassId> kids)
    {
        ENode n;
        n.op = op;
        n.children = std::move(kids);
        return n;
    }

    bool is_leaf() const { return children.empty(); }

    /** Rewrites children to their canonical representatives. */
    void
    canonicalize(UnionFind& uf)
    {
        for (ClassId& c : children) {
            c = uf.find(c);
        }
    }

    bool
    operator==(const ENode& o) const
    {
        return op == o.op && value == o.value && symbol == o.symbol &&
               index == o.index && children == o.children;
    }

    /** Debug rendering, e.g. "(+ c3 c7)". */
    std::string
    to_string() const
    {
        std::string out = "(";
        out += op_name(op);
        if (op == Op::kConst) {
            out += ' ';
            out += value.to_string();
        }
        if (symbol.valid()) {
            out += ' ';
            out += symbol.str();
        }
        if (op == Op::kGet) {
            out += ' ';
            out += std::to_string(index);
        }
        for (const ClassId c : children) {
            out += " c" + std::to_string(c);
        }
        out += ')';
        return out;
    }
};

/**
 * Hash of an e-node given by its parts. The e-graph's flat hashcons
 * hashes its key snapshots with this exact function, so its rebuild
 * visits congruent parents in the same order as before the snapshots
 * existed (see EGraph::repair).
 */
inline std::size_t
enode_hash(Op op, const Rational& value, Symbol symbol, std::int64_t index,
           const ClassId* kids, std::size_t arity)
{
    std::size_t seed = 0;
    hash_combine(seed, static_cast<int>(op));
    hash_combine(seed, value);
    hash_combine(seed, symbol.id());
    hash_combine(seed, index);
    return hash_range(kids, kids + arity, seed);
}

/** Hash for hash-consing e-nodes. */
struct ENodeHash {
    std::size_t
    operator()(const ENode& n) const
    {
        return enode_hash(n.op, n.value, n.symbol, n.index,
                          n.children.data(), n.children.size());
    }
};

}  // namespace diospyros
