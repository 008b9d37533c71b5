/**
 * @file
 * The e-graph: a congruence-closed union of program terms (paper §3.3).
 *
 * Follows the egg architecture (Willsey et al., POPL 2021): mutation
 * (add/merge) is cheap and may temporarily break the congruence invariant;
 * rebuild() restores it in a batched pass. Rewrites therefore run in
 * match-all-then-apply-then-rebuild rounds (see Runner).
 *
 * A built-in constant-folding e-class analysis tracks classes whose value
 * is a known rational and injects the corresponding Const node, mirroring
 * egg's analysis mechanism.
 */
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "egraph/enode.h"
#include "egraph/union_find.h"
#include "ir/term.h"

namespace diospyros {

/**
 * Index of an immutable e-node key snapshot in the e-graph's key arena:
 * the form in which the hashcons and the parent lists hold e-nodes.
 */
using NodeKeyId = std::uint32_t;

/** An equivalence class of e-nodes. */
class EClass {
  public:
    /**
     * E-nodes in this class, in insertion order, as they were added: a
     * child id may since have been absorbed, so read children through
     * EGraph::find_const().
     */
    std::vector<ENode> nodes;
    /** Uses of this class: (parent key snapshot, parent class). */
    std::vector<std::pair<NodeKeyId, ClassId>> parents;
    /** Constant-folding analysis: value if the class is a known constant. */
    std::optional<Rational> constant;
};

/** E-graph over the vector DSL. */
class EGraph {
  public:
    /** @param enable_constant_folding run the constant analysis. */
    explicit EGraph(bool enable_constant_folding = true)
        : fold_constants_(enable_constant_folding)
    {
    }

    /** Adds an e-node (children need not be canonical); returns its class. */
    ClassId add(ENode node);

    /** Adds a whole term bottom-up; returns the root's class. */
    ClassId add_term(const TermRef& term);

    /** Convenience leaf/operator insertion helpers. */
    ClassId add_const(Rational v) { return add(ENode::make_const(v)); }
    ClassId
    add_get(Symbol array, std::int64_t index)
    {
        return add(ENode::make_get(array, index));
    }

    /**
     * Adds (op children...) with no payload. The node is canonicalized
     * and looked up in place, so a node that already exists costs no
     * allocation.
     */
    ClassId add_op(Op op, std::span<const ClassId> children);
    ClassId
    add_op(Op op, std::initializer_list<ClassId> children)
    {
        return add_op(op, std::span<const ClassId>(children.begin(),
                                                   children.size()));
    }

    /**
     * Asserts a = b. Returns true if this changed the graph (the classes
     * were previously distinct). Congruence is restored lazily: call
     * rebuild() before reading the graph again.
     */
    bool merge(ClassId a, ClassId b);

    /** Restores the congruence and hashcons invariants. */
    void rebuild();

    /** Canonical id for a class. */
    ClassId find(ClassId id) { return uf_.find(id); }
    ClassId find_const(ClassId id) const { return uf_.find_const(id); }

    /**
     * Looks up the class that already represents this e-node, if any.
     * The node is canonicalized first. Requires a clean (rebuilt) graph.
     */
    std::optional<ClassId> lookup(ENode node);

    /**
     * Const variant of lookup() (no path compression); for read-only
     * passes such as the analysis auditor.
     */
    std::optional<ClassId> lookup_const(ENode node) const;

    /** The class for a canonical id. */
    const EClass&
    eclass(ClassId id) const
    {
        return classes_[uf_.find_const(id)];
    }

    /**
     * One past the largest class id handed out so far. Ids of absorbed
     * classes stay below the bound (they find() to their root), so dense
     * per-class tables indexed by ClassId are sized by this.
     */
    std::size_t id_bound() const { return uf_.size(); }

    /** All canonical class ids (stable order of creation). */
    std::vector<ClassId> class_ids() const;

    /**
     * Op-index: the canonical classes containing at least one e-node with
     * operator `op`, in class_ids() order — the e-matching fast path. A
     * searcher whose pattern root is a fixed operator visits only these
     * classes instead of scanning the whole graph, with identical results
     * (an e-class only ever *gains* operators, so the index has no false
     * negatives, and entries are re-canonicalized before being returned).
     *
     * The underlying journal is append-only on add(); queries compact it
     * lazily (canonicalize, dedup, sort by creation ordinal) and cache
     * the compacted form until the next graph mutation. Requires a clean
     * (rebuilt) graph so canonical ids are stable.
     */
    const std::vector<ClassId>& classes_with_op(Op op) const;

    /** Total number of e-nodes across canonical classes. O(1). */
    std::size_t num_nodes() const { return num_nodes_; }

    /** Number of canonical e-classes. O(1). */
    std::size_t num_classes() const { return num_classes_; }

    /** Number of unions performed since construction. */
    std::size_t union_count() const { return union_count_; }

    /**
     * Estimated resident memory of the e-graph in bytes — the Table 1
     * "Memory" proxy, also used by the saturation runner's mid-iteration
     * memory watchdog (RunnerLimits::memory_limit_bytes). E-nodes
     * dominate; counts node + hashcons + class overhead per node, plus
     * per-class bookkeeping. The per-node and per-class charges are
     * pinned constants (the historical 64-byte e-node plus 96 bytes of
     * hashcons and class overhead), not sizeof() of today's layout, so a
     * leaner representation does not move the watchdog's trip points.
     */
    std::size_t
    memory_proxy_bytes() const
    {
        return num_nodes() * kProxyBytesPerNode +
               num_classes() * kProxyBytesPerClass;
    }

    static constexpr std::size_t kProxyBytesPerNode = 160;
    static constexpr std::size_t kProxyBytesPerClass = 160;

    /** True when no merge is pending a rebuild. */
    bool is_clean() const { return dirty_.empty(); }

    /** Constant value of a class, if the analysis derived one. */
    std::optional<Rational>
    constant_of(ClassId id) const
    {
        return eclass(id).constant;
    }

    /**
     * Checks internal invariants (hashcons canonical and complete,
     * congruence closed, the O(1) node and class counters equal to a
     * recount); for tests. Requires a clean graph.
     */
    void check_invariants() const;

    /** Multi-line dump for debugging. */
    std::string dump() const;

    /**
     * Graphviz rendering: one cluster per e-class, one node per e-node,
     * edges to child classes. Feed to `dot -Tsvg` when debugging rewrite
     * rules (the workflow §3.4 says translation validation supports).
     */
    std::string to_dot() const;

  private:
    /**
     * An e-node as the hashcons keys it: operator, payload and a span of
     * `key_kids_`. Keys are immutable snapshots — rebuild re-keys a
     * parent by appending a canonical copy — so a parent list entry
     * means exactly the node as it stood when the entry was written.
     */
    struct NodeKey {
        std::size_t hash;
        Rational value;
        std::int64_t index;
        Symbol symbol;
        Op op;
        std::uint32_t arity;
        std::uint32_t kids;  ///< offset of the children in key_kids_
    };

    /** Borrowed view of an e-node's fields, for hashcons probes. */
    struct NodeView {
        Op op;
        const Rational& value;
        Symbol symbol;
        std::int64_t index;
        const ClassId* kids;
        std::size_t arity;
    };

    /** One hashcons slot: a key snapshot and the class it maps to. */
    struct Slot {
        NodeKeyId key;
        ClassId cls;
    };
    static constexpr NodeKeyId kEmptySlot = 0xffffffffu;
    static constexpr NodeKeyId kDeadSlot = 0xfffffffeu;

    static NodeView view_of(const ENode& n);
    NodeView view_of(NodeKeyId k) const;
    static bool same_node(const NodeView& a, const NodeView& b);

    /** Appends a key snapshot of `n` (hash `h`) to the arena. */
    NodeKeyId push_key(const NodeView& n, std::size_t h);
    /**
     * `k` with its children canonicalized: `k` itself when they already
     * are, else a new snapshot at the end of the arena.
     */
    NodeKeyId canonical_key(NodeKeyId k);

    /** Hashcons probe by content; nullptr when absent. */
    const Slot* memo_find(const NodeView& n, std::size_t h) const;
    Slot*
    memo_find(const NodeView& n, std::size_t h)
    {
        return const_cast<Slot*>(std::as_const(*this).memo_find(n, h));
    }
    /** Inserts `k` → `cls`; the content of `k` must be absent. */
    void memo_insert(NodeKeyId k, ClassId cls);
    /** Removes the entry whose key equals `k`'s content, if any. */
    void memo_erase(NodeKeyId k);
    void memo_grow();

    /** add() after the probe missed: `node` is canonical with hash `h`. */
    ClassId add_new(ENode node, std::size_t h);

    /** Re-canonicalizes the parents of a just-merged class. */
    void repair(ClassId id);

    /** Computes the analysis value of a node from child analyses. */
    std::optional<Rational> fold_node(const ENode& node) const;

    /** Applies analysis consequences (inject Const node) to a class. */
    void modify(ClassId id);

    /** Records `id` in the op-index journal for `op`. */
    void
    index_op(Op op, ClassId id)
    {
        op_index_[static_cast<std::size_t>(op)].push_back(id);
        ++index_version_;
    }

    /** Next mark epoch for a dedup pass over `seen_` (see seen_). */
    std::uint32_t next_epoch() const;

    UnionFind uf_;
    /**
     * The hashcons: open addressing with linear probing over a
     * power-of-two table of (key, class) slots; erased slots become
     * tombstones until the next growth.
     */
    std::vector<Slot> memo_;
    std::size_t memo_live_ = 0;
    std::size_t memo_used_ = 0;  ///< live + tombstones
    std::vector<NodeKey> keys_;
    std::vector<ClassId> key_kids_;
    /** Canonicalized children being probed (add_op, canonical_key). */
    std::vector<ClassId> scratch_kids_;
    /**
     * Dense class table indexed by ClassId. Only canonical ids (union-find
     * roots) hold a live class; a merge empties the absorbed slot, which
     * stays dead for good. Ids are handed out in creation order, so a
     * scan of the table in id order is a scan in creation order.
     */
    std::vector<EClass> classes_;
    std::vector<ClassId> dirty_;
    std::size_t num_nodes_ = 0;
    std::size_t num_classes_ = 0;
    std::size_t union_count_ = 0;
    bool fold_constants_;

    /**
     * Per-id dedup marks: an id is "seen" in the current pass when its
     * slot equals the pass's epoch, so dedup passes (rebuild's worklist,
     * op-index compaction) need no per-call hash set.
     */
    mutable std::vector<std::uint32_t> seen_;
    mutable std::uint32_t epoch_ = 0;

    /**
     * Op → classes journal (see classes_with_op). Mutable: queries
     * compact in place under const, like union-find path compression.
     * `op_index_clean_[op]` caches which `index_version_` the entry was
     * last compacted at; any mutation bumps the version and invalidates.
     */
    mutable std::array<std::vector<ClassId>, kNumOps> op_index_;
    mutable std::array<std::uint64_t, kNumOps> op_index_clean_{};
    std::uint64_t index_version_ = 1;
};

/**
 * Reconstructs a term for `node` given already-extracted child terms.
 * Used by extraction.
 */
TermRef enode_to_term(const ENode& node, const std::vector<TermRef>& kids);

}  // namespace diospyros
