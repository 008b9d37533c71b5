#include "egraph/egraph.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "support/error.h"

namespace diospyros {

EGraph::NodeView
EGraph::view_of(const ENode& n)
{
    return NodeView{n.op,    n.value,          n.symbol,
                    n.index, n.children.data(), n.children.size()};
}

EGraph::NodeView
EGraph::view_of(NodeKeyId k) const
{
    const NodeKey& key = keys_[k];
    return NodeView{key.op,    key.value, key.symbol,
                    key.index, key_kids_.data() + key.kids, key.arity};
}

bool
EGraph::same_node(const NodeView& a, const NodeView& b)
{
    return a.op == b.op && a.arity == b.arity && a.index == b.index &&
           a.symbol == b.symbol && a.value == b.value &&
           std::equal(a.kids, a.kids + a.arity, b.kids);
}

NodeKeyId
EGraph::push_key(const NodeView& n, std::size_t h)
{
    DIOS_ASSERT(keys_.size() < kDeadSlot &&
                    key_kids_.size() + n.arity <= 0xffffffffu,
                "e-node key arena exhausted");
    const auto offset = static_cast<std::uint32_t>(key_kids_.size());
    key_kids_.insert(key_kids_.end(), n.kids, n.kids + n.arity);
    keys_.push_back(NodeKey{h, n.value, n.index, n.symbol, n.op,
                            static_cast<std::uint32_t>(n.arity), offset});
    return static_cast<NodeKeyId>(keys_.size() - 1);
}

NodeKeyId
EGraph::canonical_key(NodeKeyId k)
{
    const NodeView key = view_of(k);
    scratch_kids_.clear();
    bool changed = false;
    for (std::size_t i = 0; i < key.arity; ++i) {
        scratch_kids_.push_back(uf_.find(key.kids[i]));
        changed |= scratch_kids_.back() != key.kids[i];
    }
    if (!changed) {
        return k;
    }
    const NodeView canonical{key.op,    key.value,           key.symbol,
                             key.index, scratch_kids_.data(), key.arity};
    return push_key(canonical,
                    enode_hash(key.op, key.value, key.symbol, key.index,
                               scratch_kids_.data(), key.arity));
}

const EGraph::Slot*
EGraph::memo_find(const NodeView& n, std::size_t h) const
{
    if (memo_.empty()) {
        return nullptr;
    }
    const std::size_t mask = memo_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const Slot& slot = memo_[i];
        if (slot.key == kEmptySlot) {
            return nullptr;
        }
        if (slot.key != kDeadSlot && keys_[slot.key].hash == h &&
            same_node(view_of(slot.key), n)) {
            return &slot;
        }
    }
}

void
EGraph::memo_grow()
{
    // Double when live entries fill half the table; otherwise just
    // rehash in place to sweep out tombstones.
    const std::size_t capacity =
        std::max<std::size_t>(64, memo_live_ * 2 >= memo_.size()
                                      ? memo_.size() * 2
                                      : memo_.size());
    std::vector<Slot> old(capacity, Slot{kEmptySlot, 0});
    old.swap(memo_);
    memo_used_ = memo_live_;
    const std::size_t mask = capacity - 1;
    for (const Slot& slot : old) {
        if (slot.key == kEmptySlot || slot.key == kDeadSlot) {
            continue;
        }
        std::size_t i = keys_[slot.key].hash & mask;
        while (memo_[i].key != kEmptySlot) {
            i = (i + 1) & mask;
        }
        memo_[i] = slot;
    }
}

void
EGraph::memo_insert(NodeKeyId k, ClassId cls)
{
    if ((memo_used_ + 1) * 4 > memo_.size() * 3) {
        memo_grow();
    }
    const std::size_t mask = memo_.size() - 1;
    std::size_t i = keys_[k].hash & mask;
    while (memo_[i].key != kEmptySlot && memo_[i].key != kDeadSlot) {
        i = (i + 1) & mask;
    }
    memo_used_ += memo_[i].key == kEmptySlot ? 1 : 0;
    ++memo_live_;
    memo_[i] = Slot{k, cls};
}

void
EGraph::memo_erase(NodeKeyId k)
{
    if (Slot* slot = memo_find(view_of(k), keys_[k].hash)) {
        slot->key = kDeadSlot;
        --memo_live_;
    }
}

ClassId
EGraph::add(ENode node)
{
    node.canonicalize(uf_);
    const NodeView view = view_of(node);
    const std::size_t h = enode_hash(view.op, view.value, view.symbol,
                                     view.index, view.kids, view.arity);
    if (const Slot* slot = memo_find(view, h)) {
        return uf_.find(slot->cls);
    }
    return add_new(std::move(node), h);
}

ClassId
EGraph::add_op(Op op, std::span<const ClassId> children)
{
    scratch_kids_.clear();
    for (const ClassId c : children) {
        scratch_kids_.push_back(uf_.find(c));
    }
    static const Rational kNoValue;
    const NodeView view{op, kNoValue, Symbol(), 0, scratch_kids_.data(),
                        scratch_kids_.size()};
    const std::size_t h =
        enode_hash(op, kNoValue, Symbol(), 0, scratch_kids_.data(),
                   scratch_kids_.size());
    if (const Slot* slot = memo_find(view, h)) {
        return uf_.find(slot->cls);
    }
    return add_new(ENode::make(op, scratch_kids_), h);
}

ClassId
EGraph::add_new(ENode node, std::size_t h)
{
    const ClassId id = uf_.make_set();
    EClass cls;
    if (fold_constants_) {
        cls.constant = fold_node(node);
    }
    const NodeKeyId key = push_key(view_of(node), h);
    for (const ClassId child : node.children) {
        classes_[child].parents.emplace_back(key, id);
    }
    const Op op = node.op;
    cls.nodes.push_back(std::move(node));
    memo_insert(key, id);
    classes_.push_back(std::move(cls));
    ++num_nodes_;
    ++num_classes_;
    index_op(op, id);
    modify(id);
    return uf_.find(id);
}

ClassId
EGraph::add_term(const TermRef& term)
{
    DIOS_ASSERT(term != nullptr, "add_term() on null term");
    // Iterative post-order with pointer memoization: specs are DAGs with
    // heavy sharing (paper §4's fully-unrolled kernels), so each distinct
    // subterm is inserted once.
    std::unordered_map<const Term*, ClassId> done;
    std::vector<std::pair<const Term*, bool>> stack{{term.get(), false}};
    while (!stack.empty()) {
        auto [t, expanded] = stack.back();
        stack.pop_back();
        if (done.count(t)) {
            continue;
        }
        if (!expanded) {
            stack.push_back({t, true});
            for (const TermRef& c : t->children()) {
                if (!done.count(c.get())) {
                    stack.push_back({c.get(), false});
                }
            }
            continue;
        }
        std::vector<ClassId> kids;
        kids.reserve(t->arity());
        for (const TermRef& c : t->children()) {
            kids.push_back(done.at(c.get()));
        }
        ENode node;
        switch (t->op()) {
          case Op::kConst:
            node = ENode::make_const(t->value());
            break;
          case Op::kSymbol:
            node = ENode::make_symbol(t->symbol());
            break;
          case Op::kGet:
            node = ENode::make_get(t->symbol(), t->index());
            break;
          case Op::kCall:
            node = ENode::make_call(t->symbol(), std::move(kids));
            break;
          default:
            node = ENode::make(t->op(), std::move(kids));
            break;
        }
        done.emplace(t, add(std::move(node)));
    }
    return uf_.find(done.at(term.get()));
}

bool
EGraph::merge(ClassId a, ClassId b)
{
    a = uf_.find(a);
    b = uf_.find(b);
    if (a == b) {
        return false;
    }
    const ClassId root = uf_.merge(a, b);
    const ClassId absorbed = (root == a) ? b : a;
    ++union_count_;
    // Canonical ids changed: compacted op-index caches are stale. The
    // journal itself stays valid — absorbed-id entries re-canonicalize to
    // the root, which inherits every operator of both classes.
    ++index_version_;

    // Join analysis data and splice the absorbed class into the root.
    {
        EClass& rc = classes_[root];
        EClass& ac = classes_[absorbed];
        if (!rc.constant.has_value()) {
            rc.constant = ac.constant;
        } else if (ac.constant.has_value()) {
            DIOS_ASSERT(*rc.constant == *ac.constant,
                        "constant analysis disagreement: unsound rewrite?");
        }
        rc.nodes.insert(rc.nodes.end(),
                        std::make_move_iterator(ac.nodes.begin()),
                        std::make_move_iterator(ac.nodes.end()));
        rc.parents.insert(rc.parents.end(),
                          std::make_move_iterator(ac.parents.begin()),
                          std::make_move_iterator(ac.parents.end()));
        ac = EClass{};  // the absorbed slot is dead from here on
    }
    --num_classes_;
    dirty_.push_back(root);
    modify(root);
    return true;
}

void
EGraph::rebuild()
{
    while (!dirty_.empty()) {
        std::vector<ClassId> todo;
        todo.swap(dirty_);
        // Dedup on canonical representatives.
        const std::uint32_t epoch = next_epoch();
        for (const ClassId raw : todo) {
            const ClassId id = uf_.find(raw);
            if (seen_[id] != epoch) {
                seen_[id] = epoch;
                repair(id);
            }
        }
    }
}

void
EGraph::repair(ClassId id)
{
    id = uf_.find(id);
    std::vector<std::pair<NodeKeyId, ClassId>> parents =
        std::move(classes_[id].parents);
    classes_[id].parents.clear();

    // Remove stale (pre-merge) keys before re-inserting canonical ones.
    for (const auto& [pkey, pclass] : parents) {
        (void)pclass;
        memo_erase(pkey);
    }

    // Re-canonicalize; congruent duplicates collapse via merge(). The
    // dedup map hashes a key exactly as ENodeHash hashes the node it
    // snapshots, so it visits parents in the same order as a map keyed
    // by full e-nodes would — which fixes merge directions, and through
    // them node order inside classes.
    struct KeyHash {
        const EGraph* graph;
        std::size_t
        operator()(NodeKeyId k) const
        {
            return graph->keys_[k].hash;
        }
    };
    struct KeyEq {
        const EGraph* graph;
        bool
        operator()(NodeKeyId a, NodeKeyId b) const
        {
            return a == b ||
                   same_node(graph->view_of(a), graph->view_of(b));
        }
    };
    std::unordered_map<NodeKeyId, ClassId, KeyHash, KeyEq> new_parents(
        0, KeyHash{this}, KeyEq{this});
    for (const auto& [pkey, pclass] : parents) {
        const NodeKeyId canonical = canonical_key(pkey);
        auto [it, inserted] = new_parents.try_emplace(canonical, pclass);
        if (!inserted) {
            if (canonical != pkey &&
                canonical + 1 == static_cast<NodeKeyId>(keys_.size())) {
                // Drop the duplicate snapshot canonical_key() just made.
                key_kids_.resize(keys_.back().kids);
                keys_.pop_back();
            }
            merge(pclass, it->second);
        }
        it->second = uf_.find(it->second);
    }

    for (const auto& [pkey, pclass] : new_parents) {
        const ClassId canonical_parent = uf_.find(pclass);
        ClassId holder = canonical_parent;
        if (const Slot* slot = memo_find(view_of(pkey), keys_[pkey].hash)) {
            holder = slot->cls;
            if (uf_.find(holder) != canonical_parent) {
                merge(holder, canonical_parent);
            }
            // merge() may have grown the table: probe again.
            memo_find(view_of(pkey), keys_[pkey].hash)->cls =
                uf_.find(holder);
        } else {
            memo_insert(pkey, canonical_parent);
        }
        classes_[uf_.find(id)].parents.emplace_back(pkey, uf_.find(pclass));
    }
}

std::optional<ClassId>
EGraph::lookup(ENode node)
{
    node.canonicalize(uf_);
    if (const Slot* slot = memo_find(view_of(node), ENodeHash{}(node))) {
        return uf_.find(slot->cls);
    }
    return std::nullopt;
}

std::optional<ClassId>
EGraph::lookup_const(ENode node) const
{
    for (ClassId& c : node.children) {
        c = uf_.find_const(c);
    }
    if (const Slot* slot = memo_find(view_of(node), ENodeHash{}(node))) {
        return uf_.find_const(slot->cls);
    }
    return std::nullopt;
}

std::uint32_t
EGraph::next_epoch() const
{
    seen_.resize(uf_.size(), 0);
    if (++epoch_ == 0) {  // wrapped: clear stale marks once
        std::fill(seen_.begin(), seen_.end(), 0);
        epoch_ = 1;
    }
    return epoch_;
}

std::vector<ClassId>
EGraph::class_ids() const
{
    // A class's first id in creation order is its smallest member, so
    // emitting each root at its smallest member lists classes in the
    // order they were first created.
    std::vector<ClassId> out;
    out.reserve(num_classes_);
    for (ClassId raw = 0; raw < uf_.size(); ++raw) {
        if (uf_.min_member(raw) == raw) {
            out.push_back(uf_.find_const(raw));
        }
    }
    return out;
}

const std::vector<ClassId>&
EGraph::classes_with_op(Op op) const
{
    DIOS_ASSERT(dirty_.empty(), "classes_with_op() on a dirty e-graph");
    const auto slot = static_cast<std::size_t>(op);
    std::vector<ClassId>& entry = op_index_[slot];
    if (op_index_clean_[slot] == index_version_) {
        return entry;
    }
    // Compact the journal: canonicalize, dedup, and sort by the class's
    // creation ordinal (its smallest member id) so candidates come back
    // in exactly the order a naive class_ids() scan visits them.
    const std::uint32_t epoch = next_epoch();
    std::size_t keep = 0;
    for (const ClassId raw : entry) {
        const ClassId id = uf_.find_const(raw);
        if (seen_[id] != epoch) {
            seen_[id] = epoch;
            entry[keep++] = id;
        }
    }
    entry.resize(keep);
    std::sort(entry.begin(), entry.end(), [this](ClassId a, ClassId b) {
        return uf_.min_member(a) < uf_.min_member(b);
    });
    op_index_clean_[slot] = index_version_;
    return entry;
}

std::optional<Rational>
EGraph::fold_node(const ENode& node) const
{
    auto child_const = [&](std::size_t i) -> std::optional<Rational> {
        return classes_[uf_.find_const(node.children[i])].constant;
    };
    try {
        switch (node.op) {
          case Op::kConst:
            return node.value;
          case Op::kAdd:
          case Op::kSub:
          case Op::kMul:
          case Op::kDiv: {
            const auto a = child_const(0);
            const auto b = child_const(1);
            if (!a || !b) {
                return std::nullopt;
            }
            switch (node.op) {
              case Op::kAdd:
                return *a + *b;
              case Op::kSub:
                return *a - *b;
              case Op::kMul:
                return *a * *b;
              default:
                if (b->is_zero()) {
                    return std::nullopt;
                }
                return *a / *b;
            }
          }
          case Op::kNeg: {
            const auto a = child_const(0);
            return a ? std::optional<Rational>(-*a) : std::nullopt;
          }
          case Op::kSgn: {
            const auto a = child_const(0);
            if (!a) {
                return std::nullopt;
            }
            const int s = a->is_zero() ? 0 : (a->num() < 0 ? -1 : 1);
            return Rational(s);
          }
          case Op::kRecip: {
            const auto a = child_const(0);
            if (!a || a->is_zero()) {
                return std::nullopt;
            }
            return Rational(1) / *a;
          }
          default:
            return std::nullopt;
        }
    } catch (const RationalOverflow&) {
        return std::nullopt;  // sound: simply stop folding
    }
}

void
EGraph::modify(ClassId id)
{
    if (!fold_constants_) {
        return;
    }
    id = uf_.find(id);
    EClass& cls = classes_[id];
    if (!cls.constant.has_value()) {
        return;
    }
    ENode cn = ENode::make_const(*cls.constant);
    const std::size_t h = ENodeHash{}(cn);
    if (const Slot* slot = memo_find(view_of(cn), h)) {
        if (uf_.find(slot->cls) != id) {
            merge(slot->cls, id);
        }
        return;
    }
    memo_insert(push_key(view_of(cn), h), id);
    cls.nodes.push_back(std::move(cn));
    ++num_nodes_;
    index_op(Op::kConst, id);
}

void
EGraph::check_invariants() const
{
    DIOS_ASSERT(dirty_.empty(), "check_invariants() on a dirty e-graph");
    std::unordered_map<ENode, ClassId, ENodeHash> canonical_nodes;
    std::size_t total = 0;
    std::size_t live = 0;
    for (ClassId id = 0; id < classes_.size(); ++id) {
        const EClass& cls = classes_[id];
        if (uf_.find_const(id) != id) {
            DIOS_ASSERT(cls.nodes.empty() && cls.parents.empty(),
                        "absorbed class slot is not dead");
            continue;
        }
        ++live;
        for (const ENode& raw : cls.nodes) {
            ENode node = raw;
            for (ClassId& c : node.children) {
                c = uf_.find_const(c);
            }
            const Slot* slot = memo_find(view_of(node), ENodeHash{}(node));
            DIOS_ASSERT(slot != nullptr,
                        "canonical e-node missing from hashcons: " +
                            node.to_string());
            DIOS_ASSERT(uf_.find_const(slot->cls) == id,
                        "hashcons points to the wrong class for " +
                            node.to_string());
            auto [it, inserted] = canonical_nodes.try_emplace(node, id);
            if (!inserted) {
                DIOS_ASSERT(it->second == id,
                            "congruence violation: node in two classes: " +
                                node.to_string());
            }
            ++total;
        }
    }
    DIOS_ASSERT(total == num_nodes_, "node counter disagrees with recount");
    DIOS_ASSERT(live == num_classes_,
                "class counter disagrees with recount");
    std::size_t live_slots = 0;
    for (const Slot& slot : memo_) {
        if (slot.key == kEmptySlot || slot.key == kDeadSlot) {
            continue;
        }
        ++live_slots;
        const NodeView key = view_of(slot.key);
        DIOS_ASSERT(keys_[slot.key].hash ==
                        enode_hash(key.op, key.value, key.symbol, key.index,
                                   key.kids, key.arity),
                    "hashcons key with a stale hash");
        ENode canonical;
        canonical.op = key.op;
        canonical.value = key.value;
        canonical.symbol = key.symbol;
        canonical.index = key.index;
        for (std::size_t i = 0; i < key.arity; ++i) {
            canonical.children.push_back(uf_.find_const(key.kids[i]));
        }
        DIOS_ASSERT(same_node(view_of(canonical), key) ||
                        memo_find(view_of(canonical),
                                  ENodeHash{}(canonical)) != nullptr,
                    "stale hashcons entry without canonical counterpart");
        DIOS_ASSERT(slot.cls < classes_.size(),
                    "hashcons refers to an absent class");
    }
    DIOS_ASSERT(live_slots == memo_live_,
                "hashcons live count disagrees with recount");
}

std::string
EGraph::dump() const
{
    std::ostringstream os;
    for (const ClassId id : class_ids()) {
        const EClass& cls = eclass(id);
        os << "c" << id << ":";
        if (cls.constant) {
            os << " [= " << *cls.constant << "]";
        }
        for (const ENode& n : cls.nodes) {
            os << ' ' << n.to_string();
        }
        os << '\n';
    }
    return os.str();
}

std::string
EGraph::to_dot() const
{
    std::ostringstream os;
    os << "digraph egraph {\n  compound=true;\n  node [shape=record];\n";
    for (const ClassId id : class_ids()) {
        const EClass& cls = eclass(id);
        os << "  subgraph cluster_" << id << " {\n"
           << "    label=\"c" << id;
        if (cls.constant) {
            os << " = " << cls.constant->to_string();
        }
        os << "\";\n";
        for (std::size_t n = 0; n < cls.nodes.size(); ++n) {
            const ENode& node = cls.nodes[n];
            os << "    n" << id << "_" << n << " [label=\"";
            os << op_name(node.op);
            if (node.op == Op::kConst) {
                os << ' ' << node.value.to_string();
            }
            if (node.symbol.valid()) {
                os << ' ' << node.symbol.str();
            }
            if (node.op == Op::kGet) {
                os << ' ' << node.index;
            }
            os << "\"];\n";
        }
        os << "  }\n";
    }
    // Child edges: from each node to the first node of the child class
    // (lhead pins the arrow on the cluster border).
    for (const ClassId id : class_ids()) {
        const EClass& cls = eclass(id);
        for (std::size_t n = 0; n < cls.nodes.size(); ++n) {
            for (const ClassId raw_child : cls.nodes[n].children) {
                const ClassId child = uf_.find_const(raw_child);
                os << "  n" << id << "_" << n << " -> n" << child
                   << "_0 [lhead=cluster_" << child << "];\n";
            }
        }
    }
    os << "}\n";
    return os.str();
}

TermRef
enode_to_term(const ENode& node, const std::vector<TermRef>& kids)
{
    switch (node.op) {
      case Op::kConst:
        return Term::constant(node.value);
      case Op::kSymbol:
        return Term::variable(node.symbol);
      case Op::kGet:
        return Term::get(node.symbol, node.index);
      case Op::kCall:
        return Term::call(node.symbol, kids);
      default:
        return Term::make(node.op, kids);
    }
}

}  // namespace diospyros
