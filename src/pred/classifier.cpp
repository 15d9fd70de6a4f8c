#include "pred/classifier.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

namespace merlin::pred {
namespace {

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kInitialSlots = std::size_t{1} << 10;

std::size_t pair_hash(std::uint64_t key) {
    return bdd::hash_triple(key >> 32, key & 0xFFFFFFFFULL, 0);
}

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) |
           static_cast<std::uint64_t>(b);
}

// An exact memo from a pair of ids to a node id: open addressing with
// linear probing, load at most 1/2. No stored key is all ones (ids stay
// below 2^32 - 1), so that key marks an empty slot.
class Pair_memo {
public:
    Pair_memo() : slots_(kInitialSlots) {}

    [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = pair_hash(key) & mask; slots_[s].key != kEmpty;
             s = (s + 1) & mask)
            if (slots_[s].key == key) return &slots_[s].value;
        return nullptr;
    }

    // `key` must not be present yet.
    void insert(std::uint64_t key, std::uint32_t value) {
        if (2 * (size_ + 1) > slots_.size()) grow();
        place(Slot{key, value});
        ++size_;
    }

private:
    static constexpr std::uint64_t kEmpty =
        std::numeric_limits<std::uint64_t>::max();
    struct Slot {
        std::uint64_t key = kEmpty;
        std::uint32_t value = 0;
    };

    void place(const Slot& slot) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = pair_hash(slot.key) & mask;
        while (slots_[s].key != kEmpty) s = (s + 1) & mask;
        slots_[s] = slot;
    }
    void grow() {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        for (const Slot& slot : old)
            if (slot.key != kEmpty) place(slot);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace

// Hash-consing for internal nodes, plus the convert and merge memos; one
// Builder lives for one constructor call.
//
// Terminal sets need no interning: groups partition the statements, and
// the balanced merge only unions two leaves whose sets come from disjoint
// ranges of groups, once per leaf pair (the merge memo). So every set a
// leaf is built for is new, and so is the leaf.
class Classifier::Builder {
public:
    Builder(std::vector<Mnode>& nodes, std::vector<std::vector<Index>>& sets)
        : nodes_(nodes),
          sets_(sets),
          unique_(kInitialSlots, kEmptySlot),
          empty_leaf_(leaf({})) {}

    [[nodiscard]] std::uint32_t empty_leaf() const { return empty_leaf_; }

    // A new leaf whose terminal is `set` (sorted ascending).
    [[nodiscard]] std::uint32_t leaf(std::vector<Index> set) {
        const auto id = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(
            Mnode{kLeafVar, static_cast<std::uint32_t>(sets_.size()), 0});
        sets_.push_back(std::move(set));
        return id;
    }

    // An MTBDD fragment of `n`: its true-terminal becomes `group_leaf`,
    // its false-terminal the empty set. Distinct groups have distinct
    // leaves, so one memo keyed on (BDD node, leaf) serves every group.
    [[nodiscard]] std::uint32_t convert(const bdd::Manager& m, bdd::Node n,
                                        std::uint32_t group_leaf) {
        if (n == bdd::kFalse) return empty_leaf_;
        if (n == bdd::kTrue) return group_leaf;
        const std::uint64_t key = pair_key(n, group_leaf);
        if (const std::uint32_t* hit = convert_memo_.find(key)) return *hit;
        const std::uint32_t low = convert(m, m.node_low(n), group_leaf);
        const std::uint32_t high = convert(m, m.node_high(n), group_leaf);
        const std::uint32_t out = make(m.node_var(n), low, high);
        convert_memo_.insert(key, out);
        return out;
    }

    // Pointwise union of the terminal sets of two fragments.
    [[nodiscard]] std::uint32_t merge(std::uint32_t a, std::uint32_t b) {
        if (a == b) return a;
        if (a == empty_leaf_) return b;
        if (b == empty_leaf_) return a;
        // Set union is commutative: canonicalize for the memo.
        if (a > b) std::swap(a, b);
        const std::uint64_t key = pair_key(a, b);
        if (const std::uint32_t* hit = merge_memo_.find(key)) return *hit;

        // Copies, not references: recursive merges grow nodes_.
        const Mnode na = nodes_[a];
        const Mnode nb = nodes_[b];
        std::uint32_t out;
        if (na.var == kLeafVar && nb.var == kLeafVar) {
            const std::vector<Index>& sa = sets_[na.low];
            const std::vector<Index>& sb = sets_[nb.low];
            std::vector<Index> both;
            both.reserve(sa.size() + sb.size());
            std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                           std::back_inserter(both));
            out = leaf(std::move(both));
        } else {
            const int split = std::min(na.var, nb.var);
            const std::uint32_t low = merge(na.var == split ? na.low : a,
                                            nb.var == split ? nb.low : b);
            const std::uint32_t high = merge(na.var == split ? na.high : a,
                                             nb.var == split ? nb.high : b);
            out = make(split, low, high);
        }
        merge_memo_.insert(key, out);
        return out;
    }

private:
    [[nodiscard]] std::uint32_t make(int var, std::uint32_t low,
                                     std::uint32_t high) {
        if (low == high) return low;  // reduction rule
        return node(var, low, high);
    }

    // Hash-conses the full triple of an internal node.
    [[nodiscard]] std::uint32_t node(int var, std::uint32_t low,
                                     std::uint32_t high) {
        const std::size_t mask = unique_.size() - 1;
        std::size_t s = node_hash(var, low, high) & mask;
        for (; unique_[s] != kEmptySlot; s = (s + 1) & mask) {
            const Mnode& nd = nodes_[unique_[s]];
            if (nd.var == var && nd.low == low && nd.high == high)
                return unique_[s];
        }
        const auto id = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Mnode{var, low, high});
        unique_[s] = id;
        if (2 * nodes_.size() > unique_.size()) grow_unique();
        return id;
    }

    [[nodiscard]] static std::size_t node_hash(int var, std::uint32_t low,
                                               std::uint32_t high) {
        return bdd::hash_triple(static_cast<std::uint32_t>(var), low, high);
    }

    void grow_unique() {
        unique_.assign(2 * unique_.size(), kEmptySlot);
        const std::size_t mask = unique_.size() - 1;
        for (std::size_t id = 0; id < nodes_.size(); ++id) {
            const Mnode& nd = nodes_[id];
            if (nd.var == kLeafVar) continue;
            std::size_t s = node_hash(nd.var, nd.low, nd.high) & mask;
            while (unique_[s] != kEmptySlot) s = (s + 1) & mask;
            unique_[s] = static_cast<std::uint32_t>(id);
        }
    }

    std::vector<Mnode>& nodes_;
    std::vector<std::vector<Index>>& sets_;
    // Open addressing over internal node ids; kEmptySlot marks a free
    // slot, and load stays at most 1/2.
    std::vector<std::uint32_t> unique_;
    Pair_memo convert_memo_;
    Pair_memo merge_memo_;
    std::uint32_t empty_leaf_;
};

Classifier::Classifier(Analyzer& analyzer,
                       const std::vector<ir::PredPtr>& preds)
    : analyzer_(&analyzer) {
    Builder builder(nodes_, sets_);

    // Group statements by compiled BDD root: one terminal per distinct
    // predicate function, no matter how many statements share it.
    std::unordered_map<bdd::Node, std::size_t> group_index;
    group_of_.reserve(preds.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
        const bdd::Node root = analyzer.compile(preds[i]);
        const auto [it, inserted] =
            group_index.try_emplace(root, groups_.size());
        if (inserted) groups_.push_back(Group{root, {}});
        groups_[it->second].members.push_back(static_cast<Index>(i));
        group_of_.push_back(it->second);
    }

    // Convert each satisfiable group's BDD into an MTBDD fragment whose
    // true-terminal is the group's member set, then merge the fragments in
    // a balanced tree (keeps intermediate unions shallow and cacheable).
    std::vector<std::uint32_t> fragments;
    fragments.reserve(groups_.size());
    for (const Group& g : groups_) {
        if (g.root == bdd::kFalse) continue;
        fragments.push_back(builder.convert(analyzer.manager(), g.root,
                                            builder.leaf(g.members)));
    }
    while (fragments.size() > 1) {
        std::vector<std::uint32_t> next;
        next.reserve((fragments.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < fragments.size(); i += 2)
            next.push_back(builder.merge(fragments[i], fragments[i + 1]));
        if (fragments.size() % 2 != 0) next.push_back(fragments.back());
        fragments = std::move(next);
    }
    root_ = fragments.empty() ? builder.empty_leaf() : fragments.front();
}

const std::vector<Classifier::Index>& Classifier::classify_bits(
    const std::vector<bool>& bits) const {
    std::uint32_t n = root_;
    while (nodes_[n].var != kLeafVar) {
        const Mnode& nd = nodes_[n];
        const auto idx = static_cast<std::size_t>(nd.var);
        n = (idx < bits.size() && bits[idx]) ? nd.high : nd.low;
    }
    return sets_[nodes_[n].low];
}

const std::vector<Classifier::Index>& Classifier::classify(
    const Packet& packet) const {
    return classify_bits(analyzer_->bits_of(packet));
}

std::vector<std::vector<Classifier::Index>> Classifier::match_sets() const {
    std::vector<bool> visited(nodes_.size(), false);
    std::vector<std::uint32_t> stack{root_};
    std::vector<std::vector<Index>> out;
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        if (visited[n]) continue;
        visited[n] = true;
        const Mnode& nd = nodes_[n];
        if (nd.var == kLeafVar) {
            if (!sets_[nd.low].empty()) out.push_back(sets_[nd.low]);
            continue;
        }
        stack.push_back(nd.low);
        stack.push_back(nd.high);
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace merlin::pred
