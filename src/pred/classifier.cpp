#include "pred/classifier.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>

namespace merlin::pred {
namespace {

std::uint64_t merge_key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) |
           static_cast<std::uint64_t>(b);
}

std::string set_text(const std::vector<Classifier::Index>& set) {
    std::string out;
    for (const Classifier::Index i : set) {
        out += std::to_string(i);
        out += ',';
    }
    return out;
}

}  // namespace

std::size_t Classifier::Mnode_hash::operator()(const Mnode& n) const {
    return bdd::hash_triple(static_cast<std::uint32_t>(n.var), n.low, n.high);
}

std::uint32_t Classifier::intern_set(std::vector<Index> set) {
    const std::string key = set_text(set);
    const auto it = set_intern_.find(key);
    if (it != set_intern_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(sets_.size());
    sets_.push_back(std::move(set));
    set_intern_.emplace(key, id);
    return id;
}

std::uint32_t Classifier::leaf(std::uint32_t set_id) {
    const auto it = leaf_nodes_.find(set_id);
    if (it != leaf_nodes_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Mnode{kLeafVar, set_id, 0});
    leaf_nodes_.emplace(set_id, id);
    return id;
}

std::uint32_t Classifier::make(int var, std::uint32_t low,
                               std::uint32_t high) {
    if (low == high) return low;  // reduction rule
    const Mnode node{var, low, high};
    const auto [it, inserted] =
        unique_.try_emplace(node, static_cast<std::uint32_t>(nodes_.size()));
    if (inserted) nodes_.push_back(node);
    return it->second;
}

std::uint32_t Classifier::convert(
    const bdd::Manager& m, bdd::Node n, std::uint32_t group_leaf,
    std::unordered_map<bdd::Node, std::uint32_t>& memo) {
    if (n == bdd::kFalse) return empty_leaf_;
    if (n == bdd::kTrue) return group_leaf;
    const auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const std::uint32_t out =
        make(m.node_var(n), convert(m, m.node_low(n), group_leaf, memo),
             convert(m, m.node_high(n), group_leaf, memo));
    memo.emplace(n, out);
    return out;
}

std::uint32_t Classifier::merge(std::uint32_t a, std::uint32_t b) {
    if (a == b) return a;
    if (a == empty_leaf_) return b;
    if (b == empty_leaf_) return a;
    // Set union is commutative: canonicalize for the memo.
    if (a > b) std::swap(a, b);
    const std::uint64_t key = merge_key(a, b);
    const auto it = merge_cache_.find(key);
    if (it != merge_cache_.end()) return it->second;

    // Copies, not references: recursive merges grow nodes_.
    const Mnode na = nodes_[a];
    const Mnode nb = nodes_[b];
    std::uint32_t out;
    if (na.var == kLeafVar && nb.var == kLeafVar) {
        const std::vector<Index>& sa = sets_[na.low];
        const std::vector<Index>& sb = sets_[nb.low];
        std::vector<Index> merged;
        merged.reserve(sa.size() + sb.size());
        std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                       std::back_inserter(merged));
        out = leaf(intern_set(std::move(merged)));
    } else {
        const int split = std::min(na.var, nb.var);
        const std::uint32_t a_low = na.var == split ? na.low : a;
        const std::uint32_t a_high = na.var == split ? na.high : a;
        const std::uint32_t b_low = nb.var == split ? nb.low : b;
        const std::uint32_t b_high = nb.var == split ? nb.high : b;
        out = make(split, merge(a_low, b_low), merge(a_high, b_high));
    }
    merge_cache_.emplace(key, out);
    return out;
}

Classifier::Classifier(Analyzer& analyzer,
                       const std::vector<ir::PredPtr>& preds)
    : analyzer_(&analyzer) {
    empty_leaf_ = leaf(intern_set({}));

    // Group statements by compiled BDD root: one terminal per distinct
    // predicate function, no matter how many statements share it.
    std::map<bdd::Node, std::size_t> group_index;
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
        const std::uint32_t group_leaf = leaf(intern_set(g.members));
        std::unordered_map<bdd::Node, std::uint32_t> memo;
        fragments.push_back(
            convert(analyzer.manager(), g.root, group_leaf, memo));
    }
    while (fragments.size() > 1) {
        std::vector<std::uint32_t> next;
        next.reserve((fragments.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < fragments.size(); i += 2)
            next.push_back(merge(fragments[i], fragments[i + 1]));
        if (fragments.size() % 2 != 0) next.push_back(fragments.back());
        fragments = std::move(next);
    }
    root_ = fragments.empty() ? empty_leaf_ : fragments.front();
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
