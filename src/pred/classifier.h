// Shared predicate classification (ROADMAP item 2).
//
// Merlin's per-statement predicate handling compiles, checks, and emits once
// *per statement*, which collapses at the 10^5-statement policies "millions
// of users" implies. The fix — the common-subexpression sharing Ironbee's
// predicate module applies to rule systems — is to merge every statement
// predicate into ONE multi-terminal decision DAG whose terminals are *sets*
// of statement indices: classifying a header is a single root-to-leaf
// traversal, and the reachable terminal sets are exactly the statement
// combinations that can simultaneously match some packet (which is all the
// overlap/shadow analyses need).
//
// Construction is shared end to end:
//   * each distinct predicate text compiles to a BDD once (the analyzer's
//     memo), and statements whose predicates hash-cons to the same BDD root
//     form one *group* sharing a single terminal;
//   * per-group BDDs convert into MTBDD fragments and merge with a memoized
//     set-union apply in a balanced tree, so the DAG is built in near-linear
//     time for the disjoint-heavy policies Merlin produces.
//
// The classifier's DAG is self-contained (its nodes copy the variable
// indices out of the analyzer), so it stays valid even if the analyzer is
// vacuumed afterwards; only group_root() then names retired BDD nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pred/analysis.h"

namespace merlin::pred {

class Classifier {
public:
    // Statement indices as used in terminal sets (positions in `preds`).
    using Index = std::uint32_t;

    // Builds the DAG over `preds`, compiling through (and growing)
    // `analyzer`'s BDD space. The analyzer must outlive classify(Packet)
    // calls; classify_bits() and match_sets() need only the classifier.
    Classifier(Analyzer& analyzer, const std::vector<ir::PredPtr>& preds);

    // Indices of the predicates matching the packet / assignment, ascending.
    // One DAG traversal; the returned set is interned (do not mutate).
    [[nodiscard]] const std::vector<Index>& classify(
        const Packet& packet) const;
    [[nodiscard]] const std::vector<Index>& classify_bits(
        const std::vector<bool>& bits) const;

    // Every non-empty statement set some packet maps to, each sorted
    // ascending, the list ordered lexicographically. A set of size >= 2 is a
    // proof of predicate overlap; pairwise disjointness holds iff every set
    // is a singleton.
    [[nodiscard]] std::vector<std::vector<Index>> match_sets() const;

    // Predicate groups: statements whose predicates compiled to the same
    // BDD root, in first-occurrence order. Unsatisfiable groups keep their
    // members but never appear in any match set.
    [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
    [[nodiscard]] std::size_t group_of(std::size_t pred_index) const {
        return group_of_[pred_index];
    }
    [[nodiscard]] bdd::Node group_root(std::size_t group) const {
        return groups_[group].root;
    }
    [[nodiscard]] const std::vector<Index>& group_members(
        std::size_t group) const {
        return groups_[group].members;
    }

    // DAG size diagnostics (terminal-set leaves included in node_count).
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] std::size_t terminal_set_count() const {
        return sets_.size();
    }

private:
    // One MTBDD node. Internal: var < kLeafVar, low/high are node ids.
    // Leaf: var == kLeafVar, low is the interned terminal-set id.
    struct Mnode {
        int var;
        std::uint32_t low;
        std::uint32_t high;
        friend bool operator==(const Mnode&, const Mnode&) = default;
    };
    struct Mnode_hash {
        std::size_t operator()(const Mnode& n) const;
    };
    struct Group {
        bdd::Node root;
        std::vector<Index> members;
    };
    static constexpr int kLeafVar = 1 << 20;

    [[nodiscard]] std::uint32_t intern_set(std::vector<Index> set);
    [[nodiscard]] std::uint32_t leaf(std::uint32_t set_id);
    [[nodiscard]] std::uint32_t make(int var, std::uint32_t low,
                                     std::uint32_t high);
    [[nodiscard]] std::uint32_t convert(
        const bdd::Manager& m, bdd::Node n, std::uint32_t group_leaf,
        std::unordered_map<bdd::Node, std::uint32_t>& memo);
    [[nodiscard]] std::uint32_t merge(std::uint32_t a, std::uint32_t b);

    Analyzer* analyzer_;
    std::vector<Mnode> nodes_;
    std::vector<std::vector<Index>> sets_;  // interned terminal sets
    std::unordered_map<std::string, std::uint32_t> set_intern_;  // key: text
    std::unordered_map<std::uint32_t, std::uint32_t> leaf_nodes_;
    // Unique table, keyed by the full (var, low, high).
    std::unordered_map<Mnode, std::uint32_t, Mnode_hash> unique_;
    std::unordered_map<std::uint64_t, std::uint32_t> merge_cache_;
    std::uint32_t empty_leaf_;
    std::uint32_t root_;
    std::vector<Group> groups_;
    std::vector<std::size_t> group_of_;  // pred index -> group id
};

}  // namespace merlin::pred
