// Shared predicate classification.
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
// The kernel is flat, like bdd::Manager's: the unique table is open
// addressing over node ids, and the convert and merge memos are
// open-addressed tables. Those tables serve construction only and are
// released when the constructor returns. Terminal sets are never built
// twice (classifier.cpp says why), so they need no interning.
//
// The classifier's DAG is self-contained (its nodes copy the variable
// indices out of the analyzer), so it stays valid even if the analyzer is
// vacuumed afterwards; only group_root() then names retired BDD nodes.
#pragma once

#include <cstddef>
#include <cstdint>
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
    // One DAG traversal; the returned set is the classifier's own.
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
    // Leaf: var == kLeafVar, low is the terminal-set id, high 0.
    struct Mnode {
        int var;
        std::uint32_t low;
        std::uint32_t high;
    };
    struct Group {
        bdd::Node root;
        std::vector<Index> members;
    };
    // The construction-only tables (classifier.cpp).
    class Builder;
    static constexpr int kLeafVar = 1 << 20;

    Analyzer* analyzer_;
    std::vector<Mnode> nodes_;
    std::vector<std::vector<Index>> sets_;  // terminal sets, by leaf
    std::uint32_t root_;
    std::vector<Group> groups_;
    std::vector<std::size_t> group_of_;  // pred index -> group id
};

}  // namespace merlin::pred
