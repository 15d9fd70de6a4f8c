// Predicate analyses: compilation to BDDs and the decision procedures Merlin
// needs (Sections 2.1 and 4.2).
//
//  * Section 2.1's pre-processor requires statements to "have disjoint
//    predicates and together match all packets".
//  * Section 4.2's negotiator verification checks predicate overlap,
//    partition totality, and per-statement implication.
//
// The paper used Z3; this module decides the same fragment with BDDs.
// Header fields map to bit variables (ir::fields() layout); each distinct
// payload pattern becomes one uninterpreted boolean variable, which is sound
// for the equalities/negations the language can express.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "ir/ast.h"
#include "pred/packet.h"

namespace merlin::pred {

class Analyzer {
public:
    Analyzer();

    // Compiles a predicate; results are hash-consed, so repeated calls with
    // equivalent predicates return identical nodes. Compilation is memoized
    // twice: on the predicate node's identity (a lookup, no rendering),
    // then on its canonical text. Each distinct predicate is compiled
    // exactly once per analyzer lifetime (until vacuum()), no matter how
    // many statements reference it, and each node is rendered at most once.
    // A fresh compile flattens an `and` tree and builds all of its field
    // tests as one multi-field cube (no apply); the other conjuncts, and
    // the operands of or/not, reuse the identity memo's root where this
    // analyzer has one, so `true and !p1 and ... and !pn` recompiles none
    // of the p_i it has seen.
    [[nodiscard]] bdd::Node compile(const ir::PredPtr& p);

    [[nodiscard]] bool disjoint(const ir::PredPtr& a, const ir::PredPtr& b);
    [[nodiscard]] bool implies(const ir::PredPtr& a, const ir::PredPtr& b);
    [[nodiscard]] bool equivalent(const ir::PredPtr& a, const ir::PredPtr& b);
    [[nodiscard]] bool satisfiable(const ir::PredPtr& a);
    // True when the disjunction of `preds` matches every packet.
    [[nodiscard]] bool total(const std::vector<ir::PredPtr>& preds);
    // True when preds are pairwise disjoint.
    [[nodiscard]] bool pairwise_disjoint(const std::vector<ir::PredPtr>& preds);

    // A concrete packet matching `p` (payload patterns are reflected by
    // concatenating the needles the assignment sets). Only valid when
    // satisfiable(p). Fields the assignment *forces* are always emitted,
    // including those forced to zero; only genuinely unconstrained fields
    // are omitted.
    [[nodiscard]] Packet witness(const ir::PredPtr& p);

    // The packet's full variable assignment under this analyzer's variable
    // layout: header bits (ir::fields(), MSB-first within a field) followed
    // by one bit per registered payload needle (true iff the payload
    // contains it). Evaluating any compiled BDD on these bits agrees with
    // pred::matches for every predicate this analyzer has seen.
    [[nodiscard]] std::vector<bool> bits_of(const Packet& packet) const;

    [[nodiscard]] bdd::Manager& manager() { return manager_; }
    [[nodiscard]] const bdd::Manager& manager() const { return manager_; }

    // Memoization counters: distinct predicates actually compiled vs. calls
    // served from either memo. memo_size() counts canonical-text entries;
    // node_memo_size() counts identity entries, live or not yet swept.
    [[nodiscard]] long long compile_count() const { return compiles_; }
    [[nodiscard]] long long compile_hit_count() const { return compile_hits_; }
    [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }
    [[nodiscard]] std::size_t node_memo_size() const {
        return by_node_.size();
    }
    // Full BDD-space resets performed by vacuum().
    [[nodiscard]] long long vacuum_count() const { return vacuums_; }
    // BDD work counters, cumulative across vacuums (the manager's own
    // counters reset with it; retired totals are carried here).
    [[nodiscard]] long long bdd_apply_count() const {
        return retired_applies_ + manager_.apply_count();
    }
    [[nodiscard]] long long bdd_cache_hit_count() const {
        return retired_cache_hits_ + manager_.cache_hit_count();
    }

    // Discards the whole BDD space (nodes, apply cache, both memos) while
    // keeping the variable layout — payload needles keep their variable
    // indices, so recompiled predicates mean the same thing. Every
    // bdd::Node previously returned by compile() is invalidated; callers
    // must only vacuum at points where none are held (the engine does so
    // between delta publications). This is what bounds a long-running
    // daemon's predicate memory: dead unique-table entries from retired
    // statements cannot be collected individually, so past a node-count
    // threshold the space is rebuilt from scratch on demand.
    void vacuum();
    // vacuum() iff node_count() exceeds `node_limit`; returns true if run.
    bool vacuum_if_above(std::size_t node_limit);

    // The vacuum rule of a space kept across the generations of an update
    // stream (codegen::Incremental's), with no fixed node limit to tune.
    // Call begin_generation() at the start of each generation, when no
    // bdd::Node is held. The space vacuums once its node count exceeds
    // generation_vacuum_limit(): twice the count it had when the first
    // generation after its previous vacuum finished, and at least
    // kGenerationVacuumFloor. A stream whose live predicates stay put never
    // vacuums; one that keeps retiring predicates vacuums each time its
    // space doubles.
    void begin_generation();
    // The limit the next begin_generation() applies.
    [[nodiscard]] std::size_t generation_vacuum_limit() const;
    static constexpr std::size_t kGenerationVacuumFloor = 4096;

private:
    [[nodiscard]] bdd::Node compile_fresh(const ir::Pred& p);
    // An `and` tree: its field tests as one multi-field cube, then the
    // remaining conjuncts.
    [[nodiscard]] bdd::Node compile_conjunction(const ir::Pred& p);
    // An operand of and/or/not: the identity memo's root when `p` has one,
    // else compiled fresh. Reads the memo without entering or counting.
    [[nodiscard]] bdd::Node compile_operand(const ir::Pred& p);
    [[nodiscard]] bdd::Cube_field field_literal(const ir::Pred& test) const;
    [[nodiscard]] int payload_variable(const std::string& needle);

    bdd::Manager manager_;
    std::map<std::string, int> payload_vars_;
    std::vector<std::string> payload_needles_;  // by variable order
    // Canonical predicate text -> compiled root.
    std::unordered_map<std::string, bdd::Node> memo_;
    // Predicate node address -> compiled root. The weak owner never
    // extends a node's lifetime; it tells a live entry from one whose node
    // died and whose address a new node may now occupy. Dead entries are
    // swept whenever the map doubles.
    struct Node_entry {
        std::weak_ptr<const ir::Pred> owner;
        bdd::Node root = bdd::kFalse;
    };
    std::unordered_map<const ir::Pred*, Node_entry> by_node_;
    std::size_t by_node_sweep_at_ = kNodeMemoSweepFloor;
    static constexpr std::size_t kNodeMemoSweepFloor = 64;
    long long compiles_ = 0;
    long long compile_hits_ = 0;
    long long vacuums_ = 0;
    // begin_generation() calls since the last vacuum (counted up to 2),
    // and the node count the first of them finished at (0 until it has).
    int generations_ = 0;
    std::size_t settled_nodes_ = 0;
    long long retired_applies_ = 0;
    long long retired_cache_hits_ = 0;
};

}  // namespace merlin::pred
