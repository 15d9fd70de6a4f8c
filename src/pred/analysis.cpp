#include "pred/analysis.h"

#include <algorithm>

#include "ir/fields.h"
#include "util/error.h"

namespace merlin::pred {

Analyzer::Analyzer() : manager_(ir::total_header_bits()) {}

bdd::Cube_field Analyzer::field_literal(const ir::Pred& test) const {
    const auto f = ir::find_field(test.field);
    if (!f) throw Policy_error("unknown field in predicate: " + test.field);
    // Variable order: most significant bit first within the field.
    return bdd::Cube_field{f->bit_offset, f->width, test.value};
}

int Analyzer::payload_variable(const std::string& needle) {
    const auto it = payload_vars_.find(needle);
    if (it != payload_vars_.end()) return it->second;
    const int var = manager_.add_variable();
    payload_vars_.emplace(needle, var);
    payload_needles_.push_back(needle);
    return var;
}

bdd::Node Analyzer::compile(const ir::PredPtr& p) {
    // A live entry at this address is this very node. A dead one's address
    // may since have been reused by a new node, which falls through.
    if (const auto known = by_node_.find(p.get());
        known != by_node_.end() && !known->second.owner.expired()) {
        ++compile_hits_;
        return known->second.root;
    }
    const std::string key = ir::to_string(p);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
        ++compile_hits_;
    } else {
        ++compiles_;
        it = memo_.emplace(key, compile_fresh(*p)).first;
    }
    if (by_node_.size() >= by_node_sweep_at_) {
        std::erase_if(by_node_, [](const auto& entry) {
            return entry.second.owner.expired();
        });
        by_node_sweep_at_ =
            std::max(kNodeMemoSweepFloor, 2 * by_node_.size());
    }
    by_node_.insert_or_assign(p.get(), Node_entry{p, it->second});
    return it->second;
}

bdd::Node Analyzer::compile_fresh(const ir::Pred& p) {
    using ir::Pred_kind;
    switch (p.kind) {
        case Pred_kind::true_: return bdd::kTrue;
        case Pred_kind::false_: return bdd::kFalse;
        case Pred_kind::test: {
            const bdd::Cube_field literal = field_literal(p);
            return manager_.cube(std::span(&literal, 1));
        }
        case Pred_kind::payload:
            return manager_.var(payload_variable(p.needle));
        case Pred_kind::and_: return compile_conjunction(p);
        case Pred_kind::or_:
            return manager_.apply_or(compile_operand(*p.lhs),
                                     compile_operand(*p.rhs));
        case Pred_kind::not_: return manager_.negate(compile_operand(*p.lhs));
    }
    throw Error("unreachable predicate kind");
}

bdd::Node Analyzer::compile_conjunction(const ir::Pred& p) {
    // The field tests of the flattened conjunction become one cube; the
    // other conjuncts are and-ed onto it left to right, so payload needles
    // are registered in the order they appear.
    std::vector<bdd::Cube_field> tests;
    std::vector<const ir::Pred*> rest;
    for (const ir::Pred* c : ir::conjuncts(p)) {
        if (c->kind == ir::Pred_kind::test)
            tests.push_back(field_literal(*c));
        else if (c->kind != ir::Pred_kind::true_)
            rest.push_back(c);
    }
    std::sort(tests.begin(), tests.end(),
              [](const bdd::Cube_field& a, const bdd::Cube_field& b) {
                  return a.first < b.first;
              });
    bdd::Node acc = manager_.cube(tests);
    for (const ir::Pred* c : rest)
        acc = manager_.apply_and(acc, compile_operand(*c));
    return acc;
}

bdd::Node Analyzer::compile_operand(const ir::Pred& p) {
    // A live entry at this address is this very node (see compile()).
    if (const auto known = by_node_.find(&p);
        known != by_node_.end() && !known->second.owner.expired())
        return known->second.root;
    return compile_fresh(p);
}

void Analyzer::vacuum() {
    // A fresh manager over the same variable layout: header bits plus the
    // payload variables registered so far (payload_variable() handed out
    // indices in needle order, which Manager(n) reproduces).
    retired_applies_ += manager_.apply_count();
    retired_cache_hits_ += manager_.cache_hit_count();
    manager_ = bdd::Manager(ir::total_header_bits() +
                            static_cast<int>(payload_needles_.size()));
    memo_.clear();
    by_node_.clear();
    by_node_sweep_at_ = kNodeMemoSweepFloor;
    generations_ = 0;
    settled_nodes_ = 0;
    ++vacuums_;
}

bool Analyzer::vacuum_if_above(std::size_t node_limit) {
    if (manager_.node_count() <= node_limit) return false;
    vacuum();
    return true;
}

std::size_t Analyzer::generation_vacuum_limit() const {
    // The first generation after a vacuum has finished once the next one
    // begins; its node count is then the current one.
    const std::size_t settled =
        generations_ == 1 ? manager_.node_count() : settled_nodes_;
    return std::max(kGenerationVacuumFloor, 2 * settled);
}

void Analyzer::begin_generation() {
    const std::size_t limit = generation_vacuum_limit();
    if (generations_ == 1) settled_nodes_ = manager_.node_count();
    generations_ = std::min(generations_ + 1, 2);
    if (manager_.node_count() <= limit) return;
    vacuum();
    generations_ = 1;  // this generation is the first in the fresh space
}

bool Analyzer::disjoint(const ir::PredPtr& a, const ir::PredPtr& b) {
    return manager_.disjoint(compile(a), compile(b));
}

bool Analyzer::implies(const ir::PredPtr& a, const ir::PredPtr& b) {
    return manager_.implies(compile(a), compile(b));
}

bool Analyzer::equivalent(const ir::PredPtr& a, const ir::PredPtr& b) {
    return compile(a) == compile(b);
}

bool Analyzer::satisfiable(const ir::PredPtr& a) {
    return compile(a) != bdd::kFalse;
}

bool Analyzer::total(const std::vector<ir::PredPtr>& preds) {
    bdd::Node acc = bdd::kFalse;
    for (const ir::PredPtr& p : preds) acc = manager_.apply_or(acc, compile(p));
    return acc == bdd::kTrue;
}

bool Analyzer::pairwise_disjoint(const std::vector<ir::PredPtr>& preds) {
    std::vector<bdd::Node> nodes;
    nodes.reserve(preds.size());
    for (const ir::PredPtr& p : preds) nodes.push_back(compile(p));
    for (std::size_t i = 0; i < nodes.size(); ++i)
        for (std::size_t j = i + 1; j < nodes.size(); ++j)
            if (!manager_.disjoint(nodes[i], nodes[j])) return false;
    return true;
}

Packet Analyzer::witness(const ir::PredPtr& p) {
    const bdd::Node node = compile(p);
    if (node == bdd::kFalse)
        throw Policy_error("witness() on unsatisfiable predicate");
    std::vector<bool> decided;
    const std::vector<bool> bits = manager_.pick_assignment(node, decided);
    Packet out;
    const int header_bits = ir::total_header_bits();
    for (const ir::Field& f : ir::fields()) {
        std::uint64_t value = 0;
        bool constrained = false;
        for (int bit = 0; bit < f.width; ++bit) {
            value <<= 1;
            const auto idx = static_cast<std::size_t>(f.bit_offset + bit);
            if (idx < bits.size() && bits[idx]) value |= 1;
            if (idx < decided.size() && decided[idx]) constrained = true;
        }
        // A field is part of the witness when the assignment touched any of
        // its bits — including fields *forced* to zero (e.g. tcp.dst = 0),
        // which the value!=0 test used to misreport as unconstrained.
        if (value != 0 || constrained) out.fields[f.name] = value;
    }
    for (std::size_t i = 0; i < payload_needles_.size(); ++i) {
        const auto var = static_cast<std::size_t>(header_bits) + i;
        if (var < bits.size() && bits[var]) out.payload += payload_needles_[i];
    }
    return out;
}

std::vector<bool> Analyzer::bits_of(const Packet& packet) const {
    std::vector<bool> bits(
        static_cast<std::size_t>(manager_.variable_count()), false);
    for (const ir::Field& f : ir::fields()) {
        const std::uint64_t value = packet.get(f.name);
        for (int bit = 0; bit < f.width; ++bit) {
            const auto idx = static_cast<std::size_t>(f.bit_offset + bit);
            const int shift = f.width - 1 - bit;
            if (idx < bits.size()) bits[idx] = ((value >> shift) & 1) != 0;
        }
    }
    const auto header_bits = static_cast<std::size_t>(ir::total_header_bits());
    for (std::size_t i = 0; i < payload_needles_.size(); ++i) {
        const std::size_t var = header_bits + i;
        if (var < bits.size())
            bits[var] =
                packet.payload.find(payload_needles_[i]) != std::string::npos;
    }
    return bits;
}

}  // namespace merlin::pred
