#include "bdd/bdd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/error.h"

namespace merlin::bdd {
namespace {

// Terminals sort after every real variable.
constexpr int kTerminalVar = std::numeric_limits<int>::max();

constexpr std::size_t kInitialUniqueSlots = std::size_t{1} << 10;

}  // namespace

Manager::Manager(int variable_count)
    : variable_count_(variable_count),
      unique_(kInitialUniqueSlots, kFalse),
      cache_(std::min(kCacheSlotCap,
                      kCacheSlotsPerUniqueSlot * kInitialUniqueSlots)) {
    expects(variable_count >= 0, "BDD variable count must be non-negative");
    nodes_.push_back(Node_data{kTerminalVar, kFalse, kFalse});  // kFalse
    nodes_.push_back(Node_data{kTerminalVar, kTrue, kTrue});    // kTrue
}

int Manager::add_variable() { return variable_count_++; }

std::size_t Manager::unique_slot(int var, Node low, Node high) const {
    return hash_triple(static_cast<std::uint32_t>(var), low, high) &
           (unique_.size() - 1);
}

Manager::Cache_entry& Manager::cache_entry(Node key, Node b) {
    return cache_[hash_triple(key, b, 0) & (cache_.size() - 1)];
}

void Manager::grow() {
    unique_.assign(2 * unique_.size(), kFalse);
    const std::size_t mask = unique_.size() - 1;
    for (std::size_t id = 2; id < nodes_.size(); ++id) {
        const Node_data& nd = nodes_[id];
        std::size_t slot = unique_slot(nd.var, nd.low, nd.high);
        while (unique_[slot] != kFalse) slot = (slot + 1) & mask;
        unique_[slot] = static_cast<Node>(id);
    }
    // A larger cache starts empty: entries are only a memo.
    const std::size_t slots =
        std::min(kCacheSlotCap, kCacheSlotsPerUniqueSlot * unique_.size());
    if (slots > cache_.size()) cache_.assign(slots, Cache_entry{});
}

Node Manager::make(int var, Node low, Node high) {
    if (low == high) return low;  // reduction rule
    const std::size_t mask = unique_.size() - 1;
    std::size_t slot = unique_slot(var, low, high);
    for (; unique_[slot] != kFalse; slot = (slot + 1) & mask) {
        const Node_data& nd = nodes_[static_cast<std::size_t>(unique_[slot])];
        if (nd.var == var && nd.low == low && nd.high == high)
            return unique_[slot];
    }
    expects(nodes_.size() < kMaxNodes, "BDD node space exhausted");
    const Node id = static_cast<Node>(nodes_.size());
    nodes_.push_back(Node_data{var, low, high});
    unique_[slot] = id;
    if (2 * nodes_.size() > unique_.size()) grow();
    return id;
}

Node Manager::var(int v) {
    expects(v >= 0 && v < variable_count_, "BDD variable out of range");
    return make(v, kFalse, kTrue);
}

Node Manager::nvar(int v) {
    expects(v >= 0 && v < variable_count_, "BDD variable out of range");
    return make(v, kTrue, kFalse);
}

Node Manager::cube(int first, int width, std::uint64_t value) {
    const Cube_field field{first, width, value};
    return cube(std::span(&field, 1));
}

Node Manager::cube(std::span<const Cube_field> fields) {
    const auto masked = [](const Cube_field& f) {
        return f.width == 64 ? f.value
                             : f.value & ((std::uint64_t{1} << f.width) - 1);
    };
    const auto repeats = [&](std::size_t k) {
        return k > 0 && fields[k - 1].first == fields[k].first &&
               fields[k - 1].width == fields[k].width;
    };
    for (std::size_t k = 0; k < fields.size(); ++k) {
        const Cube_field& f = fields[k];
        expects(f.width >= 0 && f.width <= 64, "BDD cube width out of range");
        expects(f.first >= 0 && f.width <= variable_count_ - f.first,
                "BDD cube variables out of range");
        if (k == 0) continue;
        const Cube_field& prev = fields[k - 1];
        if (repeats(k)) {
            if (masked(f) != masked(prev)) return kFalse;
            continue;
        }
        expects(prev.first + prev.width <= f.first,
                "BDD cube fields unsorted or overlapping");
    }
    // Bottom-up from the last variable; a repeated field is built once.
    Node acc = kTrue;
    for (std::size_t k = fields.size(); k-- > 0;) {
        const Cube_field& f = fields[k];
        if (repeats(k)) continue;
        for (int shift = 0; shift < f.width; ++shift) {
            const int v = f.first + f.width - 1 - shift;
            acc = ((f.value >> shift) & 1) != 0 ? make(v, kFalse, acc)
                                                : make(v, acc, kFalse);
        }
    }
    return acc;
}

Node Manager::apply(Op op, Node a, Node b) {
    ++apply_calls_;
    // Terminal short-cuts.
    switch (op) {
        case Op::and_:
            if (a == kFalse || b == kFalse) return kFalse;
            if (a == kTrue) return b;
            if (b == kTrue) return a;
            if (a == b) return a;
            break;
        case Op::or_:
            if (a == kTrue || b == kTrue) return kTrue;
            if (a == kFalse) return b;
            if (b == kFalse) return a;
            if (a == b) return a;
            break;
        case Op::xor_:
            if (a == kFalse) return b;
            if (b == kFalse) return a;
            if (a == b) return kFalse;
            if (a == kTrue) return negate(b);
            if (b == kTrue) return negate(a);
            break;
    }
    // Commutative ops: canonicalize the argument order for the cache.
    if (a > b) std::swap(a, b);
    const Node key = cache_key(op, a);
    if (const Cache_entry& e = cache_entry(key, b); e.key == key && e.b == b) {
        ++cache_hits_;
        return e.result;
    }

    // Copies, not references: the recursive applies can grow nodes_ and
    // reallocate it out from under a reference.
    const Node_data na = nodes_[static_cast<std::size_t>(a)];
    const Node_data nb = nodes_[static_cast<std::size_t>(b)];
    const int split = na.var < nb.var ? na.var : nb.var;
    const Node a_low = na.var == split ? na.low : a;
    const Node a_high = na.var == split ? na.high : a;
    const Node b_low = nb.var == split ? nb.low : b;
    const Node b_high = nb.var == split ? nb.high : b;

    const Node low = apply(op, a_low, b_low);
    const Node high = apply(op, a_high, b_high);
    const Node out = make(split, low, high);
    // Re-indexed after the recursion, which may have grown the cache.
    cache_entry(key, b) = Cache_entry{key, b, out};
    return out;
}

Node Manager::apply_and(Node a, Node b) { return apply(Op::and_, a, b); }
Node Manager::apply_or(Node a, Node b) { return apply(Op::or_, a, b); }
Node Manager::apply_xor(Node a, Node b) { return apply(Op::xor_, a, b); }

Node Manager::negate(Node a) {
    if (a == kFalse) return kTrue;
    if (a == kTrue) return kFalse;
    ++apply_calls_;
    // not(a) = a xor true, but terminal handling above would recurse; use a
    // dedicated cached traversal keyed as xor with kTrue.
    const Node key = cache_key(Op::xor_, a);
    if (const Cache_entry& e = cache_entry(key, kTrue);
        e.key == key && e.b == kTrue) {
        ++cache_hits_;
        return e.result;
    }
    // Copy, not reference: the recursive negate calls can grow nodes_ and
    // reallocate it out from under a reference.
    const Node_data na = nodes_[static_cast<std::size_t>(a)];
    const Node out = make(na.var, negate(na.low), negate(na.high));
    cache_entry(key, kTrue) = Cache_entry{key, kTrue, out};
    return out;
}

double Manager::sat_count(Node a) {
    // count(n) over remaining variables; memoized per call.
    std::unordered_map<Node, double> memo;
    auto rec = [&](auto&& self, Node n) -> double {
        // Returns assignments over variables strictly below var_of(n)'s level,
        // normalized afterwards with a power-of-two correction.
        if (n == kFalse) return 0;
        if (n == kTrue) return 1;
        const auto it = memo.find(n);
        if (it != memo.end()) return it->second;
        const Node_data& nd = nodes_[static_cast<std::size_t>(n)];
        const int lv = nd.low == kFalse || nd.low == kTrue
                           ? variable_count_
                           : var_of(nd.low);
        const int hv = nd.high == kFalse || nd.high == kTrue
                           ? variable_count_
                           : var_of(nd.high);
        const double low = self(self, nd.low) *
                           std::pow(2.0, lv - nd.var - 1);
        const double high = self(self, nd.high) *
                            std::pow(2.0, hv - nd.var - 1);
        const double out = low + high;
        memo.emplace(n, out);
        return out;
    };
    if (a == kFalse) return 0;
    if (a == kTrue) return std::pow(2.0, variable_count_);
    return rec(rec, a) * std::pow(2.0, var_of(a));
}

std::vector<bool> Manager::pick_assignment(Node a) {
    std::vector<bool> decided;
    return pick_assignment(a, decided);
}

std::vector<bool> Manager::pick_assignment(Node a, std::vector<bool>& decided) {
    decided.assign(static_cast<std::size_t>(variable_count_), false);
    if (a == kFalse) return {};
    std::vector<bool> out(static_cast<std::size_t>(variable_count_), false);
    Node n = a;
    while (n != kTrue) {
        const Node_data& nd = nodes_[static_cast<std::size_t>(n)];
        decided[static_cast<std::size_t>(nd.var)] = true;
        if (nd.high != kFalse) {
            out[static_cast<std::size_t>(nd.var)] = true;
            n = nd.high;
        } else {
            n = nd.low;
        }
    }
    return out;
}

bool Manager::evaluate(Node a, const std::vector<bool>& assignment) const {
    Node n = a;
    while (n != kTrue && n != kFalse) {
        const Node_data& nd = nodes_[static_cast<std::size_t>(n)];
        n = assignment[static_cast<std::size_t>(nd.var)] ? nd.high : nd.low;
    }
    return n == kTrue;
}

}  // namespace merlin::bdd
