// A reduced ordered binary decision diagram (ROBDD) engine.
//
// This is the decision procedure behind Merlin's predicate analyses
// (disjointness, totality, implication — Sections 2.1 and 4.2). The original
// system shelled out to the Z3 SMT solver; the predicate fragment of Figure 1
// is propositional over fixed-width header fields, so a BDD package decides
// it exactly and is self-contained.
//
// Nodes are hash-consed, so two equivalent functions always have the same
// node id; equivalence checking is pointer equality. Apply operations are
// memoized. Variables are identified by index; lower index = closer to the
// root.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace merlin::bdd {

using Node = std::uint32_t;

inline constexpr Node kFalse = 0;
inline constexpr Node kTrue = 1;

// One field-equality literal of a cube: variables first .. first+width-1
// take the bits of `value`, most significant bit on `first`. Bits above the
// width are ignored.
struct Cube_field {
    int first;
    int width;
    std::uint64_t value;
};

// Mixes three words into a hash, which the open-addressed tables here and
// pred::Classifier's unique table index with a power-of-two mask.
[[nodiscard]] inline std::size_t hash_triple(std::uint64_t x, std::uint64_t y,
                                             std::uint64_t z) {
    std::uint64_t h = x * 0x9E3779B97F4A7C15ULL ^ y * 0xC2B2AE3D27D4EB4FULL ^
                      z * 0x165667B19E3779F9ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
}

class Manager {
public:
    explicit Manager(int variable_count);

    [[nodiscard]] int variable_count() const { return variable_count_; }
    // Grows the variable universe (new variables order after existing ones).
    int add_variable();

    // The function "variable v" / "not variable v".
    [[nodiscard]] Node var(int v);
    [[nodiscard]] Node nvar(int v);

    // The conjunction of literals fixing variables first .. first+width-1
    // to the bits of `value`, most significant bit on `first` (a
    // field-equality test). Built bottom-up, one unique-table lookup per
    // bit, where an apply_and chain walks the partial cube at every step.
    [[nodiscard]] Node cube(int first, int width, std::uint64_t value);
    // The conjunction of several field-equality tests, in one bottom-up
    // pass with no apply. `fields` must be sorted by `first`; entries on
    // one variable range repeat a field (two different values give kFalse,
    // equal ones are one test), and ranges must not otherwise overlap.
    [[nodiscard]] Node cube(std::span<const Cube_field> fields);

    [[nodiscard]] Node apply_and(Node a, Node b);
    [[nodiscard]] Node apply_or(Node a, Node b);
    [[nodiscard]] Node apply_xor(Node a, Node b);
    [[nodiscard]] Node negate(Node a);

    // Convenience combinations used by the analyses.
    [[nodiscard]] bool disjoint(Node a, Node b) {
        return apply_and(a, b) == kFalse;
    }
    [[nodiscard]] bool implies(Node a, Node b) {
        return apply_and(a, negate(b)) == kFalse;
    }
    [[nodiscard]] bool equivalent(Node a, Node b) const { return a == b; }

    // Number of satisfying assignments over all `variable_count()` variables,
    // as a double (exact for < 2^53).
    [[nodiscard]] double sat_count(Node a);

    // One satisfying assignment (variable -> value), empty when a == kFalse.
    // Variables not on the chosen path default to false. The second form
    // additionally records which variables the path actually decided, so a
    // caller can distinguish "forced to 0" from "unconstrained".
    [[nodiscard]] std::vector<bool> pick_assignment(Node a);
    [[nodiscard]] std::vector<bool> pick_assignment(Node a,
                                                    std::vector<bool>& decided);

    // Evaluates the function under a full assignment.
    [[nodiscard]] bool evaluate(Node a, const std::vector<bool>& assignment) const;

    // Structure of a non-terminal node (read-only; the classifier converts
    // BDDs into its own multi-terminal DAG through these).
    [[nodiscard]] bool is_terminal(Node n) const { return n <= kTrue; }
    [[nodiscard]] int node_var(Node n) const {
        return nodes_[static_cast<std::size_t>(n)].var;
    }
    [[nodiscard]] Node node_low(Node n) const {
        return nodes_[static_cast<std::size_t>(n)].low;
    }
    [[nodiscard]] Node node_high(Node n) const {
        return nodes_[static_cast<std::size_t>(n)].high;
    }

    // Live node count (diagnostics; includes the two terminals).
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

    // Work counters: apply/negate traversal steps and memo-cache hits.
    [[nodiscard]] long long apply_count() const { return apply_calls_; }
    [[nodiscard]] long long cache_hit_count() const { return cache_hits_; }

    // The apply memo is a direct-mapped, lossy computed cache: each
    // (op, a, b) has one slot and a colliding entry overwrites it. The
    // cache is a pure memo — losing an entry never changes a result, it
    // only costs a recomputation. It keeps kCacheSlotsPerUniqueSlot slots
    // per unique-table slot, up to kCacheSlotCap, so the manager's
    // footprint is O(live nodes) plus a constant, not O(total work).
    static constexpr std::size_t kCacheSlotCap = std::size_t{1} << 14;
    static constexpr std::size_t kCacheSlotsPerUniqueSlot = 4;
    [[nodiscard]] std::size_t cache_slots() const { return cache_.size(); }

private:
    struct Node_data {
        int var;
        Node low;
        Node high;
    };

    enum class Op : std::uint8_t { and_, or_, xor_ };

    // Node ids stay below 2^30, so a cache key carries the op in the top
    // two bits of its first operand and an entry packs into 12 bytes.
    static constexpr std::size_t kMaxNodes = std::size_t{1} << 30;

    // One computed-cache slot. Operands are never terminals (the apply
    // short-cuts answer those), so key == kFalse marks an empty slot.
    struct Cache_entry {
        Node key = kFalse;  // first operand | op << 30
        Node b = kFalse;
        Node result = kFalse;
    };

    [[nodiscard]] Node make(int var, Node low, Node high);
    [[nodiscard]] Node apply(Op op, Node a, Node b);
    [[nodiscard]] int var_of(Node n) const {
        return nodes_[static_cast<std::size_t>(n)].var;
    }
    [[nodiscard]] std::size_t unique_slot(int var, Node low, Node high) const;
    [[nodiscard]] static Node cache_key(Op op, Node a) {
        return a | static_cast<Node>(op) << 30;
    }
    [[nodiscard]] Cache_entry& cache_entry(Node key, Node b);
    // Doubles the unique table (rehashing every node) and grows the cache
    // along with it, up to kCacheSlotCap.
    void grow();

    int variable_count_;
    std::vector<Node_data> nodes_;
    // Unique table: open addressing with linear probing over node ids,
    // comparing the full (var, low, high) of nodes_; kFalse (never stored)
    // marks an empty slot. Load stays at most 1/2.
    std::vector<Node> unique_;
    std::vector<Cache_entry> cache_;
    long long apply_calls_ = 0;
    long long cache_hits_ = 0;
};

}  // namespace merlin::bdd
