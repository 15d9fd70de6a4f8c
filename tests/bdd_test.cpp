#include "bdd/bdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "ir/fields.h"
#include "util/error.h"
#include "util/rng.h"

namespace merlin::bdd {
namespace {

TEST(Bdd, TerminalsAndVariables) {
    Manager m(3);
    EXPECT_NE(kFalse, kTrue);
    const Node x = m.var(0);
    const Node nx = m.nvar(0);
    EXPECT_NE(x, nx);
    EXPECT_EQ(m.negate(x), nx);
    EXPECT_EQ(m.negate(nx), x);
    // Hash-consing: same structure, same node.
    EXPECT_EQ(m.var(0), x);
}

TEST(Bdd, BooleanAlgebraLaws) {
    Manager m(4);
    const Node a = m.var(0);
    const Node b = m.var(1);
    const Node c = m.var(2);

    EXPECT_EQ(m.apply_and(a, kTrue), a);
    EXPECT_EQ(m.apply_and(a, kFalse), kFalse);
    EXPECT_EQ(m.apply_or(a, kFalse), a);
    EXPECT_EQ(m.apply_or(a, kTrue), kTrue);
    EXPECT_EQ(m.apply_and(a, m.negate(a)), kFalse);
    EXPECT_EQ(m.apply_or(a, m.negate(a)), kTrue);

    // Commutativity / associativity / distributivity (canonical form makes
    // these pointer equalities).
    EXPECT_EQ(m.apply_and(a, b), m.apply_and(b, a));
    EXPECT_EQ(m.apply_and(a, m.apply_and(b, c)),
              m.apply_and(m.apply_and(a, b), c));
    EXPECT_EQ(m.apply_and(a, m.apply_or(b, c)),
              m.apply_or(m.apply_and(a, b), m.apply_and(a, c)));

    // De Morgan.
    EXPECT_EQ(m.negate(m.apply_and(a, b)),
              m.apply_or(m.negate(a), m.negate(b)));
    EXPECT_EQ(m.negate(m.apply_or(a, b)),
              m.apply_and(m.negate(a), m.negate(b)));

    // Double negation.
    const Node f = m.apply_xor(a, m.apply_or(b, c));
    EXPECT_EQ(m.negate(m.negate(f)), f);
}

TEST(Bdd, XorSemantics) {
    Manager m(2);
    const Node a = m.var(0);
    const Node b = m.var(1);
    const Node x = m.apply_xor(a, b);
    EXPECT_TRUE(m.evaluate(x, {true, false}));
    EXPECT_TRUE(m.evaluate(x, {false, true}));
    EXPECT_FALSE(m.evaluate(x, {true, true}));
    EXPECT_FALSE(m.evaluate(x, {false, false}));
    EXPECT_EQ(m.apply_xor(a, a), kFalse);
    EXPECT_EQ(m.apply_xor(a, kTrue), m.negate(a));
}

TEST(Bdd, SatCount) {
    Manager m(3);
    EXPECT_EQ(m.sat_count(kFalse), 0);
    EXPECT_EQ(m.sat_count(kTrue), 8);
    EXPECT_EQ(m.sat_count(m.var(0)), 4);
    EXPECT_EQ(m.sat_count(m.var(2)), 4);
    EXPECT_EQ(m.sat_count(m.apply_and(m.var(0), m.var(1))), 2);
    EXPECT_EQ(m.sat_count(m.apply_or(m.var(0), m.var(1))), 6);
    EXPECT_EQ(m.sat_count(m.apply_xor(m.var(0), m.var(2))), 4);
}

TEST(Bdd, PickAssignmentSatisfies) {
    Manager m(5);
    const Node f = m.apply_and(m.apply_or(m.var(0), m.var(3)),
                               m.apply_and(m.nvar(1), m.var(4)));
    const auto assignment = m.pick_assignment(f);
    ASSERT_EQ(assignment.size(), 5u);
    EXPECT_TRUE(m.evaluate(f, assignment));
    EXPECT_TRUE(m.pick_assignment(kFalse).empty());
}

TEST(Bdd, PickAssignmentReportsDecidedVariables) {
    Manager m(4);
    // var0 and !var2: vars 0 and 2 are forced (one to zero), 1 and 3 free.
    const Node f = m.apply_and(m.var(0), m.nvar(2));
    std::vector<bool> decided;
    const auto assignment = m.pick_assignment(f, decided);
    ASSERT_EQ(decided.size(), 4u);
    EXPECT_TRUE(m.evaluate(f, assignment));
    EXPECT_TRUE(decided[0]);
    EXPECT_FALSE(decided[1]);
    EXPECT_TRUE(decided[2]);   // decided *to zero* — must still be reported
    EXPECT_FALSE(decided[3]);
    EXPECT_FALSE(assignment[2]);
}

TEST(Bdd, WorkCountersTrackAppliesAndCacheHits) {
    Manager m(4);
    EXPECT_EQ(m.apply_count(), 0);
    const Node a = m.apply_and(m.var(0), m.var(1));
    EXPECT_GT(m.apply_count(), 0);
    const long long before = m.apply_count();
    EXPECT_EQ(m.apply_and(m.var(0), m.var(1)), a);
    EXPECT_GT(m.cache_hit_count(), 0);
    EXPECT_EQ(m.apply_count(), before + 1);  // one memoized top-level call
}

TEST(Bdd, ApplyCacheStaysAtItsCapAndCorrect) {
    // The cache is bounded by a fixed slot cap: pairwise conjunction of
    // disjoint value-equality chains is the worst case, flooding the cache
    // with per-pair suffix keys while every partial product is kFalse (no
    // new nodes). Colliding entries overwrite each other; results must stay
    // correct throughout.
    constexpr int kBits = 16;
    Manager m(kBits);
    const auto equals = [&](int value) {
        Node f = kTrue;
        for (int bit = kBits - 1; bit >= 0; --bit)
            f = m.apply_and(((value >> bit) & 1) != 0 ? m.var(bit)
                                                      : m.nvar(bit),
                            f);
        return f;
    };
    std::vector<Node> preds;
    for (int v = 0; v < 600; ++v) preds.push_back(equals(v));
    const std::size_t nodes_before = m.node_count();

    int wrong = 0;
    for (std::size_t i = 0; i < preds.size(); ++i)
        for (std::size_t j = i + 1; j < preds.size(); ++j)
            if (m.apply_and(preds[i], preds[j]) != kFalse) ++wrong;
    EXPECT_EQ(wrong, 0);
    EXPECT_EQ(m.cache_slots(), Manager::kCacheSlotCap);
    EXPECT_EQ(m.node_count(), nodes_before);  // the table itself never grew

    // Applies after evictions recompute and hash-cons to the same nodes.
    EXPECT_EQ(m.apply_and(preds[7], preds[7]), preds[7]);
    EXPECT_EQ(m.apply_or(preds[3], kFalse), preds[3]);
    const auto witness = m.pick_assignment(preds[42]);
    EXPECT_TRUE(m.evaluate(preds[42], witness));
}

// The value-equality chain of `width` variables from `first`, built the
// quadratic way: one apply_and per bit over the growing conjunction.
Node and_chain(Manager& m, int first, int width, std::uint64_t value) {
    Node acc = kTrue;
    for (int bit = 0; bit < width; ++bit) {
        const bool set = ((value >> (width - 1 - bit)) & 1) != 0;
        acc = m.apply_and(acc, set ? m.var(first + bit) : m.nvar(first + bit));
    }
    return acc;
}

TEST(Bdd, CubeEqualsTheApplyChainForEveryFieldWidth) {
    Rng rng(17);
    const int total = ir::total_header_bits();
    Manager m(total);
    for (const ir::Field& f : ir::fields()) {
        const std::uint64_t top =
            f.width == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << f.width) - 1;
        std::vector<std::uint64_t> values{0, top, top >> 1, 1};
        for (int i = 0; i < 8; ++i)
            values.push_back(
                static_cast<std::uint64_t>(rng.uniform(
                    0, std::numeric_limits<std::int64_t>::max())) &
                top);
        for (const std::uint64_t v : values) {
            const std::size_t before = m.node_count();
            const Node c = m.cube(f.bit_offset, f.width, v);
            // A fresh cube adds at most one node per bit.
            EXPECT_LE(m.node_count(), before + static_cast<std::size_t>(f.width));
            EXPECT_EQ(c, and_chain(m, f.bit_offset, f.width, v))
                << f.name << " = " << v;
            EXPECT_EQ(m.sat_count(c), std::pow(2.0, total - f.width));
        }
    }
    // Bits above the width are ignored, as the apply chain ignores them.
    EXPECT_EQ(m.cube(0, 4, 0x1F), m.cube(0, 4, 0xF));
    EXPECT_EQ(m.cube(3, 0, 5), kTrue);
}

TEST(Bdd, CubeRejectsOutOfRangeVariables) {
    Manager m(16);
    EXPECT_NO_THROW((void)m.cube(0, 16, 7));
    EXPECT_THROW((void)m.cube(1, 16, 7), Error);
    EXPECT_THROW((void)m.cube(-1, 4, 7), Error);
    EXPECT_THROW((void)m.cube(12, 5, 7), Error);
    EXPECT_THROW((void)m.cube(0, -1, 7), Error);
    Manager wide(100);
    EXPECT_THROW((void)wide.cube(0, 65, 7), Error);
}

TEST(Bdd, MultiFieldCubeEqualsTheAndOfSingleFieldCubes) {
    Rng rng(23);
    const std::vector<ir::Field>& fields = ir::fields();
    Manager m(ir::total_header_bits());
    int conflicts = 0;
    for (int round = 0; round < 300; ++round) {
        // 0-6 literals over four fields, so fields repeat with equal and
        // with conflicting values; some values carry bits above the width.
        std::vector<Cube_field> literals;
        const int n = static_cast<int>(rng.uniform(0, 6));
        for (int i = 0; i < n; ++i) {
            const ir::Field& f =
                fields[static_cast<std::size_t>(rng.uniform(0, 3)) * 2];
            std::uint64_t value = static_cast<std::uint64_t>(rng.uniform(1, 2));
            if (rng.chance(0.3)) value |= std::uint64_t{1} << f.width;
            literals.push_back(Cube_field{f.bit_offset, f.width, value});
        }
        Node want = kTrue;
        for (const Cube_field& c : literals)
            want = m.apply_and(want, m.cube(c.first, c.width, c.value));
        std::sort(literals.begin(), literals.end(),
                  [](const Cube_field& a, const Cube_field& b) {
                      return a.first < b.first;
                  });
        EXPECT_EQ(m.cube(literals), want) << "round " << round;
        conflicts += want == kFalse ? 1 : 0;
    }
    EXPECT_GT(conflicts, 30);
    EXPECT_LT(conflicts, 270);
}

TEST(Bdd, MultiFieldCubeRejectsUnsortedOrOverlappingRanges) {
    Manager m(32);
    EXPECT_EQ(m.cube(std::span<const Cube_field>{}), kTrue);
    const std::vector<Cube_field> disjoint{{0, 8, 1}, {8, 8, 2}};
    EXPECT_EQ(m.cube(disjoint),
              m.apply_and(m.cube(0, 8, 1), m.cube(8, 8, 2)));
    const std::vector<Cube_field> unsorted{{8, 8, 2}, {0, 8, 1}};
    EXPECT_THROW((void)m.cube(unsorted), Error);
    const std::vector<Cube_field> overlapping{{0, 8, 1}, {4, 8, 1}};
    EXPECT_THROW((void)m.cube(overlapping), Error);
    const std::vector<Cube_field> out_of_range{{0, 8, 1}, {30, 8, 1}};
    EXPECT_THROW((void)m.cube(out_of_range), Error);
}

TEST(Bdd, NodesPastVariable1024KeepTheirIdentity) {
    // Regression: a unique key that packed the variable into the top ten
    // bits of a word made variable 1024 + k alias variable k.
    Manager m(1100);
    const Node low = m.var(3);
    const Node high = m.var(1024 + 3);
    EXPECT_NE(low, high);
    EXPECT_EQ(m.node_var(high), 1024 + 3);
    EXPECT_NE(m.apply_and(low, m.nvar(1027)), kFalse);
    std::vector<bool> bits(1100, false);
    bits[1027] = true;
    EXPECT_TRUE(m.evaluate(high, bits));
    EXPECT_FALSE(m.evaluate(low, bits));
}

TEST(Bdd, ImplicationAndDisjointness) {
    Manager m(3);
    const Node a = m.var(0);
    const Node ab = m.apply_and(a, m.var(1));
    EXPECT_TRUE(m.implies(ab, a));
    EXPECT_FALSE(m.implies(a, ab));
    EXPECT_TRUE(m.disjoint(a, m.negate(a)));
    EXPECT_FALSE(m.disjoint(a, ab));
}

// Property sweep: random expression trees evaluated on random assignments
// must agree with the BDD evaluation.
class BddRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomProperty, AgreesWithDirectEvaluation) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    constexpr int kVars = 8;
    Manager m(kVars);

    struct Expr {
        Node node;
        // direct evaluation closure by truth table over 2^kVars entries
        std::vector<bool> table;
    };
    auto truth_index = [&](const std::vector<bool>& a) {
        std::size_t idx = 0;
        for (int v = 0; v < kVars; ++v)
            idx = (idx << 1) | static_cast<std::size_t>(a[static_cast<std::size_t>(v)]);
        return idx;
    };

    // Build random expressions bottom-up.
    std::vector<Expr> pool;
    for (int v = 0; v < kVars; ++v) {
        Expr e;
        e.node = m.var(v);
        e.table.resize(1u << kVars);
        for (std::size_t i = 0; i < e.table.size(); ++i)
            e.table[i] = ((i >> (kVars - 1 - v)) & 1) != 0;
        pool.push_back(std::move(e));
    }
    for (int step = 0; step < 40; ++step) {
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<int>(pool.size()) - 1));
        const auto j = static_cast<std::size_t>(
            rng.uniform(0, static_cast<int>(pool.size()) - 1));
        const int op = static_cast<int>(rng.uniform(0, 3));
        Expr e;
        e.table.resize(1u << kVars);
        switch (op) {
            case 0:
                e.node = m.apply_and(pool[i].node, pool[j].node);
                for (std::size_t t = 0; t < e.table.size(); ++t)
                    e.table[t] = pool[i].table[t] && pool[j].table[t];
                break;
            case 1:
                e.node = m.apply_or(pool[i].node, pool[j].node);
                for (std::size_t t = 0; t < e.table.size(); ++t)
                    e.table[t] = pool[i].table[t] || pool[j].table[t];
                break;
            case 2:
                e.node = m.apply_xor(pool[i].node, pool[j].node);
                for (std::size_t t = 0; t < e.table.size(); ++t)
                    e.table[t] = pool[i].table[t] != pool[j].table[t];
                break;
            default:
                e.node = m.negate(pool[i].node);
                for (std::size_t t = 0; t < e.table.size(); ++t)
                    e.table[t] = !pool[i].table[t];
                break;
        }
        pool.push_back(std::move(e));
    }

    // Check all expressions against 64 random assignments + sat counts.
    for (const Expr& e : pool) {
        double expected_count = 0;
        for (bool b : e.table) expected_count += b ? 1 : 0;
        EXPECT_EQ(m.sat_count(e.node), expected_count);
        for (int trial = 0; trial < 64; ++trial) {
            std::vector<bool> a(kVars);
            for (int v = 0; v < kVars; ++v) a[static_cast<std::size_t>(v)] = rng.chance(0.5);
            EXPECT_EQ(m.evaluate(e.node, a), e.table[truth_index(a)]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace merlin::bdd
