#include "pred/analysis.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "ir/fields.h"
#include "parser/parser.h"
#include "pred/packet.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace merlin::pred {
namespace {

using merlin::parser::parse_predicate;

TEST(Pred, PacketMatching) {
    Packet k;
    k.fields["tcp.dst"] = 80;
    k.fields["ip.proto"] = 6;
    EXPECT_TRUE(matches(parse_predicate("tcp.dst = 80"), k));
    EXPECT_FALSE(matches(parse_predicate("tcp.dst = 22"), k));
    EXPECT_TRUE(matches(parse_predicate("ip.proto = tcp and tcp.dst = 80"), k));
    EXPECT_TRUE(matches(parse_predicate("tcp.dst = 22 or tcp.dst = 80"), k));
    EXPECT_TRUE(matches(parse_predicate("!(tcp.dst = 22)"), k));
    EXPECT_TRUE(matches(parse_predicate("true"), k));
    EXPECT_FALSE(matches(parse_predicate("false"), k));
}

TEST(Pred, PayloadMatching) {
    Packet k;
    k.payload = "GET /index.html HTTP/1.1";
    EXPECT_TRUE(matches(parse_predicate("payload = \"GET /\""), k));
    EXPECT_FALSE(matches(parse_predicate("payload = \"POST\""), k));
}

TEST(Pred, DisjointnessOfPortTests) {
    Analyzer a;
    EXPECT_TRUE(a.disjoint(parse_predicate("tcp.dst = 20"),
                           parse_predicate("tcp.dst = 21")));
    EXPECT_FALSE(a.disjoint(parse_predicate("tcp.dst = 20"),
                            parse_predicate("ip.proto = tcp")));
    // Different fields are never disjoint by equality tests alone.
    EXPECT_FALSE(a.disjoint(parse_predicate("tcp.src = 20"),
                            parse_predicate("tcp.dst = 20")));
}

TEST(Pred, RefinementPartitionFromPaper) {
    // Section 4.1: tcp traffic partitioned into HTTP and non-HTTP.
    Analyzer a;
    const auto parent = parse_predicate("ip.proto = tcp");
    const auto http = parse_predicate("ip.proto = tcp and tcp.dst = 80");
    const auto rest = parse_predicate("ip.proto = tcp and tcp.dst != 80");

    EXPECT_TRUE(a.implies(http, parent));
    EXPECT_TRUE(a.implies(rest, parent));
    EXPECT_TRUE(a.disjoint(http, rest));
    // The two children exactly cover the parent.
    const auto joined = ir::pred_or(http, rest);
    EXPECT_TRUE(a.equivalent(joined, parent));
}

TEST(Pred, TotalityAndPairwiseDisjoint) {
    Analyzer a;
    const auto p = parse_predicate("tcp.dst = 80");
    const auto q = parse_predicate("!(tcp.dst = 80)");
    EXPECT_TRUE(a.total({p, q}));
    EXPECT_TRUE(a.pairwise_disjoint({p, q}));
    EXPECT_FALSE(a.total({p}));
    EXPECT_FALSE(a.pairwise_disjoint(
        {p, parse_predicate("ip.proto = tcp and tcp.dst = 80")}));
}

TEST(Pred, SatisfiabilityAndWitness) {
    Analyzer a;
    const auto contradiction =
        parse_predicate("tcp.dst = 80 and tcp.dst = 22");
    EXPECT_FALSE(a.satisfiable(contradiction));
    EXPECT_THROW((void)a.witness(contradiction), Policy_error);

    const auto p = parse_predicate(
        "eth.src = 00:00:00:00:00:01 and tcp.dst = 80 and !(ip.proto = 17)");
    ASSERT_TRUE(a.satisfiable(p));
    const Packet w = a.witness(p);
    EXPECT_TRUE(matches(p, w));
    EXPECT_EQ(w.get("eth.src"), 1u);
    EXPECT_EQ(w.get("tcp.dst"), 80u);
}

TEST(Pred, WitnessEmitsFieldsForcedToZero) {
    Analyzer a;
    // The only satisfying assignments force tcp.src to 0: the witness must
    // say so explicitly rather than omit the field (the old behaviour
    // dropped every zero-valued field, constrained or not).
    const auto p = parse_predicate("tcp.src = 0 and tcp.dst = 80");
    ASSERT_TRUE(a.satisfiable(p));
    const Packet w = a.witness(p);
    EXPECT_TRUE(matches(p, w));
    EXPECT_TRUE(w.fields.contains("tcp.src"));
    EXPECT_EQ(w.get("tcp.src"), 0u);
    EXPECT_EQ(w.get("tcp.dst"), 80u);

    // A negated equality can also force zeros (single-bit fields aside,
    // the chosen branch pins whatever bits the BDD walked through); but a
    // genuinely unconstrained field must stay omitted.
    const Packet free_dst = a.witness(parse_predicate("ip.src = 10.0.0.1"));
    EXPECT_TRUE(free_dst.fields.contains("ip.src"));
    EXPECT_FALSE(free_dst.fields.contains("tcp.dst"));
}

TEST(Pred, CompileMemoServesRepeatedPredicates) {
    Analyzer a;
    const auto p = parse_predicate("tcp.dst = 80 and ip.proto = tcp");
    const bdd::Node first = a.compile(p);
    const long long compiled = a.compile_count();
    // Same text, fresh tree: served from the memo, not recompiled.
    EXPECT_EQ(a.compile(parse_predicate("tcp.dst = 80 and ip.proto = tcp")),
              first);
    EXPECT_EQ(a.compile_count(), compiled);
    EXPECT_GE(a.compile_hit_count(), 1);
    EXPECT_EQ(a.memo_size(), static_cast<std::size_t>(compiled));
}

TEST(Pred, PayloadNeedlesKeepPredicateTextInjective) {
    // Unescaped, this needle printed exactly like the disjunction below,
    // so the text memo of a fresh analyzer called the two equivalent while
    // ir::equal told them apart. The concrete syntax cannot express a quote
    // or a newline inside a needle, so neither may the IR.
    EXPECT_THROW((void)ir::pred_payload("a\" or payload = \"b"),
                 Policy_error);
    EXPECT_THROW((void)ir::pred_payload("a\nb"), Policy_error);
    const auto either =
        ir::pred_or(ir::pred_payload("a"), ir::pred_payload("b"));
    EXPECT_EQ(ir::to_string(either), "payload = \"a\" or payload = \"b\"");
    EXPECT_TRUE(ir::equal(parse_predicate(ir::to_string(either)), either));
}

TEST(Pred, CompileMemoDoesNotOwnItsNodes) {
    Analyzer a;
    const auto p = parse_predicate("tcp.dst = 80 and ip.proto = tcp");
    const long owners = p.use_count();
    const bdd::Node root = a.compile(p);
    EXPECT_EQ(p.use_count(), owners);
    const long long hits = a.compile_hit_count();
    EXPECT_EQ(a.compile(p), root);  // served by node identity
    EXPECT_EQ(a.compile_hit_count(), hits + 1);
    EXPECT_EQ(p.use_count(), owners);
}

TEST(Pred, CompileMemoSurvivesAddressReuse) {
    // Each round's predicate dies before the next is allocated, so new
    // nodes land on addresses the memo has seen. Nodes allocated apart from
    // their control block free their storage while the memo's weak entry
    // still names the address; make_shared nodes are freed by the memo's
    // sweep. Either way every root must mean its own node.
    Analyzer a;
    Rng rng(404);
    std::set<const ir::Pred*> addresses;
    int reused = 0;
    for (int round = 0; round < 3000; ++round) {
        const auto port = static_cast<std::uint64_t>(rng.uniform(79, 82));
        const ir::PredPtr p =
            round % 2 == 0
                ? ir::PredPtr(new ir::Pred{ir::Pred_kind::test, "tcp.dst",
                                           port, {}, nullptr, nullptr})
                : ir::pred_and(ir::pred_test("tcp.dst", port),
                               ir::pred_test("ip.proto", port % 2 ? 6 : 17));
        if (!addresses.insert(p.get()).second) ++reused;
        const bdd::Node root = a.compile(p);
        Analyzer fresh;
        for (const ir::PredPtr& probe : {p, ir::pred_not(p)}) {
            if (!fresh.satisfiable(probe)) continue;
            const Packet w = fresh.witness(probe);
            EXPECT_EQ(a.manager().evaluate(root, a.bits_of(w)),
                      fresh.manager().evaluate(fresh.compile(p),
                                               fresh.bits_of(w)))
                << "round " << round << ": " << ir::to_string(p);
            EXPECT_EQ(a.manager().evaluate(root, a.bits_of(w)), matches(p, w))
                << "round " << round << ": " << ir::to_string(p);
        }
    }
    // AddressSanitizer quarantines freed blocks, so only a plain build is
    // sure to hand addresses back.
#if !defined(__SANITIZE_ADDRESS__)
    EXPECT_GT(reused, 0);
#endif
    // The sweep keeps dead entries from piling up.
    EXPECT_LT(a.node_memo_size(), 3000u);
}

TEST(Pred, VacuumClearsBothCompileMemos) {
    Analyzer a;
    const auto p = parse_predicate("tcp.dst = 80");
    const auto same_text = parse_predicate("tcp.dst = 80");
    (void)a.compile(p);
    (void)a.compile(same_text);
    EXPECT_EQ(a.compile_count(), 1);
    EXPECT_EQ(a.memo_size(), 1u);       // one canonical text
    EXPECT_EQ(a.node_memo_size(), 2u);  // two distinct nodes
    a.vacuum();
    EXPECT_EQ(a.memo_size(), 0u);
    EXPECT_EQ(a.node_memo_size(), 0u);
    (void)a.compile(p);  // recompiled in the fresh space, not served stale
    EXPECT_EQ(a.compile_count(), 2);
    EXPECT_EQ(a.memo_size(), 1u);
}

TEST(Pred, PayloadAtomsAreUninterpreted) {
    Analyzer a;
    const auto p1 = parse_predicate("payload = \"a\"");
    const auto p2 = parse_predicate("payload = \"b\"");
    // Conservative: different patterns may co-occur in one packet.
    EXPECT_FALSE(a.disjoint(p1, p2));
    // Same pattern is one atom.
    EXPECT_TRUE(a.disjoint(p1, ir::pred_not(p1)));
    EXPECT_TRUE(a.equivalent(p1, parse_predicate("payload = \"a\"")));
}

TEST(Pred, MacEqualityIsExact) {
    Analyzer a;
    EXPECT_TRUE(a.disjoint(parse_predicate("eth.src = 00:00:00:00:00:01"),
                           parse_predicate("eth.src = 00:00:00:00:00:02")));
    EXPECT_TRUE(a.equivalent(parse_predicate("eth.src = 00:00:00:00:00:ff"),
                             parse_predicate("eth.src = 00:00:00:00:00:FF")));
}

// Registers payload needles n0 .. n<count - 1>, one variable each, after
// the ir::fields() header bits.
void register_needles(Analyzer& a, int count) {
    for (int i = 0; i < count; ++i)
        (void)a.compile(ir::pred_payload(indexed("n", i)));
}

Packet udp_packet(std::uint64_t port, std::string payload = {}) {
    Packet k;
    k.fields["udp.dst"] = port;
    k.payload = std::move(payload);
    return k;
}

// With 1,024 needles the last one, n1023, sits on variable 260 + 1023 =
// 1024 + 259. A unique-table key that packed the variable into a word's
// top ten bits made it alias variable 259, udp.dst's low bit.
TEST(Pred, NeedlePastVariable1024StaysApartFromHeaderBits) {
    Analyzer a;
    const auto port1 = parse_predicate("udp.dst = 1");
    const auto port2 = parse_predicate("udp.dst = 2");
    const auto needle = parse_predicate("payload = \"n1023\"");
    (void)a.compile(port1);
    register_needles(a, 1024);
    ASSERT_EQ(a.manager().variable_count(), ir::total_header_bits() + 1024);
    EXPECT_FALSE(a.disjoint(needle, port2));
    EXPECT_FALSE(a.implies(port1, needle));
    for (const Packet& k : {udp_packet(1), udp_packet(2, "n1023"),
                            udp_packet(3, "n1023"), udp_packet(2)})
        for (const auto& p : {port1, port2, needle,
                              ir::pred_and(port2, needle)})
            EXPECT_EQ(a.manager().evaluate(a.compile(p), a.bits_of(k)),
                      matches(p, k))
                << ir::to_string(p) << " on udp.dst=" << k.get("udp.dst")
                << " payload \"" << k.payload << '"';
}

TEST(Pred, HeaderBitsCompiledAfterManyNeedlesKeepTheirMeaning) {
    Analyzer a;
    register_needles(a, 1024);
    const auto p = parse_predicate(
        "udp.dst = 1 or (udp.dst = 3 and payload = \"n1023\")");
    for (const Packet& k : {udp_packet(1), udp_packet(3, "n1023"),
                            udp_packet(3), udp_packet(2, "n1023")})
        EXPECT_EQ(a.manager().evaluate(a.compile(p), a.bits_of(k)),
                  matches(p, k))
            << "udp.dst=" << k.get("udp.dst") << " payload \"" << k.payload
            << '"';
}

// ------------------------------------------- conjunctions as one cube

// The compile without cubes over several fields: each field test its own
// single-field cube, each operator one apply, in the analyzer under test,
// so both sides share one hash-consed space and equal functions are equal
// nodes. A payload atom is the analyzer's own variable.
bdd::Node apply_chain(Analyzer& a, const ir::PredPtr& p) {
    bdd::Manager& m = a.manager();
    switch (p->kind) {
        case ir::Pred_kind::true_: return bdd::kTrue;
        case ir::Pred_kind::false_: return bdd::kFalse;
        case ir::Pred_kind::test: {
            const auto f = ir::find_field(p->field);
            return m.cube(f->bit_offset, f->width, p->value);
        }
        case ir::Pred_kind::payload: return a.compile(p);
        case ir::Pred_kind::and_:
            return m.apply_and(apply_chain(a, p->lhs), apply_chain(a, p->rhs));
        case ir::Pred_kind::or_:
            return m.apply_or(apply_chain(a, p->lhs), apply_chain(a, p->rhs));
        case ir::Pred_kind::not_: return m.negate(apply_chain(a, p->lhs));
    }
    return bdd::kFalse;
}

// A field test on one of a few fields: small values that repeat (so one
// field is often tested twice, equal or conflicting), values with bits
// above the field width (which the compile masks off), and full-width
// random ones.
ir::PredPtr random_test(Rng& rng) {
    static const char* const names[] = {"eth.src", "eth.dst", "ip.src",
                                        "tcp.dst", "ip.proto"};
    const auto f = *ir::find_field(names[rng.uniform(0, 4)]);
    const std::uint64_t small = static_cast<std::uint64_t>(rng.uniform(1, 3));
    switch (rng.uniform(0, 3)) {
        case 0:
        case 1: return ir::pred_test(f.name, small);
        case 2:
            return ir::pred_test(f.name, small | std::uint64_t{1} << f.width);
        default:
            return ir::pred_test(
                f.name, static_cast<std::uint64_t>(rng.uniform(
                            0, std::numeric_limits<std::int64_t>::max())));
    }
}

// A conjunction of 1-8 conjuncts in a random and-tree shape; a conjunct is
// a field test, true, false, a payload atom, or a nested or/not over
// smaller conjunctions.
ir::PredPtr random_conjunction(Rng& rng, int depth) {
    std::vector<ir::PredPtr> parts;
    const int n = static_cast<int>(rng.uniform(1, 8));
    for (int i = 0; i < n; ++i) {
        const std::int64_t pick = rng.uniform(0, 19);
        if (pick < 12 || depth == 0) {
            parts.push_back(random_test(rng));
        } else if (pick < 14) {
            parts.push_back(ir::pred_true());
        } else if (pick < 15) {
            parts.push_back(ir::pred_false());
        } else if (pick < 16) {
            parts.push_back(ir::pred_payload(rng.chance(0.5) ? "x" : "y"));
        } else if (pick < 18) {
            parts.push_back(ir::pred_or(random_conjunction(rng, depth - 1),
                                        random_conjunction(rng, depth - 1)));
        } else {
            parts.push_back(ir::pred_not(random_conjunction(rng, depth - 1)));
        }
    }
    // Random tree shape: repeatedly join two adjacent parts.
    while (parts.size() > 1) {
        const auto at = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(parts.size()) - 2));
        parts[at] = ir::pred_and(parts[at], parts[at + 1]);
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(at) + 1);
    }
    return parts.front();
}

TEST(Pred, ConjunctionsCompileToTheNodeOfTheApplyChain) {
    Rng rng(29);
    Analyzer a;
    int unsat = 0;
    for (int round = 0; round < 400; ++round) {
        const ir::PredPtr p = random_conjunction(rng, 2);
        const bdd::Node compiled = a.compile(p);
        EXPECT_EQ(compiled, apply_chain(a, p)) << ir::to_string(p);
        unsat += compiled == bdd::kFalse ? 1 : 0;
    }
    // Conflicting tests and false conjuncts are exercised, and so is
    // everything else.
    EXPECT_GT(unsat, 20);
    EXPECT_LT(unsat, 380);
}

TEST(Pred, FieldTestConjunctionIsOneCubeWithNoApply) {
    Analyzer a;
    (void)a.compile(parse_predicate(
        "eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and "
        "tcp.dst = 80"));
    // One node per tested bit (48 + 48 + 16) plus the two terminals.
    EXPECT_EQ(a.manager().node_count(), 2u + 48 + 48 + 16);
    EXPECT_EQ(a.bdd_apply_count(), 0);
    // A repeated equal test is one test; a conflicting one is false.
    EXPECT_EQ(a.compile(parse_predicate(
                  "tcp.dst = 80 and ip.proto = 6 and tcp.dst = 80")),
              a.compile(parse_predicate("ip.proto = 6 and tcp.dst = 80")));
    EXPECT_EQ(a.compile(parse_predicate("tcp.dst = 80 and tcp.dst = 22")),
              bdd::kFalse);
    // Bits above the field width are masked, as a single test's are.
    EXPECT_EQ(a.compile(ir::pred_and(ir::pred_test("tcp.dst", 80),
                                     ir::pred_test("tcp.dst", 80 + 65536))),
              a.compile(ir::pred_test("tcp.dst", 80)));
    EXPECT_EQ(a.bdd_apply_count(), 0);
}

TEST(Pred, DefaultConjunctionReusesCompiledMemberRoots) {
    // The catch-all statement `true and !p1 and ... and !pn`: over the very
    // member nodes the analyzer compiled, each member's root comes from the
    // identity memo; over equal copies, each is compiled again (its `or`
    // costs at least one apply step, even when the apply cache answers).
    std::vector<std::string> texts;
    for (int i = 0; i < 8; ++i)
        texts.push_back("(tcp.dst = " + std::to_string(80 + i) +
                        " or tcp.dst = 443) and ip.src = 10.0.0." +
                        std::to_string(i + 1));
    const auto catch_all = [](const std::vector<ir::PredPtr>& members) {
        ir::PredPtr rest = ir::pred_true();
        for (const ir::PredPtr& m : members)
            rest = ir::pred_and(rest, ir::pred_not(m));
        return rest;
    };
    const auto work = [&](bool same_nodes) {
        Analyzer a;
        std::vector<ir::PredPtr> members;
        for (const std::string& t : texts) {
            members.push_back(parse_predicate(t));
            (void)a.compile(members.back());
        }
        std::vector<ir::PredPtr> copies;
        for (const std::string& t : texts)
            copies.push_back(parse_predicate(t));
        const ir::PredPtr rest = catch_all(same_nodes ? members : copies);
        const long long before = a.bdd_apply_count();
        const bdd::Node root = a.compile(rest);
        const long long applies = a.bdd_apply_count() - before;
        EXPECT_EQ(root, apply_chain(a, rest));
        return applies;
    };
    EXPECT_LE(work(true) + static_cast<long long>(texts.size()), work(false));
}

// Property sweep: the BDD compilation must agree with the direct evaluator
// on randomly generated predicates and packets.
class PredOracleProperty : public ::testing::TestWithParam<int> {};

ir::PredPtr random_pred(Rng& rng, int depth) {
    if (depth == 0 || rng.chance(0.3)) {
        switch (rng.uniform(0, 3)) {
            case 0:
                return ir::pred_test("tcp.dst",
                                     static_cast<std::uint64_t>(rng.uniform(79, 82)));
            case 1:
                return ir::pred_test("ip.proto",
                                     static_cast<std::uint64_t>(rng.uniform(6, 7)));
            case 2:
                return ir::pred_test(
                    "eth.src", static_cast<std::uint64_t>(rng.uniform(1, 3)));
            default: return rng.chance(0.5) ? ir::pred_true() : ir::pred_false();
        }
    }
    switch (rng.uniform(0, 2)) {
        case 0:
            return ir::pred_and(random_pred(rng, depth - 1),
                                random_pred(rng, depth - 1));
        case 1:
            return ir::pred_or(random_pred(rng, depth - 1),
                               random_pred(rng, depth - 1));
        default: return ir::pred_not(random_pred(rng, depth - 1));
    }
}

Packet random_packet(Rng& rng) {
    Packet k;
    k.fields["tcp.dst"] = static_cast<std::uint64_t>(rng.uniform(79, 82));
    k.fields["ip.proto"] = static_cast<std::uint64_t>(rng.uniform(6, 7));
    k.fields["eth.src"] = static_cast<std::uint64_t>(rng.uniform(1, 3));
    return k;
}

// Encodes a packet into the analyzer's bit assignment.
std::vector<bool> to_bits(const Analyzer& unused, const Packet& k, int nvars) {
    (void)unused;
    std::vector<bool> bits(static_cast<std::size_t>(nvars), false);
    for (const ir::Field& f : ir::fields()) {
        const std::uint64_t v = k.get(f.name);
        for (int bit = 0; bit < f.width; ++bit) {
            const int shift = f.width - 1 - bit;
            bits[static_cast<std::size_t>(f.bit_offset + bit)] =
                ((v >> shift) & 1) != 0;
        }
    }
    return bits;
}

TEST_P(PredOracleProperty, BddAgreesWithEvaluator) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    Analyzer a;
    for (int round = 0; round < 30; ++round) {
        const ir::PredPtr p = random_pred(rng, 4);
        const bdd::Node n = a.compile(p);
        for (int trial = 0; trial < 20; ++trial) {
            const Packet k = random_packet(rng);
            const auto bits = to_bits(a, k, a.manager().variable_count());
            EXPECT_EQ(a.manager().evaluate(n, bits), matches(p, k))
                << ir::to_string(p);
        }
        // Witnesses of satisfiable predicates must match.
        if (a.satisfiable(p)) {
            const Packet w = a.witness(p);
            EXPECT_TRUE(matches(p, w)) << ir::to_string(p);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredOracleProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace merlin::pred
