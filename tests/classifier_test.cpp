// Shared predicate DAG: grouping by hash-consed BDD root, single-traversal
// classification against per-statement evaluation, reachable match sets as
// the overlap oracle, and the compile memo that bounds BDD work by the
// number of *distinct* predicates; the keyed overlap search held to one
// whole-policy DAG.
#include "pred/classifier.h"
#include "pred/overlap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <set>
#include <string>
#include <vector>

#include "ir/ast.h"
#include "parser/parser.h"
#include "pred/packet.h"
#include "util/rng.h"
#include "util/strings.h"

namespace merlin::pred {
namespace {

using merlin::parser::parse_predicate;

std::vector<ir::PredPtr> parse_all(const std::vector<std::string>& texts) {
    std::vector<ir::PredPtr> preds;
    preds.reserve(texts.size());
    for (const std::string& t : texts) preds.push_back(parse_predicate(t));
    return preds;
}

TEST(Classifier, GroupsByBddRootNotByText) {
    Analyzer analyzer;
    const auto preds = parse_all({
        "tcp.dst = 80",
        "tcp.dst = 80 and tcp.dst = 80",  // same function, different text
        "tcp.dst = 22",
    });
    const Classifier classifier(analyzer, preds);
    ASSERT_EQ(classifier.group_count(), 2u);
    EXPECT_EQ(classifier.group_of(0), classifier.group_of(1));
    EXPECT_NE(classifier.group_of(0), classifier.group_of(2));
    EXPECT_EQ(classifier.group_members(classifier.group_of(0)),
              (std::vector<Classifier::Index>{0, 1}));
}

TEST(Classifier, ClassifiesDisjointAndOverlappingPredicates) {
    Analyzer analyzer;
    const auto preds = parse_all({
        "tcp.dst = 80",
        "ip.proto = tcp",     // overlaps 0 (port tests imply nothing here)
        "tcp.dst = 22",       // disjoint from 0, overlaps 1
    });
    const Classifier classifier(analyzer, preds);

    Packet http;
    http.fields["tcp.dst"] = 80;
    http.fields["ip.proto"] = 6;
    EXPECT_EQ(classifier.classify(http),
              (std::vector<Classifier::Index>{0, 1}));

    Packet ssh;
    ssh.fields["tcp.dst"] = 22;
    EXPECT_EQ(classifier.classify(ssh),
              (std::vector<Classifier::Index>{2}));

    Packet none;
    none.fields["tcp.dst"] = 443;
    none.fields["ip.proto"] = 17;
    EXPECT_TRUE(classifier.classify(none).empty());
}

TEST(Classifier, MatchSetsAreExactlyTheReachableCombinations) {
    Analyzer analyzer;
    // 0 and 1 are disjoint; 2 overlaps both; 3 is unsatisfiable.
    const auto preds = parse_all({
        "tcp.dst = 80",
        "tcp.dst = 22",
        "ip.proto = tcp",
        "tcp.dst = 80 and tcp.dst = 22",
    });
    const Classifier classifier(analyzer, preds);
    const auto sets = classifier.match_sets();
    // Reachable: {0,2} (http tcp), {1,2} (ssh tcp), {2} (other tcp),
    // {0} (port 80 non-tcp), {1} (port 22 non-tcp). Never {0,1}; never 3.
    const std::vector<std::vector<Classifier::Index>> want = {
        {0}, {0, 2}, {1}, {1, 2}, {2}};
    EXPECT_EQ(sets, want);
    EXPECT_EQ(classifier.group_root(classifier.group_of(3)), bdd::kFalse);
}

TEST(Classifier, AgreesWithPerStatementEvaluationOnRandomPackets) {
    Rng rng(7);
    Analyzer analyzer;
    const auto preds = parse_all({
        "tcp.dst = 80",
        "tcp.dst = 80 or tcp.dst = 8080",
        "ip.proto = tcp and !(tcp.dst = 22)",
        "ip.src = 10.0.0.1",
        "!(ip.src = 10.0.0.1) and tcp.dst = 80",
        "payload = \"GET /\"",
    });
    const Classifier classifier(analyzer, preds);
    for (int trial = 0; trial < 200; ++trial) {
        Packet k;
        k.fields["tcp.dst"] = rng.chance(0.5) ? 80 : 22;
        if (rng.chance(0.25)) k.fields["tcp.dst"] = 8080;
        k.fields["ip.proto"] = rng.chance(0.5) ? 6 : 17;
        if (rng.chance(0.5)) k.fields["ip.src"] = 0x0a000001;
        if (rng.chance(0.5)) k.payload = "GET /index.html";
        const std::vector<bool> bits = analyzer.bits_of(k);
        std::vector<Classifier::Index> want;
        for (std::size_t i = 0; i < preds.size(); ++i)
            if (analyzer.manager().evaluate(analyzer.compile(preds[i]), bits))
                want.push_back(static_cast<Classifier::Index>(i));
        EXPECT_EQ(classifier.classify(k), want);
        EXPECT_EQ(classifier.classify_bits(bits), want);
    }
}

TEST(Classifier, CompileMemoBoundsWorkByDistinctPredicates) {
    Analyzer analyzer;
    // 1000 statements drawn from 10 distinct predicate texts.
    std::vector<ir::PredPtr> preds;
    for (int i = 0; i < 1000; ++i)
        preds.push_back(parse_predicate("tcp.dst = " +
                                        std::to_string(8000 + i % 10)));
    const Classifier classifier(analyzer, preds);
    EXPECT_EQ(classifier.group_count(), 10u);
    EXPECT_LE(analyzer.compile_count(), 10);
    EXPECT_GE(analyzer.compile_hit_count(), 990);
    // All 1000 statements classify in one traversal of a 10-terminal DAG.
    Packet k;
    k.fields["tcp.dst"] = 8003;
    EXPECT_EQ(classifier.classify(k).size(), 100u);
}

// The flat kernel at a size that grows every construction table several
// times: 5,000 statements over 50 overlapping predicates on four fields.
// Each field is tested only against a pool of six values, so any packet
// classifies like one whose fields come from the pool or one value outside
// it, and the 7^4 = 2,401 such packets reach every combination of
// statements that can match together.
TEST(Classifier, FlatKernelMatchesBruteForceAtScale) {
    struct Pool {
        const char* field;
        std::vector<std::string> text;    // the six pooled values
        std::vector<std::uint64_t> value;  // the same, then one outside
    };
    const std::vector<Pool> pools = {
        {"tcp.dst", {"80", "443", "22", "8080", "53", "25"},
         {80, 443, 22, 8080, 53, 25, 9}},
        {"tcp.src", {"1000", "1001", "1002", "1003", "1004", "1005"},
         {1000, 1001, 1002, 1003, 1004, 1005, 7}},
        {"ip.src",
         {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5",
          "10.0.0.6"},
         {0x0a000001, 0x0a000002, 0x0a000003, 0x0a000004, 0x0a000005,
          0x0a000006, 0x0a000063}},
        {"ip.proto", {"6", "17", "1", "2", "3", "4"}, {6, 17, 1, 2, 3, 4, 5}},
    };
    // A fixed linear congruential stream, so the input is the same with
    // every standard library.
    std::uint64_t x = 12345;
    const auto next = [&](std::uint64_t n) {
        x = (x * 6364136223846793005ULL + 1442695040888963407ULL);
        return static_cast<std::size_t>((x >> 33) % n);
    };
    const auto test = [&](std::size_t field) {
        const Pool& pool = pools[field];
        return std::string(pool.field) + " = " + pool.text[next(6)];
    };
    std::vector<ir::PredPtr> distinct;
    for (int k = 0; k < 50; ++k) {
        const std::size_t a = next(4);
        const std::size_t b = (a + 1 + next(3)) % 4;
        const std::size_t c = next(4);
        const std::size_t d = (c + 1 + next(3)) % 4;
        const std::string ta = test(a);
        const std::string tb = test(b);
        const std::string tc = test(c);
        const std::string td = test(d);
        distinct.push_back(parse_predicate("(" + ta + " and " + tb +
                                           ") or (" + tc + " and !(" + td +
                                           "))"));
    }
    std::vector<ir::PredPtr> preds;
    for (int i = 0; i < 5000; ++i) preds.push_back(distinct[i % 50]);

    Analyzer analyzer;
    const Classifier classifier(analyzer, preds);
    // Pinned: any kernel must build this same DAG, node for node.
    EXPECT_EQ(classifier.node_count(), 61455u);
    EXPECT_EQ(classifier.terminal_set_count(), 3925u);

    std::set<std::vector<Classifier::Index>> co_matches;
    int packets = 0;
    for (std::size_t v0 = 0; v0 < 7; ++v0)
        for (std::size_t v1 = 0; v1 < 7; ++v1)
            for (std::size_t v2 = 0; v2 < 7; ++v2)
                for (std::size_t v3 = 0; v3 < 7; ++v3) {
                    Packet k;
                    const std::size_t pick[4] = {v0, v1, v2, v3};
                    for (std::size_t f = 0; f < 4; ++f)
                        k.fields[pools[f].field] = pools[f].value[pick[f]];
                    std::vector<bool> hit(distinct.size());
                    for (std::size_t p = 0; p < distinct.size(); ++p)
                        hit[p] = matches(distinct[p], k);
                    std::vector<Classifier::Index> want;
                    for (std::size_t i = 0; i < preds.size(); ++i)
                        if (hit[i % 50])
                            want.push_back(static_cast<Classifier::Index>(i));
                    ASSERT_EQ(classifier.classify(k), want);
                    if (!want.empty()) co_matches.insert(std::move(want));
                    ++packets;
                }
    EXPECT_GE(packets, 2000);
    EXPECT_EQ(classifier.match_sets(),
              std::vector<std::vector<Classifier::Index>>(co_matches.begin(),
                                                          co_matches.end()));
}

// With 1,024 needles registered first, n1023 sits on variable 1024 + 259:
// a unique key packing the variable into a word's top ten bits merged its
// DAG nodes with those of variable 259, udp.dst's low bit.
TEST(Classifier, NeedlePastVariable1024KeepsItsOwnNodes) {
    Analyzer analyzer;
    for (int i = 0; i < 1024; ++i)
        (void)analyzer.compile(ir::pred_payload(indexed("n", i)));
    const auto preds = parse_all(
        {"udp.dst = 1 or (udp.dst = 3 and payload = \"n1023\")"});
    const Classifier classifier(analyzer, preds);
    const bdd::Node root = analyzer.compile(preds[0]);
    for (const auto& [port, payload] :
         std::vector<std::pair<std::uint64_t, std::string>>{
             {1, ""}, {3, "n1023"}, {3, ""}, {2, "n1023"}, {1, "n1023"}}) {
        Packet k;
        k.fields["udp.dst"] = port;
        k.payload = payload;
        const bool expected = matches(preds[0], k);
        EXPECT_EQ(analyzer.manager().evaluate(root, analyzer.bits_of(k)),
                  expected)
            << "udp.dst=" << port << " payload \"" << payload << '"';
        EXPECT_EQ(classifier.classify(k),
                  expected ? std::vector<Classifier::Index>{0}
                           : std::vector<Classifier::Index>{})
            << "udp.dst=" << port << " payload \"" << payload << '"';
    }
}

TEST(Classifier, SurvivesAnalyzerVacuum) {
    Analyzer analyzer;
    const auto preds = parse_all({"tcp.dst = 80", "tcp.dst = 22"});
    const Classifier classifier(analyzer, preds);
    analyzer.vacuum();
    // The DAG copied everything it needs; only group_root() names retired
    // nodes. classify() recompiles nothing — it reads packet bits directly.
    Packet k;
    k.fields["tcp.dst"] = 22;
    EXPECT_EQ(classifier.classify(k),
              (std::vector<Classifier::Index>{1}));
    EXPECT_EQ(classifier.match_sets().size(), 2u);
}

TEST(Classifier, VacuumAccumulatesRetiredCountersAndShrinksNodes) {
    Analyzer analyzer;
    // A conjunction of field tests compiles to one cube with no apply; the
    // disjunction makes the applies whose counters must survive a vacuum.
    const auto preds = parse_all(
        {"(ip.src = 10.0.0.1 or ip.src = 10.0.0.3) and tcp.dst = 80",
         "ip.src = 10.0.0.2"});
    const Classifier classifier(analyzer, preds);
    const long long applies = analyzer.bdd_apply_count();
    const std::size_t grown = analyzer.manager().node_count();
    EXPECT_GT(applies, 0);
    EXPECT_FALSE(analyzer.vacuum_if_above(grown));  // at, not above
    EXPECT_TRUE(analyzer.vacuum_if_above(2));
    EXPECT_EQ(analyzer.vacuum_count(), 1);
    EXPECT_LT(analyzer.manager().node_count(), grown);
    // Work counters never move backwards across a vacuum.
    EXPECT_GE(analyzer.bdd_apply_count(), applies);
    EXPECT_EQ(analyzer.memo_size(), 0u);
    // Recompilation after the vacuum preserves meaning (same layout).
    Packet k;
    k.fields["ip.src"] = 0x0a000002;
    EXPECT_TRUE(matches(preds[1], k));
    EXPECT_TRUE(analyzer.satisfiable(preds[1]));
    EXPECT_EQ(analyzer.witness(preds[1]).get("ip.src"), 0x0a000002u);
}

// ------------------------------------------------------- overlap search

using Pair = std::pair<std::size_t, std::size_t>;

// Every pair some packet matches both, by one whole-policy DAG.
std::vector<Pair> co_matched(const std::vector<ir::PredPtr>& preds) {
    Analyzer analyzer;
    const Classifier classifier(analyzer, preds);
    std::set<Pair> pairs;
    for (const auto& set : classifier.match_sets())
        for (std::size_t a = 0; a < set.size(); ++a)
            for (std::size_t b = a + 1; b < set.size(); ++b)
                pairs.emplace(set[a], set[b]);
    return {pairs.begin(), pairs.end()};
}

// A statement testing any subset of the four pivot fields over a few hosts
// (addresses sometimes carry bits above the field width), maybe a port,
// maybe under a disjunction, negation or payload atom.
ir::PredPtr random_statement(Rng& rng) {
    static const char* const pivots[] = {"eth.src", "eth.dst", "ip.src",
                                         "ip.dst"};
    ir::PredPtr out;
    const auto add = [&](ir::PredPtr term) {
        out = out ? ir::pred_and(out, std::move(term)) : std::move(term);
    };
    for (int k = 0; k < 4; ++k) {
        if (!rng.chance(0.6)) continue;
        const int width = k < 2 ? 48 : 32;
        std::uint64_t value = static_cast<std::uint64_t>(rng.uniform(1, 3));
        if (rng.chance(0.1)) value |= std::uint64_t{1} << width;
        add(ir::pred_test(pivots[k], value));
    }
    if (rng.chance(0.5))
        add(ir::pred_test("tcp.dst",
                          static_cast<std::uint64_t>(rng.uniform(80, 81))));
    if (rng.chance(0.1))
        add(ir::pred_or(ir::pred_test("tcp.src", 1),
                        ir::pred_test("ip.src",
                                      static_cast<std::uint64_t>(
                                          rng.uniform(1, 3)))));
    if (rng.chance(0.1))
        add(ir::pred_not(ir::pred_test(
            "eth.dst", static_cast<std::uint64_t>(rng.uniform(1, 3)))));
    if (rng.chance(0.05)) add(ir::pred_payload("x"));
    return out ? out : ir::pred_true();
}

TEST(Overlaps, SearchReportsExactlyTheWholePolicyDagsPairs) {
    Rng rng(5);
    std::size_t pairs = 0;
    std::size_t dag = 0;
    std::size_t wildcard = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<ir::PredPtr> preds;
        const int n = static_cast<int>(rng.uniform(2, 10));
        for (int i = 0; i < n; ++i) preds.push_back(random_statement(rng));
        const std::vector<Pair> want = co_matched(preds);
        Analyzer analyzer;
        const Overlaps found = overlapping_pairs(analyzer, preds);
        EXPECT_EQ(found.pairs, want) << "trial " << trial;
        for (std::size_t f = 0; f < preds.size(); ++f) {
            std::vector<Pair> with;
            for (const Pair& pair : want)
                if (pair.first == f || pair.second == f) with.push_back(pair);
            EXPECT_EQ(overlapping_pairs_with(analyzer, preds, f).pairs, with)
                << "trial " << trial << ", statement " << f;
        }
        pairs += want.size();
        dag += found.dag_predicates;
        wildcard += found.wildcard_tests;
    }
    // Overlaps, key buckets or wildcard DAGs, and wildcard tests all occur.
    EXPECT_GT(pairs, 100u);
    EXPECT_GT(dag, 100u);
    EXPECT_GT(wildcard, 100u);
}

TEST(Overlaps, KeysMaskValuesToTheFieldWidth) {
    // eth.src = 2^48 + 1 is eth.src = 1 to the compile, so the two keys
    // are one key and the statements overlap.
    const std::vector<ir::PredPtr> preds{
        ir::pred_and(ir::pred_test("eth.src", 1), ir::pred_test("eth.dst", 2)),
        ir::pred_and(ir::pred_test("eth.src", 1 + (std::uint64_t{1} << 48)),
                     ir::pred_test("eth.dst", 2))};
    Analyzer analyzer;
    EXPECT_EQ(overlapping_pairs(analyzer, preds).pairs,
              (std::vector<Pair>{{0, 1}}));
    EXPECT_EQ(overlapping_pairs_with(analyzer, preds, 1).pairs,
              (std::vector<Pair>{{0, 1}}));
}

TEST(Overlaps, DistinctKeysCompileNothingOnEitherPivot) {
    std::vector<ir::PredPtr> eth;
    std::vector<ir::PredPtr> ip;
    for (std::uint64_t src = 1; src <= 8; ++src)
        for (std::uint64_t dst = 1; dst <= 8; ++dst) {
            eth.push_back(ir::pred_and(ir::pred_test("eth.src", src),
                                       ir::pred_test("eth.dst", dst)));
            ip.push_back(ir::pred_and(ir::pred_test("ip.src", src),
                                      ir::pred_test("ip.dst", dst)));
        }
    for (const auto& preds : {eth, ip}) {
        Analyzer analyzer;
        const Overlaps found = overlapping_pairs(analyzer, preds);
        EXPECT_TRUE(found.pairs.empty());
        EXPECT_EQ(found.dag_predicates, 0u);
        EXPECT_EQ(found.wildcard_tests, 0u);
        EXPECT_EQ(analyzer.compile_count(), 0);
    }
}

}  // namespace
}  // namespace merlin::pred
