// Delta-aware codegen: the stable-name allocator, two-phase diffs between
// configurations, and the per-packet consistency they guarantee.
#include "codegen/diff.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/addressing.h"
#include "core/engine.h"
#include "mixed_deltas.h"
#include "netsim/tables.h"
#include "parser/parser.h"
#include "testgen/testgen.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "util/error.h"

namespace merlin::codegen {
namespace {

using merlin::parser::parse_policy;

topo::Topology fig2_topology() {
    return topo::parse_topology(R"(
host h1
host h2
switch s1
switch s2
middlebox m1
link h1 s1 1Gbps
link s1 s2 1Gbps
link s2 h2 1Gbps
link s1 m1 1Gbps
link m1 s2 1Gbps
function dpi s1 s2 m1
function nat m1
)");
}

constexpr const char* kNatPolicy = R"(
[ z : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
      -> .* nat .* ],
min(z, 100MB/s)
)";

// Diffs `engine`'s published compilations through one persistent Naming
// and asserts both correctness bars on every step: the diff reconstructs
// the regenerated configuration, and that configuration is batch-equal
// modulo name choice.
Diff checked_update(Incremental& incremental, const core::Engine& engine) {
    Configuration before = incremental.config();
    const Diff d = incremental.update(engine.current(), engine.topology());
    EXPECT_TRUE(equal(apply(std::move(before), d), incremental.config()));
    Naming scratch;
    const Configuration batch =
        generate(engine.current(), engine.topology(), scratch);
    EXPECT_EQ(keyed_text(incremental.config(), incremental.naming()),
              keyed_text(batch, scratch));
    return d;
}

// ----------------------------------------------------------------- Naming

TEST(Naming, RecyclesLowestFreedTagFirst) {
    Naming naming;
    EXPECT_EQ(naming.tag("a"), kMinVlanTag);
    EXPECT_EQ(naming.tag("b"), kMinVlanTag + 1);
    EXPECT_EQ(naming.tag("c"), kMinVlanTag + 2);
    EXPECT_EQ(naming.tag("a"), kMinVlanTag);  // stable rebind

    naming.begin_generation();
    (void)naming.tag("b");  // only b survives this generation
    const std::vector<int> swept = naming.collect_unused();
    EXPECT_EQ(swept, (std::vector<int>{kMinVlanTag, kMinVlanTag + 2}));

    // Freed tags come back lowest-first; the high-water mark stays put.
    EXPECT_EQ(naming.tag("d"), kMinVlanTag);
    EXPECT_EQ(naming.tag("e"), kMinVlanTag + 2);
    EXPECT_EQ(naming.tag("f"), kMinVlanTag + 3);
    EXPECT_EQ(naming.high_water(), kMinVlanTag + 3);
}

TEST(Naming, ThrowsWhenVlanSpaceExhaustsAndRecoversAfterSweep) {
    Naming naming;
    for (int i = 0; i <= kMaxVlanTag - kMinVlanTag; ++i)
        (void)naming.tag("k" + std::to_string(i));
    EXPECT_EQ(naming.high_water(), kMaxVlanTag);
    EXPECT_THROW((void)naming.tag("overflow"), Policy_error);

    // Retiring all but one binding makes the space usable again, starting
    // from the lowest freed tag.
    naming.begin_generation();
    (void)naming.tag("k0");
    (void)naming.collect_unused();
    EXPECT_EQ(naming.tag("fresh"), kMinVlanTag + 1);
}

TEST(Validate, RejectsOutOfRangeTags) {
    Configuration config;
    Flow_rule rule;
    rule.device = "s1";
    rule.priority = kSegmentTagPriority;
    rule.match_tag = 1;  // reserved, below kMinVlanTag
    rule.out_port = "s2";
    config.flow_rules.push_back(rule);
    EXPECT_THROW(validate(config), Policy_error);

    config.flow_rules[0].match_tag = kMinVlanTag;
    config.flow_rules[0].set_tag = kMaxVlanTag + 1;
    EXPECT_THROW(validate(config), Policy_error);

    config.flow_rules[0].set_tag.reset();
    validate(config);  // in-range tag rule is fine
}

TEST(Validate, RejectsTagRuleOutrankedByPredicateRule) {
    Configuration config;
    Flow_rule tagged;
    tagged.device = "s1";
    tagged.priority = kClassifyPriority;  // inverted: tag band must win
    tagged.match_tag = kMinVlanTag;
    tagged.out_port = "s2";
    Flow_rule classifier;
    classifier.device = "s1";
    classifier.priority = kClassifyPriority;
    classifier.match = ir::pred_test("tcp.dst", 80);
    classifier.out_port = "s2";
    config.flow_rules = {tagged, classifier};
    EXPECT_THROW(validate(config), Policy_error);

    config.flow_rules[0].priority = kSegmentTagPriority;
    validate(config);
}

// ------------------------------------------------------------------- Diff

TEST(Diff, NoopRecompileDiffsEmpty) {
    core::Engine engine(parse_policy(kNatPolicy), fig2_topology());
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());

    ASSERT_TRUE(engine.recompile());
    const Diff d = checked_update(incremental, engine);
    EXPECT_TRUE(d.empty()) << to_text(d);
}

TEST(Diff, BandwidthDeltaTouchesQueuesOnly) {
    core::Engine engine(parse_policy(kNatPolicy), fig2_topology());
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());

    ASSERT_TRUE(engine.set_bandwidth("z", mb_per_sec(50)));
    const Diff d = checked_update(incremental, engine);
    EXPECT_EQ(d.rules_touched(), 0) << to_text(d);
    EXPECT_FALSE(d.queue_updates.empty());
    EXPECT_TRUE(d.queue_installs.empty());
    EXPECT_TRUE(d.queue_removes.empty());
    EXPECT_TRUE(d.retired_tags.empty());
}

TEST(Diff, AddThenRemoveStatementRetiresItsTags) {
    core::Engine engine(parse_policy(kNatPolicy), fig2_topology());
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());
    const std::size_t settled_live =
        incremental.naming().live_tags();

    ir::Statement extra;
    extra.id = "y";
    extra.predicate = parse_policy(R"(
[ y : eth.src = 00:00:00:00:00:02 and eth.dst = 00:00:00:00:00:01 -> .* ],
min(y, 10MB/s)
)").statements[0].predicate;
    extra.path = ir::path_any_star();
    ASSERT_TRUE(engine.add_statement(extra, mb_per_sec(10)));
    const Diff added = checked_update(incremental, engine);
    EXPECT_GT(added.rules_touched(), 0);
    EXPECT_FALSE(added.tag_installs.empty());
    EXPECT_TRUE(added.retired_tags.empty());

    ASSERT_TRUE(engine.remove_statement("y"));
    const Diff removed = checked_update(incremental, engine);
    EXPECT_FALSE(removed.tag_removes.empty());
    EXPECT_FALSE(removed.retired_tags.empty());
    // The round trip leaks no live tags, and a second add reuses the
    // retired tag instead of advancing the high-water mark.
    EXPECT_EQ(incremental.naming().live_tags(), settled_live);
    const int high_water = incremental.naming().high_water();
    ASSERT_TRUE(engine.add_statement(extra, mb_per_sec(10)));
    (void)checked_update(incremental, engine);
    EXPECT_EQ(incremental.naming().high_water(), high_water);
}

TEST(Diff, RevisitSegmentedPathStableAcrossRateChange) {
    // The fig2 nat path revisits s1's neighbourhood (h1 -> s1 -> m1 -> s2)
    // and is segmented around the middlebox; a pure rate change must not
    // move either segment's tag.
    core::Engine engine(parse_policy(kNatPolicy), fig2_topology());
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());

    ASSERT_TRUE(engine.set_bandwidth("z", mb_per_sec(25)));
    const Diff d = checked_update(incremental, engine);
    EXPECT_EQ(d.rules_touched(), 0) << to_text(d);
    EXPECT_TRUE(d.click_installs.empty());
    EXPECT_TRUE(d.click_removes.empty());
    EXPECT_TRUE(d.retired_tags.empty());
}

TEST(Diff, FailedLinkRebuildAppliesCleanly) {
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    ir::Policy policy;
    ir::Statement s;
    s.id = "g";
    s.predicate =
        addressing.pair_predicate(t.hosts()[0], t.hosts()[5]);
    s.path = ir::path_any_star();
    policy.statements.push_back(s);
    core::Engine engine(policy, t);
    ASSERT_TRUE(engine.current().feasible);
    ASSERT_TRUE(engine.set_bandwidth("g", mb_per_sec(10)));

    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());

    // Failing a core--aggregation link rebuilds the affected trees and
    // segments; the diff must still reconstruct the new table exactly.
    topo::LinkId core_link = topo::kNoLink;
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        if (t.node(t.link(l).a).kind != topo::Node_kind::host &&
            t.node(t.link(l).b).kind != topo::Node_kind::host) {
            core_link = l;
            break;
        }
    ASSERT_NE(core_link, topo::kNoLink);
    ASSERT_TRUE(engine.fail_link(core_link));
    const Diff failed = checked_update(incremental, engine);
    EXPECT_GT(failed.rules_touched(), 0);

    ASSERT_TRUE(engine.restore_link(core_link));
    (void)checked_update(incremental, engine);
}

TEST(Diff, TwoPhaseOracleHoldsAcrossEngineDeltas) {
    // The full testgen oracle: apply-equality, batch fingerprint, and the
    // four-phase netsim replay (no blackholes, no old/new path mixing).
    // Fat-tree redundancy keeps every delta below feasible.
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    ir::Policy policy;
    ir::Statement g;
    g.id = "g";
    g.predicate = addressing.pair_predicate(t.hosts()[0], t.hosts()[5]);
    g.path = ir::path_any_star();
    policy.statements.push_back(g);
    core::Engine engine(policy, t);
    ASSERT_TRUE(engine.current().feasible);
    ASSERT_TRUE(engine.set_bandwidth("g", mb_per_sec(10)));

    testgen::Diff_oracle oracle;
    const auto step = [&](bool check_transition) {
        const auto failure = oracle.step(engine.current(),
                                         engine.topology(), check_transition);
        EXPECT_FALSE(failure) << *failure;
    };
    step(true);
    ASSERT_TRUE(engine.set_bandwidth("g", mb_per_sec(40), mb_per_sec(80)));
    step(true);
    ir::Statement extra;
    extra.id = "y";
    extra.predicate =
        addressing.pair_predicate(t.hosts()[2], t.hosts()[9]);
    extra.path = ir::path_any_star();
    ASSERT_TRUE(engine.add_statement(extra, mb_per_sec(5)));
    step(true);
    ASSERT_TRUE(engine.remove_statement("y"));
    step(true);
    ASSERT_TRUE(engine.fail_link("c0", "a0_0"));
    step(false);  // link-state deltas reroute legitimately
    ASSERT_TRUE(engine.restore_link("c0", "a0_0"));
    step(false);
}

TEST(Diff, DedupSharesClassifyRulesAndParsesBack) {
    // Two statements whose predicates are structurally different but
    // BDD-equal (commuted conjunction) hash-cons to one predicate group:
    // codegen must emit their ingress classify rule once, count the
    // duplicate, and the shared table must still parse back and deliver
    // both statements' packets.
    constexpr const char* kEquivalentOverlap = R"(
[ z1 : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 -> .* ],
[ z2 : eth.dst = 00:00:00:00:00:02 and eth.src = 00:00:00:00:00:01 -> .* ]
)";
    core::Compile_options options;
    options.check_disjoint = false;  // the overlap is the point
    core::Engine engine(parse_policy(kEquivalentOverlap), fig2_topology(),
                        options);
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());
    EXPECT_GE(incremental.config().classify_rules_deduped, 1);

    // Deduplication leaves no textually identical rules behind.
    std::set<std::string> texts;
    for (const Flow_rule& rule : incremental.config().flow_rules)
        EXPECT_TRUE(texts.insert(to_text(rule)).second) << to_text(rule);

    // Parse-back: the shared rule still classifies and delivers both
    // statements (check_codegen matches rules up to BDD equivalence), and
    // the shared DAG agrees with per-statement evaluation.
    const auto codegen_failure =
        testgen::check_codegen(engine.current(), engine.topology());
    EXPECT_FALSE(codegen_failure) << *codegen_failure;
    const auto classifier_failure = testgen::check_classifier(engine.current());
    EXPECT_FALSE(classifier_failure) << *classifier_failure;

    // A no-op recompile diffs empty through the deduplicated tables.
    ASSERT_TRUE(engine.recompile());
    const Diff d = checked_update(incremental, engine);
    EXPECT_TRUE(d.empty()) << to_text(d);
}

// ------------------------------------------------------ structural identity

TEST(Diff, ApplyFindsRulesByStructureNotNode) {
    // Two compiles of one policy text give equal tables over distinct
    // predicate nodes; a diff computed against the first must apply to the
    // second, removing and updating its classifiers by structure.
    constexpr const char* kBoth = R"(
[ x : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 -> .* ;
  y : eth.src = 00:00:00:00:00:02 and eth.dst = 00:00:00:00:00:01 -> .* ]
)";
    constexpr const char* kOne = R"(
[ x : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 -> .* ]
)";
    const topo::Topology t = fig2_topology();
    const auto build = [&](const char* text) {
        const core::Compilation c = core::compile(parse_policy(text), t, {});
        EXPECT_TRUE(c.feasible) << c.diagnostic;
        return generate(c, t);
    };
    const Configuration original = build(kBoth);
    const Configuration rebuilt = build(kBoth);
    ASSERT_EQ(original.flow_rules.size(), rebuilt.flow_rules.size());
    int distinct_nodes = 0;
    for (std::size_t i = 0; i < original.flow_rules.size(); ++i) {
        const Flow_rule& a = original.flow_rules[i];
        const Flow_rule& b = rebuilt.flow_rules[i];
        EXPECT_TRUE(equal(a, b)) << to_text(a);
        if (a.match && a.match != b.match) ++distinct_nodes;
    }
    ASSERT_GT(distinct_nodes, 0);

    const Configuration next = build(kOne);
    const Diff d = diff(original, next);
    ASSERT_FALSE(d.classifier_removes.empty()) << to_text(d);
    EXPECT_TRUE(equal(apply(rebuilt, d), next));
    EXPECT_TRUE(equal(apply(build(kOne), diff(next, original)), rebuilt));
}

TEST(Diff, RulesDifferingOnlyInPredicateNeverConflate) {
    Flow_rule http;
    http.device = "s1";
    http.priority = kClassifyPriority;
    http.match = parser::parse_predicate("tcp.dst = 80");
    http.set_tag = 7;
    http.out_port = "s2";
    Flow_rule ssh = http;
    ssh.match = parser::parse_predicate("tcp.dst = 22");
    Flow_rule ssh_reparsed = ssh;
    ssh_reparsed.match = parser::parse_predicate("tcp.dst = 22");
    Flow_rule telnet = http;
    telnet.match = parser::parse_predicate("tcp.dst = 23");
    EXPECT_FALSE(equal(http, ssh));
    EXPECT_TRUE(equal(ssh, ssh_reparsed));

    Configuration config;
    config.flow_rules = {http, ssh};

    // Updates and removals pick the structurally equal rule, wherever it
    // sits, and leave its predicate-only sibling alone.
    Flow_rule ssh_moved = ssh;
    ssh_moved.out_port = "m1";
    Diff update;
    update.classifier_updates = {Rule_update{ssh_reparsed, ssh_moved}};
    Configuration updated = config;
    apply_commit(updated, update);
    ASSERT_EQ(updated.flow_rules.size(), 2u);
    EXPECT_TRUE(equal(updated.flow_rules[0], http));
    EXPECT_TRUE(equal(updated.flow_rules[1], ssh_moved));

    Diff remove;
    remove.classifier_removes = {ssh_reparsed};
    Configuration removed = config;
    apply_commit(removed, remove);
    ASSERT_EQ(removed.flow_rules.size(), 1u);
    EXPECT_TRUE(equal(removed.flow_rules[0], http));

    Diff absent;
    absent.classifier_removes = {telnet};
    Configuration untouched = config;
    EXPECT_THROW(apply_commit(untouched, absent), Error);

    // A predicate-only change is a remove plus an install, never a cancel.
    Configuration swapped;
    swapped.flow_rules = {http, telnet};
    const Diff d = diff(config, swapped);
    ASSERT_EQ(d.classifier_installs.size(), 1u) << to_text(d);
    ASSERT_EQ(d.classifier_removes.size(), 1u) << to_text(d);
    EXPECT_TRUE(d.classifier_updates.empty());
    EXPECT_TRUE(equal(d.classifier_installs[0], telnet));
    EXPECT_TRUE(equal(d.classifier_removes[0], ssh));
}

TEST(Diff, TenantAddRemoveCycleAppliesExactly) {
    // 12 -> 14 -> 12 tenants on the k=4 fat tree. Each structural delta
    // rewrites the catch-all statement, so every diff swaps its
    // classifiers while the other rules keep their predicate nodes.
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    const std::vector<topo::NodeId> hosts = t.hosts();
    ASSERT_EQ(hosts.size(), 16u);
    const auto tenant = [&](int n) {
        ir::Statement s;
        s.id = "t" + std::to_string(n);
        s.predicate = ir::pred_and(
            addressing.pair_predicate(
                hosts[static_cast<std::size_t>(n % 16)],
                hosts[static_cast<std::size_t>((n * 5 + 3) % 16)]),
            ir::pred_test("tcp.dst", static_cast<std::uint64_t>(8000 + n)));
        s.path = ir::path_any_star();
        return s;
    };
    ir::Policy policy;
    for (int n = 0; n < 12; ++n) policy.statements.push_back(tenant(n));
    core::Engine engine(policy, t);
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());
    const std::string start =
        keyed_text(incremental.config(), incremental.naming());

    for (int n = 12; n < 14; ++n) {
        ASSERT_TRUE(engine.add_statement(
            tenant(n), n == 12 ? mb_per_sec(10) : Bandwidth{}));
        const Diff d = checked_update(incremental, engine);
        EXPECT_FALSE(d.classifier_removes.empty()) << to_text(d);
        EXPECT_FALSE(d.classifier_installs.empty()) << to_text(d);
    }
    for (int n = 12; n < 14; ++n) {
        ASSERT_TRUE(engine.remove_statement("t" + std::to_string(n)));
        const Diff d = checked_update(incremental, engine);
        EXPECT_FALSE(d.classifier_removes.empty()) << to_text(d);
    }
    EXPECT_EQ(keyed_text(incremental.config(), incremental.naming()), start);
}

TEST(Diff, OneSpaceAcrossGenerationsAndCopiesEvolveAlike) {
    // 300 mixed deltas through one Incremental, whose generations share
    // one predicate space: every config stays batch-equal modulo names
    // (checked_update), and the space keeps to its vacuum rule. A copy
    // taken halfway is left alone while the original runs on — its space
    // must not move — then replays the same generations and must produce
    // the same diffs, node counts and vacuums.
    const topo::Topology t = topo::fat_tree(4);
    test_support::Mixed_deltas stream(t, {{"c0", "a0_0"}, {"c2", "a1_1"}});
    Incremental incremental;
    const pred::Analyzer& space = incremental.analyzer();
    std::optional<Incremental> copy;
    std::size_t copied_nodes = 0;
    struct Generation {
        core::Compilation compilation;
        topo::Topology topo;
        std::string diff;
        std::size_t nodes;
    };
    std::vector<Generation> after_copy;
    for (int step = 0; step <= 300; ++step) {
        if (step > 0) (void)stream.next();
        const std::size_t nodes = space.manager().node_count();
        const std::size_t limit = space.generation_vacuum_limit();
        const long long vacuums = space.vacuum_count();
        const Diff d = checked_update(incremental, stream.engine());
        EXPECT_EQ(space.vacuum_count() > vacuums, nodes > limit)
            << "step " << step << ": " << nodes << " nodes, limit " << limit;
        if (copy)
            after_copy.push_back({stream.engine().current(),
                                  stream.engine().topology(), to_text(d),
                                  space.manager().node_count()});
        if (step == 150) {
            copy = incremental;
            copied_nodes = space.manager().node_count();
        }
    }
    EXPECT_GT(space.vacuum_count(), 0);

    ASSERT_TRUE(copy);
    EXPECT_EQ(copy->analyzer().manager().node_count(), copied_nodes);
    for (const Generation& g : after_copy) {
        EXPECT_EQ(to_text(copy->update(g.compilation, g.topo)), g.diff);
        EXPECT_EQ(copy->analyzer().manager().node_count(), g.nodes);
    }
    EXPECT_EQ(copy->analyzer().vacuum_count(), space.vacuum_count());
    EXPECT_EQ(keyed_text(copy->config(), copy->naming()),
              keyed_text(incremental.config(), incremental.naming()));
}

// The text-keyed flow-rule pairing diff() replaced, kept as its
// reference: identical rules cancel through an ordered map on the full
// rendered key, and the leftovers pair through an ordered map on the
// rendered identity key. Every other part of the diff is diff()'s own.
Diff reference_diff(const Configuration& old_config,
                    const Configuration& new_config) {
    Diff out = diff(old_config, new_config);
    for (auto* rules : {&out.tag_installs, &out.classifier_installs,
                        &out.classifier_removes, &out.tag_removes})
        rules->clear();
    out.tag_updates.clear();
    out.classifier_updates.clear();

    std::map<const ir::Pred*, std::string> texts;
    const auto text = [&](const ir::PredPtr& p) -> std::string_view {
        if (!p) return {};
        const auto [it, inserted] = texts.try_emplace(p.get());
        if (inserted) it->second = ir::to_string(p);
        return it->second;
    };
    const auto full_key = [&](const Flow_rule& r) {
        return std::tuple(std::string_view(r.device), r.priority,
                          r.match_tag.has_value(), r.match_tag.value_or(0),
                          text(r.match), r.match_dst_mac.has_value(),
                          r.match_dst_mac.value_or(0), r.drop,
                          r.set_tag.has_value(), r.set_tag.value_or(0),
                          r.strip_tag, std::string_view(r.out_port),
                          r.queue.has_value(), r.queue.value_or(0));
    };
    const auto identity_key = [&](const Flow_rule& r) {
        return std::tuple(r.match_tag.has_value(), std::string_view(r.device),
                          r.priority, r.match_tag.value_or(0), text(r.match),
                          r.match_dst_mac.has_value(),
                          r.match_dst_mac.value_or(0));
    };
    std::map<decltype(full_key(Flow_rule{})), std::vector<const Flow_rule*>>
        pool;
    for (const Flow_rule& r : old_config.flow_rules)
        pool[full_key(r)].push_back(&r);
    std::vector<const Flow_rule*> old_left, new_left;
    for (const Flow_rule& r : new_config.flow_rules) {
        auto it = pool.find(full_key(r));
        if (it != pool.end() && !it->second.empty())
            it->second.pop_back();
        else
            new_left.push_back(&r);
    }
    for (const auto& [k, left] : pool)
        old_left.insert(old_left.end(), left.begin(), left.end());

    std::map<decltype(identity_key(Flow_rule{})),
             std::pair<std::vector<const Flow_rule*>,
                       std::vector<const Flow_rule*>>>
        by_identity;
    for (const Flow_rule* r : old_left)
        by_identity[identity_key(*r)].first.push_back(r);
    for (const Flow_rule* r : new_left)
        by_identity[identity_key(*r)].second.push_back(r);
    for (const auto& [key, sides] : by_identity) {
        const auto& [olds, news] = sides;
        const bool tagged = std::get<0>(key);
        const std::size_t paired = std::min(olds.size(), news.size());
        for (std::size_t i = 0; i < paired; ++i)
            (tagged ? out.tag_updates : out.classifier_updates)
                .push_back(Rule_update{*olds[i], *news[i]});
        for (std::size_t i = paired; i < news.size(); ++i)
            (tagged ? out.tag_installs : out.classifier_installs)
                .push_back(*news[i]);
        for (std::size_t i = paired; i < olds.size(); ++i)
            (tagged ? out.tag_removes : out.classifier_removes)
                .push_back(*olds[i]);
    }
    return out;
}

// The same predicate tree in fresh nodes.
ir::PredPtr clone(const ir::PredPtr& p) {
    if (!p) return p;
    return std::make_shared<const ir::Pred>(ir::Pred{
        p->kind, p->field, p->value, p->needle, clone(p->lhs), clone(p->rhs)});
}

TEST(Diff, HashKeyedDiffMatchesTheTextKeyedReference) {
    // Mixed deltas on two topologies, each pair of consecutive
    // configurations diffed as emitted and as variants that repeat
    // identical rules on both sides in different multiplicities, hold
    // structurally equal predicates in different nodes, and add rules that
    // share an identity with a different action: to_text must match the
    // reference byte for byte.
    struct Stream {
        topo::Topology topo;
        std::vector<std::pair<std::string, std::string>> links;
        int deltas;
    };
    const Stream streams[] = {
        {topo::fat_tree(4), {{"c0", "a0_0"}, {"c2", "a1_1"}}, 24},
        {topo::campus(), {{"z0", "bbra"}, {"z3", "bbrb"}}, 8}};
    long long repeated = 0;
    for (const Stream& stream_spec : streams) {
        test_support::Mixed_deltas stream(stream_spec.topo, stream_spec.links);
        Incremental incremental;
        Configuration previous;
        for (int step = 0; step <= stream_spec.deltas; ++step) {
            if (step > 0) (void)stream.next();
            (void)incremental.update(stream.engine().current(),
                                     stream.engine().topology());
            const Configuration& next = incremental.config();
            EXPECT_EQ(to_text(diff(previous, next)),
                      to_text(reference_diff(previous, next)))
                << "step " << step;

            Configuration old_variant = previous;
            for (std::size_t i = 0; i < previous.flow_rules.size(); i += 7)
                old_variant.flow_rules.push_back(previous.flow_rules[i]);
            Configuration new_variant = next;
            for (std::size_t i = 0; i < next.flow_rules.size(); ++i) {
                Flow_rule& r = new_variant.flow_rules[i];
                if (i % 3 == 0) r.match = clone(r.match);
                if (i % 5 == 0) new_variant.flow_rules.push_back(r);
                if (i % 14 == 0) {
                    Flow_rule copy = next.flow_rules[i];
                    copy.match = clone(copy.match);
                    new_variant.flow_rules.push_back(copy);
                    new_variant.flow_rules.push_back(copy);
                }
                if (i % 13 == 0) {
                    Flow_rule moved = next.flow_rules[i];
                    moved.out_port += "-moved";
                    new_variant.flow_rules.push_back(moved);
                }
            }
            for (const auto& [a, b] :
                 {std::pair(&old_variant, &new_variant),
                  std::pair(&new_variant, &old_variant)}) {
                const Diff d = diff(*a, *b);
                EXPECT_EQ(to_text(d), to_text(reference_diff(*a, *b)))
                    << "step " << step;
                repeated += static_cast<long long>(d.rules_touched());
            }
            previous = next;
        }
    }
    EXPECT_GT(repeated, 0);
}

TEST(Naming, LongChurnKeepsTagHighWaterBounded) {
    // Three hundred add/remove cycles of a guaranteed statement: with the
    // free-list recycling tags, the high-water mark settles after the
    // first cycle instead of climbing toward kMaxVlanTag.
    const topo::Topology t = fig2_topology();
    const core::Addressing addressing(t);
    core::Engine engine(parse_policy(kNatPolicy), t);
    ASSERT_TRUE(engine.current().feasible);
    Incremental incremental;
    (void)incremental.update(engine.current(), engine.topology());

    ir::Statement churn;
    churn.id = "c";
    churn.predicate =
        addressing.pair_predicate(*t.find("h2"), *t.find("h1"));
    churn.path = ir::path_any_star();
    int settled = 0;
    for (int cycle = 0; cycle < 300; ++cycle) {
        ASSERT_TRUE(engine.add_statement(churn, mb_per_sec(5)));
        (void)incremental.update(engine.current(), engine.topology());
        ASSERT_TRUE(engine.remove_statement("c"));
        (void)incremental.update(engine.current(), engine.topology());
        if (cycle == 0) settled = incremental.naming().high_water();
    }
    EXPECT_EQ(incremental.naming().high_water(), settled);
    EXPECT_LT(settled, 64);
}

// ----------------------------------------------------------- Rule_network

topo::Topology line_topology() {
    return topo::parse_topology(R"(
host h1
host h2
switch s1
switch s2
link h1 s1 1Gbps
link s1 s2 1Gbps
link s2 h2 1Gbps
)");
}

netsim::Table_rule classify_rule(int traffic_class, int tag) {
    netsim::Table_rule r;
    r.priority = kClassifyPriority;
    r.match_class = traffic_class;
    r.set_tag = tag;
    r.out_port = "s2";
    return r;
}

netsim::Table_rule deliver_rule(int tag, std::uint64_t dst) {
    netsim::Table_rule r;
    r.priority = kDeliveryPriority;
    r.match_class = netsim::kMatchAny;
    r.match_tag = tag;
    r.match_dst = dst;
    r.strip_tag = true;
    r.out_port = "h2";
    return r;
}

TEST(RuleNetwork, MisorderedUpdateBlackholesCorrectOrderDoesNot) {
    const topo::Topology t = line_topology();
    const netsim::Packet packet{7, 0x2, -1};

    // Old table: classify class 7 onto tag 2, deliver tag 2 at s2.
    netsim::Rule_network old_net(t);
    old_net.add_rule("s1", classify_rule(7, 2));
    old_net.add_rule("s2", deliver_rule(2, 0x2));
    EXPECT_TRUE(old_net.route("s1", packet).delivered);

    // Correct two-phase order: prepare (tag-3 delivery installed, old
    // classifier still live) then commit (classifier flipped, both
    // delivery rules live). Every intermediate table delivers.
    netsim::Rule_network prepared(t);
    prepared.add_rule("s1", classify_rule(7, 2));
    prepared.add_rule("s2", deliver_rule(2, 0x2));
    prepared.add_rule("s2", deliver_rule(3, 0x2));
    EXPECT_TRUE(prepared.route("s1", packet).delivered);

    netsim::Rule_network committed(t);
    committed.add_rule("s1", classify_rule(7, 3));
    committed.add_rule("s2", deliver_rule(2, 0x2));
    committed.add_rule("s2", deliver_rule(3, 0x2));
    EXPECT_TRUE(committed.route("s1", packet).delivered);

    // Misordered: the classifier flips before the tag-3 rules exist. A
    // packet classified in this window carries a tag no rule matches.
    netsim::Rule_network misordered(t);
    misordered.add_rule("s1", classify_rule(7, 3));
    misordered.add_rule("s2", deliver_rule(2, 0x2));
    const netsim::Table_trace trace = misordered.route("s1", packet);
    EXPECT_FALSE(trace.delivered);
    EXPECT_NE(trace.verdict.find("blackhole"), std::string::npos)
        << trace.verdict;
}

TEST(RuleNetwork, ReportsAmbiguityMisdeliveryAndUnstrippedTags) {
    const topo::Topology t = line_topology();

    netsim::Rule_network ambiguous(t);
    ambiguous.add_rule("s1", classify_rule(7, 2));
    netsim::Table_rule rival = classify_rule(7, 3);
    ambiguous.add_rule("s1", rival);
    EXPECT_NE(ambiguous.route("s1", {7, 0x2, -1})
                  .verdict.find("ambiguous"),
              std::string::npos);

    netsim::Rule_network misdelivery(t);
    misdelivery.set_host_mac("h2", 0x2);
    netsim::Table_rule wrong = classify_rule(7, -1);
    wrong.set_tag = -1;
    misdelivery.add_rule("s1", wrong);
    misdelivery.add_rule("s2", [] {
        netsim::Table_rule r;
        r.priority = kClassifyPriority;
        r.out_port = "h2";
        return r;
    }());
    EXPECT_NE(misdelivery.route("s1", {7, 0x9, -1})
                  .verdict.find("misdelivered"),
              std::string::npos);

    netsim::Rule_network unstripped(t);
    unstripped.add_rule("s1", classify_rule(7, 2));
    unstripped.add_rule("s2", [] {
        netsim::Table_rule r;
        r.priority = kDeliveryPriority;
        r.match_tag = 2;
        r.out_port = "h2";  // forgets strip_tag
        return r;
    }());
    EXPECT_NE(unstripped.route("s1", {7, 0x2, -1})
                  .verdict.find("not stripped"),
              std::string::npos);
}

TEST(RuleNetwork, ReportsFailedLinksAndForwardingLoops) {
    topo::Topology t = line_topology();

    netsim::Rule_network looping(t);
    netsim::Table_rule to_s2 = classify_rule(netsim::kMatchAny, -1);
    to_s2.set_tag = -1;
    looping.add_rule("s1", to_s2);
    netsim::Table_rule back;
    back.priority = kClassifyPriority;
    back.out_port = "s1";
    looping.add_rule("s2", back);
    EXPECT_NE(looping.route("s1", {7, 0x2, -1}).verdict.find("loop"),
              std::string::npos);

    const auto link =
        t.link_between(*t.find("s1"), *t.find("s2"));
    ASSERT_TRUE(link.has_value());
    t.set_link_state(*link, false);
    netsim::Rule_network failed(t);
    failed.add_rule("s1", classify_rule(7, 2));
    EXPECT_NE(failed.route("s1", {7, 0x2, -1}).verdict.find("failed"),
              std::string::npos);
}

}  // namespace
}  // namespace merlin::codegen
