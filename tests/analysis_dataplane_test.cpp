// The symbolic dataplane checker: a freshly generated configuration proves
// out, and each historically shipped table bug — re-injected here as a
// table mutation — is caught statically, without replaying a single packet.
#include "analysis/dataplane.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/diff.h"
#include "core/compiler.h"
#include "mixed_deltas.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "topo/topology.h"

namespace merlin::analysis {
namespace {

using merlin::parser::parse_policy;

// Two switch paths between the hosts (direct, and the s3 detour the update
// tests reroute onto), plus a middlebox corner for best-effort trees.
topo::Topology diamond_topology() {
    return topo::parse_topology(R"(
host h1
host h2
switch s1
switch s2
switch s3
middlebox m1
link h1 s1 1Gbps
link s1 s2 1Gbps
link s2 h2 1Gbps
link s1 s3 1Gbps
link s3 s2 1Gbps
link s1 m1 1Gbps
link m1 s2 1Gbps
function dpi m1
)");
}

constexpr const char* kGuaranteed = R"(
[ g : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 -> .* ],
min(g, 10MB/s)
)";

struct Fixture {
    topo::Topology topo = diamond_topology();
    core::Compilation compilation;
    codegen::Naming naming;
    codegen::Configuration config;

    explicit Fixture(const char* policy_text = kGuaranteed) {
        compilation = core::compile(parse_policy(policy_text), topo, {});
        EXPECT_TRUE(compilation.feasible) << compilation.diagnostic;
        config = codegen::generate(compilation, topo, naming);
    }

    [[nodiscard]] Report check() const {
        return check_dataplane(compilation, config, topo);
    }
};

const Diagnostic* find(const Report& report, const std::string& check) {
    for (const Diagnostic& d : report)
        if (d.check == check) return &d;
    return nullptr;
}

// First rule satisfying `pick`; fails the test when absent.
codegen::Flow_rule* find_rule(codegen::Configuration& config,
                              bool (*pick)(const codegen::Flow_rule&)) {
    for (codegen::Flow_rule& r : config.flow_rules)
        if (pick(r)) return &r;
    return nullptr;
}

TEST(AnalysisDataplane, FreshConfigurationProvesOut) {
    const Fixture fx;
    const Report report = fx.check();
    EXPECT_TRUE(report.empty()) << to_text(report);
}

TEST(AnalysisDataplane, BestEffortConfigurationProvesOut) {
    const Fixture fx(R"(
[ b : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
      and tcp.dst = 80 -> .* ],
max(b, 50MB/s)
)");
    const Report report = fx.check();
    EXPECT_TRUE(report.empty()) << to_text(report);
}

// A pinned statement whose predicate matches no packet carries no traffic,
// so class selection skips it: with its destination's access link failed,
// only its satisfiable twin is reported.
TEST(AnalysisDataplane, UnsatisfiablePinnedStatementIsNotAClass) {
    const auto subjects_after_h1_link_fails = [](const char* u_predicate) {
        Fixture fx((std::string(R"(
[ g : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 -> .* ;
  u : eth.src = 00:00:00:00:00:02 and eth.dst = 00:00:00:00:00:01 and )") +
                    u_predicate + R"( -> .* ],
min(g, 10MB/s)
)")
                       .c_str());
        EXPECT_FALSE(has_errors(fx.check())) << to_text(fx.check());
        const auto link = fx.topo.link_between(fx.topo.require("s1"),
                                               fx.topo.require("h1"));
        EXPECT_TRUE(link.has_value());
        fx.topo.set_link_state(*link, false);
        std::set<std::string> subjects;
        for (const Diagnostic& d : fx.check())
            if (d.severity == Severity::error) subjects.insert(d.subject);
        return subjects;
    };
    EXPECT_EQ(subjects_after_h1_link_fails("tcp.dst = 80"),
              (std::set<std::string>{"u"}));
    EXPECT_TRUE(
        subjects_after_h1_link_fails("tcp.dst = 80 and tcp.dst = 22").empty());
}

// PR-5 regression, re-injected: a forward rule emitted with the device
// itself as its out port. There is no self link, so the traffic it carries
// can never leave the switch.
TEST(AnalysisDataplane, SelfForwardIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return !r.out_port.empty() && !r.drop;
    });
    ASSERT_NE(rule, nullptr);
    rule->out_port = rule->device;
    const Report report = fx.check();
    EXPECT_TRUE(has_errors(report)) << to_text(report);
    EXPECT_NE(find(report, "failed-link"), nullptr) << to_text(report);
}

// PR-5 regression, re-injected: the ingress classifier tags with a stale
// tag no downstream rule matches — every classified packet blackholes one
// hop later.
TEST(AnalysisDataplane, StaleClassifierTagIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return r.priority == codegen::kClassifyPriority && r.set_tag;
    });
    ASSERT_NE(rule, nullptr);
    rule->set_tag = 4000;  // never allocated in this configuration
    const Report report = fx.check();
    const Diagnostic* d = find(report, "blackhole");
    ASSERT_NE(d, nullptr) << to_text(report);
    EXPECT_EQ(d->subject, "g");
    EXPECT_FALSE(d->witness.empty());
}

// PR-5 regression, re-injected: a path revisiting a switch reused its tag,
// leaving two equal-priority rules for the same tag that forward to
// different ports — the switch's behaviour is undefined.
TEST(AnalysisDataplane, SameTagRevisitAmbiguityIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return r.match_tag.has_value() && !r.out_port.empty();
    });
    ASSERT_NE(rule, nullptr);
    codegen::Flow_rule duplicate = *rule;
    duplicate.out_port = duplicate.out_port == "s1" ? "s2" : "s1";
    fx.config.flow_rules.push_back(duplicate);
    const Report report = fx.check();
    EXPECT_NE(find(report, "ambiguous-rules"), nullptr) << to_text(report);
}

// PR-5 regression, re-injected: the tables route over a link that has since
// failed (here the destination's access link).
TEST(AnalysisDataplane, FailedAccessLinkIsCaught) {
    Fixture fx;
    const auto link = fx.topo.link_between(fx.topo.require("s2"),
                                           fx.topo.require("h2"));
    ASSERT_TRUE(link.has_value());
    fx.topo.set_link_state(*link, false);
    const Report report = fx.check();
    const Diagnostic* d = find(report, "failed-link");
    ASSERT_NE(d, nullptr) << to_text(report);
    EXPECT_NE(d->message.find("failed"), std::string::npos);
}

// A delivery rule that hands traffic to the wrong host, and one that
// forgets to strip the tag: both violations of the delivery contract.
TEST(AnalysisDataplane, MisdeliveryIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return r.strip_tag && r.out_port == "h2";
    });
    ASSERT_NE(rule, nullptr);
    rule->out_port = "h1";
    // s1 (the detour to the wrong edge) has no rule for the tag, or the
    // wrong host receives it — either way the class no longer proves.
    EXPECT_TRUE(has_errors(fx.check()));
}

TEST(AnalysisDataplane, TagLeakIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return r.strip_tag && r.out_port == "h2";
    });
    ASSERT_NE(rule, nullptr);
    rule->strip_tag = false;
    const Report report = fx.check();
    EXPECT_NE(find(report, "tag-leak"), nullptr) << to_text(report);
}

// A forward rule bent back toward the ingress: the packet bounces between
// the two switches on the same tag forever.
TEST(AnalysisDataplane, ForwardingLoopIsCaught) {
    Fixture fx;
    codegen::Flow_rule* rule = find_rule(fx.config, [](const auto& r) {
        return r.strip_tag && r.out_port == "h2";
    });
    ASSERT_NE(rule, nullptr);
    rule->strip_tag = false;
    rule->out_port = "s1";
    const Report report = fx.check();
    EXPECT_NE(find(report, "forwarding-loop"), nullptr) << to_text(report);
}

// ------------------------------------------------------- static table checks

codegen::Flow_rule header_rule(const std::string& device, int priority,
                               const char* match, const std::string& out_port) {
    codegen::Flow_rule r;
    r.device = device;
    r.priority = priority;
    r.match = parser::parse_predicate(match);
    r.out_port = out_port;
    r.drop = out_port.empty();
    return r;
}

// Neither drop rule alone covers the classifier below them; only their
// union does. The lowest rule, which the rules above cover only in part,
// stays quiet.
TEST(AnalysisDataplane, RuleShadowedOnlyByUnionIsReported) {
    codegen::Configuration config;
    config.flow_rules = {
        header_rule("s1", codegen::kDropPriority,
                    "tcp.dst = 80 and payload = \"GET\"", ""),
        header_rule("s1", codegen::kDropPriority,
                    "tcp.dst = 80 and !(payload = \"GET\")", ""),
        header_rule("s1", codegen::kClassifyPriority,
                    "tcp.dst = 80 and ip.src = 10.0.0.7", "s2"),
        header_rule("s1", codegen::kClassifyPriority - 1,
                    "tcp.dst = 80 or tcp.dst = 443", "s3"),
    };
    const Report report = check_tables(config, diamond_topology());
    ASSERT_EQ(report.size(), 1u) << to_text(report);
    EXPECT_EQ(report[0].check, "shadowed-rule");
    EXPECT_EQ(report[0].severity, Severity::warning);
    EXPECT_NE(report[0].message.find("ip.src = 10.0.0.7"), std::string::npos);
    EXPECT_EQ(report[0].witness, "ip.src=10.0.0.7 tcp.dst=80");
}

// Two equal-priority rules with different actions that overlap on part of
// their traffic: one finding per pair, witnessed inside the overlap. A
// disjoint pair in the same band is not ambiguous.
TEST(AnalysisDataplane, PartiallyOverlappingEqualPriorityRulesAreAmbiguous) {
    codegen::Configuration config;
    config.flow_rules = {
        header_rule("s1", codegen::kClassifyPriority,
                    "ip.src = 10.0.0.1 or payload = \"POST\"", "s2"),
        header_rule("s1", codegen::kClassifyPriority,
                    "tcp.dst = 80 and !(ip.src = 10.0.0.2)", "s3"),
        header_rule("s1", codegen::kClassifyPriority,
                    "ip.src = 10.0.0.2 and tcp.dst = 80 and "
                    "!(payload = \"POST\")",
                    "m1"),
    };
    const Report report = check_tables(config, diamond_topology());
    ASSERT_EQ(report.size(), 1u) << to_text(report);
    EXPECT_EQ(report[0].check, "ambiguous-rules");
    EXPECT_EQ(report[0].severity, Severity::error);
    EXPECT_NE(report[0].message.find("output:s2"), std::string::npos);
    EXPECT_NE(report[0].message.find("output:s3"), std::string::npos);
    EXPECT_EQ(report[0].witness,
              "ip.src=128.0.0.0 tcp.dst=80 payload=\"POST\"");
}

// ------------------------------------------------------------------ updates

constexpr const char* kRerouted = R"(
[ g : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
      -> .* s3 .* ],
min(g, 10MB/s)
)";

TEST(AnalysisDataplane, ProperTwoPhaseUpdateProvesOut) {
    const topo::Topology topo = diamond_topology();
    const core::Compilation old_comp =
        core::compile(parse_policy(kGuaranteed), topo, {});
    const core::Compilation new_comp =
        core::compile(parse_policy(kRerouted), topo, {});
    ASSERT_TRUE(old_comp.feasible && new_comp.feasible);

    codegen::Incremental incremental;
    (void)incremental.update(old_comp, topo);
    const codegen::Configuration old_config = incremental.config();
    const codegen::Diff diff = incremental.update(new_comp, topo);
    const Report report = check_update(old_comp, new_comp, old_config, diff,
                                       incremental.config(), topo);
    EXPECT_TRUE(report.empty()) << to_text(report);
}

// PR-6 regression, re-injected: applying the commit phase before prepare
// flips the classifier to tags whose forwarding rules are not yet
// installed — the mid-update table blackholes the class.
TEST(AnalysisDataplane, MisorderedUpdateIsCaught) {
    const topo::Topology topo = diamond_topology();
    const core::Compilation old_comp =
        core::compile(parse_policy(kGuaranteed), topo, {});
    const core::Compilation new_comp =
        core::compile(parse_policy(kRerouted), topo, {});
    ASSERT_TRUE(old_comp.feasible && new_comp.feasible);

    codegen::Incremental incremental;
    (void)incremental.update(old_comp, topo);
    codegen::Configuration misordered = incremental.config();
    const codegen::Diff diff = incremental.update(new_comp, topo);
    codegen::apply_commit(misordered, diff);  // commit without prepare
    const Report report = check_dataplane(new_comp, misordered, topo);
    EXPECT_TRUE(has_errors(report));
    EXPECT_NE(find(report, "blackhole"), nullptr) << to_text(report);
}

TEST(AnalysisDataplane, UpdateCheckerStepsThroughGenerations) {
    const topo::Topology topo = diamond_topology();
    Update_checker checker;
    const core::Compilation old_comp =
        core::compile(parse_policy(kGuaranteed), topo, {});
    const core::Compilation new_comp =
        core::compile(parse_policy(kRerouted), topo, {});
    ASSERT_TRUE(old_comp.feasible && new_comp.feasible);
    EXPECT_TRUE(checker.step(old_comp, topo).empty());
    const Report report = checker.step(new_comp, topo);
    EXPECT_TRUE(report.empty()) << to_text(report);
    EXPECT_FALSE(checker.config().flow_rules.empty());
}

// ------------------------------------------- one space across generations

// Drives `deltas` mixed deltas through one Update_checker, whose
// generations share one predicate space. Every step's report must equal
// the per-call check_update / check_dataplane report on the same inputs,
// and the space must keep to its vacuum rule. Every other fail/restore pair
// is checked as a transition anyway, so the compared reports carry
// failed-link findings and their witnesses rather than all being empty.
// (codegen_diff_test pins the configs to a fresh batch generate.)
void expect_one_space_matches_fresh(
    const topo::Topology& topo,
    std::vector<std::pair<std::string, std::string>> links, int deltas) {
    test_support::Mixed_deltas stream(topo, std::move(links));
    Update_checker checker;
    const pred::Analyzer& space = checker.incremental().analyzer();
    core::Compilation previous;
    codegen::Configuration previous_config;
    int with_findings = 0;
    for (int step = 0; step <= deltas; ++step) {
        const bool link_delta = step > 0 && stream.next();
        const bool transition = step > 0 && (!link_delta || step % 12 < 6);
        const core::Compilation& comp = stream.engine().current();
        const topo::Topology& now = stream.engine().topology();

        const std::size_t nodes = space.manager().node_count();
        const std::size_t limit = space.generation_vacuum_limit();
        const long long vacuums = space.vacuum_count();
        const Report shared = checker.step(comp, now, transition);
        EXPECT_EQ(space.vacuum_count() > vacuums, nodes > limit)
            << "step " << step << ": " << nodes << " nodes, limit " << limit;

        const codegen::Configuration& config = checker.config();
        const Report fresh =
            transition ? check_update(previous, comp, previous_config,
                                      codegen::diff(previous_config, config),
                                      config, now)
                       : check_dataplane(comp, config, now);
        EXPECT_EQ(to_text(shared), to_text(fresh)) << "step " << step;
        if (!shared.empty()) ++with_findings;
        previous = comp;
        previous_config = config;
    }
    EXPECT_GT(space.vacuum_count(), 0);
    EXPECT_GT(with_findings, 0);
}

TEST(AnalysisDataplane, OneSpaceAcrossGenerationsMatchesFreshSpacesFatTree) {
    expect_one_space_matches_fresh(topo::fat_tree(4),
                                   {{"c0", "a0_0"}, {"c2", "a1_1"}}, 300);
}

TEST(AnalysisDataplane, OneSpaceAcrossGenerationsMatchesFreshSpacesCampus) {
    expect_one_space_matches_fresh(topo::campus(),
                                   {{"z0", "bbra"}, {"z3", "bbrb"}}, 150);
}

// ----------------------------------------------------------- the proof cache

// g and d share a host pair; d's best-effort tree runs through the dpi
// middlebox m1, whose Click forward retags it.
constexpr const char* kCachePolicy = R"(
[ g : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
      and tcp.dst = 22 -> .* ;
  d : eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02
      and tcp.dst = 80 -> .* dpi .* ;
  b : eth.src = 00:00:00:00:00:02 and eth.dst = 00:00:00:00:00:01 -> .* ],
min(g, 10MB/s)
)";

// A checker whose cache holds a clean proof of every class: two steps over
// the same compilation, the second reusing all three.
struct Seeded {
    topo::Topology topo = diamond_topology();
    core::Compilation comp;
    Update_checker checker;

    Seeded() {
        comp = core::compile(parse_policy(kCachePolicy), topo, {});
        EXPECT_TRUE(comp.feasible) << comp.diagnostic;
        EXPECT_TRUE(checker.step(comp, topo).empty());
        EXPECT_TRUE(checker.step(comp, topo).empty());
        EXPECT_EQ(checker.last_counts().classes_reused, 3);
    }

    // The (node, tag) states class `id`'s cached proof visited.
    [[nodiscard]] std::vector<std::pair<topo::NodeId, int>> states(
        const std::string& id) const {
        for (const auto& reused : checker.reused_classes())
            if (reused.id == id) return reused.states;
        ADD_FAILURE() << "class " << id << " is not cached";
        return {};
    }

    // Proves `tables` as the next generation with a copy of the seeded
    // cache, then with none; the cached report must equal the empty-cache
    // one and carry errors. Returns the copy's counts.
    Proof_counts expect_cache_matches_fresh(
        const codegen::Configuration& tables,
        const topo::Topology& now) const {
        Update_checker copy = checker;
        const codegen::Diff diff = codegen::diff(checker.config(), tables);
        const Report cached = copy.prove(
            comp, std::make_shared<const codegen::Configuration>(tables),
            diff, now, true);
        const Report fresh =
            check_update(comp, comp, checker.config(), diff, tables, now);
        EXPECT_TRUE(has_errors(fresh)) << to_text(fresh);
        EXPECT_EQ(to_text(cached), to_text(fresh));
        return copy.last_counts();
    }
};

// The first rule of `config` at `device` matching tag `tag` exactly.
codegen::Flow_rule* tag_rule(codegen::Configuration& config,
                             const std::string& device, int tag) {
    for (codegen::Flow_rule& r : config.flow_rules)
        if (r.device == device && r.match_tag == tag) return &r;
    return nullptr;
}

// The tagged switch state of g's path (its delivery hop).
std::pair<std::string, int> tagged_state(const Seeded& fx,
                                         const std::string& id) {
    for (const auto& [node, tag] : fx.states(id))
        if (tag != -1 &&
            fx.topo.node(node).kind == topo::Node_kind::switch_)
            return {fx.topo.node(node).name, tag};
    ADD_FAILURE() << "class " << id << " visits no tagged switch state";
    return {};
}

TEST(AnalysisDataplaneCache, RemovedRuleOnAReusedPathIsReproved) {
    const Seeded fx;
    codegen::Configuration tables = fx.checker.config();
    const auto [device, tag] = tagged_state(fx, "g");
    codegen::Flow_rule* rule = tag_rule(tables, device, tag);
    ASSERT_NE(rule, nullptr);
    tables.flow_rules.erase(tables.flow_rules.begin() +
                            (rule - tables.flow_rules.data()));
    const Proof_counts counts = fx.expect_cache_matches_fresh(tables, fx.topo);
    EXPECT_EQ(counts.classes_proved, 1);
    EXPECT_EQ(counts.classes_reused, 2);
}

TEST(AnalysisDataplaneCache, OverlappingHigherPriorityIngressRuleIsReproved) {
    const Seeded fx;
    codegen::Configuration tables = fx.checker.config();
    // g's ingress is the one untagged state of its proof.
    std::string ingress;
    for (const auto& [node, tag] : fx.states("g"))
        if (tag == -1) ingress = fx.topo.node(node).name;
    ASSERT_FALSE(ingress.empty());
    codegen::Flow_rule drop;
    drop.device = ingress;
    drop.priority = codegen::kClassifyPriority + 1;
    // Part of g's traffic, and none of the other classes': g's classifier
    // is not shadowed, so the static checks stay clean.
    drop.match = parser::parse_predicate(
        "eth.src = 00:00:00:00:00:01 and tcp.dst = 22 and ip.src = 10.0.0.9");
    drop.drop = true;
    tables.flow_rules.push_back(drop);
    const Proof_counts counts = fx.expect_cache_matches_fresh(tables, fx.topo);
    EXPECT_EQ(counts.classes_proved, 1);
}

TEST(AnalysisDataplaneCache, RetaggedRuleAtAVisitedSwitchIsReproved) {
    const Seeded fx;
    codegen::Configuration tables = fx.checker.config();
    const auto [device, tag] = tagged_state(fx, "g");
    codegen::Flow_rule* rule = tag_rule(tables, device, tag);
    ASSERT_NE(rule, nullptr);
    rule->match_tag = 4000;
    const Proof_counts counts = fx.expect_cache_matches_fresh(tables, fx.topo);
    EXPECT_EQ(counts.classes_proved, 1);
}

TEST(AnalysisDataplaneCache, ChangedClickForwardAtAVisitedMiddleboxIsReproved) {
    const Seeded fx;
    const topo::NodeId m1 = fx.topo.require("m1");
    int carried = -2;
    for (const auto& [node, tag] : fx.states("d"))
        if (node == m1) carried = tag;
    ASSERT_NE(carried, -2) << "d's proof does not visit m1";
    codegen::Configuration tables = fx.checker.config();
    const std::string classifier =
        "VLANClassifier(" + std::to_string(carried) + ")";
    bool changed = false;
    for (codegen::Click_config& c : tables.click_configs) {
        if (c.device != "m1" || c.config.find(classifier) == std::string::npos)
            continue;
        const auto anno = c.config.find("SetVLANAnno(");
        ASSERT_NE(anno, std::string::npos);
        c.config.replace(anno, c.config.find(')', anno) - anno,
                         "SetVLANAnno(4001");
        changed = true;
    }
    ASSERT_TRUE(changed);
    const Proof_counts counts = fx.expect_cache_matches_fresh(tables, fx.topo);
    EXPECT_EQ(counts.classes_proved, 1);
}

TEST(AnalysisDataplaneCache, LinkFailureBetweenStepsDropsTheCache) {
    const Seeded fx;
    topo::Topology failed = fx.topo;
    const auto link =
        failed.link_between(failed.require("s1"), failed.require("s2"));
    ASSERT_TRUE(link.has_value());
    failed.set_link_state(*link, false);
    const Proof_counts counts =
        fx.expect_cache_matches_fresh(fx.checker.config(), failed);
    EXPECT_EQ(counts.full_proofs, 1);
    EXPECT_EQ(counts.full_link, 1);
    EXPECT_EQ(counts.classes_reused, 0);
    EXPECT_EQ(counts.devices_reused, 0);
}

// The gate's counts on fat-tree k=4: the first generation and a link
// failure are full proofs, a tenant add proves only the new class, and a
// bandwidth retune re-checks no device and reuses every class.
TEST(AnalysisDataplaneCache, CountsSayWhatEachStepReused) {
    const topo::Topology t = topo::fat_tree(4);
    test_support::Mixed_deltas stream(t, {{"c0", "a0_0"}});
    Update_checker checker;
    const auto step = [&](bool check_transition) {
        const Report report = checker.step(stream.engine().current(),
                                           stream.engine().topology(),
                                           check_transition);
        EXPECT_TRUE(report.empty()) << to_text(report);
        return checker.last_counts();
    };

    const Proof_counts first = step(true);
    EXPECT_EQ(first.full_proofs, 1);
    EXPECT_EQ(first.full_first, 1);
    EXPECT_EQ(first.classes_reused, 0);
    EXPECT_EQ(first.devices_reused, 0);
    EXPECT_GT(first.devices_checked, 0);
    const long long classes = first.classes_proved;
    EXPECT_GT(classes, 0);

    ASSERT_FALSE(stream.next());  // a tenant add
    const Proof_counts add = step(true);
    EXPECT_EQ(add.full_proofs, 0);
    EXPECT_EQ(add.classes_proved, 1);
    EXPECT_EQ(add.classes_reused, classes);
    EXPECT_GT(add.devices_reused, 0);

    ASSERT_FALSE(stream.next());  // a bandwidth retune
    const Proof_counts retune = step(true);
    EXPECT_EQ(retune.full_proofs, 0);
    EXPECT_EQ(retune.devices_checked, 0);
    EXPECT_EQ(retune.classes_proved, 0);
    EXPECT_EQ(retune.classes_reused, classes + 1);
    EXPECT_EQ(retune.phase_replays, 0);

    ASSERT_TRUE(stream.next());  // a link failure
    const Proof_counts fail = step(false);
    EXPECT_EQ(fail.full_proofs, 1);
    EXPECT_EQ(fail.full_link, 1);
    EXPECT_EQ(fail.classes_reused, 0);
    EXPECT_EQ(fail.devices_reused, 0);

    EXPECT_EQ(checker.total_counts().full_proofs, 2);
    EXPECT_EQ(checker.total_counts().classes_reused,
              2 * classes + 1);
}

// ------------------------------------------------------------- overlays

void expect_same_table(const Phase_table& got, const Phase_table& want,
                       const std::string& what) {
    EXPECT_EQ(got.clicks, want.clicks) << what;
    ASSERT_EQ(got.rules.size(), want.rules.size()) << what;
    for (const auto& [device, rules] : want.rules) {
        const auto it = got.rules.find(device);
        ASSERT_NE(it, got.rules.end()) << what << ": " << device;
        ASSERT_EQ(it->second.size(), rules.size()) << what << ": " << device;
        for (std::size_t i = 0; i < rules.size(); ++i)
            EXPECT_TRUE(codegen::equal(it->second[i], rules[i]))
                << what << ": " << device << " rule " << i << ": "
                << codegen::to_text(it->second[i]) << " vs "
                << codegen::to_text(rules[i]);
    }
}

// The overlay phase tables equal the lifted apply_prepare / apply_commit
// configurations device by device, over a mixed-delta stream.
void expect_overlays_match_apply(
    const topo::Topology& topo,
    std::vector<std::pair<std::string, std::string>> links, int deltas) {
    test_support::Mixed_deltas stream(topo, std::move(links));
    codegen::Incremental incremental;
    int with_commit = 0;
    for (int step = 0; step <= deltas; ++step) {
        if (step > 0) (void)stream.next();
        const topo::Topology& now = stream.engine().topology();
        const codegen::Configuration old_config = incremental.config();
        const codegen::Diff diff =
            incremental.update(stream.engine().current(), now);
        const auto tables =
            phase_tables(old_config, diff, incremental.config(), now);

        codegen::Configuration prepared = old_config;
        codegen::apply_prepare(prepared, diff);
        codegen::Configuration committed = prepared;
        codegen::apply_commit(committed, diff);
        const auto lift = [&](const codegen::Configuration& config) {
            return phase_tables(config, codegen::Diff{}, config, now)[0];
        };
        const std::string at = "step " + std::to_string(step);
        expect_same_table(tables[0], lift(old_config), at + " pre-update");
        expect_same_table(tables[1], lift(prepared), at + " after prepare");
        expect_same_table(tables[2], lift(committed), at + " after commit");
        expect_same_table(tables[3], lift(incremental.config()),
                          at + " post-update");
        if (!diff.classifier_installs.empty() &&
            !diff.classifier_removes.empty())
            ++with_commit;
    }
    EXPECT_GT(with_commit, deltas / 6);
}

TEST(AnalysisDataplane, OverlayPhaseTablesMatchAppliedConfigurationsFatTree) {
    expect_overlays_match_apply(topo::fat_tree(4),
                                {{"c0", "a0_0"}, {"c2", "a1_1"}}, 120);
}

TEST(AnalysisDataplane, OverlayPhaseTablesMatchAppliedConfigurationsCampus) {
    expect_overlays_match_apply(topo::campus(),
                                {{"z0", "bbra"}, {"z3", "bbrb"}}, 60);
}

}  // namespace
}  // namespace merlin::analysis
