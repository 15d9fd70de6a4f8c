// The differential fuzzing harness itself: generator validity and
// determinism, repro-file round-trips, oracle soundness on known-good and
// known-broken inputs, and the shrinker's reduction contract.
#include <gtest/gtest.h>

#include <set>

#include "core/addressing.h"
#include "core/compiler.h"
#include "core/engine.h"
#include "ir/ast.h"
#include "testgen/testgen.h"
#include "topo/generators.h"
#include "util/error.h"

namespace {

using namespace merlin;
using testgen::Delta_kind;
using testgen::Gen_options;
using testgen::Run_options;
using testgen::Run_result;
using testgen::Scenario;

// ------------------------------------------------------------------ generator

TEST(Generator, IsDeterministicPerSeed) {
    const Gen_options options;
    for (const std::uint64_t seed : {1ULL, 17ULL, 923ULL}) {
        const Scenario a = testgen::random_scenario(options, seed);
        const Scenario b = testgen::random_scenario(options, seed);
        EXPECT_EQ(testgen::format_scenario(a), testgen::format_scenario(b));
    }
    const Scenario a = testgen::random_scenario(options, 1);
    const Scenario b = testgen::random_scenario(options, 2);
    EXPECT_NE(testgen::format_scenario(a), testgen::format_scenario(b));
}

TEST(Generator, ScenariosAreWellTyped) {
    const Gen_options options;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const Scenario scenario = testgen::random_scenario(options, seed);
        ASSERT_GE(scenario.statements.size(), 1u);
        // Rates respect cap >= guarantee; ids are unique.
        std::set<std::string> ids;
        for (const testgen::Statement_spec& spec : scenario.statements) {
            EXPECT_TRUE(ids.insert(spec.stmt.id).second) << spec.stmt.id;
            if (spec.cap) {
                EXPECT_GE(*spec.cap, spec.guarantee);
            }
        }
        // The generated policy compiles without throwing (disjointness
        // holds), and the trace replays cleanly against the model — the
        // runner reports invalid (not failed) otherwise.
        const Run_result result = testgen::run_scenario(scenario, {});
        EXPECT_NE(result.status, Run_result::Status::invalid)
            << "seed " << seed << ": " << result.detail;
    }
}

TEST(Generator, TopologiesValidateAcrossFamilies) {
    const Gen_options options;
    std::set<std::string> families;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        const Scenario scenario = testgen::random_scenario(options, seed);
        const topo::Topology t = testgen::make_topology(scenario);
        topo::validate(t);  // includes middlebox grafts
        families.insert(scenario.topo_spec);
    }
    EXPECT_GE(families.size(), 3u);
}

// -------------------------------------------------------------- serialization

// The long-trace legs (the merlin_fuzz_long_trace CTest and verify.sh)
// draw seed 3's fat-tree:2 scenario, whose base statements hold both
// ordered host pairs: the generator removes one first, so every cycle has
// a pair to recycle and runs an add and a remove.
TEST(Generator, LongTraceRecyclesAPairWhenTheBaseHoldsThemAll) {
    Gen_options options;
    options.max_deltas = 0;
    options.long_trace_cycles = 40;
    const Scenario scenario = testgen::random_scenario(options, 3);
    EXPECT_EQ(scenario.topo_spec, "fat-tree:2");
    EXPECT_GE(scenario.deltas.size(), 2 * 40U);
    int adds = 0;
    int removes = 0;
    for (const testgen::Delta& delta : scenario.deltas) {
        if (delta.stmt.stmt.id.rfind("lt", 0) != 0) continue;
        adds += delta.kind == Delta_kind::add_statement ? 1 : 0;
        removes += delta.kind == Delta_kind::remove_statement ? 1 : 0;
    }
    EXPECT_EQ(adds, 40);
    EXPECT_EQ(removes, 40);
}

TEST(Repro, RoundTripsExactly) {
    const Gen_options options;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        const Scenario scenario = testgen::random_scenario(options, seed);
        const std::string text = testgen::format_scenario(scenario);
        const Scenario parsed = testgen::parse_scenario(text);
        EXPECT_EQ(testgen::format_scenario(parsed), text) << "seed " << seed;
        // Structural equality of the statements, not just text equality.
        ASSERT_EQ(parsed.statements.size(), scenario.statements.size());
        for (std::size_t i = 0; i < parsed.statements.size(); ++i)
            EXPECT_TRUE(ir::equal(parsed.statements[i].stmt,
                                  scenario.statements[i].stmt));
    }
}

TEST(Repro, RejectsMalformedInput) {
    EXPECT_THROW((void)testgen::parse_scenario("not a repro"), Error);
    EXPECT_THROW((void)testgen::parse_scenario(
                     "merlin-fuzz repro v1\ntopology nope:4\n"),
                 Error);
    EXPECT_THROW((void)testgen::parse_scenario(
                     "merlin-fuzz repro v1\ntopology fat-tree:2\n"
                     "delta bandwidth s0\n"),
                 Error);
    EXPECT_THROW((void)testgen::parse_scenario(
                     "merlin-fuzz repro v1\ntopology fat-tree:2\n"
                     "statement min=x cap=- s0 : true -> .*\n"),
                 Error);
}

// ------------------------------------------------------------------- oracles

TEST(Oracles, PassOnAHandWrittenScenario) {
    Scenario scenario;
    scenario.topo_spec = "fat-tree:2";
    scenario.options.jobs = 1;
    const topo::Topology t = testgen::make_topology(scenario);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();

    testgen::Statement_spec guaranteed;
    guaranteed.stmt.id = "g";
    guaranteed.stmt.predicate =
        addressing.pair_predicate(hosts[0], hosts[1]);
    guaranteed.stmt.path = ir::path_any_star();
    guaranteed.guarantee = mb_per_sec(5);
    scenario.statements.push_back(guaranteed);

    testgen::Statement_spec best_effort;
    best_effort.stmt.id = "b";
    best_effort.stmt.predicate =
        addressing.pair_predicate(hosts[1], hosts[0]);
    best_effort.stmt.path = ir::path_any_star();
    best_effort.cap = mbps(80);
    scenario.statements.push_back(best_effort);

    testgen::Delta rate;
    rate.kind = Delta_kind::set_bandwidth;
    rate.stmt.stmt.id = "g";
    rate.stmt.guarantee = mb_per_sec(8);
    scenario.deltas.push_back(rate);

    testgen::Delta fail;
    fail.kind = Delta_kind::fail_link;
    fail.node_a = t.node(t.link(0).a).name;  // a switch-switch core link
    fail.node_b = t.node(t.link(0).b).name;
    scenario.deltas.push_back(fail);

    const Run_result result = testgen::run_scenario(scenario, {});
    EXPECT_EQ(result.status, Run_result::Status::passed) << result.oracle
                                                         << ": "
                                                         << result.detail;
    EXPECT_EQ(result.deltas_applied, 2);
}

TEST(Oracles, CapacityCatchesOversubscriptionAndDeadLinks) {
    const topo::Topology t = topo::fat_tree(2);
    core::Provision_result provision;
    provision.feasible = true;
    core::Provisioned_path path;
    path.id = "x";
    path.rate = gbps(2);  // above every 1 Gbps link
    const topo::Link& link = t.link(0);
    path.nodes = {link.a, link.b};
    path.links = {0};
    path.word = path.nodes;
    provision.paths.push_back(path);
    provision.big_r_max = gbps(2);
    provision.r_max = 2.0;
    EXPECT_TRUE(testgen::check_capacity(t, provision).has_value());

    // Same path, sane rate, but the link is down.
    topo::Topology degraded = t;
    degraded.set_link_state(0, false);
    provision.paths[0].rate = mbps(10);
    EXPECT_TRUE(testgen::check_capacity(degraded, provision).has_value());
}

TEST(Oracles, DescribeDifferenceFlagsRateDrift) {
    const topo::Topology t = topo::fat_tree(2);
    Scenario scenario;
    scenario.topo_spec = "fat-tree:2";
    scenario.options.jobs = 1;
    const core::Addressing addressing(t);
    testgen::Statement_spec spec;
    spec.stmt.id = "g";
    spec.stmt.predicate = addressing.pair_predicate(t.hosts()[0], t.hosts()[1]);
    spec.stmt.path = ir::path_any_star();
    spec.guarantee = mb_per_sec(5);
    scenario.statements.push_back(spec);

    const core::Compilation a =
        core::compile(testgen::initial_policy(scenario), t, scenario.options);
    EXPECT_FALSE(
        testgen::describe_difference(a, a, t, scenario.options).has_value());

    Scenario skewed = scenario;
    skewed.statements[0].guarantee += bits_per_sec(1);
    const core::Compilation b =
        core::compile(testgen::initial_policy(skewed), t, scenario.options);
    const auto diff = testgen::describe_difference(a, b, t, scenario.options);
    ASSERT_TRUE(diff.has_value());
    EXPECT_NE(diff->find("guarantee"), std::string::npos) << *diff;
}

// ----------------------------------------------------- injection + shrinking

TEST(Harness, InjectedRateSkewIsCaughtAndShrunk) {
    // Deterministically find an injectable scenario (one with a positive
    // set_bandwidth delta), confirm the fault is caught, and shrink it.
    Run_options inject;
    inject.inject = Run_options::Inject::rate_skew;
    const Gen_options options;
    bool caught = false;
    for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
        const Scenario scenario = testgen::random_scenario(options, seed);
        const Run_result result = testgen::run_scenario(scenario, inject);
        if (!result.failed()) continue;
        caught = true;
        EXPECT_EQ(result.oracle, "engine-vs-batch");

        const Scenario reduced = testgen::shrink(scenario, inject, 150);
        EXPECT_LE(reduced.statements.size(), scenario.statements.size());
        EXPECT_LE(reduced.deltas.size(), scenario.deltas.size());
        // The reduced case still fails the same oracle...
        const Run_result again = testgen::run_scenario(reduced, inject);
        ASSERT_TRUE(again.failed());
        EXPECT_EQ(again.oracle, "engine-vs-batch");
        // ... still round-trips through the repro format...
        const Scenario replayed = testgen::parse_scenario(
            testgen::format_scenario(reduced));
        EXPECT_TRUE(testgen::run_scenario(replayed, inject).failed());
        // ... and is clean without the injected fault (the bug is in the
        // simulated engine, not the scenario).
        EXPECT_EQ(testgen::run_scenario(replayed, {}).status,
                  Run_result::Status::passed);
    }
    EXPECT_TRUE(caught) << "no scenario in the seed range exercised the "
                           "injected delta path";
}

TEST(Harness, DroppedRestoreIsCaught) {
    Run_options inject;
    inject.inject = Run_options::Inject::drop_restore;
    const Gen_options options;
    bool caught = false;
    for (std::uint64_t seed = 0; seed < 60 && !caught; ++seed) {
        const Scenario scenario = testgen::random_scenario(options, seed);
        const Run_result result = testgen::run_scenario(scenario, inject);
        if (result.failed()) {
            caught = true;
            EXPECT_EQ(result.oracle, "engine-vs-batch");
        }
    }
    EXPECT_TRUE(caught);
}

}  // namespace
