// The incremental provisioning engine (core::Engine).
//
// The load-bearing property: after ANY sequence of delta operations, the
// engine's published Compilation is identical to a from-scratch
// core::compile() of the engine's current policy against its current
// topology — plans, provisioned paths, sink trees, class automata,
// allocations, diagnostics — and, since every full-encoding solve starts
// from the crash basis of its encoding, the solver's work counters too. On
// top of that, the deltas must be *cheap* in the right way: a
// bandwidth-only change performs zero automata builds, zero
// logical-topology builds, zero sink-tree builds and zero LP re-encodings
// (asserted via the engine's work counters).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/compiler.h"
#include "core/engine.h"
#include "negotiator/negotiator.h"
#include "pred/classifier.h"
#include "topo/generators.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace merlin;
using core::Compilation;
using core::Engine;
using core::Update_result;

// ---------------------------------------------------------------- comparator

void expect_nfa_equal(const automata::Nfa& a, const automata::Nfa& b) {
    ASSERT_EQ(a.alphabet_size, b.alphabet_size);
    ASSERT_EQ(a.start, b.start);
    ASSERT_EQ(a.accepting, b.accepting);
    ASSERT_EQ(a.labels, b.labels);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t s = 0; s < a.edges.size(); ++s) {
        ASSERT_EQ(a.edges[s].size(), b.edges[s].size()) << "state " << s;
        for (std::size_t e = 0; e < a.edges[s].size(); ++e) {
            EXPECT_EQ(a.edges[s][e].symbol, b.edges[s][e].symbol);
            EXPECT_EQ(a.edges[s][e].target, b.edges[s][e].target);
            EXPECT_EQ(a.edges[s][e].label, b.edges[s][e].label);
        }
    }
}

void expect_path_equal(const core::Provisioned_path& a,
                       const core::Provisioned_path& b) {
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.word, b.word);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.links, b.links);
    EXPECT_EQ(a.placements, b.placements);
    EXPECT_EQ(a.rate, b.rate);
}

// Engine state vs a from-scratch compile: everything observable about the
// outcome, and the solve itself bit for bit — both start from the crash
// basis of bit-identical encodings, so the objective, the maxima, the root
// start and the work it took match too.
void expect_equivalent(const Compilation& engine, const Compilation& fresh) {
    ASSERT_EQ(engine.feasible, fresh.feasible);
    EXPECT_EQ(engine.diagnostic, fresh.diagnostic);
    ASSERT_EQ(engine.plans.size(), fresh.plans.size());
    for (std::size_t i = 0; i < engine.plans.size(); ++i) {
        const core::Statement_plan& a = engine.plans[i];
        const core::Statement_plan& b = fresh.plans[i];
        EXPECT_TRUE(ir::equal(a.statement, b.statement))
            << "plan " << i << ": " << a.statement.id << " vs "
            << b.statement.id;
        EXPECT_EQ(a.guarantee, b.guarantee);
        EXPECT_EQ(a.cap, b.cap);
        EXPECT_EQ(a.src_host, b.src_host);
        EXPECT_EQ(a.dst_host, b.dst_host);
        EXPECT_EQ(a.path_class, b.path_class);
        EXPECT_EQ(a.drop, b.drop);
        ASSERT_EQ(a.path.has_value(), b.path.has_value()) << a.statement.id;
        if (a.path) expect_path_equal(*a.path, *b.path);
    }
    ASSERT_EQ(engine.class_nfas.size(), fresh.class_nfas.size());
    for (std::size_t c = 0; c < engine.class_nfas.size(); ++c)
        expect_nfa_equal(engine.class_nfas[c], fresh.class_nfas[c]);
    ASSERT_EQ(engine.trees.size(), fresh.trees.size());
    for (auto ea = engine.trees.begin(), eb = fresh.trees.begin();
         ea != engine.trees.end(); ++ea, ++eb) {
        EXPECT_EQ(ea->first, eb->first);
        EXPECT_EQ(ea->second.egress, eb->second.egress);
        EXPECT_EQ(ea->second.nodes, eb->second.nodes);
        EXPECT_EQ(ea->second.states, eb->second.states);
        EXPECT_EQ(ea->second.next, eb->second.next);
        EXPECT_EQ(ea->second.dist, eb->second.dist);
    }
    EXPECT_EQ(engine.provision.feasible, fresh.provision.feasible);
    EXPECT_STREQ(engine.provision.solver, fresh.provision.solver);
    EXPECT_EQ(engine.provision.variables, fresh.provision.variables);
    EXPECT_EQ(engine.provision.constraints, fresh.provision.constraints);
    ASSERT_EQ(engine.provision.paths.size(), fresh.provision.paths.size());
    for (std::size_t i = 0; i < engine.provision.paths.size(); ++i)
        expect_path_equal(engine.provision.paths[i],
                          fresh.provision.paths[i]);
    EXPECT_EQ(engine.provision.r_max, fresh.provision.r_max);
    EXPECT_EQ(engine.provision.big_r_max, fresh.provision.big_r_max);
    EXPECT_EQ(engine.provision.objective, fresh.provision.objective);
    EXPECT_STREQ(engine.provision.root_start, fresh.provision.root_start);
    EXPECT_EQ(engine.provision.simplex_iterations,
              fresh.provision.simplex_iterations);
    EXPECT_EQ(engine.provision.lp_factorizations,
              fresh.provision.lp_factorizations);
    EXPECT_EQ(engine.provision.mip_nodes, fresh.provision.mip_nodes);
}

void expect_matches_fresh_compile(const Engine& engine,
                                  const core::Compile_options& options) {
    const Compilation fresh =
        core::compile(engine.policy(), engine.topology(), options);
    expect_equivalent(engine.current(), fresh);
}

// -------------------------------------------------------------------- setups

// Two disjoint switch paths between the hosts: failing one of them must
// re-route, failing both must go infeasible.
topo::Topology diamond() {
    topo::Topology t;
    const auto s1 = t.add_switch("s1");
    const auto s2 = t.add_switch("s2");
    const auto s3 = t.add_switch("s3");
    const auto s4 = t.add_switch("s4");
    t.add_link(s1, s2, mbps(500));
    t.add_link(s2, s4, mbps(500));
    t.add_link(s1, s3, mbps(400));
    t.add_link(s3, s4, mbps(400));
    const auto h1 = t.add_host("h1");
    const auto h2 = t.add_host("h2");
    t.add_link(h1, s1, gbps(1));
    t.add_link(h2, s4, gbps(1));
    return t;
}

ir::Policy diamond_policy(const topo::Topology& t, Bandwidth rate) {
    const core::Addressing addressing(t);
    ir::Policy p;
    ir::Statement g;
    g.id = "g";
    g.predicate = addressing.pair_predicate(t.require("h1"), t.require("h2"));
    g.path = ir::path_any_star();
    p.statements.push_back(g);
    ir::Statement b;
    b.id = "b";
    b.predicate = addressing.pair_predicate(t.require("h2"), t.require("h1"));
    b.path = ir::path_any_star();
    p.statements.push_back(b);
    ir::Term term;
    term.ids.push_back("g");
    p.formula = ir::formula_min(std::move(term), rate);
    return p;
}

core::Compile_options mip_options() {
    core::Compile_options o;
    o.solver = core::Solver::mip;
    o.jobs = 1;
    return o;
}

// ---------------------------------------------------------------------- tests

TEST(Engine, InitialBuildMatchesOneShotCompile) {
    const topo::Topology t = topo::fat_tree(2);
    const ir::Policy p = bench::all_pairs_policy(t, 1, mb_per_sec(5));
    const Engine engine(p, t, {});
    const Compilation fresh = core::compile(p, t, {});
    expect_equivalent(engine.current(), fresh);
    EXPECT_TRUE(engine.current().feasible);
}

TEST(Engine, BandwidthDeltaDoesZeroRebuildWorkAndWarmStarts) {
    const topo::Topology t = topo::fat_tree(4);
    const ir::Policy p = bench::all_pairs_policy(t, 6, mb_per_sec(1));
    const core::Compile_options options = mip_options();
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);
    ASSERT_STREQ(engine.current().provision.solver, "mip");

    const Update_result update =
        engine.set_bandwidth("t0", mb_per_sec(3));
    EXPECT_TRUE(update.feasible);
    EXPECT_TRUE(update.solver_run);
    // The paper's no-recompilation claim, as counters: no automata, no
    // logical topologies, no sink trees, no re-encoding — only an in-place
    // coefficient patch and a re-solve whose root starts at the crash.
    EXPECT_EQ(update.work.automata_built, 0);
    EXPECT_EQ(update.work.logical_builds, 0);
    EXPECT_EQ(update.work.trees_built, 0);
    EXPECT_EQ(update.work.lp_encodings, 0);
    EXPECT_EQ(update.work.lp_patches, 1);
    EXPECT_EQ(update.work.solves, 1);
    EXPECT_TRUE(update.warm_started);
    EXPECT_GT(engine.current().provision.warm_started_nodes, 0);

    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, GreedyBandwidthDeltaAlsoDoesZeroRebuildWork) {
    const topo::Topology t = topo::fat_tree(4);
    // More guaranteed classes than auto_mip_limit: the greedy provisioner
    // serves them (the Table-7 k>=6 configuration, scaled down).
    core::Compile_options options = bench::scalability_options();
    options.jobs = 1;
    const ir::Policy p = bench::all_pairs_policy(
        t, options.auto_mip_limit + 8, mb_per_sec(1));
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);
    ASSERT_STREQ(engine.current().provision.solver, "greedy");

    const Update_result update =
        engine.set_bandwidth("t0", mb_per_sec(4));
    EXPECT_TRUE(update.feasible);
    EXPECT_EQ(update.work.automata_built, 0);
    EXPECT_EQ(update.work.logical_builds, 0);
    EXPECT_EQ(update.work.trees_built, 0);
    EXPECT_EQ(update.work.lp_encodings, 0);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, CapOnlyDeltaRunsNoSolver) {
    const topo::Topology t = topo::fat_tree(2);
    const ir::Policy p = bench::all_pairs_policy(t, 1, mb_per_sec(5));
    const core::Compile_options options;
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);

    const Update_result update =
        engine.set_bandwidth("t0", mb_per_sec(5), mb_per_sec(80));
    EXPECT_TRUE(update.feasible);
    EXPECT_FALSE(update.solver_run);
    EXPECT_EQ(update.work.solves, 0);
    EXPECT_EQ(update.work.lp_encodings, 0);
    EXPECT_EQ(engine.cap_of("t0"), std::optional(mb_per_sec(80)));
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, DeltaSequenceStaysEquivalentToBatchCompile) {
    const topo::Topology t = topo::fat_tree(4);
    core::Compile_options options = bench::scalability_options();
    options.jobs = 1;
    const ir::Policy p = bench::all_pairs_policy(t, 4, mb_per_sec(1));
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);
    expect_matches_fresh_compile(engine, options);

    const core::Addressing addressing(t);
    const auto hosts = t.hosts();

    // Rate change.
    ASSERT_TRUE(engine.set_bandwidth("t0", mb_per_sec(2)).feasible);
    expect_matches_fresh_compile(engine, options);

    // New guaranteed statement.
    ir::Statement fresh;
    fresh.id = "extra";
    fresh.predicate = ir::pred_and(
        addressing.pair_predicate(hosts[0], hosts[3]),
        ir::pred_test("tcp.dst", 22));
    fresh.path = ir::path_any_star();
    ASSERT_TRUE(engine.add_statement(fresh, mb_per_sec(2)).feasible);
    expect_matches_fresh_compile(engine, options);

    // New best-effort statement with a cap.
    ir::Statement besteffort;
    besteffort.id = "web";
    besteffort.predicate = ir::pred_and(
        addressing.pair_predicate(hosts[1], hosts[2]),
        ir::pred_test("tcp.dst", 80));
    besteffort.path = ir::path_any_star();
    ASSERT_TRUE(engine.add_statement(besteffort, {}, mb_per_sec(50)).feasible);
    expect_matches_fresh_compile(engine, options);

    // Promotion (best-effort -> guaranteed) and demotion back.
    ASSERT_TRUE(engine.set_bandwidth("web", mb_per_sec(3), mb_per_sec(50)).feasible);
    expect_matches_fresh_compile(engine, options);
    ASSERT_TRUE(engine.set_bandwidth("web", {}, mb_per_sec(50)).feasible);
    expect_matches_fresh_compile(engine, options);

    // Link failure and repair (pick a switch-switch link: fat trees are
    // redundant above the edge, so the policy stays feasible).
    topo::LinkId core_link = topo::kNoLink;
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
        const topo::Link& link = t.link(l);
        if (t.node(link.a).kind != topo::Node_kind::host &&
            t.node(link.b).kind != topo::Node_kind::host) {
            core_link = l;
            break;
        }
    }
    ASSERT_NE(core_link, topo::kNoLink);
    ASSERT_TRUE(engine.fail_link(core_link).feasible);
    expect_matches_fresh_compile(engine, options);
    ASSERT_TRUE(engine.restore_link(core_link).feasible);
    expect_matches_fresh_compile(engine, options);

    // Removal.
    ASSERT_TRUE(engine.remove_statement("extra").feasible);
    ASSERT_TRUE(engine.remove_statement("web").feasible);
    expect_matches_fresh_compile(engine, options);
}

// Column-generation and sharded modes keep no cross-delta solver state (no
// skeleton, no warm basis): every delta re-derives its columns, so the
// engine after any replayed sequence is bit-equal to a batch compile with
// the same options.
TEST(Engine, ColgenAndShardedModeDeltaReplayStaysBitEqualToBatch) {
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    for (const core::Solver_mode mode :
         {core::Solver_mode::colgen, core::Solver_mode::sharded}) {
        core::Compile_options options = mip_options();
        options.solver_mode = mode;
        options.check_disjoint = false;  // `extra` overlaps an all-pairs class
        const ir::Policy p = bench::all_pairs_policy(t, 4, mb_per_sec(1));
        Engine engine(p, t, options);
        ASSERT_TRUE(engine.current().feasible) << core::to_string(mode);
        expect_matches_fresh_compile(engine, options);

        // Rate change.
        ASSERT_TRUE(engine.set_bandwidth("t0", mb_per_sec(2)).feasible);
        expect_matches_fresh_compile(engine, options);

        // New guaranteed statement.
        ir::Statement fresh;
        fresh.id = "extra";
        fresh.predicate = ir::pred_and(
            addressing.pair_predicate(hosts[0], hosts[3]),
            ir::pred_test("tcp.dst", 22));
        fresh.path = ir::path_any_star();
        ASSERT_TRUE(engine.add_statement(fresh, mb_per_sec(2)).feasible);
        expect_matches_fresh_compile(engine, options);

        // Link failure and repair on a core (switch-switch) link.
        topo::LinkId core_link = topo::kNoLink;
        for (topo::LinkId l = 0; l < t.link_count(); ++l) {
            const topo::Link& link = t.link(l);
            if (t.node(link.a).kind != topo::Node_kind::host &&
                t.node(link.b).kind != topo::Node_kind::host) {
                core_link = l;
                break;
            }
        }
        ASSERT_NE(core_link, topo::kNoLink);
        ASSERT_TRUE(engine.fail_link(core_link).feasible);
        expect_matches_fresh_compile(engine, options);
        ASSERT_TRUE(engine.restore_link(core_link).feasible);
        expect_matches_fresh_compile(engine, options);

        // Removal.
        ASSERT_TRUE(engine.remove_statement("extra").feasible);
        expect_matches_fresh_compile(engine, options);
    }
}

TEST(Engine, FailLinkReroutesWithBoundPatchesOnly) {
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(100)), t, options);
    ASSERT_TRUE(engine.current().feasible);
    const auto& first = engine.current().plans[0].path;
    ASSERT_TRUE(first.has_value());

    // Fail a link on the provisioned path; the engine must route around it
    // without re-encoding (bound patches only).
    ASSERT_FALSE(first->links.empty());
    const topo::LinkId failed = first->links[1];  // a switch-switch hop
    const Update_result update = engine.fail_link(failed);
    EXPECT_TRUE(update.feasible);
    EXPECT_EQ(update.work.lp_encodings, 0);
    EXPECT_GT(update.work.lp_patches, 0);
    const auto& rerouted = engine.current().plans[0].path;
    ASSERT_TRUE(rerouted.has_value());
    for (const topo::LinkId l : rerouted->links) EXPECT_NE(l, failed);
    expect_matches_fresh_compile(engine, options);

    const Update_result restored = engine.restore_link(failed);
    EXPECT_TRUE(restored.feasible);
    EXPECT_EQ(restored.work.lp_encodings, 0);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, InfeasibleAfterFailureRecoversOnRestore) {
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(100)), t, options);
    ASSERT_TRUE(engine.current().feasible);

    const auto cut1 = t.link_between(t.require("s1"), t.require("s2"));
    const auto cut2 = t.link_between(t.require("s1"), t.require("s3"));
    ASSERT_TRUE(cut1 && cut2);
    ASSERT_TRUE(engine.fail_link(*cut1).feasible);
    const Update_result update = engine.fail_link(*cut2);
    EXPECT_FALSE(update.feasible);
    EXPECT_FALSE(update.diagnostic.empty());
    expect_matches_fresh_compile(engine, options);

    ASSERT_TRUE(engine.restore_link(*cut1).feasible);
    const Update_result recovered = engine.restore_link(*cut2);
    EXPECT_TRUE(recovered.feasible);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, BestEffortDeltasReuseSinkTreeCache) {
    const topo::Topology t = topo::fat_tree(2);
    const ir::Policy p = bench::all_pairs_policy(t, 0, {});
    // The refined ssh statement overlaps the all-pairs predicates by
    // design, so compile without the disjointness pre-check.
    core::Compile_options options;
    options.check_disjoint = false;
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);

    // Same `.*` path class as the whole policy: every needed tree is
    // already interned.
    const core::Addressing addressing(t);
    ir::Statement extra;
    extra.id = "ssh";
    extra.predicate = ir::pred_and(
        addressing.pair_predicate(t.hosts()[0], t.hosts()[1]),
        ir::pred_test("tcp.dst", 22));
    extra.path = ir::path_any_star();
    const Update_result update = engine.add_statement(extra);
    EXPECT_TRUE(update.feasible);
    EXPECT_EQ(update.work.trees_built, 0);
    EXPECT_GT(update.work.tree_cache_hits, 0);
    EXPECT_EQ(update.work.automata_built, 0);
    EXPECT_FALSE(update.solver_run);
    expect_matches_fresh_compile(engine, options);

    ASSERT_TRUE(engine.remove_statement("ssh").feasible);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, ArgumentErrorsLeaveStateUntouched) {
    const topo::Topology t = topo::fat_tree(2);
    const ir::Policy p = bench::all_pairs_policy(t, 1, mb_per_sec(5));
    const core::Compile_options options;
    Engine engine(p, t, options);
    const core::Engine_stats before = engine.totals();

    ir::Statement dup;
    dup.id = "t0";
    dup.predicate = ir::pred_true();
    dup.path = ir::path_any_star();
    EXPECT_THROW((void)engine.add_statement(dup), Policy_error);
    EXPECT_THROW((void)engine.remove_statement("nope"), Policy_error);
    EXPECT_THROW((void)engine.set_bandwidth("nope", mbps(1)), Policy_error);
    EXPECT_THROW(
        (void)engine.set_bandwidth("t0", mbps(10), mbps(5)), Policy_error);
    EXPECT_THROW((void)engine.fail_link(topo::LinkId{9999}), Topology_error);
    EXPECT_THROW((void)engine.fail_link("h1", "h2"), Topology_error);

    EXPECT_EQ(engine.totals().incremental_updates,
              before.incremental_updates);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, NegotiatorRedistributeIsBandwidthOnlyFastPath) {
    const topo::Topology t = diamond();
    const core::Addressing addressing(t);
    ir::Policy p;
    for (int i = 0; i < 2; ++i) {
        ir::Statement s;
        s.id = i == 0 ? "a" : "b";
        s.predicate = ir::pred_and(
            addressing.pair_predicate(t.require("h1"), t.require("h2")),
            ir::pred_test("tcp.dst", i == 0 ? 80 : 443));
        s.path = ir::path_any_star();
        p.statements.push_back(s);
    }
    // One aggregate cap over both statements: re-division across them is
    // exactly what the delegation envelope permits (Section 4.1).
    ir::Term pool;
    pool.ids.push_back("a");
    pool.ids.push_back("b");
    p.formula = ir::formula_max(std::move(pool), mbps(200));
    const core::Compile_options options;
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);
    const core::Engine_stats before = engine.totals();

    negotiator::Negotiator root("root", p, core::make_alphabet(t));
    root.drive(&engine);
    const negotiator::Verdict verdict =
        root.redistribute({{"a", mbps(150)}, {"b", mbps(20)}});
    ASSERT_TRUE(verdict.valid) << verdict.reason;

    // Caps re-divided max-min fairly (pool 200: b's demand of 20 is
    // satisfied, a gets its 150, and the 30 left over is split evenly) and
    // pushed into the engine as cap-only deltas: zero automata, zero
    // encodes, zero solves.
    EXPECT_EQ(engine.cap_of("a"), std::optional(mbps(165)));
    EXPECT_EQ(engine.cap_of("b"), std::optional(mbps(35)));
    const core::Engine_stats work = engine.totals().since(before);
    EXPECT_EQ(work.automata_built, 0);
    EXPECT_EQ(work.logical_builds, 0);
    EXPECT_EQ(work.trees_built, 0);
    EXPECT_EQ(work.lp_encodings, 0);
    EXPECT_EQ(work.solves, 0);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, NegotiatorPartitionRefinementReplacesStatements) {
    // A valid refinement may re-partition statement ids (Section 4.1):
    // statement a splits into a1/a2. The drive-sync must retire the old
    // statement before installing the partitions, or the disjointness
    // pre-check would reject a1 against its own stale ancestor.
    const topo::Topology t = diamond();
    const core::Addressing addressing(t);
    const ir::PredPtr pair =
        addressing.pair_predicate(t.require("h1"), t.require("h2"));
    ir::Policy p;
    p.statements.push_back(
        ir::Statement{"a", pair, ir::path_any_star()});
    ir::Term term;
    term.ids.push_back("a");
    p.formula = ir::formula_max(std::move(term), mbps(100));

    const core::Compile_options options;
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);

    negotiator::Negotiator root("root", p, core::make_alphabet(t));
    root.drive(&engine);
    ir::Policy refined;
    const ir::PredPtr web = ir::pred_test("tcp.dst", 80);
    refined.statements.push_back(ir::Statement{
        "a1", ir::pred_and(pair, web), ir::path_any_star()});
    refined.statements.push_back(ir::Statement{
        "a2", ir::pred_and(pair, ir::pred_not(web)), ir::path_any_star()});
    ir::Term t1;
    t1.ids.push_back("a1");
    ir::Term t2;
    t2.ids.push_back("a2");
    refined.formula = ir::formula_and(ir::formula_max(std::move(t1), mbps(60)),
                                      ir::formula_max(std::move(t2), mbps(40)));
    const negotiator::Verdict verdict = root.propose(refined);
    ASSERT_TRUE(verdict.valid) << verdict.reason;
    EXPECT_TRUE(verdict.diagnostics.empty())
        << verdict.diagnostics.front();

    EXPECT_FALSE(engine.has_statement("a"));
    EXPECT_EQ(engine.cap_of("a1"), std::optional(mbps(60)));
    EXPECT_EQ(engine.cap_of("a2"), std::optional(mbps(40)));
    expect_matches_fresh_compile(engine, options);
}

// Link failure/repair equivalence beyond fat trees: the campus core (dual-
// homed zones re-route through the second backbone) and a seeded
// Topology-Zoo graph (irregular degree, random shortcuts). Every delta is
// pinned against a from-scratch compile of the same degraded topology.
TEST(Engine, FailRestoreEquivalenceOnCampus) {
    const topo::Topology t = topo::campus(8);
    const ir::Policy p = bench::all_pairs_policy(t, 3, mb_per_sec(2));
    core::Compile_options options = mip_options();
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);

    // A zone's backbone uplink: the dual-homed zone must re-route through
    // the other backbone switch.
    const auto uplink = t.link_between(t.require("z0"), t.require("bbra"));
    ASSERT_TRUE(uplink.has_value());
    ASSERT_TRUE(engine.fail_link(*uplink).feasible);
    expect_matches_fresh_compile(engine, options);

    // The backbone interconnect on top of it.
    const auto backbone = t.link_between(t.require("bbra"), t.require("bbrb"));
    ASSERT_TRUE(backbone.has_value());
    ASSERT_TRUE(engine.fail_link(*backbone).feasible);
    expect_matches_fresh_compile(engine, options);

    ASSERT_TRUE(engine.restore_link(*uplink).feasible);
    expect_matches_fresh_compile(engine, options);
    ASSERT_TRUE(engine.restore_link(*backbone).feasible);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, FailRestoreEquivalenceOnZoo) {
    Rng rng(7);
    const topo::Topology t = topo::zoo_topology(10, rng);
    const ir::Policy p = bench::all_pairs_policy(t, 2, mb_per_sec(2));
    core::Compile_options options = mip_options();
    Engine engine(p, t, options);
    ASSERT_TRUE(engine.current().feasible);

    // Walk every switch-switch link: fail, pin equivalence (feasible or
    // not — zoo graphs have cut edges, and the infeasible publish must
    // match the batch compiler's too), restore, pin again.
    int exercised = 0;
    for (topo::LinkId l = 0; l < t.link_count() && exercised < 4; ++l) {
        const topo::Link& link = t.link(l);
        if (t.node(link.a).kind == topo::Node_kind::host ||
            t.node(link.b).kind == topo::Node_kind::host)
            continue;
        ++exercised;
        (void)engine.fail_link(l);
        expect_matches_fresh_compile(engine, options);
        const Update_result restored = engine.restore_link(l);
        EXPECT_TRUE(restored.feasible);
        expect_matches_fresh_compile(engine, options);
    }
    EXPECT_GT(exercised, 0);
}

TEST(Engine, PromotionFailureRestoresCapToo) {
    // A promotion that throws (the path cannot be compiled over the full
    // location alphabet) must leave the statement exactly as it was —
    // including the cap written alongside the attempted guarantee.
    const topo::Topology t = diamond();
    core::Compile_options options;
    options.check_disjoint = false;
    Engine engine(diamond_policy(t, mbps(50)), t, options);

    ir::Statement bad;
    bad.id = "bad";
    bad.predicate = ir::pred_test("tcp.dst", 99);
    bad.path = ir::path_symbol("no-such-location");
    (void)engine.add_statement(bad, {}, mbps(40));
    ASSERT_EQ(engine.cap_of("bad"), std::optional(mbps(40)));

    EXPECT_THROW((void)engine.set_bandwidth("bad", mbps(10)), Policy_error);
    EXPECT_EQ(engine.guarantee_of("bad"), Bandwidth{});
    EXPECT_EQ(engine.cap_of("bad"), std::optional(mbps(40)));
    expect_matches_fresh_compile(engine, options);
}

// ------------------------------- transactional rollback & the hook contract

TEST(Engine, RefusedDeltasAreStronglyExceptionSafe) {
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(50)), t, options);
    int hook_calls = 0;
    engine.on_publish(
        [&](const Compilation&, const topo::Topology&) { ++hook_calls; });
    ASSERT_EQ(hook_calls, 1);  // registration replays the live state once
    const Compilation before = engine.current();
    const std::uint64_t generation = engine.generation();

    EXPECT_THROW((void)engine.set_bandwidth("zzz", mbps(5)), Error);
    ir::Statement duplicate;
    duplicate.id = "g";  // already present
    duplicate.predicate = ir::pred_test("tcp.dst", 80);
    duplicate.path = ir::path_any_star();
    EXPECT_THROW((void)engine.add_statement(duplicate, mbps(1), std::nullopt),
                 Error);
    EXPECT_THROW((void)engine.remove_statement("zzz"), Error);
    EXPECT_THROW((void)engine.fail_link("s1", "nope"), Error);

    // Not one byte of published state moved, the generation is pinned, and
    // no consumer heard about any of it.
    EXPECT_EQ(engine.generation(), generation);
    EXPECT_EQ(hook_calls, 1);
    expect_equivalent(engine.current(), before);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, CheckpointRestoreRewindsEverythingAndFiresNoHook) {
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(50)), t, options);
    int hook_calls = 0;
    engine.on_publish(
        [&](const Compilation&, const topo::Topology&) { ++hook_calls; });
    const Compilation before = engine.current();
    const std::uint64_t generation = engine.generation();
    const Engine::Checkpoint saved = engine.checkpoint();

    ASSERT_TRUE(engine.set_bandwidth("g", mbps(200)).feasible);
    ASSERT_TRUE(engine.fail_link("s1", "s2").feasible);
    ASSERT_EQ(hook_calls, 3);

    engine.restore(saved);
    // The rewind is complete — policy, link states, generation — and
    // silent: shadow-apply callers rewind their own hook-fed consumers.
    EXPECT_EQ(engine.generation(), generation);
    EXPECT_EQ(hook_calls, 3);
    const auto link =
        engine.topology().link_between(engine.topology().require("s1"),
                                       engine.topology().require("s2"));
    ASSERT_TRUE(link);
    EXPECT_TRUE(engine.topology().link_up(*link));
    expect_equivalent(engine.current(), before);
    expect_matches_fresh_compile(engine, options);

    // The engine stays fully functional after a restore (the LP skeleton
    // was dropped, so this re-encodes lazily).
    ASSERT_TRUE(engine.set_bandwidth("g", mbps(120)).feasible);
    EXPECT_EQ(hook_calls, 4);
    expect_matches_fresh_compile(engine, options);
}

TEST(Engine, RefusedAndRestoredDeltaLeavesNoSolverState) {
    // A refused delta is rewound with restore(), which drops the LP
    // skeleton. Nothing of the solver survives it: the next solve
    // re-encodes, starts from the crash basis and does exactly the work of
    // a fresh compile.
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(50)), t, options);

    const Engine::Checkpoint saved = engine.checkpoint();
    // 600 Mbps is wider than every switch link: the crash search refuses it
    // without an LP and names the statement.
    const Update_result refused = engine.set_bandwidth("g", mbps(600));
    ASSERT_FALSE(refused.feasible);
    EXPECT_TRUE(refused.solver_run);
    EXPECT_FALSE(refused.warm_started);
    EXPECT_EQ(refused.diagnostic, "statement 'g' needs " +
                                      to_string(mbps(600)) +
                                      " but every path crosses a narrower "
                                      "or failed link");
    EXPECT_TRUE(engine.current().provision.proven_infeasible);
    EXPECT_STREQ(engine.current().provision.root_start, "none");
    EXPECT_EQ(engine.current().provision.simplex_iterations, 0);
    expect_matches_fresh_compile(engine, options);
    engine.restore(saved);
    const Update_result retune = engine.set_bandwidth("g", mbps(120));
    ASSERT_TRUE(retune.feasible);
    EXPECT_EQ(retune.work.lp_encodings, 1);
    EXPECT_TRUE(retune.warm_started);
    EXPECT_STREQ(engine.current().provision.root_start, "crash");
    expect_matches_fresh_compile(engine, options);

    // A link delta after a refusal re-encodes and starts the same way.
    const Engine::Checkpoint again = engine.checkpoint();
    ASSERT_FALSE(engine.set_bandwidth("g", mbps(600)).feasible);
    engine.restore(again);
    const Update_result failed = engine.fail_link("s1", "s2");
    ASSERT_TRUE(failed.feasible);
    EXPECT_EQ(failed.work.lp_encodings, 1);
    EXPECT_TRUE(failed.warm_started);
    expect_matches_fresh_compile(engine, options);
}

// `.* <location> .*`
ir::PathPtr waypoint_path(const std::string& location) {
    return ir::path_seq(
        ir::path_seq(ir::path_any_star(), ir::path_symbol(location)),
        ir::path_any_star());
}

// A perfbench-shaped tenant policy on fat_tree(4): `count` statements on
// distinct host pairs, each pinned by its pair and a tcp.dst port; every
// fifth from the third on is guaranteed at 1-50 Mbps times `scale`, and
// every tenth from the sixth on takes a `.* cN .*` waypoint path.
ir::Policy tenant_policy(const topo::Topology& t, Rng& rng, int count,
                         int scale) {
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    std::set<std::pair<topo::NodeId, topo::NodeId>> used;
    ir::Policy policy;
    for (int n = 0; n < count; ++n) {
        topo::NodeId src = 0;
        topo::NodeId dst = 0;
        do {
            src = hosts[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(hosts.size()) - 1))];
            dst = hosts[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(hosts.size()) - 1))];
        } while (src == dst || used.contains({src, dst}));
        used.emplace(src, dst);
        ir::Statement s;
        s.id = indexed("s", n);
        s.predicate = ir::pred_and(addressing.pair_predicate(src, dst),
                                   ir::pred_test("tcp.dst", 8000 + n));
        s.path = n % 10 == 5 ? waypoint_path(indexed("c", n / 10 % 4))
                             : ir::path_any_star();
        policy.statements.push_back(std::move(s));
        if (n % 5 != 2) continue;
        ir::Term term;
        term.ids.push_back(indexed("s", n));
        const auto leaf = ir::formula_min(
            std::move(term), mbps(static_cast<std::uint64_t>(
                                 rng.uniform(1, 50) * scale)));
        policy.formula =
            policy.formula ? ir::formula_and(policy.formula, leaf) : leaf;
    }
    return policy;
}

TEST(Engine, RetuneStreamSolvesExactlyLikeABatchCompile) {
    // The perfbench `retune` mix at 1x and 9x rates on 32 tenants: rate
    // retunes, core-link failures and repairs, over-capacity retunes and
    // rolled-back deltas, each step undone with restore() when it comes
    // out infeasible, as the daemon does. After every step the engine's
    // solve must be a batch compile's bit for bit — paths, objective,
    // r_max, R_max and the simplex work — because both start from the
    // crash basis of bit-identical encodings.
    const topo::Topology t = topo::fat_tree(4);
    std::vector<topo::LinkId> uplinks;
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        if (t.node(t.link(l).a).name[0] == 'c' ||
            t.node(t.link(l).b).name[0] == 'c')
            uplinks.push_back(l);
    ASSERT_FALSE(uplinks.empty());
    const core::Compile_options options;
    for (const int scale : {1, 9}) {
        Rng rng(static_cast<std::uint64_t>(411 + scale));
        Engine engine(tenant_policy(t, rng, 32, scale), t, options);
        ASSERT_TRUE(engine.current().feasible) << scale;
        ASSERT_STREQ(engine.current().provision.solver, "mip");
        std::vector<std::string> guaranteed;
        for (const core::Statement_plan& plan : engine.current().plans)
            if (plan.guaranteed()) guaranteed.push_back(plan.statement.id);
        std::set<topo::LinkId> failed;
        int infeasible = 0;
        int rolled_back = 0;
        for (int step = 0; step < 40; ++step) {
            SCOPED_TRACE(indexed("scale", scale) + ' ' +
                         indexed("step", step));
            const Engine::Checkpoint saved = engine.checkpoint();
            Update_result result;
            topo::LinkId link = topo::kNoLink;
            if (step % 8 == 7 && !failed.empty()) {
                link = *failed.begin();
                result = engine.restore_link(link);
            } else if (step % 4 == 3) {
                do {
                    link = uplinks[static_cast<std::size_t>(rng.uniform(
                        0, static_cast<std::int64_t>(uplinks.size()) - 1))];
                } while (failed.contains(link));
                result = engine.fail_link(link);
            } else {
                const std::string& id =
                    guaranteed[static_cast<std::size_t>(rng.uniform(
                        0,
                        static_cast<std::int64_t>(guaranteed.size()) - 1))];
                const auto rate =
                    step % 20 == 10
                        ? 5000
                        : static_cast<std::uint64_t>(rng.uniform(1, 100) *
                                                     scale);
                result = engine.set_bandwidth(id, mbps(rate));
            }
            expect_matches_fresh_compile(engine, options);
            // An infeasible delta is undone, and so is every seventh
            // feasible one, as when a later gate refuses it.
            if (!result.feasible || step % 7 == 6) {
                ++(result.feasible ? rolled_back : infeasible);
                engine.restore(saved);
                expect_matches_fresh_compile(engine, options);
            } else if (link != topo::kNoLink && !failed.erase(link)) {
                failed.insert(link);
            }
        }
        EXPECT_GT(infeasible, 0) << scale;
        EXPECT_GT(rolled_back, 0) << scale;
    }
}

TEST(Engine, PersistentPoolCompilesLikeOneThread) {
    // One engine fans out over its own pool (4 jobs) across 48 deltas: 24
    // core-link failures and repairs, which rebuild every sink tree, and
    // best-effort waypoint statements, whose new classes build their
    // trees. Another runs every loop inline. Their compilations must agree
    // after every delta.
    const topo::Topology t = topo::fat_tree(4);
    const ir::Policy p = bench::all_pairs_policy(t, 6, mb_per_sec(1));
    core::Compile_options pooled_options = mip_options();
    pooled_options.jobs = 4;
    pooled_options.check_disjoint = false;  // `web` refines a pair's class
    core::Compile_options inline_options = pooled_options;
    inline_options.jobs = 1;
    Engine pooled(p, t, pooled_options);
    Engine single(p, t, inline_options);
    EXPECT_EQ(pooled.current().threads_used, 4);
    EXPECT_EQ(single.current().threads_used, 1);
    expect_equivalent(pooled.current(), single.current());

    int deltas = 0;
    const auto both = [&](const auto& delta) {
        for (Engine* engine : {&pooled, &single})
            ASSERT_TRUE(delta(*engine).feasible);
        expect_equivalent(pooled.current(), single.current());
        ++deltas;
    };
    std::vector<topo::LinkId> core_links;
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        if (t.node(t.link(l).a).kind != topo::Node_kind::host &&
            t.node(t.link(l).b).kind != topo::Node_kind::host)
            core_links.push_back(l);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    for (std::size_t i = 0; i < 12; ++i) {
        const topo::LinkId link = core_links[i * 3 % core_links.size()];
        both([&](Engine& e) { return e.fail_link(link); });
        ir::Statement web;
        web.id = "web";
        web.predicate = ir::pred_and(
            addressing.pair_predicate(hosts[i], hosts[i + 1]),
            ir::pred_test("tcp.dst", 80));
        web.path = waypoint_path(indexed("c", static_cast<int>(i % 4)));
        both([&](Engine& e) { return e.add_statement(web); });
        both([&](Engine& e) { return e.restore_link(link); });
        both([&](Engine& e) { return e.remove_statement("web"); });
    }
    EXPECT_EQ(deltas, 48);
    expect_matches_fresh_compile(pooled, pooled_options);
}

TEST(Engine, PublishHookFiresOncePerCompletedDeltaIncludingInfeasible) {
    const topo::Topology t = diamond();
    const core::Compile_options options = mip_options();
    Engine engine(diamond_policy(t, mbps(50)), t, options);
    std::vector<std::pair<std::uint64_t, bool>> published;
    engine.on_publish([&](const Compilation& c, const topo::Topology&) {
        published.emplace_back(engine.generation(), c.feasible);
    });
    ASSERT_EQ(published.size(), 1u);

    ASSERT_TRUE(engine.set_bandwidth("g", mbps(100)).feasible);
    // 600 Mbps exceeds both disjoint paths: the delta *completes* with an
    // infeasible compilation, so it publishes (and the hook fires) — only
    // thrown refusals are silent.
    ASSERT_FALSE(engine.set_bandwidth("g", mbps(600)).feasible);
    ASSERT_EQ(published.size(), 3u);
    EXPECT_EQ(published[1], (std::pair<std::uint64_t, bool>{2, true}));
    EXPECT_EQ(published[2], (std::pair<std::uint64_t, bool>{3, false}));
}

// ------------------------------------------------ disjointness pre-check

// The reference rule: one shared DAG over every statement, where every
// co-matched pair is an error. Returns the smallest such pair.
std::optional<std::pair<std::size_t, std::size_t>> smallest_reportable_pair(
    const ir::Policy& policy) {
    std::vector<ir::PredPtr> preds;
    for (const ir::Statement& s : policy.statements)
        preds.push_back(s.predicate);
    pred::Analyzer analyzer;
    const pred::Classifier classifier(analyzer, preds);
    std::optional<std::pair<std::size_t, std::size_t>> first;
    // Terminal sets ascend, so a set's two smallest members are its
    // smallest pair.
    for (const auto& set : classifier.match_sets()) {
        if (set.size() < 2) continue;
        const std::pair<std::size_t, std::size_t> pair{set[0], set[1]};
        if (!first || pair < *first) first = pair;
    }
    return first;
}

// Statements pinned by eth pair, by eth.src alone, or by ip pair, plus
// unpinned ones, over four hosts and five ports: overlaps land inside
// endpoint buckets, across them (an ip pair and an eth pair can match the
// same packet) and against the unpinned statements.
ir::Policy mixed_pinning_policy(const topo::Topology& t, Rng& rng) {
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    const auto host = [&] {
        return hosts[static_cast<std::size_t>(rng.uniform(0, 3))];
    };
    ir::Policy policy;
    const int statements = static_cast<int>(rng.uniform(3, 9));
    for (int k = 0; k < statements; ++k) {
        const std::int64_t shape = rng.uniform(0, 3);
        const topo::NodeId src = host();
        const topo::NodeId dst = host();
        ir::PredPtr predicate;  // unpinned unless the shape pins
        if (shape == 0) predicate = addressing.pair_predicate(src, dst);
        if (shape == 1)
            predicate = ir::pred_test("eth.src", addressing.mac(src));
        if (shape == 2)
            predicate =
                ir::pred_and(ir::pred_test("ip.src", addressing.ip(src)),
                             ir::pred_test("ip.dst", addressing.ip(dst)));
        // Ports 80..84, or any port (5); an unpinned statement always
        // tests one.
        const std::int64_t port = rng.uniform(0, 5);
        if (port < 5 || !predicate) {
            const ir::PredPtr test = ir::pred_test(
                "tcp.dst", static_cast<std::uint64_t>(port < 5 ? 80 + port
                                                               : 443));
            predicate = predicate ? ir::pred_and(predicate, test) : test;
        }
        ir::Statement s;
        s.id = indexed("s", k);
        s.predicate = predicate;
        s.path = ir::path_any_star();
        policy.statements.push_back(std::move(s));
    }
    return policy;
}

TEST(Engine, BucketedDisjointnessCheckMatchesTheSharedDagRule) {
    const topo::Topology t = topo::fat_tree(4);
    Rng rng(41);
    int accepted = 0;
    int refused = 0;
    for (int trial = 0; trial < 240; ++trial) {
        const ir::Policy p = mixed_pinning_policy(t, rng);
        const auto want = smallest_reportable_pair(p);
        try {
            const Engine engine(p, t, {});
            EXPECT_FALSE(want) << "trial " << trial << ": "
                               << p.statements[want->first].id << " and "
                               << p.statements[want->second].id;
            ++accepted;
        } catch (const Policy_error& e) {
            ASSERT_TRUE(want) << "trial " << trial << ": " << e.what();
            EXPECT_EQ(std::string(e.what()),
                      "statements '" + p.statements[want->first].id +
                          "' and '" + p.statements[want->second].id +
                          "' have overlapping predicates")
                << "trial " << trial;
            ++refused;
        }
    }
    // Both verdicts are exercised.
    EXPECT_GE(accepted, 20);
    EXPECT_GE(refused, 20);
}

TEST(Engine, AllPairsPreCheckCompilesNoPredicate) {
    // Every all-pairs statement pins its own endpoint pair, so every bucket
    // is a singleton and the pre-check has nothing to compile.
    const topo::Topology t = topo::fat_tree(4);
    const Engine engine(bench::all_pairs_policy(t, 1, mb_per_sec(5)), t, {});
    EXPECT_EQ(engine.totals().predicate_compiles, 0);
    EXPECT_EQ(engine.totals().bdd_nodes, 2);  // the two terminals
    EXPECT_EQ(engine.totals().disjoint_dag_statements, 0);
    EXPECT_EQ(engine.totals().disjoint_wildcard_tests, 0);
}

TEST(Engine, IpAllPairsPreCheckPivotsOnIpAndCompilesNoPredicate) {
    // More statements test both IP fields than both MAC fields, so the key
    // is (ip.src, ip.dst) and every bucket is again a singleton.
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    ir::Policy p;
    for (const topo::NodeId src : t.hosts())
        for (const topo::NodeId dst : t.hosts()) {
            if (src == dst) continue;
            ir::Statement s;
            s.id = indexed("t", static_cast<long long>(p.statements.size()));
            s.predicate =
                ir::pred_and(ir::pred_test("ip.src", addressing.ip(src)),
                             ir::pred_test("ip.dst", addressing.ip(dst)));
            s.path = ir::path_any_star();
            p.statements.push_back(std::move(s));
        }
    const Engine engine(p, t, {});
    EXPECT_EQ(engine.totals().predicate_compiles, 0);
    EXPECT_EQ(engine.totals().disjoint_dag_statements, 0);
    EXPECT_EQ(engine.totals().disjoint_wildcard_tests, 0);
}

ir::Statement statement(const std::string& id, ir::PredPtr predicate) {
    return ir::Statement{id, std::move(predicate), ir::path_any_star()};
}

// Both the batch pre-check and an add_statement delta refuse `a` and `b`
// together, naming the pair; the refused delta publishes nothing.
void expect_overlap_refused(const topo::Topology& t, const ir::Statement& a,
                            const ir::Statement& b) {
    const std::string message =
        "statements 'a' and 'b' have overlapping predicates";
    ir::Policy both;
    both.statements = {a, b};
    try {
        const Engine engine(both, t, {});
        ADD_FAILURE() << "batch compile accepted the overlap";
    } catch (const Policy_error& e) {
        EXPECT_EQ(std::string(e.what()), message);
    }
    ir::Policy first;
    first.statements = {a};
    Engine engine(first, t, {});
    const std::uint64_t generation = engine.generation();
    try {
        (void)engine.add_statement(b);
        ADD_FAILURE() << "add_statement accepted the overlap";
    } catch (const Policy_error& e) {
        EXPECT_EQ(std::string(e.what()), message);
    }
    EXPECT_EQ(engine.generation(), generation);
    EXPECT_FALSE(engine.has_statement("b"));
}

TEST(Engine, PreCheckRefusesAHalfPinnedOverlap) {
    // `a` pins only eth.src; `b` pins the pair. Their inferred host pairs
    // differ, yet a packet from the first host to the second matches both.
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    expect_overlap_refused(
        t, statement("a", ir::pred_test("eth.src", addressing.mac(hosts[0]))),
        statement("b", addressing.pair_predicate(hosts[0], hosts[1])));
}

TEST(Engine, PreCheckRefusesPinsThroughDifferentFields) {
    // `a` pins its destination by ip.dst, `b` by eth.dst: both infer a full
    // host pair, and the pairs differ, but the fields are independent.
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    expect_overlap_refused(
        t,
        statement("a", ir::pred_and(
                           ir::pred_test("eth.src", addressing.mac(hosts[0])),
                           ir::pred_test("ip.dst", addressing.ip(hosts[1])))),
        statement("b", addressing.pair_predicate(hosts[0], hosts[2])));
}

TEST(Engine, PreCheckCountsItsDagAndWildcardWork) {
    const topo::Topology t = topo::fat_tree(4);
    const core::Addressing addressing(t);
    const auto hosts = t.hosts();
    const auto pair = [&](std::size_t src, std::size_t dst) {
        return addressing.pair_predicate(hosts[src], hosts[dst]);
    };
    const auto port = [](std::uint64_t value) {
        return ir::pred_test("tcp.dst", value);
    };
    ir::Policy p;
    p.statements = {
        statement("k0", pair(0, 1)),
        statement("k1", pair(0, 2)),
        // One key, split by port: a bucket of two.
        statement("k2", ir::pred_and(pair(0, 3), port(80))),
        statement("k3", ir::pred_and(pair(0, 3), port(22))),
        // Half-pinned, and pinned through ip.dst: wildcards.
        statement("w0", ir::pred_test("eth.src", addressing.mac(hosts[4]))),
        statement("w1",
                  ir::pred_and(
                      ir::pred_test("eth.src", addressing.mac(hosts[5])),
                      ir::pred_test("ip.dst", addressing.ip(hosts[6])))),
    };
    Engine engine(p, t, {});
    // The bucket and the two wildcards went through DAGs; each of the four
    // keyed statements was tested against the wildcards' OR.
    EXPECT_EQ(engine.totals().disjoint_dag_statements, 4);
    EXPECT_EQ(engine.totals().disjoint_wildcard_tests, 4);

    // A fresh keyed statement is tested against the wildcards once, and
    // against its own key's bucket (empty here); no DAG.
    const Update_result keyed =
        engine.add_statement(statement("k4", pair(7, 8)));
    EXPECT_EQ(keyed.work.disjoint_dag_statements, 0);
    EXPECT_EQ(keyed.work.disjoint_wildcard_tests, 1);
    // A fresh wildcard is tested against every statement directly.
    const Update_result wildcard = engine.add_statement(
        statement("w2", ir::pred_test("eth.src", addressing.mac(hosts[9]))));
    EXPECT_EQ(wildcard.work.disjoint_dag_statements, 0);
    EXPECT_EQ(wildcard.work.disjoint_wildcard_tests, 0);
    EXPECT_EQ(engine.totals().disjoint_dag_statements, 4);
    EXPECT_EQ(engine.totals().disjoint_wildcard_tests, 5);
}

TEST(Engine, PredicateMemoryStaysFlatAcrossLongDeltaChurn) {
    // 1000 deltas, each cycle introducing predicates the engine has never
    // seen: without the vacuum threshold the BDD space (dead unique-table
    // entries included) grows without bound. The gauge must stay at or
    // below kBddVacuumNodeLimit at every publication, with at least one
    // vacuum actually performed, and the memo counters must keep
    // per-delta compilation bounded by the *new* predicate texts.
    const topo::Topology t = topo::fat_tree(2);
    ir::Policy p;
    ir::Statement base;
    base.id = "base";
    base.predicate = ir::pred_test("tcp.dst", 1);
    base.path = ir::path_any_star();
    p.statements.push_back(base);
    Engine engine(p, t, {});
    ASSERT_TRUE(engine.current().feasible);

    for (std::uint64_t i = 0; i < 500; ++i) {
        ir::Statement churn;
        churn.id = "churn";
        // Two fresh ip pairs or-ed together: ~300 new BDD nodes per cycle,
        // disjoint from `base` via the tcp.dst test.
        const std::uint64_t a = 0x0a000000u + 4 * i;
        churn.predicate = ir::pred_and(
            ir::pred_or(ir::pred_and(ir::pred_test("ip.src", a),
                                     ir::pred_test("ip.dst", a + 1)),
                        ir::pred_and(ir::pred_test("ip.src", a + 2),
                                     ir::pred_test("ip.dst", a + 3))),
            ir::pred_test("tcp.dst", 2 + (i % 60000)));
        churn.path = ir::path_any_star();
        ASSERT_TRUE(engine.add_statement(churn).feasible);
        ASSERT_LE(engine.totals().bdd_nodes,
                  static_cast<long long>(core::kBddVacuumNodeLimit));
        ASSERT_TRUE(engine.remove_statement("churn").feasible);
        ASSERT_LE(engine.totals().bdd_nodes,
                  static_cast<long long>(core::kBddVacuumNodeLimit));
    }
    const core::Engine_stats totals = engine.totals();
    EXPECT_EQ(totals.incremental_updates, 1000);
    EXPECT_GE(totals.bdd_vacuums, 1);
    // Compiles are bounded by distinct predicate texts (500 churn + base),
    // plus one demand-driven rebuild of the live predicate per vacuum —
    // repeats within a lifetime come from the memo.
    EXPECT_LE(totals.predicate_compiles, 501 + totals.bdd_vacuums);
    EXPECT_GT(totals.predicate_cache_hits, 0);
}

}  // namespace
