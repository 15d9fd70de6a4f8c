// Sharded parallel provisioning: bit-identical output at any thread count,
// objective parity with the full encoding and with column generation, and
// honest fallback accounting when the locality certificate does not close.
#include "core/colgen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codegen/codegen.h"
#include "core/compiler.h"
#include "core/logical.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"

namespace merlin::core {
namespace {

topo::Topology two_paths() {
    return topo::parse_topology(R"(
host h1
host h2
switch a1
switch a2
switch b1
link h1 a1 400MB/s
link a1 a2 400MB/s
link a2 h2 400MB/s
link h1 b1 100MB/s
link b1 h2 100MB/s
)");
}

std::vector<Guaranteed_request> make_requests(const topo::Topology& t, int n,
                                              Bandwidth rate) {
    const automata::Alphabet alphabet = make_alphabet(t);
    auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".*"), alphabet));
    nfa = automata::to_nfa(automata::minimize(automata::determinize(nfa)));
    std::vector<Guaranteed_request> out;
    for (int i = 0; i < n; ++i) {
        Guaranteed_request r;
        r.id = "g" + std::to_string(i);
        r.rate = rate;
        r.logical = build_logical(t, nfa, t.require("h1"), t.require("h2"));
        out.push_back(std::move(r));
    }
    return out;
}

void expect_same_paths(const Provision_result& a, const Provision_result& b) {
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (std::size_t i = 0; i < a.paths.size(); ++i) {
        EXPECT_EQ(a.paths[i].id, b.paths[i].id);
        EXPECT_EQ(a.paths[i].nodes, b.paths[i].nodes);
        EXPECT_EQ(a.paths[i].links, b.paths[i].links);
        EXPECT_EQ(a.paths[i].rate, b.paths[i].rate);
    }
}

Compile_options sharded_options(int jobs) {
    Compile_options o;
    o.solver = Solver::mip;
    o.solver_mode = Solver_mode::sharded;
    o.jobs = jobs;
    return o;
}

// The headline determinism claim: a fat-tree all-pairs policy compiled in
// sharded mode yields the same plans, provisioned paths, and generated
// device code at 1 and at 8 threads.
TEST(Sharded, DeterministicAcrossThreadCounts) {
    const topo::Topology t = topo::fat_tree(4);
    const ir::Policy p = bench::all_pairs_policy(t, 8, mb_per_sec(1));
    const Compilation one = compile(p, t, sharded_options(1));
    const Compilation eight = compile(p, t, sharded_options(8));

    ASSERT_TRUE(one.provision.feasible);
    ASSERT_TRUE(eight.provision.feasible);
    expect_same_paths(one.provision, eight.provision);
    EXPECT_EQ(one.provision.shards_used, eight.provision.shards_used);
    EXPECT_EQ(one.provision.full_fallbacks, eight.provision.full_fallbacks);
    EXPECT_EQ(one.provision.objective, eight.provision.objective);

    ASSERT_EQ(one.plans.size(), eight.plans.size());
    for (std::size_t i = 0; i < one.plans.size(); ++i) {
        EXPECT_EQ(one.plans[i].statement.id, eight.plans[i].statement.id);
        ASSERT_EQ(one.plans[i].path.has_value(),
                  eight.plans[i].path.has_value());
        if (one.plans[i].path) {
            EXPECT_EQ(one.plans[i].path->links, eight.plans[i].path->links);
        }
    }

    // Generated code: byte-identical device configurations.
    EXPECT_EQ(codegen::to_text(codegen::generate(one, t)),
              codegen::to_text(codegen::generate(eight, t)));
}

// two_paths has no hostless-switch core, so the whole topology is one zone:
// every request shards, nothing is left for the residual. Uncongested
// (2 x 40MB/s fits the cheaper route), every request achieves its
// unconstrained shortest path, so the locality certificate closes and the
// sharded answer stands; it must match the monolithic optimum.
TEST(Sharded, SingleZoneMatchesFullObjective) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 2, mb_per_sec(40));
    const Provision_result full = provision(t, requests);
    const Provision_result sh = provision_sharded(t, requests);
    ASSERT_TRUE(full.feasible);
    ASSERT_TRUE(sh.feasible);
    EXPECT_NEAR(sh.objective, full.objective,
                1e-4 * (1 + std::abs(full.objective)));
    EXPECT_STREQ(sh.solver, "sharded");
    EXPECT_EQ(sh.full_fallbacks, 0);
    EXPECT_GE(sh.shards_used, 1);
}

// Congested single zone: the shortest-path certificate cannot close, so the
// sharded entry point must fall back and still land on the full optimum.
TEST(Sharded, CongestedZoneFallsBackToTheGlobalOptimum) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 5, mb_per_sec(40));
    const Provision_result full = provision(t, requests);
    const Provision_result sh = provision_sharded(t, requests);
    ASSERT_TRUE(full.feasible);
    ASSERT_TRUE(sh.feasible);
    EXPECT_NEAR(sh.objective, full.objective,
                1e-4 * (1 + std::abs(full.objective)));
}

TEST(Sharded, FatTreeObjectiveParityAcrossModes) {
    const topo::Topology t = topo::fat_tree(4);
    const automata::Alphabet alphabet = make_alphabet(t);
    auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".*"), alphabet));
    nfa = automata::to_nfa(automata::minimize(automata::determinize(nfa)));
    // Mix of intra-pod (zone-solvable) and cross-pod (residual) requests.
    const auto hosts = t.hosts();
    std::vector<Guaranteed_request> requests;
    const std::vector<std::pair<int, int>> pairs = {
        {0, 1}, {2, 3}, {0, 5}, {7, 2}, {4, 6}, {1, 3}};
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        Guaranteed_request r;
        r.id = "g" + std::to_string(i);
        r.rate = mb_per_sec(2);
        r.logical = build_logical(
            t, nfa, hosts[static_cast<std::size_t>(pairs[i].first)],
            hosts[static_cast<std::size_t>(pairs[i].second)]);
        requests.push_back(std::move(r));
    }
    const Provision_result full = provision(t, requests);
    const Provision_result cg = provision_colgen(t, requests);
    const Provision_result sh = provision_sharded(t, requests);
    ASSERT_TRUE(full.feasible);
    ASSERT_TRUE(cg.feasible);
    ASSERT_TRUE(sh.feasible);
    const double tol = 1e-4 * (1 + std::abs(full.objective));
    EXPECT_NEAR(cg.objective, full.objective, tol);
    EXPECT_NEAR(sh.objective, full.objective, tol);
}

// Infeasible load: sharding cannot certify, falls back, and the proof comes
// from the full encoding — the same verdict full mode reaches.
TEST(Sharded, ReportsTheSameInfeasibility) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 7, mb_per_sec(80));
    const Provision_result full = provision(t, requests);
    const Provision_result sh = provision_sharded(t, requests);
    EXPECT_FALSE(full.feasible);
    EXPECT_TRUE(full.proven_infeasible);
    EXPECT_FALSE(sh.feasible);
    EXPECT_TRUE(sh.proven_infeasible);
    EXPECT_GE(sh.full_fallbacks, 1);
}

// The min-max heuristics do not decompose across shards; the sharded entry
// point must delegate whole-instance (and still answer correctly).
TEST(Sharded, MinMaxDelegatesToColgen) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 2, mb_per_sec(50));
    for (const Heuristic h :
         {Heuristic::min_max_ratio, Heuristic::min_max_reserved}) {
        const Provision_result full = provision(t, requests, h);
        const Provision_result sh = provision_sharded(t, requests, h);
        ASSERT_TRUE(full.feasible) << to_string(h);
        ASSERT_TRUE(sh.feasible) << to_string(h);
        EXPECT_NEAR(sh.objective, full.objective,
                    1e-4 * (1 + std::abs(full.objective)))
            << to_string(h);
    }
}

}  // namespace
}  // namespace merlin::core
