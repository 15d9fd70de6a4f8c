#include "core/provision.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "core/logical.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "util/rng.h"
#include "util/strings.h"

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
        r.id = indexed("g", i);
        r.rate = rate;
        r.logical =
            build_logical(t, nfa, t.require("h1"), t.require("h2"));
        out.push_back(std::move(r));
    }
    return out;
}

TEST(ProvisionGreedy, MatchesMipOnFigure3) {
    const topo::Topology t = two_paths();
    for (const Heuristic h : {Heuristic::weighted_shortest_path,
                              Heuristic::min_max_ratio,
                              Heuristic::min_max_reserved}) {
        const auto requests = make_requests(t, 2, mb_per_sec(50));
        const Provision_result exact = provision(t, requests, h);
        const Provision_result greedy = provision_greedy(t, requests, h);
        ASSERT_TRUE(exact.feasible);
        ASSERT_TRUE(greedy.feasible);
        // Greedy may not match the exact optimum for min-max-ratio (it
        // commits one path at a time) but must stay capacity-feasible.
        EXPECT_LE(greedy.r_max, 1.0 + 1e-9) << to_string(h);
        if (h == Heuristic::weighted_shortest_path) {
            EXPECT_EQ(exact.paths[0].nodes.size(),
                      greedy.paths[0].nodes.size());
        }
    }
}

TEST(ProvisionGreedy, RespectsCapacitiesUnderLoad) {
    const topo::Topology t = two_paths();
    // 5 x 40MB/s = 200MB/s total; must be split 100 (b1 path) + 100+ (a path).
    const auto requests = make_requests(t, 5, mb_per_sec(40));
    const Provision_result r = provision_greedy(t, requests);
    ASSERT_TRUE(r.feasible);
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(t.link_count()), 0);
    for (const auto& p : r.paths)
        for (topo::LinkId l : p.links)
            reserved[static_cast<std::size_t>(l)] += p.rate.bps();
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        EXPECT_LE(reserved[static_cast<std::size_t>(l)],
                  t.link(l).capacity.bps());
}

TEST(ProvisionGreedy, FailsCleanlyWhenSaturated) {
    const topo::Topology t = two_paths();
    // 500MB/s total demand into 500MB/s of cut capacity with integral paths:
    // 7 x 80MB/s = 560 cannot fit.
    const auto requests = make_requests(t, 7, mb_per_sec(80));
    const Provision_result r = provision_greedy(t, requests);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.proven_infeasible);  // greedy never proves
    EXPECT_FALSE(r.diagnostic.empty());
}

TEST(ProvisionMip, ProvesInfeasibility) {
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 7, mb_per_sec(80));
    const Provision_result r = provision(t, requests);
    EXPECT_FALSE(r.feasible);
    EXPECT_TRUE(r.proven_infeasible);
}

TEST(ProvisionGreedy, LargestFirstOrdering) {
    // A big request that only fits on the fat path must be placed first
    // even when listed last.
    const topo::Topology t = two_paths();
    auto requests = make_requests(t, 2, mb_per_sec(80));
    requests[1].rate = mb_per_sec(300);  // only fits the 400MB/s path
    const Provision_result r = provision_greedy(t, requests);
    ASSERT_TRUE(r.feasible);
    // The 300MB/s path must be the 2-switch (a1,a2) route.
    EXPECT_EQ(r.paths[1].nodes.size(), 4u);
    EXPECT_LE(r.r_max, 1.0 + 1e-9);
}

// An NFV-chain topology whose only compliant route crosses the s1-m1 link
// twice (out to the middlebox and back).
topo::Topology middlebox_spur(Bandwidth spur_capacity) {
    topo::Topology t;
    t.add_host("h1");
    t.add_host("h2");
    t.add_switch("s1");
    t.add_middlebox("m1");
    t.add_link("h1", "s1", gbps(10));
    t.add_link("s1", "m1", spur_capacity);
    t.add_link("s1", "h2", gbps(10));
    return t;
}

Guaranteed_request spur_request(const topo::Topology& t, Bandwidth rate) {
    const automata::Alphabet alphabet = make_alphabet(t);
    const auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".* m1 .*"), alphabet));
    Guaranteed_request r;
    r.id = "chain";
    r.rate = rate;
    r.logical = build_logical(t, nfa, t.require("h1"), t.require("h2"));
    return r;
}

TEST(ProvisionGreedy, DoubleTraversalDoesNotUnderflowResidual) {
    // The spur link affords the rate once but the path crosses it twice:
    // greedy must fail the request, not wrap the unsigned residual to ~2^64
    // and report an oversubscribed link as feasible.
    const topo::Topology t = middlebox_spur(mbps(100));
    const Provision_result r =
        provision_greedy(t, {spur_request(t, mbps(100))});
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.proven_infeasible);
    EXPECT_FALSE(r.diagnostic.empty());
}

TEST(ProvisionGreedy, DoubleTraversalChargesPerOccurrence) {
    // With capacity for both crossings the request fits exactly; the link
    // must be charged once per occurrence.
    const topo::Topology t = middlebox_spur(mbps(200));
    const Provision_result r =
        provision_greedy(t, {spur_request(t, mbps(100))});
    ASSERT_TRUE(r.feasible);
    const topo::LinkId spur = 1;  // added second above
    int occurrences = 0;
    for (const topo::LinkId l : r.paths[0].links)
        if (l == spur) ++occurrences;
    EXPECT_EQ(occurrences, 2);
    EXPECT_NEAR(r.r_max, 1.0, 1e-9);  // 2 x 100 over the 200 Mbps spur
    EXPECT_EQ(r.big_r_max, mbps(200));
}

TEST(ProvisionGreedy, BigRMaxAccumulatesExactBps) {
    // 333333333 bps is not representable after a round-trip through Mbps
    // doubles; truncation used to lose 1 bps per link aggregate. The
    // reported R_max must equal the exact integer sum of committed rates.
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 3, Bandwidth(333'333'333));
    const Provision_result r = provision_greedy(t, requests);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.big_r_max.bps() % 333'333'333ULL, 0ULL);
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(t.link_count()), 0);
    for (const auto& p : r.paths)
        for (topo::LinkId l : p.links)
            reserved[static_cast<std::size_t>(l)] += p.rate.bps();
    const std::uint64_t exact =
        *std::max_element(reserved.begin(), reserved.end());
    EXPECT_EQ(r.big_r_max.bps(), exact);
}

// ---------------------------------------------------------------- crash basis
//
// With warm_start on, a solve starts its root LP from detail::crash_basis,
// one shortest-path tree per request. These tests hold it to a true
// two-phase cold start (warm_start = false builds no crash and ignores
// every root basis).

automata::Nfa path_dfa(const topo::Topology& t, const std::string& path) {
    const auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(path), make_alphabet(t)));
    return automata::to_nfa(automata::minimize(automata::determinize(nfa)));
}

// `count` requests between seeded distinct host pairs at a seeded rate in
// [lo_mbps, hi_mbps]; every fifth goes through a seeded waypoint switch.
std::vector<Guaranteed_request> seeded_requests(const topo::Topology& t,
                                                Rng& rng, int count,
                                                int lo_mbps, int hi_mbps) {
    const auto hosts = t.hosts();
    std::vector<topo::NodeId> switches;
    for (topo::NodeId n = 0; n < t.node_count(); ++n)
        if (t.node(n).kind == topo::Node_kind::switch_) switches.push_back(n);
    const automata::Nfa any = path_dfa(t, ".*");
    const auto pick = [&rng](const std::vector<topo::NodeId>& from) {
        return from[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(from.size()) - 1))];
    };
    std::vector<Guaranteed_request> out;
    for (int i = 0; i < count; ++i) {
        const topo::NodeId src = pick(hosts);
        topo::NodeId dst = src;
        while (dst == src) dst = pick(hosts);
        Guaranteed_request r;
        r.id = indexed("g", i);
        r.rate =
            mbps(static_cast<std::uint64_t>(rng.uniform(lo_mbps, hi_mbps)));
        const automata::Nfa nfa =
            i % 5 == 4
                ? path_dfa(t, ".* " + t.node(pick(switches)).name + " .*")
                : any;
        r.logical = build_logical(t, nfa, src, dst);
        out.push_back(std::move(r));
    }
    return out;
}

mip::Options two_phase_cold() {
    mip::Options o;
    o.warm_start = false;
    return o;
}

// The largest link load ratio of the crash trees: each request's
// shortest path under the encoding's costs, loaded with its rate.
double max_tree_load(const topo::Topology& t,
                     const std::vector<Guaranteed_request>& requests,
                     const Mip_encoding& encoding) {
    const lp::Problem& lp = encoding.problem.relaxation();
    std::vector<double> load(static_cast<std::size_t>(t.link_count()), 0.0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::vector<double> costs;
        for (const int var : encoding.edge_vars[i])
            costs.push_back(lp.upper(var) == 0 ? lp::kInfinity : lp.cost(var));
        const auto& logical = requests[i].logical;
        const auto path = detail::tree_path(
            logical, detail::shortest_path_tree(logical, costs));
        if (!path) continue;
        for (const int e : *path) {
            const auto link = logical.edges[static_cast<std::size_t>(e)].link;
            if (link != topo::kNoLink)
                load[static_cast<std::size_t>(link)] +=
                    requests[i].rate.mbps();
        }
    }
    double worst = 0;
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        worst = std::max(worst, load[static_cast<std::size_t>(l)] /
                                    t.link(l).capacity.mbps());
    return worst;
}

// The objective cost of a provisioned path: its logical edges, recovered
// by walking the request's (deterministic) logical graph along the
// location word and crossed links, then the sink edge.
double path_cost(const Guaranteed_request& request,
                 const std::vector<double>& costs,
                 const Provisioned_path& path) {
    const Logical_topology& logical = request.logical;
    double total = 0;
    graph::Vertex at = logical.source;
    std::size_t next_link = 0;
    const auto step = [&](topo::NodeId location) {
        for (const graph::Edge e : logical.graph.out_edges(at)) {
            const Logical_edge& edge =
                logical.edges[static_cast<std::size_t>(e)];
            if (edge.location != location) continue;
            if (edge.link != topo::kNoLink &&
                (next_link >= path.links.size() ||
                 edge.link != path.links[next_link]))
                continue;
            if (edge.link != topo::kNoLink) ++next_link;
            total += costs[static_cast<std::size_t>(e)];
            at = logical.graph.target(e);
            return true;
        }
        return false;
    };
    for (const topo::NodeId location : path.word)
        if (!step(location)) return lp::kInfinity;
    if (!step(topo::kNoNode) || at != logical.sink) return lp::kInfinity;
    return total;
}

// `got` reaches the cold solve's optimum: the same verdict, the same
// objective, and per request the same path or an exactly tied one (equal
// cost and hop count) — the only freedom a different starting basis has.
void expect_same_optimum(const std::vector<Guaranteed_request>& requests,
                         Heuristic h, const Provision_result& cold,
                         const Provision_result& got, const std::string& what) {
    ASSERT_EQ(got.feasible, cold.feasible) << what;
    EXPECT_EQ(got.proven_infeasible, cold.proven_infeasible) << what;
    if (!cold.feasible) return;
    EXPECT_NEAR(got.objective, cold.objective,
                1e-9 * (1 + std::abs(cold.objective)))
        << what;
    const auto costs = detail::request_costs(requests, h);
    ASSERT_EQ(got.paths.size(), cold.paths.size()) << what;
    for (std::size_t i = 0; i < cold.paths.size(); ++i) {
        const Provisioned_path& a = cold.paths[i];
        const Provisioned_path& b = got.paths[i];
        if (a.word == b.word && a.links == b.links) continue;
        EXPECT_EQ(a.links.size(), b.links.size()) << what << ' ' << a.id;
        const double cost_a = path_cost(requests[i], costs[i], a);
        const double cost_b = path_cost(requests[i], costs[i], b);
        ASSERT_LT(cost_a, lp::kInfinity) << what << ' ' << a.id;
        EXPECT_NEAR(cost_a, cost_b, 1e-9) << what << ' ' << a.id;
    }
}

TEST(ProvisionMip, WarmStartMatchesColdOnFatTree4) {
    // Three inter-pod flows (500/500/600 Mbps) leaving edge switch e0_0
    // through its two 1 Gbps uplinks: fractionally the min-max-ratio
    // relaxation balances them at 0.8, but integrally the best packing is
    // {500,500}|{600} at 1.0 — so branch & bound must branch. Warm-started
    // child nodes (the default) must reach the same incumbent as
    // cold-started ones with strictly less simplex work.
    const topo::Topology t = topo::fat_tree(4);
    const automata::Alphabet alphabet = make_alphabet(t);
    auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".*"), alphabet));
    nfa = automata::to_nfa(automata::minimize(automata::determinize(nfa)));
    std::vector<Guaranteed_request> requests;
    int index = 0;
    for (const std::uint64_t rate : {500, 500, 600}) {
        Guaranteed_request r;
        r.id = indexed("g", index++);
        r.rate = mbps(rate);
        r.logical =
            build_logical(t, nfa, t.require("e0_0"), t.require("e3_0"));
        requests.push_back(std::move(r));
    }

    // The instance is symmetric enough that proving optimality exhausts a
    // large tree; the incumbent itself appears within a few dozen nodes, so
    // cap the search identically for both runs.
    mip::Options warm_opts;
    warm_opts.warm_start = true;
    warm_opts.max_nodes = 300;
    mip::Options cold_opts = warm_opts;
    cold_opts.warm_start = false;
    const Provision_result warm =
        provision(t, requests, Heuristic::min_max_ratio, warm_opts);
    const Provision_result cold =
        provision(t, requests, Heuristic::min_max_ratio, cold_opts);

    ASSERT_TRUE(warm.feasible);
    ASSERT_TRUE(cold.feasible);
    EXPECT_NEAR(warm.r_max, cold.r_max, 1e-6);  // identical incumbents
    EXPECT_NEAR(warm.r_max, 1.0, 1e-6);         // the {500,500}|{600} packing
    EXPECT_GT(cold.mip_nodes, 1);               // branching actually happened
    EXPECT_GT(warm.warm_started_nodes, 0);
    EXPECT_EQ(cold.warm_started_nodes, 0);
    EXPECT_LT(warm.simplex_iterations, cold.simplex_iterations);

    // The default root starts from the shortest-path crash, which sends
    // all three flows up one uplink: 1600 Mbps on a 1 Gbps link, a primal
    // infeasible start. lp::solve repairs it or cold-starts, and
    // root_start must say which.
    const Mip_encoding encoding =
        encode_provisioning(t, requests, Heuristic::min_max_ratio);
    const lp::Basis crash = detail::crash_basis(t, requests, encoding).basis;
    ASSERT_FALSE(crash.empty());
    EXPECT_GT(max_tree_load(t, requests, encoding), 1.0);
    const lp::Solution root =
        lp::solve(encoding.problem.relaxation(), {}, &crash);
    EXPECT_STREQ(warm.root_start, root.stats.warm_started ? "crash" : "cold");
    EXPECT_STREQ(cold.root_start, "cold");
}

constexpr Heuristic kHeuristics[] = {Heuristic::weighted_shortest_path,
                                     Heuristic::min_max_ratio,
                                     Heuristic::min_max_reserved};

TEST(ProvisionCrash, AgreesWithTwoPhaseColdStart) {
    // Seeded instances on three topology families at three loads: light
    // (the crash is feasible and optimal), tight (it often overloads a
    // link) and heavy (often infeasible outright).
    //
    // A light instance that closes at the root is an LP vertex with spare
    // capacity: the crash may only land on an exact jitter tie of the cold
    // optimum. Elsewhere the optimum is start-dependent even between the
    // parent commit's starts: pruning allows gap_tol * (1 + |obj|), and a
    // node LP stops within the simplex optimality tolerance, which R_max's
    // and r_max's capacity-scaled rows turn into up to ~1e-5 of objective
    // (14 jitter quanta on the tight campus instance here). Those
    // instances are held to the solver cross-oracle's 1e-4 relative
    // tolerance. A node-limited search keeps an exploration-order-
    // dependent incumbent, so those instances are not compared (as in the
    // fuzz solver oracle); the sweep must still compare most of them.
    struct Family {
        const char* name;
        topo::Topology topo;
    };
    Rng zoo_rng(4242);
    const Family families[] = {{"fat-tree:4", topo::fat_tree(4)},
                               {"campus", topo::campus()},
                               {"zoo", topo::zoo_topology(20, zoo_rng)}};
    struct Load {
        int requests;
        int lo_mbps;
        int hi_mbps;
    };
    constexpr Load kLoads[] = {{6, 1, 10}, {6, 250, 450}, {5, 300, 700}};
    mip::Options capped;
    capped.max_nodes = 8;
    mip::Options cold_capped = two_phase_cold();
    cold_capped.max_nodes = capped.max_nodes;
    int instances = 0;
    int compared = 0;
    int exact = 0;
    int crash_roots = 0;
    int overloaded = 0;
    int infeasible = 0;
    for (const Family& family : families) {
        for (int seed = 0; seed < 4; ++seed) {
            Rng rng(static_cast<std::uint64_t>(seed + 1) * 7919);
            const Load& load = kLoads[seed % 3];
            const auto requests = seeded_requests(
                family.topo, rng, load.requests, load.lo_mbps, load.hi_mbps);
            for (const Heuristic h : kHeuristics) {
                const std::string what = std::string(family.name) + ' ' +
                                         indexed("seed", seed) + ' ' +
                                         to_string(h);
                ++instances;
                const Mip_encoding encoding =
                    encode_provisioning(family.topo, requests, h);
                const Provision_result cold = solve_encoding(
                    family.topo, requests, encoding, cold_capped);
                const Provision_result got =
                    solve_encoding(family.topo, requests, encoding, capped);
                EXPECT_STREQ(cold.root_start, "cold") << what;
                if (cold.mip_nodes >= capped.max_nodes ||
                    got.mip_nodes >= capped.max_nodes)
                    continue;
                ++compared;
                if (&load == &kLoads[0] && cold.mip_nodes == 1 &&
                    got.mip_nodes == 1) {
                    ++exact;
                    expect_same_optimum(requests, h, cold, got, what);
                } else {
                    ASSERT_EQ(got.feasible, cold.feasible) << what;
                    EXPECT_EQ(got.proven_infeasible, cold.proven_infeasible)
                        << what;
                    EXPECT_NEAR(got.objective, cold.objective,
                                1e-4 * (1 + std::abs(cold.objective)))
                        << what;
                }
                if (std::string_view(got.root_start) == "crash") ++crash_roots;
                if (max_tree_load(family.topo, requests, encoding) > 1.0)
                    ++overloaded;
                if (cold.proven_infeasible) ++infeasible;
            }
        }
    }
    // Every path of the start ran: exact comparisons, crash roots,
    // overloaded crashes and proven infeasibility.
    EXPECT_GE(compared * 10, instances * 8);
    EXPECT_GE(exact, instances / 6);
    EXPECT_GT(crash_roots, 0);
    EXPECT_GT(overloaded, 0);
    EXPECT_GT(infeasible, 0);
    std::printf("compared %d of %d, %d exact, %d crash roots, %d overloaded, "
                "%d infeasible\n",
                compared, instances, exact, crash_roots, overloaded,
                infeasible);
}

TEST(ProvisionCrash, PerfbenchShapedInstanceStartsAtTheOptimum) {
    // The batch-compile shape: a k=4 fat tree, 12 guaranteed host pairs at
    // 1-10 Mbps, some through a waypoint. Under weighted-shortest-path
    // with capacity to spare the crash is already optimal: no phase 1 and
    // at most two pricing rounds.
    const topo::Topology t = topo::fat_tree(4);
    Rng rng(411);
    const auto requests = seeded_requests(t, rng, 12, 1, 10);
    for (const Heuristic h : kHeuristics) {
        const Mip_encoding encoding = encode_provisioning(t, requests, h);
        const lp::Basis crash =
            detail::crash_basis(t, requests, encoding).basis;
        ASSERT_FALSE(crash.empty()) << to_string(h);
        const lp::Solution root =
            lp::solve(encoding.problem.relaxation(), {}, &crash);
        ASSERT_TRUE(root.optimal()) << to_string(h);
        EXPECT_TRUE(root.stats.warm_started) << to_string(h);
        EXPECT_EQ(root.stats.phase1_iterations, 0) << to_string(h);

        const Provision_result got = solve_encoding(t, requests, encoding, {});
        EXPECT_STREQ(got.root_start, "crash") << to_string(h);
        if (h != Heuristic::weighted_shortest_path) continue;
        EXPECT_LE(root.stats.iterations, 2);
        EXPECT_EQ(got.mip_nodes, 1);
        EXPECT_LE(got.simplex_iterations, 2);
        const Provision_result cold =
            solve_encoding(t, requests, encoding, two_phase_cold());
        expect_same_optimum(requests, h, cold, got, to_string(h));
    }
}

TEST(ProvisionCrash, TreeAvoidsAFailedLink) {
    topo::Topology t = topo::fat_tree(4);
    Rng rng(17);
    const auto requests = seeded_requests(t, rng, 8, 1, 10);
    const Provision_result healthy = provision(t, requests);
    ASSERT_TRUE(healthy.feasible);
    // Fail the second link of the first request's shortest path.
    ASSERT_GE(healthy.paths[0].links.size(), 2u);
    const topo::LinkId failed = healthy.paths[0].links[1];
    t.set_link_state(failed, false);

    const Mip_encoding encoding = encode_provisioning(t, requests, {});
    const lp::Basis crash = detail::crash_basis(t, requests, encoding).basis;
    ASSERT_FALSE(crash.empty());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        for (int e = 0; e < logical.graph.edge_count(); ++e) {
            if (logical.edges[static_cast<std::size_t>(e)].link != failed)
                continue;
            const int var = encoding.edge_vars[i][static_cast<std::size_t>(e)];
            EXPECT_EQ(
                std::count(crash.basic.begin(), crash.basic.end(), var), 0)
                << requests[i].id;
        }
    }
    const Provision_result got = solve_encoding(t, requests, encoding, {});
    EXPECT_STREQ(got.root_start, "crash");
    ASSERT_TRUE(got.feasible);
    for (const Provisioned_path& p : got.paths)
        EXPECT_EQ(std::count(p.links.begin(), p.links.end(), failed), 0)
            << p.id;
    const Provision_result cold =
        solve_encoding(t, requests, encoding, two_phase_cold());
    expect_same_optimum(requests, Heuristic::weighted_shortest_path, cold,
                        got, "failed link");
}

TEST(ProvisionCrash, OverSubscriptionTheCrashCannotRepairRunsTwoPhase) {
    // 7 x 80 MB/s share the two h1 ~> h2 routes (400 + 100 MB/s). Each
    // request fits the wide route alone, so the crash search refuses
    // nothing, but its trees load all seven onto that route; the LP cannot
    // repair the overload, and the two-phase start proves infeasibility.
    const topo::Topology t = two_paths();
    const auto requests = make_requests(t, 7, mb_per_sec(80));
    const Mip_encoding encoding = encode_provisioning(t, requests, {});
    const detail::Crash crash = detail::crash_basis(t, requests, encoding);
    ASSERT_FALSE(crash.basis.empty());
    EXPECT_FALSE(crash.unroutable.has_value());
    EXPECT_GT(max_tree_load(t, requests, encoding), 1.0);
    const Provision_result got = solve_encoding(t, requests, encoding, {});
    EXPECT_FALSE(got.feasible);
    EXPECT_TRUE(got.proven_infeasible);
    EXPECT_STREQ(got.root_start, "cold");
    EXPECT_GT(got.simplex_iterations, 0);
    EXPECT_TRUE(got.diagnostic.empty());
}

// ------------------------------------------------------ bottleneck refusal
//
// The crash search skips links that are down or narrower than the
// request's rate; a request whose sink it then cannot reach is refused as
// proven infeasible with no LP run. two_paths() offers h1 ~> h2 a wide
// route (400 MB/s) and a narrow one (100 MB/s).

// One request h1 ~> h2 along `path` at `rate`.
std::vector<Guaranteed_request> one_request(const topo::Topology& t,
                                            Bandwidth rate,
                                            const std::string& path = ".*") {
    Guaranteed_request r;
    r.id = "g";
    r.rate = rate;
    r.logical =
        build_logical(t, path_dfa(t, path), t.require("h1"), t.require("h2"));
    return {std::move(r)};
}

// The request was refused by the crash search: proven infeasible, no root
// LP, no pivots, and a diagnostic naming the statement and its rate.
void expect_refused(const Provision_result& got, Bandwidth rate) {
    EXPECT_FALSE(got.feasible);
    EXPECT_TRUE(got.proven_infeasible);
    EXPECT_STREQ(got.root_start, "none");
    EXPECT_EQ(got.simplex_iterations, 0);
    EXPECT_EQ(got.lp_factorizations, 0);
    EXPECT_EQ(got.mip_nodes, 0);
    EXPECT_EQ(got.diagnostic, "statement 'g' needs " + to_string(rate) +
                                  " but every path crosses a narrower or "
                                  "failed link");
}

TEST(ProvisionRefusal, RateEqualToTheLinkCapacityIsProvisioned) {
    const topo::Topology t = two_paths();
    const Provision_result got = provision(t, one_request(t, mb_per_sec(400)));
    ASSERT_TRUE(got.feasible);
    EXPECT_STREQ(got.root_start, "crash");
    EXPECT_DOUBLE_EQ(got.r_max, 1.0);
    EXPECT_EQ(got.paths[0].nodes.size(), 4u);  // h1 a1 a2 h2
}

TEST(ProvisionRefusal, OneBpsOverTheWidestRouteIsRefusedWithoutAnLp) {
    const topo::Topology t = two_paths();
    const Bandwidth rate(mb_per_sec(400).bps() + 1);
    const auto requests = one_request(t, rate);
    const Mip_encoding encoding = encode_provisioning(t, requests, {});
    const detail::Crash crash = detail::crash_basis(t, requests, encoding);
    EXPECT_TRUE(crash.basis.empty());
    EXPECT_EQ(crash.unroutable, std::optional<std::size_t>(0));
    expect_refused(solve_encoding(t, requests, encoding, {}), rate);
    EXPECT_EQ(to_string(rate), "3200000001bps");
    // The two-phase solve builds no crash and proves the same with an LP.
    const Provision_result cold =
        solve_encoding(t, requests, encoding, two_phase_cold());
    EXPECT_TRUE(cold.proven_infeasible);
    EXPECT_STREQ(cold.root_start, "cold");
    EXPECT_TRUE(cold.diagnostic.empty());
}

TEST(ProvisionRefusal, DownLinkOnTheOnlyWideRouteIsExcluded) {
    // 200 MB/s fits only the wide route; with its a1-a2 link down the
    // narrow route is all that is left.
    topo::Topology t = two_paths();
    const auto requests = one_request(t, mb_per_sec(200));
    ASSERT_TRUE(provision(t, requests).feasible);
    t.set_link_state(*t.link_between(t.require("a1"), t.require("a2")), false);
    expect_refused(provision(t, requests), mb_per_sec(200));
    EXPECT_TRUE(provision(t, requests, {}, two_phase_cold()).proven_infeasible);
    // A rate the narrow route carries is still routed around the failure.
    const Provision_result narrow =
        provision(t, one_request(t, mb_per_sec(100)));
    ASSERT_TRUE(narrow.feasible);
    EXPECT_EQ(narrow.paths[0].nodes.size(), 3u);  // h1 b1 h2
}

TEST(ProvisionRefusal, WaypointPathWhoseOnlyCoreLinkIsNarrowIsRefused) {
    // c hangs off s1 by one 100 Mbps link: `.* c .*` crosses it twice
    // (in and back out), while `.*` avoids c.
    topo::Topology t;
    const auto h1 = t.add_host("h1");
    const auto h2 = t.add_host("h2");
    const auto s1 = t.add_switch("s1");
    const auto s2 = t.add_switch("s2");
    const auto c = t.add_switch("c");
    t.add_link(h1, s1, gbps(1));
    t.add_link(s1, s2, gbps(1));
    t.add_link(s2, h2, gbps(1));
    t.add_link(s1, c, mbps(100));
    ASSERT_TRUE(provision(t, one_request(t, mbps(500))).feasible);
    ASSERT_TRUE(provision(t, one_request(t, mbps(50), ".* c .*")).feasible);
    // 60 Mbps fits each crossing but not both: the LP decides that one.
    const Provision_result both =
        provision(t, one_request(t, mbps(60), ".* c .*"));
    EXPECT_TRUE(both.proven_infeasible);
    EXPECT_STRNE(both.root_start, "none");
    const auto requests = one_request(t, mbps(500), ".* c .*");
    expect_refused(provision(t, requests), mbps(500));
    EXPECT_TRUE(provision(t, requests, {}, two_phase_cold()).proven_infeasible);
}

TEST(ProvisionRefusal, RatesAroundEveryCapacityAgreeWithTwoPhase) {
    // Seeded sets of one to three requests between random host pairs at
    // rates on and around each distinct link capacity. The crash-started
    // solve (with its refusal) and the two-phase solve must reach the same
    // verdict on every instance, and both verdicts must occur.
    struct Family {
        const char* name;
        topo::Topology topo;
    };
    const Family families[] = {{"two_paths", two_paths()},
                               {"campus", topo::campus()}};
    int refused = 0;
    int feasible = 0;
    int instances = 0;
    for (const Family& family : families) {
        const topo::Topology& t = family.topo;
        std::set<std::uint64_t> capacities;
        for (topo::LinkId l = 0; l < t.link_count(); ++l)
            capacities.insert(t.link(l).capacity.bps());
        Rng rng(2027);
        for (const std::uint64_t capacity : capacities) {
            const std::uint64_t rates[] = {capacity / 2, capacity - 1,
                                           capacity, capacity + 1,
                                           capacity + capacity / 2};
            for (const std::uint64_t rate : rates) {
                for (int trial = 0; trial < 3; ++trial) {
                    auto requests = seeded_requests(
                        t, rng, static_cast<int>(rng.uniform(1, 3)), 1, 1);
                    for (Guaranteed_request& r : requests)
                        r.rate = Bandwidth(rate);
                    const std::string what = std::string(family.name) + ' ' +
                                             std::to_string(rate) + "bps " +
                                             indexed("trial", trial);
                    const Mip_encoding encoding =
                        encode_provisioning(t, requests, {});
                    mip::Options capped;
                    capped.max_nodes = 50;
                    mip::Options cold_capped = two_phase_cold();
                    cold_capped.max_nodes = capped.max_nodes;
                    const Provision_result got =
                        solve_encoding(t, requests, encoding, capped);
                    const Provision_result cold =
                        solve_encoding(t, requests, encoding, cold_capped);
                    ++instances;
                    EXPECT_EQ(got.feasible, cold.feasible) << what;
                    EXPECT_EQ(got.proven_infeasible, cold.proven_infeasible)
                        << what;
                    if (std::string_view(got.root_start) == "none") ++refused;
                    if (got.feasible) ++feasible;
                }
            }
        }
    }
    EXPECT_GT(refused, 0);
    EXPECT_GT(feasible, 0);
    std::printf("%d instances: %d feasible, %d refused by the crash search\n",
                instances, feasible, refused);
}

// Property: on random zoo topologies with spread requests, greedy results
// always satisfy Lemma 1 (the word matches `.*` trivially) and capacity.
class GreedyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GreedyProperty, CapacityAndEndpointInvariants) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7321);
    const topo::Topology t = topo::zoo_topology(20, rng);
    const automata::Alphabet alphabet = make_alphabet(t);
    auto nfa = automata::remove_epsilon(
        automata::thompson(parser::parse_path(".*"), alphabet));
    nfa = automata::to_nfa(automata::minimize(automata::determinize(nfa)));

    const auto hosts = t.hosts();
    std::vector<Guaranteed_request> requests;
    for (int i = 0; i < 10; ++i) {
        const auto src = hosts[static_cast<std::size_t>(
            rng.uniform(0, static_cast<int>(hosts.size()) - 1))];
        auto dst = src;
        while (dst == src)
            dst = hosts[static_cast<std::size_t>(
                rng.uniform(0, static_cast<int>(hosts.size()) - 1))];
        Guaranteed_request r;
        r.id = indexed("g", i);
        r.rate = mbps(50);
        r.logical = build_logical(t, nfa, src, dst);
        requests.push_back(std::move(r));
    }
    const Provision_result result = provision_greedy(t, requests);
    if (!result.feasible) return;  // saturation is allowed; no invariant broken
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(t.link_count()), 0);
    for (const auto& p : result.paths) {
        // Path endpoints are hosts, intermediate nodes never are.
        EXPECT_EQ(t.node(p.nodes.front()).kind, topo::Node_kind::host);
        EXPECT_EQ(t.node(p.nodes.back()).kind, topo::Node_kind::host);
        for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i)
            EXPECT_NE(t.node(p.nodes[i]).kind, topo::Node_kind::host);
        for (topo::LinkId l : p.links)
            reserved[static_cast<std::size_t>(l)] += p.rate.bps();
    }
    for (topo::LinkId l = 0; l < t.link_count(); ++l)
        EXPECT_LE(reserved[static_cast<std::size_t>(l)],
                  t.link(l).capacity.bps());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace merlin::core
