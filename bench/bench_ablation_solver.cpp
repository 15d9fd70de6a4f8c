// Ablation: exact MIP (the paper's formulation) versus the greedy
// sequential provisioner this implementation adds as its scalable mode.
//
// On a k=4 fat tree with an increasing number of guaranteed classes, both
// solvers provision the same requests under the min-max-ratio heuristic.
// Reported per solver: solve time and the achieved maximum link reservation
// fraction r_max (the MIP optimizes it exactly; greedy only approximates it
// through a convex congestion penalty).
//
// Two further ablations cover the column-generation path:
//   - pricing on/off: the restricted master solved over the seed shortest
//     paths only (no pricing, no certificate) versus the full price-in
//     loop, versus the monolithic encoding — isolating what the pricing
//     iterations buy and what they cost;
//   - shard/thread sweep: sharded provisioning of one workload at 1..8
//     worker threads — wall-clock should drop while the answer (and every
//     solver counter) stays bit-identical.
#include <cstdio>

#include "automata/automata.h"
#include "bench_util.h"
#include "core/colgen.h"
#include "core/logical.h"
#include "parser/parser.h"
#include "topo/generators.h"

int main() {
    using namespace merlin;

    std::printf(
        "Ablation — exact MIP vs greedy provisioning (fat tree k=4, "
        "min-max-ratio, 10MB/s guarantees)\n\n");
    std::printf("%10s | %12s %8s %6s | %12s %8s\n", "guaranteed", "mip(ms)",
                "r_max", "nodes", "greedy(ms)", "r_max");

    for (int guaranteed : {2, 4, 6, 8, 10, 12, 14}) {
        const topo::Topology t = topo::fat_tree(4);
        const ir::Policy policy =
            bench::all_pairs_policy(t, guaranteed, mb_per_sec(10));

        core::Compile_options mip_options = bench::scalability_options();
        mip_options.solver = core::Solver::mip;
        mip_options.heuristic = core::Heuristic::min_max_ratio;
        const bench::Stopwatch mip_watch;
        const core::Compilation with_mip =
            core::compile(policy, t, mip_options);
        const double mip_ms = mip_watch.ms();

        core::Compile_options greedy_options = mip_options;
        greedy_options.solver = core::Solver::greedy;
        const bench::Stopwatch greedy_watch;
        const core::Compilation with_greedy =
            core::compile(policy, t, greedy_options);
        const double greedy_ms = greedy_watch.ms();

        std::printf("%10d | %12.1f %8.3f %6d | %12.1f %8.3f\n", guaranteed,
                    mip_ms,
                    with_mip.feasible ? with_mip.provision.r_max : -1,
                    with_mip.provision.mip_nodes, greedy_ms,
                    with_greedy.feasible ? with_greedy.provision.r_max : -1);
    }
    std::printf(
        "\nexpected: identical or near-identical r_max at small sizes (LP "
        "relaxations are integral),\nwith the MIP's solve time growing much "
        "faster than greedy's\n");

    // ----------------------------------------------------- colgen ablation
    // Same requests as compile() would build, constructed directly so the
    // provisioners can be called with explicit Colgen_options.
    std::printf(
        "\nAblation — column generation pricing (fat tree k=4, wsp, "
        "1MB/s guarantees)\n\n");
    std::printf("%10s | %12s %8s %7s | %12s %8s %7s | %12s\n", "guaranteed",
                "no-price(ms)", "columns", "fallbk", "colgen(ms)", "columns",
                "rounds", "full(ms)");
    {
        const topo::Topology t = topo::fat_tree(4);
        const automata::Alphabet alphabet = core::make_alphabet(t);
        auto nfa = automata::remove_epsilon(
            automata::thompson(parser::parse_path(".*"), alphabet));
        nfa = automata::to_nfa(
            automata::minimize(automata::determinize(nfa)));
        const auto hosts = t.hosts();
        const auto make_requests = [&](int n) {
            std::vector<core::Guaranteed_request> requests;
            for (int i = 0; i < n; ++i) {
                core::Guaranteed_request r;
                r.id = indexed("g", i);
                r.rate = mb_per_sec(1);
                const auto src = hosts[static_cast<std::size_t>(
                    i % static_cast<int>(hosts.size()))];
                const auto dst = hosts[static_cast<std::size_t>(
                    (i * 5 + 3) % static_cast<int>(hosts.size()))];
                r.logical = core::build_logical(
                    t, nfa, src, src == dst ? hosts[0] : dst);
                requests.push_back(std::move(r));
            }
            return requests;
        };
        for (int guaranteed : {4, 8, 12, 16}) {
            const auto requests = make_requests(guaranteed);

            core::Colgen_options no_pricing;
            no_pricing.pricing = false;
            no_pricing.allow_fallback = false;
            const bench::Stopwatch seed_watch;
            const core::Provision_result seeded = core::provision_colgen(
                t, requests, core::Heuristic::weighted_shortest_path, {},
                no_pricing);
            const double seed_ms = seed_watch.ms();

            const bench::Stopwatch cg_watch;
            const core::Provision_result cg = core::provision_colgen(
                t, requests, core::Heuristic::weighted_shortest_path, {});
            const double cg_ms = cg_watch.ms();

            const bench::Stopwatch full_watch;
            const core::Provision_result full = core::provision(
                t, requests, core::Heuristic::weighted_shortest_path, {});
            const double full_ms = full_watch.ms();
            (void)full;

            std::printf("%10d | %12.1f %8d %7d | %12.1f %8d %7d | %12.1f\n",
                        guaranteed, seed_ms, seeded.columns_generated,
                        seeded.full_fallbacks, cg_ms, cg.columns_generated,
                        cg.colgen_rounds, full_ms);
        }
    }
    std::printf(
        "\nexpected: pricing-off is cheapest but carries no certificate; "
        "the full pricing loop adds\nfew columns on uncongested workloads "
        "and stays well under the monolithic encoding\n");

    // ------------------------------------------------- shard/thread sweep
    std::printf(
        "\nAblation — sharded provisioning thread sweep (fat tree k=4, "
        "all-pairs, 16 x 1MB/s)\n\n");
    std::printf("%8s | %10s %8s %8s %10s\n", "threads", "wall(ms)", "shards",
                "fallbk", "objective");
    {
        const topo::Topology t = topo::fat_tree(4);
        const ir::Policy policy =
            bench::all_pairs_policy(t, 16, mb_per_sec(1));
        for (int jobs : {1, 2, 4, 8}) {
            core::Compile_options options = bench::scalability_options();
            options.solver = core::Solver::mip;
            options.solver_mode = core::Solver_mode::sharded;
            options.jobs = jobs;
            const bench::Stopwatch watch;
            const core::Compilation c = core::compile(policy, t, options);
            std::printf("%8d | %10.1f %8d %8d %10.4f\n", jobs, watch.ms(),
                        c.provision.shards_used, c.provision.full_fallbacks,
                        c.provision.objective);
        }
    }
    std::printf(
        "\nexpected: identical shards/objective at every thread count "
        "(bit-equal output), wall-clock\nflat-to-falling with threads — the "
        "zone MIPs are small, so the win is bounded by the residual\n");
    return 0;
}
