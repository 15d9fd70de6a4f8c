// Guaranteed-rate provisioning (Section 3.2): the MIP over logical
// topologies with constraints (1)-(5) and the three path-selection
// heuristics of Figure 3.
//
//   (1) flow conservation: one s_i ~> t_i unit path per statement
//   (2) r_uv * c_uv = sum_i sum_{e in E_i(u,v)} rmin_i * x_e
//   (3) r_max >= r_uv             (4) R_max >= r_uv * c_uv
//   (5) r_max <= 1                (via the bound r_uv in [0,1])
//
// Objectives:
//   weighted_shortest_path : min sum_i sum_link-edges rmin_i * x_e
//   min_max_ratio          : min r_max
//   min_max_reserved       : min R_max
// A small epsilon * sum x_e term is always added so optima never contain
// gratuitous cycles and ties break toward short paths.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/logical.h"
#include "mip/mip.h"
#include "util/units.h"

namespace merlin::core {

enum class Heuristic {
    weighted_shortest_path,
    min_max_ratio,
    min_max_reserved,
};

[[nodiscard]] const char* to_string(Heuristic h);

struct Guaranteed_request {
    std::string id;
    Logical_topology logical;
    Bandwidth rate;  // rmin_i; zero means "routed by the MIP, no reservation"
};

struct Placement {
    std::string function;
    topo::NodeId location;

    friend bool operator==(const Placement&, const Placement&) = default;
};

struct Provisioned_path {
    std::string id;
    // Location word satisfying the statement's expression (Lemma 1);
    // consecutive repeats mark multiple functions at one location.
    std::vector<topo::NodeId> word;
    // Physical node path (word with consecutive repeats collapsed).
    std::vector<topo::NodeId> nodes;
    std::vector<topo::LinkId> links;  // links crossed, in order
    std::vector<Placement> placements;
    Bandwidth rate;
};

struct Provision_result {
    bool feasible = false;
    // True only when infeasibility was *proved* (exact solver); the greedy
    // provisioner can fail on feasible instances.
    bool proven_infeasible = false;
    const char* solver = "none";  // "mip" or "greedy"
    std::string diagnostic;       // reason when feasible == false
    std::vector<Provisioned_path> paths;
    double r_max = 0;     // max fraction of any link reserved
    Bandwidth big_r_max;  // max bandwidth reserved on any link
    // Statistics for Table 7 / Figure 8.
    int variables = 0;
    int constraints = 0;
    int mip_nodes = 0;
    // LP work underneath the MIP (zero for the greedy solver).
    long long simplex_iterations = 0;
    int lp_factorizations = 0;
    int warm_started_nodes = 0;
    // Which basis the root LP of the full encoding started from: "crash"
    // (the per-request shortest-path basis of detail::crash_basis) or
    // "cold" (two-phase from the all-artificial basis: the crash was
    // rejected, or mip::Options::warm_start is off). "none" when no
    // full-encoding root LP ran (greedy, certified colgen, or a request the
    // crash search proved unroutable).
    const char* root_start = "none";
    // Heuristic objective value of the selected solution (0 when
    // infeasible or solved greedily). All solver modes minimize the same
    // function, so values are directly comparable across full / colgen /
    // sharded runs.
    double objective = 0;
    // Column-generation / sharding work counters (zero outside those
    // modes). `lp_bound` is the column-generation dual bound — equal to
    // the full encoding's LP relaxation optimum once pricing converges.
    double lp_bound = 0;
    int colgen_rounds = 0;
    int columns_generated = 0;
    int shards_used = 0;
    // Number of times a certified mode had to re-solve with the full
    // encoding because its optimality certificate did not close.
    int full_fallbacks = 0;
};

// The encoded provisioning MIP plus the index maps needed to patch it in
// place. core::Engine keeps one of these alive across delta operations: a
// bandwidth re-allocation touches only the affected constraint-(2)
// coefficients and objective costs, a link failure only the bounds of the
// binaries crossing that link — no re-encoding.
struct Mip_encoding {
    mip::Problem problem;
    // Per request, per logical edge: the edge's binary variable.
    std::vector<std::vector<int>> edge_vars;
    // Physical link -> row index of its constraint (2) (the r_uv * c_uv
    // bookkeeping equality) inside `problem`.
    std::vector<int> link_row;
    // Physical link -> its r_uv variable (the row-(2) reserved fraction).
    std::vector<int> link_var;
    // Per request, per logical edge: the deterministic objective jitter
    // drawn for the weighted-shortest-path cost of that edge (0 for edges
    // that cross no physical link). Recorded so a rate patch reproduces the
    // exact cost a from-scratch encode would assign.
    std::vector<std::vector<double>> cost_jitter;
    int r_max_var = -1;
    int big_r_max_var = -1;
    Heuristic heuristic = Heuristic::weighted_shortest_path;
};

// Encodes constraints (1)-(5) and the heuristic objective for `requests`.
// An edge whose link is down, or narrower than its request's rate, has its
// binary fixed to zero: one crossing alone would need r_uv = rate / c_uv
// > 1, which (2) and (5) forbid, so the fixing removes no integral
// solution. It keeps a request from riding the LP's feasibility tolerance
// past a link's exact capacity, and it is what the crash basis searches
// around. The encoding's shape does not depend on link state or rates, so
// a live encoding reaches the same bounds by patching.
[[nodiscard]] Mip_encoding encode_provisioning(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic);

// Re-applies request r's (changed) rate to a live encoding: constraint-(2)
// coefficients on every link the request's logical edges cross, the
// weighted-shortest-path objective costs and the fixings of edges over
// links narrower than the rate. The result is bit-identical to re-encoding
// from scratch with the new rate.
void patch_request_rate(Mip_encoding& encoding, const topo::Topology& topo,
                        const std::vector<Guaranteed_request>& requests,
                        std::size_t r);

// Re-applies `link`'s state in `topo` to a live encoding: the bounds of
// every binary crossing it, bit-identical to re-encoding from scratch.
// Returns the number of bounds patched.
int patch_link_state(Mip_encoding& encoding, const topo::Topology& topo,
                     const std::vector<Guaranteed_request>& requests,
                     topo::LinkId link);

// Solves a live encoding and extracts paths/maxima/stats. With
// mip::Options::warm_start on, the root LP starts from the shortest-path
// crash basis (two-phase cold when lp::solve rejects it), and a request
// the crash search cannot route is refused as proven infeasible with no LP
// run and a diagnostic naming it; with warm_start off the root runs
// two-phase. Provision_result::root_start says which. The start depends
// only on the encoding, so a patched encoding solves exactly like a fresh
// one.
[[nodiscard]] Provision_result solve_encoding(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    const Mip_encoding& encoding, const mip::Options& options);

// Solves the provisioning MIP exactly (the paper's formulation): a one-shot
// encode_provisioning + solve_encoding. Requests must have solvable logical
// topologies (an unsolvable one yields feasible = false immediately).
[[nodiscard]] Provision_result provision(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic = Heuristic::weighted_shortest_path,
    const mip::Options& options = {});

// Scalable alternative: sequential path selection (largest guarantee
// first) by Dijkstra over each logical topology with congestion-aware edge
// costs. Orders of magnitude faster than the MIP but may miss solutions on
// tight instances and only approximates the min-max objectives; used for
// large policies and as the fallback when the MIP is truncated.
[[nodiscard]] Provision_result provision_greedy(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic = Heuristic::weighted_shortest_path);

// Shared helpers between the full encoder and the column-generation /
// sharded solvers (src/core/colgen.cpp).
namespace detail {

// The effective objective cost of every (request, logical-edge) binary,
// exactly as encode_provisioning would assign it — same epsilon, same
// jitter stream, same draw order. Every solver mode prices paths against
// these arrays, which is what makes objectives comparable (and the
// colgen certificate sound) across modes.
[[nodiscard]] std::vector<std::vector<double>> request_costs(
    const std::vector<Guaranteed_request>& requests, Heuristic heuristic);

// Dijkstra from `logical.source` over non-negative per-edge costs, where
// an edge of cost +infinity is absent. Returns each vertex's tree edge
// (graph::kNoEdge at the source and at every vertex the tree misses).
// Relaxation is strict, so among equal-cost paths the first found stays.
// The one shortest-path routine behind the crash basis, colgen's seed
// columns and the greedy provisioner.
[[nodiscard]] std::vector<graph::Edge> shortest_path_tree(
    const Logical_topology& logical, const std::vector<double>& edge_costs);

// The tree's source ~> sink path as edge ids in order, or nullopt when the
// tree misses the sink.
[[nodiscard]] std::optional<std::vector<int>> tree_path(
    const Logical_topology& logical, const std::vector<graph::Edge>& tree);

// A starting basis for the root LP of a live encoding, built from one
// shortest-path tree per request over the encoding's current objective
// costs. The search skips every edge the encoding fixes at zero (its link
// is down or narrower than the request's rate). Each tree edge is basic in
// its target vertex's flow row, the source row and every row the tree
// misses keep the zero-pinned artificial (-1), each link's r_uv is basic
// in its row (2), and rows (3)/(4) keep their slacks except that r_max
// takes row (3) of the link with the largest load ratio and R_max row (4)
// of the most loaded link, the loads being those of the tree paths. The
// matrix is block lower-triangular, so it always factorizes; it is primal
// feasible exactly when no link is loaded past capacity, and under
// weighted-shortest-path it is then already optimal.
struct Crash {
    lp::Basis basis;  // empty when a request is unroutable
    // The first request whose sink the search cannot reach. The MIP is
    // then infeasible: a request travels one path, and every path crosses
    // an edge fixed at zero.
    std::optional<std::size_t> unroutable;
};
[[nodiscard]] Crash crash_basis(const topo::Topology& topo,
                                const std::vector<Guaranteed_request>& requests,
                                const Mip_encoding& encoding);

// Walks the selected edges from source to sink, collecting the location
// word, physical path, crossed links and function placements.
[[nodiscard]] Provisioned_path extract_path(const Logical_topology& logical,
                                            std::vector<bool> used,
                                            std::string id, Bandwidth rate);

// Computes the achieved r_max / R_max over `out.paths` (exact, in bps).
void fill_maxima(const topo::Topology& topo, Provision_result& out);

}  // namespace detail

}  // namespace merlin::core
