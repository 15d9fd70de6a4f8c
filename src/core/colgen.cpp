#include "core/colgen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "util/error.h"
#include "util/thread_pool.h"

namespace merlin::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Cost of the artificial columns (one per convexity row) and of the
// per-link overflow variables: large enough that any real solution beats
// any artificial one, small enough to stay inside simplex numerics. An
// answer carrying a nonzero artificial never certifies, so a marginal M
// only costs a fallback, never correctness.
constexpr double kBigM = 1e8;
constexpr double kArtificialTol = 1e-6;

bool edge_usable(const topo::Topology& topo, const Logical_edge& edge) {
    return edge.link == topo::kNoLink || topo.link_up(edge.link);
}

// The shortest s~>t path over one request's (positive) edge costs,
// skipping edges over down links, as edge ids in order; nullopt when the
// sink is unreachable. This is both the seed column of the restricted
// master and the per-request lower bound of the sharding certificate.
std::optional<std::vector<int>> shortest_path_edges(
    const topo::Topology& topo, const Logical_topology& logical,
    const std::vector<double>& edge_costs) {
    std::vector<double> live = edge_costs;
    for (std::size_t e = 0; e < live.size(); ++e)
        if (!edge_usable(topo, logical.edges[e])) live[e] = kInf;
    return detail::tree_path(logical,
                             detail::shortest_path_tree(logical, live));
}

double path_cost(const std::vector<int>& edges,
                 const std::vector<double>& edge_costs) {
    double total = 0;
    for (int e : edges) total += edge_costs[static_cast<std::size_t>(e)];
    return total;
}

// Reservations accumulated exactly in integer bps against the true link
// capacities — the same discipline the full encoding's equality rows and
// the testgen capacity oracle enforce. The master's overflow variables are
// only tolerance-zero, so certified answers re-verify exactly here.
bool within_capacity(const topo::Topology& topo,
                     const std::vector<Provisioned_path>& paths) {
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(topo.link_count()), 0);
    for (const Provisioned_path& p : paths)
        for (topo::LinkId link : p.links)
            reserved[static_cast<std::size_t>(link)] += p.rate.bps();
    for (topo::LinkId link = 0; link < topo.link_count(); ++link)
        if (reserved[static_cast<std::size_t>(link)] >
            topo.link(link).capacity.bps())
            return false;
    return true;
}

// Adding columns to the master shifts the internal slack block of a basis
// snapshot (slacks sit after the structurals); renumber so the previous
// vertex — old basis, new columns nonbasic at zero — warm-starts the next
// round's solve without a phase 1.
void remap_basis(lp::Basis& basis, int old_vars, int new_vars) {
    if (basis.empty() || new_vars == old_vars) return;
    const int shift = new_vars - old_vars;
    for (int& v : basis.basic)
        if (v >= old_vars) v += shift;
    std::vector<std::uint8_t> at_upper(
        basis.at_upper.size() + static_cast<std::size_t>(shift), 0);
    for (std::size_t j = 0; j < basis.at_upper.size(); ++j) {
        const std::size_t to =
            j < static_cast<std::size_t>(old_vars)
                ? j
                : j + static_cast<std::size_t>(shift);
        at_upper[to] = basis.at_upper[j];
    }
    basis.at_upper = std::move(at_upper);
}

// The restricted master plus everything needed to extend and decode it.
struct Master {
    mip::Problem problem;
    int r_max_var = -1;
    int big_r_max_var = -1;
    std::vector<int> link_row;      // physical link -> bookkeeping row
    std::vector<int> overflow_var;  // physical link -> overflow artificial
    std::vector<int> convexity_row;
    std::vector<int> artificial_var;  // per request

    struct Column {
        int request;
        std::vector<int> edges;
        int var;
    };
    std::vector<Column> columns;
    std::vector<std::set<std::vector<int>>> seen;
};

Master build_master(const topo::Topology& topo,
                    const std::vector<Guaranteed_request>& requests,
                    Heuristic heuristic,
                    const std::vector<double>* capacity_override) {
    Master m;
    m.r_max_var = m.problem.add_continuous(
        heuristic == Heuristic::min_max_ratio ? 1000.0 : 0.0, 0.0, 1.0);
    m.big_r_max_var = m.problem.add_continuous(
        heuristic == Heuristic::min_max_reserved ? 1.0 : 0.0, 0.0,
        lp::kInfinity);
    m.link_row.assign(static_cast<std::size_t>(topo.link_count()), -1);
    m.overflow_var.assign(static_cast<std::size_t>(topo.link_count()), -1);
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        const auto l = static_cast<std::size_t>(link);
        const double capacity =
            capacity_override != nullptr ? (*capacity_override)[l]
                                         : topo.link(link).capacity.mbps();
        const int overflow = m.problem.add_continuous(kBigM, 0.0,
                                                      lp::kInfinity);
        m.overflow_var[l] = overflow;
        m.link_row[l] = m.problem.relaxation().constraint_count();
        if (capacity > 0) {
            // r_uv * c_uv + o_uv - sum_p rate occ y_p = 0, r_uv in [0,1].
            const int r_uv = m.problem.add_continuous(0.0, 0.0, 1.0);
            m.problem.add_constraint(lp::Sense::equal, 0.0,
                                     {{r_uv, capacity}, {overflow, 1.0}});
            m.problem.add_constraint(lp::Sense::less_equal, 0.0,
                                     {{r_uv, 1.0}, {m.r_max_var, -1.0}});
            m.problem.add_constraint(
                lp::Sense::less_equal, 0.0,
                {{r_uv, capacity}, {m.big_r_max_var, -1.0}});
        } else {
            // A fully consumed residual link: any use must go through the
            // overflow artificial, i.e. is effectively forbidden.
            m.problem.add_constraint(lp::Sense::equal, 0.0,
                                     {{overflow, 1.0}});
        }
    }
    m.convexity_row.reserve(requests.size());
    m.artificial_var.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const int artificial = m.problem.add_continuous(kBigM, 0.0, 1.0);
        m.artificial_var.push_back(artificial);
        m.convexity_row.push_back(m.problem.relaxation().constraint_count());
        m.problem.add_constraint(lp::Sense::equal, 1.0, {{artificial, 1.0}});
    }
    m.seen.resize(requests.size());
    return m;
}

void add_column(Master& m, const std::vector<Guaranteed_request>& requests,
                int request, std::vector<int> edges, double cost) {
    const auto i = static_cast<std::size_t>(request);
    const int var = m.problem.add_binary(cost);
    m.problem.set_coefficient(m.convexity_row[i], var, 1.0);
    const double rate = requests[i].rate.mbps();
    if (rate > 0) {
        std::map<topo::LinkId, int> occurrences;
        for (int e : edges) {
            const topo::LinkId link =
                requests[i].logical.edges[static_cast<std::size_t>(e)].link;
            if (link != topo::kNoLink) ++occurrences[link];
        }
        for (const auto& [link, count] : occurrences)
            m.problem.set_coefficient(
                m.link_row[static_cast<std::size_t>(link)], var,
                -rate * count);
    }
    m.seen[i].insert(edges);
    m.columns.push_back({request, std::move(edges), var});
}

// Everything run_colgen learned, certified or not; the public entry points
// decide between accepting, retrying globally, or re-solving in full.
struct Colgen_outcome {
    Provision_result result;
    bool certified = false;
    bool clean = false;  // usable integer answer with zero artificials
};

Colgen_outcome run_colgen(const topo::Topology& topo,
                          const std::vector<Guaranteed_request>& requests,
                          const std::vector<std::vector<double>>& costs,
                          Heuristic heuristic, const mip::Options& options,
                          const Colgen_options& copts,
                          const std::vector<double>* capacity_override) {
    Colgen_outcome out;
    Provision_result& result = out.result;
    result.solver = "colgen";

    Master master = build_master(topo, requests, heuristic,
                                 capacity_override);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        auto seed = shortest_path_edges(topo, requests[i].logical, costs[i]);
        if (seed.has_value()) {
            const double cost = path_cost(*seed, costs[i]);
            add_column(master, requests, static_cast<int>(i),
                       std::move(*seed), cost);
        }
        // Unreachable sinks keep their artificial: never certifies, and
        // the full-encoding fallback owns the infeasibility proof.
    }

    // Master-solve -> price -> add-columns until nothing prices out.
    lp::Basis basis;
    int basis_vars = 0;
    bool converged = false;
    double dual_bound = 0;
    for (int round = 1; round <= copts.max_rounds; ++round) {
        result.colgen_rounds = round;
        const lp::Problem& relaxation = master.problem.relaxation();
        remap_basis(basis, basis_vars, relaxation.variable_count());
        basis_vars = relaxation.variable_count();
        const lp::Solution rmp =
            lp::solve(relaxation, options.lp, basis.empty() ? nullptr : &basis);
        result.simplex_iterations += rmp.stats.iterations;
        result.lp_factorizations += rmp.stats.factorizations;
        if (rmp.status != lp::Status::optimal) break;  // uncertified
        basis = rmp.basis;
        dual_bound = rmp.objective;
        if (!copts.pricing) break;

        std::vector<double> pi(static_cast<std::size_t>(topo.link_count()));
        for (topo::LinkId link = 0; link < topo.link_count(); ++link)
            pi[static_cast<std::size_t>(link)] =
                rmp.duals[static_cast<std::size_t>(
                    master.link_row[static_cast<std::size_t>(link)])];
        int added = 0;
        bool unsound = false;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const double sigma = rmp.duals[static_cast<std::size_t>(
                master.convexity_row[i])];
            const auto priced =
                price_request(topo, requests[i].logical, costs[i],
                              requests[i].rate.mbps(), pi, sigma);
            if (!priced.has_value()) {
                unsound = true;  // negative-cycle suspicion
                continue;
            }
            if (priced->edges.empty()) continue;  // sink unreachable
            if (priced->reduced_cost < -copts.pricing_tol &&
                master.seen[i].count(priced->edges) == 0) {
                add_column(master, requests, static_cast<int>(i),
                           priced->edges, priced->cost);
                ++added;
            }
        }
        if (added == 0) {
            converged = !unsound;
            break;
        }
    }
    result.columns_generated = static_cast<int>(master.columns.size());
    if (converged) result.lp_bound = dual_bound;

    // Price-and-branch: branch & bound over the generated columns, warm
    // started from the converged master basis (no pricing inside the tree).
    remap_basis(basis, basis_vars,
                master.problem.relaxation().variable_count());
    mip::Solution integer = mip::solve(master.problem, options,
                                       basis.empty() ? nullptr : &basis);
    result.variables = master.problem.variable_count();
    result.constraints = master.problem.relaxation().constraint_count();
    result.mip_nodes = integer.nodes_explored;
    result.simplex_iterations += integer.simplex_iterations;
    result.lp_factorizations += integer.lp_factorizations;
    result.warm_started_nodes = integer.warm_started_nodes;
    if (!integer.usable()) return out;

    double artificial_load = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
        artificial_load = std::max(
            artificial_load,
            integer.x[static_cast<std::size_t>(master.artificial_var[i])]);
    for (topo::LinkId link = 0; link < topo.link_count(); ++link)
        artificial_load = std::max(
            artificial_load,
            integer.x[static_cast<std::size_t>(
                master.overflow_var[static_cast<std::size_t>(link)])]);
    out.clean = artificial_load <= kArtificialTol;
    if (!out.clean) return out;

    double objective = 0;
    result.paths.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Master::Column* chosen = nullptr;
        for (const Master::Column& c : master.columns) {
            if (c.request != static_cast<int>(i)) continue;
            if (integer.x[static_cast<std::size_t>(c.var)] > 0.5) {
                chosen = &c;
                break;
            }
        }
        expects(chosen != nullptr,
                "a zero-artificial master solution selects one path per "
                "request");
        objective += path_cost(chosen->edges, costs[i]);
        std::vector<bool> used(
            static_cast<std::size_t>(
                requests[i].logical.graph.edge_count()),
            false);
        for (int e : chosen->edges) used[static_cast<std::size_t>(e)] = true;
        result.paths.push_back(detail::extract_path(requests[i].logical,
                                                    std::move(used),
                                                    requests[i].id,
                                                    requests[i].rate));
    }
    // Against the true capacities the master's tolerance-zero overflows
    // are not proof enough; re-verify the reservations exactly (the
    // residual shard is re-checked globally by provision_sharded instead).
    if (capacity_override == nullptr &&
        !within_capacity(topo, result.paths)) {
        out.clean = false;
        out.certified = false;
        result.paths.clear();
        return out;
    }
    detail::fill_maxima(topo, result);
    // Recompute the objective from the selected paths and maxima rather
    // than trusting integer.objective: a basic-at-zero artificial can
    // carry kBigM-scaled float noise into the solver's objective value.
    if (heuristic == Heuristic::min_max_ratio)
        objective += 1000.0 * result.r_max;
    else if (heuristic == Heuristic::min_max_reserved)
        objective += result.big_r_max.mbps();
    result.feasible = true;
    result.objective = objective;
    out.certified = converged &&
                    objective - dual_bound <=
                        kCertTol * (1 + std::abs(dual_bound));
    return out;
}

bool all_solvable(const std::vector<Guaranteed_request>& requests) {
    return std::all_of(requests.begin(), requests.end(),
                       [](const Guaranteed_request& r) {
                           return r.logical.solvable();
                       });
}

}  // namespace

std::optional<Priced_path> price_request(const topo::Topology& topo,
                                         const Logical_topology& logical,
                                         const std::vector<double>& edge_costs,
                                         double rate_mbps,
                                         const std::vector<double>& pi,
                                         double sigma) {
    // Bellman-Ford: dual-adjusted weights can be negative, so Dijkstra is
    // out; the product graphs are small and near-acyclic, so the V passes
    // are cheap. A pass count past V means a reachable negative cycle —
    // the search is then unsound and the caller gives up certification.
    const int vertices = logical.graph.vertex_count();
    const int edge_count = logical.graph.edge_count();
    std::vector<double> dist(static_cast<std::size_t>(vertices), kInf);
    std::vector<int> pred(static_cast<std::size_t>(vertices), -1);
    dist[static_cast<std::size_t>(logical.source)] = 0;
    std::vector<double> weight(static_cast<std::size_t>(edge_count), 0.0);
    for (int e = 0; e < edge_count; ++e) {
        const Logical_edge& edge = logical.edges[static_cast<std::size_t>(e)];
        double w = edge_costs[static_cast<std::size_t>(e)];
        if (edge.link != topo::kNoLink && rate_mbps > 0)
            w += rate_mbps * pi[static_cast<std::size_t>(edge.link)];
        weight[static_cast<std::size_t>(e)] = w;
    }
    for (int pass = 0;; ++pass) {
        if (pass > vertices) return std::nullopt;
        bool changed = false;
        for (int e = 0; e < edge_count; ++e) {
            const Logical_edge& edge =
                logical.edges[static_cast<std::size_t>(e)];
            if (!edge_usable(topo, edge)) continue;
            const auto from =
                static_cast<std::size_t>(logical.graph.source(e));
            if (dist[from] == kInf) continue;
            const auto to = static_cast<std::size_t>(logical.graph.target(e));
            const double nd = dist[from] + weight[static_cast<std::size_t>(e)];
            if (nd < dist[to] - 1e-12) {
                dist[to] = nd;
                pred[to] = e;
                changed = true;
            }
        }
        if (!changed) break;
    }
    Priced_path path;
    if (dist[static_cast<std::size_t>(logical.sink)] == kInf) {
        path.reduced_cost = kInf;
        return path;  // unreachable: empty edges, nothing to price in
    }
    int steps = 0;
    for (graph::Vertex at = logical.sink; at != logical.source;) {
        if (++steps > edge_count + 1) return std::nullopt;
        const int e = pred[static_cast<std::size_t>(at)];
        path.edges.push_back(e);
        at = logical.graph.source(e);
    }
    std::reverse(path.edges.begin(), path.edges.end());
    path.cost = path_cost(path.edges, edge_costs);
    path.reduced_cost =
        dist[static_cast<std::size_t>(logical.sink)] - sigma;
    return path;
}

Provision_result provision_colgen(const topo::Topology& topo,
                                  const std::vector<Guaranteed_request>& requests,
                                  Heuristic heuristic,
                                  const mip::Options& options,
                                  const Colgen_options& copts) {
    if (requests.empty() || !all_solvable(requests))
        return provision(topo, requests, heuristic, options);
    const std::vector<std::vector<double>> costs =
        detail::request_costs(requests, heuristic);
    Colgen_outcome outcome = run_colgen(topo, requests, costs, heuristic,
                                        options, copts, nullptr);
    if (outcome.certified || !copts.allow_fallback) {
        if (!outcome.clean) {
            outcome.result.feasible = false;
            outcome.result.diagnostic =
                "column generation did not certify an answer";
        }
        return outcome.result;
    }
    // Certificate did not close (tight instance, pricing cycle, node
    // limit, or genuine infeasibility): the full encoding is the oracle —
    // and the only place a *proof* of infeasibility can come from.
    Provision_result full = provision(topo, requests, heuristic, options);
    full.colgen_rounds = outcome.result.colgen_rounds;
    full.columns_generated = outcome.result.columns_generated;
    full.full_fallbacks = 1;
    return full;
}

Provision_result provision_sharded(const topo::Topology& topo,
                                   const std::vector<Guaranteed_request>& requests,
                                   Heuristic heuristic,
                                   const mip::Options& options, int jobs,
                                   const Colgen_options& copts) {
    // Only the weighted-shortest-path objective decomposes by locality;
    // the min-max objectives couple every link and go straight to colgen.
    if (heuristic != Heuristic::weighted_shortest_path || requests.empty() ||
        !all_solvable(requests))
        return provision_colgen(topo, requests, heuristic, options, copts);

    const std::vector<std::vector<double>> costs =
        detail::request_costs(requests, heuristic);

    // Locality zones: drop every link whose endpoints both sit away from
    // any host (a fat tree's aggregation<->core links), then take
    // connected components. Pods become zones; core switches isolate.
    std::vector<char> touches_host(
        static_cast<std::size_t>(topo.node_count()), 0);
    for (topo::NodeId node = 0; node < topo.node_count(); ++node) {
        if (topo.node(node).kind == topo::Node_kind::host) {
            touches_host[static_cast<std::size_t>(node)] = 1;
            for (const auto& adj : topo.neighbors(node))
                touches_host[static_cast<std::size_t>(adj.node)] = 1;
        }
    }
    std::vector<int> zone(static_cast<std::size_t>(topo.node_count()), -1);
    for (topo::NodeId start = 0; start < topo.node_count(); ++start) {
        if (zone[static_cast<std::size_t>(start)] != -1) continue;
        zone[static_cast<std::size_t>(start)] = start;
        std::vector<topo::NodeId> stack{start};
        while (!stack.empty()) {
            const topo::NodeId at = stack.back();
            stack.pop_back();
            for (const auto& adj : topo.neighbors(at)) {
                const topo::Link& link = topo.link(adj.link);
                if (touches_host[static_cast<std::size_t>(link.a)] == 0 &&
                    touches_host[static_cast<std::size_t>(link.b)] == 0)
                    continue;
                if (zone[static_cast<std::size_t>(adj.node)] == -1) {
                    zone[static_cast<std::size_t>(adj.node)] = start;
                    stack.push_back(adj.node);
                }
            }
        }
    }
    const auto link_zone = [&](topo::LinkId link) {
        const topo::Link& l = topo.link(link);
        const int za = zone[static_cast<std::size_t>(l.a)];
        return za == zone[static_cast<std::size_t>(l.b)] ? za : -1;
    };

    // Assign each request to the zone holding its unconstrained shortest
    // path; paths that change zones (or have no path at all) go to the
    // cross-zone residual shard.
    std::vector<std::vector<int>> seed(requests.size());
    std::vector<double> lower_bound(requests.size(), 0.0);
    std::vector<int> request_zone(requests.size(), -1);
    bool unreachable = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        auto path = shortest_path_edges(topo, requests[i].logical, costs[i]);
        if (!path.has_value()) {
            unreachable = true;
            break;
        }
        seed[i] = std::move(*path);
        lower_bound[i] = path_cost(seed[i], costs[i]);
        int z = -2;  // -2 = no link seen yet, -1 = spans zones
        for (int e : seed[i]) {
            const topo::LinkId link =
                requests[i].logical.edges[static_cast<std::size_t>(e)].link;
            if (link == topo::kNoLink) continue;
            const int lz = link_zone(link);
            if (lz == -1 || (z != -2 && z != lz)) {
                z = -1;
                break;
            }
            z = lz;
        }
        request_zone[i] = z == -2 ? -1 : z;
    }
    const auto fallback_global = [&](int shards_attempted) {
        Provision_result global =
            provision_colgen(topo, requests, heuristic, options, copts);
        global.shards_used = shards_attempted;
        return global;
    };
    if (unreachable) return fallback_global(0);

    std::map<int, std::vector<std::size_t>> zones;  // zone -> request idx
    std::vector<std::size_t> residual;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (request_zone[i] >= 0)
            zones[request_zone[i]].push_back(i);
        else
            residual.push_back(i);
    }
    std::vector<std::vector<std::size_t>> shards;
    shards.reserve(zones.size());
    for (auto& [z, members] : zones) shards.push_back(std::move(members));
    const int shard_count = static_cast<int>(shards.size());

    // One MIP per zone, solved concurrently: the zone's requests over the
    // shared per-edge costs, edges leaving the zone pinned to zero, and
    // capacity rows for the zone's links only. Results land in per-shard
    // slots, so output is identical at any thread count.
    struct Shard_result {
        bool ok = false;
        mip::Solution solution;
        std::vector<std::vector<int>> edge_vars;  // local request, edge
        int variables = 0;
        int constraints = 0;
    };
    std::vector<Shard_result> solved(shards.size());
    util::Thread_pool pool(util::resolve_jobs(jobs));
    pool.parallel_for(shard_count, [&](int s) {
        const std::vector<std::size_t>& members =
            shards[static_cast<std::size_t>(s)];
        const int shard_zone = request_zone[members.front()];
        Shard_result& slot = solved[static_cast<std::size_t>(s)];
        mip::Problem problem;
        slot.edge_vars.resize(members.size());
        for (std::size_t r = 0; r < members.size(); ++r) {
            const std::size_t i = members[r];
            const auto& logical = requests[i].logical;
            slot.edge_vars[r].reserve(
                static_cast<std::size_t>(logical.graph.edge_count()));
            for (int e = 0; e < logical.graph.edge_count(); ++e) {
                const int var = problem.add_binary(
                    costs[i][static_cast<std::size_t>(e)]);
                const Logical_edge& edge =
                    logical.edges[static_cast<std::size_t>(e)];
                if (edge.link != topo::kNoLink &&
                    (!topo.link_up(edge.link) ||
                     link_zone(edge.link) != shard_zone))
                    problem.set_bounds(var, 0.0, 0.0);
                slot.edge_vars[r].push_back(var);
            }
        }
        for (std::size_t r = 0; r < members.size(); ++r) {
            const std::size_t i = members[r];
            const auto& logical = requests[i].logical;
            for (graph::Vertex v = 0; v < logical.graph.vertex_count(); ++v) {
                std::vector<std::pair<int, double>> coeffs;
                for (graph::Edge e : logical.graph.out_edges(v))
                    coeffs.emplace_back(
                        slot.edge_vars[r][static_cast<std::size_t>(e)], 1.0);
                for (graph::Edge e : logical.graph.in_edges(v))
                    coeffs.emplace_back(
                        slot.edge_vars[r][static_cast<std::size_t>(e)], -1.0);
                const double rhs = v == logical.source
                                       ? 1.0
                                       : (v == logical.sink ? -1.0 : 0.0);
                problem.add_constraint(lp::Sense::equal, rhs,
                                       std::move(coeffs));
            }
        }
        for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
            if (link_zone(link) != shard_zone) continue;
            const double capacity = topo.link(link).capacity.mbps();
            const int r_uv = problem.add_continuous(0.0, 0.0, 1.0);
            std::vector<std::pair<int, double>> coeffs{{r_uv, capacity}};
            for (std::size_t r = 0; r < members.size(); ++r) {
                const std::size_t i = members[r];
                const double rate = requests[i].rate.mbps();
                if (rate == 0) continue;
                const auto& logical = requests[i].logical;
                for (int e = 0; e < logical.graph.edge_count(); ++e)
                    if (logical.edges[static_cast<std::size_t>(e)].link ==
                        link)
                        coeffs.emplace_back(
                            slot.edge_vars[r][static_cast<std::size_t>(e)],
                            -rate);
            }
            problem.add_constraint(lp::Sense::equal, 0.0, std::move(coeffs));
        }
        slot.variables = problem.variable_count();
        slot.constraints = problem.relaxation().constraint_count();
        slot.solution = mip::solve(problem, options);
        slot.ok = slot.solution.usable();
    });

    Provision_result result;
    result.solver = "sharded";
    result.shards_used = shard_count;
    for (const Shard_result& slot : solved)
        if (!slot.ok) return fallback_global(shard_count);

    // Decode shard paths and account their reservations, so the residual
    // shard sees only the capacity the zones left behind.
    std::vector<Provisioned_path> paths(requests.size());
    double objective = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const Shard_result& slot = solved[s];
        result.variables += slot.variables;
        result.constraints += slot.constraints;
        result.mip_nodes += slot.solution.nodes_explored;
        result.simplex_iterations += slot.solution.simplex_iterations;
        result.lp_factorizations += slot.solution.lp_factorizations;
        result.warm_started_nodes += slot.solution.warm_started_nodes;
        objective += slot.solution.objective;
        for (std::size_t r = 0; r < shards[s].size(); ++r) {
            const std::size_t i = shards[s][r];
            const auto& logical = requests[i].logical;
            std::vector<bool> used(
                static_cast<std::size_t>(logical.graph.edge_count()), false);
            for (int e = 0; e < logical.graph.edge_count(); ++e)
                used[static_cast<std::size_t>(e)] =
                    slot.solution.x[static_cast<std::size_t>(
                        slot.edge_vars[r][static_cast<std::size_t>(e)])] >
                    0.5;
            paths[i] = detail::extract_path(logical, std::move(used),
                                            requests[i].id,
                                            requests[i].rate);
        }
    }

    if (!residual.empty()) {
        std::vector<double> residual_capacity(
            static_cast<std::size_t>(topo.link_count()));
        for (topo::LinkId link = 0; link < topo.link_count(); ++link)
            residual_capacity[static_cast<std::size_t>(link)] =
                topo.link(link).capacity.mbps();
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (request_zone[i] < 0) continue;
            const double rate = requests[i].rate.mbps();
            if (rate == 0) continue;
            for (topo::LinkId link : paths[i].links)
                residual_capacity[static_cast<std::size_t>(link)] =
                    std::max(0.0, residual_capacity[static_cast<std::size_t>(
                                      link)] -
                                      rate);
        }
        std::vector<Guaranteed_request> residual_requests;
        std::vector<std::vector<double>> residual_costs;
        residual_requests.reserve(residual.size());
        residual_costs.reserve(residual.size());
        for (std::size_t i : residual) {
            residual_requests.push_back(requests[i]);
            residual_costs.push_back(costs[i]);
        }
        Colgen_options residual_opts = copts;
        residual_opts.pricing = true;
        Colgen_outcome cross =
            run_colgen(topo, residual_requests, residual_costs, heuristic,
                       options, residual_opts, &residual_capacity);
        if (!cross.clean) return fallback_global(shard_count);
        result.variables += cross.result.variables;
        result.constraints += cross.result.constraints;
        result.mip_nodes += cross.result.mip_nodes;
        result.simplex_iterations += cross.result.simplex_iterations;
        result.lp_factorizations += cross.result.lp_factorizations;
        result.warm_started_nodes += cross.result.warm_started_nodes;
        result.colgen_rounds = cross.result.colgen_rounds;
        result.columns_generated = cross.result.columns_generated;
        objective += cross.result.objective;
        for (std::size_t r = 0; r < residual.size(); ++r)
            paths[residual[r]] = cross.result.paths[r];
    }

    // The sharding certificate: every request priced at its unconstrained
    // shortest path, so no global coordination could have done better.
    double bound = 0;
    for (double lb : lower_bound) bound += lb;
    result.lp_bound = bound;
    if (objective - bound > kCertTol * (1 + std::abs(bound)) ||
        !within_capacity(topo, paths))
        return fallback_global(shard_count);

    result.feasible = true;
    result.objective = objective;
    result.paths = std::move(paths);
    detail::fill_maxima(topo, result);
    return result;
}

}  // namespace merlin::core
