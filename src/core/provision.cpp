#include "core/provision.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/error.h"

namespace merlin::core {

const char* to_string(Heuristic h) {
    switch (h) {
        case Heuristic::weighted_shortest_path: return "weighted-shortest-path";
        case Heuristic::min_max_ratio: return "min-max-ratio";
        case Heuristic::min_max_reserved: return "min-max-reserved";
    }
    return "?";
}

namespace {

// Rates are expressed in Mbps inside the MIP to keep coefficients O(1)-ish.
double to_mbps(Bandwidth bw) { return bw.mbps(); }

// The upper bound of a request's binary for `edge` (see
// encode_provisioning): 0 over a link that is down or narrower than the
// rate, compared exactly in bps.
double edge_upper(const topo::Topology& topo, const Logical_edge& edge,
                  Bandwidth rate) {
    if (edge.link == topo::kNoLink) return 1.0;
    return topo.link_up(edge.link) &&
                   topo.link(edge.link).capacity.bps() >= rate.bps()
               ? 1.0
               : 0.0;
}

}  // namespace

namespace detail {

// Walks the selected edges from source to sink, collecting the location
// word, physical path, crossed links and function placements.
Provisioned_path extract_path(const Logical_topology& logical,
                              std::vector<bool> used, std::string id,
                              Bandwidth rate) {
    Provisioned_path path;
    path.id = std::move(id);
    path.rate = rate;
    graph::Vertex at = logical.source;
    while (at != logical.sink) {
        graph::Edge chosen = graph::kNoEdge;
        for (graph::Edge e : logical.graph.out_edges(at)) {
            if (used[static_cast<std::size_t>(e)]) {
                chosen = e;
                break;
            }
        }
        expects(chosen != graph::kNoEdge,
                "selected flow must form an s->t path");
        used[static_cast<std::size_t>(chosen)] = false;  // guard cycles
        const Logical_edge& info =
            logical.edges[static_cast<std::size_t>(chosen)];
        if (info.location != topo::kNoNode) {
            path.word.push_back(info.location);
            if (path.nodes.empty() || path.nodes.back() != info.location)
                path.nodes.push_back(info.location);
        }
        if (info.link != topo::kNoLink) path.links.push_back(info.link);
        if (info.label != automata::kNoLabel)
            path.placements.push_back(Placement{
                logical.labels[static_cast<std::size_t>(info.label)],
                info.location});
        at = logical.graph.target(chosen);
    }
    return path;
}

std::vector<graph::Edge> shortest_path_tree(
    const Logical_topology& logical, const std::vector<double>& edge_costs) {
    const auto vertices =
        static_cast<std::size_t>(logical.graph.vertex_count());
    std::vector<double> dist(vertices,
                             std::numeric_limits<double>::infinity());
    std::vector<graph::Edge> tree(vertices, graph::kNoEdge);
    using Item = std::pair<double, graph::Vertex>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[static_cast<std::size_t>(logical.source)] = 0;
    queue.emplace(0.0, logical.source);
    while (!queue.empty()) {
        const auto [d, v] = queue.top();
        queue.pop();
        if (d > dist[static_cast<std::size_t>(v)]) continue;
        for (graph::Edge e : logical.graph.out_edges(v)) {
            // An absent edge (+infinity) never relaxes: d + inf < x is false.
            const double nd = d + edge_costs[static_cast<std::size_t>(e)];
            const auto to = static_cast<std::size_t>(logical.graph.target(e));
            if (nd < dist[to]) {
                dist[to] = nd;
                tree[to] = e;
                queue.emplace(nd, logical.graph.target(e));
            }
        }
    }
    return tree;
}

std::optional<std::vector<int>> tree_path(
    const Logical_topology& logical, const std::vector<graph::Edge>& tree) {
    if (tree[static_cast<std::size_t>(logical.sink)] == graph::kNoEdge)
        return std::nullopt;
    std::vector<int> edges;
    for (graph::Vertex at = logical.sink; at != logical.source;) {
        const graph::Edge e = tree[static_cast<std::size_t>(at)];
        edges.push_back(e);
        at = logical.graph.source(e);
    }
    std::reverse(edges.begin(), edges.end());
    return edges;
}

Crash crash_basis(const topo::Topology& topo,
                  const std::vector<Guaranteed_request>& requests,
                  const Mip_encoding& encoding) {
    const lp::Problem& lp = encoding.problem.relaxation();
    Crash out;
    lp::Basis& basis = out.basis;
    basis.basic.assign(static_cast<std::size_t>(lp.constraint_count()), -1);
    basis.at_upper.assign(static_cast<std::size_t>(lp.basis_width()), 0);
    std::vector<double> load(static_cast<std::size_t>(topo.link_count()), 0.0);
    // encode_provisioning lays the flow rows (1) out request by request,
    // one per logical vertex, from row 0.
    int first_row = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Logical_topology& logical = requests[i].logical;
        const std::vector<int>& vars = encoding.edge_vars[i];
        std::vector<double> costs(vars.size());
        for (std::size_t e = 0; e < vars.size(); ++e)
            costs[e] = lp.upper(vars[e]) == 0.0
                           ? std::numeric_limits<double>::infinity()
                           : lp.cost(vars[e]);
        const std::vector<graph::Edge> tree =
            shortest_path_tree(logical, costs);
        const std::optional<std::vector<int>> path = tree_path(logical, tree);
        if (!path.has_value()) {
            out.basis = {};
            out.unroutable = i;
            return out;
        }
        for (graph::Vertex v = 0; v < logical.graph.vertex_count(); ++v)
            if (const graph::Edge e = tree[static_cast<std::size_t>(v)];
                e != graph::kNoEdge)
                basis.basic[static_cast<std::size_t>(first_row + v)] =
                    vars[static_cast<std::size_t>(e)];
        first_row += logical.graph.vertex_count();
        const double rate = to_mbps(requests[i].rate);
        for (int e : *path)
            if (const topo::LinkId link =
                    logical.edges[static_cast<std::size_t>(e)].link;
                link != topo::kNoLink)
                load[static_cast<std::size_t>(link)] += rate;
    }
    if (topo.link_count() == 0) return out;

    topo::LinkId worst_ratio = 0;
    topo::LinkId worst_load = 0;
    const auto ratio = [&](topo::LinkId link) {
        return load[static_cast<std::size_t>(link)] /
               to_mbps(topo.link(link).capacity);
    };
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        const auto l = static_cast<std::size_t>(link);
        if (ratio(link) > ratio(worst_ratio)) worst_ratio = link;
        if (load[l] > load[static_cast<std::size_t>(worst_load)])
            worst_load = link;
        // Rows (3) and (4) follow each link's row (2).
        const int row = encoding.link_row[l];
        basis.basic[static_cast<std::size_t>(row)] = encoding.link_var[l];
        basis.basic[static_cast<std::size_t>(row + 1)] =
            lp.slack_column(row + 1);
        basis.basic[static_cast<std::size_t>(row + 2)] =
            lp.slack_column(row + 2);
    }
    basis.basic[static_cast<std::size_t>(
        encoding.link_row[static_cast<std::size_t>(worst_ratio)] + 1)] =
        encoding.r_max_var;
    basis.basic[static_cast<std::size_t>(
        encoding.link_row[static_cast<std::size_t>(worst_load)] + 2)] =
        encoding.big_r_max_var;
    return out;
}

// Computes the achieved r_max / R_max from the selected reservations.
// Rates are accumulated exactly in integer bps — converting through Mbps
// doubles and truncating back used to underreport R_max by up to 1 bps.
void fill_maxima(const topo::Topology& topo, Provision_result& out) {
    std::vector<std::uint64_t> reserved_bps(
        static_cast<std::size_t>(topo.link_count()), 0);
    for (const Provisioned_path& p : out.paths)
        for (topo::LinkId link : p.links)
            reserved_bps[static_cast<std::size_t>(link)] += p.rate.bps();
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        const std::uint64_t reserved =
            reserved_bps[static_cast<std::size_t>(link)];
        out.r_max = std::max(out.r_max,
                             static_cast<double>(reserved) /
                                 static_cast<double>(
                                     topo.link(link).capacity.bps()));
        if (Bandwidth(reserved) > out.big_r_max)
            out.big_r_max = Bandwidth(reserved);
    }
}

}  // namespace detail

namespace {

// Tie-break/short-path epsilon relative to the main objective scale, plus a
// deterministic per-edge jitter. The jitter makes the LP relaxation's
// optimal vertex unique, which keeps it integral on the highly symmetric
// equal-cost multipath instances (fat trees) that otherwise stall branch &
// bound. Its shape is constrained from both sides:
//
//   * the quantum must clear the simplex optimality tolerance (1e-7) by a
//     healthy margin — if two edge subsets can differ by less than the
//     tolerance, a crash-started solve may legitimately stop on a
//     different "optimal" vertex than a two-phase solve;
//   * the total magnitude must stay far below kEpsilonCost — perturbing
//     the relaxation at the epsilon-cost scale measurably degrades branch
//     & bound on capacity-tight instances (a 1e-3 max was a 60x slowdown
//     on the fat-tree capacity regression test).
//
// Hence a 1e-6 quantum over 64 steps: max 6.3e-5, ten times the tolerance
// per step.
constexpr double kEpsilonCost = 1e-3;
constexpr double kJitterQuantum = 1e-6;

struct Jitter_stream {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;

    double next() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return kJitterQuantum * static_cast<double>(state % 64);
    }
};

}  // namespace

std::vector<std::vector<double>> detail::request_costs(
    const std::vector<Guaranteed_request>& requests, Heuristic heuristic) {
    // Mirrors encode_provisioning's draw order exactly (all binary base
    // costs first, then the weighted-shortest-path overwrites), so the
    // returned costs are bit-identical to the full encoding's objective
    // coefficients. colgen_test pins this equivalence.
    std::vector<std::vector<double>> costs(requests.size());
    Jitter_stream jitter;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        costs[i].reserve(static_cast<std::size_t>(logical.graph.edge_count()));
        for (int e = 0; e < logical.graph.edge_count(); ++e)
            costs[i].push_back(kEpsilonCost + jitter.next());
    }
    if (heuristic == Heuristic::weighted_shortest_path) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const double weight = std::max(to_mbps(requests[i].rate), 1.0);
            const auto& logical = requests[i].logical;
            for (int e = 0; e < logical.graph.edge_count(); ++e)
                if (logical.edges[static_cast<std::size_t>(e)].link !=
                    topo::kNoLink)
                    costs[i][static_cast<std::size_t>(e)] =
                        weight + kEpsilonCost + jitter.next();
        }
    }
    return costs;
}

Mip_encoding encode_provisioning(const topo::Topology& topo,
                                 const std::vector<Guaranteed_request>& requests,
                                 Heuristic heuristic) {
    Mip_encoding out;
    out.heuristic = heuristic;
    mip::Problem& problem = out.problem;

    // Edge binaries, per request. The jitter stream is drawn in a fixed
    // order (all binary costs, then all weighted-shortest-path costs), so
    // any two encodes of the same request list are bit-identical — the
    // invariant that lets the engine patch rates into a live encoding.
    out.edge_vars.resize(requests.size());
    out.cost_jitter.resize(requests.size());
    Jitter_stream jitter;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        out.edge_vars[i].reserve(
            static_cast<std::size_t>(logical.graph.edge_count()));
        for (int e = 0; e < logical.graph.edge_count(); ++e)
            out.edge_vars[i].push_back(
                problem.add_binary(kEpsilonCost + jitter.next()));
    }

    // Edges over links that are down or too narrow exist (so bound patches
    // can flip them in place) but are pinned to zero.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        for (int e = 0; e < logical.graph.edge_count(); ++e)
            if (edge_upper(topo, logical.edges[static_cast<std::size_t>(e)],
                           requests[i].rate) == 0.0)
                problem.set_bounds(
                    out.edge_vars[i][static_cast<std::size_t>(e)], 0.0, 0.0);
    }

    // (1) Flow conservation per request vertex.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        for (graph::Vertex v = 0; v < logical.graph.vertex_count(); ++v) {
            std::vector<std::pair<int, double>> coeffs;
            for (graph::Edge e : logical.graph.out_edges(v))
                coeffs.emplace_back(
                    out.edge_vars[i][static_cast<std::size_t>(e)], 1.0);
            for (graph::Edge e : logical.graph.in_edges(v))
                coeffs.emplace_back(
                    out.edge_vars[i][static_cast<std::size_t>(e)], -1.0);
            const double rhs =
                v == logical.source ? 1.0 : (v == logical.sink ? -1.0 : 0.0);
            problem.add_constraint(lp::Sense::equal, rhs, std::move(coeffs));
        }
    }

    // (2) r_uv bookkeeping per physical link, plus (3)/(4) maxima.
    out.r_max_var = problem.add_continuous(0.0, 0.0, 1.0);
    out.big_r_max_var =
        problem.add_continuous(0.0, 0.0, lp::kInfinity);  // in Mbps
    out.link_row.assign(static_cast<std::size_t>(topo.link_count()), -1);
    out.link_var.assign(static_cast<std::size_t>(topo.link_count()), -1);
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        // (5) is the upper bound 1 here.
        const int r_uv = problem.add_continuous(0.0, 0.0, 1.0);
        out.link_var[static_cast<std::size_t>(link)] = r_uv;
        const double capacity_mbps = to_mbps(topo.link(link).capacity);
        expects(capacity_mbps > 0, "links must have positive capacity");

        // r_uv * c_uv - sum_i rmin_i * x_e = 0.
        std::vector<std::pair<int, double>> coeffs{{r_uv, capacity_mbps}};
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const double rate = to_mbps(requests[i].rate);
            if (rate == 0) continue;
            const auto& logical = requests[i].logical;
            for (int e = 0; e < logical.graph.edge_count(); ++e)
                if (logical.edges[static_cast<std::size_t>(e)].link == link)
                    coeffs.emplace_back(
                        out.edge_vars[i][static_cast<std::size_t>(e)], -rate);
        }
        out.link_row[static_cast<std::size_t>(link)] =
            problem.relaxation().constraint_count();
        problem.add_constraint(lp::Sense::equal, 0.0, std::move(coeffs));

        // (3) r_max >= r_uv   and   (4) R_max >= r_uv * c_uv.
        problem.add_constraint(lp::Sense::less_equal, 0.0,
                               {{r_uv, 1.0}, {out.r_max_var, -1.0}});
        problem.add_constraint(
            lp::Sense::less_equal, 0.0,
            {{r_uv, capacity_mbps}, {out.big_r_max_var, -1.0}});
    }

    // Objective.
    switch (heuristic) {
        case Heuristic::weighted_shortest_path:
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const double weight = std::max(to_mbps(requests[i].rate), 1.0);
                const auto& logical = requests[i].logical;
                out.cost_jitter[i].assign(
                    static_cast<std::size_t>(logical.graph.edge_count()), 0.0);
                for (int e = 0; e < logical.graph.edge_count(); ++e)
                    if (logical.edges[static_cast<std::size_t>(e)].link !=
                        topo::kNoLink) {
                        const double draw = jitter.next();
                        out.cost_jitter[i][static_cast<std::size_t>(e)] = draw;
                        problem.set_cost(
                            out.edge_vars[i][static_cast<std::size_t>(e)],
                            weight + kEpsilonCost + draw);
                    }
            }
            break;
        case Heuristic::min_max_ratio:
            problem.set_cost(out.r_max_var, 1000.0);
            break;
        case Heuristic::min_max_reserved:
            problem.set_cost(out.big_r_max_var, 1.0);
            break;
    }
    return out;
}

void patch_request_rate(Mip_encoding& encoding, const topo::Topology& topo,
                        const std::vector<Guaranteed_request>& requests,
                        std::size_t r) {
    const Guaranteed_request& request = requests[r];
    const auto& logical = request.logical;
    const double rate = to_mbps(request.rate);
    expects(rate > 0, "rate patches require a positive rate");
    const double weight = std::max(rate, 1.0);
    for (int e = 0; e < logical.graph.edge_count(); ++e) {
        const Logical_edge& edge = logical.edges[static_cast<std::size_t>(e)];
        if (edge.link == topo::kNoLink) continue;
        const int var = encoding.edge_vars[r][static_cast<std::size_t>(e)];
        encoding.problem.set_bounds(var, 0.0,
                                    edge_upper(topo, edge, request.rate));
        encoding.problem.set_coefficient(
            encoding.link_row[static_cast<std::size_t>(edge.link)], var,
            -rate);
        if (encoding.heuristic == Heuristic::weighted_shortest_path)
            encoding.problem.set_cost(
                var, weight + kEpsilonCost +
                         encoding.cost_jitter[r][static_cast<std::size_t>(e)]);
    }
}

int patch_link_state(Mip_encoding& encoding, const topo::Topology& topo,
                     const std::vector<Guaranteed_request>& requests,
                     topo::LinkId link) {
    int patched = 0;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const auto& logical = requests[r].logical;
        for (int e = 0; e < logical.graph.edge_count(); ++e) {
            const Logical_edge& edge =
                logical.edges[static_cast<std::size_t>(e)];
            if (edge.link != link) continue;
            encoding.problem.set_bounds(
                encoding.edge_vars[r][static_cast<std::size_t>(e)], 0.0,
                edge_upper(topo, edge, requests[r].rate));
            ++patched;
        }
    }
    return patched;
}

Provision_result solve_encoding(const topo::Topology& topo,
                                const std::vector<Guaranteed_request>& requests,
                                const Mip_encoding& encoding,
                                const mip::Options& options) {
    Provision_result out;
    out.solver = "mip";
    out.variables = encoding.problem.variable_count();
    out.constraints = encoding.problem.relaxation().constraint_count();
    // mip::solve ignores the root basis when warm_start is off, so no crash
    // is built then: the two-phase solve decides the same encoding by LP
    // alone, an anchor independent of the crash search and of its refusal
    // below.
    detail::Crash crash;
    if (options.warm_start) {
        crash = detail::crash_basis(topo, requests, encoding);
        if (crash.unroutable) {
            // Sound without an LP: the unroutable request must take one
            // s ~> t path, and every path crosses an edge the encoding fixes
            // at zero — its link is down, or narrower than the rate, so (2)
            // and (5) forbid it. The two-phase solve proves the same with
            // an LP. Several requests over-subscribing a link together are
            // left to the LP.
            const Guaranteed_request& request = requests[*crash.unroutable];
            out.proven_infeasible = true;
            out.diagnostic = "statement '" + request.id + "' needs " +
                             to_string(request.rate) +
                             " but every path crosses a narrower or failed "
                             "link";
            return out;
        }
    }
    const mip::Solution solution =
        mip::solve(encoding.problem, options, &crash.basis);
    out.root_start = solution.root_warm_started ? "crash" : "cold";
    out.mip_nodes = solution.nodes_explored;
    out.simplex_iterations = solution.simplex_iterations;
    out.lp_factorizations = solution.lp_factorizations;
    out.warm_started_nodes = solution.warm_started_nodes;
    if (!solution.usable()) {
        out.proven_infeasible = solution.status == mip::Status::infeasible;
        return out;
    }
    out.feasible = true;
    out.objective = solution.objective;

    // Recover per-request paths by walking selected edges from the source.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& logical = requests[i].logical;
        std::vector<bool> used(
            static_cast<std::size_t>(logical.graph.edge_count()), false);
        for (int e = 0; e < logical.graph.edge_count(); ++e)
            used[static_cast<std::size_t>(e)] =
                solution.x[static_cast<std::size_t>(
                    encoding.edge_vars[i][static_cast<std::size_t>(e)])] > 0.5;
        out.paths.push_back(detail::extract_path(logical, std::move(used),
                                         requests[i].id, requests[i].rate));
    }
    detail::fill_maxima(topo, out);
    return out;
}

Provision_result provision(const topo::Topology& topo,
                           const std::vector<Guaranteed_request>& requests,
                           Heuristic heuristic, const mip::Options& options) {
    Provision_result out;
    for (const Guaranteed_request& r : requests)
        if (!r.logical.solvable()) return out;  // no path can exist

    const Mip_encoding encoding =
        encode_provisioning(topo, requests, heuristic);
    return solve_encoding(topo, requests, encoding, options);
}

Provision_result provision_greedy(
    const topo::Topology& topo, const std::vector<Guaranteed_request>& requests,
    Heuristic heuristic) {
    Provision_result out;
    out.solver = "greedy";
    for (const Guaranteed_request& r : requests)
        if (!r.logical.solvable()) return out;

    // Residual capacity per physical link (bps).
    std::vector<std::uint64_t> residual(
        static_cast<std::size_t>(topo.link_count()));
    std::vector<std::uint64_t> used_bps(
        static_cast<std::size_t>(topo.link_count()), 0);
    for (topo::LinkId l = 0; l < topo.link_count(); ++l)
        residual[static_cast<std::size_t>(l)] =
            topo.link_up(l) ? topo.link(l).capacity.bps() : 0;

    // Largest guarantees first (first-fit decreasing).
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return requests[a].rate > requests[b].rate;
    });

    out.paths.resize(requests.size());
    for (std::size_t i : order) {
        const Guaranteed_request& request = requests[i];
        const Logical_topology& logical = request.logical;
        const std::uint64_t rate = request.rate.bps();

        // Congestion-aware edge costs. Dijkstra minimizes the SUM of edge
        // costs, so the min-max objectives are approximated by a convex
        // penalty on the post-assignment utilization of each link.
        auto edge_cost = [&](graph::Edge e) -> double {
            const Logical_edge& info =
                logical.edges[static_cast<std::size_t>(e)];
            if (info.link == topo::kNoLink) return 1e-6;
            if (!topo.link_up(info.link)) return -1;  // failed link
            const auto l = static_cast<std::size_t>(info.link);
            if (residual[l] < rate) return -1;  // blocked
            const double cap =
                static_cast<double>(topo.link(info.link).capacity.bps());
            const double after =
                static_cast<double>(used_bps[l] + rate) / cap;
            switch (heuristic) {
                case Heuristic::weighted_shortest_path: return 1.0;
                case Heuristic::min_max_ratio: {
                    const double penalty = after * after * after * after;
                    return 1e-3 + penalty;
                }
                case Heuristic::min_max_reserved: {
                    const double reserved_after =
                        static_cast<double>(used_bps[l] + rate) / 1e9;
                    const double penalty = reserved_after * reserved_after *
                                           reserved_after * reserved_after;
                    return 1e-3 + penalty;
                }
            }
            return 1.0;
        };

        std::vector<double> costs(
            static_cast<std::size_t>(logical.graph.edge_count()));
        for (graph::Edge e = 0; e < logical.graph.edge_count(); ++e) {
            const double c = edge_cost(e);
            costs[static_cast<std::size_t>(e)] =
                c < 0 ? std::numeric_limits<double>::infinity() : c;
        }
        const std::optional<std::vector<int>> path = detail::tree_path(
            logical, detail::shortest_path_tree(logical, costs));
        if (!path.has_value()) {
            // Greedy failure (not a proof of infeasibility).
            out.diagnostic = "greedy could not route request '" + request.id +
                             "' (" + std::to_string(rate / 1'000'000) +
                             " Mbps) around committed reservations";
            out.paths.clear();
            return out;
        }

        // Commit the path.
        std::vector<bool> used(
            static_cast<std::size_t>(logical.graph.edge_count()), false);
        for (int e : *path) used[static_cast<std::size_t>(e)] = true;
        out.paths[i] =
            detail::extract_path(logical, std::move(used), request.id,
                                 request.rate);
        // An NFV chain can cross one physical link through several logical
        // edges (e.g. switch -> middlebox -> switch), so a link must afford
        // rate * occurrences — the per-edge Dijkstra check only guaranteed
        // one occurrence, and charging per occurrence unchecked used to
        // wrap the unsigned residual past zero.
        std::vector<std::pair<topo::LinkId, std::uint64_t>> charges;
        for (topo::LinkId l : out.paths[i].links) {
            auto it = std::find_if(charges.begin(), charges.end(),
                                   [l](const auto& c) { return c.first == l; });
            if (it == charges.end())
                charges.emplace_back(l, rate);
            else
                it->second += rate;
        }
        bool fits = true;
        for (const auto& [l, charge] : charges)
            fits = fits && residual[static_cast<std::size_t>(l)] >= charge;
        if (!fits) {
            out.diagnostic = "greedy could not route request '" + request.id +
                             "' (" + std::to_string(rate / 1'000'000) +
                             " Mbps): its path revisits a physical link with "
                             "insufficient residual capacity";
            out.paths.clear();
            return out;
        }
        for (const auto& [l, charge] : charges) {
            residual[static_cast<std::size_t>(l)] -= charge;
            used_bps[static_cast<std::size_t>(l)] += charge;
        }
    }
    out.feasible = true;
    detail::fill_maxima(topo, out);
    return out;
}

}  // namespace merlin::core
