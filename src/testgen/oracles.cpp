// The cross-layer oracles: each one checks an equivalence or discipline the
// paper (and the PR history) promises, phrased over public layer APIs so a
// violation pinpoints the disagreeing layers.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "automata/automata.h"
#include "codegen/codegen.h"
#include "codegen/diff.h"
#include "core/addressing.h"
#include "core/colgen.h"
#include "core/logical.h"
#include "core/provision.h"
#include "netsim/sim.h"
#include "netsim/tables.h"
#include "pred/analysis.h"
#include "pred/classifier.h"
#include "pred/overlap.h"
#include "testgen/testgen.h"
#include "util/error.h"

namespace merlin::testgen {

namespace {

// Small helper: build "<context>: <detail>" failure strings.
std::optional<std::string> fail(const std::string& context,
                                const std::string& detail) {
    return context + ": " + detail;
}

// Structural equality first (cheap), then BDD equivalence: classify-rule
// dedup rewrites an emitted rule's match to its hash-cons group's canonical
// representative, so oracles locating "the rule for statement s" must accept
// any predicate denoting the same packet set.
bool same_predicate(pred::Analyzer& analyzer, const ir::PredPtr& a,
                    const ir::PredPtr& b) {
    if (ir::equal(a, b)) return true;
    return analyzer.compile(a) == analyzer.compile(b);
}

}  // namespace

// --------------------------------------------------------- engine-vs-batch

namespace {

std::optional<std::string> diff_nfa(const automata::Nfa& a,
                                    const automata::Nfa& b,
                                    const std::string& what) {
    if (a.alphabet_size != b.alphabet_size || a.start != b.start ||
        a.accepting != b.accepting || a.labels != b.labels ||
        a.edges.size() != b.edges.size())
        return fail(what, "automaton shape differs");
    for (std::size_t s = 0; s < a.edges.size(); ++s) {
        if (a.edges[s].size() != b.edges[s].size())
            return fail(what,
                        "edge count differs at state " + std::to_string(s));
        for (std::size_t e = 0; e < a.edges[s].size(); ++e) {
            const automata::Nfa_edge& ea = a.edges[s][e];
            const automata::Nfa_edge& eb = b.edges[s][e];
            if (ea.symbol != eb.symbol || ea.target != eb.target ||
                ea.label != eb.label)
                return fail(what,
                            "transition differs at state " + std::to_string(s));
        }
    }
    return std::nullopt;
}

std::vector<std::string> function_multiset(
    const std::vector<core::Placement>& placements) {
    std::vector<std::string> out;
    out.reserve(placements.size());
    for (const core::Placement& p : placements) out.push_back(p.function);
    std::sort(out.begin(), out.end());
    return out;
}

// Whether two MIP-provisioned paths are alternate optima that tie exactly
// at jitter resolution (see the describe_difference contract): identical
// cost signature, same endpoints, and the engine's word still satisfies the
// statement's expression.
bool proven_tie(const core::Provisioned_path& a,
                const core::Provisioned_path& b, const ir::PathPtr& expression,
                const topo::Topology& topo) {
    if (a.id != b.id || a.rate != b.rate) return false;
    if (a.word.size() != b.word.size() || a.links.size() != b.links.size())
        return false;
    if (a.word.empty()) return false;
    if (a.word.front() != b.word.front() || a.word.back() != b.word.back())
        return false;
    if (function_multiset(a.placements) != function_multiset(b.placements))
        return false;
    try {
        const automata::Nfa nfa = automata::remove_epsilon(
            automata::thompson(expression, core::make_alphabet(topo)));
        return automata::accepts(nfa, std::vector<int>(a.word.begin(),
                                                       a.word.end()));
    } catch (const Error&) {
        return false;
    }
}

std::optional<std::string> diff_path(const core::Provisioned_path& a,
                                     const core::Provisioned_path& b,
                                     const std::string& what) {
    if (a.id != b.id) return fail(what, "id " + a.id + " vs " + b.id);
    if (a.word != b.word) return fail(what + " '" + a.id + "'", "word differs");
    if (a.nodes != b.nodes)
        return fail(what + " '" + a.id + "'", "node sequence differs");
    if (a.links != b.links)
        return fail(what + " '" + a.id + "'", "link sequence differs");
    if (a.placements != b.placements)
        return fail(what + " '" + a.id + "'", "placements differ");
    if (a.rate != b.rate)
        return fail(what + " '" + a.id + "'",
                    "rate " + std::to_string(a.rate.bps()) + " vs " +
                        std::to_string(b.rate.bps()));
    return std::nullopt;
}

}  // namespace

std::optional<std::string> describe_difference(const core::Compilation& engine,
                                               const core::Compilation& fresh,
                                               const topo::Topology& topo,
                                               const core::Compile_options& options) {
    // A branch & bound stopped by the node limit keeps whichever incumbent
    // its exploration order reached first — warm and cold orders differ
    // legitimately, so nothing about the published outcome is comparable.
    const auto truncated = [&](const core::Provision_result& p) {
        return std::string(p.solver) == "mip" &&
               p.mip_nodes >= options.mip.max_nodes;
    };
    if (truncated(engine.provision) || truncated(fresh.provision))
        return std::nullopt;

    // Provisioned-path tie detection (see the header contract): ids whose
    // engine/batch paths differ but are proven alternate optima.
    std::set<std::string> tied_ids;
    const bool mip_both = std::string(engine.provision.solver) == "mip" &&
                          std::string(fresh.provision.solver) == "mip";
    if (mip_both &&
        engine.provision.paths.size() == fresh.provision.paths.size()) {
        for (std::size_t i = 0; i < engine.provision.paths.size(); ++i) {
            const core::Provisioned_path& a = engine.provision.paths[i];
            const core::Provisioned_path& b = fresh.provision.paths[i];
            if (!diff_path(a, b, "")) continue;  // exactly equal
            const ir::PathPtr* expression = nullptr;
            for (const core::Statement_plan& plan : engine.plans)
                if (plan.statement.id == a.id)
                    expression = &plan.statement.path;
            if (expression != nullptr && proven_tie(a, b, *expression, topo))
                tied_ids.insert(a.id);
        }
    }
    if (engine.feasible != fresh.feasible)
        return fail("feasibility", engine.feasible ? "engine feasible, batch not"
                                                   : "batch feasible, engine not");
    if (engine.diagnostic != fresh.diagnostic)
        return fail("diagnostic",
                    "'" + engine.diagnostic + "' vs '" + fresh.diagnostic + "'");
    if (engine.plans.size() != fresh.plans.size())
        return fail("plans", std::to_string(engine.plans.size()) + " vs " +
                                 std::to_string(fresh.plans.size()));
    for (std::size_t i = 0; i < engine.plans.size(); ++i) {
        const core::Statement_plan& a = engine.plans[i];
        const core::Statement_plan& b = fresh.plans[i];
        const std::string what = "plan '" + a.statement.id + "'";
        if (!ir::equal(a.statement, b.statement))
            return fail(what, "statement differs (" + b.statement.id + ")");
        if (a.guarantee != b.guarantee)
            return fail(what, "guarantee " + std::to_string(a.guarantee.bps()) +
                                  " vs " + std::to_string(b.guarantee.bps()));
        if (a.cap != b.cap) return fail(what, "cap differs");
        if (a.src_host != b.src_host || a.dst_host != b.dst_host)
            return fail(what, "pinned endpoints differ");
        if (a.path_class != b.path_class)
            return fail(what, "path class " + std::to_string(a.path_class) +
                                  " vs " + std::to_string(b.path_class));
        if (a.drop != b.drop) return fail(what, "drop flag differs");
        if (a.path.has_value() != b.path.has_value())
            return fail(what, "provisioned path presence differs");
        if (a.path && !tied_ids.contains(a.statement.id))
            if (auto d = diff_path(*a.path, *b.path, what)) return d;
    }
    if (engine.class_nfas.size() != fresh.class_nfas.size())
        return fail("class NFAs", std::to_string(engine.class_nfas.size()) +
                                      " vs " +
                                      std::to_string(fresh.class_nfas.size()));
    for (std::size_t c = 0; c < engine.class_nfas.size(); ++c)
        if (auto d = diff_nfa(engine.class_nfas[c], fresh.class_nfas[c],
                              "class NFA " + std::to_string(c)))
            return d;
    if (engine.trees.size() != fresh.trees.size())
        return fail("sink trees", std::to_string(engine.trees.size()) +
                                      " vs " + std::to_string(fresh.trees.size()));
    for (auto ea = engine.trees.begin(), eb = fresh.trees.begin();
         ea != engine.trees.end(); ++ea, ++eb) {
        const std::string what =
            "tree (" + std::to_string(ea->first.first) + "," +
            std::to_string(ea->first.second) + ")";
        if (ea->first != eb->first) return fail(what, "key set differs");
        if (ea->second.egress != eb->second.egress ||
            ea->second.nodes != eb->second.nodes ||
            ea->second.states != eb->second.states)
            return fail(what, "shape differs");
        if (ea->second.next != eb->second.next)
            return fail(what, "next-hop table differs");
        if (ea->second.dist != eb->second.dist)
            return fail(what, "distance table differs");
    }
    const core::Provision_result& pa = engine.provision;
    const core::Provision_result& pb = fresh.provision;
    if (pa.feasible != pb.feasible)
        return fail("provision", "feasibility differs");
    if (std::string(pa.solver) != pb.solver)
        return fail("provision", std::string("solver ") + pa.solver + " vs " +
                                     pb.solver);
    if (pa.variables != pb.variables || pa.constraints != pb.constraints)
        return fail("provision", "problem dimensions differ");
    if (pa.paths.size() != pb.paths.size())
        return fail("provision", "path count differs");
    for (std::size_t i = 0; i < pa.paths.size(); ++i) {
        if (tied_ids.contains(pa.paths[i].id)) continue;
        if (auto d = diff_path(pa.paths[i], pb.paths[i], "provisioned path"))
            return d;
    }
    // r_max / R_max are derived from the chosen paths; under a proven tie
    // the two optimal path sets may load links differently in the metric
    // the heuristic does not optimize (check_capacity pins each solution's
    // own maxima to its own paths).
    if (tied_ids.empty()) {
        if (pa.r_max != pb.r_max)
            return fail("provision", "r_max " + std::to_string(pa.r_max) +
                                         " vs " + std::to_string(pb.r_max));
        if (pa.big_r_max != pb.big_r_max)
            return fail("provision", "R_max differs");
    }
    return std::nullopt;
}

// ----------------------------------------------------------------- capacity

std::optional<std::string> check_capacity(
    const topo::Topology& topo, const core::Provision_result& provision) {
    if (!provision.feasible) return std::nullopt;
    std::vector<std::uint64_t> reserved(
        static_cast<std::size_t>(topo.link_count()), 0);
    for (const core::Provisioned_path& path : provision.paths) {
        for (const topo::LinkId link : path.links) {
            if (link < 0 || link >= topo.link_count())
                return fail("path '" + path.id + "'", "unknown link id");
            if (!topo.link_up(link))
                return fail("path '" + path.id + "'",
                            "crosses failed link " +
                                topo.node(topo.link(link).a).name + " -- " +
                                topo.node(topo.link(link).b).name);
            // Per-occurrence charge: an NFV chain revisiting a link pays for
            // every crossing (the PR-2 greedy-provisioner bug class).
            reserved[static_cast<std::size_t>(link)] += path.rate.bps();
        }
        // The node sequence must be physically contiguous over the links.
        if (path.nodes.size() != path.links.size() + 1)
            return fail("path '" + path.id + "'",
                        "node/link sequence lengths disagree");
        for (std::size_t i = 0; i < path.links.size(); ++i) {
            const topo::Link& link = topo.link(path.links[i]);
            const topo::NodeId u = path.nodes[i];
            const topo::NodeId v = path.nodes[i + 1];
            if (!((link.a == u && link.b == v) || (link.b == u && link.a == v)))
                return fail("path '" + path.id + "'",
                            "link " + std::to_string(i) +
                                " does not join its node-sequence neighbours");
        }
    }
    double r_max = 0;
    std::uint64_t big_r_max = 0;
    for (topo::LinkId link = 0; link < topo.link_count(); ++link) {
        const std::uint64_t used = reserved[static_cast<std::size_t>(link)];
        const std::uint64_t capacity = topo.link(link).capacity.bps();
        if (used > capacity)
            return fail("link " + topo.node(topo.link(link).a).name + " -- " +
                            topo.node(topo.link(link).b).name,
                        "oversubscribed: " + std::to_string(used) + " of " +
                            std::to_string(capacity) + " bps reserved");
        r_max = std::max(r_max, static_cast<double>(used) /
                                    static_cast<double>(capacity));
        big_r_max = std::max(big_r_max, used);
    }
    if (provision.big_r_max.bps() != big_r_max)
        return fail("R_max",
                    "reported " + std::to_string(provision.big_r_max.bps()) +
                        " bps, recomputed " + std::to_string(big_r_max));
    if (provision.r_max != r_max)
        return fail("r_max", "reported " + std::to_string(provision.r_max) +
                                 ", recomputed " + std::to_string(r_max));
    return std::nullopt;
}

// ------------------------------------------------------------------- routes

namespace {

// Hosts with exactly one live access switch make tree and simulator hop
// counts directly comparable.
std::vector<topo::NodeId> live_access_switches(const topo::Topology& topo,
                                               topo::NodeId host) {
    std::vector<topo::NodeId> out;
    for (const auto& adj : topo.neighbors(host)) {
        if (!topo.link_up(adj.link)) continue;
        if (topo.node(adj.node).kind == topo::Node_kind::host) continue;
        out.push_back(adj.node);
    }
    return out;
}

}  // namespace

std::optional<std::string> check_routes(const core::Compilation& compilation,
                                        const topo::Topology& topo) {
    if (!compilation.feasible) return std::nullopt;
    const core::Switch_graph& sg = compilation.switch_graph;

    // 1. Every tree slot is internally consistent and physically realizable:
    //    hops stay in place or cross a live link, follow a real NFA
    //    transition, and walk downhill in distance toward acceptance.
    for (const auto& [key, tree] : compilation.trees) {
        const auto cls = static_cast<std::size_t>(key.first);
        if (cls >= compilation.class_nfas.size())
            return fail("tree", "unknown path class " + std::to_string(key.first));
        const automata::Nfa& nfa = compilation.class_nfas[cls];
        const std::string what =
            "tree (" + std::to_string(key.first) + "," +
            std::to_string(key.second) + ")";
        if (tree.nodes != sg.size() || tree.states != nfa.state_count())
            return fail(what, "shape disagrees with switch graph / class NFA");
        for (int n = 0; n < tree.nodes; ++n) {
            for (int q = 0; q < tree.states; ++q) {
                const core::Sink_hop hop = tree.next_at(n, q);
                const int dist = tree.dist_at(n, q);
                if (dist < 0) {
                    if (hop.node >= 0)
                        return fail(what, "unreachable slot has a next hop");
                    continue;
                }
                if (dist == 0) {
                    if (n != tree.egress ||
                        !nfa.accepting[static_cast<std::size_t>(q)])
                        return fail(what,
                                    "distance 0 off the accepting egress");
                    continue;
                }
                if (hop.node < 0)
                    return fail(what, "reachable slot lacks a next hop");
                if (tree.dist_at(hop.node, hop.state) != dist - 1)
                    return fail(what, "hop does not reduce distance by one");
                if (hop.node != n) {
                    const auto link =
                        topo.link_between(sg.nodes[static_cast<std::size_t>(n)],
                                          sg.nodes[static_cast<std::size_t>(
                                              hop.node)]);
                    if (!link || !topo.link_up(*link))
                        return fail(what, "hop crosses no live physical link");
                }
                bool transition = false;
                for (const automata::Nfa_edge& e :
                     nfa.edges[static_cast<std::size_t>(q)])
                    if (e.symbol == hop.node && e.target == hop.state)
                        transition = true;
                if (!transition)
                    return fail(what, "hop follows no NFA transition");
            }
        }
    }

    // 2. Pinned best-effort statements against the simulator, under the
    //    same failure set.
    for (const core::Statement_plan& plan : compilation.plans) {
        if (plan.guaranteed() || plan.drop || plan.path_class < 0) continue;
        if (!plan.src_host || !plan.dst_host) continue;
        const std::string what = "statement '" + plan.statement.id + "'";
        const automata::Nfa& nfa =
            compilation.class_nfas[static_cast<std::size_t>(plan.path_class)];

        const std::vector<topo::NodeId> ingresses =
            live_access_switches(topo, *plan.src_host);
        const std::vector<topo::NodeId> egresses =
            live_access_switches(topo, *plan.dst_host);
        bool tree_reachable = false;
        int tree_hops = -1;
        for (const topo::NodeId in_node : ingresses) {
            const int in_sym =
                sg.symbol_of[static_cast<std::size_t>(in_node)];
            if (in_sym < 0) continue;
            for (const topo::NodeId out_node : egresses) {
                const int out_sym =
                    sg.symbol_of[static_cast<std::size_t>(out_node)];
                if (out_sym < 0) continue;
                const core::Sink_tree* tree =
                    compilation.tree_for(plan.path_class, out_sym);
                if (tree == nullptr) continue;
                const auto entry = tree->entry_state(nfa, in_sym);
                if (!entry) continue;
                tree_reachable = true;
                const int d = tree->dist_at(in_sym, *entry);
                if (tree_hops < 0 || d < tree_hops) tree_hops = d;
            }
        }
        // publish() rejects unserved pinned statements, so a feasible
        // compilation must route every one of them.
        if (!tree_reachable)
            return fail(what,
                        "pinned best-effort statement unserved in a feasible "
                        "compilation");

        bool sim_reachable = true;
        std::size_t sim_route = 0;
        try {
            netsim::Simulator sim(topo);
            netsim::Flow_spec flow;
            flow.name = plan.statement.id;
            flow.src = *plan.src_host;
            flow.dst = *plan.dst_host;
            const netsim::FlowId id = sim.add_flow(flow);
            sim_route = sim.route(id).size();
        } catch (const Topology_error&) {
            sim_reachable = false;
        }
        if (!sim_reachable)
            return fail(what,
                        "sink tree routes a pair the simulator cannot reach");
        // For unconstrained (`.*`) classes the tree BFS and the simulator
        // BFS explore the same graph: reachability always agrees (above)
        // and, for single-homed endpoints, so does the hop count.
        if (ir::equal(plan.statement.path, ir::path_any_star()) &&
            ingresses.size() == 1 && egresses.size() == 1) {
            if (sim_route < 3)
                return fail(what, "simulator route skips the access links");
            const auto sim_hops = static_cast<int>(sim_route) - 3;
            if (sim_hops != tree_hops)
                return fail(what, "sink-tree walk takes " +
                                      std::to_string(tree_hops) +
                                      " switch hops, simulator BFS " +
                                      std::to_string(sim_hops));
        }
    }
    return std::nullopt;
}

// ------------------------------------------------------------------ codegen

namespace {

struct Rule_tables {
    const topo::Topology& topo;
    std::map<std::string, std::vector<const codegen::Flow_rule*>> by_device;
    std::map<std::string, std::vector<const codegen::Click_config*>> clicks;

    explicit Rule_tables(const codegen::Configuration& config,
                         const topo::Topology& t)
        : topo(t) {
        for (const codegen::Flow_rule& rule : config.flow_rules)
            by_device[rule.device].push_back(&rule);
        for (const codegen::Click_config& click : config.click_configs)
            clicks[click.device].push_back(&click);
    }
};

// Parses "VLANClassifier(<in>) -> SetVLANAnno(<out>) -> ToDevice(toward
// <name>);" out of a middlebox forwarding Click config; nullopt when the
// text has another shape.
struct Click_forward_text {
    int in_tag = -1;
    int out_tag = -1;
    std::string toward;
};
std::optional<Click_forward_text> parse_click_forward(
    const std::string& config) {
    const auto classify = config.find("VLANClassifier(");
    const auto anno = config.find("SetVLANAnno(");
    const auto toward = config.find("ToDevice(toward ");
    if (classify == std::string::npos || anno == std::string::npos ||
        toward == std::string::npos)
        return std::nullopt;
    const auto classify_end = config.find(')', classify);
    const auto anno_end = config.find(')', anno);
    const auto toward_end = config.find(')', toward);
    if (classify_end == std::string::npos || anno_end == std::string::npos ||
        toward_end == std::string::npos)
        return std::nullopt;
    try {
        Click_forward_text out;
        out.in_tag = std::stoi(
            config.substr(classify + 15, classify_end - classify - 15));
        out.out_tag =
            std::stoi(config.substr(anno + 12, anno_end - anno - 12));
        out.toward = config.substr(toward + 16, toward_end - toward - 16);
        return out;
    } catch (const std::logic_error&) {
        return std::nullopt;
    }
}

// Follows tag-forwarding rules (and middlebox Click forwards) from `device`
// holding `tag` until a delivery rule hands the packet to `dst_name`.
bool trace_to_delivery(const Rule_tables& tables, const std::string& device,
                       int tag, std::uint64_t dst_mac,
                       const std::string& dst_name, int budget,
                       std::set<std::pair<std::string, int>>& visited) {
    if (budget <= 0) return false;
    if (!visited.insert({device, tag}).second) return false;
    const auto rules = tables.by_device.find(device);
    if (rules != tables.by_device.end()) {
        const codegen::Flow_rule* chosen = nullptr;
        for (const codegen::Flow_rule* rule : rules->second) {
            if (rule->match != nullptr || !rule->match_tag ||
                *rule->match_tag != tag)
                continue;
            if (rule->match_dst_mac && *rule->match_dst_mac != dst_mac)
                continue;
            if (chosen == nullptr || rule->priority > chosen->priority)
                chosen = rule;
        }
        if (chosen != nullptr) {
            if (chosen->strip_tag && chosen->out_port == dst_name) return true;
            if (chosen->out_port.empty()) return false;
            return trace_to_delivery(tables, chosen->out_port,
                                     chosen->set_tag.value_or(tag), dst_mac,
                                     dst_name, budget - 1, visited);
        }
    }
    // Middleboxes forward via Click. The snippet's VLANClassifier stage
    // keys on the *input* tag, so the device's choice is deterministic:
    // follow exactly the forward whose classifier matches the carried tag.
    const auto clicks = tables.clicks.find(device);
    if (clicks != tables.clicks.end()) {
        for (const codegen::Click_config* click : clicks->second) {
            const auto forward = parse_click_forward(click->config);
            if (!forward || forward->in_tag != tag) continue;
            return trace_to_delivery(tables, forward->toward,
                                     forward->out_tag, dst_mac, dst_name,
                                     budget - 1, visited);
        }
    }
    return false;
}

std::optional<std::string> check_guaranteed_rules(
    pred::Analyzer& analyzer, const Rule_tables& tables,
    const codegen::Configuration& config, const core::Statement_plan& plan,
    const topo::Topology& topo) {
    const std::string what = "guaranteed plan '" + plan.statement.id + "'";
    const std::vector<topo::NodeId>& nodes = plan.path->nodes;
    std::optional<int> tag;
    bool first = true;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (topo.node(nodes[i]).kind != topo::Node_kind::switch_) continue;
        const std::string device = topo.node(nodes[i]).name;
        const auto rules = tables.by_device.find(device);
        const codegen::Flow_rule* rule = nullptr;
        if (rules != tables.by_device.end()) {
            for (const codegen::Flow_rule* candidate : rules->second) {
                const bool classify =
                    first && candidate->match != nullptr &&
                    same_predicate(analyzer, candidate->match,
                                   plan.statement.predicate) &&
                    candidate->set_tag.has_value();
                const bool forward = !first && candidate->match_tag &&
                                     tag && *candidate->match_tag == *tag;
                if (classify || forward) {
                    rule = candidate;
                    break;
                }
            }
        }
        if (rule == nullptr)
            return fail(what, first ? "no classify rule at its first switch"
                                    : "tag chain breaks at " + device);
        // Segment tags: every rule that re-tags (the classify rule, and any
        // switch revisited later) moves the chase to the new tag.
        if (rule->set_tag) tag = rule->set_tag;
        first = false;
        if (i + 1 < nodes.size()) {
            const std::string next = topo.node(nodes[i + 1]).name;
            if (rule->out_port != next)
                return fail(what, "rule at " + device + " forwards to '" +
                                      rule->out_port + "', plan expects '" +
                                      next + "'");
            if (!rule->queue)
                return fail(what, "forwarding rule at " + device +
                                      " reserves no queue");
            bool queue_found = false;
            for (const codegen::Queue_config& queue : config.queues)
                if (queue.device == device && queue.port == next &&
                    queue.queue_id == *rule->queue &&
                    queue.min_rate == plan.guarantee && queue.max_rate == plan.cap)
                    queue_found = true;
            if (!queue_found)
                return fail(what, "no queue on " + device + " -> " + next +
                                      " guarantees its rate");
        }
    }
    if (first)
        return fail(what, "provisioned path visits no switch");
    return std::nullopt;
}

std::optional<std::string> check_best_effort_rules(
    pred::Analyzer& analyzer, const Rule_tables& tables,
    const core::Compilation& compilation, const core::Statement_plan& plan,
    const topo::Topology& topo) {
    if (!plan.src_host || !plan.dst_host) return std::nullopt;
    const std::string what = "best-effort plan '" + plan.statement.id + "'";
    const std::string dst_name = topo.node(*plan.dst_host).name;
    const std::uint64_t dst_mac = compilation.addressing.mac(*plan.dst_host);
    const int budget =
        compilation.switch_graph.size() * 4 + 8;  // loop safety margin

    bool delivered = false;
    for (const auto& adj : topo.neighbors(*plan.src_host)) {
        if (topo.node(adj.node).kind != topo::Node_kind::switch_) continue;
        const auto rules = tables.by_device.find(topo.node(adj.node).name);
        if (rules == tables.by_device.end()) continue;
        for (const codegen::Flow_rule* rule : rules->second) {
            if (rule->match == nullptr || rule->drop ||
                !same_predicate(analyzer, rule->match,
                                plan.statement.predicate))
                continue;
            if (rule->out_port == dst_name) {  // ingress == egress delivery
                delivered = true;
                continue;
            }
            if (!rule->set_tag)
                return fail(what, "ingress rule forwards without a tag");
            std::set<std::pair<std::string, int>> visited;
            if (trace_to_delivery(tables, rule->out_port, *rule->set_tag,
                                  dst_mac, dst_name, budget, visited))
                delivered = true;
            else
                return fail(what, "ingress rule at " + rule->device +
                                      " never reaches " + dst_name);
        }
    }
    if (!delivered)
        return fail(what, "no ingress rule delivers to " + dst_name);
    return std::nullopt;
}

}  // namespace

std::optional<std::string> check_codegen(const core::Compilation& compilation,
                                         const topo::Topology& topo) {
    if (!compilation.feasible) return std::nullopt;
    codegen::Configuration config;
    try {
        config = codegen::generate(compilation, topo);
    } catch (const Error& e) {
        return fail("codegen", std::string("generate threw: ") + e.what());
    }
    const Rule_tables tables(config, topo);
    pred::Analyzer analyzer;  // for dedup-aware rule matching

    // Structural discipline: rules sit on real switches and forward to live
    // physical neighbours.
    for (const codegen::Flow_rule& rule : config.flow_rules) {
        const auto device = topo.find(rule.device);
        if (!device)
            return fail("flow rule", "unknown device '" + rule.device + "'");
        if (rule.out_port.empty()) continue;
        const auto port = topo.find(rule.out_port);
        if (!port)
            return fail("flow rule on " + rule.device,
                        "unknown out port '" + rule.out_port + "'");
        const auto link = topo.link_between(*device, *port);
        if (!link)
            return fail("flow rule on " + rule.device,
                        "out port '" + rule.out_port +
                            "' is not a physical neighbour");
        if (!topo.link_up(*link))
            return fail("flow rule on " + rule.device,
                        "forwards over the failed link to '" + rule.out_port +
                            "'");
    }

    for (const core::Statement_plan& plan : compilation.plans) {
        if (plan.drop) {
            if (plan.src_host) {
                const std::string host = topo.node(*plan.src_host).name;
                const bool found = std::any_of(
                    config.iptables_rules.begin(), config.iptables_rules.end(),
                    [&](const codegen::Host_command& command) {
                        return command.host == host;
                    });
                if (!found)
                    return fail("drop plan '" + plan.statement.id + "'",
                                "no iptables rule on " + host);
            }
        } else if (plan.guaranteed() && plan.path) {
            if (auto d = check_guaranteed_rules(analyzer, tables, config,
                                               plan, topo))
                return d;
        } else if (!plan.guaranteed()) {
            if (auto d = check_best_effort_rules(analyzer, tables,
                                                 compilation, plan, topo))
                return d;
        }
        if (plan.cap && plan.src_host) {
            const std::string host = topo.node(*plan.src_host).name;
            const bool found = std::any_of(
                config.tc_commands.begin(), config.tc_commands.end(),
                [&](const codegen::Host_command& command) {
                    return command.host == host;
                });
            if (!found)
                return fail("capped plan '" + plan.statement.id + "'",
                            "no tc command on " + host);
        }
    }
    return std::nullopt;
}

// --------------------------------------------------------------- classifier

std::optional<std::string> check_classifier(
    const core::Compilation& compilation) {
    std::vector<ir::PredPtr> preds;
    std::vector<std::string> ids;
    for (const core::Statement_plan& plan : compilation.plans) {
        preds.push_back(plan.statement.predicate);
        ids.push_back(plan.statement.id);
    }
    if (preds.empty()) return std::nullopt;

    pred::Analyzer analyzer;
    const pred::Classifier classifier(analyzer, preds);

    // Probe set: one witness packet per satisfiable statement, plus the
    // all-zero header (every field unset, empty payload). Witnesses land in
    // each group's satisfying region; the zero packet exercises the
    // default/else edges of the DAG.
    std::vector<pred::Packet> probes;
    for (const ir::PredPtr& p : preds)
        if (analyzer.satisfiable(p)) probes.push_back(analyzer.witness(p));
    probes.emplace_back();

    for (const pred::Packet& packet : probes) {
        const std::vector<bool> bits = analyzer.bits_of(packet);
        // Ground truth: each statement decided independently by its own
        // compiled BDD (one evaluate per statement per packet).
        std::vector<pred::Classifier::Index> want;
        for (std::size_t i = 0; i < preds.size(); ++i)
            if (analyzer.manager().evaluate(analyzer.compile(preds[i]),
                                            bits))
                want.push_back(static_cast<pred::Classifier::Index>(i));
        const std::vector<pred::Classifier::Index>& got =
            classifier.classify_bits(bits);
        if (got != want) {
            const auto names = [&](const std::vector<
                                   pred::Classifier::Index>& set) {
                std::string out = "{";
                for (const pred::Classifier::Index i : set)
                    out += (out.size() == 1 ? "" : ", ") + ids[i];
                return out + "}";
            };
            return fail("classifier",
                        "shared DAG classifies a witness packet as " +
                            names(got) + " but per-statement evaluation "
                            "says " + names(want));
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------- overlaps

namespace {

bool is_eth_dst_test(const ir::Pred& p) {
    return p.kind == ir::Pred_kind::test && p.field == "eth.dst";
}

// `p` with each eth.dst test of its top-level conjunction replaced by
// `replace(test)`, or dropped where that is null.
template <typename Replace>
ir::PredPtr rewrite_eth_dst(const ir::PredPtr& p, Replace replace) {
    ir::PredPtr out;
    for (const ir::Pred* c : ir::conjuncts(*p)) {
        const ir::PredPtr term = is_eth_dst_test(*c)
                                     ? replace(*c)
                                     : std::make_shared<const ir::Pred>(*c);
        if (term) out = out ? ir::pred_and(out, term) : term;
    }
    return out ? out : ir::pred_true();
}

std::optional<std::string> compare_overlaps(
    const std::vector<ir::PredPtr>& preds,
    const std::vector<std::string>& ids, const std::string& what) {
    using Pair = std::pair<std::size_t, std::size_t>;
    pred::Analyzer reference;
    const pred::Classifier classifier(reference, preds);
    std::set<Pair> co_matched;
    for (const auto& set : classifier.match_sets())
        for (std::size_t a = 0; a < set.size(); ++a)
            for (std::size_t b = a + 1; b < set.size(); ++b)
                co_matched.emplace(set[a], set[b]);
    const std::vector<Pair> want(co_matched.begin(), co_matched.end());
    const auto names = [&](const std::vector<Pair>& pairs) {
        std::string out = "{";
        for (const auto& [i, j] : pairs)
            out += (out.size() == 1 ? "(" : ", (") + ids[i] + ", " + ids[j] +
                   ")";
        return out + "}";
    };

    pred::Analyzer analyzer;
    const pred::Overlaps found = pred::overlapping_pairs(analyzer, preds);
    if (found.pairs != want)
        return fail(what, "overlap search reports " + names(found.pairs) +
                              " but the whole-policy classifier co-matches " +
                              names(want));
    for (std::size_t f = 0; f < preds.size(); ++f) {
        std::vector<Pair> with;
        for (const Pair& pair : want)
            if (pair.first == f || pair.second == f) with.push_back(pair);
        const pred::Overlaps one =
            pred::overlapping_pairs_with(analyzer, preds, f);
        if (one.pairs != with)
            return fail(what, "overlap search for '" + ids[f] +
                                  "' reports " + names(one.pairs) +
                                  " but the classifier co-matches " +
                                  names(with));
    }
    return std::nullopt;
}

}  // namespace

std::optional<std::string> check_overlaps(
    const core::Compilation& compilation) {
    std::vector<ir::PredPtr> preds;
    std::vector<std::string> ids;
    for (const core::Statement_plan& plan : compilation.plans) {
        preds.push_back(plan.statement.predicate);
        ids.push_back(plan.statement.id);
    }
    if (auto d = compare_overlaps(preds, ids, "policy")) return d;

    // Widened copies: the scenario's statements are disjoint by
    // construction, so these are where overlaps (half-pinned ones, and
    // pins through different fields) come from.
    std::vector<std::size_t> widenable;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        const std::vector<const ir::Pred*> terms = ir::conjuncts(*preds[i]);
        if (std::any_of(terms.begin(), terms.end(),
                        [](const ir::Pred* c) { return is_eth_dst_test(*c); }))
            widenable.push_back(i);
    }
    if (widenable.empty()) return std::nullopt;
    const std::size_t first = widenable.front();
    std::vector<ir::PredPtr> dropped = preds;
    dropped[first] = rewrite_eth_dst(
        preds[first], [](const ir::Pred&) { return ir::PredPtr(); });
    if (auto d = compare_overlaps(dropped, ids,
                                  "'" + ids[first] + "' without eth.dst"))
        return d;
    const std::size_t last = widenable.back();
    std::vector<ir::PredPtr> swapped = preds;
    swapped[last] = rewrite_eth_dst(preds[last], [&](const ir::Pred& t) {
        const auto host = compilation.addressing.host_by_mac(t.value);
        return host ? ir::pred_test("ip.dst", compilation.addressing.ip(*host))
                    : ir::PredPtr();
    });
    return compare_overlaps(swapped, ids,
                            "'" + ids[last] + "' with ip.dst for eth.dst");
}

// ------------------------------------------------------------------ solvers

std::optional<std::string> check_solvers(
    const topo::Topology& topo, const std::vector<Statement_spec>& statements,
    const core::Compile_options& options) {
    // Rebuild the guaranteed requests independently of the engine (the same
    // construction compile() performs: full location alphabet, endpoint
    // restriction from the predicate).
    const core::Addressing addressing(topo);
    const automata::Alphabet alphabet = core::make_alphabet(topo);
    std::vector<core::Guaranteed_request> requests;
    for (const Statement_spec& spec : statements) {
        if (!spec.guaranteed()) continue;
        core::Guaranteed_request request;
        request.id = spec.stmt.id;
        request.rate = spec.guarantee;
        automata::Nfa nfa;
        try {
            nfa = automata::remove_epsilon(
                automata::thompson(spec.stmt.path, alphabet));
        } catch (const Error& e) {
            return fail("request '" + spec.stmt.id + "'",
                        std::string("path compiles for the engine but not "
                                    "here: ") +
                            e.what());
        }
        const core::Addressing::Endpoints endpoints =
            addressing.endpoints(spec.stmt.predicate);
        request.logical =
            core::build_logical(topo, nfa, endpoints.src, endpoints.dst);
        requests.push_back(std::move(request));
    }
    if (requests.empty()) return std::nullopt;
    for (const core::Guaranteed_request& request : requests)
        if (!request.logical.solvable())
            return std::nullopt;  // compile reports this; engine-vs-batch owns it

    const core::Provision_result greedy =
        core::provision_greedy(topo, requests, options.heuristic);
    const core::Provision_result exact =
        core::provision(topo, requests, options.heuristic, options.mip);

    // The greedy solver only ever *under*-approximates: a greedy witness on
    // a MIP-proven-infeasible instance means one of the two is wrong.
    if (greedy.feasible && exact.proven_infeasible)
        return fail("solvers",
                    "greedy found a witness on a MIP-proven-infeasible "
                    "instance");
    if (auto d = check_capacity(topo, greedy))
        return fail("greedy solution", *d);
    if (auto d = check_capacity(topo, exact)) return fail("MIP solution", *d);

    // Column generation and sharded provisioning are certified-or-fallback:
    // on every instance they must reach the full encoding's verdict — the
    // same proven infeasibility, or a feasible capacity-clean answer whose
    // objective matches within the jitter tolerance (strictly wider than
    // the colgen certificate, so certified answers pass by construction).
    // Skip when the exact solve was node-limit truncated: its incumbent is
    // exploration-order dependent and not a comparison anchor.
    if (exact.mip_nodes < options.mip.max_nodes) {
        const core::Provision_result colgen = core::provision_colgen(
            topo, requests, options.heuristic, options.mip);
        const core::Provision_result sharded = core::provision_sharded(
            topo, requests, options.heuristic, options.mip, options.jobs);
        const std::pair<const char*, const core::Provision_result*> alts[] = {
            {"colgen", &colgen}, {"sharded", &sharded}};
        for (const auto& [name, alt] : alts) {
            if (exact.proven_infeasible) {
                if (alt->feasible)
                    return fail(name,
                                "found a witness on a MIP-proven-infeasible "
                                "instance");
                continue;
            }
            if (!exact.feasible) continue;  // truncated elsewhere: no anchor
            if (!alt->feasible)
                return fail(name, "infeasible where the full encoding found "
                                  "an optimum");
            if (auto d = check_capacity(topo, *alt))
                return fail(std::string(name) + " solution", *d);
            const double tol = 1e-4 * (1 + std::abs(exact.objective));
            if (std::abs(alt->objective - exact.objective) > tol)
                return fail(name,
                            "objective " + std::to_string(alt->objective) +
                                " vs full " +
                                std::to_string(exact.objective));
        }
    }

    // The anchor is a true two-phase solve (warm_start = false builds no
    // crash and ignores every root basis). The default solve starts from
    // the shortest-path crash basis or refuses an unroutable request
    // without an LP; it must land on the anchor's optimum: the same
    // verdict and the same paths, or paths that tie exactly at jitter
    // resolution as in describe_difference.
    mip::Options two_phase = options.mip;
    two_phase.warm_start = false;
    const auto crash_vs_cold =
        [&](const core::Provision_result& cold,
            const core::Provision_result& crash,
            const std::string& what) -> std::optional<std::string> {
        // A node-limit-truncated branch & bound keeps an exploration-order-
        // dependent incumbent; start-independence is only a theorem for
        // solves that ran to completion.
        if (cold.mip_nodes >= options.mip.max_nodes ||
            crash.mip_nodes >= options.mip.max_nodes)
            return std::nullopt;
        if (cold.feasible != crash.feasible ||
            cold.proven_infeasible != crash.proven_infeasible)
            return fail(what, "verdict differs");
        if (!cold.feasible) return std::nullopt;
        if (cold.paths.size() != crash.paths.size())
            return fail(what, "path count differs");
        bool tied = false;
        for (std::size_t i = 0; i < cold.paths.size(); ++i) {
            if (!diff_path(cold.paths[i], crash.paths[i], "")) continue;
            const ir::PathPtr* expression = nullptr;
            for (const Statement_spec& spec : statements)
                if (spec.stmt.id == cold.paths[i].id)
                    expression = &spec.stmt.path;
            if (expression == nullptr ||
                !proven_tie(cold.paths[i], crash.paths[i], *expression, topo))
                return diff_path(cold.paths[i], crash.paths[i], what + " path");
            tied = true;
        }
        // Tied paths may load different links, so the maxima may move.
        if (!tied) {
            if (cold.r_max != crash.r_max)
                return fail(what, "r_max " + std::to_string(cold.r_max) +
                                      " vs " + std::to_string(crash.r_max));
            if (cold.big_r_max != crash.big_r_max)
                return fail(what, "R_max differs");
        }
        return std::nullopt;
    };
    const core::Mip_encoding encoding =
        core::encode_provisioning(topo, requests, options.heuristic);
    if (auto d = crash_vs_cold(
            core::solve_encoding(topo, requests, encoding, two_phase),
            core::solve_encoding(topo, requests, encoding, options.mip),
            "crash-vs-cold"))
        return d;

    // The encoding's narrow-link fixings and the refusal at their boundary:
    // the first request alone at exactly each distinct link capacity (it
    // may cross that link) and 1 bps above it (it may not). Both starts see
    // the same fixings, so they are also held to the greedy solver's own
    // residual test and to the exact capacity check.
    std::set<std::uint64_t> capacities;
    for (topo::LinkId link = 0; link < topo.link_count(); ++link)
        capacities.insert(topo.link(link).capacity.bps());
    std::vector<core::Guaranteed_request> alone{requests.front()};
    for (const std::uint64_t capacity : capacities)
        for (const std::uint64_t rate : {capacity, capacity + 1}) {
            alone.front().rate = Bandwidth(rate);
            const std::string what = "'" + alone.front().id + "' alone at " +
                                     std::to_string(rate) + " bps";
            const core::Mip_encoding single =
                core::encode_provisioning(topo, alone, options.heuristic);
            const core::Provision_result crash =
                core::solve_encoding(topo, alone, single, options.mip);
            if (auto d = crash_vs_cold(
                    core::solve_encoding(topo, alone, single, two_phase),
                    crash, what + ": crash-vs-cold"))
                return d;
            if (crash.proven_infeasible &&
                core::provision_greedy(topo, alone, options.heuristic)
                    .feasible)
                return fail(what, "greedy routes it, the MIP proves it "
                                  "infeasible (" + crash.diagnostic + ")");
            if (auto d = check_capacity(topo, crash))
                return fail(what + " MIP solution", *d);
        }
    return std::nullopt;
}

// --------------------------------------------------------------- diff oracle

namespace {

// Builds a netsim rule network from a configuration, abstracting every rule
// predicate to a traffic-class id (semantic predicate equality against
// `classes`, so dedup-representative rules map to their whole group's
// class). Predicates outside the list — e.g. the compiler's catch-all —
// match none of the modeled packets.
netsim::Rule_network to_rule_network(
    pred::Analyzer& analyzer, const codegen::Configuration& config,
    const std::vector<std::pair<ir::PredPtr, int>>& classes,
    const core::Addressing& addressing, const topo::Topology& topo) {
    netsim::Rule_network net(topo);
    for (const codegen::Flow_rule& r : config.flow_rules) {
        netsim::Table_rule rule;
        rule.priority = r.priority;
        if (r.match != nullptr) {
            rule.match_class = netsim::kMatchNothing;
            for (const auto& [pred, id] : classes)
                if (same_predicate(analyzer, pred, r.match)) {
                    rule.match_class = id;
                    break;
                }
        }
        rule.match_tag = r.match_tag.value_or(-1);
        rule.match_dst = r.match_dst_mac.value_or(0);
        rule.drop = r.drop;
        rule.set_tag = r.set_tag.value_or(-1);
        rule.strip_tag = r.strip_tag;
        rule.out_port = r.out_port;
        net.add_rule(r.device, std::move(rule));
    }
    for (const codegen::Click_config& c : config.click_configs)
        if (const auto f = parse_click_forward(c.config))
            net.add_click_forward(c.device, f->in_tag, f->out_tag, f->toward);
    for (const topo::NodeId h : topo.hosts())
        net.set_host_mac(topo.node(h).name, addressing.mac(h));
    return net;
}

const core::Statement_plan* find_plan(const core::Compilation& comp,
                                      const std::string& id) {
    for (const core::Statement_plan& plan : comp.plans)
        if (plan.statement.id == id) return &plan;
    return nullptr;
}

// A guaranteed path through a multi-link middlebox with no Click forward
// resolves by passthrough, which is only deterministic over a single link
// (or an out-and-back the model cannot distinguish from crossing): skip
// such statements rather than report a modeling artifact.
bool passthrough_ambiguous(const core::Statement_plan& plan,
                           const topo::Topology& topo) {
    if (!plan.path) return false;
    for (const topo::NodeId n : plan.path->nodes) {
        if (topo.node(n).kind != topo::Node_kind::middlebox) continue;
        int live = 0;
        for (const auto& adj : topo.neighbors(n))
            if (topo.link_up(adj.link)) ++live;
        if (live > 1) return true;
    }
    return false;
}

// The first switch of a guaranteed plan's provisioned path (its one
// classification point); kNoNode for best-effort plans.
topo::NodeId classify_switch(const core::Statement_plan& plan,
                             const topo::Topology& topo) {
    if (!plan.path) return topo::kNoNode;
    for (const topo::NodeId n : plan.path->nodes)
        if (topo.node(n).kind == topo::Node_kind::switch_) return n;
    return topo::kNoNode;
}

// Replays every stable pinned statement's packets against the four table
// states of a two-phase update. Per-packet consistency: each injection is
// delivered at every phase, the after-prepare route equals the pre-update
// route, and the after-commit route equals the post-update route.
std::optional<std::string> check_two_phase(
    const core::Compilation& old_comp, const core::Compilation& new_comp,
    const codegen::Configuration& old_config, const codegen::Diff& d,
    const codegen::Configuration& new_config, const topo::Topology& topo) {
    pred::Analyzer analyzer;
    std::vector<std::pair<ir::PredPtr, int>> classes;
    for (const core::Compilation* comp : {&old_comp, &new_comp}) {
        for (const core::Statement_plan& plan : comp->plans) {
            bool known = false;
            for (const auto& [pred, id] : classes)
                if (same_predicate(analyzer, pred,
                                   plan.statement.predicate)) {
                    known = true;
                    break;
                }
            if (!known)
                classes.emplace_back(plan.statement.predicate,
                                     static_cast<int>(classes.size()));
        }
    }

    codegen::Configuration prepared = old_config;
    codegen::apply_prepare(prepared, d);
    codegen::Configuration committed = prepared;
    codegen::apply_commit(committed, d);

    const core::Addressing& addressing = new_comp.addressing;
    const netsim::Rule_network nets[4] = {
        to_rule_network(analyzer, old_config, classes, addressing, topo),
        to_rule_network(analyzer, prepared, classes, addressing, topo),
        to_rule_network(analyzer, committed, classes, addressing, topo),
        to_rule_network(analyzer, new_config, classes, addressing, topo),
    };
    static const char* const kPhase[4] = {"pre-update", "after prepare",
                                          "after commit", "post-update"};

    for (const core::Statement_plan& plan : new_comp.plans) {
        if (plan.statement.id == "__default" || plan.drop) continue;
        if (!plan.src_host || !plan.dst_host) continue;
        const core::Statement_plan* old_plan =
            find_plan(old_comp, plan.statement.id);
        if (old_plan == nullptr || old_plan->drop) continue;
        if (!ir::equal(old_plan->statement.predicate,
                       plan.statement.predicate))
            continue;
        if (passthrough_ambiguous(*old_plan, topo) ||
            passthrough_ambiguous(plan, topo))
            continue;

        // Injection points must classify in both configurations: every
        // live edge switch for best-effort, the path's first switch for
        // guaranteed — skipped when a reroute moved it, since the table
        // then legitimately has no classifier at the old spot mid-update.
        std::vector<topo::NodeId> ingresses;
        const topo::NodeId old_ingress = classify_switch(*old_plan, topo);
        const topo::NodeId new_ingress = classify_switch(plan, topo);
        if (old_ingress != topo::kNoNode || new_ingress != topo::kNoNode) {
            if (old_ingress != new_ingress) continue;
            ingresses.push_back(new_ingress);
        } else {
            for (const auto& adj : topo.neighbors(*plan.src_host))
                if (topo.node(adj.node).kind == topo::Node_kind::switch_ &&
                    topo.link_up(adj.link))
                    ingresses.push_back(adj.node);
        }

        netsim::Packet packet;
        packet.dst = addressing.mac(*plan.dst_host);
        for (const auto& [pred, id] : classes)
            if (same_predicate(analyzer, pred, plan.statement.predicate)) {
                packet.traffic_class = id;
                break;
            }

        const std::string what =
            "two-phase update of '" + plan.statement.id + "'";
        for (const topo::NodeId ingress : ingresses) {
            const std::string start = topo.node(ingress).name;
            netsim::Table_trace traces[4];
            for (int phase = 0; phase < 4; ++phase) {
                traces[phase] = nets[phase].route(start, packet);
                if (!traces[phase].delivered)
                    return fail(what, std::string(kPhase[phase]) +
                                          " table blackholes its packet "
                                          "from " + start + ": " +
                                          traces[phase].verdict);
            }
            if (traces[1].path != traces[0].path)
                return fail(what,
                            "after prepare the packet from " + start +
                                " leaves the pre-update path (old/new mix)");
            if (traces[2].path != traces[3].path)
                return fail(what,
                            "after commit the packet from " + start +
                                " is not yet on the post-update path "
                                "(old/new mix)");
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<std::string> Diff_oracle::step(
    const core::Compilation& compilation, const topo::Topology& topo,
    bool check_transition) {
    // Infeasible publications emit no tables; the last feasible state stays
    // current so the next feasible delta diffs against it.
    if (!compilation.feasible) return std::nullopt;

    const codegen::Configuration before = incremental_.config();
    codegen::Diff d;
    try {
        d = incremental_.update(compilation, topo);
    } catch (const Error& e) {
        return fail("diffs",
                    std::string("incremental generate threw: ") + e.what());
    }

    // Replaying the diff against the previous tables must reproduce the
    // incrementally generated tables exactly.
    try {
        if (!codegen::equal(codegen::apply(before, d), incremental_.config()))
            return fail("diffs",
                        "applying the emitted diff to the previous tables "
                        "does not reproduce the regenerated tables");
    } catch (const Error& e) {
        return fail("diffs",
                    std::string("diff application threw: ") + e.what());
    }

    // The incremental tables must match a from-scratch batch generate
    // modulo tag/class renaming (a fresh allocator cannot reproduce
    // persisted numbers; the Naming keys join the two namings).
    codegen::Naming fresh;
    const codegen::Configuration batch =
        codegen::generate(compilation, topo, fresh);
    if (codegen::keyed_text(incremental_.config(), incremental_.naming()) !=
        codegen::keyed_text(batch, fresh))
        return fail("diffs",
                    "incremental tables diverge from a from-scratch batch "
                    "generate (compared modulo tag renaming)");

    std::optional<std::string> failure;
    if (seeded_ && check_transition)
        failure = check_two_phase(previous_, compilation, before, d,
                                  incremental_.config(), topo);
    previous_ = compilation;
    seeded_ = true;
    return failure;
}

namespace {

// The first difference between two reports in severity, check, subject or
// message (witnesses may name different needles across spaces), or
// nullopt when they agree in order.
std::optional<std::string> report_mismatch(const analysis::Report& cached,
                                           const analysis::Report& fresh) {
    const std::size_t n = std::min(cached.size(), fresh.size());
    for (std::size_t i = 0; i < n; ++i) {
        const analysis::Diagnostic& a = cached[i];
        const analysis::Diagnostic& b = fresh[i];
        if (a.severity != b.severity || a.check != b.check ||
            a.subject != b.subject || a.message != b.message)
            return "finding " + std::to_string(i) + " is [" +
                   analysis::to_text(a) + "] but an empty-cache proof says [" +
                   analysis::to_text(b) + "]";
    }
    if (cached.size() == fresh.size()) return std::nullopt;
    const analysis::Report& longer = cached.size() > n ? cached : fresh;
    return std::to_string(cached.size()) +
           " findings but an empty-cache proof reports " +
           std::to_string(fresh.size()) + ", first extra [" +
           analysis::to_text(longer[n]) + "]";
}

// Index of the rule a reused class's traffic first takes at one of its
// proof's states: at the first state holding one, the highest-priority
// forwarding rule (stably, in emission order) that admits the carried tag
// and the class's destination and meets its predicate.
std::optional<std::size_t> rule_on_path(
    const codegen::Configuration& config, const topo::Topology& topo,
    const analysis::Update_checker::Reused_class& cls,
    const core::Compilation& compilation) {
    const core::Statement_plan* plan = nullptr;
    for (const core::Statement_plan& p : compilation.plans)
        if (p.statement.id == cls.id) plan = &p;
    if (plan == nullptr || !plan->dst_host) return std::nullopt;
    const std::uint64_t dst = compilation.addressing.mac(*plan->dst_host);
    pred::Analyzer analyzer;
    for (const auto& [node, tag] : cls.states) {
        const std::string& device = topo.node(node).name;
        std::vector<std::size_t> rules;
        for (std::size_t i = 0; i < config.flow_rules.size(); ++i)
            if (config.flow_rules[i].device == device) rules.push_back(i);
        std::stable_sort(rules.begin(), rules.end(),
                         [&](std::size_t a, std::size_t b) {
                             return config.flow_rules[a].priority >
                                    config.flow_rules[b].priority;
                         });
        for (const std::size_t i : rules) {
            const codegen::Flow_rule& r = config.flow_rules[i];
            if (r.out_port.empty() || r.drop) continue;
            if (r.match_tag && *r.match_tag != tag) continue;
            if (r.match_dst_mac && *r.match_dst_mac != dst) continue;
            if (r.match &&
                analyzer.disjoint(r.match, plan->statement.predicate))
                continue;
            return i;
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<std::string> Symbolic_oracle::step(
    const core::Compilation& compilation, const topo::Topology& topo,
    bool check_transition) {
    if (!compilation.feasible) return std::nullopt;
    const analysis::Update_checker before = checker_;
    analysis::Report report;
    try {
        report = checker_.step(compilation, topo, check_transition);
    } catch (const Error& e) {
        return fail("symbolic", std::string("checker threw: ") + e.what());
    }

    // Cache cross-oracle: the step must report what an empty-cache proof of
    // the same inputs reports, and so must the same cache on a copy of the
    // tables with one forwarding rule removed from the path of a class the
    // step reused (clean traces alone cannot catch a reach test that is
    // too generous).
    const bool transition = seeded_ && check_transition;
    const auto fresh = [&](const codegen::Configuration& tables) {
        return transition
                   ? analysis::check_update(
                         previous_, compilation, before.config(),
                         codegen::diff(before.config(), tables), tables, topo)
                   : analysis::check_dataplane(compilation, tables, topo);
    };
    const codegen::Configuration& config = checker_.config();
    if (const auto mismatch = report_mismatch(report, fresh(config)))
        return fail("symbolic-cache", *mismatch);
    const auto reused = checker_.reused_classes();
    if (!reused.empty()) {
        if (const auto victim =
                rule_on_path(config, topo, reused.front(), compilation)) {
            auto corrupted = std::make_shared<codegen::Configuration>(config);
            const std::string removed =
                codegen::to_text(corrupted->flow_rules[*victim]);
            corrupted->flow_rules.erase(corrupted->flow_rules.begin() +
                                        static_cast<std::ptrdiff_t>(*victim));
            analysis::Update_checker seeded = before;
            const analysis::Report cached = seeded.prove(
                compilation, corrupted,
                codegen::diff(before.config(), *corrupted), topo,
                check_transition);
            const analysis::Report expected = fresh(*corrupted);
            const std::string context = "with [" + removed +
                                        "] removed from the path of '" +
                                        reused.front().id + "': ";
            if (const auto mismatch = report_mismatch(cached, expected))
                return fail("symbolic-cache", context + *mismatch);
            if (!analysis::has_errors(expected))
                return fail("symbolic-cache",
                            context + "the tables still prove out");
        }
    }
    previous_ = compilation;
    seeded_ = true;

    // Warnings fail the oracle too: a generated configuration is expected
    // to contain no dead rules, so even a shadowed-rule finding marks a
    // codegen regression (or a checker false positive worth a repro).
    if (report.empty()) return std::nullopt;
    return fail("symbolic", analysis::to_text(report.front()));
}

}  // namespace merlin::testgen
