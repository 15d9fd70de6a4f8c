#include "oracle.h"

#include <chrono>
#include <map>
#include <optional>

#include "netsim/tables.h"
#include "pred/analysis.h"

namespace perfbench {

namespace {

using merlin::core::Statement_plan;
using merlin::topo::Node_kind;
using merlin::topo::NodeId;
using merlin::topo::Topology;

bool pinned(const Statement_plan& plan) {
    return plan.statement.id != "__default" && !plan.drop && plan.src_host &&
           plan.dst_host;
}

// Switch names of a provisioned path from its first switch on, ending at
// the destination host: the device sequence a probe must visit.
std::vector<std::string> expected_route(const Statement_plan& plan,
                                        const Topology& topo) {
    std::vector<std::string> out;
    for (const NodeId n : plan.path->nodes)
        if (!out.empty() || topo.node(n).kind == Node_kind::switch_)
            out.push_back(topo.node(n).name);
    return out;
}

}  // namespace

Probe_report probe(const merlin::core::Compilation& compilation,
                   const merlin::codegen::Configuration& config,
                   const Topology& topo) {
    // Traffic classes: one per pinned statement, keyed by predicate BDD so
    // a rule matches its statement's packets however its predicate is
    // spelled. Rules for other predicates (the catch-all) match no probe.
    merlin::pred::Analyzer analyzer;
    std::map<merlin::bdd::Node, int> class_of;
    for (std::size_t i = 0; i < compilation.plans.size(); ++i)
        if (pinned(compilation.plans[i]))
            class_of.emplace(
                analyzer.compile(compilation.plans[i].statement.predicate),
                static_cast<int>(i));

    merlin::netsim::Rule_network net(topo);
    for (const merlin::codegen::Flow_rule& r : config.flow_rules) {
        merlin::netsim::Table_rule rule;
        rule.priority = r.priority;
        if (r.match != nullptr) {
            const auto it = class_of.find(analyzer.compile(r.match));
            rule.match_class =
                it == class_of.end() ? merlin::netsim::kMatchNothing
                                     : it->second;
        }
        rule.match_tag = r.match_tag.value_or(-1);
        rule.match_dst = r.match_dst_mac.value_or(0);
        rule.drop = r.drop;
        rule.set_tag = r.set_tag.value_or(-1);
        rule.strip_tag = r.strip_tag;
        rule.out_port = r.out_port;
        net.add_rule(r.device, std::move(rule));
    }
    for (const NodeId h : topo.hosts())
        net.set_host_mac(topo.node(h).name, compilation.addressing.mac(h));

    Probe_report report;
    for (std::size_t i = 0; i < compilation.plans.size(); ++i) {
        const Statement_plan& plan = compilation.plans[i];
        if (!pinned(plan)) continue;
        std::vector<std::string> ingresses;
        std::vector<std::string> route;
        if (plan.path) {
            route = expected_route(plan, topo);
            ingresses.push_back(route.front());
        } else {
            for (const auto& adj : topo.neighbors(*plan.src_host))
                if (topo.node(adj.node).kind == Node_kind::switch_ &&
                    topo.link_up(adj.link))
                    ingresses.push_back(topo.node(adj.node).name);
        }
        merlin::netsim::Packet packet;
        packet.traffic_class = static_cast<int>(i);
        packet.dst = compilation.addressing.mac(*plan.dst_host);
        for (const std::string& ingress : ingresses) {
            const auto start = std::chrono::steady_clock::now();
            const merlin::netsim::Table_trace trace = net.route(ingress, packet);
            report.route_us.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            ++report.probes;
            const std::string what =
                "probe " + plan.statement.id + " from " + ingress + ": ";
            if (!trace.delivered)
                report.failures.push_back(what + trace.verdict);
            else if (trace.path.back() != topo.node(*plan.dst_host).name)
                report.failures.push_back(what + "delivered to " +
                                          trace.path.back());
            else if (plan.path && trace.path != route)
                report.failures.push_back(what +
                                          "left its provisioned path");
        }
    }
    return report;
}

bool break_one_rule(const merlin::core::Compilation& compilation,
                    merlin::codegen::Configuration& config,
                    const Topology& topo) {
    merlin::pred::Analyzer analyzer;
    for (const Statement_plan& plan : compilation.plans) {
        if (!pinned(plan) || !plan.path) continue;
        const std::vector<std::string> route = expected_route(plan, topo);
        if (route.size() < 3) continue;
        // The tag the ingress classifier pushes for this statement...
        const merlin::bdd::Node root =
            analyzer.compile(plan.statement.predicate);
        std::optional<int> tag;
        for (const merlin::codegen::Flow_rule& r : config.flow_rules)
            if (r.device == route[0] && r.match != nullptr && r.set_tag &&
                analyzer.compile(r.match) == root)
                tag = r.set_tag;
        if (!tag) continue;
        // ... and the rule that carries it from the second switch onward.
        for (auto it = config.flow_rules.begin(); it != config.flow_rules.end();
             ++it)
            if (it->device == route[1] && it->match_tag == tag &&
                it->out_port == route[2]) {
                config.flow_rules.erase(it);
                return true;
            }
    }
    return false;
}

}  // namespace perfbench
