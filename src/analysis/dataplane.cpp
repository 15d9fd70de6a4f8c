#include "analysis/dataplane.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/witness.h"
#include "pred/analysis.h"

namespace merlin::analysis {

namespace {

// ------------------------------------------------------------ lifted tables

struct Click_forward {
    int in_tag = -1;
    int out_tag = -1;
    std::string toward;
};

// Parses "VLANClassifier(<in>) -> SetVLANAnno(<out>) -> ToDevice(toward
// <name>);" out of a middlebox forwarding Click config (the exact shape
// codegen emits); nullopt for any other snippet.
std::optional<Click_forward> parse_click_forward(const std::string& config) {
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
        Click_forward out;
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

// A configuration indexed per device, switch rules sorted by descending
// priority (stably, so equal-priority iteration order matches emission).
struct Lifted {
    std::map<std::string, std::vector<const codegen::Flow_rule*>> rules;
    std::map<std::string, std::vector<Click_forward>> clicks;

    explicit Lifted(const codegen::Configuration& config) {
        for (const codegen::Flow_rule& r : config.flow_rules)
            rules[r.device].push_back(&r);
        for (auto& [device, list] : rules)
            std::stable_sort(list.begin(), list.end(),
                             [](const codegen::Flow_rule* a,
                                const codegen::Flow_rule* b) {
                                 return a->priority > b->priority;
                             });
        for (const codegen::Click_config& c : config.click_configs)
            if (const auto f = parse_click_forward(c.config))
                clicks[c.device].push_back(*f);
    }
};

// The header predicate a rule matches (null = wildcard = true).
const ir::PredPtr& pred_of(const codegen::Flow_rule& r) {
    static const ir::PredPtr kTrue = ir::pred_true();
    return r.match == nullptr ? kTrue : r.match;
}

bool same_action(const codegen::Flow_rule& a, const codegen::Flow_rule& b) {
    return a.drop == b.drop && a.set_tag == b.set_tag &&
           a.strip_tag == b.strip_tag && a.out_port == b.out_port;
}

// ---------------------------------------------------------- static checks

// True when every packet matching `r`'s tag pattern also matches `cover`'s
// (i.e. cover's tag side is a wildcard or pins the same value r pins).
// With `r` the wildcard and `cover` concrete the answer is no: cover only
// claims one tag's slice. Used for both the tag and dst-mac match sides.
template <typename T>
bool generalizes(const std::optional<T>& cover, const std::optional<T>& of) {
    return !cover.has_value() || (of.has_value() && *cover == *of);
}

template <typename T>
bool patterns_overlap(const std::optional<T>& a, const std::optional<T>& b) {
    return !a.has_value() || !b.has_value() || *a == *b;
}

// Decided on compiled roots; the IR conjunction is built only for a
// finding's witness. Each rule is compiled when the scan first needs it:
// that order registers payload variables, and so fixes the witnesses.
void check_device_tables(const Lifted& lifted, pred::Analyzer& analyzer,
                         Report& report) {
    bdd::Manager& mgr = analyzer.manager();
    const auto root_of = [&](const codegen::Flow_rule& r) {
        return analyzer.compile(pred_of(r));
    };
    for (const auto& [device, rules] : lifted.rules) {
        for (std::size_t i = 0; i < rules.size(); ++i) {
            const codegen::Flow_rule& r = *rules[i];
            const bdd::Node root = root_of(r);
            if (root == bdd::kFalse) continue;

            // Equal-priority determinism: two rules in the same band that
            // can match a common packet must agree on what to do with it.
            for (std::size_t j = i + 1;
                 j < rules.size() && rules[j]->priority == r.priority; ++j) {
                const codegen::Flow_rule& other = *rules[j];
                if (same_action(r, other)) continue;
                if (!patterns_overlap(r.match_tag, other.match_tag) ||
                    !patterns_overlap(r.match_dst_mac, other.match_dst_mac))
                    continue;
                if (mgr.disjoint(root, root_of(other))) continue;
                report.push_back(
                    {Severity::error, "ambiguous-rules", device,
                     "equal-priority rules disagree: [" +
                         codegen::to_text(r) + "] vs [" +
                         codegen::to_text(other) + "]",
                     packet_witness(analyzer, ir::pred_and(pred_of(r),
                                                           pred_of(other)))});
            }

            // Shadowing (sound under-approximation): a higher-priority rule
            // contributes to covering `r` only when its tag and dst
            // patterns generalize r's, so the header predicates alone
            // decide whether any packet is left for r to claim.
            bdd::Node covered = bdd::kFalse;
            bool any_cover = false;
            for (std::size_t j = 0; j < i; ++j) {
                const codegen::Flow_rule& higher = *rules[j];
                if (higher.priority == r.priority) break;
                if (!generalizes(higher.match_tag, r.match_tag) ||
                    !generalizes(higher.match_dst_mac, r.match_dst_mac))
                    continue;
                covered = mgr.apply_or(covered, root_of(higher));
                any_cover = true;
            }
            if (any_cover && mgr.implies(root, covered))
                report.push_back(
                    {Severity::warning, "shadowed-rule", device,
                     "rule [" + codegen::to_text(r) +
                         "] can never fire: higher-priority rules claim "
                         "every packet it matches",
                     packet_witness(analyzer, pred_of(r))});
        }
    }
}

// ------------------------------------------------------ symbolic propagation

// One delivered slice of a class: the devices its packets visited (in
// order, ending at the host) and the header set that took that route.
struct Delivery {
    std::vector<std::string> path;
    bdd::Node set = bdd::kFalse;
    ir::PredPtr expr;
};

struct Class_check {
    std::string id;
    ir::PredPtr predicate;
    std::uint64_t dst_mac = 0;
    std::string dst_name;
    std::vector<std::string> ingresses;
};

// A branch of the symbolic flow: a header subset at a concrete position.
struct Branch {
    std::string device;
    std::string prev;  // "" at the ingress
    int tag = -1;
    bdd::Node set = bdd::kFalse;
    ir::PredPtr expr;
    std::vector<std::string> path;
    std::set<std::string> visited;  // loop keys along this branch's history
    int ttl = 0;
};

// Routes the whole class set injected untagged at `ingress` through the
// lifted table, reporting every way any header subset can fail and
// returning the delivered slices. `phase` prefixes messages when checking
// the intermediate tables of an update ("" otherwise).
std::vector<Delivery> propagate(const Lifted& lifted,
                                const topo::Topology& topo,
                                pred::Analyzer& analyzer,
                                const Class_check& cls,
                                const std::string& ingress,
                                const std::string& phase, Report& report) {
    std::vector<Delivery> delivered;
    bdd::Manager& mgr = analyzer.manager();
    const std::string what = (phase.empty() ? "" : phase + ": ") +
                             "statement '" + cls.id + "' from " + ingress;
    auto diag = [&](const char* check, const std::string& message,
                    const ir::PredPtr& expr) {
        report.push_back({Severity::error, check, cls.id,
                          what + ": " + message,
                          packet_witness(analyzer, expr)});
    };

    std::vector<Branch> work;
    {
        Branch start;
        start.device = ingress;
        start.tag = -1;
        start.set = analyzer.compile(cls.predicate);
        start.expr = cls.predicate;
        start.ttl = 4 * topo.node_count() + 8;
        work.push_back(std::move(start));
    }

    while (!work.empty()) {
        Branch b = std::move(work.back());
        work.pop_back();
        const auto node_id = topo.find(b.device);
        if (!node_id) {
            diag("failed-link", "reaches unknown device '" + b.device + "'",
                 b.expr);
            continue;
        }
        const topo::Node_kind kind = topo.node(*node_id).kind;
        b.path.push_back(b.device);

        if (kind == topo::Node_kind::host) {
            if (b.device != cls.dst_name) {
                diag("misdelivery", "is handed to host '" + b.device + "'",
                     b.expr);
                continue;
            }
            if (b.tag != -1) {
                diag("tag-leak", "is delivered with tag " +
                                     std::to_string(b.tag) + " not stripped",
                     b.expr);
                continue;
            }
            delivered.push_back({std::move(b.path), b.set, b.expr});
            continue;
        }
        if (b.ttl-- <= 0) {
            diag("forwarding-loop", "exhausts its hop budget", b.expr);
            continue;
        }
        // Tables are memoryless: a switch's choice depends only on the
        // carried tag (and headers, which only narrow along a branch), a
        // middlebox's also on where the packet came from. Revisiting the
        // same state means every remaining header cycles forever.
        const std::string key =
            kind == topo::Node_kind::middlebox
                ? b.device + "|" + b.prev + "|" + std::to_string(b.tag)
                : b.device + "|" + std::to_string(b.tag);
        if (!b.visited.insert(key).second) {
            diag("forwarding-loop",
                 "revisits " + b.device + " carrying tag " +
                     std::to_string(b.tag),
                 b.expr);
            continue;
        }

        // Compute the successor branches (next device, tag, subset).
        struct Hop {
            std::string next;
            int tag;
            bdd::Node set;
            ir::PredPtr expr;
        };
        std::vector<Hop> hops;

        if (kind == topo::Node_kind::middlebox) {
            const Click_forward* forward = nullptr;
            if (const auto it = lifted.clicks.find(b.device);
                it != lifted.clicks.end())
                for (const Click_forward& f : it->second)
                    if (f.in_tag == b.tag) {
                        forward = &f;
                        break;
                    }
            if (forward != nullptr) {
                hops.push_back({forward->toward,
                                forward->out_tag != -1 ? forward->out_tag
                                                       : b.tag,
                                b.set, b.expr});
            } else {
                std::vector<std::string> live;
                for (const auto& adj : topo.neighbors(*node_id))
                    if (topo.link_up(adj.link))
                        live.push_back(topo.node(adj.node).name);
                if (live.size() == 1) {
                    hops.push_back({live.front(), b.tag, b.set, b.expr});
                } else if (live.size() == 2 &&
                           std::find(live.begin(), live.end(), b.prev) !=
                               live.end()) {
                    hops.push_back({live.front() == b.prev ? live.back()
                                                           : live.front(),
                                    b.tag, b.set, b.expr});
                } else {
                    diag("middlebox-stuck",
                         "middlebox '" + b.device +
                             "' has no deterministic way out for tag " +
                             std::to_string(b.tag),
                         b.expr);
                    continue;
                }
            }
        } else {
            // Switch: walk the priority bands, splitting the set over the
            // rules that match part of it; what no rule claims blackholes.
            bdd::Node remaining = b.set;
            ir::PredPtr remaining_expr = b.expr;
            const auto table = lifted.rules.find(b.device);
            if (table != lifted.rules.end()) {
                for (const codegen::Flow_rule* rule : table->second) {
                    if (remaining == bdd::kFalse) break;
                    if (rule->match_tag && *rule->match_tag != b.tag)
                        continue;
                    if (rule->match_dst_mac &&
                        *rule->match_dst_mac != cls.dst_mac)
                        continue;
                    const bdd::Node part = mgr.apply_and(
                        remaining, analyzer.compile(pred_of(*rule)));
                    if (part == bdd::kFalse) continue;
                    const ir::PredPtr part_expr =
                        ir::pred_and(remaining_expr, pred_of(*rule));
                    remaining = mgr.apply_and(
                        remaining,
                        mgr.negate(analyzer.compile(pred_of(*rule))));
                    remaining_expr = ir::pred_and(
                        remaining_expr, ir::pred_not(pred_of(*rule)));
                    if (rule->drop) {
                        diag("unexpected-drop",
                             "is dropped at '" + b.device + "'", part_expr);
                        continue;
                    }
                    if (rule->out_port.empty()) {
                        diag("blackhole",
                             "matches an actionless rule at '" + b.device +
                                 "'",
                             part_expr);
                        continue;
                    }
                    int tag = b.tag;
                    if (rule->set_tag) tag = *rule->set_tag;
                    if (rule->strip_tag) tag = -1;
                    hops.push_back({rule->out_port, tag, part, part_expr});
                }
            }
            if (remaining != bdd::kFalse)
                diag("blackhole",
                     "has no matching rule at '" + b.device + "'",
                     remaining_expr);
        }

        for (Hop& hop : hops) {
            const auto next_id = topo.find(hop.next);
            if (!next_id) {
                diag("failed-link",
                     "is forwarded from '" + b.device + "' to unknown '" +
                         hop.next + "'",
                     hop.expr);
                continue;
            }
            const auto link = topo.link_between(*node_id, *next_id);
            if (!link || !topo.link_up(*link)) {
                diag("failed-link",
                     "is forwarded from '" + b.device + "' to '" + hop.next +
                         "' over a " +
                         (link ? "failed" : "nonexistent") + " link",
                     hop.expr);
                continue;
            }
            Branch next;
            next.device = std::move(hop.next);
            next.prev = b.device;
            next.tag = hop.tag;
            next.set = hop.set;
            next.expr = std::move(hop.expr);
            next.path = b.path;
            next.visited = b.visited;
            next.ttl = b.ttl;
            work.push_back(std::move(next));
        }
    }
    return delivered;
}

// --------------------------------------------------------- class selection

const core::Statement_plan* find_plan(const core::Compilation& comp,
                                      const std::string& id) {
    for (const core::Statement_plan& plan : comp.plans)
        if (plan.statement.id == id) return &plan;
    return nullptr;
}

// A guaranteed path through a multi-link middlebox with no Click forward
// resolves by passthrough, which is only deterministic over a single link:
// skip such statements, exactly as the replay oracle does.
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

std::vector<std::string> edge_switches(topo::NodeId src,
                                       const topo::Topology& topo) {
    std::vector<std::string> out;
    for (const auto& adj : topo.neighbors(src))
        if (topo.node(adj.node).kind == topo::Node_kind::switch_ &&
            topo.link_up(adj.link))
            out.push_back(topo.node(adj.node).name);
    return out;
}

// The checkable classes of one compilation: pinned, non-drop, non-default
// statements with a deterministic passthrough and a known ingress.
std::vector<Class_check> select_classes(const core::Compilation& comp,
                                        const topo::Topology& topo,
                                        pred::Analyzer& analyzer) {
    std::vector<Class_check> out;
    for (const core::Statement_plan& plan : comp.plans) {
        if (plan.statement.id == "__default" || plan.drop) continue;
        if (!plan.src_host || !plan.dst_host) continue;
        if (passthrough_ambiguous(plan, topo)) continue;
        // Unsatisfiable predicates carry no traffic to check. The compile is
        // memoized in the checker's space, so a candidate costs one BDD
        // compile per distinct predicate.
        if (analyzer.compile(plan.statement.predicate) == bdd::kFalse)
            continue;
        Class_check cls;
        cls.id = plan.statement.id;
        cls.predicate = plan.statement.predicate;
        cls.dst_mac = comp.addressing.mac(*plan.dst_host);
        cls.dst_name = topo.node(*plan.dst_host).name;
        const topo::NodeId ingress = classify_switch(plan, topo);
        if (ingress != topo::kNoNode)
            cls.ingresses.push_back(topo.node(ingress).name);
        else if (!plan.path)
            cls.ingresses = edge_switches(*plan.src_host, topo);
        if (cls.ingresses.empty()) continue;
        out.push_back(std::move(cls));
    }
    return out;
}

// Static checks plus symbolic propagation of every class over one lifted
// table, through the caller's analyzer; returns the classes it checked.
std::vector<Class_check> check_lifted(const core::Compilation& compilation,
                                      const Lifted& lifted,
                                      const topo::Topology& topo,
                                      pred::Analyzer& analyzer,
                                      Report& report) {
    check_device_tables(lifted, analyzer, report);
    std::vector<Class_check> classes =
        select_classes(compilation, topo, analyzer);
    for (const Class_check& cls : classes)
        for (const std::string& ingress : cls.ingresses)
            propagate(lifted, topo, analyzer, cls, ingress, "", report);
    return classes;
}

// check_dataplane and check_update, proved in the caller's predicate space.
Report prove_dataplane(const core::Compilation& compilation,
                       const codegen::Configuration& config,
                       const topo::Topology& topo, pred::Analyzer& analyzer) {
    Report report;
    (void)check_lifted(compilation, Lifted(config), topo, analyzer, report);
    return report;
}

Report prove_update(const core::Compilation& old_comp,
                    const core::Compilation& new_comp,
                    const codegen::Configuration& old_config,
                    const codegen::Diff& diff,
                    const codegen::Configuration& new_config,
                    const topo::Topology& topo, pred::Analyzer& analyzer) {
    // The post-update table is proved in full first (as check_dataplane);
    // its lifted form, analyzer and class selection then serve the phase
    // replays.
    Report report;
    bdd::Manager& mgr = analyzer.manager();
    codegen::Configuration prepared = old_config;
    codegen::apply_prepare(prepared, diff);
    codegen::Configuration committed = prepared;
    codegen::apply_commit(committed, diff);
    const Lifted lifted[4] = {Lifted(old_config), Lifted(prepared),
                              Lifted(committed), Lifted(new_config)};
    static const char* const kPhase[4] = {"pre-update", "after prepare",
                                          "after commit", "post-update"};
    const std::vector<Class_check> classes =
        check_lifted(new_comp, lifted[3], topo, analyzer, report);

    // A class is replayed across phases only when stable: present in both
    // compilations with the same predicate, not dropped on either side, and
    // with an unmoved classification point (a reroute legitimately leaves
    // the old ingress without a classifier mid-update).
    for (Class_check cls : classes) {
        const core::Statement_plan* old_plan = find_plan(old_comp, cls.id);
        const core::Statement_plan* new_plan = find_plan(new_comp, cls.id);
        if (old_plan == nullptr || old_plan->drop) continue;
        if (!ir::equal(old_plan->statement.predicate, cls.predicate))
            continue;
        if (passthrough_ambiguous(*old_plan, topo)) continue;
        const topo::NodeId old_ingress = classify_switch(*old_plan, topo);
        const topo::NodeId new_ingress = classify_switch(*new_plan, topo);
        if (old_ingress != topo::kNoNode || new_ingress != topo::kNoNode) {
            if (old_ingress != new_ingress) continue;
            cls.ingresses = {topo.node(new_ingress).name};
        }

        for (const std::string& ingress : cls.ingresses) {
            std::vector<Delivery> phases[4];
            bool complete = true;
            for (int p = 0; p < 4; ++p) {
                const std::size_t before = report.size();
                phases[p] = propagate(lifted[p], topo, analyzer, cls,
                                      ingress, kPhase[p], report);
                if (report.size() != before) complete = false;
            }
            if (!complete) continue;
            // Per-packet consistency: any header in two delivered slices of
            // adjacent phase pairs must have taken the same route.
            const auto blend = [&](int first, int second,
                                   const char* message) {
                for (const Delivery& da : phases[first])
                    for (const Delivery& db : phases[second]) {
                        if (da.path == db.path) continue;
                        const bdd::Node both = mgr.apply_and(da.set, db.set);
                        if (both == bdd::kFalse) continue;
                        report.push_back(
                            {Severity::error, "update-blend", cls.id,
                             "two-phase update of '" + cls.id + "' from " +
                                 ingress + ": " + message,
                             packet_witness(analyzer,
                                            ir::pred_and(da.expr, db.expr))});
                        return;
                    }
            };
            blend(0, 1,
                  "after prepare the packet leaves its pre-update path "
                  "(old/new mix)");
            blend(3, 2,
                  "after commit the packet is not yet on its post-update "
                  "path (old/new mix)");
        }
    }
    return report;
}

}  // namespace

// ----------------------------------------------------------------- entries

Report check_tables(const codegen::Configuration& config,
                    const topo::Topology& topo) {
    (void)topo;
    Report report;
    pred::Analyzer analyzer;
    check_device_tables(Lifted(config), analyzer, report);
    return report;
}

Report check_dataplane(const core::Compilation& compilation,
                       const codegen::Configuration& config,
                       const topo::Topology& topo) {
    pred::Analyzer analyzer;
    return prove_dataplane(compilation, config, topo, analyzer);
}

Report check_update(const core::Compilation& old_comp,
                    const core::Compilation& new_comp,
                    const codegen::Configuration& old_config,
                    const codegen::Diff& diff,
                    const codegen::Configuration& new_config,
                    const topo::Topology& topo) {
    pred::Analyzer analyzer;
    return prove_update(old_comp, new_comp, old_config, diff, new_config,
                        topo, analyzer);
}

Report Update_checker::step(const core::Compilation& compilation,
                            const topo::Topology& topo,
                            bool check_transition) {
    // Codegen begins the generation; its proof shares the predicate space.
    const codegen::Diff diff = incremental_.update(compilation, topo);
    const codegen::Configuration& config = incremental_.config();
    pred::Analyzer& analyzer = incremental_.analyzer();
    Report report =
        seeded_ && check_transition
            ? prove_update(previous_, compilation, previous_config_, diff,
                           config, topo, analyzer)
            : prove_dataplane(compilation, config, topo, analyzer);
    previous_ = compilation;
    previous_config_ = config;
    seeded_ = true;
    return report;
}

}  // namespace merlin::analysis
