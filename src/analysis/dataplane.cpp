#include "analysis/dataplane.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/witness.h"
#include "pred/analysis.h"
#include "util/error.h"

namespace merlin::analysis {

namespace detail {

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

using Rule_list = std::vector<const codegen::Flow_rule*>;
using Click_list = std::vector<Click_forward>;

// Descending priority, stably, so equal-priority iteration order matches
// emission.
void sort_by_priority(Rule_list& rules) {
    std::stable_sort(rules.begin(), rules.end(),
                     [](const codegen::Flow_rule* a,
                        const codegen::Flow_rule* b) {
                         return a->priority > b->priority;
                     });
}

// A configuration indexed per device. A device's index is its topology
// node id; a name the topology lacks gets an index past them, so the
// static checks still see its rules (propagation never reaches it).
struct Lifted {
    std::vector<Rule_list> rules;    // by device index
    std::vector<Click_list> clicks;  // by node id
    std::vector<std::string> unknown;  // names of the indices past the nodes

    Lifted(const codegen::Configuration& config, const topo::Topology& topo)
        : rules(static_cast<std::size_t>(topo.node_count())),
          clicks(static_cast<std::size_t>(topo.node_count())) {
        const std::string* last = nullptr;
        std::size_t index = 0;
        for (const codegen::Flow_rule& r : config.flow_rules) {
            if (last == nullptr || r.device != *last) {
                index = device_index(r.device, topo);
                last = &r.device;
            }
            rules[index].push_back(&r);
        }
        for (Rule_list& list : rules) sort_by_priority(list);
        for (const codegen::Click_config& c : config.click_configs)
            if (const auto node = topo.find(c.device))
                if (auto f = parse_click_forward(c.config))
                    clicks[static_cast<std::size_t>(*node)].push_back(
                        std::move(*f));
    }

    [[nodiscard]] const std::string& name(std::size_t index,
                                          const topo::Topology& topo) const {
        const auto nodes = static_cast<std::size_t>(topo.node_count());
        return index < nodes ? topo.node(static_cast<topo::NodeId>(index)).name
                             : unknown[index - nodes];
    }

private:
    std::size_t device_index(const std::string& device,
                             const topo::Topology& topo) {
        if (const auto node = topo.find(device))
            return static_cast<std::size_t>(*node);
        const auto nodes = static_cast<std::size_t>(topo.node_count());
        const auto it = std::find(unknown.begin(), unknown.end(), device);
        if (it != unknown.end())
            return nodes + static_cast<std::size_t>(it - unknown.begin());
        unknown.push_back(device);
        rules.emplace_back();
        return rules.size() - 1;
    }
};

// One phase's tables as propagation reads them: per node, the rule and
// Click lists in force. Lists are owned elsewhere (a Lifted or an overlay).
struct Table {
    std::vector<const Rule_list*> rules;
    std::vector<const Click_list*> clicks;

    Table(const Lifted& lifted, const topo::Topology& topo) {
        const auto nodes = static_cast<std::size_t>(topo.node_count());
        for (std::size_t n = 0; n < nodes; ++n) {
            rules.push_back(&lifted.rules[n]);
            clicks.push_back(&lifted.clicks[n]);
        }
    }
};

// A (device, carried tag) state of a class's proof as one integer; tag -1
// is untagged.
using State = std::uint64_t;

State pack(topo::NodeId device, int tag) {
    return (static_cast<State>(static_cast<std::uint32_t>(device)) << 32) |
           static_cast<std::uint32_t>(tag + 1);
}
topo::NodeId device_of(State s) { return static_cast<topo::NodeId>(s >> 32); }
int tag_of(State s) { return static_cast<int>(s & 0xffffffffU) - 1; }

// What a phase replay needs of a previous generation's plan.
struct Plan_summary {
    std::string id;
    ir::PredPtr predicate;
    bool drop = false;
    topo::NodeId classify = topo::kNoNode;   // see classify_switch
    std::vector<topo::NodeId> path;          // provisioned path, if any
};

// A class's last clean proof, under its cache key (statement id,
// predicate, destination MAC, ingress list).
struct Class_proof {
    std::string id;
    ir::PredPtr predicate;
    std::uint64_t dst_mac = 0;
    std::vector<topo::NodeId> ingresses;
    std::vector<State> states;  // sorted, unique: every table state visited
};

// What one generation's proof leaves for the next. Immutable once built;
// Update_checker copies share it. No bdd::Node is held: the space may
// vacuum between generations.
struct Generation {
    std::shared_ptr<const codegen::Configuration> config;
    Lifted lifted;  // points into *config
    std::vector<Plan_summary> plans;  // sorted by id
    // False for a table-only generation (check_update's old side): its
    // proofs and device checks are not a cache.
    bool proved = false;
    std::vector<Class_proof> proofs;   // sorted by id; clean classes only
    std::vector<char> clean;           // by node id: no static finding
    std::vector<char> links_up;        // by link id
    std::vector<std::string> reused;   // classes this step reused, in order

    Generation(std::shared_ptr<const codegen::Configuration> tables,
               const topo::Topology& topo)
        : config(std::move(tables)), lifted(*config, topo) {}
};

}  // namespace detail

namespace {

using detail::Class_proof;
using detail::Click_forward;
using detail::Click_list;
using detail::Generation;
using detail::Lifted;
using detail::Plan_summary;
using detail::Rule_list;
using detail::State;
using detail::Table;

// The header predicate a rule matches (null = wildcard = true).
const ir::PredPtr& pred_of(const codegen::Flow_rule& r) {
    static const ir::PredPtr kTrue = ir::pred_true();
    return r.match == nullptr ? kTrue : r.match;
}

bool same_action(const codegen::Flow_rule& a, const codegen::Flow_rule& b) {
    return a.drop == b.drop && a.set_tag == b.set_tag &&
           a.strip_tag == b.strip_tag && a.out_port == b.out_port;
}

// Non-owning: for the per-call entries, whose caller keeps the tables
// alive for the whole proof.
std::shared_ptr<const codegen::Configuration> borrow(
    const codegen::Configuration& config) {
    return {std::shared_ptr<const void>(), &config};
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
void check_device(const std::string& device, const Rule_list& rules,
                  pred::Analyzer& analyzer, Report& report) {
    bdd::Manager& mgr = analyzer.manager();
    const auto root_of = [&](const codegen::Flow_rule& r) {
        return analyzer.compile(pred_of(r));
    };
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const codegen::Flow_rule& r = *rules[i];
        const bdd::Node root = root_of(r);
        if (root == bdd::kFalse) continue;

        // Equal-priority determinism: two rules in the same band that can
        // match a common packet must agree on what to do with it.
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
                 "equal-priority rules disagree: [" + codegen::to_text(r) +
                     "] vs [" + codegen::to_text(other) + "]",
                 packet_witness(analyzer,
                                ir::pred_and(pred_of(r), pred_of(other)))});
        }

        // Shadowing (sound under-approximation): a higher-priority rule
        // contributes to covering `r` only when its tag and dst patterns
        // generalize r's, so the header predicates alone decide whether any
        // packet is left for r to claim.
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
                     "] can never fire: higher-priority rules claim every "
                     "packet it matches",
                 packet_witness(analyzer, pred_of(r))});
    }
}

// The device indices holding rules, in name order: the order a fresh
// proof reports static findings in.
std::vector<std::size_t> devices_by_name(const Lifted& lifted,
                                         const topo::Topology& topo) {
    std::vector<std::size_t> order;
    for (std::size_t d = 0; d < lifted.rules.size(); ++d)
        if (!lifted.rules[d].empty()) order.push_back(d);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return lifted.name(a, topo) < lifted.name(b, topo);
    });
    return order;
}

// ------------------------------------------------------ symbolic propagation

// One delivered slice of a class: the devices its packets visited (in
// order, ending at the host) and the header set that took that route.
struct Delivery {
    std::vector<topo::NodeId> path;
    bdd::Node set = bdd::kFalse;
    ir::PredPtr expr;
};

struct Class_check {
    std::string id;
    ir::PredPtr predicate;
    std::uint64_t dst_mac = 0;
    topo::NodeId dst = topo::kNoNode;
    topo::NodeId classify = topo::kNoNode;  // see classify_switch
    std::vector<topo::NodeId> ingresses;
};

// A table state a branch consulted: a switch's choice depends on the
// carried tag (and headers, which only narrow along a branch), a
// middlebox's also on where the packet came from.
struct Loop_key {
    topo::NodeId device = topo::kNoNode;
    topo::NodeId prev = topo::kNoNode;  // middleboxes only
    int tag = -1;
    bool operator==(const Loop_key&) const = default;
};

// A branch of the symbolic flow: a header subset at a concrete position.
struct Branch {
    topo::NodeId device = topo::kNoNode;
    topo::NodeId prev = topo::kNoNode;  // kNoNode at the ingress
    int tag = -1;
    bdd::Node set = bdd::kFalse;
    ir::PredPtr expr;
    std::vector<topo::NodeId> path;
    std::vector<Loop_key> visited;  // along this branch's history
    int ttl = 0;
};

// Routes the whole class set injected untagged at `ingress` through one
// phase's tables, reporting every way any header subset can fail and
// returning the delivered slices. `phase` prefixes messages when checking
// the intermediate tables of an update ("" otherwise). Every table state
// consulted is appended to `states` when given.
std::vector<Delivery> propagate(const Table& table,
                                const topo::Topology& topo,
                                pred::Analyzer& analyzer,
                                const Class_check& cls, topo::NodeId ingress,
                                const std::string& phase, Report& report,
                                std::vector<State>* states = nullptr) {
    std::vector<Delivery> delivered;
    bdd::Manager& mgr = analyzer.manager();
    const std::string what = (phase.empty() ? "" : phase + ": ") +
                             "statement '" + cls.id + "' from " +
                             topo.node(ingress).name;
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
        start.set = analyzer.compile(cls.predicate);
        start.expr = cls.predicate;
        start.ttl = 4 * topo.node_count() + 8;
        work.push_back(std::move(start));
    }

    // A successor branch: the next device by name (resolved when followed)
    // or by node, the tag it carries and its header subset.
    struct Hop {
        const std::string* name;
        topo::NodeId node;
        int tag;
        bdd::Node set;
        ir::PredPtr expr;
    };
    std::vector<Hop> hops;
    while (!work.empty()) {
        Branch b = std::move(work.back());
        work.pop_back();
        const std::string& device = topo.node(b.device).name;
        const topo::Node_kind kind = topo.node(b.device).kind;
        b.path.push_back(b.device);

        if (kind == topo::Node_kind::host) {
            if (b.device != cls.dst) {
                diag("misdelivery", "is handed to host '" + device + "'",
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
        // Tables are memoryless: revisiting the same state means every
        // remaining header cycles forever.
        const Loop_key key{
            b.device,
            kind == topo::Node_kind::middlebox ? b.prev : topo::kNoNode,
            b.tag};
        if (std::find(b.visited.begin(), b.visited.end(), key) !=
            b.visited.end()) {
            diag("forwarding-loop",
                 "revisits " + device + " carrying tag " +
                     std::to_string(b.tag),
                 b.expr);
            continue;
        }
        b.visited.push_back(key);
        if (states != nullptr) states->push_back(detail::pack(b.device, b.tag));

        hops.clear();
        if (kind == topo::Node_kind::middlebox) {
            const Click_forward* forward = nullptr;
            for (const Click_forward& f :
                 *table.clicks[static_cast<std::size_t>(b.device)])
                if (f.in_tag == b.tag) {
                    forward = &f;
                    break;
                }
            if (forward != nullptr) {
                hops.push_back({&forward->toward, topo::kNoNode,
                                forward->out_tag != -1 ? forward->out_tag
                                                       : b.tag,
                                b.set, b.expr});
            } else {
                std::vector<topo::NodeId> live;
                for (const auto& adj : topo.neighbors(b.device))
                    if (topo.link_up(adj.link)) live.push_back(adj.node);
                if (live.size() == 1) {
                    hops.push_back(
                        {nullptr, live.front(), b.tag, b.set, b.expr});
                } else if (live.size() == 2 &&
                           std::find(live.begin(), live.end(), b.prev) !=
                               live.end()) {
                    hops.push_back({nullptr,
                                    live.front() == b.prev ? live.back()
                                                           : live.front(),
                                    b.tag, b.set, b.expr});
                } else {
                    diag("middlebox-stuck",
                         "middlebox '" + device +
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
            for (const codegen::Flow_rule* rule :
                 *table.rules[static_cast<std::size_t>(b.device)]) {
                if (remaining == bdd::kFalse) break;
                if (rule->match_tag && *rule->match_tag != b.tag) continue;
                if (rule->match_dst_mac && *rule->match_dst_mac != cls.dst_mac)
                    continue;
                const bdd::Node root = analyzer.compile(pred_of(*rule));
                const bdd::Node part = mgr.apply_and(remaining, root);
                if (part == bdd::kFalse) continue;
                const ir::PredPtr part_expr =
                    ir::pred_and(remaining_expr, pred_of(*rule));
                remaining = mgr.apply_and(remaining, mgr.negate(root));
                remaining_expr =
                    ir::pred_and(remaining_expr, ir::pred_not(pred_of(*rule)));
                if (rule->drop) {
                    diag("unexpected-drop", "is dropped at '" + device + "'",
                         part_expr);
                    continue;
                }
                if (rule->out_port.empty()) {
                    diag("blackhole",
                         "matches an actionless rule at '" + device + "'",
                         part_expr);
                    continue;
                }
                int tag = b.tag;
                if (rule->set_tag) tag = *rule->set_tag;
                if (rule->strip_tag) tag = -1;
                hops.push_back(
                    {&rule->out_port, topo::kNoNode, tag, part, part_expr});
            }
            if (remaining != bdd::kFalse)
                diag("blackhole", "has no matching rule at '" + device + "'",
                     remaining_expr);
        }

        for (Hop& hop : hops) {
            if (hop.node == topo::kNoNode) {
                const auto next = topo.find(*hop.name);
                if (!next) {
                    diag("failed-link",
                         "is forwarded from '" + device + "' to unknown '" +
                             *hop.name + "'",
                         hop.expr);
                    continue;
                }
                hop.node = *next;
            }
            const auto link = topo.link_between(b.device, hop.node);
            if (!link || !topo.link_up(*link)) {
                diag("failed-link",
                     "is forwarded from '" + device + "' to '" +
                         topo.node(hop.node).name + "' over a " +
                         (link ? "failed" : "nonexistent") + " link",
                     hop.expr);
                continue;
            }
            Branch next;
            next.device = hop.node;
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

// A guaranteed path through a multi-link middlebox with no Click forward
// resolves by passthrough, which is only deterministic over a single link:
// skip such statements, exactly as the replay oracle does.
bool passthrough_ambiguous(const std::vector<topo::NodeId>& path,
                           const topo::Topology& topo) {
    for (const topo::NodeId n : path) {
        if (topo.node(n).kind != topo::Node_kind::middlebox) continue;
        int live = 0;
        for (const auto& adj : topo.neighbors(n))
            if (topo.link_up(adj.link)) ++live;
        if (live > 1) return true;
    }
    return false;
}

const std::vector<topo::NodeId>& path_of(const core::Statement_plan& plan) {
    static const std::vector<topo::NodeId> kNone;
    return plan.path ? plan.path->nodes : kNone;
}

// The first switch of a guaranteed plan's provisioned path (its one
// classification point); kNoNode for best-effort plans.
topo::NodeId classify_switch(const core::Statement_plan& plan,
                             const topo::Topology& topo) {
    for (const topo::NodeId n : path_of(plan))
        if (topo.node(n).kind == topo::Node_kind::switch_) return n;
    return topo::kNoNode;
}

std::vector<topo::NodeId> edge_switches(topo::NodeId src,
                                        const topo::Topology& topo) {
    std::vector<topo::NodeId> out;
    for (const auto& adj : topo.neighbors(src))
        if (topo.node(adj.node).kind == topo::Node_kind::switch_ &&
            topo.link_up(adj.link))
            out.push_back(adj.node);
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
        if (passthrough_ambiguous(path_of(plan), topo)) continue;
        // Unsatisfiable predicates carry no traffic to check. The compile is
        // memoized in the checker's space, so a candidate costs one BDD
        // compile per distinct predicate.
        if (analyzer.compile(plan.statement.predicate) == bdd::kFalse)
            continue;
        Class_check cls;
        cls.id = plan.statement.id;
        cls.predicate = plan.statement.predicate;
        cls.dst_mac = comp.addressing.mac(*plan.dst_host);
        cls.dst = *plan.dst_host;
        cls.classify = classify_switch(plan, topo);
        if (cls.classify != topo::kNoNode)
            cls.ingresses.push_back(cls.classify);
        else if (!plan.path)
            cls.ingresses = edge_switches(*plan.src_host, topo);
        if (cls.ingresses.empty()) continue;
        out.push_back(std::move(cls));
    }
    return out;
}

std::vector<Plan_summary> summarize(const core::Compilation& comp,
                                    const topo::Topology& topo) {
    std::vector<Plan_summary> out;
    out.reserve(comp.plans.size());
    for (const core::Statement_plan& plan : comp.plans)
        out.push_back({plan.statement.id, plan.statement.predicate, plan.drop,
                       classify_switch(plan, topo), path_of(plan)});
    std::sort(out.begin(), out.end(),
              [](const Plan_summary& a, const Plan_summary& b) {
                  return a.id < b.id;
              });
    return out;
}

// The entry with id `id` of a vector sorted by id, or null.
template <typename T>
const T* find_by_id(const std::vector<T>& sorted, const std::string& id) {
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), id,
        [](const T& entry, const std::string& key) { return entry.id < key; });
    return it != sorted.end() && it->id == id ? &*it : nullptr;
}

// --------------------------------------------------------------- overlays

std::optional<std::size_t> node_index(const std::string& device,
                                      const topo::Topology& topo) {
    const auto node = topo.find(device);
    if (!node) return std::nullopt;
    return static_cast<std::size_t>(*node);
}

// The tables after prepare and after commit, as overlays of the pre-update
// table. A device no operation of a phase names reads the list it had
// before that phase; the others get a list of their own, built the way
// codegen::apply_prepare / apply_commit change the whole configuration
// (installs appended, updates in place, removes erased), then stably
// sorted by priority — the order Lifted gives the applied configuration.
// Operations on devices the topology lacks are skipped: propagation never
// reaches them.
class Overlays {
public:
    Overlays(const Table& pre, const codegen::Diff& diff,
             const topo::Topology& topo)
        : prepared(pre), committed(pre) {
        const auto nodes = static_cast<std::size_t>(topo.node_count());
        prepared_rules_.resize(nodes);
        prepared_clicks_.resize(nodes);
        committed_rules_.resize(nodes);

        for (const codegen::Flow_rule& r : diff.tag_installs)
            if (const auto d = node_index(r.device, topo))
                own(prepared, prepared_rules_, *d).push_back(&r);
        for (const codegen::Rule_update& u : diff.tag_updates)
            if (const auto d = node_index(u.before.device, topo))
                *find(own(prepared, prepared_rules_, *d), u.before,
                      "diff tag update targets a rule absent from the "
                      "table") = &u.after;
        for (const codegen::Click_config& c : diff.click_installs) {
            const auto d = node_index(c.device, topo);
            auto forward = detail::parse_click_forward(c.config);
            if (!d || !forward) continue;
            if (prepared.clicks[*d] != &prepared_clicks_[*d]) {
                prepared_clicks_[*d] = *prepared.clicks[*d];
                prepared.clicks[*d] = &prepared_clicks_[*d];
            }
            prepared_clicks_[*d].push_back(std::move(*forward));
        }
        sort_owned(prepared, prepared_rules_);

        committed = prepared;
        for (const codegen::Flow_rule& r : diff.classifier_installs)
            if (const auto d = node_index(r.device, topo))
                own(committed, committed_rules_, *d).push_back(&r);
        for (const codegen::Rule_update& u : diff.classifier_updates)
            if (const auto d = node_index(u.before.device, topo))
                *find(own(committed, committed_rules_, *d), u.before,
                      "diff classifier update targets a rule absent from "
                      "the table") = &u.after;
        for (const codegen::Flow_rule& r : diff.classifier_removes)
            if (const auto d = node_index(r.device, topo)) {
                Rule_list& list = own(committed, committed_rules_, *d);
                list.erase(find(list, r,
                                "diff classifier remove targets a rule absent "
                                "from the table"));
            }
        sort_owned(committed, committed_rules_);
    }

    Table prepared;
    Table committed;

private:
    static Rule_list& own(Table& table, std::vector<Rule_list>& lists,
                          std::size_t d) {
        if (table.rules[d] != &lists[d]) {
            lists[d] = *table.rules[d];
            table.rules[d] = &lists[d];
        }
        return lists[d];
    }
    static Rule_list::iterator find(Rule_list& list,
                                    const codegen::Flow_rule& target,
                                    const char* what) {
        const auto it = std::find_if(
            list.begin(), list.end(), [&](const codegen::Flow_rule* r) {
                return codegen::equal(*r, target);
            });
        expects(it != list.end(), what);
        return it;
    }
    static void sort_owned(const Table& table, std::vector<Rule_list>& lists) {
        for (std::size_t d = 0; d < lists.size(); ++d)
            if (table.rules[d] == &lists[d]) detail::sort_by_priority(lists[d]);
    }

    std::vector<Rule_list> prepared_rules_;
    std::vector<Click_list> prepared_clicks_;
    std::vector<Rule_list> committed_rules_;
};

// ----------------------------------------------------------- the reach test

// The diff's operations by node: every flow rule it installs, modifies
// (both sides) or removes, and whether it installs or removes a Click
// config there.
struct Touched {
    std::vector<std::vector<const codegen::Flow_rule*>> rules;
    std::vector<char> clicks;

    Touched(const codegen::Diff& diff, const topo::Topology& topo)
        : rules(static_cast<std::size_t>(topo.node_count())),
          clicks(static_cast<std::size_t>(topo.node_count()), 0) {
        const auto add = [&](const codegen::Flow_rule& r) {
            if (const auto d = node_index(r.device, topo))
                rules[*d].push_back(&r);
        };
        for (const auto* installs :
             {&diff.tag_installs, &diff.classifier_installs,
              &diff.classifier_removes, &diff.tag_removes})
            for (const codegen::Flow_rule& r : *installs) add(r);
        for (const auto* updates : {&diff.tag_updates, &diff.classifier_updates})
            for (const codegen::Rule_update& u : *updates) {
                add(u.before);
                add(u.after);
            }
        for (const auto* configs : {&diff.click_installs, &diff.click_removes})
            for (const codegen::Click_config& c : *configs)
                if (const auto d = node_index(c.device, topo)) clicks[*d] = 1;
    }
};

// Cache rule — the reach test. A class's proof depends only on the rules
// at the (switch, arriving tag) states its propagation visited, the Click
// forwards of the middleboxes it visited, and link state (equal here). The
// diff reaches the class when, at a visited state:
//   * a middlebox gains or loses a Click forward, or holds two forwards
//     for the carried tag (then emission order picks one);
//   * a switch's static checks report anything this step;
//   * a flow rule the diff installs, removes or modifies (both sides) at a
//     switch could match the class there: its tag pattern admits the
//     carried tag, its dst-MAC pattern the class's destination, and its
//     predicate's BDD meets the class's.
// Otherwise every visited state holds the same rules that can match the
// class in all four phase tables (ops that cannot match it are invisible
// to it), and a reordered priority band changes no header's action unless
// two overlapping rules disagree, which the static check reports. By
// induction over the branch tree every header takes its old route, so the
// old clean proof holds for the new tables and every phase.
bool reaches(const Class_proof& proof, bdd::Node class_root,
             const Touched& touched, const Generation& next,
             const topo::Topology& topo, pred::Analyzer& analyzer) {
    bdd::Manager& mgr = analyzer.manager();
    for (const State s : proof.states) {
        const auto d = static_cast<std::size_t>(detail::device_of(s));
        const int tag = detail::tag_of(s);
        if (topo.node(detail::device_of(s)).kind ==
            topo::Node_kind::middlebox) {
            if (touched.clicks[d]) return true;
            const auto forwards = std::count_if(
                next.lifted.clicks[d].begin(), next.lifted.clicks[d].end(),
                [&](const Click_forward& f) { return f.in_tag == tag; });
            if (forwards > 1) return true;
            continue;
        }
        if (!next.clean[d]) return true;
        for (const codegen::Flow_rule* r : touched.rules[d]) {
            if (r->match_tag && *r->match_tag != tag) continue;
            if (r->match_dst_mac && *r->match_dst_mac != proof.dst_mac)
                continue;
            if (!mgr.disjoint(class_root, analyzer.compile(pred_of(*r))))
                return true;
        }
    }
    return false;
}

std::vector<char> link_states(const topo::Topology& topo) {
    std::vector<char> out;
    out.reserve(static_cast<std::size_t>(topo.link_count()));
    for (const topo::Link& link : topo.links()) out.push_back(link.up ? 1 : 0);
    return out;
}

// ------------------------------------------------------------------ proof

// Proves one generation. `previous` is the last generation (null for the
// first); with `replay_phases` every stable class is also replayed over
// the four phase tables from it. check_dataplane, check_update and
// Update_checker::step all run this; the per-call entries pass no cache.
//
// Cache rules:
//   * A class's key is its statement id, predicate (ir::equal),
//     destination MAC and ingress list; its proof is reused when the key
//     matches and the diff does not reach it (see reaches()).
//   * A class is cached only after a clean proof, phases included; a class
//     with findings is re-proved every step.
//   * A device keeps its static verdict only when it was clean and the
//     diff has no flow-rule operation on it: the rule multiset is then
//     unchanged, and whether a finding exists does not depend on emission
//     order. A device with findings is re-checked every step.
//   * Everything is dropped on the first generation and whenever any
//     link's up/down state differs from the previous step's; the checker
//     compares link states itself, and `replay_phases` only decides
//     whether phases are replayed.
//   * No bdd::Node is held across steps: the space may vacuum between
//     generations.
//   * Findings come out in a fresh proof's order: static findings per
//     device in name order, then classes, then phases.
std::shared_ptr<Generation> prove_generation(
    const Generation* previous, bool replay_phases,
    const core::Compilation& comp,
    std::shared_ptr<const codegen::Configuration> config,
    const codegen::Diff& diff, const topo::Topology& topo,
    pred::Analyzer& analyzer, Report& report, Proof_counts& counts) {
    auto next = std::make_shared<Generation>(std::move(config), topo);
    next->proved = true;
    next->links_up = link_states(topo);
    const auto nodes = static_cast<std::size_t>(topo.node_count());
    const bool reuse = previous != nullptr && previous->proved &&
                       previous->links_up == next->links_up &&
                       previous->clean.size() == nodes;
    if (!reuse) {
        ++counts.full_proofs;
        if (previous != nullptr && previous->proved)
            ++counts.full_link;
        else
            ++counts.full_first;
    }
    const std::optional<Touched> touched =
        reuse ? std::optional<Touched>(std::in_place, diff, topo)
              : std::nullopt;

    next->clean.assign(nodes, 1);
    for (const std::size_t d : devices_by_name(next->lifted, topo)) {
        if (reuse && d < nodes && previous->clean[d] &&
            touched->rules[d].empty()) {
            ++counts.devices_reused;
            continue;
        }
        ++counts.devices_checked;
        const std::size_t before = report.size();
        check_device(next->lifted.name(d, topo), next->lifted.rules[d],
                     analyzer, report);
        if (report.size() != before && d < nodes) next->clean[d] = 0;
    }

    const std::vector<Class_check> classes =
        select_classes(comp, topo, analyzer);
    const Table post(next->lifted, topo);
    std::vector<const Class_proof*> reused(classes.size(), nullptr);
    std::vector<char> clean(classes.size(), 0);
    std::vector<std::vector<State>> states(classes.size());
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const Class_check& cls = classes[i];
        if (reuse) {
            const Class_proof* proof = find_by_id(previous->proofs, cls.id);
            if (proof != nullptr && proof->dst_mac == cls.dst_mac &&
                proof->ingresses == cls.ingresses &&
                ir::equal(proof->predicate, cls.predicate) &&
                !reaches(*proof, analyzer.compile(cls.predicate), *touched,
                         *next, topo, analyzer)) {
                reused[i] = proof;
                ++counts.classes_reused;
                continue;
            }
        }
        ++counts.classes_proved;
        const std::size_t before = report.size();
        for (const topo::NodeId ingress : cls.ingresses)
            (void)propagate(post, topo, analyzer, cls, ingress, "", report,
                            &states[i]);
        clean[i] = report.size() == before ? 1 : 0;
    }

    if (previous != nullptr && replay_phases) {
        static const std::string kPhase[4] = {"pre-update", "after prepare",
                                              "after commit", "post-update"};
        bdd::Manager& mgr = analyzer.manager();
        const Table pre(previous->lifted, topo);
        std::optional<Overlays> overlays;  // built for the first replay
        // A class is replayed across phases only when stable: present in
        // both compilations with the same predicate, not dropped on either
        // side, and with an unmoved classification point (a reroute
        // legitimately leaves the old ingress without a classifier
        // mid-update). A reused class needs no replay: all four tables
        // agree with the post-update one wherever it goes.
        for (std::size_t i = 0; i < classes.size(); ++i) {
            if (reused[i] != nullptr) continue;
            Class_check cls = classes[i];
            const Plan_summary* old_plan = find_by_id(previous->plans, cls.id);
            if (old_plan == nullptr || old_plan->drop) continue;
            if (!ir::equal(old_plan->predicate, cls.predicate)) continue;
            if (passthrough_ambiguous(old_plan->path, topo)) continue;
            if (old_plan->classify != topo::kNoNode ||
                cls.classify != topo::kNoNode) {
                if (old_plan->classify != cls.classify) continue;
                cls.ingresses = {cls.classify};
            }
            if (!overlays) overlays.emplace(pre, diff, topo);
            const Table* const tables[4] = {&pre, &overlays->prepared,
                                            &overlays->committed, &post};
            ++counts.phase_replays;
            const std::size_t class_before = report.size();
            for (const topo::NodeId ingress : cls.ingresses) {
                std::vector<Delivery> phases[4];
                bool complete = true;
                for (int p = 0; p < 4; ++p) {
                    const std::size_t before = report.size();
                    phases[p] = propagate(*tables[p], topo, analyzer, cls,
                                          ingress, kPhase[p], report);
                    if (report.size() != before) complete = false;
                }
                if (!complete) continue;
                // Per-packet consistency: any header in two delivered slices
                // of adjacent phase pairs must have taken the same route.
                const auto blend = [&](int first, int second,
                                       const char* message) {
                    for (const Delivery& da : phases[first])
                        for (const Delivery& db : phases[second]) {
                            if (da.path == db.path) continue;
                            if (mgr.disjoint(da.set, db.set)) continue;
                            report.push_back(
                                {Severity::error, "update-blend", cls.id,
                                 "two-phase update of '" + cls.id + "' from " +
                                     topo.node(ingress).name + ": " + message,
                                 packet_witness(analyzer, ir::pred_and(
                                                              da.expr,
                                                              db.expr))});
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
            if (report.size() != class_before) clean[i] = 0;
        }
    }

    for (std::size_t i = 0; i < classes.size(); ++i) {
        if (reused[i] != nullptr) {
            next->proofs.push_back(*reused[i]);
            next->reused.push_back(classes[i].id);
        } else if (clean[i] != 0) {
            std::vector<State>& visited = states[i];
            std::sort(visited.begin(), visited.end());
            visited.erase(std::unique(visited.begin(), visited.end()),
                          visited.end());
            next->proofs.push_back({classes[i].id, classes[i].predicate,
                                    classes[i].dst_mac, classes[i].ingresses,
                                    std::move(visited)});
        }
    }
    std::sort(next->proofs.begin(), next->proofs.end(),
              [](const Class_proof& a, const Class_proof& b) {
                  return a.id < b.id;
              });
    next->plans = summarize(comp, topo);
    return next;
}

// A table-only generation for check_update's old side: no cache.
Generation tables_only(const core::Compilation& comp,
                       const codegen::Configuration& config,
                       const topo::Topology& topo) {
    Generation out(borrow(config), topo);
    out.plans = summarize(comp, topo);
    return out;
}

Phase_table to_phase_table(const Table& table, const topo::Topology& topo) {
    Phase_table out;
    for (std::size_t d = 0; d < table.rules.size(); ++d) {
        const std::string& name = topo.node(static_cast<topo::NodeId>(d)).name;
        for (const codegen::Flow_rule* r : *table.rules[d])
            out.rules[name].push_back(*r);
        for (const Click_forward& f : *table.clicks[d])
            out.clicks[name].push_back(std::to_string(f.in_tag) + " -> " +
                                       std::to_string(f.out_tag) +
                                       " toward " + f.toward);
    }
    return out;
}

}  // namespace

// ----------------------------------------------------------------- entries

Report check_tables(const codegen::Configuration& config,
                    const topo::Topology& topo) {
    Report report;
    pred::Analyzer analyzer;
    const Lifted lifted(config, topo);
    for (const std::size_t d : devices_by_name(lifted, topo))
        check_device(lifted.name(d, topo), lifted.rules[d], analyzer, report);
    return report;
}

Report check_dataplane(const core::Compilation& compilation,
                       const codegen::Configuration& config,
                       const topo::Topology& topo) {
    pred::Analyzer analyzer;
    Report report;
    Proof_counts counts;
    (void)prove_generation(nullptr, false, compilation, borrow(config), {},
                           topo, analyzer, report, counts);
    return report;
}

Report check_update(const core::Compilation& old_comp,
                    const core::Compilation& new_comp,
                    const codegen::Configuration& old_config,
                    const codegen::Diff& diff,
                    const codegen::Configuration& new_config,
                    const topo::Topology& topo) {
    pred::Analyzer analyzer;
    Report report;
    Proof_counts counts;
    const Generation old = tables_only(old_comp, old_config, topo);
    (void)prove_generation(&old, true, new_comp, borrow(new_config), diff,
                           topo, analyzer, report, counts);
    return report;
}

std::array<Phase_table, 4> phase_tables(
    const codegen::Configuration& old_config, const codegen::Diff& diff,
    const codegen::Configuration& new_config, const topo::Topology& topo) {
    const Lifted old_lifted(old_config, topo);
    const Lifted new_lifted(new_config, topo);
    const Table pre(old_lifted, topo);
    const Overlays overlays(pre, diff, topo);
    return {to_phase_table(pre, topo),
            to_phase_table(overlays.prepared, topo),
            to_phase_table(overlays.committed, topo),
            to_phase_table(Table(new_lifted, topo), topo)};
}

Proof_counts& Proof_counts::operator+=(const Proof_counts& other) {
    classes_proved += other.classes_proved;
    classes_reused += other.classes_reused;
    phase_replays += other.phase_replays;
    devices_checked += other.devices_checked;
    devices_reused += other.devices_reused;
    full_proofs += other.full_proofs;
    full_first += other.full_first;
    full_link += other.full_link;
    return *this;
}

std::string to_text(const Proof_counts& counts) {
    return "classes_proved=" + std::to_string(counts.classes_proved) +
           " classes_reused=" + std::to_string(counts.classes_reused) +
           " phase_replays=" + std::to_string(counts.phase_replays) +
           " devices_checked=" + std::to_string(counts.devices_checked) +
           " devices_reused=" + std::to_string(counts.devices_reused) +
           " full_proofs=" + std::to_string(counts.full_proofs) +
           " full_first=" + std::to_string(counts.full_first) +
           " full_link=" + std::to_string(counts.full_link);
}

Report Update_checker::step(const core::Compilation& compilation,
                            const topo::Topology& topo,
                            bool check_transition) {
    // Codegen begins the generation; its proof shares the predicate space.
    const codegen::Diff diff = incremental_.update(compilation, topo);
    return prove(compilation, incremental_.shared_config(), diff, topo,
                 check_transition);
}

Report Update_checker::prove(
    const core::Compilation& compilation,
    std::shared_ptr<const codegen::Configuration> config,
    const codegen::Diff& diff, const topo::Topology& topo,
    bool check_transition) {
    Report report;
    Proof_counts counts;
    previous_ = prove_generation(previous_.get(), check_transition,
                                 compilation, std::move(config), diff, topo,
                                 incremental_.analyzer(), report, counts);
    last_ = counts;
    totals_ += counts;
    return report;
}

std::vector<Update_checker::Reused_class> Update_checker::reused_classes()
    const {
    std::vector<Reused_class> out;
    if (!previous_) return out;
    for (const std::string& id : previous_->reused) {
        const Class_proof* proof = find_by_id(previous_->proofs, id);
        if (proof == nullptr) continue;
        Reused_class entry;
        entry.id = id;
        for (const State s : proof->states)
            entry.states.emplace_back(detail::device_of(s), detail::tag_of(s));
        out.push_back(std::move(entry));
    }
    return out;
}

}  // namespace merlin::analysis
