#include "codegen/codegen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "ir/fields.h"
#include "pred/analysis.h"
#include "util/error.h"

namespace merlin::codegen {
namespace {

// Renders a predicate as iptables/tc-style match arguments. Simple
// conjunctions map onto native matchers; anything richer falls back to the
// host interpreter's expression matcher (Section 3.4 describes the richer
// netfilter-based interpreter for exactly this case).
std::string render_match(const ir::PredPtr& p) {
    using ir::Pred_kind;
    switch (p->kind) {
        case Pred_kind::true_: return "";
        case Pred_kind::test: {
            const auto field = ir::find_field(p->field);
            const std::string value =
                field ? ir::format_field_value(*field, p->value)
                      : std::to_string(p->value);
            if (p->field == "tcp.dst") return "-p tcp --dport " + value;
            if (p->field == "tcp.src") return "-p tcp --sport " + value;
            if (p->field == "udp.dst") return "-p udp --dport " + value;
            if (p->field == "udp.src") return "-p udp --sport " + value;
            if (p->field == "ip.src") return "-s " + value;
            if (p->field == "ip.dst") return "-d " + value;
            if (p->field == "eth.src")
                return "-m mac --mac-source " + value;
            break;
        }
        case Pred_kind::and_: {
            const std::string lhs = render_match(p->lhs);
            const std::string rhs = render_match(p->rhs);
            if (lhs.empty()) return rhs;
            if (rhs.empty()) return lhs;
            return lhs + " " + rhs;
        }
        default: break;
    }
    return "-m merlin --expr '" + ir::to_string(p) + "'";
}

class Generator {
public:
    Generator(const core::Compilation& c, const topo::Topology& t, Naming& n,
              pred::Analyzer& a)
        : comp_(c), topo_(t), naming_(n), analyzer_(a) {
        // The canonical text of each best-effort path class, used in tree
        // tag identity keys. Stable across compiles: the engine interns
        // classes by path expression, and to_string round-trips the parse.
        class_text_.resize(comp_.class_nfas.size());
        for (const core::Statement_plan& plan : comp_.plans) {
            if (plan.path_class < 0) continue;
            auto& text = class_text_[static_cast<std::size_t>(plan.path_class)];
            if (text.empty()) text = ir::to_string(plan.statement.path);
        }
        // Predicate groups for classify-rule dedup: statements whose
        // predicates hash-cons to the same BDD root share one classify rule
        // per (device, action). The group's representative predicate is its
        // lexicographically smallest text, independent of emission order,
        // so the shared rule's identity survives removal of any non-minimal
        // member and incremental diffs stay minimal. Text is rendered only
        // to order structurally different members of one group.
        for (const core::Statement_plan& plan : comp_.plans) {
            const ir::PredPtr& pred = plan.statement.predicate;
            const auto [it, inserted] =
                reps_.try_emplace(analyzer_.compile(pred), Rep{pred, {}});
            Rep& rep = it->second;
            if (inserted || ir::equal(pred, rep.pred)) continue;
            if (rep.text.empty()) rep.text = ir::to_string(rep.pred);
            std::string text = ir::to_string(pred);
            if (text < rep.text) rep = Rep{pred, std::move(text)};
        }
    }

    Configuration run() {
        for (const core::Statement_plan& plan : comp_.plans) {
            if (plan.drop) {
                emit_drop(plan);
            } else if (plan.guaranteed()) {
                emit_guaranteed(plan);
            } else {
                emit_best_effort(plan);
            }
            if (plan.cap) emit_cap(plan);
        }
        return std::move(out_);
    }

private:
    // ------------------------------------------------------------ utilities
    [[nodiscard]] const std::string& name(topo::NodeId n) const {
        return topo_.node(n).name;
    }

    // The canonical representative of a plan's predicate group (the
    // analyzer serves the root from its identity memo).
    [[nodiscard]] const ir::PredPtr& pred_rep(const ir::PredPtr& p) {
        return reps_.at(analyzer_.compile(p)).pred;
    }

    // Pushes a predicate-matching rule unless an identical rule (same
    // device and action, hash-cons-equal predicate) was already emitted;
    // with the match normalized to the group representative, the
    // representative's node is a sound identity for the predicate.
    void push_classify_rule(Flow_rule rule) {
        if (!emitted_classify_
                 .emplace(rule.device, rule.priority, rule.match.get(),
                          rule.match_dst_mac, rule.drop, rule.set_tag,
                          rule.strip_tag, rule.out_port, rule.queue)
                 .second) {
            ++out_.classify_rules_deduped;
            return;
        }
        out_.flow_rules.push_back(std::move(rule));
    }
    [[nodiscard]] bool is_switch(topo::NodeId n) const {
        return topo_.node(n).kind == topo::Node_kind::switch_;
    }

    // Switches adjacent to a host (its ingress/egress switches).
    [[nodiscard]] std::vector<topo::NodeId> edge_switches(
        topo::NodeId host) const {
        std::vector<topo::NodeId> out;
        for (const auto& adj : topo_.neighbors(host))
            // A failed access link attaches nothing (mirroring the
            // compiler's egress computation): no classification at, and no
            // delivery over, a dead edge.
            if (is_switch(adj.node) && topo_.link_up(adj.link))
                out.push_back(adj.node);
        return out;
    }

    [[nodiscard]] std::vector<topo::NodeId> all_edge_switches() const {
        std::set<topo::NodeId> uniq;
        for (topo::NodeId h : topo_.hosts())
            for (topo::NodeId s : edge_switches(h)) uniq.insert(s);
        return {uniq.begin(), uniq.end()};
    }

    void click_for(const core::Placement& placement) {
        const topo::Node& node = topo_.node(placement.location);
        std::ostringstream config;
        if (node.kind == topo::Node_kind::host) {
            config << "merlin-interpreter --function " << placement.function
                   << " --netfilter-hook forward";
        } else {
            config << "FromDevice(eth0) -> " << placement.function
                   << "() -> ToDevice(eth1);";
        }
        out_.click_configs.push_back(
            Click_config{node.name, placement.function, config.str()});
    }

    // ----------------------------------------------------------- guaranteed
    void emit_guaranteed(const core::Statement_plan& plan) {
        const core::Provisioned_path& path = *plan.path;
        const auto& nodes = path.nodes;
        // A provisioned path may revisit a switch (an NFV detour to a
        // waypoint reached and left over the same neighbour). One tag per
        // whole path would make the revisited switch's two rules ambiguous,
        // so the path is segmented: every switch with a later occurrence
        // re-tags the packet, and each occurrence matches its own segment
        // tag. Tagged rules outrank the tag-wildcard classify rule so a
        // revisit of the ingress switch cannot re-classify.
        //
        // Segment tags are named by statement, segment ordinal and the full
        // node sequence: any reroute changes the key, so a new path always
        // gets fresh tags and in-flight packets drain over the old ones.
        std::string route;
        for (const topo::NodeId n : nodes) {
            route += name(n);
            route += '/';
        }
        int segment = 0;
        const auto segment_tag = [&] {
            return naming_.tag("g|" + plan.statement.id + '|' +
                               std::to_string(segment++) + '|' + route);
        };
        int tag = segment_tag();
        bool classified = false;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!is_switch(nodes[i])) continue;
            const bool last_switch = [&] {
                for (std::size_t j = i + 1; j < nodes.size(); ++j)
                    if (is_switch(nodes[j])) return false;
                return true;
            }();
            Flow_rule rule;
            rule.device = name(nodes[i]);
            if (!classified) {
                rule.priority = kClassifyPriority;
                rule.match = plan.statement.predicate;
                rule.set_tag = tag;
                classified = true;
            } else {
                rule.priority = kSegmentTagPriority;
                rule.match_tag = tag;
            }
            const bool revisited = [&] {
                for (std::size_t j = i + 1; j < nodes.size(); ++j)
                    if (nodes[j] == nodes[i]) return true;
                return false;
            }();
            if (revisited) {
                tag = segment_tag();
                rule.set_tag = tag;
            }
            if (i + 1 < nodes.size()) {
                rule.out_port = name(nodes[i + 1]);
                // Guarantee enforced by a per-port queue. The queue id is
                // the outgoing segment tag, so queue identity follows tag
                // identity across compiles and a pure rate change diffs to
                // a queue update with no rule churn.
                const int q = tag;
                rule.queue = q;
                out_.queues.push_back(Queue_config{rule.device, rule.out_port,
                                                   q, plan.guarantee,
                                                   plan.cap});
                if (last_switch) {
                    rule.strip_tag = true;
                    if (plan.dst_host)
                        rule.match_dst_mac =
                            comp_.addressing.mac(*plan.dst_host);
                }
            }
            out_.flow_rules.push_back(std::move(rule));
        }
        for (const core::Placement& placement : path.placements)
            click_for(placement);
    }

    // ---------------------------------------------------------- best effort

    // A sink-tree walk may *stay* at a node while advancing NFA states (the
    // expression consumes one location several times in a row — e.g. a
    // waypoint entered mid-`.*`, or two functions hosted at one place). An
    // OpenFlow rule cannot forward a packet to its own switch, so each
    // device folds the whole stay into a single action: the outcome is
    // either acceptance (the stay ends on an accepting egress state) or the
    // first hop that leaves the node.
    struct Folded_hop {
        bool accepted = false;
        core::Sink_hop hop;  // meaningful only when !accepted
    };
    [[nodiscard]] static Folded_hop fold_stay(const core::Sink_tree& tree,
                                              int node, int state) {
        int q = state;
        // A stay can visit each NFA state at most once (tree distances
        // strictly decrease along next-hops); more steps means the tree
        // violated its own invariant — fail loudly rather than loop.
        for (int steps = 0; steps <= tree.states; ++steps) {
            if (tree.dist_at(node, q) == 0) return {true, {}};
            const core::Sink_hop hop = tree.next_at(node, q);
            if (hop.node != node) return {false, hop};
            q = hop.state;
        }
        expects(false, "sink-tree stay walk cycles without accepting");
        return {};
    }

    // A content signature of one sink tree: every reachable (switch, state)
    // cell with its distance and next hop, hashed FNV-1a over node *names*
    // (indices are not stable across topology edits). Two compiles produce
    // the same signature iff the tree forwards identically, so a tree tag
    // survives unrelated deltas but changes — retiring the old tag — the
    // moment a link failure or reroute alters any hop.
    const std::string& tree_signature(int cls, int egress) {
        const auto memo = tree_sigs_.find({cls, egress});
        if (memo != tree_sigs_.end()) return memo->second;
        const core::Sink_tree* tree = comp_.tree_for(cls, egress);
        expects(tree != nullptr, "tree must exist for served statements");
        const core::Switch_graph& sg = comp_.switch_graph;
        std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
        const auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ULL;  // FNV prime
        };
        const auto mix_name = [&](int node_index) {
            for (const char c :
                 name(sg.nodes[static_cast<std::size_t>(node_index)]))
                mix(static_cast<unsigned char>(c));
            mix(0x1f);  // separator
        };
        for (int n = 0; n < sg.size(); ++n) {
            for (int q = 0; q < tree->states; ++q) {
                const int d = tree->dist_at(n, q);
                if (d < 0) continue;
                mix_name(n);
                mix(static_cast<std::uint64_t>(q));
                mix(static_cast<std::uint64_t>(d));
                if (d > 0) {
                    const core::Sink_hop hop = tree->next_at(n, q);
                    mix_name(hop.node);
                    mix(static_cast<std::uint64_t>(hop.state));
                }
            }
        }
        std::ostringstream hex;
        hex << std::hex << h;
        return tree_sigs_.emplace(std::pair{cls, egress}, hex.str())
            .first->second;
    }

    // Tags are shared per (path class, egress symbol, NFA state). The
    // identity key names the class by its path expression and the egress by
    // its switch name, plus the tree signature: stable while forwarding is
    // unchanged, fresh when it is not.
    int tree_tag(int cls, int egress, int state) {
        const auto key = std::tuple{cls, egress, state};
        const auto it = tree_tags_.find(key);
        if (it != tree_tags_.end()) return it->second;
        const core::Switch_graph& sg = comp_.switch_graph;
        const int tag = naming_.tag(
            "t|" + class_text_[static_cast<std::size_t>(cls)] + '|' +
            name(sg.nodes[static_cast<std::size_t>(egress)]) + '|' +
            std::to_string(state) + '|' + tree_signature(cls, egress));
        tree_tags_.emplace(key, tag);
        return tag;
    }

    // Emits the shared per-tree forwarding rules once.
    void emit_tree(int cls, int egress) {
        if (!emitted_trees_.insert({cls, egress}).second) return;
        const core::Sink_tree* tree = comp_.tree_for(cls, egress);
        expects(tree != nullptr, "tree must exist for served statements");
        const core::Switch_graph& sg = comp_.switch_graph;
        for (int n = 0; n < sg.size(); ++n) {
            const topo::NodeId node = sg.nodes[static_cast<std::size_t>(n)];
            for (int q = 0; q < tree->states; ++q) {
                if (tree->dist_at(n, q) <= 0) continue;  // accepted/unreachable
                const auto [accepted, hop] = fold_stay(*tree, n, q);
                if (accepted) continue;  // a delivery rule serves this tag
                if (topo_.node(node).kind == topo::Node_kind::middlebox) {
                    // Middleboxes forward via their Click configuration.
                    // The classifier stage keys on the incoming tag, so
                    // middlebox forwarding is deterministic per state and a
                    // mixed old/new table cannot misroute through one.
                    std::ostringstream config;
                    config << "FromDevice(eth0) -> VLANClassifier("
                           << tree_tag(cls, egress, static_cast<int>(q))
                           << ") -> SetVLANAnno("
                           << tree_tag(cls, egress, hop.state)
                           << ") -> ToDevice(toward "
                           << name(sg.nodes[static_cast<std::size_t>(
                                  hop.node)])
                           << ");";
                    out_.click_configs.push_back(Click_config{
                        name(node), "forward", config.str()});
                    continue;
                }
                Flow_rule rule;
                rule.device = name(node);
                rule.priority = kTreeForwardPriority;
                rule.match_tag = tree_tag(cls, egress, static_cast<int>(q));
                if (hop.state != static_cast<int>(q))
                    rule.set_tag = tree_tag(cls, egress, hop.state);
                rule.out_port =
                    name(sg.nodes[static_cast<std::size_t>(hop.node)]);
                out_.flow_rules.push_back(std::move(rule));
            }
        }
    }

    // Delivery rule at the egress switch for one destination host.
    void emit_delivery(int cls, int egress, topo::NodeId dst) {
        if (!emitted_delivery_.insert({cls, egress, dst}).second) return;
        const core::Sink_tree* tree = comp_.tree_for(cls, egress);
        const auto& nfa =
            comp_.class_nfas[static_cast<std::size_t>(cls)];
        // Any state that reaches acceptance at the egress (directly, or by
        // staying there while the expression finishes consuming it) delivers.
        for (int q = 0; q < nfa.state_count(); ++q) {
            if (tree->dist_at(tree->egress, q) < 0) continue;
            if (!fold_stay(*tree, tree->egress, q).accepted) continue;
            Flow_rule rule;
            rule.device = name(
                comp_.switch_graph.nodes[static_cast<std::size_t>(egress)]);
            rule.priority = kDeliveryPriority;
            rule.match_tag = tree_tag(cls, egress, q);
            rule.match_dst_mac = comp_.addressing.mac(dst);
            rule.strip_tag = true;
            rule.out_port = name(dst);
            out_.flow_rules.push_back(std::move(rule));
        }
    }

    // Ingress classification for one statement at one ingress switch toward
    // one (egress, dst) pair. `extra_dst_match` adds an eth.dst match for
    // statements that do not pin their destination.
    void emit_ingress(const core::Statement_plan& plan, topo::NodeId ingress,
                      int egress, topo::NodeId dst, bool extra_dst_match) {
        const core::Switch_graph& sg = comp_.switch_graph;
        const int in_sym = sg.symbol_of[static_cast<std::size_t>(ingress)];
        if (in_sym < 0) return;
        const core::Sink_tree* tree = comp_.tree_for(plan.path_class, egress);
        if (tree == nullptr) return;
        const auto& nfa =
            comp_.class_nfas[static_cast<std::size_t>(plan.path_class)];
        const auto entry = tree->entry_state(nfa, in_sym);
        if (!entry) return;

        Flow_rule rule;
        rule.device = name(ingress);
        rule.priority = kClassifyPriority;
        rule.match = pred_rep(plan.statement.predicate);
        if (extra_dst_match) rule.match_dst_mac = comp_.addressing.mac(dst);

        const auto [accepted, hop] = fold_stay(*tree, in_sym, *entry);
        if (accepted) {
            // Accepted at the ingress itself: ingress == egress, deliver
            // directly.
            rule.out_port = name(dst);
        } else {
            // The packet leaves carrying the state it will be in *after*
            // the hop — the state the next switch's tree rules key on.
            rule.set_tag = tree_tag(plan.path_class, egress, hop.state);
            rule.out_port = name(sg.nodes[static_cast<std::size_t>(hop.node)]);
        }
        push_classify_rule(std::move(rule));
        emit_tree(plan.path_class, egress);
        emit_delivery(plan.path_class, egress, dst);
    }

    void emit_best_effort(const core::Statement_plan& plan) {
        const std::vector<topo::NodeId> ingresses =
            plan.src_host ? edge_switches(*plan.src_host)
                          : all_edge_switches();
        const std::vector<topo::NodeId> dsts =
            plan.dst_host ? std::vector<topo::NodeId>{*plan.dst_host}
                          : topo_.hosts();
        for (topo::NodeId dst : dsts) {
            for (topo::NodeId egress_node : edge_switches(dst)) {
                const int egress =
                    comp_.switch_graph
                        .symbol_of[static_cast<std::size_t>(egress_node)];
                if (egress < 0) continue;
                for (topo::NodeId ingress : ingresses)
                    emit_ingress(plan, ingress, egress, dst,
                                 /*extra_dst_match=*/!plan.dst_host);
                // One egress suffices per destination host.
                break;
            }
        }
    }

    // ----------------------------------------------------------- drop / cap
    void emit_drop(const core::Statement_plan& plan) {
        const std::string match = render_match(plan.statement.predicate);
        if (plan.src_host) {
            out_.iptables_rules.push_back(Host_command{
                name(*plan.src_host),
                "iptables -A OUTPUT " + match + " -j DROP"});
        } else {
            for (topo::NodeId h : topo_.hosts())
                out_.iptables_rules.push_back(Host_command{
                    name(h), "iptables -A OUTPUT " + match + " -j DROP"});
        }
        // Defense in depth: drop at the ingress switches as well.
        const std::vector<topo::NodeId> ingresses =
            plan.src_host ? edge_switches(*plan.src_host)
                          : all_edge_switches();
        for (topo::NodeId sw : ingresses) {
            Flow_rule rule;
            rule.device = name(sw);
            rule.priority = kDropPriority;
            rule.match = pred_rep(plan.statement.predicate);
            rule.drop = true;
            push_classify_rule(std::move(rule));
        }
    }

    void emit_cap(const core::Statement_plan& plan) {
        if (!plan.cap) return;
        const std::string rate = to_string(*plan.cap);
        const std::string match = render_match(plan.statement.predicate);
        const auto hosts = plan.src_host
                               ? std::vector<topo::NodeId>{*plan.src_host}
                               : topo_.hosts();
        for (topo::NodeId h : hosts) {
            // tc class ids are named per (host, statement) so a statement's
            // filter keeps its class across recompiles and the diff for an
            // unrelated delta leaves it untouched.
            const int klass = naming_.host_class(name(h), plan.statement.id);
            out_.tc_commands.push_back(Host_command{
                name(h), "tc class add dev eth0 parent 1: classid 1:" +
                             std::to_string(klass) + " htb rate " + rate +
                             " ceil " + rate});
            out_.tc_commands.push_back(Host_command{
                name(h), "tc filter add dev eth0 parent 1: " + match +
                             " flowid 1:" + std::to_string(klass)});
        }
    }

    const core::Compilation& comp_;
    const topo::Topology& topo_;
    Naming& naming_;
    pred::Analyzer& analyzer_;
    Configuration out_;

    std::vector<std::string> class_text_;  // path class -> expression text
    // BDD root -> the group's representative predicate, with its text once
    // a second distinct member needed ordering against it.
    struct Rep {
        ir::PredPtr pred;
        std::string text;  // empty until rendered
    };
    std::map<bdd::Node, Rep> reps_;
    // (device, priority, representative node, dst mac, action fields) of
    // every predicate-matching rule emitted.
    std::set<std::tuple<std::string, int, const ir::Pred*,
                        std::optional<std::uint64_t>, bool, std::optional<int>,
                        bool, std::string, std::optional<int>>>
        emitted_classify_;
    std::map<std::pair<int, int>, std::string> tree_sigs_;
    std::map<std::tuple<int, int, int>, int> tree_tags_;
    std::set<std::pair<int, int>> emitted_trees_;
    std::set<std::tuple<int, int, topo::NodeId>> emitted_delivery_;
};

}  // namespace

// ------------------------------------------------------------------- Naming

int Naming::tag(const std::string& key) {
    const auto it = tags_.find(key);
    if (it != tags_.end()) {
        it->second.used = true;
        return it->second.id;
    }
    int id;
    if (!free_tags_.empty()) {
        id = *free_tags_.begin();
        free_tags_.erase(free_tags_.begin());
    } else if (next_tag_ <= kMaxVlanTag) {
        id = next_tag_++;
    } else {
        throw Policy_error(
            "VLAN tag space exhausted: " + std::to_string(tags_.size()) +
            " live tags already occupy the usable 802.1Q range " +
            std::to_string(kMinVlanTag) + ".." + std::to_string(kMaxVlanTag) +
            "; cannot bind key '" + key + "'");
    }
    tags_.emplace(key, Binding{id, true});
    return id;
}

int Naming::host_class(const std::string& host,
                       const std::string& statement_id) {
    const std::string key = host + '|' + statement_id;
    const auto it = classes_.find(key);
    if (it != classes_.end()) {
        it->second.used = true;
        return it->second.id;
    }
    int id;
    std::set<int>& free = free_classes_[host];
    if (!free.empty()) {
        id = *free.begin();
        free.erase(free.begin());
    } else {
        id = ++next_class_[host];
    }
    classes_.emplace(key, Binding{id, true});
    return id;
}

void Naming::begin_generation() {
    for (auto& [key, binding] : tags_) binding.used = false;
    for (auto& [key, binding] : classes_) binding.used = false;
}

std::vector<int> Naming::collect_unused() {
    std::vector<int> retired;
    for (auto it = tags_.begin(); it != tags_.end();) {
        if (it->second.used) {
            ++it;
            continue;
        }
        retired.push_back(it->second.id);
        free_tags_.insert(it->second.id);
        it = tags_.erase(it);
    }
    for (auto it = classes_.begin(); it != classes_.end();) {
        if (it->second.used) {
            ++it;
            continue;
        }
        const std::string host =
            it->first.substr(0, it->first.find('|'));
        free_classes_[host].insert(it->second.id);
        it = classes_.erase(it);
    }
    std::sort(retired.begin(), retired.end());
    return retired;
}

std::map<std::string, int> Naming::tag_bindings() const {
    std::map<std::string, int> out;
    for (const auto& [key, binding] : tags_) out.emplace(key, binding.id);
    return out;
}

std::map<std::string, int> Naming::class_bindings() const {
    std::map<std::string, int> out;
    for (const auto& [key, binding] : classes_) out.emplace(key, binding.id);
    return out;
}

// ----------------------------------------------------------------- generate

void validate(const Configuration& config) {
    // device -> (lowest tag-rule priority, highest predicate-rule priority)
    std::map<std::string, std::pair<int, int>> bands;
    for (const Flow_rule& rule : config.flow_rules) {
        for (const std::optional<int>& tag : {rule.match_tag, rule.set_tag}) {
            if (tag && (*tag < kMinVlanTag || *tag > kMaxVlanTag))
                throw Policy_error("invalid table: rule on " + rule.device +
                                   " uses VLAN tag " + std::to_string(*tag) +
                                   " outside " + std::to_string(kMinVlanTag) +
                                   ".." + std::to_string(kMaxVlanTag));
        }
        auto& [min_tag, max_pred] =
            bands.try_emplace(rule.device, std::pair{kSegmentTagPriority + 1,
                                                     -1})
                .first->second;
        if (rule.match_tag)
            min_tag = std::min(min_tag, rule.priority);
        else
            max_pred = std::max(max_pred, rule.priority);
    }
    for (const auto& [device, band] : bands) {
        if (band.first <= band.second)
            throw Policy_error(
                "invalid table: on " + device + " a tag-matching rule at "
                "priority " + std::to_string(band.first) +
                " does not outrank a predicate rule at priority " +
                std::to_string(band.second) +
                " — a tagged packet could be re-classified");
    }
}

Configuration generate(const core::Compilation& compilation,
                       const topo::Topology& topo, Naming& naming,
                       pred::Analyzer& analyzer) {
    if (!compilation.feasible)
        throw Policy_error("cannot generate code for infeasible policy: " +
                           compilation.diagnostic);
    Configuration out = Generator(compilation, topo, naming, analyzer).run();
    validate(out);
    return out;
}

Configuration generate(const core::Compilation& compilation,
                       const topo::Topology& topo, Naming& naming) {
    pred::Analyzer analyzer;
    return generate(compilation, topo, naming, analyzer);
}

Configuration generate(const core::Compilation& compilation,
                       const topo::Topology& topo) {
    Naming scratch;
    return generate(compilation, topo, scratch);
}

std::map<std::string, interp::Program> host_programs(
    const core::Compilation& compilation, const topo::Topology& topo) {
    if (!compilation.feasible)
        throw Policy_error("cannot generate programs for infeasible policy: " +
                           compilation.diagnostic);
    std::map<std::string, interp::Program> out;
    for (topo::NodeId h : topo.hosts())
        out.emplace(topo.node(h).name, interp::Program{});

    auto targets = [&](const core::Statement_plan& plan) {
        return plan.src_host
                   ? std::vector<topo::NodeId>{*plan.src_host}
                   : topo.hosts();
    };
    for (const core::Statement_plan& plan : compilation.plans) {
        interp::Rule rule;
        rule.guard = plan.statement.predicate;
        rule.note = plan.statement.id;
        if (plan.drop) {
            rule.action = interp::Action::drop;
        } else if (plan.cap) {
            rule.action = interp::Action::rate_limit;
            rule.rate = *plan.cap;
        } else {
            rule.action = interp::Action::allow;
        }
        for (topo::NodeId h : targets(plan))
            out[topo.node(h).name].rules.push_back(rule);
    }
    return out;
}

std::string to_text(const Flow_rule& r) {
    std::ostringstream out;
    out << r.device << ": priority=" << r.priority;
    if (r.match_tag) out << " vlan=" << *r.match_tag;
    if (r.match) out << " match=[" << ir::to_string(r.match) << ']';
    if (r.match_dst_mac) {
        const auto f = ir::find_field("eth.dst");
        out << " dst=" << ir::format_field_value(*f, *r.match_dst_mac);
    }
    out << " ->";
    if (r.drop) out << " drop";
    if (r.set_tag) out << " set_vlan:" << *r.set_tag;
    if (r.strip_tag) out << " strip_vlan";
    if (!r.out_port.empty()) out << " output:" << r.out_port;
    if (r.queue) out << " queue:" << *r.queue;
    return out.str();
}

std::string to_text(const Configuration& config) {
    std::ostringstream out;
    out << "# OpenFlow rules (" << config.flow_rules.size() << ")\n";
    for (const Flow_rule& r : config.flow_rules) out << to_text(r) << '\n';
    out << "# Queues (" << config.queues.size() << ")\n";
    for (const Queue_config& q : config.queues) {
        out << q.device << " port:" << q.port << " queue:" << q.queue_id
            << " min=" << to_string(q.min_rate);
        if (q.max_rate) out << " max=" << to_string(*q.max_rate);
        out << '\n';
    }
    out << "# tc (" << config.tc_commands.size() << ")\n";
    for (const Host_command& c : config.tc_commands)
        out << c.host << ": " << c.command << '\n';
    out << "# iptables (" << config.iptables_rules.size() << ")\n";
    for (const Host_command& c : config.iptables_rules)
        out << c.host << ": " << c.command << '\n';
    out << "# click (" << config.click_configs.size() << ")\n";
    for (const Click_config& c : config.click_configs)
        out << c.device << " [" << c.function << "]: " << c.config << '\n';
    return out.str();
}

}  // namespace merlin::codegen
