#include "codegen/diff.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "util/error.h"

namespace merlin::codegen {
namespace {

// Predicate text orders rules; it never decides their identity. A
// Pred_text renders each distinct node once for the length of one call
// (every node it sees must outlive it).
class Pred_text {
public:
    std::string_view operator()(const ir::PredPtr& p) {
        if (!p) return {};
        const auto [it, inserted] = texts_.try_emplace(p.get());
        if (inserted) it->second = ir::to_string(p);
        return it->second;
    }

private:
    std::unordered_map<const ir::Pred*, std::string> texts_;
};

// Total order over every rule field: the canonical sort key.
auto full_key(const Flow_rule& r, Pred_text& text) {
    return std::tuple(std::string_view(r.device), r.priority,
                      r.match_tag.has_value(), r.match_tag.value_or(0),
                      text(r.match), r.match_dst_mac.has_value(),
                      r.match_dst_mac.value_or(0), r.drop,
                      r.set_tag.has_value(), r.set_tag.value_or(0),
                      r.strip_tag, std::string_view(r.out_port),
                      r.queue.has_value(), r.queue.value_or(0));
}

// Rule identity is the match side only; two rules with equal identity but
// different actions are one modify. The leading bool separates tag rules
// from predicate rules, so the two populations never pair.
auto identity_key(const Flow_rule& r, Pred_text& text) {
    return std::tuple(r.match_tag.has_value(), std::string_view(r.device),
                      r.priority, r.match_tag.value_or(0), text(r.match),
                      r.match_dst_mac.has_value(),
                      r.match_dst_mac.value_or(0));
}

// A predicate as a tuple element that compares structurally: by node
// first, then by tree (ir::equal), never by rendered text.
struct Same_pred {
    const ir::PredPtr* pred;
    bool operator==(const Same_pred& other) const {
        return ir::equal(*pred, *other.pred);
    }
};

// Full equality without rendering: scalar fields first, then strings, then
// the predicate.
auto equality_key(const Flow_rule& r) {
    return std::tuple(r.priority, r.match_tag, r.match_dst_mac, r.drop,
                      r.set_tag, r.strip_tag, r.queue,
                      std::string_view(r.device), std::string_view(r.out_port),
                      Same_pred{&r.match});
}

auto queue_full_key(const Queue_config& q) {
    return std::tuple(std::string_view(q.device), std::string_view(q.port),
                      q.queue_id, q.min_rate.bps(), q.max_rate.has_value(),
                      q.max_rate ? q.max_rate->bps() : 0);
}
auto queue_identity_key(const Queue_config& q) {
    return std::tuple(std::string_view(q.device), std::string_view(q.port),
                      q.queue_id);
}

auto command_key(const Host_command& c) {
    return std::tuple(std::string_view(c.host), std::string_view(c.command));
}
auto click_key(const Click_config& c) {
    return std::tuple(std::string_view(c.device),
                      std::string_view(c.function),
                      std::string_view(c.config));
}

// Exact multiset diff for instruction kinds with no modify concept.
template <typename T, typename KeyFn>
void multiset_diff(const std::vector<T>& old_items,
                   const std::vector<T>& new_items, KeyFn key,
                   std::vector<T>& installs, std::vector<T>& removes) {
    std::map<decltype(key(old_items[0])), std::vector<T>> pool;
    for (const T& item : old_items) pool[key(item)].push_back(item);
    for (const T& item : new_items) {
        auto it = pool.find(key(item));
        if (it != pool.end() && !it->second.empty())
            it->second.pop_back();
        else
            installs.push_back(item);
    }
    for (auto& [k, left] : pool)
        for (T& item : left) removes.push_back(std::move(item));
}

// Every VLAN tag a configuration references: rule matches and actions,
// queue ids (which are outgoing segment tags), and the tag stages of
// middlebox Click forwards.
std::set<int> collect_tags(const Configuration& config) {
    std::set<int> tags;
    for (const Flow_rule& r : config.flow_rules) {
        if (r.match_tag) tags.insert(*r.match_tag);
        if (r.set_tag) tags.insert(*r.set_tag);
    }
    for (const Queue_config& q : config.queues) tags.insert(q.queue_id);
    for (const Click_config& c : config.click_configs) {
        for (const char* marker : {"VLANClassifier(", "SetVLANAnno("}) {
            for (std::size_t at = c.config.find(marker);
                 at != std::string::npos;
                 at = c.config.find(marker, at + 1)) {
                const std::size_t digits = at + std::string(marker).size();
                tags.insert(std::stoi(c.config.substr(digits)));
            }
        }
    }
    return tags;
}

// ---------------------------------------------------------- apply plumbing

// The first item whose key equals `target`'s (computed once); throws
// naming `what` when there is none.
template <typename T, typename KeyFn>
auto find_item(std::vector<T>& items, const T& target, KeyFn key,
               const char* what) {
    const auto want = key(target);
    const auto it = std::find_if(items.begin(), items.end(),
                                 [&](const T& x) { return key(x) == want; });
    expects(it != items.end(), what);
    return it;
}

template <typename T, typename KeyFn>
void remove_item(std::vector<T>& items, const T& target, KeyFn key,
                 const char* what) {
    items.erase(find_item(items, target, key, what));
}

template <typename T, typename KeyFn>
void replace_item(std::vector<T>& items, const T& before, const T& after,
                  KeyFn key, const char* what) {
    *find_item(items, before, key, what) = after;
}

}  // namespace

// --------------------------------------------------------------------- Diff

int Diff::rules_touched() const {
    return static_cast<int>(tag_installs.size() + tag_updates.size() +
                            classifier_installs.size() +
                            classifier_updates.size() +
                            classifier_removes.size() + tag_removes.size());
}

int Diff::total_operations() const {
    return rules_touched() +
           static_cast<int>(queue_installs.size() + queue_updates.size() +
                            queue_removes.size() + click_installs.size() +
                            click_removes.size() + tc_installs.size() +
                            tc_removes.size() + iptables_installs.size() +
                            iptables_removes.size());
}

bool equal(const Flow_rule& a, const Flow_rule& b) {
    return equality_key(a) == equality_key(b);
}

Configuration canonical(Configuration config) {
    const auto by = [](auto key) {
        return [key](const auto& a, const auto& b) { return key(a) < key(b); };
    };
    Pred_text text;
    std::sort(config.flow_rules.begin(), config.flow_rules.end(),
              by([&text](const Flow_rule& r) { return full_key(r, text); }));
    std::sort(config.queues.begin(), config.queues.end(),
              by([](const Queue_config& q) { return queue_full_key(q); }));
    std::sort(config.tc_commands.begin(), config.tc_commands.end(),
              by([](const Host_command& c) { return command_key(c); }));
    std::sort(config.iptables_rules.begin(), config.iptables_rules.end(),
              by([](const Host_command& c) { return command_key(c); }));
    std::sort(config.click_configs.begin(), config.click_configs.end(),
              by([](const Click_config& c) { return click_key(c); }));
    return config;
}

bool equal(const Configuration& a, const Configuration& b) {
    const Configuration ca = canonical(a);
    const Configuration cb = canonical(b);
    if (ca.flow_rules.size() != cb.flow_rules.size()) return false;
    for (std::size_t i = 0; i < ca.flow_rules.size(); ++i)
        if (!equal(ca.flow_rules[i], cb.flow_rules[i])) return false;
    const auto keys_equal = [](const auto& xs, const auto& ys, auto key) {
        if (xs.size() != ys.size()) return false;
        for (std::size_t i = 0; i < xs.size(); ++i)
            if (key(xs[i]) != key(ys[i])) return false;
        return true;
    };
    return keys_equal(ca.queues, cb.queues,
                      [](const Queue_config& q) { return queue_full_key(q); }) &&
           keys_equal(ca.tc_commands, cb.tc_commands,
                      [](const Host_command& c) { return command_key(c); }) &&
           keys_equal(ca.iptables_rules, cb.iptables_rules,
                      [](const Host_command& c) { return command_key(c); }) &&
           keys_equal(ca.click_configs, cb.click_configs,
                      [](const Click_config& c) { return click_key(c); });
}

Diff diff(const Configuration& old_config, const Configuration& new_config) {
    Diff out;

    // Flow rules: first cancel rules present identically on both sides,
    // then pair the leftovers by identity key — same identity with a new
    // action is a modify, the rest are installs/removes routed to the tag
    // (phases 1/3) or classifier (phase 2) buckets. Both passes key on
    // text order, so the diff's operation order is canonical.
    Pred_text text;
    std::map<decltype(full_key(Flow_rule{}, text)),
             std::vector<const Flow_rule*>>
        pool;
    for (const Flow_rule& r : old_config.flow_rules)
        pool[full_key(r, text)].push_back(&r);
    std::vector<const Flow_rule*> old_left, new_left;
    for (const Flow_rule& r : new_config.flow_rules) {
        auto it = pool.find(full_key(r, text));
        if (it != pool.end() && !it->second.empty())
            it->second.pop_back();
        else
            new_left.push_back(&r);
    }
    for (const auto& [k, left] : pool)
        old_left.insert(old_left.end(), left.begin(), left.end());

    std::map<decltype(identity_key(Flow_rule{}, text)),
             std::pair<std::vector<const Flow_rule*>,
                       std::vector<const Flow_rule*>>>
        by_identity;
    for (const Flow_rule* r : old_left)
        by_identity[identity_key(*r, text)].first.push_back(r);
    for (const Flow_rule* r : new_left)
        by_identity[identity_key(*r, text)].second.push_back(r);
    for (const auto& [key, sides] : by_identity) {
        const auto& [olds, news] = sides;
        const bool tagged = std::get<0>(key);
        const std::size_t paired = std::min(olds.size(), news.size());
        for (std::size_t i = 0; i < paired; ++i)
            (tagged ? out.tag_updates : out.classifier_updates)
                .push_back(Rule_update{*olds[i], *news[i]});
        for (std::size_t i = paired; i < news.size(); ++i)
            (tagged ? out.tag_installs : out.classifier_installs)
                .push_back(*news[i]);
        for (std::size_t i = paired; i < olds.size(); ++i)
            (tagged ? out.tag_removes : out.classifier_removes)
                .push_back(*olds[i]);
    }

    // Queues: same identity (device, port, queue id) with new rates is a
    // rate update in phase 1 — the common case for bandwidth deltas.
    std::map<decltype(queue_identity_key(Queue_config{})),
             std::pair<std::vector<Queue_config>, std::vector<Queue_config>>>
        queues;
    for (const Queue_config& q : old_config.queues)
        queues[queue_identity_key(q)].first.push_back(q);
    for (const Queue_config& q : new_config.queues)
        queues[queue_identity_key(q)].second.push_back(q);
    for (auto& [key, sides] : queues) {
        auto& [olds, news] = sides;
        const std::size_t paired = std::min(olds.size(), news.size());
        for (std::size_t i = 0; i < paired; ++i)
            if (queue_full_key(olds[i]) != queue_full_key(news[i]))
                out.queue_updates.push_back(
                    Queue_update{std::move(olds[i]), std::move(news[i])});
        for (std::size_t i = paired; i < news.size(); ++i)
            out.queue_installs.push_back(std::move(news[i]));
        for (std::size_t i = paired; i < olds.size(); ++i)
            out.queue_removes.push_back(std::move(olds[i]));
    }

    multiset_diff(old_config.tc_commands, new_config.tc_commands,
                  [](const Host_command& c) { return command_key(c); },
                  out.tc_installs, out.tc_removes);
    multiset_diff(old_config.iptables_rules, new_config.iptables_rules,
                  [](const Host_command& c) { return command_key(c); },
                  out.iptables_installs, out.iptables_removes);
    multiset_diff(old_config.click_configs, new_config.click_configs,
                  [](const Click_config& c) { return click_key(c); },
                  out.click_installs, out.click_removes);

    const std::set<int> old_tags = collect_tags(old_config);
    const std::set<int> new_tags = collect_tags(new_config);
    std::set_difference(old_tags.begin(), old_tags.end(), new_tags.begin(),
                        new_tags.end(),
                        std::back_inserter(out.retired_tags));
    return out;
}

// -------------------------------------------------------------------- apply

void apply_prepare(Configuration& config, const Diff& d) {
    for (const Flow_rule& r : d.tag_installs) config.flow_rules.push_back(r);
    for (const Rule_update& u : d.tag_updates)
        replace_item(config.flow_rules, u.before, u.after,
                     [](const Flow_rule& r) { return equality_key(r); },
                     "diff tag update targets a rule absent from the table");
    for (const Queue_config& q : d.queue_installs) config.queues.push_back(q);
    for (const Queue_update& u : d.queue_updates)
        replace_item(config.queues, u.before, u.after,
                     [](const Queue_config& q) { return queue_full_key(q); },
                     "diff queue update targets a queue absent from the table");
    for (const Click_config& c : d.click_installs)
        config.click_configs.push_back(c);
    for (const Host_command& c : d.tc_installs)
        config.tc_commands.push_back(c);
    for (const Host_command& c : d.iptables_installs)
        config.iptables_rules.push_back(c);
}

void apply_commit(Configuration& config, const Diff& d) {
    for (const Flow_rule& r : d.classifier_installs)
        config.flow_rules.push_back(r);
    for (const Rule_update& u : d.classifier_updates)
        replace_item(config.flow_rules, u.before, u.after,
                     [](const Flow_rule& r) { return equality_key(r); },
                     "diff classifier update targets a rule absent from the "
                     "table");
    for (const Flow_rule& r : d.classifier_removes)
        remove_item(config.flow_rules, r,
                    [](const Flow_rule& x) { return equality_key(x); },
                    "diff classifier remove targets a rule absent from the "
                    "table");
}

void apply_cleanup(Configuration& config, const Diff& d) {
    for (const Flow_rule& r : d.tag_removes)
        remove_item(config.flow_rules, r,
                    [](const Flow_rule& x) { return equality_key(x); },
                    "diff tag remove targets a rule absent from the table");
    for (const Queue_config& q : d.queue_removes)
        remove_item(config.queues, q,
                    [](const Queue_config& x) { return queue_full_key(x); },
                    "diff queue remove targets a queue absent from the table");
    for (const Click_config& c : d.click_removes)
        remove_item(config.click_configs, c,
                    [](const Click_config& x) { return click_key(x); },
                    "diff click remove targets a config absent from the table");
    for (const Host_command& c : d.tc_removes)
        remove_item(config.tc_commands, c,
                    [](const Host_command& x) { return command_key(x); },
                    "diff tc remove targets a command absent from the table");
    for (const Host_command& c : d.iptables_removes)
        remove_item(config.iptables_rules, c,
                    [](const Host_command& x) { return command_key(x); },
                    "diff iptables remove targets a rule absent from the "
                    "table");
}

Configuration apply(Configuration config, const Diff& d) {
    apply_prepare(config, d);
    apply_commit(config, d);
    apply_cleanup(config, d);
    validate(config);
    return config;
}

// ------------------------------------------------------------------ to_text

std::string to_text(const Diff& d) {
    std::ostringstream out;
    const auto rule_line = [&](const char* op, const Flow_rule& r) {
        out << "  " << op << ' ' << to_text(r) << '\n';
    };
    const auto queue_line = [&](const char* op, const Queue_config& q) {
        out << "  " << op << ' ' << q.device << " port:" << q.port
            << " queue:" << q.queue_id << " min=" << to_string(q.min_rate);
        if (q.max_rate) out << " max=" << to_string(*q.max_rate);
        out << '\n';
    };
    const auto command_line = [&](const char* op, const Host_command& c) {
        out << "  " << op << ' ' << c.host << ": " << c.command << '\n';
    };
    const auto click_line = [&](const char* op, const Click_config& c) {
        out << "  " << op << ' ' << c.device << " [" << c.function
            << "]: " << c.config << '\n';
    };

    out << "phase 1 (prepare): " << d.tag_installs.size() << "+"
        << d.tag_updates.size() << " tag rules, "
        << d.queue_installs.size() + d.queue_updates.size() << " queues, "
        << d.click_installs.size() << " click, "
        << d.tc_installs.size() + d.iptables_installs.size() << " host\n";
    for (const Flow_rule& r : d.tag_installs) rule_line("+", r);
    for (const Rule_update& u : d.tag_updates) {
        rule_line("-", u.before);
        rule_line("+", u.after);
    }
    for (const Queue_config& q : d.queue_installs) queue_line("+", q);
    for (const Queue_update& u : d.queue_updates) {
        queue_line("-", u.before);
        queue_line("+", u.after);
    }
    for (const Click_config& c : d.click_installs) click_line("+", c);
    for (const Host_command& c : d.tc_installs) command_line("+", c);
    for (const Host_command& c : d.iptables_installs) command_line("+", c);

    out << "phase 2 (commit): " << d.classifier_installs.size() << "+"
        << d.classifier_updates.size() << "-"
        << d.classifier_removes.size() << " classifiers\n";
    for (const Flow_rule& r : d.classifier_installs) rule_line("+", r);
    for (const Rule_update& u : d.classifier_updates) {
        rule_line("-", u.before);
        rule_line("+", u.after);
    }
    for (const Flow_rule& r : d.classifier_removes) rule_line("-", r);

    out << "phase 3 (cleanup): " << d.tag_removes.size() << " tag rules, "
        << d.queue_removes.size() << " queues, " << d.click_removes.size()
        << " click, " << d.tc_removes.size() + d.iptables_removes.size()
        << " host, " << d.retired_tags.size() << " tags retired\n";
    for (const Flow_rule& r : d.tag_removes) rule_line("-", r);
    for (const Queue_config& q : d.queue_removes) queue_line("-", q);
    for (const Click_config& c : d.click_removes) click_line("-", c);
    for (const Host_command& c : d.tc_removes) command_line("-", c);
    for (const Host_command& c : d.iptables_removes) command_line("-", c);
    if (!d.retired_tags.empty()) {
        out << "  retired tags:";
        for (const int tag : d.retired_tags) out << ' ' << tag;
        out << '\n';
    }
    return out.str();
}

// --------------------------------------------------------------- keyed_text

std::string keyed_text(const Configuration& config, const Naming& naming) {
    std::map<int, std::string> tag_key;
    for (const auto& [key, id] : naming.tag_bindings()) tag_key[id] = key;
    // (host, class id) -> key, from "host|statement" bindings.
    std::map<std::pair<std::string, int>, std::string> class_key;
    for (const auto& [key, id] : naming.class_bindings())
        class_key[{key.substr(0, key.find('|')), id}] = key;

    const auto tag_name = [&](int tag) {
        const auto it = tag_key.find(tag);
        return it != tag_key.end() ? "<" + it->second + ">"
                                   : std::to_string(tag);
    };
    // Replaces the integer after each tag-stage marker in a Click snippet.
    const auto click_text = [&](std::string text) {
        for (const char* marker : {"VLANClassifier(", "SetVLANAnno("}) {
            const std::size_t mark_len = std::string(marker).size();
            for (std::size_t at = text.find(marker);
                 at != std::string::npos;
                 at = text.find(marker, at + 1)) {
                std::size_t end = at + mark_len;
                while (end < text.size() && std::isdigit(
                           static_cast<unsigned char>(text[end])))
                    ++end;
                const int tag = std::stoi(text.substr(at + mark_len));
                text.replace(at + mark_len, end - (at + mark_len),
                             tag_name(tag));
            }
        }
        return text;
    };
    // Replaces "1:<n>" tc handles with the class key for this host.
    const auto tc_text = [&](const std::string& host, std::string text) {
        for (std::size_t at = text.find("1:"); at != std::string::npos;
             at = text.find("1:", at + 1)) {
            std::size_t end = at + 2;
            while (end < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[end])))
                ++end;
            if (end == at + 2) continue;  // the bare "1:" parent handle
            const int klass = std::stoi(text.substr(at + 2));
            const auto it = class_key.find({host, klass});
            if (it == class_key.end()) continue;
            text.replace(at + 2, end - (at + 2), "<" + it->second + ">");
        }
        return text;
    };

    std::vector<std::string> lines;
    for (const Flow_rule& r : config.flow_rules) {
        std::ostringstream line;
        line << "rule " << r.device << " priority=" << r.priority;
        if (r.match_tag) line << " vlan=" << tag_name(*r.match_tag);
        if (r.match) line << " match=[" << ir::to_string(r.match) << ']';
        if (r.match_dst_mac) line << " dst=" << *r.match_dst_mac;
        line << " ->";
        if (r.drop) line << " drop";
        if (r.set_tag) line << " set_vlan:" << tag_name(*r.set_tag);
        if (r.strip_tag) line << " strip_vlan";
        if (!r.out_port.empty()) line << " output:" << r.out_port;
        if (r.queue) line << " queue:" << tag_name(*r.queue);
        lines.push_back(line.str());
    }
    for (const Queue_config& q : config.queues) {
        std::ostringstream line;
        line << "queue " << q.device << " port:" << q.port << " id:"
             << tag_name(q.queue_id) << " min=" << to_string(q.min_rate);
        if (q.max_rate) line << " max=" << to_string(*q.max_rate);
        lines.push_back(line.str());
    }
    for (const Host_command& c : config.tc_commands)
        lines.push_back("tc " + c.host + ": " + tc_text(c.host, c.command));
    for (const Host_command& c : config.iptables_rules)
        lines.push_back("iptables " + c.host + ": " + c.command);
    for (const Click_config& c : config.click_configs)
        lines.push_back("click " + c.device + " [" + c.function +
                        "]: " + click_text(c.config));

    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

// -------------------------------------------------------------- Incremental

Diff Incremental::update(const core::Compilation& compilation,
                         const topo::Topology& topo) {
    if (!compilation.feasible)
        throw Policy_error("cannot diff an infeasible compilation: " +
                           compilation.diagnostic);
    naming_.begin_generation();
    analyzer_.begin_generation();
    Configuration next = generate(compilation, topo, naming_, analyzer_);
    std::vector<int> swept = naming_.collect_unused();
    Diff d = diff(config_, next);
    // The allocator sweep must cover the config-derived lifecycle: a tag
    // that vanished from the tables but was not swept means an identity
    // key stayed bound to rules that no longer exist — exactly the
    // instability stable naming exists to rule out. (The sweep may retire
    // *more*: bindings allocated by a generation that threw before
    // publishing.) The sweep is authoritative for the free list.
    expects(std::includes(swept.begin(), swept.end(), d.retired_tags.begin(),
                          d.retired_tags.end()),
            "tag sweep disagrees with config-derived retirement");
    d.retired_tags = std::move(swept);
    config_ = std::move(next);
    return d;
}

}  // namespace merlin::codegen
