#include "codegen/diff.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
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

void mix(std::size_t& h, std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

// Per-call structural ids for rule predicates (0 is the wildcard): a
// pointer hit first, otherwise a structural hash confirmed by ir::equal.
// Predicate text is injective (ir/ast.h), so equal ids mean equal text.
// Every node it sees must outlive it.
class Pred_ids {
public:
    std::uint32_t operator()(const ir::PredPtr& p) {
        if (!p) return 0;
        const auto [slot, inserted] = by_node_.try_emplace(p.get(), 0);
        if (!inserted) return slot->second;
        std::vector<std::uint32_t>& same_hash = by_hash_[hash(*p)];
        for (const std::uint32_t id : same_hash)
            if (ir::equal(preds_[id - 1], p)) return slot->second = id;
        preds_.push_back(p);
        const auto id = static_cast<std::uint32_t>(preds_.size());
        same_hash.push_back(id);
        return slot->second = id;
    }
    [[nodiscard]] std::size_t size() const { return preds_.size(); }

private:
    // An `and` tree hashes its conjuncts left to right, walked with
    // ir::conjuncts so a long chain adds no recursion; trees that differ
    // only in how their conjuncts associate collide, and ir::equal tells
    // them apart.
    static std::size_t hash(const ir::Pred& p) {
        std::size_t h = static_cast<std::size_t>(p.kind);
        switch (p.kind) {
            case ir::Pred_kind::true_:
            case ir::Pred_kind::false_: break;
            case ir::Pred_kind::test:
                mix(h, std::hash<std::string>{}(p.field));
                mix(h, p.value);
                break;
            case ir::Pred_kind::payload:
                mix(h, std::hash<std::string>{}(p.needle));
                break;
            case ir::Pred_kind::and_:
                for (const ir::Pred* c : ir::conjuncts(p)) mix(h, hash(*c));
                break;
            case ir::Pred_kind::or_:
                mix(h, hash(*p.lhs));
                mix(h, hash(*p.rhs));
                break;
            case ir::Pred_kind::not_: mix(h, hash(*p.lhs)); break;
        }
        return h;
    }

    std::unordered_map<const ir::Pred*, std::uint32_t> by_node_;
    std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_hash_;
    std::vector<ir::PredPtr> preds_;  // id - 1 -> first node seen
};

// Every field of a rule, its predicate as a Pred_ids id: identical rules
// cancel on this key.
struct Rule_fields {
    std::string_view device;
    std::string_view out_port;
    std::uint64_t dst_mac = 0;
    std::uint32_t pred = 0;
    int priority = 0;
    int match_tag = 0;
    int set_tag = 0;
    int queue = 0;
    unsigned flags = 0;
    bool operator==(const Rule_fields&) const = default;
};

Rule_fields fields_of(const Flow_rule& r, std::uint32_t pred) {
    return {r.device,
            r.out_port,
            r.match_dst_mac.value_or(0),
            pred,
            r.priority,
            r.match_tag.value_or(0),
            r.set_tag.value_or(0),
            r.queue.value_or(0),
            (r.match_tag ? 1U : 0U) | (r.match_dst_mac ? 2U : 0U) |
                (r.drop ? 4U : 0U) | (r.set_tag ? 8U : 0U) |
                (r.strip_tag ? 16U : 0U) | (r.queue ? 32U : 0U)};
}

struct Rule_fields_hash {
    std::size_t operator()(const Rule_fields& k) const {
        std::size_t h = std::hash<std::string_view>{}(k.device);
        mix(h, std::hash<std::string_view>{}(k.out_port));
        mix(h, k.dst_mac);
        mix(h, k.pred);
        mix(h, static_cast<std::size_t>(k.priority));
        mix(h, static_cast<std::size_t>(k.match_tag));
        mix(h, static_cast<std::size_t>(k.set_tag));
        mix(h, static_cast<std::size_t>(k.queue));
        mix(h, k.flags);
        return h;
    }
};

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

    // Flow rules: identical rules cancel through a hash map on every field;
    // the leftovers pair by identity (the match side) — same identity with
    // a new action is a modify, the rest are installs/removes routed to the
    // tag (phases 1/3) or classifier (phase 2) buckets. Only the leftovers
    // are ordered: by identity, with each distinct predicate ranked by its
    // text, then olds by action and news in emission order, so the
    // operation order is canonical.
    Pred_ids ids;
    struct Pooled {
        int count = 0;
        const Flow_rule* rule = nullptr;
    };
    std::unordered_map<Rule_fields, Pooled, Rule_fields_hash> pool;
    pool.reserve(old_config.flow_rules.size());
    for (const Flow_rule& r : old_config.flow_rules) {
        Pooled& entry = pool[fields_of(r, ids(r.match))];
        if (entry.count++ == 0) entry.rule = &r;
    }
    struct Leftover {
        const Flow_rule* rule;
        std::uint32_t pred;
    };
    std::vector<Leftover> old_left, new_left;
    for (const Flow_rule& r : new_config.flow_rules) {
        const std::uint32_t pred = ids(r.match);
        const auto it = pool.find(fields_of(r, pred));
        if (it != pool.end() && it->second.count > 0)
            --it->second.count;
        else
            new_left.push_back({&r, pred});
    }
    for (const auto& [fields, entry] : pool)
        for (int i = 0; i < entry.count; ++i)
            old_left.push_back({entry.rule, fields.pred});

    std::vector<std::uint32_t> rank(ids.size() + 1, 0);  // 0: the wildcard
    {
        std::vector<std::pair<std::string, std::uint32_t>> texts;
        for (const auto* side : {&old_left, &new_left})
            for (const Leftover& l : *side)
                if (l.pred != 0 && rank[l.pred] == 0) {
                    rank[l.pred] = 1;
                    texts.emplace_back(ir::to_string(l.rule->match), l.pred);
                }
        std::sort(texts.begin(), texts.end());
        for (std::size_t i = 0; i < texts.size(); ++i)
            rank[texts[i].second] = static_cast<std::uint32_t>(i + 1);
    }
    // The leading bool separates tag rules from predicate rules, so the
    // two populations never pair.
    const auto identity = [&rank](const Leftover& l) {
        const Flow_rule& r = *l.rule;
        return std::tuple(r.match_tag.has_value(), std::string_view(r.device),
                          r.priority, r.match_tag.value_or(0), rank[l.pred],
                          r.match_dst_mac.has_value(),
                          r.match_dst_mac.value_or(0));
    };
    const auto action = [](const Flow_rule& r) {
        return std::tuple(r.drop, r.set_tag.has_value(), r.set_tag.value_or(0),
                          r.strip_tag, std::string_view(r.out_port),
                          r.queue.has_value(), r.queue.value_or(0));
    };
    std::sort(old_left.begin(), old_left.end(),
              [&](const Leftover& a, const Leftover& b) {
                  return std::pair(identity(a), action(*a.rule)) <
                         std::pair(identity(b), action(*b.rule));
              });
    std::stable_sort(new_left.begin(), new_left.end(),
                     [&](const Leftover& a, const Leftover& b) {
                         return identity(a) < identity(b);
                     });
    for (std::size_t i = 0, j = 0;
         i < old_left.size() || j < new_left.size();) {
        const auto key =
            j == new_left.size() ||
                    (i < old_left.size() &&
                     identity(old_left[i]) < identity(new_left[j]))
                ? identity(old_left[i])
                : identity(new_left[j]);
        std::size_t old_end = i;
        while (old_end < old_left.size() && identity(old_left[old_end]) == key)
            ++old_end;
        std::size_t new_end = j;
        while (new_end < new_left.size() && identity(new_left[new_end]) == key)
            ++new_end;
        const bool tagged = std::get<0>(key);
        const std::size_t paired = std::min(old_end - i, new_end - j);
        for (std::size_t k = 0; k < paired; ++k)
            (tagged ? out.tag_updates : out.classifier_updates)
                .push_back(
                    Rule_update{*old_left[i + k].rule, *new_left[j + k].rule});
        for (std::size_t k = j + paired; k < new_end; ++k)
            (tagged ? out.tag_installs : out.classifier_installs)
                .push_back(*new_left[k].rule);
        for (std::size_t k = i + paired; k < old_end; ++k)
            (tagged ? out.tag_removes : out.classifier_removes)
                .push_back(*old_left[k].rule);
        i = old_end;
        j = new_end;
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
    Diff d = diff(*config_, next);
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
    config_ = std::make_shared<const Configuration>(std::move(next));
    return d;
}

}  // namespace merlin::codegen
