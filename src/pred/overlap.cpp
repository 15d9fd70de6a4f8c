#include "pred/overlap.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <tuple>

#include "ir/fields.h"
#include "pred/classifier.h"

namespace merlin::pred {
namespace {

using Key = std::pair<std::uint64_t, std::uint64_t>;

// The pivot candidates, as pairs: (eth.src, eth.dst), then (ip.src, ip.dst).
const std::array<ir::Field, 4>& pivot_fields() {
    static const std::array<ir::Field, 4> fields{
        *ir::find_field("eth.src"), *ir::find_field("eth.dst"),
        *ir::find_field("ip.src"), *ir::find_field("ip.dst")};
    return fields;
}

// The values a predicate's top-level conjunction tests on each pivot
// candidate, masked to the field width. Any one of two conflicting tests
// on a field is implied by the (then unsatisfiable) predicate.
std::array<std::optional<std::uint64_t>, 4> pivot_values(const ir::Pred& p) {
    std::array<std::optional<std::uint64_t>, 4> out;
    for (const ir::Pred* c : ir::conjuncts(p)) {
        if (c->kind != ir::Pred_kind::test) continue;
        const auto field = ir::find_field(c->field);
        if (!field) continue;
        for (std::size_t k = 0; k < out.size(); ++k) {
            if (pivot_fields()[k].bit_offset != field->bit_offset) continue;
            if (!out[k])
                out[k] = field->width == 64
                             ? c->value
                             : c->value &
                                   ((std::uint64_t{1} << field->width) - 1);
            break;
        }
    }
    return out;
}

// Each predicate's key, or nullopt for a wildcard. The pivot is the IP pair
// when more predicates test both IP fields than both MAC fields.
std::vector<std::optional<Key>> keys_of(
    const std::vector<ir::PredPtr>& preds) {
    std::vector<std::array<std::optional<std::uint64_t>, 4>> values;
    values.reserve(preds.size());
    std::size_t eth = 0;
    std::size_t ip = 0;
    for (const ir::PredPtr& p : preds) {
        values.push_back(pivot_values(*p));
        eth += values.back()[0] && values.back()[1] ? 1 : 0;
        ip += values.back()[2] && values.back()[3] ? 1 : 0;
    }
    const std::size_t src = ip > eth ? 2 : 0;
    std::vector<std::optional<Key>> keys;
    keys.reserve(preds.size());
    for (const auto& v : values)
        keys.push_back(v[src] && v[src + 1]
                           ? std::optional<Key>(Key{*v[src], *v[src + 1]})
                           : std::nullopt);
    return keys;
}

}  // namespace

Overlaps overlapping_pairs(Analyzer& analyzer,
                           const std::vector<ir::PredPtr>& preds) {
    Overlaps out;
    const std::vector<std::optional<Key>> keys = keys_of(preds);
    std::vector<std::size_t> keyed;
    std::vector<std::size_t> wildcards;
    for (std::size_t i = 0; i < preds.size(); ++i)
        (keys[i] ? keyed : wildcards).push_back(i);

    // Members ascend, and a terminal set ascends, so each pair comes out
    // as (smaller, larger).
    const auto classify = [&](const std::vector<std::size_t>& members) {
        std::vector<ir::PredPtr> group;
        group.reserve(members.size());
        for (const std::size_t i : members) group.push_back(preds[i]);
        const Classifier classifier(analyzer, group);
        out.dag_predicates += members.size();
        for (const auto& set : classifier.match_sets())
            for (std::size_t a = 0; a < set.size(); ++a)
                for (std::size_t b = a + 1; b < set.size(); ++b)
                    out.pairs.emplace_back(members[set[a]], members[set[b]]);
    };
    // Sorted by key, ties in policy order: each run of one key is a bucket.
    std::sort(keyed.begin(), keyed.end(), [&](std::size_t a, std::size_t b) {
        return std::tie(*keys[a], a) < std::tie(*keys[b], b);
    });
    for (std::size_t begin = 0; begin < keyed.size();) {
        std::size_t end = begin + 1;
        while (end < keyed.size() && keys[keyed[end]] == keys[keyed[begin]])
            ++end;
        if (end - begin >= 2)
            classify({keyed.begin() + static_cast<std::ptrdiff_t>(begin),
                      keyed.begin() + static_cast<std::ptrdiff_t>(end)});
        begin = end;
    }
    if (wildcards.size() >= 2) classify(wildcards);

    if (!wildcards.empty() && !keyed.empty()) {
        bdd::Manager& mgr = analyzer.manager();
        bdd::Node any_wildcard = bdd::kFalse;
        for (const std::size_t j : wildcards)
            any_wildcard =
                mgr.apply_or(any_wildcard, analyzer.compile(preds[j]));
        for (const std::size_t i : keyed) {
            const bdd::Node root = analyzer.compile(preds[i]);
            ++out.wildcard_tests;
            if (mgr.disjoint(root, any_wildcard)) continue;
            for (const std::size_t j : wildcards)
                if (!mgr.disjoint(root, analyzer.compile(preds[j])))
                    out.pairs.emplace_back(std::min(i, j), std::max(i, j));
        }
    }
    // A pair can sit in several terminal sets.
    std::sort(out.pairs.begin(), out.pairs.end());
    out.pairs.erase(std::unique(out.pairs.begin(), out.pairs.end()),
                    out.pairs.end());
    return out;
}

Overlaps overlapping_pairs_with(Analyzer& analyzer,
                                const std::vector<ir::PredPtr>& preds,
                                std::size_t fresh) {
    Overlaps out;
    const std::vector<std::optional<Key>> keys = keys_of(preds);
    for (std::size_t j = 0; j < preds.size(); ++j) {
        if (j == fresh) continue;
        if (keys[fresh] && keys[j] && *keys[j] != *keys[fresh]) continue;
        if (keys[fresh] && !keys[j]) out.wildcard_tests = 1;
        if (!analyzer.disjoint(preds[fresh], preds[j]))
            out.pairs.emplace_back(std::min(j, fresh), std::max(j, fresh));
    }
    return out;
}

}  // namespace merlin::pred
