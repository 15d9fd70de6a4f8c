// Delta-aware code generation: minimal per-device rule diffs between two
// Configurations, ordered as a two-phase consistent update (the paper's §6
// adaptation story meets Reitblatt-style per-packet consistency):
//
//   phase 1 — prepare: install every rule that matches on a tag
//     (forwarding, delivery, segment rules) plus new queues, queue rate
//     changes, new middlebox Click forwards, and new host tc/iptables
//     state. Old traffic is untouched — nothing yet classifies onto the
//     new tags.
//   phase 2 — commit: flip the ingress classifiers (predicate-matching
//     rules): installs, in-place action updates, removals. A packet
//     classified before the flip carries an old tag and completes its
//     journey over pre-update rules; a packet classified after carries a
//     new tag over phase-1 rules. No packet mixes the two or blackholes.
//   phase 3 — cleanup: garbage-collect the rules, queues and Click
//     forwards only old tags reference, and retire those tags into the
//     allocator's free list for reuse.
//
// Rule identity is the match side (device, priority, tag, predicate, dst
// mac); equal identity with a different action is a modify. Tag rules
// essentially never modify — changed forwarding behaviour produces a fresh
// tag by construction, because Naming keys embed the behaviour — but the
// case is handled for completeness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/codegen.h"

namespace merlin::codegen {

struct Rule_update {
    Flow_rule before, after;
};
struct Queue_update {
    Queue_config before, after;
};

struct Diff {
    // Phase 1 — prepare (new tags become routable; old traffic unaffected).
    std::vector<Flow_rule> tag_installs;
    std::vector<Rule_update> tag_updates;
    std::vector<Queue_config> queue_installs;
    std::vector<Queue_update> queue_updates;
    std::vector<Click_config> click_installs;
    std::vector<Host_command> tc_installs;
    std::vector<Host_command> iptables_installs;

    // Phase 2 — commit (ingress classifiers flip to the new tags).
    std::vector<Flow_rule> classifier_installs;
    std::vector<Rule_update> classifier_updates;
    std::vector<Flow_rule> classifier_removes;

    // Phase 3 — cleanup (only-old-tag state is garbage-collected).
    std::vector<Flow_rule> tag_removes;
    std::vector<Queue_config> queue_removes;
    std::vector<Click_config> click_removes;
    std::vector<Host_command> tc_removes;
    std::vector<Host_command> iptables_removes;
    // Tags referenced by the old configuration but not the new one, sorted.
    std::vector<int> retired_tags;

    // Flow-rule operations only: the "rules touched" the adaptation bench
    // compares against full-table size.
    [[nodiscard]] int rules_touched() const;
    // Every operation, including queues, host commands and Click configs.
    [[nodiscard]] int total_operations() const;
    [[nodiscard]] bool empty() const { return total_operations() == 0; }
};

// Structural comparison. equal() compares canonical forms, so two
// configurations emitted in different orders compare equal iff they hold
// the same instructions.
[[nodiscard]] bool equal(const Flow_rule& a, const Flow_rule& b);
[[nodiscard]] bool equal(const Configuration& a, const Configuration& b);
[[nodiscard]] Configuration canonical(Configuration config);

// The minimal two-phase diff from `old_config` to `new_config`, including
// the config-derived retired-tag set.
[[nodiscard]] Diff diff(const Configuration& old_config,
                        const Configuration& new_config);

// Applies one phase in place (removals and updates locate their targets by
// full equality and throw if absent); apply() runs all three and yields a
// configuration bit-equal — modulo instruction order, which canonical()
// normalizes — to the one the diff was computed against. Each phase leaves
// a table that still passes validate(), which is re-checked after cleanup.
void apply_prepare(Configuration& config, const Diff& d);
void apply_commit(Configuration& config, const Diff& d);
void apply_cleanup(Configuration& config, const Diff& d);
[[nodiscard]] Configuration apply(Configuration config, const Diff& d);

// Human-readable dump, one operation per line, grouped by phase.
[[nodiscard]] std::string to_text(const Diff& d);

// Canonical text with every concrete VLAN tag, queue id and tc class id
// replaced by its Naming identity key: two configurations generated under
// different allocator histories print identically iff they are equal
// modulo name choice. The testgen diff oracle uses this to pin incremental
// generation to a from-scratch batch generate.
[[nodiscard]] std::string keyed_text(const Configuration& config,
                                     const Naming& naming);

// Persistent delta-aware generator: feed it each published Compilation and
// it re-generates through a long-lived Naming, returning the two-phase
// diff from the previously published configuration (everything is an
// install on the first call). Unused names are swept after every update,
// so tags recycle through the free list instead of leaking — the sweep is
// cross-checked against the config-derived retired set.
//
// Every update() compiles predicates in one predicate space kept across
// generations, so a predicate that survives a delta is not recompiled;
// each update() begins a generation of it (pred::Analyzer's vacuum rule
// bounds its memory). analysis::Update_checker proves each generation in
// the same space. Copies copy the space and evolve independently; a
// published configuration is immutable, so copies share it.
class Incremental {
public:
    Diff update(const core::Compilation& compilation,
                const topo::Topology& topo);
    [[nodiscard]] const Configuration& config() const { return *config_; }
    // config(), held past the next update() without a copy.
    [[nodiscard]] std::shared_ptr<const Configuration> shared_config() const {
        return config_;
    }
    [[nodiscard]] const Naming& naming() const { return naming_; }
    [[nodiscard]] pred::Analyzer& analyzer() { return analyzer_; }
    [[nodiscard]] const pred::Analyzer& analyzer() const { return analyzer_; }

private:
    Naming naming_;
    std::shared_ptr<const Configuration> config_ =
        std::make_shared<const Configuration>();
    pred::Analyzer analyzer_;
};

}  // namespace merlin::codegen
