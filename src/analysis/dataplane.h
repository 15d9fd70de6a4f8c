// The symbolic dataplane checker: generated device tables lifted to
// per-device packet-set transfer functions.
//
// netsim::Rule_network routes ONE concrete packet; this module routes a
// *set* of packets — a statement's whole traffic class as a BDD — through
// the same table semantics, splitting the set where a rule matches part of
// it, and proves per class and ingress that every header the class contains
// is delivered to the right host with its tag stripped. Along any branch
// the VLAN tag and destination MAC are concrete (packets are injected
// untagged and every set_tag is a constant), so only the header set is
// symbolic; a parallel predicate expression mirrors the BDD so every
// finding carries a concrete witness packet.
//
// Check catalogue:
//   blackhole        error  part of a class reaches a device with no
//                           matching rule (or a matching rule with no
//                           action)
//   unexpected-drop  error  a non-drop statement's traffic hits a drop rule
//   forwarding-loop  error  a device/tag state repeats along a branch (the
//                           tables are memoryless, so those packets cycle
//                           forever)
//   ambiguous-rules  error  equal-priority rules that can match the same
//                           packet disagree on their action
//   failed-link      error  a rule forwards over a failed or absent link
//   misdelivery      error  traffic is handed to a host whose MAC is not
//                           the packet's destination
//   tag-leak         error  traffic is delivered with its VLAN tag not
//                           stripped
//   middlebox-stuck  error  a middlebox has no Click forward for the
//                           carried tag and no deterministic passthrough
//   shadowed-rule    warning a rule no packet can ever fire (every packet
//                           it matches is claimed by higher-priority rules)
//   update-blend     error  between two-phase update tables: a packet's
//                           after-prepare route differs from its pre-update
//                           route, or its after-commit route from its
//                           post-update route
//
// Class and ingress selection mirrors the testgen replay oracle exactly
// (pinned, non-drop, non-default statements; deterministic-passthrough
// paths; the provisioned path's first switch for guaranteed traffic, every
// live edge switch of the source for best-effort), so a configuration the
// replay oracle accepts is judged on the same traffic — just on all of it.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "codegen/codegen.h"
#include "codegen/diff.h"
#include "core/compiler.h"
#include "topo/topology.h"

namespace merlin::analysis {

// Static per-device structural checks (shadowed rules, equal-priority
// determinism); independent of any traffic class.
[[nodiscard]] Report check_tables(const codegen::Configuration& config,
                                  const topo::Topology& topo);

// Static checks plus symbolic per-class propagation for one configuration.
[[nodiscard]] Report check_dataplane(const core::Compilation& compilation,
                                     const codegen::Configuration& config,
                                     const topo::Topology& topo);

// Verifies a two-phase update: the post-update table fully (as
// check_dataplane) and, for every statement stable across the update, the
// four phase tables (pre-update, after prepare, after commit, post-update)
// — each must deliver the whole class, prepare must leave every packet on
// its pre-update route, and commit must put every packet on its post-update
// route (per-packet consistency, proved per header set).
[[nodiscard]] Report check_update(const core::Compilation& old_comp,
                                  const core::Compilation& new_comp,
                                  const codegen::Configuration& old_config,
                                  const codegen::Diff& diff,
                                  const codegen::Configuration& new_config,
                                  const topo::Topology& topo);

// One table a two-phase update passes through, as propagation reads it:
// per device, its flow rules in priority order and its Click forwards as
// "<in tag> -> <out tag> toward <device>".
struct Phase_table {
    std::map<std::string, std::vector<codegen::Flow_rule>> rules;
    std::map<std::string, std::vector<std::string>> clicks;
};

// The four tables check_update replays (pre-update, after prepare, after
// commit, post-update). The middle two are overlays of the pre-update
// table: only devices the diff names get lists of their own. Exposed so
// tests can hold them to codegen::apply_prepare and apply_commit.
[[nodiscard]] std::array<Phase_table, 4> phase_tables(
    const codegen::Configuration& old_config, const codegen::Diff& diff,
    const codegen::Configuration& new_config, const topo::Topology& topo);

// What one Update_checker step proved afresh and what it reused; the
// checker keeps the last step's and the running totals.
struct Proof_counts {
    long long classes_proved = 0;
    long long classes_reused = 0;
    long long phase_replays = 0;  // classes whose four phases were replayed
    long long devices_checked = 0;
    long long devices_reused = 0;
    // Steps that could reuse nothing, by cause.
    long long full_proofs = 0;
    long long full_first = 0;  // the first generation
    long long full_link = 0;   // link state changed since the last step

    Proof_counts& operator+=(const Proof_counts& other);
};

// "classes_proved=N classes_reused=N ... full_link=N", one line.
[[nodiscard]] std::string to_text(const Proof_counts& counts);

namespace detail {
struct Generation;
}

// Engine-hook adapter: feed each published Compilation (e.g. from
// core::Engine::on_publish) and every generation is verified — the first
// with check_dataplane, each subsequent one as a two-phase update from its
// predecessor through a persistent codegen::Incremental. Each generation
// is proved in that Incremental's predicate space, kept across
// generations, where check_update and check_dataplane build a fresh one
// per call; the reports are the same, except that a payload witness may
// name a different, equally valid needle (needle variables are numbered
// in the order the space first met them).
//
// A step costs in proportion to its diff: the checker keeps, per class,
// the (device, tag) states its last clean proof visited and, per device,
// whether its static checks were clean, and reuses both where the diff
// cannot reach them (dataplane.cpp states the rules). Copies share that
// state, which is immutable once a step has built it.
class Update_checker {
public:
    // The report for this generation (empty when everything proves out).
    // `check_transition` should be false when link state changed since the
    // previous generation: the old tables may then legitimately cross a
    // now-failed link, so only the new configuration is checked.
    [[nodiscard]] Report step(const core::Compilation& compilation,
                              const topo::Topology& topo,
                              bool check_transition = true);

    // step() without codegen: proves `config`, reached from the previous
    // generation's tables by `diff`, as the next generation. The proof
    // state advances to it and incremental() does not, so only a copy
    // should be fed tables codegen did not produce (the fuzz cross-oracle
    // proves corrupted copies this way).
    [[nodiscard]] Report prove(
        const core::Compilation& compilation,
        std::shared_ptr<const codegen::Configuration> config,
        const codegen::Diff& diff, const topo::Topology& topo,
        bool check_transition = true);

    [[nodiscard]] const codegen::Configuration& config() const {
        return incremental_.config();
    }
    // The generator and predicate space behind config().
    [[nodiscard]] const codegen::Incremental& incremental() const {
        return incremental_;
    }

    [[nodiscard]] const Proof_counts& last_counts() const { return last_; }
    [[nodiscard]] const Proof_counts& total_counts() const { return totals_; }
    // The classes the last step reused, in class order, each with the
    // (node, carried tag) states its proof visited (tag -1: untagged).
    struct Reused_class {
        std::string id;
        std::vector<std::pair<topo::NodeId, int>> states;
    };
    [[nodiscard]] std::vector<Reused_class> reused_classes() const;

private:
    codegen::Incremental incremental_;
    std::shared_ptr<const detail::Generation> previous_;
    Proof_counts last_;
    Proof_counts totals_;
};

}  // namespace merlin::analysis
