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

// Engine-hook adapter: feed each published Compilation (e.g. from
// core::Engine::on_publish) and every generation is verified — the first
// with check_dataplane, each subsequent one as a two-phase update from its
// predecessor through a persistent codegen::Incremental. Each generation
// is proved in that Incremental's predicate space, kept across
// generations, where check_update and check_dataplane build a fresh one
// per call; the reports are the same, except that a payload witness may
// name a different, equally valid needle (needle variables are numbered
// in the order the space first met them).
class Update_checker {
public:
    // The report for this generation (empty when everything proves out).
    // `check_transition` should be false when link state changed since the
    // previous generation: the old tables may then legitimately cross a
    // now-failed link, so only the new configuration is checked.
    [[nodiscard]] Report step(const core::Compilation& compilation,
                              const topo::Topology& topo,
                              bool check_transition = true);

    [[nodiscard]] const codegen::Configuration& config() const {
        return incremental_.config();
    }
    // The generator and predicate space behind config().
    [[nodiscard]] const codegen::Incremental& incremental() const {
        return incremental_;
    }

private:
    codegen::Incremental incremental_;
    bool seeded_ = false;
    core::Compilation previous_;
    codegen::Configuration previous_config_;
};

}  // namespace merlin::analysis
