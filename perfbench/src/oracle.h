// The probe oracle: does a generated Configuration actually forward?
//
// The tables are loaded into a netsim::Rule_network and one probe is
// routed per pinned statement: from the first switch of the provisioned
// path for a guaranteed statement (which must then follow that path), and
// from every live edge switch of the source host otherwise. A probe that
// is not delivered to its destination host's MAC is a failure.
#pragma once

#include <string>
#include <vector>

#include "codegen/codegen.h"
#include "core/compiler.h"
#include "topo/topology.h"

namespace perfbench {

struct Probe_report {
    int probes = 0;
    std::vector<std::string> failures;  // one line per failed probe
    std::vector<double> route_us;       // Rule_network::route time per probe
};

[[nodiscard]] Probe_report probe(const merlin::core::Compilation& compilation,
                                 const merlin::codegen::Configuration& config,
                                 const merlin::topo::Topology& topo);

// Removes one forwarding rule from `config`: the tag rule that carries the
// first guaranteed statement's probe out of the second switch of its
// provisioned path. Returns false when there is no such rule (no
// guaranteed statement crosses three switches).
[[nodiscard]] bool break_one_rule(const merlin::core::Compilation& compilation,
                                  merlin::codegen::Configuration& config,
                                  const merlin::topo::Topology& topo);

}  // namespace perfbench
