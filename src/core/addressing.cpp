#include "core/addressing.h"

#include "util/error.h"

namespace merlin::core {

Addressing::Addressing(const topo::Topology& topo) {
    std::uint64_t index = 0;
    for (topo::NodeId host : topo.hosts()) {
        ++index;  // addresses start at ...:00:01 / 10.0.0.1
        const std::uint64_t mac = index;
        const std::uint64_t ip = (10ULL << 24) | index;
        mac_of_.emplace(host, mac);
        ip_of_.emplace(host, ip);
        by_mac_.emplace(mac, host);
        by_ip_.emplace(ip, host);
    }
}

std::uint64_t Addressing::mac(topo::NodeId host) const {
    const auto it = mac_of_.find(host);
    if (it == mac_of_.end())
        throw Topology_error("node has no MAC (not a host)");
    return it->second;
}

std::uint64_t Addressing::ip(topo::NodeId host) const {
    const auto it = ip_of_.find(host);
    if (it == ip_of_.end())
        throw Topology_error("node has no IP (not a host)");
    return it->second;
}

std::optional<topo::NodeId> Addressing::host_by_mac(std::uint64_t value) const {
    const auto it = by_mac_.find(value);
    if (it == by_mac_.end()) return std::nullopt;
    return it->second;
}

std::optional<topo::NodeId> Addressing::host_by_ip(std::uint64_t value) const {
    const auto it = by_ip_.find(value);
    if (it == by_ip_.end()) return std::nullopt;
    return it->second;
}

Addressing::Endpoints Addressing::endpoints(
    const ir::PredPtr& predicate) const {
    Endpoints out;
    // The top-level conjunction only: or/not/true/false/payload never pin.
    for (const ir::Pred* p : ir::conjuncts(*predicate)) {
        if (p->kind != ir::Pred_kind::test) continue;
        if (p->field == "eth.src") {
            if (const auto h = host_by_mac(p->value)) out.src = h;
        } else if (p->field == "eth.dst") {
            if (const auto h = host_by_mac(p->value)) out.dst = h;
        } else if (p->field == "ip.src") {
            if (const auto h = host_by_ip(p->value)) out.src = h;
        } else if (p->field == "ip.dst") {
            if (const auto h = host_by_ip(p->value)) out.dst = h;
        }
    }
    return out;
}

ir::PredPtr Addressing::pair_predicate(topo::NodeId src,
                                       topo::NodeId dst) const {
    return ir::pred_and(ir::pred_test("eth.src", mac(src)),
                        ir::pred_test("eth.dst", mac(dst)));
}

}  // namespace merlin::core
