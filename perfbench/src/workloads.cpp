#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/strings.h"

namespace perfbench {

namespace {

using merlin::topo::LinkId;
using merlin::topo::Topology;

constexpr int kHosts = kFatTreeArity * kFatTreeArity * kFatTreeArity / 4;
constexpr int kCores = kFatTreeArity * kFatTreeArity / 4;
// Designed refusals ask for more than any 1 Gbps access link can carry.
constexpr long long kOverCapacityMbps = 5000;

// fat_tree() numbers hosts h0.. and addressing assigns MACs from
// 00:00:00:00:00:01 in host order.
std::string mac(int host) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "00:00:00:00:%02x:%02x",
                  (host + 1) >> 8, (host + 1) & 0xff);
    return buffer;
}

std::string path_text(int waypoint) {
    return waypoint < 0 ? ".*" : ".* c" + std::to_string(waypoint) + " .*";
}

std::string tenant_text(const Tenant& t) {
    std::string out =
        t.id + " : eth.src = " + mac(t.src) + " and eth.dst = " + mac(t.dst);
    if (t.port > 0) out += " and tcp.dst = " + std::to_string(t.port);
    return out + " -> " + path_text(t.waypoint);
}

// `count` distinct indices below `n`.
std::set<int> pick(merlin::Rng& rng, int n, int count) {
    std::set<int> out;
    while (static_cast<int>(out.size()) < count)
        out.insert(static_cast<int>(rng.uniform(0, n - 1)));
    return out;
}

}  // namespace

const char* to_string(Command::Kind kind) {
    switch (kind) {
        case Command::Kind::retune: return "retune";
        case Command::Kind::overcap: return "overcap";
        case Command::Kind::fail: return "fail";
        case Command::Kind::restore: return "restore";
        case Command::Kind::add: return "add";
        case Command::Kind::remove: return "remove";
    }
    return "?";
}

std::string policy_text(const std::vector<Tenant>& tenants) {
    std::string out = "[ ";
    std::string formula;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (i > 0) out += " ;\n  ";
        out += tenant_text(tenants[i]);
        if (tenants[i].min_mbps > 0) {
            if (!formula.empty()) formula += " and ";
            formula += "min(" + tenants[i].id + ", " +
                       std::to_string(tenants[i].min_mbps) + "Mbps)";
        }
    }
    out += " ]";
    if (!formula.empty()) out += ",\n" + formula;
    return out + "\n";
}

Daemon_model::Daemon_model(const Topology& topo, std::uint64_t seed)
    : topo_(topo), rng_(seed) {
    for (LinkId l = 0; l < topo.link_count(); ++l) {
        const std::string& a = topo.node(topo.link(l).a).name;
        const std::string& b = topo.node(topo.link(l).b).name;
        if ((a[0] == 'c' && b[0] == 'a') || (a[0] == 'a' && b[0] == 'c'))
            uplinks_.push_back(l);
    }
}

Tenant Daemon_model::draw_tenant() {
    const int n = next_id_++;
    const bool intra_pod = n % 4 == 0;
    Tenant t;
    t.id = merlin::indexed("s", n);
    // k=4: hosts 2e and 2e+1 sit under edge switch e, four hosts per pod.
    do {
        t.src = static_cast<int>(rng_.uniform(0, kHosts - 1));
        t.dst = static_cast<int>(rng_.uniform(0, kHosts - 1));
    } while (t.src / 2 == t.dst / 2 || (t.src / 4 == t.dst / 4) != intra_pod ||
             pairs_.contains({t.src, t.dst}));
    t.port = 8000 + n;
    if (n % 10 == 5) t.waypoint = n / 10 % kCores;
    if (n % 5 == 2) t.min_mbps = rng_.uniform(1, 50);
    return t;
}

void Daemon_model::seed_policy(int statements) {
    for (int i = 0; i < statements; ++i) {
        Tenant t = draw_tenant();
        pairs_.insert({t.src, t.dst});
        tenants_.push_back(std::move(t));
    }
}

Command Daemon_model::next_retune() {
    Command c;
    const long long slot = step_++ % 20;
    std::vector<const Tenant*> guaranteed;
    for (const Tenant& t : tenants_)
        if (t.min_mbps > 0) guaranteed.push_back(&t);
    const Tenant& target = *guaranteed[static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(guaranteed.size()) - 1))];
    if (slot % 4 == 3) {
        const bool restore = link_ops_++ % 4 >= 2;
        if (restore) {
            auto it = failed_.begin();
            std::advance(it, rng_.uniform(
                                 0, static_cast<std::int64_t>(failed_.size()) - 1));
            c.link = *it;
        } else {
            do {
                c.link = uplinks_[static_cast<std::size_t>(rng_.uniform(
                    0, static_cast<std::int64_t>(uplinks_.size()) - 1))];
            } while (failed_.contains(c.link));
        }
        const merlin::topo::Link& link = topo_.link(c.link);
        c.kind = restore ? Command::Kind::restore : Command::Kind::fail;
        c.line = std::string(restore ? "restore " : "fail ") +
                 topo_.node(link.a).name + " " + topo_.node(link.b).name;
        return c;
    }
    c.id = target.id;
    if (slot == 10) {
        c.kind = Command::Kind::overcap;
        c.mbps = kOverCapacityMbps;
    } else {
        c.kind = Command::Kind::retune;
        c.mbps = target.min_mbps;
        while (c.mbps == target.min_mbps) c.mbps = rng_.uniform(1, 100);
    }
    c.line = "bandwidth " + c.id + " " + std::to_string(c.mbps);
    return c;
}

Command Daemon_model::next_churn() {
    Command c;
    if (step_++ % 4 < 2) {
        staged_ = draw_tenant();
        c.kind = Command::Kind::add;
        c.line = "add ";
        if (staged_.min_mbps > 0)
            c.line += "min=" + std::to_string(staged_.min_mbps) + " ";
        c.line += tenant_text(staged_);
    } else {
        c.kind = Command::Kind::remove;
        c.id = tenants_.front().id;
        c.line = "remove " + c.id;
    }
    return c;
}

void Daemon_model::apply(const Command& command) {
    const auto tenant = std::find_if(
        tenants_.begin(), tenants_.end(),
        [&](const Tenant& t) { return t.id == command.id; });
    switch (command.kind) {
        case Command::Kind::retune:
        case Command::Kind::overcap:
            tenant->min_mbps = command.mbps;
            break;
        case Command::Kind::fail:
            failed_.insert(command.link);
            break;
        case Command::Kind::restore:
            failed_.erase(command.link);
            break;
        case Command::Kind::add:
            pairs_.insert({staged_.src, staged_.dst});
            tenants_.push_back(staged_);
            break;
        case Command::Kind::remove:
            pairs_.erase({tenant->src, tenant->dst});
            tenants_.erase(tenant);
            break;
    }
}

std::string compile_variant(std::uint64_t seed) {
    merlin::Rng rng(seed);
    constexpr int kPairs = kHosts * (kHosts - 1);
    const std::set<int> granted = pick(rng, kPairs, 12);
    const std::set<int> detoured = pick(rng, kPairs, kPairs / 10);
    std::vector<Tenant> statements;
    for (int src = 0; src < kHosts; ++src)
        for (int dst = 0; dst < kHosts; ++dst) {
            if (src == dst) continue;
            const int i = static_cast<int>(statements.size());
            Tenant t;
            t.id = merlin::indexed("t", i);
            t.src = src;
            t.dst = dst;
            if (detoured.contains(i))
                t.waypoint = static_cast<int>(rng.uniform(0, kCores - 1));
            if (granted.contains(i)) t.min_mbps = rng.uniform(1, 10);
            statements.push_back(std::move(t));
        }
    return policy_text(statements);
}

}  // namespace perfbench
