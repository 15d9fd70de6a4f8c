// Seeded input generators for the three benchmark workloads.
//
// The program under test sees only text: a policy (Merlin source) and,
// for the daemon workloads, a stream of merlind control lines. Each
// generator keeps a model of the live policy and link state, so every
// command's expected outcome is known before it is sent; the benchmark
// counts any other outcome as a failure.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "topo/topology.h"
#include "util/rng.h"

namespace perfbench {

// Every workload runs on the k=4 fat tree: 16 hosts, 20 switches.
inline constexpr int kFatTreeArity = 4;

// One live statement of the modeled tenant policy.
struct Tenant {
    std::string id;
    int src = 0;       // host index (h<src>)
    int dst = 0;       // host index
    int port = 0;      // tcp.dst refinement; 0 = the bare host pair
    int waypoint = -1; // core switch index for `.* c<N> .*`, -1 for `.*`
    long long min_mbps = 0;  // guarantee; 0 = best-effort
};

// Merlin source text for a statement list and its guarantees.
[[nodiscard]] std::string policy_text(const std::vector<Tenant>& tenants);

// A control line and the outcome the model predicts for it.
struct Command {
    enum class Kind { retune, overcap, fail, restore, add, remove };
    Kind kind = Kind::retune;
    std::string line;
    // What the line names, for the model's own bookkeeping.
    std::string id;        // retune, overcap, remove: the tenant
    long long mbps = 0;    // retune, overcap: the new guarantee
    merlin::topo::LinkId link = -1;  // fail, restore
    // The designed over-capacity retunes must come back
    // `refused code=infeasible`; everything else must be accepted.
    [[nodiscard]] bool expect_ok() const { return kind != Kind::overcap; }
};

[[nodiscard]] const char* to_string(Command::Kind kind);

// The generator's view of the daemon: live statements plus failed
// core-aggregation links. apply() advances the model for an accepted
// command; refused commands leave it untouched.
class Daemon_model {
public:
    Daemon_model(const merlin::topo::Topology& topo, std::uint64_t seed);

    // Draws the initial policy: `statements` tenants on distinct host pairs.
    // A tenant's role follows its id number s<n>, so every seed draws the
    // same mix and only the hosts and rates vary: tcp.dst is 8000 + n,
    // n % 5 == 2 is guaranteed (20%), n % 10 == 5 routes
    // `.* c<(n/10) mod 4> .*` (10%), and n % 4 == 0 pairs two edge switches
    // of one pod (25%; the rest cross pods).
    void seed_policy(int statements);

    // The next command of the `retune` stream. Every 20 commands hold 14
    // bandwidth retunes of guaranteed statements, 5 fail/restore commands
    // on core-aggregation links and 1 over-capacity retune, never next to
    // another refusal. Links fail two at a time and are then restored, so
    // at most two are down: with k=4 every pod keeps at least two of its
    // four uplinks and every core switch at least two of its four links, so
    // no host is cut off and waypoint paths stay routable. Only targets,
    // rates and links come from the seed, so every seed costs about the
    // same.
    [[nodiscard]] Command next_retune();
    // The next command of the `churn` stream: two adds, then two removes of
    // the oldest tenants, so the live count cycles n, n+1, n+2, n+1 from the
    // initial n. Every run, however many commands fit in its time, then
    // sees the same mix of adds and removes at the same policy sizes.
    [[nodiscard]] Command next_churn();

    void apply(const Command& command);

    [[nodiscard]] std::string policy() const { return policy_text(tenants_); }
    // The failed links, as ids of the model's topology.
    [[nodiscard]] const std::set<merlin::topo::LinkId>& failed_links() const {
        return failed_;
    }

private:
    [[nodiscard]] Tenant draw_tenant();

    const merlin::topo::Topology& topo_;
    merlin::Rng rng_;
    std::vector<Tenant> tenants_;
    std::set<std::pair<int, int>> pairs_;  // host pairs in use
    int next_id_ = 0;
    std::vector<merlin::topo::LinkId> uplinks_;  // core-aggregation links
    std::set<merlin::topo::LinkId> failed_;
    long long step_ = 0;        // commands drawn
    long long link_ops_ = 0;    // fail/restore commands drawn
    Tenant staged_;             // the tenant the last `add` draw carries
};

// One seeded variant of the Table-7 k=4 all-pairs policy: 240 statements
// (one per ordered host pair), 12 guaranteed at 1-10 Mbps, ~10% routed
// through a core switch.
[[nodiscard]] std::string compile_variant(std::uint64_t seed);

}  // namespace perfbench
