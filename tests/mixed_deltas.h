// A deterministic stream of mixed engine deltas for the suites that check
// state kept across the generations of an update stream: tenant adds and
// removes, bandwidth retunes, and link fails and restores, in a fixed
// six-step rotation. Each added tenant brings a fresh predicate (a host
// pair plus its own tcp.dst port) and rewrites the catch-all statement, so
// a long stream keeps retiring predicates.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/addressing.h"
#include "core/engine.h"
#include "ir/ast.h"
#include "topo/topology.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace merlin::test_support {

class Mixed_deltas {
public:
    // `links` are endpoint pairs whose failure leaves every host connected;
    // they fail and restore in turn. `tenants` is the live count between an
    // add and the following remove.
    Mixed_deltas(const topo::Topology& topo,
                 std::vector<std::pair<std::string, std::string>> links,
                 int tenants = 6)
        : addressing_(topo),
          hosts_(topo.hosts()),
          links_(std::move(links)),
          engine_(initial_policy(tenants), topo) {
        expects(engine_.current().feasible, "initial tenants infeasible");
        for (const int n : live_)
            if (guarantee(n).bps() > 0)
                check(engine_.set_bandwidth(indexed("t", n), guarantee(n)));
    }

    [[nodiscard]] const core::Engine& engine() const { return engine_; }

    // Applies the next delta (add, retune, fail, retune, restore, remove)
    // and returns whether it changed link state. Rates stay far below link
    // capacity, so every delta is feasible.
    bool next() {
        const int kind = step_ % 6;
        const auto& [a, b] = links_[static_cast<std::size_t>(step_ / 6) %
                                    links_.size()];
        ++step_;
        switch (kind) {
            case 0: {
                const int n = next_tenant_++;
                live_.push_back(n);
                check(engine_.add_statement(tenant(n), guarantee(n)));
                return false;
            }
            case 2: check(engine_.fail_link(a, b)); return true;
            case 4: check(engine_.restore_link(a, b)); return true;
            case 5:
                check(engine_.remove_statement(indexed("t", live_.front())));
                live_.pop_front();
                return false;
            default: break;
        }
        // Retune the first live guaranteed tenant after a rotating offset;
        // consecutive tenant numbers always include one.
        for (std::size_t i = 0; i < live_.size(); ++i) {
            const int n =
                live_[(i + static_cast<std::size_t>(step_)) % live_.size()];
            if (guarantee(n).bps() == 0) continue;
            check(engine_.set_bandwidth(
                indexed("t", n),
                mbps(static_cast<std::uint64_t>(1 + step_ % 9))));
            return false;
        }
        throw Error("no live guaranteed tenant to retune");
    }

private:
    [[nodiscard]] ir::Statement tenant(int n) const {
        const std::size_t count = hosts_.size();
        const auto src = static_cast<std::size_t>(n) % count;
        const auto dst = static_cast<std::size_t>(5 * n + 3) % count;
        ir::Statement s;
        s.id = indexed("t", n);
        s.predicate = ir::pred_and(
            addressing_.pair_predicate(hosts_[src], hosts_[dst]),
            ir::pred_test("tcp.dst", static_cast<std::uint64_t>(8000 + n)));
        s.path = ir::path_any_star();
        return s;
    }
    [[nodiscard]] static Bandwidth guarantee(int n) {
        return n % 3 == 0 ? mbps(static_cast<std::uint64_t>(1 + n % 7))
                          : Bandwidth{};
    }
    [[nodiscard]] ir::Policy initial_policy(int tenants) {
        ir::Policy policy;
        for (; next_tenant_ < tenants; ++next_tenant_) {
            live_.push_back(next_tenant_);
            policy.statements.push_back(tenant(next_tenant_));
        }
        return policy;
    }
    static void check(const core::Update_result& result) {
        if (!result)
            throw Error("mixed delta infeasible: " + result.diagnostic);
    }

    core::Addressing addressing_;
    std::vector<topo::NodeId> hosts_;
    std::vector<std::pair<std::string, std::string>> links_;
    std::deque<int> live_;
    int next_tenant_ = 0;
    int step_ = 0;
    core::Engine engine_;
};

}  // namespace merlin::test_support
