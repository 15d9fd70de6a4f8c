// The crash-safe control-plane daemon core (daemon::Controller).
//
// The load-bearing property: every control command is a transaction.
// Accepted commands publish exactly one new immutable snapshot (generation
// +1, checksum valid, state equal to a from-scratch compile); refused
// commands — argument errors, proven infeasibility, verification failures,
// exhausted retry budgets, injected crashes at either publication point —
// leave the serving snapshot pointer-identical with an unchanged
// generation, and the next command runs against fully rewound state (the
// engine, the update checker, and the incremental diff state all roll
// back together).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/addressing.h"
#include "core/compiler.h"
#include "daemon/daemon.h"
#include "daemon/fault.h"
#include "testgen/testgen.h"
#include "topo/topology.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace merlin;
using daemon::Command;
using daemon::Controller;
using daemon::Fault_event;
using daemon::Fault_kind;
using daemon::Fault_plan;
using daemon::Refusal;
using daemon::Response;
using daemon::Snapshot;

// -------------------------------------------------------------------- setups

// Two disjoint switch paths between the hosts: failing one must re-route,
// rates above both must go proven-infeasible.
topo::Topology diamond() {
    topo::Topology t;
    const auto s1 = t.add_switch("s1");
    const auto s2 = t.add_switch("s2");
    const auto s3 = t.add_switch("s3");
    const auto s4 = t.add_switch("s4");
    t.add_link(s1, s2, mbps(500));
    t.add_link(s2, s4, mbps(500));
    t.add_link(s1, s3, mbps(400));
    t.add_link(s3, s4, mbps(400));
    const auto h1 = t.add_host("h1");
    const auto h2 = t.add_host("h2");
    t.add_link(h1, s1, gbps(1));
    t.add_link(h2, s4, gbps(1));
    return t;
}

// min(g, rate), plus per-statement caps on both classes when `capped` (the
// pooled-envelope shape the redistribute command re-divides).
ir::Policy two_class_policy(const topo::Topology& t, Bandwidth rate,
                            bool capped = false) {
    const core::Addressing addressing(t);
    ir::Policy p;
    ir::Statement g;
    g.id = "g";
    g.predicate = addressing.pair_predicate(t.require("h1"), t.require("h2"));
    g.path = ir::path_any_star();
    p.statements.push_back(g);
    ir::Statement b;
    b.id = "b";
    b.predicate = addressing.pair_predicate(t.require("h2"), t.require("h1"));
    b.path = ir::path_any_star();
    p.statements.push_back(b);
    ir::Term min_term;
    min_term.ids.push_back("g");
    p.formula = ir::formula_min(std::move(min_term), rate);
    if (capped) {
        ir::Term cap_g;
        cap_g.ids.push_back("g");
        p.formula = ir::formula_and(
            p.formula, ir::formula_max(std::move(cap_g), mbps(300)));
        ir::Term cap_b;
        cap_b.ids.push_back("b");
        p.formula = ir::formula_and(
            p.formula, ir::formula_max(std::move(cap_b), mbps(200)));
    }
    return p;
}

core::Compile_options mip_options() {
    core::Compile_options o;
    o.solver = core::Solver::mip;
    o.jobs = 1;
    return o;
}

// A controller over the diamond with instant (recorded) sleeps.
struct Harness {
    std::vector<std::chrono::milliseconds> sleeps;
    topo::Topology topo = diamond();
    std::optional<Controller> controller;

    explicit Harness(Bandwidth rate = mbps(50), bool capped = false,
                     daemon::Options options = {}) {
        options.sleeper = [this](std::chrono::milliseconds d) {
            sleeps.push_back(d);
        };
        controller.emplace(two_class_policy(topo, rate, capped), topo,
                           mip_options(), options);
    }
    Controller& ctl() { return *controller; }
};

// The published snapshot must equal a from-scratch compile of `policy`.
void expect_serves(const Controller& ctl, const ir::Policy& policy,
                   const topo::Topology& topo) {
    const std::shared_ptr<const Snapshot> snap = ctl.snapshot();
    ASSERT_TRUE(snap);
    EXPECT_EQ(snap->checksum, daemon::snapshot_fingerprint(*snap));
    const core::Compilation fresh =
        core::compile(policy, topo, mip_options());
    const auto diff = testgen::describe_difference(snap->compilation, fresh,
                                                   topo, mip_options());
    EXPECT_FALSE(diff) << *diff;
}

Command bandwidth_command(const std::string& id, Bandwidth rate,
                          std::optional<Bandwidth> cap = std::nullopt) {
    Command cmd;
    cmd.kind = Command::Kind::bandwidth;
    cmd.id = id;
    cmd.guarantee = rate;
    cmd.cap = cap;
    return cmd;
}

// ------------------------------------------------------------- transactions

TEST(Daemon, InitialBuildPublishesGenerationOne) {
    Harness h;
    const auto snap = h.ctl().snapshot();
    ASSERT_TRUE(snap);
    EXPECT_EQ(snap->generation, 1u);
    EXPECT_EQ(h.ctl().generation(), 1u);
    EXPECT_EQ(snap->checksum, daemon::snapshot_fingerprint(*snap));
    EXPECT_TRUE(snap->compilation.feasible);
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(50)), h.topo);
}

TEST(Daemon, AcceptedDeltaPublishesExactlyOneGeneration) {
    Harness h;
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(120)));
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.generation, 2u);
    EXPECT_EQ(r.attempts, 1);
    const auto after = h.ctl().snapshot();
    EXPECT_NE(after.get(), before.get());
    EXPECT_EQ(after->generation, before->generation + 1);
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(120)), h.topo);
    EXPECT_EQ(h.ctl().stats().accepted, 1);
}

// The stats line appends the verify gate's counts: the initial generation
// was its one full proof, and the accepted retune reused its cache.
TEST(Daemon, StatsLineReportsWhatTheVerifyGateReused) {
    Harness h;
    ASSERT_TRUE(h.ctl().apply(bandwidth_command("g", mbps(120))).ok);
    const Response r = h.ctl().apply_line("stats");
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.detail.find(" classes_reused="), std::string::npos)
        << r.detail;
    EXPECT_NE(r.detail.find(" full_proofs=1 full_first=1 full_link=0"),
              std::string::npos)
        << r.detail;
}

TEST(Daemon, InfeasibleDeltaRollsBackAndServesLastGood) {
    Harness h;
    const auto before = h.ctl().snapshot();
    // 600 Mbps exceeds both disjoint paths: proven infeasible, refused at
    // once (no retry; the failure is permanent, not transient).
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(600)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::infeasible);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(h.ctl().generation(), 1u);
    // Old-complete, pointer-identically: the serving snapshot never moved.
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_TRUE(h.sleeps.empty());
    // The engine rolled back too: the next feasible delta compiles against
    // the pre-refusal policy, not a half-applied one.
    const Response next = h.ctl().apply(bandwidth_command("g", mbps(80)));
    ASSERT_TRUE(next.ok) << next.detail;
    EXPECT_EQ(next.generation, 2u);
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(80)), h.topo);
}

TEST(Daemon, ArgumentErrorsRefuseWithoutPublishing) {
    Harness h;
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply(bandwidth_command("zzz", mbps(10)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::argument);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    const Response p = h.ctl().apply_line("frobnicate the network");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.code, Refusal::parse);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_EQ(h.ctl().stats().refused, 2);
}

// ------------------------------------------------------------ crash faults

TEST(Daemon, CrashBeforePublishRecoversToLastGood) {
    Harness h;
    Fault_plan plan;
    plan.add({Fault_kind::crash_before_publish, 0, 1});
    h.ctl().set_fault_plan(plan);
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(120)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::crash);
    EXPECT_EQ(h.ctl().generation(), 1u);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_EQ(h.ctl().stats().crashes, 1);
    // The next delta must succeed against fully rewound state — including
    // the update checker's, or its two-phase proof would start from the
    // crashed candidate's tables instead of the serving ones.
    const Response next = h.ctl().apply(bandwidth_command("g", mbps(120)));
    ASSERT_TRUE(next.ok) << next.detail;
    EXPECT_EQ(next.generation, 2u);
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(120)), h.topo);
}

TEST(Daemon, CrashBetweenPrepareAndCommitRecoversToLastGood) {
    Harness h;
    Fault_plan plan;
    plan.add({Fault_kind::crash_between_prepare_and_commit, 0, 1});
    h.ctl().set_fault_plan(plan);
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(120)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::crash);
    // The next snapshot was fully prepared when the crash hit; the commit
    // never ran, so not one byte of it is serving.
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_EQ(h.ctl().generation(), 1u);
    const Response next = h.ctl().apply(bandwidth_command("g", mbps(90)));
    ASSERT_TRUE(next.ok) << next.detail;
    EXPECT_EQ(next.generation, 2u);
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(90)), h.topo);
}

// --------------------------------------------------------- timeouts / retry

TEST(Daemon, TransientTimeoutsRetryWithBackoffThenSucceed) {
    Harness h;
    Fault_plan plan;
    plan.add({Fault_kind::solver_timeout, 0, 2});  // first 2 attempts stall
    h.ctl().set_fault_plan(plan);
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(120)));
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(h.ctl().stats().retries, 2);
    ASSERT_EQ(h.sleeps.size(), 2u);
    for (const auto delay : h.sleeps)
        EXPECT_LE(delay, std::chrono::milliseconds(50));  // backoff_cap
    expect_serves(h.ctl(), two_class_policy(h.topo, mbps(120)), h.topo);
}

TEST(Daemon, TimeoutsBeyondRetryBudgetRefuseAndRollBack) {
    Harness h;
    Fault_plan plan;
    plan.add({Fault_kind::solver_timeout, 0, 5});  // outlasts max_retries=2
    h.ctl().set_fault_plan(plan);
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(120)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::timeout);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_EQ(h.ctl().generation(), 1u);
}

// --------------------------------------------------------------- quarantine

TEST(Daemon, ConsecutiveRefusalsQuarantineTheStreamUntilReleased) {
    daemon::Options options;
    options.quarantine_after = 2;
    Harness h(mbps(50), false, options);
    EXPECT_FALSE(h.ctl().apply(bandwidth_command("no1", mbps(1)), 7).ok);
    EXPECT_FALSE(h.ctl().apply(bandwidth_command("no2", mbps(1)), 7).ok);
    EXPECT_TRUE(h.ctl().quarantined(7));
    EXPECT_EQ(h.ctl().stats().quarantines, 1);
    // Even a valid command is refused without touching the engine.
    const Response r = h.ctl().apply(bandwidth_command("g", mbps(80)), 7);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::quarantined);
    EXPECT_EQ(h.ctl().generation(), 1u);
    // Other streams are unaffected.
    EXPECT_TRUE(h.ctl().apply(bandwidth_command("g", mbps(80)), 3).ok);
    h.ctl().release(7);
    EXPECT_FALSE(h.ctl().quarantined(7));
    EXPECT_TRUE(h.ctl().apply(bandwidth_command("g", mbps(60)), 7).ok);
}

// ------------------------------------------------------- blue/green reload

TEST(Daemon, ReloadRunsBlueGreenAndSurvivesLinkFailures) {
    Harness h;
    Command fail;
    fail.kind = Command::Kind::fail;
    fail.node_a = "s1";
    fail.node_b = "s2";
    ASSERT_TRUE(h.ctl().apply(fail).ok);

    // The green engine must inherit the serving link state, not the
    // construction-time topology: the reloaded policy routes around the
    // failed link.
    const ir::Policy replacement = two_class_policy(h.topo, mbps(100));
    const Response r = h.ctl().reload(replacement);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.generation, 3u);
    EXPECT_EQ(h.ctl().stats().reloads, 1);
    const auto snap = h.ctl().snapshot();
    const auto link = snap->topology.link_between(snap->topology.require("s1"),
                                                  snap->topology.require("s2"));
    ASSERT_TRUE(link);
    EXPECT_FALSE(snap->topology.link_up(*link));
    topo::Topology failed = h.topo;
    failed.set_link_state(*failed.link_between(failed.require("s1"),
                                               failed.require("s2")),
                          false);
    expect_serves(h.ctl(), replacement, failed);
}

TEST(Daemon, InfeasibleReloadKeepsBlueServing) {
    Harness h;
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().reload(two_class_policy(h.topo, mbps(5000)));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::infeasible);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());
    EXPECT_EQ(h.ctl().generation(), 1u);
    EXPECT_EQ(h.ctl().stats().reloads, 0);
    // Blue still takes deltas afterwards.
    EXPECT_TRUE(h.ctl().apply(bandwidth_command("g", mbps(70))).ok);
}

// ------------------------------------------------------------- redistribute

TEST(Daemon, RedistributeReDividesThePooledCaps) {
    Harness h(mbps(50), /*capped=*/true);
    Command cmd;
    cmd.kind = Command::Kind::redistribute;
    cmd.demands = {{"g", mbps(400)}, {"b", mbps(50)}};
    const Response r = h.ctl().apply(cmd);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.generation, 2u);
    const auto snap = h.ctl().snapshot();
    EXPECT_EQ(snap->checksum, daemon::snapshot_fingerprint(*snap));
    // The pool (300 + 200 Mbps) is conserved across the re-division.
    Bandwidth total;
    for (const core::Statement_plan& plan : snap->compilation.plans)
        if (plan.cap) total += *plan.cap;
    EXPECT_EQ(total, mbps(500));
}

TEST(Daemon, RedistributeWithoutCapsIsAnArgumentError) {
    Harness h;  // no caps anywhere: nothing to re-divide
    Command cmd;
    cmd.kind = Command::Kind::redistribute;
    cmd.demands = {{"g", mbps(10)}};
    const Response r = h.ctl().apply(cmd);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::argument);
    EXPECT_EQ(h.ctl().generation(), 1u);
}

// ------------------------------------------------- wire format round-trips

TEST(Daemon, CommandGrammarRoundTrips) {
    const std::vector<std::string> lines = {
        "add min=5 max=20 w : ip.src = 10.0.0.1 -> .*",
        "remove w",
        "bandwidth g 12",
        "bandwidth g 12 48",
        "bandwidth g 1500000bps",
        "fail s1 s2",
        "restore s1 s2",
        "redistribute g=30 b=10",
        "reload /tmp/p.mln",
        "drain 250",
        "release 4",
    };
    for (const std::string& line : lines) {
        const Command cmd = daemon::parse_command(line);
        ASSERT_NE(cmd.kind, Command::Kind::invalid) << line << ": "
                                                    << cmd.error;
        const std::string wire = daemon::format_command(cmd);
        const Command again = daemon::parse_command(wire);
        EXPECT_EQ(daemon::format_command(again), wire) << line;
    }
    EXPECT_EQ(daemon::parse_command("bogus cmd").kind,
              Command::Kind::invalid);
    EXPECT_FALSE(daemon::parse_command("bogus cmd").error.empty());
    EXPECT_EQ(daemon::parse_command("bandwidth g notarate").kind,
              Command::Kind::invalid);
}

TEST(Daemon, RatesTakePolicyUnitsAndRefuseOutOfRangeByToken) {
    // The grammar used to take only <n> (Mbps) and <n>bps.
    const Command add = daemon::parse_command(
        "add min=5Mbps max=1.5MB/s w : ip.src = 10.0.0.1 -> .*");
    ASSERT_EQ(add.kind, Command::Kind::add) << add.error;
    EXPECT_EQ(add.guarantee.bps(), mbps(5).bps());
    ASSERT_TRUE(add.cap.has_value());
    EXPECT_EQ(add.cap->bps(), mbps(12).bps());
    // <n>bps stays an exact integer parse past 2^53.
    EXPECT_EQ(daemon::parse_command("bandwidth g 9007199254740993bps")
                  .guarantee.bps(),
              9007199254740993ULL);
    // Each refusal names its token; the first used to read "stoull".
    for (const std::string token :
         {"99999999999999999999999", "18446744073709551615",
          "99999999999999999999999bps", "99999999999999999999999Gbps",
          "5furlongs"}) {
        const Command c = daemon::parse_command("bandwidth g " + token);
        EXPECT_EQ(c.kind, Command::Kind::invalid) << token;
        EXPECT_NE(c.error.find(token), std::string::npos) << c.error;
    }
    Harness h;
    const Response r =
        h.ctl().apply_line("bandwidth g 99999999999999999999999");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::parse);
    EXPECT_NE(r.to_line().find(
                  "reason=rate out of range: 99999999999999999999999"),
              std::string::npos)
        << r.to_line();
}

TEST(Daemon, AddTakesAPolicyRateUnitAndNamesABadFieldLiteral) {
    Harness h;
    ASSERT_TRUE(h.ctl().apply_line("remove b").ok);
    const core::Addressing addressing(h.topo);
    const std::string b = ir::to_string(addressing.pair_predicate(
        h.topo.require("h2"), h.topo.require("h1")));
    const Response added =
        h.ctl().apply_line("add min=5Mbps b : " + b + " -> .*");
    ASSERT_TRUE(added.ok) << added.to_line();
    // The literal used to surface as the opaque reason "stoull".
    for (const std::string literal : {"99999999999999999999999", "09"}) {
        const Response r =
            h.ctl().apply_line("add w : tcp.dst = " + literal + " -> .*");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.code, Refusal::parse);
        EXPECT_NE(r.detail.find("invalid value '" + literal +
                                "' for field tcp.dst"),
                  std::string::npos)
            << r.to_line();
    }
}

TEST(Daemon, DeeplyNestedAddIsRefusedAndTheControlPlaneLives) {
    // 100,000 nested parentheses on one `add` line used to overflow the
    // parser's stack and take the daemon, and every tenant, down.
    Harness h;
    ASSERT_TRUE(h.ctl().apply_line("remove b").ok);
    const std::uint64_t generation = h.ctl().generation();
    const auto before = h.ctl().snapshot();
    const Response r = h.ctl().apply_line(
        "add w : " + std::string(100'000, '(') + "tcp.dst = 80" +
        std::string(100'000, ')') + " -> .*");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::parse);
    EXPECT_NE(r.detail.find("nesting deeper than 256 levels"),
              std::string::npos)
        << r.to_line();
    EXPECT_EQ(h.ctl().generation(), generation);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());

    const core::Addressing addressing(h.topo);
    const std::string b = ir::to_string(addressing.pair_predicate(
        h.topo.require("h2"), h.topo.require("h1")));
    const Response next = h.ctl().apply_line("add b : " + b + " -> .*");
    ASSERT_TRUE(next.ok) << next.to_line();
    EXPECT_EQ(next.generation, generation + 1);
}

TEST(Daemon, OverlappingAddIsAnArgumentRefusalAndTheNextCommandIsServed) {
    // `w` pins only eth.src = h2, so every packet `b` matches (h2 -> h1)
    // is w's too. The engine's pre-check refuses the add before the lint
    // gate runs.
    Harness h;
    ASSERT_TRUE(h.ctl().apply_line("remove b").ok);
    const core::Addressing addressing(h.topo);
    const std::string w = ir::to_string(
        ir::pred_test("eth.src", addressing.mac(h.topo.require("h2"))));
    ASSERT_TRUE(h.ctl().apply_line("add w : " + w + " -> .*").ok);
    const std::uint64_t generation = h.ctl().generation();
    const auto before = h.ctl().snapshot();
    const std::string b = ir::to_string(addressing.pair_predicate(
        h.topo.require("h2"), h.topo.require("h1")));
    const Response r = h.ctl().apply_line("add b : " + b + " -> .*");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, Refusal::argument) << r.to_line();
    EXPECT_EQ(r.detail, "statements 'w' and 'b' have overlapping predicates");
    EXPECT_EQ(h.ctl().generation(), generation);
    EXPECT_EQ(h.ctl().snapshot().get(), before.get());

    const Response next = h.ctl().apply_line("remove w");
    ASSERT_TRUE(next.ok) << next.to_line();
    EXPECT_EQ(next.generation, generation + 1);
    const Response added = h.ctl().apply_line("add b : " + b + " -> .*");
    ASSERT_TRUE(added.ok) << added.to_line();
    EXPECT_EQ(added.generation, generation + 2);
}

TEST(Daemon, ResponseWireFormIsDeterministic) {
    Response ok;
    ok.ok = true;
    ok.generation = 7;
    ok.kind = "bandwidth";
    ok.attempts = 3;
    EXPECT_EQ(ok.to_line(), "ok gen=7 kind=bandwidth attempts=3");
    Response refused;
    refused.ok = false;
    refused.code = Refusal::infeasible;
    refused.generation = 7;
    refused.kind = "add";
    refused.detail = "no capacity";
    EXPECT_EQ(refused.to_line(),
              "refused code=infeasible gen=7 kind=add reason=no capacity");
}

// ------------------------------------------------------------- fault plans

TEST(Daemon, FaultPlanParsesAndFormatsRoundTrip) {
    const Fault_plan plan =
        daemon::parse_fault_plan("solver-timeout@3x2,crash-before-publish@0");
    ASSERT_EQ(plan.events().size(), 2u);
    EXPECT_EQ(plan.events()[0].kind, Fault_kind::solver_timeout);
    EXPECT_EQ(plan.events()[0].step, 3);
    EXPECT_EQ(plan.events()[0].count, 2);
    EXPECT_EQ(daemon::parse_fault_plan(daemon::format_fault_plan(plan)),
              plan);
    EXPECT_THROW(daemon::parse_fault_plan("nonsense@x"), Error);
    EXPECT_THROW(daemon::parse_fault_plan("solver-timeout"), Error);
}

TEST(Daemon, StreamFaultsRewriteTheLineSequenceDeterministically) {
    const std::vector<std::string> lines = {"bandwidth g 10", "fail s1 s2",
                                            "restore s1 s2"};
    Fault_plan plan;
    plan.add({Fault_kind::corrupt_line, 0, 1});
    plan.add({Fault_kind::duplicate_line, 1, 1});
    plan.add({Fault_kind::reorder_lines, 1, 1});
    const auto out = daemon::apply_stream_faults(lines, plan, 17);
    // corrupt(0): line 0 mangled; duplicate(1): line 1 twice; reorder(1):
    // line 1's block swaps with line 2's.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_NE(out[0], lines[0]);
    EXPECT_EQ(out[1], "restore s1 s2");
    EXPECT_EQ(out[2], "fail s1 s2");
    EXPECT_EQ(out[3], "fail s1 s2");
    // Deterministic in the seed.
    EXPECT_EQ(daemon::apply_stream_faults(lines, plan, 17), out);
    EXPECT_NE(daemon::corrupt_control_line("bandwidth g 10", 1),
              "bandwidth g 10");
}

TEST(Daemon, RandomFaultPlansAreDeterministicInTheSeed) {
    Rng a(99);
    Rng b(99);
    const Fault_plan pa = daemon::random_fault_plan(a, 10, 4);
    const Fault_plan pb = daemon::random_fault_plan(b, 10, 4);
    EXPECT_EQ(pa, pb);
    for (const Fault_event& event : pa.events()) {
        EXPECT_GE(event.step, 0);
        EXPECT_LT(event.step, 10);
    }
}

// ------------------------------------------------------ testgen daemon mode

TEST(Daemon, ScenarioFaultLinesRoundTripThroughReproFiles) {
    testgen::Scenario scenario = testgen::random_scenario({}, 5);
    scenario.faults.add({Fault_kind::solver_timeout, 1, 2});
    scenario.faults.add({Fault_kind::crash_between_prepare_and_commit, 2, 1});
    scenario.faults.add({Fault_kind::duplicate_line, 0, 1});
    const testgen::Scenario again =
        testgen::parse_scenario(testgen::format_scenario(scenario));
    EXPECT_EQ(again.faults, scenario.faults);
    EXPECT_EQ(testgen::format_scenario(again),
              testgen::format_scenario(scenario));
}

TEST(Daemon, FuzzHarnessRunsScenariosThroughTheDaemon) {
    testgen::Run_options options;
    options.daemon = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        testgen::Scenario scenario = testgen::random_scenario({}, seed);
        Rng rng(seed ^ 0xfa017ab1e5ull);
        scenario.faults = daemon::random_fault_plan(
            rng, static_cast<int>(scenario.deltas.size()), 3);
        const testgen::Run_result result =
            testgen::run_scenario(scenario, options);
        EXPECT_NE(result.status, testgen::Run_result::Status::failed)
            << "seed " << seed << ": oracle '" << result.oracle
            << "' tripped: " << result.detail;
        EXPECT_NE(result.status, testgen::Run_result::Status::invalid)
            << "seed " << seed << ": " << result.detail;
    }
}

}  // namespace
