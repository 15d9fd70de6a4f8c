// Differential scenario fuzzing (the standing safety net for the compiler,
// the incremental engine, and every layer they publish into).
//
// A *scenario* is a reproducible experiment: a generated topology, an
// initial policy, and a trace of delta operations (the same vocabulary
// core::Engine speaks — statement add/remove, bandwidth re-division, link
// failure/repair, plus negotiator-driven redistribution). The runner drives
// a real Engine through the trace while maintaining its own independent
// model of what the policy and network should look like, and checks
// *cross-layer oracles* at every step:
//
//   * engine ≡ batch   — the engine's published Compilation equals a
//     from-scratch core::compile() of the model (the PR-4 invariant,
//     generalized from 10 hand-written cases to arbitrary traces);
//   * capacity         — provisioned paths never oversubscribe a link,
//     never cross a failed link, and agree with the reported maxima;
//   * routes           — sink-tree walks are real physical paths accepted
//     by their class NFA, and for unconstrained classes they agree with
//     the simulator's BFS routes (reachability and hop count) under the
//     same failure set;
//   * codegen          — generated flow rules parse back into per-device
//     tables whose tag-forwarding traces reproduce every provisioned path
//     and deliver every pinned best-effort statement;
//   * solver cross-checks — greedy feasibility implies exact-MIP
//     feasibility (never the reverse: the greedy provisioner is allowed to
//     miss), a proved-infeasible MIP refutes the greedy solver, and the
//     crash-started solve (or its refusal of an unroutable request)
//     reaches a two-phase solve's verdict and optimum.
//
// Scenarios are value types: serializable to a line-based repro file that
// parses back to an equal scenario (replays are deterministic), and
// shrinkable — a failing case is reduced by statement/delta bisection to a
// minimal trace that still trips the same oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataplane.h"
#include "codegen/diff.h"
#include "core/compiler.h"
#include "daemon/fault.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/units.h"

namespace merlin::testgen {

// ------------------------------------------------------------------ scenario

// One policy statement plus its localized rates (guarantee 0 = best-effort).
struct Statement_spec {
    ir::Statement stmt;
    Bandwidth guarantee;
    std::optional<Bandwidth> cap;

    [[nodiscard]] bool guaranteed() const { return guarantee.bps() > 0; }
};

enum class Delta_kind : std::uint8_t {
    set_bandwidth,
    add_statement,
    remove_statement,
    fail_link,
    restore_link,
    redistribute,
};

[[nodiscard]] const char* to_string(Delta_kind kind);

struct Delta {
    Delta_kind kind = Delta_kind::set_bandwidth;
    // set_bandwidth (id + rates), add_statement (full), remove (id only).
    Statement_spec stmt;
    // fail_link / restore_link, by endpoint names (robust across shrinks).
    std::string node_a;
    std::string node_b;
    // redistribute: per-statement demands, in the order they were drawn.
    std::vector<std::pair<std::string, Bandwidth>> demands;
};

struct Scenario {
    // Topology family spec: fat-tree:<k>, balanced-tree:<d>:<f>:<h>,
    // campus:<subnets>, zoo:<switches>:<seed>.
    std::string topo_spec = "fat-tree:2";
    // Seed recorded for provenance and used to derive the middlebox
    // attachment points (policy/trace randomness is consumed at generation
    // time; replays never re-roll).
    std::uint64_t seed = 0;
    // Extra middleboxes grafted onto random switches, each hosting one
    // packet-processing function (dpi/nat/log round-robin) — the NFV
    // ingredient of generated path expressions.
    int middleboxes = 0;
    core::Compile_options options;

    std::vector<Statement_spec> statements;
    std::vector<Delta> deltas;
    // Daemon-mode fault schedule (empty for engine-mode scenarios): injected
    // crashes, solver timeouts and control-stream corruption, anchored to
    // command steps. Serialized as "fault <step> <kind> [<count>]" lines and
    // shrunk event-by-event like deltas.
    daemon::Fault_plan faults;
};

// The physical network a scenario runs on (spec + middlebox grafts),
// identical on every call with the same scenario fields.
[[nodiscard]] topo::Topology make_topology(const Scenario& scenario);

// A policy from a statement list: statements in order, formula the
// conjunction of per-statement min (guarantee) and max (cap) terms.
[[nodiscard]] ir::Policy make_policy(
    const std::vector<Statement_spec>& statements);
// The scenario's initial policy: make_policy(scenario.statements).
[[nodiscard]] ir::Policy initial_policy(const Scenario& scenario);

// Applies one delta to a model state (statement list + the topology's link
// states) — the same bookkeeping the generator uses for validity filtering
// and the runner uses to build the engine's reference. Returns false (and
// leaves the model untouched) when the delta is invalid against that state:
// unknown statement or link, duplicate id, cap below guarantee, or a
// redistribute with nothing capped.
[[nodiscard]] bool apply_delta(std::vector<Statement_spec>& statements,
                               topo::Topology& topo, const Delta& delta);

// ----------------------------------------------------------------- generator

struct Gen_options {
    // Topology pool, one drawn per scenario. Defaults cover all four
    // generator families at fuzz-friendly sizes.
    std::vector<std::string> topo_specs = {
        "fat-tree:2",  "fat-tree:4", "balanced-tree:2:2:2",
        "campus:8",    "zoo:8:11",   "zoo:12:7",
    };
    int max_statements = 8;   // >= 1 (a refining draw may add one more)
    int max_deltas = 8;       // >= 0
    double guaranteed_fraction = 0.45;
    double cap_fraction = 0.4;
    double waypoint_fraction = 0.25;   // paths `.* s .*` via a switch
    double function_fraction = 0.25;   // paths `.* fn .*` (NFV), when placed
    double refine_fraction = 0.3;      // two port-refined statements per pair
    double middlebox_fraction = 0.35;  // scenario grows 1-2 middleboxes
    Bandwidth min_rate = mbps(1);
    Bandwidth max_rate = mbps(40);
    // Long-trace mode: after the regular delta trace, this many add/remove
    // cycles (add one statement, optionally retune its bandwidth, remove
    // it) run on the same engine. The workload that exposes tag-lifecycle
    // leaks: without free-list recycling the allocator's high-water mark
    // climbs monotonically and exhausts the 12-bit VLAN space.
    int long_trace_cycles = 0;
};

// Draws a well-typed scenario: pairwise-disjoint predicates (distinct host
// pairs, or distinct tcp.dst refinements of one pair), paths over the real
// location/function alphabet, rates with cap >= guarantee, and a delta
// trace filtered for validity against a running model (no unknown ids, no
// failing a failed link, redistribute only with >= 2 capped statements).
// Deterministic: equal (options, seed) yield an equal scenario.
[[nodiscard]] Scenario random_scenario(const Gen_options& options,
                                       std::uint64_t seed);

// ------------------------------------------------------------------- oracles

// Every oracle returns nullopt on success, or a human-readable explanation
// of the first violation.

// Field-by-field equality of two compilations (feasibility, diagnostics,
// plans, provisioned paths, class NFAs, sink trees, provisioning maxima) —
// the engine-vs-batch comparator, as a value instead of gtest assertions.
//
// Two deliberate tolerances, both found by the fuzzer itself:
//  * MIP-provisioned paths may differ between a warm-started and a cold
//    solve when two optimal vertices tie *exactly* (the tie-break jitters
//    are integer multiples of one quantum, so distinct edge subsets can
//    collide — e.g. two symmetric backbone detours). Such a divergence is
//    accepted only as a *proven tie*: same rate, same word and link
//    lengths (anything longer costs a full epsilon more), same endpoints
//    and function multiset, and the word still satisfies the statement's
//    path expression. Everything else stays exact.
//  * When either side's branch & bound hit `options.mip.max_nodes`, the
//    incumbent depends on exploration order (warm and cold orders differ
//    legitimately), so a truncated comparison is skipped outright — the
//    capacity/routes/codegen oracles still pin the engine's own state.
[[nodiscard]] std::optional<std::string> describe_difference(
    const core::Compilation& engine, const core::Compilation& fresh,
    const topo::Topology& topo, const core::Compile_options& options);

// Link-capacity discipline of the provisioned paths: per-occurrence charge
// never exceeds a link's capacity, no path crosses a failed link, and
// r_max / big_r_max equal the recomputed maxima.
[[nodiscard]] std::optional<std::string> check_capacity(
    const topo::Topology& topo, const core::Provision_result& provision);

// Sink-tree walks vs the simulator, under the topology's current failure
// set. Every (class, egress) tree walk must be a physical up-link path
// accepted by the class NFA; for `.*` classes with pinned endpoints,
// tree reachability and hop count must equal the simulator's BFS route.
[[nodiscard]] std::optional<std::string> check_routes(
    const core::Compilation& compilation, const topo::Topology& topo);

// Generated configuration vs the plan: flow rules parse back into
// per-device tables; the tag chain of every guaranteed path reproduces the
// provisioned node sequence (with its queues); every pinned best-effort
// statement's packets are traced hop-by-hop (through middlebox Click
// forwards) to their destination.
[[nodiscard]] std::optional<std::string> check_codegen(
    const core::Compilation& compilation, const topo::Topology& topo);

// Shared-predicate-DAG cross-oracle: classifying a packet through one
// multi-terminal DAG over all of the compilation's statement predicates
// must return exactly the statements whose individually compiled BDDs
// evaluate to true on that packet's bits. Probes every statement's witness
// packet plus the all-zero header.
[[nodiscard]] std::optional<std::string> check_classifier(
    const core::Compilation& compilation);

// Overlap-search cross-oracle: pred::overlapping_pairs must report exactly
// the pairs a whole-policy Classifier co-matches, and
// pred::overlapping_pairs_with(i) exactly those that include statement i.
// Runs on the compilation's statement predicates and on two widened copies
// that do overlap: the first statement testing eth.dst loses that test, and
// the last one tests the same host's ip.dst instead.
[[nodiscard]] std::optional<std::string> check_overlaps(
    const core::Compilation& compilation);

// Solver cross-checks over the scenario's current guaranteed statements:
// greedy-feasible => MIP-feasible, MIP proven-infeasible => greedy fails,
// both solutions respect capacities, colgen and sharded reach the full
// encoding's verdict, and the crash-started solve (with its unroutable-
// request refusal) lands on a two-phase solve's verdict and paths — on
// the scenario's requests and on its first request alone at every link
// capacity of the topology and 1 bps above it.
[[nodiscard]] std::optional<std::string> check_solvers(
    const topo::Topology& topo,
    const std::vector<Statement_spec>& statements,
    const core::Compile_options& options);

// Stateful delta-aware codegen oracle: feeds every published compilation
// through a persistent codegen::Incremental and checks, per delta, that
//  * applying the emitted two-phase diff to the previous Configuration
//    reproduces the incrementally generated tables bit-for-bit,
//  * the incremental tables match a from-scratch batch generate modulo
//    tag/class renaming (compared via Naming-keyed canonical text),
//  * when the topology is unchanged, replaying pinned statements' packets
//    through netsim rule tables at every intermediate phase (old, after
//    prepare, after commit, after cleanup) delivers each packet along
//    either the pure-old or pure-new path — never a blend or a blackhole.
// Infeasible publications are skipped (the last feasible state is kept).
class Diff_oracle {
public:
    // `check_transition` should be false for deltas that change link state:
    // the old tables may legitimately blackhole under the new topology.
    [[nodiscard]] std::optional<std::string> step(
        const core::Compilation& compilation, const topo::Topology& topo,
        bool check_transition);

private:
    codegen::Incremental incremental_;
    core::Compilation previous_;
    bool seeded_ = false;
};

// Symbolic cross-oracle: the analysis-layer dataplane checker must agree
// with the concrete replay above. check_codegen and Diff_oracle prove that
// every *replayed* packet delivers; this oracle demands the converse — each
// published configuration (and, when the topology is unchanged, each
// two-phase transition) proves out symbolically over the *entire* header
// space of every tracked class. A disagreement in either direction (replay
// clean but a symbolic error, or symbolically clean while a replay trips)
// pins a bug in the checker or the simulator respectively.
//
// It also holds the checker's proof cache to an empty-cache proof
// (check_update / check_dataplane) of the same inputs at every step, in
// severity, check, subject and message, and again on a copy of the tables
// with one forwarding rule removed from the path of a class the step
// reused: that copy must get the same, non-empty errors.
class Symbolic_oracle {
public:
    // `check_transition` as in Diff_oracle: false after a link-state delta.
    [[nodiscard]] std::optional<std::string> step(
        const core::Compilation& compilation, const topo::Topology& topo,
        bool check_transition);

private:
    analysis::Update_checker checker_;
    core::Compilation previous_;
    bool seeded_ = false;
};

// -------------------------------------------------------------------- runner

struct Run_options {
    // Deliberate faults for validating the harness itself: the runner
    // applies a mutated delta to the engine while the model keeps the
    // original, simulating an engine bug on that delta path.
    enum class Inject : std::uint8_t {
        none,
        rate_skew,      // set_bandwidth applies guarantee + 1 bps
        drop_restore,   // restore_link deltas never reach the engine
    };
    Inject inject = Inject::none;
    bool check_each_delta = true;  // oracles after every delta (else: end)
    bool solver_oracles = true;    // run check_solvers on the final state
    // Daemon mode: render the trace as control lines and drive a
    // daemon::Controller (with the scenario's fault plan injected) instead
    // of a bare engine. Two oracles join the cross-layer set:
    //   * daemon-atomicity — every published snapshot is new-complete
    //     (generation advanced by exactly one, checksum validates) and
    //     every refusal is old-complete (the serving snapshot is pointer-
    //     identical, generation unchanged);
    //   * daemon-model    — the daemon accepts exactly the commands the
    //     model accepts (spurious refusals and rogue acceptances both trip).
    // Accepted publications then run through the full engine-mode oracle
    // set against a batch compile of the model.
    bool daemon = false;
};

[[nodiscard]] std::optional<Run_options::Inject> parse_inject(
    const std::string& name);

struct Run_result {
    enum class Status : std::uint8_t {
        passed,
        failed,   // an oracle tripped
        invalid,  // the scenario itself was rejected (generator bug)
    };
    Status status = Status::passed;
    std::string oracle;  // name of the tripped oracle ("engine-vs-batch"...)
    std::string detail;  // first violation, verbatim
    int failing_step = -2;  // -1 initial build, i >= 0 after delta i
    int deltas_applied = 0;

    [[nodiscard]] bool failed() const { return status == Status::failed; }
};

[[nodiscard]] Run_result run_scenario(const Scenario& scenario,
                                      const Run_options& options = {});

// ------------------------------------------------------------------ shrinker

// Reduces a failing scenario by delta-, statement- and fault-event-chunk
// bisection (a bounded ddmin): a candidate reduction is kept only when it
// still fails the *same* oracle. Removing a statement also removes the
// deltas that reference it, so candidates stay valid. `runs` bounds the
// re-executions.
[[nodiscard]] Scenario shrink(const Scenario& failing,
                              const Run_options& options, int runs = 250);

// ------------------------------------------------------------- serialization

// Line-based repro format ("merlin-fuzz repro v1"); format_scenario output
// parses back to an equal scenario, and unknown/malformed lines throw
// merlin::Error with the offending line.
[[nodiscard]] std::string format_scenario(const Scenario& scenario);
[[nodiscard]] Scenario parse_scenario(const std::string& text);

}  // namespace merlin::testgen
