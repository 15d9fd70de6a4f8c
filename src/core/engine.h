// The persistent incremental provisioning engine (Section 4's dynamic
// adaptation, systemized).
//
// core::compile() answers one policy; Engine keeps answering as the policy
// and the network change. It owns the cross-call state a batch compile
// throws away:
//
//   * interned NFA caches keyed by the path expression's text, one over the
//     full location alphabet (guaranteed statements) and one over the
//     switch alphabet (best-effort classes, with cached emptiness),
//   * built sink trees keyed by (path text, egress switch),
//   * the encoded provisioning MIP (the "LP skeleton") with the index maps
//     needed to patch it in place,
//   * one thread pool for the parallel front-end loops, created at the
//     first fan-out that needs it.
//
// Delta operations patch only what a change touches:
//
//   * set_bandwidth on a statement that stays guaranteed patches the
//     constraint-(2) coefficients and objective costs of the live encoding
//     and re-solves it — no automata work, no logical topologies, no
//     re-encoding, no sink-tree work (the paper's "changes to bandwidth
//     allocations do not require recompilation", Section 4.3); cap-only
//     changes run no solver at all;
//   * fail_link / restore_link flip the bounds of the binaries crossing
//     that link (the encoding's shape is link-state independent) and
//     rebuild only the sink trees;
//   * add_statement / remove_statement and guarantee promotions/demotions
//     change the encoding's shape, so they fall back to re-encoding the
//     skeleton — but still reuse every cached automaton and sink tree.
//
// The engine keeps no solver state across deltas: every full-encoding
// solve starts from the per-request shortest-path crash basis of the
// current encoding, and a patched encoding is bit-identical to a fresh
// one (patch_request_rate's invariant). So after every delta the
// published Compilation is exactly what a from-scratch compile() of the
// current policy and topology produces — paths, objective, r_max, R_max
// and the solver's work counters included — the equivalence the
// engine_test suite pins down.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiler.h"
#include "pred/analysis.h"
#include "pred/overlap.h"
#include "util/thread_pool.h"

namespace merlin::core {

// Opaque state capture backing Engine::checkpoint()/restore(); defined in
// engine.cpp, shared immutably by Checkpoint copies.
struct Engine_checkpoint_state;

// Predicate-space memory bound: when the analyzer's BDD node count exceeds
// this after a delta publication, the engine vacuums the whole space (nodes,
// apply cache, compile memo). Dead unique-table entries from retired
// statements cannot be collected individually, so without this a
// long-running daemon's predicate memory grows monotonically. Recompilation
// after a vacuum is demand-driven and memoized, so steady-state cost is one
// rebuild of the *live* predicates per vacuum.
inline constexpr std::size_t kBddVacuumNodeLimit = 1 << 16;

// Cumulative work counters. A bandwidth-only delta must leave
// automata_built, logical_builds, trees_built and lp_encodings untouched —
// the engine_test suite asserts exactly that.
struct Engine_stats {
    long long automata_built = 0;      // NFA chains constructed (cache misses)
    long long automata_cache_hits = 0; // NFA lookups served from the interns
    long long logical_builds = 0;      // logical topologies constructed
    long long trees_built = 0;         // sink trees constructed (cache misses)
    long long tree_cache_hits = 0;     // sink trees served from the cache
    long long lp_encodings = 0;        // full MIP skeleton (re)encodes
    long long lp_patches = 0;          // in-place coefficient/cost/bound edits
    long long solves = 0;              // provisioning solver runs
    long long warm_started_solves = 0; // root accepted the crash basis
    long long incremental_updates = 0; // delta operations applied
    // Predicate-DAG sharing counters, synced from the engine's analyzer at
    // every publication. predicate_compiles counts *distinct* predicate
    // texts compiled to BDDs (the memo serves repeats), so it is bounded by
    // distinct predicates, not statements.
    long long predicate_compiles = 0;   // compile() memo misses
    long long predicate_cache_hits = 0; // compile() calls served by the memo
    long long bdd_applies = 0;          // BDD apply/negate traversal steps
    long long bdd_nodes = 0;            // live BDD nodes (gauge; drops on vacuum)
    long long bdd_vacuums = 0;          // full predicate-space resets
    // Disjointness pre-check work (pred::overlapping_pairs): statements
    // classified through a predicate DAG, and keyed statements tested
    // against the wildcard statements. Both stay 0 for a policy whose
    // statements all pin distinct (src, dst) pairs.
    long long disjoint_dag_statements = 0;
    long long disjoint_wildcard_tests = 0;

    // Counter-wise difference (this - earlier); used to attribute work to a
    // single update.
    [[nodiscard]] Engine_stats since(const Engine_stats& earlier) const;
};

// Outcome of one delta operation.
struct Update_result {
    bool feasible = false;     // the published compilation's feasibility
    std::string diagnostic;    // from the published compilation
    const char* kind = "";     // which delta ran ("set_bandwidth", ...)
    double ms = 0;             // wall-clock of the update
    bool solver_run = false;   // a provisioning solve happened
    bool warm_started = false; // ... and its root skipped phase 1 (crash)
    Engine_stats work;         // work performed by this update alone

    explicit operator bool() const { return feasible; }
};

class Engine {
public:
    // Builds the engine and compiles the initial policy (throws exactly
    // where compile() would). The topology is copied; link failures are
    // applied to the engine's copy.
    Engine(const ir::Policy& policy, const topo::Topology& topo,
           Compile_options options = {});

    // ---- delta operations --------------------------------------------------
    // All return the re-provisioned outcome. Argument errors (duplicate or
    // unknown ids, guarantee > cap, unknown link) throw Policy_error /
    // Topology_error and leave the engine untouched.

    // Appends a statement (optionally guaranteed / capped) to the policy.
    Update_result add_statement(const ir::Statement& statement,
                                Bandwidth guarantee = {},
                                std::optional<Bandwidth> cap = std::nullopt);
    Update_result remove_statement(const std::string& id);

    // Re-divides bandwidth: sets the statement's guarantee and cap. A
    // guarantee change between two positive rates is the paper's
    // no-recompilation fast path; 0 -> positive (and back) moves the
    // statement between the best-effort and guaranteed worlds and falls
    // back to a skeleton re-encode.
    Update_result set_bandwidth(const std::string& id, Bandwidth guarantee,
                                std::optional<Bandwidth> cap = std::nullopt);

    Update_result fail_link(topo::LinkId link);
    Update_result restore_link(topo::LinkId link);
    // Convenience: resolve the link by endpoint names.
    Update_result fail_link(const std::string& a, const std::string& b);
    Update_result restore_link(const std::string& a, const std::string& b);

    // Full rebuild through the caches (the fallback path, callable
    // explicitly; also what stale deltas would degrade to).
    Update_result recompile();

    // ---- state -------------------------------------------------------------
    [[nodiscard]] const Compilation& current() const { return current_; }
    [[nodiscard]] const topo::Topology& topology() const { return topo_; }
    [[nodiscard]] const Compile_options& options() const { return options_; }
    // The current policy: statements in order plus the localized bandwidth
    // formula (a conjunction of per-statement min/max terms). compile() of
    // this against topology() reproduces current() from scratch.
    [[nodiscard]] ir::Policy policy() const;
    [[nodiscard]] const Engine_stats& totals() const { return totals_; }
    [[nodiscard]] bool has_statement(const std::string& id) const;
    [[nodiscard]] Bandwidth guarantee_of(const std::string& id) const;
    [[nodiscard]] std::optional<Bandwidth> cap_of(const std::string& id) const;

    // Moves the built compilation out (the one-shot compile() wrapper).
    [[nodiscard]] Compilation take() && { return std::move(current_); }

    // ---- transactional rollback --------------------------------------------
    // A checkpoint captures every piece of delta-visible state: the policy
    // entries, the provisioning requests, the last solve outcome, link
    // states, the published Compilation, and generation(). The NFA and
    // sink-tree interns are content-addressed caches shared across states,
    // so they are not captured; restore() only evicts trees built under a
    // different link state. Checkpoints share their capture immutably, so
    // copying one is a pointer copy.
    //
    // restore() rewinds the engine to the checkpoint — including
    // generation() — and fires no publish hook: a shadow-apply caller (the
    // src/daemon transaction protocol) already observed the candidate state
    // itself and must rewind its own consumers (codegen::Incremental,
    // analysis::Update_checker) alongside. The live LP skeleton is dropped
    // rather than captured, so a rolled-back delta costs one lazy re-encode
    // on the next solve — never correctness: engine-vs-batch equivalence
    // holds across any checkpoint/restore sequence (pinned by engine_test).
    class Checkpoint {
        friend class Engine;
        std::shared_ptr<const Engine_checkpoint_state> state_;
    };
    [[nodiscard]] Checkpoint checkpoint() const;
    void restore(const Checkpoint& saved);

    // Branch & bound node budget for subsequent solves. This is the
    // daemon's escalating-retry and timeout-injection knob: a truncated
    // (node-limited, unproven) solve is transient, and a retry may raise
    // the budget. Throws Policy_error when `max_nodes` < 1.
    void set_mip_node_limit(int max_nodes);
    [[nodiscard]] int mip_node_limit() const {
        return options_.mip.max_nodes;
    }

    // Observation point for delta-aware consumers (codegen::Incremental
    // lives a layer above core, so the engine exposes a hook rather than
    // owning diff state). The hook runs after every delta operation with
    // the published compilation — feasible or not — and the engine's
    // topology, and once immediately at registration with the already-
    // published state, so a late subscriber starts from the live tables.
    //
    // Contract (pinned by engine_test, relied on by src/daemon):
    //   * the hook fires exactly once per *completed* delta operation,
    //     after the compilation (feasible or not) is published and
    //     generation() has advanced;
    //   * a refused delta — any throw, whether an argument error or a
    //     failure inside the update — fires no hook and leaves
    //     generation() and every published byte unchanged: delta
    //     operations are strongly exception safe;
    //   * restore() fires no hook and rewinds generation(); shadow-apply
    //     callers rewind their hook-fed consumers themselves;
    //   * a hook that throws propagates to the delta caller, but the
    //     publication has already happened — state and generation keep
    //     their new values.
    using Publish_hook =
        std::function<void(const Compilation&, const topo::Topology&)>;
    void on_publish(Publish_hook hook);
    // Publication counter: 1 after construction, +1 per delta operation.
    [[nodiscard]] std::uint64_t generation() const { return generation_; }

private:
    friend struct Engine_checkpoint_state;

    // Scope guard giving every delta operation the strong exception
    // guarantee wholesale: capture a checkpoint, restore it on unwind
    // unless the operation committed. Used on the structural paths (which
    // re-encode and re-solve anyway, dwarfing the capture); the
    // set_bandwidth fast path rolls back its three scalars by hand instead.
    struct Delta_guard;

    struct Entry {
        ir::Statement stmt;
        std::string path_text;  // ir::to_string(stmt.path), the intern key
        Bandwidth guarantee;
        std::optional<Bandwidth> cap;
        std::optional<topo::NodeId> src_host;
        std::optional<topo::NodeId> dst_host;

        [[nodiscard]] bool guaranteed() const { return guarantee.bps() > 0; }
    };

    // Interned best-effort automaton: the NFA over the switch alphabet plus
    // its cached language emptiness. A path expression that mentions a
    // host-only location cannot be compiled for best-effort traffic; the
    // failure is cached too (it becomes a diagnostic, mirroring compile()).
    struct Switch_nfa {
        automata::Nfa nfa;
        bool empty = false;
        bool host_error = false;
    };

    // ---- construction / rebuild helpers
    void preprocess(const ir::Policy& policy);
    void rebuild_requests();
    // Section 2.1's pre-processor requirement: throw Policy_error naming
    // the first overlapping pair of the policy / of `fresh` against it.
    void check_disjoint_all();
    void check_disjoint_against(const Entry& fresh);
    void note_disjoint_work(const pred::Overlaps& found);

    // Ensures the full-alphabet NFA for every guaranteed entry is interned;
    // rethrows construction errors for the first guaranteed entry in policy
    // order (compile() parity).
    void ensure_guaranteed_nfas();
    // Builds the logical topology + request for one entry (NFA must be
    // interned already).
    [[nodiscard]] Guaranteed_request make_request(const Entry& entry);

    // Runs the solver over requests_, honouring Compile_options::solver
    // selection and the greedy fallback. Returns whether a full-encoding
    // root accepted the crash basis.
    bool solve_provisioning();

    // Runs fn(i) for i in [0, n): inline when jobs_ == 1 or n <= 1, else on
    // pool_, which the first such fan-out creates.
    template <typename Fn>
    void parallel_for(int n, Fn&& fn);

    // Rebuilds current_ from scratch (through the caches), mirroring
    // compile()'s staging and early returns exactly.
    void publish();
    // In-place fast publish for a bandwidth-only delta on entry `index`:
    // only rates, paths and the provisioning result change. Falls back to
    // publish() when feasibility flipped.
    void publish_bandwidth(std::size_t index);

    [[nodiscard]] std::size_t entry_index(const std::string& id) const;
    [[nodiscard]] std::size_t request_of_entry(std::size_t index) const;
    [[nodiscard]] bool mip_selected() const;

    Update_result finish_update(const char* kind,
                                std::chrono::steady_clock::time_point start,
                                const Engine_stats& before, bool solver_run,
                                bool warm_started);
    // Copies the analyzer's predicate/BDD counters into totals_.
    void sync_pred_stats();
    Update_result set_link_state(topo::LinkId link, bool up, const char* kind);

    // ---- persistent state
    topo::Topology topo_;
    Compile_options options_;
    Addressing addressing_;
    Switch_graph switch_graph_;
    automata::Alphabet full_alphabet_;
    int jobs_ = 1;
    mutable pred::Analyzer analyzer_;

    std::vector<Entry> entries_;  // policy order

    // Guaranteed world.
    std::vector<Guaranteed_request> requests_;   // guaranteed entries, in order
    std::vector<std::size_t> request_entry_;     // request -> entry index
    Mip_encoding skeleton_;
    bool skeleton_valid_ = false;                // matches requests_' shape
    Provision_result provision_;                 // last solve outcome

    // Interns.
    std::unordered_map<std::string, automata::Nfa> full_nfas_;
    std::unordered_map<std::string, Switch_nfa> switch_nfas_;
    std::map<std::pair<std::string, int>, Sink_tree> tree_cache_;

    Compilation current_;
    Compilation::Timing timing_;
    Engine_stats totals_;

    Publish_hook publish_hook_;
    std::uint64_t generation_ = 1;  // construction is the first publication
    std::unique_ptr<util::Thread_pool> pool_;
};

}  // namespace merlin::core
