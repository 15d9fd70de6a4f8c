// The Merlin compiler driver (Section 3).
//
// compile() takes a policy, a topology (with its function-placement map) and
// options, and produces everything code generation needs:
//
//   1. localization of the bandwidth formula (Section 3.1),
//   2. the pre-processor checks of Section 2.1 (pairwise-disjoint
//      predicates; a catch-all best-effort statement makes the policy total),
//   3. guaranteed statements -> logical topologies -> provisioning MIP
//      (Section 3.2) under one of the three heuristics,
//   4. best-effort statements -> shared sink trees over the switch-level
//      product graph (Section 3.3),
//   5. timing statistics matching the paper's evaluation breakdown
//      (Table 7: "LP construction", "LP solution", "Rateless solution").
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/addressing.h"
#include "core/provision.h"
#include "core/sinktree.h"
#include "ir/ast.h"
#include "presburger/localize.h"
#include "topo/topology.h"

namespace merlin::core {

// Which provisioning solver handles guaranteed statements.
enum class Solver {
    mip,     // the paper's exact formulation (constraints (1)-(5))
    greedy,  // scalable sequential path selection (approximate)
    // MIP up to `auto_mip_limit` guaranteed statements, greedy beyond;
    // greedy also serves as the fallback when the MIP is truncated without
    // an infeasibility proof.
    auto_select,
};

// How the exact (MIP) solver attacks the provisioning problem. All three
// modes minimize the same jittered objective; colgen and sharded carry an
// optimality certificate and silently re-solve with the full encoding
// whenever it does not close, so results are mode-independent up to the
// certificate tolerance.
enum class Solver_mode {
    full,     // one monolithic MIP over every logical edge (the default)
    colgen,   // path-based column generation (restricted master + pricing)
    sharded,  // per-pod shards in parallel + a cross-shard residual
};

[[nodiscard]] const char* to_string(Solver_mode mode);

struct Compile_options {
    Heuristic heuristic = Heuristic::weighted_shortest_path;
    Solver solver = Solver::auto_select;
    // Attack plan for the exact solver (ignored by the greedy one).
    Solver_mode solver_mode = Solver_mode::full;
    // The warm-started sparse simplex closes mid-size instances quickly
    // enough that the exact solver can take on twice the statements the
    // dense-inverse implementation could.
    int auto_mip_limit = 24;
    presburger::Split_fn split = presburger::equal_split;
    // Pairwise predicate disjointness (Section 2.1 pre-processor), through
    // pred::overlapping_pairs: statements pinning distinct (src, dst) values
    // skip each other, so policies generated by foreach sugar check in
    // near-linear time.
    bool check_disjoint = true;
    // Append a catch-all best-effort statement so the policy matches all
    // packets (Section 2.1 totality requirement).
    bool add_default_statement = true;
    // Front-end worker threads for logical-topology and sink-tree
    // construction. 0 resolves through MERLIN_THREADS, then
    // hardware_concurrency; 1 compiles fully sequentially. Output is
    // bit-identical for any value.
    int jobs = 0;
    mip::Options mip;
};

// What codegen needs to know about one statement.
struct Statement_plan {
    ir::Statement statement;
    Bandwidth guarantee;              // 0 when best-effort
    std::optional<Bandwidth> cap;     // from max()
    std::optional<topo::NodeId> src_host;
    std::optional<topo::NodeId> dst_host;

    [[nodiscard]] bool guaranteed() const { return guarantee.bps() > 0; }

    // Guaranteed statements: the provisioned path.
    std::optional<Provisioned_path> path;

    // Best-effort statements: index of the statement's path class; the tree
    // for a given egress switch is found via Compilation::tree_for().
    int path_class = -1;
    // True when the statement's path language is empty: matching traffic is
    // dropped (enforced by iptables / switch drop rules at the edge).
    bool drop = false;
};

struct Compilation {
    bool feasible = false;
    std::string diagnostic;  // non-empty when infeasible / rejected

    std::vector<Statement_plan> plans;
    Addressing addressing;
    Switch_graph switch_graph;

    // Path classes shared by best-effort statements: the NFA (over the
    // switch alphabet) per distinct path expression.
    std::vector<automata::Nfa> class_nfas;
    // (path class, egress symbol) -> sink tree.
    std::map<std::pair<int, int>, Sink_tree> trees;

    Provision_result provision;  // guaranteed-path results and MIP stats

    // Worker threads the front-end actually used (resolved from
    // Compile_options::jobs / MERLIN_THREADS / hardware_concurrency).
    int threads_used = 1;

    struct Timing {
        double preprocess_ms = 0;
        double lp_construction_ms = 0;  // logical topologies + encoding
        double lp_solve_ms = 0;         // MIP solve
        double rateless_ms = 0;         // sink-tree construction
    } timing;

    [[nodiscard]] const Sink_tree* tree_for(int path_class,
                                            int egress_symbol) const {
        const auto it = trees.find({path_class, egress_symbol});
        return it == trees.end() ? nullptr : &it->second;
    }
};

// One-shot compilation: a thin wrapper over core::Engine (see engine.h),
// which owns the front-end caches and the encoded provisioning MIP.
// Long-lived callers should construct an Engine and apply delta operations
// instead of re-compiling.
[[nodiscard]] Compilation compile(const ir::Policy& policy,
                                  const topo::Topology& topo,
                                  const Compile_options& options = {});

}  // namespace merlin::core
