// Mixed-integer programming via branch & bound over LP relaxations.
//
// Merlin's provisioning MIP has {0,1} decision variables x_e (one path per
// statement) and continuous bookkeeping variables r_uv, r_max, R_max
// (Section 3.2). Flow-structured LP relaxations are integral most of the
// time, so a lean best-first branch & bound with most-fractional branching
// closes these instances with few nodes — the role Gurobi played for the
// original system.
//
// Nodes are bound-change deltas over one shared relaxation (never copies of
// the whole problem), and each child inherits its parent's optimal basis:
// the LP layer warm-starts from it, skipping phase 1 and usually finishing
// in a handful of dual pivots.
#pragma once

#include <vector>

#include "lp/simplex.h"

namespace merlin::mip {

enum class Status {
    optimal,
    // An integral incumbent was found but the node limit stopped the proof
    // of optimality; the solution in `x` is feasible.
    feasible,
    infeasible,
    node_limit,
};

struct Options {
    int max_nodes = 10'000;
    double integrality_tol = 1e-6;
    // Relative optimality gap at which a node is pruned against the
    // incumbent.
    double gap_tol = 1e-9;
    // Warm-start each node's LP from the parent's optimal basis and the
    // root from `root_warm` (disable to measure the two-phase cold-start
    // baseline: every basis, the root's included, is then ignored).
    bool warm_start = true;
    lp::Options lp;
};

struct Solution {
    Status status = Status::infeasible;
    double objective = 0;
    std::vector<double> x;
    int nodes_explored = 0;
    // Aggregated LP work across all node solves (Table 7 reports solver
    // cost; these let benches report *why* the wall-clock moved).
    long long simplex_iterations = 0;
    int lp_factorizations = 0;
    int warm_started_nodes = 0;
    // Whether the root LP accepted `root_warm` and skipped phase 1 (false
    // when none was given, when warm_start is off, or when the basis was
    // rejected and the root ran the two-phase cold start).
    bool root_warm_started = false;

    [[nodiscard]] bool optimal() const { return status == Status::optimal; }
    // True when `x` holds a usable integral solution.
    [[nodiscard]] bool usable() const {
        return status == Status::optimal || status == Status::feasible;
    }
};

class Problem {
public:
    // Declares a {0,1} variable; returns its index.
    int add_binary(double cost);
    // Declares a continuous variable.
    int add_continuous(double cost, double lower, double upper);

    void add_constraint(lp::Sense sense, double rhs,
                        std::vector<std::pair<int, double>> coefficients);
    void set_cost(int variable, double cost);
    // In-place patches for an already-encoded problem (the incremental
    // engine's delta path): bound changes (e.g. fixing the binaries of a
    // failed link to zero) and constraint-coefficient changes (bandwidth
    // re-allocations). Both keep exported bases usable as warm starts.
    void set_bounds(int variable, double lower, double upper);
    void set_coefficient(int row, int variable, double coefficient);

    [[nodiscard]] int variable_count() const { return lp_.variable_count(); }
    [[nodiscard]] int binary_count() const {
        return static_cast<int>(binaries_.size());
    }
    [[nodiscard]] const lp::Problem& relaxation() const { return lp_; }

private:
    friend Solution solve(const Problem&, const Options&, const lp::Basis*);

    lp::Problem lp_;
    std::vector<int> binaries_;
};

// `root_warm`, when non-null and non-empty, warm-starts the root
// relaxation (and, through basis inheritance, the whole tree): a basis
// built for this problem, such as core's shortest-path crash basis.
[[nodiscard]] Solution solve(const Problem& problem,
                             const Options& options = {},
                             const lp::Basis* root_warm = nullptr);

}  // namespace merlin::mip
