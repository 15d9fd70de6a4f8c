// Linear programming: a bounded-variable sparse revised simplex solver.
//
// Merlin's path-selection problem (Section 3.2, constraints (1)-(5)) is a
// mixed-integer program; the original system called the Gurobi optimizer.
// This module provides the LP relaxation engine underneath our own
// branch-and-bound (src/mip). It implements the two-phase primal simplex
// with variable bounds over a *sparse* basis factorization: the basis is
// held as an LU factorization (an L eta file plus sparse upper-triangular
// columns, with row/column permutations chosen during elimination) and
// pivots append sparse product-form update etas on top of it, so FTRAN /
// BTRAN cost is proportional to factor fill rather than m^2. The flow
// conservation matrices Merlin produces have ~2 nonzeros per column, which
// keeps the factors near the size of the basis itself.
//
// Bases can be exported from a solved problem and passed back to warm-start
// a re-solve after bound changes (the branch & bound workload): the
// inherited basis skips phase 1 entirely — a basic variable stranded
// outside a tightened bound (the child node's branching variable) is first
// repaired with bounded dual-simplex-style pivots, and any failure falls
// back to the ordinary two-phase cold start.
//
// Problems are minimization; use negated costs to maximize.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace merlin::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { less_equal, equal, greater_equal };

enum class Status { optimal, infeasible, unbounded, iteration_limit };

struct Options {
    int max_iterations = 200'000;
    double feasibility_tol = 1e-7;
    double optimality_tol = 1e-7;
    // Recompute x_B = B^-1 (b - N x_N) every this many pivots.
    int refresh_interval = 128;
    // Rebuild the LU factorization after this many update etas; sparse
    // refactorization is cheap and long eta files slow every FTRAN/BTRAN.
    int refactor_interval = 64;
};

// A basis snapshot over the structural + slack columns of a Problem.
// `basic` maps each constraint row to the column basic in it; -1 marks a
// redundant row (e.g. the dependent flow-conservation row of each
// commodity) whose zero-pinned artificial stays basic — the warm-starter
// recreates it. `at_upper[j]` records which bound nonbasic column j sits
// at. The slack layout depends only on the constraint senses, so a
// snapshot stays valid across bound/cost changes to the same problem —
// exactly the branch & bound use case. Problem::slack_column and
// Problem::basis_width expose that layout for callers that build a basis
// by hand (core's shortest-path crash basis).
struct Basis {
    std::vector<int> basic;
    std::vector<std::uint8_t> at_upper;

    [[nodiscard]] bool empty() const { return basic.empty(); }
};

// Work counters for one solve, for benchmarks and regression tests.
struct Stats {
    int iterations = 0;         // pricing rounds across both phases
    int phase1_iterations = 0;  // subset of the above spent in phase 1
    int factorizations = 0;     // sparse LU (re)factorizations
    bool warm_started = false;  // phase 1 skipped via a warm basis
};

struct Solution {
    Status status = Status::iteration_limit;
    double objective = 0;
    std::vector<double> x;  // one value per added variable
    // Final basis, exported on every optimal solve (redundant rows whose
    // artificial stayed basic are marked -1); empty when the solve did not
    // reach optimality or the problem had no constraints. Feed it back to
    // solve() to warm-start a related problem.
    Basis basis;
    // Dual values y = c_B' B^-1, one per constraint row, exported on every
    // optimal solve with constraints (empty otherwise). Minimization
    // convention: the reduced cost of column j is cost(j) - y . column(j);
    // column generation prices candidate columns against this vector.
    std::vector<double> duals;
    Stats stats;

    [[nodiscard]] bool optimal() const { return status == Status::optimal; }
};

class Problem {
public:
    // Adds a variable with bounds [lower, upper] (upper may be kInfinity)
    // and the given objective coefficient; returns its index.
    int add_variable(double cost, double lower, double upper);

    // Adds a linear constraint  sum coeff_i * x_i  <sense>  rhs.
    // Variable indices must exist; duplicate indices are accumulated.
    void add_constraint(Sense sense, double rhs,
                        std::vector<std::pair<int, double>> coefficients);

    void set_cost(int variable, double cost);
    void set_bounds(int variable, double lower, double upper);
    // Overwrites one constraint-matrix entry (inserting it if absent). The
    // incremental provisioning engine patches bandwidth coefficients into an
    // existing encoding instead of rebuilding it; an exported Basis remains a
    // usable warm-start candidate (the warm path refactorizes from current
    // problem data and falls back to a cold start if the basis went stale).
    void set_coefficient(int row, int variable, double coefficient);

    [[nodiscard]] int variable_count() const {
        return static_cast<int>(cost_.size());
    }
    [[nodiscard]] int constraint_count() const {
        return static_cast<int>(rhs_.size());
    }

    // The column of row `row`'s slack in a Basis (-1 for an equality row):
    // slacks follow every structural variable, one per inequality row in
    // row order. With basis_width() this is the whole column layout, so a
    // caller can build a Basis without re-deriving it.
    [[nodiscard]] int slack_column(int row) const {
        const int rank = slack_rank_[static_cast<std::size_t>(row)];
        return rank < 0 ? -1 : variable_count() + rank;
    }
    // Structural plus slack columns: the length of Basis::at_upper.
    [[nodiscard]] int basis_width() const {
        return variable_count() + slack_count_;
    }

    [[nodiscard]] double cost(int variable) const {
        return cost_[static_cast<std::size_t>(variable)];
    }
    [[nodiscard]] double lower(int variable) const {
        return lower_[static_cast<std::size_t>(variable)];
    }
    [[nodiscard]] double upper(int variable) const {
        return upper_[static_cast<std::size_t>(variable)];
    }

    // Evaluates the objective for a full assignment (testing helper).
    [[nodiscard]] double objective_value(const std::vector<double>& x) const;
    // Max constraint/bound violation for an assignment (testing helper).
    [[nodiscard]] double violation(const std::vector<double>& x) const;

    struct RowEntry {
        int row;
        double coef;
    };

    // Read access for the solver.
    [[nodiscard]] const std::vector<double>& rhs() const { return rhs_; }
    [[nodiscard]] Sense sense(int row) const {
        return sense_[static_cast<std::size_t>(row)];
    }
    [[nodiscard]] const std::vector<RowEntry>& column(int variable) const {
        return columns_[static_cast<std::size_t>(variable)];
    }

private:

    std::vector<double> cost_;
    std::vector<double> lower_;
    std::vector<double> upper_;
    std::vector<std::vector<RowEntry>> columns_;  // per variable
    std::vector<Sense> sense_;
    std::vector<int> slack_rank_;  // per row: index among slacks, or -1
    int slack_count_ = 0;
    std::vector<double> rhs_;
    std::vector<std::vector<std::pair<int, double>>> rows_;  // (var, coef)
};

// Solves the problem; `x` in the result has one entry per variable added.
// A non-null `warm` basis is tried first: if it factorizes and is primal
// feasible under the problem's current bounds (after repairing basics
// stranded by tightened bounds), phase 1 is skipped; any failure falls
// back to the ordinary two-phase cold start.
[[nodiscard]] Solution solve(const Problem& problem,
                             const Options& options = {},
                             const Basis* warm = nullptr);

}  // namespace merlin::lp
