#include "mip/mip.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

namespace merlin::mip {

int Problem::add_binary(double cost) {
    const int id = lp_.add_variable(cost, 0.0, 1.0);
    binaries_.push_back(id);
    return id;
}

int Problem::add_continuous(double cost, double lower, double upper) {
    return lp_.add_variable(cost, lower, upper);
}

void Problem::add_constraint(lp::Sense sense, double rhs,
                             std::vector<std::pair<int, double>> coefficients) {
    lp_.add_constraint(sense, rhs, std::move(coefficients));
}

void Problem::set_cost(int variable, double cost) {
    lp_.set_cost(variable, cost);
}

void Problem::set_bounds(int variable, double lower, double upper) {
    lp_.set_bounds(variable, lower, upper);
}

void Problem::set_coefficient(int row, int variable, double coefficient) {
    lp_.set_coefficient(row, variable, coefficient);
}

namespace {

struct Node {
    // Branching decisions: variable -> fixed value (0 or 1).
    std::vector<std::pair<int, double>> fixes;
    double bound;  // parent LP objective (lower bound for minimization)
    // The parent's optimal basis; warm-starts this node's LP re-solve.
    std::shared_ptr<const lp::Basis> warm;
};

struct NodeOrder {
    bool operator()(const std::shared_ptr<Node>& a,
                    const std::shared_ptr<Node>& b) const {
        return a->bound > b->bound;  // best-first: smallest bound on top
    }
};

}  // namespace

Solution solve(const Problem& problem, const Options& options,
               const lp::Basis* root_warm) {
    Solution incumbent;
    incumbent.status = Status::infeasible;
    double incumbent_obj = lp::kInfinity;

    std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                        NodeOrder>
        open;
    // A caller-provided basis seeds the root exactly like a parent basis
    // seeds a child node; the LP layer falls back to a cold start if it is
    // singular or cannot be repaired.
    std::shared_ptr<const lp::Basis> root_basis;
    if (options.warm_start && root_warm != nullptr && !root_warm->empty())
        root_basis = std::make_shared<const lp::Basis>(*root_warm);
    open.push(std::make_shared<Node>(Node{{}, -lp::kInfinity, root_basis}));

    // One shared relaxation for the whole tree: each node patches the
    // bounds of its fixed binaries in, solves (warm-started from the
    // parent's basis), and restores the {0,1} bounds afterwards — no
    // per-node copy of the problem.
    lp::Problem relaxed = problem.lp_;
    int nodes = 0;
    bool undecided = false;
    while (!open.empty()) {
        if (nodes >= options.max_nodes) {
            incumbent.status = incumbent.status == Status::optimal
                                   ? Status::feasible
                                   : Status::node_limit;
            incumbent.nodes_explored = nodes;
            return incumbent;
        }
        const std::shared_ptr<Node> node = open.top();
        open.pop();
        // Prune against the incumbent.
        if (node->bound >=
            incumbent_obj - options.gap_tol * (1 + std::abs(incumbent_obj)))
            continue;
        ++nodes;

        for (const auto& [var, value] : node->fixes)
            relaxed.set_bounds(var, value, value);
        const lp::Basis* warm =
            options.warm_start && node->warm ? node->warm.get() : nullptr;
        lp::Solution lp_solution = lp::solve(relaxed, options.lp, warm);
        for (const auto& [var, value] : node->fixes)
            relaxed.set_bounds(var, 0.0, 1.0);  // binaries are always {0,1}
        incumbent.simplex_iterations += lp_solution.stats.iterations;
        incumbent.lp_factorizations += lp_solution.stats.factorizations;
        if (lp_solution.stats.warm_started) ++incumbent.warm_started_nodes;
        if (nodes == 1)
            incumbent.root_warm_started = lp_solution.stats.warm_started;
        if (lp_solution.status == lp::Status::infeasible) continue;
        if (lp_solution.status != lp::Status::optimal) {
            // The relaxation was not decided (iteration limit): this node's
            // subtree is unknown, so an empty tree no longer proves
            // infeasibility.
            undecided = true;
            continue;
        }
        if (lp_solution.objective >=
            incumbent_obj - options.gap_tol * (1 + std::abs(incumbent_obj)))
            continue;

        // Find the most fractional binary.
        int branch_var = -1;
        double worst_frac = options.integrality_tol;
        for (int var : problem.binaries_) {
            const double v = lp_solution.x[static_cast<std::size_t>(var)];
            const double frac = std::abs(v - std::round(v));
            if (frac > worst_frac) {
                worst_frac = frac;
                branch_var = var;
            }
        }

        if (branch_var == -1) {
            // Integral: new incumbent.
            incumbent.status = Status::optimal;
            incumbent.objective = lp_solution.objective;
            incumbent.x = lp_solution.x;
            // Snap binaries exactly.
            for (int var : problem.binaries_) {
                auto& v = incumbent.x[static_cast<std::size_t>(var)];
                v = std::round(v);
            }
            incumbent_obj = lp_solution.objective;
            continue;
        }

        const double frac_value =
            lp_solution.x[static_cast<std::size_t>(branch_var)];
        // Children warm-start from this node's basis (fall back to the
        // grandparent's if the solve could not export one).
        std::shared_ptr<const lp::Basis> basis =
            lp_solution.basis.empty()
                ? node->warm
                : std::make_shared<const lp::Basis>(
                      std::move(lp_solution.basis));
        // Explore the side the relaxation leans toward first (priority queue
        // breaks ties by bound anyway).
        const double preferred = frac_value >= 0.5 ? 1.0 : 0.0;
        for (const double value : {preferred, 1.0 - preferred}) {
            auto child = std::make_shared<Node>();
            child->fixes = node->fixes;
            child->fixes.emplace_back(branch_var, value);
            child->bound = lp_solution.objective;
            child->warm = basis;
            open.push(std::move(child));
        }
    }

    incumbent.nodes_explored = nodes;
    if (incumbent.status == Status::infeasible && undecided)
        incumbent.status = Status::node_limit;  // unknown, not proven
    return incumbent;
}

}  // namespace merlin::mip
