#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace merlin::lp {
namespace {

TEST(Lp, TwoVariableTextbook) {
    // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
    // Optimum at (2, 6) with objective -36 (the classic Dantzig example).
    Problem p;
    const int x = p.add_variable(-3, 0, kInfinity);
    const int y = p.add_variable(-5, 0, kInfinity);
    p.add_constraint(Sense::less_equal, 4, {{x, 1}});
    p.add_constraint(Sense::less_equal, 12, {{y, 2}});
    p.add_constraint(Sense::less_equal, 18, {{x, 3}, {y, 2}});

    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -36, 1e-6);
    EXPECT_NEAR(s.x[0], 2, 1e-6);
    EXPECT_NEAR(s.x[1], 6, 1e-6);
    EXPECT_LE(p.violation(s.x), 1e-6);
}

TEST(Lp, SlackColumnMatchesTheSolversBasisLayout) {
    // Rows of all three senses, and a variable added after constraints:
    // slacks sit after every structural, in row order, none for `=`.
    // min x + y + z  s.t.  x + y <= 10, x - y = 2, y >= 1, x + z <= 20
    // => x = 3, y = 1, z = 0; rows 0 and 3 are slack.
    Problem p;
    const int x = p.add_variable(1, 0, kInfinity);
    const int y = p.add_variable(1, 0, kInfinity);
    p.add_constraint(Sense::less_equal, 10, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::equal, 2, {{x, 1}, {y, -1}});
    p.add_constraint(Sense::greater_equal, 1, {{y, 1}});
    const int z = p.add_variable(1, 0, kInfinity);
    p.add_constraint(Sense::less_equal, 20, {{x, 1}, {z, 1}});
    EXPECT_EQ(p.slack_column(0), 3);
    EXPECT_EQ(p.slack_column(1), -1);
    EXPECT_EQ(p.slack_column(2), 4);
    EXPECT_EQ(p.slack_column(3), 5);
    EXPECT_EQ(p.basis_width(), 6);

    // The exported basis uses the same columns: the two loose rows keep
    // their own slacks basic.
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 4, 1e-9);
    ASSERT_EQ(static_cast<int>(s.basis.at_upper.size()), p.basis_width());
    EXPECT_EQ(s.basis.basic[0], p.slack_column(0));
    EXPECT_EQ(s.basis.basic[3], p.slack_column(3));

    // And a basis built by hand from the accessor warm-starts the solver
    // straight into phase 2.
    Basis hand;
    hand.basic = {p.slack_column(0), x, y, p.slack_column(3)};
    hand.at_upper.assign(static_cast<std::size_t>(p.basis_width()), 0);
    const Solution warm = solve(p, {}, &hand);
    ASSERT_TRUE(warm.optimal());
    EXPECT_TRUE(warm.stats.warm_started);
    EXPECT_EQ(warm.stats.phase1_iterations, 0);
    EXPECT_NEAR(warm.objective, 4, 1e-9);
}

TEST(Lp, EqualityConstraints) {
    // min x + 2y  s.t.  x + y = 10, x - y = 2  =>  x=6, y=4, obj=14.
    Problem p;
    const int x = p.add_variable(1, 0, kInfinity);
    const int y = p.add_variable(2, 0, kInfinity);
    p.add_constraint(Sense::equal, 10, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::equal, 2, {{x, 1}, {y, -1}});

    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.x[0], 6, 1e-6);
    EXPECT_NEAR(s.x[1], 4, 1e-6);
    EXPECT_NEAR(s.objective, 14, 1e-6);
}

TEST(Lp, GreaterEqualAndPhase1) {
    // min 2x + 3y  s.t.  x + y >= 4, x >= 1  =>  (4,0)? cost 8; (1,3): 11.
    // Optimum: x=4,y=0 -> 8.
    Problem p;
    const int x = p.add_variable(2, 0, kInfinity);
    const int y = p.add_variable(3, 0, kInfinity);
    p.add_constraint(Sense::greater_equal, 4, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::greater_equal, 1, {{x, 1}});

    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 8, 1e-6);
    EXPECT_NEAR(s.x[0], 4, 1e-6);
}

TEST(Lp, VariableUpperBoundsBind) {
    // min -x - y with x <= 1.5, y <= 2.5 and x + y <= 3 => obj -3 on the
    // constraint; the bound flip path (x to upper) must work.
    Problem p;
    const int x = p.add_variable(-1, 0, 1.5);
    const int y = p.add_variable(-1, 0, 2.5);
    p.add_constraint(Sense::less_equal, 3, {{x, 1}, {y, 1}});
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -3, 1e-6);
    EXPECT_LE(p.violation(s.x), 1e-6);
}

TEST(Lp, NonzeroLowerBounds) {
    // min x + y with x >= 2, y >= 3, x + y >= 6  =>  obj 6.
    Problem p;
    const int x = p.add_variable(1, 2, kInfinity);
    const int y = p.add_variable(1, 3, kInfinity);
    p.add_constraint(Sense::greater_equal, 6, {{x, 1}, {y, 1}});
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 6, 1e-6);
    EXPECT_GE(s.x[0], 2 - 1e-9);
    EXPECT_GE(s.x[1], 3 - 1e-9);
}

TEST(Lp, DetectsInfeasible) {
    Problem p;
    const int x = p.add_variable(1, 0, 1);
    p.add_constraint(Sense::greater_equal, 2, {{x, 1}});
    EXPECT_EQ(solve(p).status, Status::infeasible);

    Problem q;
    const int a = q.add_variable(0, 0, kInfinity);
    const int b = q.add_variable(0, 0, kInfinity);
    q.add_constraint(Sense::equal, 1, {{a, 1}, {b, 1}});
    q.add_constraint(Sense::equal, 3, {{a, 1}, {b, 1}});
    EXPECT_EQ(solve(q).status, Status::infeasible);
}

TEST(Lp, DetectsUnbounded) {
    Problem p;
    const int x = p.add_variable(-1, 0, kInfinity);
    const int y = p.add_variable(0, 0, kInfinity);
    p.add_constraint(Sense::greater_equal, 1, {{x, 1}, {y, 1}});
    EXPECT_EQ(solve(p).status, Status::unbounded);
}

TEST(Lp, EmptyProblemAndPureBounds) {
    Problem p;
    const int x = p.add_variable(5, 1, 2);
    const int y = p.add_variable(-5, 1, 2);
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_EQ(s.x[static_cast<std::size_t>(x)], 1);
    EXPECT_EQ(s.x[static_cast<std::size_t>(y)], 2);

    Problem unbounded;
    (void)unbounded.add_variable(-1, 0, kInfinity);
    EXPECT_EQ(solve(unbounded).status, Status::unbounded);
}

TEST(Lp, ShortestPathAsFlow) {
    // Min-cost unit flow from s(0) to t(3) in a diamond:
    // 0->1 (cost 1), 0->2 (cost 2), 1->3 (cost 3), 2->3 (cost 1), 1->2 (1).
    // Best: 0->1->2->3 with cost 3.
    Problem p;
    struct Arc {
        int from, to;
        double cost;
    };
    const std::vector<Arc> arcs{{0, 1, 1}, {0, 2, 2}, {1, 3, 3},
                                {2, 3, 1}, {1, 2, 1}};
    std::vector<int> vars;
    vars.reserve(arcs.size());
    for (const Arc& a : arcs) vars.push_back(p.add_variable(a.cost, 0, 1));
    for (int v = 0; v < 4; ++v) {
        std::vector<std::pair<int, double>> coeffs;
        for (std::size_t e = 0; e < arcs.size(); ++e) {
            if (arcs[e].from == v) coeffs.emplace_back(vars[e], 1.0);
            if (arcs[e].to == v) coeffs.emplace_back(vars[e], -1.0);
        }
        const double rhs = v == 0 ? 1.0 : (v == 3 ? -1.0 : 0.0);
        p.add_constraint(Sense::equal, rhs, std::move(coeffs));
    }
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 3, 1e-6);
    // Network LPs have integral vertices; simplex lands on one.
    for (double v : s.x)
        EXPECT_TRUE(std::abs(v) < 1e-6 || std::abs(v - 1) < 1e-6);
}

TEST(Lp, DegenerateRatioTests) {
    // Multiple constraints tight at the optimum; exercise degenerate pivots.
    Problem p;
    const int x = p.add_variable(-1, 0, kInfinity);
    const int y = p.add_variable(-1, 0, kInfinity);
    p.add_constraint(Sense::less_equal, 2, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::less_equal, 2, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::less_equal, 1, {{x, 1}});
    p.add_constraint(Sense::less_equal, 1, {{y, 1}});
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, -2, 1e-6);
}

TEST(Lp, RedundantEqualityRowsSolveCleanly) {
    // The duplicated equality gets its own artificial; phase 1 can finish
    // with that artificial basic at zero in the redundant row. It must be
    // pivoted out (or pinned harmlessly) rather than poisoning a phase-2
    // ratio test into a singular pivot / spurious iteration_limit.
    Problem p;
    const int x = p.add_variable(-1, 0, 8);
    const int y = p.add_variable(-1, 0, 8);
    p.add_constraint(Sense::equal, 10, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::equal, 10, {{x, 1}, {y, 1}});
    p.add_constraint(Sense::equal, 2, {{x, 1}, {y, -1}});
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.x[0], 6, 1e-6);
    EXPECT_NEAR(s.x[1], 4, 1e-6);
    EXPECT_NEAR(s.objective, -10, 1e-6);
}

// Regression sweep for the stuck-artificial bug: random LPs built around a
// known feasible point, with every equality row duplicated. The duplicated
// problem must reach the same optimum as the base problem.
class LpRedundantRows : public ::testing::TestWithParam<int> {};

TEST_P(LpRedundantRows, DuplicatedEqualitiesMatchBaseProblem) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 90821u);
    for (int round = 0; round < 10; ++round) {
        constexpr int kVars = 4;
        constexpr double kHi = 4.0;
        double x0[kVars];
        for (double& v : x0) v = std::round(rng.real(0, kHi));

        Problem base;
        Problem redundant;
        for (int j = 0; j < kVars; ++j) {
            const double c = std::round(rng.real(-3, 3));
            (void)base.add_variable(c, 0, kHi);
            (void)redundant.add_variable(c, 0, kHi);
        }
        const int rows = static_cast<int>(rng.uniform(1, 3));
        for (int r = 0; r < rows; ++r) {
            std::vector<std::pair<int, double>> coeffs;
            double rhs = 0;
            for (int j = 0; j < kVars; ++j) {
                const double a = std::round(rng.real(-2, 2));
                if (a == 0) continue;
                coeffs.emplace_back(j, a);
                rhs += a * x0[j];
            }
            if (coeffs.empty()) {
                --r;
                continue;
            }
            // Equalities through x0 stay feasible; duplicate each one.
            base.add_constraint(Sense::equal, rhs, coeffs);
            redundant.add_constraint(Sense::equal, rhs, coeffs);
            redundant.add_constraint(Sense::equal, rhs, coeffs);
        }
        const Solution sb = solve(base);
        const Solution sr = solve(redundant);
        ASSERT_TRUE(sb.optimal()) << "round " << round;
        ASSERT_TRUE(sr.optimal()) << "round " << round;
        EXPECT_NEAR(sb.objective, sr.objective, 1e-6) << "round " << round;
        EXPECT_LE(redundant.violation(sr.x), 1e-6) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRedundantRows,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Lp, LargeChainBasisExercisesSparseFactorization) {
    // A 400-row bidiagonal chain (x_i + x_{i+1} = 1) whose optimal basis is
    // ~400 two-nonzero structural columns: factorizing it builds an L-eta
    // file far past the linear-scan threshold, covering the indexed
    // (min-heap) sparse elimination path that small instances never reach.
    // Closed form: x_even = a, x_odd = 1 - a, objective 200 + a => 200.
    constexpr int kRows = 400;
    Problem p;
    for (int j = 0; j <= kRows; ++j) (void)p.add_variable(1, 0, 2);
    for (int i = 0; i < kRows; ++i)
        p.add_constraint(Sense::equal, 1, {{i, 1}, {i + 1, 1}});
    const Solution s = solve(p);
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, 200, 1e-5);
    EXPECT_LE(p.violation(s.x), 1e-6);
    // The solve must have refactorized repeatedly (every refactor_interval
    // pivots) on the way to a ~400-column basis.
    EXPECT_GE(s.stats.factorizations, 4);
}

// Property sweep: random boxed LPs, checked for feasibility of the answer
// and near-optimality against a dense grid search oracle.
class LpGridProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpGridProperty, FeasibleAndGridOptimal) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
    for (int round = 0; round < 10; ++round) {
        Problem p;
        constexpr int kVars = 3;
        constexpr double kHi = 2.0;
        for (int j = 0; j < kVars; ++j)
            (void)p.add_variable(rng.real(-2, 2), 0, kHi);
        const int rows = static_cast<int>(rng.uniform(1, 3));
        struct Row {
            Sense sense;
            double rhs;
            double a[kVars];
        };
        std::vector<Row> rows_data;
        for (int i = 0; i < rows; ++i) {
            Row r;
            // Keep RHS attainable-ish: coefficients in [0,2], rhs in [1,5].
            for (double& c : r.a) c = rng.real(0, 2);
            r.rhs = rng.real(1, 5);
            r.sense = rng.chance(0.5) ? Sense::less_equal
                                      : Sense::greater_equal;
            std::vector<std::pair<int, double>> coeffs;
            for (int j = 0; j < kVars; ++j) coeffs.emplace_back(j, r.a[j]);
            p.add_constraint(r.sense, r.rhs, std::move(coeffs));
            rows_data.push_back(r);
        }

        const Solution s = solve(p);
        if (s.status == Status::infeasible) {
            // Oracle must agree that no grid point is feasible "strictly";
            // only check coarse agreement: no feasible grid point at all.
            // (Borderline instances may disagree within the grid step; skip.)
            continue;
        }
        ASSERT_TRUE(s.optimal());
        EXPECT_LE(p.violation(s.x), 1e-6);

        // Grid oracle.
        constexpr int kSteps = 20;  // step 0.1
        double best = kInfinity;
        for (int i0 = 0; i0 <= kSteps; ++i0)
            for (int i1 = 0; i1 <= kSteps; ++i1)
                for (int i2 = 0; i2 <= kSteps; ++i2) {
                    const double x[kVars] = {kHi * i0 / kSteps,
                                             kHi * i1 / kSteps,
                                             kHi * i2 / kSteps};
                    bool ok = true;
                    for (const Row& r : rows_data) {
                        double act = 0;
                        for (int j = 0; j < kVars; ++j) act += r.a[j] * x[j];
                        if (r.sense == Sense::less_equal ? act > r.rhs
                                                         : act < r.rhs) {
                            ok = false;
                            break;
                        }
                    }
                    if (!ok) continue;
                    double obj = 0;
                    for (int j = 0; j < kVars; ++j) obj += p.cost(j) * x[j];
                    best = std::min(best, obj);
                }
        if (best < kInfinity) {
            // The simplex optimum must not be worse than any grid point.
            EXPECT_LE(s.objective, best + 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpGridProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace merlin::lp
