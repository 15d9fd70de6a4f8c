#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "util/error.h"

namespace merlin::lp {

int Problem::add_variable(double cost, double lower, double upper) {
    expects(lower <= upper, "variable bounds crossed");
    expects(lower > -kInfinity, "free variables are not supported");
    const int id = static_cast<int>(cost_.size());
    cost_.push_back(cost);
    lower_.push_back(lower);
    upper_.push_back(upper);
    columns_.emplace_back();
    return id;
}

void Problem::add_constraint(Sense sense, double rhs,
                             std::vector<std::pair<int, double>> coefficients) {
    const int row = static_cast<int>(rhs_.size());
    sense_.push_back(sense);
    slack_rank_.push_back(sense == Sense::equal ? -1 : slack_count_++);
    rhs_.push_back(rhs);
    for (const auto& [var, coef] : coefficients) {
        expects(var >= 0 && var < variable_count(),
                "constraint references unknown variable");
        columns_[static_cast<std::size_t>(var)].push_back(RowEntry{row, coef});
    }
    rows_.push_back(std::move(coefficients));
}

void Problem::set_cost(int variable, double cost) {
    cost_[static_cast<std::size_t>(variable)] = cost;
}

void Problem::set_bounds(int variable, double lower, double upper) {
    expects(lower <= upper, "variable bounds crossed");
    lower_[static_cast<std::size_t>(variable)] = lower;
    upper_[static_cast<std::size_t>(variable)] = upper;
}

void Problem::set_coefficient(int row, int variable, double coefficient) {
    expects(row >= 0 && row < constraint_count(), "unknown constraint row");
    expects(variable >= 0 && variable < variable_count(),
            "unknown variable");
    auto& column = columns_[static_cast<std::size_t>(variable)];
    const auto entry =
        std::find_if(column.begin(), column.end(),
                     [row](const RowEntry& e) { return e.row == row; });
    auto& row_list = rows_[static_cast<std::size_t>(row)];
    const auto cell = std::find_if(
        row_list.begin(), row_list.end(),
        [variable](const auto& c) { return c.first == variable; });
    if (entry == column.end()) {
        column.push_back(RowEntry{row, coefficient});
        row_list.emplace_back(variable, coefficient);
        return;
    }
    entry->coef = coefficient;
    expects(cell != row_list.end(), "row/column stores out of sync");
    cell->second = coefficient;
}

double Problem::objective_value(const std::vector<double>& x) const {
    double out = 0;
    for (std::size_t j = 0; j < cost_.size(); ++j) out += cost_[j] * x[j];
    return out;
}

double Problem::violation(const std::vector<double>& x) const {
    double worst = 0;
    for (std::size_t j = 0; j < cost_.size(); ++j) {
        worst = std::max(worst, lower_[j] - x[j]);
        if (upper_[j] < kInfinity) worst = std::max(worst, x[j] - upper_[j]);
    }
    for (std::size_t i = 0; i < rhs_.size(); ++i) {
        double activity = 0;
        for (const auto& [var, coef] : rows_[i])
            activity += coef * x[static_cast<std::size_t>(var)];
        switch (sense_[i]) {
            case Sense::less_equal:
                worst = std::max(worst, activity - rhs_[i]);
                break;
            case Sense::greater_equal:
                worst = std::max(worst, rhs_[i] - activity);
                break;
            case Sense::equal:
                worst = std::max(worst, std::abs(activity - rhs_[i]));
                break;
        }
    }
    return worst;
}

namespace {

constexpr double kPivotTol = 1e-9;
constexpr double kTieTol = 1e-9;
// Entries below this never enter a factor or an eta; they are drift, and
// storing them only bloats the files.
constexpr double kEtaDrop = 1e-13;
constexpr double kSingularTol = 1e-11;

// Internal solver state over the standard-form problem
//   min c'x  s.t.  A x = b,  l <= x <= u
// with columns = structural vars + slacks (+ artificials in a cold start).
//
// The basis inverse is never formed. It is represented as
//   B^-1 = E_k ... E_1 * (U^-1 P L^-1)
// where L^-1 is a file of sparse elimination etas over natural row indices,
// P gathers each pivot row to its elimination position, U is a sparse
// upper-triangular matrix stored by columns over positions, and E_* are the
// product-form update etas appended by pivots since the last refactorize.
class Simplex {
public:
    Simplex(const Problem& p, const Options& opts) : opts_(opts) {
        const int m = p.constraint_count();
        b_ = p.rhs();

        // Structural columns.
        for (int j = 0; j < p.variable_count(); ++j) {
            cost_.push_back(p.cost(j));
            lower_.push_back(p.lower(j));
            upper_.push_back(p.upper(j));
            cols_.push_back({});
            for (const auto& e : p.column(j))
                cols_.back().push_back({e.row, e.coef});
        }
        structural_count_ = p.variable_count();

        // Slack columns turn inequalities into equalities.
        for (int i = 0; i < m; ++i) {
            switch (p.sense(i)) {
                case Sense::less_equal: add_slack(i, 1.0); break;
                case Sense::greater_equal: add_slack(i, -1.0); break;
                case Sense::equal: break;
            }
        }
        phase2_vars_ = static_cast<int>(cols_.size());

        work_.assign(static_cast<std::size_t>(m), 0.0);
        w_.assign(static_cast<std::size_t>(m), 0.0);
        y_.assign(static_cast<std::size_t>(m), 0.0);
        ybuf_.assign(static_cast<std::size_t>(m), 0.0);
    }

    Solution run(const Problem& p, const Basis* warm) {
        Solution out;

        if (warm != nullptr && try_warm(*warm)) {
            stats_.warm_started = true;
            Status status = iterate(/*phase1=*/false);
            if (status == Status::iteration_limit && factorize()) {
                refresh_basics();
                status = iterate(/*phase1=*/false);
            }
            if (status == Status::optimal || status == Status::unbounded) {
                out.status = status;
                if (status == Status::optimal) finalize(p, out);
                out.stats = stats_;
                return out;
            }
            // Numerical dead end: forget the warm basis and start over.
            stats_.warm_started = false;
        }

        cold_start();

        // ---- Phase 1: minimize the sum of artificials. Slightly unequal
        // costs break the heavy dual degeneracy of the all-ones objective.
        std::vector<double> saved_cost = cost_;
        for (std::size_t j = 0; j < cost_.size(); ++j)
            cost_[j] = static_cast<int>(j) >= phase2_vars_
                           ? 1.0 + 1e-6 * static_cast<double>(
                                              j - static_cast<std::size_t>(
                                                      phase2_vars_))
                           : 0.0;
        Status phase1 = iterate(/*phase1=*/true);
        auto infeasibility = [&] {
            double total = 0;
            for (std::size_t j = static_cast<std::size_t>(phase2_vars_);
                 j < x_.size(); ++j)
                total += x_[j];
            return total;
        };
        // Apparent failure may be numerical drift: refactorize the basis
        // exactly and retry before concluding anything.
        for (int retry = 0;
             retry < 2 && (phase1 == Status::iteration_limit ||
                           infeasibility() > opts_.feasibility_tol * 10);
             ++retry) {
            if (!factorize()) break;
            refresh_basics();
            phase1 = iterate(/*phase1=*/true);
        }
        if (phase1 == Status::iteration_limit) {
            out.status = Status::iteration_limit;
            out.stats = stats_;
            return out;
        }
        if (infeasibility() > opts_.feasibility_tol * 10) {
            out.status = Status::infeasible;
            out.stats = stats_;
            return out;
        }
        // Pin artificials at zero so they can never carry value again, then
        // pivot basic-at-zero leftovers out of the basis: a phase-2 ratio
        // test row owned by a stuck artificial can otherwise produce a
        // singular pivot and a spurious iteration_limit.
        for (std::size_t j = static_cast<std::size_t>(phase2_vars_);
             j < cols_.size(); ++j)
            upper_[j] = 0.0;
        drive_out_artificials();

        // ---- Phase 2: original objective.
        cost_ = std::move(saved_cost);
        const Status phase2 = iterate(/*phase1=*/false);
        out.status = phase2;
        out.stats = stats_;
        if (phase2 != Status::optimal) return out;
        finalize(p, out);
        return out;
    }

private:
    enum class State : std::uint8_t { basic, at_lower, at_upper };

    // One elimination step of L^-1: subtract multiplier * v[row] from the
    // listed (natural) rows.
    struct LEta {
        int row;
        std::vector<std::pair<int, double>> off;  // (natural row, multiplier)
    };
    // Column k of U: diagonal plus entries above it, by elimination
    // position.
    struct UCol {
        double diag = 0;
        std::vector<std::pair<int, double>> above;  // (position < k, value)
    };
    // Product-form update eta from a pivot at basis position `pos`.
    struct Eta {
        int pos;
        double pivot;
        std::vector<std::pair<int, double>> off;  // (position, value)
    };

    void add_slack(int row, double coef) {
        cost_.push_back(0.0);
        lower_.push_back(0.0);
        upper_.push_back(kInfinity);
        cols_.push_back({{row, coef}});
    }

    [[nodiscard]] int m() const { return static_cast<int>(b_.size()); }

    // ---- Factorization ----------------------------------------------------

    // Sparse LU of the current basis columns. Columns are eliminated
    // fewest-nonzeros-first with partial pivoting over still-unassigned
    // rows; slack/artificial singletons then cost nothing and the
    // near-triangular flow structure produces almost no fill. The basis
    // array is re-ordered so that basis position == elimination position.
    bool factorize() {
        ++stats_.factorizations;
        const int rows = m();
        letas_.clear();
        etas_.clear();
        ucols_.assign(static_cast<std::size_t>(rows), UCol{});
        pivot_row_.assign(static_cast<std::size_t>(rows), -1);
        row_pos_.assign(static_cast<std::size_t>(rows), -1);

        std::vector<int> order(static_cast<std::size_t>(rows));
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return cols_[static_cast<std::size_t>(
                             basis_[static_cast<std::size_t>(a)])]
                       .size() <
                   cols_[static_cast<std::size_t>(
                             basis_[static_cast<std::size_t>(b)])]
                       .size();
        });

        std::vector<int> new_basis(static_cast<std::size_t>(rows), -1);
        std::fill(work_.begin(), work_.end(), 0.0);
        std::vector<int> touched;
        // Sparse triangular solve bookkeeping: an eta only ever writes rows
        // that are pivoted *after* it, so visiting triggered etas through a
        // min-heap over creation indices applies them in creation order
        // while skipping the majority that do not touch a column. The heap
        // bookkeeping costs more than it saves while the eta file is short,
        // so small files keep the plain in-order scan.
        constexpr std::size_t kLinearEtaScan = 256;
        std::vector<int> leta_of_row(static_cast<std::size_t>(rows), -1);
        std::vector<std::uint8_t> queued;
        std::priority_queue<int, std::vector<int>, std::greater<>> pending;
        std::vector<int> drained;
        const auto trigger = [&](int row) {
            const int e = leta_of_row[static_cast<std::size_t>(row)];
            if (e >= 0 && queued[static_cast<std::size_t>(e)] == 0) {
                queued[static_cast<std::size_t>(e)] = 1;
                pending.push(e);
            }
        };
        for (int k = 0; k < rows; ++k) {
            const int j = basis_[static_cast<std::size_t>(
                order[static_cast<std::size_t>(k)])];
            touched.clear();
            for (const auto& [row, coef] : cols_[static_cast<std::size_t>(j)]) {
                if (work_[static_cast<std::size_t>(row)] == 0.0)
                    touched.push_back(row);
                work_[static_cast<std::size_t>(row)] += coef;
            }
            if (letas_.size() <= kLinearEtaScan) {
                for (const LEta& e : letas_) {
                    const double t = work_[static_cast<std::size_t>(e.row)];
                    if (t == 0.0) continue;
                    for (const auto& [i, mult] : e.off) {
                        if (work_[static_cast<std::size_t>(i)] == 0.0)
                            touched.push_back(i);
                        work_[static_cast<std::size_t>(i)] -= mult * t;
                    }
                }
            } else {
                for (std::size_t t = 0; t < touched.size(); ++t)
                    trigger(touched[t]);
                drained.clear();
                while (!pending.empty()) {
                    const int ei = pending.top();
                    pending.pop();
                    drained.push_back(ei);
                    const LEta& e = letas_[static_cast<std::size_t>(ei)];
                    const double t = work_[static_cast<std::size_t>(e.row)];
                    if (t == 0.0) continue;
                    for (const auto& [i, mult] : e.off) {
                        if (work_[static_cast<std::size_t>(i)] == 0.0)
                            touched.push_back(i);
                        work_[static_cast<std::size_t>(i)] -= mult * t;
                        trigger(i);
                    }
                }
                for (const int ei : drained)
                    queued[static_cast<std::size_t>(ei)] = 0;
            }
            int prow = -1;
            double best = kSingularTol;
            for (const int r : touched) {
                if (row_pos_[static_cast<std::size_t>(r)] >= 0) continue;
                const double v = std::abs(work_[static_cast<std::size_t>(r)]);
                if (v > best) {
                    best = v;
                    prow = r;
                }
            }
            if (prow == -1) {
                for (const int r : touched)
                    work_[static_cast<std::size_t>(r)] = 0.0;
                return false;  // numerically singular
            }
            UCol ucol;
            ucol.diag = work_[static_cast<std::size_t>(prow)];
            LEta leta;
            leta.row = prow;
            for (const int r : touched) {
                const double v = work_[static_cast<std::size_t>(r)];
                work_[static_cast<std::size_t>(r)] = 0.0;
                if (r == prow || std::abs(v) < kEtaDrop) continue;
                if (row_pos_[static_cast<std::size_t>(r)] >= 0)
                    ucol.above.emplace_back(row_pos_[static_cast<std::size_t>(r)],
                                            v);
                else
                    leta.off.emplace_back(r, v / ucol.diag);
            }
            ucols_[static_cast<std::size_t>(k)] = std::move(ucol);
            if (!leta.off.empty()) {
                leta_of_row[static_cast<std::size_t>(prow)] =
                    static_cast<int>(letas_.size());
                letas_.push_back(std::move(leta));
                queued.push_back(0);
            }
            pivot_row_[static_cast<std::size_t>(k)] = prow;
            row_pos_[static_cast<std::size_t>(prow)] = k;
            new_basis[static_cast<std::size_t>(k)] = j;
        }
        basis_ = std::move(new_basis);
        pivots_since_factor_ = 0;
        return true;
    }

    // Applies B^-1 to the natural-row vector in work_ (destroyed); the
    // result, indexed by basis position, lands in w_.
    void solve_with_factors() {
        const int rows = m();
        for (const LEta& e : letas_) {
            const double t = work_[static_cast<std::size_t>(e.row)];
            if (t == 0.0) continue;
            for (const auto& [i, mult] : e.off)
                work_[static_cast<std::size_t>(i)] -= mult * t;
        }
        for (int k = 0; k < rows; ++k)
            w_[static_cast<std::size_t>(k)] =
                work_[static_cast<std::size_t>(
                    pivot_row_[static_cast<std::size_t>(k)])];
        for (int k = rows - 1; k >= 0; --k) {
            double v = w_[static_cast<std::size_t>(k)];
            if (v == 0.0) continue;
            v /= ucols_[static_cast<std::size_t>(k)].diag;
            w_[static_cast<std::size_t>(k)] = v;
            for (const auto& [p, val] : ucols_[static_cast<std::size_t>(k)].above)
                w_[static_cast<std::size_t>(p)] -= val * v;
        }
        for (const Eta& e : etas_) {
            const double t = w_[static_cast<std::size_t>(e.pos)];
            if (t == 0.0) continue;
            const double s = t / e.pivot;
            w_[static_cast<std::size_t>(e.pos)] = s;
            for (const auto& [i, val] : e.off)
                w_[static_cast<std::size_t>(i)] -= val * s;
        }
    }

    // w_ := B^-1 a  for a sparse column a (by natural row).
    void ftran(const std::vector<std::pair<int, double>>& column) {
        std::fill(work_.begin(), work_.end(), 0.0);
        for (const auto& [row, coef] : column)
            work_[static_cast<std::size_t>(row)] += coef;
        solve_with_factors();
    }

    // y_ := (c' B^-1)' for the basis-position vector in ybuf_ (destroyed);
    // y_ is indexed by natural row.
    void btran() {
        const int rows = m();
        for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
            double s = ybuf_[static_cast<std::size_t>(it->pos)];
            for (const auto& [i, val] : it->off)
                s -= ybuf_[static_cast<std::size_t>(i)] * val;
            ybuf_[static_cast<std::size_t>(it->pos)] = s / it->pivot;
        }
        for (int k = 0; k < rows; ++k) {
            double s = ybuf_[static_cast<std::size_t>(k)];
            for (const auto& [p, val] : ucols_[static_cast<std::size_t>(k)].above)
                s -= val * ybuf_[static_cast<std::size_t>(p)];
            ybuf_[static_cast<std::size_t>(k)] =
                s / ucols_[static_cast<std::size_t>(k)].diag;
        }
        for (int k = 0; k < rows; ++k)
            y_[static_cast<std::size_t>(
                pivot_row_[static_cast<std::size_t>(k)])] =
                ybuf_[static_cast<std::size_t>(k)];
        for (auto it = letas_.rbegin(); it != letas_.rend(); ++it) {
            double s = y_[static_cast<std::size_t>(it->row)];
            for (const auto& [i, mult] : it->off)
                s -= y_[static_cast<std::size_t>(i)] * mult;
            y_[static_cast<std::size_t>(it->row)] = s;
        }
    }

    // y_ := duals c_B' B^-1.
    void duals() {
        for (int k = 0; k < m(); ++k)
            ybuf_[static_cast<std::size_t>(k)] =
                cost_[static_cast<std::size_t>(
                    basis_[static_cast<std::size_t>(k)])];
        btran();
    }

    // x_B = B^-1 (b - N x_N), recomputed from scratch.
    void refresh_basics() {
        for (int i = 0; i < m(); ++i)
            work_[static_cast<std::size_t>(i)] = b_[static_cast<std::size_t>(i)];
        for (std::size_t j = 0; j < cols_.size(); ++j) {
            if (state_[j] == State::basic || x_[j] == 0.0) continue;
            for (const auto& [row, coef] : cols_[j])
                work_[static_cast<std::size_t>(row)] -= coef * x_[j];
        }
        solve_with_factors();
        for (int i = 0; i < m(); ++i)
            x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
                w_[static_cast<std::size_t>(i)];
    }

    [[nodiscard]] double reduced_cost(int j) const {
        double d = cost_[static_cast<std::size_t>(j)];
        for (const auto& [row, coef] : cols_[static_cast<std::size_t>(j)])
            d -= y_[static_cast<std::size_t>(row)] * coef;
        return d;
    }

    // ---- Start procedures -------------------------------------------------

    // Installs a warm basis if it factorizes and is primal feasible under
    // the current bounds; phase 1 can then be skipped entirely. Rows the
    // snapshot marks redundant (-1) get a fresh artificial pinned to zero —
    // the feasibility check below verifies the row really is consistent.
    bool try_warm(const Basis& warm) {
        if (static_cast<int>(warm.basic.size()) != m() ||
            static_cast<int>(warm.at_upper.size()) != phase2_vars_)
            return false;
        std::vector<std::uint8_t> in_basis(
            static_cast<std::size_t>(phase2_vars_), 0);
        for (const int v : warm.basic) {
            if (v == -1) continue;
            if (v < 0 || v >= phase2_vars_ ||
                in_basis[static_cast<std::size_t>(v)])
                return false;
            in_basis[static_cast<std::size_t>(v)] = 1;
        }
        basis_ = warm.basic;
        state_.assign(static_cast<std::size_t>(phase2_vars_), State::at_lower);
        x_.assign(static_cast<std::size_t>(phase2_vars_), 0.0);
        for (int j = 0; j < phase2_vars_; ++j) {
            const auto js = static_cast<std::size_t>(j);
            if (in_basis[js]) {
                state_[js] = State::basic;
            } else if (warm.at_upper[js] != 0 && upper_[js] < kInfinity) {
                state_[js] = State::at_upper;
                x_[js] = upper_[js];
            } else {
                x_[js] = lower_[js];
            }
        }
        for (int i = 0; i < m(); ++i) {
            if (basis_[static_cast<std::size_t>(i)] != -1) continue;
            cost_.push_back(0.0);
            lower_.push_back(0.0);
            upper_.push_back(0.0);
            cols_.push_back({{i, 1.0}});
            state_.push_back(State::basic);
            x_.push_back(0.0);
            basis_[static_cast<std::size_t>(i)] =
                static_cast<int>(cols_.size()) - 1;
        }
        if (!factorize()) return false;
        refresh_basics();
        // A bound tightened since the snapshot (the branching variable of a
        // child node) leaves exactly that basic variable outside its new
        // bounds. Repair with dual-simplex-style pivots before giving up.
        const double tol = opts_.feasibility_tol * 10;
        for (int i = 0; i < m(); ++i) {
            const auto bi = static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(i)]);
            if (x_[bi] < lower_[bi] - tol || x_[bi] > upper_[bi] + tol)
                if (!repair_basic(i)) return false;
        }
        for (int i = 0; i < m(); ++i) {
            const auto bi = static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(i)]);
            if (x_[bi] < lower_[bi] - tol || x_[bi] > upper_[bi] + tol)
                return false;
        }
        return true;
    }

    // Dual-simplex-flavoured repair: drive the out-of-bounds basic variable
    // at position `pos` onto its violated bound through a short sequence of
    // bounded pivots. Each round pulls in the nonbasic column with the
    // strongest pivot element in row `pos` and moves as far as the primal
    // ratio test over the *other* basics allows; a blocking basic leaves at
    // its bound (ordinary exchange), an exhausted entering range becomes a
    // bound flip, and the full move retires the violated variable itself.
    // Returns false when the violation cannot be cleared within the pivot
    // budget (the caller then cold-starts).
    bool repair_basic(int pos) {
        const double tol = opts_.feasibility_tol * 10;
        for (int round = 0; round < 16; ++round) {
            const auto vp = static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(pos)]);
            const double beta = x_[vp] < lower_[vp] ? lower_[vp] : upper_[vp];
            const double delta = beta - x_[vp];
            if ((x_[vp] >= lower_[vp] - tol) &&
                (upper_[vp] == kInfinity || x_[vp] <= upper_[vp] + tol))
                return true;  // violation cleared

            // Row `pos` of B^-1 prices every column's pivot element cheaply.
            std::fill(ybuf_.begin(), ybuf_.end(), 0.0);
            ybuf_[static_cast<std::size_t>(pos)] = 1.0;
            btran();
            int entering = -1;
            double best_alpha = 1e-7;
            for (int j = 0; j < phase2_vars_; ++j) {
                const auto js = static_cast<std::size_t>(j);
                if (state_[js] == State::basic) continue;
                if (lower_[js] == upper_[js]) continue;  // fixed
                double alpha = 0;
                for (const auto& [row, coef] : cols_[js])
                    alpha += y_[static_cast<std::size_t>(row)] * coef;
                // Entering from lower may only increase, from upper only
                // decrease: t = -delta / alpha must have the right sign.
                const double t = -delta / alpha;
                if (state_[js] == State::at_lower ? t < 0 : t > 0) continue;
                if (std::abs(alpha) > best_alpha) {
                    best_alpha = std::abs(alpha);
                    entering = j;
                }
            }
            if (entering == -1) return false;

            const auto ej = static_cast<std::size_t>(entering);
            ftran(cols_[ej]);
            const double pivot = w_[static_cast<std::size_t>(pos)];
            if (std::abs(pivot) < kPivotTol) return false;
            const double t_full = -delta / pivot;
            const double sign = t_full >= 0 ? 1.0 : -1.0;

            // Primal ratio test: how far can the entering variable move
            // before another basic (or its own range) blocks?
            double t_limit = std::abs(t_full);
            int blocking = -1;  // position of the blocking basic, if any
            bool blocking_hits_upper = false;
            if (upper_[ej] < kInfinity &&
                upper_[ej] - lower_[ej] < t_limit) {
                t_limit = upper_[ej] - lower_[ej];
                blocking = -2;  // entering bound flip
            }
            for (int i = 0; i < m(); ++i) {
                if (i == pos) continue;
                const double slope =
                    sign * w_[static_cast<std::size_t>(i)];  // d x_i / d |t|
                if (std::abs(slope) < kPivotTol) continue;
                const auto bi = static_cast<std::size_t>(
                    basis_[static_cast<std::size_t>(i)]);
                // A basic that is itself out of bounds must never block (a
                // blocking exchange snaps the leaver onto a bound, which
                // would silently break Ax = b for a variable that is not at
                // that bound). It gets its own repair pass; if this move
                // worsens it, the caller's final feasibility check rejects
                // the warm start.
                if (x_[bi] < lower_[bi] - tol ||
                    (upper_[bi] < kInfinity && x_[bi] > upper_[bi] + tol))
                    continue;
                double allowed;
                bool hits_upper;
                if (slope > 0) {  // basic i decreases toward its lower bound
                    allowed = (x_[bi] - lower_[bi]) / slope;
                    hits_upper = false;
                } else {  // basic i increases toward its upper bound
                    if (upper_[bi] == kInfinity) continue;
                    allowed = (upper_[bi] - x_[bi]) / (-slope);
                    hits_upper = true;
                }
                if (allowed < 0) allowed = 0;
                if (allowed < t_limit) {
                    t_limit = allowed;
                    blocking = i;
                    blocking_hits_upper = hits_upper;
                }
            }

            // Apply the move.
            const double t = sign * t_limit;
            for (int i = 0; i < m(); ++i)
                x_[static_cast<std::size_t>(
                    basis_[static_cast<std::size_t>(i)])] -=
                    t * w_[static_cast<std::size_t>(i)];
            x_[ej] += t;

            if (blocking == -1) {
                // Full move: the violated variable leaves exactly at beta.
                x_[vp] = beta;
                state_[vp] =
                    beta == lower_[vp] ? State::at_lower : State::at_upper;
                state_[ej] = State::basic;
                basis_[static_cast<std::size_t>(pos)] = entering;
                append_eta(pos);
                return true;
            }
            if (blocking == -2) {
                // The entering range ran out first: plain bound flip.
                state_[ej] = state_[ej] == State::at_lower ? State::at_upper
                                                           : State::at_lower;
                x_[ej] = state_[ej] == State::at_upper ? upper_[ej]
                                                       : lower_[ej];
                continue;
            }
            // A different basic blocked: exchange there and keep shrinking
            // the violation from the (still basic) target variable.
            // The ratio test only selects blockers with |w_i| >= kPivotTol,
            // so the exchange pivot element is always usable.
            const auto bj = static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(blocking)]);
            x_[bj] = blocking_hits_upper ? upper_[bj] : lower_[bj];
            state_[bj] =
                blocking_hits_upper ? State::at_upper : State::at_lower;
            state_[ej] = State::basic;
            basis_[static_cast<std::size_t>(blocking)] = entering;
            append_eta(blocking);
        }
        return false;
    }

    // Crash basis for a cold start: rows whose slack can absorb the initial
    // residual use the slack as the basic variable; only the remaining rows
    // get an artificial (signed so the initial basic value is non-negative).
    void cold_start() {
        const int mm = m();
        cols_.resize(static_cast<std::size_t>(phase2_vars_));
        cost_.resize(static_cast<std::size_t>(phase2_vars_));
        lower_.resize(static_cast<std::size_t>(phase2_vars_));
        upper_.resize(static_cast<std::size_t>(phase2_vars_));
        state_.assign(static_cast<std::size_t>(phase2_vars_), State::at_lower);
        x_.assign(static_cast<std::size_t>(phase2_vars_), 0.0);
        for (int j = 0; j < phase2_vars_; ++j)
            x_[static_cast<std::size_t>(j)] = lower_[static_cast<std::size_t>(j)];

        basis_.assign(static_cast<std::size_t>(mm), -1);
        std::vector<double> residual = b_;
        for (std::size_t j = 0; j < cols_.size(); ++j) {
            if (x_[j] == 0.0) continue;
            for (const auto& [row, coef] : cols_[j])
                residual[static_cast<std::size_t>(row)] -= coef * x_[j];
        }
        for (int j = structural_count_; j < phase2_vars_; ++j) {
            // Each slack column has exactly one entry.
            const auto& [row, coef] = cols_[static_cast<std::size_t>(j)][0];
            const double value = residual[static_cast<std::size_t>(row)] / coef;
            if (value >= 0) {
                basis_[static_cast<std::size_t>(row)] = j;
                state_[static_cast<std::size_t>(j)] = State::basic;
                x_[static_cast<std::size_t>(j)] = value;
            }
        }
        for (int i = 0; i < mm; ++i) {
            if (basis_[static_cast<std::size_t>(i)] != -1) continue;
            const double sign =
                residual[static_cast<std::size_t>(i)] >= 0 ? 1.0 : -1.0;
            cost_.push_back(0.0);
            lower_.push_back(0.0);
            upper_.push_back(kInfinity);
            cols_.push_back({{i, sign}});
            state_.push_back(State::basic);
            x_.push_back(sign * residual[static_cast<std::size_t>(i)]);
            basis_[static_cast<std::size_t>(i)] =
                static_cast<int>(cols_.size()) - 1;
        }
        // The crash basis is one slack or artificial per row; its LU is a
        // diagonal, but run it through the common path.
        (void)factorize();
    }

    // After phase 1, any artificial still basic sits at zero in a redundant
    // or degenerate row. Replace each with a nonbasic structural/slack
    // column via a degenerate pivot where one exists; a row where every
    // candidate has a zero coefficient is truly redundant and keeps its
    // (bounds-pinned) artificial harmlessly.
    void drive_out_artificials() {
        for (int i = 0; i < m(); ++i) {
            if (basis_[static_cast<std::size_t>(i)] < phase2_vars_) continue;
            // rho = row i of B^-1, via BTRAN of the i-th position unit.
            std::fill(ybuf_.begin(), ybuf_.end(), 0.0);
            ybuf_[static_cast<std::size_t>(i)] = 1.0;
            btran();
            int entering = -1;
            double best = 1e-7;
            for (int j = 0; j < phase2_vars_; ++j) {
                const auto js = static_cast<std::size_t>(j);
                if (state_[js] == State::basic) continue;
                double alpha = 0;
                for (const auto& [row, coef] : cols_[js])
                    alpha += y_[static_cast<std::size_t>(row)] * coef;
                if (std::abs(alpha) > best) {
                    best = std::abs(alpha);
                    entering = j;
                }
            }
            if (entering == -1) continue;
            ftran(cols_[static_cast<std::size_t>(entering)]);
            if (std::abs(w_[static_cast<std::size_t>(i)]) < kPivotTol) continue;
            const auto art = static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(i)]);
            x_[art] = 0.0;
            state_[art] = State::at_lower;
            state_[static_cast<std::size_t>(entering)] = State::basic;
            basis_[static_cast<std::size_t>(i)] = entering;
            append_eta(i);
        }
    }

    // Records the product-form eta for a pivot at basis position `pos`,
    // from the FTRAN result currently in w_.
    void append_eta(int pos) {
        Eta eta;
        eta.pos = pos;
        eta.pivot = w_[static_cast<std::size_t>(pos)];
        for (int i = 0; i < m(); ++i) {
            if (i == pos) continue;
            const double v = w_[static_cast<std::size_t>(i)];
            if (std::abs(v) >= kEtaDrop) eta.off.emplace_back(i, v);
        }
        etas_.push_back(std::move(eta));
        ++pivots_since_factor_;
    }

    // ---- The simplex loop -------------------------------------------------

    Status iterate(bool phase1) {
        int stall = 0;
        for (int iter = 0; iter < opts_.max_iterations; ++iter) {
            ++stats_.iterations;
            if (phase1) ++stats_.phase1_iterations;
            if (pivots_since_factor_ >= opts_.refactor_interval) {
                if (!factorize()) return Status::iteration_limit;
                refresh_basics();
            }
            if (iter > 0 && iter % opts_.refresh_interval == 0)
                refresh_basics();
            const bool bland = stall > 2 * m() + 200;

            duals();
            // Pricing: pick the entering variable.
            int entering = -1;
            double best = 0;
            int direction = +1;  // +1: increase from lower, -1: decrease
            const int candidates =
                phase1 ? static_cast<int>(cols_.size()) : phase2_vars_;
            for (int j = 0; j < candidates; ++j) {
                const auto js = static_cast<std::size_t>(j);
                if (state_[js] == State::basic) continue;
                if (lower_[js] == upper_[js]) continue;  // fixed
                const double d = reduced_cost(j);
                if (state_[js] == State::at_lower &&
                    d < -opts_.optimality_tol) {
                    if (bland) {
                        entering = j;
                        direction = +1;
                        break;
                    }
                    if (-d > best) {
                        best = -d;
                        entering = j;
                        direction = +1;
                    }
                } else if (state_[js] == State::at_upper &&
                           d > opts_.optimality_tol) {
                    if (bland) {
                        entering = j;
                        direction = -1;
                        break;
                    }
                    if (d > best) {
                        best = d;
                        entering = j;
                        direction = -1;
                    }
                }
            }
            if (entering == -1) return Status::optimal;

            // Ratio test: entering moves by direction * t, basics move by
            // -direction * t * w.
            ftran(cols_[static_cast<std::size_t>(entering)]);
            const auto ej = static_cast<std::size_t>(entering);
            double t_max = upper_[ej] < kInfinity ? upper_[ej] - lower_[ej]
                                                  : kInfinity;
            int leaving_pos = -1;   // index into basis_
            bool leaving_hits_upper = false;
            double leaving_pivot = 0;  // |delta| of the current choice
            for (int i = 0; i < m(); ++i) {
                const double delta =
                    -direction * w_[static_cast<std::size_t>(i)];
                if (std::abs(delta) < kPivotTol) continue;
                const auto bi =
                    static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                double t_i;
                bool hits_upper;
                if (delta < 0) {
                    t_i = (x_[bi] - lower_[bi]) / (-delta);
                    hits_upper = false;
                } else {
                    if (upper_[bi] == kInfinity) continue;
                    t_i = (upper_[bi] - x_[bi]) / delta;
                    hits_upper = true;
                }
                if (t_i < 0) t_i = 0;  // degenerate drift guard
                const bool better = t_i < t_max - kTieTol;
                // Among (near-)ties pick the largest pivot magnitude — the
                // standard anti-stall / stability rule — unless Bland's rule
                // is active, which breaks ties by smallest variable index.
                const bool tie = leaving_pos != -1 && t_i <= t_max + kTieTol;
                const bool tie_wins =
                    tie && (bland ? basis_[static_cast<std::size_t>(i)] <
                                        basis_[static_cast<std::size_t>(
                                            leaving_pos)]
                                  : std::abs(delta) > leaving_pivot);
                const bool entering_bound_tie =
                    leaving_pos == -1 && t_i <= t_max + kTieTol;
                if (better || tie_wins || entering_bound_tie) {
                    t_max = std::min(t_max, t_i);
                    leaving_pos = i;
                    leaving_hits_upper = hits_upper;
                    leaving_pivot = std::abs(delta);
                }
            }

            if (t_max == kInfinity) {
                return phase1 ? Status::infeasible : Status::unbounded;
            }
            // The ratio test skipped every row with |w_i| < kPivotTol, so a
            // selected leaving row always carries a usable pivot element.
            stall = t_max < opts_.feasibility_tol ? stall + 1 : 0;

            // Apply the move to basic values and the entering variable.
            for (int i = 0; i < m(); ++i) {
                const double delta =
                    -direction * w_[static_cast<std::size_t>(i)];
                x_[static_cast<std::size_t>(
                    basis_[static_cast<std::size_t>(i)])] += delta * t_max;
            }
            x_[ej] += direction * t_max;

            if (leaving_pos == -1) {
                // Bound flip: entering traversed its whole range.
                state_[ej] = direction > 0 ? State::at_upper : State::at_lower;
                continue;
            }

            // Pivot: update basis and append the product-form eta.
            const int leaving = basis_[static_cast<std::size_t>(leaving_pos)];
            const auto lj = static_cast<std::size_t>(leaving);
            // Snap the leaving variable exactly onto its bound.
            x_[lj] = leaving_hits_upper ? upper_[lj] : lower_[lj];
            state_[lj] =
                leaving_hits_upper ? State::at_upper : State::at_lower;
            state_[ej] = State::basic;
            basis_[static_cast<std::size_t>(leaving_pos)] = entering;
            append_eta(leaving_pos);
        }
        return Status::iteration_limit;
    }

    void finalize(const Problem& p, Solution& out) {
        out.x.assign(static_cast<std::size_t>(structural_count_), 0.0);
        for (int j = 0; j < structural_count_; ++j)
            out.x[static_cast<std::size_t>(j)] = x_[static_cast<std::size_t>(j)];
        out.objective = p.objective_value(out.x);
        // Snapshot the basis for warm starts, translated from internal
        // elimination positions to natural constraint rows. A still-basic
        // artificial marks a redundant row; it is recorded as -1 and
        // recreated (pinned at zero) by the warm-starter.
        out.basis.basic.assign(static_cast<std::size_t>(m()), -1);
        for (int k = 0; k < m(); ++k) {
            const int v = basis_[static_cast<std::size_t>(k)];
            out.basis.basic[static_cast<std::size_t>(
                pivot_row_[static_cast<std::size_t>(k)])] =
                v >= phase2_vars_ ? -1 : v;
        }
        out.basis.at_upper.assign(static_cast<std::size_t>(phase2_vars_), 0);
        for (int j = 0; j < phase2_vars_; ++j)
            out.basis.at_upper[static_cast<std::size_t>(j)] =
                state_[static_cast<std::size_t>(j)] == State::at_upper ? 1 : 0;
        // Export the duals c_B' B^-1 (phase-2 costs are restored by the
        // time either finalize call site runs); natural-row indexed.
        duals();
        out.duals.assign(y_.begin(), y_.end());
    }

    Options opts_;
    Stats stats_;
    int structural_count_ = 0;
    int phase2_vars_ = 0;  // structural + slack count (artificials after)

    std::vector<double> b_;
    std::vector<double> cost_;
    std::vector<double> lower_;
    std::vector<double> upper_;
    std::vector<std::vector<std::pair<int, double>>> cols_;  // (row, coef)
    std::vector<State> state_;
    std::vector<double> x_;
    std::vector<int> basis_;  // basis position -> variable

    // Factorization (see class comment).
    std::vector<LEta> letas_;
    std::vector<UCol> ucols_;
    std::vector<Eta> etas_;
    std::vector<int> pivot_row_;  // elimination position -> natural row
    std::vector<int> row_pos_;    // natural row -> elimination position
    int pivots_since_factor_ = 0;

    // Dense workspaces (m-sized, reused across iterations).
    std::vector<double> work_;  // natural-row space (FTRAN input)
    std::vector<double> w_;     // basis-position space (FTRAN output)
    std::vector<double> y_;     // natural-row space (BTRAN output)
    std::vector<double> ybuf_;  // basis-position space (BTRAN input)
};

}  // namespace

Solution solve(const Problem& problem, const Options& options,
               const Basis* warm) {
    if (problem.constraint_count() == 0) {
        // Pure bound minimization: every variable sits at the bound its cost
        // prefers.
        Solution out;
        out.status = Status::optimal;
        out.x.resize(static_cast<std::size_t>(problem.variable_count()));
        for (int j = 0; j < problem.variable_count(); ++j) {
            const double c = problem.cost(j);
            if (c >= 0) {
                out.x[static_cast<std::size_t>(j)] = problem.lower(j);
            } else {
                if (problem.upper(j) == kInfinity) {
                    out.status = Status::unbounded;
                    return out;
                }
                out.x[static_cast<std::size_t>(j)] = problem.upper(j);
            }
        }
        out.objective = problem.objective_value(out.x);
        return out;
    }
    Simplex s(problem, options);
    return s.run(problem, warm);
}

}  // namespace merlin::lp
