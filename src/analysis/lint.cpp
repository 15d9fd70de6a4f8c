#include "analysis/lint.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/witness.h"
#include "automata/automata.h"
#include "core/logical.h"
#include "pred/analysis.h"
#include "pred/overlap.h"
#include "presburger/localize.h"
#include "util/error.h"

namespace merlin::analysis {

namespace {

void lint_predicates(const ir::Policy& policy, pred::Analyzer& analyzer,
                     Report& report) {
    const auto& stmts = policy.statements;
    std::vector<ir::PredPtr> preds;
    preds.reserve(stmts.size());
    for (const ir::Statement& s : stmts) preds.push_back(s.predicate);
    for (std::size_t i = 0; i < stmts.size(); ++i) {
        if (analyzer.compile(preds[i]) != bdd::kFalse) continue;
        report.push_back({Severity::warning, "unsat-predicate", stmts[i].id,
                          "predicate matches no packets", ""});
    }
    // The engine's pre-check search: a DAG only over statements that can
    // overlap. Witness/implication BDD work is then spent only on pairs
    // that actually overlap.
    const pred::Overlaps overlaps = pred::overlapping_pairs(analyzer, preds);
    for (const auto& [i, j] : overlaps.pairs) {
        const ir::PredPtr& a = stmts[i].predicate;
        const ir::PredPtr& b = stmts[j].predicate;
        const std::string both = packet_witness(analyzer, ir::pred_and(a, b));
        // Containment means one statement's traffic is entirely claimed
        // by the other — report the contained one as shadowed. A partial
        // overlap violates Section 2.1 disjointness symmetrically.
        if (analyzer.implies(b, a)) {
            report.push_back({Severity::error, "shadowed-predicate",
                              stmts[j].id,
                              "every packet it matches is also matched "
                              "by statement '" +
                                  stmts[i].id + "'",
                              both});
        } else if (analyzer.implies(a, b)) {
            report.push_back({Severity::error, "shadowed-predicate",
                              stmts[i].id,
                              "every packet it matches is also matched "
                              "by statement '" +
                                  stmts[j].id + "'",
                              both});
        } else {
            report.push_back({Severity::error, "overlapping-predicates",
                              stmts[i].id,
                              "overlaps statement '" + stmts[j].id +
                                  "' (predicates must be disjoint)",
                              both});
        }
    }
}

// Emptiness of one path expression over one alphabet: reachability in its
// Thompson NFA, or the Policy_error text thompson() threw for a name the
// alphabet cannot resolve.
struct Path_verdict {
    bool empty = false;
    std::optional<std::string> error;
};

// Path verdicts over one alphabet, memoized per path text: statements that
// share an expression share one Thompson construction.
class Path_checks {
public:
    explicit Path_checks(const automata::Alphabet& alphabet)
        : alphabet_(alphabet) {}

    const Path_verdict& check(const std::string& text,
                              const ir::PathPtr& path) {
        const auto [it, inserted] = memo_.try_emplace(text);
        if (inserted) {
            try {
                it->second.empty =
                    automata::is_empty(automata::thompson(path, alphabet_));
            } catch (const Policy_error& e) {
                it->second.error = e.what();
            }
        }
        return it->second;
    }

private:
    const automata::Alphabet& alphabet_;
    std::unordered_map<std::string, Path_verdict> memo_;
};

void lint_paths(const ir::Policy& policy, const topo::Topology& topo,
                pred::Analyzer& analyzer,
                const std::set<std::string>& guaranteed, Report& report) {
    const automata::Alphabet full = core::make_alphabet(topo);
    const automata::Alphabet switches = core::make_switch_alphabet(topo);
    Path_checks over_full(full);
    Path_checks over_switches(switches);
    for (const ir::Statement& s : policy.statements) {
        const std::string text = ir::to_string(s.path);
        const Path_verdict& any = over_full.check(text, s.path);
        if (any.error) {
            report.push_back(
                {Severity::error, "unknown-location", s.id, *any.error, ""});
            continue;
        }
        if (any.empty) {
            report.push_back({Severity::error, "vacuous-path", s.id,
                              "path expression '" + text +
                                  "' accepts no location word",
                              packet_witness(analyzer, s.predicate)});
            continue;
        }
        if (guaranteed.contains(s.id)) continue;
        // Best-effort statements route over switches and middleboxes only
        // (Section 3.3); an expression whose every word needs a host symbol
        // can never be realized for them.
        const Path_verdict& routed = over_switches.check(text, s.path);
        if (!routed.error && !routed.empty) continue;
        const std::string detail =
            routed.error ? *routed.error : "admits no switch-level word";
        report.push_back({Severity::warning, "dead-best-effort", s.id,
                          "best-effort statement cannot be routed (" +
                              detail + ")",
                          packet_witness(analyzer, s.predicate)});
    }
}

// Returns the ids with a positive guarantee, so the path lint knows which
// statements are best-effort. Formula findings are appended to `report`.
std::set<std::string> lint_formula(const ir::Policy& policy, Report& report) {
    std::set<std::string> guaranteed;
    if (!policy.formula) return guaranteed;

    for (const std::string& id : ir::ids_of(policy.formula))
        if (!ir::find_statement(policy, id))
            report.push_back({Severity::error, "unknown-id", id,
                              "formula references a statement the policy "
                              "does not define",
                              ""});

    std::vector<presburger::Aggregate> aggregates;
    try {
        aggregates = presburger::terms(policy.formula);
    } catch (const Policy_error& e) {
        report.push_back({Severity::warning, "unenforceable-formula", "",
                          std::string(e.what()) +
                              " (only positive conjunctions of max/min can "
                              "be enforced statically)",
                          ""});
        return guaranteed;
    }

    // Tightest single-id bounds, for the min>max check; every guaranteed id
    // (member of any min term) is excluded from the dead-best-effort lint.
    std::map<std::string, Bandwidth> guarantee;
    std::map<std::string, Bandwidth> cap;
    for (const presburger::Aggregate& t : aggregates) {
        if (!t.is_max)
            for (const std::string& id : t.ids) guaranteed.insert(id);
        if (t.ids.size() != 1) continue;
        const std::string& id = t.ids.front();
        if (t.is_max) {
            const auto it = cap.find(id);
            if (it == cap.end() || t.rate < it->second) cap[id] = t.rate;
        } else {
            const auto it = guarantee.find(id);
            if (it == guarantee.end() || t.rate > it->second)
                guarantee[id] = t.rate;
        }
    }
    for (const auto& [id, min_rate] : guarantee) {
        const auto it = cap.find(id);
        if (it != cap.end() && min_rate > it->second)
            report.push_back({Severity::error, "rate-conflict", id,
                              "guarantee " + to_string(min_rate) +
                                  " exceeds cap " + to_string(it->second),
                              ""});
    }
    // Aggregate caps must leave room for the guarantees of their members:
    // max(x + y, R) with min(x, gx) and min(y, gy) needs gx + gy <= R.
    for (const presburger::Aggregate& t : aggregates) {
        if (!t.is_max || t.ids.size() < 2) continue;
        Bandwidth sum;
        for (const std::string& id : t.ids) {
            const auto it = guarantee.find(id);
            if (it != guarantee.end()) sum += it->second;
        }
        if (sum > t.rate) {
            std::string members;
            for (const std::string& id : t.ids)
                members += (members.empty() ? "" : " + ") + id;
            report.push_back({Severity::error, "rate-conflict", members,
                              "summed guarantees " + to_string(sum) +
                                  " exceed the shared cap " +
                                  to_string(t.rate),
                              ""});
        }
    }
    return guaranteed;
}

}  // namespace

Report lint_policy(const ir::Policy& policy, const topo::Topology& topo) {
    Report report;
    pred::Analyzer analyzer;
    lint_predicates(policy, analyzer, report);
    const std::set<std::string> guaranteed = lint_formula(policy, report);
    lint_paths(policy, topo, analyzer, guaranteed, report);
    return report;
}

}  // namespace merlin::analysis
