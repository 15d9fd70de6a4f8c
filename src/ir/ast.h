// Abstract syntax of the Merlin policy language (Figure 1 of the paper).
//
//   pol ::= [s1; ...; sn], phi
//   s   ::= id : p -> a
//   phi ::= max(e, n) | min(e, n) | phi and phi | phi or phi | !phi
//   e   ::= n | id | e + e
//   a   ::= . | c | a a | a|a | a* | !a          (c ::= loc | transformation)
//   p   ::= h.f = n | true | false | p and p | p or p | !p
//
// Nodes are immutable and shared (`std::shared_ptr<const T>`), so policies
// can be transformed (localization, delegation, refinement) without copying
// whole trees.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/units.h"

namespace merlin::ir {

// ---------------------------------------------------------------- predicates

struct Pred;
using PredPtr = std::shared_ptr<const Pred>;

enum class Pred_kind : std::uint8_t {
    true_,
    false_,
    test,     // h.f = n
    payload,  // payload contains <string>  (uninterpreted atom)
    and_,
    or_,
    not_,
};

struct Pred {
    Pred_kind kind;
    // test
    std::string field;
    std::uint64_t value = 0;
    // payload
    std::string needle;
    // and_/or_: both; not_: only lhs
    PredPtr lhs;
    PredPtr rhs;
};

[[nodiscard]] PredPtr pred_true();
[[nodiscard]] PredPtr pred_false();
[[nodiscard]] PredPtr pred_test(const std::string& field, std::uint64_t value);
// Throws Policy_error for a needle containing '"' or a newline, which the
// concrete syntax cannot express: predicate text must stay injective.
[[nodiscard]] PredPtr pred_payload(const std::string& needle);
[[nodiscard]] PredPtr pred_and(PredPtr a, PredPtr b);
[[nodiscard]] PredPtr pred_or(PredPtr a, PredPtr b);
[[nodiscard]] PredPtr pred_not(PredPtr a);

// The operands of p's top-level `and` tree, left to right (just &p when p
// is no conjunction). Iterative, so a long flat chain does not recurse.
[[nodiscard]] std::vector<const Pred*> conjuncts(const Pred& p);

// Structural equality (no normalization).
[[nodiscard]] bool equal(const PredPtr& a, const PredPtr& b);
[[nodiscard]] std::string to_string(const PredPtr& p);

// ------------------------------------------------------------------- paths

struct Path;
using PathPtr = std::shared_ptr<const Path>;

enum class Path_kind : std::uint8_t {
    any,     // .
    symbol,  // a location or packet-processing function name
    seq,     // a1 a2
    alt,     // a1 | a2
    star,    // a*
    not_,    // !a   (complement)
};

struct Path {
    Path_kind kind;
    std::string symbol;
    PathPtr lhs;
    PathPtr rhs;
};

[[nodiscard]] PathPtr path_any();
[[nodiscard]] PathPtr path_symbol(const std::string& name);
[[nodiscard]] PathPtr path_seq(PathPtr a, PathPtr b);
[[nodiscard]] PathPtr path_alt(PathPtr a, PathPtr b);
[[nodiscard]] PathPtr path_star(PathPtr a);
[[nodiscard]] PathPtr path_not(PathPtr a);
// Convenience: `.*`
[[nodiscard]] PathPtr path_any_star();

[[nodiscard]] bool equal(const PathPtr& a, const PathPtr& b);
[[nodiscard]] std::string to_string(const PathPtr& p);
// All symbols (locations and function names) mentioned in the expression.
[[nodiscard]] std::set<std::string> symbols_of(const PathPtr& p);
// Number of AST nodes (the regex-complexity measure of Figure 9).
[[nodiscard]] int node_count(const PathPtr& p);

// -------------------------------------------------- bandwidth terms/formulas

// e ::= n | id | e + e, flattened into a constant plus identifier list.
struct Term {
    std::uint64_t constant = 0;  // bits per second contributed by literals
    std::vector<std::string> ids;
};

[[nodiscard]] bool equal(const Term& a, const Term& b);
[[nodiscard]] std::string to_string(const Term& t);

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

enum class Formula_kind : std::uint8_t { max, min, and_, or_, not_ };

struct Formula {
    Formula_kind kind;
    // max/min
    Term term;
    Bandwidth rate;
    // and_/or_: both; not_: only lhs
    FormulaPtr lhs;
    FormulaPtr rhs;
};

[[nodiscard]] FormulaPtr formula_max(Term term, Bandwidth rate);
[[nodiscard]] FormulaPtr formula_min(Term term, Bandwidth rate);
[[nodiscard]] FormulaPtr formula_and(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr formula_or(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr formula_not(FormulaPtr a);

[[nodiscard]] bool equal(const FormulaPtr& a, const FormulaPtr& b);
[[nodiscard]] std::string to_string(const FormulaPtr& f);
// Identifiers referenced anywhere in the formula.
[[nodiscard]] std::set<std::string> ids_of(const FormulaPtr& f);

// ------------------------------------------------------------------- policy

struct Statement {
    std::string id;
    PredPtr predicate;
    PathPtr path;
};

struct Policy {
    std::vector<Statement> statements;
    FormulaPtr formula;  // null when the policy has no bandwidth clause
};

[[nodiscard]] bool equal(const Statement& a, const Statement& b);
[[nodiscard]] bool equal(const Policy& a, const Policy& b);
// Concrete syntax; parses back to an equal policy.
[[nodiscard]] std::string to_string(const Policy& p);

// Looks up a statement by identifier; nullptr when absent.
[[nodiscard]] const Statement* find_statement(const Policy& p,
                                              const std::string& id);

}  // namespace merlin::ir
