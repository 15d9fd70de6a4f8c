// Recursive-descent parser for Merlin policies (grammar of Figure 1 plus the
// syntactic sugar of Section 2.1: set literals, cross(), foreach, and `at`
// rate clauses).
//
// Program structure accepted:
//
//   srcs := {00:00:00:00:00:01}                  # set definition
//   dsts := {00:00:00:00:00:02}
//   foreach (s,d) in cross(srcs,dsts):           # iteration sugar
//     tcp.dst = 80 -> (.* nat .* dpi .*) at max(100MB/s)
//   [ x : tcp.dst = 22 -> .* ;                   # core statements
//     y : tcp.dst = 21 -> .* ],
//   max(x + y, 50MB/s) and min(z, 100MB/s)       # Presburger formula
//
// Reserved words: and or true false max min at foreach in cross payload.
// `foreach` expands to one statement per (s,d) pair with s != d; generated
// statements are named g0, g1, ... and their predicates constrain
// eth.src/eth.dst for MAC literals or ip.src/ip.dst for IPv4 literals.
// Multiple bracket groups are concatenated; multiple formulas are conjoined.
// Parenthesized groups and `!` negations nest at most 256 deep in any
// predicate, path or formula; deeper input is refused with a Parse_error
// naming the limit and the position, instead of overflowing the stack.
#pragma once

#include <string>

#include "ir/ast.h"

namespace merlin::parser {

// Parses a complete policy program; throws Parse_error with line/column
// diagnostics on malformed input.
[[nodiscard]] ir::Policy parse_policy(const std::string& source);

// Entry points for fragments (used by tests, negotiators, and tools).
[[nodiscard]] ir::PredPtr parse_predicate(const std::string& source);
[[nodiscard]] ir::PathPtr parse_path(const std::string& source);
[[nodiscard]] ir::FormulaPtr parse_formula(const std::string& source);

}  // namespace merlin::parser
