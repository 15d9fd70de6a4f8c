// The overlap search behind Section 2.1's "statements have disjoint
// predicates": one search, shared by the engine's pre-check and the linter,
// that builds a predicate DAG only over statements that can overlap.
//
// A statement's *key* is the pair of values its top-level conjunction tests
// on the two pivot fields, (eth.src, eth.dst) — or (ip.src, ip.dst) in a
// policy where more statements test both IP fields than both MAC fields,
// so a `foreach` over IPs stays bucketed. Values are masked to the field
// width, as the BDD compile masks them. A statement testing both pivot
// fields is *keyed*; every other statement is a *wildcard*.
//
// The one pair the search skips is two keyed statements with different
// keys: they disagree on a field both test, so no packet matches both.
// Every other pair is decided exactly:
//   * one Classifier per bucket of two or more keyed statements sharing a
//     key, and one over the wildcards; a reachable terminal set with two
//     members proves an overlap;
//   * each keyed statement is tested against the OR of the wildcard roots,
//     and only one that meets it against each wildcard in turn.
// A policy of distinct keys (the all-pairs and foreach shapes) compiles no
// predicate at all.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ir/ast.h"
#include "pred/analysis.h"

namespace merlin::pred {

struct Overlaps {
    // Every pair (i, j), i < j, of predicates some packet matches both,
    // ascending.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    // Predicates classified through a DAG: members of a key bucket of two
    // or more, and the wildcards when there are two or more.
    std::size_t dag_predicates = 0;
    // Keyed predicates tested against the wildcards.
    std::size_t wildcard_tests = 0;
};

// The overlapping pairs of `preds`, compiling through `analyzer`.
[[nodiscard]] Overlaps overlapping_pairs(Analyzer& analyzer,
                                         const std::vector<ir::PredPtr>& preds);

// The same search for one statement: the overlapping pairs that include
// preds[fresh], each tested directly (no DAG). A keyed `fresh` is tested
// against the statements sharing its key and the wildcards (one wildcard
// test); a wildcard against every other statement.
[[nodiscard]] Overlaps overlapping_pairs_with(
    Analyzer& analyzer, const std::vector<ir::PredPtr>& preds,
    std::size_t fresh);

}  // namespace merlin::pred
