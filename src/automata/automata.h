// Finite automata over the location alphabet.
//
// Merlin path expressions are regular expressions whose letters are network
// locations (Section 2.1). The compiler turns each statement's expression
// into an NFA M_i (Section 3.2, Lemma 1), and the negotiator's verifier
// decides language inclusion between a delegated policy's expressions and the
// original's (Section 4.2). The original system used the Dprle library; this
// module provides the standard textbook constructions (Hopcroft & Ullman,
// which the paper cites): Thompson construction, epsilon elimination, subset
// construction, completion, complement, product, Hopcroft minimization,
// emptiness and inclusion.
//
// Symbols are dense integers [0, alphabet_size). The translation from named
// locations/functions to symbols is the caller's job (see Alphabet).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/ast.h"

namespace merlin::automata {

// ------------------------------------------------------------------ alphabet

// Maps names to symbol ids. A name may resolve to several symbols: the paper
// substitutes a packet-processing function by "the union of all locations
// associated with that function" when forming the location regex a-bar.
class Alphabet {
public:
    // Registers a location; returns its symbol id. Idempotent per name.
    int add_location(const std::string& name);
    // Registers a function name resolving to the given location names
    // (which must already be registered).
    void add_function(const std::string& name,
                      const std::vector<std::string>& locations);

    [[nodiscard]] int size() const { return static_cast<int>(names_.size()); }
    [[nodiscard]] const std::string& name(int symbol) const {
        return names_[static_cast<std::size_t>(symbol)];
    }
    [[nodiscard]] std::optional<int> location(const std::string& name) const;
    // Resolves a regex symbol: a location name gives one symbol; a function
    // name gives all its placement symbols. Empty when unknown.
    [[nodiscard]] std::vector<int> resolve(const std::string& name) const;

private:
    std::vector<std::string> names_;
    std::map<std::string, int> locations_;
    std::map<std::string, std::vector<int>> functions_;
};

// ----------------------------------------------------------------------- NFA

inline constexpr int kEpsilon = -1;
inline constexpr int kNoLabel = -1;

struct Nfa_edge {
    int symbol;  // kEpsilon or [0, alphabet_size)
    int target;
    // Index into Nfa::labels for the source-level symbol this transition was
    // compiled from, or kNoLabel. The compiler uses labels to recover *which
    // packet-processing function* a selected path performs at a location
    // (function names are substituted away in the location alphabet).
    int label = kNoLabel;
};

struct Nfa {
    int alphabet_size = 0;
    int start = 0;
    std::vector<bool> accepting;
    std::vector<std::vector<Nfa_edge>> edges;  // by source state
    std::vector<std::string> labels;           // label id -> symbol name

    [[nodiscard]] int state_count() const {
        return static_cast<int>(edges.size());
    }
    [[nodiscard]] const std::string* label_name(int label) const {
        return label == kNoLabel ? nullptr
                                 : &labels[static_cast<std::size_t>(label)];
    }
};

// Thompson construction for a path expression. Complement subterms (`!a`)
// are handled by determinizing the subexpression, complementing, and
// re-embedding. Throws Policy_error when the expression mentions a name the
// alphabet cannot resolve.
[[nodiscard]] Nfa thompson(const ir::PathPtr& path, const Alphabet& alphabet);

// Equivalent epsilon-free NFA (states renumbered, unreachable states pruned).
[[nodiscard]] Nfa remove_epsilon(const Nfa& nfa);

// True if the NFA accepts the symbol sequence.
[[nodiscard]] bool accepts(const Nfa& nfa, const std::vector<int>& word);

// True if the NFA accepts no word: no accepting state is reachable from the
// start, following epsilon edges too. Equal to is_empty(determinize(nfa))
// without building the subset automaton.
[[nodiscard]] bool is_empty(const Nfa& nfa);

// ----------------------------------------------------------------------- DFA

struct Dfa {
    int alphabet_size = 0;
    int start = 0;
    std::vector<bool> accepting;
    // Complete transition table: next[state][symbol] is always a valid state.
    std::vector<std::vector<int>> next;

    [[nodiscard]] int state_count() const {
        return static_cast<int>(next.size());
    }
};

// Subset construction; the result is complete (includes a sink if needed).
[[nodiscard]] Dfa determinize(const Nfa& nfa);

[[nodiscard]] Dfa complement(const Dfa& dfa);
[[nodiscard]] Dfa intersect(const Dfa& a, const Dfa& b);
// Hopcroft's partition-refinement minimization (result is also complete).
[[nodiscard]] Dfa minimize(const Dfa& dfa);

[[nodiscard]] bool accepts(const Dfa& dfa, const std::vector<int>& word);
[[nodiscard]] bool is_empty(const Dfa& dfa);
// L(a) subset-of L(b), i.e. empty(a intersect complement(b)).
[[nodiscard]] bool subset_of(const Dfa& a, const Dfa& b);
[[nodiscard]] bool equivalent(const Dfa& a, const Dfa& b);

// Shortest accepted word (BFS); nullopt when the language is empty.
[[nodiscard]] std::optional<std::vector<int>> shortest_word(const Dfa& dfa);

// Embeds a DFA back into NFA form (used for complement subterms).
[[nodiscard]] Nfa to_nfa(const Dfa& dfa);

}  // namespace merlin::automata
