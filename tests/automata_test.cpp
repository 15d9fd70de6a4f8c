#include "automata/automata.h"

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "core/logical.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace merlin::automata {
namespace {

using merlin::parser::parse_path;

// Fixture with the small topology of Figure 2: h1, h2, s1, s2, m1; dpi can
// run at h1, h2, m1; nat only at m1.
class Fig2 : public ::testing::Test {
protected:
    Fig2() {
        h1_ = alphabet_.add_location("h1");
        h2_ = alphabet_.add_location("h2");
        s1_ = alphabet_.add_location("s1");
        s2_ = alphabet_.add_location("s2");
        m1_ = alphabet_.add_location("m1");
        alphabet_.add_function("dpi", {"h1", "h2", "m1"});
        alphabet_.add_function("nat", {"m1"});
    }

    [[nodiscard]] Dfa dfa_of(const char* regex) const {
        return determinize(thompson(parse_path(regex), alphabet_));
    }

    Alphabet alphabet_;
    int h1_, h2_, s1_, s2_, m1_;
};

TEST_F(Fig2, AlphabetResolution) {
    EXPECT_EQ(alphabet_.size(), 5);
    EXPECT_EQ(alphabet_.resolve("h1"), (std::vector<int>{h1_}));
    EXPECT_EQ(alphabet_.resolve("dpi"), (std::vector<int>{h1_, h2_, m1_}));
    EXPECT_EQ(alphabet_.resolve("nat"), (std::vector<int>{m1_}));
    EXPECT_TRUE(alphabet_.resolve("unknown").empty());
    EXPECT_THROW(alphabet_.add_function("x", {"nowhere"}), Policy_error);
}

TEST_F(Fig2, SymbolAndAnyAcceptance) {
    const Nfa n = thompson(parse_path("h1 . h2"), alphabet_);
    EXPECT_TRUE(accepts(n, {h1_, s1_, h2_}));
    EXPECT_TRUE(accepts(n, {h1_, m1_, h2_}));
    EXPECT_FALSE(accepts(n, {h1_, h2_}));
    EXPECT_FALSE(accepts(n, {h1_, s1_, s2_, h2_}));
}

TEST_F(Fig2, FunctionSubstitution) {
    // ".* nat .*" becomes ".* m1 .*": the path must pass through m1.
    const Nfa n = thompson(parse_path(".* nat .*"), alphabet_);
    EXPECT_TRUE(accepts(n, {h1_, s1_, m1_, s2_, h2_}));
    EXPECT_TRUE(accepts(n, {m1_}));
    EXPECT_FALSE(accepts(n, {h1_, s1_, h2_}));

    // ".* dpi .*" can be satisfied at h1, h2 or m1.
    const Nfa d = thompson(parse_path(".* dpi .*"), alphabet_);
    EXPECT_TRUE(accepts(d, {h1_, s1_, h2_}));  // endpoints count
    EXPECT_FALSE(accepts(d, {s1_, s2_}));
}

TEST_F(Fig2, PaperExampleExpression) {
    // Figure 2's statement: h1 .* dpi .* nat .* h2. Physical paths lift to
    // location sequences in which a vertex may repeat consecutively when it
    // consumes several regex symbols (Lemma 1) — m1 provides dpi AND nat.
    const Nfa n = thompson(parse_path("h1 .* dpi .* nat .* h2"), alphabet_);
    EXPECT_TRUE(accepts(n, {h1_, s1_, m1_, m1_, s2_, h2_}));
    // dpi at h1, nat at m1 also works.
    EXPECT_TRUE(accepts(n, {h1_, h1_, s1_, m1_, s2_, h2_}));
    // A single visit to m1 cannot consume both dpi and nat without repeat.
    EXPECT_FALSE(accepts(n, {h1_, s1_, m1_, s2_, h2_}));
    // Avoiding m1 cannot satisfy the nat constraint at all.
    EXPECT_FALSE(accepts(n, {h1_, s1_, h2_}));
    EXPECT_FALSE(accepts(n, {h1_, h2_}));
}

TEST_F(Fig2, EpsilonRemovalPreservesLanguage) {
    Rng rng(3);
    for (const char* regex :
         {".*", "h1 .* h2", ".* dpi .* nat .*", "(s1 | s2)* m1",
          "h1 (s1 s2)* h2", "!(.* m1 .*)", "h1 .* dpi .* nat .* h2"}) {
        const Nfa full = thompson(parse_path(regex), alphabet_);
        const Nfa slim = remove_epsilon(full);
        // No epsilon edges remain.
        for (const auto& edges : slim.edges)
            for (const Nfa_edge& e : edges) EXPECT_NE(e.symbol, kEpsilon);
        // Languages agree on random short words.
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<int> word;
            const int len = static_cast<int>(rng.uniform(0, 6));
            for (int i = 0; i < len; ++i)
                word.push_back(static_cast<int>(
                    rng.uniform(0, alphabet_.size() - 1)));
            EXPECT_EQ(accepts(full, word), accepts(slim, word)) << regex;
        }
    }
}

TEST_F(Fig2, DeterminizeAgreesWithNfa) {
    Rng rng(4);
    for (const char* regex :
         {".*", "h1 .* h2", ".* dpi .* nat .*", "(s1 | s2)* m1",
          "!(.* m1 .*) | h1*", "h1 !(s1) h2"}) {
        const Nfa n = thompson(parse_path(regex), alphabet_);
        const Dfa d = determinize(n);
        for (int trial = 0; trial < 300; ++trial) {
            std::vector<int> word;
            const int len = static_cast<int>(rng.uniform(0, 6));
            for (int i = 0; i < len; ++i)
                word.push_back(static_cast<int>(
                    rng.uniform(0, alphabet_.size() - 1)));
            EXPECT_EQ(accepts(n, word), accepts(d, word)) << regex;
        }
    }
}

TEST_F(Fig2, ComplementFlipsMembership) {
    const Dfa d = dfa_of(".* m1 .*");
    const Dfa c = complement(d);
    EXPECT_TRUE(accepts(d, {h1_, m1_, h2_}));
    EXPECT_FALSE(accepts(c, {h1_, m1_, h2_}));
    EXPECT_FALSE(accepts(d, {h1_, h2_}));
    EXPECT_TRUE(accepts(c, {h1_, h2_}));
    // Complement is an involution up to equivalence.
    EXPECT_TRUE(equivalent(complement(c), d));
}

TEST_F(Fig2, NegationInsideExpression) {
    // Paths of length >= 1 that avoid m1 entirely: !(.* m1 .*) includes the
    // empty word; intersecting with `. .*` removes it.
    const Dfa avoid = dfa_of("!(.* m1 .*)");
    EXPECT_TRUE(accepts(avoid, {}));
    EXPECT_TRUE(accepts(avoid, {h1_, s1_, h2_}));
    EXPECT_FALSE(accepts(avoid, {h1_, m1_}));
}

TEST_F(Fig2, IntersectionMatchesBoth) {
    const Dfa a = dfa_of(".* dpi .*");
    const Dfa b = dfa_of(".* nat .*");
    const Dfa both = intersect(a, b);
    EXPECT_TRUE(accepts(both, {h1_, m1_, h2_}));   // m1 covers dpi and nat
    EXPECT_TRUE(accepts(both, {h1_, s1_, m1_}));   // h1:dpi, m1:nat
    EXPECT_FALSE(accepts(both, {h1_, s1_, h2_}));  // no nat
}

TEST_F(Fig2, InclusionChecks) {
    // Section 4.2: refined path constraints must be included in the parent.
    const Dfa parent = dfa_of(".* dpi .*");
    const Dfa child = dfa_of(".* dpi .* nat .*");
    EXPECT_TRUE(subset_of(child, parent));
    EXPECT_FALSE(subset_of(parent, child));

    // Dropping a required waypoint is rejected.
    const Dfa lifted = dfa_of(".*");
    EXPECT_FALSE(subset_of(lifted, parent));
    EXPECT_TRUE(subset_of(parent, lifted));
}

TEST_F(Fig2, MinimizePreservesLanguageAndShrinks) {
    Rng rng(5);
    for (const char* regex :
         {".* dpi .* nat .*", "(h1 | h2 | m1)*", "h1 .* h2 | h1 .* h2",
          "!(.* m1 .*) (m1 | s1)"}) {
        const Dfa d = determinize(thompson(parse_path(regex), alphabet_));
        const Dfa m = minimize(d);
        EXPECT_LE(m.state_count(), d.state_count());
        EXPECT_TRUE(equivalent(m, d)) << regex;
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<int> word;
            const int len = static_cast<int>(rng.uniform(0, 6));
            for (int i = 0; i < len; ++i)
                word.push_back(static_cast<int>(
                    rng.uniform(0, alphabet_.size() - 1)));
            EXPECT_EQ(accepts(d, word), accepts(m, word)) << regex;
        }
    }
}

TEST_F(Fig2, MinimizeIdenticalBranchesCollapses) {
    // a|a has redundant structure; the minimal DFA for a single symbol
    // needs exactly 3 states (start, accept, sink).
    const Dfa m = minimize(dfa_of("h1 | h1"));
    EXPECT_EQ(m.state_count(), 3);
}

TEST_F(Fig2, EmptinessAndWitness) {
    const Dfa contradiction = intersect(dfa_of("s1"), dfa_of("s2"));
    EXPECT_TRUE(is_empty(contradiction));
    EXPECT_FALSE(shortest_word(contradiction).has_value());

    const Dfa d = dfa_of(".* nat .*");
    const auto word = shortest_word(d);
    ASSERT_TRUE(word.has_value());
    EXPECT_EQ(*word, (std::vector<int>{m1_}));  // shortest is just "m1"
    EXPECT_TRUE(accepts(d, *word));
}

TEST_F(Fig2, UnknownSymbolThrows) {
    EXPECT_THROW((void)thompson(parse_path("h1 nowhere h2"), alphabet_),
                 Policy_error);
}

// Emptiness by reachability over the raw Thompson NFA must agree with the
// subset construction it replaced, on the k=4 fat tree's full and
// switch-only alphabets. Host names are unknown to the switch alphabet.
TEST(NfaEmptiness, ReachabilityAgreesWithSubsetConstruction) {
    const topo::Topology topo = topo::fat_tree(4);
    const Alphabet full = core::make_alphabet(topo);
    const Alphabet switches = core::make_switch_alphabet(topo);
    const std::vector<std::pair<const char*, bool>> corpus = {
        {".*", false},           {".* c0 .*", false},
        {"c0 c1 .* a1_0", false}, {"!(.*)", true},
        {"c0 !(.*)", true},      {"!(.* | c0)", true},
        {"!(!(.*))", false},     {"!(.* c0 .*)", false},
        {"(!(.*))*", false},     {"!(.*) | c2", false},
        {"h0", false},           {"h0 .* h1", false},
        {".* h3 .*", false},     {"h0 !(.*) h1", true},
    };
    int checked = 0;
    for (const Alphabet* alphabet : {&full, &switches}) {
        for (const auto& [regex, empty] : corpus) {
            Nfa nfa;
            try {
                nfa = thompson(parse_path(regex), *alphabet);
            } catch (const Policy_error&) {
                EXPECT_EQ(alphabet, &switches) << regex;
                continue;
            }
            EXPECT_EQ(is_empty(nfa), empty) << regex;
            EXPECT_EQ(is_empty(nfa), is_empty(determinize(remove_epsilon(nfa))))
                << regex;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 24);  // the four host expressions throw once each
}

TEST(NfaEmptiness, FollowsEpsilonEdges) {
    // Accepting state 2 is reachable only through epsilon edges; state 4
    // accepts but nothing reaches it.
    Nfa nfa;
    nfa.alphabet_size = 2;
    nfa.start = 0;
    nfa.edges = {{{kEpsilon, 1}}, {{kEpsilon, 2}, {0, 3}}, {}, {}, {}};
    nfa.accepting = {false, false, true, false, true};
    EXPECT_FALSE(is_empty(nfa));
    EXPECT_FALSE(is_empty(determinize(remove_epsilon(nfa))));
    nfa.accepting[2] = false;
    EXPECT_TRUE(is_empty(nfa));
    EXPECT_TRUE(is_empty(determinize(remove_epsilon(nfa))));
}

// Property sweep over random regexes: algebraic laws of the language
// operations, decided via the inclusion checker.
class AutomataProperty : public ::testing::TestWithParam<int> {};

ir::PathPtr random_regex(Rng& rng, const std::vector<std::string>& symbols,
                         int depth) {
    using namespace merlin::ir;
    if (depth == 0 || rng.chance(0.35)) {
        if (rng.chance(0.2)) return path_any();
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<int>(symbols.size()) - 1));
        return path_symbol(symbols[i]);
    }
    switch (rng.uniform(0, 3)) {
        case 0:
            return path_seq(random_regex(rng, symbols, depth - 1),
                            random_regex(rng, symbols, depth - 1));
        case 1:
            return path_alt(random_regex(rng, symbols, depth - 1),
                            random_regex(rng, symbols, depth - 1));
        case 2: return path_star(random_regex(rng, symbols, depth - 1));
        default: return path_not(random_regex(rng, symbols, depth - 1));
    }
}

TEST_P(AutomataProperty, LanguageAlgebraLaws) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    Alphabet alphabet;
    const std::vector<std::string> names{"a", "b", "c"};
    for (const std::string& n : names) alphabet.add_location(n);

    for (int round = 0; round < 12; ++round) {
        const auto ra = random_regex(rng, names, 3);
        const auto rb = random_regex(rng, names, 3);
        const Dfa a = determinize(thompson(ra, alphabet));
        const Dfa b = determinize(thompson(rb, alphabet));

        // Reflexivity; union upper-bounds; intersection lower-bounds.
        EXPECT_TRUE(subset_of(a, a));
        const Dfa a_or_b =
            determinize(thompson(ir::path_alt(ra, rb), alphabet));
        EXPECT_TRUE(subset_of(a, a_or_b));
        EXPECT_TRUE(subset_of(b, a_or_b));
        const Dfa a_and_b = intersect(a, b);
        EXPECT_TRUE(subset_of(a_and_b, a));
        EXPECT_TRUE(subset_of(a_and_b, b));

        // Double complement.
        EXPECT_TRUE(equivalent(complement(complement(a)), a));

        // Minimization preserves the language.
        EXPECT_TRUE(equivalent(minimize(a), a));

        // De Morgan over languages.
        const Dfa lhs = complement(a_or_b);
        const Dfa rhs = intersect(complement(a), complement(b));
        EXPECT_TRUE(equivalent(lhs, rhs));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomataProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Regression: hashed interning against the original ordered-map
// implementation. determinize/intersect moved subset-construction and
// product interning to unordered_map with state-set hashing; the reference
// code below is the seed's std::map version, kept verbatim so the two can
// be compared on a corpus.

std::vector<int> reference_closure(const Nfa& nfa, std::vector<int> states) {
    std::deque<int> queue(states.begin(), states.end());
    std::set<int> seen(states.begin(), states.end());
    while (!queue.empty()) {
        const int q = queue.front();
        queue.pop_front();
        for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q)])
            if (e.symbol == kEpsilon && seen.insert(e.target).second)
                queue.push_back(e.target);
    }
    return {seen.begin(), seen.end()};
}

Dfa reference_determinize(const Nfa& nfa) {
    Dfa out;
    out.alphabet_size = nfa.alphabet_size;
    std::map<std::vector<int>, int> ids;
    std::vector<std::vector<int>> worklist;
    auto intern = [&](std::vector<int> states) {
        const auto it = ids.find(states);
        if (it != ids.end()) return it->second;
        const int id = static_cast<int>(ids.size());
        ids.emplace(states, id);
        out.accepting.push_back(false);
        for (int q : states)
            if (nfa.accepting[static_cast<std::size_t>(q)])
                out.accepting.back() = true;
        out.next.emplace_back(std::vector<int>(
            static_cast<std::size_t>(nfa.alphabet_size), -1));
        worklist.push_back(std::move(states));
        return id;
    };
    out.start = intern(reference_closure(nfa, {nfa.start}));
    for (std::size_t w = 0; w < worklist.size(); ++w) {
        const std::vector<int> states = worklist[w];
        const int id = ids.at(states);
        for (int s = 0; s < nfa.alphabet_size; ++s) {
            std::set<int> targets;
            for (int q : states)
                for (const Nfa_edge& e :
                     nfa.edges[static_cast<std::size_t>(q)])
                    if (e.symbol == s) targets.insert(e.target);
            const int succ = intern(
                reference_closure(nfa, {targets.begin(), targets.end()}));
            out.next[static_cast<std::size_t>(id)]
                    [static_cast<std::size_t>(s)] = succ;
        }
    }
    return out;
}

Dfa reference_intersect(const Dfa& a, const Dfa& b) {
    Dfa out;
    out.alphabet_size = a.alphabet_size;
    std::map<std::pair<int, int>, int> ids;
    std::vector<std::pair<int, int>> worklist;
    auto intern = [&](std::pair<int, int> qs) {
        const auto it = ids.find(qs);
        if (it != ids.end()) return it->second;
        const int id = static_cast<int>(ids.size());
        ids.emplace(qs, id);
        out.accepting.push_back(
            a.accepting[static_cast<std::size_t>(qs.first)] &&
            b.accepting[static_cast<std::size_t>(qs.second)]);
        out.next.emplace_back(
            std::vector<int>(static_cast<std::size_t>(a.alphabet_size), -1));
        worklist.push_back(qs);
        return id;
    };
    out.start = intern({a.start, b.start});
    for (std::size_t w = 0; w < worklist.size(); ++w) {
        const auto [qa, qb] = worklist[w];
        const int id = ids.at({qa, qb});
        for (int s = 0; s < a.alphabet_size; ++s) {
            const int ta = a.next[static_cast<std::size_t>(qa)]
                                 [static_cast<std::size_t>(s)];
            const int tb = b.next[static_cast<std::size_t>(qb)]
                                 [static_cast<std::size_t>(s)];
            out.next[static_cast<std::size_t>(id)]
                    [static_cast<std::size_t>(s)] = intern({ta, tb});
        }
    }
    return out;
}

// Structural isomorphism via BFS pairing from the starts: a bijection on
// states that preserves start, acceptance, and every transition.
bool isomorphic(const Dfa& a, const Dfa& b) {
    if (a.alphabet_size != b.alphabet_size ||
        a.state_count() != b.state_count())
        return false;
    std::vector<int> a_to_b(static_cast<std::size_t>(a.state_count()), -1);
    std::vector<int> b_to_a(static_cast<std::size_t>(b.state_count()), -1);
    std::deque<std::pair<int, int>> queue{{a.start, b.start}};
    a_to_b[static_cast<std::size_t>(a.start)] = b.start;
    b_to_a[static_cast<std::size_t>(b.start)] = a.start;
    while (!queue.empty()) {
        const auto [qa, qb] = queue.front();
        queue.pop_front();
        if (a.accepting[static_cast<std::size_t>(qa)] !=
            b.accepting[static_cast<std::size_t>(qb)])
            return false;
        for (int s = 0; s < a.alphabet_size; ++s) {
            const int ta = a.next[static_cast<std::size_t>(qa)]
                                 [static_cast<std::size_t>(s)];
            const int tb = b.next[static_cast<std::size_t>(qb)]
                                 [static_cast<std::size_t>(s)];
            const int mapped = a_to_b[static_cast<std::size_t>(ta)];
            if (mapped == -1) {
                if (b_to_a[static_cast<std::size_t>(tb)] != -1) return false;
                a_to_b[static_cast<std::size_t>(ta)] = tb;
                b_to_a[static_cast<std::size_t>(tb)] = ta;
                queue.emplace_back(ta, tb);
            } else if (mapped != tb) {
                return false;
            }
        }
    }
    return true;
}

TEST_F(Fig2, HashedInterningMatchesOrderedMapReference) {
    const std::vector<const char*> corpus{
        ".*",          ".",
        "h1 . h2",     ".* nat .*",
        ".* dpi .*",   "h1 .* dpi .* nat .* h2",
        "(s1|s2)* m1", "!(.* m1 .*)",
        "(.*)*",       "h1 (s1 s2 | s2 s1)* h2",
        "h1 h2",       ".* m1 .* m1 .*",
    };
    std::vector<Dfa> dfas;
    for (const char* regex : corpus) {
        const Nfa nfa = thompson(parse_path(regex), alphabet_);
        // The hashed subset construction must build the same DFA as the
        // ordered-map reference (ids are assigned in discovery order in
        // both, so they are isomorphic — in fact identical).
        const Dfa hashed = determinize(nfa);
        EXPECT_TRUE(isomorphic(hashed, reference_determinize(nfa))) << regex;
        // The memoized-closure remove_epsilon preserves the language (the
        // subset construction computes its own closures either way).
        EXPECT_TRUE(equivalent(determinize(remove_epsilon(nfa)), hashed))
            << regex;
        dfas.push_back(hashed);
    }
    for (std::size_t i = 0; i < dfas.size(); ++i)
        for (std::size_t j = i; j < dfas.size(); ++j)
            EXPECT_TRUE(isomorphic(intersect(dfas[i], dfas[j]),
                                   reference_intersect(dfas[i], dfas[j])))
                << corpus[i] << " & " << corpus[j];
}

}  // namespace
}  // namespace merlin::automata
