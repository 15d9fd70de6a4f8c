#include "automata/automata.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <tuple>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/error.h"

namespace merlin::automata {

// ------------------------------------------------------------------ alphabet

int Alphabet::add_location(const std::string& name) {
    const auto it = locations_.find(name);
    if (it != locations_.end()) return it->second;
    const int id = static_cast<int>(names_.size());
    names_.push_back(name);
    locations_.emplace(name, id);
    return id;
}

void Alphabet::add_function(const std::string& name,
                            const std::vector<std::string>& locations) {
    std::vector<int> symbols;
    symbols.reserve(locations.size());
    for (const std::string& loc : locations) {
        const auto sym = location(loc);
        if (!sym)
            throw Policy_error("function '" + name +
                               "' placed at unknown location '" + loc + "'");
        symbols.push_back(*sym);
    }
    functions_[name] = std::move(symbols);
}

std::optional<int> Alphabet::location(const std::string& name) const {
    const auto it = locations_.find(name);
    if (it == locations_.end()) return std::nullopt;
    return it->second;
}

std::vector<int> Alphabet::resolve(const std::string& name) const {
    if (const auto sym = location(name)) return {*sym};
    const auto it = functions_.find(name);
    if (it != functions_.end()) return it->second;
    return {};
}

// ----------------------------------------------------------------------- NFA

namespace {

// Thompson fragments are built into one shared state arena.
struct Builder {
    const Alphabet& alphabet;
    std::vector<std::vector<Nfa_edge>> edges;
    std::vector<std::string> labels;

    int fresh() {
        edges.emplace_back();
        return static_cast<int>(edges.size()) - 1;
    }
    void link(int from, int symbol, int to, int label = kNoLabel) {
        edges[static_cast<std::size_t>(from)].push_back(
            Nfa_edge{symbol, to, label});
    }
    int intern_label(const std::string& name) {
        for (std::size_t i = 0; i < labels.size(); ++i)
            if (labels[i] == name) return static_cast<int>(i);
        labels.push_back(name);
        return static_cast<int>(labels.size()) - 1;
    }

    struct Fragment {
        int start;
        int accept;
    };

    Fragment build(const ir::PathPtr& p) {
        using ir::Path_kind;
        switch (p->kind) {
            case Path_kind::any: {
                const Fragment f{fresh(), fresh()};
                for (int s = 0; s < alphabet.size(); ++s)
                    link(f.start, s, f.accept);
                return f;
            }
            case Path_kind::symbol: {
                const auto symbols = alphabet.resolve(p->symbol);
                if (symbols.empty())
                    throw Policy_error(
                        "path expression mentions unknown location or "
                        "function '" +
                        p->symbol + "'");
                // Function names (multi-location resolutions that are not a
                // plain location) carry a placement label.
                const bool is_function = !alphabet.location(p->symbol);
                const int label =
                    is_function ? intern_label(p->symbol) : kNoLabel;
                const Fragment f{fresh(), fresh()};
                for (int s : symbols) link(f.start, s, f.accept, label);
                return f;
            }
            case Path_kind::seq: {
                const Fragment a = build(p->lhs);
                const Fragment b = build(p->rhs);
                link(a.accept, kEpsilon, b.start);
                return Fragment{a.start, b.accept};
            }
            case Path_kind::alt: {
                const Fragment a = build(p->lhs);
                const Fragment b = build(p->rhs);
                const Fragment f{fresh(), fresh()};
                link(f.start, kEpsilon, a.start);
                link(f.start, kEpsilon, b.start);
                link(a.accept, kEpsilon, f.accept);
                link(b.accept, kEpsilon, f.accept);
                return f;
            }
            case Path_kind::star: {
                const Fragment a = build(p->lhs);
                const Fragment f{fresh(), fresh()};
                link(f.start, kEpsilon, a.start);
                link(f.start, kEpsilon, f.accept);
                link(a.accept, kEpsilon, a.start);
                link(a.accept, kEpsilon, f.accept);
                return f;
            }
            case Path_kind::not_: {
                // Complement needs determinism: build the subexpression as
                // its own NFA, determinize, complement, minimize, re-embed.
                Nfa sub;
                sub.alphabet_size = alphabet.size();
                {
                    Builder inner{alphabet, {}, {}};
                    const Fragment f = inner.build(p->lhs);
                    sub.edges = std::move(inner.edges);
                    sub.start = f.start;
                    sub.accepting.assign(sub.edges.size(), false);
                    sub.accepting[static_cast<std::size_t>(f.accept)] = true;
                }
                const Dfa comp = minimize(complement(determinize(sub)));
                // Embed: offset the DFA's states into this arena with a
                // single fresh accept state joined by epsilon edges.
                const int offset = static_cast<int>(edges.size());
                for (int q = 0; q < comp.state_count(); ++q) {
                    const int here = fresh();
                    (void)here;
                }
                const int accept = fresh();
                for (int q = 0; q < comp.state_count(); ++q) {
                    for (int s = 0; s < comp.alphabet_size; ++s)
                        link(offset + q, s,
                             offset + comp.next[static_cast<std::size_t>(q)]
                                                [static_cast<std::size_t>(s)]);
                    if (comp.accepting[static_cast<std::size_t>(q)])
                        link(offset + q, kEpsilon, accept);
                }
                return Fragment{offset + comp.start, accept};
            }
        }
        throw Error("unreachable path kind");
    }
};

// FNV-1a over a sorted-unique state set. Subset-construction and product
// interning key on these sets; hashing makes each lookup O(set size)
// instead of the O(log n) ordered-map comparisons of the original.
struct State_set_hash {
    std::size_t operator()(const std::vector<int>& v) const noexcept {
        std::uint64_t h = 1469598103934665603ull;
        for (const int x : v) {
            h ^= static_cast<std::uint32_t>(x);
            h *= 1099511628211ull;
        }
        return static_cast<std::size_t>(h);
    }
};

struct State_pair_hash {
    std::size_t operator()(const std::pair<int, int>& p) const noexcept {
        std::uint64_t h = (static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(p.first))
                           << 32) |
                          static_cast<std::uint32_t>(p.second);
        // splitmix64 finalizer
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 31;
        return static_cast<std::size_t>(h);
    }
};

// Epsilon closure of a state set (in place, returns sorted unique states).
std::vector<int> closure(const Nfa& nfa, std::vector<int> states) {
    std::deque<int> queue(states.begin(), states.end());
    std::set<int> seen(states.begin(), states.end());
    while (!queue.empty()) {
        const int q = queue.front();
        queue.pop_front();
        for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q)]) {
            if (e.symbol == kEpsilon && seen.insert(e.target).second)
                queue.push_back(e.target);
        }
    }
    return {seen.begin(), seen.end()};
}

// Epsilon closures for *every* state at once, memoized through the SCC
// condensation of the epsilon subgraph: closure(q) depends only on q's SCC,
// and an SCC's closure is its members plus the closures of its epsilon
// successors. One iterative Tarjan pass plus one sorted union per SCC
// replaces the independent BFS per state (quadratic on epsilon chains).
struct Closure_table {
    std::vector<int> scc_of;                   // state -> SCC id
    std::vector<std::vector<int>> per_scc;     // SCC id -> sorted closure

    [[nodiscard]] const std::vector<int>& of(int q) const {
        return per_scc[static_cast<std::size_t>(
            scc_of[static_cast<std::size_t>(q)])];
    }
};

Closure_table all_closures(const Nfa& nfa) {
    const int n = nfa.state_count();
    std::vector<std::vector<int>> eps(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q)])
            if (e.symbol == kEpsilon)
                eps[static_cast<std::size_t>(q)].push_back(e.target);

    Closure_table out;
    out.scc_of.assign(static_cast<std::size_t>(n), -1);
    std::vector<int> index(static_cast<std::size_t>(n), -1);
    std::vector<int> low(static_cast<std::size_t>(n), 0);
    std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
    std::vector<int> stack;
    std::vector<std::vector<int>> members;
    int next_index = 0;

    struct Frame {
        int q;
        std::size_t edge;
    };
    std::vector<Frame> frames;
    for (int root = 0; root < n; ++root) {
        if (index[static_cast<std::size_t>(root)] != -1) continue;
        frames.push_back(Frame{root, 0});
        index[static_cast<std::size_t>(root)] =
            low[static_cast<std::size_t>(root)] = next_index++;
        stack.push_back(root);
        on_stack[static_cast<std::size_t>(root)] = true;
        while (!frames.empty()) {
            Frame& f = frames.back();
            const auto& succ = eps[static_cast<std::size_t>(f.q)];
            if (f.edge < succ.size()) {
                const int t = succ[f.edge++];
                if (index[static_cast<std::size_t>(t)] == -1) {
                    index[static_cast<std::size_t>(t)] =
                        low[static_cast<std::size_t>(t)] = next_index++;
                    stack.push_back(t);
                    on_stack[static_cast<std::size_t>(t)] = true;
                    frames.push_back(Frame{t, 0});
                } else if (on_stack[static_cast<std::size_t>(t)]) {
                    low[static_cast<std::size_t>(f.q)] =
                        std::min(low[static_cast<std::size_t>(f.q)],
                                 index[static_cast<std::size_t>(t)]);
                }
            } else {
                const int q = f.q;
                if (low[static_cast<std::size_t>(q)] ==
                    index[static_cast<std::size_t>(q)]) {
                    const int id = static_cast<int>(members.size());
                    members.emplace_back();
                    while (true) {
                        const int w = stack.back();
                        stack.pop_back();
                        on_stack[static_cast<std::size_t>(w)] = false;
                        out.scc_of[static_cast<std::size_t>(w)] = id;
                        members.back().push_back(w);
                        if (w == q) break;
                    }
                }
                frames.pop_back();
                if (!frames.empty()) {
                    const int parent = frames.back().q;
                    low[static_cast<std::size_t>(parent)] =
                        std::min(low[static_cast<std::size_t>(parent)],
                                 low[static_cast<std::size_t>(q)]);
                }
            }
        }
    }

    // Tarjan pops SCCs in reverse topological order: every SCC reachable
    // through an epsilon edge already has its closure when we get here.
    out.per_scc.resize(members.size());
    for (std::size_t c = 0; c < members.size(); ++c) {
        std::vector<int> acc = members[c];
        for (const int q : members[c])
            for (const int t : eps[static_cast<std::size_t>(q)]) {
                const int tc = out.scc_of[static_cast<std::size_t>(t)];
                if (tc == static_cast<int>(c)) continue;
                const auto& sub = out.per_scc[static_cast<std::size_t>(tc)];
                acc.insert(acc.end(), sub.begin(), sub.end());
            }
        std::sort(acc.begin(), acc.end());
        acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
        out.per_scc[c] = std::move(acc);
    }
    return out;
}

}  // namespace

Nfa thompson(const ir::PathPtr& path, const Alphabet& alphabet) {
    Builder b{alphabet, {}, {}};
    const Builder::Fragment f = b.build(path);
    Nfa out;
    out.alphabet_size = alphabet.size();
    out.start = f.start;
    out.edges = std::move(b.edges);
    out.labels = std::move(b.labels);
    out.accepting.assign(out.edges.size(), false);
    out.accepting[static_cast<std::size_t>(f.accept)] = true;
    return out;
}

Nfa remove_epsilon(const Nfa& nfa) {
    // For each state q, the epsilon-free machine has an edge (q, s, r) when
    // some q' in closure({q}) has (q', s, r); q accepts when its closure
    // contains an accepting state. Unreachable states are then pruned.
    const int n = nfa.state_count();
    const Closure_table closures = all_closures(nfa);

    Nfa dense;
    dense.alphabet_size = nfa.alphabet_size;
    dense.start = nfa.start;
    dense.edges.assign(static_cast<std::size_t>(n), {});
    dense.accepting.assign(static_cast<std::size_t>(n), false);
    dense.labels = nfa.labels;
    for (int q = 0; q < n; ++q) {
        std::set<std::tuple<int, int, int>> out_edges;
        for (int q2 : closures.of(q)) {
            if (nfa.accepting[static_cast<std::size_t>(q2)])
                dense.accepting[static_cast<std::size_t>(q)] = true;
            for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q2)])
                if (e.symbol != kEpsilon)
                    out_edges.emplace(e.symbol, e.target, e.label);
        }
        for (const auto& [s, t, l] : out_edges)
            dense.edges[static_cast<std::size_t>(q)].push_back(
                Nfa_edge{s, t, l});
    }

    // Prune states unreachable from the start.
    std::vector<int> remap(static_cast<std::size_t>(n), -1);
    std::deque<int> queue{dense.start};
    remap[static_cast<std::size_t>(dense.start)] = 0;
    int next_id = 1;
    while (!queue.empty()) {
        const int q = queue.front();
        queue.pop_front();
        for (const Nfa_edge& e : dense.edges[static_cast<std::size_t>(q)]) {
            if (remap[static_cast<std::size_t>(e.target)] == -1) {
                remap[static_cast<std::size_t>(e.target)] = next_id++;
                queue.push_back(e.target);
            }
        }
    }

    Nfa out;
    out.alphabet_size = dense.alphabet_size;
    out.start = 0;
    out.labels = dense.labels;
    out.edges.assign(static_cast<std::size_t>(next_id), {});
    out.accepting.assign(static_cast<std::size_t>(next_id), false);
    for (int q = 0; q < n; ++q) {
        const int id = remap[static_cast<std::size_t>(q)];
        if (id == -1) continue;
        out.accepting[static_cast<std::size_t>(id)] =
            dense.accepting[static_cast<std::size_t>(q)];
        for (const Nfa_edge& e : dense.edges[static_cast<std::size_t>(q)])
            out.edges[static_cast<std::size_t>(id)].push_back(
                Nfa_edge{e.symbol, remap[static_cast<std::size_t>(e.target)],
                         e.label});
    }
    return out;
}

bool accepts(const Nfa& nfa, const std::vector<int>& word) {
    std::vector<int> current = closure(nfa, {nfa.start});
    for (int symbol : word) {
        std::set<int> next;
        for (int q : current)
            for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q)])
                if (e.symbol == symbol) next.insert(e.target);
        current = closure(nfa, {next.begin(), next.end()});
        if (current.empty()) return false;
    }
    for (int q : current)
        if (nfa.accepting[static_cast<std::size_t>(q)]) return true;
    return false;
}

bool is_empty(const Nfa& nfa) {
    // Every edge is a step some word can take (epsilon edges consume
    // nothing), so the language is empty iff no accepting state is
    // reachable from the start in the edge graph.
    std::vector<bool> seen(static_cast<std::size_t>(nfa.state_count()), false);
    std::vector<int> stack{nfa.start};
    seen[static_cast<std::size_t>(nfa.start)] = true;
    while (!stack.empty()) {
        const int q = stack.back();
        stack.pop_back();
        if (nfa.accepting[static_cast<std::size_t>(q)]) return false;
        for (const Nfa_edge& e : nfa.edges[static_cast<std::size_t>(q)]) {
            if (seen[static_cast<std::size_t>(e.target)]) continue;
            seen[static_cast<std::size_t>(e.target)] = true;
            stack.push_back(e.target);
        }
    }
    return true;
}

// ----------------------------------------------------------------------- DFA

Dfa determinize(const Nfa& nfa) {
    Dfa out;
    out.alphabet_size = nfa.alphabet_size;

    // State-set interning is hashed; ids are still assigned in worklist
    // discovery order, so the resulting DFA is identical to the ordered-map
    // implementation it replaced (the automata regression test pins this).
    std::unordered_map<std::vector<int>, int, State_set_hash> ids;
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
        out.next.emplace_back(
            std::vector<int>(static_cast<std::size_t>(nfa.alphabet_size), -1));
        worklist.push_back(std::move(states));
        return id;
    };

    out.start = intern(closure(nfa, {nfa.start}));
    for (std::size_t w = 0; w < worklist.size(); ++w) {
        // Copy: worklist may reallocate while interning successors.
        const std::vector<int> states = worklist[w];
        const int id = ids.at(states);
        for (int s = 0; s < nfa.alphabet_size; ++s) {
            std::set<int> targets;
            for (int q : states)
                for (const Nfa_edge& e :
                     nfa.edges[static_cast<std::size_t>(q)])
                    if (e.symbol == s) targets.insert(e.target);
            const int succ =
                intern(closure(nfa, {targets.begin(), targets.end()}));
            out.next[static_cast<std::size_t>(id)][static_cast<std::size_t>(s)] =
                succ;
        }
    }
    return out;
}

Dfa complement(const Dfa& dfa) {
    Dfa out = dfa;
    for (std::size_t q = 0; q < out.accepting.size(); ++q)
        out.accepting[q] = !out.accepting[q];
    return out;
}

Dfa intersect(const Dfa& a, const Dfa& b) {
    expects(a.alphabet_size == b.alphabet_size,
            "intersecting DFAs over different alphabets");
    Dfa out;
    out.alphabet_size = a.alphabet_size;

    std::unordered_map<std::pair<int, int>, int, State_pair_hash> ids;
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
            const int ta =
                a.next[static_cast<std::size_t>(qa)][static_cast<std::size_t>(s)];
            const int tb =
                b.next[static_cast<std::size_t>(qb)][static_cast<std::size_t>(s)];
            out.next[static_cast<std::size_t>(id)][static_cast<std::size_t>(s)] =
                intern({ta, tb});
        }
    }
    return out;
}

Dfa minimize(const Dfa& input) {
    if (input.state_count() == 0) return input;

    // Restrict to states reachable from the start: Hopcroft's partition
    // refinement alone would keep (and count) unreachable classes.
    Dfa dfa;
    dfa.alphabet_size = input.alphabet_size;
    {
        std::vector<int> remap(static_cast<std::size_t>(input.state_count()),
                               -1);
        std::vector<int> order{input.start};
        remap[static_cast<std::size_t>(input.start)] = 0;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const int q = order[i];
            for (int s = 0; s < input.alphabet_size; ++s) {
                const int t = input.next[static_cast<std::size_t>(q)]
                                        [static_cast<std::size_t>(s)];
                if (remap[static_cast<std::size_t>(t)] == -1) {
                    remap[static_cast<std::size_t>(t)] =
                        static_cast<int>(order.size());
                    order.push_back(t);
                }
            }
        }
        dfa.start = 0;
        dfa.accepting.resize(order.size());
        dfa.next.resize(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            const auto q = static_cast<std::size_t>(order[i]);
            dfa.accepting[i] = input.accepting[q];
            dfa.next[i].resize(static_cast<std::size_t>(input.alphabet_size));
            for (int s = 0; s < input.alphabet_size; ++s)
                dfa.next[i][static_cast<std::size_t>(s)] =
                    remap[static_cast<std::size_t>(
                        input.next[q][static_cast<std::size_t>(s)])];
        }
    }

    const int n = dfa.state_count();
    const int k = dfa.alphabet_size;

    // Hopcroft's algorithm. Partition ids per state; initial split into
    // accepting / rejecting.
    std::vector<int> part(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        part[static_cast<std::size_t>(q)] =
            dfa.accepting[static_cast<std::size_t>(q)] ? 1 : 0;
    int part_count = 2;
    // Degenerate: all states in one class.
    {
        bool has0 = false;
        bool has1 = false;
        for (int p : part) (p == 0 ? has0 : has1) = true;
        if (!has0 || !has1) {
            part_count = 1;
            std::fill(part.begin(), part.end(), 0);
        }
    }

    // Precompute reverse transitions.
    std::vector<std::vector<std::vector<int>>> reverse(
        static_cast<std::size_t>(n),
        std::vector<std::vector<int>>(static_cast<std::size_t>(k)));
    for (int q = 0; q < n; ++q)
        for (int s = 0; s < k; ++s)
            reverse[static_cast<std::size_t>(
                dfa.next[static_cast<std::size_t>(q)]
                        [static_cast<std::size_t>(s)])]
                   [static_cast<std::size_t>(s)]
                       .push_back(q);

    // Worklist of (class, symbol) splitters.
    std::deque<std::pair<int, int>> work;
    for (int s = 0; s < k; ++s) {
        work.emplace_back(0, s);
        if (part_count > 1) work.emplace_back(1, s);
    }

    std::vector<std::vector<int>> members(
        static_cast<std::size_t>(part_count));
    for (int q = 0; q < n; ++q)
        members[static_cast<std::size_t>(part[static_cast<std::size_t>(q)])]
            .push_back(q);

    while (!work.empty()) {
        const auto [cls, sym] = work.front();
        work.pop_front();
        // X = states with a transition on sym into class cls.
        std::vector<int> x;
        for (int target : members[static_cast<std::size_t>(cls)])
            for (int q :
                 reverse[static_cast<std::size_t>(target)]
                        [static_cast<std::size_t>(sym)])
                x.push_back(q);
        if (x.empty()) continue;
        std::sort(x.begin(), x.end());
        x.erase(std::unique(x.begin(), x.end()), x.end());

        // Group X by current class and split classes partially hit.
        std::map<int, std::vector<int>> hits;
        for (int q : x) hits[part[static_cast<std::size_t>(q)]].push_back(q);
        for (const auto& [old_cls, hit] : hits) {
            if (hit.size() ==
                members[static_cast<std::size_t>(old_cls)].size())
                continue;  // whole class hit; no split
            const int new_cls = part_count++;
            members.emplace_back();
            for (int q : hit) {
                part[static_cast<std::size_t>(q)] = new_cls;
                members[static_cast<std::size_t>(new_cls)].push_back(q);
            }
            auto& old_members = members[static_cast<std::size_t>(old_cls)];
            old_members.erase(
                std::remove_if(old_members.begin(), old_members.end(),
                               [&](int q) {
                                   return part[static_cast<std::size_t>(q)] ==
                                          new_cls;
                               }),
                old_members.end());
            for (int s = 0; s < k; ++s) work.emplace_back(new_cls, s);
        }
    }

    // Build the quotient automaton.
    Dfa out;
    out.alphabet_size = k;
    out.start = part[static_cast<std::size_t>(dfa.start)];
    out.accepting.assign(static_cast<std::size_t>(part_count), false);
    out.next.assign(static_cast<std::size_t>(part_count),
                    std::vector<int>(static_cast<std::size_t>(k), -1));
    for (int q = 0; q < n; ++q) {
        const int c = part[static_cast<std::size_t>(q)];
        if (dfa.accepting[static_cast<std::size_t>(q)])
            out.accepting[static_cast<std::size_t>(c)] = true;
        for (int s = 0; s < k; ++s)
            out.next[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
                part[static_cast<std::size_t>(
                    dfa.next[static_cast<std::size_t>(q)]
                            [static_cast<std::size_t>(s)])];
    }
    return out;
}

bool accepts(const Dfa& dfa, const std::vector<int>& word) {
    int q = dfa.start;
    for (int s : word)
        q = dfa.next[static_cast<std::size_t>(q)][static_cast<std::size_t>(s)];
    return dfa.accepting[static_cast<std::size_t>(q)];
}

bool is_empty(const Dfa& dfa) {
    std::deque<int> queue{dfa.start};
    std::vector<bool> seen(static_cast<std::size_t>(dfa.state_count()), false);
    seen[static_cast<std::size_t>(dfa.start)] = true;
    while (!queue.empty()) {
        const int q = queue.front();
        queue.pop_front();
        if (dfa.accepting[static_cast<std::size_t>(q)]) return false;
        for (int s = 0; s < dfa.alphabet_size; ++s) {
            const int t =
                dfa.next[static_cast<std::size_t>(q)][static_cast<std::size_t>(s)];
            if (!seen[static_cast<std::size_t>(t)]) {
                seen[static_cast<std::size_t>(t)] = true;
                queue.push_back(t);
            }
        }
    }
    return true;
}

bool subset_of(const Dfa& a, const Dfa& b) {
    return is_empty(intersect(a, complement(b)));
}

bool equivalent(const Dfa& a, const Dfa& b) {
    return subset_of(a, b) && subset_of(b, a);
}

std::optional<std::vector<int>> shortest_word(const Dfa& dfa) {
    struct Step {
        int state;
        int symbol;
        int parent;  // index into the BFS order, -1 for the root
    };
    std::vector<Step> order{{dfa.start, -1, -1}};
    std::vector<bool> seen(static_cast<std::size_t>(dfa.state_count()), false);
    seen[static_cast<std::size_t>(dfa.start)] = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto [q, sym, parent] = order[i];
        (void)sym;
        (void)parent;
        if (dfa.accepting[static_cast<std::size_t>(q)]) {
            std::vector<int> word;
            for (std::size_t j = i; order[j].parent != -1;
                 j = static_cast<std::size_t>(order[j].parent))
                word.push_back(order[j].symbol);
            std::reverse(word.begin(), word.end());
            return word;
        }
        for (int s = 0; s < dfa.alphabet_size; ++s) {
            const int t =
                dfa.next[static_cast<std::size_t>(q)][static_cast<std::size_t>(s)];
            if (!seen[static_cast<std::size_t>(t)]) {
                seen[static_cast<std::size_t>(t)] = true;
                order.push_back(Step{t, s, static_cast<int>(i)});
            }
        }
    }
    return std::nullopt;
}

Nfa to_nfa(const Dfa& dfa) {
    Nfa out;
    out.alphabet_size = dfa.alphabet_size;
    out.start = dfa.start;
    out.accepting = dfa.accepting;
    out.edges.assign(static_cast<std::size_t>(dfa.state_count()), {});
    for (int q = 0; q < dfa.state_count(); ++q)
        for (int s = 0; s < dfa.alphabet_size; ++s)
            out.edges[static_cast<std::size_t>(q)].push_back(Nfa_edge{
                s,
                dfa.next[static_cast<std::size_t>(q)][static_cast<std::size_t>(s)],
                kNoLabel});
    return out;
}

}  // namespace merlin::automata
