#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <set>
#include <string_view>
#include <utility>

#include "core/colgen.h"
#include "core/logical.h"
#include "pred/overlap.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace merlin::core {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// Memoized automata construction shared by the guaranteed and best-effort
// worlds: one Thompson -> epsilon-free -> determinize -> minimize chain per
// distinct path expression, fanned out over the pool. Exceptions are
// captured per slot so callers can report the first failure in policy
// order (parallel completion order is nondeterministic).
struct Nfa_set {
    std::vector<automata::Nfa> nfas;
    std::vector<std::exception_ptr> errors;
};

template <typename Parallel_for>
Nfa_set build_nfa_set(const std::vector<const ir::PathPtr*>& paths,
                      const automata::Alphabet& alphabet,
                      Parallel_for&& parallel_for) {
    Nfa_set out;
    out.nfas.resize(paths.size());
    out.errors.resize(paths.size());
    parallel_for(static_cast<int>(paths.size()), [&](int u) {
        const auto i = static_cast<std::size_t>(u);
        try {
            automata::Nfa nfa =
                remove_epsilon(thompson(*paths[i], alphabet));
            // Function-free expressions can be minimized (labels would be
            // lost otherwise); `.*` collapses to one state, so its product
            // graph is the topology itself.
            if (nfa.labels.empty())
                nfa = to_nfa(minimize(determinize(nfa)));
            out.nfas[i] = std::move(nfa);
        } catch (...) {
            out.errors[i] = std::current_exception();
        }
    });
    return out;
}

}  // namespace

template <typename Fn>
void Engine::parallel_for(int n, Fn&& fn) {
    if (jobs_ == 1 || n <= 1) {
        for (int i = 0; i < n; ++i) fn(i);
        return;
    }
    if (!pool_) pool_ = std::make_unique<util::Thread_pool>(jobs_);
    pool_->parallel_for(n, std::forward<Fn>(fn));
}

// ---------------------------------------------------------------------------
// Checkpoint / restore

struct Engine_checkpoint_state {
    std::vector<Engine::Entry> entries;
    std::vector<Guaranteed_request> requests;
    std::vector<std::size_t> request_entry;
    Provision_result provision;
    std::vector<bool> link_up;
    Compilation current;
    Compilation::Timing timing;
    std::uint64_t generation = 0;
};

Engine::Checkpoint Engine::checkpoint() const {
    auto state = std::make_shared<Engine_checkpoint_state>();
    state->entries = entries_;
    state->requests = requests_;
    state->request_entry = request_entry_;
    state->provision = provision_;
    state->link_up.reserve(static_cast<std::size_t>(topo_.link_count()));
    for (topo::LinkId l = 0; l < topo_.link_count(); ++l)
        state->link_up.push_back(topo_.link_up(l));
    state->current = current_;
    state->timing = timing_;
    state->generation = generation_;
    Checkpoint out;
    out.state_ = std::move(state);
    return out;
}

void Engine::restore(const Checkpoint& saved) {
    expects(saved.state_ != nullptr, "restore() of an empty checkpoint");
    const Engine_checkpoint_state& state = *saved.state_;
    entries_ = state.entries;
    requests_ = state.requests;
    request_entry_ = state.request_entry;
    provision_ = state.provision;
    // The skeleton may have been patched or re-encoded for the abandoned
    // state; dropping it is always safe (lazy re-encode on the next solve).
    skeleton_valid_ = false;
    bool links_differ = false;
    for (topo::LinkId l = 0; l < topo_.link_count(); ++l) {
        const bool up = state.link_up[static_cast<std::size_t>(l)];
        if (topo_.link_up(l) == up) continue;
        topo_.set_link_state(l, up);
        links_differ = true;
    }
    if (links_differ) {
        // Cached sink trees were built against the abandoned link state.
        switch_graph_ = make_switch_graph(topo_);
        tree_cache_.clear();
    }
    current_ = state.current;
    timing_ = state.timing;
    generation_ = state.generation;
    // No publish hook: the caller rewound its own consumers (see engine.h).
}

struct Engine::Delta_guard {
    Engine& engine;
    Checkpoint saved;
    bool armed = true;

    explicit Delta_guard(Engine& e) : engine(e), saved(e.checkpoint()) {}
    Delta_guard(const Delta_guard&) = delete;
    Delta_guard& operator=(const Delta_guard&) = delete;
    void commit() { armed = false; }
    ~Delta_guard() {
        if (armed) engine.restore(saved);
    }
};

void Engine::set_mip_node_limit(int max_nodes) {
    if (max_nodes < 1)
        throw Policy_error("node limit must be at least 1");
    options_.mip.max_nodes = max_nodes;
}

Engine_stats Engine_stats::since(const Engine_stats& earlier) const {
    Engine_stats d;
    d.automata_built = automata_built - earlier.automata_built;
    d.automata_cache_hits = automata_cache_hits - earlier.automata_cache_hits;
    d.logical_builds = logical_builds - earlier.logical_builds;
    d.trees_built = trees_built - earlier.trees_built;
    d.tree_cache_hits = tree_cache_hits - earlier.tree_cache_hits;
    d.lp_encodings = lp_encodings - earlier.lp_encodings;
    d.lp_patches = lp_patches - earlier.lp_patches;
    d.solves = solves - earlier.solves;
    d.warm_started_solves =
        warm_started_solves - earlier.warm_started_solves;
    d.incremental_updates =
        incremental_updates - earlier.incremental_updates;
    d.predicate_compiles = predicate_compiles - earlier.predicate_compiles;
    d.predicate_cache_hits =
        predicate_cache_hits - earlier.predicate_cache_hits;
    d.bdd_applies = bdd_applies - earlier.bdd_applies;
    // bdd_nodes is a gauge, not a counter: the difference can be negative
    // across a vacuum.
    d.bdd_nodes = bdd_nodes - earlier.bdd_nodes;
    d.bdd_vacuums = bdd_vacuums - earlier.bdd_vacuums;
    d.disjoint_dag_statements =
        disjoint_dag_statements - earlier.disjoint_dag_statements;
    d.disjoint_wildcard_tests =
        disjoint_wildcard_tests - earlier.disjoint_wildcard_tests;
    return d;
}

// ---------------------------------------------------------------------------
// Construction

Engine::Engine(const ir::Policy& policy, const topo::Topology& topo,
               Compile_options options)
    : topo_(topo),
      options_(std::move(options)),
      addressing_(topo_),
      switch_graph_(make_switch_graph(topo_)),
      full_alphabet_(make_alphabet(topo_)),
      jobs_(util::resolve_jobs(options_.jobs)) {
    preprocess(policy);
    const auto lp_start = Clock::now();
    rebuild_requests();
    timing_.lp_construction_ms = ms_since(lp_start);
    const auto solve_start = Clock::now();
    solve_provisioning();
    timing_.lp_solve_ms = ms_since(solve_start);
    publish();
    sync_pred_stats();
}

void Engine::sync_pred_stats() {
    totals_.predicate_compiles = analyzer_.compile_count();
    totals_.predicate_cache_hits = analyzer_.compile_hit_count();
    totals_.bdd_applies = analyzer_.bdd_apply_count();
    totals_.bdd_nodes =
        static_cast<long long>(analyzer_.manager().node_count());
    totals_.bdd_vacuums = analyzer_.vacuum_count();
}

void Engine::preprocess(const ir::Policy& policy) {
    const auto start = Clock::now();
    // ---- Localization and rate extraction (Section 3.1).
    const ir::FormulaPtr localized =
        presburger::localize(policy.formula, options_.split);
    const presburger::Rate_table rates = presburger::requirements(localized);
    for (const auto& [id, _] : rates.guarantees)
        if (!ir::find_statement(policy, id))
            throw Policy_error("formula references unknown statement '" + id +
                               "'");
    for (const auto& [id, _] : rates.caps)
        if (!ir::find_statement(policy, id))
            throw Policy_error("formula references unknown statement '" + id +
                               "'");

    for (const ir::Statement& s : policy.statements) {
        Entry e;
        e.stmt = s;
        e.path_text = ir::to_string(s.path);
        e.guarantee = rates.guarantee_of(s.id);
        if (rates.has_cap(s.id)) e.cap = rates.caps.at(s.id);
        const auto ep = addressing_.endpoints(s.predicate);
        e.src_host = ep.src;
        e.dst_host = ep.dst;
        entries_.push_back(std::move(e));
    }

    // ---- Pre-processor requirements (Section 2.1).
    if (options_.check_disjoint) check_disjoint_all();
    timing_.preprocess_ms = ms_since(start);
}

void Engine::check_disjoint_all() {
    std::vector<ir::PredPtr> preds;
    preds.reserve(entries_.size());
    for (const Entry& e : entries_) preds.push_back(e.stmt.predicate);
    const pred::Overlaps found = pred::overlapping_pairs(analyzer_, preds);
    note_disjoint_work(found);
    if (found.pairs.empty()) return;
    const auto [i, j] = found.pairs.front();
    throw Policy_error("statements '" + entries_[i].stmt.id + "' and '" +
                       entries_[j].stmt.id + "' have overlapping predicates");
}

void Engine::check_disjoint_against(const Entry& fresh) {
    std::vector<ir::PredPtr> preds;
    preds.reserve(entries_.size() + 1);
    for (const Entry& e : entries_) preds.push_back(e.stmt.predicate);
    preds.push_back(fresh.stmt.predicate);
    const pred::Overlaps found =
        pred::overlapping_pairs_with(analyzer_, preds, entries_.size());
    note_disjoint_work(found);
    if (found.pairs.empty()) return;
    throw Policy_error("statements '" +
                       entries_[found.pairs.front().first].stmt.id +
                       "' and '" + fresh.stmt.id +
                       "' have overlapping predicates");
}

void Engine::note_disjoint_work(const pred::Overlaps& found) {
    totals_.disjoint_dag_statements +=
        static_cast<long long>(found.dag_predicates);
    totals_.disjoint_wildcard_tests +=
        static_cast<long long>(found.wildcard_tests);
}

// ---------------------------------------------------------------------------
// Guaranteed world

void Engine::ensure_guaranteed_nfas() {
    std::vector<const std::string*> miss_texts;
    std::vector<const ir::PathPtr*> miss_paths;
    std::unordered_map<std::string, std::size_t> queued;
    for (const Entry& e : entries_) {
        if (!e.guaranteed()) continue;
        if (full_nfas_.contains(e.path_text)) {
            ++totals_.automata_cache_hits;
            continue;
        }
        const auto [it, inserted] =
            queued.try_emplace(e.path_text, miss_paths.size());
        if (!inserted) continue;
        miss_texts.push_back(&e.path_text);
        miss_paths.push_back(&e.stmt.path);
    }
    if (miss_paths.empty()) return;
    Nfa_set built = build_nfa_set(
        miss_paths, full_alphabet_,
        [this](int n, auto&& fn) { parallel_for(n, fn); });
    // Deterministic error propagation: rethrow for the first guaranteed
    // statement (in policy order) whose expression failed, as the batch
    // compiler did. Successful builds are interned first so a later retry
    // does not repeat them.
    for (std::size_t i = 0; i < miss_paths.size(); ++i) {
        if (built.errors[i]) continue;
        full_nfas_.emplace(*miss_texts[i], std::move(built.nfas[i]));
        ++totals_.automata_built;
    }
    for (const Entry& e : entries_) {
        if (!e.guaranteed()) continue;
        const auto it = queued.find(e.path_text);
        if (it != queued.end() && built.errors[it->second])
            std::rethrow_exception(built.errors[it->second]);
    }
}

Guaranteed_request Engine::make_request(const Entry& entry) {
    Guaranteed_request request;
    request.id = entry.stmt.id;
    request.rate = entry.guarantee;
    request.logical = build_logical(topo_, full_nfas_.at(entry.path_text),
                                    entry.src_host, entry.dst_host);
    ++totals_.logical_builds;
    return request;
}

void Engine::rebuild_requests() {
    ensure_guaranteed_nfas();
    request_entry_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].guaranteed()) request_entry_.push_back(i);
    requests_.assign(request_entry_.size(), {});
    parallel_for(static_cast<int>(request_entry_.size()), [&](int r) {
        const Entry& entry = entries_[request_entry_[
            static_cast<std::size_t>(r)]];
        Guaranteed_request& request = requests_[static_cast<std::size_t>(r)];
        request.id = entry.stmt.id;
        request.rate = entry.guarantee;
        request.logical = build_logical(topo_, full_nfas_.at(entry.path_text),
                                        entry.src_host, entry.dst_host);
    });
    totals_.logical_builds += static_cast<long long>(requests_.size());
    skeleton_valid_ = false;
}

bool Engine::mip_selected() const {
    return options_.solver == Solver::mip ||
           (options_.solver == Solver::auto_select &&
            static_cast<int>(requests_.size()) <= options_.auto_mip_limit);
}

bool Engine::solve_provisioning() {
    provision_ = {};
    if (requests_.empty()) return false;
    for (const Guaranteed_request& r : requests_)
        if (!r.logical.solvable()) return false;  // publish() reports it

    bool warm_used = false;
    if (mip_selected() && options_.solver_mode != Solver_mode::full) {
        // Column generation / sharding re-derive their columns from the
        // current requests on every solve and carry an optimality
        // certificate (with a full-encoding fallback). The skeleton fast
        // paths stay dormant (skeleton_valid_ false) under these modes.
        skeleton_valid_ = false;
        provision_ =
            options_.solver_mode == Solver_mode::colgen
                ? provision_colgen(topo_, requests_, options_.heuristic,
                                   options_.mip)
                : provision_sharded(topo_, requests_, options_.heuristic,
                                    options_.mip, options_.jobs);
    } else if (mip_selected()) {
        if (!skeleton_valid_) {
            skeleton_ =
                encode_provisioning(topo_, requests_, options_.heuristic);
            skeleton_valid_ = true;
            ++totals_.lp_encodings;
        }
        provision_ =
            solve_encoding(topo_, requests_, skeleton_, options_.mip);
        warm_used = std::string_view(provision_.root_start) == "crash";
    }
    // Greedy runs when selected, when auto-selected past the MIP size
    // limit, or as the fallback for a truncated (unproven) MIP failure.
    if (options_.solver == Solver::greedy ||
        (options_.solver == Solver::auto_select && !provision_.feasible &&
         !provision_.proven_infeasible))
        provision_ = provision_greedy(topo_, requests_, options_.heuristic);
    ++totals_.solves;
    if (warm_used) ++totals_.warm_started_solves;
    return warm_used;
}

// ---------------------------------------------------------------------------
// Publication: current_ mirrors what compile() would produce, stage by
// stage, including the early returns.

void Engine::publish() {
    Compilation out;
    out.addressing = addressing_;
    out.switch_graph = switch_graph_;
    out.threads_used = jobs_;
    out.timing = timing_;

    // ---- Per-statement plans.
    out.plans.reserve(entries_.size() + 1);
    for (const Entry& e : entries_) {
        Statement_plan plan;
        plan.statement = e.stmt;
        plan.guarantee = e.guarantee;
        plan.cap = e.cap;
        plan.src_host = e.src_host;
        plan.dst_host = e.dst_host;
        out.plans.push_back(std::move(plan));
    }
    if (options_.add_default_statement) {
        // Totality: route everything not matched elsewhere as plain
        // best-effort traffic along `.*` paths.
        ir::PredPtr rest = ir::pred_true();
        for (const Entry& e : entries_)
            rest = ir::pred_and(rest, ir::pred_not(e.stmt.predicate));
        Statement_plan plan;
        plan.statement =
            ir::Statement{"__default", rest, ir::path_any_star()};
        out.plans.push_back(std::move(plan));
    }

    // ---- Guaranteed statements.
    for (std::size_t r = 0; r < requests_.size(); ++r) {
        if (requests_[r].logical.solvable()) continue;
        out.diagnostic = "statement '" + requests_[r].id +
                         "': no path satisfies its expression";
        current_ = std::move(out);
        return;
    }
    if (!requests_.empty()) {
        out.provision = provision_;
        if (!provision_.feasible) {
            if (!provision_.proven_infeasible)
                out.diagnostic =
                    "provisioning failed (guarantees may be too tight for "
                    "the selected solver)";
            else if (!provision_.diagnostic.empty())
                out.diagnostic = provision_.diagnostic;  // names its cause
            else
                out.diagnostic =
                    "bandwidth guarantees are not satisfiable on this "
                    "topology";
            current_ = std::move(out);
            return;
        }
        for (std::size_t r = 0; r < provision_.paths.size(); ++r)
            out.plans[request_entry_[r]].path = provision_.paths[r];
    }

    // ---- Best-effort statements: shared sink trees (Section 3.3).
    const auto rateless_start = Clock::now();
    const ir::PathPtr default_path = ir::path_any_star();
    const std::string default_text = ir::to_string(default_path);
    const auto text_of = [&](std::size_t plan) -> const std::string& {
        return plan < entries_.size() ? entries_[plan].path_text
                                      : default_text;
    };
    const auto path_of = [&](std::size_t plan) -> const ir::PathPtr& {
        return plan < entries_.size() ? entries_[plan].stmt.path
                                      : default_path;
    };
    // Pass 1 (order-defining): assign class ids by first appearance of each
    // distinct path expression.
    std::unordered_map<std::string, int> class_of;
    std::vector<std::size_t> class_rep;  // class id -> representative plan
    for (std::size_t i = 0; i < out.plans.size(); ++i) {
        Statement_plan& plan = out.plans[i];
        if (plan.guaranteed()) continue;
        const auto [it, inserted] = class_of.try_emplace(
            text_of(i), static_cast<int>(class_rep.size()));
        plan.path_class = it->second;
        if (inserted) class_rep.push_back(i);
    }
    // Default NFAs until interned, matching the batch compiler's state at
    // its host-error early return.
    out.class_nfas.assign(class_rep.size(), {});

    // Pass 2: intern missing class NFAs (and their emptiness) in parallel.
    {
        std::vector<std::size_t> missing;  // class ids to build
        for (std::size_t c = 0; c < class_rep.size(); ++c) {
            if (switch_nfas_.contains(text_of(class_rep[c])))
                ++totals_.automata_cache_hits;
            else
                missing.push_back(c);
        }
        if (!missing.empty()) {
            std::vector<const ir::PathPtr*> paths;
            paths.reserve(missing.size());
            for (std::size_t c : missing)
                paths.push_back(&path_of(class_rep[c]));
            Nfa_set built = build_nfa_set(
                paths, switch_graph_.alphabet,
                [this](int n, auto&& fn) { parallel_for(n, fn); });
            std::vector<Switch_nfa> interned(missing.size());
            parallel_for(
                static_cast<int>(missing.size()), [&](int u) {
                    const auto i = static_cast<std::size_t>(u);
                    if (built.errors[i]) return;
                    interned[i].nfa = std::move(built.nfas[i]);
                    interned[i].empty = automata::is_empty(interned[i].nfa);
                });
            for (std::size_t i = 0; i < missing.size(); ++i) {
                if (built.errors[i]) {
                    // A Policy_error (the expression mentions a host-only
                    // location) becomes a cached failure and, below, the
                    // compilation diagnostic; anything else propagates, as
                    // the batch compiler's rethrow did.
                    try {
                        std::rethrow_exception(built.errors[i]);
                    } catch (const Policy_error&) {
                        Switch_nfa failed;
                        failed.host_error = true;
                        switch_nfas_.emplace(text_of(class_rep[missing[i]]),
                                             std::move(failed));
                    }
                    continue;
                }
                switch_nfas_.emplace(text_of(class_rep[missing[i]]),
                                     std::move(interned[i]));
                ++totals_.automata_built;
            }
        }
    }
    // Deterministic diagnostics: the first plan (in policy order) whose
    // class cannot serve best-effort traffic.
    for (std::size_t i = 0; i < out.plans.size(); ++i) {
        const Statement_plan& plan = out.plans[i];
        if (plan.guaranteed()) continue;
        if (!switch_nfas_.at(text_of(i)).host_error) continue;
        out.diagnostic =
            "statement '" + plan.statement.id +
            "': best-effort path expressions may only mention "
            "switches, middleboxes, and functions placed on them";
        current_ = std::move(out);
        return;
    }
    for (std::size_t c = 0; c < class_rep.size(); ++c)
        out.class_nfas[c] = switch_nfas_.at(text_of(class_rep[c])).nfa;
    // Empty-language classes drop their traffic at the edge.
    for (std::size_t i = 0; i < out.plans.size(); ++i) {
        if (out.plans[i].guaranteed()) continue;
        out.plans[i].drop = switch_nfas_.at(text_of(i)).empty;
    }

    // Egress switches needed per class. The all-egress set (switches with at
    // least one attached live host) is shared by every unpinned
    // destination, so it is computed once. Failed links attach nothing.
    std::set<std::pair<int, int>> needed;
    std::vector<int> all_egress;
    bool all_egress_ready = false;
    for (const Statement_plan& plan : out.plans) {
        if (plan.guaranteed() || plan.drop) continue;
        if (plan.dst_host) {
            for (const auto& adj : topo_.neighbors(*plan.dst_host)) {
                if (!topo_.link_up(adj.link)) continue;
                const int egress =
                    switch_graph_
                        .symbol_of[static_cast<std::size_t>(adj.node)];
                if (egress >= 0) needed.emplace(plan.path_class, egress);
            }
        } else {
            if (!all_egress_ready) {
                for (topo::NodeId h : topo_.hosts())
                    for (const auto& adj : topo_.neighbors(h)) {
                        if (!topo_.link_up(adj.link)) continue;
                        const int egress = switch_graph_.symbol_of[
                            static_cast<std::size_t>(adj.node)];
                        if (egress >= 0) all_egress.push_back(egress);
                    }
                std::sort(all_egress.begin(), all_egress.end());
                all_egress.erase(
                    std::unique(all_egress.begin(), all_egress.end()),
                    all_egress.end());
                all_egress_ready = true;
            }
            for (const int egress : all_egress)
                needed.emplace(plan.path_class, egress);
        }
    }
    // One sink tree per (class, egress): cache misses build in parallel
    // into slots ordered by the (sorted) key set, then everything is
    // published in that same order.
    {
        std::vector<std::pair<int, int>> miss_keys;
        for (const auto& [cls, egress] : needed) {
            const auto key = std::pair(
                text_of(class_rep[static_cast<std::size_t>(cls)]), egress);
            if (tree_cache_.contains(key))
                ++totals_.tree_cache_hits;
            else
                miss_keys.emplace_back(cls, egress);
        }
        std::vector<Sink_tree> built(miss_keys.size());
        parallel_for(static_cast<int>(miss_keys.size()), [&](int i) {
            const auto [cls, egress] = miss_keys[static_cast<std::size_t>(i)];
            built[static_cast<std::size_t>(i)] = build_sink_tree(
                switch_graph_,
                out.class_nfas[static_cast<std::size_t>(cls)], egress);
        });
        for (std::size_t i = 0; i < miss_keys.size(); ++i) {
            const auto [cls, egress] = miss_keys[i];
            tree_cache_.emplace(
                std::pair(text_of(class_rep[static_cast<std::size_t>(cls)]),
                          egress),
                std::move(built[i]));
            ++totals_.trees_built;
        }
    }
    for (const auto& [cls, egress] : needed)
        out.trees.emplace(
            std::pair(cls, egress),
            tree_cache_.at(std::pair(
                text_of(class_rep[static_cast<std::size_t>(cls)]), egress)));

    // Reject best-effort statements whose pinned endpoints cannot be served.
    for (const Statement_plan& plan : out.plans) {
        if (plan.guaranteed() || plan.drop || !plan.dst_host ||
            !plan.src_host)
            continue;
        const auto& nfa =
            out.class_nfas[static_cast<std::size_t>(plan.path_class)];
        bool served = false;
        for (const auto& in : topo_.neighbors(*plan.src_host)) {
            if (!topo_.link_up(in.link)) continue;
            const int ingress =
                switch_graph_.symbol_of[static_cast<std::size_t>(in.node)];
            if (ingress < 0) continue;
            for (const auto& adj : topo_.neighbors(*plan.dst_host)) {
                if (!topo_.link_up(adj.link)) continue;
                const int egress =
                    switch_graph_
                        .symbol_of[static_cast<std::size_t>(adj.node)];
                if (egress < 0) continue;
                const Sink_tree* tree = out.tree_for(plan.path_class, egress);
                if (tree && tree->entry_state(nfa, ingress)) served = true;
            }
        }
        if (!served) {
            out.diagnostic = "statement '" + plan.statement.id +
                             "': no switch-level path satisfies its "
                             "expression between its endpoints";
            out.timing.rateless_ms = ms_since(rateless_start);
            timing_.rateless_ms = out.timing.rateless_ms;
            current_ = std::move(out);
            return;
        }
    }
    out.timing.rateless_ms = ms_since(rateless_start);
    timing_.rateless_ms = out.timing.rateless_ms;

    out.feasible = true;
    current_ = std::move(out);
}

void Engine::publish_bandwidth(std::size_t index) {
    // Stage every throwing copy first, then install with noexcept moves:
    // an allocation failure must not leave current_ half-updated (the
    // delta ops' strong exception guarantee leans on this).
    Provision_result provision_copy;
    std::vector<Provisioned_path> paths_copy;
    if (!requests_.empty()) {
        provision_copy = provision_;
        paths_copy = provision_.paths;
    }
    Statement_plan& plan = current_.plans[index];
    plan.guarantee = entries_[index].guarantee;
    plan.cap = entries_[index].cap;
    if (requests_.empty()) return;
    current_.provision = std::move(provision_copy);
    for (std::size_t r = 0; r < paths_copy.size(); ++r)
        current_.plans[request_entry_[r]].path = std::move(paths_copy[r]);
}

// ---------------------------------------------------------------------------
// Delta operations

std::size_t Engine::entry_index(const std::string& id) const {
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].stmt.id == id) return i;
    throw Policy_error("unknown statement '" + id + "'");
}

std::size_t Engine::request_of_entry(std::size_t index) const {
    const auto it = std::lower_bound(request_entry_.begin(),
                                     request_entry_.end(), index);
    expects(it != request_entry_.end() && *it == index,
            "entry has no provisioning request");
    return static_cast<std::size_t>(it - request_entry_.begin());
}

Update_result Engine::finish_update(const char* kind,
                                    Clock::time_point start,
                                    const Engine_stats& before,
                                    bool solver_run, bool warm_started) {
    ++totals_.incremental_updates;
    // Delta boundary: no bdd::Node handles are held across this point, so
    // it is the one safe place to bound the predicate space of a
    // long-running engine (dead unique-table entries from retired
    // statements are unreclaimable individually).
    analyzer_.vacuum_if_above(kBddVacuumNodeLimit);
    sync_pred_stats();
    Update_result out;
    out.kind = kind;
    out.feasible = current_.feasible;
    out.diagnostic = current_.diagnostic;
    out.solver_run = solver_run;
    out.warm_started = warm_started;
    out.work = totals_.since(before);
    out.ms = ms_since(start);
    // Every delta path funnels through here exactly once, so this is the
    // one publication point delta-aware consumers observe.
    ++generation_;
    if (publish_hook_) publish_hook_(current_, topo_);
    return out;
}

void Engine::on_publish(Publish_hook hook) {
    publish_hook_ = std::move(hook);
    if (publish_hook_) publish_hook_(current_, topo_);
}

Update_result Engine::add_statement(const ir::Statement& statement,
                                    Bandwidth guarantee,
                                    std::optional<Bandwidth> cap) {
    const auto start = Clock::now();
    const Engine_stats before = totals_;
    for (const Entry& e : entries_)
        if (e.stmt.id == statement.id)
            throw Policy_error("duplicate statement '" + statement.id + "'");
    if (cap && guarantee.bps() > cap->bps())
        throw Policy_error("statement '" + statement.id +
                           "': guarantee exceeds cap");

    Entry fresh;
    fresh.stmt = statement;
    fresh.path_text = ir::to_string(statement.path);
    fresh.guarantee = guarantee;
    fresh.cap = cap;
    const auto ep = addressing_.endpoints(statement.predicate);
    fresh.src_host = ep.src;
    fresh.dst_host = ep.dst;
    if (options_.check_disjoint) check_disjoint_against(fresh);

    // Everything above only validates; everything below mutates under the
    // guard, so any throw (an unresolvable path expression, a rethrown NFA
    // build failure inside publish) rewinds to exactly the pre-delta state.
    Delta_guard guard(*this);
    bool solver_run = false;
    if (fresh.guaranteed()) {
        entries_.push_back(std::move(fresh));
        ensure_guaranteed_nfas();
        requests_.push_back(make_request(entries_.back()));
        request_entry_.push_back(entries_.size() - 1);
        skeleton_valid_ = false;
        solver_run = true;
        solve_provisioning();
    } else {
        entries_.push_back(std::move(fresh));
    }
    publish();
    guard.commit();
    return finish_update("add_statement", start, before, solver_run, false);
}

Update_result Engine::remove_statement(const std::string& id) {
    const auto start = Clock::now();
    const Engine_stats before = totals_;
    const std::size_t index = entry_index(id);
    const bool was_guaranteed = entries_[index].guaranteed();

    Delta_guard guard(*this);
    bool solver_run = false;
    if (was_guaranteed) {
        const std::size_t r = request_of_entry(index);
        requests_.erase(requests_.begin() + static_cast<std::ptrdiff_t>(r));
        request_entry_.erase(request_entry_.begin() +
                             static_cast<std::ptrdiff_t>(r));
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
    for (std::size_t& e : request_entry_)
        if (e > index) --e;
    if (was_guaranteed) {
        skeleton_valid_ = false;
        solver_run = !requests_.empty();
        solve_provisioning();
    }
    publish();
    guard.commit();
    return finish_update("remove_statement", start, before, solver_run,
                         false);
}

Update_result Engine::set_bandwidth(const std::string& id,
                                    Bandwidth guarantee,
                                    std::optional<Bandwidth> cap) {
    const auto start = Clock::now();
    const Engine_stats before = totals_;
    const std::size_t index = entry_index(id);
    if (cap && guarantee.bps() > cap->bps())
        throw Policy_error("statement '" + id + "': guarantee exceeds cap");
    Entry& entry = entries_[index];
    const Bandwidth old = entry.guarantee;
    const std::optional<Bandwidth> old_cap = entry.cap;

    if (old == guarantee) {
        // Cap-only (or no-op) change: no re-provisioning at all — caps are
        // enforced by rate limiters, not by the path solver.
        entry.cap = cap;
        try {
            publish_bandwidth(index);
        } catch (...) {
            entry.cap = old_cap;
            throw;
        }
        return finish_update("set_bandwidth", start, before, false, false);
    }

    bool solver_run = true;
    bool warm = false;
    const bool was_feasible = current_.feasible;
    if (old.bps() > 0 && guarantee.bps() > 0) {
        // The paper's fast path ("changes to bandwidth allocations do not
        // require recompilation"): patch the live encoding and re-solve it.
        // No automata, logical-topology, sink-tree or re-encoding work —
        // and no Delta_guard state capture either; the three mutated
        // scalars roll back by hand and the patched skeleton is dropped,
        // preserving the strong guarantee at fast-path cost.
        const std::size_t r = request_of_entry(index);
        Provision_result saved_provision = provision_;
        try {
            entry.cap = cap;
            entry.guarantee = guarantee;
            requests_[r].rate = guarantee;
            if (mip_selected() && skeleton_valid_) {
                patch_request_rate(skeleton_, topo_, requests_, r);
                ++totals_.lp_patches;
            }
            warm = solve_provisioning();
            if (was_feasible && provision_.feasible)
                publish_bandwidth(index);
            else
                publish();
        } catch (...) {
            entry.guarantee = old;
            entry.cap = old_cap;
            requests_[r].rate = old;
            provision_ = std::move(saved_provision);
            skeleton_valid_ = false;
            throw;
        }
    } else if (guarantee.bps() > 0) {
        // Promotion: the statement leaves the best-effort world and gains a
        // provisioning request — a structural change to the encoding.
        Delta_guard guard(*this);
        entry.cap = cap;
        entry.guarantee = guarantee;
        std::size_t r = 0;
        for (std::size_t i = 0; i < index; ++i)
            if (entries_[i].guaranteed()) ++r;
        ensure_guaranteed_nfas();
        requests_.insert(requests_.begin() + static_cast<std::ptrdiff_t>(r),
                         make_request(entry));
        request_entry_.insert(
            request_entry_.begin() + static_cast<std::ptrdiff_t>(r), index);
        skeleton_valid_ = false;
        solve_provisioning();
        publish();
        guard.commit();
    } else {
        // Demotion to best-effort.
        Delta_guard guard(*this);
        const std::size_t r = request_of_entry(index);
        entry.cap = cap;
        entry.guarantee = guarantee;
        requests_.erase(requests_.begin() + static_cast<std::ptrdiff_t>(r));
        request_entry_.erase(request_entry_.begin() +
                             static_cast<std::ptrdiff_t>(r));
        skeleton_valid_ = false;
        solver_run = !requests_.empty();
        solve_provisioning();
        publish();
        guard.commit();
    }
    return finish_update("set_bandwidth", start, before, solver_run, warm);
}

Update_result Engine::set_link_state(topo::LinkId link, bool up,
                                     const char* kind) {
    const auto start = Clock::now();
    const Engine_stats before = totals_;
    if (link < 0 || link >= topo_.link_count())
        throw Topology_error("unknown link id");
    if (topo_.link_up(link) == up)
        return finish_update(kind, start, before, false, false);
    Delta_guard guard(*this);
    topo_.set_link_state(link, up);

    bool solver_run = false;
    bool warm = false;
    if (!requests_.empty()) {
        solver_run = true;
        // The encoding's shape is link-state independent: flipping a link
        // is a pure bound patch.
        if (mip_selected() && skeleton_valid_)
            totals_.lp_patches +=
                patch_link_state(skeleton_, topo_, requests_, link);
        warm = solve_provisioning();
    }
    // Sink trees route over live links only: the switch graph changed, so
    // every cached tree is stale. The class NFAs are not (the alphabet is
    // node-based), and publish() rebuilds exactly the needed trees.
    switch_graph_ = make_switch_graph(topo_);
    tree_cache_.clear();
    publish();
    guard.commit();
    return finish_update(kind, start, before, solver_run, warm);
}

Update_result Engine::fail_link(topo::LinkId link) {
    return set_link_state(link, false, "fail_link");
}

Update_result Engine::restore_link(topo::LinkId link) {
    return set_link_state(link, true, "restore_link");
}

Update_result Engine::fail_link(const std::string& a, const std::string& b) {
    const auto link = topo_.link_between(topo_.require(a), topo_.require(b));
    if (!link) throw Topology_error("no link between " + a + " and " + b);
    return fail_link(*link);
}

Update_result Engine::restore_link(const std::string& a,
                                   const std::string& b) {
    const auto link = topo_.link_between(topo_.require(a), topo_.require(b));
    if (!link) throw Topology_error("no link between " + a + " and " + b);
    return restore_link(*link);
}

Update_result Engine::recompile() {
    const auto start = Clock::now();
    const Engine_stats before = totals_;
    Delta_guard guard(*this);
    const auto lp_start = Clock::now();
    rebuild_requests();
    timing_.lp_construction_ms = ms_since(lp_start);
    const auto solve_start = Clock::now();
    solve_provisioning();
    timing_.lp_solve_ms = ms_since(solve_start);
    publish();
    guard.commit();
    return finish_update("recompile", start, before, !requests_.empty(),
                         false);
}

// ---------------------------------------------------------------------------
// Introspection

ir::Policy Engine::policy() const {
    ir::Policy out;
    out.statements.reserve(entries_.size());
    ir::FormulaPtr formula;
    const auto conjoin = [&formula](ir::FormulaPtr leaf) {
        formula = formula ? ir::formula_and(formula, std::move(leaf))
                          : std::move(leaf);
    };
    for (const Entry& e : entries_) {
        out.statements.push_back(e.stmt);
        if (e.guaranteed()) {
            ir::Term t;
            t.ids.push_back(e.stmt.id);
            conjoin(ir::formula_min(std::move(t), e.guarantee));
        }
        if (e.cap) {
            ir::Term t;
            t.ids.push_back(e.stmt.id);
            conjoin(ir::formula_max(std::move(t), *e.cap));
        }
    }
    out.formula = formula;
    return out;
}

bool Engine::has_statement(const std::string& id) const {
    for (const Entry& e : entries_)
        if (e.stmt.id == id) return true;
    return false;
}

Bandwidth Engine::guarantee_of(const std::string& id) const {
    return entries_[entry_index(id)].guarantee;
}

std::optional<Bandwidth> Engine::cap_of(const std::string& id) const {
    return entries_[entry_index(id)].cap;
}

}  // namespace merlin::core
