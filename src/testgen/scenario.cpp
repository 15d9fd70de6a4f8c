// Scenario construction: topology specs, policy/trace generation, the
// shared delta model, and the repro-file serialization.
#include "testgen/testgen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/addressing.h"
#include "negotiator/negotiator.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "util/error.h"
#include "util/strings.h"

namespace merlin::testgen {

namespace {

// The packet-processing functions middlebox grafts register, round-robin.
const char* const kFunctions[] = {"dpi", "nat", "log"};

// parse_whole_int with a contextual diagnostic.
std::int64_t parse_int(const std::string& text, const char* what) {
    const auto value = parse_whole_int(text);
    if (!value) throw Error(std::string("malformed ") + what + ": " + text);
    return *value;
}

std::uint64_t parse_u64(const std::string& text, const char* what) {
    const std::int64_t value = parse_int(text, what);
    if (value < 0) throw Error(std::string("negative ") + what + ": " + text);
    return static_cast<std::uint64_t>(value);
}

// splitmix64: decorrelates per-iteration seeds drawn from a base seed.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

const char* to_string(Delta_kind kind) {
    switch (kind) {
        case Delta_kind::set_bandwidth: return "bandwidth";
        case Delta_kind::add_statement: return "add";
        case Delta_kind::remove_statement: return "remove";
        case Delta_kind::fail_link: return "fail";
        case Delta_kind::restore_link: return "restore";
        case Delta_kind::redistribute: return "redistribute";
    }
    return "?";
}

topo::Topology make_topology(const Scenario& scenario) {
    topo::Topology t = topo::from_spec(scenario.topo_spec);
    if (scenario.middleboxes <= 0) return t;
    // Middlebox grafts are drawn from the scenario seed alone, so the
    // topology is a pure function of (spec, seed, middleboxes).
    Rng rng(mix(scenario.seed ^ 0x6d62ULL));  // "mb"
    const std::vector<topo::NodeId> switches = t.switches();
    for (int m = 0; m < scenario.middleboxes; ++m) {
        const topo::NodeId mb = t.add_middlebox(indexed("m", m));
        const auto first = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(switches.size()) - 1));
        t.add_link(mb, switches[first], gbps(1));
        if (switches.size() > 1 && rng.chance(0.5)) {
            auto second = static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(switches.size()) - 1));
            if (second == first) second = (second + 1) % switches.size();
            t.add_link(mb, switches[second], gbps(1));
        }
        t.allow_function(kFunctions[m % 3], mb);
    }
    return t;
}

ir::Policy make_policy(const std::vector<Statement_spec>& statements) {
    ir::Policy policy;
    ir::FormulaPtr formula;
    const auto conjoin = [&formula](ir::FormulaPtr leaf) {
        formula = formula ? ir::formula_and(formula, std::move(leaf))
                          : std::move(leaf);
    };
    for (const Statement_spec& spec : statements) {
        policy.statements.push_back(spec.stmt);
        if (spec.guaranteed()) {
            ir::Term term;
            term.ids.push_back(spec.stmt.id);
            conjoin(ir::formula_min(std::move(term), spec.guarantee));
        }
        if (spec.cap) {
            ir::Term term;
            term.ids.push_back(spec.stmt.id);
            conjoin(ir::formula_max(std::move(term), *spec.cap));
        }
    }
    policy.formula = formula;
    return policy;
}

ir::Policy initial_policy(const Scenario& scenario) {
    return make_policy(scenario.statements);
}

// ----------------------------------------------------------------- generator

namespace {

// Tracks which (src, dst) host pairs carry statements, so generated
// predicates stay pairwise disjoint: a pair is either owned by one plain
// pair-predicate statement, or by a family of tcp.dst-refined statements
// with distinct ports.
struct Pair_pool {
    std::set<std::pair<topo::NodeId, topo::NodeId>> plain;
    std::map<std::pair<topo::NodeId, topo::NodeId>, std::set<int>> refined;

    [[nodiscard]] bool taken(topo::NodeId a, topo::NodeId b) const {
        return plain.contains({a, b}) || refined.contains({a, b});
    }
};

struct Draw_context {
    const topo::Topology& topo;
    const core::Addressing& addressing;
    std::vector<topo::NodeId> hosts;
    std::vector<std::string> switch_names;
    std::vector<std::string> function_names;
    const Gen_options& options;
    Pair_pool pairs;
    Rng& rng;
};

ir::PathPtr draw_path(Draw_context& ctx) {
    // Left-associative `.* <symbol> .*`, matching the parser's own shape so
    // the repro round-trip preserves structure.
    const auto via = [](const std::string& symbol) {
        return ir::path_seq(
            ir::path_seq(ir::path_any_star(), ir::path_symbol(symbol)),
            ir::path_any_star());
    };
    if (!ctx.function_names.empty() &&
        ctx.rng.chance(ctx.options.function_fraction))
        return via(ctx.function_names[static_cast<std::size_t>(ctx.rng.uniform(
            0, static_cast<std::int64_t>(ctx.function_names.size()) - 1))]);
    if (!ctx.switch_names.empty() &&
        ctx.rng.chance(ctx.options.waypoint_fraction))
        return via(ctx.switch_names[static_cast<std::size_t>(ctx.rng.uniform(
            0, static_cast<std::int64_t>(ctx.switch_names.size()) - 1))]);
    return ir::path_any_star();
}

Bandwidth draw_rate(Draw_context& ctx) {
    return Bandwidth(static_cast<std::uint64_t>(
        ctx.rng.uniform(static_cast<std::int64_t>(ctx.options.min_rate.bps()),
                        static_cast<std::int64_t>(ctx.options.max_rate.bps()))));
}

void draw_rates(Draw_context& ctx, Statement_spec& spec) {
    if (ctx.rng.chance(ctx.options.guaranteed_fraction))
        spec.guarantee = draw_rate(ctx);
    if (ctx.rng.chance(ctx.options.cap_fraction))
        spec.cap = spec.guarantee + draw_rate(ctx);
}

// Draws one fresh (src, dst) pair; nullopt when every ordered pair is taken.
std::optional<std::pair<topo::NodeId, topo::NodeId>> draw_pair(
    Draw_context& ctx) {
    const auto n = static_cast<std::int64_t>(ctx.hosts.size());
    if (n < 2) return std::nullopt;
    for (int attempt = 0; attempt < 16; ++attempt) {
        const auto a =
            static_cast<std::size_t>(ctx.rng.uniform(0, n - 1));
        auto b = static_cast<std::size_t>(ctx.rng.uniform(0, n - 2));
        if (b >= a) ++b;
        if (!ctx.pairs.taken(ctx.hosts[a], ctx.hosts[b]))
            return std::pair(ctx.hosts[a], ctx.hosts[b]);
    }
    for (const topo::NodeId a : ctx.hosts)
        for (const topo::NodeId b : ctx.hosts)
            if (a != b && !ctx.pairs.taken(a, b)) return std::pair(a, b);
    return std::nullopt;
}

// Gives back the pair (or, for a tcp.dst-refined statement, the port) a
// statement drawn by draw_statements holds.
void release_pair(Draw_context& ctx, const ir::PredPtr& predicate) {
    const core::Addressing::Endpoints ends =
        ctx.addressing.endpoints(predicate);
    if (!ends.src || !ends.dst) return;
    const std::pair pair(*ends.src, *ends.dst);
    if (ctx.pairs.plain.erase(pair) > 0) return;
    const auto refined = ctx.pairs.refined.find(pair);
    if (refined == ctx.pairs.refined.end()) return;
    for (const ir::Pred* test : ir::conjuncts(*predicate))
        if (test->kind == ir::Pred_kind::test && test->field == "tcp.dst")
            refined->second.erase(static_cast<int>(test->value));
    if (refined->second.empty()) ctx.pairs.refined.erase(refined);
}

// Draws the statements for one fresh pair: either a single pair-predicate
// statement, or two tcp.dst-refined ones (disjoint among themselves and
// against every other pair's statements).
std::vector<Statement_spec> draw_statements(Draw_context& ctx,
                                            const std::string& id_prefix,
                                            int& id_counter) {
    std::vector<Statement_spec> out;
    const auto pair = draw_pair(ctx);
    if (!pair) return out;
    const ir::PredPtr pair_pred =
        ctx.addressing.pair_predicate(pair->first, pair->second);
    const bool refine = ctx.rng.chance(ctx.options.refine_fraction);
    if (!refine) {
        ctx.pairs.plain.insert(*pair);
        Statement_spec spec;
        spec.stmt.id = indexed(id_prefix.c_str(), id_counter++);
        spec.stmt.predicate = pair_pred;
        spec.stmt.path = draw_path(ctx);
        draw_rates(ctx, spec);
        out.push_back(std::move(spec));
        return out;
    }
    std::set<int>& ports = ctx.pairs.refined[*pair];
    for (int i = 0; i < 2; ++i) {
        int port = static_cast<int>(ctx.rng.uniform(1, 65535));
        while (ports.contains(port)) port = port % 65535 + 1;
        ports.insert(port);
        Statement_spec spec;
        spec.stmt.id = indexed(id_prefix.c_str(), id_counter++);
        spec.stmt.predicate = ir::pred_and(
            pair_pred,
            ir::pred_test("tcp.dst", static_cast<std::uint64_t>(port)));
        spec.stmt.path = draw_path(ctx);
        draw_rates(ctx, spec);
        out.push_back(std::move(spec));
    }
    return out;
}

// The model both the generator (validity filtering) and the runner
// (reference state) maintain: current statements plus link states, applied
// through apply_delta below so the two never drift.
Statement_spec* find_spec(std::vector<Statement_spec>& statements,
                          const std::string& id) {
    for (Statement_spec& s : statements)
        if (s.stmt.id == id) return &s;
    return nullptr;
}

}  // namespace

bool apply_delta(std::vector<Statement_spec>& statements,
                 topo::Topology& topo, const Delta& delta) {
    switch (delta.kind) {
        case Delta_kind::set_bandwidth: {
            Statement_spec* existing =
                find_spec(statements, delta.stmt.stmt.id);
            if (existing == nullptr) return false;
            if (delta.stmt.cap && *delta.stmt.cap < delta.stmt.guarantee)
                return false;
            existing->guarantee = delta.stmt.guarantee;
            existing->cap = delta.stmt.cap;
            return true;
        }
        case Delta_kind::add_statement: {
            if (find_spec(statements, delta.stmt.stmt.id) != nullptr)
                return false;
            if (delta.stmt.cap && *delta.stmt.cap < delta.stmt.guarantee)
                return false;
            statements.push_back(delta.stmt);
            return true;
        }
        case Delta_kind::remove_statement: {
            const auto it = std::find_if(
                statements.begin(), statements.end(),
                [&](const Statement_spec& s) {
                    return s.stmt.id == delta.stmt.stmt.id;
                });
            if (it == statements.end()) return false;
            statements.erase(it);
            return true;
        }
        case Delta_kind::fail_link:
        case Delta_kind::restore_link: {
            const auto a = topo.find(delta.node_a);
            const auto b = topo.find(delta.node_b);
            if (!a || !b) return false;
            const auto link = topo.link_between(*a, *b);
            if (!link) return false;
            topo.set_link_state(*link, delta.kind == Delta_kind::restore_link);
            return true;
        }
        case Delta_kind::redistribute: {
            // Mirrors negotiator::Negotiator::redistribute: capped
            // statements in policy order share one pool; guarantees are
            // floors (allocated off the top), the excess re-divided
            // max-min fairly by residual demand; unknown/uncapped demands
            // are ignored.
            std::vector<Statement_spec*> capped;
            Bandwidth pool;
            Bandwidth floor_total;
            for (Statement_spec& s : statements)
                if (s.cap) {
                    capped.push_back(&s);
                    pool += *s.cap;
                    floor_total += s.guarantee;
                }
            if (capped.empty()) return false;
            std::vector<Bandwidth> demands(capped.size());
            for (const auto& [id, demand] : delta.demands)
                for (std::size_t i = 0; i < capped.size(); ++i)
                    if (capped[i]->stmt.id == id)
                        demands[i] = demand - capped[i]->guarantee;
            const std::vector<Bandwidth> shares =
                negotiator::max_min_fair(pool - floor_total, demands);
            for (std::size_t i = 0; i < capped.size(); ++i)
                capped[i]->cap = shares[i] + capped[i]->guarantee;
            return true;
        }
    }
    return false;
}

Scenario random_scenario(const Gen_options& options, std::uint64_t seed) {
    Rng rng(mix(seed));
    Scenario scenario;
    scenario.seed = seed;
    scenario.topo_spec = options.topo_specs[static_cast<std::size_t>(
        rng.uniform(0,
                    static_cast<std::int64_t>(options.topo_specs.size()) - 1))];
    scenario.middleboxes = rng.chance(options.middlebox_fraction)
                               ? static_cast<int>(rng.uniform(1, 2))
                               : 0;
    scenario.options.jobs = 1;
    scenario.options.mip.max_nodes = 400;
    {
        const std::int64_t h = rng.uniform(0, 9);
        scenario.options.heuristic =
            h < 6 ? core::Heuristic::weighted_shortest_path
                  : (h < 8 ? core::Heuristic::min_max_ratio
                           : core::Heuristic::min_max_reserved);
        const std::int64_t s = rng.uniform(0, 9);
        scenario.options.solver =
            s < 6 ? core::Solver::auto_select
                  : (s < 8 ? core::Solver::mip : core::Solver::greedy);
        // The solver mode only steers exact (MIP) solves; drawing it for
        // greedy scenarios too is harmless and keeps the stream simple.
        const std::int64_t m = rng.uniform(0, 9);
        scenario.options.solver_mode =
            m < 6 ? core::Solver_mode::full
                  : (m < 8 ? core::Solver_mode::colgen
                           : core::Solver_mode::sharded);
    }

    topo::Topology t = make_topology(scenario);
    const core::Addressing addressing(t);
    Draw_context ctx{t, addressing, t.hosts(), {}, {}, options, {}, rng};
    for (const topo::NodeId s : t.switches())
        ctx.switch_names.push_back(t.node(s).name);
    ctx.function_names = t.function_names();

    int id_counter = 0;
    const auto target =
        static_cast<int>(rng.uniform(1, std::max(1, options.max_statements)));
    while (static_cast<int>(scenario.statements.size()) < target) {
        std::vector<Statement_spec> drawn =
            draw_statements(ctx, "s", id_counter);
        if (drawn.empty()) break;  // every host pair is taken
        for (Statement_spec& spec : drawn)
            scenario.statements.push_back(std::move(spec));
    }

    // Delta trace, validity-filtered against the running model.
    std::vector<Statement_spec> model = scenario.statements;
    const auto delta_count =
        static_cast<int>(rng.uniform(0, std::max(0, options.max_deltas)));
    int add_counter = 0;
    for (int d = 0; d < delta_count; ++d) {
        for (int attempt = 0; attempt < 12; ++attempt) {
            Delta delta;
            const std::int64_t kind = rng.uniform(0, 99);
            if (kind < 30) {
                if (model.empty()) continue;
                const Statement_spec& victim = model[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::int64_t>(model.size()) -
                                       1))];
                delta.kind = Delta_kind::set_bandwidth;
                delta.stmt.stmt.id = victim.stmt.id;
                if (!rng.chance(0.25)) delta.stmt.guarantee = draw_rate(ctx);
                if (rng.chance(0.6))
                    delta.stmt.cap = delta.stmt.guarantee + draw_rate(ctx);
            } else if (kind < 45) {
                std::vector<Statement_spec> drawn =
                    draw_statements(ctx, "a", add_counter);
                if (drawn.empty()) continue;
                delta.kind = Delta_kind::add_statement;
                delta.stmt = drawn.front();
            } else if (kind < 55) {
                if (model.empty()) continue;
                delta.kind = Delta_kind::remove_statement;
                delta.stmt.stmt.id =
                    model[static_cast<std::size_t>(rng.uniform(
                             0, static_cast<std::int64_t>(model.size()) - 1))]
                        .stmt.id;
            } else if (kind < 75) {
                std::vector<topo::LinkId> up;
                std::vector<topo::LinkId> core_up;
                for (topo::LinkId l = 0; l < t.link_count(); ++l) {
                    if (!t.link_up(l)) continue;
                    up.push_back(l);
                    const topo::Link& link = t.link(l);
                    if (t.node(link.a).kind != topo::Node_kind::host &&
                        t.node(link.b).kind != topo::Node_kind::host)
                        core_up.push_back(l);
                }
                if (up.empty()) continue;
                const std::vector<topo::LinkId>& pool =
                    (!core_up.empty() && rng.chance(0.7)) ? core_up : up;
                const topo::Link& link = t.link(pool[static_cast<std::size_t>(
                    rng.uniform(0,
                                static_cast<std::int64_t>(pool.size()) - 1))]);
                delta.kind = Delta_kind::fail_link;
                delta.node_a = t.node(link.a).name;
                delta.node_b = t.node(link.b).name;
            } else if (kind < 88) {
                std::vector<topo::LinkId> down;
                for (topo::LinkId l = 0; l < t.link_count(); ++l)
                    if (!t.link_up(l)) down.push_back(l);
                if (down.empty()) continue;
                const topo::Link& link = t.link(down[static_cast<std::size_t>(
                    rng.uniform(0,
                                static_cast<std::int64_t>(down.size()) - 1))]);
                delta.kind = Delta_kind::restore_link;
                delta.node_a = t.node(link.a).name;
                delta.node_b = t.node(link.b).name;
            } else {
                std::vector<const Statement_spec*> capped;
                for (const Statement_spec& s : model)
                    if (s.cap) capped.push_back(&s);
                if (capped.size() < 2) continue;
                delta.kind = Delta_kind::redistribute;
                for (const Statement_spec* s : capped)
                    if (rng.chance(0.7))
                        delta.demands.emplace_back(
                            s->stmt.id,
                            Bandwidth(static_cast<std::uint64_t>(rng.uniform(
                                0, static_cast<std::int64_t>(
                                       2 * s->cap->bps())))));
                if (delta.demands.empty())
                    delta.demands.emplace_back(capped.front()->stmt.id,
                                               *capped.front()->cap);
            }
            if (!apply_delta(model, t, delta)) continue;
            scenario.deltas.push_back(std::move(delta));
            break;
        }
    }

    // Long-trace mode: hundreds of add/remove cycles over a small recycled
    // pair pool. Each cycle adds one statement, optionally retunes it, then
    // removes it and releases its pair, so sustained churn exercises tag
    // recycling and diff minimality rather than policy growth. When the
    // live statements hold every ordered pair, they are removed first, one
    // recorded delta at a time, until a pair is free to recycle.
    int lt_counter = 0;
    for (int cycle = 0; cycle < options.long_trace_cycles; ++cycle) {
        auto pair = draw_pair(ctx);
        while (!pair && !model.empty()) {
            Delta remove;
            remove.kind = Delta_kind::remove_statement;
            remove.stmt.stmt.id = model.front().stmt.id;
            release_pair(ctx, model.front().stmt.predicate);
            if (!apply_delta(model, t, remove)) break;
            scenario.deltas.push_back(std::move(remove));
            pair = draw_pair(ctx);
        }
        if (!pair) break;
        ctx.pairs.plain.insert(*pair);
        Statement_spec spec;
        spec.stmt.id = indexed("lt", lt_counter++);
        spec.stmt.predicate =
            addressing.pair_predicate(pair->first, pair->second);
        spec.stmt.path = draw_path(ctx);
        draw_rates(ctx, spec);

        Delta add;
        add.kind = Delta_kind::add_statement;
        add.stmt = spec;
        if (apply_delta(model, t, add)) scenario.deltas.push_back(add);

        if (rng.chance(0.5)) {
            Delta tune;
            tune.kind = Delta_kind::set_bandwidth;
            tune.stmt.stmt.id = spec.stmt.id;
            tune.stmt.guarantee = draw_rate(ctx);
            if (rng.chance(0.6))
                tune.stmt.cap = tune.stmt.guarantee + draw_rate(ctx);
            if (apply_delta(model, t, tune))
                scenario.deltas.push_back(std::move(tune));
        }

        Delta remove;
        remove.kind = Delta_kind::remove_statement;
        remove.stmt.stmt.id = spec.stmt.id;
        if (apply_delta(model, t, remove))
            scenario.deltas.push_back(std::move(remove));
        ctx.pairs.plain.erase(*pair);
    }
    return scenario;
}

// ------------------------------------------------------------- serialization

namespace {

std::string rate_field(const std::optional<Bandwidth>& rate) {
    return rate ? std::to_string(rate->bps()) : "-";
}

std::optional<Bandwidth> parse_rate_field(const std::string& text) {
    if (text == "-") return std::nullopt;
    return Bandwidth(parse_u64(text, "rate"));
}

std::string statement_text(const Statement_spec& spec) {
    return "min=" + std::to_string(spec.guarantee.bps()) +
           " cap=" + rate_field(spec.cap) + " " + spec.stmt.id + " : " +
           ir::to_string(spec.stmt.predicate) + " -> " +
           ir::to_string(spec.stmt.path);
}

// Parses "min=<bps> cap=<bps|-> <id> : <pred> -> <path>".
Statement_spec parse_statement_text(const std::string& text) {
    std::istringstream in(text);
    std::string min_token;
    std::string cap_token;
    if (!(in >> min_token >> cap_token) ||
        min_token.rfind("min=", 0) != 0 || cap_token.rfind("cap=", 0) != 0)
        throw Error("malformed statement line: " + text);
    Statement_spec spec;
    spec.guarantee = Bandwidth(parse_u64(min_token.substr(4), "guarantee"));
    spec.cap = parse_rate_field(cap_token.substr(4));
    std::string rest;
    std::getline(in, rest);
    const ir::Policy parsed = parser::parse_policy("[" + rest + "]");
    if (parsed.statements.size() != 1)
        throw Error("statement line must hold exactly one statement: " + text);
    spec.stmt = parsed.statements[0];
    return spec;
}

const char* solver_name(core::Solver solver) {
    switch (solver) {
        case core::Solver::mip: return "mip";
        case core::Solver::greedy: return "greedy";
        case core::Solver::auto_select: return "auto";
    }
    return "?";
}

const char* heuristic_name(core::Heuristic h) {
    switch (h) {
        case core::Heuristic::weighted_shortest_path: return "wsp";
        case core::Heuristic::min_max_ratio: return "mmr";
        case core::Heuristic::min_max_reserved: return "mmres";
    }
    return "?";
}

}  // namespace

std::string format_scenario(const Scenario& scenario) {
    std::ostringstream out;
    out << "merlin-fuzz repro v1\n";
    out << "topology " << scenario.topo_spec << " seed=" << scenario.seed
        << " middleboxes=" << scenario.middleboxes << '\n';
    out << "options solver=" << solver_name(scenario.options.solver)
        << " mode=" << core::to_string(scenario.options.solver_mode)
        << " heuristic=" << heuristic_name(scenario.options.heuristic)
        << " check_disjoint=" << (scenario.options.check_disjoint ? 1 : 0)
        << " default_statement="
        << (scenario.options.add_default_statement ? 1 : 0)
        << " mip_max_nodes=" << scenario.options.mip.max_nodes
        << " mip_warm_start=" << (scenario.options.mip.warm_start ? 1 : 0)
        << " auto_mip_limit=" << scenario.options.auto_mip_limit << '\n';
    for (const Statement_spec& spec : scenario.statements)
        out << "statement " << statement_text(spec) << '\n';
    for (const Delta& delta : scenario.deltas) {
        out << "delta " << to_string(delta.kind);
        switch (delta.kind) {
            case Delta_kind::set_bandwidth:
                out << ' ' << delta.stmt.stmt.id << ' '
                    << delta.stmt.guarantee.bps() << ' '
                    << rate_field(delta.stmt.cap);
                break;
            case Delta_kind::add_statement:
                out << ' ' << statement_text(delta.stmt);
                break;
            case Delta_kind::remove_statement:
                out << ' ' << delta.stmt.stmt.id;
                break;
            case Delta_kind::fail_link:
            case Delta_kind::restore_link:
                out << ' ' << delta.node_a << ' ' << delta.node_b;
                break;
            case Delta_kind::redistribute:
                for (const auto& [id, demand] : delta.demands)
                    out << ' ' << id << '=' << demand.bps();
                break;
        }
        out << '\n';
    }
    for (const daemon::Fault_event& event : scenario.faults.events()) {
        out << "fault " << event.step << ' '
            << daemon::to_string(event.kind);
        if (event.count != 1) out << ' ' << event.count;
        out << '\n';
    }
    return out.str();
}

Scenario parse_scenario(const std::string& text) {
    Scenario scenario;
    bool saw_header = false;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word)) continue;
        if (!saw_header) {
            if (line.rfind("merlin-fuzz repro v1", 0) != 0)
                throw Error("not a merlin-fuzz repro file (missing header)");
            saw_header = true;
            continue;
        }
        if (word == "topology") {
            if (!(tokens >> scenario.topo_spec))
                throw Error("malformed topology line: " + line);
            // Eager validation: a bad spec should fail at parse time, not
            // when the replay first builds the topology.
            (void)topo::from_spec(scenario.topo_spec);
            std::string field;
            while (tokens >> field) {
                if (field.rfind("seed=", 0) == 0)
                    scenario.seed = parse_u64(field.substr(5), "seed");
                else if (field.rfind("middleboxes=", 0) == 0)
                    scenario.middleboxes = static_cast<int>(
                        parse_int(field.substr(12), "middlebox count"));
                else
                    throw Error("unknown topology field: " + field);
            }
        } else if (word == "options") {
            std::string field;
            while (tokens >> field) {
                const auto eq = field.find('=');
                if (eq == std::string::npos)
                    throw Error("malformed options field: " + field);
                const std::string key = field.substr(0, eq);
                const std::string value = field.substr(eq + 1);
                if (key == "solver") {
                    if (value == "mip")
                        scenario.options.solver = core::Solver::mip;
                    else if (value == "greedy")
                        scenario.options.solver = core::Solver::greedy;
                    else if (value == "auto")
                        scenario.options.solver = core::Solver::auto_select;
                    else
                        throw Error("unknown solver: " + value);
                } else if (key == "mode") {
                    // Absent in pre-colgen repro files: defaults to full.
                    if (value == "full")
                        scenario.options.solver_mode = core::Solver_mode::full;
                    else if (value == "colgen")
                        scenario.options.solver_mode =
                            core::Solver_mode::colgen;
                    else if (value == "sharded")
                        scenario.options.solver_mode =
                            core::Solver_mode::sharded;
                    else
                        throw Error("unknown solver mode: " + value);
                } else if (key == "heuristic") {
                    if (value == "wsp")
                        scenario.options.heuristic =
                            core::Heuristic::weighted_shortest_path;
                    else if (value == "mmr")
                        scenario.options.heuristic =
                            core::Heuristic::min_max_ratio;
                    else if (value == "mmres")
                        scenario.options.heuristic =
                            core::Heuristic::min_max_reserved;
                    else
                        throw Error("unknown heuristic: " + value);
                } else if (key == "check_disjoint") {
                    scenario.options.check_disjoint =
                        parse_int(value, "check_disjoint") != 0;
                } else if (key == "default_statement") {
                    scenario.options.add_default_statement =
                        parse_int(value, "default_statement") != 0;
                } else if (key == "mip_max_nodes") {
                    scenario.options.mip.max_nodes =
                        static_cast<int>(parse_int(value, "mip_max_nodes"));
                } else if (key == "mip_warm_start") {
                    scenario.options.mip.warm_start =
                        parse_int(value, "mip_warm_start") != 0;
                } else if (key == "auto_mip_limit") {
                    scenario.options.auto_mip_limit =
                        static_cast<int>(parse_int(value, "auto_mip_limit"));
                } else {
                    throw Error("unknown options field: " + field);
                }
            }
            scenario.options.jobs = 1;
        } else if (word == "statement") {
            std::string rest;
            std::getline(tokens, rest);
            scenario.statements.push_back(parse_statement_text(rest));
        } else if (word == "delta") {
            std::string kind;
            if (!(tokens >> kind))
                throw Error("malformed delta line: " + line);
            Delta delta;
            if (kind == "bandwidth") {
                std::string id;
                std::string guarantee;
                std::string cap;
                if (!(tokens >> id >> guarantee >> cap))
                    throw Error("malformed bandwidth delta: " + line);
                delta.kind = Delta_kind::set_bandwidth;
                delta.stmt.stmt.id = id;
                delta.stmt.guarantee =
                    Bandwidth(parse_u64(guarantee, "guarantee"));
                delta.stmt.cap = parse_rate_field(cap);
            } else if (kind == "add") {
                std::string rest;
                std::getline(tokens, rest);
                delta.kind = Delta_kind::add_statement;
                delta.stmt = parse_statement_text(rest);
            } else if (kind == "remove") {
                delta.kind = Delta_kind::remove_statement;
                if (!(tokens >> delta.stmt.stmt.id))
                    throw Error("malformed remove delta: " + line);
            } else if (kind == "fail" || kind == "restore") {
                delta.kind = kind == "fail" ? Delta_kind::fail_link
                                            : Delta_kind::restore_link;
                if (!(tokens >> delta.node_a >> delta.node_b))
                    throw Error("malformed link delta: " + line);
            } else if (kind == "redistribute") {
                delta.kind = Delta_kind::redistribute;
                std::string field;
                while (tokens >> field) {
                    const auto eq = field.find('=');
                    if (eq == std::string::npos)
                        throw Error("malformed demand: " + field);
                    delta.demands.emplace_back(
                        field.substr(0, eq),
                        Bandwidth(parse_u64(field.substr(eq + 1), "demand")));
                }
                if (delta.demands.empty())
                    throw Error("redistribute needs at least one demand: " +
                                line);
            } else {
                throw Error("unknown delta kind: " + kind);
            }
            scenario.deltas.push_back(std::move(delta));
        } else if (word == "fault") {
            std::string step_text;
            std::string kind_text;
            if (!(tokens >> step_text >> kind_text))
                throw Error("malformed fault line: " + line);
            daemon::Fault_event event;
            event.step = static_cast<int>(parse_int(step_text, "fault step"));
            const auto kind = daemon::parse_fault_kind(kind_text);
            if (!kind) throw Error("unknown fault kind: " + kind_text);
            event.kind = *kind;
            std::string count_text;
            if (tokens >> count_text)
                event.count =
                    static_cast<int>(parse_int(count_text, "fault count"));
            scenario.faults.add(event);
        } else {
            throw Error("unknown repro line: " + line);
        }
    }
    if (!saw_header)
        throw Error("not a merlin-fuzz repro file (missing header)");
    return scenario;
}

}  // namespace merlin::testgen
