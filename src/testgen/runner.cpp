// The scenario runner (a real core::Engine vs the runner's independent
// model, oracles at every step; in daemon mode a daemon::Controller fed
// control lines under an injected fault plan) and the shrinker (bounded
// ddmin over deltas, statements and fault events, keeping only reductions
// that trip the same oracle).
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/logical.h"
#include "daemon/daemon.h"
#include "negotiator/negotiator.h"
#include "testgen/testgen.h"
#include "util/error.h"

namespace merlin::testgen {

std::optional<Run_options::Inject> parse_inject(const std::string& name) {
    if (name == "none") return Run_options::Inject::none;
    if (name == "rate-skew") return Run_options::Inject::rate_skew;
    if (name == "drop-restore") return Run_options::Inject::drop_restore;
    return std::nullopt;
}

namespace {

Run_result invalid(std::string detail, int step) {
    Run_result result;
    result.status = Run_result::Status::invalid;
    result.detail = std::move(detail);
    result.failing_step = step;
    return result;
}

// Applies one delta to the engine, mirroring the runner's model vocabulary.
// Injections mutate what reaches the engine (never the model), simulating a
// bug on that delta path.
void apply_to_engine(core::Engine& engine, const Delta& delta,
                     const std::vector<Statement_spec>& model_before,
                     Run_options::Inject inject) {
    switch (delta.kind) {
        case Delta_kind::set_bandwidth: {
            Bandwidth guarantee = delta.stmt.guarantee;
            if (inject == Run_options::Inject::rate_skew &&
                guarantee.bps() > 0 &&
                (!delta.stmt.cap ||
                 delta.stmt.cap->bps() > guarantee.bps() + 1))
                guarantee += bits_per_sec(1);
            (void)engine.set_bandwidth(delta.stmt.stmt.id, guarantee,
                                       delta.stmt.cap);
            return;
        }
        case Delta_kind::add_statement:
            (void)engine.add_statement(delta.stmt.stmt, delta.stmt.guarantee,
                                       delta.stmt.cap);
            return;
        case Delta_kind::remove_statement:
            (void)engine.remove_statement(delta.stmt.stmt.id);
            return;
        case Delta_kind::fail_link:
            (void)engine.fail_link(delta.node_a, delta.node_b);
            return;
        case Delta_kind::restore_link:
            if (inject == Run_options::Inject::drop_restore) return;
            (void)engine.restore_link(delta.node_a, delta.node_b);
            return;
        case Delta_kind::redistribute: {
            // Through the real negotiator, holding the delegation shape
            // redistribution is meant for (Section 4.1): the capped
            // statements share one aggregate max term (the pool), so the
            // re-division is a refinement inside the envelope. Adoption
            // pushes cap-only deltas into the engine.
            ir::Policy envelope;
            ir::FormulaPtr formula;
            const auto conjoin = [&formula](ir::FormulaPtr leaf) {
                formula = formula ? ir::formula_and(formula, std::move(leaf))
                                  : std::move(leaf);
            };
            ir::Term pool_term;
            Bandwidth pool;
            for (const Statement_spec& spec : model_before) {
                envelope.statements.push_back(spec.stmt);
                if (spec.guaranteed()) {
                    ir::Term term;
                    term.ids.push_back(spec.stmt.id);
                    conjoin(ir::formula_min(std::move(term), spec.guarantee));
                }
                if (spec.cap) {
                    pool_term.ids.push_back(spec.stmt.id);
                    pool += *spec.cap;
                }
            }
            if (!pool_term.ids.empty())
                conjoin(ir::formula_max(std::move(pool_term), pool));
            envelope.formula = formula;
            negotiator::Negotiator root("fuzz", envelope,
                                        core::make_alphabet(engine.topology()));
            root.drive(&engine);
            // Adopt the current per-statement division as the active
            // refinement of the pooled envelope (a no-op for the engine),
            // then re-divide it by demand.
            const negotiator::Verdict adopted =
                root.propose(make_policy(model_before));
            if (!adopted.valid)
                throw Policy_error("per-statement refinement rejected: " +
                                   adopted.reason);
            std::map<std::string, Bandwidth> demands;
            for (const auto& [id, demand] : delta.demands)
                demands[id] = demand;
            const negotiator::Verdict verdict = root.redistribute(demands);
            if (!verdict.valid)
                throw Policy_error("redistribute rejected: " + verdict.reason);
            return;
        }
    }
}

// ---------------------------------------------------------------- daemon mode

// Renders one testgen delta as the control-channel command merlind speaks.
daemon::Command to_command(const Delta& delta) {
    daemon::Command cmd;
    using Kind = daemon::Command::Kind;
    switch (delta.kind) {
        case Delta_kind::set_bandwidth:
            cmd.kind = Kind::bandwidth;
            cmd.id = delta.stmt.stmt.id;
            cmd.guarantee = delta.stmt.guarantee;
            cmd.cap = delta.stmt.cap;
            break;
        case Delta_kind::add_statement:
            cmd.kind = Kind::add;
            cmd.stmt = delta.stmt.stmt;
            cmd.guarantee = delta.stmt.guarantee;
            cmd.cap = delta.stmt.cap;
            break;
        case Delta_kind::remove_statement:
            cmd.kind = Kind::remove;
            cmd.id = delta.stmt.stmt.id;
            break;
        case Delta_kind::fail_link:
        case Delta_kind::restore_link:
            cmd.kind = delta.kind == Delta_kind::fail_link ? Kind::fail
                                                           : Kind::restore;
            cmd.node_a = delta.node_a;
            cmd.node_b = delta.node_b;
            break;
        case Delta_kind::redistribute:
            cmd.kind = Kind::redistribute;
            cmd.demands = delta.demands;
            break;
    }
    return cmd;
}

// The inverse mapping, for commands the model vocabulary can express
// (stream corruption may synthesize admin/invalid lines: nullopt).
std::optional<Delta> to_delta(const daemon::Command& cmd) {
    using Kind = daemon::Command::Kind;
    Delta delta;
    switch (cmd.kind) {
        case Kind::bandwidth:
            delta.kind = Delta_kind::set_bandwidth;
            delta.stmt.stmt.id = cmd.id;
            delta.stmt.guarantee = cmd.guarantee;
            delta.stmt.cap = cmd.cap;
            return delta;
        case Kind::add:
            delta.kind = Delta_kind::add_statement;
            delta.stmt.stmt = cmd.stmt;
            delta.stmt.guarantee = cmd.guarantee;
            delta.stmt.cap = cmd.cap;
            return delta;
        case Kind::remove:
            delta.kind = Delta_kind::remove_statement;
            delta.stmt.stmt.id = cmd.id;
            return delta;
        case Kind::fail:
        case Kind::restore:
            delta.kind = cmd.kind == Kind::fail ? Delta_kind::fail_link
                                                : Delta_kind::restore_link;
            delta.node_a = cmd.node_a;
            delta.node_b = cmd.node_b;
            return delta;
        case Kind::redistribute:
            delta.kind = Delta_kind::redistribute;
            delta.demands = cmd.demands;
            return delta;
        default:
            return std::nullopt;
    }
}

// Commands that run the transaction protocol (publish on success), as
// opposed to queries and admin.
bool is_transactional(daemon::Command::Kind kind) {
    using Kind = daemon::Command::Kind;
    switch (kind) {
        case Kind::add:
        case Kind::remove:
        case Kind::bandwidth:
        case Kind::fail:
        case Kind::restore:
        case Kind::redistribute:
        case Kind::reload:
            return true;
        default:
            return false;
    }
}

// Drives the trace through a daemon::Controller as control lines, with the
// scenario's fault plan injected (controller faults consumed per command,
// stream faults pre-applied to the line sequence). The snapshot-atomicity
// oracle runs around every command; accepted publications additionally run
// the full engine-mode oracle set against a batch compile of the model.
// The model only advances on accepted commands, so it always describes the
// serving snapshot — which is exactly the old-complete-or-new-complete
// invariant under test.
Run_result run_daemon_scenario(const Scenario& scenario,
                               const Run_options& options) {
    Run_result result;
    topo::Topology reference_topo;
    std::vector<Statement_spec> model = scenario.statements;
    std::optional<daemon::Controller> controller;
    daemon::Options dopts;
    // Quarantine off (the oracle tracks per-command outcomes, not stream
    // health), no-op sleeper (replays must not wait out real backoff), and
    // lint off: the linter is a style gate whose errors are not engine
    // divergences, and the engine-mode fuzzer runs lint-free too. The
    // symbolic verify gate stays on — refusing what it flags is part of
    // the behavior under test.
    dopts.quarantine_after = 0;
    dopts.lint_policies = false;
    dopts.reload_drain_timeout = std::chrono::milliseconds(0);
    dopts.sleeper = [](std::chrono::milliseconds) {};
    try {
        reference_topo = make_topology(scenario);
        controller.emplace(initial_policy(scenario), reference_topo,
                           scenario.options, dopts);
    } catch (const Error& e) {
        return invalid(std::string("scenario rejected at construction: ") +
                           e.what(),
                       -1);
    }
    controller->set_fault_plan(scenario.faults);

    Diff_oracle diffs;
    Symbolic_oracle symbolic;

    const auto report = [&](int step, const char* oracle,
                            std::string detail) {
        result.status = Run_result::Status::failed;
        result.oracle = oracle;
        result.detail = std::move(detail);
        result.failing_step = step;
        return false;
    };

    // The engine-mode oracle set over one published snapshot vs the model.
    const auto check = [&](int step, const daemon::Snapshot& snap,
                           bool link_delta) {
        if (snap.checksum != daemon::snapshot_fingerprint(snap))
            return report(step, "daemon-atomicity",
                          "published snapshot checksum does not validate");
        core::Compilation fresh;
        try {
            fresh = core::compile(make_policy(model), reference_topo,
                                  scenario.options);
        } catch (const Error& e) {
            return report(step, "engine-vs-batch",
                          std::string("batch compile threw: ") + e.what());
        }
        if (auto d = describe_difference(snap.compilation, fresh,
                                         reference_topo, scenario.options))
            return report(step, "engine-vs-batch", *d);
        if (auto d = check_capacity(snap.topology, snap.compilation.provision))
            return report(step, "capacity", *d);
        if (auto d = check_routes(snap.compilation, snap.topology))
            return report(step, "routes", *d);
        if (auto d = check_codegen(snap.compilation, snap.topology))
            return report(step, "codegen", *d);
        if (auto d = check_classifier(snap.compilation))
            return report(step, "classifier", *d);
        if (auto d = check_overlaps(snap.compilation))
            return report(step, "overlaps", *d);
        if (auto d = diffs.step(snap.compilation, snap.topology, !link_delta))
            return report(step, "diffs", *d);
        if (auto d =
                symbolic.step(snap.compilation, snap.topology, !link_delta))
            return report(step, "symbolic", *d);
        return true;
    };

    if (!check(-1, *controller->snapshot(), false)) return result;

    std::vector<std::string> lines;
    lines.reserve(scenario.deltas.size());
    for (const Delta& delta : scenario.deltas)
        lines.push_back(daemon::format_command(to_command(delta)));
    lines = daemon::apply_stream_faults(lines, scenario.faults, scenario.seed);
    const bool stream_faulted = scenario.faults.has_stream_faults();

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const int step = static_cast<int>(i);
        const daemon::Command cmd = daemon::parse_command(lines[i]);
        const std::shared_ptr<const daemon::Snapshot> before =
            controller->snapshot();
        const daemon::Response r = controller->apply_line(lines[i]);
        const std::shared_ptr<const daemon::Snapshot> after =
            controller->snapshot();
        if (r.ok && is_transactional(cmd.kind)) {
            // New-complete: exactly one generation ahead, and the model
            // must accept the same command (a rogue acceptance means the
            // daemon applied something the engine vocabulary refuses).
            if (after->generation != before->generation + 1) {
                report(step, "daemon-atomicity",
                       "accepted command published generation " +
                           std::to_string(after->generation) + ", expected " +
                           std::to_string(before->generation + 1) + ": " +
                           lines[i]);
                return result;
            }
            const std::optional<Delta> delta = to_delta(cmd);
            if (!delta || !apply_delta(model, reference_topo, *delta)) {
                report(step, "daemon-model",
                       "daemon accepted a command the model refuses: " +
                           lines[i]);
                return result;
            }
            ++result.deltas_applied;
            const bool link_delta =
                cmd.kind == daemon::Command::Kind::fail ||
                cmd.kind == daemon::Command::Kind::restore;
            if (!check(step, *after, link_delta)) return result;
        } else if (r.ok) {
            // Queries and admin never publish.
            if (after.get() != before.get()) {
                report(step, "daemon-atomicity",
                       "non-transactional command republished the snapshot: " +
                           lines[i]);
                return result;
            }
        } else {
            // Old-complete: a refusal of any kind leaves the serving
            // snapshot pointer-identical with an unchanged generation.
            if (after.get() != before.get() ||
                after->generation != before->generation) {
                report(step, "daemon-atomicity",
                       "refusal (" + std::string(daemon::to_string(r.code)) +
                           ") disturbed the serving snapshot: " + lines[i]);
                return result;
            }
            // Feasibility, verification, timeout and crash refusals can be
            // legitimate; parse/argument refusals of a line the model
            // accepts cannot — unless stream faults rewrote the lines.
            if (!stream_faulted && (r.code == daemon::Refusal::parse ||
                                    r.code == daemon::Refusal::argument)) {
                const std::optional<Delta> delta = to_delta(cmd);
                std::vector<Statement_spec> model_copy = model;
                topo::Topology topo_copy = reference_topo;
                if (delta && apply_delta(model_copy, topo_copy, *delta)) {
                    report(step, "daemon-model",
                           "daemon spuriously refused (" +
                               std::string(daemon::to_string(r.code)) +
                               ") a model-valid command: " + lines[i] +
                               " — " + r.detail);
                    return result;
                }
            }
        }
    }
    if (options.solver_oracles) {
        if (auto d = check_solvers(reference_topo, model, scenario.options)) {
            result.status = Run_result::Status::failed;
            result.oracle = "solvers";
            result.detail = *d;
            result.failing_step = static_cast<int>(lines.size());
            return result;
        }
    }
    result.status = Run_result::Status::passed;
    return result;
}

}  // namespace

Run_result run_scenario(const Scenario& scenario, const Run_options& options) {
    if (options.daemon) return run_daemon_scenario(scenario, options);
    Run_result result;
    topo::Topology reference_topo;
    std::vector<Statement_spec> model = scenario.statements;
    std::optional<core::Engine> engine;
    try {
        reference_topo = make_topology(scenario);
        engine.emplace(initial_policy(scenario), reference_topo,
                       scenario.options);
    } catch (const Error& e) {
        return invalid(std::string("scenario rejected at construction: ") +
                           e.what(),
                       -1);
    }

    // Delta-aware codegen state carried across the whole trace, plus
    // whether the delta that just ran changed link state (the old tables
    // may then legitimately blackhole, so the phase-transition replay is
    // skipped while the diff-vs-batch equivalences still run).
    Diff_oracle diffs;
    Symbolic_oracle symbolic;
    bool links_changed = false;

    // Runs every oracle against the engine's published state; returns false
    // (with `result` filled in) on the first violation.
    const auto check = [&](int step) {
        const auto report = [&](const char* oracle, std::string detail) {
            result.status = Run_result::Status::failed;
            result.oracle = oracle;
            result.detail = std::move(detail);
            result.failing_step = step;
            return false;
        };
        core::Compilation fresh;
        try {
            fresh = core::compile(make_policy(model), reference_topo,
                                  scenario.options);
        } catch (const Error& e) {
            // The engine accepted state the batch compiler rejects: that is
            // itself a divergence.
            return report("engine-vs-batch",
                          std::string("batch compile threw: ") + e.what());
        }
        if (auto d = describe_difference(engine->current(), fresh,
                                         reference_topo, scenario.options))
            return report("engine-vs-batch", *d);
        if (auto d =
                check_capacity(engine->topology(), engine->current().provision))
            return report("capacity", *d);
        if (auto d = check_routes(engine->current(), engine->topology()))
            return report("routes", *d);
        if (auto d = check_codegen(engine->current(), engine->topology()))
            return report("codegen", *d);
        if (auto d = check_classifier(engine->current()))
            return report("classifier", *d);
        if (auto d = check_overlaps(engine->current()))
            return report("overlaps", *d);
        if (auto d = diffs.step(engine->current(), engine->topology(),
                                !links_changed))
            return report("diffs", *d);
        if (auto d = symbolic.step(engine->current(), engine->topology(),
                                   !links_changed))
            return report("symbolic", *d);
        return true;
    };

    if (!check(-1)) return result;
    for (std::size_t i = 0; i < scenario.deltas.size(); ++i) {
        const Delta& delta = scenario.deltas[i];
        const std::vector<Statement_spec> model_before = model;
        if (!apply_delta(model, reference_topo, delta))
            return invalid("delta " + std::to_string(i) + " (" +
                               std::string(to_string(delta.kind)) +
                               ") is invalid against the model",
                           static_cast<int>(i));
        try {
            apply_to_engine(*engine, delta, model_before, options.inject);
        } catch (const Error& e) {
            return invalid("delta " + std::to_string(i) + " (" +
                               std::string(to_string(delta.kind)) +
                               ") rejected by the engine: " + e.what(),
                           static_cast<int>(i));
        }
        ++result.deltas_applied;
        const bool link_delta = delta.kind == Delta_kind::fail_link ||
                                delta.kind == Delta_kind::restore_link;
        // With end-only checking the transition replay compares the first
        // and last states, so any link delta along the way disables it.
        links_changed = options.check_each_delta ? link_delta
                                                 : (links_changed || link_delta);
        if (options.check_each_delta && !check(static_cast<int>(i)))
            return result;
    }
    if (!options.check_each_delta &&
        !check(static_cast<int>(scenario.deltas.size()) - 1))
        return result;
    if (options.solver_oracles) {
        if (auto d = check_solvers(reference_topo, model, scenario.options)) {
            result.status = Run_result::Status::failed;
            result.oracle = "solvers";
            result.detail = *d;
            result.failing_step = static_cast<int>(scenario.deltas.size());
            return result;
        }
    }
    result.status = Run_result::Status::passed;
    return result;
}

// ------------------------------------------------------------------ shrinker

namespace {

// Ids introduced by the add deltas at the given (to-be-removed) indices.
std::set<std::string> added_ids(const Scenario& scenario,
                                const std::set<std::size_t>& removed) {
    std::set<std::string> ids;
    for (const std::size_t i : removed)
        if (scenario.deltas[i].kind == Delta_kind::add_statement)
            ids.insert(scenario.deltas[i].stmt.stmt.id);
    return ids;
}

bool references(const Delta& delta, const std::set<std::string>& ids) {
    switch (delta.kind) {
        case Delta_kind::set_bandwidth:
        case Delta_kind::remove_statement:
            return ids.contains(delta.stmt.stmt.id);
        case Delta_kind::add_statement:
        case Delta_kind::fail_link:
        case Delta_kind::restore_link:
            return false;
        case Delta_kind::redistribute:
            // Demands for vanished statements are ignored by both the model
            // and the negotiator, so redistribute never blocks a removal;
            // the demands themselves are pruned below.
            return false;
    }
    return false;
}

// Removes the delta indices plus everything referencing an id they introduced.
Scenario without_deltas(const Scenario& scenario,
                        const std::set<std::size_t>& removed) {
    const std::set<std::string> orphaned = added_ids(scenario, removed);
    Scenario out = scenario;
    out.deltas.clear();
    for (std::size_t i = 0; i < scenario.deltas.size(); ++i) {
        if (removed.contains(i)) continue;
        Delta delta = scenario.deltas[i];
        if (references(delta, orphaned)) continue;
        if (delta.kind == Delta_kind::redistribute) {
            std::erase_if(delta.demands, [&](const auto& demand) {
                return orphaned.contains(demand.first);
            });
            if (delta.demands.empty()) continue;
        }
        out.deltas.push_back(std::move(delta));
    }
    return out;
}

// Removes the statement indices plus every delta referencing their ids.
Scenario without_statements(const Scenario& scenario,
                            const std::set<std::size_t>& removed) {
    std::set<std::string> ids;
    for (const std::size_t i : removed)
        ids.insert(scenario.statements[i].stmt.id);
    Scenario out = scenario;
    out.statements.clear();
    for (std::size_t i = 0; i < scenario.statements.size(); ++i)
        if (!removed.contains(i))
            out.statements.push_back(scenario.statements[i]);
    out.deltas.clear();
    for (const Delta& delta : scenario.deltas) {
        if (references(delta, ids)) continue;
        Delta kept = delta;
        if (kept.kind == Delta_kind::redistribute) {
            std::erase_if(kept.demands, [&](const auto& demand) {
                return ids.contains(demand.first);
            });
            if (kept.demands.empty()) continue;
        }
        out.deltas.push_back(std::move(kept));
    }
    return out;
}

// Removes the fault events at the given indices. Surviving events keep
// their original step anchors: a fault whose command disappeared simply
// never fires, which is harmless and keeps candidates simple.
Scenario without_faults(const Scenario& scenario,
                        const std::set<std::size_t>& removed) {
    Scenario out = scenario;
    std::vector<daemon::Fault_event> kept;
    const std::vector<daemon::Fault_event>& events = scenario.faults.events();
    for (std::size_t i = 0; i < events.size(); ++i)
        if (!removed.contains(i)) kept.push_back(events[i]);
    out.faults = daemon::Fault_plan(std::move(kept));
    return out;
}

}  // namespace

Scenario shrink(const Scenario& failing, const Run_options& options,
                int runs) {
    const Run_result baseline = run_scenario(failing, options);
    if (!baseline.failed()) return failing;
    const std::string oracle = baseline.oracle;
    int budget = runs;
    const auto reproduces = [&](const Scenario& candidate) {
        if (budget <= 0) return false;
        --budget;
        const Run_result result = run_scenario(candidate, options);
        return result.failed() && result.oracle == oracle;
    };

    Scenario best = failing;
    // One reduction pass: chunked removal over `count` items, chunk sizes
    // halving; `make` builds the candidate from an index set.
    const auto reduce = [&](std::size_t (*count)(const Scenario&),
                            Scenario (*make)(const Scenario&,
                                             const std::set<std::size_t>&)) {
        bool improved_any = false;
        for (std::size_t chunk = std::max<std::size_t>(count(best) / 2, 1);
             chunk >= 1 && budget > 0; chunk /= 2) {
            bool improved = true;
            while (improved && budget > 0) {
                improved = false;
                for (std::size_t start = 0; start < count(best) && budget > 0;
                     start += chunk) {
                    std::set<std::size_t> removed;
                    for (std::size_t i = start;
                         i < std::min(start + chunk, count(best)); ++i)
                        removed.insert(i);
                    if (removed.empty() || removed.size() == count(best))
                        continue;
                    const Scenario candidate = make(best, removed);
                    if (reproduces(candidate)) {
                        best = candidate;
                        improved = true;
                        improved_any = true;
                        break;  // indices shifted; rescan this chunk size
                    }
                }
            }
            if (chunk == 1) break;
        }
        return improved_any;
    };

    bool improved = true;
    while (improved && budget > 0) {
        improved = false;
        if (reduce([](const Scenario& s) { return s.deltas.size(); },
                   without_deltas))
            improved = true;
        if (reduce([](const Scenario& s) { return s.statements.size(); },
                   without_statements))
            improved = true;
        if (reduce(
                [](const Scenario& s) { return s.faults.events().size(); },
                without_faults))
            improved = true;
    }
    // A failure that needs no deltas (or no faults) at all may still drop
    // the whole trace or schedule.
    if (!best.deltas.empty()) {
        Scenario candidate = best;
        candidate.deltas.clear();
        if (reproduces(candidate)) best = candidate;
    }
    if (!best.faults.empty()) {
        Scenario candidate = best;
        candidate.faults = daemon::Fault_plan();
        if (reproduces(candidate)) best = candidate;
    }
    return best;
}

}  // namespace merlin::testgen
