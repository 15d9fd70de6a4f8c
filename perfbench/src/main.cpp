// merlin-perfbench: the end-to-end benchmark (see perfbench/README.md).
//
//   merlin-perfbench --workload retune|churn|compile --seed <n>
//                    --seconds <s> --trace 0|1 [--spans <file>]
//   merlin-perfbench --self-test
//
// One process, one closed-loop client: the next operation is sent when the
// previous one returns. With --trace 0 the operations go through the real
// entry points (daemon::Controller::apply_line, or the merlinc sequence
// parse_policy -> core::Engine -> codegen::generate) and the end-to-end
// metrics are reported. With --trace 1 every operation is also replayed,
// one for one, through a traced mirror of the same call sequence, and the
// per-layer metrics are reported.
// Every output is checked outside the timed intervals; the last stdout line
// is one JSON object, and the exit code is 1 when any check failed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "codegen/diff.h"
#include "core/engine.h"
#include "daemon/daemon.h"
#include "oracle.h"
#include "parser/parser.h"
#include "testgen/testgen.h"
#include "topo/generators.h"
#include "trace.h"
#include "util/error.h"
#include "workloads.h"

namespace {

using namespace merlin;
using perfbench::Command;
using perfbench::Daemon_model;
using perfbench::Span;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------- workloads

struct Workload {
    const char* name;
    const char* why;
    int statements = 0;  // initial tenant policy; 0 for the compile workload
    bool churn = false;
};

// The same workloads, with the same reasons, as BENCHMARK.json.
const Workload kWorkloads[] = {
    {"retune",
     "merlind bandwidth retunes plus core-link fail/restore: the "
     "no-recompilation fast path, where the verify gate (~60%) and codegen "
     "(~35%) dominate",
     32, false},
    {"churn",
     "merlind tenant add/remove: each structural delta rewrites the "
     "catch-all statement, so the verify gate takes ~95% of the time",
     12, true},
    {"compile",
     "batch merlinc compiles of Table-7 k=4 all-pairs variants: codegen "
     "~70%, preprocess and the MIP the rest; no lint or verify gates",
     0, false},
};

Command next_command(Daemon_model& model, const Workload& w) {
    return w.churn ? model.next_churn() : model.next_retune();
}

Daemon_model make_model(const topo::Topology& topo, const Workload& w,
                        std::uint64_t seed) {
    Daemon_model model(topo, seed);
    model.seed_policy(w.statements);
    return model;
}

// Compile-workload inputs: variant i of run `seed`. Set-up compiles use
// negative indices so they never repeat a measured input.
std::string variant(std::uint64_t seed, long long i) {
    return perfbench::compile_variant(seed * 1000003ULL +
                                      static_cast<std::uint64_t>(i + kSetups));
}

// --------------------------------------------------------------- checking

// Failures are counted per operation: one operation with several wrong
// outputs is one failure. Descriptions go to stderr (the first few).
struct Outcome {
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> why;  // failures of the current operation

    void note(std::string what) { why.push_back(std::move(what)); }
    void finish_op() {
        ++attempted;
        close();
    }
    // Closes a check that is not an operation of its own (the initial
    // snapshot, the end-of-run consistency check).
    void close() {
        if (why.empty()) return;
        ++failed;
        if (failed <= 10)
            for (const std::string& w : why)
                std::fprintf(stderr, "check failed: %s\n", w.c_str());
        why.clear();
    }
};

// Probes the tables and records route times.
void check_tables(const core::Compilation& compilation,
                  const codegen::Configuration& config,
                  const topo::Topology& topo, Outcome& outcome,
                  std::vector<double>* route_us = nullptr,
                  std::vector<double>* probes = nullptr) {
    const perfbench::Probe_report report =
        perfbench::probe(compilation, config, topo);
    for (const std::string& f : report.failures) outcome.note(f);
    if (route_us != nullptr)
        route_us->insert(route_us->end(), report.route_us.begin(),
                         report.route_us.end());
    if (probes != nullptr) probes->push_back(report.probes);
}

// A published snapshot: generation, checksum and forwarding.
void check_snapshot(const daemon::Snapshot& snap, std::uint64_t generation,
                    Outcome& outcome, std::vector<double>* route_us = nullptr,
                    std::vector<double>* probes = nullptr) {
    if (snap.generation != generation)
        outcome.note("generation " + std::to_string(snap.generation) +
                     ", expected 1 + accepted = " +
                     std::to_string(generation));
    if (daemon::snapshot_fingerprint(snap) != snap.checksum)
        outcome.note("snapshot checksum does not recompute");
    check_tables(snap.compilation, snap.config, snap.topology, outcome,
                 route_us, probes);
}

// The command's outcome against the model's prediction.
void check_response(const Command& command, const daemon::Response& r,
                    Outcome& outcome) {
    if (command.expect_ok() && !r.ok)
        outcome.note("valid command refused: " + command.line + " -> " +
                     r.to_line());
    if (!command.expect_ok() && (r.ok || r.code != daemon::Refusal::infeasible))
        outcome.note("over-capacity retune " + command.line + " came back " +
                     r.to_line());
}

// End of a daemon run: the served compilation must equal a batch compile
// of the generator's model.
void check_against_batch(const Daemon_model& model,
                         const core::Compilation& served,
                         const topo::Topology& served_topo,
                         Outcome& outcome) {
    topo::Topology degraded = topo::fat_tree(perfbench::kFatTreeArity);
    for (const topo::LinkId link : model.failed_links())
        degraded.set_link_state(link, false);
    const core::Compilation fresh =
        core::compile(parser::parse_policy(model.policy()), degraded);
    if (const auto difference = testgen::describe_difference(
            served, fresh, served_topo, core::Compile_options{}))
        outcome.note("served compilation differs from a batch compile: " +
                     *difference);
    outcome.close();
}

// ---------------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
    // Printed for reading but left out of the JSON result, which carries
    // only the metrics BENCHMARK.json bounds (see README.md).
    bool printed_only = false;
};

struct Report {
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  // human-readable lines before metrics
};

// Peak resident set of this process image. getrusage's ru_maxrss is not
// used: it survives execve, so it would report the launching Python
// process's resident set whenever that is larger.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.starts_with("VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    throw Error("no VmHWM line in /proc/self/status");
}

// ---------------------------------------------------------- traced runs

// Per-layer samples of the traced run: per-operation series plus summed
// numerators/denominators for ratios.
struct Layer_samples {
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, std::pair<double, double>> ratios;

    void add(const std::string& name, double value) {
        series[name].push_back(value);
    }
    void ratio(const std::string& name, double hits, double total) {
        ratios[name].first += hits;
        ratios[name].second += total;
    }
    void engine_work(const core::Engine_stats& w) {
        add("core.automata_built", static_cast<double>(w.automata_built));
        add("core.trees_built", static_cast<double>(w.trees_built));
        add("core.lp_encodings", static_cast<double>(w.lp_encodings));
        add("core.warm_started_solves",
            static_cast<double>(w.warm_started_solves));
        add("core.predicate_compiles",
            static_cast<double>(w.predicate_compiles));
        ratio("core.tree_cache_hit_ratio",
              static_cast<double>(w.tree_cache_hits),
              static_cast<double>(w.tree_cache_hits + w.trees_built));
        ratio("core.predicate_cache_hit_ratio",
              static_cast<double>(w.predicate_cache_hits),
              static_cast<double>(w.predicate_cache_hits +
                                  w.predicate_compiles));
    }
    void solver(const core::Provision_result& p) {
        add("lp.simplex_iterations", static_cast<double>(p.simplex_iterations));
        add("mip.nodes", p.mip_nodes);
    }
    void table7(const core::Compilation& c) {
        add("core.preprocess_ms", c.timing.preprocess_ms);
        add("core.lp_construction_ms", c.timing.lp_construction_ms);
        add("core.lp_solve_ms", c.timing.lp_solve_ms);
        add("core.rateless_ms", c.timing.rateless_ms);
    }
};

// daemon::Controller::transact, call for call, with a span around every
// call into a layer; the snapshot it publishes is checked like the real
// daemon's. Options are the Controller defaults (verify and lint on).
class Mirror {
public:
    Mirror(const std::string& policy_text, const topo::Topology& topo,
           Tracer& tracer, Layer_samples& samples)
        : tracer_(tracer), samples_(samples) {
        tracer_.begin_op("setup");
        const ir::Policy policy = tracer_.call("parser", "parse", [&] {
            return parser::parse_policy(policy_text);
        });
        tracer_.call("core", "compile", [&] { engine_.emplace(policy, topo); });
        samples_.add("core.compile_ms", tracer_.spans().back().ms());
        const ir::Policy live =
            tracer_.call("core", "policy", [&] { return engine_->policy(); });
        const analysis::Report lint = tracer_.call("analysis", "lint", [&] {
            return analysis::lint_policy(live, engine_->topology());
        });
        const analysis::Report gate = tracer_.call("analysis", "gate", [&] {
            return checker_.step(engine_->current(), engine_->topology(), true);
        });
        if (analysis::has_errors(lint) || analysis::has_errors(gate))
            throw Error("initial policy fails the daemon's start-up gates");
        publish();
        tracer_.end_op();
        samples_.table7(engine_->current());
        samples_.add("core.threads_used", engine_->current().threads_used);
        (void)shadow_.update(engine_->current(), engine_->topology());
    }

    // One control line, as Controller::apply_line.
    daemon::Response apply_line(const std::string& line) {
        tracer_.begin_op("command");
        const daemon::Command command = tracer_.call(
            "daemon", "parse", [&] { return daemon::parse_command(line); });
        daemon::Response response = transact(command);
        tracer_.end_op();
        if (response.ok) {
            const codegen::Diff diff = tracer_.call("codegen", "update", [&] {
                return shadow_.update(engine_->current(), engine_->topology());
            });
            samples_.add("codegen.diff_ops", diff.total_operations());
            samples_.ratio("codegen.touched_ratio", diff.rules_touched(),
                           static_cast<double>(
                               shadow_.config().flow_rules.size()));
        }
        return response;
    }

    [[nodiscard]] const daemon::Snapshot& served() const { return *served_; }

private:
    core::Update_result delta(const daemon::Command& c) {
        using Kind = daemon::Command::Kind;
        switch (c.kind) {
            case Kind::add:
                return engine_->add_statement(c.stmt, c.guarantee, c.cap);
            case Kind::remove: return engine_->remove_statement(c.id);
            case Kind::bandwidth:
                return engine_->set_bandwidth(c.id, c.guarantee, c.cap);
            case Kind::fail: return engine_->fail_link(c.node_a, c.node_b);
            case Kind::restore:
                return engine_->restore_link(c.node_a, c.node_b);
            default: break;
        }
        throw Error("the benchmark streams only delta commands");
    }

    daemon::Response refuse(daemon::Response r, daemon::Refusal code,
                            std::string reason) {
        r.ok = false;
        r.code = code;
        r.detail = std::move(reason);
        r.generation = served_->generation;
        return r;
    }

    daemon::Response transact(const daemon::Command& command) {
        daemon::Response resp;
        if (command.kind == daemon::Command::Kind::invalid)
            return refuse(resp, daemon::Refusal::parse, command.error);
        const bool link_delta = command.kind == daemon::Command::Kind::fail ||
                                command.kind == daemon::Command::Kind::restore;
        const int saved_limit = engine_->mip_node_limit();
        std::optional<analysis::Update_checker> checker_backup;
        std::optional<codegen::Incremental> incremental_backup;
        tracer_.call("daemon", "checkpoint", [&] {
            checker_backup.emplace(checker_);
            incremental_backup.emplace(incremental_);
        });
        core::Engine::Checkpoint saved;
        for (int attempt = 1;; ++attempt) {
            saved = tracer_.call("daemon", "checkpoint",
                                 [&] { return engine_->checkpoint(); });
            if (attempt > 1) {
                long long budget = std::max(saved_limit, 1);
                for (int i = 1; i < attempt; ++i)
                    budget = std::min<long long>(
                        budget * options_.retry_node_limit_factor,
                        1000000000LL);
                engine_->set_mip_node_limit(static_cast<int>(budget));
            }
            core::Update_result result;
            try {
                result = tracer_.call("core", "delta",
                                      [&] { return delta(command); });
            } catch (const std::exception& e) {
                engine_->set_mip_node_limit(saved_limit);
                return refuse(resp, daemon::Refusal::argument, e.what());
            }
            engine_->set_mip_node_limit(saved_limit);
            samples_.add("core.delta_ms", tracer_.spans().back().ms());
            samples_.engine_work(result.work);
            if (result.solver_run) samples_.solver(engine_->current().provision);
            samples_.add("core.bdd_nodes",
                         static_cast<double>(engine_->totals().bdd_nodes));
            if (result.feasible) break;
            const bool transient =
                result.solver_run &&
                !engine_->current().provision.proven_infeasible;
            tracer_.call("daemon", "restore",
                         [&] { engine_->restore(saved); });
            if (transient && attempt <= options_.max_retries) {
                std::this_thread::sleep_for(options_.backoff_base);
                continue;
            }
            return refuse(resp,
                          transient ? daemon::Refusal::timeout
                                    : daemon::Refusal::infeasible,
                          result.diagnostic);
        }

        const ir::Policy live =
            tracer_.call("core", "policy", [&] { return engine_->policy(); });
        const analysis::Report lint = tracer_.call("analysis", "lint", [&] {
            return analysis::lint_policy(live, engine_->topology());
        });
        samples_.add("analysis.lint_ms", tracer_.spans().back().ms());
        if (analysis::has_errors(lint)) {
            tracer_.call("daemon", "restore", [&] { engine_->restore(saved); });
            return refuse(resp, daemon::Refusal::lint, "lint error");
        }
        analysis::Report gate;
        try {
            gate = tracer_.call("analysis", "gate", [&] {
                return checker_.step(engine_->current(), engine_->topology(),
                                     !link_delta);
            });
        } catch (const std::exception& e) {
            gate.push_back(
                {analysis::Severity::error, "exception", "", e.what(), ""});
        }
        samples_.add("analysis.gate_ms", tracer_.spans().back().ms());
        if (analysis::has_errors(gate)) {
            tracer_.call("daemon", "restore", [&] {
                engine_->restore(saved);
                checker_ = *checker_backup;
            });
            return refuse(resp, daemon::Refusal::verify, "verify error");
        }
        publish();
        samples_.add("daemon.publish_ms", tracer_.spans().back().ms());
        resp.ok = true;
        resp.generation = served_->generation;
        return resp;
    }

    void publish() {
        served_ = tracer_.call("daemon", "publish", [&] {
            auto next = std::make_shared<daemon::Snapshot>();
            next->generation = served_ ? served_->generation + 1 : 1;
            next->compilation = engine_->current();
            next->topology = engine_->topology();
            next->config = checker_.config();
            next->checksum = daemon::snapshot_fingerprint(*next);
            return std::shared_ptr<const daemon::Snapshot>(std::move(next));
        });
    }

    Tracer& tracer_;
    Layer_samples& samples_;
    daemon::Options options_;
    std::optional<core::Engine> engine_;
    analysis::Update_checker checker_;
    codegen::Incremental incremental_;  // the Controller's verify-off state
    codegen::Incremental shadow_;       // codegen alone, outside the gate
    std::shared_ptr<const daemon::Snapshot> served_;
};

// ------------------------------------------------------------------ runs

struct Run {
    std::vector<double> setup_s;
    std::vector<double> latency_ms;
    std::map<std::string, std::vector<double>> by_kind;  // latency per kind
    std::vector<double> rules;  // table size of each published/compiled config
    double busy_s = 0;          // measured loop time minus everything else
    daemon::Daemon_stats stats;
    int threads_used = 0;
};

// The traced half of a --trace 1 run. It is fed the same operations as the
// untraced half, interleaved one for one (alternating which goes first),
// so both see the same inputs under the same machine conditions.
struct Traced {
    Tracer tracer;
    Layer_samples samples;
    std::vector<double> route_us;
    std::vector<double> probes;
};

Clock::time_point deadline_after(double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

// Per-operation series the daemon mirror leaves in its spans.
void daemon_span_samples(Traced& t) {
    std::map<int, double> checkpoint;  // Engine::checkpoint + gate-state copies
    std::map<int, double> gate;
    for (const Span& s : t.tracer.spans()) {
        if (s.parent < 0 || s.op == 0) continue;  // op 0 is the set-up
        if (s.layer == "daemon" && s.name == "parse")
            t.samples.add("daemon.parse_ms", s.ms());
        if (s.layer == "daemon" && s.name == "checkpoint")
            checkpoint[s.op] += s.ms();
        if (s.layer == "analysis" && s.name == "gate") gate[s.op] = s.ms();
        // Codegen alone (the shadow, recorded after the gate of the same
        // operation) and the verify share of the gate.
        if (s.layer == "codegen" && s.name == "update") {
            t.samples.add("codegen.update_ms", s.ms());
            t.samples.add("analysis.verify_ms", gate[s.op] - s.ms());
        }
    }
    for (const auto& [op, ms] : checkpoint)
        t.samples.add("daemon.checkpoint_ms", ms);
}

Run run_daemon(const Workload& w, std::uint64_t seed, double seconds,
               int setups, Outcome& outcome, Traced* traced) {
    Run run;
    const topo::Topology topo = topo::fat_tree(perfbench::kFatTreeArity);
    std::optional<Daemon_model> model;
    std::unique_ptr<daemon::Controller> controller;
    for (int i = 0; i < setups; ++i) {
        controller.reset();
        model.emplace(make_model(topo, w, seed));
        const auto start = Clock::now();
        controller = std::make_unique<daemon::Controller>(
            parser::parse_policy(model->policy()), topo);
        run.setup_s.push_back(ms_since(start) / 1000);
    }
    check_snapshot(*controller->snapshot(), 1, outcome);
    outcome.close();
    run.threads_used = controller->snapshot()->compilation.threads_used;
    std::optional<Mirror> mirror;
    if (traced != nullptr) {
        mirror.emplace(model->policy(), topo, traced->tracer, traced->samples);
        check_snapshot(mirror->served(), 1, outcome);
        outcome.close();
    }

    std::uint64_t accepted = 0;
    std::uint64_t mirror_accepted = 0;
    double other_ms = 0;  // checks and the mirror, outside the timed calls
    const auto begin = Clock::now();
    const auto deadline = deadline_after(seconds);
    for (long long i = 0; Clock::now() < deadline; ++i) {
        const Command command = next_command(*model, w);
        const bool mirror_first = i % 2 == 1;
        const auto mirror_op = [&] {
            const auto start = Clock::now();
            const daemon::Response r = mirror->apply_line(command.line);
            check_response(command, r, outcome);
            if (r.ok) {
                ++mirror_accepted;
                traced->tracer.call("netsim", "probe", [&] {
                    check_snapshot(mirror->served(), 1 + mirror_accepted,
                                   outcome, &traced->route_us,
                                   &traced->probes);
                });
            }
            other_ms += ms_since(start);
        };
        if (mirror && mirror_first) mirror_op();
        const auto start = Clock::now();
        const daemon::Response response = controller->apply_line(command.line);
        run.latency_ms.push_back(ms_since(start));
        run.by_kind[perfbench::to_string(command.kind)].push_back(
            run.latency_ms.back());
        if (mirror && !mirror_first) mirror_op();

        const auto check_start = Clock::now();
        check_response(command, response, outcome);
        if (response.ok) {
            model->apply(command);
            ++accepted;
        }
        const std::shared_ptr<const daemon::Snapshot> snap =
            controller->snapshot();
        if (response.ok) {
            check_snapshot(*snap, 1 + accepted, outcome);
            run.rules.push_back(snap->config.total_instructions());
        } else if (snap->generation != 1 + accepted) {
            outcome.note("refusal moved the generation to " +
                         std::to_string(snap->generation));
        }
        outcome.finish_op();
        other_ms += ms_since(check_start);
    }
    run.busy_s = (ms_since(begin) - other_ms) / 1000;
    run.stats = controller->stats();
    const std::shared_ptr<const daemon::Snapshot> last = controller->snapshot();
    check_against_batch(*model, last->compilation, last->topology, outcome);
    if (mirror) {
        check_against_batch(*model, mirror->served().compilation,
                            mirror->served().topology, outcome);
        daemon_span_samples(*traced);
    }
    return run;
}

// One traced merlinc compile: parse -> Engine -> generate, each in a span,
// then the Table-7 timing and work counters the layers return.
void traced_compile(const std::string& text, const topo::Topology& topo,
                    Traced& t, Outcome& outcome) {
    t.tracer.begin_op("compile");
    const ir::Policy policy = t.tracer.call(
        "parser", "parse", [&] { return parser::parse_policy(text); });
    t.samples.add("parser.parse_ms", t.tracer.spans().back().ms());
    std::optional<core::Engine> engine;
    t.tracer.call("core", "compile", [&] { engine.emplace(policy, topo); });
    t.samples.add("core.compile_ms", t.tracer.spans().back().ms());
    const codegen::Configuration config =
        t.tracer.call("codegen", "generate", [&] {
            return codegen::generate(engine->current(), engine->topology());
        });
    t.samples.add("codegen.generate_ms", t.tracer.spans().back().ms());
    t.tracer.end_op();

    const core::Compilation& c = engine->current();
    t.samples.table7(c);
    t.samples.solver(c.provision);
    t.samples.engine_work(engine->totals());
    t.samples.add("core.bdd_nodes",
                  static_cast<double>(engine->totals().bdd_nodes));
    t.samples.add("core.threads_used", c.threads_used);
    t.samples.add("codegen.classify_rules_deduped",
                  static_cast<double>(config.classify_rules_deduped));
    if (!c.feasible) outcome.note("traced compile infeasible");
    t.tracer.call("netsim", "probe", [&] {
        check_tables(c, config, engine->topology(), outcome, &t.route_us,
                     &t.probes);
    });
}

Run run_compile(std::uint64_t seed, double seconds, int setups,
                Outcome& outcome, Traced* traced) {
    Run run;
    const topo::Topology topo = topo::fat_tree(perfbench::kFatTreeArity);
    for (int i = 0; i < setups; ++i) {
        const std::string text = variant(seed, -1 - i);
        const auto start = Clock::now();
        const core::Engine engine(parser::parse_policy(text), topo);
        const codegen::Configuration config =
            codegen::generate(engine.current(), engine.topology());
        run.setup_s.push_back(ms_since(start) / 1000);
        run.threads_used = engine.current().threads_used;
    }

    double other_ms = 0;  // input generation, checks and the traced compile
    const auto begin = Clock::now();
    const auto deadline = deadline_after(seconds);
    for (long long i = 0; Clock::now() < deadline; ++i) {
        const auto prepare_start = Clock::now();
        const std::string text = variant(seed, i);
        const bool traced_first = i % 2 == 1;
        if (traced != nullptr && traced_first)
            traced_compile(text, topo, *traced, outcome);
        other_ms += ms_since(prepare_start);

        const auto start = Clock::now();
        const ir::Policy policy = parser::parse_policy(text);
        core::Engine engine(policy, topo);
        const codegen::Configuration config =
            codegen::generate(engine.current(), engine.topology());
        run.latency_ms.push_back(ms_since(start));
        run.by_kind["compile"].push_back(run.latency_ms.back());

        const auto check_start = Clock::now();
        if (traced != nullptr && !traced_first)
            traced_compile(text, topo, *traced, outcome);
        if (!engine.current().feasible)
            outcome.note("variant " + std::to_string(i) +
                         " compiled infeasible: " +
                         engine.current().diagnostic);
        check_tables(engine.current(), config, engine.topology(), outcome);
        run.rules.push_back(config.total_instructions());
        outcome.finish_op();
        other_ms += ms_since(check_start);
    }
    run.busy_s = (ms_since(begin) - other_ms) / 1000;
    return run;
}

// ------------------------------------------------------------- reporting

struct Spec {
    const char* name;
    const char* unit;
};

// Per-layer metrics (--trace 1). Times are per-operation medians, counts
// per-operation means, ratios summed over the run.
const Spec kPerLayer[] = {
    {"daemon.parse_ms", "ms"},
    {"daemon.checkpoint_ms", "ms"},
    {"daemon.publish_ms", "ms"},
    {"daemon.refused", "count"},
    {"daemon.retries", "count"},
    {"core.delta_ms", "ms"},
    {"core.compile_ms", "ms"},
    {"core.preprocess_ms", "ms"},
    {"core.lp_construction_ms", "ms"},
    {"core.lp_solve_ms", "ms"},
    {"core.rateless_ms", "ms"},
    {"core.automata_built", "count"},
    {"core.trees_built", "count"},
    {"core.tree_cache_hit_ratio", "ratio"},
    {"core.lp_encodings", "count"},
    {"core.warm_started_solves", "count"},
    {"core.predicate_compiles", "count"},
    {"core.predicate_cache_hit_ratio", "ratio"},
    {"core.bdd_nodes", "count"},
    {"core.threads_used", "count"},
    {"lp.simplex_iterations", "count"},
    {"mip.nodes", "count"},
    {"analysis.lint_ms", "ms"},
    {"analysis.gate_ms", "ms"},
    {"analysis.verify_ms", "ms"},
    {"codegen.update_ms", "ms"},
    {"codegen.generate_ms", "ms"},
    {"codegen.diff_ops", "count"},
    {"codegen.touched_ratio", "ratio"},
    {"codegen.classify_rules_deduped", "count"},
    {"parser.parse_ms", "ms"},
    {"netsim.route_us", "us"},
    {"netsim.probes", "count"},
    {"trace.gap_ms", "ms"},
};

std::string fmt(double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.10g", v);
    return buffer;
}

// End-to-end metrics (--trace 0). An "op" is one control line on retune
// and churn, one policy compile on compile.
Report end_to_end(const Run& run, const Outcome& outcome) {
    Report r;
    const std::size_t ops = run.latency_ms.size();
    r.metrics = {
        {"setup_s", quantile(run.setup_s, 0.5), "s", run.setup_s.size()},
        {"op_p50_ms", quantile(run.latency_ms, 0.5), "ms", ops, true},
        {"op_p90_ms", quantile(run.latency_ms, 0.9), "ms", ops},
        {"ops_per_s", static_cast<double>(ops) / run.busy_s, "1/s", ops, true},
        {"table_rules", quantile(run.rules, 0.5), "count", run.rules.size()},
        {"rss_peak_mb", peak_rss_mb(), "MB", 1},
        {"ok_frac",
         1.0 - static_cast<double>(outcome.failed) /
                   static_cast<double>(outcome.attempted),
         "ratio", static_cast<std::size_t>(outcome.attempted)},
    };
    r.notes.push_back("threads_used " + std::to_string(run.threads_used));
    for (const auto& [kind, ms] : run.by_kind)
        r.notes.push_back("cost " + kind + ": p50 " + fmt(quantile(ms, 0.5)) +
                          " ms, p90 " + fmt(quantile(ms, 0.9)) + " ms (n=" +
                          std::to_string(ms.size()) + ")");
    return r;
}

Report per_layer(const Traced& traced, const Run& untraced) {
    Report r;
    Layer_samples samples = traced.samples;
    for (const double us : traced.route_us) samples.add("netsim.route_us", us);
    for (const double n : traced.probes) samples.add("netsim.probes", n);
    const perfbench::Layer_account acct = perfbench::account(
        traced.tracer.spans(), {"codegen", "update", "analysis"});
    // The traced and untraced copies ran the same operations, one for one.
    const double traced_p50 = quantile(acct.total_ms, 0.5);
    const double untraced_p50 = quantile(untraced.latency_ms, 0.5);
    const double gap = traced_p50 - untraced_p50;

    // Layer shares of the traced total, and the accounting identity.
    double total = 0;
    for (const double ms : acct.total_ms) total += ms;
    double layers = 0;
    for (const auto& [layer, series] : acct.self_ms) {
        double sum = 0;
        for (const double ms : series) sum += ms;
        if (layer != "unattributed") layers += sum;
        r.notes.push_back("share " + layer + " " +
                          fmt(total > 0 ? 100 * sum / total : 0) + " % (" +
                          fmt(sum) + " ms self)");
    }
    const double ops = static_cast<double>(acct.total_ms.size());
    r.notes.push_back("traced total " + fmt(total) + " ms over " +
                      fmt(ops) + " ops; layer self times sum to " +
                      fmt(layers) + " ms; per-op difference " +
                      fmt(ops > 0 ? (total - layers) / ops : 0) + " ms");
    r.notes.push_back("top-level p50 over the same " + fmt(ops) +
                      " ops: untraced " +
                      fmt(untraced_p50) + " ms, traced " + fmt(traced_p50) +
                      " ms, gap (tracing and mirroring overhead) " + fmt(gap) +
                      " ms");

    for (const Spec& s : kPerLayer) {
        const std::string name = s.name;
        Metric m{name, 0, s.unit, 0};
        if (name == "daemon.refused") {
            m.value = static_cast<double>(untraced.stats.refused);
            m.samples = untraced.latency_ms.size();
        } else if (name == "daemon.retries") {
            m.value = static_cast<double>(untraced.stats.retries);
            m.samples = untraced.latency_ms.size();
        } else if (name == "trace.gap_ms") {
            m.value = gap;
            m.samples = acct.total_ms.size();
        } else if (const auto it = samples.ratios.find(name);
                   it != samples.ratios.end()) {
            m.value = it->second.second > 0
                          ? it->second.first / it->second.second
                          : 0;
            m.samples = static_cast<std::size_t>(it->second.second);
        } else if (const auto series = samples.series.find(name);
                   series != samples.series.end()) {
            m.value = s.unit == std::string("count")
                          ? mean(series->second)
                          : quantile(series->second, 0.5);
            m.samples = series->second.size();
        }
        r.metrics.push_back(m);
    }
    return r;
}

void print(const Report& report, const char* workload, const Outcome& outcome) {
    for (const std::string& note : report.notes)
        std::printf("%s: %s\n", workload, note.c_str());
    for (const Metric& m : report.metrics)
        std::printf("%s: metric %s = %s %s (n=%zu)\n", workload,
                    m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str(),
                    m.samples);
    std::printf("%s: attempted %lld, failed %lld, error_frac %s\n", workload,
                outcome.attempted, outcome.failed,
                fmt(outcome.attempted > 0
                        ? static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted)
                        : 0)
                    .c_str());
    std::string json = "{\"correct\": ";
    json += outcome.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    const char* separator = "";
    for (const Metric& m : report.metrics) {
        if (m.printed_only) continue;
        json += separator;
        json += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
        separator = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

// ------------------------------------------------------------- self-test

// The probe oracle must pass the real tables and catch one removed
// forwarding rule, on a daemon snapshot and on a batch compile.
int self_test() {
    const topo::Topology topo = topo::fat_tree(perfbench::kFatTreeArity);
    const Daemon_model model = make_model(topo, kWorkloads[0], 1);
    const daemon::Controller controller(parser::parse_policy(model.policy()),
                                        topo);
    const std::shared_ptr<const daemon::Snapshot> snap = controller.snapshot();
    const core::Compilation batch =
        core::compile(parser::parse_policy(variant(1, 0)), topo);
    const codegen::Configuration batch_config = codegen::generate(batch, topo);

    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        std::printf("self-test: %s: %s\n", ok ? "pass" : "FAIL", what.c_str());
        if (!ok) ++failures;
    };
    const auto check = [&](const char* name, const core::Compilation& c,
                           const codegen::Configuration& config) {
        const perfbench::Probe_report clean = perfbench::probe(c, config, topo);
        expect(clean.probes > 0 && clean.failures.empty(),
               std::string(name) + ": " + std::to_string(clean.probes) +
                   " probes on the generated tables, " +
                   std::to_string(clean.failures.size()) + " failures");
        codegen::Configuration broken = config;
        expect(perfbench::break_one_rule(c, broken, topo),
               std::string(name) + ": one forwarding rule removed");
        const perfbench::Probe_report report =
            perfbench::probe(c, broken, topo);
        expect(!report.failures.empty(),
               std::string(name) + ": the broken table fails " +
                   std::to_string(report.failures.size()) + " probe(s)" +
                   (report.failures.empty() ? "" : ": " + report.failures[0]));
    };
    check("retune snapshot", snap->compilation, snap->config);
    check("compile variant", batch, batch_config);
    return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ main

int usage() {
    std::fprintf(stderr,
                 "usage: merlin-perfbench --workload retune|churn|compile "
                 "--seed <n> --seconds <s> --trace 0|1 [--spans <file>]\n"
                 "       merlin-perfbench --self-test\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string spans;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--self-test") return self_test();
        if (!has_value) return usage();
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") workload = value;
            else if (arg == "--seed") seed = std::stoull(value);
            else if (arg == "--seconds") seconds = std::stod(value);
            else if (arg == "--trace") trace = value == "1";
            else if (arg == "--spans") spans = value;
            else return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    const Workload* w = nullptr;
    for (const Workload& candidate : kWorkloads)
        if (workload == candidate.name) w = &candidate;
    if (w == nullptr || !(seconds > 0)) return usage();

    try {
        Outcome outcome;
        std::printf("%s: %s\n", w->name, w->why);
        std::optional<Traced> traced;
        if (trace) traced.emplace();
        Traced* t = traced ? &*traced : nullptr;
        const int setups = trace ? 1 : kSetups;
        const Run run =
            w->statements > 0
                ? run_daemon(*w, seed, seconds, setups, outcome, t)
                : run_compile(seed, seconds, setups, outcome, t);
        if (!trace) {
            print(end_to_end(run, outcome), w->name, outcome);
        } else {
            if (!spans.empty()) traced->tracer.write(spans);
            print(per_layer(*traced, run), w->name, outcome);
        }
        return outcome.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "merlin-perfbench: %s\n", e.what());
        return 1;
    }
}
