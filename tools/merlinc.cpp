// merlinc — the Merlin policy compiler, as a command-line tool.
//
//   merlinc <topology-file> <policy-file> [options]
//   merlinc --generate <spec> <policy-file> [options]
//
// Options:
//   --generate <spec>           use a generated topology instead of a file:
//                               fat-tree:<k>, balanced-tree:<d>:<f>:<h>,
//                               campus:<subnets>, or zoo:<switches>:<seed>
//                               (the grammar of topo::from_spec, shared
//                               with merlin-fuzz)
//   --heuristic wsp|mmr|mmres   path-selection heuristic (default wsp)
//   --solver mip|greedy|auto|colgen|sharded
//                               provisioning solver (default auto); colgen
//                               and sharded select the exact solver with
//                               the column-generation / sharded-parallel
//                               attack plan (both certified-or-fallback)
//   --jobs <n>                  front-end worker threads (default: the
//                               MERLIN_THREADS env var, then all cores)
//   --programs                  also print per-host interpreter programs
//   --stats                     solver work counters, the timing
//                               breakdown (Table 7 columns) and the
//                               disjointness pre-check's DAG/wildcard work
//   --updates <file>            after compiling, replay a delta script
//                               against the incremental engine, printing
//                               per-update timing and cache statistics
//   --emit-diffs                with --updates: print the two-phase rule
//                               diff (prepare/commit/cleanup) each update
//                               produces, plus a one-line size summary
//   --diff-json <file>          with --updates: write per-update diff-size
//                               statistics (rules touched, total operations,
//                               table size, retired tags) as JSON
//   --lint                      run the policy linter and exit (status 1
//                               when it reports errors); no compilation
//   --lint-json                 like --lint, with a JSON report
//   --verify                    after compiling, run the symbolic dataplane
//                               checker on the generated configuration —
//                               and, with --updates, on every published
//                               two-phase update; analysis errors exit 1
//   --quiet                     only print the summary line
//
// Update script grammar (one command per line, '#' comments):
//   bandwidth <id> <guarantee-mbps> [<cap-mbps>]   re-divide bandwidth
//   add <id> : <predicate> -> <path>               append a statement
//   remove <id>                                    remove a statement
//   fail <node-a> <node-b>                         fail the a--b link
//   restore <node-a> <node-b>                      bring it back
//
// Exit status: 0 on success, 1 on infeasible policy (or a final infeasible
// engine state after --updates), 2 on usage/parse errors.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataplane.h"
#include "analysis/lint.h"
#include "codegen/codegen.h"
#include "codegen/diff.h"
#include "core/compiler.h"
#include "core/engine.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw merlin::Error("cannot open file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int usage() {
    std::cerr
        << "usage: merlinc <topology-file> <policy-file>\n"
           "       merlinc --generate <spec> <policy-file>\n"
           "       [--heuristic wsp|mmr|mmres]\n"
           "       [--solver mip|greedy|auto|colgen|sharded]\n"
           "       [--jobs <n>] [--updates <file>] [--emit-diffs]\n"
           "       [--diff-json <file>] [--lint] [--lint-json] [--verify]\n"
           "       [--programs] [--stats] [--quiet]\n"
           "specs: fat-tree:<k>  balanced-tree:<depth>:<fanout>:<hosts>  "
           "campus:<subnets>  zoo:<switches>:<seed>\n";
    return 2;
}

// Whitespace-tokenizes one update-script line.
std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string token;
    while (in >> token) out.push_back(std::move(token));
    return out;
}

// One published configuration's diff, recorded by the engine publish hook
// and drained (paired with its update) by replay_updates. Record 0 is the
// initial compile, where everything is an install.
struct Diff_record {
    std::string kind = "initial";
    bool feasible = true;
    int rules_touched = 0;
    int total_operations = 0;
    std::size_t table_rules = 0;
    std::size_t retired_tags = 0;
    std::string text;  // to_text(diff), only kept under --emit-diffs
};

void write_diff_json(const std::string& path,
                     const std::vector<Diff_record>& records) {
    std::ofstream out(path);
    if (!out) throw merlin::Error("cannot write file: " + path);
    out << "{\n  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Diff_record& r = records[i];
        out << "    {\"update\": " << i << ", \"kind\": \"" << r.kind
            << "\", \"feasible\": " << (r.feasible ? "true" : "false")
            << ", \"rules_touched\": " << r.rules_touched
            << ", \"total_operations\": " << r.total_operations
            << ", \"table_rules\": " << r.table_rules
            << ", \"retired_tags\": " << r.retired_tags << "}"
            << (i + 1 < records.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
}

// Replays the delta script against the engine, printing one line per
// update plus an engine-totals summary. When `diffs` is non-null, each
// update's publish-hook diff record (appended by the hook during the
// engine call) is labeled with the update kind and, under `emit_diffs`,
// printed after the update line. Returns the number of updates.
// `link_change` is set before each engine call so the --verify publish hook
// knows whether the previous tables are still comparable (a failed link
// legitimately breaks the old configuration).
int replay_updates(merlin::core::Engine& engine, const std::string& script,
                   std::vector<Diff_record>* diffs, bool emit_diffs,
                   bool& link_change) {
    using namespace merlin;
    int count = 0;
    std::istringstream in(script);
    std::string line;
    while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        const std::vector<std::string> args = tokenize(line);
        if (args.empty()) continue;
        ++count;
        core::Update_result update;
        const std::string& command = args[0];
        link_change = command == "fail" || command == "restore";
        if (command == "bandwidth" &&
            (args.size() == 3 || args.size() == 4)) {
            std::optional<Bandwidth> cap;
            if (args.size() == 4) cap = parse_whole_mbps(args[3]);
            update =
                engine.set_bandwidth(args[1], parse_whole_mbps(args[2]), cap);
        } else if (command == "add" && args.size() >= 2) {
            const std::string text = line.substr(line.find("add") + 3);
            const ir::Policy parsed =
                parser::parse_policy("[" + text + "]");
            if (parsed.statements.size() != 1)
                throw Error("add expects one statement: " + line);
            update = engine.add_statement(parsed.statements[0]);
        } else if (command == "remove" && args.size() == 2) {
            update = engine.remove_statement(args[1]);
        } else if (command == "fail" && args.size() == 3) {
            update = engine.fail_link(args[1], args[2]);
        } else if (command == "restore" && args.size() == 3) {
            update = engine.restore_link(args[1], args[2]);
        } else {
            throw Error("malformed update command: " + line);
        }
        const core::Engine_stats& w = update.work;
        std::cout << "update " << count << ": " << update.kind;
        for (std::size_t i = 1; i < args.size(); ++i)
            std::cout << ' ' << args[i];
        std::cout << " -> " << (update.feasible ? "ok" : "INFEASIBLE")
                  << " in " << update.ms << " ms (nfa " << w.automata_built
                  << "+" << w.automata_cache_hits << " cached, logical "
                  << w.logical_builds << ", trees " << w.trees_built << "+"
                  << w.tree_cache_hits << " cached, lp " << w.lp_encodings
                  << " enc/" << w.lp_patches << " patch, solves "
                  << w.solves << (update.warm_started ? " warm" : "") << ")";
        if (!update.feasible) std::cout << " — " << update.diagnostic;
        std::cout << '\n';
        if (diffs != nullptr &&
            static_cast<std::size_t>(count) < diffs->size()) {
            Diff_record& rec = (*diffs)[static_cast<std::size_t>(count)];
            rec.kind = update.kind;
            if (rec.feasible) {
                std::cout << "  diff: rules_touched=" << rec.rules_touched
                          << " total_ops=" << rec.total_operations
                          << " table_rules=" << rec.table_rules
                          << " retired_tags=" << rec.retired_tags << '\n';
                if (emit_diffs && !rec.text.empty()) std::cout << rec.text;
            } else {
                std::cout << "  diff: skipped (infeasible state)\n";
            }
        }
    }
    const core::Engine_stats& t = engine.totals();
    std::cout << "engine totals: updates=" << t.incremental_updates
              << " automata=" << t.automata_built << " built/"
              << t.automata_cache_hits << " hits logical="
              << t.logical_builds << " trees=" << t.trees_built << " built/"
              << t.tree_cache_hits << " hits lp=" << t.lp_encodings
              << " encodings/" << t.lp_patches << " patches solves="
              << t.solves << " (" << t.warm_started_solves
              << " warm-started)\n";
    return count;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace merlin;

    core::Compile_options options;
    std::vector<std::string> positional;
    std::string generate_spec;
    std::string updates_file;
    std::string diff_json_file;
    bool emit_diffs = false;
    bool print_programs = false;
    bool print_stats = false;
    bool quiet = false;
    bool lint = false;
    bool lint_json = false;
    bool verify = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--generate" && i + 1 < argc) {
            generate_spec = argv[++i];
        } else if (arg == "--updates" && i + 1 < argc) {
            updates_file = argv[++i];
        } else if (arg == "--emit-diffs") {
            emit_diffs = true;
        } else if (arg == "--diff-json" && i + 1 < argc) {
            diff_json_file = argv[++i];
        } else if (arg == "--heuristic" && i + 1 < argc) {
            const std::string h = argv[++i];
            if (h == "wsp")
                options.heuristic = core::Heuristic::weighted_shortest_path;
            else if (h == "mmr")
                options.heuristic = core::Heuristic::min_max_ratio;
            else if (h == "mmres")
                options.heuristic = core::Heuristic::min_max_reserved;
            else
                return usage();
        } else if (arg == "--solver" && i + 1 < argc) {
            const std::string s = argv[++i];
            if (s == "mip")
                options.solver = core::Solver::mip;
            else if (s == "greedy")
                options.solver = core::Solver::greedy;
            else if (s == "auto")
                options.solver = core::Solver::auto_select;
            else if (s == "colgen") {
                options.solver = core::Solver::mip;
                options.solver_mode = core::Solver_mode::colgen;
            } else if (s == "sharded") {
                options.solver = core::Solver::mip;
                options.solver_mode = core::Solver_mode::sharded;
            } else
                return usage();
        } else if (arg == "--jobs" && i + 1 < argc) {
            // Bounded like MERLIN_THREADS: an absurd count would abort in
            // thread creation rather than exit with usage.
            const auto value = merlin::parse_whole_int(argv[++i]);
            if (!value || *value < 1 || *value > 1024) return usage();
            options.jobs = static_cast<int>(*value);
        } else if (arg == "--lint") {
            lint = true;
        } else if (arg == "--lint-json") {
            lint = true;
            lint_json = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--programs") {
            print_programs = true;
        } else if (arg == "--stats") {
            print_stats = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            positional.push_back(arg);
        }
    }
    const std::size_t expected_args = generate_spec.empty() ? 2u : 1u;
    if (positional.size() != expected_args) return usage();
    // Diff emission is defined relative to an update sequence.
    if ((emit_diffs || !diff_json_file.empty()) && updates_file.empty())
        return usage();

    try {
        const topo::Topology network =
            generate_spec.empty()
                ? topo::parse_topology(read_file(positional[0]))
                : topo::from_spec(generate_spec);
        const ir::Policy policy =
            parser::parse_policy(read_file(positional.back()));

        if (lint) {
            const analysis::Report report =
                analysis::lint_policy(policy, network);
            if (lint_json) {
                std::cout << analysis::to_json(report);
            } else {
                std::cout << analysis::to_text(report) << "lint: "
                          << analysis::error_count(report) << " errors, "
                          << report.size() - analysis::error_count(report)
                          << " warnings\n";
            }
            return analysis::has_errors(report) ? 1 : 0;
        }

        // The one-shot path and the --updates path share the engine: a
        // plain compile is just an engine built and read once.
        core::Engine engine(policy, network, options);

        const auto print_compiled = [&](const core::Compilation& compiled) {
            const codegen::Configuration config =
                codegen::generate(compiled, engine.topology());
            if (!quiet) std::cout << codegen::to_text(config);
            if (print_programs) {
                for (const auto& [host, program] :
                     codegen::host_programs(compiled, engine.topology())) {
                    std::cout << "# host program: " << host << '\n'
                              << interp::to_text(program);
                }
            }
            if (print_stats) {
                const core::Provision_result& pr = compiled.provision;
                std::cout << "solver stats: solver=" << pr.solver
                          << " vars=" << pr.variables
                          << " constraints=" << pr.constraints
                          << " nodes=" << pr.mip_nodes
                          << " simplex_iterations=" << pr.simplex_iterations
                          << " factorizations=" << pr.lp_factorizations
                          << " warm_started_nodes=" << pr.warm_started_nodes
                          << " root_start=" << pr.root_start << '\n';
                if (options.solver_mode != core::Solver_mode::full) {
                    std::cout << "colgen stats: mode="
                              << core::to_string(options.solver_mode)
                              << " objective=" << pr.objective
                              << " lp_bound=" << pr.lp_bound
                              << " rounds=" << pr.colgen_rounds
                              << " columns=" << pr.columns_generated
                              << " shards=" << pr.shards_used
                              << " full_fallbacks=" << pr.full_fallbacks
                              << '\n';
                }
                // The paper's Table-7 breakdown, plus the pre-processor pass.
                const core::Compilation::Timing& t = compiled.timing;
                std::cout << "timing: preprocess=" << t.preprocess_ms
                          << "ms lp_construction=" << t.lp_construction_ms
                          << "ms lp_solve=" << t.lp_solve_ms
                          << "ms rateless=" << t.rateless_ms
                          << "ms threads=" << compiled.threads_used << '\n';
                const core::Engine_stats& work = engine.totals();
                std::cout << "disjointness pre-check: dag_statements="
                          << work.disjoint_dag_statements
                          << " wildcard_tests="
                          << work.disjoint_wildcard_tests << '\n';
            }
            // User statements only (the compiler-added catch-all is not one).
            std::size_t statements = compiled.plans.size();
            for (const core::Statement_plan& plan : compiled.plans)
                if (plan.statement.id == "__default") --statements;
            std::cout << "compiled " << statements
                      << " statements: " << config.flow_rules.size()
                      << " flow rules, " << config.queues.size()
                      << " queues, " << config.tc_commands.size() << " tc, "
                      << config.iptables_rules.size() << " iptables, "
                      << config.click_configs.size() << " click ("
                      << compiled.timing.lp_construction_ms +
                             compiled.timing.lp_solve_ms +
                             compiled.timing.rateless_ms
                      << " ms)\n";
        };

        // --verify: the symbolic dataplane checker runs over the generated
        // configuration (and, with --updates, over every published
        // two-phase update through its own persistent Incremental).
        analysis::Update_checker verifier;
        std::size_t verify_errors = 0;
        const auto run_verify = [&](const std::string& label,
                                    const core::Compilation& compiled,
                                    const topo::Topology& topo,
                                    bool check_transition) {
            const analysis::Report report =
                verifier.step(compiled, topo, check_transition);
            verify_errors += analysis::error_count(report);
            if (!report.empty())
                std::cout << "verify " << label << ":\n"
                          << analysis::to_text(report);
        };

        if (!engine.current().feasible) {
            std::cerr << "infeasible: " << engine.current().diagnostic
                      << '\n';
            // A delta script may repair an infeasible initial policy, so
            // only the one-shot path gives up here.
            if (updates_file.empty()) return 1;
        } else {
            print_compiled(engine.current());
            if (verify)
                run_verify("initial", engine.current(), engine.topology(),
                           true);
        }
        if (!updates_file.empty()) {
            // Delta-aware codegen rides the publish hook: every published
            // compilation is re-generated through one long-lived Naming and
            // diffed against the previous configuration. The apply check is
            // live on every update — a diff that does not reconstruct the
            // regenerated table is a hard error, not a statistic.
            std::vector<Diff_record> diff_records;
            codegen::Incremental incremental;
            const bool track_diffs = emit_diffs || !diff_json_file.empty();
            bool link_change = false;
            if (track_diffs || verify) {
                int published = 0;
                engine.on_publish([&, published](
                                      const core::Compilation& compiled,
                                      const topo::Topology& topo) mutable {
                    ++published;
                    if (verify && compiled.feasible)
                        run_verify("update " + std::to_string(published),
                                   compiled, topo, !link_change);
                    if (!track_diffs) return;
                    Diff_record rec;
                    if (!compiled.feasible) {
                        rec.feasible = false;
                        diff_records.push_back(std::move(rec));
                        return;
                    }
                    codegen::Configuration before = incremental.config();
                    const codegen::Diff d = incremental.update(compiled, topo);
                    if (!codegen::equal(
                            codegen::apply(std::move(before), d),
                            incremental.config()))
                        throw Error(
                            "incremental diff does not reconstruct the "
                            "regenerated configuration");
                    rec.rules_touched = d.rules_touched();
                    rec.total_operations = d.total_operations();
                    rec.table_rules = incremental.config().flow_rules.size();
                    rec.retired_tags = d.retired_tags.size();
                    if (emit_diffs) rec.text = codegen::to_text(d);
                    diff_records.push_back(std::move(rec));
                });
            }
            replay_updates(engine, read_file(updates_file),
                           track_diffs ? &diff_records : nullptr, emit_diffs,
                           link_change);
            if (!diff_json_file.empty())
                write_diff_json(diff_json_file, diff_records);
            if (!engine.current().feasible) {
                std::cerr << "infeasible after updates: "
                          << engine.current().diagnostic << '\n';
                return 1;
            }
        }
        if (verify) {
            // What the gate proved afresh and what it reused, over every
            // generation it checked.
            if (print_stats)
                std::cout << "verify stats: "
                          << analysis::to_text(verifier.total_counts())
                          << '\n';
            std::cout << "verify: " << verify_errors << " errors\n";
            if (verify_errors > 0) return 1;
        }
        return 0;
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
