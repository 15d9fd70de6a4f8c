// merlin-verify — static analysis & verification driver.
//
//   merlin-verify <topology-file> <policy-file> [options]
//   merlin-verify --generate <spec> <policy-file> [options]
//
// Runs the three analyses of src/analysis over one policy:
//
//   1. the policy linter (always);
//   2. the symbolic dataplane checker over the generated configuration
//      (unless --lint-only or the policy is infeasible), and — with
//      --updates <file> — over every two-phase diff an engine delta replay
//      publishes, via the same update grammar merlinc uses;
//   3. the refinement verifier, when --refinement <file> names a policy to
//      check as a refinement of <policy-file>.
//
// Options:
//   --generate <spec>     generated topology (grammar of topo::from_spec)
//   --refinement <file>   verify <file> as a refinement of the policy
//   --updates <file>      replay a delta script, verifying every update
//   --lint-only           stop after the linter
//   --json                machine-readable report (one JSON array)
//   --quiet               suppress per-section headers
//
// Exit status: 0 when no analysis reports an error (warnings allowed),
// 1 when any does, 2 on usage or input errors.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataplane.h"
#include "analysis/lint.h"
#include "analysis/refine.h"
#include "core/engine.h"
#include "core/logical.h"
#include "parser/parser.h"
#include "topo/generators.h"
#include "topo/parse.h"
#include "util/error.h"
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
    std::cerr << "usage: merlin-verify <topology-file> <policy-file>\n"
                 "       merlin-verify --generate <spec> <policy-file>\n"
                 "       [--refinement <file>] [--updates <file>]\n"
                 "       [--lint-only] [--json] [--quiet]\n";
    return 2;
}

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string token;
    while (in >> token) out.push_back(std::move(token));
    return out;
}

// Replays the update script (merlinc's grammar) without printing per-update
// engine statistics; the publish hook carries the verification. Before each
// engine call `link_change` is set so the hook knows whether the previous
// tables are still comparable (a failed link legitimately breaks them).
void replay_updates(merlin::core::Engine& engine, const std::string& script,
                    bool& link_change) {
    using namespace merlin;
    std::istringstream in(script);
    std::string line;
    while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        const std::vector<std::string> args = tokenize(line);
        if (args.empty()) continue;
        const std::string& command = args[0];
        link_change = command == "fail" || command == "restore";
        if (command == "bandwidth" && (args.size() == 3 || args.size() == 4)) {
            std::optional<Bandwidth> cap;
            if (args.size() == 4) cap = parse_whole_mbps(args[3]);
            engine.set_bandwidth(args[1], parse_whole_mbps(args[2]), cap);
        } else if (command == "add" && args.size() >= 2) {
            const std::string text = line.substr(line.find("add") + 3);
            const ir::Policy parsed = parser::parse_policy("[" + text + "]");
            if (parsed.statements.size() != 1)
                throw Error("add expects one statement: " + line);
            engine.add_statement(parsed.statements[0]);
        } else if (command == "remove" && args.size() == 2) {
            engine.remove_statement(args[1]);
        } else if (command == "fail" && args.size() == 3) {
            engine.fail_link(args[1], args[2]);
        } else if (command == "restore" && args.size() == 3) {
            engine.restore_link(args[1], args[2]);
        } else {
            throw Error("malformed update command: " + line);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace merlin;

    std::vector<std::string> positional;
    std::string generate_spec;
    std::string refinement_file;
    std::string updates_file;
    bool lint_only = false;
    bool json = false;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--generate" && i + 1 < argc) {
            generate_spec = argv[++i];
        } else if (arg == "--refinement" && i + 1 < argc) {
            refinement_file = argv[++i];
        } else if (arg == "--updates" && i + 1 < argc) {
            updates_file = argv[++i];
        } else if (arg == "--lint-only") {
            lint_only = true;
        } else if (arg == "--json") {
            json = true;
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

    try {
        const topo::Topology network =
            generate_spec.empty()
                ? topo::parse_topology(read_file(positional[0]))
                : topo::from_spec(generate_spec);
        const ir::Policy policy =
            parser::parse_policy(read_file(positional.back()));

        analysis::Report all;
        const auto section = [&](const char* title,
                                 analysis::Report report) {
            if (!json && !quiet)
                std::cout << "== " << title << " ==\n"
                          << (report.empty() ? "clean\n"
                                             : analysis::to_text(report));
            else if (!json && !report.empty())
                std::cout << analysis::to_text(report);
            all.insert(all.end(), report.begin(), report.end());
        };

        section("lint", analysis::lint_policy(policy, network));

        if (!refinement_file.empty()) {
            const ir::Policy refined =
                parser::parse_policy(read_file(refinement_file));
            section("refinement",
                    analysis::check_refinement(
                        policy, refined, core::make_alphabet(network)));
        }

        if (!lint_only) {
            core::Engine engine(policy, network);
            analysis::Update_checker checker;
            if (engine.current().feasible) {
                section("dataplane",
                        checker.step(engine.current(), engine.topology()));
            } else if (!json && !quiet) {
                std::cout << "== dataplane ==\nskipped (infeasible: "
                          << engine.current().diagnostic << ")\n";
            }
            if (!updates_file.empty()) {
                int update = 0;
                bool link_change = false;
                engine.on_publish([&](const core::Compilation& compiled,
                                      const topo::Topology& topo) {
                    ++update;
                    if (!compiled.feasible) return;
                    section(("update " + std::to_string(update)).c_str(),
                            checker.step(compiled, topo, !link_change));
                });
                replay_updates(engine, read_file(updates_file), link_change);
            }
        }

        if (json) std::cout << analysis::to_json(all);
        const std::size_t errors = analysis::error_count(all);
        if (!json)
            std::cout << "verify: " << errors << " errors, "
                      << all.size() - errors << " warnings\n";
        return errors > 0 ? 1 : 0;
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
