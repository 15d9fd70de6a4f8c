#include "daemon/daemon.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/lint.h"
#include "core/logical.h"
#include "negotiator/negotiator.h"
#include "parser/parser.h"
#include "util/error.h"

namespace merlin::daemon {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::vector<std::string> tokenize(const std::string& text) {
    std::istringstream in(text);
    std::vector<std::string> tokens;
    std::string token;
    while (in >> token) tokens.push_back(token);
    return tokens;
}

// A whole decimal number; nullopt unless `digits` is all digits, and a
// refusal naming `token` when it does not fit 64 bits.
std::optional<std::uint64_t> whole_number(const std::string& digits,
                                          const std::string& token) {
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; }))
        return std::nullopt;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (const char c : digits) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (kMax - digit) / 10)
            throw Error("rate out of range: " + token);
        value = value * 10 + digit;
    }
    return value;
}

// "<n>" (whole Mbps), "<n>bps" (exact bits/sec: format_rate's form, which
// a double would round past 2^53), or any rate policy text accepts
// ("5Mbps", "1.5MB/s"). Throws naming the token on anything else.
Bandwidth parse_rate(const std::string& text) {
    if (const auto n = whole_number(text, text)) {
        if (*n > std::numeric_limits<std::uint64_t>::max() / mbps(1).bps())
            throw Error("rate out of range: " + text);
        return mbps(*n);
    }
    if (text.ends_with("bps"))
        if (const auto n = whole_number(text.substr(0, text.size() - 3), text))
            return bits_per_sec(*n);
    try {
        return parse_bandwidth(text);
    } catch (const Parse_error&) {
        throw Error("invalid rate (expected <Mbps>, <n>bps or <n><unit>): " +
                    text);
    }
}

std::string format_rate(Bandwidth rate) {
    return std::to_string(rate.bps()) + "bps";
}

// First error-severity diagnostic, rendered; the refusal's reason.
std::string first_error(const analysis::Report& report) {
    for (const analysis::Diagnostic& d : report)
        if (d.severity == analysis::Severity::error) return to_text(d);
    return report.empty() ? std::string("unspecified analysis failure")
                          : to_text(report.front());
}

// FNV-1a over the snapshot's content (generation, plans, provisioned
// paths, link states, table sizes). A reader recomputing this over a held
// snapshot proves the state it observed was never torn or mutated.
struct Fnv {
    std::uint64_t h = 1469598103934665603ull;
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string& s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

}  // namespace

std::uint64_t snapshot_fingerprint(const Snapshot& snapshot) {
    Fnv f;
    f.u64(snapshot.generation);
    f.u64(snapshot.compilation.feasible ? 1 : 0);
    f.str(snapshot.compilation.diagnostic);
    f.u64(snapshot.compilation.plans.size());
    for (const core::Statement_plan& plan : snapshot.compilation.plans) {
        f.str(plan.statement.id);
        f.u64(plan.guarantee.bps());
        f.u64(plan.cap ? plan.cap->bps() : ~0ull);
        f.u64(static_cast<std::uint64_t>(plan.path_class + 1));
        if (plan.path) {
            f.u64(plan.path->nodes.size());
            for (const topo::NodeId node : plan.path->nodes)
                f.u64(static_cast<std::uint64_t>(node));
            f.u64(plan.path->rate.bps());
        }
    }
    f.u64(snapshot.compilation.trees.size());
    for (int link = 0; link < snapshot.topology.link_count(); ++link)
        f.u64(snapshot.topology.link_up(link) ? 1 : 0);
    f.u64(snapshot.config.flow_rules.size());
    f.u64(snapshot.config.queues.size());
    f.u64(snapshot.config.tc_commands.size());
    f.u64(snapshot.config.iptables_rules.size());
    f.u64(snapshot.config.click_configs.size());
    return f.h;
}

const char* to_string(Refusal code) {
    switch (code) {
        case Refusal::none: return "none";
        case Refusal::parse: return "parse";
        case Refusal::argument: return "argument";
        case Refusal::quarantined: return "quarantined";
        case Refusal::infeasible: return "infeasible";
        case Refusal::verify: return "verify";
        case Refusal::lint: return "lint";
        case Refusal::timeout: return "timeout";
        case Refusal::crash: return "crash";
    }
    return "?";
}

std::string Response::to_line() const {
    std::string out = ok ? "ok" : "refused";
    if (!ok) out += " code=" + std::string(daemon::to_string(code));
    out += " gen=" + std::to_string(generation);
    out += " kind=" + kind;
    if (attempts != 1) out += " attempts=" + std::to_string(attempts);
    if (kind == "reload" || kind == "drain")
        out += std::string(" drained=") + (drained ? "1" : "0");
    if (!detail.empty()) out += (ok ? " " : " reason=") + detail;
    return out;
}

Command parse_command(const std::string& line) {
    Command cmd;
    std::string text = line;
    if (const std::size_t hash = text.find('#'); hash != std::string::npos)
        text.resize(hash);
    const std::vector<std::string> tokens = tokenize(text);
    if (tokens.empty()) {
        cmd.error = "empty control line";
        return cmd;
    }
    const std::string& verb = tokens[0];
    try {
        if (verb == "add") {
            std::size_t i = 1;
            for (; i < tokens.size(); ++i) {
                if (tokens[i].starts_with("min="))
                    cmd.guarantee = parse_rate(tokens[i].substr(4));
                else if (tokens[i].starts_with("max="))
                    cmd.cap = parse_rate(tokens[i].substr(4));
                else
                    break;
            }
            std::string stmt_text;
            for (; i < tokens.size(); ++i) {
                if (!stmt_text.empty()) stmt_text += ' ';
                stmt_text += tokens[i];
            }
            if (stmt_text.empty())
                throw Error("add expects a statement: " + text);
            const ir::Policy parsed =
                parser::parse_policy("[ " + stmt_text + " ]");
            if (parsed.statements.size() != 1)
                throw Error("add expects exactly one statement: " + text);
            cmd.stmt = parsed.statements[0];
            cmd.kind = Command::Kind::add;
        } else if (verb == "remove" && tokens.size() == 2) {
            cmd.id = tokens[1];
            cmd.kind = Command::Kind::remove;
        } else if (verb == "bandwidth" &&
                   (tokens.size() == 3 || tokens.size() == 4)) {
            cmd.id = tokens[1];
            cmd.guarantee = parse_rate(tokens[2]);
            if (tokens.size() == 4) cmd.cap = parse_rate(tokens[3]);
            cmd.kind = Command::Kind::bandwidth;
        } else if ((verb == "fail" || verb == "restore") &&
                   tokens.size() == 3) {
            cmd.node_a = tokens[1];
            cmd.node_b = tokens[2];
            cmd.kind = verb == "fail" ? Command::Kind::fail
                                      : Command::Kind::restore;
        } else if (verb == "redistribute" && tokens.size() >= 2) {
            for (std::size_t k = 1; k < tokens.size(); ++k) {
                const std::size_t eq = tokens[k].find('=');
                if (eq == std::string::npos || eq == 0)
                    throw Error("redistribute expects <id>=<rate>: " +
                                tokens[k]);
                cmd.demands.emplace_back(tokens[k].substr(0, eq),
                                         parse_rate(tokens[k].substr(eq + 1)));
            }
            cmd.kind = Command::Kind::redistribute;
        } else if (verb == "reload" && tokens.size() == 2) {
            cmd.path = tokens[1];
            cmd.kind = Command::Kind::reload;
        } else if (verb == "stats" && tokens.size() == 1) {
            cmd.kind = Command::Kind::stats;
        } else if (verb == "gen" && tokens.size() == 1) {
            cmd.kind = Command::Kind::generation;
        } else if (verb == "drain" && tokens.size() <= 2) {
            if (tokens.size() == 2)
                cmd.drain_timeout = std::chrono::milliseconds(
                    std::stoll(tokens[1]));
            cmd.kind = Command::Kind::drain;
        } else if (verb == "release" && tokens.size() == 2) {
            cmd.target_stream = std::stoi(tokens[1]);
            cmd.kind = Command::Kind::release;
        } else if (verb == "shutdown" && tokens.size() == 1) {
            cmd.kind = Command::Kind::shutdown;
        } else {
            throw Error("malformed control command: " + text);
        }
    } catch (const std::exception& e) {
        cmd.kind = Command::Kind::invalid;
        cmd.error = e.what();
    }
    return cmd;
}

std::string format_command(const Command& command) {
    switch (command.kind) {
        case Command::Kind::add: {
            std::string out = "add";
            if (command.guarantee.bps() > 0)
                out += " min=" + format_rate(command.guarantee);
            if (command.cap) out += " max=" + format_rate(*command.cap);
            out += ' ' + command.stmt.id + " : " +
                   ir::to_string(command.stmt.predicate) + " -> " +
                   ir::to_string(command.stmt.path);
            return out;
        }
        case Command::Kind::remove:
            return "remove " + command.id;
        case Command::Kind::bandwidth: {
            std::string out =
                "bandwidth " + command.id + ' ' + format_rate(command.guarantee);
            if (command.cap) out += ' ' + format_rate(*command.cap);
            return out;
        }
        case Command::Kind::fail:
            return "fail " + command.node_a + ' ' + command.node_b;
        case Command::Kind::restore:
            return "restore " + command.node_a + ' ' + command.node_b;
        case Command::Kind::redistribute: {
            std::string out = "redistribute";
            for (const auto& [id, rate] : command.demands)
                out += ' ' + id + '=' + format_rate(rate);
            return out;
        }
        case Command::Kind::reload:
            return "reload " + command.path;
        case Command::Kind::stats:
            return "stats";
        case Command::Kind::generation:
            return "gen";
        case Command::Kind::drain:
            return "drain " + std::to_string(command.drain_timeout.count());
        case Command::Kind::release:
            return "release " + std::to_string(command.target_stream);
        case Command::Kind::shutdown:
            return "shutdown";
        case Command::Kind::invalid:
            break;
    }
    return "# invalid command";
}

// ----------------------------------------------------------------- controller

Controller::Controller(const ir::Policy& policy, const topo::Topology& topo,
                       core::Compile_options compile_options, Options options)
    : options_(std::move(options)),
      compile_options_(compile_options),
      engine_(policy, topo, compile_options),
      jitter_state_(options_.jitter_seed) {
    // Startup gates: the daemon must not begin serving a state it would
    // refuse as an update. (An infeasible initial compile is served as-is —
    // merlinc parity — with gates deferred until the first feasible state.)
    auto first = std::make_shared<Snapshot>();
    first->generation = 1;
    first->compilation = engine_.current();
    first->topology = engine_.topology();
    if (engine_.current().feasible) {
        if (options_.lint_policies) {
            const analysis::Report report =
                analysis::lint_policy(engine_.policy(), engine_.topology());
            if (analysis::has_errors(report))
                throw Error("initial policy fails lint: " +
                            first_error(report));
        }
        if (options_.verify_updates) {
            const analysis::Report report =
                checker_.step(engine_.current(), engine_.topology(), true);
            if (analysis::has_errors(report))
                throw Error("initial policy fails verification: " +
                            first_error(report));
            first->config = checker_.config();
        } else {
            (void)incremental_.update(engine_.current(), engine_.topology());
            first->config = incremental_.config();
        }
    }
    first->checksum = snapshot_fingerprint(*first);
    slot_.store(std::move(first), std::memory_order_release);
    serving_generation_.store(1, std::memory_order_release);
}

Response Controller::apply_line(const std::string& line, int stream) {
    return apply(parse_command(line), stream);
}

namespace {

// The negotiator-mediated redistribute (paper §4.3): wrap the engine's
// current statements in a pooled-cap envelope, adopt the current division
// as its refinement, then re-divide by demand — every adopted change lands
// in the engine as cap-only set_bandwidth deltas. Throws on rejection; the
// surrounding transaction rolls the engine back.
core::Update_result apply_redistribute(
    core::Engine& engine,
    const std::vector<std::pair<std::string, Bandwidth>>& demands) {
    const ir::Policy active = engine.policy();
    ir::Policy envelope;
    ir::FormulaPtr formula;
    const auto conjoin = [&formula](ir::FormulaPtr leaf) {
        formula = formula ? ir::formula_and(formula, std::move(leaf))
                          : std::move(leaf);
    };
    ir::Term pool_term;
    Bandwidth pool;
    for (const ir::Statement& stmt : active.statements) {
        envelope.statements.push_back(stmt);
        if (const Bandwidth g = engine.guarantee_of(stmt.id); g.bps() > 0) {
            ir::Term term;
            term.ids.push_back(stmt.id);
            conjoin(ir::formula_min(std::move(term), g));
        }
        if (const std::optional<Bandwidth> cap = engine.cap_of(stmt.id)) {
            pool_term.ids.push_back(stmt.id);
            pool += *cap;
        }
    }
    if (pool_term.ids.empty())
        throw Policy_error("redistribute: no capped statements to re-divide");
    conjoin(ir::formula_max(std::move(pool_term), pool));
    envelope.formula = formula;
    negotiator::Negotiator root("merlind", envelope,
                                core::make_alphabet(engine.topology()));
    root.drive(&engine);
    const negotiator::Verdict adopted = root.propose(active);
    if (!adopted.valid)
        throw Policy_error("redistribute: active division rejected: " +
                           adopted.reason);
    std::map<std::string, Bandwidth> by_id;
    for (const auto& [id, demand] : demands) by_id[id] = demand;
    const negotiator::Verdict verdict = root.redistribute(by_id);
    if (!verdict.valid)
        throw Policy_error("redistribute rejected: " + verdict.reason);
    core::Update_result result;
    result.kind = "redistribute";
    result.feasible = engine.current().feasible;
    result.diagnostic = engine.current().diagnostic;
    return result;
}

}  // namespace

Response Controller::apply(const Command& command, int stream) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point start = Clock::now();
    // Every command — delta, admin, or unparsable — consumes one fault
    // step, so plans anchor to the line position in the control stream.
    const int step = command_step_++;
    switch (command.kind) {
        case Command::Kind::add:
            return transact("add", stream, false, step,
                            [&](core::Engine& engine) {
                                return engine.add_statement(command.stmt,
                                                            command.guarantee,
                                                            command.cap);
                            });
        case Command::Kind::remove:
            return transact("remove", stream, false, step,
                            [&](core::Engine& engine) {
                                return engine.remove_statement(command.id);
                            });
        case Command::Kind::bandwidth:
            return transact("bandwidth", stream, false, step,
                            [&](core::Engine& engine) {
                                return engine.set_bandwidth(command.id,
                                                            command.guarantee,
                                                            command.cap);
                            });
        case Command::Kind::fail:
            return transact("fail", stream, true, step,
                            [&](core::Engine& engine) {
                                return engine.fail_link(command.node_a,
                                                        command.node_b);
                            });
        case Command::Kind::restore:
            return transact("restore", stream, true, step,
                            [&](core::Engine& engine) {
                                return engine.restore_link(command.node_a,
                                                           command.node_b);
                            });
        case Command::Kind::redistribute:
            return transact("redistribute", stream, false, step,
                            [&](core::Engine& engine) {
                                return apply_redistribute(engine,
                                                          command.demands);
                            });
        case Command::Kind::reload: {
            Response resp;
            resp.kind = "reload";
            std::ifstream in(command.path);
            if (!in)
                return refuse(std::move(resp), Refusal::argument,
                              "cannot read policy file: " + command.path,
                              stream, start);
            std::stringstream buffer;
            buffer << in.rdbuf();
            ir::Policy policy;
            try {
                policy = parser::parse_policy(buffer.str());
            } catch (const std::exception& e) {
                return refuse(std::move(resp), Refusal::argument, e.what(),
                              stream, start);
            }
            return reload_locked(policy, stream, step, start);
        }
        case Command::Kind::stats: {
            Response resp;
            resp.kind = "stats";
            resp.ok = true;
            resp.generation =
                serving_generation_.load(std::memory_order_relaxed);
            const std::shared_ptr<const Snapshot> snap = snapshot();
            resp.detail =
                "accepted=" + std::to_string(stats_.accepted) +
                " refused=" + std::to_string(stats_.refused) +
                " crashes=" + std::to_string(stats_.crashes) +
                " retries=" + std::to_string(stats_.retries) +
                " reloads=" + std::to_string(stats_.reloads) +
                " quarantines=" + std::to_string(stats_.quarantines) +
                " statements=" +
                std::to_string(snap->compilation.plans.size()) +
                " rules=" + std::to_string(snap->config.total_instructions());
            // The verify gate's reuse counts, over the generations it kept.
            if (options_.verify_updates)
                resp.detail +=
                    " " + analysis::to_text(checker_.total_counts());
            resp.ms = ms_since(start);
            return resp;
        }
        case Command::Kind::generation: {
            Response resp;
            resp.kind = "gen";
            resp.ok = true;
            resp.generation =
                serving_generation_.load(std::memory_order_relaxed);
            resp.ms = ms_since(start);
            return resp;
        }
        case Command::Kind::drain: {
            Response resp;
            resp.kind = "drain";
            resp.ok = true;
            resp.drained = drain_locked(command.drain_timeout);
            resp.generation =
                serving_generation_.load(std::memory_order_relaxed);
            resp.ms = ms_since(start);
            return resp;
        }
        case Command::Kind::release: {
            Response resp;
            resp.kind = "release";
            resp.ok = true;
            quarantined_.erase(command.target_stream);
            failures_.erase(command.target_stream);
            resp.generation =
                serving_generation_.load(std::memory_order_relaxed);
            resp.ms = ms_since(start);
            return resp;
        }
        case Command::Kind::shutdown: {
            Response resp;
            resp.kind = "shutdown";
            resp.ok = true;
            resp.generation =
                serving_generation_.load(std::memory_order_relaxed);
            resp.ms = ms_since(start);
            return resp;
        }
        case Command::Kind::invalid:
            break;
    }
    Response resp;
    resp.kind = "parse";
    return refuse(std::move(resp), Refusal::parse,
                  command.error.empty() ? "malformed control line"
                                        : command.error,
                  stream, start);
}

Response Controller::reload(const ir::Policy& policy, int stream) {
    std::lock_guard<std::mutex> lock(mutex_);
    return reload_locked(policy, stream, command_step_++, Clock::now());
}

Response Controller::transact(
    const char* kind, int stream, bool link_delta, int step,
    const std::function<core::Update_result(core::Engine&)>& apply_delta) {
    const Clock::time_point start = Clock::now();
    Response resp;
    resp.kind = kind;
    if (quarantined_.contains(stream))
        return refuse(std::move(resp), Refusal::quarantined,
                      "stream " + std::to_string(stream) +
                          " is quarantined (send `release " +
                          std::to_string(stream) + "` to resume)",
                      stream, start, /*stream_fault=*/false);

    int timeout_attempts = 0;
    bool crash_before = false;
    bool crash_between = false;
    for (const Fault_event& event : faults_.at(step)) {
        switch (event.kind) {
            case Fault_kind::solver_timeout:
                timeout_attempts = std::max(timeout_attempts, event.count);
                break;
            case Fault_kind::crash_before_publish:
                crash_before = true;
                break;
            case Fault_kind::crash_between_prepare_and_commit:
                crash_between = true;
                break;
            default:
                break;
        }
    }

    const int saved_limit = engine_.mip_node_limit();
    const analysis::Update_checker checker_backup = checker_;
    const codegen::Incremental incremental_backup = incremental_;
    core::Engine::Checkpoint saved;
    int attempt = 0;
    for (;;) {
        ++attempt;
        resp.attempts = attempt;
        saved = engine_.checkpoint();
        // Timeout injection clamps the node budget for the first `count`
        // attempts; genuine retries escalate it instead.
        if (attempt <= timeout_attempts) {
            engine_.set_mip_node_limit(1);
        } else if (attempt > 1) {
            long long budget = std::max(saved_limit, 1);
            for (int i = 1; i < attempt; ++i)
                budget = std::min<long long>(
                    budget * options_.retry_node_limit_factor, 1000000000LL);
            engine_.set_mip_node_limit(static_cast<int>(budget));
        }
        core::Update_result result;
        try {
            result = apply_delta(engine_);
        } catch (const std::exception& e) {
            // Engine delta ops are strongly exception safe: nothing moved.
            engine_.set_mip_node_limit(saved_limit);
            return refuse(std::move(resp), Refusal::argument, e.what(),
                          stream, start);
        }
        engine_.set_mip_node_limit(saved_limit);
        // An injected timeout discards the attempt's outcome wholesale —
        // even a feasible answer "arrived too late" — so the retry path is
        // exercised deterministically on any topology.
        const bool injected_timeout = attempt <= timeout_attempts;
        if (result.feasible && !injected_timeout) break;
        // Truncated search (node limit hit, nothing proved) is transient;
        // a proven infeasibility is permanent.
        const bool transient =
            injected_timeout ||
            (result.solver_run &&
             !engine_.current().provision.proven_infeasible);
        if (injected_timeout) result.diagnostic = "injected solver timeout";
        engine_.restore(saved);
        if (transient && attempt <= options_.max_retries) {
            ++stats_.retries;
            sleep_for(backoff_delay(attempt));
            continue;
        }
        return refuse(std::move(resp),
                      transient ? Refusal::timeout : Refusal::infeasible,
                      result.diagnostic.empty() ? "provisioning failed"
                                                : result.diagnostic,
                      stream, start);
    }

    // Gates on the candidate (the slot still serves the old snapshot).
    if (options_.lint_policies) {
        const analysis::Report report =
            analysis::lint_policy(engine_.policy(), engine_.topology());
        if (analysis::has_errors(report)) {
            engine_.restore(saved);
            return refuse(std::move(resp), Refusal::lint, first_error(report),
                          stream, start);
        }
    }
    codegen::Configuration config;
    if (options_.verify_updates) {
        analysis::Report report;
        try {
            report =
                checker_.step(engine_.current(), engine_.topology(),
                              !link_delta);
        } catch (const std::exception& e) {
            engine_.restore(saved);
            checker_ = checker_backup;
            return refuse(std::move(resp), Refusal::verify, e.what(), stream,
                          start);
        }
        if (analysis::has_errors(report)) {
            engine_.restore(saved);
            checker_ = checker_backup;
            return refuse(std::move(resp), Refusal::verify,
                          first_error(report), stream, start);
        }
        config = checker_.config();
    } else {
        (void)incremental_.update(engine_.current(), engine_.topology());
        config = incremental_.config();
    }

    if (crash_before) {
        engine_.restore(saved);
        checker_ = checker_backup;
        incremental_ = incremental_backup;
        ++stats_.crashes;
        return refuse(std::move(resp), Refusal::crash,
                      "injected crash before publish; last-good snapshot "
                      "recovered",
                      stream, start, /*stream_fault=*/false);
    }

    // Prepare: build the complete snapshot off the serving path...
    auto next = std::make_shared<Snapshot>();
    next->generation =
        serving_generation_.load(std::memory_order_relaxed) + 1;
    next->compilation = engine_.current();
    next->topology = engine_.topology();
    next->config = std::move(config);
    next->checksum = snapshot_fingerprint(*next);

    if (crash_between) {
        engine_.restore(saved);
        checker_ = checker_backup;
        incremental_ = incremental_backup;
        ++stats_.crashes;
        return refuse(std::move(resp), Refusal::crash,
                      "injected crash between prepare and commit; last-good "
                      "snapshot recovered",
                      stream, start, /*stream_fault=*/false);
    }

    // ... then commit with one pointer swap: readers see old-complete or
    // new-complete, never a blend.
    resp.generation = next->generation;
    publish_locked(std::move(next));
    ++stats_.accepted;
    failures_.erase(stream);
    resp.ok = true;
    resp.ms = ms_since(start);
    return resp;
}

Response Controller::reload_locked(const ir::Policy& policy, int stream,
                                   int step, Clock::time_point start) {
    Response resp;
    resp.kind = "reload";
    if (quarantined_.contains(stream))
        return refuse(std::move(resp), Refusal::quarantined,
                      "stream " + std::to_string(stream) + " is quarantined",
                      stream, start, /*stream_fault=*/false);

    int timeout_attempts = 0;
    bool crash_before = false;
    bool crash_between = false;
    for (const Fault_event& event : faults_.at(step)) {
        switch (event.kind) {
            case Fault_kind::solver_timeout:
                timeout_attempts = std::max(timeout_attempts, event.count);
                break;
            case Fault_kind::crash_before_publish:
                crash_before = true;
                break;
            case Fault_kind::crash_between_prepare_and_commit:
                crash_between = true;
                break;
            default:
                break;
        }
    }

    const analysis::Update_checker checker_backup = checker_;
    const codegen::Incremental incremental_backup = incremental_;
    // Blue/green: the replacement compiles into a fresh engine (inheriting
    // the serving topology, link failures included) while the blue engine
    // keeps serving; nothing below mutates `engine_` until commit.
    std::optional<core::Engine> green;
    int attempt = 0;
    for (;;) {
        ++attempt;
        resp.attempts = attempt;
        core::Compile_options copts = compile_options_;
        if (attempt <= timeout_attempts) {
            copts.mip.max_nodes = 1;
        } else if (attempt > 1) {
            long long budget = std::max(compile_options_.mip.max_nodes, 1);
            for (int i = 1; i < attempt; ++i)
                budget = std::min<long long>(
                    budget * options_.retry_node_limit_factor, 1000000000LL);
            copts.mip.max_nodes = static_cast<int>(budget);
        }
        green.reset();
        try {
            green.emplace(policy, engine_.topology(), copts);
        } catch (const std::exception& e) {
            return refuse(std::move(resp), Refusal::argument, e.what(),
                          stream, start);
        }
        const bool injected_timeout = attempt <= timeout_attempts;
        if (green->current().feasible && !injected_timeout) break;
        const core::Provision_result& prov = green->current().provision;
        const bool transient =
            injected_timeout || (std::strcmp(prov.solver, "none") != 0 &&
                                 !prov.proven_infeasible);
        if (transient && attempt <= options_.max_retries) {
            ++stats_.retries;
            sleep_for(backoff_delay(attempt));
            continue;
        }
        return refuse(std::move(resp),
                      transient ? Refusal::timeout : Refusal::infeasible,
                      injected_timeout ? "injected solver timeout"
                                       : green->current().diagnostic,
                      stream, start);
    }

    if (options_.lint_policies) {
        const analysis::Report report =
            analysis::lint_policy(green->policy(), green->topology());
        if (analysis::has_errors(report))
            return refuse(std::move(resp), Refusal::lint, first_error(report),
                          stream, start);
    }
    codegen::Configuration config;
    if (options_.verify_updates) {
        // The checker proves the two-phase transition from the serving
        // tables to the green tables — blue/green cutover is per-packet
        // consistent, not just eventually correct.
        analysis::Report report;
        try {
            report = checker_.step(green->current(), green->topology(), true);
        } catch (const std::exception& e) {
            checker_ = checker_backup;
            return refuse(std::move(resp), Refusal::verify, e.what(), stream,
                          start);
        }
        if (analysis::has_errors(report)) {
            checker_ = checker_backup;
            return refuse(std::move(resp), Refusal::verify,
                          first_error(report), stream, start);
        }
        config = checker_.config();
    } else {
        (void)incremental_.update(green->current(), green->topology());
        config = incremental_.config();
    }

    if (crash_before) {
        checker_ = checker_backup;
        incremental_ = incremental_backup;
        ++stats_.crashes;
        return refuse(std::move(resp), Refusal::crash,
                      "injected crash before publish; green engine discarded",
                      stream, start, /*stream_fault=*/false);
    }
    auto next = std::make_shared<Snapshot>();
    next->generation =
        serving_generation_.load(std::memory_order_relaxed) + 1;
    next->compilation = green->current();
    next->topology = green->topology();
    next->config = std::move(config);
    next->checksum = snapshot_fingerprint(*next);
    if (crash_between) {
        checker_ = checker_backup;
        incremental_ = incremental_backup;
        ++stats_.crashes;
        return refuse(std::move(resp), Refusal::crash,
                      "injected crash between prepare and commit; green "
                      "engine discarded",
                      stream, start, /*stream_fault=*/false);
    }

    engine_ = std::move(*green);
    resp.generation = next->generation;
    publish_locked(std::move(next));
    ++stats_.accepted;
    ++stats_.reloads;
    failures_.erase(stream);
    resp.ok = true;
    resp.drained = drain_locked(options_.reload_drain_timeout);
    resp.ms = ms_since(start);
    return resp;
}

Response Controller::refuse(Response response, Refusal code,
                            std::string reason, int stream,
                            Clock::time_point start, bool stream_fault) {
    response.ok = false;
    response.code = code;
    response.detail = std::move(reason);
    response.generation = serving_generation_.load(std::memory_order_relaxed);
    response.ms = ms_since(start);
    ++stats_.refused;
    if (stream_fault && options_.quarantine_after > 0) {
        const int failures = ++failures_[stream];
        if (failures >= options_.quarantine_after &&
            !quarantined_.contains(stream)) {
            quarantined_.insert(stream);
            ++stats_.quarantines;
            response.detail += " [stream " + std::to_string(stream) +
                               " quarantined after " +
                               std::to_string(failures) +
                               " consecutive refusals]";
        }
    }
    return response;
}

void Controller::publish_locked(std::shared_ptr<Snapshot> next) {
    const std::uint64_t generation = next->generation;
    const std::shared_ptr<const Snapshot> old =
        slot_.load(std::memory_order_relaxed);
    if (old) retired_.push_back(old);
    slot_.store(std::shared_ptr<const Snapshot>(std::move(next)),
                std::memory_order_release);
    serving_generation_.store(generation, std::memory_order_release);
    std::erase_if(retired_, [](const std::weak_ptr<const Snapshot>& w) {
        return w.expired();
    });
}

bool Controller::drain(std::chrono::milliseconds timeout) {
    std::lock_guard<std::mutex> lock(mutex_);
    return drain_locked(timeout);
}

bool Controller::drain_locked(std::chrono::milliseconds timeout) {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
        std::erase_if(retired_, [](const std::weak_ptr<const Snapshot>& w) {
            return w.expired();
        });
        if (retired_.empty()) return true;
        if (Clock::now() >= deadline) return false;
        sleep_for(std::chrono::milliseconds(1));
    }
}

void Controller::set_fault_plan(Fault_plan plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    faults_ = std::move(plan);
    command_step_ = 0;
}

bool Controller::quarantined(int stream) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_.contains(stream);
}

void Controller::release(int stream) {
    std::lock_guard<std::mutex> lock(mutex_);
    quarantined_.erase(stream);
    failures_.erase(stream);
}

Daemon_stats Controller::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void Controller::sleep_for(std::chrono::milliseconds delay) {
    if (delay.count() <= 0) return;
    if (options_.sleeper)
        options_.sleeper(delay);
    else
        std::this_thread::sleep_for(delay);
}

std::uint64_t Controller::next_jitter() {
    jitter_state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = jitter_state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::chrono::milliseconds Controller::backoff_delay(int attempt) {
    const long long base = std::max<long long>(options_.backoff_base.count(), 0);
    const long long cap = std::max<long long>(options_.backoff_cap.count(), base);
    long long delay = base;
    for (int i = 1; i < attempt && delay < cap; ++i) delay *= 2;
    delay = std::min(delay, cap);
    // Full-jitter tail: up to one base interval on top, so retry bursts
    // from independent streams decorrelate.
    const long long jitter =
        base > 0 ? static_cast<long long>(
                       next_jitter() % static_cast<std::uint64_t>(base + 1))
                 : 0;
    return std::chrono::milliseconds(std::min(delay + jitter, cap));
}

}  // namespace merlin::daemon
