// Code generation (Section 3.4).
//
// Turns a Compilation into per-device instructions:
//
//   * OpenFlow rules for switches. Forwarding uses VLAN tags to encode paths
//     — one tag per (sink tree, NFA state) for best-effort traffic and one
//     tag per provisioned path for guaranteed traffic — so forwarding is
//     robust to header rewrites by middleboxes (the FlowTags-style scheme
//     the paper describes). Ingress switches classify on the statement
//     predicate and push the tag; core switches match only the tag; egress
//     switches strip it and deliver by destination MAC.
//   * Queue configurations on switch ports for bandwidth guarantees.
//   * `tc` commands on end hosts for bandwidth caps.
//   * `iptables` rules on end hosts for dropped traffic classes.
//   * Click configurations for packet-processing functions placed on
//     middleboxes (and host-interpreter programs for host placements).
//
// Figure 4 counts exactly these artifact classes.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "interp/interp.h"
#include "ir/ast.h"
#include "pred/analysis.h"
#include "topo/topology.h"
#include "util/units.h"

namespace merlin::codegen {

// Flow-table priority bands (highest wins). The load-bearing invariant —
// asserted by validate() whenever a table is built or a diff is applied —
// is that every tag-matching rule strictly outranks every tag-wildcard
// (predicate-matching) rule on the same device: once a packet carries a
// segment or tree tag its fate is decided by the tag alone, so a path that
// revisits its ingress switch cannot be re-classified by the ingress rule
// it already matched, and no diff application order can reintroduce that
// ambiguity.
inline constexpr int kClassifyPriority = 10;     // predicate -> tag / deliver
inline constexpr int kDropPriority = 12;         // predicate -> drop (edge)
inline constexpr int kTreeForwardPriority = 25;  // tree tag -> forward
inline constexpr int kDeliveryPriority = 28;     // tag + dst mac -> deliver
inline constexpr int kSegmentTagPriority = 31;   // segment tag -> forward
static_assert(kTreeForwardPriority > kDropPriority &&
                  kTreeForwardPriority > kClassifyPriority &&
                  kDeliveryPriority > kTreeForwardPriority &&
                  kSegmentTagPriority > kDeliveryPriority,
              "tag-matching rules must strictly outrank predicate rules");

// The usable 802.1Q tag range: 0 and 1 are reserved, 4095 is the wildcard.
inline constexpr int kMinVlanTag = 2;
inline constexpr int kMaxVlanTag = 4094;

// One OpenFlow flow-table entry.
struct Flow_rule {
    std::string device;  // switch name
    int priority = 0;

    // Match side (unset fields are wildcards).
    std::optional<int> match_tag;           // VLAN tag
    ir::PredPtr match;                      // header predicate (ingress)
    std::optional<std::uint64_t> match_dst_mac;

    // Action side.
    bool drop = false;
    std::optional<int> set_tag;    // push/set VLAN
    bool strip_tag = false;
    std::string out_port;          // name of the neighbour to forward to
    std::optional<int> queue;      // enqueue on this port queue
};

struct Queue_config {
    std::string device;    // switch name
    std::string port;      // neighbour name the port faces
    int queue_id = 0;
    Bandwidth min_rate;    // guarantee
    std::optional<Bandwidth> max_rate;  // cap, when present
};

struct Host_command {
    std::string host;
    std::string command;  // a tc(8) or iptables(8) invocation
};

struct Click_config {
    std::string device;    // middlebox or host name
    std::string function;  // dpi, nat, log, ...
    std::string config;    // Click snippet / host-interpreter program
};

struct Configuration {
    std::vector<Flow_rule> flow_rules;
    std::vector<Queue_config> queues;
    std::vector<Host_command> tc_commands;
    std::vector<Host_command> iptables_rules;
    std::vector<Click_config> click_configs;

    // Classify-rule compression: predicate-matching rules (classify and
    // drop) that were *not* emitted because a statement with a
    // hash-cons-equal predicate BDD already emitted an identical rule on
    // the same device. Emitted rules carry the group's canonical
    // (lexicographically smallest) predicate text, so the shared rule is
    // stable across deltas no matter which group member emits first.
    long long classify_rules_deduped = 0;

    [[nodiscard]] int total_instructions() const {
        return static_cast<int>(flow_rules.size() + queues.size() +
                                tc_commands.size() + iptables_rules.size() +
                                click_configs.size());
    }
};

// Stable name allocator shared by successive generate() calls.
//
// VLAN tags and per-host tc class ids are bound to *identity keys* —
// strings derived from what a rule does (statement id + segment ordinal +
// path node sequence for guaranteed segments; path expression + egress
// switch + NFA state + tree content signature for shared sink trees; host +
// statement id for tc classes) rather than from emission order. After a
// delta, re-generating through the same Naming reuses every name whose
// behaviour is unchanged, which is what makes table diffs minimal and
// two-phase updates sound (changed forwarding behaviour ⇒ fresh tag, so
// in-flight packets finish on the rules that classified them).
//
// The lifecycle is mark-and-sweep: begin_generation() clears the use
// marks, generate() marks every binding it touches, collect_unused()
// releases the rest into a free list and returns the retired VLAN tags.
// Released tags are recycled lowest-first; allocation throws Policy_error
// with a diagnostic when all 4093 usable VLAN ids (2..4094) are live at
// once — previously the counter ran past 4094 and emitted corrupt tables.
class Naming {
public:
    // The tag (or tc class id) bound to `key`, allocating on first use.
    [[nodiscard]] int tag(const std::string& key);
    [[nodiscard]] int host_class(const std::string& host,
                                 const std::string& statement_id);

    // Mark-and-sweep generation lifecycle.
    void begin_generation();
    std::vector<int> collect_unused();  // returns retired VLAN tags, sorted

    // Introspection (diff fingerprints, tests, diagnostics).
    [[nodiscard]] std::size_t live_tags() const { return tags_.size(); }
    [[nodiscard]] int high_water() const { return next_tag_ - 1; }
    [[nodiscard]] std::map<std::string, int> tag_bindings() const;
    // "host|statement id" -> tc class id.
    [[nodiscard]] std::map<std::string, int> class_bindings() const;

private:
    struct Binding {
        int id = 0;
        bool used = true;
    };
    std::map<std::string, Binding> tags_;
    std::set<int> free_tags_;
    int next_tag_ = kMinVlanTag;
    std::map<std::string, Binding> classes_;  // key: "host|statement id"
    std::map<std::string, std::set<int>> free_classes_;  // per host
    std::map<std::string, int> next_class_;              // per host
};

// Generates all device instructions for a feasible compilation.
// Throws Policy_error when called on an infeasible compilation. The
// Naming overload binds tags/class ids through the caller's allocator so
// successive generations produce diff-minimal tables; the two-argument
// form uses a scratch allocator (deterministic batch output). Both group
// predicates in a per-call predicate space; the four-argument form
// compiles through the caller's, which may be kept across generations
// (codegen::Incremental's) — the output does not depend on it.
[[nodiscard]] Configuration generate(const core::Compilation& compilation,
                                     const topo::Topology& topo);
[[nodiscard]] Configuration generate(const core::Compilation& compilation,
                                     const topo::Topology& topo,
                                     Naming& naming);
[[nodiscard]] Configuration generate(const core::Compilation& compilation,
                                     const topo::Topology& topo,
                                     Naming& naming, pred::Analyzer& analyzer);

// Checks the table invariants diff application relies on: every tag is
// within the usable VLAN range, and on every device the lowest-priority
// tag-matching rule still outranks the highest-priority predicate rule.
// Throws Policy_error naming the offending device otherwise. generate()
// and diff application both call this.
void validate(const Configuration& config);

// Human-readable dump (used by examples and for debugging).
[[nodiscard]] std::string to_text(const Configuration& config);
[[nodiscard]] std::string to_text(const Flow_rule& rule);

// Per-host programs for the end-host interpreter backend (Section 3.4's
// netfilter prototype): drops, rate limits (caps), and allows for the
// traffic each host originates. Keys are host names.
[[nodiscard]] std::map<std::string, interp::Program> host_programs(
    const core::Compilation& compilation, const topo::Topology& topo);

}  // namespace merlin::codegen
