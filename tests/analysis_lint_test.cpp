// The policy linter: predicate disjointness (shadowing and overlap with
// witness packets), vacuous and unroutable path expressions, and rate
// conflicts inside the bandwidth formula.
#include "analysis/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parser/parser.h"
#include "topo/parse.h"

namespace merlin::analysis {
namespace {

using merlin::parser::parse_policy;

topo::Topology diamond_topology() {
    return topo::parse_topology(R"(
host h1
host h2
switch s1
switch s2
middlebox m1
link h1 s1 1Gbps
link s1 s2 1Gbps
link s2 h2 1Gbps
link s1 m1 1Gbps
link m1 s2 1Gbps
function dpi m1
)");
}

// First diagnostic of the given check, or nullptr.
const Diagnostic* find(const Report& report, const std::string& check) {
    for (const Diagnostic& d : report)
        if (d.check == check) return &d;
    return nullptr;
}

int count(const Report& report, const std::string& check) {
    int n = 0;
    for (const Diagnostic& d : report) n += d.check == check ? 1 : 0;
    return n;
}

TEST(AnalysisLint, CleanPolicyIsClean) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ;
  b : tcp.dst = 22 -> .* ],
min(a, 10MB/s) and max(b, 50MB/s)
)");
    EXPECT_TRUE(lint_policy(policy, diamond_topology()).empty());
}

TEST(AnalysisLint, ShadowedPredicateWithWitness) {
    // Every packet b matches is also matched by a — b is shadowed.
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ;
  b : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ],
max(a, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "shadowed-predicate");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::error);
    EXPECT_EQ(d->subject, "b");
    EXPECT_NE(d->message.find("'a'"), std::string::npos);
    // The witness is a concrete packet in the intersection.
    EXPECT_NE(d->witness.find("tcp.dst=80"), std::string::npos);
    EXPECT_NE(d->witness.find("ip.src=10.0.0.1"), std::string::npos);
    EXPECT_TRUE(has_errors(report));
}

TEST(AnalysisLint, PartialOverlapIsSymmetricViolation) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ;
  b : ip.src = 10.0.0.1 -> .* ],
max(a, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "overlapping-predicates");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(find(report, "shadowed-predicate"), nullptr);
    EXPECT_FALSE(d->witness.empty());
}

TEST(AnalysisLint, UnsatisfiablePredicateIsWarnedNotPaired) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 and tcp.dst = 22 -> .* ;
  b : tcp.dst = 80 -> .* ],
max(b, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "unsat-predicate");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::warning);
    EXPECT_EQ(d->subject, "a");
    // The empty class is excluded from the pairwise checks (it would
    // otherwise trivially "shadow" everything).
    EXPECT_EQ(find(report, "shadowed-predicate"), nullptr);
    EXPECT_EQ(find(report, "overlapping-predicates"), nullptr);
    EXPECT_FALSE(has_errors(report));
}

TEST(AnalysisLint, VacuousPathWithPacketWitness) {
    const ir::Policy policy = parse_policy(R"(
[ c : tcp.dst = 22 -> !(.*) ],
max(c, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "vacuous-path");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->subject, "c");
    EXPECT_NE(d->message.find("accepts no location word"), std::string::npos);
    EXPECT_NE(d->witness.find("tcp.dst=22"), std::string::npos);
}

TEST(AnalysisLint, UnknownLocationInPath) {
    const ir::Policy policy = parse_policy(R"(
[ c : tcp.dst = 22 -> .* nosuchnode .* ],
max(c, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    ASSERT_NE(find(report, "unknown-location"), nullptr);
}

TEST(AnalysisLint, DeadBestEffortThroughHostOnlyPath) {
    // A best-effort statement whose every path word needs the host symbol
    // h1 can never be routed (best-effort forwarding is switch-level).
    const ir::Policy policy = parse_policy(R"(
[ c : tcp.dst = 22 -> .* h1 .* ],
max(c, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "dead-best-effort");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::warning);
}

TEST(AnalysisLint, GuaranteedStatementMayUseHostPath) {
    const ir::Policy policy = parse_policy(R"(
[ c : tcp.dst = 22 -> .* h1 .* ],
min(c, 10MB/s)
)");
    EXPECT_EQ(find(lint_policy(policy, diamond_topology()),
                   "dead-best-effort"),
              nullptr);
}

// Path verdicts are memoized per path text; every statement sharing the
// text still gets its own finding, subject and witness.
TEST(AnalysisLint, SharedUnknownLocationIsReportedPerStatement) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 22 -> .* nosuchnode .* ;
  b : tcp.dst = 23 -> .* nosuchnode .* ],
max(a, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    std::vector<std::string> subjects;
    for (const Diagnostic& d : report) {
        if (d.check != "unknown-location") continue;
        subjects.push_back(d.subject);
        EXPECT_NE(d.message.find("nosuchnode"), std::string::npos);
    }
    EXPECT_EQ(subjects, (std::vector<std::string>{"a", "b"}));
}

TEST(AnalysisLint, SharedHostOnlyPathIsDeadOnlyForBestEffort) {
    const ir::Policy policy = parse_policy(R"(
[ e1 : tcp.dst = 22 -> .* h1 .* ;
  g : tcp.dst = 23 -> .* h1 .* ;
  e2 : tcp.dst = 24 -> .* h1 .* ;
  v1 : tcp.dst = 25 -> !(.*) ;
  v2 : tcp.dst = 26 -> !(.*) ],
min(g, 10MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    std::vector<std::string> dead;
    std::vector<std::string> vacuous;
    for (const Diagnostic& d : report) {
        if (d.check == "dead-best-effort") dead.push_back(d.subject);
        if (d.check == "vacuous-path") {
            vacuous.push_back(d.subject);
            EXPECT_NE(d.witness.find(d.subject == "v1" ? "tcp.dst=25"
                                                       : "tcp.dst=26"),
                      std::string::npos)
                << d.subject;
        }
    }
    EXPECT_EQ(dead, (std::vector<std::string>{"e1", "e2"}));
    EXPECT_EQ(vacuous, (std::vector<std::string>{"v1", "v2"}));
}

TEST(AnalysisLint, GuaranteeAboveCapIsConflict) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ],
min(a, 10MB/s) and max(a, 5MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "rate-conflict");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->subject, "a");
    EXPECT_NE(d->message.find("exceeds cap"), std::string::npos);
}

TEST(AnalysisLint, SummedGuaranteesExceedSharedCap) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ;
  b : tcp.dst = 22 -> .* ],
min(a, 8MB/s) and min(b, 8MB/s) and max(a + b, 10MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "rate-conflict");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("summed guarantees"), std::string::npos);
    EXPECT_NE(d->message.find("shared cap"), std::string::npos);
}

TEST(AnalysisLint, FormulaReferencingUnknownId) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ],
min(ghost, 10MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    const Diagnostic* d = find(report, "unknown-id");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->subject, "ghost");
}

TEST(AnalysisLint, ReportRendersTextAndJson) {
    const ir::Policy policy = parse_policy(R"(
[ a : tcp.dst = 80 -> .* ;
  b : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ],
max(a, 50MB/s)
)");
    const Report report = lint_policy(policy, diamond_topology());
    ASSERT_EQ(count(report, "shadowed-predicate"), 1);
    const std::string text = to_text(report);
    EXPECT_NE(text.find("error[shadowed-predicate] b:"), std::string::npos);
    EXPECT_NE(text.find("witness:"), std::string::npos);
    const std::string json = to_json(report);
    EXPECT_NE(json.find("\"check\": \"shadowed-predicate\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

}  // namespace
}  // namespace merlin::analysis
