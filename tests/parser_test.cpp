#include "parser/parser.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "ir/ast.h"
#include "ir/fields.h"
#include "util/error.h"

namespace merlin::parser {
namespace {

using namespace merlin::ir;

// The running example from Section 2 of the paper.
const char* kRunningExample = R"(
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  y : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 21) -> .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 100MB/s)
)";

TEST(Parser, RunningExample) {
    const Policy p = parse_policy(kRunningExample);
    ASSERT_EQ(p.statements.size(), 3u);
    EXPECT_EQ(p.statements[0].id, "x");
    EXPECT_EQ(p.statements[1].id, "y");
    EXPECT_EQ(p.statements[2].id, "z");

    // x's predicate is a conjunction ending in tcp.dst = 20.
    const PredPtr& px = p.statements[0].predicate;
    EXPECT_EQ(px->kind, Pred_kind::and_);

    // y's path is `.*`.
    EXPECT_TRUE(equal(p.statements[1].path, path_any_star()));

    // Formula: max(x+y, 50MB/s) and min(z, 100MB/s).
    ASSERT_TRUE(p.formula);
    EXPECT_EQ(p.formula->kind, Formula_kind::and_);
    EXPECT_EQ(p.formula->lhs->kind, Formula_kind::max);
    EXPECT_EQ(p.formula->lhs->term.ids,
              (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(p.formula->lhs->rate, mb_per_sec(50));
    EXPECT_EQ(p.formula->rhs->kind, Formula_kind::min);
    EXPECT_EQ(p.formula->rhs->rate, mb_per_sec(100));
}

TEST(Parser, StatementsWithoutSemicolons) {
    // Newlines are not significant; lookahead must still split statements.
    const Policy p = parse_policy(
        "[ x : tcp.dst = 20 -> .* dpi .*\n"
        "  y : tcp.dst = 21 -> .* ]");
    ASSERT_EQ(p.statements.size(), 2u);
    EXPECT_TRUE(equal(p.statements[1].path, path_any_star()));
    EXPECT_FALSE(p.formula);
}

TEST(Parser, ForeachCrossSugar) {
    // The sugar example from Section 2.1, equivalent to statement z.
    const Policy p = parse_policy(R"(
srcs := {00:00:00:00:00:01}
dsts := {00:00:00:00:00:02}
foreach (s,d) in cross(srcs,dsts):
  tcp.dst = 80 -> ( .* nat .* dpi .*) at max(100MB/s)
)");
    ASSERT_EQ(p.statements.size(), 1u);
    const Statement& s = p.statements[0];
    EXPECT_EQ(s.id, "g0");
    // Predicate: eth.src = 1 and eth.dst = 2 and tcp.dst = 80.
    EXPECT_EQ(to_string(s.predicate),
              "eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 "
              "and tcp.dst = 80");
    ASSERT_TRUE(p.formula);
    EXPECT_EQ(p.formula->kind, Formula_kind::max);
    EXPECT_EQ(p.formula->term.ids, (std::vector<std::string>{"g0"}));
    EXPECT_EQ(p.formula->rate, mb_per_sec(100));
}

TEST(Parser, ForeachSkipsSelfPairs) {
    const Policy p = parse_policy(R"(
hs := {00:00:00:00:00:01, 00:00:00:00:00:02, 00:00:00:00:00:03}
foreach (s,d) in cross(hs,hs): true -> .*
)");
    EXPECT_EQ(p.statements.size(), 6u);  // 3*3 minus 3 self-pairs
    for (const Statement& s : p.statements) {
        // Body predicate `true` is dropped; only the endpoint tests remain.
        EXPECT_EQ(s.predicate->kind, Pred_kind::and_);
    }
}

TEST(Parser, ForeachWithIpSets) {
    const Policy p = parse_policy(R"(
a := {192.168.1.1}
b := {192.168.1.2}
foreach (s,d) in cross(a,b): true -> .*
)");
    ASSERT_EQ(p.statements.size(), 1u);
    EXPECT_EQ(to_string(p.statements[0].predicate),
              "ip.src = 192.168.1.1 and ip.dst = 192.168.1.2");
}

TEST(Parser, PredicateOperatorsAndAliases) {
    // The delegation example of Section 4.1 uses `!(tcpDst=22|tcpDst=80)`.
    const PredPtr p = parse_predicate("!(tcpDst = 22 | tcpDst = 80)");
    EXPECT_EQ(p->kind, Pred_kind::not_);
    EXPECT_EQ(p->lhs->kind, Pred_kind::or_);
    EXPECT_EQ(p->lhs->lhs->field, "tcp.dst");
}

TEST(Parser, PredicateNotEquals) {
    const PredPtr p = parse_predicate("ip.proto = tcp and tcp.dst != 80");
    EXPECT_EQ(p->kind, Pred_kind::and_);
    EXPECT_EQ(p->lhs->field, "ip.proto");
    EXPECT_EQ(p->lhs->value, 6u);  // tcp
    EXPECT_EQ(p->rhs->kind, Pred_kind::not_);
    EXPECT_EQ(p->rhs->lhs->value, 80u);
}

TEST(Parser, PayloadPredicate) {
    const PredPtr p = parse_predicate("payload = \"GET /\"");
    EXPECT_EQ(p->kind, Pred_kind::payload);
    EXPECT_EQ(p->needle, "GET /");
}

TEST(Parser, PathOperatorsAndPrecedence) {
    // Alternation binds loosest, then sequencing, then unary.
    const PathPtr p = parse_path("h1 s1* | !(dpi nat) .");
    ASSERT_EQ(p->kind, Path_kind::alt);
    EXPECT_EQ(p->lhs->kind, Path_kind::seq);
    EXPECT_EQ(p->lhs->lhs->symbol, "h1");
    EXPECT_EQ(p->lhs->rhs->kind, Path_kind::star);
    EXPECT_EQ(p->rhs->kind, Path_kind::seq);
    EXPECT_EQ(p->rhs->lhs->kind, Path_kind::not_);
    EXPECT_EQ(p->rhs->rhs->kind, Path_kind::any);
}

TEST(Parser, PathRoundTripsThroughPrinter) {
    for (const char* text :
         {".*", "h1 .* h2", ".* dpi .* nat .*", "(a | b)* c", "!(a b) | c*",
          "a b c d", "h1 (s1 | s2 | s3)* h2"}) {
        const PathPtr once = parse_path(text);
        const PathPtr twice = parse_path(ir::to_string(once));
        EXPECT_TRUE(equal(once, twice)) << text;
    }
}

TEST(Parser, PolicyRoundTripsThroughPrinter) {
    const Policy p = parse_policy(kRunningExample);
    const Policy q = parse_policy(ir::to_string(p));
    EXPECT_TRUE(equal(p, q));
}

TEST(Parser, FormulaTermWithConstant) {
    const FormulaPtr f = parse_formula("max(x + y + 10MB/s, 100MB/s)");
    EXPECT_EQ(f->term.ids, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(f->term.constant, mb_per_sec(10).bps());
}

TEST(Parser, FormulaOrAndNot) {
    const FormulaPtr f =
        parse_formula("max(x, 1Mbps) or ! min(y, 2Mbps) and max(z, 3Mbps)");
    // `and` binds tighter than `or`.
    EXPECT_EQ(f->kind, Formula_kind::or_);
    EXPECT_EQ(f->rhs->kind, Formula_kind::and_);
    EXPECT_EQ(f->rhs->lhs->kind, Formula_kind::not_);
}

TEST(Parser, MultipleBlocksAndFormulas) {
    // Section 4.1 writes delegated policies as a sequence of blocks, each
    // with its own trailing formula; all are merged.
    const Policy p = parse_policy(R"(
[x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80)
     -> .* log .*],
[y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 22)
     -> .* ],
max(x, 50MB/s) and max(y, 25MB/s)
)");
    EXPECT_EQ(p.statements.size(), 2u);
    ASSERT_TRUE(p.formula);
    EXPECT_EQ(p.formula->kind, Formula_kind::and_);
}

TEST(Parser, Diagnostics) {
    EXPECT_THROW((void)parse_policy("[x : bogus.field = 2 -> .*]"),
                 Parse_error);
    EXPECT_THROW((void)parse_policy("[x : tcp.dst = 99999 -> .*]"),
                 Parse_error);  // out of 16-bit range
    EXPECT_THROW((void)parse_policy("[x : tcp.dst = 80 -> ]"), Parse_error);
    EXPECT_THROW((void)parse_policy("[x : tcp.dst = 80 .*]"), Parse_error);
    EXPECT_THROW((void)parse_policy("[x : tcp.dst = 80 -> .*"), Parse_error);
    EXPECT_THROW((void)parse_policy("foreach (s,d) in cross(nope,nope): true -> .*"),
                 Parse_error);
    EXPECT_THROW((void)parse_policy("[max : true -> .*]"), Parse_error);
    EXPECT_THROW((void)parse_policy("[x : true -> .* ; x : false -> .*]"),
                 Parse_error);  // duplicate id
}

TEST(Parser, LexerDiagnostics) {
    // One case per lexer throw site.
    EXPECT_THROW((void)parse_policy("- "), Parse_error);  // '-' without '>'
    EXPECT_THROW((void)parse_policy("\"unterminated"), Parse_error);
    EXPECT_THROW((void)parse_policy("@"), Parse_error);  // unknown character
    // next_value at end of input, and at a token with no value characters.
    EXPECT_THROW((void)parse_policy("[ x : tcp.dst ="), Parse_error);
    EXPECT_THROW((void)parse_policy("[ x : tcp.dst = ]"), Parse_error);
}

TEST(Parser, RejectsMalformedRates) {
    EXPECT_THROW((void)parse_policy("[ x : true -> .* ], min(x, bogus)"),
                 Parse_error);
    EXPECT_THROW((void)parse_policy("[ x : true -> .* at max(notarate) ]"),
                 Parse_error);
}

TEST(Parser, NumericLiteralsAreReadWholeAndWithinSixtyFourBits) {
    // Base-0 parsing read "09" as octal 0 and stopped at the '9'; the
    // overlong literal threw std::out_of_range out of the parser.
    for (const std::string literal : {"09", "99999999999999999999999"}) {
        try {
            (void)parse_policy("[x : tcp.dst = " + literal + " -> .*]");
            ADD_FAILURE() << literal << " was accepted";
        } catch (const Parse_error& e) {
            EXPECT_NE(std::string(e.what()).find("invalid value '" + literal +
                                                 "' for field tcp.dst"),
                      std::string::npos)
                << e.what();
        }
    }
    const Policy p = parse_policy("[x : tcp.dst = 0x50 -> .*]");
    ASSERT_EQ(p.statements.front().predicate->kind, Pred_kind::test);
    EXPECT_EQ(p.statements.front().predicate->value, 80u);

    const Field port = *find_field("tcp.dst");
    EXPECT_EQ(parse_field_value(port, "80"), 80u);
    EXPECT_EQ(parse_field_value(port, "0x50"), 80u);
    EXPECT_EQ(parse_field_value(port, "010"), 8u);  // C-style octal stays
    EXPECT_FALSE(parse_field_value(port, "0x").has_value());
    EXPECT_FALSE(parse_field_value(port, "80x").has_value());
    const Field mac = *find_field("eth.src");
    EXPECT_EQ(parse_field_value(mac, "18446744073709551615"), std::nullopt);
}

TEST(Parser, ErrorPositionsAreReported) {
    try {
        (void)parse_policy("[x : tcp.dst =\n@ -> .*]");
        FAIL() << "expected Parse_error";
    } catch (const Parse_error& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

// `depth` copies of `open`, then `core`, then `depth` copies of `close`.
std::string nested(int depth, const std::string& open,
                   const std::string& core, const std::string& close) {
    std::string out;
    for (int i = 0; i < depth; ++i) out += open;
    out += core;
    for (int i = 0; i < depth; ++i) out += close;
    return out;
}

TEST(Parser, DeepNestingIsRefusedWithThePosition) {
    // Each of these used to overflow the stack of the recursive descent.
    constexpr int kDeep = 200'000;
    const std::string stmt = "[x : tcp.dst = 80 -> .*] ";
    const std::string rate = "max(x, 10Mbps)";
    const std::pair<std::string, std::string> forms[] = {
        {"predicate groups",
         "[x : " + nested(kDeep, "(", "true", ")") + " -> .*]"},
        {"predicate negations",
         "[x : " + nested(kDeep, "!", "true", "") + " -> .*]"},
        {"path groups", "[x : true -> " + nested(kDeep, "(", ".*", ")") + "]"},
        {"path negations",
         "[x : true -> " + nested(kDeep, "!", ".*", "") + "]"},
        {"formula groups", stmt + nested(kDeep, "(", rate, ")")},
        {"formula negations", stmt + nested(kDeep, "!", rate, "")},
    };
    for (const auto& [what, text] : forms) {
        try {
            (void)parse_policy(text);
            ADD_FAILURE() << what << " was accepted";
        } catch (const Parse_error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "nesting deeper than 256 levels"),
                      std::string::npos)
                << what << ": " << e.what();
            EXPECT_EQ(e.line(), 1) << what;
        }
    }
    // The refusal points at the 257th opening token: "[x : " is 5 columns.
    try {
        (void)parse_policy(forms[0].second);
    } catch (const Parse_error& e) {
        EXPECT_EQ(e.column(), 5 + 257);
    }
    // The limit itself still parses, in every grammar.
    EXPECT_NO_THROW((void)parse_predicate(nested(256, "(", "true", ")")));
    EXPECT_NO_THROW((void)parse_predicate(nested(256, "!", "true", "")));
    EXPECT_NO_THROW((void)parse_path(nested(256, "(", ".*", ")")));
    EXPECT_NO_THROW((void)parse_formula(nested(256, "!", rate, "")));
    EXPECT_THROW((void)parse_predicate(nested(257, "(", "true", ")")),
                 Parse_error);
    // Sequential groups do not nest.
    std::string flat = "true";
    for (int i = 0; i < 1000; ++i) flat += " and (true)";
    EXPECT_NO_THROW((void)parse_predicate(flat));
}

TEST(Fields, AliasesAndValues) {
    EXPECT_TRUE(find_field("tcp.dst").has_value());
    EXPECT_TRUE(find_field("tcpDst").has_value());
    EXPECT_EQ(find_field("tcpDst")->name, "tcp.dst");
    EXPECT_FALSE(find_field("nope").has_value());

    const Field mac = *find_field("eth.src");
    EXPECT_EQ(parse_field_value(mac, "00:00:00:00:00:ff"), 255u);
    EXPECT_EQ(format_field_value(mac, 255), "00:00:00:00:00:ff");

    const Field ip = *find_field("ip.src");
    EXPECT_EQ(parse_field_value(ip, "192.168.1.1"), 0xc0a80101u);
    EXPECT_EQ(format_field_value(ip, 0xc0a80101u), "192.168.1.1");
    EXPECT_FALSE(parse_field_value(ip, "300.1.1.1").has_value());

    const Field proto = *find_field("ip.proto");
    EXPECT_EQ(parse_field_value(proto, "tcp"), 6u);
    EXPECT_EQ(parse_field_value(proto, "udp"), 17u);
    EXPECT_FALSE(parse_field_value(proto, "512").has_value());  // 8-bit
}

}  // namespace
}  // namespace merlin::parser
