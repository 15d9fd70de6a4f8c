#include "parser/parser.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/fields.h"
#include "parser/lexer.h"
#include "util/error.h"
#include "util/strings.h"

namespace merlin::parser {
namespace {

using namespace merlin::ir;

// Open groups and negations a parse may nest. Far beyond any real policy,
// and shallow enough for every recursive pass over the AST.
constexpr int kMaxNesting = 256;

bool is_keyword(const std::string& text) {
    static const std::set<std::string> kw{"and", "or",  "true",    "false",
                                          "max", "min", "at",      "foreach",
                                          "in",  "cross", "payload"};
    return kw.contains(text);
}

class Parser {
public:
    explicit Parser(const std::string& source) : lexer_(source) {}

    Policy policy() {
        Policy out;
        while (!at(Token_kind::eof)) {
            if (accept(Token_kind::comma)) continue;
            if (at(Token_kind::lbracket)) {
                statement_block(out);
            } else if (at_keyword("foreach")) {
                foreach_clause(out);
            } else if (at(Token_kind::identifier) &&
                       !is_keyword(lexer_.peek().text)) {
                set_definition();
            } else {
                // Must be a formula (max/min/!/parenthesized).
                FormulaPtr f = formula();
                out.formula = out.formula ? formula_and(out.formula, f) : f;
            }
        }
        check_unique_ids(out);
        return out;
    }

    PredPtr predicate_only() {
        PredPtr p = predicate();
        expect_eof();
        return p;
    }

    PathPtr path_only() {
        PathPtr p = path();
        expect_eof();
        return p;
    }

    FormulaPtr formula_only() {
        FormulaPtr f = formula();
        expect_eof();
        return f;
    }

private:
    // ------------------------------------------------------------- helpers
    [[nodiscard]] bool at(Token_kind kind) {
        return lexer_.peek().kind == kind;
    }
    [[nodiscard]] bool at_keyword(const char* word) {
        return at(Token_kind::identifier) && lexer_.peek().text == word;
    }
    bool accept(Token_kind kind) {
        if (!at(kind)) return false;
        lexer_.next();
        return true;
    }
    bool accept_keyword(const char* word) {
        if (!at_keyword(word)) return false;
        lexer_.next();
        return true;
    }
    Token expect(Token_kind kind, const char* context) {
        if (!at(kind))
            fail(std::string("expected ") + to_string(kind) + " " + context +
                 ", found '" + lexer_.peek().text + "'");
        return lexer_.next();
    }
    void expect_keyword(const char* word, const char* context) {
        if (!at_keyword(word))
            fail(std::string("expected '") + word + "' " + context);
        lexer_.next();
    }
    void expect_eof() {
        if (!at(Token_kind::eof))
            fail("unexpected trailing input: '" + lexer_.peek().text + "'");
    }
    [[noreturn]] void fail(const std::string& message) {
        throw Parse_error(message, lexer_.peek().line, lexer_.peek().column);
    }

    // Counts one level of the recursive productions (a parenthesized
    // group or a `!`) for its lifetime; built while the opening token is
    // still next, so a refusal points at it. Past kMaxNesting levels the
    // parse is refused, where recursing on would overflow the stack.
    class Nesting {
    public:
        explicit Nesting(Parser& parser) : parser_(parser) {
            if (++parser_.depth_ > kMaxNesting)
                parser_.fail("nesting deeper than " +
                             std::to_string(kMaxNesting) + " levels");
        }
        Nesting(const Nesting&) = delete;
        Nesting& operator=(const Nesting&) = delete;
        ~Nesting() { --parser_.depth_; }

    private:
        Parser& parser_;
    };

    // ---------------------------------------------------------- predicates
    PredPtr predicate() { return pred_or_level(); }

    PredPtr pred_or_level() {
        PredPtr left = pred_and_level();
        while (accept_keyword("or") || accept(Token_kind::pipe))
            left = pred_or(left, pred_and_level());
        return left;
    }

    PredPtr pred_and_level() {
        PredPtr left = pred_not_level();
        while (accept_keyword("and")) left = pred_and(left, pred_not_level());
        return left;
    }

    PredPtr pred_not_level() {
        if (at(Token_kind::bang)) {
            const Nesting level(*this);
            lexer_.next();
            return pred_not(pred_not_level());
        }
        return pred_atom();
    }

    PredPtr pred_atom() {
        if (at(Token_kind::lparen)) {
            const Nesting level(*this);
            lexer_.next();
            PredPtr inner = predicate();
            expect(Token_kind::rparen, "to close predicate");
            return inner;
        }
        if (accept_keyword("true")) return pred_true();
        if (accept_keyword("false")) return pred_false();
        if (accept_keyword("payload")) {
            expect(Token_kind::eq, "after 'payload'");
            const Token lit = expect(Token_kind::string, "payload pattern");
            return pred_payload(lit.text);
        }
        if (!at(Token_kind::identifier))
            fail("expected a predicate, found '" + lexer_.peek().text + "'");

        // Field reference: IDENT or IDENT '.' IDENT (or camel alias).
        const Token head = lexer_.next();
        std::string name = head.text;
        if (accept(Token_kind::dot)) {
            const Token tail =
                expect(Token_kind::identifier, "after '.' in field name");
            name += "." + tail.text;
        }
        const auto field = find_field(name);
        if (!field)
            throw Parse_error("unknown header field '" + name + "'", head.line,
                              head.column);
        const bool negated = [&] {
            if (accept(Token_kind::neq)) return true;
            expect(Token_kind::eq, "in field test");
            return false;
        }();
        const Token raw = lexer_.next_value();
        const auto value = parse_field_value(*field, raw.text);
        if (!value)
            throw Parse_error("invalid value '" + raw.text + "' for field " +
                                  field->name,
                              raw.line, raw.column);
        PredPtr test = pred_test(field->name, *value);
        return negated ? pred_not(test) : test;
    }

    // ---------------------------------------------------------------- paths
    PathPtr path() { return path_alt_level(); }

    PathPtr path_alt_level() {
        PathPtr left = path_seq_level();
        while (accept(Token_kind::pipe)) left = path_alt(left, path_seq_level());
        return left;
    }

    [[nodiscard]] bool starts_path_atom() {
        if (at(Token_kind::dot) || at(Token_kind::lparen) ||
            at(Token_kind::bang))
            return true;
        if (!at(Token_kind::identifier) || is_keyword(lexer_.peek().text))
            return false;
        // An identifier followed by ':' is the id of the next statement, and
        // one followed by ':=' starts a set definition — not a path symbol.
        const Token_kind after = lexer_.peek2().kind;
        return after != Token_kind::colon && after != Token_kind::assign;
    }

    PathPtr path_seq_level() {
        PathPtr left = path_unary_level();
        while (starts_path_atom()) left = path_seq(left, path_unary_level());
        return left;
    }

    PathPtr path_unary_level() {
        if (at(Token_kind::bang)) {
            const Nesting level(*this);
            lexer_.next();
            PathPtr inner = path_unary_level();
            return path_not(inner);
        }
        PathPtr atom = path_atom();
        while (accept(Token_kind::star)) atom = path_star(atom);
        return atom;
    }

    PathPtr path_atom() {
        if (accept(Token_kind::dot)) return path_any();
        if (at(Token_kind::lparen)) {
            const Nesting level(*this);
            lexer_.next();
            PathPtr inner = path();
            expect(Token_kind::rparen, "to close path expression");
            return inner;
        }
        if (at(Token_kind::identifier) && !is_keyword(lexer_.peek().text))
            return path_symbol(lexer_.next().text);
        fail("expected a path expression, found '" + lexer_.peek().text + "'");
    }

    // ------------------------------------------------------------- formulas
    FormulaPtr formula() { return formula_or_level(); }

    FormulaPtr formula_or_level() {
        FormulaPtr left = formula_and_level();
        while (accept_keyword("or"))
            left = formula_or(left, formula_and_level());
        return left;
    }

    FormulaPtr formula_and_level() {
        FormulaPtr left = formula_not_level();
        while (accept_keyword("and"))
            left = formula_and(left, formula_not_level());
        return left;
    }

    FormulaPtr formula_not_level() {
        if (at(Token_kind::bang)) {
            const Nesting level(*this);
            lexer_.next();
            return formula_not(formula_not_level());
        }
        return formula_atom();
    }

    FormulaPtr formula_atom() {
        if (at(Token_kind::lparen)) {
            const Nesting level(*this);
            lexer_.next();
            FormulaPtr inner = formula();
            expect(Token_kind::rparen, "to close formula");
            return inner;
        }
        const bool is_max = at_keyword("max");
        if (!is_max && !at_keyword("min"))
            fail("expected max(...) or min(...), found '" +
                 lexer_.peek().text + "'");
        lexer_.next();
        expect(Token_kind::lparen, "after max/min");
        Term t = term();
        expect(Token_kind::comma, "between term and rate");
        const Bandwidth rate = rate_value();
        expect(Token_kind::rparen, "to close max/min");
        return is_max ? formula_max(std::move(t), rate)
                      : formula_min(std::move(t), rate);
    }

    Term term() {
        Term t;
        term_atom(t);
        while (accept(Token_kind::plus)) term_atom(t);
        return t;
    }

    void term_atom(Term& t) {
        if (at(Token_kind::number)) {
            // A literal contribution, possibly with a unit ("10MB/s").
            t.constant += rate_value().bps();
            return;
        }
        if (at(Token_kind::identifier) && !is_keyword(lexer_.peek().text)) {
            t.ids.push_back(lexer_.next().text);
            return;
        }
        fail("expected identifier or literal in bandwidth term");
    }

    Bandwidth rate_value() {
        const Token raw = lexer_.next_value();
        try {
            return parse_bandwidth(raw.text);
        } catch (const Parse_error&) {
            throw Parse_error("invalid rate '" + raw.text + "'", raw.line,
                              raw.column);
        }
    }

    // --------------------------------------------------- statements & sugar
    void statement_block(Policy& out) {
        expect(Token_kind::lbracket, "to open statement block");
        while (true) {
            statement(out);
            accept(Token_kind::semicolon);
            if (accept(Token_kind::rbracket)) break;
            if (at(Token_kind::eof)) fail("unterminated statement block");
        }
    }

    void statement(Policy& out) {
        const Token id = expect(Token_kind::identifier, "as statement id");
        if (is_keyword(id.text))
            throw Parse_error("reserved word '" + id.text +
                                  "' cannot name a statement",
                              id.line, id.column);
        expect(Token_kind::colon, "after statement id");
        PredPtr pred = predicate();
        expect(Token_kind::arrow, "between predicate and path");
        PathPtr p = path();
        out.statements.push_back(Statement{id.text, std::move(pred),
                                           std::move(p)});
        attach_rate_clause(out, id.text);
    }

    // Optional `at max(RATE)` / `at min(RATE)` after a statement body.
    void attach_rate_clause(Policy& out, const std::string& id) {
        if (!accept_keyword("at")) return;
        const bool is_max = at_keyword("max");
        if (!is_max && !at_keyword("min"))
            fail("expected max(...) or min(...) after 'at'");
        lexer_.next();
        expect(Token_kind::lparen, "after max/min");
        const Bandwidth rate = rate_value();
        expect(Token_kind::rparen, "to close rate clause");
        Term t;
        t.ids.push_back(id);
        FormulaPtr f = is_max ? formula_max(std::move(t), rate)
                              : formula_min(std::move(t), rate);
        out.formula = out.formula ? formula_and(out.formula, f) : f;
    }

    void set_definition() {
        const Token name = expect(Token_kind::identifier, "as set name");
        expect(Token_kind::assign, "in set definition");
        expect(Token_kind::lbrace, "to open set literal");
        std::vector<std::string> values;
        if (!at(Token_kind::rbrace)) {
            values.push_back(lexer_.next_value().text);
            while (accept(Token_kind::comma))
                values.push_back(lexer_.next_value().text);
        }
        expect(Token_kind::rbrace, "to close set literal");
        sets_[name.text] = std::move(values);
    }

    const std::vector<std::string>& lookup_set(const Token& name) {
        const auto it = sets_.find(name.text);
        if (it == sets_.end())
            throw Parse_error("unknown set '" + name.text + "'", name.line,
                              name.column);
        return it->second;
    }

    // foreach (s,d) in cross(A,B): pred -> path [at max/min(rate)]
    void foreach_clause(Policy& out) {
        expect_keyword("foreach", "");
        expect(Token_kind::lparen, "after foreach");
        expect(Token_kind::identifier, "as source variable");
        expect(Token_kind::comma, "between loop variables");
        expect(Token_kind::identifier, "as destination variable");
        expect(Token_kind::rparen, "to close loop variables");
        expect_keyword("in", "after loop variables");
        expect_keyword("cross", "after 'in'");
        expect(Token_kind::lparen, "after cross");
        const Token set_a = expect(Token_kind::identifier, "as first set");
        expect(Token_kind::comma, "between cross arguments");
        const Token set_b = expect(Token_kind::identifier, "as second set");
        expect(Token_kind::rparen, "to close cross");
        expect(Token_kind::colon, "before foreach body");

        PredPtr body_pred = predicate();
        expect(Token_kind::arrow, "between predicate and path");
        PathPtr body_path = path();

        // Optional rate clause applies to every generated statement.
        bool has_rate = false;
        bool is_max = false;
        Bandwidth rate;
        if (accept_keyword("at")) {
            is_max = at_keyword("max");
            if (!is_max && !at_keyword("min"))
                fail("expected max(...) or min(...) after 'at'");
            lexer_.next();
            expect(Token_kind::lparen, "after max/min");
            rate = rate_value();
            expect(Token_kind::rparen, "to close rate clause");
            has_rate = true;
        }

        const auto& src_values = lookup_set(set_a);
        const auto& dst_values = lookup_set(set_b);
        for (const std::string& s : src_values) {
            for (const std::string& d : dst_values) {
                if (s == d) continue;  // self-pairs need no provisioning
                Statement stmt;
                stmt.id = indexed("g", generated_counter_++);
                stmt.predicate =
                    pred_and(endpoint_test(s, /*source=*/true),
                             endpoint_test(d, /*source=*/false));
                if (body_pred->kind != Pred_kind::true_)
                    stmt.predicate = pred_and(stmt.predicate, body_pred);
                stmt.path = body_path;
                if (has_rate) {
                    Term t;
                    t.ids.push_back(stmt.id);
                    FormulaPtr f = is_max ? formula_max(std::move(t), rate)
                                          : formula_min(std::move(t), rate);
                    out.formula =
                        out.formula ? formula_and(out.formula, f) : f;
                }
                out.statements.push_back(std::move(stmt));
            }
        }
    }

    // Builds eth.src/eth.dst or ip.src/ip.dst test from a set literal.
    PredPtr endpoint_test(const std::string& literal, bool source) {
        const Field eth = *find_field(source ? "eth.src" : "eth.dst");
        if (const auto mac = parse_field_value(eth, literal);
            mac && literal.find(':') != std::string::npos)
            return pred_test(eth.name, *mac);
        const Field ip = *find_field(source ? "ip.src" : "ip.dst");
        if (const auto addr = parse_field_value(ip, literal);
            addr && literal.find('.') != std::string::npos)
            return pred_test(ip.name, *addr);
        fail("set element '" + literal +
             "' is neither a MAC nor an IPv4 address");
    }

    void check_unique_ids(const Policy& out) const {
        std::set<std::string> seen;
        for (const Statement& s : out.statements)
            if (!seen.insert(s.id).second)
                throw Parse_error("duplicate statement id '" + s.id + "'", 0,
                                  0);
    }

    Lexer lexer_;
    std::map<std::string, std::vector<std::string>> sets_;
    int generated_counter_ = 0;
    int depth_ = 0;  // open Nesting levels
};

}  // namespace

ir::Policy parse_policy(const std::string& source) {
    return Parser(source).policy();
}

ir::PredPtr parse_predicate(const std::string& source) {
    return Parser(source).predicate_only();
}

ir::PathPtr parse_path(const std::string& source) {
    return Parser(source).path_only();
}

ir::FormulaPtr parse_formula(const std::string& source) {
    return Parser(source).formula_only();
}

}  // namespace merlin::parser
