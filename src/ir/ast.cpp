#include "ir/ast.h"

#include <sstream>

#include "ir/fields.h"
#include "util/error.h"

namespace merlin::ir {

// ---------------------------------------------------------------- predicates

PredPtr pred_true() {
    static const PredPtr node = std::make_shared<Pred>(Pred{Pred_kind::true_,
                                                            {}, 0, {}, nullptr,
                                                            nullptr});
    return node;
}

PredPtr pred_false() {
    static const PredPtr node = std::make_shared<Pred>(
        Pred{Pred_kind::false_, {}, 0, {}, nullptr, nullptr});
    return node;
}

PredPtr pred_test(const std::string& field, std::uint64_t value) {
    return std::make_shared<Pred>(
        Pred{Pred_kind::test, field, value, {}, nullptr, nullptr});
}

PredPtr pred_payload(const std::string& needle) {
    // The concrete syntax quotes needles without escapes, so a quote or a
    // newline would make two different predicates print (and memoize) alike.
    if (needle.find_first_of("\"\n") != std::string::npos)
        throw Policy_error("payload pattern may not contain '\"' or a "
                           "newline");
    return std::make_shared<Pred>(
        Pred{Pred_kind::payload, {}, 0, needle, nullptr, nullptr});
}

PredPtr pred_and(PredPtr a, PredPtr b) {
    return std::make_shared<Pred>(Pred{Pred_kind::and_, {}, 0, {},
                                       std::move(a), std::move(b)});
}

PredPtr pred_or(PredPtr a, PredPtr b) {
    return std::make_shared<Pred>(
        Pred{Pred_kind::or_, {}, 0, {}, std::move(a), std::move(b)});
}

PredPtr pred_not(PredPtr a) {
    return std::make_shared<Pred>(
        Pred{Pred_kind::not_, {}, 0, {}, std::move(a), nullptr});
}

std::vector<const Pred*> conjuncts(const Pred& p) {
    std::vector<const Pred*> out;
    std::vector<const Pred*> stack{&p};
    while (!stack.empty()) {
        const Pred* q = stack.back();
        stack.pop_back();
        if (q->kind == Pred_kind::and_) {
            stack.push_back(q->rhs.get());
            stack.push_back(q->lhs.get());
        } else {
            out.push_back(q);
        }
    }
    return out;
}

bool equal(const PredPtr& a, const PredPtr& b) {
    if (a == b) return true;
    if (!a || !b) return false;
    if (a->kind != b->kind) return false;
    switch (a->kind) {
        case Pred_kind::true_:
        case Pred_kind::false_: return true;
        case Pred_kind::test:
            return a->field == b->field && a->value == b->value;
        case Pred_kind::payload: return a->needle == b->needle;
        case Pred_kind::and_:
        case Pred_kind::or_:
            return equal(a->lhs, b->lhs) && equal(a->rhs, b->rhs);
        case Pred_kind::not_: return equal(a->lhs, b->lhs);
    }
    return false;
}

namespace {

// Precedence for printing: or < and < not < atom.
int pred_prec(Pred_kind k) {
    switch (k) {
        case Pred_kind::or_: return 0;
        case Pred_kind::and_: return 1;
        case Pred_kind::not_: return 2;
        default: return 3;
    }
}

void print_pred(std::ostream& out, const PredPtr& p, int parent_prec) {
    const int prec = pred_prec(p->kind);
    const bool parens = prec < parent_prec;
    if (parens) out << '(';
    switch (p->kind) {
        case Pred_kind::true_: out << "true"; break;
        case Pred_kind::false_: out << "false"; break;
        case Pred_kind::test: {
            out << p->field << " = ";
            if (const auto f = find_field(p->field))
                out << format_field_value(*f, p->value);
            else
                out << p->value;
            break;
        }
        case Pred_kind::payload:
            out << "payload = \"" << p->needle << '"';
            break;
        case Pred_kind::and_:
            print_pred(out, p->lhs, prec);
            out << " and ";
            print_pred(out, p->rhs, prec + 1);
            break;
        case Pred_kind::or_:
            print_pred(out, p->lhs, prec);
            out << " or ";
            print_pred(out, p->rhs, prec + 1);
            break;
        case Pred_kind::not_:
            out << "! ";
            print_pred(out, p->lhs, prec + 1);
            break;
    }
    if (parens) out << ')';
}

}  // namespace

std::string to_string(const PredPtr& p) {
    std::ostringstream out;
    print_pred(out, p, 0);
    return out.str();
}

// ------------------------------------------------------------------- paths

PathPtr path_any() {
    static const PathPtr node =
        std::make_shared<Path>(Path{Path_kind::any, {}, nullptr, nullptr});
    return node;
}

PathPtr path_symbol(const std::string& name) {
    return std::make_shared<Path>(
        Path{Path_kind::symbol, name, nullptr, nullptr});
}

PathPtr path_seq(PathPtr a, PathPtr b) {
    return std::make_shared<Path>(
        Path{Path_kind::seq, {}, std::move(a), std::move(b)});
}

PathPtr path_alt(PathPtr a, PathPtr b) {
    return std::make_shared<Path>(
        Path{Path_kind::alt, {}, std::move(a), std::move(b)});
}

PathPtr path_star(PathPtr a) {
    return std::make_shared<Path>(
        Path{Path_kind::star, {}, std::move(a), nullptr});
}

PathPtr path_not(PathPtr a) {
    return std::make_shared<Path>(
        Path{Path_kind::not_, {}, std::move(a), nullptr});
}

PathPtr path_any_star() { return path_star(path_any()); }

bool equal(const PathPtr& a, const PathPtr& b) {
    if (a == b) return true;
    if (!a || !b) return false;
    if (a->kind != b->kind) return false;
    switch (a->kind) {
        case Path_kind::any: return true;
        case Path_kind::symbol: return a->symbol == b->symbol;
        case Path_kind::seq:
        case Path_kind::alt:
            return equal(a->lhs, b->lhs) && equal(a->rhs, b->rhs);
        case Path_kind::star:
        case Path_kind::not_: return equal(a->lhs, b->lhs);
    }
    return false;
}

namespace {

// Precedence: alt < seq < unary (star/not) < atom.
int path_prec(Path_kind k) {
    switch (k) {
        case Path_kind::alt: return 0;
        case Path_kind::seq: return 1;
        case Path_kind::star:
        case Path_kind::not_: return 2;
        default: return 3;
    }
}

void print_path(std::ostream& out, const PathPtr& p, int parent_prec) {
    const int prec = path_prec(p->kind);
    const bool parens = prec < parent_prec;
    if (parens) out << '(';
    switch (p->kind) {
        case Path_kind::any: out << '.'; break;
        case Path_kind::symbol: out << p->symbol; break;
        case Path_kind::seq:
            print_path(out, p->lhs, prec);
            out << ' ';
            print_path(out, p->rhs, prec + 1);
            break;
        case Path_kind::alt:
            print_path(out, p->lhs, prec);
            out << " | ";
            print_path(out, p->rhs, prec + 1);
            break;
        case Path_kind::star:
            print_path(out, p->lhs, prec + 1);
            out << '*';
            break;
        case Path_kind::not_:
            out << '!';
            print_path(out, p->lhs, prec + 1);
            break;
    }
    if (parens) out << ')';
}

void collect_symbols(const PathPtr& p, std::set<std::string>& out) {
    if (!p) return;
    if (p->kind == Path_kind::symbol) out.insert(p->symbol);
    collect_symbols(p->lhs, out);
    collect_symbols(p->rhs, out);
}

}  // namespace

std::string to_string(const PathPtr& p) {
    std::ostringstream out;
    print_path(out, p, 0);
    return out.str();
}

std::set<std::string> symbols_of(const PathPtr& p) {
    std::set<std::string> out;
    collect_symbols(p, out);
    return out;
}

int node_count(const PathPtr& p) {
    if (!p) return 0;
    return 1 + node_count(p->lhs) + node_count(p->rhs);
}

// -------------------------------------------------- bandwidth terms/formulas

bool equal(const Term& a, const Term& b) {
    return a.constant == b.constant && a.ids == b.ids;
}

std::string to_string(const Term& t) {
    std::ostringstream out;
    bool first = true;
    for (const std::string& id : t.ids) {
        if (!first) out << " + ";
        out << id;
        first = false;
    }
    if (t.constant != 0 || first) {
        if (!first) out << " + ";
        out << t.constant;
    }
    return out.str();
}

FormulaPtr formula_max(Term term, Bandwidth rate) {
    return std::make_shared<Formula>(Formula{Formula_kind::max,
                                             std::move(term), rate, nullptr,
                                             nullptr});
}

FormulaPtr formula_min(Term term, Bandwidth rate) {
    return std::make_shared<Formula>(Formula{Formula_kind::min,
                                             std::move(term), rate, nullptr,
                                             nullptr});
}

FormulaPtr formula_and(FormulaPtr a, FormulaPtr b) {
    return std::make_shared<Formula>(Formula{Formula_kind::and_, {},
                                             Bandwidth{}, std::move(a),
                                             std::move(b)});
}

FormulaPtr formula_or(FormulaPtr a, FormulaPtr b) {
    return std::make_shared<Formula>(Formula{Formula_kind::or_, {},
                                             Bandwidth{}, std::move(a),
                                             std::move(b)});
}

FormulaPtr formula_not(FormulaPtr a) {
    return std::make_shared<Formula>(
        Formula{Formula_kind::not_, {}, Bandwidth{}, std::move(a), nullptr});
}

bool equal(const FormulaPtr& a, const FormulaPtr& b) {
    if (a == b) return true;
    if (!a || !b) return false;
    if (a->kind != b->kind) return false;
    switch (a->kind) {
        case Formula_kind::max:
        case Formula_kind::min:
            return equal(a->term, b->term) && a->rate == b->rate;
        case Formula_kind::and_:
        case Formula_kind::or_:
            return equal(a->lhs, b->lhs) && equal(a->rhs, b->rhs);
        case Formula_kind::not_: return equal(a->lhs, b->lhs);
    }
    return false;
}

namespace {

int formula_prec(Formula_kind k) {
    switch (k) {
        case Formula_kind::or_: return 0;
        case Formula_kind::and_: return 1;
        case Formula_kind::not_: return 2;
        default: return 3;
    }
}

void print_formula(std::ostream& out, const FormulaPtr& f, int parent_prec) {
    const int prec = formula_prec(f->kind);
    const bool parens = prec < parent_prec;
    if (parens) out << '(';
    switch (f->kind) {
        case Formula_kind::max:
        case Formula_kind::min:
            out << (f->kind == Formula_kind::max ? "max(" : "min(")
                << to_string(f->term) << ", " << to_string(f->rate) << ')';
            break;
        case Formula_kind::and_:
            print_formula(out, f->lhs, prec);
            out << " and ";
            print_formula(out, f->rhs, prec + 1);
            break;
        case Formula_kind::or_:
            print_formula(out, f->lhs, prec);
            out << " or ";
            print_formula(out, f->rhs, prec + 1);
            break;
        case Formula_kind::not_:
            out << "! ";
            print_formula(out, f->lhs, prec + 1);
            break;
    }
    if (parens) out << ')';
}

void collect_ids(const FormulaPtr& f, std::set<std::string>& out) {
    if (!f) return;
    if (f->kind == Formula_kind::max || f->kind == Formula_kind::min)
        for (const std::string& id : f->term.ids) out.insert(id);
    collect_ids(f->lhs, out);
    collect_ids(f->rhs, out);
}

}  // namespace

std::string to_string(const FormulaPtr& f) {
    std::ostringstream out;
    print_formula(out, f, 0);
    return out.str();
}

std::set<std::string> ids_of(const FormulaPtr& f) {
    std::set<std::string> out;
    collect_ids(f, out);
    return out;
}

// ------------------------------------------------------------------- policy

bool equal(const Statement& a, const Statement& b) {
    return a.id == b.id && equal(a.predicate, b.predicate) &&
           equal(a.path, b.path);
}

bool equal(const Policy& a, const Policy& b) {
    if (a.statements.size() != b.statements.size()) return false;
    for (std::size_t i = 0; i < a.statements.size(); ++i)
        if (!equal(a.statements[i], b.statements[i])) return false;
    return equal(a.formula, b.formula);
}

std::string to_string(const Policy& p) {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < p.statements.size(); ++i) {
        const Statement& s = p.statements[i];
        out << "  " << s.id << " : " << to_string(s.predicate) << " -> "
            << to_string(s.path);
        if (i + 1 < p.statements.size()) out << " ;";
        out << '\n';
    }
    out << ']';
    if (p.formula) out << ",\n" << to_string(p.formula);
    out << '\n';
    return out.str();
}

const Statement* find_statement(const Policy& p, const std::string& id) {
    for (const Statement& s : p.statements)
        if (s.id == id) return &s;
    return nullptr;
}

}  // namespace merlin::ir
