#include "idl/parser.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <limits>
#include <map>

#include "support/string_utils.h"

namespace repro::idl {

namespace {

/** Token kinds of IDL. */
enum class IdlTok
{
    End,
    Word,   ///< keyword-ish identifier
    Var,    ///< brace-enclosed variable or variable list
    Number,
    Punct,  ///< ( ) = , ..
};

struct Token
{
    IdlTok kind = IdlTok::End;
    std::string text;
    SourceLoc loc;
};

std::vector<Token>
lex(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> out;
    size_t pos = 0;
    int line = 1, col = 1;
    auto advance = [&](size_t n) {
        for (size_t i = 0; i < n && pos < source.size(); ++i) {
            if (source[pos] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
            ++pos;
        }
    };
    while (pos < source.size()) {
        char c = source[pos];
        if (std::isspace(static_cast<unsigned char>(c))) {
            advance(1);
            continue;
        }
        if (c == '#') {
            while (pos < source.size() && source[pos] != '\n')
                advance(1);
            continue;
        }
        SourceLoc loc{line, col};
        if (c == '{') {
            // Scan for the closing '}' ourselves (a naive find('}')
            // would swallow a nested '{' into the variable name and
            // lose its position). advance() keeps line/col exact even
            // when the brace variable spans multiple lines.
            advance(1); // consume '{'
            size_t start = pos;
            while (pos < source.size() && source[pos] != '}' &&
                   source[pos] != '{') {
                advance(1);
            }
            if (pos >= source.size()) {
                diags.error(loc,
                            "unterminated '{' variable in IDL source "
                            "(opened at " + loc.str() + ")");
                continue;
            }
            if (source[pos] == '{') {
                diags.error(
                    SourceLoc{line, col},
                    "nested '{' inside the brace variable opened at " +
                        loc.str());
                // Recover by re-lexing from the nested brace: it
                // starts a fresh variable token, so one malformed
                // brace yields one diagnostic, not a cascade.
                continue;
            }
            out.push_back({IdlTok::Var,
                           source.substr(start, pos - start), loc});
            advance(1); // consume '}'
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos;
            while (pos < source.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(source[pos])) ||
                    source[pos] == '_')) {
                advance(1);
            }
            out.push_back({IdlTok::Word,
                           source.substr(start, pos - start), loc});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = pos;
            while (pos < source.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(source[pos]))) {
                advance(1);
            }
            out.push_back({IdlTok::Number,
                           source.substr(start, pos - start), loc});
            continue;
        }
        if (source.compare(pos, 2, "..") == 0) {
            out.push_back({IdlTok::Punct, "..", loc});
            advance(2);
            continue;
        }
        if (c == '(' || c == ')' || c == '=' || c == ',' || c == '+' ||
            c == '-') {
            out.push_back({IdlTok::Punct, std::string(1, c), loc});
            advance(1);
            continue;
        }
        diags.error(loc, std::string("unexpected character '") + c +
                             "' in IDL source");
        advance(1);
    }
    out.push_back({IdlTok::End, "", {line, col}});
    return out;
}

/** Parse a calculation expression from a raw string, e.g. "N-1";
 *  integer literals above @p maxLiteral are errors. */
Calc
parseCalcText(const std::string &text, SourceLoc loc, DiagEngine &diags,
              int64_t maxLiteral = INT64_MAX)
{
    Calc calc;
    size_t pos = 0;
    int sign = 1;
    bool expect_term = true;
    auto skip = [&]() {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    };
    while (true) {
        skip();
        if (pos >= text.size())
            break;
        char c = text[pos];
        if (!expect_term && (c == '+' || c == '-')) {
            sign = c == '+' ? 1 : -1;
            ++pos;
            expect_term = true;
            continue;
        }
        Calc::Term term;
        term.sign = sign;
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = pos;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
            if (!parseDecimal(text.substr(start, pos - start),
                              &term.literal, maxLiteral)) {
                diags.error(loc, "integer literal out of range in '" +
                                     text + "'");
                break;
            }
        } else if (std::isalpha(static_cast<unsigned char>(c)) ||
                   c == '_') {
            size_t start = pos;
            while (pos < text.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(text[pos])) ||
                    text[pos] == '_')) {
                ++pos;
            }
            term.isName = true;
            term.name = text.substr(start, pos - start);
        } else {
            diags.error(loc, "bad calculation '" + text + "'");
            break;
        }
        calc.terms.push_back(term);
        sign = 1;
        expect_term = false;
    }
    if (calc.terms.empty()) {
        Calc::Term zero;
        calc.terms.push_back(zero);
    }
    return calc;
}

/** Parse a variable path like "read[i].value" or "x[0..n]". */
VarRef
parseVarText(const std::string &text, SourceLoc loc, DiagEngine &diags)
{
    VarRef ref;
    size_t pos = 0;
    while (pos < text.size()) {
        VarRef::Component comp;
        size_t start = pos;
        while (pos < text.size() && text[pos] != '.' &&
               text[pos] != '[') {
            ++pos;
        }
        comp.name = trimString(text.substr(start, pos - start));
        while (pos < text.size() && text[pos] == '[') {
            size_t close = text.find(']', pos);
            if (close == std::string::npos) {
                diags.error(loc, "unbalanced '[' in variable '" + text +
                                     "'");
                return ref;
            }
            std::string inner =
                trimString(text.substr(pos + 1, close - pos - 1));
            if (inner == "*") {
                comp.wildcard = true;
            } else if (inner.find("..") != std::string::npos) {
                size_t dots = inner.find("..");
                comp.hasRange = true;
                comp.rangeBegin = parseCalcText(inner.substr(0, dots),
                                                loc, diags, INT_MAX);
                comp.rangeEnd = parseCalcText(inner.substr(dots + 2),
                                              loc, diags, INT_MAX);
            } else {
                // The solver reads indices back as int (compiled.cpp).
                comp.hasIndex = true;
                comp.index = parseCalcText(inner, loc, diags, INT_MAX);
            }
            pos = close + 1;
            // Only one bracket group per component is used by the
            // library; further brackets start a fresh component.
            break;
        }
        ref.components.push_back(comp);
        if (pos < text.size() && text[pos] == '.')
            ++pos;
    }
    return ref;
}

/** Split a brace token on top-level commas (variable lists). */
std::vector<VarRef>
parseVarListText(const std::string &text, SourceLoc loc,
                 DiagEngine &diags)
{
    std::vector<VarRef> out;
    for (const std::string &piece : splitString(text, ',')) {
        std::string t = trimString(piece);
        if (!t.empty())
            out.push_back(parseVarText(t, loc, diags));
    }
    return out;
}

/** The recursive-descent IDL parser. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, DiagEngine &diags)
        : tokens_(std::move(tokens)), diags_(diags)
    {}

    bool
    parseInto(IdlProgram &program)
    {
        try {
            while (!peek().text.empty() || peek().kind != IdlTok::End) {
                if (peek().kind == IdlTok::End)
                    break;
                parseDefinition(program);
            }
        } catch (const FatalError &) {
            return false;
        }
        return !diags_.hasErrors();
    }

  private:
    const Token &peek(int ahead = 0) const
    {
        size_t i = pos_ + static_cast<size_t>(ahead);
        return i < tokens_.size() ? tokens_[i] : tokens_.back();
    }

    Token
    next()
    {
        Token t = peek();
        if (pos_ < tokens_.size() - 1)
            ++pos_;
        return t;
    }

    bool
    acceptWord(const std::string &w)
    {
        if (peek().kind == IdlTok::Word && peek().text == w) {
            next();
            return true;
        }
        return false;
    }

    bool
    acceptPunct(const std::string &p)
    {
        if (peek().kind == IdlTok::Punct && peek().text == p) {
            next();
            return true;
        }
        return false;
    }

    [[noreturn]] void
    fail(const std::string &msg)
    {
        diags_.error(peek().loc, msg + " (near '" + peek().text + "')");
        throw FatalError("IDL parse error");
    }

    /** Consume a Number token that fits a T and is at most @p max. */
    template <typename T>
    T
    expectNumber(const std::string &what,
                 T max = std::numeric_limits<T>::max())
    {
        T value = 0;
        if (peek().kind != IdlTok::Number)
            fail("expected " + what);
        if (!parseDecimal(peek().text, &value) || value > max)
            fail(what + " out of range");
        next();
        return value;
    }

    void
    expectWord(const std::string &w)
    {
        if (!acceptWord(w))
            fail("expected '" + w + "'");
    }

    void
    expectPunct(const std::string &p)
    {
        if (!acceptPunct(p))
            fail("expected '" + p + "'");
    }

    VarRef
    expectVar()
    {
        if (peek().kind != IdlTok::Var)
            fail("expected a {variable}");
        Token t = next();
        return parseVarText(t.text, t.loc, diags_);
    }

    std::vector<VarRef>
    expectVarList()
    {
        if (peek().kind != IdlTok::Var)
            fail("expected a {variable list}");
        Token t = next();
        return parseVarListText(t.text, t.loc, diags_);
    }

    Calc
    parseCalc()
    {
        // Calculations in token position: name/number with +/- chains.
        const SourceLoc loc = peek().loc;
        std::string text;
        bool expect_term = true;
        while (true) {
            const Token &t = peek();
            if (expect_term &&
                (t.kind == IdlTok::Word || t.kind == IdlTok::Number)) {
                text += t.text;
                next();
                expect_term = false;
                continue;
            }
            if (!expect_term && t.kind == IdlTok::Punct &&
                (t.text == "+" || t.text == "-")) {
                text += t.text;
                next();
                expect_term = true;
                continue;
            }
            break;
        }
        if (text.empty())
            fail("expected a calculation");
        return parseCalcText(text, loc, diags_);
    }

    void
    parseDefinition(IdlProgram &program)
    {
        expectWord("Constraint");
        if (peek().kind != IdlTok::Word)
            fail("expected constraint name");
        auto def = std::make_unique<ConstraintDef>();
        def->name = next().text;
        // A '(' right after the name is a parameter list only when it
        // looks like "Word =", "Word ," or "Word )"; otherwise it
        // opens the constraint body.
        bool has_params =
            peek().kind == IdlTok::Punct && peek().text == "(" &&
            peek(1).kind == IdlTok::Word &&
            peek(2).kind == IdlTok::Punct &&
            (peek(2).text == "=" || peek(2).text == "," ||
             peek(2).text == ")");
        if (has_params && acceptPunct("(")) {
            do {
                if (peek().kind != IdlTok::Word)
                    fail("expected parameter name");
                std::string pname = next().text;
                int64_t defval = 0;
                if (acceptPunct("="))
                    defval = expectNumber<int64_t>("parameter default");
                def->params.emplace_back(pname, defval);
            } while (acceptPunct(","));
            expectPunct(")");
        }
        def->body = parseConstraint();
        expectWord("End");
        program.byName[def->name] = def.get();
        program.defs.push_back(std::move(def));
    }

    ConstraintPtr
    parseConstraint()
    {
        ConstraintPtr c = parsePrimary();
        // Postfix chain: for all / for some / for / with / at.
        while (true) {
            if (peek().kind == IdlTok::Word && peek().text == "for") {
                next();
                if (acceptWord("all")) {
                    c = parseRangeWrap(Constraint::Kind::ForAll,
                                       std::move(c));
                } else if (acceptWord("some")) {
                    c = parseRangeWrap(Constraint::Kind::ForSome,
                                       std::move(c));
                } else {
                    // forone: for s = calc
                    auto node = std::make_unique<Constraint>(
                        Constraint::Kind::ForOne);
                    node->loc = peek().loc;
                    if (peek().kind != IdlTok::Word)
                        fail("expected index name after 'for'");
                    node->indexName = next().text;
                    expectPunct("=");
                    node->rangeEnd = parseCalc();
                    node->children.push_back(std::move(c));
                    c = std::move(node);
                }
                continue;
            }
            if (peek().kind == IdlTok::Word &&
                (peek().text == "with" || peek().text == "at")) {
                auto node = std::make_unique<Constraint>(
                    Constraint::Kind::Rename);
                node->loc = peek().loc;
                if (acceptWord("with")) {
                    while (true) {
                        VarRef outer = expectVar();
                        expectWord("as");
                        VarRef inner = expectVar();
                        node->renames.emplace_back(outer, inner);
                        // Continue only on "and {var} as".
                        if (peek().kind == IdlTok::Word &&
                            peek().text == "and" &&
                            peek(1).kind == IdlTok::Var &&
                            peek(2).kind == IdlTok::Word &&
                            peek(2).text == "as") {
                            next(); // and
                            continue;
                        }
                        break;
                    }
                }
                if (acceptWord("at")) {
                    node->hasRebase = true;
                    node->rebasePrefix = expectVar();
                }
                if (node->renames.empty() && !node->hasRebase)
                    fail("expected rename pairs or 'at'");
                node->children.push_back(std::move(c));
                c = std::move(node);
                continue;
            }
            break;
        }
        return c;
    }

    ConstraintPtr
    parseRangeWrap(Constraint::Kind kind, ConstraintPtr inner)
    {
        auto node = std::make_unique<Constraint>(kind);
        node->loc = peek().loc;
        if (peek().kind != IdlTok::Word)
            fail("expected index name");
        node->indexName = next().text;
        expectPunct("=");
        node->rangeBegin = parseCalc();
        expectPunct("..");
        node->rangeEnd = parseCalc();
        node->children.push_back(std::move(inner));
        return node;
    }

    ConstraintPtr
    parsePrimary()
    {
        const Token &t = peek();
        if (t.kind == IdlTok::Punct && t.text == "(") {
            next();
            std::vector<ConstraintPtr> items;
            items.push_back(parseConstraint());
            bool is_or = false, is_and = false;
            while (true) {
                if (acceptWord("and")) {
                    is_and = true;
                } else if (acceptWord("or")) {
                    is_or = true;
                } else {
                    break;
                }
                items.push_back(parseConstraint());
            }
            expectPunct(")");
            if (is_and && is_or)
                fail("mixed and/or without parentheses");
            if (items.size() == 1)
                return std::move(items[0]);
            auto node = std::make_unique<Constraint>(
                is_or ? Constraint::Kind::Disjunction
                      : Constraint::Kind::Conjunction);
            node->loc = t.loc;
            node->children = std::move(items);
            return node;
        }
        if (t.kind == IdlTok::Word && t.text == "inherits") {
            next();
            auto node =
                std::make_unique<Constraint>(Constraint::Kind::Inherit);
            node->loc = t.loc;
            if (peek().kind != IdlTok::Word)
                fail("expected constraint name after 'inherits'");
            node->inheritName = next().text;
            if (acceptPunct("(")) {
                do {
                    if (peek().kind != IdlTok::Word)
                        fail("expected parameter name");
                    std::string pname = next().text;
                    expectPunct("=");
                    node->inheritParams.emplace_back(pname,
                                                     parseCalc());
                } while (acceptPunct(","));
                expectPunct(")");
            }
            return node;
        }
        if (t.kind == IdlTok::Word && t.text == "collect") {
            next();
            auto node =
                std::make_unique<Constraint>(Constraint::Kind::Collect);
            node->loc = t.loc;
            if (peek().kind != IdlTok::Word)
                fail("expected index name after 'collect'");
            node->indexName = next().text;
            if (peek().kind == IdlTok::Number)
                node->collectMax =
                    expectNumber<int>("collect bound", kMaxExpansion);
            node->children.push_back(parseConstraint());
            return node;
        }
        if (t.kind == IdlTok::Word && t.text == "if") {
            next();
            auto node =
                std::make_unique<Constraint>(Constraint::Kind::If);
            node->loc = t.loc;
            node->ifLeft = parseCalc();
            expectPunct("=");
            node->ifRight = parseCalc();
            expectWord("then");
            node->children.push_back(parseConstraint());
            expectWord("else");
            node->children.push_back(parseConstraint());
            expectWord("endif");
            return node;
        }
        if (t.kind == IdlTok::Word && t.text == "all") {
            return parseAllAtomic();
        }
        if (t.kind == IdlTok::Var) {
            return parseVarAtomic();
        }
        fail("expected a constraint");
    }

    ConstraintPtr
    makeAtomic(AtomicKind kind)
    {
        auto node = std::make_unique<Constraint>(Constraint::Kind::Atomic);
        node->loc = peek().loc;
        node->atomic = kind;
        return node;
    }

    ConstraintPtr
    parseAllAtomic()
    {
        expectWord("all");
        FlowKind flow = FlowKind::Any;
        if (acceptWord("data"))
            flow = FlowKind::Data;
        else if (acceptWord("control"))
            flow = FlowKind::Control;
        expectWord("flow");
        if (acceptWord("into")) {
            // Extension: all data flow into {out} inside {region}
            // is killed by {list}.
            auto node = makeAtomic(AtomicKind::KernelClosure);
            node->flow = flow;
            node->vars.push_back(expectVar());
            expectWord("inside");
            node->vars.push_back(expectVar());
            expectWord("is");
            expectWord("killed");
            expectWord("by");
            node->varLists.push_back(expectVarList());
            return node;
        }
        expectWord("from");
        if (peek().kind != IdlTok::Var)
            fail("expected variable (list)");
        Token from_tok = next();
        auto from_list =
            parseVarListText(from_tok.text, from_tok.loc, diags_);
        expectWord("to");
        Token to_tok = next();
        auto to_list = parseVarListText(to_tok.text, to_tok.loc, diags_);
        if (acceptWord("passes")) {
            expectWord("through");
            auto node = makeAtomic(AtomicKind::AllFlowPassesThrough);
            node->flow = flow;
            if (from_list.size() != 1 || to_list.size() != 1)
                fail("passes-through expects single variables");
            node->vars.push_back(from_list[0]);
            node->vars.push_back(to_list[0]);
            node->vars.push_back(expectVar());
            return node;
        }
        expectWord("is");
        expectWord("killed");
        expectWord("by");
        auto node = makeAtomic(AtomicKind::FlowKilledBy);
        node->flow = flow;
        node->varLists.push_back(std::move(from_list));
        node->varLists.push_back(std::move(to_list));
        node->varLists.push_back(expectVarList());
        return node;
    }

    ConstraintPtr
    parseVarAtomic()
    {
        VarRef subject = expectVar();
        if (acceptWord("is")) {
            return parseIsAtomic(subject);
        }
        if (acceptWord("has")) {
            AtomicKind kind;
            if (acceptWord("data")) {
                expectWord("flow");
                if (acceptWord("path")) {
                    kind = AtomicKind::HasDataFlowPathTo;
                } else {
                    kind = AtomicKind::HasDataFlowTo;
                }
            } else if (acceptWord("control")) {
                if (acceptWord("dominance")) {
                    kind = AtomicKind::HasControlDominanceTo;
                } else {
                    expectWord("flow");
                    kind = AtomicKind::HasControlFlowTo;
                }
            } else if (acceptWord("dependence")) {
                expectWord("edge");
                kind = AtomicKind::HasDependenceEdgeTo;
            } else {
                fail("expected flow kind after 'has'");
            }
            expectWord("to");
            auto node = makeAtomic(kind);
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            return node;
        }
        if (acceptWord("reaches")) {
            expectWord("phi");
            expectWord("node");
            auto node = makeAtomic(AtomicKind::ReachesPhiFrom);
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            expectWord("from");
            node->vars.push_back(expectVar());
            return node;
        }
        // Dominance family (optionally negated / strict / kinded).
        bool negated = false, strict = false, post = false;
        FlowKind flow = FlowKind::Any;
        if (acceptWord("does")) {
            expectWord("not");
            negated = true;
        }
        if (acceptWord("strictly"))
            strict = true;
        if (acceptWord("data")) {
            expectWord("flow");
            flow = FlowKind::Data;
        } else if (acceptWord("control")) {
            expectWord("flow");
            flow = FlowKind::Control;
        }
        if (acceptWord("post"))
            post = true;
        if (acceptWord("dominates")) {
            auto node = makeAtomic(AtomicKind::Dominates);
            node->negated = negated;
            node->strict = strict;
            node->postDom = post;
            node->flow = flow;
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            return node;
        }
        fail("expected an atomic constraint");
    }

    ConstraintPtr
    parseIsAtomic(const VarRef &subject)
    {
        // {x} is not the same as {y}
        if (acceptWord("not")) {
            expectWord("the");
            expectWord("same");
            expectWord("as");
            auto node = makeAtomic(AtomicKind::NotSame);
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            return node;
        }
        if (acceptWord("the")) {
            expectWord("same");
            expectWord("as");
            auto node = makeAtomic(AtomicKind::Same);
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            return node;
        }
        static const std::map<std::string, int> positions = {
            {"first", 1}, {"second", 2}, {"third", 3}, {"fourth", 4}};
        if (peek().kind == IdlTok::Word &&
            positions.count(peek().text)) {
            int position = positions.at(next().text);
            expectWord("argument");
            expectWord("of");
            auto node = makeAtomic(AtomicKind::IsArgumentOf);
            node->argPosition = position;
            node->vars.push_back(subject);
            node->vars.push_back(expectVar());
            return node;
        }
        if (acceptWord("a")) {
            if (acceptWord("constant")) {
                auto node = makeAtomic(AtomicKind::IsConstant);
                node->vars.push_back(subject);
                return node;
            }
            expectWord("compile");
            expectWord("time");
            expectWord("value");
            auto node = makeAtomic(AtomicKind::IsCompileTimeValue);
            node->vars.push_back(subject);
            return node;
        }
        if (acceptWord("an")) {
            if (acceptWord("argument")) {
                auto node = makeAtomic(AtomicKind::IsArgument);
                node->vars.push_back(subject);
                return node;
            }
            expectWord("instruction");
            auto node = makeAtomic(AtomicKind::IsInstruction);
            node->vars.push_back(subject);
            return node;
        }
        if (acceptWord("unused")) {
            auto node = makeAtomic(AtomicKind::IsUnused);
            node->vars.push_back(subject);
            return node;
        }
        static const std::map<std::string, AtomicKind> typeAtoms = {
            {"integer", AtomicKind::IsIntegerType},
            {"float", AtomicKind::IsFloatType},
            {"pointer", AtomicKind::IsPointerType},
        };
        if (peek().kind == IdlTok::Word && typeAtoms.count(peek().text)) {
            // Could still be an opcode like "fadd"; type words are not
            // opcodes, so this is unambiguous.
            AtomicKind kind = typeAtoms.at(next().text);
            bool zero = false;
            if (acceptWord("constant")) {
                expectWord("zero");
                zero = true;
            }
            auto node = makeAtomic(zero ? AtomicKind::IsConstantZero
                                        : kind);
            if (zero) {
                // Remember the base type through the flow field; the
                // evaluator only needs "is it the right zero".
                node->opcodeName =
                    kind == AtomicKind::IsIntegerType ? "integer"
                    : kind == AtomicKind::IsFloatType ? "float"
                                                      : "pointer";
            }
            node->vars.push_back(subject);
            return node;
        }
        // "{x} is <opcode> instruction".
        if (peek().kind != IdlTok::Word)
            fail("expected opcode name");
        std::string opcode = next().text;
        expectWord("instruction");
        auto node = makeAtomic(AtomicKind::IsOpcode);
        node->opcodeName = opcode;
        node->vars.push_back(subject);
        return node;
    }

    std::vector<Token> tokens_;
    DiagEngine &diags_;
    size_t pos_ = 0;
};

} // namespace

std::unique_ptr<IdlProgram>
parseIdl(const std::string &source, DiagEngine &diags)
{
    auto program = std::make_unique<IdlProgram>();
    if (!parseIdlInto(source, *program, diags))
        return nullptr;
    return program;
}

bool
parseIdlInto(const std::string &source, IdlProgram &program,
             DiagEngine &diags)
{
    std::vector<Token> tokens = lex(source, diags);
    if (diags.hasErrors())
        return false;
    Parser parser(std::move(tokens), diags);
    return parser.parseInto(program);
}

std::unique_ptr<IdlProgram>
parseIdlOrDie(const std::string &source)
{
    DiagEngine diags;
    auto program = parseIdl(source, diags);
    if (!program)
        throw FatalError("IDL parse failed:\n" + diags.dump());
    return program;
}

} // namespace repro::idl
