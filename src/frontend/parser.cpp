#include "frontend/parser.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>

namespace repro::frontend {

namespace {

/** Parser state over the token stream. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, DiagEngine &diags)
        : tokens_(std::move(tokens)), diags_(diags)
    {}

    std::unique_ptr<TranslationUnit>
    parseUnit()
    {
        auto unit = std::make_unique<TranslationUnit>();
        uint64_t declarations = kHashSeed;
        while (!peek().is(TokKind::End)) {
            const size_t start = pos_;
            const size_t functions = unit->functions.size();
            parseTopLevel(*unit);
            // Everything before a definition's body is declaration.
            size_t end = pos_;
            if (unit->functions.size() > functions &&
                unit->functions.back()->body) {
                unit->functions.back()->definitionHash =
                    hashTokens(kHashSeed, start, pos_);
                end = bodyStart_;
            }
            declarations = hashTokens(declarations, start, end);
        }
        unit->declarationsHash = declarations;
        return unit;
    }

  private:
    static constexpr uint64_t kHashSeed = 14695981039346656037ull;

    /** FNV-1a of @p h extended by tokens [from, to) and their count. */
    uint64_t
    hashTokens(uint64_t h, size_t from, size_t to) const
    {
        auto mix = [&h](uint64_t byte) {
            h ^= byte;
            h *= 1099511628211ull;
        };
        mix(to - from);
        for (size_t i = from; i < to; ++i) {
            mix(static_cast<uint64_t>(tokens_[i].kind));
            mix(tokens_[i].text.size());
            for (char c : tokens_[i].text)
                mix(static_cast<unsigned char>(c));
        }
        return h;
    }

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
    accept(TokKind kind, const std::string &text)
    {
        if (peek().is(kind, text)) {
            next();
            return true;
        }
        return false;
    }

    bool acceptPunct(const std::string &p)
    {
        return accept(TokKind::Punct, p);
    }

    void
    expectPunct(const std::string &p)
    {
        if (!acceptPunct(p)) {
            diags_.error(peek().loc, "expected '" + p + "' before '" +
                                         peek().text + "'");
            throw FatalError("MiniC parse error");
        }
    }

    /** Value of an integer literal token (suffixes ignored). */
    int64_t
    intLiteralValue(const Token &t)
    {
        errno = 0;
        long long v = std::strtoll(t.text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
            diags_.error(t.loc, "integer literal '" + t.text +
                                    "' out of range");
            throw FatalError("MiniC parse error");
        }
        return v;
    }

    /** Value of a floating literal token (suffixes ignored). */
    double
    floatLiteralValue(const Token &t)
    {
        errno = 0;
        double v = std::strtod(t.text.c_str(), nullptr);
        if (errno == ERANGE) {
            diags_.error(t.loc, "floating literal '" + t.text +
                                    "' out of range");
            throw FatalError("MiniC parse error");
        }
        return v;
    }

    /** One level of recursive descent, bounded by kMaxNesting. */
    class Nested
    {
      public:
        explicit Nested(Parser &p) : p_(p)
        {
            if (++p_.nesting_ > kMaxNesting)
                p_.tooDeep(p_.peek().loc);
        }
        ~Nested() { --p_.nesting_; }

      private:
        Parser &p_;
    };

    [[noreturn]] void
    tooDeep(SourceLoc loc)
    {
        diags_.error(loc, "nesting deeper than " +
                              std::to_string(kMaxNesting) + " levels");
        throw FatalError("MiniC parse error");
    }

    /** @p e with its depth set from its children, within kMaxNesting. */
    ExprPtr
    sealed(ExprPtr e)
    {
        for (const ExprPtr &child : e->children)
            e->depth = std::max(e->depth, child->depth + 1);
        if (e->depth > kMaxNesting)
            tooDeep(e->loc);
        return e;
    }

    bool
    atTypeKeyword() const
    {
        const Token &t = peek();
        return t.isKeyword("int") || t.isKeyword("long") ||
               t.isKeyword("float") || t.isKeyword("double") ||
               t.isKeyword("void") || t.isKeyword("const");
    }

    BaseType
    parseBaseType()
    {
        while (accept(TokKind::Keyword, "const")) {
        }
        Token t = next();
        BaseType base;
        if (t.isKeyword("int")) {
            base = BaseType::Int;
        } else if (t.isKeyword("long")) {
            // Accept "long long" and "long int".
            accept(TokKind::Keyword, "long");
            accept(TokKind::Keyword, "int");
            base = BaseType::Long;
        } else if (t.isKeyword("float")) {
            base = BaseType::Float;
        } else if (t.isKeyword("double")) {
            base = BaseType::Double;
        } else if (t.isKeyword("void")) {
            base = BaseType::Void;
        } else {
            diags_.error(t.loc, "expected type, got '" + t.text + "'");
            throw FatalError("MiniC parse error");
        }
        while (accept(TokKind::Keyword, "const")) {
        }
        return base;
    }

    TypeSpec
    parseTypePrefix()
    {
        TypeSpec type;
        type.base = parseBaseType();
        while (acceptPunct("*"))
            ++type.pointerDepth;
        while (accept(TokKind::Keyword, "const")) {
        }
        return type;
    }

    /** Parse trailing array dimensions after a declarator name. */
    void
    parseArraySuffix(TypeSpec &type, bool allow_unsized)
    {
        bool first = true;
        while (acceptPunct("[")) {
            if (acceptPunct("]")) {
                if (!first || !allow_unsized) {
                    diags_.error(peek().loc,
                                 "unsized dimension only allowed first");
                    throw FatalError("MiniC parse error");
                }
                type.dims.push_back(0);
            } else {
                Token n = next();
                if (!n.is(TokKind::IntLiteral)) {
                    diags_.error(n.loc, "expected array size literal");
                    throw FatalError("MiniC parse error");
                }
                type.dims.push_back(intLiteralValue(n));
                expectPunct("]");
            }
            first = false;
        }
    }

    void
    parseTopLevel(TranslationUnit &unit)
    {
        TypeSpec type = parseTypePrefix();
        Token name = next();
        if (!name.is(TokKind::Identifier)) {
            diags_.error(name.loc, "expected identifier at top level");
            throw FatalError("MiniC parse error");
        }
        if (peek().isPunct("(")) {
            auto func = std::make_unique<FunctionDecl>();
            func->returnType = type;
            func->name = name.text;
            func->loc = name.loc;
            expectPunct("(");
            if (!acceptPunct(")")) {
                do {
                    if (peek().isKeyword("void") &&
                        peek(1).isPunct(")")) {
                        next();
                        break;
                    }
                    ParamDecl param;
                    param.type = parseTypePrefix();
                    Token pname = next();
                    if (!pname.is(TokKind::Identifier)) {
                        diags_.error(pname.loc,
                                     "expected parameter name");
                        throw FatalError("MiniC parse error");
                    }
                    param.name = pname.text;
                    parseArraySuffix(param.type, true);
                    func->params.push_back(std::move(param));
                } while (acceptPunct(","));
                expectPunct(")");
            }
            if (acceptPunct(";")) {
                unit.functions.push_back(std::move(func));
                return;
            }
            bodyStart_ = pos_;
            func->body = parseBlock();
            unit.functions.push_back(std::move(func));
            return;
        }
        // Global variable(s).
        while (true) {
            GlobalDecl g;
            g.type = type;
            g.name = name.text;
            g.loc = name.loc;
            parseArraySuffix(g.type, false);
            unit.globals.push_back(std::move(g));
            if (acceptPunct(",")) {
                name = next();
                continue;
            }
            expectPunct(";");
            break;
        }
    }

    StmtPtr
    parseBlock()
    {
        expectPunct("{");
        auto block = std::make_unique<Stmt>(Stmt::Kind::Block);
        block->loc = peek().loc;
        while (!peek().isPunct("}")) {
            if (peek().is(TokKind::End)) {
                diags_.error(peek().loc, "unterminated block");
                throw FatalError("MiniC parse error");
            }
            block->body.push_back(parseStatement());
        }
        expectPunct("}");
        return block;
    }

    StmtPtr
    parseStatement()
    {
        Nested nested(*this);
        const Token &t = peek();
        if (t.isPunct("{"))
            return parseBlock();
        if (t.isPunct(";")) {
            next();
            return std::make_unique<Stmt>(Stmt::Kind::Empty);
        }
        if (atTypeKeyword())
            return parseDecl();
        if (t.isKeyword("if"))
            return parseIf();
        if (t.isKeyword("while"))
            return parseWhile();
        if (t.isKeyword("do"))
            return parseDoWhile();
        if (t.isKeyword("for"))
            return parseFor();
        if (t.isKeyword("return")) {
            next();
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Return);
            stmt->loc = t.loc;
            if (!peek().isPunct(";"))
                stmt->expr = parseExpr();
            expectPunct(";");
            return stmt;
        }
        if (t.isKeyword("break")) {
            next();
            expectPunct(";");
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Break);
            stmt->loc = t.loc;
            return stmt;
        }
        if (t.isKeyword("continue")) {
            next();
            expectPunct(";");
            auto stmt = std::make_unique<Stmt>(Stmt::Kind::Continue);
            stmt->loc = t.loc;
            return stmt;
        }
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
        stmt->loc = t.loc;
        stmt->expr = parseExpr();
        expectPunct(";");
        return stmt;
    }

    StmtPtr
    parseDecl()
    {
        TypeSpec type = parseTypePrefix();
        auto first = parseOneDecl(type);
        if (peek().isPunct(",")) {
            // Multiple declarators share one statement list: wrap in a
            // block without scoping implications (MiniC has function
            // scope for simplicity).
            auto block = std::make_unique<Stmt>(Stmt::Kind::Block);
            block->loc = first->loc;
            block->body.push_back(std::move(first));
            while (acceptPunct(","))
                block->body.push_back(parseOneDecl(type));
            expectPunct(";");
            return block;
        }
        expectPunct(";");
        return first;
    }

    StmtPtr
    parseOneDecl(TypeSpec base_type)
    {
        TypeSpec type = base_type;
        while (acceptPunct("*"))
            ++type.pointerDepth;
        Token name = next();
        if (!name.is(TokKind::Identifier)) {
            diags_.error(name.loc, "expected variable name");
            throw FatalError("MiniC parse error");
        }
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::Decl);
        stmt->loc = name.loc;
        parseArraySuffix(type, false);
        stmt->declType = type;
        stmt->declName = name.text;
        if (acceptPunct("="))
            stmt->init = parseAssignExpr();
        return stmt;
    }

    StmtPtr
    parseIf()
    {
        Token t = next(); // if
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::If);
        stmt->loc = t.loc;
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        if (accept(TokKind::Keyword, "else"))
            stmt->elseBody.push_back(parseStatement());
        return stmt;
    }

    StmtPtr
    parseWhile()
    {
        Token t = next(); // while
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::While);
        stmt->loc = t.loc;
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        return stmt;
    }

    StmtPtr
    parseDoWhile()
    {
        Token t = next(); // do
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::DoWhile);
        stmt->loc = t.loc;
        stmt->body.push_back(parseStatement());
        if (!accept(TokKind::Keyword, "while")) {
            diags_.error(peek().loc, "expected 'while' after do body");
            throw FatalError("MiniC parse error");
        }
        expectPunct("(");
        stmt->cond = parseExpr();
        expectPunct(")");
        expectPunct(";");
        return stmt;
    }

    StmtPtr
    parseFor()
    {
        Token t = next(); // for
        auto stmt = std::make_unique<Stmt>(Stmt::Kind::For);
        stmt->loc = t.loc;
        expectPunct("(");
        if (!peek().isPunct(";")) {
            if (atTypeKeyword()) {
                stmt->initStmt = parseDecl();
            } else {
                auto init = std::make_unique<Stmt>(Stmt::Kind::ExprStmt);
                init->expr = parseExpr();
                expectPunct(";");
                stmt->initStmt = std::move(init);
            }
        } else {
            expectPunct(";");
        }
        if (!peek().isPunct(";"))
            stmt->cond = parseExpr();
        expectPunct(";");
        if (!peek().isPunct(")"))
            stmt->incExpr = parseExpr();
        expectPunct(")");
        stmt->body.push_back(parseStatement());
        return stmt;
    }

    // Expressions ---------------------------------------------------------

    ExprPtr
    parseExpr()
    {
        return parseAssignExpr();
    }

    ExprPtr
    parseAssignExpr()
    {
        Nested nested(*this);
        ExprPtr lhs = parseTernary();
        const Token &t = peek();
        static const char *assign_ops[] = {"=",  "+=", "-=",
                                           "*=", "/=", "%="};
        for (const char *op : assign_ops) {
            if (t.isPunct(op)) {
                next();
                auto e = std::make_unique<Expr>(Expr::Kind::Assign);
                e->loc = t.loc;
                e->op = op;
                e->children.push_back(std::move(lhs));
                e->children.push_back(parseAssignExpr());
                return sealed(std::move(e));
            }
        }
        return lhs;
    }

    ExprPtr
    parseTernary()
    {
        ExprPtr cond = parseBinary(0);
        if (peek().isPunct("?")) {
            Token t = next();
            auto e = std::make_unique<Expr>(Expr::Kind::Ternary);
            e->loc = t.loc;
            e->children.push_back(std::move(cond));
            e->children.push_back(parseAssignExpr());
            expectPunct(":");
            e->children.push_back(parseAssignExpr());
            return sealed(std::move(e));
        }
        return cond;
    }

    int
    precedenceOf(const std::string &op) const
    {
        static const std::map<std::string, int> prec = {
            {"||", 1}, {"&&", 2}, {"|", 3}, {"^", 4}, {"&", 5},
            {"==", 6}, {"!=", 6}, {"<", 7}, {"<=", 7}, {">", 7},
            {">=", 7}, {"<<", 8}, {">>", 8}, {"+", 9}, {"-", 9},
            {"*", 10}, {"/", 10}, {"%", 10},
        };
        auto it = prec.find(op);
        return it == prec.end() ? -1 : it->second;
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        while (true) {
            const Token &t = peek();
            if (!t.is(TokKind::Punct))
                break;
            int prec = precedenceOf(t.text);
            if (prec < 0 || prec < min_prec)
                break;
            Token op = next();
            ExprPtr rhs = parseBinary(prec + 1);
            auto e = std::make_unique<Expr>(Expr::Kind::Binary);
            e->loc = op.loc;
            e->op = op.text;
            e->children.push_back(std::move(lhs));
            e->children.push_back(std::move(rhs));
            lhs = sealed(std::move(e));
        }
        return lhs;
    }

    ExprPtr
    parseUnary()
    {
        Nested nested(*this);
        const Token &t = peek();
        if (t.isPunct("-") || t.isPunct("!") || t.isPunct("*") ||
            t.isPunct("~") || t.isPunct("+")) {
            Token op = next();
            auto e = std::make_unique<Expr>(Expr::Kind::Unary);
            e->loc = op.loc;
            e->op = op.text;
            e->children.push_back(parseUnary());
            return sealed(std::move(e));
        }
        if (t.isPunct("++") || t.isPunct("--")) {
            Token op = next();
            // Lower prefix inc/dec as the matching compound assign.
            auto e = std::make_unique<Expr>(Expr::Kind::Assign);
            e->loc = op.loc;
            e->op = op.text == "++" ? "+=" : "-=";
            e->children.push_back(parseUnary());
            auto one = std::make_unique<Expr>(Expr::Kind::IntLit);
            one->intValue = 1;
            e->children.push_back(std::move(one));
            return sealed(std::move(e));
        }
        if (t.isPunct("(") && isCastAhead()) {
            next(); // (
            auto e = std::make_unique<Expr>(Expr::Kind::Cast);
            e->loc = t.loc;
            e->castType = parseTypePrefix();
            expectPunct(")");
            e->children.push_back(parseUnary());
            return sealed(std::move(e));
        }
        return parsePostfix();
    }

    bool
    isCastAhead() const
    {
        // "( type" where type is a keyword type.
        const Token &t1 = peek(1);
        return t1.isKeyword("int") || t1.isKeyword("long") ||
               t1.isKeyword("float") || t1.isKeyword("double");
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        while (true) {
            const Token &t = peek();
            if (t.isPunct("[")) {
                next();
                auto idx = std::make_unique<Expr>(Expr::Kind::Index);
                idx->loc = t.loc;
                idx->children.push_back(std::move(e));
                idx->children.push_back(parseExpr());
                expectPunct("]");
                e = sealed(std::move(idx));
            } else if (t.isPunct("++") || t.isPunct("--")) {
                Token op = next();
                auto post =
                    std::make_unique<Expr>(Expr::Kind::PostIncDec);
                post->loc = op.loc;
                post->op = op.text;
                post->children.push_back(std::move(e));
                e = sealed(std::move(post));
            } else {
                break;
            }
        }
        return e;
    }

    ExprPtr
    parsePrimary()
    {
        Token t = next();
        if (t.is(TokKind::IntLiteral)) {
            auto e = std::make_unique<Expr>(Expr::Kind::IntLit);
            e->loc = t.loc;
            e->intValue = intLiteralValue(t);
            return e;
        }
        if (t.is(TokKind::FloatLiteral)) {
            auto e = std::make_unique<Expr>(Expr::Kind::FloatLit);
            e->loc = t.loc;
            e->isFloat32 = t.text.back() == 'f' || t.text.back() == 'F';
            e->floatValue = floatLiteralValue(t);
            return e;
        }
        if (t.is(TokKind::Identifier)) {
            if (peek().isPunct("(")) {
                auto call = std::make_unique<Expr>(Expr::Kind::Call);
                call->loc = t.loc;
                call->name = t.text;
                next(); // (
                if (!acceptPunct(")")) {
                    do {
                        call->children.push_back(parseAssignExpr());
                    } while (acceptPunct(","));
                    expectPunct(")");
                }
                return sealed(std::move(call));
            }
            auto e = std::make_unique<Expr>(Expr::Kind::VarRef);
            e->loc = t.loc;
            e->name = t.text;
            return e;
        }
        if (t.isPunct("(")) {
            ExprPtr e = parseExpr();
            expectPunct(")");
            return e;
        }
        diags_.error(t.loc, "unexpected token '" + t.text + "'");
        throw FatalError("MiniC parse error");
    }

    std::vector<Token> tokens_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    /** Levels of recursive descent currently open. */
    int nesting_ = 0;
    /** Token index of the last parsed function body's "{". */
    size_t bodyStart_ = 0;
};

} // namespace

std::unique_ptr<TranslationUnit>
parseMiniC(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> tokens = lexMiniC(source, diags);
    if (diags.hasErrors())
        return nullptr;
    try {
        Parser parser(std::move(tokens), diags);
        auto unit = parser.parseUnit();
        if (diags.hasErrors())
            return nullptr;
        return unit;
    } catch (const FatalError &) {
        return nullptr;
    }
}

} // namespace repro::frontend
