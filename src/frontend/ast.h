/**
 * @file
 * Abstract syntax tree of MiniC.
 *
 * MiniC covers the C constructs the NAS/Parboil kernels need: the
 * scalar types int/long/float/double, pointers, multi-dimensional
 * arrays, for/while/if control flow, compound assignment and function
 * calls. That is exactly the input surface the paper's detection flow
 * consumes after clang lowers C to LLVM IR.
 */
#ifndef FRONTEND_AST_H
#define FRONTEND_AST_H

#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace repro::frontend {

/** Scalar base types of MiniC. */
enum class BaseType
{
    Void,
    Int,
    Long,
    Float,
    Double,
};

/** A MiniC type: base type, pointer depth and array dimensions. */
struct TypeSpec
{
    BaseType base = BaseType::Int;
    int pointerDepth = 0;
    /** Array dimensions, outermost first; 0 encodes an unsized first
     *  dimension (function parameters: decays to a pointer). */
    std::vector<int64_t> dims;
};

// Expressions --------------------------------------------------------------

struct Expr
{
    enum class Kind
    {
        IntLit,
        FloatLit,
        VarRef,
        Index,     ///< base[index]
        Unary,     ///< -x, !x, ~x, +x, *p
        Cast,      ///< (type) x
        Binary,    ///< arithmetic / comparison / logical
        Assign,    ///< lhs = rhs, also compound ops
        Call,
        PostIncDec,
        Ternary,   ///< c ? a : b
    };

    Kind kind;
    SourceLoc loc;

    // Literals.
    int64_t intValue = 0;
    double floatValue = 0.0;
    bool isFloat32 = false;

    // VarRef / Call.
    std::string name;

    // Operator text for Unary/Binary/Assign/PostIncDec.
    std::string op;

    // Cast: the target type.
    TypeSpec castType;

    std::vector<std::unique_ptr<Expr>> children;

    /** Levels of this subtree (1 for a leaf), set by the parser. */
    int depth = 1;

    explicit Expr(Kind k) : kind(k) {}
};

using ExprPtr = std::unique_ptr<Expr>;

// Statements ---------------------------------------------------------------

struct Stmt
{
    enum class Kind
    {
        Block,
        Decl,
        ExprStmt,
        If,
        While,
        DoWhile,
        For,
        Return,
        Break,
        Continue,
        Empty,
    };

    Kind kind;
    SourceLoc loc;

    // Decl.
    TypeSpec declType;
    std::string declName;
    ExprPtr init;

    // If/While/For: cond; For: initStmt, incExpr.
    ExprPtr cond;
    std::unique_ptr<Stmt> initStmt;
    ExprPtr incExpr;

    // Return / ExprStmt.
    ExprPtr expr;

    // Block body / If then+else / loop body.
    std::vector<std::unique_ptr<Stmt>> body;
    std::vector<std::unique_ptr<Stmt>> elseBody;

    explicit Stmt(Kind k) : kind(k) {}
};

using StmtPtr = std::unique_ptr<Stmt>;

// Declarations ---------------------------------------------------------------

/** One function parameter. */
struct ParamDecl
{
    TypeSpec type;
    std::string name;
};

/** A function definition or declaration. */
struct FunctionDecl
{
    TypeSpec returnType;
    std::string name;
    std::vector<ParamDecl> params;
    StmtPtr body; ///< null for declarations
    SourceLoc loc;

    /**
     * Hash of the definition's tokens (kinds and texts, not their
     * positions), signature included; 0 for declarations. Half of
     * the key a recompile reuses this function's previous IR under
     * (compiler.h).
     */
    uint64_t definitionHash = 0;
};

/** A module-level variable. */
struct GlobalDecl
{
    TypeSpec type;
    std::string name;
    SourceLoc loc;
};

/** A full translation unit. */
struct TranslationUnit
{
    std::vector<GlobalDecl> globals;
    std::vector<std::unique_ptr<FunctionDecl>> functions;

    /**
     * Hash of every top-level token outside function bodies, in
     * order: each global and each function signature. This is
     * everything a function body's code generation can see besides
     * the body itself.
     */
    uint64_t declarationsHash = 0;
};

} // namespace repro::frontend

#endif // FRONTEND_AST_H
