/**
 * @file
 * AST of the Idiom Description Language (IDL).
 *
 * The grammar follows Figure 7 of the paper. Two documented extensions
 * support the reconstructed building-block idioms:
 *  - "{a} has data flow path to {b}" (transitive def-use reachability);
 *  - "all data flow into {out} inside {region} is killed by {list}"
 *    (kernel-function closure, the workhorse behind KernelFunction);
 *  - "[*]" inside a varlist expands to every element bound by a
 *    collect.
 */
#ifndef IDL_AST_H
#define IDL_AST_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace repro::idl {

/**
 * The largest `collect` bound and the widest `for all` / `for some`
 * or `{v[a..b]}` range IDL accepts. Each expands eagerly, one copy
 * per value, so an unbounded value costs time and memory linearly;
 * the shipped library uses collect bounds of 16 and ranges of at
 * most N. The parser rejects a larger collect bound, lowering a
 * wider range.
 */
constexpr int kMaxExpansion = 4096;

/** An integer calculation: parameter references, literals, +/-. */
struct Calc
{
    /** Sequence of (+1|-1, term) where a term is a name or literal. */
    struct Term
    {
        int sign = 1;
        bool isName = false;
        std::string name;
        int64_t literal = 0;
    };
    std::vector<Term> terms;
};

/**
 * A variable reference: path components with optional index
 * calculations, e.g. {read[i].value} or {inner.iterator}.
 */
struct VarRef
{
    struct Component
    {
        std::string name;
        bool hasIndex = false;
        Calc index;
        bool wildcard = false; ///< "[*]" in varlists
        bool hasRange = false; ///< "[a..b]" in varlists
        Calc rangeBegin;
        Calc rangeEnd;
    };
    std::vector<Component> components;
};

/** Kinds of atomic constraints. */
enum class AtomicKind
{
    IsIntegerType,
    IsFloatType,
    IsPointerType,
    IsConstantZero,   ///< "... constant zero" suffix forms
    IsUnused,
    IsConstant,
    IsCompileTimeValue,
    IsArgument,
    IsInstruction,
    IsOpcode,         ///< payload: opcode name
    Same,
    NotSame,
    HasDataFlowTo,
    HasControlFlowTo,
    HasControlDominanceTo,
    HasDependenceEdgeTo,
    HasDataFlowPathTo, ///< extension
    IsArgumentOf,      ///< payload: argument position 1..4
    ReachesPhiFrom,
    Dominates,         ///< flags: strict / postdom / negated / kind
    AllFlowPassesThrough,
    FlowKilledBy,
    KernelClosure,     ///< extension
};

/** Flow kind qualifier on dominance / path atomics. */
enum class FlowKind
{
    Any,
    Data,
    Control,
};

struct Constraint;
using ConstraintPtr = std::unique_ptr<Constraint>;

/** One node of a constraint formula. */
struct Constraint
{
    enum class Kind
    {
        Atomic,
        Conjunction,
        Disjunction,
        Inherit,
        ForAll,
        ForSome,
        ForOne,
        If,
        Rename,  ///< also implements rebase via prefix
        Collect,
    };

    Kind kind;
    SourceLoc loc;

    // Atomic.
    AtomicKind atomic = AtomicKind::Same;
    std::vector<VarRef> vars;       ///< positional variable operands
    std::vector<std::vector<VarRef>> varLists; ///< for list atomics
    std::string opcodeName;         ///< IsOpcode
    int argPosition = 0;            ///< IsArgumentOf
    bool negated = false;           ///< Dominates "does not"
    bool strict = false;            ///< Dominates "strictly"
    bool postDom = false;           ///< "post dominates"
    FlowKind flow = FlowKind::Any;

    // Conjunction / Disjunction children; single child for wrappers.
    std::vector<ConstraintPtr> children;

    // Inherit.
    std::string inheritName;
    std::vector<std::pair<std::string, Calc>> inheritParams;

    // ForAll / ForSome / ForOne / Collect index parameter.
    std::string indexName;
    Calc rangeBegin;
    Calc rangeEnd;   ///< exclusive; also ForOne single value
    int collectMax = 16;

    // If.
    Calc ifLeft;
    Calc ifRight;

    // Rename / rebase: inner-name -> outer-name prefix map and
    // optional rebase prefix ("at {p}").
    std::vector<std::pair<VarRef, VarRef>> renames; ///< (outer, inner)
    VarRef rebasePrefix;
    bool hasRebase = false;

    explicit Constraint(Kind k) : kind(k) {}
};

/** A named, optionally parameterized idiom specification. */
struct ConstraintDef
{
    std::string name;
    /** Template parameters with default values (C++-template style). */
    std::vector<std::pair<std::string, int64_t>> params;
    ConstraintPtr body;
};

/** A parsed IDL program: an ordered set of definitions. */
struct IdlProgram
{
    std::vector<std::unique_ptr<ConstraintDef>> defs;
    std::map<std::string, ConstraintDef *> byName;

    const ConstraintDef *
    lookup(const std::string &name) const
    {
        auto it = byName.find(name);
        return it == byName.end() ? nullptr : it->second;
    }
};

} // namespace repro::idl

#endif // IDL_AST_H
