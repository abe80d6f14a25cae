/**
 * @file
 * Dominance-aware static verifier for the SSA IR.
 *
 * Four layers mutate or consume IR (frontend passes, the transactional
 * RewriteEngine, bytecode lowering, cache replay re-anchoring); the
 * verifier is the machine-checkable contract between them. It checks,
 * per function:
 *
 *  - structure: every block ends in exactly one terminator
 *    ("block-term"), phis are grouped at block starts ("phi-order")
 *    and agree with the predecessor list ("phi-pred", "phi-type"),
 *    per-opcode operand typing ("op-type");
 *  - CFG integrity: branch targets are blocks of the same function
 *    with the right arity ("cfg-edge"); blocks unreachable from the
 *    entry are reported as warnings ("cfg-unreachable");
 *  - value ownership: every operand is one of the function's own
 *    arguments/instructions, a module global or an interned module
 *    constant — membership is decided by set lookup alone, never by
 *    dereferencing, so a recorded-then-erased pointer is diagnosed
 *    ("op-dangling") instead of dereferenced, and a value owned by
 *    another function is "op-cross-function";
 *  - SSA dominance (reusing analysis/dominators): every non-phi use
 *    is strictly dominated by its def ("dom-use"), and every phi
 *    incoming value dominates the matching predecessor's terminator
 *    ("dom-phi");
 *  - call sites: the callee is a function of the same module
 *    ("call-callee"), argument count ("call-arity") and types
 *    ("call-arg-type") match the callee signature, and the call's
 *    result type equals the callee return type ("call-ret-type").
 *
 * Diagnostics are structured (rule id, function, block, instruction
 * index) so negative-oracle tests can pin exact rules and the service
 * layer can reject malformed modules with a structured protocol
 * error. The legacy string API remains as a thin wrapper over the
 * error tier.
 */
#ifndef IR_VERIFIER_H
#define IR_VERIFIER_H

#include <string>
#include <vector>

#include "ir/function.h"

namespace repro::ir {

/**
 * Where the pipeline runs the verifier. Off keeps the historical
 * behavior (only the frontend's final post-compile check). Boundaries
 * additionally gates every pass boundary: after MiniC codegen, after
 * mem2reg, after LICM/DCE, after every RewriteEngine commit and
 * rollback, after the driver's transform stage, and before bytecode
 * lowering.
 */
enum class VerifyMode
{
    Off,
    Boundaries,
};

/**
 * Process-wide default, read once from the REPRO_VERIFY environment
 * variable: "1" / "on" / "boundaries" select Boundaries, everything
 * else (and unset) selects Off. The sanitizer CI tiers export
 * REPRO_VERIFY=1 so the whole quick test tier runs fully gated.
 */
VerifyMode defaultVerifyMode();

/** Severity tier of one verifier diagnostic. */
enum class VerifySeverity
{
    Error,
    Warning,
};

/** One structured verifier finding. */
struct VerifierDiag
{
    /** Stable rule id, e.g. "dom-use" (see file comment for the set). */
    std::string rule;
    VerifySeverity severity = VerifySeverity::Error;
    /** Function the finding is in. */
    std::string function;
    /** Block name; empty for function-level findings. */
    std::string block;
    /** Instruction index within the block; -1 for block/function level. */
    int instIndex = -1;
    /** Human-readable detail. */
    std::string message;

    /** "rule=<id> function=@f block=%b inst=<i>: <message>". */
    std::string str() const;
};

/** All findings of one verification run. */
struct VerifierReport
{
    std::vector<VerifierDiag> diags;

    /** True when no error-tier diagnostic was produced. */
    bool ok() const;
    size_t errorCount() const;
    size_t warningCount() const;
    /** True when some diagnostic carries @p rule. */
    bool hasRule(const std::string &rule) const;
    /** First error-tier diagnostic; must not be called when ok(). */
    const VerifierDiag &firstError() const;
    /** Render every diagnostic, one per line. */
    std::string str() const;
};

/** Run every rule over @p func. Declarations verify trivially. */
VerifierReport verifyFunctionDetailed(Function *func);

/** Run every rule over every function of @p module. */
VerifierReport verifyModuleDetailed(Module &module);

/**
 * Legacy string API: the error-tier diagnostics of
 * verifyModuleDetailed rendered as strings (empty when valid).
 * Warnings are not included — they never fail a compile.
 */
std::vector<std::string> verifyModule(Module &module);

/**
 * Gate helper for pass boundaries: verify and throw InternalError
 * naming @p boundary when any error-tier diagnostic is found. A
 * violation at a boundary is a bug in the pass that just ran, not bad
 * user input.
 */
void verifyOrThrow(Function *func, const std::string &boundary);
void verifyOrThrow(Module &module, const std::string &boundary);

} // namespace repro::ir

#endif // IR_VERIFIER_H
