/**
 * @file
 * One-call MiniC compilation driver: parse, generate IR, remove
 * unreachable code, promote scalars to SSA and clean up — either
 * fresh, or reusing the unchanged functions of a previous compile.
 */
#ifndef FRONTEND_COMPILER_H
#define FRONTEND_COMPILER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace repro::frontend {

/**
 * What one compile's functions were compiled from: a function keeps
 * its previous optimized IR when both its definition hash and the
 * declarations hash are unchanged (parser token hashes, see ast.h).
 */
struct ReuseKeys
{
    /** Every global and function signature. */
    uint64_t declarations = 0;
    /** Per function defined exactly once: its definition's tokens. */
    std::map<std::string, uint64_t> definitions;
};

/**
 * A module compileMiniCReusing may copy unchanged functions from, and
 * the keys it was compiled from; none when module is null.
 */
struct PreviousCompile
{
    const ir::Module *module = nullptr;
    const ReuseKeys *keys = nullptr;
};

/** Outcome of compileMiniCReusing. */
struct CompileResult
{
    bool ok = false;
    /** Rejected by the final verifier (an "invalid-ir" diagnostic). */
    bool invalidIr = false;
    /** Functions whose bodies were cloned, in source order. */
    std::vector<std::string> reused;
    /** This compile's keys, to pass back as the next PreviousCompile. */
    ReuseKeys keys;
};

/**
 * compileMiniC against an earlier compile of the same module: every
 * function whose ReuseKeys match @p previous gets a clone of its
 * previous optimized body (ir::Function::cloneBodyFrom) instead of
 * codegen, mem2reg and cleanup; all other functions run every stage.
 * The result is identical to a fresh compile: same printed IR, same
 * contentHash()es. Without a previous module, this is compileMiniC.
 *
 * Under VerifyMode::Boundaries the clones are verified at their own
 * boundary, "frontend-reuse"; the final whole-module check covers
 * reused functions too.
 */
CompileResult compileMiniCReusing(
    const std::string &source, ir::Module &module, DiagEngine &diags,
    PreviousCompile previous,
    ir::VerifyMode verify = ir::defaultVerifyMode());

/**
 * Compile MiniC @p source into @p module (optimized SSA form).
 * Returns false and fills @p diags on any error.
 *
 * With @p verify == VerifyMode::Boundaries the dominance-aware IR
 * verifier additionally runs after codegen ("frontend-codegen"),
 * after mem2reg ("frontend-mem2reg") and after the cleanup passes
 * ("frontend-optimize"), throwing InternalError naming the boundary
 * on the first defect — pinpointing which stage broke the module
 * instead of reporting a blurred post-hoc diagnostic. The final
 * module check always runs regardless of the mode; each error-tier
 * finding becomes one "invalid-ir rule=... function=@..." error in
 * @p diags.
 */
bool compileMiniC(const std::string &source, ir::Module &module,
                  DiagEngine &diags,
                  ir::VerifyMode verify = ir::defaultVerifyMode());

/** Convenience wrapper that throws FatalError on failure. */
void compileMiniCOrDie(const std::string &source, ir::Module &module,
                       ir::VerifyMode verify = ir::defaultVerifyMode());

} // namespace repro::frontend

#endif // FRONTEND_COMPILER_H
