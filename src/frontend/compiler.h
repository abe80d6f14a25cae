/**
 * @file
 * One-call MiniC compilation driver: parse, generate IR, remove
 * unreachable code, promote scalars to SSA and clean up.
 */
#ifndef FRONTEND_COMPILER_H
#define FRONTEND_COMPILER_H

#include <string>

#include "ir/function.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace repro::frontend {

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
