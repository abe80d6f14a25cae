/**
 * @file
 * Cleanup passes run after codegen: unreachable-block removal and
 * aggressive dead code elimination. Together with mem2reg they yield
 * the "optimized LLVM IR" the paper's detection operates on.
 */
#ifndef FRONTEND_PASSES_H
#define FRONTEND_PASSES_H

#include "ir/function.h"

namespace repro::frontend {

/**
 * Delete blocks not reachable from the entry, fixing up phi nodes of
 * surviving blocks. Returns the number of removed blocks.
 */
int removeUnreachableBlocks(ir::Function *func);

/**
 * Aggressive DCE: keep only instructions with observable effects
 * (stores, calls, terminators, returns) and everything they
 * transitively use; delete the rest, including dead phi cycles.
 * Returns the number of removed instructions.
 */
int aggressiveDCE(ir::Function *func);

} // namespace repro::frontend

#endif // FRONTEND_PASSES_H
