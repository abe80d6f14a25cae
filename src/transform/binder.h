/**
 * @file
 * Binds the inserted heterogeneous API entry points to native
 * skeleton implementations on the interpreter (the "link against the
 * vendor library / DSL output" step of Figure 1).
 */
#ifndef TRANSFORM_BINDER_H
#define TRANSFORM_BINDER_H

#include <vector>

#include "interp/interpreter.h"
#include "transform/transform.h"

namespace repro::transform {

/**
 * Register a native handler with @p interp for every entry of
 * @p replacements, so a transformed module stays executable:
 * DSL-backed idioms (reduce/histogram/stencil) call back into their
 * extracted IR kernel functions through the interpreter, while
 * library-backed ones (spmv/gemm) run one host loop over the heap
 * whatever their target: every backend-suffixed entry point of a kind
 * binds the same handler. A kind with no handler (every
 * idioms::idiomTable() replacement kind has one) throws FatalError
 * naming the kind and the callee. Call after the rewrite engine's
 * planners (transform/rewrite.cpp) have committed, e.g. through
 * transform::Transformer::applyAll, and before Interpreter::run.
 */
void bindReplacements(interp::Interpreter &interp,
                      const std::vector<Replacement> &replacements);

} // namespace repro::transform

#endif // TRANSFORM_BINDER_H
