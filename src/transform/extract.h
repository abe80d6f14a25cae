/**
 * @file
 * Kernel extraction: clone the backward slice of a value into a fresh
 * IR function (section 6.2 — "we use this information to cut out the
 * kernel function").
 *
 * Extraction is split into two phases so the transactional
 * RewriteEngine (rewrite.h) can plan without mutating the module:
 * planKernelSlice classifies the backward slice and computes the
 * loop-invariant parameter list purely, and materializeKernel builds
 * the function from a previously computed slice at commit time.
 */
#ifndef TRANSFORM_EXTRACT_H
#define TRANSFORM_EXTRACT_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dominators.h"
#include "ir/function.h"

namespace repro::transform {

/**
 * Pure classification of one kernel extraction: which values become
 * leading parameters (@p inputs, in order), which loop-invariant
 * values become trailing parameters, and which region the clone will
 * walk. Holds no IR mutation; pointers reference the (still
 * unmutated) source function.
 */
struct KernelSlice
{
    /** Value the kernel computes (becomes the return value). */
    const ir::Value *out = nullptr;
    /** Instruction-level region root (see planKernelSlice). */
    const ir::Instruction *regionBegin = nullptr;
    /** Leading parameters, in order. */
    std::vector<const ir::Value *> inputs;
    /** Loop-invariant values that become trailing parameters. */
    std::vector<const ir::Value *> invariants;
};

/**
 * Classify the computation of @p out without touching the IR.
 *
 * @param inputs become the leading parameters, in order (typically
 *        the collected read values followed by the old accumulator).
 * @param region_begin instruction-level region root: instructions
 *        dominated by it are cloned; values defined outside are
 *        treated as loop invariants and appended as parameters.
 * @param call_point every invariant must dominate this instruction
 *        (where the replacement call will live).
 *
 * Returns std::nullopt when the slice contains constructs the
 * translation cannot express (phis, unlisted loads, stores, calls to
 * defined functions).
 */
std::optional<KernelSlice>
planKernelSlice(const ir::Value *out,
                const ir::Instruction *region_begin,
                const std::vector<const ir::Value *> &inputs,
                const analysis::DomTree &dom,
                const ir::Instruction *call_point);

/**
 * Build the kernel function @p name from a slice computed by
 * planKernelSlice. The slice's source region must still be intact.
 *
 * @param remap value substitutions performed by rewrites
 *        committed since the slice was planned (e.g. a reduction
 *        result replaced by its API call): any slice value with an
 *        entry here is ALSO mapped to the corresponding parameter, so
 *        region instructions whose operands were rewired still clone
 *        to parameter references instead of dragging foreign
 *        instructions into the kernel.
 */
ir::Function *
materializeKernel(ir::Module &module, const std::string &name,
                  const KernelSlice &slice,
                  const std::map<const ir::Value *, ir::Value *>
                      &remap);

} // namespace repro::transform

#endif // TRANSFORM_EXTRACT_H
