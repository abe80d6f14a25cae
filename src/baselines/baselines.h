/**
 * @file
 * Baseline detectors standing in for Polly and ICC (section 7 of the
 * paper, "Alternative detection approaches").
 *
 * Neither tool is an idiom detector; the paper counts a loop when the
 * tool's parallelization analysis admits it. The stand-ins model the
 * *structural* reasons each tool succeeds or fails:
 *
 *  - Polly-like: a loop counts only inside a static control part
 *    (SCoP): compile-time-constant bounds, affine subscripts, no
 *    calls, no data-dependent control, no indirect accesses. Indirect
 *    CSR/histogram subscripts "fundamentally contradict" (section 8.1)
 *    these assumptions.
 *  - ICC-like: dependence-based scalar reduction recognition only —
 *    a straight-line loop body updating a scalar accumulator through
 *    a plain add/mul chain; calls, selects and control flow in the
 *    update defeat it.
 */
#ifndef BASELINES_BASELINES_H
#define BASELINES_BASELINES_H

#include "idioms/library.h"
#include "ir/function.h"

namespace repro::baselines {

/** Polly-like SCoP-restricted detection over a module (Table 1). */
idioms::ClassCounts runPollyLike(ir::Module &module);

/** ICC-like dependence-based reduction detection over a module. */
idioms::ClassCounts runIccLike(ir::Module &module);

} // namespace repro::baselines

#endif // BASELINES_BASELINES_H
