/**
 * @file
 * Per-call-site workload descriptors for the backend cost model.
 *
 * A WorkloadDescriptor summarizes what one matched loop nest does per
 * entry: trip counts, arithmetic, memory traffic and the footprint
 * that would have to be shipped to a discrete device. Descriptors are
 * static estimates (constant loop bounds, a default trip count when a
 * bound is unknown), so the cost layer always has something to rank
 * backends with (docs/BACKENDS.md).
 */
#ifndef ANALYSIS_WORKLOAD_H
#define ANALYSIS_WORKLOAD_H

#include "analysis/loops.h"

namespace repro::analysis {

/** What one entry of a matched loop nest costs. */
struct WorkloadDescriptor
{
    /** Trips of the nest's root loop per entry. */
    double tripCount = 0.0;
    /** Floating-point arithmetic per entry. */
    double flops = 0.0;
    /** Bytes loaded/stored per entry. */
    double bytes = 0.0;
    /** Distinct array footprint (per base pointer, max extent). */
    double transferBytes = 0.0;
    /** Entries of the nest per program run. */
    double invocations = 1.0;
};

/**
 * Estimate the workload of the loop nest rooted at @p loop from static
 * constant loop bounds (unknown bounds default to 64 trips).
 */
WorkloadDescriptor estimateWorkload(const LoopInfo &loops,
                                    const Loop *loop);

} // namespace repro::analysis

#endif // ANALYSIS_WORKLOAD_H
