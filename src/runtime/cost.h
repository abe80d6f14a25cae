/**
 * @file
 * Backend cost layer: turns the analytic device model into a per-call-
 * site ranking of legal (API, platform) lowerings.
 *
 * The transform stack plans every matched idiom against all legal
 * backend targets; this layer predicts each target's execution time
 * from a workload descriptor (trip counts, flops, bytes moved —
 * analysis/workload.h) including host-device transfer, and ranks the
 * alternatives so RewriteEngine can pick the winner. Under the
 * default BackendPolicy::Fixed the fixedTarget() of each class is the
 * historical single-target behavior, byte-for-byte (docs/BACKENDS.md).
 */
#ifndef RUNTIME_COST_H
#define RUNTIME_COST_H

#include <string>
#include <vector>

#include "analysis/workload.h"
#include "runtime/device_model.h"

namespace repro::runtime {

/** One candidate lowering of a matched idiom. */
struct BackendTarget
{
    Api api = Api::MKL;
    Platform platform = Platform::CPU;
    /** Modeled time for the call site's workload, milliseconds. */
    double predictedMs = 0.0;
};

/** Same (api, platform) pair, costs ignored. */
inline bool
sameBackend(const BackendTarget &a, const BackendTarget &b)
{
    return a.api == b.api && a.platform == b.platform;
}

/**
 * Every legal (API, platform) lowering of idiom class @p cls — the
 * populated cells of its Table 3 row — in deterministic (API-major)
 * order. Empty for classes no backend implements.
 */
std::vector<BackendTarget> legalTargets(idioms::IdiomClass cls);

/**
 * The historical single-target lowering of @p cls: the host backend
 * every rewrite used before backend selection existed. This
 * is what BackendPolicy::Fixed always picks.
 */
BackendTarget fixedTarget(idioms::IdiomClass cls);

/**
 * Modeled execution time of @p cls's workload @p wd through @p api on
 * platform @p p, milliseconds, including transfer. Negative when the
 * combination is illegal.
 */
double predictMs(Platform p, Api api,
                 const analysis::WorkloadDescriptor &wd,
                 idioms::IdiomClass cls);

/**
 * All legal targets of @p cls with predicted costs for @p wd, sorted
 * ascending by cost (ties keep legalTargets order).
 */
std::vector<BackendTarget>
rankTargets(idioms::IdiomClass cls,
            const analysis::WorkloadDescriptor &wd);

/** Human/wire token, e.g. "cuBLAS@GPU" (no spaces). */
std::string backendToken(const BackendTarget &t);

/** Identifier-safe lowercase symbol, e.g. "cublas_gpu". */
std::string backendSymbol(const BackendTarget &t);

} // namespace repro::runtime

#endif // RUNTIME_COST_H
