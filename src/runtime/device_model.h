/**
 * @file
 * Analytic device performance model.
 *
 * The paper evaluates on an AMD A10-7850K (multicore CPU + integrated
 * R7 GPU) and an NVIDIA GTX Titan X. This model substitutes for that
 * hardware (see DESIGN.md section 2): execution time is a roofline
 * estimate — max(compute, memory) plus kernel launch and PCIe
 * transfer terms — scaled by a per-(API, idiom class, platform)
 * efficiency factor. Absolute numbers are calibrated against Table 3
 * of the paper; the reproduction target is the *shape*: which API and
 * device wins each benchmark, and where data transfer flips the
 * outcome.
 */
#ifndef RUNTIME_DEVICE_MODEL_H
#define RUNTIME_DEVICE_MODEL_H

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "idioms/library.h"

namespace repro::runtime {

/** Execution platforms of the paper's evaluation. */
enum class Platform
{
    CPU,  ///< 4-module AMD A10-7850K, multicore + SIMD
    IGPU, ///< Radeon R7, same die, shared memory
    DGPU, ///< NVIDIA GTX Titan X over PCIe
};

/** Display name of @p p ("CPU", "iGPU", "dGPU"). */
const char *platformName(Platform p);

/** All platforms, in Table 3 column order. */
std::vector<Platform> allPlatforms();

/** Heterogeneous APIs targeted by the transformation (section 5). */
enum class Api
{
    MKL,      ///< CPU BLAS / sparse
    LibSPMV,  ///< custom sparse library for the Parboil format
    Halide,   ///< stencil DSL, CPU schedules
    ClBLAS,   ///< OpenCL BLAS (iGPU)
    CLBlast,  ///< OpenCL BLAS (iGPU)
    Lift,     ///< rewrite-based data-parallel DSL (all platforms)
    ClSPARSE, ///< OpenCL sparse (iGPU)
    CuSPARSE, ///< CUDA sparse (dGPU)
    CuBLAS,   ///< CUDA BLAS (dGPU)
};

/** Display name of @p api as printed in Table 3. */
const char *apiName(Api api);

/** All APIs, in Table 3 row order. */
std::vector<Api> allApis();

/** Which platform an API runs on. */
Platform apiPlatform(Api api);

/** Can @p api implement idiom class @p cls? */
bool apiSupports(Api api, idioms::IdiomClass cls);

/** Workload descriptor for one accelerated region. */
struct WorkProfile
{
    double flops = 0;          ///< arithmetic per invocation
    double bytes = 0;          ///< memory traffic per invocation
    double transferBytes = 0;  ///< data shipped to/from the device
    int invocations = 1;       ///< region executions per program run
    /** The region sits in an iterative solver whose data can stay
     *  resident on the device (lazy copying, section 8.3). */
    bool lazyCopyApplicable = false;
    /** Fraction of sequential runtime the idioms cover (Figure 17);
     *  the remainder stays serial (Amdahl). */
    double offloadFraction = 1.0;
    /** Kernel parallelizability (divergence, atomics density). */
    double parallel = 1.0;
    /** APIs that can express this benchmark's idiom (the populated
     *  cells of its Table 3 row). Empty = every supporting API. */
    std::set<Api> allowedApis;
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
};

/** Hardware parameters of one platform. */
struct DeviceParams
{
    double gflops;         ///< peak compute, GF/s
    double bandwidthGBs;   ///< memory bandwidth, GB/s
    double pcieGBs;        ///< host link bandwidth (0 = shared memory)
    double launchUs;       ///< per-invocation launch overhead
    double pcieLatencyUs;  ///< fixed DMA/sync cost per transfer
};

/** Hardware parameters of platform @p p (calibrated to the paper). */
const DeviceParams &deviceParams(Platform p);

/** Efficiency of @p api for idiom class @p cls on platform @p p. */
double apiEfficiency(Api api, idioms::IdiomClass cls, Platform p);

/** Modeled single-core sequential execution time (the baseline). */
double sequentialTimeMs(const WorkProfile &work);

/**
 * Modeled time of the handwritten parallel references shipped with
 * the benchmark suites (Figure 19): OpenMP on the CPU, OpenCL on the
 * dGPU. @p algorithmic_speedup reflects reference implementations
 * that use different algorithms (EP, IS, MG, tpacf).
 */
double referenceOpenMpMs(const WorkProfile &work,
                         double algorithmic_speedup);
double referenceOpenClMs(const WorkProfile &work,
                         double algorithmic_speedup);

/**
 * Is (@p api on platform @p p) a legal lowering for idiom class
 * @p cls?  Encodes Table 3's populated cells: the API must support
 * the class, must be able to run on the platform (vendor libraries
 * are pinned to their home device; Lift and libSPMV are portable),
 * and Halide's GPU backend is excluded (section 8.3).
 */
bool apiAvailableOn(Platform p, Api api, idioms::IdiomClass cls);

/**
 * Modeled time for @p api on platform @p p; std::nullopt when the API
 * does not support the idiom class or cannot run on that platform
 * (Table 3's empty cells).
 */
std::optional<double> apiTimeOn(Platform p, Api api,
                                const WorkProfile &work,
                                bool lazy_copy);

/** Best API/time for a class on a given platform. */
struct BestChoice
{
    Api api;
    double timeMs;
};
std::optional<BestChoice> bestApiOn(Platform p, const WorkProfile &work,
                                    bool lazy_copy);

} // namespace repro::runtime

#endif // RUNTIME_DEVICE_MODEL_H
