#include "runtime/device_model.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace repro::runtime {

using idioms::IdiomClass;

const char *
platformName(Platform p)
{
    switch (p) {
      case Platform::CPU: return "CPU";
      case Platform::IGPU: return "iGPU";
      case Platform::DGPU: return "GPU";
    }
    return "?";
}

std::vector<Platform>
allPlatforms()
{
    return {Platform::CPU, Platform::IGPU, Platform::DGPU};
}

const char *
apiName(Api api)
{
    switch (api) {
      case Api::MKL: return "MKL";
      case Api::LibSPMV: return "libSPMV";
      case Api::Halide: return "Halide";
      case Api::ClBLAS: return "clBLAS";
      case Api::CLBlast: return "CLBlast";
      case Api::Lift: return "Lift";
      case Api::ClSPARSE: return "clSPARSE";
      case Api::CuSPARSE: return "cuSPARSE";
      case Api::CuBLAS: return "cuBLAS";
    }
    return "?";
}

std::vector<Api>
allApis()
{
    return {Api::MKL,     Api::LibSPMV,  Api::Halide,
            Api::ClBLAS,  Api::CLBlast,  Api::Lift,
            Api::ClSPARSE, Api::CuSPARSE, Api::CuBLAS};
}

Platform
apiPlatform(Api api)
{
    switch (api) {
      case Api::MKL:
      case Api::Halide:
        return Platform::CPU;
      case Api::ClBLAS:
      case Api::CLBlast:
      case Api::ClSPARSE:
        return Platform::IGPU;
      case Api::CuSPARSE:
      case Api::CuBLAS:
        return Platform::DGPU;
      case Api::LibSPMV:
      case Api::Lift:
        // Multi-platform APIs; apiTimeOn accepts any platform.
        return Platform::CPU;
    }
    return Platform::CPU;
}

bool
apiSupports(Api api, IdiomClass cls)
{
    switch (api) {
      case Api::MKL:
        return cls == IdiomClass::MatrixOp ||
               cls == IdiomClass::SparseMatrixOp;
      case Api::LibSPMV:
        return cls == IdiomClass::SparseMatrixOp;
      case Api::Halide:
        // Halide pipelines cover stencils and the scatter/histogram
        // patterns on the CPU; its GPU backend produced no valid code
        // in the paper's evaluation.
        return cls == IdiomClass::Stencil ||
               cls == IdiomClass::HistogramReduction;
      case Api::ClBLAS:
      case Api::CLBlast:
      case Api::CuBLAS:
        return cls == IdiomClass::MatrixOp;
      case Api::ClSPARSE:
      case Api::CuSPARSE:
        return cls == IdiomClass::SparseMatrixOp;
      case Api::Lift:
        return cls == IdiomClass::ScalarReduction ||
               cls == IdiomClass::HistogramReduction ||
               cls == IdiomClass::Stencil ||
               cls == IdiomClass::MatrixOp;
    }
    return false;
}

const DeviceParams &
deviceParams(Platform p)
{
    // AMD A10-7850K (4 cores, AVX) with DDR3; Radeon R7 on the same
    // die (shared memory, heavyweight OpenCL dispatch through the
    // 2016-era Catalyst driver); GTX Titan X over PCIe 3.0.
    static const DeviceParams cpu{110.0, 21.0, 0.0, 2.0, 0.0};
    static const DeviceParams igpu{737.0, 21.0, 0.0, 150.0, 0.0};
    static const DeviceParams dgpu{6100.0, 336.0, 11.0, 12.0, 45.0};
    switch (p) {
      case Platform::CPU: return cpu;
      case Platform::IGPU: return igpu;
      case Platform::DGPU: return dgpu;
    }
    return cpu;
}

double
apiEfficiency(Api api, IdiomClass cls, Platform p)
{
    // Calibrated against Table 3 (see EXPERIMENTS.md): vendor
    // libraries approach roofline on their home platform; the
    // portable code generators trade efficiency for generality, with
    // per-platform quality differences the paper measures.
    switch (api) {
      case Api::MKL:
        return cls == IdiomClass::MatrixOp ? 0.70 : 0.32;
      case Api::LibSPMV:
        switch (p) {
          case Platform::CPU: return 0.50;
          case Platform::IGPU: return 0.95;
          case Platform::DGPU: return 0.47;
        }
        return 0.5;
      case Api::Halide:
        return cls == IdiomClass::Stencil ? 0.35 : 0.45;
      case Api::ClBLAS:
        return 0.38;
      case Api::CLBlast:
        return 0.29;
      case Api::ClSPARSE:
        return 0.74;
      case Api::CuSPARSE:
        return 0.39;
      case Api::CuBLAS:
        return 0.45;
      case Api::Lift:
        switch (cls) {
          case IdiomClass::MatrixOp:
            return p == Platform::CPU    ? 0.027
                   : p == Platform::IGPU ? 0.36
                                         : 0.20;
          case IdiomClass::Stencil:
            return p == Platform::CPU    ? 0.30
                   : p == Platform::IGPU ? 0.90
                                         : 0.50;
          case IdiomClass::HistogramReduction:
            return p == Platform::CPU    ? 0.12
                   : p == Platform::IGPU ? 0.48
                                         : 0.30;
          default:
            return 0.50;
        }
    }
    return 0.3;
}

double
sequentialTimeMs(const WorkProfile &work)
{
    // One core, modest ILP, no SIMD; the idiom region accounts for
    // offloadFraction of the whole program.
    double gflops = 2.4;
    double bw = 8.0;
    double compute_s = work.flops / (gflops * 1e9);
    double memory_s = work.bytes / (bw * 1e9);
    double idiom_ms =
        std::max(compute_s, memory_s) * 1e3 * work.invocations;
    return idiom_ms / std::max(work.offloadFraction, 1e-6);
}

namespace {

/** Full modeled time on platform @p p via an API with efficiency
 *  @p base_eff. */
double
timeOn(const WorkProfile &work, Platform p, double base_eff,
       bool lazy_copy)
{
    const DeviceParams &dev = deviceParams(p);
    double eff =
        std::min(0.99, std::max(1e-4, base_eff * work.parallel));
    double compute_s = work.flops / (dev.gflops * 1e9 * eff);
    double memory_s = work.bytes / (dev.bandwidthGBs * 1e9 * eff);
    double kernel_ms = std::max(compute_s, memory_s) * 1e3;
    double launch_ms = dev.launchUs * 1e-3;
    double per_inv = kernel_ms + launch_ms;

    double transfer_ms = 0.0;
    if (dev.pcieGBs > 0.0) {
        transfer_ms =
            work.transferBytes / (dev.pcieGBs * 1e9) * 1e3 +
            dev.pcieLatencyUs * 1e-3;
    } else if (p == Platform::IGPU) {
        // Shared-memory iGPU: buffer mapping costs a fraction of a
        // copy.
        transfer_ms =
            work.transferBytes / (dev.bandwidthGBs * 1e9) * 1e3 * 0.2;
    }

    double serial_ms =
        sequentialTimeMs(work) * (1.0 - work.offloadFraction);

    double accel_ms;
    if (lazy_copy && work.lazyCopyApplicable) {
        // Data stays resident across invocations: one round trip.
        accel_ms = per_inv * work.invocations + transfer_ms;
    } else {
        accel_ms = (per_inv + transfer_ms) * work.invocations;
    }
    return serial_ms + accel_ms;
}

} // namespace

bool
apiAvailableOn(Platform p, Api api, IdiomClass cls)
{
    if (!apiSupports(api, cls))
        return false;
    bool runs_here = apiPlatform(api) == p || api == Api::Lift ||
                     api == Api::LibSPMV;
    if (!runs_here)
        return false;
    if (api == Api::Halide && p != Platform::CPU)
        return false; // Halide GPU codegen failed (section 8.3)
    return true;
}

std::optional<double>
apiTimeOn(Platform p, Api api, const WorkProfile &work, bool lazy_copy)
{
    if (!apiAvailableOn(p, api, work.cls))
        return std::nullopt;
    if (!work.allowedApis.empty() && !work.allowedApis.count(api))
        return std::nullopt;
    return timeOn(work, p, apiEfficiency(api, work.cls, p),
                  lazy_copy);
}

std::optional<BestChoice>
bestApiOn(Platform p, const WorkProfile &work, bool lazy_copy)
{
    std::optional<BestChoice> best;
    for (Api api : allApis()) {
        auto t = apiTimeOn(p, api, work, lazy_copy);
        if (t && (!best || *t < best->timeMs))
            best = BestChoice{api, *t};
    }
    return best;
}

double
referenceOpenMpMs(const WorkProfile &work, double algorithmic_speedup)
{
    // Handwritten OpenMP: four cores, decent vectorization, whole
    // program parallelized when the reference changes the algorithm.
    double t = timeOn(work, Platform::CPU, 0.55, true);
    return t / std::max(algorithmic_speedup, 1e-9);
}

double
referenceOpenClMs(const WorkProfile &work, double algorithmic_speedup)
{
    double t = timeOn(work, Platform::DGPU, 0.55, true);
    return t / std::max(algorithmic_speedup, 1e-9);
}

} // namespace repro::runtime
