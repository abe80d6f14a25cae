/**
 * @file
 * The evaluation corpus: MiniC reconstructions of the 21 sequential
 * C/C++ programs of the paper (NAS NPB via SNU: BT CG DC EP FT IS LU
 * MG SP UA; Parboil: bfs cutcp histo lbm mri-g mri-q sad sgemm spmv
 * stencil tpacf).
 *
 * Each kernel preserves the loop and memory-access structure that
 * drives idiom detection in the original benchmark (CSR gather in CG,
 * bucket counting in IS/histo, flattened 3D Jacobi in stencil/MG/lbm,
 * strided GEMM in sgemm, ...). The dominant non-idiomatic work of the
 * low-coverage benchmarks is represented by memory-carried
 * recurrences, which no idiom (and no baseline) may claim.
 */
#ifndef BENCHMARKS_SUITE_H
#define BENCHMARKS_SUITE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "idioms/library.h"
#include "interp/interpreter.h"
#include "runtime/device_model.h"

namespace repro::benchmarks {

/** A prepared program instance: entry arguments plus output ranges. */
struct Instance
{
    std::vector<interp::RuntimeValue> args;
    /** (address, element count) of double arrays to verify. */
    std::vector<std::pair<uint64_t, size_t>> watchDoubles;
    /** (address, element count) of i32 arrays to verify. */
    std::vector<std::pair<uint64_t, size_t>> watchInts;
};

using SetupFn = std::function<Instance(interp::Memory &)>;

/** Expected idiom counts (the Table 1 / Figure 16 ground truth). */
using ExpectedIdioms = idioms::ClassCounts;

/** One benchmark program. */
struct BenchmarkProgram
{
    std::string name;
    std::string suite; ///< "NAS" or "Parboil"
    std::string source;
    std::string entry;
    SetupFn setup;
    ExpectedIdioms expected;
    /** Paper-scale workload descriptor for the device model. */
    runtime::WorkProfile profile;
    /** Reference implementations' algorithmic advantage (Fig. 19). */
    double refAlgoFactor = 1.0;
    /** Among the 10 benchmarks with significant idiom coverage. */
    bool exploited = false;
};

/** All 21 programs, NAS first. */
const std::vector<BenchmarkProgram> &nasParboilSuite();

/** Lookup by name; throws FatalError when absent. */
const BenchmarkProgram &benchmarkByName(const std::string &name);

} // namespace repro::benchmarks

#endif // BENCHMARKS_SUITE_H
