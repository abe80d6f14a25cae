/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 */
#ifndef BENCH_BENCH_COMMON_H
#define BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idioms/library.h"

namespace repro::bench {

/** Milliseconds on the monotonic clock (shared timing methodology of
 *  every bench binary). */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Compile one benchmark and detect its idioms (batched driver). */
inline std::vector<idioms::IdiomMatch>
detectBenchmark(const benchmarks::BenchmarkProgram &b,
                ir::Module &module)
{
    driver::MatchingDriver drv;
    return drv.compileAndMatch(b.source, module).allMatches();
}

} // namespace repro::bench

#endif // BENCH_BENCH_COMMON_H
