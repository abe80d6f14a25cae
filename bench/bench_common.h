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

/** Idiom-class counts of one benchmark. */
struct ClassCounts
{
    int sr = 0, h = 0, st = 0, m = 0, sp = 0;

    void
    add(idioms::IdiomClass cls)
    {
        switch (cls) {
          case idioms::IdiomClass::ScalarReduction: ++sr; break;
          case idioms::IdiomClass::HistogramReduction: ++h; break;
          case idioms::IdiomClass::Stencil: ++st; break;
          case idioms::IdiomClass::MatrixOp: ++m; break;
          case idioms::IdiomClass::SparseMatrixOp: ++sp; break;
          default: break;
        }
    }

    int total() const { return sr + h + st + m + sp; }
};

/** Compile one benchmark and detect its idioms (batched driver). */
inline std::vector<idioms::IdiomMatch>
detectBenchmark(const benchmarks::BenchmarkProgram &b,
                ir::Module &module)
{
    driver::MatchingDriver drv;
    return drv.compileAndMatch(b.source, module).allMatches();
}

inline ClassCounts
countClasses(const std::vector<idioms::IdiomMatch> &matches)
{
    ClassCounts c;
    for (const auto &m : matches)
        c.add(m.cls);
    return c;
}

} // namespace repro::bench

#endif // BENCH_BENCH_COMMON_H
