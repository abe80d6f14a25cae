/**
 * @file
 * Differential sweep over every legal (idiom class × backend)
 * lowering (docs/BACKENDS.md).
 *
 * For each idiom class and each legal (API, platform) target, force
 * the transform stage onto that target and run the full 21-program
 * differential verification harness: compile, match, rewrite, bind
 * the target's runtime handler, execute under both engines, and
 * require byte-identical watched heaps and return values against the
 * untransformed original. This is the proof obligation behind letting
 * the cost model choose freely — every alternative it can pick is
 * semantics-preserving, not just the historical host lowering.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "runtime/cost.h"

using namespace repro;

namespace {

/** Plan-kind strings the transform stage files under each class. */
std::vector<std::string>
kindsOf(idioms::IdiomClass cls)
{
    switch (cls) {
      case idioms::IdiomClass::SparseMatrixOp:
        return {"spmv"};
      case idioms::IdiomClass::MatrixOp:
        return {"gemm"};
      case idioms::IdiomClass::ScalarReduction:
        return {"reduce"};
      case idioms::IdiomClass::HistogramReduction:
        return {"histogram"};
      case idioms::IdiomClass::Stencil:
        return {"stencil1d", "stencil2d", "stencil3d"};
      case idioms::IdiomClass::Other:
        break;
    }
    return {};
}

/** Sweep every legal target of @p cls through the whole suite. */
void
sweepClass(idioms::IdiomClass cls)
{
    auto targets = runtime::legalTargets(cls);
    ASSERT_FALSE(targets.empty());
    for (const auto &target : targets) {
        driver::DriverOptions opts;
        for (const auto &kind : kindsOf(cls))
            opts.forcedBackends[kind] = target;
        driver::MatchingDriver drv(opts);
        for (const auto &v : drv.verifyTransforms(0)) {
            EXPECT_TRUE(v.ok())
                << v.name << " under "
                << runtime::backendToken(target) << ": " << v.error;
        }
    }
}

} // namespace

TEST(BackendSweep, SparseMatrixOpAllTargets)
{
    sweepClass(idioms::IdiomClass::SparseMatrixOp);
}

TEST(BackendSweep, MatrixOpAllTargets)
{
    sweepClass(idioms::IdiomClass::MatrixOp);
}

TEST(BackendSweep, ScalarReductionAllTargets)
{
    sweepClass(idioms::IdiomClass::ScalarReduction);
}

TEST(BackendSweep, HistogramReductionAllTargets)
{
    sweepClass(idioms::IdiomClass::HistogramReduction);
}

TEST(BackendSweep, StencilAllTargets)
{
    sweepClass(idioms::IdiomClass::Stencil);
}
