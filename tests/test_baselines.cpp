#include <gtest/gtest.h>
#include "baselines/baselines.h"
#include "benchmarks/suite.h"
#include "frontend/compiler.h"

using namespace repro;

// Table 1 of the paper: Polly 3/-/5/-/- and ICC 28/-/-/-/-.
TEST(Baselines, Table1Counts)
{
    idioms::ClassCounts polly, icc;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        auto p = baselines::runPollyLike(module);
        auto i = baselines::runIccLike(module);
        polly.scalarReductions += p.scalarReductions;
        polly.stencils += p.stencils;
        polly.histograms += p.histograms;
        polly.matrixOps += p.matrixOps;
        polly.sparseOps += p.sparseOps;
        icc.scalarReductions += i.scalarReductions;
    }
    EXPECT_EQ(polly.scalarReductions, 3);
    EXPECT_EQ(polly.stencils, 5);
    EXPECT_EQ(polly.histograms, 0);
    EXPECT_EQ(polly.matrixOps, 0);
    EXPECT_EQ(polly.sparseOps, 0);
    EXPECT_EQ(icc.scalarReductions, 28);
}

// The indirect accesses of sparse code defeat the polyhedral model
// (section 8.1: "fundamentally contradicts assumptions").
TEST(Baselines, PollyRejectsIndirection)
{
    const auto &cg = benchmarks::benchmarkByName("CG");
    ir::Module module;
    frontend::compileMiniCOrDie(cg.source, module);
    auto p = baselines::runPollyLike(module);
    EXPECT_EQ(p.scalarReductions + p.stencils + p.sparseOps, 0);
}

TEST(Baselines, IccRejectsMemoryDependentBounds)
{
    const auto &spmv = benchmarks::benchmarkByName("spmv");
    ir::Module module;
    frontend::compileMiniCOrDie(spmv.source, module);
    auto i = baselines::runIccLike(module);
    EXPECT_EQ(i.scalarReductions, 0);
}
