#include <gtest/gtest.h>
#include "benchmarks/suite.h"
#include "benchmarks/coverage.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/builtins.h"
#include "ir/verifier.h"
#include "transform/binder.h"
#include "transform/transform.h"

using namespace repro;
using benchmarks::BenchmarkProgram;

class SuiteTest : public ::testing::TestWithParam<const char *>
{};

// Per-benchmark idiom counts: the Figure 16 ground truth.
TEST_P(SuiteTest, DetectsExpectedIdioms)
{
    const BenchmarkProgram &b = benchmarks::benchmarkByName(GetParam());
    ir::Module module;
    frontend::compileMiniCOrDie(b.source, module);
    auto matches = driver::MatchingDriver{}.matchModule(module).allMatches();
    idioms::ClassCounts c;
    for (const auto &m : matches)
        c.add(m.cls);
    EXPECT_EQ(c.scalarReductions, b.expected.scalarReductions)
        << "scalar reductions";
    EXPECT_EQ(c.histograms, b.expected.histograms) << "histograms";
    EXPECT_EQ(c.stencils, b.expected.stencils) << "stencils";
    EXPECT_EQ(c.matrixOps, b.expected.matrixOps) << "matrix ops";
    EXPECT_EQ(c.sparseOps, b.expected.sparseOps) << "sparse ops";
}

// Transformation must preserve program results bit-for-bit on every
// watched output array.
TEST_P(SuiteTest, TransformPreservesSemantics)
{
    const BenchmarkProgram &b = benchmarks::benchmarkByName(GetParam());

    auto run = [&](bool transformed,
                   std::vector<std::vector<double>> &dbls,
                   std::vector<std::vector<int32_t>> &ints) {
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        std::vector<transform::Replacement> reps;
        if (transformed) {
            auto matches =
                driver::MatchingDriver{}.matchModule(module).allMatches();
            transform::Transformer tr(module);
            reps = tr.applyAll(matches);
            auto problems = ir::verifyModule(module);
            ASSERT_TRUE(problems.empty()) << problems.front();
        }
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        interp::registerMathBuiltins(it);
        transform::bindReplacements(it, reps);
        auto inst = b.setup(mem);
        it.run(module.functionByName(b.entry), inst.args);
        for (auto &[addr, n] : inst.watchDoubles) {
            std::vector<double> v(n);
            for (size_t i = 0; i < n; ++i)
                v[i] = mem.load<double>(addr + 8 * i);
            dbls.push_back(std::move(v));
        }
        for (auto &[addr, n] : inst.watchInts) {
            std::vector<int32_t> v(n);
            for (size_t i = 0; i < n; ++i)
                v[i] = mem.load<int32_t>(addr + 4 * i);
            ints.push_back(std::move(v));
        }
    };

    std::vector<std::vector<double>> d_seq, d_acc;
    std::vector<std::vector<int32_t>> i_seq, i_acc;
    run(false, d_seq, i_seq);
    run(true, d_acc, i_acc);
    ASSERT_EQ(d_seq.size(), d_acc.size());
    for (size_t a = 0; a < d_seq.size(); ++a) {
        ASSERT_EQ(d_seq[a].size(), d_acc[a].size());
        for (size_t i = 0; i < d_seq[a].size(); ++i)
            ASSERT_DOUBLE_EQ(d_seq[a][i], d_acc[a][i])
                << "array " << a << " elem " << i;
    }
    ASSERT_EQ(i_seq, i_acc);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteTest,
    ::testing::Values("BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG",
                      "SP", "UA", "bfs", "cutcp", "histo", "lbm",
                      "mri-g", "mri-q", "sad", "sgemm", "spmv",
                      "stencil", "tpacf"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-') c = '_';
        return name;
    });

// Table 1 bottom line: 60 idioms across the whole corpus.
TEST(SuiteTotals, SixtyIdioms)
{
    idioms::ClassCounts total;
    solver::SolveStats effort;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        driver::MatchingDriver drv;
        for (const auto &m : drv.matchModule(module).allMatches())
            total.add(m.cls);
        effort += drv.totals();
    }
    EXPECT_EQ(total.scalarReductions, 45);
    EXPECT_EQ(total.histograms, 5);
    EXPECT_EQ(total.stencils, 6);
    EXPECT_EQ(total.matrixOps, 1);
    EXPECT_EQ(total.sparseOps, 3);
    // Pinned solver effort of the Table 1 workload: a change that
    // moves the search (ordering, pruning, idiom library) must update
    // these.
    EXPECT_EQ(effort.assignments, 39114u);
    EXPECT_EQ(effort.checks, 93441u);
    EXPECT_EQ(effort.solutions, 252u);
}
