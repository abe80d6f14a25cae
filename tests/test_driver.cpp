/**
 * @file
 * Tests of the batched MatchingDriver: end-to-end pipeline over the
 * quickstart / GEMM / SPMV sources, aggregate statistics, the
 * guarantee that batched matching produces matches identical to
 * stand-alone per-function solving, and that one driver may be reused
 * across modules, their mutations and their lifetimes.
 */
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idl/lower.h"
#include "ir/verifier.h"
#include "transform/transform.h"

using namespace repro;

namespace {

/** The running example of section 2.2 (quickstart.cpp). */
const char *kQuickstartSource = R"(
    int example(int a, int b, int c) {
        int d = a;
        return (a*b) + (c*d);
    }
)";

std::vector<std::string>
matchKeys(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<std::string> keys;
    for (const auto &m : matches)
        keys.push_back(idioms::matchFingerprint(m));
    return keys;
}

/** A module with @p n functions, each holding a vector-sum reduction. */
std::string
manyFunctionSource(int n)
{
    std::ostringstream src;
    for (int i = 0; i < n; ++i) {
        src << "double sum" << i << "(double *a, int n) {\n"
            << "  double acc = 0.0;\n"
            << "  for (int k = 0; k < n; k = k + 1)\n"
            << "    acc = acc + a[k];\n"
            << "  return acc;\n"
            << "}\n";
    }
    return src.str();
}

} // namespace

TEST(Driver, QuickstartFactorization)
{
    idioms::IdiomDetector detector;
    ir::Module module;
    frontend::compileMiniCOrDie(kQuickstartSource, module);
    ir::Function *func = module.functionByName("example");

    auto matches = detector.detectOne(func, "FactorizationOpportunity");
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].solution.lookup("factor")->handle(), "%a");
    EXPECT_GT(detector.stats().assignments, 0u);
    EXPECT_GT(detector.stats().checks, 0u);
}

TEST(Driver, BatchStatsPopulated)
{
    const auto &gemm = benchmarks::benchmarkByName("sgemm");
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.compileAndMatch(gemm.source, module);

    ASSERT_FALSE(report.functions.empty());
    EXPECT_GT(report.matchCount(), 0u);
    EXPECT_GT(report.totals.assignments, 0u);
    EXPECT_GT(report.totals.checks, 0u);
    EXPECT_GT(report.totals.solutions, 0u);

    // Per-function stats sum to the report totals.
    solver::SolveStats sum;
    for (const auto &fr : report.functions)
        sum += fr.stats;
    EXPECT_EQ(sum.assignments, report.totals.assignments);
    EXPECT_EQ(sum.checks, report.totals.checks);
    EXPECT_EQ(sum.solutions, report.totals.solutions);

    // The driver's lifetime totals cover the batch.
    EXPECT_GE(drv.totals().assignments, report.totals.assignments);
}

TEST(Driver, CachedAnalysesMatchPerFunctionSolving)
{
    // GEMM (sgemm), SPMV (CG) and the stencil benchmark: the batched
    // driver, which shares one analysis bundle across all idioms of a
    // function, must produce byte-identical match sets to fresh
    // per-function detection.
    for (const char *name : {"sgemm", "CG", "stencil"}) {
        const auto &b = benchmarks::benchmarkByName(name);
        driver::MatchingDriver drv;
        ir::Module module;
        auto report = drv.compileAndMatch(b.source, module);

        std::vector<idioms::IdiomMatch> standalone;
        for (const auto &f : module.functions()) {
            if (f->isDeclaration())
                continue;
            analysis::FunctionAnalyses fa(f.get());
            idioms::IdiomDetector detector;
            auto matches = detector.detect(f.get(), fa);
            standalone.insert(standalone.end(), matches.begin(),
                              matches.end());
        }

        EXPECT_EQ(matchKeys(report.allMatches()),
                  matchKeys(standalone))
            << "driver/per-function mismatch on " << name;
    }
}

TEST(Driver, SolveProgramUsesCachedAnalyses)
{
    driver::MatchingDriver drv;
    ir::Module module;
    frontend::compileMiniCOrDie(kQuickstartSource, module);
    ir::Function *func = module.functionByName("example");

    auto lowered = idl::lowerIdiom(idioms::idiomLibrary(),
                                   "FactorizationOpportunity");
    auto outcome = drv.solveProgram(func, lowered);
    EXPECT_EQ(outcome.solutions.size(), 1u);
    EXPECT_GT(outcome.stats.assignments, 0u);
    EXPECT_EQ(drv.totals().assignments, outcome.stats.assignments);
}

TEST(Driver, TransformStageRewritesModule)
{
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module);

    EXPECT_FALSE(report.replacements.empty());
    // The rewritten module is still valid IR.
    EXPECT_TRUE(ir::verifyModule(module).empty());
}

TEST(Driver, CacheIsScopedPerModule)
{
    // One driver reused across module lifetimes must match a new
    // module exactly like the destroyed one it replaces.
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::MatchingDriver drv;
    std::vector<std::string> first;
    {
        ir::Module moduleA;
        first = matchKeys(
            drv.compileAndMatch(b.source, moduleA).allMatches());
    }
    ir::Module moduleB;
    auto second =
        matchKeys(drv.compileAndMatch(b.source, moduleB).allMatches());
    EXPECT_EQ(first, second);
}

TEST(Driver, AnalysesRebuiltAfterInPlaceMutation)
{
    // A driver holds no analyses between calls: after the transform
    // stage replaces sgemm's GEMM nest with an API call, the same
    // driver matching the same module again must see the rewritten
    // function, not its earlier shape.
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module);
    auto countGemm = [](const driver::MatchReport &r) {
        size_t n = 0;
        for (const auto &m : r.allMatches())
            n += m.idiom == "GEMM";
        return n;
    };
    ASSERT_EQ(countGemm(report), 1u);

    transform::Transformer transformer(module);
    ASSERT_FALSE(transformer.applyAll(report.allMatches()).empty());
    ASSERT_TRUE(ir::verifyModule(module).empty());

    EXPECT_EQ(countGemm(drv.matchModule(module)), 0u);
}

TEST(Driver, ReusedAcrossModuleLifetimes)
{
    // A driver holds no IR, so one instance may match module after
    // module while they are created and destroyed. Later modules
    // recycle the addresses of destroyed functions; anything keyed by
    // function pointer across calls would serve a dead function's
    // analyses to its successor.
    driver::MatchingDriver reused;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        for (int round = 0; round < 10; ++round) {
            auto module = std::make_unique<ir::Module>();
            frontend::compileMiniCOrDie(b.source, *module);
            driver::MatchingDriver fresh;
            EXPECT_EQ(matchKeys(reused.matchModule(*module).allMatches()),
                      matchKeys(fresh.matchModule(*module).allMatches()))
                << b.name << " round " << round;
        }
    }
}

TEST(Driver, SolverLimitsAreHonored)
{
    const auto &b = benchmarks::benchmarkByName("CG");
    driver::DriverOptions opts;
    opts.limits.maxAssignments = 1;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module);
    // With an absurdly small budget nothing can be matched.
    EXPECT_EQ(report.matchCount(), 0u);
}

TEST(Driver, ManyFunctionModule)
{
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.compileAndMatch(manyFunctionSource(16), module);
    EXPECT_EQ(report.matchCount(), 16u);
    ASSERT_EQ(report.functions.size(), 16u);
    for (size_t i = 0; i < report.functions.size(); ++i) {
        EXPECT_EQ(report.functions[i].function->name(),
                  "sum" + std::to_string(i));
    }
    // The driver's lifetime totals see exactly this one run.
    EXPECT_EQ(drv.totals().assignments, report.totals.assignments);
    EXPECT_EQ(drv.totals().checks, report.totals.checks);
    EXPECT_EQ(drv.totals().solutions, report.totals.solutions);
}

TEST(Driver, EmptyModule)
{
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.matchModule(module);
    EXPECT_EQ(report.matchCount(), 0u);
    EXPECT_TRUE(report.functions.empty());
    EXPECT_EQ(report.totals.assignments, 0u);
}
