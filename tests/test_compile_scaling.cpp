/**
 * @file
 * Growth checks for compile and verification time on long and deep
 * control flow. Each times one shape at n and at 4n and bounds the
 * ratio at 8: linear work gives about 4 (nearer 6 once the larger
 * IR outgrows the L2 cache), quadratic work 16. The two sizes run
 * alternately, five times each, and the fastest run of each counts,
 * so load on a busy host slows both alike instead of failing a
 * linear pass. Kept out of the quick tier: the runs take about a
 * second.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "frontend/codegen.h"
#include "frontend/compiler.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "ir/verifier.h"

using namespace repro;

namespace {

/** Fastest times, in milliseconds, of a shape at n and at 4n. */
struct Timings
{
    double small = 0;
    double large = 0;
};

/** Wall time of @p work in milliseconds. */
double
millis(const std::function<void()> &work)
{
    auto t0 = std::chrono::steady_clock::now();
    work();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Run @p small and @p large alternately five times each. */
Timings
bestTimes(const std::function<void()> &small,
          const std::function<void()> &large)
{
    Timings best{millis(small), millis(large)};
    for (int rep = 1; rep < 5; ++rep) {
        best.small = std::min(best.small, millis(small));
        best.large = std::min(best.large, millis(large));
    }
    return best;
}

/** @p n sequential one-armed `if`s, each its own join. */
std::string
sequentialIfs(int n)
{
    std::string s = "int f(int a) {\n";
    for (int i = 0; i < n; ++i)
        s += "  if (a > " + std::to_string(i) + ") a = a + 1;\n";
    return s + "  return a;\n}\n";
}

/** @p n `if`s nested in one another around one assignment. */
std::string
nestedIfs(int n)
{
    std::string s = "int f(int a) {\n";
    for (int i = 0; i < n; ++i)
        s += "if (a > 0) ";
    return s + "a = a + 1;\n  return a;\n}\n";
}

/** verifyModule on @p module, which must verify clean. */
void
verifyClean(ir::Module &module)
{
    EXPECT_TRUE(ir::verifyModule(module).empty());
}

/** compileMiniC of @p source, final verification included. */
void
compileClean(const std::string &source)
{
    ir::Module module;
    frontend::compileMiniCOrDie(source, module, ir::VerifyMode::Off);
}

/** @p source compiled up to where the compiler runs mem2reg. */
std::unique_ptr<ir::Module>
beforeMem2reg(const std::string &source)
{
    auto module = std::make_unique<ir::Module>();
    DiagEngine diags;
    auto unit = frontend::parseMiniC(source, diags);
    EXPECT_TRUE(unit && frontend::generateIR(*unit, *module, diags))
        << diags.dump();
    for (const auto &f : module->functions())
        frontend::removeUnreachableBlocks(f.get());
    return module;
}

} // namespace

TEST(CompileScaling, VerifierNearLinearInSequentialIfs)
{
    ir::Module small, large;
    frontend::compileMiniCOrDie(sequentialIfs(2000), small,
                                ir::VerifyMode::Off);
    frontend::compileMiniCOrDie(sequentialIfs(8000), large,
                                ir::VerifyMode::Off);
    Timings t = bestTimes([&] { verifyClean(small); },
                          [&] { verifyClean(large); });
    EXPECT_LT(t.large, 8 * t.small)
        << "n=2000: " << t.small << " ms, n=8000: " << t.large << " ms";
}

// 990 stays under frontend::kMaxNesting.
TEST(CompileScaling, CompileNearLinearInNestedIfs)
{
    const std::string small = nestedIfs(250), large = nestedIfs(990);
    Timings t = bestTimes([&] { compileClean(small); },
                          [&] { compileClean(large); });
    EXPECT_LT(t.large, 8 * t.small)
        << "n=250: " << t.small << " ms, n=990: " << t.large << " ms";
}

// Every `if` loads and stores `a`: the alloca's use count grows with n.
TEST(CompileScaling, Mem2regNearLinearInSequentialIfs)
{
    // mem2reg consumes its input: each timed run promotes a fresh
    // copy, built untimed just before it.
    const std::string small = sequentialIfs(2000),
                      large = sequentialIfs(8000);
    Timings t;
    for (int rep = 0; rep < 5; ++rep) {
        for (bool big : {false, true}) {
            auto module = beforeMem2reg(big ? large : small);
            double ms = millis([&] { frontend::promoteModule(*module); });
            double &best = big ? t.large : t.small;
            best = rep == 0 ? ms : std::min(best, ms);
        }
    }
    EXPECT_LT(t.large, 8 * t.small)
        << "n=2000: " << t.small << " ms, n=8000: " << t.large << " ms";
}
