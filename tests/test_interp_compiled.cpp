/**
 * @file
 * Golden cross-check of the bytecode execution engine
 * (interp/compiled.h) against the retained tree-walking reference
 * engine (Interpreter::runReference), plus the end-to-end
 * differential transform-verification harness
 * (MatchingDriver::verifyTransforms).
 *
 * The contract under test mirrors tests/test_solver_compiled.cpp on
 * the matching side: on every Table 1 suite program — transformed and
 * untransformed — the two engines must produce byte-identical final
 * heaps, return values and Profile counts (total, per instruction,
 * and per natural loop), and the transformed program must reproduce
 * the original program's watched outputs exactly. This is what makes
 * bytecode compilation a pure performance transformation and gives
 * every future PR end-to-end semantic coverage of
 * match -> transform -> bind -> execute.
 */
#include <cstring>
#include <gtest/gtest.h>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

RuntimeValue I(int64_t v) { return RuntimeValue::makeInt(v); }
RuntimeValue F(double v) { return RuntimeValue::makeFP(v); }

/**
 * Run @p fn of @p src under both engines on fresh heaps and require
 * identical return values, heap sizes and profiles. Returns the
 * bytecode engine's result.
 */
RuntimeValue
runBoth(const char *src, const char *fn,
        const std::vector<RuntimeValue> &args)
{
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    ir::Function *func = module.functionByName(fn);

    interp::Memory refMem;
    interp::Interpreter ref(module, refMem);
    interp::registerMathBuiltins(ref);
    ref.enableProfile(true);
    RuntimeValue refOut = ref.runReference(func, args);

    interp::Memory fastMem;
    interp::Interpreter fast(module, fastMem);
    interp::registerMathBuiltins(fast);
    fast.enableProfile(true);
    RuntimeValue fastOut = fast.run(func, args);

    EXPECT_TRUE(RuntimeValue::bitsEqual(refOut, fastOut)) << fn;
    EXPECT_EQ(refMem.size(), fastMem.size()) << fn;
    EXPECT_EQ(ref.profile().totalSteps, fast.profile().totalSteps)
        << fn;
    EXPECT_EQ(ref.profile().counts, fast.profile().counts) << fn;
    return fastOut;
}

// ------------------------------------------------------ engine parity

TEST(CompiledInterp, ScalarArithmeticMatchesReference)
{
    const char *src = R"(
        long mix(long a, long b) {
            long x = (a * b) + (a / (b + 1)) - (a % (b + 2));
            long y = (a & b) | (a ^ 3);
            return (x << 2) + (y >> 1);
        }
    )";
    for (int64_t a : {-9, 0, 5, 1000})
        for (int64_t b : {1, 7, 42})
            runBoth(src, "mix", {I(a), I(b)});
}

TEST(CompiledInterp, FloatRoundingMatchesReference)
{
    const char *src = R"(
        float f(float a, float b) { return a * b + 0.1f; }
        double g(double a, double b) { return a * b + 0.1; }
    )";
    RuntimeValue r = runBoth(src, "f", {F(1.375), F(2.9375)});
    float expect = 1.375f * 2.9375f;
    expect += 0.1f;
    EXPECT_EQ(r.f, static_cast<double>(expect));
    runBoth(src, "g", {F(1.375), F(2.9375)});
}

TEST(CompiledInterp, PhiGroupsMoveInParallel)
{
    // The loop-carried swap makes the phi group order-sensitive: a
    // sequential (non-atomic) move would clobber one input before the
    // other read it.
    const char *src = R"(
        int swap(int n) {
            int a = 1;
            int b = 2;
            int i = 0;
            while (i < n) {
                int t = a;
                a = b;
                b = t;
                i = i + 1;
            }
            return a * 100 + b;
        }
    )";
    EXPECT_EQ(runBoth(src, "swap", {I(0)}).i, 102);
    EXPECT_EQ(runBoth(src, "swap", {I(1)}).i, 201);
    EXPECT_EQ(runBoth(src, "swap", {I(8)}).i, 102);
    EXPECT_EQ(runBoth(src, "swap", {I(9)}).i, 201);
}

TEST(CompiledInterp, MemoryAndGlobalsMatchReference)
{
    const char *src = R"(
        double grid[4][5];
        double f(int i, int j, int n) {
            int hist[8];
            for (int k = 0; k < 8; k++)
                hist[k] = 0;
            for (int k = 0; k < n; k++)
                hist[k % 8] += 1;
            grid[i][j] = 1.5;
            grid[i][j] += hist[3];
            return grid[i][j];
        }
    )";
    EXPECT_DOUBLE_EQ(runBoth(src, "f", {I(2), I(3), I(30)}).f, 5.5);
}

TEST(CompiledInterp, RecursionAndBuiltinsMatchReference)
{
    const char *src = R"(
        double fact(double n) {
            if (n <= 1.0) return 1.0;
            return n * fact(n - 1.0) + sqrt(n);
        }
    )";
    runBoth(src, "fact", {F(12.0)});
}

TEST(CompiledInterp, StepLimitTripsInBothEngines)
{
    const char *src = "void f() { while (1 > 0) { } }";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    for (bool reference : {true, false}) {
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        it.setStepLimit(1000);
        ir::Function *func = module.functionByName("f");
        if (reference)
            EXPECT_THROW(it.runReference(func, {}), FatalError);
        else
            EXPECT_THROW(it.run(func, {}), FatalError);
    }
}

TEST(CompiledInterp, CompiledFunctionLayout)
{
    const char *src = R"(
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += i;
            return s;
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    ir::Function *func = module.functionByName("f");
    interp::CompiledFunction cf(*func);

    // Every instruction (phis included) has a profile index; the
    // bytecode only materializes the non-phi ones.
    EXPECT_EQ(cf.numProfiled(), func->instructionCount());
    size_t phis = 0;
    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(ir::Opcode::Phi))
                ++phis;
        }
    }
    EXPECT_GT(phis, 0u);
    EXPECT_EQ(cf.code().size(), func->instructionCount() - phis);
    // The argument occupies slot 0 by construction.
    EXPECT_GE(cf.numSlots(), 1u);
}

// ----------------------------------------- differential harness sweep

TEST(CompiledInterpDifferential, SuiteOriginalAndTransformed)
{
    driver::MatchingDriver drv;
    auto records = drv.verifyTransforms();
    ASSERT_EQ(records.size(), benchmarks::nasParboilSuite().size());

    size_t totalReplacements = 0;
    size_t totalLoops = 0;
    uint64_t originalSteps = 0;
    uint64_t transformedSteps = 0;
    for (const auto &r : records) {
        EXPECT_TRUE(r.ok()) << r.name << ": " << r.error;
        EXPECT_GT(r.originalSteps, 0u) << r.name;
        EXPECT_GT(r.transformedSteps, 0u) << r.name;
        totalReplacements += r.replacements;
        totalLoops += r.loopsCompared;
        originalSteps += r.originalSteps;
        transformedSteps += r.transformedSteps;
    }
    // The sweep must have exercised real rewrites and real loops, not
    // vacuous comparisons.
    EXPECT_GT(totalLoops, 0u);
    // Pinned suite totals (the same figures perfbench's suite-pipeline
    // prints on its `# deterministic` line): a change that moves the
    // rewrite count or the dynamic step counts must update these.
    EXPECT_EQ(totalReplacements, 58u);
    EXPECT_EQ(originalSteps, 5814982u);
    EXPECT_EQ(transformedSteps, 3993563u);
}

} // namespace
