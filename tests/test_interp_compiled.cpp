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
 *
 * The step-limit sweep extends the contract to runs cut short: the
 * bytecode engine charges a straight-line segment's steps at once, so
 * at every limit both engines must still throw the same error after
 * the same number of steps and leave the same heap and Profile.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <gtest/gtest.h>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "transform/binder.h"

#include "fuzz_programs.h"

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

TEST(CompiledInterp, NativeReentryCountsFrames)
{
    // The native g re-enters f, which calls g again. Unless the
    // frames below a running native count, this recursion has no
    // bound in either engine.
    const char *src = R"(
        double g(double x);
        double f(double x) { return g(x) + 1.0; }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    ir::Function *f = module.functionByName("f");
    uint64_t steps[2] = {0, 0};
    for (bool reference : {false, true}) {
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        it.registerNative("g", [f](const std::vector<RuntimeValue> &args,
                                   interp::Interpreter &in) {
            return in.call(f, args);
        });
        std::string error;
        try {
            if (reference)
                it.runReference(f, {F(1.0)});
            else
                it.run(f, {F(1.0)});
        } catch (const FatalError &e) {
            error = e.what();
        }
        EXPECT_EQ(error, "interpreter: call depth exceeded") << reference;
        steps[reference] = it.stepsExecuted();
    }
    EXPECT_EQ(steps[0], steps[1]);
    EXPECT_GT(steps[0], 0u);
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

// ------------------------------------------- step-limit parity sweep

/** Everything one engine run leaves behind, whether it threw or not. */
struct Outcome
{
    /** FatalError message; empty when the run returned. */
    std::string error;
    RuntimeValue ret;
    uint64_t steps = 0;
    std::unique_ptr<interp::Memory> heap;
    interp::Profile profile;
};

/** Seeds a fresh heap and returns the entry's arguments. */
using SeedFn = std::function<std::vector<RuntimeValue>(interp::Memory &)>;

/** One program ready to run: its module, entry and bound natives. */
struct Runnable
{
    ir::Module *module = nullptr;
    ir::Function *entry = nullptr;
    std::vector<transform::Replacement> replacements;
    SeedFn setup;
};

Outcome
runOnce(const Runnable &prog, bool reference, bool profile,
        uint64_t limit)
{
    Outcome out;
    out.heap = std::make_unique<interp::Memory>();
    interp::Interpreter it(*prog.module, *out.heap);
    // sweepStepLimits verifies the module once; it never changes, so
    // the pre-bytecode check of every run would repeat that work.
    it.setVerifyMode(ir::VerifyMode::Off);
    interp::registerMathBuiltins(it);
    transform::bindReplacements(it, prog.replacements);
    it.enableProfile(profile);
    it.setStepLimit(limit);
    std::vector<RuntimeValue> args = prog.setup(*out.heap);
    try {
        out.ret = reference ? it.runReference(prog.entry, args)
                            : it.run(prog.entry, args);
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    out.steps = it.stepsExecuted();
    out.profile = it.profile();
    return out;
}

bool
sameHeap(const interp::Memory &a, const interp::Memory &b)
{
    if (a.size() != b.size())
        return false;
    const uint64_t base = interp::Memory::kBase;
    interp::Memory::RawSpan sa(a, base, a.size() - base);
    interp::Memory::RawSpan sb(b, base, b.size() - base);
    return std::memcmp(sa.data(), sb.data(), sa.size()) == 0;
}

/**
 * First difference between two outcomes, profiles included when
 * @p profiled; empty when identical.
 */
std::string
outcomeDiff(const Outcome &ref, const Outcome &fast, bool profiled)
{
    if (ref.error != fast.error)
        return "error '" + ref.error + "' vs '" + fast.error + "'";
    if (ref.steps != fast.steps) {
        return "steps " + std::to_string(ref.steps) + " vs " +
               std::to_string(fast.steps);
    }
    if (!RuntimeValue::bitsEqual(ref.ret, fast.ret))
        return "return values differ";
    if (!sameHeap(*ref.heap, *fast.heap))
        return "heaps differ";
    if (!profiled)
        return "";
    if (ref.profile.totalSteps != fast.profile.totalSteps)
        return "profile totals differ";
    if (ref.profile.counts != fast.profile.counts)
        return "per-instruction profiles differ";
    return "";
}

/**
 * Limits 0-199, 38 more spread geometrically up to @p total, and the
 * last two: @p total - 1 trips at the final instruction, @p total
 * completes.
 */
std::vector<uint64_t>
sweepLimits(uint64_t total)
{
    std::vector<uint64_t> limits;
    for (uint64_t l = 0; l < 200; ++l)
        limits.push_back(l);
    for (int k = 1; k <= 38; ++k) {
        double l = 200.0 * std::pow(std::max(1.0, total / 200.0),
                                    k / 39.0);
        limits.push_back(static_cast<uint64_t>(l));
    }
    limits.push_back(total > 0 ? total - 1 : 0);
    limits.push_back(total);
    std::sort(limits.begin(), limits.end());
    limits.erase(std::unique(limits.begin(), limits.end()),
                 limits.end());
    return limits;
}

/**
 * Run @p prog under both engines at every sweep limit, profiling on
 * and off, and require identical outcomes. The tree-walker runs once
 * per limit, profiled: profiling only counts, so its unprofiled run
 * would differ in the Profile alone, which an unprofiled comparison
 * skips. Returns the limits times profiling modes swept.
 */
size_t
sweepStepLimits(const Runnable &prog, const std::string &label)
{
    std::vector<std::string> problems = ir::verifyModule(*prog.module);
    EXPECT_TRUE(problems.empty()) << label << ": " << problems.front();
    const uint64_t total =
        runOnce(prog, true, false, ~uint64_t(0)).steps;
    size_t runs = 0;
    int mismatches = 0;
    for (uint64_t limit : sweepLimits(total)) {
        Outcome ref = runOnce(prog, true, true, limit);
        for (bool profile : {false, true}) {
            Outcome fast = runOnce(prog, false, profile, limit);
            ++runs;
            std::string diff = outcomeDiff(ref, fast, profile);
            if (!diff.empty() && ++mismatches <= 3) {
                ADD_FAILURE() << label << " limit " << limit
                              << (profile ? " profiled: " : ": ")
                              << diff;
            }
        }
    }
    EXPECT_EQ(mismatches, 0) << label;
    return runs;
}

TEST(CompiledInterpStepLimit, SuiteOriginalAndTransformed)
{
    size_t runs = 0;
    for (const auto &program : benchmarks::nasParboilSuite()) {
        SeedFn setup = [&program](interp::Memory &mem) {
            return program.setup(mem).args;
        };
        ir::Module original;
        frontend::compileMiniCOrDie(program.source, original);
        runs += sweepStepLimits(
            {&original, original.functionByName(program.entry), {},
             setup},
            program.name);

        ir::Module transformed;
        driver::DriverOptions opts;
        opts.applyTransforms = true;
        driver::MatchingDriver drv(opts);
        driver::MatchReport report =
            drv.compileAndMatch(program.source, transformed);
        runs += sweepStepLimits(
            {&transformed, transformed.functionByName(program.entry),
             report.replacements, setup},
            program.name + " transformed");
    }
    EXPECT_GT(runs, 42u * 200u);
}

TEST(CompiledInterpStepLimit, FuzzPrograms)
{
    for (uint64_t seed = 1; seed <= fuzz::kSeeds; ++seed) {
        ir::Module module;
        frontend::compileMiniCOrDie(fuzz::program(seed), module);
        sweepStepLimits({&module, module.functionByName("fuzz"), {},
                         fuzz::seedMemory},
                        "fuzz seed " + std::to_string(seed));
    }
}

TEST(CompiledInterpStepLimit, MemoryTrapAfterCall)
{
    // The load traps a few instructions after the call returns, with
    // more instructions after it in the same straight-line run.
    const char *src = R"(
        double half(double x) { return x * 0.5; }
        double f(double *a, int i) {
            double y = half(3.0);
            double z = y + 1.0;
            double w = z * y;
            return a[i] * w + z;
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    SeedFn setup = [](interp::Memory &mem) {
        uint64_t a = mem.allocate(8 * 8);
        return std::vector<RuntimeValue>{
            I(static_cast<int64_t>(a)), I(1 << 20)};
    };
    Runnable prog{&module, module.functionByName("f"), {}, setup};
    Outcome full = runOnce(prog, false, false, ~uint64_t(0));
    EXPECT_EQ(full.error, "interpreter memory access out of range");
    EXPECT_GT(full.steps, 5u);
    sweepStepLimits(prog, "memory trap");
}

} // namespace
