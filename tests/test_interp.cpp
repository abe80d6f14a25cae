#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

RuntimeValue I(int64_t v) { return RuntimeValue::makeInt(v); }
RuntimeValue F(double v) { return RuntimeValue::makeFP(v); }

double
runDouble(const char *src, const char *fn,
          const std::vector<RuntimeValue> &args)
{
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    interp::Memory mem;
    interp::Interpreter it(module, mem);
    interp::registerMathBuiltins(it);
    return it.run(module.functionByName(fn), args).f;
}

int64_t
runInt(const char *src, const char *fn,
       const std::vector<RuntimeValue> &args)
{
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    interp::Memory mem;
    interp::Interpreter it(module, mem);
    interp::registerMathBuiltins(it);
    return it.run(module.functionByName(fn), args).i;
}

} // namespace

// Property-style sweep: integer operator semantics match C.
struct IntOpCase
{
    const char *name;
    const char *expr;
    int64_t (*expected)(int64_t, int64_t);
};

// Print a case by its name. CTest names each case by this printout; the
// default printout is the raw bytes of the pointers, which change from
// run to run.
void
PrintTo(const IntOpCase &c, std::ostream *os)
{
    *os << c.name;
}

class IntOps : public ::testing::TestWithParam<IntOpCase>
{};

TEST_P(IntOps, MatchesHostSemantics)
{
    const IntOpCase &c = GetParam();
    std::string src = std::string("long f(long a, long b) { return ") +
                      c.expr + "; }";
    for (int64_t a : {-7, -1, 0, 3, 100}) {
        for (int64_t b : {1, 2, 5, 13}) {
            EXPECT_EQ(runInt(src.c_str(), "f", {I(a), I(b)}),
                      c.expected(a, b))
                << c.expr << " a=" << a << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, IntOps,
    ::testing::Values(
        IntOpCase{"add", "a + b", [](int64_t a, int64_t b) { return a + b; }},
        IntOpCase{"sub", "a - b", [](int64_t a, int64_t b) { return a - b; }},
        IntOpCase{"mul", "a * b", [](int64_t a, int64_t b) { return a * b; }},
        IntOpCase{"div", "a / b", [](int64_t a, int64_t b) { return a / b; }},
        IntOpCase{"rem", "a % b", [](int64_t a, int64_t b) { return a % b; }},
        IntOpCase{"and", "a & b", [](int64_t a, int64_t b) { return a & b; }},
        IntOpCase{"or", "a | b", [](int64_t a, int64_t b) { return a | b; }},
        IntOpCase{"xor", "a ^ b", [](int64_t a, int64_t b) { return a ^ b; }},
        IntOpCase{"lt", "a < b",
                  [](int64_t a, int64_t b) -> int64_t { return a < b; }},
        IntOpCase{"ge", "a >= b", [](int64_t a, int64_t b) -> int64_t {
                      return a >= b;
                  }},
        IntOpCase{"select", "a == b ? a : b", [](int64_t a, int64_t b) {
                      return a == b ? a : b;
                  }}));

TEST(Interp, ShortCircuitLogic)
{
    const char *src = R"(
        int f(int a, int b) { return a > 0 && b > 0; }
        int g(int a, int b) { return a > 0 || b > 0; }
    )";
    EXPECT_EQ(runInt(src, "f", {I(1), I(1)}), 1);
    EXPECT_EQ(runInt(src, "f", {I(1), I(0)}), 0);
    EXPECT_EQ(runInt(src, "f", {I(0), I(1)}), 0);
    EXPECT_EQ(runInt(src, "g", {I(0), I(0)}), 0);
    EXPECT_EQ(runInt(src, "g", {I(0), I(2)}), 1);
}

TEST(Interp, MathBuiltins)
{
    const char *src = R"(
        double f(double x) { return sqrt(x) + fabs(0.0 - x) + pow(x, 2.0); }
    )";
    EXPECT_DOUBLE_EQ(runDouble(src, "f", {F(4.0)}),
                     std::sqrt(4.0) + 4.0 + 16.0);
}

TEST(Interp, RecursionAndCalls)
{
    const char *src = R"(
        long fact(long n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
    )";
    EXPECT_EQ(runInt(src, "fact", {I(10)}), 3628800);
}

TEST(Interp, LocalArraysAndWhileLoops)
{
    const char *src = R"(
        int f(int n) {
            int fib[32];
            fib[0] = 0; fib[1] = 1;
            int i = 2;
            while (i <= n) {
                fib[i] = fib[i-1] + fib[i-2];
                i++;
            }
            return fib[n];
        }
    )";
    EXPECT_EQ(runInt(src, "f", {I(11)}), 89);
}

TEST(Interp, GlobalMultiDimArrays)
{
    const char *src = R"(
        double grid[4][5];
        double f(int i, int j) {
            grid[i][j] = 2.5;
            grid[i][j] += 1.5;
            return grid[i][j];
        }
    )";
    EXPECT_DOUBLE_EQ(runDouble(src, "f", {I(2), I(3)}), 4.0);
}

TEST(Interp, StepLimitTrips)
{
    const char *src = "void f() { while (1 > 0) { } }";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    interp::Memory mem;
    interp::Interpreter it(module, mem);
    it.setStepLimit(1000);
    EXPECT_THROW(it.run(module.functionByName("f"), {}), FatalError);
}

TEST(Interp, MemoryRangeChecked)
{
    interp::Memory mem;
    uint64_t a = mem.allocate(8);
    mem.store<double>(a, 1.0);
    EXPECT_DOUBLE_EQ(mem.load<double>(a), 1.0);
    EXPECT_THROW(mem.load<double>(mem.size() + 64), FatalError);
    EXPECT_THROW(mem.load<double>(0), FatalError); // null guard
}

TEST(Interp, MemoryRangeCheckRejectsAddressOverflow)
{
    // Regression: checkRange computed `addr + size`, which wraps for
    // near-2^64 addresses and silently passed the bounds check (the
    // memcpy then read/wrote wild host memory).
    interp::Memory mem;
    mem.allocate(64);
    EXPECT_THROW(mem.load<double>(UINT64_MAX - 4), FatalError);
    EXPECT_THROW(mem.store<double>(UINT64_MAX - 4, 1.0), FatalError);
    EXPECT_THROW(mem.load<int32_t>(UINT64_MAX - 2), FatalError);
    EXPECT_THROW(mem.store<int64_t>(UINT64_MAX - 7, 1), FatalError);
    EXPECT_THROW(mem.load<uint8_t>(UINT64_MAX), FatalError);
    // The boundary itself still works.
    uint64_t last = mem.size() - 8;
    mem.store<int64_t>(last, 42);
    EXPECT_EQ(mem.load<int64_t>(last), 42);
}

TEST(Interp, MemoryAllocateRejectsOverflowingSizes)
{
    // Regression: `addr + size` overflowed inside allocate, resizing
    // the heap to a tiny wrapped value instead of failing.
    interp::Memory mem;
    EXPECT_THROW(mem.allocate(UINT64_MAX), FatalError);
    EXPECT_THROW(mem.allocate(UINT64_MAX - 2), FatalError);
    EXPECT_THROW(mem.allocate(UINT64_MAX / 2), FatalError);
    // The failed calls must not have corrupted the heap.
    uint64_t a = mem.allocate(16);
    mem.store<int64_t>(a, 7);
    EXPECT_EQ(mem.load<int64_t>(a), 7);
}

TEST(Interp, ZeroSizedAllocationsDoNotAlias)
{
    // Regression: allocate(0) returned the current end-of-heap
    // address without advancing it, so the next allocation aliased
    // the zero-sized one.
    interp::Memory mem;
    uint64_t a = mem.allocate(0);
    uint64_t b = mem.allocate(0);
    uint64_t c = mem.allocate(8);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    EXPECT_GE(b, a + 1);
    EXPECT_GE(c, b + 1);
}

TEST(Interp, RawSpanGuardsAgainstInvalidation)
{
    interp::Memory mem;
    uint64_t a = mem.allocate(8);
    mem.store<int64_t>(a, 11);
    {
        interp::Memory::RawSpan span(mem, a, 8);
        int64_t v;
        std::memcpy(&v, span.data(), sizeof(v));
        EXPECT_EQ(v, 11);
        // Growing the heap would invalidate the borrowed pointer;
        // the guard turns that bug into an InternalError.
        EXPECT_THROW(mem.allocate(8), InternalError);
    }
    // Once the span is gone, allocation works again.
    uint64_t b = mem.allocate(8);
    EXPECT_GT(b, a);
}

TEST(Interp, PhiGroupsChargeEveryMember)
{
    // Regression: the tree-walker evaluated a whole phi group
    // atomically but charged only the first phi to steps_/profile_,
    // skewing the per-loop counts Figures 16-19 report.
    const char *src = R"(
        int fib(int n) {
            int a = 0;
            int b = 1;
            for (int i = 0; i < n; i++) {
                int t = a + b;
                a = b;
                b = t;
            }
            return a;
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);

    for (bool reference : {true, false}) {
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        it.enableProfile(true);
        ir::Function *func = module.functionByName("fib");
        int64_t r = reference ? it.runReference(func, {I(10)}).i
                              : it.run(func, {I(10)}).i;
        EXPECT_EQ(r, 55);

        // Every phi of a group executes the same number of times, so
        // all phis of one block must carry identical nonzero counts.
        size_t phis = 0;
        for (const auto &bb : func->blocks()) {
            uint64_t groupCount = 0;
            for (const auto &inst : bb->insts()) {
                if (!inst->is(ir::Opcode::Phi))
                    break;
                auto found = it.profile().counts.find(inst.get());
                ASSERT_NE(found, it.profile().counts.end())
                    << "uncharged phi (engine "
                    << (reference ? "reference" : "bytecode") << ")";
                if (groupCount == 0)
                    groupCount = found->second;
                EXPECT_EQ(found->second, groupCount);
                EXPECT_GT(found->second, 0u);
                ++phis;
            }
        }
        // mem2reg must have produced a phi group (a, b, i at least).
        EXPECT_GE(phis, 3u);

        // totalSteps is consistent with the per-instruction counts.
        uint64_t sum = 0;
        for (const auto &[inst, count] : it.profile().counts) {
            (void)inst;
            sum += count;
        }
        EXPECT_EQ(sum, it.profile().totalSteps);
    }
}

TEST(Interp, ProfileCountsDynamicInstructions)
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
    interp::Memory mem;
    interp::Interpreter it(module, mem);
    it.enableProfile(true);
    it.run(module.functionByName("f"), {I(10)});
    uint64_t t1 = it.profile().totalSteps;
    it.clearProfile();
    it.run(module.functionByName("f"), {I(100)});
    uint64_t t2 = it.profile().totalSteps;
    EXPECT_GT(t2, t1 * 5); // roughly proportional to trip count
}

TEST(Interp, FloatRoundsToSinglePrecision)
{
    const char *src = R"(
        float f(float a, float b) { return a * b + 0.1f; }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    interp::Memory mem;
    interp::Interpreter it(module, mem);
    double r = it.run(module.functionByName("f"),
                      {F(1.375), F(2.9375)}).f;
    float expect = 1.375f * 2.9375f;
    expect += 0.1f;
    EXPECT_EQ(r, static_cast<double>(expect));
}
