/**
 * @file
 * Seeded differential fuzzing of the two execution engines.
 *
 * A deterministic generator emits small MiniC programs (loops,
 * guarded branches, array reads/writes, scalar accumulators) and
 * every program is executed by both engines — the tree-walking
 * reference and the bytecode engine — over identically seeded heaps.
 * Return values must be bit-equal, written arrays byte-identical and
 * the dynamic profiles the same map. Recompiling the same source must
 * reproduce every function's contentHash (the key of the matching
 * service's incremental cache), and the generator itself must be a
 * pure function of its seed.
 *
 * Seeds past kPlainSeeds use a second template that reaches the same
 * heap through array parameters (`double a[][8]`, `double b[48]`,
 * `int c[]`), a local two-dimensional array, casts, nested ternaries
 * and a ternary between two pointers.
 *
 * The generator is NaN-avoiding by construction: loop-carried
 * scalars only ever accumulate decayed updates of bounded
 * subexpressions (no `s*s` blowup to infinity, hence no `inf - inf`),
 * and every division has a denominator bounded away from zero. That
 * keeps bit-equality meaningful: any mismatch is an engine bug, not
 * floating-point folklore.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "ir/function.h"
#include "ir/printer.h"
#include "ir/verifier.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

/** splitmix64: the generator's only source of randomness. */
struct Rng
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t
    pick(uint64_t n)
    {
        return next() % n;
    }
};

constexpr int kScalars = 3;

/** A literal from a small NaN-safe pool (exact in binary). */
std::string
literal(Rng &rng)
{
    static const char *pool[] = {"0.25",  "1.5",  "-0.75", "2.0",
                                 "0.125", "-1.0", "3.5",   "0.5"};
    return pool[rng.pick(8)];
}

/** An index expression always inside [0, n). */
std::string
index(Rng &rng)
{
    switch (rng.pick(3)) {
      case 0: return "i";
      case 1: return "n - 1 - i";
      default: return "c[i]"; // setup seeds c with values in [0, 8)
    }
}

/**
 * A bounded double expression over the arrays and the induction
 * variable — never over the loop-carried scalars, which is what keeps
 * accumulators from compounding into infinity.
 */
std::string
expr(Rng &rng, int depth)
{
    if (depth <= 0) {
        switch (rng.pick(4)) {
          case 0: return "a[" + index(rng) + "]";
          case 1: return "b[" + index(rng) + "]";
          case 2: return literal(rng);
          default: return "(double)(i + 1)";
        }
    }
    std::string lhs = expr(rng, depth - 1);
    std::string rhs = expr(rng, depth - 1);
    switch (rng.pick(4)) {
      case 0: return "(" + lhs + " + " + rhs + ")";
      case 1: return "(" + lhs + " - " + rhs + ")";
      case 2: return "(" + lhs + " * " + rhs + ")";
      default:
        // Denominator >= 1.5: division can only shrink magnitudes.
        return "(" + lhs + " / (1.5 + (" + rhs + ") * (" + rhs +
               ")))";
    }
}

/** One statement of a loop body. */
std::string
statement(Rng &rng)
{
    std::string s = "s" + std::to_string(rng.pick(kScalars));
    std::string e = expr(rng, static_cast<int>(rng.pick(3)));
    switch (rng.pick(5)) {
      case 0: return s + " = " + s + " + " + e + ";";
      case 1: return s + " = 0.25 * " + s + " + " + e + ";";
      case 2: return "a[" + index(rng) + "] = " + e + ";";
      case 3:
        return "b[i] = b[i] + 0.5 * (" + e + ");";
      default:
        return "if (c[i] < " + std::to_string(1 + rng.pick(6)) +
               ") { " + s + " = " + s + " + " + e + "; } else { " +
               s + " = " + s + " - " + e + "; }";
    }
}

/** A complete MiniC program: a pure function of the seed. */
std::string
generate(uint64_t seed)
{
    Rng rng{seed * 0x9e3779b97f4a7c15ULL + 0xfd7246 };
    std::string src =
        "double fuzz(int n, double *a, double *b, int *c) {\n";
    for (int s = 0; s < kScalars; ++s)
        src += "    double s" + std::to_string(s) + " = " +
               literal(rng) + ";\n";
    int loops = 1 + static_cast<int>(rng.pick(3));
    for (int l = 0; l < loops; ++l) {
        src += "    for (int i = 0; i < n; i++) {\n";
        int stmts = 1 + static_cast<int>(rng.pick(4));
        for (int st = 0; st < stmts; ++st)
            src += "        " + statement(rng) + "\n";
        src += "    }\n";
    }
    src += "    return s0 + s1 + s2;\n}\n";
    return src;
}

/** Subscripts of the 6 x 8 view of an index in [0, 48). */
std::string
cell(const std::string &idx)
{
    return "[(" + idx + ") / 8][(" + idx + ") % 8]";
}

/** A bounded double expression in the array-parameter template. */
std::string
typedExpr(Rng &rng, int depth)
{
    if (depth <= 0) {
        switch (rng.pick(7)) {
          case 0: return "a" + cell(index(rng));
          case 1: return "b[" + index(rng) + "]";
          case 2: return "t" + cell(index(rng));
          case 3: return literal(rng);
          case 4: return "(double)(int)(b[" + index(rng) + "] * 4.0)";
          case 5: return "(double)(float)a" + cell(index(rng));
          default: return "(double)(long)c[i]";
        }
    }
    std::string lhs = typedExpr(rng, depth - 1);
    std::string rhs = typedExpr(rng, depth - 1);
    switch (rng.pick(4)) {
      case 0: return "(" + lhs + " + " + rhs + ")";
      case 1: return "(" + lhs + " * " + rhs + ")";
      case 2:
        return "(" + lhs + " / (1.5 + (" + rhs + ") * (" + rhs + ")))";
      default:
        return "(c[i] < " + std::to_string(1 + rng.pick(3)) + " ? " +
               lhs + " : (c[i] < " + std::to_string(4 + rng.pick(3)) +
               " ? " + rhs + " : " + literal(rng) + "))";
    }
}

/** One loop-body statement of the array-parameter template. */
std::string
typedStatement(Rng &rng, int id)
{
    std::string s = "s" + std::to_string(rng.pick(kScalars));
    std::string e = typedExpr(rng, static_cast<int>(rng.pick(3)));
    switch (rng.pick(6)) {
      case 0: return s + " = " + s + " + " + e + ";";
      case 1: return "a" + cell(index(rng)) + " = " + e + ";";
      case 2: {
        std::string t = "t" + cell(index(rng));
        return t + " = 0.5 * " + t + " + " + e + ";";
      }
      case 3: return s + " = 0.25 * " + s + " + " + e + ";";
      case 4: {
        std::string p = "p" + std::to_string(id);
        return "double *" + p + " = c[i] < " +
               std::to_string(1 + rng.pick(6)) + " ? b : a[" +
               std::to_string(rng.pick(6)) + "]; " + s + " = " + s +
               " + 0.5 * " + p + "[i % 8];";
      }
      default:
        return "b[i] = b[i] + 0.5 * (" + e + ");";
    }
}

/** A program of the array-parameter template: a function of the seed. */
std::string
generateTyped(uint64_t seed)
{
    Rng rng{seed * 0x9e3779b97f4a7c15ULL + 0xa77a1};
    std::string src =
        "double fuzz(int n, double a[][8], double b[48], int c[]) {\n"
        "    double t[6][8];\n"
        "    for (int i = 0; i < n; i++)\n"
        "        t[i / 8][i % 8] = 0.5 * a[i / 8][i % 8];\n";
    for (int s = 0; s < kScalars; ++s)
        src += "    double s" + std::to_string(s) + " = " +
               literal(rng) + ";\n";
    int loops = 1 + static_cast<int>(rng.pick(3));
    int id = 0;
    for (int l = 0; l < loops; ++l) {
        if (rng.pick(3) == 0) {
            // A nest over the two-dimensional views.
            std::string s = "s" + std::to_string(rng.pick(kScalars));
            std::string w = "w" + std::to_string(l);
            switch (rng.pick(3)) {
              case 0:
                src += "    for (int r = 0; r < 6; r++) {\n"
                       "        double " + w + " = 0.0;\n"
                       "        for (int j = 0; j < 8; j++)\n"
                       "            " + w + " = " + w +
                       " + a[r][j] * b[j];\n"
                       "        " + s + " = " + s + " + 0.25 * " + w +
                       ";\n"
                       "    }\n";
                break;
              case 1:
                src += "    for (int r = 1; r < 5; r++)\n"
                       "        for (int j = 1; j < 7; j++)\n"
                       "            t[r][j] = 0.25 * (a[r - 1][j] + "
                       "a[r + 1][j] + a[r][j - 1] + a[r][j + 1]);\n";
                break;
              default:
                src += "    for (int r = 0; r < 6; r++)\n"
                       "        for (int j = 0; j < 8; j++)\n"
                       "            t[r][j] = 0.5 * t[r][j] + "
                       "(double)(float)a[r][j];\n";
                break;
            }
            continue;
        }
        src += "    for (int i = 0; i < n; i++) {\n";
        int stmts = 1 + static_cast<int>(rng.pick(4));
        for (int st = 0; st < stmts; ++st)
            src += "        " + typedStatement(rng, id++) + "\n";
        src += "    }\n";
    }
    src += "    return s0 + s1 + s2 + t[1][2];\n}\n";
    return src;
}

/** Seeds of the first template; later seeds use the second. */
constexpr uint64_t kPlainSeeds = 25;
constexpr uint64_t kSeeds = 40;

std::string
program(uint64_t seed)
{
    return seed <= kPlainSeeds ? generate(seed) : generateTyped(seed);
}

constexpr int kN = 48;

struct Heap
{
    interp::Memory mem;
    uint64_t a = 0, b = 0, c = 0;
    std::vector<RuntimeValue> args;
};

/** Identical deterministic seeding for every engine run. */
void
seedHeap(Heap &h)
{
    h.a = h.mem.allocate(kN * 8);
    h.b = h.mem.allocate(kN * 8);
    h.c = h.mem.allocate(kN * 4);
    for (int i = 0; i < kN; ++i) {
        h.mem.store<double>(h.a + 8 * i, 0.5 + 0.0625 * i);
        h.mem.store<double>(h.b + 8 * i, 2.0 - 0.03125 * i);
        h.mem.store<int32_t>(h.c + 4 * i,
                             static_cast<int32_t>((i * 5 + 3) % 8));
    }
    h.args = {RuntimeValue::makeInt(kN), RuntimeValue::makeInt(h.a),
              RuntimeValue::makeInt(h.b), RuntimeValue::makeInt(h.c)};
}

std::vector<uint8_t>
arrayBytes(interp::Memory &mem, uint64_t addr, uint64_t len)
{
    interp::Memory::RawSpan span(mem, addr, len);
    return std::vector<uint8_t>(span.data(), span.data() + span.size());
}

} // namespace

TEST(FuzzDifferential, EnginesAgreeOnGeneratedPrograms)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::string src = program(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);

        ir::Module module;
        frontend::compileMiniCOrDie(src, module);
        auto problems = ir::verifyModule(module);
        ASSERT_TRUE(problems.empty()) << problems.front();
        ir::Function *entry = module.functionByName("fuzz");
        ASSERT_NE(entry, nullptr);

        Heap fast, ref;
        seedHeap(fast);
        seedHeap(ref);
        interp::Interpreter fastIt(module, fast.mem);
        interp::Interpreter refIt(module, ref.mem);
        interp::registerMathBuiltins(fastIt);
        interp::registerMathBuiltins(refIt);

        RuntimeValue fastRet = fastIt.run(entry, fast.args);
        RuntimeValue refRet = refIt.runReference(entry, ref.args);

        // NaN would make bit-equality vacuous for the wrong reason:
        // the generator promises it cannot appear.
        ASSERT_EQ(fastRet.kind, RuntimeValue::Kind::FP);
        EXPECT_FALSE(fastRet.f != fastRet.f)
            << "generator produced NaN: " << fastRet.f;

        EXPECT_TRUE(RuntimeValue::bitsEqual(fastRet, refRet));
        EXPECT_EQ(arrayBytes(fast.mem, fast.a, kN * 8),
                  arrayBytes(ref.mem, ref.a, kN * 8));
        EXPECT_EQ(arrayBytes(fast.mem, fast.b, kN * 8),
                  arrayBytes(ref.mem, ref.b, kN * 8));
        EXPECT_EQ(fastIt.profile().totalSteps,
                  refIt.profile().totalSteps);
        EXPECT_EQ(fastIt.profile().counts, refIt.profile().counts);
    }
}

TEST(FuzzDifferential, VerifierCleanAtEveryPassBoundary)
{
    // The fuzzer corpus swept through the full pipeline with
    // VerifyMode::Boundaries forced on: compilation re-verifies after
    // codegen, mem2reg and the optimizer; execution re-verifies before
    // bytecode lowering; and the matching driver re-verifies after
    // every rewrite commit. Any malformed IR at any boundary throws
    // InternalError, which fails the test — over the whole corpus,
    // not just the 21 curated suite programs.
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::string src = program(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);

        ir::Module module;
        frontend::compileMiniCOrDie(src, module,
                                    ir::VerifyMode::Boundaries);
        ir::Function *entry = module.functionByName("fuzz");
        ASSERT_NE(entry, nullptr);

        // Pre-bytecode boundary: lower and execute before rewriting.
        Heap heap;
        seedHeap(heap);
        interp::Interpreter it(module, heap.mem);
        it.setVerifyMode(ir::VerifyMode::Boundaries);
        interp::registerMathBuiltins(it);
        it.run(entry, heap.args);

        // Rewrite boundaries: match and transform with verification
        // on; commits and rollbacks re-verify inside the engine.
        driver::DriverOptions opts;
        opts.applyTransforms = true;
        opts.verify = ir::VerifyMode::Boundaries;
        driver::MatchingDriver matcher(opts);
        matcher.matchModule(module);

        // And the final module must still be verifier-clean.
        ir::VerifierReport report = ir::verifyModuleDetailed(module);
        EXPECT_EQ(report.errorCount(), 0u) << report.str();
    }
}

TEST(FuzzDifferential, RecompileReproducesContentHash)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::string src = program(seed);
        SCOPED_TRACE("seed " + std::to_string(seed));

        ir::Module first, second, reused;
        DiagEngine diags;
        frontend::CompileResult compiled =
            frontend::compileMiniCReusing(src, first, diags, {});
        ASSERT_TRUE(compiled.ok) << diags.dump();
        frontend::compileMiniCOrDie(src, second);
        // Compiled against its own previous module, every function
        // is cloned instead of recompiled.
        frontend::CompileResult again = frontend::compileMiniCReusing(
            src, reused, diags, {&first, &compiled.keys});
        ASSERT_TRUE(again.ok) << diags.dump();
        EXPECT_EQ(again.reused, std::vector<std::string>{"fuzz"});

        // Same source, same pipeline: textual IR and the incremental
        // match cache's content hashes must reproduce exactly, cloned
        // or not.
        EXPECT_EQ(ir::printModule(first), ir::printModule(second));
        EXPECT_EQ(ir::printModule(reused), ir::printModule(second));
        ASSERT_EQ(first.functions().size(), second.functions().size());
        ASSERT_EQ(reused.functions().size(), second.functions().size());
        for (size_t i = 0; i < first.functions().size(); ++i) {
            EXPECT_EQ(first.functions()[i]->contentHash(),
                      second.functions()[i]->contentHash())
                << first.functions()[i]->name();
            EXPECT_EQ(reused.functions()[i]->contentHash(),
                      second.functions()[i]->contentHash())
                << reused.functions()[i]->name();
        }
    }
}

TEST(FuzzDifferential, GeneratorIsDeterministic)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed)
        EXPECT_EQ(program(seed), program(seed)) << seed;
    // Distinct seeds must explore distinct programs (not a collapsed
    // stream), otherwise the sweep above is one test case repeated.
    EXPECT_NE(generate(1), generate(2));
    EXPECT_NE(generateTyped(26), generateTyped(27));
}
