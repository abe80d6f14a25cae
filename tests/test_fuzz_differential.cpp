/**
 * @file
 * Seeded differential fuzzing of the two execution engines.
 *
 * Every program of the seeded generator (fuzz_programs.h) is executed
 * by both engines — the tree-walking reference and the bytecode
 * engine — over identically seeded heaps. Return values must be
 * bit-equal, written arrays byte-identical and the dynamic profiles
 * the same map. Recompiling the same source must reproduce every
 * function's contentHash (the key of the matching service's
 * incremental cache), and the generator itself must be a pure
 * function of its seed.
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

#include "fuzz_programs.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

using namespace fuzz;

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
