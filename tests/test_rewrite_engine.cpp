// Regression tests for the transactional rewrite engine
// (transform/rewrite.h): overlap resolution, stale-pointer safety,
// live-IR validation and per-function rollback. The overlap and
// stale-accumulator cases fail (or are outright use-after-free) on
// the legacy per-match path this engine replaced.
#include <gtest/gtest.h>

#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "transform/binder.h"
#include "transform/rewrite.h"
#include "transform/transform.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

RuntimeValue I(int64_t v) { return RuntimeValue::makeInt(v); }
RuntimeValue F(double v) { return RuntimeValue::makeFP(v); }

const char *kGemmSrc = R"(
    void sgemm(float *A, int lda, float *B, int ldb, float *C,
               int ldc, int m, int n, int k,
               float alpha, float beta) {
        for (int mm = 0; mm < m; mm++) {
            for (int nn = 0; nn < n; nn++) {
                float c = 0.0f;
                for (int i = 0; i < k; i++)
                    c += A[mm + i * lda] * B[nn + i * ldb];
                C[mm+nn*ldc] = C[mm+nn*ldc] * beta + alpha * c;
            }
        }
    }
)";

const char *kSpmvSrc = R"(
    void spmv(int m, int *rowstr, int *colidx, double *a,
              double *z, double *r) {
        for (int j = 0; j < m; j++) {
            double d = 0.0;
            for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                d = d + a[k] * z[colidx[k]];
            r[j] = d;
        }
    }
)";

// Two disjoint reductions where the second loop's accumulator is
// seeded by the first loop's result: the legacy path's per-match DCE
// erased the first phi while the second match's solution still bound
// it as init_value (a use-after-free before the engine).
const char *kChainSrc = R"(
    double chain(double *a, double *b, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++)
            s = s + a[i];
        double t = s;
        for (int j = 0; j < n; j++)
            t = t + b[j];
        return t;
    }
)";

const char *kHistoSrc = R"(
    void histo(int *bins, int *key, int n) {
        for (int i = 0; i < n; i++)
            bins[key[i]] += 1;
    }
)";

void
expectValid(ir::Module &module)
{
    auto problems = ir::verifyModule(module);
    ASSERT_TRUE(problems.empty())
        << problems.front() << "\n"
        << ir::printModule(module);
}

/**
 * Build a Reduction match for the accumulation loop nested inside a
 * specific match (GEMM's loop[2], SPMV's inner loop), from the
 * specific solution's own bindings. The reproduction's IDL library
 * never reports both matches itself — the detector's constraint
 * programs are mutually exclusive — but applyAll accepts arbitrary
 * match lists (merged detector runs, detectOne batches), so the
 * engine must survive two idioms claiming the same blocks.
 */
idioms::IdiomMatch
innerReductionFrom(const idioms::IdiomMatch &specific,
                   const std::string &loopPrefix,
                   const std::string &accVar,
                   const std::string &sumVar,
                   const std::vector<std::string> &readPrefixes)
{
    idioms::IdiomMatch m;
    m.idiom = "Reduction";
    m.cls = idioms::IdiomClass::ScalarReduction;
    m.function = specific.function;
    const auto &src = specific.solution.bindings;
    auto &dst = m.solution.bindings;
    for (const char *key :
         {"precursor", "comparison", "iterator", "successor",
          "body_begin", "latch", "iter_begin", "iter_end"}) {
        dst[key] = src.at(loopPrefix + key);
    }
    dst["old_value"] = src.at(accVar);
    dst["kernel_output"] = src.at(sumVar);
    dst["init_value"] = src.at("init");
    for (size_t i = 0; i < readPrefixes.size(); ++i) {
        dst["read_value[" + std::to_string(i) + "]"] =
            src.at(readPrefixes[i] + ".value");
        dst["read[" + std::to_string(i) + "].base_pointer"] =
            src.at(readPrefixes[i] + ".base_pointer");
    }
    return m;
}

} // namespace

// A Reduction matched inside a GEMM nest claims blocks the GEMM plan
// already owns: exactly one replacement (the most specific idiom)
// must fire, even when the generic match comes first in the list.
TEST(RewriteEngine, NestedReductionInsideGemmFiresOnce)
{
    auto run = [&](bool transformed) {
        ir::Module module;
        frontend::compileMiniCOrDie(kGemmSrc, module);
        std::vector<transform::Replacement> reps;
        if (transformed) {
            ir::Function *func = module.functionByName("sgemm");
            idioms::IdiomDetector det;
            auto gemm = det.detectOne(func, "GEMM");
            EXPECT_EQ(gemm.size(), 1u);
            // The dot-product loop of the nest, claimed a second time
            // as a scalar Reduction. Generic match first: the engine
            // must still pick GEMM.
            std::vector<idioms::IdiomMatch> matches;
            matches.push_back(innerReductionFrom(
                gemm[0], "loop[2].", "acc", "sum",
                {"input1", "input2"}));
            matches.insert(matches.end(), gemm.begin(), gemm.end());

            transform::Transformer tr(module);
            reps = tr.applyAll(matches);
            EXPECT_EQ(reps.size(), 1u);
            EXPECT_EQ(reps.empty() ? "" : reps[0].kind, "gemm");
            EXPECT_EQ(tr.engine().stats().droppedOverlap, 1u);
            expectValid(module);
        }
        const int M = 4, N = 3, K = 5;
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        transform::bindReplacements(it, reps);
        uint64_t A = mem.allocate(M * K * 4);
        uint64_t B = mem.allocate(N * K * 4);
        uint64_t C = mem.allocate(M * N * 4);
        for (int i = 0; i < M * K; ++i)
            mem.store<float>(A + 4 * i, 0.25f * i);
        for (int i = 0; i < N * K; ++i)
            mem.store<float>(B + 4 * i, 1.0f - 0.1f * i);
        for (int i = 0; i < M * N; ++i)
            mem.store<float>(C + 4 * i, 2.0f);
        it.run(module.functionByName("sgemm"),
               {I(A), I(M), I(B), I(N), I(C), I(M), I(M), I(N), I(K),
                F(1.5), F(0.5)});
        std::vector<float> out(M * N);
        for (int i = 0; i < M * N; ++i)
            out[i] = mem.load<float>(C + 4 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    ASSERT_EQ(seq.size(), acc.size());
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_FLOAT_EQ(seq[i], acc[i]) << "elem " << i;
}

// SPMV and the Reduction matched on its inner dot-product loop claim
// intersecting blocks; the wider claim (the SPMV nest) must win.
TEST(RewriteEngine, SpmvBeatsInnerReductionOnSharedLoop)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kSpmvSrc, module);
    ir::Function *func = module.functionByName("spmv");
    idioms::IdiomDetector det;
    auto spmv = det.detectOne(func, "SPMV");
    ASSERT_EQ(spmv.size(), 1u);
    std::vector<idioms::IdiomMatch> matches;
    matches.push_back(innerReductionFrom(
        spmv[0], "inner.", "acc", "sum",
        {"seq_read", "indir_read"}));
    matches.insert(matches.end(), spmv.begin(), spmv.end());

    transform::Transformer tr(module);
    auto reps = tr.applyAll(matches);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].kind, "spmv");
    EXPECT_EQ(tr.engine().stats().droppedOverlap, 1u);
    expectValid(module);
}

// Merged detector runs hand applyAll the same loop twice: the second,
// byte-identical claim must be dropped, not double-rewritten (the
// legacy path applied the first, erased the loop in its per-match
// cleanup, then dereferenced the second match's dangling solution).
TEST(RewriteEngine, DuplicateMatchFiresExactlyOnce)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kHistoSrc, module);
    ir::Function *func = module.functionByName("histo");
    idioms::IdiomDetector det;
    auto first = det.detectOne(func, "Histogram");
    auto second = det.detectOne(func, "Histogram");
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    std::vector<idioms::IdiomMatch> matches = first;
    matches.insert(matches.end(), second.begin(), second.end());

    transform::Transformer tr(module);
    auto reps = tr.applyAll(matches);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].kind, "histogram");
    EXPECT_EQ(tr.engine().stats().droppedOverlap, 1u);
    expectValid(module);
}

// The satellite-2 regression: two disjoint reductions in one function
// where the first replacement rewires (and its cleanup would erase)
// the value the second match's solution references. Both must land —
// the second call's seed resolves to the first call's result — with
// no use-after-free (this test runs under the ASan+UBSan CI job).
TEST(RewriteEngine, StaleAccumulatorAcrossDisjointMatches)
{
    auto run = [&](bool transformed) {
        ir::Module module;
        frontend::compileMiniCOrDie(kChainSrc, module);
        std::vector<transform::Replacement> reps;
        if (transformed) {
            idioms::IdiomDetector det;
            auto matches = det.detectModule(module);
            EXPECT_EQ(matches.size(), 2u);
            transform::Transformer tr(module);
            reps = tr.applyAll(matches);
            EXPECT_EQ(reps.size(), 2u);
            for (const auto &rep : reps)
                EXPECT_EQ(rep.kind, "reduce");
            expectValid(module);
        }
        interp::Memory mem;
        interp::Interpreter it(module, mem);
        transform::bindReplacements(it, reps);
        uint64_t a = mem.allocate(6 * 8), b = mem.allocate(6 * 8);
        for (int i = 0; i < 6; ++i) {
            mem.store<double>(a + 8 * i, 1.5 * i);
            mem.store<double>(b + 8 * i, 0.25 * i * i);
        }
        return it.run(module.functionByName("chain"),
                      {I(a), I(b), I(6)}).f;
    };
    EXPECT_DOUBLE_EQ(run(false), run(true));
}

// Plans are validated against the live IR: a plan made before the
// module was rewritten by someone else must be rejected, not
// committed into dangling pointers.
TEST(RewriteEngine, ValidationRejectsPlansAgainstMutatedIR)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kHistoSrc, module);
    idioms::IdiomDetector det;
    auto matches = det.detectModule(module);
    ASSERT_GE(matches.size(), 1u);

    transform::RewriteEngine engine(module);
    auto plans = engine.planAll(matches);
    ASSERT_GE(plans.size(), 1u);
    for (const auto &plan : plans)
        EXPECT_EQ(engine.validate(plan), "");

    // Someone else rewrites the module (and its cleanup erases the
    // claimed loop) between our plan and commit.
    transform::Transformer other(module);
    ASSERT_EQ(other.applyAll(matches).size(), 1u);

    for (const auto &plan : plans)
        EXPECT_NE(engine.validate(plan), "");
    // A fresh detection on the mutated module finds nothing left to
    // plan: the loop has already been rewritten away.
    idioms::IdiomDetector redet;
    auto reps = engine.applyAll(redet.detectModule(module));
    EXPECT_TRUE(reps.empty());
    expectValid(module);
}

// A plan that fails mid-commit (the loop-entering branch was
// retargeted after validation) must roll its function back to the
// exact pre-commit IR: no half-inserted calls, no leaked kernel or
// callee declarations.
TEST(RewriteEngine, CommitFailureRollsTheFunctionBack)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kChainSrc, module);
    idioms::IdiomDetector det;
    auto matches = det.detectModule(module);
    ASSERT_EQ(matches.size(), 2u);

    transform::RewriteEngine engine(module);
    auto plans = engine.planAll(matches);
    ASSERT_EQ(plans.size(), 2u);

    // Sabotage the SECOND plan so its commit fails after the first
    // plan of the same function already committed: point its
    // precursor at a non-branch, so the bypass precondition the
    // committer re-checks no longer holds. The whole function must
    // roll back atomically.
    plans[1].loop.precursor = plans[1].loop.successor;

    std::string before = ir::printModule(module);
    auto reps = engine.commit(std::move(plans));
    EXPECT_TRUE(reps.empty());
    EXPECT_EQ(engine.stats().rolledBack, 2u);
    EXPECT_EQ(ir::printModule(module), before);
    expectValid(module);
}

// A shared callee declaration (__hetero_spmv) created by one
// function's commit and reused by another function's committed call
// must survive the creator's rollback — destroying it would leave the
// other call's callee pointer dangling.
TEST(RewriteEngine, RollbackKeepsSharedCalleeAliveForOtherFunctions)
{
    const char *src = R"(
        void spmv1(int m, int *rowstr, int *colidx, double *a,
                   double *z, double *r) {
            for (int j = 0; j < m; j++) {
                double d = 0.0;
                for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                    d = d + a[k] * z[colidx[k]];
                r[j] = d;
            }
        }
        void spmv2(int m, int *rowstr, int *colidx, double *a,
                   double *z, double *r) {
            for (int j = 0; j < m; j++) {
                double d = 0.0;
                for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                    d = d + a[k] * z[colidx[k]];
                r[j] = d;
            }
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    idioms::IdiomDetector det;
    auto matches = det.detectModule(module);
    ASSERT_EQ(matches.size(), 2u);

    transform::RewriteEngine engine(module);
    auto plans = engine.planAll(matches);
    ASSERT_EQ(plans.size(), 2u);
    ASSERT_NE(plans[0].function, plans[1].function);

    // A third plan for the FIRST function, sabotaged to fail
    // mid-commit after both earlier plans committed: spmv1 creates
    // the shared declaration, spmv2 reuses it, then spmv1 rolls back.
    std::string f1Before =
        ir::printFunction(plans[0].function);
    transform::RewritePlan doomed = plans[0];
    doomed.loop.precursor = doomed.loop.successor;
    plans.push_back(std::move(doomed));

    auto reps = engine.commit(std::move(plans));
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].kind, "spmv");
    EXPECT_EQ(engine.stats().rolledBack, 2u);
    // spmv1's body is restored; the shared declaration survives for
    // spmv2's committed call.
    EXPECT_EQ(ir::printFunction(module.functionByName("spmv1")),
              f1Before);
    EXPECT_NE(module.functionByName("__hetero_spmv"), nullptr);
    expectValid(module);
    EXPECT_NE(ir::printModule(module).find("call void @__hetero_spmv"),
              std::string::npos);
}

// The transform stage of MatchingDriver::matchModules must produce
// byte-identical modules and replacement metadata to the serial
// engine, in module order, for any worker count.
TEST(RewriteEngine, ApplyAllParallelMatchesSerial)
{
    const std::vector<const char *> sources = {kSpmvSrc, kChainSrc,
                                               kHistoSrc, kGemmSrc};

    // Serial reference: one module at a time.
    std::vector<std::string> serialPrinted;
    std::vector<std::vector<transform::Replacement>> serialReps;
    for (const char *src : sources) {
        ir::Module module;
        frontend::compileMiniCOrDie(src, module);
        idioms::IdiomDetector det;
        auto matches = det.detectModule(module);
        transform::Transformer tr(module);
        serialReps.push_back(tr.applyAll(matches));
        serialPrinted.push_back(ir::printModule(module));
    }

    for (unsigned threads : {1u, 4u}) {
        std::vector<std::unique_ptr<ir::Module>> modules;
        std::vector<ir::Module *> ptrs;
        for (const char *src : sources) {
            modules.push_back(std::make_unique<ir::Module>());
            frontend::compileMiniCOrDie(src, *modules.back());
            ptrs.push_back(modules.back().get());
        }
        driver::DriverOptions opts;
        opts.applyTransforms = true;
        driver::MatchingDriver drv(opts);
        auto reports = drv.matchModules(ptrs, threads);
        ASSERT_EQ(reports.size(), sources.size());
        for (size_t m = 0; m < sources.size(); ++m) {
            const auto &reps = reports[m].replacements;
            EXPECT_EQ(ir::printModule(*modules[m]), serialPrinted[m])
                << "module " << m << " threads " << threads;
            ASSERT_EQ(reps.size(), serialReps[m].size());
            for (size_t i = 0; i < reps.size(); ++i) {
                EXPECT_EQ(reps[i].kind, serialReps[m][i].kind);
                EXPECT_EQ(reps[i].calleeName,
                          serialReps[m][i].calleeName);
                EXPECT_EQ(reps[i].numReads, serialReps[m][i].numReads);
                EXPECT_EQ(reps[i].numInvariants,
                          serialReps[m][i].numInvariants);
            }
        }
    }
}

TEST(RewriteEngine, HardeningClaimBeatsGemmOverlap)
{
    // A hardening plan claims every block of its function — strictly
    // more than the GEMM plan's loop-nest claim — so widest-claim-
    // first resolution must pick hardening deterministically, however
    // the plans are ordered, and commit must leave verified IR.
    ir::Module module;
    frontend::compileMiniCOrDie(kGemmSrc, module);
    ir::Function *fn = module.functionByName("sgemm");
    ASSERT_NE(fn, nullptr);
    fn->addAttribute("protect");

    idioms::IdiomDetector det;
    auto matches = det.detectModule(module);
    ASSERT_GE(matches.size(), 1u);

    transform::RewriteEngine engine(module);
    std::vector<transform::RewritePlan> plans =
        engine.planAll(matches);
    ASSERT_GE(plans.size(), 1u);
    EXPECT_EQ(plans[0].kind, "gemm");
    for (transform::RewritePlan &plan :
         engine.planHardenAll(matches.size()))
        plans.push_back(std::move(plan));
    ASSERT_EQ(plans.size(), matches.size() + 1);

    // The hardening plan's claim is a strict superset of the GEMM
    // nest's claim (the entry block is in no loop).
    EXPECT_GT(plans.back().claimedBlocks.size(),
              plans[0].claimedBlocks.size());

    auto survivors = engine.resolveOverlaps(std::move(plans));
    ASSERT_EQ(survivors.size(), 1u);
    EXPECT_EQ(survivors[0].kind, "harden");
    EXPECT_GE(engine.stats().droppedOverlap, 1u);

    EXPECT_EQ(engine.validate(survivors[0]), "");
    auto reps = engine.commit(std::move(survivors));
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].kind, "harden");
    auto problems = ir::verifyModule(module);
    EXPECT_TRUE(problems.empty()) << problems.front();
}
