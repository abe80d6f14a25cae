/**
 * @file
 * Backend selection: legality, ranking, policy threading, and the
 * wire/report surfaces (docs/BACKENDS.md).
 *
 * Covers the full selection stack: the legal-target tables and the
 * cost-model ranking (runtime/cost.h), the Fixed-policy byte-parity
 * guarantee (historical callee names, no rejected alternatives), the
 * CostModel policy flipping a large GEMM onto the dGPU with a
 * suffixed callee and a ranked alternative list, forced backends, the
 * cache-replay rule that selection always re-runs under the CURRENT
 * policy, differential execution of backend-suffixed entry points
 * (which bind the same host handler as the classic names), and the
 * MATCH-line protocol keys, pinned for every suite program under
 * CostModel and checked against what the transform stage commits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "analysis/workload.h"
#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "runtime/cost.h"
#include "service/protocol.h"
#include "service/service.h"
#include "support/string_utils.h"

using namespace repro;

namespace {

std::string
gemmSource(int n)
{
    const std::string N = std::to_string(n);
    return "void gemm_main(float *A, float *B, float *C,\n"
           "               float alpha, float beta) {\n"
           "    for (int mm = 0; mm < " + N + "; mm++) {\n"
           "        for (int nn = 0; nn < " + N + "; nn++) {\n"
           "            float c = 0.0f;\n"
           "            for (int i = 0; i < " + N + "; i++) {\n"
           "                float a = A[mm + i * " + N + "];\n"
           "                float b = B[nn + i * " + N + "];\n"
           "                c += a * b;\n"
           "            }\n"
           "            C[mm + nn * " + N + "] =\n"
           "                C[mm + nn * " + N + "] * beta + alpha * c;\n"
           "        }\n"
           "    }\n"
           "}\n";
}

const benchmarks::BenchmarkProgram &
suiteProgram(const std::string &name)
{
    for (const auto &b : benchmarks::nasParboilSuite()) {
        if (b.name == name)
            return b;
    }
    throw FatalError("no suite program named " + name);
}

} // namespace

// ----------------------------------------------------- cost layer

TEST(LegalTargets, CountsPerIdiomClass)
{
    using idioms::IdiomClass;
    EXPECT_EQ(runtime::legalTargets(IdiomClass::SparseMatrixOp).size(),
              6u);
    EXPECT_EQ(runtime::legalTargets(IdiomClass::MatrixOp).size(), 7u);
    EXPECT_EQ(runtime::legalTargets(IdiomClass::ScalarReduction).size(),
              3u);
    EXPECT_EQ(
        runtime::legalTargets(IdiomClass::HistogramReduction).size(),
        4u);
    EXPECT_EQ(runtime::legalTargets(IdiomClass::Stencil).size(), 4u);
    EXPECT_TRUE(runtime::legalTargets(IdiomClass::Other).empty());
}

TEST(LegalTargets, FixedTargetIsAlwaysLegal)
{
    using idioms::IdiomClass;
    for (IdiomClass cls :
         {IdiomClass::SparseMatrixOp, IdiomClass::MatrixOp,
          IdiomClass::ScalarReduction, IdiomClass::HistogramReduction,
          IdiomClass::Stencil}) {
        runtime::BackendTarget fixed = runtime::fixedTarget(cls);
        auto legal = runtime::legalTargets(cls);
        bool found = std::any_of(
            legal.begin(), legal.end(), [&](const auto &t) {
                return runtime::sameBackend(t, fixed);
            });
        EXPECT_TRUE(found) << "fixed target of class "
                           << static_cast<int>(cls)
                           << " is not a legal target";
        // The fixed targets are host-side lowerings: never the dGPU.
        EXPECT_NE(fixed.platform, runtime::Platform::DGPU);
    }
}

TEST(RankTargets, SmallGemmStaysOnHostLargeGemmFlips)
{
    analysis::WorkloadDescriptor small;
    small.tripCount = 8;
    small.flops = 2.0 * 8 * 8 * 8;
    small.bytes = 16.0 * 8 * 8 * 8;
    small.transferBytes = 3 * 8 * 8 * 4.0;

    auto ranked =
        runtime::rankTargets(idioms::IdiomClass::MatrixOp, small);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().platform, runtime::Platform::CPU);

    analysis::WorkloadDescriptor big;
    big.tripCount = 512;
    big.flops = 2.0 * 512 * 512 * 512;
    big.bytes = 16.0 * 512 * 512 * 512;
    big.transferBytes = 3 * 512 * 512 * 4.0;

    ranked = runtime::rankTargets(idioms::IdiomClass::MatrixOp, big);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().api, runtime::Api::CuBLAS);
    EXPECT_EQ(ranked.front().platform, runtime::Platform::DGPU);
    // Ranked ascending by predicted time.
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(ranked[i - 1].predictedMs, ranked[i].predictedMs);
}

// ------------------------------------------------ policy threading

TEST(BackendPolicy, FixedKeepsHistoricalCalleesAndNoAlternatives)
{
    driver::DriverOptions opts;
    opts.applyTransforms = true; // policy defaults to Fixed
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(gemmSource(512), module);
    ASSERT_EQ(report.replacements.size(), 1u);
    const transform::Replacement &rep = report.replacements[0];
    EXPECT_EQ(rep.calleeName, "__hetero_gemm_f32");
    EXPECT_FALSE(rep.costModeled);
    EXPECT_TRUE(rep.rejected.empty());
    EXPECT_EQ(rep.target.api, runtime::Api::MKL);
    EXPECT_EQ(rep.target.platform, runtime::Platform::CPU);
}

TEST(BackendPolicy, CostModelFlipsLargeGemmToDgpu)
{
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    opts.backends.policy = transform::BackendPolicy::CostModel;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(gemmSource(512), module);
    ASSERT_EQ(report.replacements.size(), 1u);
    const transform::Replacement &rep = report.replacements[0];
    EXPECT_TRUE(rep.costModeled);
    EXPECT_EQ(rep.target.api, runtime::Api::CuBLAS);
    EXPECT_EQ(rep.target.platform, runtime::Platform::DGPU);
    EXPECT_EQ(rep.calleeName, "__hetero_gemm_f32__cublas_gpu");
    // Every legal alternative is recorded, cost-ascending.
    EXPECT_EQ(rep.rejected.size(), 6u);
    EXPECT_GT(rep.target.predictedMs, 0.0);
    for (size_t i = 0; i < rep.rejected.size(); ++i) {
        EXPECT_GE(rep.rejected[i].predictedMs, rep.target.predictedMs);
        if (i > 0)
            EXPECT_LE(rep.rejected[i - 1].predictedMs,
                      rep.rejected[i].predictedMs);
    }
}

TEST(BackendPolicy, CostModelKeepsSmallGemmOnHost)
{
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    opts.backends.policy = transform::BackendPolicy::CostModel;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(gemmSource(8), module);
    ASSERT_EQ(report.replacements.size(), 1u);
    const transform::Replacement &rep = report.replacements[0];
    EXPECT_TRUE(rep.costModeled);
    EXPECT_EQ(rep.target.platform, runtime::Platform::CPU);
    // Host choice == fixed target, so the callee keeps its classic
    // name and the runtime binder uses the byte-identical inline path.
    EXPECT_EQ(rep.calleeName, "__hetero_gemm_f32");
    EXPECT_FALSE(rep.rejected.empty());
}

TEST(BackendPolicy, ForcedBackendOverridesPolicy)
{
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    opts.backends.policy = transform::BackendPolicy::CostModel;
    opts.backends.forced["gemm"] =
        runtime::BackendTarget{runtime::Api::ClBLAS,
                               runtime::Platform::IGPU, 0.0};
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(gemmSource(512), module);
    ASSERT_EQ(report.replacements.size(), 1u);
    const transform::Replacement &rep = report.replacements[0];
    EXPECT_EQ(rep.target.api, runtime::Api::ClBLAS);
    EXPECT_EQ(rep.target.platform, runtime::Platform::IGPU);
    EXPECT_EQ(rep.calleeName, "__hetero_gemm_f32__clblas_igpu");
}

// ------------------------------------------------- cache interaction

TEST(BackendPolicy, CacheReplayRerunsSelectionUnderCurrentPolicy)
{
    // Warm the shared cache under Fixed...
    auto cache = std::make_shared<driver::MatchCache>();
    const std::string source = gemmSource(512);
    {
        driver::DriverOptions opts;
        opts.applyTransforms = true;
        opts.cache = cache;
        driver::MatchingDriver fixedDrv(opts);
        ir::Module module;
        auto report = fixedDrv.compileAndMatch(source, module);
        ASSERT_EQ(report.cacheMisses, 1u);
        ASSERT_EQ(report.replacements.size(), 1u);
        EXPECT_EQ(report.replacements[0].calleeName,
                  "__hetero_gemm_f32");
    }
    // ...then resubmit the same source under CostModel: the match is
    // replayed from the cache, but backend selection runs at transform
    // time against the CURRENT policy — the replay must yield the
    // cost-model choice, not the cached-era Fixed lowering.
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    opts.cache = cache;
    opts.backends.policy = transform::BackendPolicy::CostModel;
    driver::MatchingDriver costDrv(opts);
    ir::Module module;
    auto report = costDrv.compileAndMatch(source, module);
    EXPECT_EQ(report.cacheHits, 1u);
    ASSERT_EQ(report.functions.size(), 1u);
    EXPECT_TRUE(report.functions[0].fromCache);
    ASSERT_EQ(report.replacements.size(), 1u);
    const transform::Replacement &rep = report.replacements[0];
    EXPECT_TRUE(rep.costModeled);
    EXPECT_EQ(rep.target.api, runtime::Api::CuBLAS);
    EXPECT_EQ(rep.calleeName, "__hetero_gemm_f32__cublas_gpu");
}

// ----------------------------------------- backend handler execution

TEST(BackendExecution, ForcedDgpuGemmIsByteIdentical)
{
    driver::DriverOptions opts;
    opts.backends.forced["gemm"] =
        runtime::BackendTarget{runtime::Api::CuBLAS,
                               runtime::Platform::DGPU, 0.0};
    driver::MatchingDriver drv(opts);
    auto v = drv.verifyTransform(suiteProgram("sgemm"));
    EXPECT_TRUE(v.ok()) << v.error;
    EXPECT_EQ(v.replacements, 1u);
}

TEST(BackendExecution, ForcedDgpuSpmvIsByteIdentical)
{
    driver::DriverOptions opts;
    opts.backends.forced["spmv"] =
        runtime::BackendTarget{runtime::Api::CuSPARSE,
                               runtime::Platform::DGPU, 0.0};
    driver::MatchingDriver drv(opts);
    auto v = drv.verifyTransform(suiteProgram("spmv"));
    EXPECT_TRUE(v.ok()) << v.error;
    EXPECT_EQ(v.replacements, 1u);
}

TEST(BackendExecution, DoubleGemmEveryTargetIsByteIdentical)
{
    // The suite's only GEMM is single precision; run sgemm's kernel
    // and setup in double so every f64 entry point — the classic
    // __hetero_gemm_f64 and each backend-suffixed one — executes.
    benchmarks::BenchmarkProgram dgemm = suiteProgram("sgemm");
    dgemm.name = "dgemm";
    dgemm.source = replaceAll(
        replaceAll(dgemm.source, "float", "double"), "0.0f", "0.0");
    dgemm.setup = [](interp::Memory &mem) {
        const int m = 20, n = 18, k = 22;
        auto I = interp::RuntimeValue::makeInt;
        uint64_t A = mem.allocate(m * k * 8);
        for (int i = 0; i < m * k; ++i)
            mem.store<double>(A + 8 * i, 0.01 * (i % 97));
        uint64_t B = mem.allocate(n * k * 8);
        for (int i = 0; i < n * k; ++i)
            mem.store<double>(B + 8 * i, 0.02 * (i % 83));
        uint64_t C = mem.allocate(m * n * 8);
        for (int i = 0; i < m * n; ++i)
            mem.store<double>(C + 8 * i, 1.0);
        benchmarks::Instance inst;
        inst.args = {I(A), I(m), I(B), I(n), I(C), I(m),
                     I(m), I(n), I(k),
                     interp::RuntimeValue::makeFP(1.5),
                     interp::RuntimeValue::makeFP(0.25)};
        inst.watchDoubles = {{C, static_cast<size_t>(m * n)}};
        return inst;
    };
    for (const auto &target :
         runtime::legalTargets(idioms::IdiomClass::MatrixOp)) {
        driver::DriverOptions opts;
        opts.backends.forced["gemm"] = target;
        driver::MatchingDriver drv(opts);
        auto v = drv.verifyTransform(dgemm);
        EXPECT_TRUE(v.ok())
            << runtime::backendToken(target) << ": " << v.error;
        EXPECT_EQ(v.replacements, 1u) << runtime::backendToken(target);
    }
}

TEST(BackendExecution, CostModelSuiteSweepIsByteIdentical)
{
    // The full 21-program differential harness under CostModel: every
    // program must still execute byte-identically even when the cost
    // layer re-homes its kernels.
    driver::DriverOptions opts;
    opts.backends.policy = transform::BackendPolicy::CostModel;
    driver::MatchingDriver drv(opts);
    for (const auto &v : drv.verifyTransforms()) {
        EXPECT_TRUE(v.ok()) << v.name << ": " << v.error;
    }
}

// ------------------------------------------------------ wire surface

TEST(Protocol, MatchLinesCarryBackendKeysOnlyUnderCostModel)
{
    const std::string source = gemmSource(512);
    {
        service::MatchService fixedSvc;
        auto outcome = fixedSvc.submit("m", source);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        bool sawMatch = false;
        for (const auto &line :
             service::formatSubmitResponse(outcome)) {
            if (line.rfind("MATCH ", 0) != 0)
                continue;
            sawMatch = true;
            EXPECT_EQ(line.find("backend="), std::string::npos);
            EXPECT_EQ(line.find("cost_ms="), std::string::npos);
        }
        EXPECT_TRUE(sawMatch);
    }
    service::ServiceOptions opts;
    opts.backendPolicy = transform::BackendPolicy::CostModel;
    service::MatchService costSvc(opts);
    auto outcome = costSvc.submit("m", source);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    bool sawBackend = false;
    for (const auto &line : service::formatSubmitResponse(outcome)) {
        if (line.rfind("MATCH ", 0) != 0)
            continue;
        EXPECT_NE(line.find(" backend="), std::string::npos) << line;
        EXPECT_NE(line.find(" cost_ms="), std::string::npos) << line;
        if (line.find(" backend=cuBLAS@GPU") != std::string::npos) {
            sawBackend = true;
            EXPECT_NE(line.find(" alt="), std::string::npos) << line;
        }
    }
    EXPECT_TRUE(sawBackend);
}

// ------------------------------------- CostModel MATCH-line golden

namespace {

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** One suite program: the FNV-1a hash of the MATCH lines (each
 *  followed by '\n') of its CostModel SUBMIT response. */
struct MatchLinesRow
{
    const char *program;
    uint64_t hash;
};

// Taken while the service still chose backends through its own
// decision pass, separate from the transform stage's; it pins the
// MATCH-line backend=/cost_ms=/alt= keys of every suite program.
const MatchLinesRow kCostModelMatchLines[] = {
    {"BT", 0x60b6f00c17bcefdull},
    {"CG", 0x4e50382b02b4ed4ull},
    {"DC", 0xec03c00b96f64585ull},
    {"EP", 0xac8f06b29c3deb41ull},
    {"FT", 0x81057b0b1e66f5b3ull},
    {"IS", 0x263c81b25b5724bbull},
    {"LU", 0x3380a751860d876dull},
    {"MG", 0xbb542c85b43bb76aull},
    {"SP", 0xca262d822344e036ull},
    {"UA", 0x788ec36750d23fa1ull},
    {"bfs", 0x9ca84e5b2c66b46dull},
    {"cutcp", 0x75afba5ef970d712ull},
    {"histo", 0x67c61863cacfe350ull},
    {"lbm", 0x27ae46ad1763e26aull},
    {"mri-g", 0x1bd1a13443245d5full},
    {"mri-q", 0x62735c98a6f0226full},
    {"sad", 0xfefe5f721388724eull},
    {"sgemm", 0x79e1e570c8646ac0ull},
    {"spmv", 0xe11256e62e7aad1aull},
    {"stencil", 0x3522e286239f5503ull},
    {"tpacf", 0x6a9cda3a79e5b812ull},
};

/** @p mo reports exactly the backend choice recorded in @p rep. */
bool
sameDecision(const service::MatchOutcome &mo,
             const transform::Replacement &rep)
{
    if (!mo.hasBackend || mo.cls != rep.cls ||
        mo.backend != runtime::backendToken(rep.target) ||
        mo.predictedMs != rep.target.predictedMs ||
        mo.rejected.size() != rep.rejected.size())
        return false;
    for (size_t i = 0; i < rep.rejected.size(); ++i) {
        if (mo.rejected[i].first !=
                runtime::backendToken(rep.rejected[i]) ||
            mo.rejected[i].second != rep.rejected[i].predictedMs)
            return false;
    }
    return true;
}

} // namespace

// The CostModel MATCH lines of all 21 suite programs stay
// byte-identical, and every replacement the transform stage commits
// under CostModel carries the backend decision the service reported
// for its match. Replacements come back in match order, so each one
// must equal a MATCH decision after the previous one's. A hash
// mismatch prints the actual row in the table's syntax.
TEST(Protocol, CostModelMatchLinesGolden)
{
    const auto &suite = benchmarks::nasParboilSuite();
    ASSERT_EQ(suite.size(), std::size(kCostModelMatchLines));
    for (size_t p = 0; p < suite.size(); ++p) {
        const benchmarks::BenchmarkProgram &program = suite[p];
        service::ServiceOptions sopts;
        sopts.backendPolicy = transform::BackendPolicy::CostModel;
        service::MatchService svc(sopts);
        auto outcome = svc.submit(program.name, program.source);
        ASSERT_TRUE(outcome.ok) << program.name << ": " << outcome.error;
        std::string lines;
        for (const auto &line : service::formatSubmitResponse(outcome)) {
            if (line.rfind("MATCH ", 0) == 0)
                lines += line + "\n";
        }
        const uint64_t hash = fnv1a64(lines);
        EXPECT_STREQ(kCostModelMatchLines[p].program,
                     program.name.c_str());
        EXPECT_EQ(hash, kCostModelMatchLines[p].hash)
            << "actual row:\n    {\"" << program.name << "\", 0x"
            << std::hex << hash << "ull},";

        driver::DriverOptions dopts;
        dopts.applyTransforms = true;
        dopts.backends.policy = transform::BackendPolicy::CostModel;
        driver::MatchingDriver drv(dopts);
        ir::Module module;
        auto report = drv.compileAndMatch(program.source, module);
        EXPECT_FALSE(report.replacements.empty()) << program.name;
        size_t next = 0;
        for (const transform::Replacement &rep : report.replacements) {
            while (next < outcome.matchList.size() &&
                   !sameDecision(outcome.matchList[next], rep))
                ++next;
            EXPECT_LT(next, outcome.matchList.size())
                << program.name << ": committed " << rep.calleeName
                << " has no equal MATCH decision";
            ++next;
        }
    }
}
