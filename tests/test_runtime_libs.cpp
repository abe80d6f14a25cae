#include <gtest/gtest.h>

#include "frontend/licm.h"
#include "frontend/compiler.h"
#include "ir/printer.h"
#include "runtime/blas.h"
#include "runtime/device_model.h"
#include "runtime/sparse.h"
#include "benchmarks/suite.h"

using namespace repro;

TEST(Blas, GemmStridesExpressTranspose)
{
    // 2x2: C = A * B with A row-major and B accessed transposed.
    double a[] = {1, 2, 3, 4};  // [[1,2],[3,4]] row major
    double b[] = {5, 6, 7, 8};  // interpret columns as rows
    double c[4] = {0, 0, 0, 0};
    // C[i*2+j] = sum_k A[i*2+k] * B[j*2+k]  (B transposed)
    runtime::blas::gemm(c, 2, 1, a, 2, 1, b, 2, 1, 2, 2, 2, 1.0, 0.0);
    EXPECT_DOUBLE_EQ(c[0], 1 * 5 + 2 * 6);
    EXPECT_DOUBLE_EQ(c[1], 1 * 7 + 2 * 8);
    EXPECT_DOUBLE_EQ(c[2], 3 * 5 + 4 * 6);
    EXPECT_DOUBLE_EQ(c[3], 3 * 7 + 4 * 8);
}

TEST(Blas, GemvDotAxpy)
{
    double a[] = {1, 2, 3, 4, 5, 6}; // 2x3
    double x[] = {1, 1, 1};
    double y[] = {10, 20};
    runtime::blas::gemv(y, a, 3, x, 2, 3, 1.0, 0.5);
    EXPECT_DOUBLE_EQ(y[0], 5 + 6);
    EXPECT_DOUBLE_EQ(y[1], 10 + 15);
    EXPECT_DOUBLE_EQ(runtime::blas::dot(a, a, 3), 1 + 4 + 9);
    double z[] = {1, 1};
    runtime::blas::axpy(z, y, 2.0, 2);
    EXPECT_DOUBLE_EQ(z[0], 1 + 2 * y[0]);
}

TEST(Sparse, CsrmvMatchesDense)
{
    auto m = runtime::sparse::makeBandedMatrix(16, 2, 42);
    std::vector<double> x(16), y(16), y_ref(16, 0.0);
    for (int i = 0; i < 16; ++i)
        x[i] = 0.25 * i;
    runtime::sparse::csrmv(m, x.data(), y.data());
    // Dense reference.
    for (int64_t r = 0; r < m.rows; ++r) {
        for (int32_t k = m.rowstr[r]; k < m.rowstr[r + 1]; ++k)
            y_ref[r] += m.values[k] * x[m.colidx[k]];
    }
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(y[i], y_ref[i]);
}

TEST(Sparse, EllmvHandlesPadding)
{
    // 2 rows, up to 2 entries; -1 marks padding.
    int32_t indices[] = {0, 1, 1, -1}; // column-major [maxnz][rows]
    double data[] = {2.0, 3.0, 4.0, 0.0};
    double x[] = {10.0, 100.0};
    double y[2];
    runtime::sparse::ellmv(2, 2, indices, data, x, y);
    EXPECT_DOUBLE_EQ(y[0], 2.0 * 10.0 + 4.0 * 100.0);
    EXPECT_DOUBLE_EQ(y[1], 3.0 * 100.0);
}

TEST(DeviceModel, LazyCopyNeverSlower)
{
    for (const auto &b : benchmarks::nasParboilSuite()) {
        for (runtime::Platform p : runtime::allPlatforms()) {
            auto lazy = runtime::bestApiOn(p, b.profile, true);
            auto eager = runtime::bestApiOn(p, b.profile, false);
            if (lazy && eager)
                EXPECT_LE(lazy->timeMs, eager->timeMs * 1.0001);
        }
    }
}

TEST(DeviceModel, Table3WinnersMatchPaper)
{
    using runtime::Api;
    using runtime::Platform;
    struct Want
    {
        const char *bench;
        Platform platform;
        Api api;
    };
    // The crossovers the paper reports (section 8.3 / Table 3).
    const Want wants[] = {
        {"CG", Platform::DGPU, Api::CuSPARSE},
        {"sgemm", Platform::CPU, Api::MKL},
        {"sgemm", Platform::IGPU, Api::ClBLAS},
        {"sgemm", Platform::DGPU, Api::CuBLAS},
        {"IS", Platform::CPU, Api::Halide},
        {"stencil", Platform::CPU, Api::Halide},
        {"spmv", Platform::DGPU, Api::LibSPMV},
    };
    for (const Want &w : wants) {
        const auto &b = benchmarks::benchmarkByName(w.bench);
        auto best = runtime::bestApiOn(w.platform, b.profile, true);
        ASSERT_TRUE(best.has_value()) << w.bench;
        EXPECT_EQ(best->api, w.api)
            << w.bench << " on " << runtime::platformName(w.platform);
    }
}

TEST(DeviceModel, GlobalWinnersMatchPaper)
{
    // tpacf is fastest on the CPU; MG and histo on the iGPU; the
    // computational heavyweights on the external GPU.
    auto globalBest = [](const char *name) {
        const auto &b = benchmarks::benchmarkByName(name);
        runtime::Platform best = runtime::Platform::CPU;
        double best_t = 1e300;
        for (runtime::Platform p : runtime::allPlatforms()) {
            auto c = runtime::bestApiOn(p, b.profile, true);
            if (c && c->timeMs < best_t) {
                best_t = c->timeMs;
                best = p;
            }
        }
        return best;
    };
    EXPECT_EQ(globalBest("tpacf"), runtime::Platform::CPU);
    EXPECT_EQ(globalBest("MG"), runtime::Platform::IGPU);
    EXPECT_EQ(globalBest("histo"), runtime::Platform::IGPU);
    EXPECT_EQ(globalBest("sgemm"), runtime::Platform::DGPU);
    EXPECT_EQ(globalBest("CG"), runtime::Platform::DGPU);
    EXPECT_EQ(globalBest("lbm"), runtime::Platform::DGPU);
}

TEST(Licm, HoistsInvariantAddressComputation)
{
    const char *src = R"(
        float M[8][8];
        void f(int n) {
            for (int i = 0; i < 8; i++)
                for (int k = 0; k < n; k++)
                    M[i][3] += 1.0f;
        }
    )";
    ir::Module m;
    frontend::compileMiniCOrDie(src, m);
    // After LICM + promotion (run by compileMiniC), the inner loop
    // body must contain no gep: the accumulator became a phi.
    ir::Function *f = m.functionByName("f");
    analysis::DomTree dom(f, false);
    analysis::LoopInfo loops(f, dom);
    const analysis::Loop *inner = nullptr;
    for (const auto &l : loops.loops()) {
        if (l->depth == 2)
            inner = l.get();
    }
    ASSERT_NE(inner, nullptr);
    for (ir::BasicBlock *bb : inner->blocks) {
        for (const auto &inst : bb->insts()) {
            EXPECT_FALSE(inst->is(ir::Opcode::GEP))
                << "gep left in inner loop";
            EXPECT_FALSE(inst->is(ir::Opcode::Store))
                << "store left in inner loop";
        }
    }
}
