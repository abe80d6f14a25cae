#include <gtest/gtest.h>

#include "frontend/licm.h"
#include "frontend/compiler.h"
#include "ir/printer.h"
#include "runtime/device_model.h"
#include "benchmarks/suite.h"

using namespace repro;

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
