#include <gtest/gtest.h>

#include <sstream>

#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "driver/driver.h"
#include "transform/binder.h"
#include "transform/transform.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

RuntimeValue I(int64_t v) { return RuntimeValue::makeInt(v); }
RuntimeValue F(double v) { return RuntimeValue::makeFP(v); }

/** Compile source twice: run @p fn sequentially and transformed,
 *  then compare a double array of @p n elements at @p out_addr. */
struct Pipeline
{
    std::unique_ptr<ir::Module> module =
        std::make_unique<ir::Module>();
    std::vector<transform::Replacement> replacements;
    int matches = 0;

    void
    build(const char *src, bool do_transform)
    {
        frontend::compileMiniCOrDie(src, *module);
        if (!do_transform)
            return;
        auto found =
            driver::MatchingDriver{}.matchModule(*module).allMatches();
        matches = static_cast<int>(found.size());
        transform::Transformer tr(*module);
        replacements = tr.applyAll(found);
        auto problems = ir::verifyModule(*module);
        ASSERT_TRUE(problems.empty())
            << problems.front() << "\n"
            << ir::printModule(*module);
    }
};

} // namespace

TEST(Transform, SpmvMatchesSequential)
{
    const char *src = R"(
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
    // Tiny CSR matrix: 3 rows.
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_GE(p.matches, 1);
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "spmv");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        interp::registerMathBuiltins(it);
        transform::bindReplacements(it, p.replacements);
        uint64_t rowstr = mem.allocate(4 * 4);
        uint64_t colidx = mem.allocate(5 * 4);
        uint64_t a = mem.allocate(5 * 8);
        uint64_t z = mem.allocate(3 * 8);
        uint64_t r = mem.allocate(3 * 8);
        int32_t rs[4] = {0, 2, 3, 5};
        int32_t ci[5] = {0, 2, 1, 0, 2};
        double av[5] = {1, 2, 3, 4, 5};
        double zv[3] = {1, 10, 100};
        for (int i = 0; i < 4; ++i) mem.store<int32_t>(rowstr+4*i, rs[i]);
        for (int i = 0; i < 5; ++i) mem.store<int32_t>(colidx+4*i, ci[i]);
        for (int i = 0; i < 5; ++i) mem.store<double>(a+8*i, av[i]);
        for (int i = 0; i < 3; ++i) mem.store<double>(z+8*i, zv[i]);
        it.run(p.module->functionByName("spmv"),
               {I(3), I(rowstr), I(colidx), I(a), I(z), I(r)});
        std::vector<double> out(3);
        for (int i = 0; i < 3; ++i) out[i] = mem.load<double>(r+8*i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    ASSERT_EQ(seq.size(), acc.size());
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], acc[i]) << "row " << i;
    EXPECT_DOUBLE_EQ(seq[0], 201.0);
}

TEST(Transform, ReductionMatchesSequential)
{
    const char *src = R"(
        double norm(double *a, double *b, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s += a[i] * b[i];
            return s;
        }
    )";
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed)
            EXPECT_EQ(p.replacements.size(), 1u);
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t a = mem.allocate(8 * 8), b = mem.allocate(8 * 8);
        for (int i = 0; i < 8; ++i) {
            mem.store<double>(a + 8 * i, i + 1.0);
            mem.store<double>(b + 8 * i, 0.5 * i);
        }
        return it.run(p.module->functionByName("norm"),
                      {I(a), I(b), I(8)}).f;
    };
    EXPECT_DOUBLE_EQ(run(false), run(true));
}

TEST(Transform, HistogramMatchesSequential)
{
    const char *src = R"(
        void histo(int *bins, int *key, int n) {
            for (int i = 0; i < n; i++)
                bins[key[i]] += 1;
        }
    )";
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed)
            EXPECT_EQ(p.replacements.size(), 1u);
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t bins = mem.allocate(4 * 4), key = mem.allocate(10 * 4);
        int32_t keys[10] = {0, 1, 2, 3, 0, 1, 2, 0, 1, 0};
        for (int i = 0; i < 10; ++i)
            mem.store<int32_t>(key + 4 * i, keys[i]);
        it.run(p.module->functionByName("histo"),
               {I(bins), I(key), I(10)});
        std::vector<int32_t> out(4);
        for (int i = 0; i < 4; ++i)
            out[i] = mem.load<int32_t>(bins + 4 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    EXPECT_EQ(seq, acc);
    EXPECT_EQ(seq[0], 4);
}

TEST(Transform, GemmFlatMatchesSequential)
{
    const char *src = R"(
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
    const int M = 4, N = 3, K = 5;
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "gemm");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t A = mem.allocate(M * K * 4);
        uint64_t B = mem.allocate(N * K * 4);
        uint64_t C = mem.allocate(M * N * 4);
        for (int i = 0; i < M * K; ++i)
            mem.store<float>(A + 4 * i, 0.25f * i);
        for (int i = 0; i < N * K; ++i)
            mem.store<float>(B + 4 * i, 1.0f - 0.1f * i);
        for (int i = 0; i < M * N; ++i)
            mem.store<float>(C + 4 * i, 2.0f);
        it.run(p.module->functionByName("sgemm"),
               {I(A), I(M), I(B), I(N), I(C), I(M), I(M), I(N), I(K),
                F(1.5), F(0.5)});
        std::vector<float> out(M * N);
        for (int i = 0; i < M * N; ++i)
            out[i] = mem.load<float>(C + 4 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_FLOAT_EQ(seq[i], acc[i]) << "elem " << i;
}

TEST(Transform, Stencil3dMatchesSequential)
{
    const char *src = R"(
        void stencil(double c0, double c1, double *A0, double *Anext,
                     int nx, int ny, int nz) {
            for (int k = 1; k < nz - 1; k++)
                for (int j = 1; j < ny - 1; j++)
                    for (int i = 1; i < nx - 1; i++)
                        Anext[i + nx * (j + ny * k)] =
                          c1 * (A0[(i+1) + nx * (j + ny * k)] +
                                A0[(i-1) + nx * (j + ny * k)] +
                                A0[i + nx * ((j+1) + ny * k)] +
                                A0[i + nx * ((j-1) + ny * k)] +
                                A0[i + nx * (j + ny * (k+1))] +
                                A0[i + nx * (j + ny * (k-1))]) -
                          c0 * A0[i + nx * (j + ny * k)];
        }
    )";
    const int NX = 6, NY = 5, NZ = 4, TOTAL = NX * NY * NZ;
    auto run = [&](bool transformed) {
        Pipeline p;
        p.build(src, transformed);
        if (transformed) {
            EXPECT_EQ(p.replacements.size(), 1u);
            EXPECT_EQ(p.replacements[0].kind, "stencil3d");
        }
        interp::Memory mem;
        interp::Interpreter it(*p.module, mem);
        transform::bindReplacements(it, p.replacements);
        uint64_t A0 = mem.allocate(TOTAL * 8);
        uint64_t An = mem.allocate(TOTAL * 8);
        for (int i = 0; i < TOTAL; ++i)
            mem.store<double>(A0 + 8 * i, 0.01 * i * (i % 7));
        it.run(p.module->functionByName("stencil"),
               {F(2.0), F(0.1), I(A0), I(An), I(NX), I(NY), I(NZ)});
        std::vector<double> out(TOTAL);
        for (int i = 0; i < TOTAL; ++i)
            out[i] = mem.load<double>(An + 8 * i);
        return out;
    };
    auto seq = run(false);
    auto acc = run(true);
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], acc[i]) << "cell " << i;
}

namespace {

/** One replacement of a golden row: every Replacement field the
 *  transform stage decides, with the kernel name "" when absent. */
struct GoldenReplacement
{
    std::string kind;
    std::string callee;
    std::string kernel;
    bool indexKernel = false;
    int reads = 0;
    int invariants = 0;
    int indexInvariants = 0;
    std::string readKinds; ///< comma-separated Type::Kind names
    std::vector<int64_t> readOffsets;
    int stencilDims = 0;
    std::string elemKind;
    std::string target; ///< runtime::backendToken
};

/** One suite program after applyAll: the FNV-1a hash of its printed
 *  module and its replacements in the order applyAll returned them. */
struct GoldenRow
{
    std::string program;
    uint64_t irHash = 0;
    std::vector<GoldenReplacement> reps;
};

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

const char *
kindName(ir::Type::Kind k)
{
    switch (k) {
      case ir::Type::Kind::Void: return "void";
      case ir::Type::Kind::I1: return "i1";
      case ir::Type::Kind::I32: return "i32";
      case ir::Type::Kind::I64: return "i64";
      case ir::Type::Kind::Float: return "float";
      case ir::Type::Kind::Double: return "double";
      case ir::Type::Kind::Pointer: return "ptr";
      case ir::Type::Kind::Array: return "array";
      case ir::Type::Kind::Function: return "fn";
    }
    return "?";
}

GoldenRow
actualRow(const std::string &program, ir::Module &module,
          const std::vector<transform::Replacement> &reps)
{
    GoldenRow row{program, fnv1a64(ir::printModule(module)), {}};
    for (const auto &r : reps) {
        std::string kinds;
        for (ir::Type::Kind k : r.readKinds)
            kinds += (kinds.empty() ? "" : ",") + std::string(kindName(k));
        row.reps.push_back({r.kind, r.calleeName,
                            r.kernel ? r.kernel->name() : "",
                            r.indexKernel != nullptr, r.numReads,
                            r.numInvariants, r.numIndexInvariants, kinds,
                            r.readOffsets, r.stencilDims,
                            kindName(r.elemKind),
                            runtime::backendToken(r.target)});
    }
    return row;
}

/** @p row in the golden table's own C++ initializer syntax. */
std::string
formatRow(const GoldenRow &row)
{
    std::ostringstream os;
    os << "    {\"" << row.program << "\", 0x" << std::hex << row.irHash
       << std::dec << "ull, {";
    for (const auto &r : row.reps) {
        os << "\n         {\"" << r.kind << "\", \"" << r.callee
           << "\", \"" << r.kernel << "\", "
           << (r.indexKernel ? "true" : "false") << ", " << r.reads
           << ", " << r.invariants << ", " << r.indexInvariants
           << ", \"" << r.readKinds << "\", {";
        for (size_t i = 0; i < r.readOffsets.size(); ++i)
            os << (i ? ", " : "") << r.readOffsets[i];
        os << "}, " << r.stencilDims << ", \"" << r.elemKind << "\", \""
           << r.target << "\"},";
    }
    os << "\n    }},\n";
    return os.str();
}

// The engine's output on the 21 Table 1 programs under the default
// policy. Each row was taken while the engine still agreed
// byte-for-byte with the pre-engine per-match transform path, so it
// pins that behaviour too: callee/kernel names (the module's name
// counter), the order functions are appended to the module and every
// planned replacement field.
const std::vector<GoldenRow> kTable1Golden = {
    {"BT", 0x430dd8a9e008a01bull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_7", "__kernel_reduce_6", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_9", "__kernel_reduce_8", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"CG", 0xdccf2d0783367aceull, {
         {"spmv", "__hetero_spmv", "", false, 0, 0, 0, "", {}, 0, "double", "MKL@CPU"},
         {"spmv", "__hetero_spmv", "", false, 0, 0, 0, "", {}, 0, "double", "MKL@CPU"},
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 4, 0, 0, "double,double,double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"DC", 0x8e5ebd59602fd5d2ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
    }},
    {"EP", 0xdf8f2f296c87cc90ull, {
         {"histogram", "__hetero_histogram_0", "__kernel_histo_val_0", true, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_2", "__kernel_reduce_1", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"FT", 0x5273b59f5c47d0faull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 4, 0, 0, "double,double,double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"IS", 0x9e9cbbb3d1324fe3ull, {
         {"histogram", "__hetero_histogram_0", "__kernel_histo_val_0", true, 1, 0, 0, "i32", {}, 0, "i32", "Lift@CPU"},
         {"reduce", "__hetero_reduce_2", "__kernel_reduce_1", false, 1, 0, 0, "i32", {}, 0, "i32", "Lift@CPU"},
    }},
    {"LU", 0x53164127d3e81129ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_7", "__kernel_reduce_6", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_9", "__kernel_reduce_8", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_11", "__kernel_reduce_10", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_13", "__kernel_reduce_12", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_16", "__kernel_reduce_15", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"MG", 0xc148e55d7011c5e9ull, {
         {"stencil3d", "__hetero_stencil3d_0", "__kernel_stencil_0", false, 8, 0, 0, "double,double,double,double,double,double,double,double", {0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, -1, 0, 0, 1}, 3, "double", "Halide@CPU"},
         {"reduce", "__hetero_reduce_2", "__kernel_reduce_1", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"SP", 0xf2ee5080dcc65352ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_7", "__kernel_reduce_6", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_9", "__kernel_reduce_8", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"UA", 0xc0c357ae485b65adull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_5", "__kernel_reduce_4", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_7", "__kernel_reduce_6", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_9", "__kernel_reduce_8", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_11", "__kernel_reduce_10", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"bfs", 0xfb6a6b7248b4033cull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "i32", {}, 0, "i32", "Lift@CPU"},
    }},
    {"cutcp", 0xdb9dbfbbe65f3f8eull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 2, 1, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"histo", 0x31f09405b4e1a7eaull, {
         {"histogram", "__hetero_histogram_0", "__kernel_histo_val_0", true, 1, 0, 0, "i32", {}, 0, "i32", "Lift@CPU"},
         {"histogram", "__hetero_histogram_1", "__kernel_histo_val_1", true, 1, 0, 0, "i32", {}, 0, "i32", "Lift@CPU"},
    }},
    {"lbm", 0xe0f84aaee1cf12dull, {
         {"stencil3d", "__hetero_stencil3d_0", "__kernel_stencil_0", false, 5, 0, 0, "double,double,double,double,double", {0, 0, 0, -1, 0, 0, 1, 0, 0, 0, -1, 0, 0, 1, 0}, 3, "double", "Halide@CPU"},
         {"stencil3d", "__hetero_stencil3d_1", "__kernel_stencil_1", false, 3, 0, 0, "double,double,double", {0, 0, 0, 0, 0, -1, 0, 0, 1}, 3, "double", "Halide@CPU"},
         {"stencil3d", "__hetero_stencil3d_2", "__kernel_stencil_2", false, 5, 0, 0, "double,double,double,double,double", {0, 0, 0, -1, 0, 0, 1, 0, 0, 0, -1, 0, 0, 1, 0}, 3, "double", "Halide@CPU"},
    }},
    {"mri-g", 0xc4567c250dcaf9a2ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"mri-q", 0x453c42c47e54b178ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_3", "__kernel_reduce_2", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
    {"sad", 0x55b1afde893aa385ull, {
         {"reduce", "__hetero_reduce_1", "__kernel_reduce_0", false, 6, 0, 0, "i32,i32,i32,i32,i32,i32", {}, 0, "i32", "Lift@CPU"},
    }},
    {"sgemm", 0xd7fde59b3b454628ull, {
         {"gemm", "__hetero_gemm_f32", "", false, 0, 0, 0, "", {}, 0, "float", "MKL@CPU"},
    }},
    {"spmv", 0xbe07061c7af25ee6ull, {
         {"spmv", "__hetero_spmv", "", false, 0, 0, 0, "", {}, 0, "double", "MKL@CPU"},
    }},
    {"stencil", 0x8fe36a9003c2ad1dull, {
         {"stencil3d", "__hetero_stencil3d_0", "__kernel_stencil_0", false, 7, 0, 0, "double,double,double,double,double,double,double", {1, 0, 0, -1, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0}, 3, "double", "Halide@CPU"},
         {"stencil3d", "__hetero_stencil3d_1", "__kernel_stencil_1", false, 7, 0, 0, "double,double,double,double,double,double,double", {1, 0, 0, -1, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0}, 3, "double", "Halide@CPU"},
    }},
    {"tpacf", 0x6bc05c2beef044b6ull, {
         {"histogram", "__hetero_histogram_0", "__kernel_histo_val_0", true, 1, 0, 0, "double", {}, 0, "i32", "Lift@CPU"},
         {"reduce", "__hetero_reduce_2", "__kernel_reduce_1", false, 1, 0, 0, "double", {}, 0, "double", "Lift@CPU"},
         {"reduce", "__hetero_reduce_4", "__kernel_reduce_3", false, 2, 0, 0, "double,double", {}, 0, "double", "Lift@CPU"},
    }},
};

} // namespace

// The transform stage's output on every Table 1 program must match
// the golden table, leave a verifier-clean module, and the corpus idiom
// counts must stay at the paper's 45/5/6/1/3. A mismatch prints the
// actual row in the table's syntax.
TEST(Transform, Table1SuiteGolden)
{
    const auto &suite = benchmarks::nasParboilSuite();
    ASSERT_EQ(suite.size(), kTable1Golden.size());
    int sr = 0, histos = 0, stencils = 0, matrix = 0, sparse = 0;
    for (size_t p = 0; p < suite.size(); ++p) {
        const auto &b = suite[p];
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        auto matches =
            driver::MatchingDriver{}.matchModule(module).allMatches();
        for (const auto &m : matches) {
            switch (m.cls) {
              case idioms::IdiomClass::ScalarReduction: ++sr; break;
              case idioms::IdiomClass::HistogramReduction:
                ++histos;
                break;
              case idioms::IdiomClass::Stencil: ++stencils; break;
              case idioms::IdiomClass::MatrixOp: ++matrix; break;
              case idioms::IdiomClass::SparseMatrixOp: ++sparse; break;
              default: break;
            }
        }
        transform::Transformer tr(module);
        auto reps = tr.applyAll(matches);

        std::string want = formatRow(kTable1Golden[p]);
        std::string got = formatRow(actualRow(b.name, module, reps));
        if (got != want)
            ADD_FAILURE() << "golden row:\n" << want << "actual row:\n"
                          << got;
        auto problems = ir::verifyModule(module);
        EXPECT_TRUE(problems.empty()) << b.name << ": " << problems.front();
    }
    EXPECT_EQ(sr, 45);
    EXPECT_EQ(histos, 5);
    EXPECT_EQ(stencils, 6);
    EXPECT_EQ(matrix, 1);
    EXPECT_EQ(sparse, 3);
}

namespace {

/**
 * Negative-oracle fixture: a reduction program whose result is
 * published through a single store to the `out` argument. The tamper
 * hook drops exactly that store, so the watched output keeps its
 * sentinel value and differential verification must notice.
 */
benchmarks::BenchmarkProgram
dotProgram()
{
    benchmarks::BenchmarkProgram p;
    p.name = "oracle-dot";
    p.suite = "test";
    p.entry = "dot";
    p.source = R"(
        double dot(int n, double *a, double *b, double *out) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s = s + a[i] * b[i];
            out[0] = s;
            return s;
        }
    )";
    p.setup = [](interp::Memory &mem) {
        const int n = 64;
        benchmarks::Instance inst;
        uint64_t a = mem.allocate(n * 8);
        uint64_t b = mem.allocate(n * 8);
        uint64_t out = mem.allocate(8);
        for (int i = 0; i < n; ++i) {
            mem.store<double>(a + 8 * i, 0.5 + 0.25 * i);
            mem.store<double>(b + 8 * i, 2.0 - 0.125 * i);
        }
        mem.store<double>(out, -1.0); // sentinel the sabotage exposes
        inst.args = {I(n), I(a), I(b), I(out)};
        inst.watchDoubles = {{out, 1}};
        return inst;
    };
    return p;
}

/** Erase every store whose pointer traces to argument @p argIndex of
 *  @p fn (directly or through one GEP). */
void
dropStoresTo(ir::Function *fn, size_t argIndex)
{
    ir::Value *target = fn->arg(argIndex);
    std::vector<ir::Instruction *> victims;
    for (auto &bb : fn->blocks()) {
        for (auto &inst : bb->insts()) {
            if (inst->opcode() != ir::Opcode::Store)
                continue;
            ir::Value *ptr = inst->operand(1);
            if (ptr == target) {
                victims.push_back(inst.get());
                continue;
            }
            auto *gep = dynamic_cast<ir::Instruction *>(ptr);
            if (gep && gep->opcode() == ir::Opcode::GEP &&
                gep->operand(0) == target)
                victims.push_back(inst.get());
        }
    }
    ASSERT_FALSE(victims.empty())
        << "no store to argument " << argIndex << " found";
    for (ir::Instruction *inst : victims)
        inst->parent()->erase(inst);
}

} // namespace

TEST(Transform, NegativeOracleDroppedStoreFailsVerification)
{
    benchmarks::BenchmarkProgram prog = dotProgram();
    driver::MatchingDriver drv;

    // The untampered pipeline must pass and must actually transform
    // (the reduction loop is idiomatic), so the oracle below is
    // exercising verification of rewritten code, not a no-op run.
    driver::TransformVerification clean = drv.verifyTransform(prog);
    ASSERT_TRUE(clean.ok()) << clean.error;
    ASSERT_GE(clean.replacements, 1u);

    // Sabotage: drop the store publishing the result. Verification
    // must fail, and the failure must be attributed to the watched
    // output comparison, not to an engine disagreement.
    driver::TransformVerification broken = drv.verifyTransform(
        prog, [](ir::Module &m) {
            ir::Function *fn = m.functionByName("dot");
            ASSERT_NE(fn, nullptr);
            dropStoresTo(fn, 3);
        });
    EXPECT_FALSE(broken.ok());
    EXPECT_NE(broken.error.find("watched double"), std::string::npos)
        << broken.error;
}

TEST(Transform, NegativeOracleNullTamperMatchesPlainVerify)
{
    // The hook itself must not perturb verification: a present but
    // empty tamper behaves exactly like the 1-argument overload.
    benchmarks::BenchmarkProgram prog = dotProgram();
    driver::MatchingDriver drv;
    driver::TransformVerification hooked =
        drv.verifyTransform(prog, [](ir::Module &) {});
    EXPECT_TRUE(hooked.ok()) << hooked.error;
    driver::TransformVerification plain = drv.verifyTransform(prog);
    EXPECT_EQ(plain.ok(), hooked.ok());
    EXPECT_EQ(plain.originalSteps, hooked.originalSteps);
    EXPECT_EQ(plain.transformedSteps, hooked.transformedSteps);
    EXPECT_EQ(plain.replacements, hooked.replacements);
}

namespace {

/**
 * A kernel over array parameters — a matrix-vector product, a 1D
 * stencil and a dot product — written either with `double a[][8]`,
 * `double x[]` and `double y[8]` or, in its twin, with pointers and
 * flat indexing. Both twins share one setup.
 */
benchmarks::BenchmarkProgram
arrayParamProgram(bool arrays)
{
    benchmarks::BenchmarkProgram p;
    p.name = arrays ? "array-params" : "pointer-params";
    p.suite = "test";
    p.entry = "kernel";
    p.source = arrays ? R"(
        void kernel(double a[][8], double x[], double y[8], double z[],
                    double *out) {
            for (int i = 0; i < 8; i++) {
                double s = 0.0;
                for (int j = 0; j < 8; j++)
                    s = s + a[i][j] * x[j];
                y[i] = s;
            }
            for (int i = 1; i < 7; i++)
                z[i] = 0.25 * y[i - 1] + 0.5 * y[i] + 0.25 * y[i + 1];
            double d = 0.0;
            for (int i = 0; i < 8; i++)
                d = d + y[i] * x[i];
            out[0] = d;
        }
    )"
                      : R"(
        void kernel(double *a, double *x, double *y, double *z,
                    double *out) {
            for (int i = 0; i < 8; i++) {
                double s = 0.0;
                for (int j = 0; j < 8; j++)
                    s = s + a[i * 8 + j] * x[j];
                y[i] = s;
            }
            for (int i = 1; i < 7; i++)
                z[i] = 0.25 * y[i - 1] + 0.5 * y[i] + 0.25 * y[i + 1];
            double d = 0.0;
            for (int i = 0; i < 8; i++)
                d = d + y[i] * x[i];
            out[0] = d;
        }
    )";
    p.setup = [](interp::Memory &mem) {
        benchmarks::Instance inst;
        uint64_t a = mem.allocate(64 * 8), x = mem.allocate(8 * 8),
                 y = mem.allocate(8 * 8), z = mem.allocate(8 * 8),
                 out = mem.allocate(8);
        for (int k = 0; k < 64; ++k)
            mem.store<double>(a + 8 * k, 0.125 * (k % 11) - 0.5);
        for (int k = 0; k < 8; ++k)
            mem.store<double>(x + 8 * k, 1.5 - 0.25 * k);
        inst.args = {I(a), I(x), I(y), I(z), I(out)};
        inst.watchDoubles = {{y, 8}, {z, 8}, {out, 1}};
        return inst;
    };
    return p;
}

/** The watched output bytes of @p p after one run of its entry under
 *  the bytecode engine, or the reference engine with @p reference. */
std::vector<uint8_t>
watchedBytes(const benchmarks::BenchmarkProgram &p, bool reference)
{
    ir::Module module;
    frontend::compileMiniCOrDie(p.source, module);
    interp::Memory mem;
    benchmarks::Instance inst = p.setup(mem);
    interp::Interpreter it(module, mem);
    interp::registerMathBuiltins(it);
    ir::Function *entry = module.functionByName(p.entry);
    if (reference)
        it.runReference(entry, inst.args);
    else
        it.run(entry, inst.args);
    std::vector<uint8_t> bytes;
    for (const auto &[addr, n] : inst.watchDoubles) {
        for (size_t k = 0; k < n; ++k) {
            double v = mem.load<double>(addr + 8 * k);
            const auto *b = reinterpret_cast<const uint8_t *>(&v);
            bytes.insert(bytes.end(), b, b + sizeof v);
        }
    }
    return bytes;
}

} // namespace

// Array parameters compile as the pointers they decay to: the array
// kernel computes byte-for-byte what its pointer twin computes, under
// both engines, and matches and transforms like any other program.
TEST(Transform, ArrayParametersRunLikePointers)
{
    const benchmarks::BenchmarkProgram arrays = arrayParamProgram(true);
    const benchmarks::BenchmarkProgram pointers = arrayParamProgram(false);
    const std::vector<uint8_t> expected = watchedBytes(pointers, false);
    EXPECT_EQ(watchedBytes(pointers, true), expected);
    EXPECT_EQ(watchedBytes(arrays, false), expected);
    EXPECT_EQ(watchedBytes(arrays, true), expected);

    driver::MatchingDriver drv;
    driver::TransformVerification v = drv.verifyTransform(arrays);
    EXPECT_TRUE(v.ok()) << v.error;
    EXPECT_GE(v.replacements, 1u);
}

// Pins every idiomTable() row: class, anchor, claim variables,
// minimum reads, specificity rank and replacement kind, including
// cells the suite goldens never exercise (FactorizationOpportunity's
// anchor, Stencil2D's missing planner, Histogram's minimum of one
// read). A mismatch prints the actual row in this table's syntax.
TEST(IdiomTable, RowsArePinned)
{
    struct Row
    {
        const char *name;
        const char *cls;
        const char *anchor;
        std::vector<std::string> claimVars;
        size_t minReads;
        size_t rank;
        const char *rewriteKind;
    };
    const Row expected[] = {
        {"GEMM", "Matrix Op.", "output.store_instr",
         {"loop[0].comparison", "loop[1].comparison",
          "loop[2].comparison"},
         0, 0, "gemm"},
        {"SPMV", "Sparse Matrix Op.", "output.store_instr",
         {"comparison", "inner.comparison"}, 0, 1, "spmv"},
        {"Stencil3D", "Stencil", "write.store_instr",
         {"loop[0].comparison", "loop[1].comparison",
          "loop[2].comparison"},
         2, 2, "stencil3d"},
        {"Stencil2D", "Stencil", "write.store_instr",
         {"loop[0].comparison", "loop[1].comparison"}, 2, 3, ""},
        {"Stencil1D", "Stencil", "write.store_instr", {"comparison"}, 2,
         4, "stencil1d"},
        {"Histogram", "Histogram Reduction", "store_instr",
         {"comparison"}, 1, 5, "histogram"},
        {"Reduction", "Scalar Reduction", "old_value", {"comparison"}, 0,
         6, "reduce"},
        {"FactorizationOpportunity", "Other", "sum", {}, 0, 7, ""},
    };
    const auto &table = idioms::idiomTable();
    ASSERT_EQ(table.size(), std::size(expected));
    for (size_t i = 0; i < table.size(); ++i) {
        const idioms::IdiomInfo &row = table[i];
        std::string claims;
        for (const auto &v : row.claimVars)
            claims += (claims.empty() ? "\"" : ", \"") + v + "\"";
        std::ostringstream actual;
        actual << "{\"" << row.name << "\", \""
               << idioms::idiomClassName(row.cls) << "\", \""
               << row.anchor << "\", {" << claims << "}, "
               << row.minReads << ", " << i << ", \"" << row.rewriteKind
               << "\"},";
        const Row &want = expected[i];
        EXPECT_TRUE(row.name == want.name &&
                    idioms::idiomClassName(row.cls) ==
                        std::string(want.cls) &&
                    row.anchor == want.anchor &&
                    row.claimVars == want.claimVars &&
                    row.minReads == want.minReads && i == want.rank &&
                    row.rewriteKind == want.rewriteKind)
            << "actual row: " << actual.str();
        EXPECT_EQ(idioms::findIdiom(row.name), &row);
    }
    EXPECT_EQ(idioms::findIdiom("SESE"), nullptr);
}

// Every replacement kind of the table has a host handler.
TEST(Binder, EveryTableKindBinds)
{
    ir::Module module;
    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    for (const idioms::IdiomInfo &row : idioms::idiomTable()) {
        if (row.rewriteKind.empty())
            continue;
        transform::Replacement rep;
        rep.kind = row.rewriteKind;
        rep.calleeName = "__bound_" + row.rewriteKind;
        EXPECT_NO_THROW(transform::bindReplacements(interp, {rep}))
            << row.rewriteKind;
    }
}

// A replacement no handler exists for fails when it is bound, not
// when (or if) its call site runs.
TEST(Binder, UnknownKindIsFatal)
{
    ir::Module module;
    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    transform::Replacement rep;
    rep.kind = "bogus";
    rep.calleeName = "__hetero_bogus_0";
    try {
        transform::bindReplacements(interp, {rep});
        FAIL() << "expected FatalError for an unknown kind";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
        EXPECT_NE(what.find("'__hetero_bogus_0'"), std::string::npos)
            << what;
    }
}
