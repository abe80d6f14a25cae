/**
 * @file
 * Semantic (not syntactic) matching — section 4.3 / Figure 8 of the
 * paper: two syntactically distinct GEMM implementations both match
 * the single GEMM idiom. Exits 1 unless each style reports exactly one
 * GEMM match.
 */
#include <cstdio>

#include "frontend/compiler.h"
#include "idioms/library.h"

using namespace repro;

namespace {

// First style: strided / transposed operands with alpha and beta.
const char *kStyle1 = R"(
    void style1(float *A, int lda, float *B, int ldb, float *C,
                int ldc, int m, int n, int k,
                float alpha, float beta) {
        for (int mm = 0; mm < m; mm++) {
            for (int nn = 0; nn < n; nn++) {
                float c = 0.0f;
                for (int i = 0; i < k; i++) {
                    float a = A[mm + i * lda];
                    float b = B[nn + i * ldb];
                    c += a * b;
                }
                C[mm+nn*ldc] = C[mm+nn*ldc] * beta + alpha * c;
            }
        }
    }
)";

// Second style: two-dimensional global arrays, memory accumulator.
const char *kStyle2 = R"(
    float M1[64][64];
    float M2[64][64];
    float M3[64][64];
    void style2() {
        for (int i = 0; i < 64; i++)
            for (int j = 0; j < 64; j++) {
                M3[i][j] = 0.0f;
                for (int k = 0; k < 64; k++)
                    M3[i][j] += M1[i][k] * M2[k][j];
            }
    }
)";

int
gemmMatches(const char *source, const char *entry)
{
    ir::Module module;
    frontend::compileMiniCOrDie(source, module);
    idioms::IdiomDetector detector;
    auto matches =
        detector.detectOne(module.functionByName(entry), "GEMM");
    return static_cast<int>(matches.size());
}

} // namespace

int
main()
{
    int style1 = gemmMatches(kStyle1, "style1");
    int style2 = gemmMatches(kStyle2, "style2");
    std::printf("Style 1 (strided, alpha/beta): %d GEMM match(es)\n",
                style1);
    std::printf("Style 2 (2D arrays, += accumulator): %d GEMM "
                "match(es)\n",
                style2);
    return style1 == 1 && style2 == 1 ? 0 : 1;
}
