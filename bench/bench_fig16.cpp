/**
 * @file
 * Regenerates Figure 16: computational idioms found per benchmark,
 * broken down by idiom class.
 */
#include <cstdio>

#include "bench_common.h"

using namespace repro;

int
main()
{
    std::printf("Figure 16: Idioms per benchmark\n");
    std::printf("%-8s %6s | %9s %9s %7s %6s %6s\n", "bench", "total",
                "ScalarR", "HistogR", "Stencil", "MatOp", "SpMat");
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        idioms::ClassCounts c;
        for (const auto &m : bench::detectBenchmark(b, module))
            c.add(m.cls);
        std::printf("%-8s %6d | %9d %9d %7d %6d %6d\n",
                    b.name.c_str(), c.total(), c.scalarReductions,
                    c.histograms, c.stencils, c.matrixOps, c.sparseOps);
    }
    return 0;
}
