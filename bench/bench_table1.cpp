/**
 * @file
 * Regenerates Table 1 of the paper: idioms detected by IDL, Polly and
 * ICC across the NAS + Parboil corpus.
 *
 * Paper values: Polly 3/—/5/—/—, ICC 28/—/—/—/—, IDL 45/5/6/1/3.
 */
#include <cstdio>

#include "baselines/baselines.h"
#include "bench_common.h"

using namespace repro;

int
main()
{
    idioms::ClassCounts idl, polly, icc;

    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        for (const auto &m : bench::detectBenchmark(b, module))
            idl.add(m.cls);

        auto p = baselines::runPollyLike(module);
        polly.scalarReductions += p.scalarReductions;
        polly.stencils += p.stencils;
        auto i = baselines::runIccLike(module);
        icc.scalarReductions += i.scalarReductions;
    }

    std::printf("Table 1: Idioms detected by IDL, ICC, Polly\n");
    std::printf("%-6s %10s %10s %8s %10s %12s\n", "", "ScalarRed",
                "Histogram", "Stencil", "MatrixOp", "SparseMatOp");
    auto dash = [](int v) {
        return v == 0 ? std::string("-") : std::to_string(v);
    };
    std::printf("%-6s %10s %10s %8s %10s %12s\n", "Polly",
                dash(polly.scalarReductions).c_str(),
                dash(polly.histograms).c_str(),
                dash(polly.stencils).c_str(),
                dash(polly.matrixOps).c_str(),
                dash(polly.sparseOps).c_str());
    std::printf("%-6s %10d %10s %8s %10s %12s\n", "ICC",
                icc.scalarReductions, "-", "-", "-", "-");
    std::printf("%-6s %10d %10d %8d %10d %12d\n", "IDL",
                idl.scalarReductions, idl.histograms, idl.stencils,
                idl.matrixOps, idl.sparseOps);
    std::printf("\nPaper: Polly 3/-/5/-/-  ICC 28/-/-/-/-  "
                "IDL 45/5/6/1/3\n");
    return 0;
}
