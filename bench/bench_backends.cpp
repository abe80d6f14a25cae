/**
 * @file
 * Backend-selection crossover sweep (docs/BACKENDS.md).
 *
 * Generates square GEMM kernels with literal bounds for a range of
 * problem sizes, runs each through the full pipeline under
 * BackendPolicy::CostModel, and records which (API, platform) target
 * the cost layer chose per size together with every rejected
 * alternative's predicted time. The interesting output is the
 * crossover: small kernels stay on the host (the PCIe transfer and
 * launch latency dominate), large ones flip to an accelerator — the
 * selection actually changes with problem size, it is not a constant
 * re-labeling.
 *
 * Usage: bench_backends [--json=PATH]
 *
 * Exits non-zero when the sweep finds NO crossover (the cost model
 * has degenerated to a constant choice) or when any size fails to
 * match/transform — so CI catches a dead selection stage, not just a
 * crashed one.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/workload.h"
#include "bench_common.h"
#include "runtime/cost.h"

using namespace repro;

namespace {

/** Square float GEMM with literal bounds so the static workload
 *  estimator sees the real trip counts. */
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

struct Row
{
    int n = 0;
    analysis::WorkloadDescriptor workload;
    runtime::BackendTarget chosen;
    std::vector<runtime::BackendTarget> alternatives;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else {
            std::fprintf(stderr,
                         "usage: bench_backends [--json=PATH]\n");
            return 2;
        }
    }

    const std::vector<int> sizes = {8,  16,  24,  32,  48,  64,
                                    96, 128, 192, 256, 384, 512};
    std::vector<Row> rows;

    for (int n : sizes) {
        driver::DriverOptions opts;
        opts.applyTransforms = true;
        opts.backends.policy = transform::BackendPolicy::CostModel;
        driver::MatchingDriver drv(opts);

        ir::Module module;
        driver::MatchReport report =
            drv.compileAndMatch(gemmSource(n), module);
        if (report.replacements.size() != 1 ||
            report.replacements[0].kind != "gemm") {
            std::fprintf(stderr,
                         "bench_backends: N=%d did not produce one "
                         "gemm replacement (%zu replacements)\n",
                         n, report.replacements.size());
            return 1;
        }
        const transform::Replacement &rep = report.replacements[0];
        if (!rep.costModeled || rep.rejected.empty()) {
            std::fprintf(stderr,
                         "bench_backends: N=%d selection was not "
                         "cost-modeled\n",
                         n);
            return 1;
        }

        Row row;
        row.n = n;
        row.chosen = rep.target;
        row.alternatives = rep.rejected;
        // The engine prices a static estimate of the matched nest;
        // re-derive the same descriptor for the report. The rewritten
        // module no longer has the loop, so estimate from a fresh
        // compile of the same source.
        ir::Module pristine;
        frontend::compileMiniCOrDie(gemmSource(n), pristine);
        for (const auto &f : pristine.functions()) {
            if (f->isDeclaration())
                continue;
            analysis::FunctionAnalyses fa(f.get());
            for (const auto &loop : fa.loopInfo().loops()) {
                if (loop->parent)
                    continue;
                row.workload =
                    analysis::estimateWorkload(fa.loopInfo(), loop.get());
            }
        }
        std::printf("N=%4d  chosen=%-14s predicted=%.6g ms  "
                    "(next: %s at %.6g ms)\n",
                    n, runtime::backendToken(row.chosen).c_str(),
                    row.chosen.predictedMs,
                    runtime::backendToken(row.alternatives[0]).c_str(),
                    row.alternatives[0].predictedMs);
        rows.push_back(std::move(row));
    }

    // Crossovers: consecutive sizes whose chosen backend differs.
    struct Crossover
    {
        std::string from, to;
        int atN = 0;
    };
    std::vector<Crossover> crossovers;
    for (size_t i = 1; i < rows.size(); ++i) {
        if (!runtime::sameBackend(rows[i - 1].chosen,
                                  rows[i].chosen)) {
            crossovers.push_back(
                {runtime::backendToken(rows[i - 1].chosen),
                 runtime::backendToken(rows[i].chosen), rows[i].n});
        }
    }
    for (const auto &c : crossovers)
        std::printf("crossover: %s -> %s at N=%d\n", c.from.c_str(),
                    c.to.c_str(), c.atN);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n  \"bench\": \"backends\",\n"
            << "  \"kernel\": \"gemm\",\n"
            << "  \"policy\": \"cost_model\",\n"
            << "  \"costs\": \"modeled\",\n"
            << "  \"workload\": \"static estimate\",\n"
            << "  \"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"n\": %d, \"workload\": "
                          "{\"flops\": %.6g, \"bytes\": %.6g, "
                          "\"transfer_bytes\": %.6g}, ",
                          r.n, r.workload.flops, r.workload.bytes,
                          r.workload.transferBytes);
            out << buf << "\"chosen\": \""
                << runtime::backendToken(r.chosen) << "\", ";
            std::snprintf(buf, sizeof(buf), "\"predicted_ms\": %.6g, ",
                          r.chosen.predictedMs);
            out << buf << "\"alternatives\": [";
            for (size_t a = 0; a < r.alternatives.size(); ++a) {
                std::snprintf(buf, sizeof(buf),
                              "%s{\"target\": \"%s\", "
                              "\"predicted_ms\": %.6g}",
                              a ? ", " : "",
                              runtime::backendToken(r.alternatives[a])
                                  .c_str(),
                              r.alternatives[a].predictedMs);
                out << buf;
            }
            out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"crossovers\": [\n";
        for (size_t i = 0; i < crossovers.size(); ++i) {
            out << "    {\"from\": \"" << crossovers[i].from
                << "\", \"to\": \"" << crossovers[i].to
                << "\", \"at_n\": " << crossovers[i].atN << "}"
                << (i + 1 < crossovers.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

    if (crossovers.empty()) {
        std::fprintf(stderr,
                     "bench_backends: no crossover — the cost model "
                     "picked one backend at every size\n");
        return 1;
    }
    return 0;
}
