/**
 * @file
 * Parallel matching walkthrough: shard a multi-function module and
 * the whole NAS/Parboil corpus over worker threads with
 * MatchingDriver::matchModules, and check the results are
 * byte-identical to one-thread matching.
 *
 * Exits 0 when serial and parallel agree (the CTest smoke contract).
 */
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"

using namespace repro;

namespace {

std::vector<std::string>
keysOf(const driver::MatchReport &report)
{
    std::vector<std::string> keys;
    for (const auto &m : report.allMatches())
        keys.push_back(idioms::matchFingerprint(m));
    return keys;
}

} // namespace

int
main()
{
    // 1. One module, many functions: intra-module sharding.
    std::ostringstream src;
    for (int i = 0; i < 8; ++i) {
        src << "double dot" << i << "(double *a, double *b, int n) {\n"
            << "  double acc = 0.0;\n"
            << "  for (int k = 0; k < n; k = k + 1)\n"
            << "    acc = acc + a[k] * b[k];\n"
            << "  return acc;\n"
            << "}\n";
    }

    driver::MatchingDriver drv;
    ir::Module serialModule;
    auto serial = drv.compileAndMatch(src.str(), serialModule);
    ir::Module parallelModule;
    frontend::compileMiniCOrDie(src.str(), parallelModule);
    auto parallel = std::move(drv.matchModules({&parallelModule}, 4)[0]);

    std::printf("one module, 8 functions:  serial %zu matches, "
                "4 threads %zu matches\n",
                serial.matchCount(), parallel.matchCount());
    if (keysOf(serial) != keysOf(parallel)) {
        std::fprintf(stderr, "FAIL: intra-module mismatch\n");
        return 1;
    }

    // 2. The Table 1 corpus: one shared work queue across 21
    // single-function modules, against per-module serial matching.
    std::vector<std::unique_ptr<ir::Module>> modules;
    std::vector<ir::Module *> ptrs;
    std::vector<std::string> serialKeys, parallelKeys;
    size_t serialCount = 0, parallelCount = 0;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        modules.push_back(std::make_unique<ir::Module>());
        frontend::compileMiniCOrDie(b.source, *modules.back());
        ptrs.push_back(modules.back().get());
    }
    for (ir::Module *m : ptrs) {
        auto report = drv.matchModule(*m);
        serialCount += report.matchCount();
        for (auto &k : keysOf(report))
            serialKeys.push_back(std::move(k));
    }
    for (const auto &report : drv.matchModules(ptrs, 4)) {
        parallelCount += report.matchCount();
        for (auto &k : keysOf(report))
            parallelKeys.push_back(std::move(k));
    }

    std::printf("NAS/Parboil, 21 modules:  serial %zu matches, "
                "4 threads %zu matches\n",
                serialCount, parallelCount);
    if (serialKeys != parallelKeys) {
        std::fprintf(stderr, "FAIL: corpus mismatch\n");
        return 1;
    }
    std::printf("serial and parallel drivers agree\n");
    return 0;
}
